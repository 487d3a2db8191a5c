"""The four benchmark workloads: pool generation, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A pool of instances is generated from
the run seed before timing starts; an operation receives one pool instance
and nothing else.  ``latency`` covers only the calls into stftpr; the
correctness check and any temporary directory are outside it.  See README.md
for why each geometry was chosen.
"""

from __future__ import annotations

import importlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from stftpr import cli, generators, model, phase

# the package re-exports a function named ``stft``, which shadows the submodule
stft = importlib.import_module("stftpr.stft")

EXACT_TOL = 1e-8  # acceptance-suite tolerance: distance <= 1e-8 * ||x||
NOISY_TOL = 1e-2  # relative-error ceiling on deep-noisy


@dataclass(frozen=True)
class Outcome:
    latency: float
    ok: bool
    rel_err: float | None = None
    # exact byte counts of the files the operation wrote
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    pool_per_round: int
    make_instance: Callable[[np.random.Generator], object]
    op: Callable[[object, Path], Outcome]
    # instances in the untimed tracemalloc pass; more where the peak varies by instance
    memory_ops: int = 4


def _rel_err(estimate, x) -> float:
    return model.phase_distance(estimate, x).distance / float(np.linalg.norm(x))


# wide-exact: many windows and edges, shallow tree; measure and edge phases dominate
WIDE_N, WIDE_HOP, WIDE_R = 1024, 8, 10


def _wide_instance(rng):
    return generators.certified_instance(WIDE_N, WIDE_HOP, WIDE_R, rng)


def _wide_op(inst, workdir) -> Outcome:
    x, fam = inst
    cfg = model.ProblemConfig(WIDE_N, WIDE_HOP, WIDE_R)
    start = time.perf_counter()
    grid = stft.measure(x, fam, WIDE_HOP)
    result = phase.reconstruct(grid, fam, cfg)
    latency = time.perf_counter() - start
    err = _rel_err(result.estimate, x)
    return Outcome(latency, err <= EXACT_TOL, err)


# deep-noisy: one window, hop 1 -> n 1x1 residues and a spanning tree of depth n/2
DEEP_N, DEEP_NOISE, DEEP_MIN_MAGNITUDE = 1024, 1e-9, 0.5


def _deep_instance(rng):
    x, fam = generators.certified_instance(DEEP_N, 1, 1, rng)
    grid = stft.measure(x, fam, 1)
    noisy = stft.corrupt(grid, rng.uniform(-DEEP_NOISE, DEEP_NOISE, grid.values.shape))
    return x, fam, noisy, model.support(x)


def _deep_op(inst, workdir) -> Outcome:
    x, fam, grid, true_support = inst
    cfg = model.ProblemConfig(DEEP_N, 1, 1)
    start = time.perf_counter()
    result = phase.reconstruct(grid, fam, cfg, min_support_magnitude=DEEP_MIN_MAGNITUDE)
    latency = time.perf_counter() - start
    err = _rel_err(result.estimate, x)
    ok = tuple(result.diagnostics["support"]) == true_support and err <= NOISY_TOL
    return Outcome(latency, ok, err)


# CLI workloads: the pool is a list of --seed values for the in-process CLI.
# certify uses 12 random-length windows beside the 4 chain windows so that
# certificate size, and with it latency and memory, varies less between seeds.
CLI_HOP = 4
ROUNDTRIP_N, ROUNDTRIP_R = 96, 6
CERTIFY_N, CERTIFY_R = 40, 16


def _cli_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _geometry(n, num_windows, seed) -> list[str]:
    return ["--n", str(n), "--hop", str(CLI_HOP), "--num-windows", str(num_windows),
            "--windows", f"chain:{CLI_HOP}", "--signal", "random", "--seed", str(seed)]


def _roundtrip_op(seed, workdir) -> Outcome:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        d = Path(tmp)
        start = time.perf_counter()
        code = cli.main(["simulate", *_geometry(ROUNDTRIP_N, ROUNDTRIP_R, seed), "--out", str(d)])
        if code == cli.EXIT_OK:
            code = cli.main(["recover", "--grid", str(d / "grid.csv"),
                             "--windows", str(d / "windows.json"),
                             "--signal", str(d / "signal.json"),
                             "--out", str(d / "recover.json")])
        latency = time.perf_counter() - start
        if code != cli.EXIT_OK:
            return Outcome(latency, False)
        ref = json.loads((d / "recover.json").read_text())["reference_distance"]
        err = ref["distance"] / ref["reference_norm"]
        counts = {
            "stft.grid_csv.bytes": (d / "grid.csv").stat().st_size,
            "cli.report.bytes": sum((d / f).stat().st_size
                                    for f in ("report.json", "recover.json")),
        }
        return Outcome(latency, err <= EXACT_TOL, err, counts)


def _certify_op(seed, workdir) -> Outcome:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out = Path(tmp) / "certificate.json"
        start = time.perf_counter()
        code = cli.main(["analyze", *_geometry(CERTIFY_N, CERTIFY_R, seed), "--out", str(out)])
        latency = time.perf_counter() - start
        if code != cli.EXIT_OK:
            return Outcome(latency, False)
        cert = json.loads(out.read_text())
        ok = cert["verdict"] == "provably-retrievable" and cert["covisibility"]["connected"]
        return Outcome(latency, ok, None, {"cli.report.bytes": out.stat().st_size})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-exact", 5, _wide_instance, _wide_op),
        Workload("deep-noisy", 2, _deep_instance, _deep_op),
        Workload("cli-roundtrip", 80, _cli_seed, _roundtrip_op),
        Workload("certify", 80, _cli_seed, _certify_op, memory_ops=24),
    )
}
