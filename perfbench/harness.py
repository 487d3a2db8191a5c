"""Runs one workload at one seed and turns its operations into metrics.

Every timing is in reference seconds (see speed.py): each operation and each
set-up round is bracketed by speed probes, and its measured seconds are
scaled by the probe time around it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speed import REF_PROBE_S, probe, scale
from tracer import Tracer
from workloads import WORKLOADS, Outcome

SETUP_ROUNDS = 5  # set-up runs this many rounds; setup_s is their median
COUNT_OPS = 4  # pool instances replayed by each count pass
MIN_OPS = 100  # so that at least 10 timed samples lie beyond op_s_p90
MAX_LOOP_S = 100.0  # keeps a run inside its time limit on a slow machine

# exact per-operation counts, averaged over the count pass, with their units
COUNTS = {
    "stft.measure.bytes_computed": "B",
    "stft.grid_csv.bytes": "B",
    "spectral.certify_rank.calls": "count",
    "supportgraph.window_support.calls": "count",
    "supportgraph.endpoint_graph.edges": "count",
    "supportgraph.tree_depth": "count",
    "supportgraph.covisibility_graph.edges": "count",
    "phase.edge_phase.calls": "count",
    "model.as_window_family.calls": "count",
    "cli.report.bytes": "B",
}
BUSY = [
    "stft.measure", "stft.aggregate", "stft.write_grid_csv", "stft.read_grid_csv",
    "spectral.certify_rank", "spectral.recover_magnitudes",
    "supportgraph.endpoint_graph", "supportgraph.spanning_tree",
    "supportgraph.covisibility_graph", "phase.reconstruct", "phase.edge_phase",
    "phase.propagate", "model.as_window_family", "robustness.stability_constants",
    "generators.chain_family",
]
SELF = ["phase.reconstruct", "cli.simulate", "cli.recover", "cli.analyze"]


@dataclass(frozen=True)
class Record:
    """One operation of a loop: which instance, its outcome, and its speed scale."""

    instance: int
    outcome: Outcome
    factor: float  # reference seconds per measured second
    traced: bool = False

    @property
    def seconds(self) -> float:
        """Latency in reference seconds."""
        return self.outcome.latency * self.factor


class Run:
    """One workload at one seed: its pool, and a tally of every operation attempted."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload, self.workdir = WORKLOADS[name], workdir
        self.attempted = self.failed = 0
        self.pool, rounds = [], []
        for r in range(SETUP_ROUNDS):
            rng = np.random.default_rng([seed, r])
            before = probe()
            start = time.perf_counter()
            self.pool += [self.workload.make_instance(rng)
                          for _ in range(self.workload.pool_per_round)]
            rounds.append((time.perf_counter() - start) * scale(before, probe()))
        self.setup_s = statistics.median(rounds)
        self.op(self.pool[0])  # warm-up: lazy initialisation is neither set-up nor latency

    def op(self, inst) -> Outcome:
        start = time.perf_counter()
        try:
            outcome = self.workload.op(inst, self.workdir)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            print(f"{self.workload.name}: operation raised {exc!r}", file=sys.stderr)
            outcome = Outcome(time.perf_counter() - start, False)
        self.attempted += 1
        self.failed += not outcome.ok
        return outcome

    def closed_loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None):
        """Run operations back to back over the pool, with a speed probe between each two.

        With a tracer, each instance runs twice in a row, once traced and once
        not, alternating which goes first, so every instance is seen both ways.
        Returns the records and the loop's wall seconds.
        """
        records: list[Record] = []
        before = probe()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(records) >= min_ops) or elapsed >= MAX_LOOP_S:
                return records, elapsed
            k = len(records) // 2 if tracer is not None else len(records)
            plan = [False] if tracer is None else [k % 2 == 0, k % 2 == 1]
            for traced in plan:
                inst = k % len(self.pool)
                if traced:
                    tracer.op = len(records)
                    with tracer:
                        outcome = self.op(self.pool[inst])
                else:
                    outcome = self.op(self.pool[inst])
                after = probe()
                records.append(Record(inst, outcome, scale(before, after), traced))
                before = after

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of one operation, averaged over the workload's memory pass."""
        peaks = []
        tracemalloc.start()
        try:
            for inst in self.pool[: self.workload.memory_ops]:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                self.op(inst)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return statistics.fmean(peaks) / 1e6

    def count_pass(self) -> Tracer:
        """Trace the first COUNT_OPS instances once, adding the files' byte counts."""
        tracer = Tracer()
        for k, inst in enumerate(self.pool[:COUNT_OPS]):
            tracer.op = k
            with tracer:
                outcome = self.op(inst)
            tracer.counts[k].update(outcome.counts)
        return tracer


def p90(values):
    """Nearest-rank 90th percentile; failed operations are +inf, missing any limit."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(run: Run, seconds: float) -> dict:
    records, wall = run.closed_loop(seconds, MIN_OPS)
    latencies = [r.seconds if r.outcome.ok else math.inf for r in records]
    measured = statistics.median(r.outcome.latency for r in records)
    probe_s = statistics.median(REF_PROBE_S / r.factor for r in records)
    print(f"{run.workload.name}: {len(records)} timed operations in {wall:.2f} s; "
          f"measured median {measured:.4g} s, median probe {probe_s:.4g} s", file=sys.stderr)
    return {
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_p90": (p90(latencies), "s"),
        # one client: completed operations per reference second of operation time
        "ops_per_s": (sum(r.outcome.ok for r in records) / sum(r.seconds for r in records),
                      "ops/s"),
        "peak_alloc_mb": (run.peak_alloc_mb(), "MB"),
        "setup_s": (run.setup_s, "s"),
    }


def per_layer(run: Run, seconds: float, trace_file: Path) -> tuple[dict, bool]:
    """Traced loop (each instance traced and untraced) plus two count passes that must agree."""
    tracer = Tracer()
    records, _ = run.closed_loop(seconds, 2, tracer)
    first, second = run.count_pass(), run.count_pass()
    exact = first.counts == second.counts
    if not exact:
        print("counts differ between two traced passes over the same instances",
              file=sys.stderr)
    tracer.write(trace_file, workload=run.workload.name, count_pass=first.counts,
                 factors={i: r.factor for i, r in enumerate(records) if r.traced})

    busy, own = tracer.busy_and_self()
    traced = [(i, r.factor) for i, r in enumerate(records) if r.traced]
    metrics = {f"{name}.s": (statistics.median(busy[i][name] * f for i, f in traced), "s")
               for name in BUSY}
    metrics.update({f"{name}.self_s": (statistics.median(own[i][name] * f for i, f in traced), "s")
                    for name in SELF})
    ops = list(first.counts.values())
    total = {name: sum(c[name] for c in ops) for name in [*COUNTS, "supportgraph.spanning_tree.edges"]}
    metrics.update({name: (total[name] / len(ops), unit) for name, unit in COUNTS.items()})
    calls = total["phase.edge_phase.calls"]
    metrics["phase.edge_phase.tree_share"] = (
        total["supportgraph.spanning_tree.edges"] / calls if calls else 0.0, "ratio")
    # errors are deterministic per instance: take each instance reached once
    errs = {r.instance: r.outcome.rel_err for r in records if r.outcome.rel_err is not None}
    metrics["noisy_rel_err_p50"] = (statistics.median(errs.values()) if errs else 0.0, "ratio")
    pairs = list(zip(records[::2], records[1::2]))
    metrics["trace.op_s_p50"] = (statistics.median(r.seconds for r in records if r.traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        a.seconds - b.seconds if a.traced else b.seconds - a.seconds for a, b in pairs), "s")
    metrics["trace.probe_s_p50"] = (statistics.median(REF_PROBE_S / r.factor for r in records), "s")
    return metrics, exact


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One workload's result object: correct, attempted, failed and its metrics."""
    run = Run(name, seed, out / "tmp")
    if trace:
        metrics, exact = per_layer(run, seconds, out / f"trace-{name}.json")
    else:
        metrics, exact = end_to_end(run, seconds), True
    return {
        "correct": run.failed == 0 and exact,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
