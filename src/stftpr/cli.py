"""Command-line front end: simulate | analyze | recover | bounds | verify.

All randomness flows through one generator seeded from ``--seed`` (mandatory
whenever anything random is requested), and every output is written with
sorted keys and round-trip float formatting, so identical configurations
produce byte-identical files.  Reports are byte-for-byte what
``json.dumps(obj, indent=2, sort_keys=True)`` writes (two-space indent, ASCII
escapes, shortest round-trip floats, NaN/Infinity tokens) plus a newline;
``verify`` writes compact sorted-key JSON lines, and grid CSV rows end in
CRLF.

Exit codes: 0 success, 1 usage or I/O problem, 2 provably non-retrievable
(disconnected support graph), 3 certification failure (rank gate or window
length), 4 degenerate edge (noise overwhelms a needed phase).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CertificationError,
    ConfigurationError,
    DegenerateEdgeError,
    DisconnectedGraphError,
    PhaseRetrievalError,
)
from .generators import (
    antipodal_pair_signal,
    chain_family,
    mask_family,
    random_interval_window,
    random_signal,
    rectangular_window,
)
from .model import DEFAULT_ZERO_TOL, ProblemConfig, as_window_family, phase_distance, support
from .oracle import compare, measure_direct, stft_direct
from .phase import reconstruct, reconstruct_compressed
from .robustness import error_budget, stability_constants
from .spectral import certify_rank, recover_magnitudes
from .stft import aggregate, corrupt, measure, read_grid_csv, stft, write_grid_csv
from .supportgraph import (
    SupportGraph,
    build_endpoint_graph,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
    window_support,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_RETRIEVABLE = 2
EXIT_CERTIFICATION = 3
EXIT_DEGENERATE = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the exit-code contract
    # reserves 2 for non-retrievable instances, so remap to 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


# exact-type formatters for the scalars a payload is mostly made of
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(obj, pad: str) -> str:
    """JSON text of ``obj``, as ``json.dumps(indent=2, sort_keys=True)`` writes it.

    ``pad`` is the newline plus indent of the line ``obj`` starts on.  Numpy
    integers and floats are written as Python ints and floats, arrays as
    nested lists, complex values as ``[re, im]``, tuples as lists and a
    ``SupportGraph`` as its ``to_dict()``; dict keys are sorted after
    ``str()``.  Any other type raises ``TypeError``.
    """
    fmt = _SCALAR_TEXT.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    if isinstance(obj, dict):
        inner = pad + "  "
        return _object_text({str(k): _json_text(v, inner) for k, v in obj.items()}, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        try:  # a list of plain scalars, such as a witness pair, in one pass
            texts = [_SCALAR_TEXT[type(v)](v) for v in obj]
        except KeyError:
            texts = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(texts) + pad + "]"
    if isinstance(obj, SupportGraph):
        return _graph_text(obj, pad)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _json_text([float(obj.real), float(obj.imag)], pad)
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), pad)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _object_text(texts: dict[str, str], pad: str) -> str:
    """JSON object from the texts of its values, keys sorted."""
    if not texts:
        return "{}"
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(
        [_encode_str(k) + ": " + t for k, t in sorted(texts.items())]
    ) + pad + "}"


def _graph_text(graph: SupportGraph, pad: str) -> str:
    """``_json_text(graph.to_dict(), pad)``, written straight from the graph's arrays.

    The text of each (window, hop) witness ``[r, m]`` is formatted once, into
    a table indexed by ``window * M + hop_index``; an edge's witness list is
    then one join over table entries, and its dict one format call.
    """
    inner = pad + "  "  # the graph's keys
    item = inner + "  "  # the edges
    key = item + "  "  # an edge's keys
    wit = key + "  "  # its witnesses
    pair = wit + "  "  # the two numbers of a witness
    num_windows = int(graph.window.max()) + 1 if graph.window.size else 0
    num_hops = int(graph.hop_index.max()) + 1 if graph.hop_index.size else 0
    table = [f"[{pair}{r},{pair}{m}{wit}]" for r in range(num_windows) for m in range(num_hops)]
    rows = graph.window.astype(np.intp) * num_hops + graph.hop_index
    texts = [table[i] for i in rows.tolist()]
    head = "{" + key + '"n": %d,' + key + '"n2": %d,' + key + '"witnesses": '
    edge = head + "[" + wit + "%s" + key + "]" + item + "}"
    bare = head + "[]" + item + "}"  # an edge without witnesses, as from_edges allows
    sep, bounds = "," + wit, graph.offsets.tolist()
    edges = [
        edge % (lo, hi, sep.join(texts[a:b])) if a < b else bare % (lo, hi)
        for (lo, hi), a, b in zip(graph.endpoints.tolist(), bounds, bounds[1:])
    ]
    fields = {k: _json_text(v, inner) for k, v in graph.summary().items()}
    fields["edges"] = "[" + item + ("," + item).join(edges) + inner + "]" if edges else "[]"
    return _object_text(fields, pad)


def _dump_json(payload, out: str | None) -> None:
    text = _json_text(payload, "\n") + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _pairs_to_complex(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: expected [re, im] pairs ({exc})")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError(f"{what}: expected an array of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_to_pairs(x) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(x, dtype=complex)]


def read_signal_json(path) -> np.ndarray:
    with Path(path).open() as fh:
        return _pairs_to_complex(json.load(fh), f"signal file {path}")


def write_signal_json(path, x) -> None:
    Path(path).write_text(json.dumps(_complex_to_pairs(x)) + "\n")


def read_windows_json(path) -> np.ndarray:
    with Path(path).open() as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ConfigurationError(f"window file {path}: expected a list of windows")
    rows = [_pairs_to_complex(row, f"window {i} in {path}") for i, row in enumerate(data)]
    return as_window_family(np.stack(rows))


def write_windows_json(path, fam) -> None:
    payload = [_complex_to_pairs(w) for w in np.asarray(fam, dtype=complex)]
    Path(path).write_text(json.dumps(payload) + "\n")


def _require_rng(rng, what: str) -> np.random.Generator:
    if rng is None:
        raise ConfigurationError(f"--seed is required when using {what}")
    return rng


def _windows_from_spec(spec: str, n: int, num_windows: int, rng) -> np.ndarray:
    """A window family from a file path or a named generator spec."""
    path = Path(spec)
    if spec.endswith(".json") or path.exists():
        fam = read_windows_json(path)
        if fam.shape[1] != n:
            raise ConfigurationError(
                f"window file {spec} has length {fam.shape[1]}, expected {n}"
            )
        return fam
    if num_windows < 1:
        raise ConfigurationError(f"--num-windows must be at least 1, got {num_windows}")
    name, _, arg = spec.partition(":")
    if name == "rectangular":
        length = int(arg) if arg else n
        return np.stack([rectangular_window(n, length)] * num_windows)
    if name == "random-support":
        length = int(arg) if arg else max(2, n // 2)
        gen = _require_rng(rng, "the random-support window generator")
        return np.stack([random_interval_window(n, length, gen) for _ in range(num_windows)])
    if name == "masks":
        gen = _require_rng(rng, "the masks window generator")
        return mask_family(n, num_windows, gen)
    if name == "chain":
        gen = _require_rng(rng, "the chain window generator")
        hop = int(arg) if arg else 1
        return chain_family(n, hop, num_windows, gen)
    raise ConfigurationError(
        f"unknown window spec {spec!r} (file path, rectangular:L, random-support:L, "
        f"masks, or chain:HOP)"
    )


def _signal_from_spec(spec: str, n: int, rng) -> np.ndarray:
    path = Path(spec)
    if spec.endswith(".json") or path.exists():
        x = read_signal_json(path)
        if x.shape[0] != n:
            raise ConfigurationError(
                f"signal file {spec} has length {x.shape[0]}, expected {n}"
            )
        return x
    if spec == "random":
        return random_signal(n, _require_rng(rng, "the random signal generator"))
    if spec == "delta":
        x = np.zeros(n, dtype=complex)
        x[0] = 1.0
        return x
    if spec == "ones":
        return np.ones(n, dtype=complex)
    if spec == "antipodal-pair":
        return antipodal_pair_signal(n)
    raise ConfigurationError(
        f"unknown signal spec {spec!r} (file path, random, delta, ones, antipodal-pair)"
    )


def _stability_section(fam, mats, noise_level, reference, min_magnitude, zero_tol):
    consts = stability_constants(fam, mats, zero_tol)
    section = consts.to_dict()
    section["noise_level"] = float(noise_level)
    ref = min_magnitude if min_magnitude is not None else reference
    if ref is not None:
        section.update(error_budget(consts, noise_level, ref, zero_tol).to_dict())
    return section


def _instance(args):
    """The generator, window family, config and signal that ``args`` name, drawn in that order."""
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    fam = _windows_from_spec(args.windows, args.n, args.num_windows, rng)
    cfg = ProblemConfig(args.n, args.hop, fam.shape[0], args.zero_tol)
    x = _signal_from_spec(args.signal, args.n, rng)
    return rng, fam, cfg, x


def cmd_simulate(args) -> int:
    if args.noise > 0:  # checked before any spec is read; no seed means no generator
        _require_rng(args.seed, "--noise")
    rng, fam, cfg, x = _instance(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_signal_json(outdir / "signal.json", x)
    write_windows_json(outdir / "windows.json", fam)
    grid = measure(x, fam, cfg.hop)
    write_grid_csv(grid, outdir / "grid.csv")
    if args.noise > 0:
        eps = rng.uniform(-args.noise, args.noise, grid.values.shape)
        write_grid_csv(corrupt(grid, eps), outdir / "grid_noisy.csv")
    mats = certify_rank(fam, cfg.hop, args.rank_tol)
    supports = [window_support(w, cfg.zero_tol) for w in fam]
    report = {
        "config": {
            "n": cfg.n,
            "hop": cfg.hop,
            "num_windows": cfg.num_windows,
            "seed": args.seed,
            "noise": args.noise,
            "zero_tol": cfg.zero_tol,
            "windows": args.windows,
            "signal": args.signal,
        },
        "certification": mats.report(),
        "window_supports": [
            {"window": r, "length": ws.length, "anchor": ws.anchor}
            for r, ws in enumerate(supports)
        ],
        "short_windows": not long_windows(supports, cfg.n),
        "signal_support": list(support(x, cfg.zero_tol)),
    }
    _dump_json(report, str(outdir / "report.json"))
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, fam, cfg, x = _instance(args)
    supp = support(x, cfg.zero_tol)
    supports = [window_support(w, cfg.zero_tol) for w in fam]
    cov = covisibility_graph_from_support(supp, fam, cfg.hop, cfg.zero_tol)
    end = endpoint_graph_from_support(supp, fam, cfg.hop, cfg.zero_tol, supports=supports)
    mats = certify_rank(fam, cfg.hop, args.rank_tol)
    short = not long_windows(supports, cfg.n)
    necessary = len(cov.components()) <= 1
    sufficient = len(end.components()) <= 1 and short and mats.certified
    if not necessary:
        verdict = "provably-non-retrievable"
    elif sufficient:
        verdict = "provably-retrievable"
    else:
        verdict = "indeterminate"
    payload = {
        "covisibility": cov,
        "endpoint": end,
        "short_windows": short,
        "certification": mats.report(),
        "verdict": verdict,
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_recover(args) -> int:
    grid = read_grid_csv(args.grid)
    fam = read_windows_json(args.windows)
    cfg = ProblemConfig(grid.n, grid.hop, fam.shape[0], args.zero_tol)
    reference = read_signal_json(args.signal) if args.signal else None
    min_magnitude = args.min_magnitude
    if min_magnitude is None and grid.noise_level > 0 and reference is not None:
        supp = support(reference, cfg.zero_tol)
        if supp:
            min_magnitude = float(np.min(np.abs(reference[list(supp)])))
    kwargs = dict(
        min_support_magnitude=min_magnitude,
        rank_tol=args.rank_tol,
        degenerate_tol=args.degenerate_tol,
    )
    if args.compressed:
        agg = aggregate(grid, fam, cfg.zero_tol)
        result = reconstruct_compressed(agg, fam, cfg, **kwargs)
    else:
        result = reconstruct(grid, fam, cfg, **kwargs)
    report = {
        "estimate": _complex_to_pairs(result.estimate),
        "root_vertex": result.root_vertex,
        "connected": True,
        "diagnostics": result.diagnostics,
        "stability": _stability_section(
            fam, result.modulation, grid.noise_level, reference, min_magnitude, cfg.zero_tol
        ),
    }
    if reference is not None:
        dist = phase_distance(result.estimate, reference)
        report["reference_distance"] = {
            "distance": dist.distance,
            "aligning_phase": dist.aligning_phase,
            "reference_norm": float(np.linalg.norm(reference)),
        }
    _dump_json(report, args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    fam = _windows_from_spec(args.windows, args.n, args.num_windows, rng)
    reference = None
    if args.signal:
        reference = _signal_from_spec(args.signal, args.n, rng)
    if reference is None and args.min_magnitude is None:
        raise ConfigurationError("bounds needs --signal or --min-magnitude")
    section = _stability_section(
        fam, certify_rank(fam, args.hop, args.rank_tol), args.noise, reference,
        args.min_magnitude, args.zero_tol,
    )
    _dump_json(section, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, fam, cfg, x = _instance(args)
    reports = []
    for r, w in enumerate(fam):
        reports.append(
            compare(f"stft:window={r}", stft(x, w, cfg.hop), stft_direct(x, w, cfg.hop), 1e-10)
        )
    grid = measure(x, fam, cfg.hop)
    reports.append(
        compare("measure", grid.values, measure_direct(x, fam, cfg.hop).values, 1e-10)
    )
    mats = certify_rank(fam, cfg.hop, args.rank_tol)
    if mats.certified:
        agg = aggregate(grid, fam, cfg.zero_tol)
        mag = recover_magnitudes(agg, mats, cfg)
        reports.append(
            compare("magnitudes", mag.magnitudes_sq, np.abs(x) ** 2, 1e-9)
        )
        supports = [window_support(w, cfg.zero_tol) for w in fam]
        graph = build_endpoint_graph(x, fam, cfg.hop, cfg.zero_tol)
        for edge in graph.edges:
            for r, m in edge.witnesses:
                ws = supports[r]
                n1, n2 = endpoint_witness(ws, cfg.hop, m, cfg.n)
                far = ws.far(cfg.n)
                lhs = cfg.n * agg.correlation[r, m]
                rhs = x[n1] * np.conj(x[n2]) * fam[r, ws.anchor] * np.conj(fam[r, far])
                reports.append(
                    compare(f"edge:{edge.endpoints}:witness=({r},{m})", lhs, rhs, 1e-10)
                )
    lines = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)
    if args.out is None or args.out == "-":
        sys.stdout.write(lines)
    else:
        Path(args.out).write_text(lines)
    return EXIT_OK


def _add_common(sub, *, signal_default=None):
    sub.add_argument("--n", type=int, required=True, help="signal length")
    sub.add_argument("--hop", type=int, default=1, help="hop between sections (must divide n)")
    sub.add_argument("--num-windows", type=int, default=1, help="window count for generators")
    sub.add_argument("--windows", required=True,
                     help="window file or generator (rectangular:L | random-support:L | masks | chain:HOP)")
    sub.add_argument("--signal", default=signal_default,
                     help="signal file or pattern (random | delta | ones | antipodal-pair)")
    sub.add_argument("--seed", type=int, default=None, help="seed for anything random")
    sub.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL,
                     help="relative tolerance for zero entries")
    sub.add_argument("--rank-tol", type=float, default=None,
                     help="relative tolerance for the rank certificate")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared."""
    parser = _Parser(prog="stftpr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="synthesize signal, windows, and measurement files")
    _add_common(sim, signal_default="random")
    sim.add_argument("--noise", type=float, default=0.0,
                     help="uniform noise level for an additional noisy grid")
    # simulate writes a directory of files
    for action in sim._actions:
        if action.dest == "out":
            action.required = True
            action.help = "output directory"

    ana = subs.add_parser("analyze", help="retrievability certificates for a signal/window pair")
    _add_common(ana, signal_default="random")

    rec = subs.add_parser("recover", help="reconstruct a signal from measurement files")
    rec.add_argument("--grid", required=True, help="measurement CSV (with sibling .meta.json)")
    rec.add_argument("--windows", required=True, help="window family JSON file")
    rec.add_argument("--signal", default=None, help="optional reference signal JSON")
    rec.add_argument("--compressed", action="store_true",
                     help="reconstruct from the aggregate statistics only")
    rec.add_argument("--min-magnitude", type=float, default=None,
                     help="prior for the smallest nonzero signal magnitude (noisy data)")
    rec.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL)
    rec.add_argument("--rank-tol", type=float, default=None)
    rec.add_argument("--degenerate-tol", type=float, default=None,
                     help="evidence-magnitude floor for edge phases")
    rec.add_argument("--out", default=None)

    bnd = subs.add_parser("bounds", help="stability constants and noise error budget")
    _add_common(bnd)
    bnd.add_argument("--noise", type=float, default=0.0, help="noise level for the budget")
    bnd.add_argument("--min-magnitude", type=float, default=None,
                     help="prior for the smallest nonzero signal magnitude")

    ver = subs.add_parser("verify", help="emit fast-vs-oracle comparison reports (JSON lines)")
    _add_common(ver, signal_default="random")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound ``cmd_*`` (a wrapper, a test double) is reached
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except DisconnectedGraphError as exc:
        print(f"stftpr: non-retrievable: {exc}", file=sys.stderr)
        return EXIT_NON_RETRIEVABLE
    except CertificationError as exc:
        print(f"stftpr: certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except DegenerateEdgeError as exc:
        print(f"stftpr: degenerate edge: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (PhaseRetrievalError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"stftpr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
