"""Command-line front end: simulate | analyze | recover | bounds | verify.

All randomness flows through one generator seeded from ``--seed`` (mandatory
whenever anything random is requested), and every output is written with
sorted keys and round-trip float formatting, so identical configurations
produce byte-identical files.  Reports are byte-for-byte what
``json.dumps(obj, indent=2, sort_keys=True)`` writes (two-space indent, ASCII
escapes, shortest round-trip floats, NaN/Infinity tokens) plus a newline;
``verify`` writes compact sorted-key JSON lines, and grid CSV rows end in
CRLF.

Exit codes: 0 success, 1 usage or I/O problem (including a ``verify``
instance too large for the direct oracle), 2 provably non-retrievable
(disconnected covisibility graph), 3 certification failure (rank gate, a
disconnected endpoint graph on a connected covisibility graph, or window
length), 4 degenerate edge (noise overwhelms a needed phase).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import (
    CertificationError,
    ConfigurationError,
    DegenerateEdgeError,
    DisconnectedGraphError,
    PhaseRetrievalError,
    SearchSpaceError,
)
from .generators import (
    antipodal_pair_signal,
    chain_family,
    mask_family,
    random_interval_window,
    random_signal,
    rectangular_window,
)
from .model import DEFAULT_ZERO_TOL, ProblemConfig, check_tolerance, phase_distance, support
from .oracle import DIRECT_TERM_CAP, compare, stft_direct
from .phase import EdgeWitnesses, _grid_aggregates, reconstruct_compressed, verdict
from .robustness import error_budget, min_support_magnitude, stability_constants
from .spectral import certify_rank, recover_magnitudes
from .stft import aggregate, corrupt, measure, read_grid_csv, stft, write_grid_csv
from .supportgraph import (
    Geometry,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
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

    ``pad`` is the newline plus indent of the line ``obj`` starts on.  ``obj``
    holds JSON values only: dicts with ``str`` keys, lists, and values of
    exactly the types ``str``, ``int``, ``float``, ``bool`` and ``None``.  Any
    other type, a numpy scalar included, raises ``TypeError``.
    """
    fmt = _SCALAR_TEXT.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = (_encode_str(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = pad + "  "
        try:  # a list of plain scalars, such as a forest row, in one pass
            texts = [_SCALAR_TEXT[type(v)](v) for v in obj]
        except KeyError:
            texts = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(texts) + pad + "]"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _witness_dicts(witnesses: EdgeWitnesses) -> list[dict]:
    """One dict per row of the record, as ``recover`` reports witnesses.

    A row has keys ``n1``, ``n2``, ``window`` and ``hop_index``, and also
    ``residual`` when the record carries residuals.  A degenerate row
    (window -1) keeps only ``n1`` and ``n2``, and its residual is null.
    """
    cols = (witnesses.n1, witnesses.n2, witnesses.window, witnesses.hop_index)
    out = [
        {"n1": a, "n2": b, "window": w, "hop_index": h} if w >= 0 else {"n1": a, "n2": b}
        for a, b, w, h in zip(*(c.tolist() for c in cols))
    ]
    if witnesses.residual is not None:
        for entry, res in zip(out, witnesses.residual.tolist()):
            entry["residual"] = res if "window" in entry else None
    return out


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the path ``out``, or to stdout when ``out`` is None or ``-``."""
    with nullcontext(sys.stdout) if out is None or out == "-" else Path(out).open("w") as f:
        f.write(text)


def _dump_json(payload, out: str | None) -> None:
    """Write ``payload`` as :func:`_json_text` formats it, plus a newline, to ``out`` or stdout.

    The whole text is formatted before the file is opened, so a ``TypeError``
    leaves no file.
    """
    _write(_json_text(payload, "\n") + "\n", out)


def _pairs_to_complex(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: expected [re, im] pairs ({exc})")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError(f"{what}: expected an array of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_to_pairs(x) -> list[list[float]]:
    return np.ascontiguousarray(x, dtype=complex).view(float).reshape(-1, 2).tolist()


def read_signal_json(path, n: int) -> np.ndarray:
    """The signal in file ``path``, which must hold ``n`` finite entries."""
    with Path(path).open() as fh:
        x = _pairs_to_complex(json.load(fh), f"signal file {path}")
    if not np.isfinite(x).all():
        raise ConfigurationError(f"signal file {path} has a NaN or infinite entry")
    if x.shape[0] != n:
        raise ConfigurationError(f"signal file {path} has length {x.shape[0]}, expected {n}")
    return x


def write_signal_json(path, x) -> None:
    Path(path).write_text(json.dumps(_complex_to_pairs(x)) + "\n")


def read_windows_json(path, n: int) -> np.ndarray:
    """The ``(R, n)`` array of windows in file ``path``; the run's geometry checks the family."""
    with Path(path).open() as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ConfigurationError(f"window file {path}: expected a list of windows")
    rows = [_pairs_to_complex(row, f"window {i} in {path}") for i, row in enumerate(data)]
    for row in rows:
        if len(row) != n:
            raise ConfigurationError(f"window file {path} has length {len(row)}, expected {n}")
    return np.stack(rows)


def write_windows_json(path, fam) -> None:
    payload = [_complex_to_pairs(w) for w in np.asarray(fam, dtype=complex)]
    Path(path).write_text(json.dumps(payload) + "\n")


def _require_rng(rng, what: str) -> np.random.Generator:
    if rng is None:
        raise ConfigurationError(f"--seed is required when using {what}")
    return rng


def _spec_file(spec: str) -> Path | None:
    """Path of a file spec (one ending in ``.json`` or naming a regular file), else None."""
    path = Path(spec)
    return path if spec.endswith(".json") or path.is_file() else None


def _spec_int(spec: str, arg: str, default: int) -> int:
    """The integer argument of window generator spec ``spec``, or ``default`` without one."""
    try:
        return int(arg) if arg else default
    except ValueError:
        raise ConfigurationError(f"window spec {spec!r}: {arg!r} is not an integer") from None


def _windows_from_spec(spec: str, n: int, num_windows: int, rng) -> np.ndarray:
    """A window family from a file path or a named generator spec."""
    if (path := _spec_file(spec)) is not None:
        return read_windows_json(path, n)
    if num_windows < 1:
        raise ConfigurationError(f"--num-windows must be at least 1, got {num_windows}")
    name, _, arg = spec.partition(":")
    if name == "rectangular":
        return np.stack([rectangular_window(n, _spec_int(spec, arg, n))] * num_windows)
    if name == "random-support":
        length = _spec_int(spec, arg, max(2, n // 2))
        gen = _require_rng(rng, "the random-support window generator")
        return np.stack([random_interval_window(n, length, gen) for _ in range(num_windows)])
    if name == "masks":
        if arg:
            raise ConfigurationError(f"window spec {spec!r}: masks takes no argument")
        gen = _require_rng(rng, "the masks window generator")
        return mask_family(n, num_windows, gen)
    if name == "chain":
        gen = _require_rng(rng, "the chain window generator")
        return chain_family(n, _spec_int(spec, arg, 1), num_windows, gen)
    raise ConfigurationError(
        f"unknown window spec {spec!r} (file path, rectangular:L, random-support:L, "
        f"masks, or chain:HOP)"
    )


def _signal_from_spec(spec: str, n: int, rng) -> np.ndarray:
    if (path := _spec_file(spec)) is not None:
        return read_signal_json(path, n)
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


def _prior(min_magnitude, reference, zero_tol):
    """The run's smallest-magnitude prior: ``--min-magnitude``, else the reference's, else None."""
    if min_magnitude is not None or reference is None:
        return min_magnitude
    return min_support_magnitude(reference, zero_tol)


def _stability_section(mats, noise_level, prior):
    consts = stability_constants(mats)
    section = consts.to_dict()
    section["noise_level"] = float(noise_level)
    if prior is not None:
        section.update(error_budget(consts, noise_level, prior).to_dict())
    return section


def _instance(args):
    """The generator, run geometry and signal (or None) that ``args`` name, in order."""
    ProblemConfig(args.n, args.hop, 1)  # names a bad --n or --hop before windows are drawn
    if args.seed is not None and args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    fam = _windows_from_spec(args.windows, args.n, args.num_windows, rng)
    geom = Geometry(ProblemConfig(args.n, args.hop, len(fam), args.zero_tol), fam)
    x = _signal_from_spec(args.signal, args.n, rng) if args.signal is not None else None
    return rng, geom, x


def cmd_simulate(args) -> int:
    # checked before any spec is read or file written; no seed means no generator
    check_tolerance("--noise", args.noise)
    if not np.isfinite(2 * args.noise):  # the width of the uniform draw
        raise ConfigurationError(f"--noise {args.noise} is too large to draw noise from")
    if args.noise > 0:
        _require_rng(args.seed, "--noise")
    rng, geom, x = _instance(args)  # --zero-tol and --rank-tol are checked before any write
    cfg, fam, supports = geom.cfg, geom.windows, geom.supports
    certification = certify_rank(geom, args.rank_tol).report()
    grid = measure(x, fam, cfg.hop)  # a grid past the float range is refused before any write
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, outdir / "grid.csv")
    if args.noise > 0:
        eps = rng.uniform(-args.noise, args.noise, grid.values.shape)
        write_grid_csv(corrupt(grid, eps), outdir / "grid_noisy.csv")
    del grid  # so that formatting the JSON files below does not add to the grid's peak
    write_signal_json(outdir / "signal.json", x)
    write_windows_json(outdir / "windows.json", fam)
    lengths, anchors = supports.length.tolist(), supports.anchor.tolist()
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
        "certification": certification,
        "window_supports": [
            {"window": r, "length": lengths[r], "anchor": anchors[r]} for r in range(len(lengths))
        ],
        "short_windows": not long_windows(supports, cfg.n),
        "signal_support": list(support(x, cfg.zero_tol)),
    }
    _dump_json(report, str(outdir / "report.json"))
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, geom, x = _instance(args)
    supp = support(x, geom.cfg.zero_tol)
    cov = covisibility_graph_from_support(supp, geom)
    end = endpoint_graph_from_support(supp, geom)
    mats = certify_rank(geom, args.rank_tol)
    payload = {
        "covisibility": cov.to_dict(),
        "endpoint": end.to_dict(),
        "short_windows": not long_windows(geom.supports, geom.cfg.n),
        "certification": mats.report(),
        # recover's rule, run on the true support
        "verdict": verdict(end, mats, cov),
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_recover(args) -> int:
    grid = read_grid_csv(args.grid)
    fam = read_windows_json(args.windows, grid.n)
    cfg = ProblemConfig(grid.n, grid.hop, fam.shape[0], args.zero_tol)
    reference = read_signal_json(args.signal, grid.n) if args.signal else None
    prior = _prior(args.min_magnitude, reference, cfg.zero_tol)
    # reconstruct's steps, keeping its one gate for the stability section
    geom, agg = _grid_aggregates(grid, fam, cfg, args.degenerate_tol)
    mats = certify_rank(geom, args.rank_tol)
    result = reconstruct_compressed(agg, mats, prior, args.degenerate_tol)
    # a report holds JSON values only, so the support array and witness records become lists
    diagnostics = dict(result.diagnostics, support=result.diagnostics["support"].tolist())
    for key in ("used_witnesses", "nontree_residuals"):
        diagnostics[key] = _witness_dicts(diagnostics[key])
    report = {
        "estimate": _complex_to_pairs(result.estimate),
        "root_vertex": result.root_vertex,
        "connected": True,
        "diagnostics": diagnostics,
        "stability": _stability_section(mats, grid.noise_level, prior),
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
    _, geom, reference = _instance(args)
    prior = _prior(args.min_magnitude, reference, geom.cfg.zero_tol)
    if prior is None:
        raise ConfigurationError("bounds needs --signal or --min-magnitude")
    section = _stability_section(certify_rank(geom, args.rank_tol), args.noise, prior)
    _dump_json(section, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, geom, x = _instance(args)
    cfg, fam = geom.cfg, geom.windows
    terms = cfg.num_windows * cfg.num_hops * cfg.n ** 2
    if terms > DIRECT_TERM_CAP:
        raise SearchSpaceError(
            f"verify needs {terms} direct DFT terms (windows * hops * n**2), above "
            f"the cap of {DIRECT_TERM_CAP}; use a smaller --n or fewer windows"
        )
    directs = [stft_direct(x, w, cfg.hop) for w in fam]
    reports = [
        compare(f"stft:window={r}", stft(x, w, cfg.hop), direct, 1e-10)
        for r, (w, direct) in enumerate(zip(fam, directs))
    ]
    grid = measure(x, fam, cfg.hop)
    # measure_direct's expression, on the transforms computed above
    oracle = np.stack([np.abs(direct) ** 2 for direct in directs])
    reports.append(compare("measure", grid.values, oracle, 1e-10))
    mats = certify_rank(geom, args.rank_tol)
    if mats.certified:
        agg = aggregate(grid, geom)
        mag = recover_magnitudes(agg, mats)
        reports.append(
            compare("magnitudes", mag.magnitudes_sq, np.abs(x) ** 2, 1e-9)
        )
        # every witness of every endpoint-graph edge, in (edge, window, hop) order
        graph = endpoint_graph_from_support(support(x, cfg.zero_tol), geom)
        r, m = graph.window, graph.hop_index
        n1, n2 = endpoint_witness(geom.supports[r], cfg.hop, m, cfg.n)
        ends = np.repeat(graph.edges, np.diff(graph.offsets), axis=0)
        xs = x.tolist()
        cols = (ends.tolist(), r.tolist(), m.tolist(), n1.tolist(), n2.tolist(),
                (cfg.n * agg.correlation[r, m]).tolist(),
                *(tap[r].tolist() for tap in geom.endpoint_taps))
        for (lo, hi), window, hop, i, j, lhs, near, far in zip(*cols):
            # Python complex products: vectorised ones can round differently
            rhs = xs[i] * xs[j].conjugate() * near * far.conjugate()
            case = f"edge:({lo}, {hi}):witness=({window},{hop})"
            reports.append(compare(case, lhs, rhs, 1e-10))
    _write("".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports), args.out)
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
