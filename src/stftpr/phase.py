"""Relative-phase extraction along endpoint-graph edges and the full pipeline.

For an endpoint-graph edge witnessed by (window r, hop m), the aggregate
correlation collapses to a single term:

    n * correlation[r, m] = x(n1) * conj(x(n2)) * w_r(a) * conj(w_r(a + l - 1))

with n1 = hop*m - a and n2 = n1 - (l - 1) (indices mod n, a and l the
window's anchor and supporting length; see
:func:`~stftpr.supportgraph.endpoint_witness`).  The collapse needs
l <= n/2: longer windows make the endpoint product ambiguous, so that bound
is hard enforced before any edge phase is trusted.  Dividing out the
window's endpoint-product phase leaves the unit phasor of
x(n1)*conj(x(n2)), and a spanning-tree walk anchored at the smallest
support index (phase 0 by convention) assembles the full signal from the
recovered magnitudes.

:func:`edge_phase` gives every edge of the endpoint graph its witness and
phase in a single array pass over the graph's witness arrays and the (window,
hop) correlation table, as one :class:`EdgeWitnesses` record of parallel
arrays with a row per edge.  Any one witness determines an edge's phase,
because the correlation collapses to a single term, so each edge takes its
witness of largest evidence magnitude (the most robust to noise), ties going
to the smaller (window, hop); that evidence must clear the degeneracy
tolerance.  Each window's endpoint phasor is worked out once per run as a
double-double, and each edge's phase is rounded once from it, so no
rounding repeats down a tree path and exact-data errors grow like the
square root of the tree depth.  The spanning tree's ``edges`` array selects the tree edges' rows,
whose phases, oriented from parent to child, :func:`propagate` multiplies
along the tree in discovery order; the remaining rows, set against the
estimate, give the residuals of the redundant edges.  Both selections come
back as records, and the detected support as an ``intp`` array, so the
results hold no Python object per vertex or per edge.

Each per-edge array has one copy alive at a time.  The rotation works
through the edges in blocks, so beside the record it builds it holds ten
block-length float arrays.  That record is split into the tree rows and
the redundant rows as soon as it returns, and it goes before the walk;
during the walk the per-edge data alive are those two records, the
parents' positions and the walk's one list, of the oriented tree phases
that each become their child's phasor.

:func:`reconstruct_compressed` is the pipeline - magnitudes, support,
endpoint graph, edge phases, propagation - on the ``2nR/L`` aggregate
statistics and the run's rank gate; its stages return arrays, and it builds
the :class:`ReconstructionResult` once, at its end.  Every stage takes the
run's :class:`~stftpr.supportgraph.Geometry`, which the pipeline reads off
the gate; the gate itself goes right after the magnitude solve.
:func:`reconstruct` builds the geometry once and runs the pipeline on a
measurement grid's aggregates and a gate it does not keep.  The pipeline's
graph gate,
:func:`certify_graph`, is the one home of the graph half of the
retrievability rule; :func:`verdict` adds the rank gate to it, and is the
one home of the verdict that ``analyze`` writes and
:func:`~stftpr.generators.certified_instance` requires.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from decimal import Decimal, localcontext

import numpy as np

from .errors import CertificationError, DegenerateEdgeError, DisconnectedGraphError
from .model import ProblemConfig, _above_tolerance, _modulus, check_prior, check_tolerance
from .robustness import threshold_support
from .spectral import ModulationMatrices, _check_aggregates, certify_rank, recover_magnitudes
from .stft import AggregateMeasurements, MeasurementGrid, aggregate
from .supportgraph import (
    Geometry,
    SpanningTree,
    SupportGraph,
    _components_text,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    endpoint_witness,
    is_connected,
    long_windows,
    spanning_tree,
)


@dataclass(frozen=True, eq=False)
class EdgeWitnesses:
    """Chosen witnesses of a list of endpoint-graph edges, as parallel arrays.

    Row k joins signal indices ``n1[k]`` and ``n2[k]`` through the (window,
    hop) pair ``(window[k], hop_index[k])``, whose aggregate correlation
    ``evidence[k]`` gave the edge its phase: ``phase[k]`` is the unit phasor
    of ``x(n1[k]) * conj(x(n2[k]))``.  ``residual[k]`` is the edge's phase
    residual against the estimate; it is None on records not set against an
    estimate, such as :func:`edge_phase`'s and the tree edges'.  A degenerate
    row (no witness clears the tolerance) has window and hop -1, evidence and
    phase 0 and residual NaN, and its n1, n2 are the edge's (lo, hi).
    ``record[rows]`` is the record of the selected rows.
    """

    n1: np.ndarray
    n2: np.ndarray
    window: np.ndarray
    hop_index: np.ndarray
    evidence: np.ndarray
    phase: np.ndarray
    residual: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n1.size

    def __getitem__(self, rows) -> EdgeWitnesses:
        cols = {f.name: getattr(self, f.name) for f in fields(self)}
        return EdgeWitnesses(**{k: None if v is None else v[rows] for k, v in cols.items()})


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimate with its global phase anchored at the root support index.

    The estimate is exactly zero off the detected support; ``root_vertex``
    (the smallest support index) carries phase 0 by convention.  Diagnostics
    include clamping residues, the weakest edge evidence used and tree depth;
    ``support`` is the detected support as a sorted ``intp`` array, and
    ``used_witnesses`` and ``nontree_residuals`` are :class:`EdgeWitnesses`
    records of the tree edges' witnesses and of the redundant (non-tree)
    edges' witnesses with their phase residuals.  The rank gate the run was
    given is not kept: a caller that reads it past the run, as ``recover``
    does for its stability constants, keeps its own reference.
    """

    estimate: np.ndarray
    root_vertex: int | None
    diagnostics: dict


def default_degenerate_tol(n: int, noise_level: float) -> float:
    """Evidence-magnitude floor below which an edge phase is meaningless.

    Entrywise noise of level eps can move a correlation value by at most
    n * eps, so evidence below that could have been produced by noise alone;
    the absolute term covers exact-data rounding.
    """
    return n * noise_level + 1e-12


def _split(a, hi=None, lo=None):
    """Veltkamp's split: ``a == hi + lo`` exactly, each part of at most 26 significant bits.

    ``hi`` and ``lo``, if given, are the arrays the parts are written to.
    """
    c = np.multiply(134217729.0, a, out=hi)  # 2**27 + 1
    hi = np.subtract(c, np.subtract(c, a, out=lo), out=hi)
    return hi, np.subtract(a, hi, out=lo)


def _endpoint_phasors(geom: Geometry) -> np.ndarray:
    """Each window's endpoint phasor ``w(far) * conj(w(anchor)) / |...|`` as ``head + tail``.

    Rows: the head's real and imaginary parts, then the tail's, one column
    per window.  The phasor is worked out from the exact taps in 40-digit
    decimal, which is exact on every platform and meets no float range
    limit.  The head is the 26-bit upper half of its nearest double and the
    tail the double nearest the rest (a double-double in Dekker's sense), so
    a product of the head with a double is exact in two doubles.
    """
    near, far = geom.endpoint_taps
    parts = []
    with localcontext() as ctx:
        ctx.prec = 40
        for a, b in zip(far.tolist(), near.tolist()):
            ar, ai, br, bi = map(Decimal, (a.real, a.imag, b.real, b.imag))
            re, im = ar * br + ai * bi, ai * br - ar * bi
            mod = (re * re + im * im).sqrt()
            heads = [_split(float(v / mod))[0] for v in (re, im)]
            parts.append((*heads, *(float(v / mod - Decimal(h)) for v, h in zip((re, im), heads))))
    return np.array(parts).T


_EDGE_BLOCK = 1 << 13  # edges per block of the rotation and of the walk: 64 kB per float array


def _rotate(parts: np.ndarray, window: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``(head + tail) * value / |value|`` for row k's window ``window[k]``, each part rounded once.

    ``parts`` is :func:`_endpoint_phasors`' table.  Each part is Ogita, Rump
    and Oishi's Dot2 ("Accurate sum and dot product", 2005) of the head's two
    products with the unit, plus the tail's product.  A rounding that every
    edge of a window shared would add up along tree paths; these do not.
    Moduli are at most 1, so no step leaves the float range.  The edges go
    in blocks of ``_EDGE_BLOCK``.  The real part is finished, tail products
    included, before the imaginary part starts, and each is summed straight
    into the result.  The unit's parts are split where they are used, the
    imaginary one once for both, and the tail's parts gathered where they
    are used, so beside the result a block holds ten float arrays of block
    length: the unit, the head's two parts, the sum and five scratch.
    """
    out = np.empty(value.size, dtype=complex)
    for lo in range(0, value.size, _EDGE_BLOCK):
        v, r, o = (x[lo:lo + _EDGE_BLOCK] for x in (value, window, out))
        u = v / _modulus(v)
        a, c, s, *tmp = np.empty((8, v.size))
        p, q = tmp[:2]
        np.take(parts[0], r, out=a)
        np.take(parts[1], r, out=c)
        # the real part, tr*ur - ti*ui beside the heads', then the imaginary,
        # tr*ui + ti*ur, which starts from the split of ui the real part left;
        # the negation is exact: c is -hi, then hi again
        for b, d, tail, part, b_split in ((u.real, u.imag, np.subtract, o.real, False),
                                          (u.imag, u.real, np.add, o.imag, True)):
            _dot2(a, b, np.negative(c, out=c), d, s, part, tmp, b_split)
            np.take(parts[2], r, out=p)
            np.take(parts[3], r, out=q)
            part += tail(np.multiply(p, b, out=p), np.multiply(q, d, out=q), out=p)
            np.add(s, part, out=part)
    return out


def _dot2(a, b, c, d, s, err, tmp, b_split=False) -> None:
    """``a*b + c*d`` as ``s + err``.

    ``a`` and ``c`` have at most 26 significant bits, so with ``b`` and ``d``
    split by :func:`_split` each product is exact in two doubles
    (Dekker's TwoProduct, 1971); TwoSum adds the two into the rounded sum
    ``s``, and its error and the products' go into ``err``, so that ``s +
    (err + rest)`` is rounded once, as if the whole were worked out in twice
    the precision.  ``tmp`` holds five scratch arrays; the last two take
    each split in turn and are left holding ``d``'s.  With ``b_split`` they
    already hold ``b``'s.
    """
    p, q, z, hi, lo = tmp
    np.add(np.multiply(a, b, out=p), np.multiply(c, d, out=q), out=s)
    np.subtract(s, p, out=z)
    # (p - (s - z)) + (q - z), then the products' errors x*y2 - (xy - x*y1)
    np.subtract(p, np.subtract(s, z, out=err), out=err)
    err += np.subtract(q, z, out=z)
    for x, y, xy, split in ((a, b, p, not b_split), (c, d, q, True)):
        if split:
            _split(y, hi, lo)
        np.subtract(xy, np.multiply(x, hi, out=z), out=z)
        err += np.subtract(np.multiply(x, lo, out=xy), z, out=xy)


def _evidence_floor(degenerate_tol: float) -> float:
    """The evidence a witness must exceed: ``degenerate_tol``, at least the smallest normal float.

    A subnormal correlation keeps only a few significant bits, so its phase
    is no evidence at any tolerance (and its unit would overflow).
    """
    return max(degenerate_tol, float(np.finfo(float).tiny))


def _strongest_witnesses(graph: SupportGraph, agg: AggregateMeasurements, degenerate_tol: float):
    """Rows of the edges whose strongest witness clears the evidence floor, and those witnesses.

    Each edge's witnesses are in (window, hop) order, so the first one of
    largest evidence is its strongest, ties going to the smaller (window,
    hop); if it does not clear :func:`_evidence_floor`, none does.
    """
    mag = _modulus(agg.correlation[graph.window, graph.hop_index])
    first = np.empty(0, dtype=np.intp)
    if len(graph.edges):  # an empty graph has no witnesses, and reduceat may reject empty input
        starts = graph.offsets[:-1]
        best = np.repeat(np.maximum.reduceat(mag, starts), np.diff(graph.offsets))
        first = np.minimum.reduceat(np.where(mag == best, np.arange(mag.size), mag.size), starts)
    chosen = np.flatnonzero(mag[first] > _evidence_floor(degenerate_tol))
    return chosen, first[chosen]


def edge_phase(
    graph: SupportGraph, agg: AggregateMeasurements, geom: Geometry, degenerate_tol: float
) -> EdgeWitnesses:
    """Witness and phase of every edge of ``graph``, in one array pass over the correlation table.

    ``graph`` is an endpoint graph of ``geom``; aggregates of another shape
    raise ``DimensionMismatchError``.  Each edge takes the witness of largest
    evidence magnitude, ties going to the smaller (window, hop), provided it
    exceeds ``degenerate_tol`` and the smallest normal float; else its row
    of the record (row k is edge k of ``graph.edges``) is degenerate.  The
    endpoint builder drops windows of supporting length 1; a chosen witness
    of one maps to no edge and raises ``RuntimeError``.  A negative,
    infinite or NaN ``degenerate_tol`` raises ``ConfigurationError``.
    """
    check_tolerance("degenerate_tol", degenerate_tol)
    _check_aggregates(agg, geom)
    num_edges = len(graph.edges)
    chosen, first = _strongest_witnesses(graph, agg, degenerate_tol)
    r, m = graph.window[first], graph.hop_index[first]
    del first  # the witness indices go before the rotation, and so do the rows if all are chosen
    if chosen.size == num_edges:  # every edge has its witness
        chosen = slice(None)
    value = agg.correlation[r, m]
    rel = _rotate(_endpoint_phasors(geom), r, value)
    n1, n2 = endpoint_witness(geom.supports[r], geom.cfg.hop, m, geom.cfg.n)
    ends = graph.edges[chosen]
    match = ((n1 == ends[:, 0]) & (n2 == ends[:, 1])) | ((n1 == ends[:, 1]) & (n2 == ends[:, 0]))
    if not match.all():
        k = int(np.argmin(match))
        raise RuntimeError(
            f"witness ({r[k]}, {m[k]}) maps to ({n1[k]}, {n2[k]}), "
            f"not edge {tuple(ends[k].tolist())}"
        )

    def per_edge(col, fill):
        if isinstance(chosen, slice):
            return col
        out = np.full(num_edges, fill, dtype=col.dtype)
        out[chosen] = col
        return out

    return EdgeWitnesses(
        n1=per_edge(n1, graph.edges[:, 0]),
        n2=per_edge(n2, graph.edges[:, 1]),
        window=per_edge(r, -1),
        hop_index=per_edge(m, -1),
        evidence=per_edge(value, 0),
        phase=per_edge(rel, 0),
    )


def propagate(tree: SpanningTree, magnitudes_sq: np.ndarray, used: EdgeWitnesses) -> np.ndarray:
    """Walk the spanning tree, giving each vertex its accumulated phasor; returns the estimate.

    The estimate is zero off the tree's vertices, the ``intp`` array
    ``tree.graph.vertices``, and its moduli are the square roots of the
    recovered ``magnitudes_sq``.  The root gets phase 0.  ``used`` is the
    tree edges' witness record, row k for tree edge k, whose phase (the unit
    phasor of ``x(n1[k]) * conj(x(n2[k]))``) is oriented here from parent to
    child.  The walk follows the tree's discovery order, so each parent's
    phasor is known before its children's, one plain Python complex product
    per edge.  The oriented phases are the walk's one list, built
    ``_EDGE_BLOCK`` edges at a time, and each entry is overwritten by its
    child's phasor; beside it the walk holds only the parents' positions in
    that order, read through a ``memoryview``.  The list goes before the
    estimate is assembled, in place.
    """
    amps = np.sqrt(magnitudes_sq)
    # position of each parent in discovery order; the root's is 0
    up = np.zeros(amps.shape[0], dtype=np.intp)
    up[tree.child] = np.arange(1, tree.child.size + 1)
    up = up[tree.parent]
    phasor = [1.0 + 0.0j]
    # edge_phase matched each witness's (n1, n2) to its edge's endpoints
    for lo in range(0, up.size, _EDGE_BLOCK):
        z = used.phase[lo:lo + _EDGE_BLOCK]
        phasor += np.where(tree.child[lo:lo + _EDGE_BLOCK] == used.n1[lo:lo + _EDGE_BLOCK],
                           z, z.conj()).tolist()
    for k, p in enumerate(memoryview(up), 1):
        phasor[k] = phasor[p] * phasor[k]
    phasor = np.array(phasor)  # the list goes before the estimate is assembled
    estimate = np.zeros(amps.shape[0], dtype=complex)
    if tree.root is not None:
        estimate[tree.root] = amps[tree.root]
        estimate[tree.child] = np.multiply(phasor[1:], amps[tree.child], out=phasor[1:])
    return estimate


def _detect_support(
    magnitudes_sq: np.ndarray,
    noise_level: float,
    zero_tol: float,
    min_support_magnitude: float | None,
) -> tuple[np.ndarray, str]:
    """Support of the recovered ``magnitudes_sq``, as a sorted ``intp`` array, and its rule.

    Exact data thresholds the squared magnitudes relative to their peak (the
    squared-domain analogue of :func:`~stftpr.model.support`, matching the
    noise floor of the linear-algebra path).  Noisy data keeps the entries
    :func:`~stftpr.robustness.threshold_support` keeps, so it needs the
    caller's prior on the smallest nonzero magnitude.
    """
    if noise_level > 0.0:
        prior = check_prior(
            min_support_magnitude,
            "noisy reconstruction needs a positive prior for the smallest "
            "nonzero magnitude (min_support_magnitude)",
        )
        return np.flatnonzero(threshold_support(np.sqrt(magnitudes_sq), prior)), "half-minimum"
    return np.flatnonzero(_above_tolerance(magnitudes_sq, zero_tol)), "relative-threshold"


def certify_graph(graph: SupportGraph, geom: Geometry, cov: SupportGraph | None = None) -> None:
    """The graph half of the retrievability rule, on an endpoint graph of ``geom``.

    Returns when ``graph`` is connected and either has no edge (at most one
    support index, which needs no edge phase) or meets no window longer
    than half the signal; with the rank gate passed, that proves the signal
    on ``graph.vertices`` determined up to a global phase.  Otherwise raises
    ``DisconnectedGraphError`` (carrying the covisibility components) when
    the covisibility graph on ``graph.vertices`` is disconnected too, a
    proof that the signal is not determined, and ``CertificationError``
    when only the endpoint graph is disconnected or when windows longer
    than half the signal meet a graph with edges, where nothing is proved.
    ``cov``, the covisibility graph on ``graph.vertices``, is built unless given.
    """
    if not is_connected(graph):
        # only a disconnected covisibility graph proves the signal undetermined
        if cov is None:
            cov = covisibility_graph_from_support(graph.vertices, geom)
        proof = not is_connected(cov)
        comps = (cov if proof else graph).components()
        found = f"graph on the detected support has {_components_text(comps)}"
        if proof:
            raise DisconnectedGraphError(f"covisibility {found}", components=comps)
        raise CertificationError(
            f"endpoint {found}; the covisibility graph is connected, so recovery is undecided"
        )
    too_long = long_windows(geom.supports, geom.cfg.n) if graph.edges.size else []
    if too_long:
        raise CertificationError(
            f"windows {too_long} have supporting length above half the signal "
            f"length; edge phases would be ambiguous",
            failing=too_long,
        )


def verdict(graph: SupportGraph, mats: ModulationMatrices, cov: SupportGraph | None = None) -> str:
    """The retrievability verdict on ``graph``'s support, the rule ``recover`` runs.

    :func:`certify_graph` on ``graph``, an endpoint graph of
    ``mats.geometry``, decides first: ``DisconnectedGraphError`` reads
    "provably-non-retrievable" and ``CertificationError`` "indeterminate".
    A passing graph gate reads "provably-retrievable" when the rank gate
    ``mats`` certifies, else "indeterminate".  ``cov`` is passed on to
    :func:`certify_graph`.
    """
    try:
        certify_graph(graph, mats.geometry, cov)
    except DisconnectedGraphError:
        return "provably-non-retrievable"
    except CertificationError:
        return "indeterminate"
    return "provably-retrievable" if mats.certified else "indeterminate"


def reconstruct(
    grid: MeasurementGrid,
    windows,
    cfg: ProblemConfig,
    min_support_magnitude: float | None = None,
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct a signal, up to a global phase, from a measurement grid.

    Builds the run's :class:`~stftpr.supportgraph.Geometry` once and runs
    :func:`reconstruct_compressed` on the grid's aggregate statistics and the
    rank gate :func:`~stftpr.spectral.certify_rank` at ``rank_tol``, so it
    raises the same errors.  It keeps no reference to the gate, so the
    gate's pseudo-inverses go with the magnitude solve.
    """
    geom, agg = _grid_aggregates(grid, windows, cfg, degenerate_tol)
    return reconstruct_compressed(agg, certify_rank(geom, rank_tol), min_support_magnitude,
                                  degenerate_tol)


def _grid_aggregates(grid: MeasurementGrid, windows, cfg: ProblemConfig, degenerate_tol):
    """The run's geometry and the grid's aggregates, with ``degenerate_tol`` checked.

    The tolerance is checked before the caller builds the rank gate, so a bad
    one is reported first.
    """
    geom = Geometry(cfg, windows)
    agg = aggregate(grid, geom)
    if degenerate_tol is not None:
        check_tolerance("degenerate_tol", degenerate_tol)
    return geom, agg


def reconstruct_compressed(
    agg: AggregateMeasurements,
    mats: ModulationMatrices,
    min_support_magnitude: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct a signal, up to a global phase, from the aggregate statistics alone.

    Consumes exactly ``2 * num_windows * n / hop`` measurements (one energy
    and one correlation per window and hop).  ``mats`` is the run's rank
    gate, :func:`~stftpr.spectral.certify_rank` of its geometry
    ``mats.geometry``; the pipeline drops its reference to it right after
    the magnitude solve, its last reader.  The three steps: recover squared
    magnitudes through the certified modulation matrices, build the
    endpoint graph on the detected support (reported in
    ``diagnostics["support"]``) and verify connectivity, then extract edge
    phases and propagate them over a spanning tree.  Each edge's phase comes
    from its witness of largest evidence magnitude, ties going to the
    smaller (window, hop).  Raises ``DimensionMismatchError`` when the
    aggregates and the geometry disagree in shape, ``CertificationError``
    when the gate does not certify, the errors of :func:`certify_graph` on
    the endpoint graph of the detected support, and ``DegenerateEdgeError``
    when noise drowns out a needed edge.
    """
    geom = mats.geometry
    _check_aggregates(agg, geom)
    cfg = geom.cfg
    if degenerate_tol is None:
        degenerate_tol = default_degenerate_tol(cfg.n, agg.noise_level)
    else:  # before the gate's verdict, so a bad tolerance is reported first
        check_tolerance("degenerate_tol", degenerate_tol)
    magnitudes = recover_magnitudes(agg, mats)
    del mats  # nothing past the magnitude solve reads the gate
    detected, rule = _detect_support(
        magnitudes.magnitudes_sq, agg.noise_level, cfg.zero_tol, min_support_magnitude
    )
    # an empty support gives an empty graph and tree, and an all-zero estimate
    graph = endpoint_graph_from_support(detected, geom)
    certify_graph(graph, geom)
    tree = spanning_tree(graph)
    edges = edge_phase(graph, agg, geom, degenerate_tol)
    # the tree rows and the redundant rows; the full record goes before the walk
    nontree = np.ones(len(graph.edges), dtype=bool)
    nontree[tree.edges] = False
    used, rest = edges[tree.edges], edges[nontree]
    del edges, nontree
    bad = np.flatnonzero(used.window < 0)
    if bad.size:
        ends = tuple(graph.edges[tree.edges[bad[0]]].tolist())
        raise DegenerateEdgeError(
            f"edge {ends}: all witness evidence magnitudes are below "
            f"{_evidence_floor(degenerate_tol):.3e} (noise level {agg.noise_level:.3e})",
            endpoints=ends,
        )
    estimate = propagate(tree, magnitudes.magnitudes_sq, used)
    # the redundant edges' phases against the estimate; NaN where degenerate
    unit = np.zeros(cfg.n, dtype=complex)
    on = estimate != 0
    unit[on] = estimate[on] / np.abs(estimate[on])
    residual = _modulus(rest.phase - unit[rest.n1] * np.conj(unit[rest.n2]))
    residual[rest.window < 0] = np.nan
    diagnostics = {
        "support": detected,
        "support_rule": rule,
        "noise_level": agg.noise_level,
        "clamped_mass": magnitudes.clamped_mass,
        "imag_residue": magnitudes.imag_residue,
        "severe_clamping": magnitudes.severe_clamping,
        "tree_depth": tree.depth,
        "used_witnesses": used,
        "min_evidence": float(_modulus(used.evidence).min()) if len(used) else None,
        "nontree_residuals": replace(rest, residual=residual),
    }
    return ReconstructionResult(estimate, tree.root, diagnostics)
