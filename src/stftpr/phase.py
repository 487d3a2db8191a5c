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
tolerance.  The spanning tree's ``edges`` array selects the tree edges' rows,
whose phases, oriented from parent to child, :func:`propagate` multiplies
along the tree in discovery order; the remaining rows, set against the
estimate, give the residuals of the redundant edges.  Both selections come
back as records, and the detected support as an ``intp`` array, so the
results hold no Python object per vertex or per edge.

:func:`reconstruct_compressed` is the pipeline - rank gate, magnitudes,
support, endpoint graph, edge phases, propagation - on the ``2nR/L``
aggregate statistics; its stages return arrays, and it builds the
:class:`ReconstructionResult` once, at its end.  Every stage takes the run's
:class:`~stftpr.supportgraph.Geometry`; :func:`reconstruct` builds it once
and runs the pipeline on a measurement grid's aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import CertificationError, DegenerateEdgeError, DisconnectedGraphError
from .model import ProblemConfig, _above_tolerance, check_prior, check_tolerance
from .robustness import threshold_support
from .spectral import (
    MagnitudeSpectrum, ModulationMatrices, _check_aggregates, certify_rank, recover_magnitudes,
)
from .stft import AggregateMeasurements, MeasurementGrid, aggregate
from .supportgraph import (
    Geometry,
    SpanningTree,
    SupportGraph,
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
    edges' witnesses with their phase residuals.  ``modulation`` holds the
    certified modulation matrices of the run; it is never serialised.
    """

    estimate: np.ndarray
    root_vertex: int | None
    diagnostics: dict
    modulation: ModulationMatrices | None = None


def default_degenerate_tol(n: int, noise_level: float) -> float:
    """Evidence-magnitude floor below which an edge phase is meaningless.

    Entrywise noise of level eps can move a correlation value by at most
    n * eps, so evidence below that could have been produced by noise alone;
    the absolute term covers exact-data rounding.
    """
    return n * noise_level + 1e-12


def _modulus(z: np.ndarray) -> np.ndarray:
    # equal to Python's abs(complex) bit for bit; np.abs on complex arrays can
    # differ in the last bit, which would move ties and tolerance decisions
    return np.hypot(z.real, z.imag)


def edge_phase(
    graph: SupportGraph, agg: AggregateMeasurements, geom: Geometry, degenerate_tol: float
) -> EdgeWitnesses:
    """Witness and phase of every edge of ``graph``, in one array pass over the correlation table.

    ``graph`` is an endpoint graph of ``geom``; aggregates of another shape
    raise ``DimensionMismatchError``.  Each edge takes the witness of largest
    evidence magnitude, ties going to the smaller (window, hop), provided it
    clears ``degenerate_tol``; else its row of the record (row k is edge k of
    ``graph.edges``) is degenerate.  The endpoint builder drops
    windows of supporting length 1; a chosen witness of one maps to no edge
    and raises ``RuntimeError``.  A negative, infinite or NaN
    ``degenerate_tol`` raises ``ConfigurationError``.
    """
    check_tolerance("degenerate_tol", degenerate_tol)
    _check_aggregates(agg, geom)
    fam, n, hop = geom.windows, geom.cfg.n, geom.cfg.hop
    num_edges = len(graph.edges)
    r, m = graph.window, graph.hop_index
    mag = _modulus(agg.correlation[r, m])
    first = np.empty(0, dtype=np.intp)
    if num_edges:  # an empty graph has no witnesses, and reduceat may reject empty input
        # each edge's witnesses are in (window, hop) order, so the first one
        # of largest evidence is its strongest witness with ties going to the
        # smaller (window, hop); if it does not clear the tolerance, none does
        starts = graph.offsets[:-1]
        best = np.repeat(np.maximum.reduceat(mag, starts), np.diff(graph.offsets))
        first = np.minimum.reduceat(np.where(mag == best, np.arange(mag.size), mag.size), starts)
    chosen = np.flatnonzero(mag[first] > degenerate_tol)
    first = first[chosen]
    r, m = r[first], m[first]
    value = agg.correlation[r, m]
    ws = geom.supports[r]
    n1, n2 = endpoint_witness(ws, hop, m, n)
    ends = graph.edges[chosen]
    match = ((n1 == ends[:, 0]) & (n2 == ends[:, 1])) | ((n1 == ends[:, 1]) & (n2 == ends[:, 0]))
    if not match.all():
        k = int(np.argmin(match))
        raise RuntimeError(
            f"witness ({r[k]}, {m[k]}) maps to ({n1[k]}, {n2[k]}), "
            f"not edge {tuple(ends[k].tolist())}"
        )
    wp = fam[r, ws.far(n)] * np.conj(fam[r, ws.anchor])
    wp = wp / _modulus(wp)
    rel = wp * value / _modulus(value)

    def per_edge(col, fill):
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


def propagate(tree: SpanningTree, magnitudes: MagnitudeSpectrum, phases) -> np.ndarray:
    """Walk the spanning tree, giving each vertex its accumulated phasor; returns the estimate.

    The estimate is zero off the tree's vertices, the ``intp`` array
    ``tree.graph.vertices``.  The root gets phase 0.  ``phases[k]`` is the
    unit phasor of ``x(child[k]) * conj(x(parent[k]))`` for tree edge ``k``.
    The walk follows the tree's discovery order, so each parent's phasor is
    known before its children's, one plain Python complex product per edge.
    """
    amps = np.sqrt(magnitudes.magnitudes_sq)
    verts = tree.graph.vertices
    # position of each vertex in discovery order; the root's is 0
    walk = np.zeros(amps.shape[0], dtype=np.intp)
    walk[tree.child] = np.arange(1, tree.child.size + 1)
    phasor = [1.0 + 0.0j]
    for p, z in zip(walk[tree.parent].tolist(), np.asarray(phases, dtype=complex).tolist()):
        phasor.append(phasor[p] * z)
    estimate = np.zeros(amps.shape[0], dtype=complex)
    estimate[verts] = amps[verts] * np.array(phasor)[walk[verts]]
    return estimate


def _detect_support(
    magnitudes: MagnitudeSpectrum,
    noise_level: float,
    zero_tol: float,
    min_support_magnitude: float | None,
) -> tuple[np.ndarray, str]:
    """Support of the recovered magnitudes, as a sorted ``intp`` array, and its rule.

    Exact data thresholds the squared magnitudes relative to their peak (the
    squared-domain analogue of :func:`~stftpr.model.support`, matching the
    noise floor of the linear-algebra path).  Noisy data keeps the entries
    :func:`~stftpr.robustness.threshold_support` keeps, so it needs the
    caller's prior on the smallest nonzero magnitude.
    """
    sq = magnitudes.magnitudes_sq
    if noise_level > 0.0:
        prior = check_prior(
            min_support_magnitude,
            "noisy reconstruction needs a positive prior for the smallest "
            "nonzero magnitude (min_support_magnitude)",
        )
        return np.flatnonzero(threshold_support(np.sqrt(sq), prior)), "half-minimum"
    return np.flatnonzero(_above_tolerance(sq, zero_tol)), "relative-threshold"


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
    :func:`reconstruct_compressed` on the grid's aggregate statistics, so it
    raises the same errors.
    """
    geom = Geometry(cfg, windows)
    return reconstruct_compressed(
        aggregate(grid, geom), geom, min_support_magnitude, rank_tol, degenerate_tol
    )


def reconstruct_compressed(
    agg: AggregateMeasurements,
    geom: Geometry,
    min_support_magnitude: float | None = None,
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct a signal, up to a global phase, from the aggregate statistics alone.

    Consumes exactly ``2 * num_windows * n / hop`` measurements (one energy
    and one correlation per window and hop).  The three steps: recover
    squared magnitudes through the certified modulation matrices, build the
    endpoint graph on the detected support (reported in
    ``diagnostics["support"]``) and verify connectivity, then extract edge
    phases and propagate them over a spanning tree.  Each edge's phase comes
    from its witness of largest evidence magnitude, ties going to the
    smaller (window, hop).  Raises ``DimensionMismatchError`` when the
    aggregates and the geometry disagree in shape,
    ``CertificationError`` when the window family fails the rank gate, when
    the endpoint graph is disconnected but the covisibility graph is not, or
    when windows longer than half the signal meet a tree with edges,
    ``DisconnectedGraphError`` (carrying the covisibility components) when
    both graphs are disconnected, a proof that the signal is not determined,
    and ``DegenerateEdgeError`` when noise drowns out a needed edge.
    """
    _check_aggregates(agg, geom)
    cfg = geom.cfg
    if degenerate_tol is None:
        degenerate_tol = default_degenerate_tol(cfg.n, agg.noise_level)
    else:  # before the rank gate, so a bad tolerance is reported first
        check_tolerance("degenerate_tol", degenerate_tol)
    mats = certify_rank(geom, rank_tol)
    magnitudes = recover_magnitudes(agg, mats)
    detected, rule = _detect_support(
        magnitudes, agg.noise_level, cfg.zero_tol, min_support_magnitude
    )
    # an empty support gives an empty graph and tree, and an all-zero estimate
    graph = endpoint_graph_from_support(detected, geom)
    if not is_connected(graph):
        # only a disconnected covisibility graph proves the signal undetermined
        cov = covisibility_graph_from_support(detected, geom)
        proof = not is_connected(cov)
        comps = (cov if proof else graph).components()
        found = f"graph on the detected support has {len(comps)} components: {comps}"
        if proof:
            raise DisconnectedGraphError(f"covisibility {found}", components=comps)
        raise CertificationError(
            f"endpoint {found}; the covisibility graph is connected, so recovery is undecided"
        )
    tree = spanning_tree(graph)
    # a tree without edges (at most one support index) needs no edge phase
    too_long = long_windows(geom.supports, cfg.n) if tree.edges.size else []
    if too_long:
        raise CertificationError(
            f"windows {too_long} have supporting length above half the signal "
            f"length; edge phases would be ambiguous",
            failing=too_long,
        )
    edges = edge_phase(graph, agg, geom, degenerate_tol)
    used = edges[tree.edges]
    bad = np.flatnonzero(used.window < 0)
    if bad.size:
        ends = tuple(graph.edges[tree.edges[bad[0]]].tolist())
        raise DegenerateEdgeError(
            f"edge {ends}: all witness evidence magnitudes are below "
            f"{degenerate_tol:.3e} (noise level {agg.noise_level:.3e})",
            endpoints=ends,
        )
    # edge_phase matched each witness's (n1, n2) to its edge's endpoints
    forward = tree.child == used.n1
    estimate = propagate(tree, magnitudes, np.where(forward, used.phase, used.phase.conj()))
    # the redundant edges' phases against the estimate; NaN where degenerate
    nontree = np.ones(len(graph.edges), dtype=bool)
    nontree[tree.edges] = False
    rest = edges[nontree]
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
    return ReconstructionResult(estimate, tree.root, diagnostics, mats)
