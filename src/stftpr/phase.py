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

Edge phases come from one edge-phase table, built in a single array pass
over the endpoint graph's witness arrays and the (window, hop) correlation
table.  Any one witness determines an edge's phase, because the correlation
collapses to a single term, so each edge takes its witness of largest
evidence magnitude (the most robust to noise), ties going to the smaller
(window, hop); that evidence must clear the degeneracy tolerance.  The
spanning tree's edge-row array picks the tree edges' phases, oriented from
parent to child, and :func:`propagate` multiplies them along the tree in
discovery order; the remaining edges give the residuals of the redundant
edges.

:func:`reconstruct` and :func:`reconstruct_compressed` run one pipeline -
rank gate, magnitudes, support, endpoint graph, edge phases, propagation -
and differ only in where the ``2nR/L`` aggregate statistics come from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CertificationError,
    DegenerateEdgeError,
    DimensionMismatchError,
    DisconnectedGraphError,
)
from .model import ProblemConfig, as_window_family, check_prior, check_tolerance
from .spectral import MagnitudeSpectrum, ModulationMatrices, certify_rank, recover_magnitudes
from .stft import AggregateMeasurements, MeasurementGrid, aggregate
from .supportgraph import (
    SpanningTree,
    SupportGraph,
    SupportGraphEdge,
    WindowSupport,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
    spanning_tree,
    window_support,
)


@dataclass(frozen=True)
class EdgePhaseEvidence:
    """Relative phase of one edge, with the witness that produced it.

    ``n1``/``n2`` follow the endpoint convention above (n1 sees the window
    anchor, n2 the far endpoint).  ``evidence`` is the correlation value
    backing the edge; ``relative_phase`` is the unit phasor of
    ``x(n1) * conj(x(n2))``.
    """

    n1: int
    n2: int
    window: int
    hop_index: int
    evidence: complex
    window_phase: complex
    relative_phase: complex


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimate with its global phase anchored at the root support index.

    The estimate is exactly zero off the detected support; ``root_vertex``
    (the smallest support index) carries phase 0 by convention.  Diagnostics
    include clamping residues, the weakest edge evidence used, tree depth,
    the witnesses consumed, and phase residuals of redundant (non-tree) edges.
    ``modulation`` holds the certified modulation matrices of the run; it is
    never serialised.
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


def _resolve_degenerate_tol(degenerate_tol: float | None, n: int, noise_level: float) -> float:
    if degenerate_tol is None:
        return default_degenerate_tol(n, noise_level)
    check_tolerance("degenerate_tol", degenerate_tol)
    return degenerate_tol


def _modulus(z: np.ndarray) -> np.ndarray:
    # equal to Python's abs(complex) bit for bit; np.abs on complex arrays can
    # differ in the last bit, which would move ties and tolerance decisions
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class _EdgeTable:
    """Chosen witness and phases of every edge, one array entry per edge.

    ``window`` is -1 on edges with no usable witness above the tolerance;
    their other entries are meaningless.
    """

    endpoints: np.ndarray
    usable: np.ndarray
    window: np.ndarray
    hop_index: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    evidence: np.ndarray
    window_phase: np.ndarray
    relative_phase: np.ndarray
    degenerate_tol: float
    noise_level: float

    def raise_degenerate(self, rows: np.ndarray) -> None:
        """Raise ``DegenerateEdgeError`` for the first of ``rows`` without a phase."""
        bad = np.flatnonzero(self.window[rows] < 0)
        if not bad.size:
            return
        i = int(rows[bad[0]])
        ends = tuple(self.endpoints[i].tolist())
        if not self.usable[i]:
            raise DegenerateEdgeError(
                f"edge {ends} has no witness with supporting length >= 2", endpoints=ends
            )
        raise DegenerateEdgeError(
            f"edge {ends}: all witness evidence magnitudes are below "
            f"{self.degenerate_tol:.3e} (noise level {self.noise_level:.3e})",
            endpoints=ends,
        )

    def witnesses(self, rows) -> list[dict]:
        """Chosen witness of each of ``rows``; a row without a phase gives only its endpoints."""
        cols = (self.n1, self.n2, self.window, self.hop_index)
        out = []
        for i, a, b, w, h in zip(rows.tolist(), *(c[rows].tolist() for c in cols)):
            if w < 0:
                a, b = self.endpoints[i].tolist()
                out.append({"n1": a, "n2": b})
            else:
                out.append({"n1": a, "n2": b, "window": w, "hop_index": h})
        return out

    def along(self, tree: SpanningTree) -> tuple[np.ndarray, dict]:
        """Phasors of ``x(child) * conj(x(parent))`` on the tree's edges, and their diagnostics.

        Every tree edge must have a phase; the diagnostics are the witnesses
        used and the smallest evidence magnitude.
        """
        rows = tree.edge_row
        n1, n2 = self.n1[rows], self.n2[rows]
        forward = tree.child == n1
        if not np.where(forward, tree.parent == n2, (tree.child == n2) & (tree.parent == n1)).all():
            raise RuntimeError("edge-phase witnesses do not match the tree's edges")
        rel = self.relative_phase[rows]
        return np.where(forward, rel, rel.conj()), {
            "used_witnesses": self.witnesses(rows),
            "min_evidence": float(_modulus(self.evidence[rows]).min()) if rows.size else None,
        }

    def residuals(self, rows: np.ndarray, estimate: np.ndarray) -> list[dict]:
        """Phase residual of each of ``rows`` against the estimate; None if degenerate."""
        unit = np.zeros(estimate.shape, dtype=complex)
        on = estimate != 0
        unit[on] = estimate[on] / np.abs(estimate[on])
        rows = np.asarray(rows, dtype=np.intp)
        # degenerate rows (window -1) get a meaningless value here and None below
        n1, n2 = self.n1[rows], self.n2[rows]
        residual = _modulus(self.relative_phase[rows] - unit[n1] * np.conj(unit[n2]))
        out = self.witnesses(rows)
        for entry, res in zip(out, residual.tolist()):
            entry["residual"] = res if "window" in entry else None
        return out


def _edge_table(
    graph: SupportGraph,
    agg: AggregateMeasurements,
    fam: np.ndarray,
    supports: list[WindowSupport],
    degenerate_tol: float,
) -> _EdgeTable:
    """Relative phase of every edge in one array pass over the correlation table.

    Witnesses of windows with supporting length 1 are unusable.  Each edge
    takes the usable witness of largest evidence magnitude, ties going to the
    smaller (window, hop), provided it clears ``degenerate_tol``.
    """
    n = fam.shape[1]
    hop = n // agg.num_hops
    num_edges = len(graph.endpoints)
    lengths = np.array([ws.length for ws in supports])
    eid = np.repeat(np.arange(num_edges), np.diff(graph.offsets))
    keep = lengths[graph.window] >= 2
    usable = np.zeros(num_edges, dtype=bool)
    usable[eid[keep]] = True
    eid, r, m = eid[keep], graph.window[keep], graph.hop_index[keep]
    mag = _modulus(agg.correlation[r, m])
    # by edge, then strongest evidence first, then smaller (window, hop)
    order = np.lexsort((m, r, -mag, eid))
    # each edge's first entry is its strongest usable witness: if it does not
    # clear the tolerance, no other witness of that edge does
    first = order[np.diff(eid[order], prepend=-1) != 0]
    first = first[mag[first] > degenerate_tol]
    chosen, r, m = eid[first], r[first], m[first]
    value = agg.correlation[r, m]
    # a support whose fields are per-witness arrays maps every chosen witness at once
    ws = WindowSupport(length=lengths[r], anchor=np.array([s.anchor for s in supports])[r])
    n1, n2 = endpoint_witness(ws, hop, m, n)
    ends = graph.endpoints[chosen]
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

    return _EdgeTable(
        endpoints=graph.endpoints,
        usable=usable,
        window=per_edge(r, -1),
        hop_index=per_edge(m, -1),
        n1=per_edge(n1, -1),
        n2=per_edge(n2, -1),
        evidence=per_edge(value, 0),
        window_phase=per_edge(wp, 0),
        relative_phase=per_edge(rel, 0),
        degenerate_tol=degenerate_tol,
        noise_level=agg.noise_level,
    )


def edge_phase(
    edge: SupportGraphEdge,
    agg: AggregateMeasurements,
    windows,
    degenerate_tol: float | None = None,
) -> EdgePhaseEvidence:
    """Extract the relative phase of one endpoint-graph edge.

    The edge's usable witness with the largest evidence magnitude is chosen
    (the most noise-robust choice), ties going to the smaller (window, hop),
    and its evidence must clear the degeneracy tolerance; otherwise the edge
    is unusable at this noise level.

    This is the edge-phase table of the reconstruction pipeline run on a
    single edge; ``windows`` are validated on every call.
    """
    fam = as_window_family(windows)
    supports = [window_support(w) for w in fam]
    tol = _resolve_degenerate_tol(degenerate_tol, fam.shape[1], agg.noise_level)
    graph = SupportGraph.from_edges("endpoint", edge.endpoints, (edge,))
    table = _edge_table(graph, agg, fam, supports, tol)
    table.raise_degenerate(np.zeros(1, dtype=np.intp))
    return EdgePhaseEvidence(*(c[0].item() for c in (
        table.n1, table.n2, table.window, table.hop_index, table.evidence,
        table.window_phase, table.relative_phase,
    )))


def propagate(
    tree: SpanningTree,
    magnitudes: MagnitudeSpectrum,
    phases,
    support_set,
) -> ReconstructionResult:
    """Walk the spanning tree, assigning each vertex its accumulated phasor.

    The root gets phase 0.  ``phases[k]`` is the unit phasor of
    ``x(child[k]) * conj(x(parent[k]))`` for tree edge ``k``.  The walk
    follows the tree's discovery order, so each parent's phasor is known
    before its children's, one plain Python complex product per edge.
    """
    amps = np.sqrt(magnitudes.magnitudes_sq)
    verts = np.array(sorted({int(v) for v in support_set}), dtype=np.intp)
    # position of each vertex in discovery order, -1 where the tree does not reach
    walk = np.full(amps.shape[0], -1, dtype=np.intp)
    if tree.root is not None:
        walk[[tree.root, *tree.child.tolist()]] = np.arange(tree.child.size + 1)
    missing = verts[walk[verts] < 0]
    if missing.size:
        raise RuntimeError(f"tree does not span the support; unreached: {missing.tolist()}")
    phasor = [1.0 + 0.0j]
    for p, z in zip(walk[tree.parent].tolist(), np.asarray(phases, dtype=complex).tolist()):
        phasor.append(phasor[p] * z)
    estimate = np.zeros(amps.shape[0], dtype=complex)
    estimate[verts] = amps[verts] * np.array(phasor)[walk[verts]]
    return ReconstructionResult(estimate, tree.root, {"tree_depth": tree.depth})


def _detect_support(
    magnitudes: MagnitudeSpectrum,
    noise_level: float,
    zero_tol: float,
    min_support_magnitude: float | None,
) -> tuple[tuple[int, ...], str]:
    """Support of the recovered magnitudes.

    Exact data thresholds the squared magnitudes relative to their peak (the
    squared-domain analogue of the model-level rule, matching the noise floor
    of the linear-algebra path).  Noisy data uses the half-minimum rule and
    therefore needs the caller's prior on the smallest nonzero magnitude.
    """
    sq = magnitudes.magnitudes_sq
    if noise_level > 0.0:
        prior = check_prior(
            min_support_magnitude,
            "noisy reconstruction needs a positive prior for the smallest "
            "nonzero magnitude (min_support_magnitude)",
        )
        keep = np.sqrt(sq) > 0.5 * prior
        return tuple(int(i) for i in np.flatnonzero(keep)), "half-minimum"
    peak = float(sq.max()) if sq.size else 0.0
    if peak == 0.0:
        return (), "relative-threshold"
    return (
        tuple(int(i) for i in np.flatnonzero(sq > zero_tol * peak)),
        "relative-threshold",
    )


def _family(windows, cfg: ProblemConfig) -> np.ndarray:
    fam = as_window_family(windows, cfg.n)
    if fam.shape[0] != cfg.num_windows:
        raise DimensionMismatchError(
            f"config expects {cfg.num_windows} windows, family has {fam.shape[0]}"
        )
    return fam


def _run_pipeline(
    agg: AggregateMeasurements,
    fam: np.ndarray,
    cfg: ProblemConfig,
    min_support_magnitude: float | None,
    rank_tol: float | None,
    degenerate_tol: float | None,
) -> ReconstructionResult:
    degenerate_tol = _resolve_degenerate_tol(degenerate_tol, cfg.n, agg.noise_level)
    mats = certify_rank(fam, cfg.hop, rank_tol)
    magnitudes = recover_magnitudes(agg, mats, cfg)
    supports = [window_support(w, cfg.zero_tol) for w in fam]
    detected, rule = _detect_support(
        magnitudes, agg.noise_level, cfg.zero_tol, min_support_magnitude
    )
    diagnostics = {
        "support": list(detected),
        "support_rule": rule,
        "noise_level": agg.noise_level,
        "clamped_mass": magnitudes.clamped_mass,
        "imag_residue": magnitudes.imag_residue,
        "severe_clamping": magnitudes.severe_clamping,
    }
    # an empty support gives an empty graph and tree, and an all-zero estimate
    graph = endpoint_graph_from_support(
        detected, fam, cfg.hop, cfg.zero_tol, supports=supports
    )
    try:
        tree = spanning_tree(graph)
    except DisconnectedGraphError:
        comps = graph.components()
        raise DisconnectedGraphError(
            f"endpoint graph on the detected support has {len(comps)} components: {comps}",
            components=comps,
        ) from None
    too_long = long_windows(supports, cfg.n) if detected else []
    if too_long:
        raise CertificationError(
            f"windows {too_long} have supporting length above half the signal "
            f"length; edge phases would be ambiguous",
            failing=too_long,
        )
    table = _edge_table(graph, agg, fam, supports, degenerate_tol)
    table.raise_degenerate(tree.edge_row)
    phases, used = table.along(tree)
    result = replace(propagate(tree, magnitudes, phases, detected), modulation=mats)
    result.diagnostics.update(**used, **diagnostics)
    nontree = np.setdiff1d(np.arange(len(graph.endpoints)), tree.edge_row)
    result.diagnostics["nontree_residuals"] = table.residuals(nontree, result.estimate)
    return result


def reconstruct(
    grid: MeasurementGrid,
    windows,
    cfg: ProblemConfig,
    min_support_magnitude: float | None = None,
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct a signal, up to a global phase, from a measurement grid.

    The three steps: recover squared magnitudes through the certified
    modulation matrices, build the endpoint graph on the detected support and
    verify connectivity, then extract edge phases and propagate them over a
    spanning tree.  Each edge's phase comes from its witness of largest
    evidence magnitude, ties going to the smaller (window, hop).  Raises ``CertificationError`` when the window family
    fails the rank gate or has windows longer than half the signal,
    ``DisconnectedGraphError`` (carrying the component certificate) when the
    endpoint graph is disconnected, and ``DegenerateEdgeError`` when noise
    drowns out a needed edge.
    """
    fam = _family(windows, cfg)
    if grid.values.shape != (cfg.num_windows, cfg.num_hops, cfg.n):
        raise DimensionMismatchError(
            f"grid shape {grid.values.shape} does not match config "
            f"({cfg.num_windows}, {cfg.num_hops}, {cfg.n})"
        )
    agg = aggregate(grid, fam, cfg.zero_tol)
    return _run_pipeline(
        agg, fam, cfg, min_support_magnitude, rank_tol, degenerate_tol
    )


def reconstruct_compressed(
    agg: AggregateMeasurements,
    windows,
    cfg: ProblemConfig,
    min_support_magnitude: float | None = None,
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct from the aggregate statistics alone.

    Consumes exactly ``2 * num_windows * n / hop`` measurements (one energy
    and one correlation per window and hop) and runs the pipeline of
    :func:`reconstruct` on them, so ``reconstruct_compressed(aggregate(grid))``
    returns the same estimate as ``reconstruct(grid)``, with the same witness
    choice.  The support is detected from the recovered magnitudes and
    reported in ``diagnostics["support"]``.
    """
    fam = _family(windows, cfg)
    if agg.energy.shape != (cfg.num_windows, cfg.num_hops):
        raise DimensionMismatchError(
            f"aggregate shape {agg.energy.shape} does not match config "
            f"({cfg.num_windows}, {cfg.num_hops})"
        )
    result = _run_pipeline(
        agg, fam, cfg, min_support_magnitude, rank_tol, degenerate_tol
    )
    result.diagnostics["compressed_count"] = agg.measurement_count
    return result
