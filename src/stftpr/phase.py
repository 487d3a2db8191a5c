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
over the (window, hop) correlation table for every edge of the endpoint
graph at once: each edge's witnesses are ranked by the witness rule, the
first whose evidence clears the degeneracy tolerance is chosen, and its
endpoints, window phase and relative phase are computed.  Spanning-tree
edges feed :func:`propagate`; the remaining edges give the residuals of the
redundant edges.

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
    InvalidPriorError,
)
from .model import ProblemConfig, as_window_family, check_tolerance
from .spectral import MagnitudeSpectrum, ModulationMatrices, certify_rank, recover_magnitudes
from .stft import AggregateMeasurements, MeasurementGrid, aggregate
from .supportgraph import (
    SpanningTree,
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


def _rank_witnesses(eid, r, m, correlation, rule, num_edges):
    """Reorder flat (edge, window, hop) witness arrays: by edge, then by rule within an edge.

    The two named rules are sort keys; a callable rule is called once per edge
    with a nonempty witness list and returns that edge's witnesses in order.
    """
    if callable(rule):
        bounds = np.searchsorted(eid, np.arange(num_edges + 1)).tolist()
        pairs = list(zip(r.tolist(), m.tolist()))
        mags = _modulus(correlation[r, m]).tolist()
        ranked = [
            (i, wr, wm)
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if a < b
            for wr, wm in rule(pairs[a:b], mags[a:b])
        ]
        return np.array(ranked, dtype=np.intp).reshape(-1, 3).T
    if rule == "max_evidence":
        order = np.lexsort((m, r, -_modulus(correlation[r, m]), eid))
    elif rule == "lexicographic":
        order = np.lexsort((m, r, eid))
    else:
        raise ValueError(f"unknown witness rule {rule!r}")
    return eid[order], r[order], m[order]


@dataclass(frozen=True)
class _EdgeTable:
    """Chosen witness and phases of every edge, one array entry per edge.

    ``window`` is -1 on edges with no usable witness above the tolerance;
    their other entries are meaningless.
    """

    edges: tuple[SupportGraphEdge, ...]
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

    def raise_degenerate(self, rows: list[int]) -> None:
        """Raise ``DegenerateEdgeError`` for the first of ``rows`` without a phase."""
        bad = np.flatnonzero(self.window[rows] < 0)
        if not bad.size:
            return
        i = rows[int(bad[0])]
        ends = self.edges[i].endpoints
        if not self.usable[i]:
            raise DegenerateEdgeError(
                f"edge {ends} has no witness with supporting length >= 2", endpoints=ends
            )
        raise DegenerateEdgeError(
            f"edge {ends}: all witness evidence magnitudes are below "
            f"{self.degenerate_tol:.3e} (noise level {self.noise_level:.3e})",
            endpoints=ends,
        )

    def evidences(self, rows: list[int]) -> dict[tuple[int, int], EdgePhaseEvidence]:
        """Evidence records of ``rows``, which must all have a phase."""
        cols = (self.n1, self.n2, self.window, self.hop_index, self.evidence,
                self.window_phase, self.relative_phase)
        return {
            self.edges[i].endpoints: EdgePhaseEvidence(*fields)
            for i, *fields in zip(rows, *(c[rows].tolist() for c in cols))
        }

    def residuals(self, rows: list[int], estimate: np.ndarray) -> list[dict]:
        """Phase residual of each of ``rows`` against the estimate; None if degenerate."""
        unit = np.zeros(estimate.shape, dtype=complex)
        on = estimate != 0
        unit[on] = estimate[on] / np.abs(estimate[on])
        rows = np.asarray(rows, dtype=np.intp)
        n1, n2, window, hop_index = (c[rows] for c in (self.n1, self.n2, self.window, self.hop_index))
        # degenerate rows (window -1) get a meaningless value here and None below
        residual = _modulus(self.relative_phase[rows] - unit[n1] * np.conj(unit[n2]))
        out = []
        for i, a, b, w, h, res in zip(
            rows.tolist(), n1.tolist(), n2.tolist(), window.tolist(), hop_index.tolist(),
            residual.tolist(),
        ):
            if w < 0:
                a, b = self.edges[i].endpoints
                out.append({"n1": a, "n2": b, "residual": None})
            else:
                out.append({"n1": a, "n2": b, "window": w, "hop_index": h, "residual": res})
        return out


def _edge_table(
    edges: tuple[SupportGraphEdge, ...],
    agg: AggregateMeasurements,
    fam: np.ndarray,
    supports: list[WindowSupport],
    witness_rule,
    degenerate_tol: float,
) -> _EdgeTable:
    """Relative phase of every edge in one array pass over the correlation table.

    Witnesses of windows with supporting length 1 are unusable.  The usable
    ones are ranked within each edge by ``witness_rule``, and each edge takes
    the first ranked witness whose evidence clears ``degenerate_tol``.
    """
    n = fam.shape[1]
    hop = n // agg.num_hops
    num_edges = len(edges)
    lengths = np.array([ws.length for ws in supports])
    flat = np.array([w for e in edges for w in e.witnesses], dtype=np.intp).reshape(-1, 2)
    eid = np.repeat(np.arange(num_edges), [len(e.witnesses) for e in edges])
    keep = lengths[flat[:, 0]] >= 2
    usable = np.zeros(num_edges, dtype=bool)
    usable[eid[keep]] = True
    eid, r, m = _rank_witnesses(
        eid[keep], flat[keep, 0], flat[keep, 1], agg.correlation, witness_rule, num_edges
    )
    value = agg.correlation[r, m]
    clear = np.flatnonzero(_modulus(value) > degenerate_tol)
    # the first clearing entry of each edge's group is its first ranked usable witness
    first = clear[np.diff(eid[clear], prepend=-1) != 0]
    chosen, r, m, value = eid[first], r[first], m[first], value[first]
    n1, n2 = np.empty_like(r), np.empty_like(r)
    for w in np.unique(r).tolist():
        on = r == w
        n1[on], n2[on] = endpoint_witness(supports[w], hop, m[on], n)
    ends = np.array([e.endpoints for e in edges], dtype=np.intp).reshape(-1, 2)[chosen]
    match = ((n1 == ends[:, 0]) & (n2 == ends[:, 1])) | ((n1 == ends[:, 1]) & (n2 == ends[:, 0]))
    if not match.all():
        k = int(np.argmin(match))
        raise RuntimeError(
            f"witness ({r[k]}, {m[k]}) maps to ({n1[k]}, {n2[k]}), "
            f"not edge {edges[chosen[k]].endpoints}"
        )
    anchor = np.array([ws.anchor for ws in supports], dtype=np.intp)
    far = np.array([ws.far(n) for ws in supports], dtype=np.intp)
    wp = fam[r, far[r]] * np.conj(fam[r, anchor[r]])
    wp = wp / _modulus(wp)
    rel = wp * value / _modulus(value)

    def per_edge(col, fill):
        out = np.full(num_edges, fill, dtype=col.dtype)
        out[chosen] = col
        return out

    return _EdgeTable(
        edges=edges,
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
    witness_rule="max_evidence",
    degenerate_tol: float | None = None,
) -> EdgePhaseEvidence:
    """Extract the relative phase of one endpoint-graph edge.

    Witnesses are tried in rule order ("max_evidence" prefers the largest
    correlation magnitude - the most noise-robust choice - with ties broken
    lexicographically); the first one whose evidence clears the degeneracy
    tolerance wins.  If none does, the edge is unusable at this noise level.

    This is the edge-phase table of the reconstruction pipeline run on a
    single edge; ``windows`` are validated on every call.
    """
    fam = as_window_family(windows)
    supports = [window_support(w) for w in fam]
    tol = _resolve_degenerate_tol(degenerate_tol, fam.shape[1], agg.noise_level)
    table = _edge_table((edge,), agg, fam, supports, witness_rule, tol)
    table.raise_degenerate([0])
    return table.evidences([0])[edge.endpoints]


def propagate(
    tree: SpanningTree,
    magnitudes: MagnitudeSpectrum,
    evidences: dict[tuple[int, int], EdgePhaseEvidence],
    support_set,
) -> ReconstructionResult:
    """Walk the spanning tree, assigning each vertex its accumulated phasor.

    The root gets phase 0.  Crossing an edge multiplies by the relative
    phase or its conjugate depending on whether the child plays the n1 or n2
    role in the edge's orientation - the bookkeeping that prevents silent
    conjugation when an edge is walked backwards.
    """
    amps = np.sqrt(magnitudes.magnitudes_sq)
    n = amps.shape[0]
    verts = tuple(sorted(int(v) for v in support_set))
    estimate = np.zeros(n, dtype=complex)
    if tree.root is None:
        if verts:
            raise RuntimeError("empty tree cannot span a nonempty support")
        return ReconstructionResult(
            estimate=estimate,
            root_vertex=None,
            diagnostics={"tree_depth": 0, "used_witnesses": [], "min_evidence": None},
        )
    # plain Python complex arithmetic: the walk is sequential, one edge at a time
    phasor: dict[int, complex] = {tree.root: 1.0 + 0.0j}
    used = []
    min_evidence = None
    for te in tree.edges:
        ev = evidences[te.edge.endpoints]
        if {te.parent, te.child} != {ev.n1, ev.n2}:
            raise RuntimeError(
                f"evidence for {te.edge.endpoints} does not match tree edge "
                f"({te.parent}, {te.child})"
            )
        rel = ev.relative_phase
        phasor[te.child] = phasor[te.parent] * (rel if te.child == ev.n1 else rel.conjugate())
        used.append(
            {"n1": ev.n1, "n2": ev.n2, "window": ev.window, "hop_index": ev.hop_index}
        )
        mag = abs(ev.evidence)
        min_evidence = mag if min_evidence is None else min(min_evidence, mag)
    missing = [v for v in verts if v not in phasor]
    if missing:
        raise RuntimeError(f"tree does not span the support; unreached: {missing}")
    idx = list(verts)
    estimate[idx] = amps[idx] * np.array([phasor[v] for v in verts], dtype=complex)
    return ReconstructionResult(
        estimate=estimate,
        root_vertex=tree.root,
        diagnostics={
            "tree_depth": tree.depth,
            "used_witnesses": used,
            "min_evidence": min_evidence,
        },
    )


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
        if min_support_magnitude is None or min_support_magnitude <= 0.0:
            raise InvalidPriorError(
                "noisy reconstruction needs a positive prior for the smallest "
                "nonzero magnitude (min_support_magnitude)"
            )
        keep = np.sqrt(sq) > 0.5 * min_support_magnitude
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
    witness_rule,
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
    if not detected:
        return ReconstructionResult(
            estimate=np.zeros(cfg.n, dtype=complex),
            root_vertex=None,
            diagnostics={
                **diagnostics,
                "tree_depth": 0,
                "used_witnesses": [],
                "min_evidence": None,
                "nontree_residuals": [],
            },
            modulation=mats,
        )
    graph = endpoint_graph_from_support(
        detected, fam, cfg.hop, cfg.zero_tol, supports=supports
    )
    comps = graph.components()
    if len(comps) > 1:
        raise DisconnectedGraphError(
            f"endpoint graph on the detected support has {len(comps)} components: {comps}",
            components=comps,
        )
    too_long = long_windows(supports, cfg.n)
    if too_long:
        raise CertificationError(
            f"windows {too_long} have supporting length above half the signal "
            f"length; edge phases would be ambiguous",
            failing=too_long,
        )
    tree = spanning_tree(graph)
    table = _edge_table(graph.edges, agg, fam, supports, witness_rule, degenerate_tol)
    row = {edge.endpoints: i for i, edge in enumerate(graph.edges)}
    tree_rows = [row[te.edge.endpoints] for te in tree.edges]
    table.raise_degenerate(tree_rows)
    evidences = table.evidences(tree_rows)
    result = replace(propagate(tree, magnitudes, evidences, detected), modulation=mats)
    result.diagnostics.update(diagnostics)
    nontree = np.ones(len(graph.edges), dtype=bool)
    nontree[tree_rows] = False
    result.diagnostics["nontree_residuals"] = table.residuals(
        np.flatnonzero(nontree), result.estimate
    )
    return result


def reconstruct(
    grid: MeasurementGrid,
    windows,
    cfg: ProblemConfig,
    min_support_magnitude: float | None = None,
    witness_rule="max_evidence",
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct a signal, up to a global phase, from a measurement grid.

    The three steps: recover squared magnitudes through the certified
    modulation matrices, build the endpoint graph on the detected support and
    verify connectivity, then extract edge phases and propagate them over a
    spanning tree.  Raises ``CertificationError`` when the window family
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
        agg, fam, cfg, min_support_magnitude, witness_rule, rank_tol, degenerate_tol
    )


def reconstruct_compressed(
    agg: AggregateMeasurements,
    windows,
    cfg: ProblemConfig,
    support_hint=None,
    min_support_magnitude: float | None = None,
    witness_rule="max_evidence",
    rank_tol: float | None = None,
    degenerate_tol: float | None = None,
) -> ReconstructionResult:
    """Reconstruct from the aggregate statistics alone.

    Consumes exactly ``2 * num_windows * n / hop`` measurements (one energy
    and one correlation per window and hop) and runs the pipeline of
    :func:`reconstruct` on them, so ``reconstruct_compressed(aggregate(grid))``
    returns the same estimate as ``reconstruct(grid)``.  The support is
    detected from the recovered magnitudes; ``support_hint`` is only
    cross-checked and reported, never trusted.
    """
    fam = _family(windows, cfg)
    if agg.energy.shape != (cfg.num_windows, cfg.num_hops):
        raise DimensionMismatchError(
            f"aggregate shape {agg.energy.shape} does not match config "
            f"({cfg.num_windows}, {cfg.num_hops})"
        )
    result = _run_pipeline(
        agg, fam, cfg, min_support_magnitude, witness_rule, rank_tol, degenerate_tol
    )
    result.diagnostics["compressed_count"] = agg.measurement_count
    if support_hint is not None:
        hint = tuple(sorted(int(v) for v in support_hint))
        result.diagnostics["support_hint_matched"] = (
            hint == tuple(result.diagnostics["support"])
        )
    return result
