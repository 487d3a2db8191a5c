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
from .model import ProblemConfig, as_window_family
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


def _witness_order(witnesses, magnitudes, rule):
    if callable(rule):
        return list(rule(list(witnesses), magnitudes))
    if rule == "max_evidence":
        order = sorted(
            range(len(witnesses)), key=lambda i: (-magnitudes[i], witnesses[i])
        )
        return [witnesses[i] for i in order]
    if rule == "lexicographic":
        return sorted(witnesses)
    raise ValueError(f"unknown witness rule {rule!r}")


def edge_phase(
    edge: SupportGraphEdge,
    agg: AggregateMeasurements,
    windows,
    witness_rule="max_evidence",
    degenerate_tol: float | None = None,
) -> EdgePhaseEvidence:
    """Extract the relative phase of an endpoint-graph edge.

    Witnesses are tried in rule order ("max_evidence" prefers the largest
    correlation magnitude - the most noise-robust choice - with ties broken
    lexicographically); the first one whose evidence clears the degeneracy
    tolerance wins.  If none does, the edge is unusable at this noise level.

    This public entry point validates ``windows`` on every call.  The
    reconstruction pipeline validates the family once per run and extracts
    every edge phase through the same per-edge step without re-validating.
    """
    fam = as_window_family(windows)
    supports = [window_support(w) for w in fam]
    if degenerate_tol is None:
        degenerate_tol = default_degenerate_tol(fam.shape[1], agg.noise_level)
    return _edge_phase(edge, agg, fam, supports, witness_rule, degenerate_tol)


def _edge_phase(
    edge: SupportGraphEdge,
    agg: AggregateMeasurements,
    fam: np.ndarray,
    supports: list[WindowSupport],
    witness_rule,
    degenerate_tol: float,
) -> EdgePhaseEvidence:
    """:func:`edge_phase` on an already-validated family and resolved tolerance."""
    n = fam.shape[1]
    hop = n // agg.num_hops
    usable = [(r, m) for (r, m) in edge.witnesses if supports[r].length >= 2]
    if not usable:
        raise DegenerateEdgeError(
            f"edge {edge.endpoints} has no witness with supporting length >= 2",
            endpoints=edge.endpoints,
        )
    magnitudes = [abs(agg.correlation[r, m]) for (r, m) in usable]
    for r, m in _witness_order(usable, magnitudes, witness_rule):
        value = complex(agg.correlation[r, m])
        if abs(value) <= degenerate_tol:
            continue
        ws = supports[r]
        n1, n2 = endpoint_witness(ws, hop, m, n)
        if {n1, n2} != set(edge.endpoints):
            raise RuntimeError(
                f"witness ({r}, {m}) maps to ({n1}, {n2}), not edge {edge.endpoints}"
            )
        wp = fam[r, ws.far(n)] * np.conj(fam[r, ws.anchor])
        wp = wp / abs(wp)
        rel = wp * value / abs(value)
        return EdgePhaseEvidence(
            n1=n1,
            n2=n2,
            window=r,
            hop_index=m,
            evidence=value,
            window_phase=complex(wp),
            relative_phase=complex(rel),
        )
    raise DegenerateEdgeError(
        f"edge {edge.endpoints}: all witness evidence magnitudes are below "
        f"{degenerate_tol:.3e} (noise level {agg.noise_level:.3e})",
        endpoints=edge.endpoints,
    )


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
        phasor[te.child] = phasor[te.parent] * (rel if te.child == ev.n1 else np.conj(rel))
        used.append(
            {"n1": ev.n1, "n2": ev.n2, "window": ev.window, "hop_index": ev.hop_index}
        )
        mag = abs(ev.evidence)
        min_evidence = mag if min_evidence is None else min(min_evidence, mag)
    missing = [v for v in verts if v not in phasor]
    if missing:
        raise RuntimeError(f"tree does not span the support; unreached: {missing}")
    for v in verts:
        estimate[v] = amps[v] * phasor[v]
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
    if degenerate_tol is None:
        degenerate_tol = default_degenerate_tol(cfg.n, agg.noise_level)
    evidences = {
        te.edge.endpoints: _edge_phase(
            te.edge, agg, fam, supports, witness_rule, degenerate_tol
        )
        for te in tree.edges
    }
    result = replace(propagate(tree, magnitudes, evidences, detected), modulation=mats)
    result.diagnostics.update(diagnostics)
    tree_pairs = {te.edge.endpoints for te in tree.edges}
    unit = np.zeros(cfg.n, dtype=complex)
    on = result.estimate != 0
    unit[on] = result.estimate[on] / np.abs(result.estimate[on])
    residuals = []
    for edge in graph.edges:
        if edge.endpoints in tree_pairs:
            continue
        try:
            ev = _edge_phase(edge, agg, fam, supports, witness_rule, degenerate_tol)
        except DegenerateEdgeError:
            residuals.append(
                {"n1": edge.endpoints[0], "n2": edge.endpoints[1], "residual": None}
            )
            continue
        residuals.append(
            {
                "n1": ev.n1,
                "n2": ev.n2,
                "window": ev.window,
                "hop_index": ev.hop_index,
                "residual": float(
                    abs(ev.relative_phase - unit[ev.n1] * np.conj(unit[ev.n2]))
                ),
            }
        )
    result.diagnostics["nontree_residuals"] = residuals
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
