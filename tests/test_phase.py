import importlib
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftpr import cli, model, phase, supportgraph
from stftpr import (
    AggregateMeasurements,
    Geometry,
    MeasurementGrid,
    ProblemConfig,
    aggregate,
    corrupt,
    endpoint_graph_from_support,
    measure,
    phase_distance,
    reconstruct,
    reconstruct_compressed,
    spanning_tree,
    support,
    window_support,
)
from stftpr.errors import (
    CertificationError,
    ConfigurationError,
    DegenerateEdgeError,
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidPriorError,
    InvalidWindowError,
    PhaseRetrievalError,
)
from stftpr.generators import (
    certified_instance, chain_family, random_interval_window, random_signal,
)
from stftpr.spectral import MagnitudeSpectrum
from stftpr.supportgraph import endpoint_witness

stft_module = importlib.import_module("stftpr.stft")  # ``stftpr.stft`` is also a function

from conftest import divisors, geom_at, graph_from_lists, weak_nontree_instance, witness_lists


def _edge(graph, a, b):
    """Endpoints and witness list of the graph's edge joining ``a`` and ``b``."""
    ends = (min(a, b), max(a, b))
    return ends, witness_lists(graph)[ends]


def _single_edge_phase(edge, agg, fam):
    """``phase.edge_phase`` on the one-edge graph of ``edge = ((lo, hi), witnesses)``.

    Returns ``(n1, n2, window, hop_index, phase)`` of the record's one row,
    checked against :func:`_reference_edge_phase` at the pipeline's default
    tolerance.  A degenerate row, checked to be one when the reference finds
    no witness, is ``(lo, hi, -1, -1, 0)``.
    """
    fam = np.asarray(fam, dtype=complex)
    degenerate_tol = phase.default_degenerate_tol(fam.shape[1], agg.noise_level)
    geom = geom_at(fam, fam.shape[1] // agg.num_hops)
    graph = graph_from_lists("endpoint", edge[0], [edge])
    record = phase.edge_phase(graph, agg, geom, degenerate_tol)
    assert len(record) == 1 and record.residual is None
    want = _reference_edge_phase(edge[1], agg, fam, degenerate_tol)
    cols = (record.n1, record.n2, record.window, record.hop_index, record.phase)
    got = tuple(c[0].item() for c in cols)
    if want is None:
        assert got == (*edge[0], -1, -1, 0) and record.evidence[0] == 0
    else:
        assert got[:4] == want[:4] and abs(got[4] - want[4]) <= 1e-12
    return got


class TestEdgePhase:
    def test_equal_entries_real_window(self):
        x = np.ones(4, complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), geom_at(fam, 1))
        g = endpoint_graph_from_support(support(x), geom_at(fam, 1))
        *_, rel = _single_edge_phase(_edge(g, 0, 3), agg, fam)
        assert rel == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn(self):
        x = np.array([1j, 1, 1, 1], dtype=complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), geom_at(fam, 1))
        g = endpoint_graph_from_support(support(x), geom_at(fam, 1))
        n1, n2, _, _, rel = _single_edge_phase(_edge(g, 0, 3), agg, fam)
        assert (n1, n2) == (0, 3)  # hop 0 sees the anchor at index 0
        assert rel == pytest.approx(1j, abs=1e-12)

    def test_derived_tap_window(self):
        rng = np.random.default_rng(91)
        n = 8
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fam = [np.array([1, 2, 1, 0, 0, 0, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), geom_at(fam, 1))
        g = endpoint_graph_from_support(support(x), geom_at(fam, 1))
        for m in range(n):
            n1, n2 = m % n, (m - 2) % n
            a, b, _, _, rel = _single_edge_phase(_edge(g, n1, n2), agg, fam)
            want = x[a] * np.conj(x[b])
            want /= abs(want)
            assert abs(rel - want) <= 1e-9

    def test_identity_against_known_signal(self):
        rng = np.random.default_rng(97)
        n, hop = 12, 3
        x, fam = certified_instance(n, hop, 4, rng)
        agg = aggregate(measure(x, fam, hop), geom_at(fam, hop))
        g = endpoint_graph_from_support(support(x), geom_at(fam, hop))
        assert len(g.edges)
        for edge in witness_lists(g).items():
            a, b, _, _, rel = _single_edge_phase(edge, agg, fam)
            want = x[a] * np.conj(x[b])
            want /= abs(want)
            assert abs(rel - want) <= 1e-10

    def test_degenerate_when_evidence_vanishes(self):
        # a frequency-constant grid has zero correlation for any span >= 1
        x = np.ones(4, complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        g = endpoint_graph_from_support(support(x), geom_at(fam, 1))
        flat = MeasurementGrid(values=np.ones((1, 4, 4)), noise_level=0.05)
        agg = aggregate(flat, geom_at(fam, 1))
        assert _single_edge_phase(_edge(g, 0, 3), agg, fam) == (0, 3, -1, -1, 0)

    def test_degenerate_tree_edge_raises(self):
        # an evidence floor above every correlation leaves no tree edge a phase
        rng = np.random.default_rng(83)
        x, fam = certified_instance(8, 2, 3, rng)
        grid = measure(x, fam, 2)
        graph = endpoint_graph_from_support(support(x), geom_at(fam, 2))
        first = tuple(graph.edges[spanning_tree(graph).edges[0]].tolist())
        with pytest.raises(DegenerateEdgeError, match="below 1.000e[+]06") as err:
            reconstruct(grid, fam, ProblemConfig(8, 2, 3), degenerate_tol=1e6)
        assert err.value.endpoints == first


class TestPropagate:
    def _magnitudes(self, sq):
        from stftpr.spectral import MagnitudeSpectrum

        arr = np.asarray(sq, dtype=float)
        return MagnitudeSpectrum(
            power_spectrum=np.fft.fft(arr) / arr.size,
            magnitudes_sq=arr,
            clamped_mass=0.0,
            imag_residue=0.0,
            severe_clamping=False,
        )

    def test_single_vertex(self):
        from stftpr.phase import propagate

        tree = spanning_tree(graph_from_lists("endpoint", (2,), []))
        estimate = propagate(tree, self._magnitudes([0, 0, 4.0, 0]), [])
        assert estimate[2] == pytest.approx(2.0)
        assert tree.root == 2

    def test_opposite_phases(self):
        from stftpr.phase import propagate

        tree = spanning_tree(graph_from_lists("endpoint", (0, 1), [((0, 1), [(0, 0)])]))
        assert (tree.parent.tolist(), tree.child.tolist(), tree.depth) == ([0], [1], 1)
        # the phasor of x(1) * conj(x(0)), carrying the root's phase to its child
        estimate = propagate(tree, self._magnitudes([1.0, 1.0]), [-1.0 + 0j])
        assert estimate[0] == pytest.approx(1.0)
        assert estimate[1] == pytest.approx(-1.0)


class TestReconstruct:
    def test_scaled_impulse(self):
        rng = np.random.default_rng(101)
        n, hop = 8, 2
        _, fam = certified_instance(n, hop, 3, rng)
        x = np.zeros(n, complex)
        x[0] = 5.0
        cfg = ProblemConfig(n, hop, 3)
        res = reconstruct(measure(x, fam, hop), fam, cfg)
        assert res.estimate[0] == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(res.estimate[1:], 0)
        assert res.root_vertex == 0

    def test_coprime_span_recovers(self):
        # supporting length 4 on n=8: offset 3 is coprime, full support connects
        rng = np.random.default_rng(103)
        n = 8
        fam = [random_interval_window(n, 4, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        cfg = ProblemConfig(n, 1, 1)
        res = reconstruct(measure(x, fam, 1), fam, cfg)
        dist = phase_distance(res.estimate, x)
        assert dist.distance <= 1e-8 * np.linalg.norm(x)

    def test_even_span_disconnects_before_length_gate(self):
        # supporting length 5 on n=8 also violates the half-length bound, but
        # the endpoint graph's 4 components are reported first; a length-5
        # section sees 5 consecutive indices, so the covisibility graph is
        # connected and nothing is proved: a certification failure, not exit 2
        rng = np.random.default_rng(107)
        n = 8
        fam = [random_interval_window(n, 5, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        cfg = ProblemConfig(n, 1, 1)
        with pytest.raises(CertificationError, match=r"^endpoint graph .* 4 components: ") as err:
            reconstruct(measure(x, fam, 1), fam, cfg)
        assert not isinstance(err.value, DisconnectedGraphError)

    def test_long_window_rejected_when_connected(self):
        # length 6 on n=8: offset 5 is coprime (connected) but the window is too long
        rng = np.random.default_rng(109)
        n = 8
        fam = [random_interval_window(n, 6, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        cfg = ProblemConfig(n, 1, 1)
        with pytest.raises(CertificationError) as err:
            reconstruct(measure(x, fam, 1), fam, cfg)
        assert err.value.failing == (0,)

    def test_long_window_on_one_vertex_support(self):
        # a single support index needs no edge phase, so a window of length 5
        # on n=8 is no reason to refuse it; this used to raise CertificationError
        n = 8
        fam = np.ones((1, n), dtype=complex)
        fam[0, 5:] = 0
        for k in range(n):
            x = np.zeros(n, dtype=complex)
            x[k] = 0.6 - 0.8j
            res = reconstruct(measure(x, fam, 1), fam, ProblemConfig(n, 1, 1))
            assert res.root_vertex == k
            assert phase_distance(res.estimate, x).distance <= 1e-12

    def test_rank_gate(self):
        rng = np.random.default_rng(113)
        w = random_interval_window(8, 3, rng)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        cfg = ProblemConfig(8, 2, 2)
        with pytest.raises(CertificationError):
            reconstruct(measure(x, [w, w], 2), [w, w], cfg)

    def test_non_finite_window_rejected(self):
        # a NaN tap used to reach the rank gate and fail inside numpy's SVD
        rng = np.random.default_rng(127)
        x, fam = certified_instance(8, 2, 2, rng)
        grid = measure(x, fam, 2)
        bad = fam.copy()
        bad[1, 0] = np.nan
        with pytest.raises(InvalidWindowError, match="window 1"):
            reconstruct(grid, bad, ProblemConfig(8, 2, 2))

    def test_zero_signal(self):
        rng = np.random.default_rng(127)
        _, fam = certified_instance(8, 2, 2, rng)
        cfg = ProblemConfig(8, 2, 2)
        res = reconstruct(measure(np.zeros(8), fam, 2), fam, cfg)
        assert np.all(res.estimate == 0)
        assert res.root_vertex is None

    def test_deterministic_and_phase_invariant(self):
        rng = np.random.default_rng(131)
        n, hop = 12, 3
        x, fam = certified_instance(n, hop, 4, rng)
        cfg = ProblemConfig(n, hop, 4)
        grid = measure(x, fam, hop)
        a = reconstruct(grid, fam, cfg)
        b = reconstruct(grid, fam, cfg)
        assert np.array_equal(a.estimate, b.estimate)  # same grid, same estimate
        rotated = reconstruct(measure(np.exp(0.7j) * x, fam, hop), fam, cfg)
        assert np.max(np.abs(rotated.estimate - a.estimate)) <= 1e-9

    def test_every_witness_gives_the_edge_phase(self):
        # two windows of equal span give every edge two witnesses; the
        # correlation collapses to one term, so each alone fixes the edge's phase
        rng = np.random.default_rng(137)
        n = 8
        fam = [random_interval_window(n, 4, rng), random_interval_window(n, 4, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        agg = aggregate(measure(x, fam, 1), geom_at(fam, 1))
        graph = endpoint_graph_from_support(support(x), geom_at(fam, 1))
        edges = witness_lists(graph)
        assert edges and all(len(ws) == 2 for ws in edges.values())
        for ends, witnesses in edges.items():
            phases = []
            for witness in witnesses:
                n1, n2, _, _, rel = _single_edge_phase((ends, [witness]), agg, fam)
                # x(lo) * conj(x(hi)), whichever endpoint the witness calls n1
                phases.append(rel if (n1, n2) == ends else rel.conjugate())
            assert abs(phases[1] - phases[0]) <= 1e-9

    def test_sign_bookkeeping_both_walk_directions(self):
        # root can play either endpoint role depending on the anchor position
        rng = np.random.default_rng(139)
        n = 4
        x = np.array([1.0, 0.0, np.exp(0.4j), 0.0], dtype=complex)
        for anchor in range(n):
            fam = [random_interval_window(n, 2, rng, anchor=anchor)]
            cfg = ProblemConfig(n, 1, 1)
            grid = measure(x, fam, 1)
            try:
                res = reconstruct(grid, fam, cfg)
            except DisconnectedGraphError:
                continue  # span 1 only joins adjacent indices; {0, 2} needs span 2
            dist = phase_distance(res.estimate, x)
            assert dist.distance <= 1e-9

    def test_noisy_needs_prior(self):
        rng = np.random.default_rng(149)
        x, fam = certified_instance(8, 2, 2, rng)
        grid = corrupt(measure(x, fam, 2), rng.uniform(-1e-9, 1e-9, (2, 4, 8)))
        cfg = ProblemConfig(8, 2, 2)
        with pytest.raises(InvalidPriorError):
            reconstruct(grid, fam, cfg)

    def test_family_validated_once_per_run(self, monkeypatch):
        original = model.as_window_family
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("stftpr") and vars(module).get("as_window_family") is original:
                monkeypatch.setattr(module, "as_window_family", counting)
        counts, edges = [], []
        for n in (16, 64):
            x, fam = certified_instance(n, 2, 3, np.random.default_rng(167))
            grid = measure(x, fam, 2)
            calls.clear()
            res = reconstruct(grid, fam, ProblemConfig(n, 2, 3))
            counts.append(len(calls))
            d = res.diagnostics
            edges.append(len(d["used_witnesses"]) + len(d["nontree_residuals"]))
        assert edges[1] > edges[0]
        assert counts == [1, 1]

    def test_diagnostics_contents(self):
        rng = np.random.default_rng(151)
        n, hop = 8, 1
        x, fam = certified_instance(n, hop, 2, rng)
        cfg = ProblemConfig(n, hop, 2)
        res = reconstruct(measure(x, fam, hop), fam, cfg)
        d = res.diagnostics
        assert d["support"].tolist() == list(range(n))
        assert d["support_rule"] == "relative-threshold"
        assert len(d["used_witnesses"]) == n - 1
        assert d["min_evidence"] > 0
        assert d["tree_depth"] >= 1
        assert (d["nontree_residuals"].residual <= 1e-9).all()


@pytest.mark.parametrize("compressed", [False, True], ids=["grid", "aggregates"])
@pytest.mark.parametrize(
    "num_windows, n, hop, cfg_windows",
    [(2, 8, 2, 3), (3, 8, 2, 2), (3, 8, 4, 3), (3, 16, 2, 3)],
    ids=["window-count", "config-windows", "config-hop", "config-length"],
)
def test_shape_mismatch_rejected(compressed, num_windows, n, hop, cfg_windows):
    # the data hold 3 windows x 4 hops at n = 8; windows and config must agree with them
    x, fam = certified_instance(8, 2, 3, np.random.default_rng(139))
    grid = measure(x, fam, 2)
    cfg = ProblemConfig(n, hop, cfg_windows)
    with pytest.raises(DimensionMismatchError):
        if compressed:
            reconstruct_compressed(aggregate(grid, geom_at(fam, 2)),
                                   Geometry(cfg, fam[:num_windows]))
        else:
            reconstruct(grid, fam[:num_windows], cfg)


class TestReconstructCompressed:
    def test_matches_full_path(self):
        rng = np.random.default_rng(157)
        n, hop, num = 8, 2, 3
        x, fam = certified_instance(n, hop, num, rng)
        cfg = ProblemConfig(n, hop, num)
        grid = measure(x, fam, hop)
        full = reconstruct(grid, fam, cfg)
        agg = aggregate(grid, geom_at(fam, grid.hop, cfg.zero_tol))
        comp = reconstruct_compressed(agg, Geometry(cfg, fam))
        assert np.max(np.abs(comp.estimate - full.estimate)) <= 1e-10
        assert agg.measurement_count == 2 * n * num // hop == 24
        assert comp.diagnostics["support"].tolist() == list(range(n))

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_one_pipeline(self, noise):
        # after the aggregates, the full and compressed runs are the same run
        rng = np.random.default_rng(173)
        n, hop, num = 16, 2, 3
        x, fam = certified_instance(n, hop, num, rng)
        cfg = ProblemConfig(n, hop, num)
        grid = measure(x, fam, hop)
        prior = None
        if noise:
            grid = corrupt(grid, rng.uniform(-noise, noise, grid.values.shape))
            prior = float(np.min(np.abs(x)))
        full = reconstruct(grid, fam, cfg, min_support_magnitude=prior)
        agg = aggregate(grid, geom_at(fam, grid.hop, cfg.zero_tol))
        comp = reconstruct_compressed(agg, Geometry(cfg, fam), min_support_magnitude=prior)
        assert np.array_equal(comp.estimate, full.estimate)
        assert comp.root_vertex == full.root_vertex
        diagnostics = comp.diagnostics
        assert diagnostics["support"].tolist() == list(range(n))
        assert _same_diagnostics(diagnostics, full.diagnostics)
        assert diagnostics["support_rule"] == ("half-minimum" if noise else "relative-threshold")
        assert full.modulation.certified and comp.modulation.certified

    def test_zero_aggregates(self):
        rng = np.random.default_rng(163)
        _, fam = certified_instance(8, 2, 2, rng)
        cfg = ProblemConfig(8, 2, 2)
        agg = aggregate(measure(np.zeros(8), fam, 2), geom_at(fam, 2))
        res = reconstruct_compressed(agg, Geometry(cfg, fam))
        assert np.all(res.estimate == 0)


def _reference_edge_phase(witnesses, agg, fam, tol):
    """The per-edge witness loop that the array pass of ``edge_phase`` replaced.

    Witnesses are tried strongest evidence first, ties going to the smaller
    (window, hop).  Each window's support comes from its own row.

    Returns ``(n1, n2, window, hop_index, phase)``, or None when no witness
    clears ``tol``.
    """
    n = fam.shape[1]
    hop = n // agg.num_hops
    supports = [window_support(w) for w in fam]
    for r, m in sorted(witnesses, key=lambda w: (-abs(agg.correlation[w]), w)):
        value = complex(agg.correlation[r, m])
        if abs(value) <= tol:
            continue
        ws = supports[r]
        n1, n2 = endpoint_witness(ws, hop, m, n)
        wp = fam[r, ws.far(n)] * np.conj(fam[r, ws.anchor])
        wp = wp / abs(wp)
        return n1, n2, r, m, complex(wp * value / abs(value))
    return None


def _lexsort_witnesses(graph, agg, tol):
    """Each edge's chosen ``(window, hop)``, by the lexsort ``edge_phase`` once chose with.

    The witnesses are sorted by (edge, strongest evidence first, window, hop),
    and an edge's first entry is its witness; ``(-1, -1)`` when that entry
    does not clear ``tol``.
    """
    eid = np.repeat(np.arange(len(graph.edges)), np.diff(graph.offsets))
    r, m = graph.window, graph.hop_index
    mag = phase._modulus(agg.correlation[r, m])
    order = np.lexsort((m, r, -mag, eid))
    first = order[np.diff(eid[order], prepend=-1) != 0]
    first = first[mag[first] > tol]
    want = np.full((len(graph.edges), 2), -1)
    want[eid[first]] = np.column_stack((r[first], m[first]))
    return want


class TestEdgeTable:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([6, 8, 12, 16, 24]),
        witnesses=st.sampled_from(["one", "many", "mixed", "empty"]),
        data=st.data(),
    )
    def test_witness_choice_matches_lexsort(self, seed, n, witnesses, data):
        # evidence on a lattice of Gaussian integers ties often, and exactly
        rng = np.random.default_rng(seed)
        hop = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        num_windows = 1 if witnesses == "one" else data.draw(st.integers(2, 4))
        lengths = rng.integers(2, n // 2 + 1, size=num_windows)
        if witnesses == "many":
            # one length at hop 1: every window witnesses every edge
            hop, lengths[:] = 1, lengths[0]
        fam = np.stack([random_interval_window(n, int(length), rng) for length in lengths])
        geom = geom_at(fam, hop)
        vertices = np.flatnonzero(rng.random(n) < 0.8)
        if witnesses == "empty":
            vertices = vertices[:1]  # at most one vertex: a graph without edges
        graph = endpoint_graph_from_support(vertices, geom)
        counts = np.diff(graph.offsets)
        assert {"one": np.all(counts == 1), "many": np.all(counts == num_windows),
                "mixed": True, "empty": counts.size == 0}[witnesses]
        shape = (num_windows, n // hop)
        corr = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        agg = AggregateMeasurements(energy=np.ones(shape), correlation=corr)
        tol = data.draw(st.sampled_from([0.0, 1.0, 2.0]))
        record = phase.edge_phase(graph, agg, geom, tol)
        got = np.column_stack((record.window, record.hop_index)).reshape(-1, 2)
        assert np.array_equal(got, _lexsort_witnesses(graph, agg, tol))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4, 6, 8, 12, 16]),
        data=st.data(),
    )
    def test_matches_per_edge_reference(self, seed, n, data):
        rng = np.random.default_rng(seed)
        hop = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        num_windows = data.draw(st.integers(1, 3))
        fam = np.array([
            random_interval_window(n, int(rng.integers(1, n // 2 + 1)), rng)
            for _ in range(num_windows)
        ])
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * (rng.random(n) < 0.8)
        grid = measure(x, fam, hop)
        if data.draw(st.booleans()):
            grid = corrupt(grid, rng.uniform(-1e-3, 1e-3, grid.values.shape))
        geom = geom_at(fam, hop)
        agg = aggregate(grid, geom)
        graph = endpoint_graph_from_support(support(x), geom)
        # a tolerance among the evidence magnitudes leaves some edges degenerate
        tol = data.draw(st.sampled_from([0.0, *np.quantile(np.abs(agg.correlation), [0.3, 0.7])]))
        record = phase.edge_phase(graph, agg, geom, tol)
        assert len(record) == len(graph.edges) and record.residual is None
        for i, witnesses in enumerate(witness_lists(graph).values()):
            want = _reference_edge_phase(witnesses, agg, fam, tol)
            if want is None:
                want = (*graph.edges[i].tolist(), -1, -1, 0)
                assert record.evidence[i] == 0
            got = (record.n1[i], record.n2[i], record.window[i], record.hop_index[i])
            assert got == want[:4]
            assert abs(record.phase[i] - want[4]) <= 1e-12
        # row selection keeps the columns parallel
        rows = np.flatnonzero(record.window >= 0)[::-1]
        picked = record[rows]
        assert len(picked) == rows.size and picked.residual is None
        for name in ("n1", "n2", "window", "hop_index", "evidence", "phase"):
            assert np.array_equal(getattr(picked, name), getattr(record, name)[rows])

    def test_length_one_witness_raises(self):
        # window 1 has supporting length 1, so no builder lets it witness an
        # edge; on a hand-made graph its witness maps to the one index (3, 3)
        # and edge_phase raises rather than give edge (0, 3) a phase from it,
        # also when a usable but weaker (0.25 against 1.0) witness is listed
        x = np.ones(4, complex)
        fam = np.array([[1, 1, 0, 0], [0, 2, 0, 0]], dtype=complex)
        geom = geom_at(fam, 1)
        agg = aggregate(measure(x, fam, 1), geom)
        tol = phase.default_degenerate_tol(4, agg.noise_level)
        for witnesses in ([(1, 0)], [(0, 0), (1, 0)]):
            graph = graph_from_lists("endpoint", (0, 3), [((0, 3), witnesses)])
            with pytest.raises(RuntimeError, match=r"witness \(1, 0\) maps to \(3, 3\)"):
                phase.edge_phase(graph, agg, geom, tol)

    def test_aggregates_of_another_hop_rejected(self):
        # a hop-2 graph reading hop-4 aggregates used to index past their
        # 4 hops and raise a raw IndexError
        x, fam = certified_instance(16, 2, 3, np.random.default_rng(3))
        geom = geom_at(fam, 2)
        graph = endpoint_graph_from_support(support(x), geom)
        agg = aggregate(measure(x, fam, 4), geom_at(fam, 4))
        with pytest.raises(DimensionMismatchError, match=r"\(3, 4\) do not match 3 windows x 8"):
            phase.edge_phase(graph, agg, geom, 1e-12)

    def test_evidence_ties_go_to_the_smaller_window(self):
        # edge (0, 3) is witnessed by window 0 at hop 1 and by window 1 at hop 0
        fam = [np.array([0, 1, 1, 0], dtype=complex), np.array([1, 1, 0, 0], dtype=complex)]
        edge = ((0, 3), [(0, 1), (1, 0)])
        for strength, want in ((0.25, (0, 1)), (0.5, (1, 0))):
            corr = np.zeros((2, 4), dtype=complex)
            corr[0, 1], corr[1, 0] = 0.25, strength * 1j
            agg = AggregateMeasurements(energy=np.ones((2, 4)), correlation=corr)
            n1, n2, window, hop, _ = _single_edge_phase(edge, agg, fam)
            assert (window, hop, n1, n2) == (*want, 0, 3)

    def test_degenerate_nontree_edge_reports_none(self):
        # the weakest non-tree edges sit below every tree edge, and the tolerance
        # between them: the tree survives, those edges do not
        x, fam, grid, weak, tol = weak_nontree_instance()
        res = reconstruct(grid, fam, ProblemConfig(8, 1, 2), degenerate_tol=tol)
        rec = res.diagnostics["nontree_residuals"]
        cols = (rec.n1, rec.n2, rec.window, rec.hop_index, rec.residual)
        entries = {(a, b): (w, h, r) for a, b, w, h, r in zip(*(c.tolist() for c in cols))}
        for p in weak:
            window, hop, residual = entries[p]
            assert (window, hop) == (-1, -1) and np.isnan(residual)
        assert phase_distance(res.estimate, x).distance <= 1e-8 * np.linalg.norm(x)


class TestTolerances:
    def test_negative_rank_tol_rejected(self):
        # [1, 1, 0, ...] is rank-deficient at n=8, hop 1; a negative rank_tol would
        # certify it and return an estimate with 14% relative error
        w = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
        x = np.random.default_rng(181).normal(size=8) + 0j
        grid = measure(x, [w], 1)
        cfg = ProblemConfig(8, 1, 1)
        with pytest.raises(CertificationError):
            reconstruct(grid, [w], cfg)
        with pytest.raises(ConfigurationError, match="rank_tol"):
            reconstruct(grid, [w], cfg, rank_tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_degenerate_tol_rejected(self, tol):
        rng = np.random.default_rng(191)
        x, fam = certified_instance(8, 2, 3, rng)
        grid = measure(x, fam, 2)
        with pytest.raises(ConfigurationError, match="degenerate_tol"):
            reconstruct(grid, fam, ProblemConfig(8, 2, 3), degenerate_tol=tol)
        with pytest.raises(ConfigurationError, match="degenerate_tol"):
            geom = Geometry(ProblemConfig(8, 2, 3), fam)
            reconstruct_compressed(aggregate(grid, geom), geom, degenerate_tol=tol)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_edge_phase_rejects_bad_degenerate_tol(self, tol):
        # unchecked, a NaN tolerance would mark every edge degenerate, and -1 would pass
        rng = np.random.default_rng(197)
        x, fam = certified_instance(16, 2, 3, rng)
        geom = geom_at(fam, 2)
        graph = supportgraph.endpoint_graph_from_support(range(16), geom)
        agg = aggregate(measure(x, fam, 2), geom)
        assert len(phase.edge_phase(graph, agg, geom, 1e-12)) == len(graph.edges) > 0
        with pytest.raises(ConfigurationError, match="degenerate_tol must be finite"):
            phase.edge_phase(graph, agg, geom, tol)


def _same_diagnostics(a: dict, b: dict) -> bool:
    """``a == b`` for two runs' diagnostics, arrays and witness records compared entrywise."""
    def same(u, v):
        if isinstance(u, phase.EdgeWitnesses):
            return all(same(getattr(u, f.name), getattr(v, f.name)) for f in fields(u))
        if isinstance(u, np.ndarray):
            return isinstance(v, np.ndarray) and np.array_equal(u, v, equal_nan=True)
        return u == v

    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def _dict_walk(tree, record, amps, verts):
    """The evidence-dict walk the array walk replaced, one Python complex product per edge."""
    ends = tree.graph.edges.tolist()
    evidence = {
        tuple(ends[i]): (record.n1[i].item(), record.n2[i].item(), record.phase[i].item())
        for i in tree.edges.tolist()
    }
    phasor = {tree.root: 1.0 + 0.0j}
    for parent, child, i in zip(tree.parent.tolist(), tree.child.tolist(), tree.edges.tolist()):
        n1, n2, rel = evidence[tuple(ends[i])]
        assert {parent, child} == {n1, n2}
        phasor[child] = phasor[parent] * (rel if child == n1 else rel.conjugate())
    estimate = np.zeros(amps.shape, dtype=complex)
    estimate[list(verts)] = amps[list(verts)] * np.array([phasor[v] for v in verts], dtype=complex)
    return estimate


class TestArrayWalk:
    @pytest.mark.parametrize("n,hop,num_windows", [(64, 1, 1), (48, 4, 6), (32, 2, 3), (40, 8, 10)])
    def test_bit_identical_to_dict_walk(self, n, hop, num_windows):
        from stftpr.spectral import certify_rank, recover_magnitudes
        from stftpr.supportgraph import endpoint_graph_from_support

        for seed in range(3):
            rng = np.random.default_rng([n, seed])
            x, fam = certified_instance(n, hop, num_windows, rng)
            grid = measure(x, fam, hop)
            grid = corrupt(grid, rng.uniform(-1e-9, 1e-9, grid.values.shape))
            cfg = ProblemConfig(n, hop, num_windows)
            res = reconstruct(grid, fam, cfg, min_support_magnitude=0.5)
            geom = Geometry(cfg, fam)
            agg = aggregate(grid, geom)
            verts = res.diagnostics["support"]
            graph = endpoint_graph_from_support(verts, geom)
            tree = spanning_tree(graph)
            record = phase.edge_phase(graph, agg, geom, phase.default_degenerate_tol(n, 1e-9))
            amps = np.sqrt(recover_magnitudes(agg, certify_rank(geom)).magnitudes_sq)
            want = _dict_walk(tree, record, amps, verts)
            assert np.array_equal(res.estimate, want)
            assert res.diagnostics["tree_depth"] == tree.depth
            used = res.diagnostics["used_witnesses"]
            for name in ("n1", "n2", "window", "hop_index", "evidence", "phase"):
                assert np.array_equal(getattr(used, name), getattr(record, name)[tree.edges])
            assert used.residual is None

    def test_reconstruct_runs_edge_phase_once(self, monkeypatch):
        # one array pass per run, over every edge, reached through the module
        # binding (where a tracer wraps it)
        original = phase.edge_phase
        seen = []

        def counting(graph, *args):
            record = original(graph, *args)
            seen.append((len(graph.edges), len(record)))
            return record

        monkeypatch.setattr(phase, "edge_phase", counting)
        rng = np.random.default_rng(223)
        x, fam = certified_instance(24, 2, 3, rng)
        grid = measure(x, fam, 2)
        cfg = ProblemConfig(24, 2, 3)
        noisy = corrupt(grid, rng.uniform(-1e-9, 1e-9, grid.values.shape))
        results = [
            reconstruct(grid, fam, cfg),
            reconstruct(noisy, fam, cfg, min_support_magnitude=0.5),
            reconstruct_compressed(aggregate(grid, geom_at(fam, 2)), Geometry(cfg, fam)),
        ]
        num_edges = len(endpoint_graph_from_support(support(x), geom_at(fam, 2)).edges)
        assert seen == [(num_edges, num_edges)] * 3
        for res in results:
            d = res.diagnostics
            assert len(d["used_witnesses"]) + len(d["nontree_residuals"]) == num_edges


    def test_reconstruct_computes_window_supports_once(self, monkeypatch):
        # the run's geometry computes its family's supports in one call, through
        # the module binding (where a tracer wraps it), and every stage reads
        # them there, aggregate too
        calls = {}
        for module in (stft_module, supportgraph):
            def counting(*args, _name=module.__name__, _fn=module.window_support):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, "window_support", counting)
        rng = np.random.default_rng(233)
        x, fam = certified_instance(24, 2, 5, rng)
        grid = measure(x, fam, 2)
        cfg = ProblemConfig(24, 2, 5)
        agg = aggregate(grid, geom_at(fam, 2))
        calls.clear()
        reconstruct(grid, fam, cfg)
        assert calls == {"stftpr.supportgraph": 1}
        calls.clear()
        reconstruct_compressed(agg, Geometry(cfg, fam))
        assert calls == {"stftpr.supportgraph": 1}


class TestNonFinitePrior:
    @pytest.mark.parametrize("prior", [float("nan"), float("inf"), True, False])
    def test_noisy_reconstruct_rejects(self, prior):
        # NaN used to detect an empty support and return an all-zero estimate,
        # and True to run the half-minimum rule with a prior of 1.0
        rng = np.random.default_rng(227)
        x, fam = certified_instance(8, 2, 2, rng)
        grid = corrupt(measure(x, fam, 2), rng.uniform(-1e-9, 1e-9, (2, 4, 8)))
        cfg = ProblemConfig(8, 2, 2)
        with pytest.raises(InvalidPriorError):
            reconstruct(grid, fam, cfg, min_support_magnitude=prior)
        with pytest.raises(InvalidPriorError):
            geom = Geometry(cfg, fam)
            reconstruct_compressed(aggregate(grid, geom), geom, min_support_magnitude=prior)


class TestDetectSupport:
    @pytest.mark.parametrize("noise_level", [0.0, 1e-9])
    def test_support_is_sorted_intp_array(self, noise_level):
        # the diagnostics and the endpoint graph take the support as one array
        sq = np.array([0.0, 1.0, 0.0, 4.0, 2.25])
        magnitudes = MagnitudeSpectrum(
            power_spectrum=np.fft.fft(sq) / sq.size, magnitudes_sq=sq,
            clamped_mass=0.0, imag_residue=0.0, severe_clamping=False,
        )
        detected, _ = phase._detect_support(magnitudes, noise_level, 1e-12, 0.5)
        assert detected.dtype == np.intp
        assert detected.tolist() == [1, 3, 4]

    def test_support_matches_the_model_support(self):
        # an intp array on the left of == with a tuple of ints still gives a bool,
        # as a caller comparing against stftpr.model.support expects; the graph's
        # certificate hands plain ints to JSON writers
        x, fam = certified_instance(64, 1, 1, np.random.default_rng(239))
        res = reconstruct(measure(x, fam, 1), fam, ProblemConfig(64, 1, 1))
        assert (tuple(res.diagnostics["support"]) == support(x)) is True
        graph = endpoint_graph_from_support(res.diagnostics["support"], geom_at(fam, 1))
        vertices = graph.to_dict()["vertices"]
        assert vertices == list(support(x))
        assert all(type(v) is int for v in vertices)


def _analyze_verdict(x, fam, hop):
    """``analyze``'s verdict on signal ``x`` and family ``fam``, read from files by the CLI."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cli.write_signal_json(d / "x.json", x)
        cli.write_windows_json(d / "w.json", fam)
        assert cli.main(["analyze", "--n", str(len(x)), "--hop", str(hop), "--windows",
                         str(d / "w.json"), "--signal", str(d / "x.json"),
                         "--out", str(d / "cert.json")]) == 0
        return json.loads((d / "cert.json").read_text())["verdict"]


def _outcome(x, fam, hop):
    """``reconstruct``'s estimate on the exact grid of ``(x, fam)``, or the class of its error."""
    try:
        return reconstruct(measure(x, fam, hop), fam, ProblemConfig(len(x), hop, len(fam))).estimate
    except PhaseRetrievalError as exc:
        return type(exc)


def _reflect(v):
    """``conj(v(-t))`` along the last axis, indices mod n."""
    return np.conj(np.roll(v[..., ::-1], 1, axis=-1))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 6, 8, 12, 16]), data=st.data())
def test_pipeline_follows_the_stft_symmetries(seed, n, data):
    # the magnitudes are invariant under a global phase; a shift of x by hop*s
    # rolls the hop axis by s, a modulation by exp(2 pi i j t / n) the frequency
    # axis by j, and conjugate reflection of x and the windows sends hop m to
    # -m mod n/hop; the verdict, the outcome and the estimate (up to a global
    # phase) must follow, whichever supports and anchors the geometry holds
    # chain families and cyclic-interval supports make about two runs in five
    # succeed; the rest fail in every way reconstruct can
    rng = np.random.default_rng(seed)
    hop = data.draw(st.sampled_from(divisors(n)))
    num_windows = data.draw(st.integers(hop, hop + 2))
    if data.draw(st.booleans()):
        fam = chain_family(n, hop, num_windows, rng)
    else:
        fam = np.stack([random_interval_window(n, int(rng.integers(1, n // 2 + 2)), rng)
                        for _ in range(num_windows)])
    if data.draw(st.booleans()):
        supp = (int(rng.integers(0, n)) + np.arange(int(rng.integers(1, n + 1)))) % n
    else:
        supp = np.flatnonzero(rng.random(n) < 0.6)
    x = random_signal(n, rng, support=supp)
    t = np.arange(n)
    s, j = int(rng.integers(0, n // hop)), int(rng.integers(0, n))
    ramp = np.exp(2j * np.pi * j * t / n)
    transforms = {  # name: (x', windows', the estimate's image)
        "global phase": (np.exp(1j * rng.uniform(0, 2 * np.pi)) * x, fam, lambda e: e),
        "shift": (np.roll(x, hop * s), fam, lambda e: np.roll(e, hop * s)),
        "modulation": (ramp * x, fam, lambda e: ramp * e),
        "reflection": (_reflect(x), _reflect(fam), _reflect),
    }
    verdict, outcome = _analyze_verdict(x, fam, hop), _outcome(x, fam, hop)
    for name, (y, windows, image) in transforms.items():
        assert _analyze_verdict(y, windows, hop) == verdict, name
        got = _outcome(y, windows, hop)
        if isinstance(outcome, type):
            assert got is outcome, name
        else:
            assert isinstance(got, np.ndarray), (name, got)
            gap = phase_distance(got, image(outcome)).distance
            assert gap <= 1e-9 * max(1.0, np.linalg.norm(x)), (name, gap)
