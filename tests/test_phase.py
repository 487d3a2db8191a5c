import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftpr import model, phase
from stftpr import (
    MeasurementGrid,
    ProblemConfig,
    aggregate,
    build_endpoint_graph,
    corrupt,
    edge_phase,
    measure,
    phase_distance,
    reconstruct,
    reconstruct_compressed,
    spanning_tree,
    window_support,
)
from stftpr.errors import (
    CertificationError,
    ConfigurationError,
    DegenerateEdgeError,
    DisconnectedGraphError,
    InvalidPriorError,
    InvalidWindowError,
)
from stftpr.generators import certified_instance, random_interval_window
from stftpr.supportgraph import SupportGraphEdge, endpoint_witness


def _edge(graph, a, b):
    return graph.edge_lookup()[(min(a, b), max(a, b))]


class TestEdgePhase:
    def test_equal_entries_real_window(self):
        x = np.ones(4, complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), fam)
        g = build_endpoint_graph(x, fam, 1)
        ev = edge_phase(_edge(g, 0, 3), agg, fam)
        assert ev.relative_phase == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn(self):
        x = np.array([1j, 1, 1, 1], dtype=complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), fam)
        g = build_endpoint_graph(x, fam, 1)
        ev = edge_phase(_edge(g, 0, 3), agg, fam)
        assert (ev.n1, ev.n2) == (0, 3)  # hop 0 sees the anchor at index 0
        assert ev.relative_phase == pytest.approx(1j, abs=1e-12)

    def test_derived_tap_window(self):
        rng = np.random.default_rng(91)
        n = 8
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fam = [np.array([1, 2, 1, 0, 0, 0, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), fam)
        g = build_endpoint_graph(x, fam, 1)
        for m in range(n):
            n1, n2 = m % n, (m - 2) % n
            ev = edge_phase(_edge(g, n1, n2), agg, fam)
            want = x[ev.n1] * np.conj(x[ev.n2])
            want /= abs(want)
            assert abs(ev.relative_phase - want) <= 1e-9

    def test_identity_against_known_signal(self):
        rng = np.random.default_rng(97)
        n, hop = 12, 3
        x, fam = certified_instance(n, hop, 4, rng)
        agg = aggregate(measure(x, fam, hop), fam)
        g = build_endpoint_graph(x, fam, hop)
        for edge in g.edges:
            ev = edge_phase(edge, agg, fam)
            want = x[ev.n1] * np.conj(x[ev.n2])
            want /= abs(want)
            assert abs(ev.relative_phase - want) <= 1e-10

    def test_degenerate_when_evidence_vanishes(self):
        # a frequency-constant grid has zero correlation for any span >= 1
        x = np.ones(4, complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        g = build_endpoint_graph(x, fam, 1)
        flat = MeasurementGrid(values=np.ones((1, 4, 4)), noise_level=0.05)
        agg = aggregate(flat, fam)
        with pytest.raises(DegenerateEdgeError) as err:
            edge_phase(_edge(g, 0, 3), agg, fam)
        assert err.value.endpoints == (0, 3)


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
        from stftpr.supportgraph import SpanningTree

        tree = SpanningTree(root=2, edges=(), depth=0)
        res = propagate(tree, self._magnitudes([0, 0, 4.0, 0]), {}, (2,))
        assert res.estimate[2] == pytest.approx(2.0)
        assert res.root_vertex == 2

    def test_opposite_phases(self):
        from stftpr.phase import EdgePhaseEvidence, propagate
        from stftpr.supportgraph import SpanningTree, SupportGraphEdge, TreeEdge

        edge = SupportGraphEdge(endpoints=(0, 1), witnesses=((0, 0),))
        tree = SpanningTree(root=0, edges=(TreeEdge(0, 1, edge),), depth=1)
        ev = EdgePhaseEvidence(
            n1=1, n2=0, window=0, hop_index=0,
            evidence=1.0, window_phase=1.0, relative_phase=-1.0 + 0j,
        )
        res = propagate(tree, self._magnitudes([1.0, 1.0]), {(0, 1): ev}, (0, 1))
        assert res.estimate[0] == pytest.approx(1.0)
        assert res.estimate[1] == pytest.approx(-1.0)

    def test_non_spanning_tree_rejected(self):
        from stftpr.phase import propagate
        from stftpr.supportgraph import SpanningTree

        tree = SpanningTree(root=0, edges=(), depth=0)
        with pytest.raises(RuntimeError):
            propagate(tree, self._magnitudes([1.0, 1.0]), {}, (0, 1))


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
        # the component certificate must win: disconnection is reported first
        rng = np.random.default_rng(107)
        n = 8
        fam = [random_interval_window(n, 5, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        cfg = ProblemConfig(n, 1, 1)
        with pytest.raises(DisconnectedGraphError) as err:
            reconstruct(measure(x, fam, 1), fam, cfg)
        assert len(err.value.components) == 4

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

    def test_witness_rule_invariance(self):
        # two windows of equal span give every edge two witnesses
        rng = np.random.default_rng(137)
        n = 8
        fam = [random_interval_window(n, 4, rng), random_interval_window(n, 4, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        cfg = ProblemConfig(n, 1, 2)
        grid = measure(x, fam, 1)
        estimates = [
            reconstruct(grid, fam, cfg, witness_rule=rule).estimate
            for rule in (
                "max_evidence",
                "lexicographic",
                lambda ws, mags: list(reversed(sorted(ws))),
            )
        ]
        for est in estimates[1:]:
            assert np.max(np.abs(est - estimates[0])) <= 1e-9

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
        assert counts[0] == counts[1]

    def test_diagnostics_contents(self):
        rng = np.random.default_rng(151)
        n, hop = 8, 1
        x, fam = certified_instance(n, hop, 2, rng)
        cfg = ProblemConfig(n, hop, 2)
        res = reconstruct(measure(x, fam, hop), fam, cfg)
        d = res.diagnostics
        assert d["support"] == list(range(n))
        assert d["support_rule"] == "relative-threshold"
        assert len(d["used_witnesses"]) == n - 1
        assert d["min_evidence"] > 0
        assert d["tree_depth"] >= 1
        for entry in d["nontree_residuals"]:
            assert entry["residual"] <= 1e-9


class TestReconstructCompressed:
    def test_matches_full_path(self):
        rng = np.random.default_rng(157)
        n, hop, num = 8, 2, 3
        x, fam = certified_instance(n, hop, num, rng)
        cfg = ProblemConfig(n, hop, num)
        grid = measure(x, fam, hop)
        full = reconstruct(grid, fam, cfg)
        agg = aggregate(grid, fam, cfg.zero_tol)
        comp = reconstruct_compressed(agg, fam, cfg, support_hint=range(n))
        assert np.max(np.abs(comp.estimate - full.estimate)) <= 1e-10
        assert comp.diagnostics["compressed_count"] == 2 * n * num // hop == 24
        assert comp.diagnostics["support_hint_matched"] is True

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
        agg = aggregate(grid, fam, cfg.zero_tol)
        comp = reconstruct_compressed(
            agg, fam, cfg, support_hint=range(n), min_support_magnitude=prior
        )
        assert np.array_equal(comp.estimate, full.estimate)
        assert comp.root_vertex == full.root_vertex
        diagnostics = dict(comp.diagnostics)
        assert diagnostics.pop("compressed_count") == 2 * n * num // hop
        assert diagnostics.pop("support_hint_matched") is True
        assert diagnostics == full.diagnostics
        assert diagnostics["support_rule"] == ("half-minimum" if noise else "relative-threshold")
        assert full.modulation.certified and comp.modulation.certified

    def test_zero_aggregates(self):
        rng = np.random.default_rng(163)
        _, fam = certified_instance(8, 2, 2, rng)
        cfg = ProblemConfig(8, 2, 2)
        agg = aggregate(measure(np.zeros(8), fam, 2), fam)
        res = reconstruct_compressed(agg, fam, cfg)
        assert np.all(res.estimate == 0)


def _reference_edge_phase(edge, agg, fam, supports, rule, tol):
    """The per-edge witness loop that the edge-phase table replaced.

    Returns ``(n1, n2, window, hop_index, relative_phase)``, or None when no
    usable witness clears ``tol``.
    """
    n = fam.shape[1]
    hop = n // agg.num_hops
    usable = [(r, m) for (r, m) in edge.witnesses if supports[r].length >= 2]
    if not usable:
        return None
    mags = [abs(agg.correlation[r, m]) for (r, m) in usable]
    if callable(rule):
        order = list(rule(list(usable), mags))
    elif rule == "max_evidence":
        order = [usable[i] for i in sorted(range(len(usable)), key=lambda i: (-mags[i], usable[i]))]
    else:
        order = sorted(usable)
    for r, m in order:
        value = complex(agg.correlation[r, m])
        if abs(value) <= tol:
            continue
        ws = supports[r]
        n1, n2 = endpoint_witness(ws, hop, m, n)
        wp = fam[r, ws.far(n)] * np.conj(fam[r, ws.anchor])
        wp = wp / abs(wp)
        return n1, n2, r, m, complex(wp * value / abs(value))
    return None


_RULES = {
    "max_evidence": "max_evidence",
    "lexicographic": "lexicographic",
    "reversed": lambda ws, mags: list(reversed(sorted(ws))),
}


class TestEdgeTable:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4, 6, 8, 12, 16]),
        rule=st.sampled_from(sorted(_RULES)),
        data=st.data(),
    )
    def test_matches_per_edge_reference(self, seed, n, rule, data):
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
        agg = aggregate(grid, fam)
        supports = [window_support(w) for w in fam]
        graph = build_endpoint_graph(x, fam, hop)
        # a tolerance among the evidence magnitudes leaves some edges degenerate
        tol = data.draw(st.sampled_from([0.0, *np.quantile(np.abs(agg.correlation), [0.3, 0.7])]))
        table = phase._edge_table(graph.edges, agg, fam, supports, _RULES[rule], tol)
        for i, edge in enumerate(graph.edges):
            want = _reference_edge_phase(edge, agg, fam, supports, _RULES[rule], tol)
            if want is None:
                assert table.window[i] == -1
                continue
            got = (table.n1[i], table.n2[i], table.window[i], table.hop_index[i])
            assert got == want[:4]
            assert abs(table.relative_phase[i] - want[4]) <= 1e-12
        rows = list(range(len(graph.edges)))
        for i, entry in zip(rows, table.residuals(rows, x)):
            assert (entry["residual"] is None) == (table.window[i] == -1)

    def test_length_one_witnesses_are_unusable(self):
        # window 1 has supporting length 1: its witness never carries a phase
        x = np.ones(4, complex)
        fam = [np.array([1, 1, 0, 0], dtype=complex), np.array([0, 2, 0, 0], dtype=complex)]
        agg = aggregate(measure(x, fam, 1), fam)
        only_short = SupportGraphEdge(endpoints=(0, 3), witnesses=((1, 0),))
        with pytest.raises(DegenerateEdgeError, match="supporting length >= 2"):
            edge_phase(only_short, agg, fam)
        mixed = SupportGraphEdge(endpoints=(0, 3), witnesses=((0, 0), (1, 0)))
        ev = edge_phase(mixed, agg, fam)
        assert (ev.window, ev.hop_index, ev.n1, ev.n2) == (0, 0, 0, 3)

    def test_degenerate_nontree_edge_reports_none(self):
        # find an instance whose weakest non-tree edge sits below every tree edge,
        # then put the tolerance between them: the tree survives, that edge does not
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x, fam = certified_instance(8, 1, 2, rng)
            grid = measure(x, fam, 1)
            agg = aggregate(grid, fam)
            graph = build_endpoint_graph(x, fam, 1)
            tree = {te.edge.endpoints for te in spanning_tree(graph).edges}
            best = {
                e.endpoints: max(abs(agg.correlation[r, m]) for r, m in e.witnesses)
                for e in graph.edges
            }
            floor = min(best[p] for p in tree)
            weak = [p for p in best if p not in tree and best[p] < floor]
            if weak:
                break
        else:
            pytest.fail("no instance with a weak non-tree edge")
        tol = 0.5 * (max(best[p] for p in weak) + floor)
        res = reconstruct(grid, fam, ProblemConfig(8, 1, 2), degenerate_tol=tol)
        entries = {(e["n1"], e["n2"]): e for e in res.diagnostics["nontree_residuals"]}
        for p in weak:
            assert entries[p] == {"n1": p[0], "n2": p[1], "residual": None}
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
        agg = aggregate(grid, fam)
        edge = build_endpoint_graph(x, fam, 2).edges[0]
        with pytest.raises(ConfigurationError, match="degenerate_tol"):
            edge_phase(edge, agg, fam, degenerate_tol=tol)
