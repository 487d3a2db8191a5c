import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftpr import model, phase
from stftpr import (
    AggregateMeasurements,
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
from stftpr.supportgraph import SupportGraph, SupportGraphEdge, endpoint_witness


def _edge(graph, a, b):
    return next(e for e in graph.edges if e.endpoints == (min(a, b), max(a, b)))


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

        tree = spanning_tree(SupportGraph.from_edges("endpoint", (2,), ()))
        res = propagate(tree, self._magnitudes([0, 0, 4.0, 0]), [], (2,))
        assert res.estimate[2] == pytest.approx(2.0)
        assert res.root_vertex == 2

    def test_opposite_phases(self):
        from stftpr.phase import propagate

        edge = SupportGraphEdge(endpoints=(0, 1), witnesses=((0, 0),))
        tree = spanning_tree(SupportGraph.from_edges("endpoint", (0, 1), (edge,)))
        assert (tree.parent.tolist(), tree.child.tolist(), tree.depth) == ([0], [1], 1)
        # the phasor of x(1) * conj(x(0)), carrying the root's phase to its child
        res = propagate(tree, self._magnitudes([1.0, 1.0]), [-1.0 + 0j], (0, 1))
        assert res.estimate[0] == pytest.approx(1.0)
        assert res.estimate[1] == pytest.approx(-1.0)

    def test_non_spanning_tree_rejected(self):
        from stftpr.phase import propagate

        tree = spanning_tree(SupportGraph.from_edges("endpoint", (0,), ()))
        with pytest.raises(RuntimeError):
            propagate(tree, self._magnitudes([1.0, 1.0]), [], (0, 1))


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

    def test_every_witness_gives_the_edge_phase(self):
        # two windows of equal span give every edge two witnesses; the
        # correlation collapses to one term, so each alone fixes the edge's phase
        rng = np.random.default_rng(137)
        n = 8
        fam = [random_interval_window(n, 4, rng), random_interval_window(n, 4, rng)]
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 1.5, n)
        agg = aggregate(measure(x, fam, 1), fam)
        graph = build_endpoint_graph(x, fam, 1)
        assert graph.edges and all(len(e.witnesses) == 2 for e in graph.edges)
        for edge in graph.edges:
            phases = []
            for witness in edge.witnesses:
                ev = edge_phase(SupportGraphEdge(edge.endpoints, (witness,)), agg, fam)
                # x(lo) * conj(x(hi)), whichever endpoint the witness calls n1
                rel = ev.relative_phase
                phases.append(rel if (ev.n1, ev.n2) == edge.endpoints else rel.conjugate())
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
        comp = reconstruct_compressed(agg, fam, cfg)
        assert np.max(np.abs(comp.estimate - full.estimate)) <= 1e-10
        assert comp.diagnostics["compressed_count"] == 2 * n * num // hop == 24
        assert comp.diagnostics["support"] == list(range(n))

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
        comp = reconstruct_compressed(agg, fam, cfg, min_support_magnitude=prior)
        assert np.array_equal(comp.estimate, full.estimate)
        assert comp.root_vertex == full.root_vertex
        diagnostics = dict(comp.diagnostics)
        assert diagnostics.pop("compressed_count") == 2 * n * num // hop
        assert diagnostics["support"] == list(range(n))
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


def _reference_edge_phase(edge, agg, fam, supports, tol):
    """The per-edge witness loop that the edge-phase table replaced.

    Witnesses are tried strongest evidence first, ties going to the smaller
    (window, hop).

    Returns ``(n1, n2, window, hop_index, relative_phase)``, or None when no
    usable witness clears ``tol``.
    """
    n = fam.shape[1]
    hop = n // agg.num_hops
    usable = [(r, m) for (r, m) in edge.witnesses if supports[r].length >= 2]
    if not usable:
        return None
    mags = [abs(agg.correlation[r, m]) for (r, m) in usable]
    order = [usable[i] for i in sorted(range(len(usable)), key=lambda i: (-mags[i], usable[i]))]
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


class TestEdgeTable:
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
        agg = aggregate(grid, fam)
        supports = [window_support(w) for w in fam]
        graph = build_endpoint_graph(x, fam, hop)
        # a tolerance among the evidence magnitudes leaves some edges degenerate
        tol = data.draw(st.sampled_from([0.0, *np.quantile(np.abs(agg.correlation), [0.3, 0.7])]))
        table = phase._edge_table(graph, agg, fam, supports, tol)
        for i, edge in enumerate(graph.edges):
            want = _reference_edge_phase(edge, agg, fam, supports, tol)
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

    def test_evidence_ties_go_to_the_smaller_window(self):
        # edge (0, 3) is witnessed by window 0 at hop 1 and by window 1 at hop 0
        fam = [np.array([0, 1, 1, 0], dtype=complex), np.array([1, 1, 0, 0], dtype=complex)]
        edge = SupportGraphEdge(endpoints=(0, 3), witnesses=((1, 0), (0, 1)))
        for strength, want in ((0.25, (0, 1)), (0.5, (1, 0))):
            corr = np.zeros((2, 4), dtype=complex)
            corr[0, 1], corr[1, 0] = 0.25, strength * 1j
            agg = AggregateMeasurements(energy=np.ones((2, 4)), correlation=corr)
            ev = edge_phase(edge, agg, fam)
            assert (ev.window, ev.hop_index, ev.n1, ev.n2) == (*want, 0, 3)

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


def _dict_walk(tree, table, amps, verts):
    """The evidence-dict walk the array walk replaced, one Python complex product per edge."""
    ends = table.endpoints.tolist()
    evidence = {
        tuple(ends[i]): (table.n1[i].item(), table.n2[i].item(), table.relative_phase[i].item())
        for i in tree.edge_row.tolist()
    }
    phasor = {tree.root: 1.0 + 0.0j}
    for te in tree.edges:
        n1, n2, rel = evidence[te.edge.endpoints]
        assert {te.parent, te.child} == {n1, n2}
        phasor[te.child] = phasor[te.parent] * (rel if te.child == n1 else rel.conjugate())
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
            agg = aggregate(grid, fam)
            supports = [window_support(w) for w in fam]
            verts = res.diagnostics["support"]
            graph = endpoint_graph_from_support(verts, fam, hop, supports=supports)
            tree = spanning_tree(graph)
            table = phase._edge_table(
                graph, agg, fam, supports, phase.default_degenerate_tol(n, 1e-9)
            )
            amps = np.sqrt(recover_magnitudes(agg, certify_rank(fam, hop), cfg).magnitudes_sq)
            want = _dict_walk(tree, table, amps, verts)
            assert np.array_equal(res.estimate, want)
            assert res.diagnostics["tree_depth"] == tree.depth
            assert res.diagnostics["used_witnesses"] == [
                {"n1": table.n1[i], "n2": table.n2[i], "window": table.window[i],
                 "hop_index": table.hop_index[i]}
                for i in tree.edge_row.tolist()
            ]

    def test_reconstruct_builds_no_edge_records(self, monkeypatch):
        from stftpr.phase import EdgePhaseEvidence
        from stftpr.supportgraph import TreeEdge

        built = []
        for cls in (SupportGraphEdge, TreeEdge, EdgePhaseEvidence):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        rng = np.random.default_rng(223)
        x, fam = certified_instance(24, 2, 3, rng)
        grid = measure(x, fam, 2)
        cfg = ProblemConfig(24, 2, 3)
        noisy = corrupt(grid, rng.uniform(-1e-9, 1e-9, grid.values.shape))
        reconstruct(grid, fam, cfg)
        reconstruct(noisy, fam, cfg, min_support_magnitude=0.5)
        reconstruct_compressed(aggregate(grid, fam), fam, cfg)
        assert built == []
        # the counter itself works: iterating the views builds the records
        graph = build_endpoint_graph(x, fam, 2)
        list(spanning_tree(graph).edges)
        assert set(built) == {"SupportGraphEdge", "TreeEdge"}


class TestNonFinitePrior:
    @pytest.mark.parametrize("prior", [float("nan"), float("inf")])
    def test_noisy_reconstruct_rejects(self, prior):
        # NaN used to detect an empty support and return an all-zero estimate
        rng = np.random.default_rng(227)
        x, fam = certified_instance(8, 2, 2, rng)
        grid = corrupt(measure(x, fam, 2), rng.uniform(-1e-9, 1e-9, (2, 4, 8)))
        cfg = ProblemConfig(8, 2, 2)
        with pytest.raises(InvalidPriorError):
            reconstruct(grid, fam, cfg, min_support_magnitude=prior)
        with pytest.raises(InvalidPriorError):
            reconstruct_compressed(aggregate(grid, fam), fam, cfg, min_support_magnitude=prior)
