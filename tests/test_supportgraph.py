import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftpr import (
    build_covisibility_graph,
    build_endpoint_graph,
    is_connected,
    measure,
    rotate_component_phase,
    spanning_tree,
    window_support,
)
from stftpr.errors import (
    DisconnectedGraphError,
    InvalidPartitionError,
    InvalidWindowError,
)
from stftpr.generators import antipodal_pair_signal, random_interval_window
from stftpr.supportgraph import (
    SupportGraph,
    SupportGraphEdge,
    WindowSupport,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
)


class TestWindowSupport:
    def test_single_nonzero(self):
        ws = window_support([0, 0, 5, 0, 0, 0])
        assert (ws.length, ws.anchor) == (1, 2)

    def test_wraparound_interval(self):
        ws = window_support([1, 1, 0, 0, 0, 0, 0, 1])
        assert (ws.length, ws.anchor) == (3, 7)

    def test_tie_breaks_to_smallest_anchor(self):
        # both [0,2] and [2,4] cover {0,2} with length 3
        ws = window_support([1, 0, 1, 0])
        assert (ws.length, ws.anchor) == (3, 0)

    def test_full_support(self):
        ws = window_support(np.ones(5))
        assert (ws.length, ws.anchor) == (5, 0)

    def test_zero_window(self):
        with pytest.raises(InvalidWindowError):
            window_support(np.zeros(4))

    def test_interval_contract_on_random_windows(self):
        # endpoints nonzero, exterior zero, for every constructed window
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            length = int(rng.integers(1, n + 1))
            w = random_interval_window(n, length, rng)
            ws = window_support(w)
            far = (ws.anchor + ws.length - 1) % n
            assert w[ws.anchor] != 0 and w[far] != 0
            inside = {(ws.anchor + i) % n for i in range(ws.length)}
            for t in range(n):
                if t not in inside:
                    assert w[t] == 0


class TestEndpointWitness:
    def test_far_endpoint_wraps(self):
        ws = window_support([1, 1, 0, 0, 0, 0, 0, 1])
        assert ws.far(8) == 1
        assert WindowSupport(length=1, anchor=5).far(8) == 5

    def test_matches_definition_on_random_geometries(self):
        # section m sees n1 through the window's anchor and n2 through its far end
        rng = np.random.default_rng(19)
        wrapped = strided = 0
        for _ in range(300):
            n = int(rng.integers(2, 33))
            hop = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            ws = window_support(random_interval_window(n, int(rng.integers(1, n + 1)), rng))
            wrapped += ws.anchor + ws.length - 1 > n - 1
            strided += hop > 1
            for m in range(n // hop):
                n1, n2 = endpoint_witness(ws, hop, m, n)
                assert 0 <= n1 < n and 0 <= n2 < n
                assert (hop * m - n1) % n == ws.anchor
                assert (hop * m - n2) % n == ws.far(n)
        assert wrapped > 0 and strided > 0

    def test_long_windows(self):
        supports = [WindowSupport(4, 0), WindowSupport(5, 3), WindowSupport(1, 7)]
        assert long_windows(supports, 8) == [1]
        assert long_windows(supports, 10) == []


def _brute_covisibility_edges(x, fam, hop):
    n = len(x)
    verts = [t for t in range(n) if abs(x[t]) > 0]
    edges = set()
    for i in verts:
        for j in verts:
            if i >= j:
                continue
            total = 0.0
            for w in fam:
                for m in range(n // hop):
                    total += abs(w[(hop * m - j) % n] * w[(hop * m - i) % n]) ** 2
            if total > 0:
                edges.add((i, j))
    return edges


class TestCovisibilityGraph:
    def test_single_vertex(self):
        g = build_covisibility_graph([0, 7, 0, 0], [[1, 1, 0, 0]], hop=1)
        assert g.vertices == (1,)
        assert g.edges == ()
        assert is_connected(g)

    def test_antipodal_pair_short_windows_disconnected(self):
        # every supporting length <= n/2, so indices n/2 apart are never co-seen
        n = 8
        x0 = antipodal_pair_signal(n)
        rng = np.random.default_rng(23)
        fam = [random_interval_window(n, L, rng) for L in (2, 4, 3)]
        g = build_covisibility_graph(x0, fam, hop=1)
        assert g.edges == ()
        assert not is_connected(g)
        assert g.components() == [[0], [4]]

    def test_matches_brute_force(self):
        fam = np.array([[1, 1, 1, 0, 0, 0]], dtype=complex)
        x = np.ones(6, complex)
        g = build_covisibility_graph(x, fam, hop=1)
        assert {e.endpoints for e in g.edges} == _brute_covisibility_edges(x, fam, 1)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            hop = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            fam = [
                random_interval_window(n, int(rng.integers(1, n // 2 + 1)), rng)
                for _ in range(int(rng.integers(1, 4)))
            ]
            x = np.where(rng.random(n) < 0.6, rng.normal(size=n) + 1j, 0)
            g = build_covisibility_graph(x, fam, hop)
            assert {e.endpoints for e in g.edges} == _brute_covisibility_edges(x, fam, hop)


class TestEndpointGraph:
    def test_unit_length_windows_give_no_edges(self):
        w = np.zeros(6, complex)
        w[3] = 2.0
        g = build_endpoint_graph(np.ones(6), [w], hop=1)
        assert g.edges == ()

    def test_span_three_cycle(self):
        # length 4 from anchor 0: edges join indices 3 apart; gcd(3, 8) = 1
        w = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
        g = build_endpoint_graph(np.ones(8), [w], hop=1)
        expected = {(m % 8, (m - 3) % 8) for m in range(8)}
        expected = {(min(a, b), max(a, b)) for a, b in expected}
        assert {e.endpoints for e in g.edges} == expected
        assert is_connected(g)

    def test_span_four_splits(self):
        # length 5: offset 4, gcd(4, 8) = 4 components
        w = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=complex)
        g = build_endpoint_graph(np.ones(8), [w], hop=1)
        assert not is_connected(g)
        assert len(g.components()) == 4

    def test_subgraph_of_covisibility(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 17))
            hop = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            fam = [
                random_interval_window(n, int(rng.integers(1, n + 1)), rng)
                for _ in range(int(rng.integers(1, 4)))
            ]
            x = np.where(rng.random(n) < 0.7, rng.normal(size=n) + 0.5j, 0)
            cov = {e.endpoints for e in build_covisibility_graph(x, fam, hop).edges}
            end = {e.endpoints for e in build_endpoint_graph(x, fam, hop).edges}
            assert end <= cov

    @pytest.mark.parametrize("n", [6, 8, 9, 12])
    def test_coprime_criterion_full_support(self, n):
        # single window, full support, hop 1: connected iff gcd(length-1, n) == 1
        x = np.ones(n, complex)
        for length in range(2, n + 1):
            w = np.zeros(n, complex)
            w[:length] = 1.0
            g = build_endpoint_graph(x, [w], hop=1)
            assert is_connected(g) == (math.gcd(length - 1, n) == 1)

    @pytest.mark.parametrize("n", [6, 8, 9, 12])
    def test_coprime_criterion_multiple_windows(self, n):
        # several windows: connected iff gcd of all spans and n is 1
        rng = np.random.default_rng(n)
        x = np.ones(n, complex)
        for _ in range(15):
            lengths = rng.integers(2, n + 1, size=int(rng.integers(1, 4)))
            fam = [random_interval_window(n, int(L), rng) for L in lengths]
            g = build_endpoint_graph(x, fam, hop=1)
            assert is_connected(g) == (math.gcd(*(int(L) - 1 for L in lengths), n) == 1)


class TestConnectivity:
    def test_trivial_graphs(self):
        one = SupportGraph(variant="covisibility", vertices=(3,), edges=())
        assert is_connected(one)
        two = SupportGraph(variant="covisibility", vertices=(0, 1), edges=())
        assert not is_connected(two)

    def test_path_graph(self):
        edges = tuple(
            SupportGraphEdge(endpoints=(i, i + 1), witnesses=((0, i),))
            for i in range(5)
        )
        g = SupportGraph(variant="endpoint", vertices=tuple(range(6)), edges=edges)
        assert is_connected(g)


class TestSpanningTree:
    def test_single_vertex(self):
        g = SupportGraph(variant="endpoint", vertices=(2,), edges=())
        tree = spanning_tree(g)
        assert tree.root == 2 and tree.edges == () and tree.depth == 0

    def test_cycle(self):
        edges = tuple(
            SupportGraphEdge(endpoints=(min(i, (i + 1) % 4), max(i, (i + 1) % 4)),
                             witnesses=((0, i),))
            for i in range(4)
        )
        g = SupportGraph(variant="endpoint", vertices=(0, 1, 2, 3), edges=edges)
        tree = spanning_tree(g)
        assert len(tree.edges) == 3
        assert tree.root == 0

    def test_bfs_tree_on_span_three_graph(self):
        w = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
        g = build_endpoint_graph(np.ones(8), [w], hop=1)
        tree = spanning_tree(g)
        assert tree.root == 0
        assert len(tree.edges) == 7
        reached = {0} | {te.child for te in tree.edges}
        assert reached == set(range(8))
        for te in tree.edges:
            assert te.parent in reached

    def test_disconnected_raises_with_certificate(self):
        g = SupportGraph(variant="endpoint", vertices=(0, 1, 5), edges=())
        with pytest.raises(DisconnectedGraphError) as err:
            spanning_tree(g)
        assert err.value.components == ((0,), (1,), (5,))


class TestRotateComponentPhase:
    def _instance(self):
        n = 8
        x0 = antipodal_pair_signal(n)
        fam = np.stack([
            np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex),
            np.array([0, 1, 2, 1, 0, 0, 0, 0], dtype=complex),
        ])
        graph = build_covisibility_graph(x0, fam, hop=1)
        return x0, fam, graph

    def test_zero_turns_is_identity(self):
        x0, _, graph = self._instance()
        assert np.array_equal(rotate_component_phase(x0, {0}, 0.0, graph), x0)

    def test_half_turn_flips_sign(self):
        x0, _, graph = self._instance()
        out = rotate_component_phase(x0, {0}, 0.5, graph)
        assert out[0] == pytest.approx(-1.0)
        assert out[4] == pytest.approx(1.0)

    def test_measurements_unchanged(self):
        x0, fam, graph = self._instance()
        base = measure(x0, fam, hop=1).values
        for theta in (0.1, 0.25, 0.7):
            out = rotate_component_phase(x0, {0}, theta, graph)
            rotated = measure(out, fam, hop=1).values
            assert np.max(np.abs(rotated - base)) <= 1e-12

    def test_invalid_partitions(self):
        x0, _, graph = self._instance()
        with pytest.raises(InvalidPartitionError):
            rotate_component_phase(x0, set(), 0.1, graph)
        with pytest.raises(InvalidPartitionError):
            rotate_component_phase(x0, {0, 4}, 0.1, graph)  # not proper
        with pytest.raises(InvalidPartitionError):
            rotate_component_phase(x0, {1}, 0.1, graph)  # not in support

    def test_crossing_edge_rejected(self):
        # connected support: a single vertex cannot separate it
        fam = [np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)]
        x = np.ones(8, complex)
        graph = build_covisibility_graph(x, fam, hop=1)
        with pytest.raises(InvalidPartitionError):
            rotate_component_phase(x, {0}, 0.3, graph)


def test_certificate_dict_shape():
    w = np.array([1, 1, 0, 0], dtype=complex)
    g = build_endpoint_graph(np.ones(4), [w], hop=1)
    cert = g.to_dict()
    assert cert["variant"] == "endpoint"
    assert cert["connected"] is True
    assert set(cert) == {"variant", "vertices", "edges", "connected", "components"}
    assert all(set(e) == {"n", "n2", "witnesses"} for e in cert["edges"])


def _loop_window_support(w, zero_tol=1e-12):
    """The per-entry loop that ``window_support`` replaced, kept as its reference."""
    mags = np.abs(np.asarray(w, dtype=complex))
    n = mags.size
    nonzero = np.flatnonzero(mags > zero_tol * mags.max())
    if nonzero.size == n:
        return n, 0
    best_length, best_anchor = n + 1, 0
    for i, a in enumerate(nonzero):
        length = (int(nonzero[i - 1]) - int(a)) % n + 1
        if length < best_length:
            best_length, best_anchor = length, int(a)
    return best_length, best_anchor


@st.composite
def _masked_windows(draw, min_size=1, max_size=24):
    """A window with an arbitrary nonzero pattern (at least one nonzero entry)."""
    mask = draw(st.lists(st.booleans(), min_size=min_size, max_size=max_size).filter(any))
    return np.array(mask, dtype=complex) * (1.0 + np.arange(len(mask)))


class TestWindowSupportReference:
    @pytest.mark.parametrize(
        "w",
        [
            [1, 1, 0, 0, 0, 0, 0, 1],  # wraps around index 0
            [1, 0, 1, 0],  # two intervals of length 3 tie
            [0, 1, 0, 1, 0, 1],  # three intervals of length 5 tie
            [1, 0, 0, 1, 0, 0],  # two intervals of length 4 tie
            np.ones(7),  # full support
            [0, 0, 0, 2j, 0],  # a single nonzero entry
            [3.0],  # length-1 window
            [1, 1e-13, 0, 1],  # an entry below the relative tolerance
        ],
        ids=["wrap", "tie-2", "tie-3", "tie-4", "full", "single", "length-1", "tolerance"],
    )
    def test_matches_loop(self, w):
        ws = window_support(w)
        assert (ws.length, ws.anchor) == _loop_window_support(w)

    @settings(max_examples=300, deadline=None)
    @given(w=_masked_windows())
    def test_matches_loop_on_random_patterns(self, w):
        ws = window_support(w)
        assert (ws.length, ws.anchor) == _loop_window_support(w)
        assert type(ws.length) is int and type(ws.anchor) is int

    def test_no_entry_above_tolerance(self):
        # zero_tol >= 1 leaves no entry strictly above the peak-relative floor
        with pytest.raises(InvalidWindowError, match="no entry above"):
            window_support([1, 2, 0, 0], zero_tol=1.0)


def _brute_endpoint_witnesses(vertices, fam, hop):
    """Endpoint-graph witnesses from a literal loop over (window, hop)."""
    n = fam.shape[1]
    found = {}
    for r, w in enumerate(fam):
        ws = window_support(w)
        for m in range(n // hop):
            n1, n2 = endpoint_witness(ws, hop, m, n)
            if n1 != n2 and n1 in vertices and n2 in vertices:
                found.setdefault((min(n1, n2), max(n1, n2)), []).append((r, m))
    return {pair: tuple(sorted(ws)) for pair, ws in found.items()}


@st.composite
def _endpoint_geometries(draw):
    n = draw(st.integers(1, 16))
    hop = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    fam = np.array(
        [draw(_masked_windows(n, n)) for _ in range(draw(st.integers(1, 3)))]
    )
    vertices = draw(st.sets(st.integers(0, n - 1)))
    return hop, fam, vertices


@settings(max_examples=300, deadline=None)
@given(geometry=_endpoint_geometries())
def test_endpoint_graph_matches_brute_force(geometry):
    # length-1, wrapping and full-length windows, arbitrary vertex subsets
    hop, fam, vertices = geometry
    graph = endpoint_graph_from_support(vertices, fam, hop)
    assert graph.vertices == tuple(sorted(vertices))
    got = {edge.endpoints: edge.witnesses for edge in graph.edges}
    assert got == _brute_endpoint_witnesses(vertices, fam, hop)
    assert [edge.endpoints for edge in graph.edges] == sorted(got)
    for edge in graph.edges:
        assert all(type(i) is int for i in edge.endpoints)
        assert all(type(i) is int for w in edge.witnesses for i in w)
