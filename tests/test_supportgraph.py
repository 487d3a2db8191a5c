import json
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftpr import (
    ProblemConfig,
    is_connected,
    measure,
    rotate_component_phase,
    spanning_tree,
    support,
    supportgraph,
    window_support,
)
from stftpr.cli import _json_text
from stftpr.errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidPartitionError,
    InvalidWindowError,
)
from stftpr.generators import antipodal_pair_signal, chain_family, random_interval_window
from stftpr.oracle import bfs_forest
from stftpr.supportgraph import (
    WindowSupport,
    _sorted_witnesses,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
)

from conftest import (
    check_graph_certificate,
    geom_at,
    graph_from_lists,
    loop_covisibility_witnesses,
    loop_endpoint_witnesses,
    union_components,
    witness_lists,
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

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionMismatchError, match=r"window family, got shape \(2, 2, 4\)$"):
            window_support(np.ones((2, 2, 4)))

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


def test_geometry_endpoint_taps_are_the_interval_ends():
    # each window's tap at its anchor and at its far end, worked out on first
    # read and held read-only; a length-1 window's two taps coincide
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        fam = np.stack([random_interval_window(n, int(rng.integers(1, n + 1)), rng)
                        for _ in range(int(rng.integers(1, 5)))])
        geom = geom_at(fam, 1)
        assert "endpoint_taps" not in vars(geom)
        near, far = geom.endpoint_taps
        for r, w in enumerate(fam):
            ws = window_support(w)
            assert near[r] == w[ws.anchor] and far[r] == w[(ws.anchor + ws.length - 1) % n]
            assert near[r] != 0 and far[r] != 0
        assert not near.flags.writeable and not far.flags.writeable
        assert geom.endpoint_taps is geom.endpoint_taps


def test_threshold_overflow_marks_nothing_without_a_warning():
    # zero_tol * peak overflows to inf: nothing is above it, and no
    # RuntimeWarning escapes any of the relative-threshold callers
    huge = sys.float_info.max
    fam = chain_family(8, 2, 3, np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert support(np.arange(1, 9), huge) == ()
        with pytest.raises(InvalidWindowError, match="no entry above"):
            window_support(fam, huge)
        # a Geometry refuses a family left without support, so the builder
        # gets the fields it reads, the config and the family, alone
        geom = SimpleNamespace(cfg=ProblemConfig(8, 2, 3, huge), windows=fam)
        graph = covisibility_graph_from_support(range(8), geom)
    assert len(graph.edges) == 0 and graph.vertices.tolist() == list(range(8))


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
        supports = WindowSupport(length=np.array([4, 5, 1]), anchor=np.array([0, 3, 7]))
        assert long_windows(supports, 8) == [1]
        assert long_windows(supports, 10) == []


def _covisibility(x, fam, hop):
    """Covisibility graph over the support of ``x``."""
    return covisibility_graph_from_support(support(x), geom_at(fam, hop))


def _pairs(graph):
    """The graph's edges as a set of (lo, hi) tuples."""
    return set(map(tuple, graph.edges.tolist()))


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
        g = _covisibility([0, 7, 0, 0], [[1, 1, 0, 0]], hop=1)
        assert g.vertices.tolist() == [1]
        assert len(g.edges) == 0
        assert is_connected(g)

    def test_antipodal_pair_short_windows_disconnected(self):
        # every supporting length <= n/2, so indices n/2 apart are never co-seen
        n = 8
        x0 = antipodal_pair_signal(n)
        rng = np.random.default_rng(23)
        fam = [random_interval_window(n, L, rng) for L in (2, 4, 3)]
        g = _covisibility(x0, fam, hop=1)
        assert len(g.edges) == 0
        assert not is_connected(g)
        assert g.components() == [[0], [4]]

    def test_matches_brute_force(self):
        # one window of three taps: each section's three indices are chained,
        # not joined pairwise, and the graph spans the same single component
        fam = np.array([[1, 1, 1, 0, 0, 0]], dtype=complex)
        x = np.ones(6, complex)
        g = _covisibility(x, fam, hop=1)
        brute = _brute_covisibility_edges(x, fam, 1)
        assert _pairs(g) < brute
        assert g.components() == union_components(range(6), brute) == [list(range(6))]

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
            g = _covisibility(x, fam, hop)
            brute = _brute_covisibility_edges(x, fam, hop)
            assert _pairs(g) <= brute
            assert g.components() == union_components(support(x), brute)


@pytest.mark.parametrize("vertices,bad", [([3, 19], 19), ([-1, 2], -1), ([16], 16)])
def test_builders_reject_vertices_outside_the_signal(vertices, bad):
    # taken mod n, [3, 19] would give vertices [3] and [-1, 2] would give [2, 15]
    fam = chain_family(16, 2, 3, np.random.default_rng(11))
    with pytest.raises(DimensionMismatchError, match=f"vertex {bad} is outside"):
        covisibility_graph_from_support(vertices, geom_at(fam, 2))
    with pytest.raises(DimensionMismatchError, match=f"vertex {bad} is outside"):
        endpoint_graph_from_support(vertices, geom_at(fam, 2))


class TestEndpointGraph:
    def test_unit_length_windows_give_no_edges(self):
        w = np.zeros(6, complex)
        w[3] = 2.0
        g = endpoint_graph_from_support(support(np.ones(6)), geom_at([w], 1))
        assert len(g.edges) == 0

    def test_span_three_cycle(self):
        # length 4 from anchor 0: edges join indices 3 apart; gcd(3, 8) = 1
        w = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
        g = endpoint_graph_from_support(support(np.ones(8)), geom_at([w], 1))
        expected = {(m % 8, (m - 3) % 8) for m in range(8)}
        expected = {(min(a, b), max(a, b)) for a, b in expected}
        assert _pairs(g) == expected
        assert is_connected(g)

    def test_span_four_splits(self):
        # length 5: offset 4, gcd(4, 8) = 4 components
        w = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=complex)
        g = endpoint_graph_from_support(support(np.ones(8)), geom_at([w], 1))
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
            # the full covisibility graph; the builder returns a spanning subgraph of it
            cov = _brute_covisibility_edges(x, fam, hop)
            end = endpoint_graph_from_support(support(x), geom_at(fam, hop))
            assert _pairs(end) <= cov
            cov_comps = _covisibility(x, fam, hop).components()
            assert all(any(set(c) <= set(d) for d in cov_comps) for c in end.components())

    @pytest.mark.parametrize("n", [6, 8, 9, 12])
    def test_coprime_criterion_full_support(self, n):
        # single window, full support, hop 1: connected iff gcd(length-1, n) == 1
        x = np.ones(n, complex)
        for length in range(2, n + 1):
            w = np.zeros(n, complex)
            w[:length] = 1.0
            g = endpoint_graph_from_support(support(x), geom_at([w], 1))
            assert is_connected(g) == (math.gcd(length - 1, n) == 1)

    @pytest.mark.parametrize("n", [6, 8, 9, 12])
    def test_coprime_criterion_multiple_windows(self, n):
        # several windows: connected iff gcd of all spans and n is 1
        rng = np.random.default_rng(n)
        x = np.ones(n, complex)
        for _ in range(15):
            lengths = rng.integers(2, n + 1, size=int(rng.integers(1, 4)))
            fam = [random_interval_window(n, int(L), rng) for L in lengths]
            g = endpoint_graph_from_support(support(x), geom_at(fam, 1))
            assert is_connected(g) == (math.gcd(*(int(L) - 1 for L in lengths), n) == 1)


class TestConnectivity:
    def test_trivial_graphs(self):
        one = graph_from_lists("covisibility", (3,), [])
        assert is_connected(one)
        two = graph_from_lists("covisibility", (0, 1), [])
        assert not is_connected(two)

    def test_path_graph(self):
        edges = [((i, i + 1), [(0, i)]) for i in range(5)]
        g = graph_from_lists("endpoint", range(6), edges)
        assert is_connected(g)


class TestSpanningTree:
    def test_single_vertex(self):
        g = graph_from_lists("endpoint", (2,), [])
        tree = spanning_tree(g)
        assert tree.root == 2 and len(tree.edges) == 0 and tree.depth == 0

    def test_cycle(self):
        edges = [((min(i, (i + 1) % 4), max(i, (i + 1) % 4)), [(0, i)]) for i in range(4)]
        g = graph_from_lists("endpoint", (0, 1, 2, 3), edges)
        tree = spanning_tree(g)
        assert len(tree.edges) == 3
        assert tree.root == 0

    def test_bfs_tree_on_span_three_graph(self):
        w = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
        g = endpoint_graph_from_support(support(np.ones(8)), geom_at([w], 1))
        tree = spanning_tree(g)
        assert tree.root == 0
        assert len(tree.edges) == 7
        reached = {0} | set(tree.child.tolist())
        assert reached == set(range(8))
        assert set(tree.parent.tolist()) <= reached
        # each tree edge's graph row joins its parent and child
        for (lo, hi), p, c in zip(g.edges[tree.edges].tolist(), tree.parent, tree.child):
            assert {lo, hi} == {p, c}

    def test_disconnected_raises_with_certificate(self):
        g = graph_from_lists("endpoint", (0, 1, 5), [])
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
        graph = _covisibility(x0, fam, hop=1)
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
        graph = _covisibility(x, fam, hop=1)
        with pytest.raises(InvalidPartitionError):
            rotate_component_phase(x, {0}, 0.3, graph)


def test_certificate_dict_shape():
    # a 4-cycle: its BFS forest from vertex 0 keeps three edges, each with its first witness
    w = np.array([1, 1, 0, 0], dtype=complex)
    g = endpoint_graph_from_support(support(np.ones(4)), geom_at([w], 1))
    cert = g.to_dict()
    assert set(cert) == {"variant", "vertices", "connected", "components", "forest"}
    assert cert["variant"] == "endpoint"
    assert cert["connected"] is True
    assert cert["forest"] == [[0, 1, 0, 1], [0, 3, 0, 0], [1, 2, 0, 2]]
    assert all(type(v) is int for row in cert["forest"] for v in row)


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

    @pytest.mark.parametrize(
        "fam",
        [
            [[3.0]],  # length-1 window
            [[1, 0, 1, 0], [0, 0, 2j, 0], [1, 1, 1, 1], [0, 1, 0, 1]],  # tie, L = 1, no zeros
            [[1, 1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 5]],  # wraps; far end at n - 1
        ],
        ids=["length-1", "tie-single-full", "wrap"],
    )
    def test_family_matches_rows(self, fam):
        ws = window_support(fam)
        assert ws.length.dtype == ws.anchor.dtype == np.intp
        rows = [window_support(w) for w in fam]
        assert ws.length.tolist() == [row.length for row in rows]
        assert ws.anchor.tolist() == [row.anchor for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_family_matches_rows_on_random_patterns(self, data):
        n = data.draw(st.integers(1, 16))
        num_windows = data.draw(st.integers(1, 4))
        fam = np.array([data.draw(_masked_windows(n, n)) for _ in range(num_windows)])
        ws = window_support(fam)
        assert ws.length.shape == ws.anchor.shape == (fam.shape[0],)
        for r, w in enumerate(fam):
            assert (ws.length[r], ws.anchor[r]) == _loop_window_support(w)
            one = window_support(w)
            assert (ws.length[r], ws.anchor[r]) == (one.length, one.anchor)
        sub = ws[np.arange(fam.shape[0])[::-1]]
        assert sub.length.tolist() == ws.length.tolist()[::-1]

    def test_family_errors_name_the_row(self):
        with pytest.raises(InvalidWindowError, match="window 2 is identically zero"):
            window_support([[1, 0], [0, 1], [0, 0]])
        with pytest.raises(InvalidWindowError, match="window 0 has no entry above"):
            window_support([[1, 2], [3, 0]], zero_tol=1.0)

    def test_no_entry_above_tolerance(self):
        # zero_tol >= 1 leaves no entry strictly above the peak-relative floor
        with pytest.raises(InvalidWindowError, match="no entry above"):
            window_support([1, 2, 0, 0], zero_tol=1.0)


@st.composite
def _one_tap_windows(draw, n):
    w = np.zeros(n, dtype=complex)
    w[draw(st.integers(0, n - 1))] = 2.0
    return w


@st.composite
def _endpoint_geometries(draw):
    # up to 5 windows, one-tap windows among multi-tap ones: the flat tap-pair
    # enumeration must start and stop each window's pairs at its own taps
    n = draw(st.integers(1, 16))
    hop = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    windows = st.one_of(_masked_windows(n, n), _one_tap_windows(n))
    fam = np.array([draw(windows) for _ in range(draw(st.integers(1, 5)))])
    vertices = draw(st.sets(st.integers(0, n - 1)))
    return hop, fam, vertices


@settings(max_examples=300, deadline=None)
@given(geometry=_endpoint_geometries())
def test_endpoint_graph_matches_brute_force(geometry):
    # length-1, wrapping and full-length windows, arbitrary vertex subsets
    hop, fam, vertices = geometry
    graph = endpoint_graph_from_support(vertices, geom_at(fam, hop))
    assert graph.vertices.tolist() == sorted(vertices)
    got = witness_lists(graph)
    assert got == loop_endpoint_witnesses(vertices, fam, hop)
    assert list(map(tuple, graph.edges.tolist())) == sorted(got)
    assert graph.edges.shape == (len(got), 2) and graph.offsets.size == len(got) + 1
    for arr in (graph.edges, graph.offsets, graph.window, graph.hop_index):
        assert arr.dtype.kind == "i"


@st.composite
def _random_graphs(draw):
    vertices = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=14)))
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs), max_size=30)) if pairs else [])
    edges = [(p, [(draw(st.integers(0, 3)), k)]) for k, p in enumerate(chosen)]
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(_random_graphs())
def test_array_bfs_matches_dict_bfs(graph_data):
    # sparse draws give disconnected graphs, dense ones connected graphs with cycles
    vertices, edges = graph_data
    graph = graph_from_lists("endpoint", vertices, edges)
    forest = bfs_forest(graph)
    comps = [sorted(queue) for queue, *_ in forest]
    assert graph.components() == comps
    if len(comps) > 1:
        with pytest.raises(DisconnectedGraphError) as err:
            spanning_tree(graph)
        assert err.value.components == tuple(tuple(c) for c in comps)
        # up to 8 components are all listed; past that the first 8 and the count
        shown = f": {comps}" if len(comps) <= 8 else f", the first 8: {comps[:8]}"
        assert str(err.value) == f"support graph has {len(comps)} components{shown}"
        return
    queue, parents, rows, depth = forest[0]
    got = spanning_tree(graph)
    assert got.root == vertices[0] and got.depth == depth
    assert got.parent.tolist() == parents and got.child.tolist() == queue[1:]
    assert got.edges.tolist() == rows
    assert graph.edges[got.edges].tolist() == [list(edges[i][0]) for i in rows]


@settings(max_examples=300, deadline=None)
@given(geometry=_endpoint_geometries())
def test_array_forest_matches_list_bfs(geometry):
    # both variants, with empty, single-vertex and disconnected supports,
    # isolated vertices, wrapping intervals and length-1 windows
    for graph in _both_graphs(*geometry):
        forest = bfs_forest(graph)
        order, level, parent, edge = graph._forest
        assert order.tolist() == [v for queue, *_ in forest for v in queue]
        assert parent.tolist() == [p for _, parents, _, _ in forest for p in parents]
        assert edge.tolist() == [row for _, _, rows, _ in forest for row in rows]
        roots = np.flatnonzero(level == 0)
        assert roots.tolist() == np.cumsum([0, *(len(q) for q, *_ in forest)])[:-1].tolist()
        last = np.append(roots[1:], order.size)[:roots.size] - 1
        assert level[last].tolist() == [d for *_, d in forest]
        comps = [sorted(queue) for queue, *_ in forest]
        assert graph.components() == comps
        assert is_connected(graph) is (len(forest) <= 1)
        rows = [row for _, _, tree_rows, _ in forest for row in tree_rows]
        first = graph.offsets[rows]
        assert graph.to_dict()["forest"] == [
            [*graph.edges[row].tolist(), int(graph.window[f]), int(graph.hop_index[f])]
            for row, f in zip(rows, first.tolist())
        ]
        if len(forest) > 1:
            with pytest.raises(DisconnectedGraphError) as err:
                spanning_tree(graph)
            assert err.value.components == tuple(map(tuple, comps))
            continue
        tree = spanning_tree(graph)
        queue, parents, tree_rows, depth = forest[0] if forest else ([None], [], [], 0)
        assert (tree.root, tree.depth) == (queue[0], depth)
        assert tree.child.tolist() == queue[1:] and tree.parent.tolist() == parents
        assert tree.edges.tolist() == tree_rows
        for arr in (tree.parent, tree.child, tree.edges):
            assert arr.dtype == np.intp and not arr.flags.writeable


@st.composite
def _covisibility_geometries(draw):
    # gapped windows with small taps that a relative tolerance of 1e-2 cuts,
    # one-tap windows, every hop up to n, and any vertex set, empty included
    n = draw(st.integers(1, 16))
    hop = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    gapped = st.lists(st.sampled_from([0.0, 0.0, 1e-3, 1.0, 2.0]), min_size=n, max_size=n)
    windows = st.one_of(gapped.filter(any).map(np.array), _one_tap_windows(n))
    fam = np.array([draw(windows) for _ in range(draw(st.integers(1, 5)))], dtype=complex)
    vertices = draw(st.sets(st.integers(0, n - 1)))
    return hop, fam, vertices, draw(st.sampled_from([1e-12, 1e-2]))


@settings(max_examples=300, deadline=None)
@given(geometry=_covisibility_geometries())
def test_covisibility_witnesses_match_loop(geometry):
    # the chained builder against every co-seen pair of the triple loop
    hop, fam, vertices, zero_tol = geometry
    n = fam.shape[1]
    graph = covisibility_graph_from_support(vertices, geom_at(fam, hop, zero_tol))
    reference = loop_covisibility_witnesses(vertices, fam, hop, zero_tol)
    verts = sorted(vertices)
    assert graph.vertices.tolist() == verts
    assert graph.components() == union_components(verts, reference)
    got = witness_lists(graph)
    assert list(map(tuple, graph.edges.tolist())) == sorted(got)
    sections = {}
    for pair, witnesses in got.items():
        assert witnesses and list(witnesses) == sorted(set(witnesses))
        assert set(witnesses) <= set(reference[pair])
        for w in witnesses:
            sections.setdefault(w, []).append(pair)
    # each section joins its visible taps, in tap order, one to the next
    mask = np.abs(fam) > zero_tol * np.abs(fam).max(axis=1, keepdims=True)
    for r in range(len(fam)):
        for m in range(n // hop):
            seen = [(hop * m - t) % n for t in np.flatnonzero(mask[r]).tolist()]
            seen = [v for v in seen if v in vertices]
            chain = {(min(a, b), max(a, b)) for a, b in zip(seen, seen[1:])}
            links = sections.pop((r, m), [])
            assert len(links) == len(chain) and set(links) == chain
    assert not sections


@settings(max_examples=200, deadline=None)
@given(geometry=_covisibility_geometries())
def test_certificates_check_against_the_family(geometry):
    # both variants' forests, including graphs with no vertices, no edges or several components
    hop, fam, vertices, zero_tol = geometry
    cov = covisibility_graph_from_support(vertices, geom_at(fam, hop, zero_tol))
    end = endpoint_graph_from_support(vertices, geom_at(fam, hop, zero_tol))
    for graph in (cov, end):
        check_graph_certificate(graph.to_dict(), vertices, fam, hop, zero_tol)


def _both_graphs(hop, fam, vertices):
    return (
        covisibility_graph_from_support(vertices, geom_at(fam, hop)),
        endpoint_graph_from_support(vertices, geom_at(fam, hop)),
    )


@settings(max_examples=200, deadline=None)
@given(geometry=_endpoint_geometries())
def test_graph_text_matches_stdlib_dump(geometry):
    # both variants' certificates, including graphs with no vertices, no edges
    # or several components, written by the one report emitter
    for graph in _both_graphs(*geometry):
        cert = graph.to_dict()
        assert _json_text(cert, "\n") == json.dumps(cert, indent=2, sort_keys=True)
        assert _json_text({"graph": cert}, "\n") == json.dumps(
            {"graph": cert}, indent=2, sort_keys=True
        )


@settings(max_examples=100, deadline=None)
@given(geometry=_endpoint_geometries(), witness_slice=st.integers(1, 6))
def test_graph_text_in_small_slices_matches_stdlib_dump(geometry, witness_slice):
    # chunks of a few candidates put a seam between hops, or every hop in a
    # chunk of its own; the graphs and their certificates match one chunk's
    whole = _both_graphs(*geometry)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supportgraph, "_WITNESS_CHUNK", witness_slice)
        sliced = _both_graphs(*geometry)
    for graph, reference in zip(sliced, whole):
        assert witness_lists(graph) == witness_lists(reference)
        expected = json.dumps(reference.to_dict(), indent=2, sort_keys=True)
        assert _json_text(graph.to_dict(), "\n") == expected


def test_graph_text_of_a_nested_hand_built_graph():
    # a forest row keeps its edge's first witness; a deeper pad indents every line
    graph = graph_from_lists(
        "endpoint", [0, 1, 5], [((1, 5), [(2, 3)]), ((0, 1), [(0, 0), (2, 1), (3, 0)])]
    )
    cert = graph.to_dict()
    assert cert["forest"] == [[0, 1, 0, 0], [1, 5, 2, 3]]
    expected = json.dumps(cert, indent=2, sort_keys=True)
    assert _json_text(cert, "\n  ") == expected.replace("\n", "\n  ")


def test_graph_and_tree_edges_are_arrays():
    w = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
    graph = endpoint_graph_from_support(support(np.ones(8)), geom_at([w], 1))
    tree = spanning_tree(graph)
    assert (len(graph.edges), len(tree.edges)) == (8, 7)
    assert (graph.offsets.size - 1, tree.child.size) == (8, 7)
    assert graph.edges[0].tolist() == [0, 3] and witness_lists(graph)[(0, 3)] == ((0, 3),)
    # the tree's edges index the graph's rows
    ends = graph.edges[tree.edges]
    assert ends.shape == (7, 2)
    assert np.array_equal(np.sort(np.stack((tree.parent, tree.child), axis=1), axis=1), ends)


def test_covisibility_peak_per_witness():
    # full support at n = 1024: every section sees all of its window's taps and
    # chains them, 803 taps less one per window at each of 256 hops.  A per-window
    # build of every pair peaked at 39.4 B per witness; building every witness
    # at once in int64 takes about 64 B each
    n = 1024
    fam = chain_family(n, 4, 6, np.random.default_rng(1))
    tracemalloc.start()
    try:
        graph = covisibility_graph_from_support(range(n), geom_at(fam, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(fam) == 803
    assert graph.window.size == (803 - 6) * 256
    assert peak <= 39.4 * graph.window.size


def test_witness_keys_do_not_overflow_at_large_n():
    # n = 2**20 at hop 1 with 10 windows: edge key * slots + slot passes int64
    n, num_slots = 1 << 20, 10 << 20
    big = (n - 2) * n + n - 1
    keys, slots = _sorted_witnesses(
        np.array([big, 1, big, 1], dtype=np.int64),
        np.array([num_slots - 1, 5, 0, num_slots - 1], dtype=np.int32), n, num_slots,
    )
    assert keys.tolist() == [1, 1, big, big]
    assert slots.tolist() == [5, num_slots - 1, 0, num_slots - 1]
    # the same geometry through the endpoint builder: a sparse support that
    # holds both endpoints of the first and last sections of every window
    rng = np.random.default_rng(3)
    supports = WindowSupport(rng.integers(2, n // 2, 10), rng.integers(0, n, 10))
    ends = endpoint_witness(supports[:, None], 1, np.array([0, 1, n - 2, n - 1]), n)
    vertices = set(np.concatenate(ends, axis=None).tolist())
    # the builder reads the config and the supports: no 168 MB family is made
    graph = endpoint_graph_from_support(
        vertices, SimpleNamespace(cfg=ProblemConfig(n, 1, 10), supports=supports)
    )
    member = np.zeros(n, dtype=bool)
    member[list(vertices)] = True
    found = {}
    for r in range(10):
        n1, n2 = endpoint_witness(supports[r], 1, np.arange(n), n)
        for m in np.flatnonzero(member[n1] & member[n2]).tolist():
            found.setdefault((min(n1[m], n2[m]), max(n1[m], n2[m])), []).append((r, m))
    assert witness_lists(graph) == {pair: tuple(ws) for pair, ws in found.items()}
    # edges whose one key (lo*n + hi)*slots + slot would wrap past int64
    assert int(graph.edges[:, 0].max()) * n * num_slots >= 2**63
