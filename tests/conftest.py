import numpy as np
import pytest

from stftpr import DEFAULT_ZERO_TOL, Geometry, ProblemConfig, aggregate, measure, support
from stftpr.generators import certified_instance
from stftpr.supportgraph import (
    SupportGraph,
    endpoint_graph_from_support,
    endpoint_witness,
    long_windows,
    spanning_tree,
    window_support,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def geom_at(windows, hop, zero_tol=DEFAULT_ZERO_TOL):
    """The run geometry of ``windows`` at ``hop``, its n and window count read off their shape."""
    shape = np.shape(windows)
    return Geometry(ProblemConfig(shape[-1], hop, shape[0] if len(shape) > 1 else 1, zero_tol),
                    windows)


def graph_from_lists(variant, vertices, edges):
    """A ``SupportGraph`` from ``[((lo, hi), [(window, hop), ...]), ...]``.

    The rows keep the given order, so tests can build graphs no builder makes.
    """
    verts = np.array(sorted({int(v) for v in vertices}), dtype=np.intp)
    ends = np.array([pair for pair, _ in edges], dtype=np.intp).reshape(-1, 2)
    offsets = np.cumsum([0, *(len(ws) for _, ws in edges)]).astype(np.intp)
    witnesses = np.array([w for _, ws in edges for w in ws], dtype=np.intp).reshape(-1, 2)
    return SupportGraph(variant, verts, ends, offsets, witnesses[:, 0], witnesses[:, 1])


def witness_lists(graph):
    """``{(lo, hi): ((window, hop), ...)}`` of every edge of ``graph``, read from its arrays."""
    pairs = list(zip(graph.window.tolist(), graph.hop_index.tolist()))
    bounds = graph.offsets.tolist()
    return {
        (lo, hi): tuple(pairs[a:b])
        for (lo, hi), a, b in zip(graph.edges.tolist(), bounds, bounds[1:])
    }


def loop_covisibility_witnesses(vertices, fam, hop, zero_tol=1e-12):
    """Every pair of vertices a (window, hop) section sees together, from a triple loop.

    ``{(lo, hi): ((window, hop), ...)}``: the full covisibility graph, every
    co-seen pair with all its witnesses, a tap counting when it lies above
    ``zero_tol`` times its window's peak.
    """
    n = fam.shape[1]
    verts = sorted({int(v) % n for v in vertices})
    found = {}
    for r, w in enumerate(fam):
        mask = np.abs(w) > zero_tol * np.abs(w).max()
        for m in range(n // hop):
            covered = [v for v in verts if mask[(hop * m - v) % n]]
            for i in range(len(covered)):
                for j in range(i + 1, len(covered)):
                    found.setdefault((covered[i], covered[j]), []).append((r, m))
    return {pair: tuple(sorted(ws)) for pair, ws in found.items()}


def loop_endpoint_witnesses(vertices, fam, hop, zero_tol=1e-12):
    """Endpoint-graph witnesses from a literal loop over (window, hop)."""
    n = fam.shape[1]
    found = {}
    for r, w in enumerate(fam):
        ws = window_support(w, zero_tol)
        for m in range(n // hop):
            n1, n2 = endpoint_witness(ws, hop, m, n)
            if n1 != n2 and n1 in vertices and n2 in vertices:
                found.setdefault((min(n1, n2), max(n1, n2)), []).append((r, m))
    return {pair: tuple(sorted(ws)) for pair, ws in found.items()}


def union_components(vertices, pairs):
    """Components of the graph on ``vertices`` joined by ``pairs``, by union-find.

    Sorted vertex lists, ordered by minimum vertex, as ``SupportGraph.components``
    gives them.
    """
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in pairs:
        root[find(a)] = find(b)
    comps = {}
    for v in sorted(vertices):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())


def check_graph_certificate(cert, vertices, fam, hop, zero_tol=1e-12):
    """Check one graph of an ``analyze`` certificate against the family; return its components.

    Each ``forest`` row ``[n, n2, window, hop_index]`` is checked in O(1): a
    covisibility row's window sees both indices at that hop, an endpoint
    row's pair is the window's :func:`endpoint_witness` there.  Each
    component C holds |C| - 1 rows that connect it, and the components and
    connectivity are those of the loop reference's graph.
    """
    fam = np.asarray(fam, dtype=complex)
    n = fam.shape[1]
    verts = sorted({int(v) % n for v in vertices})
    assert cert["vertices"] == verts
    mask = np.abs(fam) > zero_tol * np.abs(fam).max(axis=1, keepdims=True)
    covisibility = cert["variant"] == "covisibility"
    if covisibility:
        reference = loop_covisibility_witnesses(verts, fam, hop, zero_tol)
    else:
        assert cert["variant"] == "endpoint"
        supports = window_support(fam, zero_tol)
        reference = loop_endpoint_witnesses(set(verts), fam, hop, zero_tol)
    member = set(verts)
    for a, b, r, m in cert["forest"]:
        assert a < b and a in member and b in member and 0 <= m < n // hop
        if covisibility:
            assert mask[r, (hop * m - a) % n] and mask[r, (hop * m - b) % n]
        else:
            assert sorted(endpoint_witness(supports[r], hop, m, n)) == [a, b]
    comps = union_components(verts, reference)
    assert cert["components"] == comps
    assert cert["connected"] is (len(comps) <= 1)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    inside = [[] for _ in comps]
    for a, b, *_ in cert["forest"]:
        assert where[a] == where[b]
        inside[where[a]].append((a, b))
    for comp, rows in zip(comps, inside):
        assert len(rows) == len(comp) - 1
        assert union_components(comp, rows) == [comp]
    return comps


def check_certificate(payload, x, fam, hop, zero_tol=1e-12):
    """Check both graphs of an ``analyze`` payload and its verdict against loop references."""
    supp = support(x, zero_tol)
    cov = check_graph_certificate(payload["covisibility"], supp, fam, hop, zero_tol)
    end = check_graph_certificate(payload["endpoint"], supp, fam, hop, zero_tol)
    short = not long_windows(window_support(fam, zero_tol), len(x))
    assert payload["short_windows"] is short
    if len(cov) > 1:
        assert payload["verdict"] == "provably-non-retrievable"
    elif len(end) <= 1 and short and payload["certification"]["certified"]:
        assert payload["verdict"] == "provably-retrievable"
    else:
        assert payload["verdict"] == "indeterminate"


def weak_nontree_instance():
    """``(x, fam, grid, weak, tol)`` at n=8, hop 1, two windows, exact data.

    ``weak`` lists the non-tree edges whose strongest evidence sits below
    every tree edge's, and ``tol`` lies between the two, so a run at that
    degeneracy tolerance keeps its tree and has degenerate non-tree edges.
    """
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x, fam = certified_instance(8, 1, 2, rng)
        grid = measure(x, fam, 1)
        geom = geom_at(fam, 1)
        agg = aggregate(grid, geom)
        graph = endpoint_graph_from_support(support(x), geom)
        tree = set(map(tuple, graph.edges[spanning_tree(graph).edges].tolist()))
        best = {
            ends: max(abs(agg.correlation[r, m]) for r, m in witnesses)
            for ends, witnesses in witness_lists(graph).items()
        }
        floor = min(best[p] for p in tree)
        weak = [p for p in best if p not in tree and best[p] < floor]
        if weak:
            return x, fam, grid, weak, 0.5 * (max(best[p] for p in weak) + floor)
    pytest.fail("no instance with a weak non-tree edge")


@pytest.fixture(scope="session")
def certified_sweep():
    """Seeded certified instances covering every (n, hop, windows) combination.

    n in {4, 8, 12, 16}, every divisor as hop, window counts hop..hop+2, four
    seeds each (one with a sparse contiguous support): 216 instances total.
    """
    cases = []
    for n in (4, 8, 12, 16):
        for hop in divisors(n):
            for extra in (0, 1, 2):
                num_windows = hop + extra
                for s in range(4):
                    seed = 1_000_000 + 10_000 * n + 1_000 * hop + 100 * num_windows + s
                    rng = np.random.default_rng(seed)
                    if s == 3 and n > 4:
                        supp = range(int(rng.integers(2, n)))
                    else:
                        supp = None
                    x, fam = certified_instance(n, hop, num_windows, rng, support=supp)
                    cases.append((n, hop, num_windows, x, fam))
    return cases
