import numpy as np
import pytest

from stftpr import aggregate, measure, support
from stftpr.generators import certified_instance
from stftpr.supportgraph import (
    SupportGraph, endpoint_graph_from_support, spanning_tree, window_support,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


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
        agg = aggregate(grid, fam)
        graph = endpoint_graph_from_support(support(x), window_support(fam), 1, 8)
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
