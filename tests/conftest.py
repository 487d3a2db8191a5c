import numpy as np
import pytest

from stftpr.generators import certified_instance
from stftpr.supportgraph import SupportGraph


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def graph_from_lists(variant, vertices, edges):
    """A ``SupportGraph`` from ``[((lo, hi), [(window, hop), ...]), ...]``.

    The rows keep the given order, so tests can build graphs no builder makes.
    """
    verts = tuple(sorted({int(v) for v in vertices}))
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
