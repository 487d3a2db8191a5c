"""Window support geometry and the two support graphs with their certificates.

Two graphs on the signal's support drive everything:

* the *covisibility* graph joins two support indices whenever some hop
  position of some window has nonzero entries at both (they are seen through
  one windowed section together).  Its connectivity is necessary for the
  signal to be determined, up to a global phase, by the magnitude
  measurements; :func:`rotate_component_phase` produces the explicit
  counterexample family when it is disconnected.

* the *endpoint* graph joins two support indices that sit exactly at the two
  endpoints of a translated window-support interval, i.e. at offset
  (supporting length - 1) as seen from some hop.  It is a subgraph of the
  covisibility graph, and its connectivity - together with short windows and
  full-rank modulation matrices - is sufficient for recovery.

Both graphs are undirected, immutable, and held as arrays: ``edges``, a
sorted ``(E, 2)`` array of endpoint pairs, and CSR witness arrays, which the
builders fill from one ``lexsort`` over the flat (edge, window, hop)
witnesses.  The spanning tree comes from one breadth-first search over a CSR
adjacency and is held as parent, child and edge arrays in discovery order,
its ``edges`` being rows of the graph's ``edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError, DisconnectedGraphError, InvalidPartitionError, InvalidWindowError,
)
from .model import DEFAULT_ZERO_TOL, as_signal, as_window_family, support


@dataclass(frozen=True)
class WindowSupport:
    """Minimal cyclic interval [anchor, anchor + length - 1] covering a window.

    A family's fields are arrays, entry r being window r's; ``supports[r]``
    selects the windows that an int or an index array ``r`` names.
    """

    length: int | np.ndarray
    anchor: int | np.ndarray

    def far(self, n: int):
        """Index of the interval's far endpoint, ``anchor + length - 1`` mod n."""
        return (self.anchor + self.length - 1) % n

    def __getitem__(self, r) -> WindowSupport:
        return WindowSupport(self.length[r], self.anchor[r])


def endpoint_witness(ws: WindowSupport, hop: int, m: int, n: int) -> tuple[int, int]:
    """Signal indices (n1, n2) at the two endpoints of the section at hop ``m``.

    ``n1 = hop*m - anchor`` is seen through the window's anchor and
    ``n2 = n1 - (length - 1)`` through its far endpoint (indices mod n).
    Array fields or an array ``m`` give arrays of endpoints, broadcast
    against each other.
    """
    n1 = (hop * m - ws.anchor) % n
    return n1, (n1 - (ws.length - 1)) % n


def long_windows(supports: WindowSupport, n: int) -> list[int]:
    """Windows of a family whose supporting length exceeds n/2; they make edge phases ambiguous."""
    return np.flatnonzero(2 * supports.length > n).tolist()


def window_support(w, zero_tol: float = DEFAULT_ZERO_TOL) -> WindowSupport:
    """Supporting length and anchor of a window, or of every row of an ``(R, n)`` family.

    The interval is the shortest cyclic run containing every entry above the
    relative tolerance; both endpoints then land on nonzero entries.  When
    several intervals tie for minimal length (e.g. (1, 0, 1, 0) on n = 4),
    the smallest anchor wins; a window with no zero entries gets anchor 0.
    A 1-d window gives int fields, a family ``(R,)`` intp arrays, all rows
    in one pass.  A window with no entry above the tolerance (``zero_tol >=
    1``) raises ``InvalidWindowError``, naming the first such row of a family.
    """
    arr = np.asarray(w, dtype=complex)
    if arr.ndim not in (1, 2):
        raise DimensionMismatchError(f"expected a window or a window family, got shape {arr.shape}")
    mags = np.abs(arr if arr.ndim == 2 else arr[None, :])
    n = mags.shape[1]
    peak = mags.max(axis=1, initial=0.0)
    above = mags > zero_tol * peak[:, None]
    if not above.any(axis=1).all():
        r = int(np.argmin(above.any(axis=1)))
        name = "window" if arr.ndim == 1 else f"window {r}"
        if peak[r] == 0.0:
            raise InvalidWindowError(f"{name} is identically zero")
        raise InvalidWindowError(f"{name} has no entry above {zero_tol} times its peak")
    rows, nonzero = np.nonzero(above)
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first nonzero entry
    # an interval starting at a nonzero entry ends at its cyclic predecessor in
    # the same row, so its length is n + 1 minus the gap between the two
    gaps = nonzero - np.roll(nonzero, 1)
    gaps[first] = nonzero[first] + n - nonzero[np.roll(first, -1) - 1]
    # per row, the widest gap (shortest interval), the smallest anchor among ties
    best = np.lexsort((-gaps, rows))[first]
    if arr.ndim == 1:
        return WindowSupport(length=n + 1 - int(gaps[best[0]]), anchor=int(nonzero[best[0]]))
    return WindowSupport(length=n + 1 - gaps[best], anchor=nonzero[best])


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Support graph with a variant tag ("covisibility" or "endpoint"), held as arrays.

    ``vertices`` is a sorted ``intp`` array of distinct support indices, and
    ``edges`` an ``(E, 2)`` array of (lo, hi) support indices, one row per
    edge; the builders sort the rows.  Edge ``i``'s witnesses are the (window,
    hop) pairs ``(window[j], hop_index[j])`` for ``offsets[i] <= j <
    offsets[i + 1]``, in (window, hop) order, and every edge has at least one.
    Everything is computed once per graph and shared; treat it as read-only.
    """

    variant: str
    vertices: np.ndarray
    edges: np.ndarray
    offsets: np.ndarray
    window: np.ndarray
    hop_index: np.ndarray

    @cached_property
    def _forest(self) -> list[tuple[list[int], list[int], list[int], int]]:
        """One BFS per component from its smallest vertex, over a CSR adjacency of sorted rows.

        Per component: its vertices in discovery order, the parent and edge
        row of each vertex after the first, and its depth.  The search stops
        once every vertex is reached.
        """
        src, dst = np.concatenate((self.edges, self.edges[:, ::-1])).T
        order = np.lexsort((dst, src))
        vertices = self.vertices.tolist()
        depth = [-1] * (vertices[-1] + 1 if vertices else 0)
        starts = np.searchsorted(src[order], np.arange(len(depth) + 1)).tolist()
        nbrs, rows = dst[order].tolist(), np.tile(np.arange(len(src) // 2), 2)[order].tolist()
        forest, unreached = [], len(vertices)
        for root in vertices:
            if not unreached:
                break
            if depth[root] >= 0:
                continue
            depth[root] = 0
            queue, parent, tree_edges = [root], [], []
            for v in queue:  # the queue grows while it is walked
                for i in range(starts[v], starts[v + 1]):
                    u = nbrs[i]
                    if depth[u] < 0:
                        depth[u] = depth[v] + 1
                        parent.append(v)
                        tree_edges.append(rows[i])
                        queue.append(u)
            forest.append((queue, parent, tree_edges, depth[queue[-1]]))
            unreached -= len(queue)
        return forest

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        return [sorted(queue) for queue, *_ in self._forest]

    def summary(self) -> dict:
        """Certificate payload without its edge list: variant, vertices, connectivity."""
        return {
            "variant": self.variant,
            "vertices": self.vertices.tolist(),
            "connected": is_connected(self),
            "components": self.components(),
        }

    def to_dict(self) -> dict:
        """Certificate payload: the summary plus the edges with their witnesses."""
        pairs = [[r, m] for r, m in zip(self.window.tolist(), self.hop_index.tolist())]
        bounds = self.offsets.tolist()
        return {
            **self.summary(),
            "edges": [
                {"n": lo, "n2": hi, "witnesses": pairs[a:b]}
                for (lo, hi), a, b in zip(self.edges.tolist(), bounds, bounds[1:])
            ],
        }


def is_connected(graph: SupportGraph) -> bool:
    """BFS connectivity; empty and single-vertex graphs count as connected."""
    return len(graph._forest) <= 1


def _section_graph(variant: str, vertices, n: int, sections) -> SupportGraph:
    """Graph whose edges join two indices that one windowed section sees.

    ``sections[r]`` is ``(seen, a, b)``: ``seen[m]`` lists the indices the
    section of window ``r`` at hop ``m`` sees, and column pair ``(a[k], b[k])``
    is an edge witnessed by ``(r, m)`` when both are vertices.  One ``lexsort``
    groups the witnesses by edge, then by (window, hop).
    """
    member = np.zeros(n, dtype=bool)
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)  # a set, say, which numpy would not unpack
    member[np.asarray(vertices, dtype=np.intp) % n] = True
    # sorted and distinct; the copy lets go of the (k, 1) array nonzero builds
    verts = np.flatnonzero(member).copy()
    parts = []
    for r, (seen, a, b) in enumerate(sections):
        # 32-bit witness arrays halve the peak of graphs with millions of witnesses
        seen = seen.astype(np.int32)
        covered = member[seen]
        m, k = np.nonzero(covered[:, a] & covered[:, b])
        i, j = seen[m, a[k]], seen[m, b[k]]
        r = np.full(m.size, r, dtype=np.int32)
        parts.append((np.minimum(i, j), np.maximum(i, j), r, m.astype(np.int32)))
    lo, hi, window, hop_index = map(np.concatenate, zip(*parts))
    del parts
    order = np.lexsort((hop_index, window, hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(first)
    ends, offsets = np.stack((lo[starts], hi[starts]), axis=1), np.append(starts, lo.size)
    return SupportGraph(variant, verts, ends, offsets, window[order], hop_index[order])


def covisibility_graph_from_support(
    vertices, windows, hop: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> SupportGraph:
    """Covisibility graph over an explicit vertex set (support indices).

    Each section sees one index per window tap in the window's
    :func:`~stftpr.model.support`, and every pair of those taps is a
    candidate edge.
    """
    fam = as_window_family(windows)
    n = fam.shape[1]
    hops = np.arange(n // hop)[:, None]
    sections = []
    for w in fam:
        taps = _ints(support(w, zero_tol))
        sections.append(((hop * hops - taps) % n, *np.triu_indices(taps.size, 1)))
    return _section_graph("covisibility", vertices, n, sections)


def endpoint_graph_from_support(
    vertices, supports: WindowSupport, hop: int, n: int
) -> SupportGraph:
    """Endpoint graph over an explicit vertex set, from a family's window supports.

    Each section sees the two :func:`endpoint_witness` indices of its window.
    Windows of supporting length 1 contribute no edges (the two interval
    endpoints coincide).
    """
    # (R, M, 2): the two endpoints seen by each window's section at each hop
    seen = np.stack(endpoint_witness(supports[:, None], hop, np.arange(n // hop), n), axis=2)
    pair = {True: (_ints([0]), _ints([1])), False: (_ints([]), _ints([]))}
    return _section_graph("endpoint", vertices, n, [
        (s, *pair[length > 1]) for s, length in zip(seen, supports.length.tolist())
    ])


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """BFS spanning tree of ``graph``, as arrays in discovery order.

    Tree edge ``k`` joins ``parent[k]``, found earlier, to ``child[k]`` through
    graph edge row ``edges[k]``, so ``graph.edges[tree.edges]`` holds the tree
    edges' endpoint pairs; ``root`` is None on an empty graph.
    """

    graph: SupportGraph
    root: int | None
    depth: int
    parent: np.ndarray
    child: np.ndarray
    edges: np.ndarray


def spanning_tree(graph: SupportGraph) -> SpanningTree:
    """Deterministic BFS tree rooted at the smallest vertex.

    Neighbors are visited in increasing order, so the tree (and everything
    derived from it) is reproducible.  The graph is connected when the search
    reaches every vertex; if it does not, this raises with the component
    certificate.
    """
    if not is_connected(graph):
        comps = graph.components()
        raise DisconnectedGraphError(
            f"support graph has {len(comps)} components: {comps}", components=comps
        )
    queue, parent, tree_edges, depth = graph._forest[0] if graph._forest else ([None], [], [], 0)
    return SpanningTree(graph, queue[0], depth, _ints(parent), _ints(queue[1:]), _ints(tree_edges))


def rotate_component_phase(
    x, component, theta: float, graph: SupportGraph, zero_tol: float = DEFAULT_ZERO_TOL,
) -> np.ndarray:
    """Rotate the entries on ``component`` by ``exp(-2j*pi*theta)``, keep the rest.

    ``theta`` is measured in turns (theta = 1/2 flips the sign of the block).
    When ``component`` is a union of connected components of the covisibility
    graph, the result has exactly the same magnitude measurements as ``x`` for
    every theta - the constructive witness that a disconnected graph makes the
    signal unrecoverable.  ``component`` must be a nonempty proper subset of
    the support and a union of components of ``graph``, else
    ``InvalidPartitionError``.
    """
    xa = as_signal(x)
    supp = set(support(xa, zero_tol))
    comp = {int(v) for v in component}
    if not comp:
        raise InvalidPartitionError("component is empty")
    if not comp <= supp:
        raise InvalidPartitionError(f"component {sorted(comp)} is not a subset of the support")
    if comp == supp:
        raise InvalidPartitionError("component must be a proper subset of the support")
    covered = set().union(*(c for c in map(set, graph.components()) if c <= comp))
    if covered != comp:
        raise InvalidPartitionError(f"component {sorted(comp)} is not a union of graph components")
    out = xa.copy()
    idx = sorted(comp)
    out[idx] = np.exp(-2j * np.pi * theta) * out[idx]
    return out
