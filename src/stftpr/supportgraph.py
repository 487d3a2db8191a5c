"""Window support geometry and the two support graphs with their certificates.

A run's :class:`Geometry` holds its config, its window family validated once
against it, and the family's supports; every recovery stage takes it whole.

Two graphs on the signal's support drive everything:

* the *covisibility* graph joins two support indices whenever some hop
  position of some window has nonzero entries at both (they are seen through
  one windowed section together).  Its connectivity is necessary for the
  signal to be determined, up to a global phase, by the magnitude
  measurements; :func:`rotate_component_phase` produces the explicit
  counterexample family when it is disconnected.  The builder returns a
  spanning subgraph with exactly its components: the indices one section
  sees form a clique, and the builder keeps a path through it.

* the *endpoint* graph joins two support indices that sit exactly at the two
  endpoints of a translated window-support interval, i.e. at offset
  (supporting length - 1) as seen from some hop.  It is a subgraph of the
  covisibility graph, and its connectivity - together with full-rank
  modulation matrices and, once it has an edge, short windows - is
  sufficient for recovery (:func:`stftpr.phase.certify_graph`).

Both graphs are undirected, immutable, and held as arrays: ``edges``, a
sorted ``(E, 2)`` array of endpoint pairs, and CSR witness arrays.  One rule
fills both, in one chunked pass of window taps against every hop: each tap
visible in a section joins the next visible tap of its window there.  The
covisibility taps are a window's entries above the tolerance, the endpoint
taps its anchor and far end.  One breadth-first search per graph gives the
components, the spanning forest a certificate lists and the spanning tree.
Its queue pass walks flat ``intp`` arrays (a CSR adjacency, the depths and
the queue) through ``memoryview`` and records only the discovery order and
depths; one array pass then gives each vertex its parent and tree-edge row.
The forest is held as read-only arrays in discovery order, so the graph
stage keeps no Python object per vertex or edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError, DisconnectedGraphError, InvalidPartitionError, InvalidWindowError,
)
from .model import (
    DEFAULT_ZERO_TOL, ProblemConfig, _above_tolerance, as_signal, as_window_family, support,
)


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


@dataclass(frozen=True, eq=False)
class Geometry:
    """A run's config, its window family validated against it, and the family's supports.

    ``windows`` becomes :func:`~stftpr.model.as_window_family`'s ``(cfg.num_windows,
    cfg.n)`` family (another count raises ``DimensionMismatchError``), and
    ``supports`` is its :func:`window_support` at ``cfg.zero_tol``.
    :attr:`endpoint_taps` holds each window's two endpoint values, worked out
    on first use.
    """

    cfg: ProblemConfig
    windows: np.ndarray
    supports: WindowSupport = field(init=False)

    def __post_init__(self):
        fam = as_window_family(self.windows, self.cfg.n)
        if fam.shape[0] != self.cfg.num_windows:
            raise DimensionMismatchError(f"family has {fam.shape[0]} windows, "
                                         f"config has {self.cfg.num_windows}")
        object.__setattr__(self, "windows", fam)
        object.__setattr__(self, "supports", window_support(fam, self.cfg.zero_tol))

    @cached_property
    def endpoint_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(near, far)``: each window's tap at its anchor and at its far end, read-only.

        ``near[r] = w_r(anchor)`` and ``far[r] = w_r(anchor + length - 1)``;
        for a window of supporting length 1 the two coincide.
        """
        rows, ws = np.arange(self.cfg.num_windows), self.supports
        near, far = self.windows[rows, ws.anchor], self.windows[rows, ws.far(self.cfg.n)]
        near.flags.writeable = far.flags.writeable = False
        return near, far


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
    above = _above_tolerance(mags, zero_tol)
    if not above.any(axis=1).all():
        r = int(np.argmin(above.any(axis=1)))
        name = "window" if arr.ndim == 1 else f"window {r}"
        if not mags[r].any():
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
    def _forest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """BFS forest, one search per component from its smallest vertex, as read-only arrays.

        ``(order, level, parent, edge)``: the vertices in discovery order, each
        one's depth in its component's tree (0 at the roots, each of which
        starts a component), and the parent and edge row of each non-root
        vertex, in discovery order.  One queue pass over a CSR adjacency,
        neighbours in increasing order, reads and writes flat ``intp`` arrays
        through ``memoryview`` and records only the order and depths.  A
        vertex's parent is its neighbour one level up that was discovered
        first, which is the one the queue reached it from; one array pass
        finds them all.
        """
        verts = self.vertices
        nv = int(verts[-1]) + 1 if verts.size else 0
        src, dst = np.concatenate((self.edges, self.edges[:, ::-1]), dtype=np.intp).T
        starts = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=nv))))
        nbrs = dst[np.argsort(src * nv + dst)]  # by vertex, then neighbour
        depth, order = np.full(nv, -1, dtype=np.intp), np.empty(verts.size, dtype=np.intp)
        d, q, s, nb = map(memoryview, (depth, order, starts, nbrs))
        roots, tail = iter(memoryview(verts)), 0
        for head in range(verts.size):  # the queue grows while it is walked
            if head == tail:  # it is empty: the smallest vertex not reached starts a component
                root = next(v for v in roots if d[v] < 0)
                d[root], q[tail] = 0, root
                tail += 1
            v = q[head]
            below = d[v] + 1
            for u in nb[s[v]:s[v + 1]]:
                if d[u] < 0:
                    d[u], q[tail] = below, u
                    tail += 1
        del nbrs, d, q, s, nb  # the 2E neighbours go before the parent pass
        level = depth[order]
        pos = np.empty(nv, dtype=np.intp)
        pos[order] = np.arange(order.size)
        # directed rows from a child to a neighbour one level up; the one found
        # first is its parent, and a key position * rows + row finds it with its row
        up = np.flatnonzero(depth[dst] == depth[src] - 1)
        first = np.full(order.size, order.size * src.size)
        np.minimum.at(first, pos[src[up]], pos[dst[up]] * src.size + up)
        first = first[level > 0]
        forest = order, level, order[first // src.size], first % src.size % len(self.edges)
        for a in forest:
            a.flags.writeable = False
        return forest

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        order, level = self._forest[:2]
        flat, bounds = order.tolist(), [*np.flatnonzero(level == 0).tolist(), order.size]
        return [sorted(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    def to_dict(self) -> dict:
        """Certificate payload: variant, vertices, connectivity and a spanning forest.

        ``forest`` has one ``[n, n2, window, hop_index]`` row per edge of the
        BFS forest behind :meth:`components`, component by component in
        discovery order: the edge's endpoints (lo, hi) and its first witness.
        """
        rows = self._forest[3]
        first = self.offsets[rows]
        forest = np.column_stack((self.edges[rows], self.window[first], self.hop_index[first]))
        return {
            "variant": self.variant,
            "vertices": self.vertices.tolist(),
            "connected": is_connected(self),
            "components": self.components(),
            "forest": forest.tolist(),
        }


def is_connected(graph: SupportGraph) -> bool:
    """BFS connectivity: one search reaches every vertex; empty and single-vertex graphs count."""
    return bool(graph._forest[1][1:].all())


_WITNESS_CHUNK = 1 << 16  # taps times hops per chunk: a few MB of masks and indices


def _section_graph(variant: str, vertices, n: int, hop: int, rows, taps) -> SupportGraph:
    """Graph joining each visible tap to the next visible tap of its window at the same hop.

    Tap ``taps[p]`` of window ``rows[p]`` sees ``(hop*m - taps[p]) % n`` at hop
    ``m``, and is visible there when that index is a vertex; taps come grouped
    by window, so the indices one section sees form a path, each edge
    witnessed by ``(rows[p], m)``.  One pass over the taps against every hop,
    in chunks of ``_WITNESS_CHUNK`` candidates, keys each witness by edge
    ``lo*n + hi`` and slot ``window*M + hop`` for :func:`_sorted_witnesses`.
    """
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)  # a set, say, which numpy would not unpack
    idx = np.asarray(vertices, dtype=np.intp)
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise DimensionMismatchError(f"vertex {idx[outside][0]} is outside [0, {n})")
    member = np.zeros(n, dtype=bool)
    member[idx] = True
    # sorted and distinct; the copy lets go of the (k, 1) array nonzero builds
    verts = np.flatnonzero(member).copy()
    num_hops = n // hop
    # seen[m, s] is member[(s + hop*m) % n]; tap t at hop m reads column n - t
    seen = np.ndarray((num_hops, n + 1), bool, np.tile(member, 2), strides=(hop, 1))
    # 32-bit witness arrays halve the peak; a slot is below R*M <= the family's R*n entries
    rows, taps = (np.asarray(v, dtype=np.int32) for v in (rows, taps))
    step = max(1, _WITNESS_CHUNK // max(taps.size, 1))
    edge_keys, slot_keys = [], []
    for start in range(0, num_hops, step):
        m, p = np.nonzero(seen[start:start + step, n - taps])  # in (hop, tap) order
        m = m.astype(np.int32) + start
        slot, index = rows[p] * num_hops + m, (hop * m - taps[p]) % n
        del m, p  # the chunk's widest arrays go before its keys are built
        k = np.flatnonzero(slot[1:] == slot[:-1])  # the next visible tap is in the same section
        i, j = index[k], index[k + 1]
        edge_keys.append(np.minimum(i, j).astype(np.int64) * n + np.maximum(i, j))
        slot_keys.append(slot[k])
    edge_key, slot = np.concatenate(edge_keys), np.concatenate(slot_keys)
    del edge_keys, slot_keys
    num_slots = (int(rows.max(initial=0)) + 1) * num_hops
    edge_key, slot = _sorted_witnesses(edge_key, slot, n, num_slots)
    first = np.ones(edge_key.size, dtype=bool)
    first[1:] = edge_key[1:] != edge_key[:-1]
    starts = np.flatnonzero(first)
    ends = np.empty((starts.size, 2), dtype=np.int32)
    np.divmod(edge_key[starts], n, out=(ends[:, 0], ends[:, 1]))
    return SupportGraph(variant, verts, ends, np.append(starts, edge_key.size),
                        *np.divmod(slot, num_hops))


def _sorted_witnesses(edge_key, slot, n: int, num_slots: int):
    """Witness keys, consumed, sorted by edge ``lo*n + hi`` and then by slot ``window*M + hop``.

    One key ``edge_key*num_slots + slot``, sorted in place, while it fits in
    int64; beyond that (n = 2**20 at hop 1 and 10 windows) a two-key lexsort.
    """
    if n * n * num_slots > 2**63:
        order = np.lexsort((slot, edge_key))
        return edge_key[order], slot[order]
    edge_key *= num_slots
    edge_key += slot
    edge_key.sort()
    slot = (edge_key % num_slots).astype(np.int32)
    edge_key //= num_slots
    return edge_key, slot


def covisibility_graph_from_support(vertices, geom: Geometry) -> SupportGraph:
    """Spanning subgraph of the covisibility graph over an explicit vertex set (support indices).

    Each section sees one index per window tap in the window's
    :func:`~stftpr.model.support`, and those it sees form a clique of the
    covisibility graph.  Joining only consecutive visible taps keeps a path
    through each clique, so the subgraph has the full graph's vertices and
    components with O(R*M*L) witnesses instead of O(R*M*L**2); each of its
    edges is a true covisibility edge with its own (window, hop) witnesses.
    """
    cfg = geom.cfg
    rows, taps = np.nonzero(_above_tolerance(np.abs(geom.windows), cfg.zero_tol))
    return _section_graph("covisibility", vertices, cfg.n, cfg.hop, rows, taps)


def endpoint_graph_from_support(vertices, geom: Geometry) -> SupportGraph:
    """Endpoint graph over an explicit vertex set, from the geometry's window supports.

    A window's taps are its anchor and far end, so a section joins the two
    :func:`endpoint_witness` indices it sees when both are vertices.  Windows
    of supporting length 1 are dropped: their two taps coincide and would
    join an index to itself.
    """
    n, supports = geom.cfg.n, geom.supports
    long = np.flatnonzero(supports.length > 1)
    ws = supports[long]
    taps = np.stack((ws.anchor, ws.far(n)), axis=1).ravel()
    return _section_graph("endpoint", vertices, n, geom.cfg.hop, np.repeat(long, 2), taps)


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """BFS spanning tree of ``graph``, as read-only ``intp`` arrays in discovery order.

    Tree edge ``k`` joins ``parent[k]``, found earlier, to ``child[k]`` through
    graph edge row ``edges[k]``, so ``graph.edges[tree.edges]`` holds the tree
    edges' endpoint pairs; ``root`` is None on an empty graph.  The arrays are
    views of the graph's cached forest.
    """

    graph: SupportGraph
    root: int | None
    depth: int
    parent: np.ndarray
    child: np.ndarray
    edges: np.ndarray


def _components_text(comps: list) -> str:
    """``"K components: [...]"``, listing only the first 8 when there are more.

    A failure message names the components; bounded, it stays short at any n.
    """
    listed = f": {comps}" if len(comps) <= 8 else f", the first 8: {comps[:8]}"
    return f"{len(comps)} components{listed}"


def spanning_tree(graph: SupportGraph) -> SpanningTree:
    """Deterministic BFS tree rooted at the smallest vertex, read off the graph's forest.

    Neighbors are visited in increasing order, so the tree (and everything
    derived from it) is reproducible: each vertex hangs from its neighbour one
    level up that the search discovered first.  The graph is connected when
    the search from the root reaches every vertex; if it does not, this
    raises with the component certificate.  Nothing is copied: the tree's
    arrays are views of the forest's.
    """
    if not is_connected(graph):
        comps = graph.components()
        raise DisconnectedGraphError(f"support graph has {_components_text(comps)}",
                                     components=comps)
    order, level, parent, edges = graph._forest
    root, depth = (int(order[0]), int(level[-1])) if order.size else (None, 0)
    return SpanningTree(graph, root, depth, parent, order[1:], edges)


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
