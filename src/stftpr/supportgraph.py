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

Both graphs are stored undirected and are immutable after construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    InvalidPartitionError,
    InvalidWindowError,
)
from .model import DEFAULT_ZERO_TOL, as_signal, as_window_family, support


@dataclass(frozen=True)
class WindowSupport:
    """Minimal cyclic interval [anchor, anchor + length - 1] covering a window."""

    length: int
    anchor: int

    def far(self, n: int) -> int:
        """Index of the interval's far endpoint, ``anchor + length - 1`` mod n."""
        return (self.anchor + self.length - 1) % n


def endpoint_witness(ws: WindowSupport, hop: int, m: int, n: int) -> tuple[int, int]:
    """Signal indices (n1, n2) at the two endpoints of the section at hop ``m``.

    ``n1 = hop*m - anchor`` is seen through the window's anchor and
    ``n2 = n1 - (length - 1)`` through its far endpoint (indices mod n).
    """
    n1 = (hop * m - ws.anchor) % n
    return n1, (n1 - (ws.length - 1)) % n


def long_windows(supports: list[WindowSupport], n: int) -> list[int]:
    """Windows whose supporting length exceeds n/2; they make edge phases ambiguous."""
    return [r for r, ws in enumerate(supports) if 2 * ws.length > n]


def window_support(w, zero_tol: float = DEFAULT_ZERO_TOL) -> WindowSupport:
    """Supporting length and anchor of a window.

    The interval is the shortest cyclic run containing every entry above the
    relative tolerance; both endpoints then land on nonzero entries.  When
    several intervals tie for minimal length (e.g. (1, 0, 1, 0) on n = 4),
    the smallest anchor wins; a window with no zero entries gets anchor 0.
    """
    arr = as_signal(w)
    n = arr.shape[0]
    mags = np.abs(arr)
    peak = float(mags.max()) if n else 0.0
    if peak == 0.0:
        raise InvalidWindowError("window is identically zero")
    nonzero = np.flatnonzero(mags > zero_tol * peak)
    if nonzero.size == n:
        return WindowSupport(length=n, anchor=0)
    best_length = n + 1
    best_anchor = 0
    for i, a in enumerate(nonzero):
        # going forward from a, the last nonzero reached is its cyclic predecessor
        end = nonzero[i - 1]
        length = (int(end) - int(a)) % n + 1
        if length < best_length:
            best_length = length
            best_anchor = int(a)
    return WindowSupport(length=best_length, anchor=best_anchor)


@dataclass(frozen=True)
class SupportGraphEdge:
    """Undirected edge between two support indices with its witness list.

    Each witness is a (window, hop) pair recording which windowed section
    certified the edge.
    """

    endpoints: tuple[int, int]
    witnesses: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SupportGraph:
    """Support graph with a variant tag ("covisibility" or "endpoint")."""

    variant: str
    vertices: tuple[int, ...]
    edges: tuple[SupportGraphEdge, ...]

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            a, b = edge.endpoints
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        return adj

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        adj = self.adjacency()
        seen: set[int] = set()
        comps: list[list[int]] = []
        for start in self.vertices:
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            comp = []
            while queue:
                v = queue.popleft()
                comp.append(v)
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
            comps.append(sorted(comp))
        comps.sort(key=lambda c: c[0])
        return comps

    def edge_lookup(self) -> dict[tuple[int, int], SupportGraphEdge]:
        return {edge.endpoints: edge for edge in self.edges}

    def to_dict(self) -> dict:
        """Certificate payload: vertices, edges with witnesses, connectivity."""
        comps = self.components()
        return {
            "variant": self.variant,
            "vertices": list(self.vertices),
            "edges": [
                {
                    "n": edge.endpoints[0],
                    "n2": edge.endpoints[1],
                    "witnesses": [list(w) for w in edge.witnesses],
                }
                for edge in self.edges
            ],
            "connected": len(comps) <= 1,
            "components": comps,
        }


def is_connected(graph: SupportGraph) -> bool:
    """BFS connectivity; empty and single-vertex graphs count as connected."""
    return len(graph.components()) <= 1


def _edges_from_witnesses(
    witnesses: dict[tuple[int, int], list[tuple[int, int]]]
) -> tuple[SupportGraphEdge, ...]:
    return tuple(
        SupportGraphEdge(endpoints=pair, witnesses=tuple(sorted(witnesses[pair])))
        for pair in sorted(witnesses)
    )


def covisibility_graph_from_support(
    vertices, windows, hop: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> SupportGraph:
    """Covisibility graph over an explicit vertex set (support indices)."""
    fam = as_window_family(windows)
    n = fam.shape[1]
    verts = tuple(sorted(int(v) % n for v in set(vertices)))
    witnesses: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in range(fam.shape[0]):
        mags = np.abs(fam[r])
        mask = mags > zero_tol * mags.max()
        for m in range(n // hop):
            covered = [v for v in verts if mask[(hop * m - v) % n]]
            for i in range(len(covered)):
                for j in range(i + 1, len(covered)):
                    pair = (covered[i], covered[j])
                    witnesses.setdefault(pair, []).append((r, m))
    return SupportGraph(
        variant="covisibility", vertices=verts, edges=_edges_from_witnesses(witnesses)
    )


def build_covisibility_graph(
    x, windows, hop: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> SupportGraph:
    """Covisibility graph of a signal: vertices are its support indices."""
    return covisibility_graph_from_support(
        support(x, zero_tol), windows, hop, zero_tol
    )


def endpoint_graph_from_support(
    vertices,
    windows,
    hop: int,
    zero_tol: float = DEFAULT_ZERO_TOL,
    supports: list[WindowSupport] | None = None,
) -> SupportGraph:
    """Endpoint graph over an explicit vertex set.

    Windows of supporting length 1 contribute no edges (the two interval
    endpoints coincide).
    """
    fam = as_window_family(windows)
    n = fam.shape[1]
    if supports is None:
        supports = [window_support(w, zero_tol) for w in fam]
    verts = tuple(sorted(int(v) % n for v in set(vertices)))
    vset = set(verts)
    witnesses: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r, ws in enumerate(supports):
        if ws.length == 1:
            continue
        for m in range(n // hop):
            n1, n2 = endpoint_witness(ws, hop, m, n)
            if n1 == n2 or n1 not in vset or n2 not in vset:
                continue
            pair = (min(n1, n2), max(n1, n2))
            witnesses.setdefault(pair, []).append((r, m))
    return SupportGraph(
        variant="endpoint", vertices=verts, edges=_edges_from_witnesses(witnesses)
    )


def build_endpoint_graph(
    x, windows, hop: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> SupportGraph:
    """Endpoint graph of a signal: vertices are its support indices."""
    return endpoint_graph_from_support(support(x, zero_tol), windows, hop, zero_tol)


@dataclass(frozen=True)
class TreeEdge:
    """Spanning-tree edge oriented from the earlier-discovered vertex."""

    parent: int
    child: int
    edge: SupportGraphEdge


@dataclass(frozen=True)
class SpanningTree:
    root: int | None
    edges: tuple[TreeEdge, ...]
    depth: int


def spanning_tree(graph: SupportGraph) -> SpanningTree:
    """Deterministic BFS tree rooted at the smallest vertex.

    Neighbors are visited in increasing order, so the tree (and everything
    derived from it) is reproducible.  Raises with the component certificate
    if the graph is disconnected.
    """
    if not graph.vertices:
        return SpanningTree(root=None, edges=(), depth=0)
    comps = graph.components()
    if len(comps) > 1:
        raise DisconnectedGraphError(
            f"support graph has {len(comps)} components: {comps}",
            components=comps,
        )
    root = min(graph.vertices)
    adj = graph.adjacency()
    lookup = graph.edge_lookup()
    depth = {root: 0}
    order: list[TreeEdge] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u in depth:
                continue
            depth[u] = depth[v] + 1
            edge = lookup[(min(u, v), max(u, v))]
            order.append(TreeEdge(parent=v, child=u, edge=edge))
            queue.append(u)
    return SpanningTree(root=root, edges=tuple(order), depth=max(depth.values()))


def rotate_component_phase(
    x, component, theta: float, graph: SupportGraph | None = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> np.ndarray:
    """Rotate the entries on ``component`` by ``exp(-2j*pi*theta)``, keep the rest.

    ``theta`` is measured in turns (theta = 1/2 flips the sign of the block).
    When ``component`` is a union of connected components of the covisibility
    graph, the result has exactly the same magnitude measurements as ``x`` for
    every theta - the constructive witness that a disconnected graph makes the
    signal unrecoverable.  Pass ``graph`` to have the separation property
    verified; without it only basic sanity (nonempty, proper subset of the
    support) is checked.
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
    if graph is not None:
        graph_comps = [set(c) for c in graph.components()]
        covered = set().union(*(c for c in graph_comps if c <= comp)) if graph_comps else set()
        if covered != comp:
            raise InvalidPartitionError(
                f"component {sorted(comp)} is not a union of graph components"
            )
        for edge in graph.edges:
            a, b = edge.endpoints
            if (a in comp) != (b in comp):
                raise InvalidPartitionError(
                    f"edge {edge.endpoints} crosses the proposed partition"
                )
    out = xa.copy()
    idx = sorted(comp)
    out[idx] = np.exp(-2j * np.pi * theta) * out[idx]
    return out
