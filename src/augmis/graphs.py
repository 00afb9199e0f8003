"""Immutable undirected graphs over dense integer vertex ids 0..n-1.

Adjacency is kept as one bitmask per vertex: edge tests are O(1) and the
search code can do set algebra on whole neighbourhoods with integer
operations.  Sorted neighbour tuples are derived lazily for iteration.
Graphs are values; nothing mutates them after construction, so they can
be shared freely between threads.

Vertex subsets are plain ``frozenset[int]`` throughout the public API.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "bits",
    "mask_of",
    "set_of",
    "neighbourhood",
    "induced_subgraph",
    "is_independent",
    "component_mask",
    "two_colouring",
    "connected_components",
    "bipartition",
]

# Largest vertex count a graph file, a named graph or a planted instance
# may ask for; a named graph may have as many edges.  Sizes are checked
# before any storage is allocated, so a short input cannot exhaust memory.
MAX_VERTICES = 1 << 16


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex ids."""
    return frozenset(bits(mask))


class Graph:
    """Undirected simple graph: no self-loops, symmetric adjacency.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.
    """

    __slots__ = ("n", "adj", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj: tuple[int, ...] = tuple(masks)
        self._nbrs: Optional[tuple[tuple[int, ...], ...]] = None

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> "Graph":
        """Build from per-vertex adjacency bitmasks (validated)."""
        if len(masks) != n:
            raise ValueError("need exactly one mask per vertex")
        full = (1 << n) - 1
        for v, m in enumerate(masks):
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if m & ~full:
                raise ValueError(f"mask of vertex {v} out of range")
        for v, m in enumerate(masks):
            rest = m
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                if not masks[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(masks)
        g._nbrs = None
        return g

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._nbrs is None:
            self._nbrs = tuple(tuple(bits(m)) for m in self.adj)
        return self._nbrs[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending lexicographic order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _check_vertices(g: Graph, xs: Iterable[int]) -> None:
    for v in xs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex id {v} out of range for n={g.n}")


def neighbourhood(g: Graph, us: Iterable[int]) -> frozenset[int]:
    """Union of the neighbourhoods of ``us``; may intersect ``us``."""
    us = list(us)
    _check_vertices(g, us)
    m = 0
    for u in us:
        m |= g.adj[u]
    return set_of(m)


def induced_subgraph(
    g: Graph, xs: Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``xs``, relabelled densely.

    Returns the subgraph and the old-id to new-id map; new ids follow
    ascending old ids.
    """
    old = sorted(set(xs))
    _check_vertices(g, old)
    remap = {v: i for i, v in enumerate(old)}
    masks = [0] * len(old)
    for v in old:
        i = remap[v]
        rest = g.adj[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            j = remap.get(u)
            if j is not None:
                masks[i] |= 1 << j
    return Graph.from_masks(len(old), masks), remap


def is_independent(g: Graph, xs: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``xs``."""
    xs = list(xs)
    _check_vertices(g, xs)
    m = mask_of(xs)
    for v in bits(m):
        if g.adj[v] & m:
            return False
    return True


def component_mask(adj: Sequence[int], v: int) -> int:
    """Bitmask of the connected component of ``v`` in adjacency ``adj``."""
    comp = 0
    frontier = 1 << v
    while frontier:
        comp |= frontier
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~comp
    return comp


def two_colouring(n: int, adj: Sequence[int]) -> Optional[tuple[int, int]]:
    """Side bitmasks of a proper 2-colouring, or None on an odd cycle.

    In each component the side containing the smallest vertex id is
    merged into the first mask.
    """
    side0 = side1 = 0
    seen = 0
    for v in range(n):
        b = 1 << v
        if seen & b:
            continue
        comp0, comp1 = b, 0
        frontier = b
        seen |= b
        on0 = True
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            if on0:
                if nxt & comp0:
                    return None
                comp1 |= nxt
            else:
                if nxt & comp1:
                    return None
                comp0 |= nxt
            frontier = nxt & ~seen
            seen |= nxt
            on0 = not on0
        side0 |= comp0
        side1 |= comp1
    return side0, side1


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, sorted by minimum member."""
    out: list[frozenset[int]] = []
    seen = 0
    for v in range(g.n):
        if not seen >> v & 1:
            comp = component_mask(g.adj, v)
            seen |= comp
            out.append(set_of(comp))
    return out


def bipartition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A proper 2-colouring, or None if some component has an odd cycle.

    Canonical side choice: in each component the side containing the
    smallest vertex id goes first.
    """
    sides = two_colouring(g.n, g.adj)
    if sides is None:
        return None
    return set_of(sides[0]), set_of(sides[1])
