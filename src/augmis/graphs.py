"""Immutable undirected graphs over dense integer vertex ids 0..n-1.

Adjacency is kept as one bitmask per vertex: edge tests are O(1) and the
search code can do set algebra on whole neighbourhoods with integer
operations.  Sorted neighbour tuples are derived lazily for iteration.
Graphs are values; nothing mutates them after construction, so they can
be shared freely between threads.

Vertex subsets are plain ``frozenset[int]`` in the public API, except
where the search code hands bitmasks on: the finders' round state and
their (whites, blacks) candidates are masks, which ``set_of`` turns into
frozensets and ``mask_of`` back.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "bits",
    "mask_of",
    "set_of",
    "is_independent",
    "component_mask",
    "two_colouring",
    "connected_components",
    "bipartite_matching",
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


def is_independent(g: Graph, xs: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``xs``."""
    xs = list(xs)
    _check_vertices(g, xs)
    m = mask_of(xs)
    adj = g.adj
    for v in xs:
        if adj[v] & m:
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


def bipartite_matching(adj: Sequence[int], left: Iterable[int]) -> dict[int, int]:
    """A maximum matching of the independent vertices ``left`` into their
    neighbours, as a dict from each matched left vertex to its partner.

    Kuhn's augmenting-path search, each left vertex in the order given,
    each neighbourhood in ascending id order.  The paths are followed on
    an explicit stack, never by recursion, so their length is bounded by
    memory only.  A left vertex the search cannot match stays out: in
    Kuhn's search it could never be matched later either.
    """
    mate: dict[int, int] = {}  # left -> right
    partner: dict[int, int] = {}  # right -> left
    for root in left:
        seen = 0
        # path[i] is a left vertex, untried[i] its neighbours not yet
        # tried, via[i] the right vertex that path[i] would take
        path, untried, via = [root], [adj[root]], []
        while path:
            rest = untried[-1] & ~seen
            if not rest:
                path.pop()
                untried.pop()
                if via:
                    via.pop()
                continue
            low = rest & -rest
            seen |= low
            untried[-1] = rest ^ low
            r = low.bit_length() - 1
            via.append(r)
            w = partner.get(r)
            if w is None:
                for u, b in zip(path, via):
                    mate[u] = b
                    partner[b] = u
                break
            path.append(w)
            untried.append(adj[w])
    return mate
