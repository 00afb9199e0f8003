"""Minimal augmenting graphs: predicate, catalogue, and a matching-forcing search.

A two-coloured bipartite graph (whites W, blacks B) is *irreducible* when
|W| = |B| - 1, every non-empty A of W has strictly more than |A|
neighbours in B, and the graph is connected.  Irreducible graphs are
exactly the minimal augmenting graphs, so a solver only ever needs to
look for them.  The single black vertex with empty white side counts as
irreducible: it encodes the trivial augmentation that adds an untouched
vertex.  All three conditions are checked on adjacency bitmasks, the
Hall surplus with one matching (``graphs.bipartite_matching``) and a
walk from the blacks it leaves free; nothing recurses, so a graph of
any size the graph cap allows can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Iterable, Optional, Sequence

from .canonical import canon_code, decode_code
from .enumeration import grow_balanced_bicolored_raw
from .graphs import (
    Graph,
    bipartite_matching,
    bits,
    component_mask,
    is_independent,
    mask_of,
)
from .patterns import Pattern

__all__ = [
    "ColoredBipartite",
    "hall_surplus_check",
    "is_irreducible",
    "CatalogEntry",
    "Catalog",
    "enumerate_irreducible",
    "RamseyResult",
    "bipartite_ramsey_search",
    "SearchBudgetError",
    "MAX_ENUM_VERTICES",
]

MAX_ENUM_VERTICES = 14


class SearchBudgetError(RuntimeError):
    """An exhaustive search exceeded its configured budget."""


@dataclass(frozen=True)
class ColoredBipartite:
    """A graph with an explicit white/black bipartition."""

    graph: Graph
    white: frozenset[int]
    black: frozenset[int]

    def __post_init__(self) -> None:
        g = self.graph
        if self.white & self.black:
            raise ValueError("white and black sets overlap")
        if self.white | self.black != frozenset(range(g.n)):
            raise ValueError("colour classes must cover all vertices")
        if not is_independent(g, self.white):
            raise ValueError("white side is not independent")
        if not is_independent(g, self.black):
            raise ValueError("black side is not independent")

    def __repr__(self) -> str:
        return (
            f"ColoredBipartite(n={self.graph.n}, |W|={len(self.white)}, "
            f"|B|={len(self.black)})"
        )


def hall_surplus_check(h: ColoredBipartite) -> bool:
    """True iff every non-empty A of W has at least |A|+1 black neighbours.

    Equivalent, without subset enumeration: after deleting any single
    black vertex the remaining graph still has a matching saturating W.
    One matching M that saturates W (``graphs.bipartite_matching``)
    settles every black at once.  A black left free by M can go, since M
    survives.  A black b matched to w can go iff w can be matched again,
    that is (Berge) iff an alternating path leaves w by an edge outside
    M, returns to a white along each edge of M, and ends at a black free
    in M.  Read from its end, that path reaches b from a free black in
    steps "black, any white neighbour, that white's partner in M".  So
    the surplus holds iff M exists and those steps, taken from all free
    blacks at once, reach every black.  Neither the matching nor the
    walk recurses, so the graph's size is bounded by memory only.
    """
    adj = h.graph.adj
    mate = bipartite_matching(adj, sorted(h.white))
    if len(mate) < len(h.white):
        return False
    blacks = mask_of(h.black)
    reached = todo = blacks & ~mask_of(mate.values())
    while todo:
        low = todo & -todo
        todo ^= low
        for w in bits(adj[low.bit_length() - 1]):
            b = 1 << mate[w]
            if not reached & b:
                reached |= b
                todo |= b
    return reached == blacks


def is_irreducible(h: ColoredBipartite) -> bool:
    """Size balance |W| = |B| - 1, connectivity, and Hall surplus, all
    checked on bitmasks."""
    if len(h.white) != len(h.black) - 1:
        return False
    # the balance leaves at least one vertex
    if component_mask(h.graph.adj, 0) != (1 << h.graph.n) - 1:
        return False
    return hall_surplus_check(h)


def _from_masks(n: int, adj: Sequence[int], cols: Sequence[int]) -> ColoredBipartite:
    """The graph with adjacency masks ``adj``, colour 0 white, 1 black."""
    return ColoredBipartite(
        Graph.from_masks(n, adj),
        frozenset(v for v in range(n) if not cols[v]),
        frozenset(v for v in range(n) if cols[v]),
    )


def decode_catalog_code(code: bytes) -> ColoredBipartite:
    return _from_masks(*decode_code(code))


@dataclass(frozen=True)
class CatalogEntry:
    code: bytes
    graph: ColoredBipartite


@dataclass(frozen=True)
class Catalog:
    """Deduplicated irreducible graphs up to a vertex bound, filtered."""

    max_vertices: int
    filters: tuple[Pattern, ...]
    entries: tuple[CatalogEntry, ...]

    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e.graph.graph.n] = out.get(e.graph.graph.n, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.entries)


def enumerate_irreducible(
    n_max: int, filters: Sequence[Pattern] = ()
) -> Catalog:
    """All irreducible, filter-free graphs up to n_max vertices.

    One entry per colour-preserving isomorphism class, sorted by vertex
    count then canonical code.  The growth enumerator maintains
    connectivity, colour balance and filter-freeness level by level; the
    Hall surplus is checked on the finished graphs.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > MAX_ENUM_VERTICES:
        raise ValueError(f"n_max is capped at {MAX_ENUM_VERTICES}")
    entries = []
    for n, adj, cols in grow_balanced_bicolored_raw(n_max, free_of=filters):
        if hall_surplus_check(_from_masks(n, adj, cols)):
            # store the canonical representative so catalogues are
            # labelling-independent and round-trip through files exactly
            code = canon_code(n, adj, cols)
            entries.append(CatalogEntry(code, decode_catalog_code(code)))
    entries.sort(key=lambda e: (e.graph.graph.n, e.code))
    return Catalog(n_max, tuple(filters), tuple(entries))


# -- matching-forcing bound ------------------------------------------------

# Most graphs bipartite_ramsey_search checks at one matching size m: the
# family holds 2^(m^2 - m) graphs, so m = 5 is the last size in budget.
RAMSEY_GRAPH_BUDGET = 1 << 21


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of the exhaustive matching-forcing search."""

    value: int
    extremal: Optional[ColoredBipartite]  # avoider with matching value-1
    graphs_checked: int


def _iter_perfect_matching_graphs(m: int) -> Iterable[tuple[int, ...]]:
    """Adjacency masks of all bipartite graphs on parts (m, m) that contain
    the diagonal perfect matching w_i ~ b_i; whites 0..m-1, blacks m..2m-1.

    Every bipartite graph with a matching of size m restricts to such a
    graph on the matched vertices, so searches over matchings of size m
    may be confined to this family.
    """
    off = [(i, j) for i in range(m) for j in range(m) if i != j]
    for sel in range(1 << len(off)):
        masks = [0] * (2 * m)
        for i in range(m):
            masks[i] |= 1 << (m + i)
            masks[m + i] |= 1 << i
        rest = sel
        while rest:
            low = rest & -rest
            k = low.bit_length() - 1
            rest ^= low
            i, j = off[k]
            masks[i] |= 1 << (m + j)
            masks[m + j] |= 1 << i
        yield tuple(masks)


def _has_biclique(masks: Sequence[int], m: int, t: int) -> bool:
    if t > m:
        return False
    for ws in combinations(range(m), t):
        common = (1 << (2 * m)) - 1
        for w in ws:
            common &= masks[w]
        if common.bit_count() >= t:
            return True
    return False


def _has_induced_matching(masks: Sequence[int], m: int, p: int) -> bool:
    edges = [
        (i, m + j)
        for i in range(m)
        for j in range(m)
        if masks[i] >> (m + j) & 1
    ]

    def rec(start: int, chosen: list[tuple[int, int]]) -> bool:
        if len(chosen) == p:
            return True
        for k in range(start, len(edges)):
            u, v = edges[k]
            ok = True
            for (x, y) in chosen:
                if len({u, v, x, y}) < 4:
                    ok = False
                    break
                if (
                    masks[u] >> x & 1
                    or masks[u] >> y & 1
                    or masks[v] >> x & 1
                    or masks[v] >> y & 1
                ):
                    ok = False
                    break
            if ok and rec(k + 1, chosen + [(u, v)]):
                return True
        return False

    return rec(0, [])


def bipartite_ramsey_search(t: int, p: int) -> RamseyResult:
    """Smallest N so that every bipartite graph with a matching of size N
    has a complete bipartite K(t,t) or an induced matching on p edges.

    Exhaustive over perfect-matching graphs per matched size (see
    _iter_perfect_matching_graphs for why that restriction is sound);
    raises SearchBudgetError at the first size whose family exceeds
    RAMSEY_GRAPH_BUDGET graphs.
    """
    if t < 1 or p < 1:
        raise ValueError("parameters must be positive")
    checked = 0
    last_avoider: Optional[ColoredBipartite] = None
    for m in count(1):
        if (1 << (m * m - m)) > RAMSEY_GRAPH_BUDGET:
            raise SearchBudgetError(
                f"search space at matching size {m} exceeds budget"
            )
        avoider = None
        for masks in _iter_perfect_matching_graphs(m):
            checked += 1
            if _has_biclique(masks, m, t):
                continue
            if _has_induced_matching(masks, m, p):
                continue
            avoider = masks
            break
        if avoider is None:
            return RamseyResult(m, last_avoider, checked)
        last_avoider = ColoredBipartite(
            Graph.from_masks(2 * m, avoider),
            frozenset(range(m)),
            frozenset(range(m, 2 * m)),
        )
