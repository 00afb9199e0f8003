"""Exhaustive generation of small graphs, one per isomorphism class.

All three generators run one level-wise loop, ``_grow``: each level is a
dict from canonical code to the first representative seen, and the
children of every representative are formed by adding ``step`` fresh
vertices.  Each child goes through three steps, cheapest first:

1. the generator's shape check (bipartite or connected);
2. its canonical code, and a skip if that code is already kept in the
   next level or already rejected at it;
3. otherwise, the induced filter search through the fresh vertices, run
   once for the class: a passing child is kept as the representative of
   its code, a failing one leaves its code among the rejected.

The generators differ only in their seeds, their step and how they
attach the fresh vertices.  Completeness rests on two facts:

* every connected graph on n >= 2 vertices has a non-cut vertex, so the
  connected graphs on n arise from those on n-1 by attaching one vertex
  with a non-empty neighbourhood;
* every connected bipartite graph whose colour classes have sizes
  (m, m+1) contains a white-black pair whose joint removal leaves it
  connected, so those graphs arise from the (m-1, m) level by adding one
  white-black pair.

Induced-subgraph filters are hereditary and every parent passed them,
so a child only needs checking against copies through the vertices it
just gained, and that check holds or fails for the whole isomorphism
class at once: the first child of a class decides it.  The first child
of a passing class is therefore also its first passing child, so the
representatives and the yield order are those of a loop that filters
every child before deduplicating.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .canonical import canon_code
from .graphs import Graph, component_mask, two_colouring
from .patterns import PatternLike, _as_graph, _compile, _contains_anchored

__all__ = ["grow_graphs", "grow_bicolored_raw", "grow_balanced_bicolored_raw"]

Adj = tuple[int, ...]
Cols = Optional[tuple[int, ...]]
Raw = tuple[int, Adj, Cols]


def _grow(
    n_max: int,
    seeds: Iterable[tuple[Adj, Cols]],
    step: int,
    children: Callable[[Adj, Cols], Iterator[tuple[Adj, Cols]]],
    shape: Optional[Callable[[int, Adj], bool]],
    free_of: Sequence[PatternLike],
) -> Iterator[Raw]:
    """Level-wise growth with canonical-code dedup per level.

    ``seeds`` are single-vertex graphs.  Each child is shape-checked,
    then coded, and only the first child of each new code is searched
    for a filter pattern through its fresh vertices; the codes that fail
    are kept per level in ``rejected`` so that no later child of the
    same class is searched again.  Each level is yielded in ascending
    canonical-code order; nothing is yielded when ``n_max`` is below 1.
    """
    if n_max < 1:
        return
    checks = [_compile(_as_graph(p)) for p in free_of]

    def filtered(n: int, adj: Adj, fresh: range) -> bool:
        if checks:
            deg = [m.bit_count() for m in adj]
            for c in checks:
                for v in fresh:
                    if _contains_anchored(n, adj, deg, c, v):
                        return True
        return False

    n = 1
    level: dict[bytes, tuple[Adj, Cols]] = {}
    for adj, cols in seeds:
        if (shape is None or shape(1, adj)) and not filtered(1, adj, range(1)):
            level[canon_code(1, adj, cols)] = (adj, cols)
    while True:
        for code in sorted(level):
            adj, cols = level[code]
            yield n, adj, cols
        n += step
        if n > n_max:
            return
        fresh = range(n - step, n)
        nxt: dict[bytes, tuple[Adj, Cols]] = {}
        rejected: set[bytes] = set()
        for padj, pcols in level.values():
            for adj, cols in children(padj, pcols):
                if shape is not None and not shape(n, adj):
                    continue
                code = canon_code(n, adj, cols)
                if code in nxt or code in rejected:
                    continue
                if filtered(n, adj, fresh):
                    rejected.add(code)
                else:
                    nxt[code] = (adj, cols)
        level = nxt


def grow_graphs(
    n_max: int,
    *,
    bipartite: bool = False,
    free_of: Sequence[PatternLike] = (),
) -> Iterator[Graph]:
    """All connected graphs with <= n_max vertices, up to isomorphism.

    Optional filters: keep only bipartite graphs, and/or only graphs with
    no induced copy of any pattern in ``free_of``.  Yields levels in
    ascending vertex count, each level in ascending canonical-code order.
    """

    def children(padj: Adj, _: Cols) -> Iterator[tuple[Adj, Cols]]:
        pn = len(padj)
        new_bit = 1 << pn
        for mask in range(1, 1 << pn):
            yield tuple(
                padj[i] | new_bit if mask >> i & 1 else padj[i]
                for i in range(pn)
            ) + (mask,), None

    def is_bipartite(n: int, adj: Adj) -> bool:
        return two_colouring(n, adj) is not None

    shape = is_bipartite if bipartite else None
    for n, adj, _ in _grow(n_max, [((0,), None)], 1, children, shape, free_of):
        yield Graph.from_masks(n, adj)


def grow_bicolored_raw(n_max: int) -> Iterator[Raw]:
    """All two-coloured bipartite graphs with <= n_max vertices.

    Colour 0 is white, colour 1 black; edges only join opposite colours.
    Disconnected graphs included.  Yields raw (n, adjacency masks,
    colours) triples, one per colour-preserving isomorphism class.
    """

    def children(padj: Adj, pcols: Cols) -> Iterator[tuple[Adj, Cols]]:
        pn = len(padj)
        new_bit = 1 << pn
        for col in (0, 1):
            opposite = sum(1 << v for v in range(pn) if pcols[v] != col)
            sub = opposite
            while True:
                yield tuple(
                    padj[i] | new_bit if sub >> i & 1 else padj[i]
                    for i in range(pn)
                ) + (sub,), pcols + (col,)
                if sub == 0:
                    break
                sub = (sub - 1) & opposite

    seeds = [((0,), (0,)), ((0,), (1,))]
    return _grow(n_max, seeds, 1, children, None, ())


def grow_balanced_bicolored_raw(
    n_max: int,
    free_of: Sequence[PatternLike] = (),
) -> Iterator[Raw]:
    """Connected two-coloured bipartite graphs with one more black than
    white vertex, up to n_max vertices, one per colour-preserving class.

    Grows by adding a (white, black) pair per step; levels are the odd
    vertex counts.  Yields raw (n, adjacency masks, colours) triples.
    """

    def children(padj: Adj, pcols: Cols) -> Iterator[tuple[Adj, Cols]]:
        pn = len(padj)
        w_ix, b_ix = pn, pn + 1
        old_whites = sum(1 << v for v in range(pn) if pcols[v] == 0)
        old_blacks = sum(1 << v for v in range(pn) if pcols[v] == 1)
        ccols = pcols + (0, 1)
        wmask = old_blacks
        while True:
            bmask = old_whites
            while True:
                for wb in (0, 1):
                    w_row = wmask | (wb << b_ix)
                    b_row = bmask | (wb << w_ix)
                    yield tuple(
                        padj[i]
                        | ((wmask >> i & 1) << w_ix)
                        | ((bmask >> i & 1) << b_ix)
                        for i in range(pn)
                    ) + (w_row, b_row), ccols
                if bmask == 0:
                    break
                bmask = (bmask - 1) & old_whites
            if wmask == 0:
                break
            wmask = (wmask - 1) & old_blacks

    def is_connected(n: int, adj: Adj) -> bool:
        return component_mask(adj, 0) == (1 << n) - 1

    return _grow(n_max, [((0,), (1,))], 2, children, is_connected, free_of)
