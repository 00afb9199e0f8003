"""Exhaustive generation of small graphs, one per isomorphism class.

All three generators run one level-wise loop, ``_grow``: each level is a
dict from canonical code to the first representative seen, stored as
the payload of a code (the layout is in the ``canonical`` docstring),
and the children of every representative are formed by adding ``step``
fresh vertices.  Each child goes through four steps, cheapest first:

1. the orbit skip: a child whose fresh rows and colours an automorphism
   of its parent maps onto those of an earlier child of the same parent
   is dropped before anything else is done with it;
2. the generator's shape check (bipartite or connected);
3. its canonical code, and a skip if that code is already kept in the
   next level or already rejected at it;
4. otherwise, the induced filter search through the fresh vertices, run
   once for the class: a passing child is kept as the representative of
   its code, a failing one leaves its code among the rejected.

The parent automorphisms are the generators ``canon_code`` reports while
coding the parent (kept only for the representatives that are grown
further).  An automorphism of the parent, extended by fixing the fresh
vertices, is an isomorphism from one child onto the other, so a skipped
child always has an isomorphic child earlier in the same parent's
sequence: its class was met before it, and the earlier child decided
its shape, code and filter verdict.  The first child of every class is
the first of its orbit, so it is never skipped; this is the part of
orderly generation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998) that keeps every representative and the yield
order, while sparing the code of every later child of the same orbit.

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

from .canonical import _decode, _encode, canon_code
from .graphs import Graph, component_mask, two_colouring
from .patterns import PatternLike, _compile, _contains_anchored

__all__ = ["grow_graphs", "grow_bicolored_raw", "grow_balanced_bicolored_raw"]

Adj = tuple[int, ...]
Cols = tuple[int, ...]
Raw = tuple[int, Adj, Cols]
Gens = tuple[tuple[int, ...], ...]


def _orbit(rows: Adj, images: list[list[int]], low: int) -> set[Adj]:
    """The fresh rows ``rows`` under the group generated by the parent
    automorphisms whose bit images are ``images``: each generator moves
    the parent bits (those in ``low``) and fixes the fresh ones."""
    orbit = {rows}
    stack = [rows]
    while stack:
        r = stack.pop()
        for img in images:
            out = []
            for x in r:
                y = x & ~low
                x &= low
                while x:
                    b = x & -x
                    x ^= b
                    y |= img[b.bit_length() - 1]
                out.append(y)
            q = tuple(out)
            if q not in orbit:
                orbit.add(q)
                stack.append(q)
    return orbit


def _grow(
    n_max: int,
    seeds: Iterable[tuple[Adj, Cols]],
    step: int,
    children: Callable[[Adj, Cols], Iterator[tuple[Adj, Cols]]],
    shape: Optional[Callable[[int, Adj], bool]],
    free_of: Sequence[PatternLike],
) -> Iterator[Raw]:
    """Level-wise growth with canonical-code dedup per level.

    ``seeds`` are single-vertex graphs coloured 0/1 (an uncoloured graph
    is coloured all 0).  Children go through the four steps of the module
    docstring; the codes whose filter search fails are kept per level in
    ``rejected`` so that no later child of the same class is searched
    again.  A level maps each code, read as a big-endian int (all codes of
    one level have one length, so the order is that of the bytes), to its
    representative's payload (see ``canonical``); the automorphism
    generators of the representatives that will be grown further are kept
    beside it.  Each level is yielded in ascending code order; nothing is
    yielded when ``n_max`` is below 1.
    """
    if n_max < 1:
        return
    checks = [_compile(p) for p in free_of]

    def filtered(n: int, adj: Adj, fresh: range) -> bool:
        if checks:
            deg = [m.bit_count() for m in adj]
            for c in checks:
                for v in fresh:
                    if _contains_anchored(n, adj, deg, c, v):
                        return True
        return False

    def grow(
        pn: int, level: dict[int, int], gens_of: dict[int, Gens]
    ) -> tuple[dict[int, int], dict[int, Gens]]:
        n = pn + step
        fresh = range(pn, n)
        low = (1 << pn) - 1
        # generators are kept only for the representatives grown further
        autos: Optional[list[tuple[int, ...]]] = [] if n + step <= n_max else None
        nxt: dict[int, int] = {}
        nxt_gens: dict[int, Gens] = {}
        rejected: set[int] = set()
        for pcode, packed in level.items():
            padj, pcols = _decode(pn, packed)
            gens = gens_of.get(pcode)
            if gens:
                images = [[1 << q for q in p] for p in gens]
                met: set = set()
            for adj, cols in children(padj, pcols):
                if gens:
                    key = cols[pn:], adj[pn:]
                    if key in met:
                        continue
                    met.update((key[0], r) for r in _orbit(key[1], images, low))
                if shape is not None and not shape(n, adj):
                    continue
                code = int.from_bytes(canon_code(n, adj, cols, autos), "big")
                if code not in nxt and code not in rejected:
                    if filtered(n, adj, fresh):
                        rejected.add(code)
                    else:
                        nxt[code] = _encode(n, cols, adj)
                        if autos:
                            nxt_gens[code] = tuple(autos)
                if autos:
                    autos.clear()
        return nxt, nxt_gens

    n = 1
    level: dict[int, int] = {}
    for adj, cols in seeds:
        if (shape is None or shape(1, adj)) and not filtered(1, adj, range(1)):
            level[int.from_bytes(canon_code(1, adj, cols), "big")] = _encode(1, cols, adj)
    gens_of: dict[int, Gens] = {}
    while n + step <= n_max:
        for code in sorted(level):
            yield (n, *_decode(n, level[code]))
        level, gens_of = grow(n, level, gens_of)
        n += step
    # the last level is never grown: its store is let go as it is yielded,
    # so the consumer's work on it does not run beside the whole store
    reps = [level[code] for code in sorted(level, reverse=True)]
    del level
    while reps:
        yield (n, *_decode(n, reps.pop()))


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
        cols = (0,) * (pn + 1)
        for mask in range(1, 1 << pn):
            yield tuple(
                padj[i] | new_bit if mask >> i & 1 else padj[i]
                for i in range(pn)
            ) + (mask,), cols

    def is_bipartite(n: int, adj: Adj) -> bool:
        return two_colouring(n, adj) is not None

    shape = is_bipartite if bipartite else None
    for n, adj, _ in _grow(n_max, [((0,), (0,))], 1, children, shape, free_of):
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
