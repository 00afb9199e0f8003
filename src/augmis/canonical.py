"""Canonical byte codes for small, optionally vertex-coloured graphs.

The certificate is the minimum adjacency encoding over the leaves of an
individualisation-refinement tree: start from the equitable refinement
of the (colour, degree) partition, split the first non-singleton cell by
individualising each of its vertices in turn, refine again, and recurse.
Individualising v keeps v at its cell's index and moves its cell-mates
and every later cell up by one.  Each leaf is a discrete partition, i.e.
a vertex ordering; its code packs the colour sequence and the
upper-triangular adjacency bits of the reordered graph.  Colours are 0
and 1.  Two graphs get the same code exactly when a colour-preserving
isomorphism exists, and every code decodes back to a representative, so
codes double as dictionary keys for isomorphism-free enumeration.

Cell indices only ever split monotonically (refinement keys sort by old
class first), so the colour blocks keep their relative order and the
colour sequence of every leaf is simply ``sorted(colours)``.

The search prunes by the automorphisms it meets (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).  It
records the transposition of each twin pair of a target cell, and, for
every leaf whose encoding ties with the best one so far, the
permutation taking that best leaf's ordering onto it.  At a node whose
individualised vertices form the prefix, a vertex of the target cell is
skipped when the recorded automorphisms that fix every prefix vertex
generate one that maps it onto a sibling already tried; a twin of a
tried sibling is skipped once its transposition is recorded.  Such an
automorphism fixes the node and maps the tried sibling's subtree onto
the skipped one (refinement commutes with automorphisms), so every
skipped leaf is the image of a searched leaf and has the same encoding:
the minimum, and so the code, is that of the whole tree.

A caller that passes an ``autos`` list receives the recorded
automorphisms, each once.  They generate the whole colour-preserving
automorphism group.  Every leaf with the best encoding is the image of
the first such leaf under exactly one automorphism.  For a searched
leaf, that automorphism was recorded when the leaf was met.  A skipped
leaf is the image of a leaf in an earlier sibling's subtree under a
product of recorded automorphisms, so by induction over the search
order its automorphism is a product of recorded ones too.  The search
is the same with or without the list, so the code is too.

The code of a graph on n vertices is the byte n, then its payload, an
int written little-endian in ceil(n/8) + ceil(n(n-1)/16) bytes: bit i,
for i < n, is vertex i's colour (0 or 1, the only colours ``canon_code``
takes), padded with zeros to whole bytes, then bit i(i-1)/2 + j is set
when j < i are adjacent.  ``_encode`` and ``_decode`` are the one writer
and the one reader of the payload; ``enumeration`` stores its levels as
payloads.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Sequence

__all__ = ["canon_code", "decode_code", "MAX_CANON_VERTICES"]

MAX_CANON_VERTICES = 32
_COLOURS = frozenset((0, 1))


def _rank(keys: list) -> list[int]:
    lookup = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [lookup[k] for k in keys]


def _root(up: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``up``, halving the
    path on the way."""
    while up[x] != x:
        up[x] = x = up[up[x]]
    return x


def _refine(n: int, nbrs: list[tuple[int, ...]], classes: list[int]) -> list[int]:
    while True:
        get = classes.__getitem__
        new = _rank(
            [(c, tuple(sorted(map(get, row)))) for c, row in zip(classes, nbrs)]
        )
        if new == classes:
            return classes
        classes = new


def canon_code(
    n: int,
    adj: Sequence[int],
    colors: Optional[Sequence[int]] = None,
    autos: Optional[list[tuple[int, ...]]] = None,
) -> bytes:
    """Canonical certificate of a graph given as adjacency bitmasks.

    When ``autos`` is a list, the automorphisms the search meets are
    appended to it, each once, as tuples ``p`` mapping vertex ``v`` to
    ``p[v]``; they preserve adjacency and colours and generate the
    automorphism group (the identity is never appended, so a rigid graph
    leaves the list as it was).

    Colours are 0 and 1 only: the code stores one bit per vertex, so a
    third colour could not be told apart from 1.  Any other colour
    raises ValueError.
    """
    if n > MAX_CANON_VERTICES:
        raise ValueError(f"canonical codes support at most {MAX_CANON_VERTICES} vertices")
    if colors is None:
        cols = (0,) * n
    else:
        cols = tuple(colors)
        if not _COLOURS.issuperset(cols):
            raise ValueError("canonical codes take colours 0 and 1 only")
    nbrs = []
    for v in range(n):
        m = adj[v]
        row = []
        while m:
            low = m & -m
            row.append(low.bit_length() - 1)
            m ^= low
        nbrs.append(tuple(row))
    classes = _rank([(cols[v], len(nbrs[v])) for v in range(n)])
    classes = _refine(n, nbrs, classes)

    best: Optional[tuple[int, ...]] = None
    best_order: list[int] = []
    # the automorphisms met, in order and each once, with the bitmask of
    # the vertices each one moves
    found: dict[tuple[int, ...], int] = {}

    def record(perm: list[int]) -> None:
        moved = 0
        for v in range(n):
            if perm[v] != v:
                moved |= 1 << v
        found.setdefault(tuple(perm), moved)

    def leaf(classes: list[int]) -> None:
        nonlocal best, best_order
        # the partition is discrete, so each vertex's class is its
        # position in the leaf's ordering
        order = [0] * n
        for v, i in enumerate(classes):
            order[i] = v
        rows = []
        for i, v in enumerate(order):
            r = 0
            for u in nbrs[v]:
                j = classes[u]
                if j < i:
                    r |= 1 << j
            rows.append(r)
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
            best_order = order
        elif cand == best:
            perm = [0] * n
            for v, u in zip(best_order, order):
                perm[v] = u
            record(perm)

    def descend(classes: list[int], prefix: int) -> None:
        # class indices are dense, so the partition is discrete iff the
        # largest index is n - 1
        if max(classes, default=-1) == n - 1:
            leaf(classes)
            return
        size = [0] * n
        for c in classes:
            size[c] += 1
        target = 0
        while size[target] == 1:
            target += 1
        tried: list[int] = []
        # the orbits of the automorphisms found so far that fix every
        # vertex of the prefix, as a union-find forest over the vertices;
        # the first ``merged`` of them are in it
        up: list[int] = []
        merged = 0
        for v in [v for v, c in enumerate(classes) if c == target]:
            if merged < len(found):
                if not up:
                    up = list(range(n))
                for p, moved in islice(found.items(), merged, None):
                    if not moved & prefix:
                        while moved:
                            low = moved & -moved
                            moved ^= low
                            x = low.bit_length() - 1
                            up[_root(up, x)] = _root(up, p[x])
                merged = len(found)
            if up:
                r = _root(up, v)
                if any(_root(up, u) == r for u in tried):
                    continue
            twin = False
            for u in tried:
                if adj[v] & ~(1 << u) == adj[u] & ~(1 << v):
                    twin = True
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    record(swap)
                    break
            if twin:
                continue
            tried.append(v)
            # v keeps the cell's index; its cell-mates and every later
            # cell move up by one
            forced = [c + (c >= target) for c in classes]
            forced[v] = target
            descend(_refine(n, nbrs, forced), prefix | 1 << v)

    descend(classes, 0)
    assert best is not None
    if autos is not None:
        autos.extend(found)
    return _pack(n, sorted(cols), best)


def _encode(n: int, cols: Sequence[int], rows: Sequence[int]) -> int:
    """The payload of colours ``cols`` and rows ``rows``; only the bits
    of row i below i are read."""
    x = 0
    for i in range(n - 1, 0, -1):
        x = x << i | rows[i] & ((1 << i) - 1)
    return x << 8 * ((n + 7) // 8) | sum(1 << i for i, c in enumerate(cols) if c)


def _decode(n: int, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Adjacency masks and colours of the payload ``x``."""
    cols = tuple(x >> i & 1 for i in range(n))
    x >>= 8 * ((n + 7) // 8)
    adj = [0] * n
    for i in range(1, n):
        below = x & ((1 << i) - 1)
        x >>= i
        adj[i] |= below
        while below:
            b = below & -below
            below ^= b
            adj[b.bit_length() - 1] |= 1 << i
    return tuple(adj), cols


def _payload_len(n: int) -> int:
    return (n + 7) // 8 + (n * (n - 1) // 2 + 7) // 8


def _pack(n: int, cols: Sequence[int], rows: Sequence[int]) -> bytes:
    return bytes([n]) + _encode(n, cols, rows).to_bytes(_payload_len(n), "little")


def decode_code(code: bytes) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Inverse of canon_code: (n, adjacency masks, colours).

    Bytes past the payload are ignored; a code too short for its vertex
    count raises ValueError.
    """
    if not code or len(code) <= _payload_len(code[0]):
        raise ValueError("code too short for its vertex count")
    n = code[0]
    return (n, *_decode(n, int.from_bytes(code[1 : 1 + _payload_len(n)], "little")))
