"""Canonical byte codes for small, optionally vertex-coloured graphs.

The certificate is the minimum adjacency encoding over the leaves of an
individualisation-refinement tree: start from the equitable refinement
of the (colour, degree) partition, split the first non-singleton cell by
individualising each of its vertices in turn (skipping pairwise twins,
which are swapped by an automorphism), refine again, and recurse.  Each
leaf is a discrete partition, i.e. a vertex ordering; its code packs the
colour sequence and the upper-triangular adjacency bits of the reordered
graph.  Colours are 0 and 1.  Two graphs get the same code exactly when
a colour-preserving isomorphism exists, and every code decodes back to a
representative, so codes double as dictionary keys for isomorphism-free
enumeration.

Cell indices only ever split monotonically (refinement keys sort by old
class first), so the colour blocks keep their relative order and the
colour sequence of every leaf is simply ``sorted(colours)``.

The search meets automorphisms on its way, and a caller that passes an
``autos`` list receives them: the transposition of each twin pair it
skips, and, for every leaf whose encoding equals the best one, the
permutation taking the first such leaf's ordering onto it.  Together
they generate the whole colour-preserving automorphism group: every
leaf with the best encoding is the image of the first one under exactly
one automorphism, and the leaves below a skipped twin are the images of
its tried twin's leaves under their transposition.  The search itself
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

from typing import Optional, Sequence

__all__ = ["canon_code", "decode_code", "MAX_CANON_VERTICES"]

MAX_CANON_VERTICES = 32
_COLOURS = frozenset((0, 1))


def _rank(keys: list) -> list[int]:
    lookup = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [lookup[k] for k in keys]


def _refine(n: int, nbrs: list[tuple[int, ...]], classes: list[int]) -> list[int]:
    while True:
        keys = [
            (classes[v], tuple(sorted(classes[u] for u in nbrs[v])))
            for v in range(n)
        ]
        new = _rank(keys)
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
    # the automorphisms met, in order and each once, when asked for
    found: Optional[dict[tuple[int, ...], None]] = {} if autos is not None else None

    def leaf(classes: list[int]) -> None:
        nonlocal best, best_order
        order = sorted(range(n), key=classes.__getitem__)
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for i, v in enumerate(order):
            r = 0
            for u in nbrs[v]:
                j = pos[u]
                if j < i:
                    r |= 1 << j
            rows.append(r)
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
            best_order = order
        elif found is not None and cand == best:
            perm = [0] * n
            for v, u in zip(best_order, order):
                perm[v] = u
            found[tuple(perm)] = None

    def descend(classes: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(classes[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            leaf(classes)
            return
        tried: list[int] = []
        for v in cells[target]:
            twin = False
            for u in tried:
                if adj[v] & ~(1 << u) == adj[u] & ~(1 << v):
                    twin = True
                    if found is not None:
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        found[tuple(swap)] = None
                    break
            if twin:
                continue
            tried.append(v)
            forced = _rank(
                [(classes[u], 0 if u == v else 1) for u in range(n)]
            )
            descend(_refine(n, nbrs, forced))

    descend(classes)
    assert best is not None
    if found:
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
