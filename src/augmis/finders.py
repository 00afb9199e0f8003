"""Search procedures for augmenting subgraphs.

Given an independent set S, a candidate is a pair (whites, blacks) with
whites inside S and blacks outside; it augments S when the blacks are
independent, outnumber the whites by one or more, and every neighbour of
a black inside S is one of the whites.  Three finders cover the three
shapes a minimal augmenting subgraph can take in the target graph class:
alternating chordless paths of even length, extensions of subdivided
stars, and members of a finite catalogue.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .graphs import Graph, bits, is_independent, mask_of, set_of
from .irreducible import Catalog, CatalogEntry
from .patterns import _anchored_order, _Plan, _search

__all__ = [
    "AugCandidate",
    "TreeExtension",
    "ClassViolationWarning",
    "is_augmenting",
    "find_augmenting_path",
    "find_tree_extension",
    "find_from_catalog",
]


class ClassViolationWarning(UserWarning):
    """The input graph broke a structural guarantee of the target class."""


@dataclass(frozen=True)
class TreeExtension:
    """Shape detail of a star-extension candidate."""

    centre: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]
    extra_white: tuple[int, ...]
    extra_black: tuple[int, ...]


@dataclass(frozen=True)
class AugCandidate:
    """A proposed swap: drop ``whites`` from S, add ``blacks``."""

    whites: frozenset[int]
    blacks: frozenset[int]
    shape: str  # "path" | "tree_extension" | "catalog"
    detail: object = None


def is_augmenting(g: Graph, s: Iterable[int], cand: AugCandidate) -> bool:
    """Verdict on a candidate; precondition breaches raise instead.

    Preconditions: S independent, candidate whites inside S, candidate
    blacks outside S.  Verdict: blacks independent, strictly more blacks
    than whites, and no black has a neighbour in S outside the whites.
    """
    s = frozenset(s)
    if not is_independent(g, s):
        raise ValueError("S is not independent")
    if not cand.whites <= s:
        raise ValueError("candidate whites must lie inside S")
    if cand.blacks & s:
        raise ValueError("candidate blacks must lie outside S")
    if not is_independent(g, cand.blacks):
        return False
    if len(cand.blacks) <= len(cand.whites):
        return False
    smask = mask_of(s)
    wmask = mask_of(cand.whites)
    for b in cand.blacks:
        if g.adj[b] & smask & ~wmask:
            return False
    return True


def find_augmenting_path(
    g: Graph, s: Iterable[int], max_len: Optional[int] = None
) -> Optional[AugCandidate]:
    """An augmenting chordless alternating path, or None.

    The path runs b0 w1 b1 ... wk bk with blacks outside S and whites
    inside, every black's S-neighbours on the path, and no chords; the
    degenerate k=0 case is a single black vertex with no S-neighbour.
    ``max_len`` caps the edge length (an even number); None means
    exhaustive.  Exact backtracking: endpoint blacks may have at most one
    S-neighbour, inner blacks exactly two, and induced-ness is maintained
    incrementally, which prunes without losing any path.
    """
    smask = mask_of(s)
    adj = g.adj
    full = (1 << g.n) - 1
    rmask = full & ~smask

    def extend(
        cur: int, wmask: int, bmask: int, order: tuple[int, ...]
    ) -> Optional[tuple[int, int, tuple[int, ...]]]:
        pending = adj[cur] & smask & ~wmask
        if pending == 0:
            return wmask, bmask, order
        if pending & (pending - 1):
            return None  # two S-neighbours off the path: unfixable
        w = pending.bit_length() - 1
        if adj[w] & bmask != 1 << cur:
            return None  # w would chord an earlier black
        if max_len is not None and 2 * (wmask.bit_count() + 1) > max_len:
            return None
        wmask2 = wmask | pending
        used = wmask2 | bmask
        for nb in bits(adj[w] & rmask & ~used):
            if adj[nb] & bmask:
                continue  # black-black chord
            if adj[nb] & wmask2 != pending:
                continue  # chord to an earlier white
            hit = extend(nb, wmask2, bmask | (1 << nb), order + (w, nb))
            if hit is not None:
                return hit
        return None

    for b0 in bits(rmask):
        start = adj[b0] & smask
        if start & (start - 1):
            continue  # endpoints have at most one S-neighbour
        hit = extend(b0, 0, 1 << b0, (b0,))
        if hit is not None:
            wmask, bmask, order = hit
            cand = AugCandidate(
                set_of(wmask), set_of(bmask), "path", detail=order
            )
            if __debug__:
                assert is_augmenting(g, s, cand)
            return cand
    return None


def find_tree_extension(
    g: Graph, s: Iterable[int], p: int
) -> Optional[AugCandidate]:
    """An augmenting extension of a subdivided star, or None.

    Scans all triples (extra whites Q1 inside S, extra blacks Q2 outside,
    centre u outside) with |Q1| = |Q2| <= 2p, Q2 independent and
    non-adjacent to u.  The centre's S-neighbours minus Q1 form the star
    middles; each middle needs a private leaf whose only S-neighbour
    outside Q1 is that middle and which avoids u and Q2.  Middles must
    number at least p+2.  Triples are scanned by |Q1| ascending, then
    lexicographically, then u ascending; leaf choice is the least id, so
    the result is deterministic.

    On inputs from the target class the chosen leaves are automatically
    independent; if they are not, the graph is outside the class, a
    ClassViolationWarning is emitted, and the scan continues.
    """
    if p < 2:
        raise ValueError("class parameter p must be at least 2")
    s = frozenset(s)
    smask = mask_of(s)
    adj = g.adj
    full = (1 << g.n) - 1
    rmask = full & ~smask
    k_min = p + 2

    centres = [u for u in bits(rmask) if (adj[u] & smask).bit_count() >= k_min]
    if not centres:
        return None
    r_list = list(bits(rmask))
    s_list = sorted(s)
    ns_of = {v: adj[v] & smask for v in r_list}

    for m in range(0, 2 * p + 1):
        if m > min(len(s_list), len(r_list)):
            break
        for q1 in combinations(s_list, m):
            q1mask = mask_of(q1)
            for q2 in combinations(r_list, m):
                q2mask = mask_of(q2)
                ok = True
                ns_q2 = 0
                for v in q2:
                    if adj[v] & q2mask:
                        ok = False
                        break
                    ns_q2 |= ns_of[v]
                if not ok:
                    continue
                for u in centres:
                    if q2mask >> u & 1 or adj[u] & q2mask:
                        continue
                    a0 = ns_of[u] & ~q1mask
                    if a0.bit_count() < k_min:
                        continue
                    if ns_q2 & ~(a0 | q1mask):
                        continue
                    cand = _pick_leaves(
                        adj, r_list, ns_of, smask, q1mask, q2mask, u, a0
                    )
                    if cand is None:
                        continue
                    leaves = cand
                    whites = set_of(a0 | q1mask)
                    blacks = (
                        frozenset([u]) | frozenset(leaves) | set_of(q2mask)
                    )
                    result = AugCandidate(
                        whites,
                        blacks,
                        "tree_extension",
                        detail=TreeExtension(
                            u,
                            tuple(bits(a0)),
                            tuple(leaves),
                            tuple(q1),
                            tuple(q2),
                        ),
                    )
                    if is_augmenting(g, s, result):
                        return result
                    warnings.warn(
                        "star leaves were not independent; the input graph "
                        "contains a forbidden spider",
                        ClassViolationWarning,
                        stacklevel=2,
                    )
    return None


def _pick_leaves(
    adj: tuple[int, ...],
    r_list: list[int],
    ns_of: dict[int, int],
    smask: int,
    q1mask: int,
    q2mask: int,
    u: int,
    a0: int,
) -> Optional[list[int]]:
    """Least leaf per star middle, or None when some middle has no pool."""
    forbidden = (1 << u) | q2mask
    pool: dict[int, int] = {}
    for v in r_list:
        if forbidden >> v & 1 or adj[v] & forbidden:
            continue
        key = ns_of[v] & ~q1mask
        if key and not key & (key - 1) and key & a0:
            a = key.bit_length() - 1
            if a not in pool:
                pool[a] = v
    leaves = []
    for a in bits(a0):
        v = pool.get(a)
        if v is None:
            return None
        leaves.append(v)
    return leaves


def find_from_catalog(
    g: Graph, s: Iterable[int], catalog: Catalog
) -> Optional[AugCandidate]:
    """First catalogue entry embeddable as an augmenting subgraph.

    Entries are tried smallest first.  An embedding maps entry whites
    into S and entry blacks outside S, preserves adjacency exactly, and
    gives every black image an S-neighbourhood equal to the image of its
    entry neighbours; a black of entry degree d is therefore placed only
    on vertices outside S with exactly d S-neighbours.  Each entry is
    compiled once per process into a search plan for the shared
    ``patterns._search`` engine: the plan starts at a black of maximum
    degree and every later vertex attaches to an already-placed one, so
    no position branches over all of S or all of V - S.
    """
    s = frozenset(s)
    smask = mask_of(s)
    adj = g.adj
    n = g.n
    # domain 0 is S; domain 1 + d holds the vertices outside S with
    # exactly d neighbours in S
    doms = [smask] + [0] * n
    for v in bits(((1 << n) - 1) & ~smask):
        doms[1 + (adj[v] & smask).bit_count()] |= 1 << v
    sizes = [m.bit_count() for m in doms]
    g_deg = [m.bit_count() for m in adj]
    images = [0] * n

    for entry in catalog.entries:
        hn, plan, need = _ENTRY_PLANS.get(entry.code) or _compile_entry(entry)
        if hn > n:
            continue
        # blacks of an entry that fits have degree < n, so k <= n
        for k, c in need:
            if sizes[k] < c:
                break
        else:
            if not _search(plan, adj, g_deg, doms, images, 0, 0):
                continue
            h = entry.graph
            emb = dict(zip(plan.order, images))
            cand = AugCandidate(
                frozenset(emb[w] for w in h.white),
                frozenset(emb[b] for b in h.black),
                "catalog",
                detail=entry.code,
            )
            if __debug__:
                assert is_augmenting(g, s, cand)
            return cand
    return None


# Vertex count, compiled plan and per-domain position counts, keyed by
# entry code (a catalogue entry's graph is the decoding of its code).
_EntryPlan = tuple[int, _Plan, tuple[tuple[int, int], ...]]
_ENTRY_PLANS: dict[bytes, _EntryPlan] = {}


def _compile_entry(entry: CatalogEntry) -> _EntryPlan:
    h = entry.graph
    hg = h.graph
    dom_of = [1 + hg.degree(v) if v in h.black else 0 for v in range(hg.n)]
    first = max(sorted(h.black), key=hg.degree)
    plan = _Plan(hg, _anchored_order(hg, first), dom_of)
    need = tuple(sorted(Counter(dom_of).items()))
    compiled = _ENTRY_PLANS[entry.code] = (hg.n, plan, need)
    return compiled
