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

import weakref
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
    "is_augmenting",
    "find_augmenting_path",
    "find_tree_extension",
    "find_from_catalog",
]


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


def find_augmenting_path(g: Graph, s: Iterable[int]) -> Optional[AugCandidate]:
    """An augmenting chordless alternating path, or None.

    The path runs b0 w1 b1 ... wk bk with blacks outside S and whites
    inside, every black's S-neighbours on the path, and no chords; the
    degenerate k=0 case is a single black vertex with no S-neighbour.
    The search is exhaustive, with no length cap.  Exact backtracking:
    endpoint blacks may have at most one S-neighbour, inner blacks exactly
    two, and induced-ness is maintained incrementally, which prunes
    without losing any path.

    Endpoint bound: each time the path takes a white w, it goes on only if
    a black with exactly one S-neighbour is reachable from w, alternating
    through blacks with exactly two S-neighbours and through whites, where
    the blacks are unused and not adjacent to a path black or an earlier
    white, and the whites are not adjacent to a path black.  Every
    completion of the path is such a walk, so the bound is exact; and the
    DFS order is unchanged, so the path returned is the one the unpruned
    search finds first.
    """
    smask = mask_of(s)
    adj = g.adj
    full = (1 << g.n) - 1
    rmask = full & ~smask
    # vertices outside S with at most one (the possible endpoints), exactly
    # one and exactly two S-neighbours
    starts = ends = mids = 0
    for v in bits(rmask):
        k = (adj[v] & smask).bit_count()
        if k <= 1:
            starts |= 1 << v
            if k:
                ends |= 1 << v
        elif k == 2:
            mids |= 1 << v

    def reaches_end(w: int, free_b: int, free_w: int) -> bool:
        todo = 1 << w
        while todo:
            x = todo.bit_length() - 1
            todo ^= 1 << x
            nbs = adj[x] & free_b
            if nbs & ends:
                return True
            free_b &= ~nbs
            for b in bits(nbs & mids):
                nxt = adj[b] & free_w
                todo |= nxt
                free_w &= ~nxt
        return False

    # Depth first on an explicit stack, so no path length hits the
    # recursion limit.  A frame holds the blacks still to try as the next
    # path black, least first, and the path before it: its whites, its
    # blacks, the vertices adjacent to a path black and to a path white,
    # and its vertex order.
    stack = [(starts, 0, 0, 0, 0, ())] if starts else []
    while stack:
        todo, wmask, bmask, bnbr, wnbr, order = stack.pop()
        low = todo & -todo
        if todo != low:
            stack.append((todo ^ low, wmask, bmask, bnbr, wnbr, order))
        cur = low.bit_length() - 1
        bmask |= low
        bnbr |= adj[cur]
        pending = adj[cur] & smask & ~wmask
        if pending == 0:
            cand = AugCandidate(
                set_of(wmask), set_of(bmask), "path", detail=order + (cur,)
            )
            if __debug__:
                assert is_augmenting(g, s, cand)
            return cand
        if pending & (pending - 1):
            continue  # two S-neighbours off the path: unfixable
        w = pending.bit_length() - 1
        if adj[w] & bmask != low:
            continue  # w would chord an earlier black
        # unused blacks with no chord to a path black or an earlier white;
        # every path white is adjacent to a path black
        free_b = rmask & ~(bmask | bnbr | wnbr)
        if not reaches_end(w, free_b, smask & ~bnbr):
            continue
        nxt = adj[w] & free_b
        if nxt:
            stack.append(
                (nxt, wmask | pending, bmask, bnbr, wnbr | adj[w], order + (cur, w))
            )
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
    independent; if they are not, the graph is outside the class and the
    scan continues.
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
                    leaves = _pick_leaves(
                        adj, r_list, ns_of, smask, q1mask, q2mask, u, a0
                    )
                    if leaves is None:
                        continue
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
    g: Graph, s: Iterable[int], catalog: Catalog, *, paths_ruled_out: bool = False
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
    no position branches over all of S or all of V - S.  The compiled
    scan of a catalogue object is kept for its lifetime.

    Claw-centre bound: entry blacks are independent, so a white of entry
    degree 3 or more is placed on a vertex of S whose neighbours outside
    S contain an independent triple, the centre of an induced claw with
    its leaves outside S.  Such whites draw from the claw centres only.
    No embedding is lost and the candidate order within each domain is
    unchanged, so the result is the one the search over all of S finds;
    on claw-free graphs every entry with such a white is skipped by the
    per-domain count check.

    ``paths_ruled_out`` states that ``find_augmenting_path(g, s)`` has
    returned None.  The scan then leaves out the entries that are paths
    (maximum degree at most 2; entries are connected with one more black
    than white, so none is a cycle).  An embedded path entry is an
    augmenting chordless alternating path, which that exhaustive search
    would have found, so no such entry can embed and the result is the
    one the full scan returns.
    """
    s = frozenset(s)
    smask = mask_of(s)
    adj = g.adj
    n = g.n
    rmask = ((1 << n) - 1) & ~smask
    # domain 0 is S, domain 1 the claw centres in S; domain 2 + d holds
    # the vertices outside S with exactly d neighbours in S
    doms = [smask, _claw_centres(adj, smask, rmask)] + [0] * n
    for v in bits(rmask):
        doms[2 + (adj[v] & smask).bit_count()] |= 1 << v
    sizes = [m.bit_count() for m in doms]
    g_deg = [m.bit_count() for m in adj]
    images = [0] * n

    for entry, hn, plan, need in _scan_of(catalog, paths_ruled_out):
        if hn > n:
            continue
        # blacks of an entry that fits have degree < n, so k <= n + 1
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

# The scan of a catalogue: (entry, *compiled plan) in catalogue order.
_ScanItem = tuple[CatalogEntry, int, _Plan, tuple[tuple[int, int], ...]]
# Scans keyed by (id(catalog), paths_ruled_out).  Each keeps a weak
# reference to its catalogue: the identity check guards against a reused
# id, and the reference's callback drops the scan with the catalogue.
_SCANS: dict[tuple[int, bool], tuple[weakref.ref, list[_ScanItem]]] = {}


def _scan_of(catalog: Catalog, paths_ruled_out: bool) -> list[_ScanItem]:
    key = (id(catalog), paths_ruled_out)
    memo = _SCANS.get(key)
    if memo is not None and memo[0]() is catalog:
        return memo[1]
    scan = []
    for entry in catalog.entries:
        hg = entry.graph.graph
        if paths_ruled_out and all(m.bit_count() <= 2 for m in hg.adj):
            continue
        compiled = _ENTRY_PLANS.get(entry.code) or _compile_entry(entry)
        scan.append((entry, *compiled))
    ref = weakref.ref(catalog, lambda _: _SCANS.pop(key, None))
    _SCANS[key] = (ref, scan)
    return scan


def _claw_centres(adj: tuple[int, ...], smask: int, rmask: int) -> int:
    """The vertices of S with an independent triple among their
    neighbours outside S."""
    out = 0
    for v in bits(smask):
        if _has_independent_triple(adj, adj[v] & rmask):
            out |= 1 << v
    return out


def _has_independent_triple(adj: tuple[int, ...], xs: int) -> bool:
    while xs:
        a = xs.bit_length() - 1
        xs ^= 1 << a
        pairs = xs & ~adj[a]  # below a and not adjacent to it
        while pairs:
            b = pairs.bit_length() - 1
            pairs ^= 1 << b
            if pairs & ~adj[b]:
                return True
    return False


def _compile_entry(entry: CatalogEntry) -> _EntryPlan:
    h = entry.graph
    hg = h.graph
    dom_of = [
        2 + hg.degree(v) if v in h.black else int(hg.degree(v) >= 3)
        for v in range(hg.n)
    ]
    first = max(sorted(h.black), key=hg.degree)
    plan = _Plan(hg, _anchored_order(hg, first), dom_of)
    counts = Counter(dom_of)
    counts[0] += counts[1]  # claw centres lie in S too
    need = tuple(sorted(counts.items()))
    compiled = _ENTRY_PLANS[entry.code] = (hg.n, plan, need)
    return compiled
