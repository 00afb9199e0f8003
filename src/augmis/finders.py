"""Search procedures for augmenting subgraphs.

Given an independent set S, a candidate is a pair (whites, blacks) with
whites inside S and blacks outside; it augments S when the blacks are
independent, outnumber the whites by one or more, and every neighbour of
a black inside S is one of the whites.  Three finders cover the three
shapes a minimal augmenting subgraph can take in the target graph class:
alternating chordless paths of even length, extensions of subdivided
stars, and members of a finite catalogue.  All three read the S-degree
classes of one ``RoundState``, which ``solve_mis`` builds each round from
its bitmask of S; a finder reads S from that state only.  A finder
returns a candidate as the bitmask pair ``(wmask, bmask)``, or None.
``solve_mis`` gives each candidate one verdict, ``augments``, on those
masks, before it applies it, so the path and catalogue finders return
what they find unchecked; the star finder filters its scan with the same
verdict.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_
from typing import NamedTuple, Optional

from .graphs import Graph, bits, mask_of
from .irreducible import Catalog, CatalogEntry
from .patterns import _anchored_order, _Plan, _search

__all__ = [
    "RoundState",
    "round_state",
    "augments",
    "find_augmenting_path",
    "find_tree_extension",
    "find_from_catalog",
]


class RoundState(NamedTuple):
    """What the three finders share about one independent set S.

    ``by_degree[d]`` holds the vertices outside S with exactly d
    neighbours in S.  It has n + 3 classes, so every class from 0 to
    |S| exists, and classes 0-2 exist on every graph.
    """

    smask: int
    rmask: int
    by_degree: list[int]


def round_state(g: Graph, smask: int) -> RoundState:
    """The round state of ``g`` and the independent set with bitmask
    ``smask``."""
    rmask = ((1 << g.n) - 1) & ~smask
    adj = g.adj
    by_degree = [0] * (g.n + 3)
    rest = rmask
    while rest:
        low = rest & -rest
        rest ^= low
        by_degree[(adj[low.bit_length() - 1] & smask).bit_count()] |= low
    return RoundState(smask, rmask, by_degree)


def augments(adj: tuple[int, ...], smask: int, wmask: int, bmask: int) -> bool:
    """Verdict on a candidate given as masks over the graph ``adj``.

    True iff the whites lie inside S, the blacks outside S and within
    the graph, there are more blacks than whites, the blacks are
    independent, and no black has a neighbour in S outside the whites;
    then (S - whites) + blacks is independent and larger than S.
    """
    if wmask & ~smask or bmask & smask or bmask >> len(adj):
        return False
    if bmask.bit_count() <= wmask.bit_count():
        return False
    banned = bmask | (smask & ~wmask)
    rest = bmask
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & banned:
            return False
    return True


def find_augmenting_path(g: Graph, state: RoundState) -> Optional[tuple[int, int]]:
    """An augmenting chordless alternating path, as (whites, blacks)
    masks, or None.

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
    smask, rmask, by_degree = state
    adj = g.adj
    # vertices outside S with at most one (the possible endpoints), exactly
    # one and exactly two S-neighbours
    ends = by_degree[1]
    starts = by_degree[0] | ends
    mids = by_degree[2]

    def reaches_end(w: int, free_b: int, free_w: int) -> bool:
        todo = 1 << w
        while todo:
            x = todo.bit_length() - 1
            todo ^= 1 << x
            nbs = adj[x] & free_b
            if nbs & ends:
                return True
            free_b &= ~nbs
            nbs &= mids
            while nbs:
                low = nbs & -nbs
                nbs ^= low
                nxt = adj[low.bit_length() - 1] & free_w
                todo |= nxt
                free_w &= ~nxt
        return False

    # Depth first on an explicit stack, so no path length hits the
    # recursion limit.  A frame holds the blacks still to try as the next
    # path black, least first, and the path before it: its whites, its
    # blacks, and the vertices adjacent to a path black and to a path
    # white.
    stack = [(starts, 0, 0, 0, 0)] if starts else []
    while stack:
        todo, wmask, bmask, bnbr, wnbr = stack.pop()
        low = todo & -todo
        if todo != low:
            stack.append((todo ^ low, wmask, bmask, bnbr, wnbr))
        cur = low.bit_length() - 1
        bmask |= low
        bnbr |= adj[cur]
        pending = adj[cur] & smask & ~wmask
        if pending == 0:
            return wmask, bmask
        if pending & (pending - 1):
            continue  # two S-neighbours off the path: unfixable
        # w has no chord to an earlier black: such a black's one S-neighbour
        # off the path joined it, and ``pending`` excludes path whites
        w = pending.bit_length() - 1
        # unused blacks with no chord to a path black or an earlier white;
        # every path white is adjacent to a path black
        free_b = rmask & ~(bmask | bnbr | wnbr)
        if not reaches_end(w, free_b, smask & ~bnbr):
            continue
        nxt = adj[w] & free_b
        if nxt:
            stack.append((nxt, wmask | pending, bmask, bnbr, wnbr | adj[w]))
    return None


def find_tree_extension(
    g: Graph, state: RoundState, p: int
) -> Optional[tuple[int, int]]:
    """An augmenting extension of a subdivided star, as (whites, blacks)
    masks, or None.

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
    scan continues.  Each triple's candidate is judged by ``augments``,
    the verdict ``solve_mis`` gives what it applies.

    Cost: a miss visits every triple, sum over m <= 2p of
    C(|S|, m)·C(|R|, m) pairs (Q1, Q2) with R = V - S, which is
    O(|S|^{2p}·|R|^{2p}), each tried against every centre.  A leaf has
    one S-neighbour outside Q1, so at most m + 1 in all: at |Q1| = m the
    leaves are picked from the level's pool, the vertices outside S with
    1 to m + 1 S-neighbours, ascending.  Every middle needs a leaf, so a
    level whose pool is empty is skipped whole, m = 0 included.  For
    m >= 1 the scan first lists (mask, S-neighbourhood) of every
    independent m-subset Q2 of R, in combination order, built from
    per-vertex (bit, adjacency, S-neighbourhood) tuples and stopped at
    the first member adjacent to an earlier one; each Q1 then walks that
    list.  The list holds at most C(|R|, m) pairs, one level at a time,
    and never more than the pairs the level then visits.  A centre is
    tested against its closed neighbourhood.  Measured misses (medians
    of 3, 2 shared cores, Python 3.11.7) on K(1,5) + P(L) with S
    maximum: 0.013 s at n = 20, 0.15 s at n = 24, 1.3 s at n = 28.  On
    K(n,n) with S one side, which is outside the class for n >= p,
    every vertex outside S is a centre, but from n = 2p + 2 on no level
    has a leaf in its pool: at p = 3 a miss takes under 1 ms from n = 8
    up to n = 256.
    """
    if p < 2:
        raise ValueError("class parameter p must be at least 2")
    smask, rmask, by_degree = state
    adj = g.adj
    k_min = p + 2

    centres = list(bits(reduce(or_, by_degree[k_min:], 0)))
    if not centres:
        return None
    r_list = list(bits(rmask))
    ns_of = {v: adj[v] & smask for v in r_list}

    def extension(
        pool: list[int], q1mask: int, q2mask: int, u: int, a0: int
    ) -> Optional[tuple[int, int]]:
        leaves = _pick_leaves(adj, pool, ns_of, smask, q1mask, q2mask, u, a0)
        if leaves is None:
            return None
        wmask = a0 | q1mask
        bmask = (1 << u) | leaves | q2mask
        if augments(adj, smask, wmask, bmask):
            return wmask, bmask
        return None

    # Every centre has at least p+2 middles and each middle needs a leaf
    # from the level's pool, so a level whose pool is empty has no hit.
    # m = 0: Q1 and Q2 are empty
    pool = list(bits(by_degree[1]))
    if pool:
        for u in centres:
            hit = extension(pool, 0, 0, u, ns_of[u])
            if hit is not None:
                return hit

    # m >= 1, on the precomputed tuples
    r_info = [(1 << v, adj[v], ns_of[v]) for v in r_list]
    s_bits = [1 << v for v in bits(smask)]
    c_info = [(u, adj[u] | 1 << u, ns_of[u]) for u in centres]
    for m in range(1, min(2 * p, len(s_bits), len(r_info)) + 1):
        pool = list(bits(reduce(or_, by_degree[1 : m + 2])))
        if not pool:
            continue
        # Q2's mask and S-neighbourhood do not depend on Q1: list them
        # once per level, for the independent m-subsets of R in
        # combination order
        q2s = []
        for q2 in combinations(r_info, m):
            # adjacency is symmetric, so each member is checked against
            # the earlier ones only
            q2mask = ns_q2 = 0
            for bit, nbrs, ns in q2:
                if nbrs & q2mask:
                    break
                q2mask |= bit
                ns_q2 |= ns
            else:
                q2s.append((q2mask, ns_q2))
        for q1 in combinations(s_bits, m):
            q1mask = reduce(or_, q1)
            for q2mask, ns_q2 in q2s:
                for u, closed, ns_u in c_info:
                    if closed & q2mask:
                        continue
                    a0 = ns_u & ~q1mask
                    if a0.bit_count() < k_min:
                        continue
                    if ns_q2 & ~(ns_u | q1mask):
                        continue
                    hit = extension(pool, q1mask, q2mask, u, a0)
                    if hit is not None:
                        return hit
    return None


def _pick_leaves(
    adj: tuple[int, ...],
    pool: list[int],
    ns_of: dict[int, int],
    smask: int,
    q1mask: int,
    q2mask: int,
    u: int,
    a0: int,
) -> Optional[int]:
    """The mask of the least leaf per star middle from ``pool``,
    ascending vertices outside S, or None when some middle has no
    leaf."""
    forbidden = (1 << u) | q2mask
    least: dict[int, int] = {}
    for v in pool:
        if forbidden >> v & 1 or adj[v] & forbidden:
            continue
        key = ns_of[v] & ~q1mask
        if key and not key & (key - 1) and key & a0:
            a = key.bit_length() - 1
            if a not in least:
                least[a] = v
    leaves = 0
    for a in bits(a0):
        v = least.get(a)
        if v is None:
            return None
        leaves |= 1 << v
    return leaves


def find_from_catalog(
    g: Graph, state: RoundState, catalog: Catalog
) -> Optional[tuple[int, int]]:
    """First catalogue entry that is not a path and embeds as an
    augmenting subgraph, as the (whites, blacks) masks of its image, or
    None.

    Path shapes belong to ``find_augmenting_path``: the scan leaves out
    the entries of maximum degree at most 2 (entries are connected with
    one more black than white, so none is a cycle).  An embedded path
    entry is an augmenting chordless alternating path, which that
    exhaustive search finds, so where it returns None no left-out entry
    could embed either.

    Entries are tried smallest first.  An embedding maps entry whites
    into S and entry blacks outside S, preserves adjacency exactly, and
    gives every black image an S-neighbourhood equal to the image of its
    entry neighbours; a black of entry degree d is therefore placed only
    on vertices outside S with exactly d S-neighbours.  Each entry is
    compiled into a search plan for the shared ``patterns._search``
    engine: the plan starts at a black of maximum degree and every later
    vertex attaches to an already-placed one, so no position branches
    over all of S or all of V - S.

    Claw-centre bound: entry blacks are independent, so a white of entry
    degree 3 or more is placed on a vertex of S whose neighbours outside
    S contain an independent triple, the centre of an induced claw with
    its leaves outside S.  Such whites draw from the claw centres only.
    No embedding is lost and the candidate order within each domain is
    unchanged, so the result is the one the search over all of S finds.

    Fit index: an entry can embed only if it has at most n vertices and
    each domain holds at least as many vertices as the entry places in
    it.  The index holds, per domain, the set of entries that fit each
    domain size, and the set of entries that fit each n, as bitsets over
    the scan.  One AND per domain leaves exactly the entries that this
    per-entry count check admits; they are tried in scan order, so the
    first hit is the one the per-entry check finds.  The claw centres are
    computed only when an entry still admitted needs one; on claw-free
    graphs the count check then rejects every entry with such a white.

    White rows (Ullmann's degree refinement, as a count over the whole
    index): an embedding maps each white of entry degree d to its own
    vertex of S, which, S being independent, has d or more neighbours
    outside S.  So for every d, S holds at least as many vertices of
    degree d or more as the entry has whites of degree d or more; the
    rows check the same thing by rank, the r-th largest degree in S
    against the r-th largest white degree.  No embedding is lost, so the
    first hit is unchanged.  These rows come last, after the claw-centre
    row, and only when entries survive it, so inputs whose every entry
    the domain rows refuse (line graphs, the star certifications) pay
    nothing.  On planted star extensions they refuse every entry of the
    final round, which then runs no search: solve-star ``solve_ms_p50``
    went from 0.067 to 0.042 ms (medians of ten 30 s runs, 2 shared
    cores, Python 3.11.7).  The compiled scan and its index are kept for
    the catalogue object's lifetime.
    """
    scan = _scan_of(catalog)
    fit, doms = _admitted(scan, g, state)
    if not fit:
        return None
    adj = g.adj
    g_deg = [m.bit_count() for m in adj]
    images = [0] * g.n
    plans = scan.plans
    while fit:
        low = fit & -fit
        fit ^= low
        plan = plans[low.bit_length() - 1]
        if not _search(plan, adj, g_deg, doms, images, 0, 0):
            continue
        # domains 0 and 1 hold whites, 2 and up blacks
        wmask = bmask = 0
        for v, k in zip(images, plan.dom):
            if k < 2:
                wmask |= 1 << v
            else:
                bmask |= 1 << v
        return wmask, bmask
    return None


class _Scan(NamedTuple):
    """The compiled scan of a catalogue and its fit index.

    ``plans`` holds the compiled plan of each entry that is not a path,
    in catalogue order; bit i of an index mask stands for plans[i].
    ``upto[m]`` is the set of entries with at most m vertices.  ``rows``
    pairs each domain k that some entry needs with ``fits``, where
    ``fits[c]`` is the set of entries that place at most c vertices in
    domain k; domain 1, the claw centres, comes last.  ``whites[r][c]``
    is the set of entries whose whites, by degree descending, have
    degree at most c at position r, or that have at most r whites.
    """

    plans: list[_Plan]
    upto: list[int]
    rows: list[tuple[int, list[int]]]
    whites: list[list[int]]


# Scans keyed by id(catalog).  Each keeps a weak reference to its
# catalogue: the identity check guards against a reused id, and the
# reference's callback drops the scan with the catalogue.
_SCANS: dict[int, tuple[weakref.ref, _Scan]] = {}


def _scan_of(catalog: Catalog) -> _Scan:
    key = id(catalog)
    memo = _SCANS.get(key)
    if memo is not None and memo[0]() is catalog:
        return memo[1]
    plans, sizes, needs, wdegs = [], [], [], []
    for entry in catalog.entries:
        h = entry.graph
        hg = h.graph
        if all(m.bit_count() <= 2 for m in hg.adj):
            continue
        plan, need = _compile_entry(entry)
        plans.append(plan)
        sizes.append(hg.n)
        needs.append(need)
        wdegs.append(sorted(
            (hg.degree(w) for w in range(hg.n) if w not in h.black),
            reverse=True,
        ))
    upto = [0] * (max(sizes, default=0) + 1)
    top: dict[int, int] = {}
    for i, (hn, need) in enumerate(zip(sizes, needs)):
        for m in range(hn, len(upto)):
            upto[m] |= 1 << i
        for k, c in need.items():
            top[k] = max(top.get(k, 0), c)
    rows = [
        (k, [
            mask_of(i for i, need in enumerate(needs) if need[k] <= c)
            for c in range(top[k] + 1)
        ])
        for k in sorted(top, key=lambda k: (k == 1, k))
    ]
    top_white = max((ws[0] for ws in wdegs), default=0)
    whites = [
        [
            mask_of(i for i, ws in enumerate(wdegs) if len(ws) <= r or ws[r] <= c)
            for c in range(top_white + 1)
        ]
        for r in range(max(map(len, wdegs), default=0))
    ]
    scan = _Scan(plans, upto, rows, whites)
    ref = weakref.ref(catalog, lambda _: _SCANS.pop(key, None))
    _SCANS[key] = (ref, scan)
    return scan


def _admitted(scan: _Scan, g: Graph, state: RoundState) -> tuple[int, list[int]]:
    """The scan positions of the entries that pass the count check on
    (g, S), and the search domains: domain 0 is S, domain 1 the claw
    centres in S (computed only when an admitted entry needs one, else
    left empty), domain 2 + d the vertices outside S with exactly d
    neighbours in S.  The white-degree rows come last, and only when
    entries survive the domain rows."""
    smask, rmask, by_degree = state
    doms = [smask, 0, *by_degree]
    upto = scan.upto
    fit = upto[min(g.n, len(upto) - 1)]
    for k, fits in scan.rows:
        # skip a domain that no entry still admitted places a vertex in;
        # an admitted entry has at most n vertices, so its blacks have
        # degree below n and k <= n + 1 is within doms
        if not fit & ~fits[0]:
            continue
        if k == 1:
            doms[1] = _claw_centres(g.adj, smask, rmask)
        fit &= fits[min(doms[k].bit_count(), len(fits) - 1)]
        if not fit:
            break
    if fit:
        fit = _white_fit(scan, g.adj, smask, fit)
    return fit, doms


def _white_fit(scan: _Scan, adj: tuple[int, ...], smask: int, fit: int) -> int:
    """The entries of ``fit`` whose whites fit S by degree.

    A white of entry degree d lands on its own vertex of S, and S is
    independent, so that vertex has d or more neighbours outside S.  So
    the r-th largest degree in S is at least the entry's r-th largest
    white degree, for every r up to its number of whites; ``fit`` holds
    no entry with more whites than S has vertices."""
    degs = []
    rest = smask
    while rest:
        low = rest & -rest
        rest ^= low
        degs.append(adj[low.bit_length() - 1].bit_count())
    degs.sort(reverse=True)
    whites = scan.whites
    top = len(whites[0]) - 1
    for fits, d in zip(whites, degs):
        fit &= fits[d if d < top else top]
    return fit


def _claw_centres(adj: tuple[int, ...], smask: int, rmask: int) -> int:
    """The vertices of S with an independent triple among their
    neighbours outside S."""
    out = 0
    rest = smask
    while rest:
        low = rest & -rest
        rest ^= low
        xs = adj[low.bit_length() - 1] & rmask
        if xs.bit_count() >= 3 and _has_independent_triple(adj, xs):
            out |= low
    return out


def _has_independent_triple(adj: tuple[int, ...], xs: int) -> bool:
    if _two_cliques(adj, xs):
        return False
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


def _two_cliques(adj: tuple[int, ...], xs: int) -> bool:
    """True iff ``xs`` splits into two cliques, so that it holds no
    independent triple.  The complement of G[xs] is 2-coloured breadth
    first, a layer at a time: the next layer is what lies outside the
    common closed neighbourhood of the layer, and a layer that is not a
    clique closes an odd cycle of the complement.  Every neighbourhood in a
    line graph is two cliques, so there no pair is searched."""
    left = xs
    while left:
        layer = left & -left
        while layer:
            left &= ~layer
            common = xs
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                common &= adj[low.bit_length() - 1] | low
            if layer & ~common:
                return False
            layer = left & ~common
    return True


def _compile_entry(entry: CatalogEntry) -> tuple[_Plan, Counter]:
    """The entry's search plan and the number of its vertices each
    domain must hold."""
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
    return plan, counts
