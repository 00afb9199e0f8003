from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from augmis import Graph, Pattern, enumerate_irreducible, is_independent
from augmis.canonical import canon_code
from augmis.finders import _pick_leaves, augments
from augmis.graphs import bits, mask_of, set_of, two_colouring
from augmis.irreducible import ColoredBipartite
from augmis.solver import _greedy_mask

settings.register_profile(
    "augmis",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("augmis")


@st.composite
def graphs_st(draw, min_n: int = 1, max_n: int = 9):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    sel = draw(st.integers(0, (1 << nbits) - 1))
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if sel >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


# -- oracles the tests share --------------------------------------------


def greedy_initial(g):
    """The greedy start of ``solve_mis``, as vertex ids."""
    return set_of(_greedy_mask(g.adj))


def bicolored(n_white, n_black, edges):
    """Whites 0..n_white-1, blacks n_white..n_white+n_black-1."""
    n = n_white + n_black
    return ColoredBipartite(
        Graph(n, edges),
        frozenset(range(n_white)),
        frozenset(range(n_white, n)),
    )


def verdict(g, smask, cand):
    """``finders.augments`` on S and a candidate ``(wmask, bmask)``."""
    wmask, bmask = cand
    return augments(g.adj, smask, wmask, bmask)


def is_augmenting(g, smask, cand):
    """Verdict on S and a candidate ``(wmask, bmask)``; precondition
    breaches raise instead.

    Preconditions: S independent, candidate whites inside S, candidate
    blacks outside S.  Verdict: blacks independent, strictly more blacks
    than whites, and no black has a neighbour in S outside the whites.
    The set-based reference for ``finders.augments``: the masks are
    unpacked into vertex sets and checked one vertex at a time.
    """
    s = set_of(smask)
    whites, blacks = map(set_of, cand)
    if not is_independent(g, s):
        raise ValueError("S is not independent")
    if not whites <= s:
        raise ValueError("candidate whites must lie inside S")
    if blacks & s:
        raise ValueError("candidate blacks must lie outside S")
    if not is_independent(g, blacks):
        return False
    if len(blacks) <= len(whites):
        return False
    for b in blacks:
        if any(g.has_edge(b, v) for v in s - whites):
            return False
    return True


def neighbourhood(g, us):
    """Union of the neighbourhoods of ``us``; may intersect ``us``."""
    out = set()
    for u in us:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex id {u} out of range for n={g.n}")
        out.update(g.neighbors(u))
    return frozenset(out)


def induced_subgraph(g, xs):
    """Subgraph induced by ``xs``, relabelled densely by ascending old id,
    and the old-id to new-id map."""
    old = sorted(set(xs))
    remap = {v: i for i, v in enumerate(old)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges() if u in remap and v in remap
    ]
    return Graph(len(old), edges), remap


def bipartition(g):
    """``two_colouring`` as vertex sets: per component, the side holding
    the smallest id comes first; None on an odd cycle."""
    sides = two_colouring(g.n, g.adj)
    if sides is None:
        return None
    return set_of(sides[0]), set_of(sides[1])


def max_bipartite_matching(h):
    """A maximum matching of a ColoredBipartite as (white, black) pairs,
    by augmenting paths from each white in turn."""
    match_of = {}  # black -> white

    def assign(w, visited):
        for b in h.graph.neighbors(w):
            if b not in visited:
                visited.add(b)
                if b not in match_of or assign(match_of[b], visited):
                    match_of[b] = w
                    return True
        return False

    for w in sorted(h.white):
        assign(w, set())
    return frozenset((w, b) for b, w in match_of.items())


def automorphisms(n, masks, cols=None):
    """Every colour-preserving automorphism as a tuple ``p`` mapping v to
    ``p[v]``, by a search over all permutations that drops a prefix as
    soon as it breaks adjacency or colours."""
    cols = cols if cols is not None else (0,) * n
    image = [0] * n
    used = [False] * n
    out = []

    def extend(v):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or cols[w] != cols[v]:
                continue
            if all((masks[u] >> v & 1) == (masks[image[u]] >> w & 1)
                   for u in range(v)):
                used[w] = True
                image[v] = w
                extend(v + 1)
                used[w] = False

    extend(0)
    return out


def canonical_code(h):
    """The colour-respecting canonical code a catalogue stores for ``h``."""
    cols = tuple(int(v in h.black) for v in range(h.graph.n))
    return canon_code(h.graph.n, h.graph.adj, cols)


def reference_tree_extension(g, state, p):
    """``find_tree_extension`` as a plain scan: every (Q1, Q2, centre)
    triple in the documented order, with the masks rebuilt per pair."""
    if p < 2:
        raise ValueError("class parameter p must be at least 2")
    smask, rmask, by_degree = state
    adj = g.adj
    k_min = p + 2

    centres = list(bits(reduce(or_, by_degree[k_min:], 0)))
    if not centres:
        return None
    r_list = list(bits(rmask))
    s_list = list(bits(smask))
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
                    wmask = a0 | q1mask
                    bmask = (1 << u) | leaves | q2mask
                    if augments(adj, smask, wmask, bmask):
                        return wmask, bmask
    return None


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def path_greedy_takes_odd_positions(n: int) -> Graph:
    """P(n), n odd, labelled so that ascending-id greedy takes the
    (n - 1) / 2 odd positions: the one augmenting path is the whole
    path."""
    half = n // 2
    ids = [i // 2 if i % 2 else half + i // 2 for i in range(n)]
    return Graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])


@pytest.fixture(scope="session")
def solver_catalog9():
    """Catalogue the p=3 solver uses at the n<=9 desk scale."""
    return enumerate_irreducible(
        9, (Pattern("P", (8,)), Pattern("T", (5,)), Pattern("K", (3, 3)))
    )


@pytest.fixture(scope="session")
def unfiltered_catalog9():
    return enumerate_irreducible(9)
