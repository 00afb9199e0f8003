"""Canonical codes: invariance, decodability, and completeness at small n.

Completeness (equal codes imply isomorphism) is structural: a code
decodes to a representative graph, so equal codes mean both graphs are
isomorphic to the same representative.  The tests therefore concentrate
on invariance, plus an exhaustive class count against a label-level
brute force at n <= 5, and on the automorphisms a search reports: each
one is an automorphism, and together they generate the whole group.
"""

import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from augmis.canonical import canon_code, decode_code
from conftest import automorphisms, graphs_st


def permuted(n, masks, perm):
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if masks[u] >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


@given(graphs_st(max_n=9), st.randoms(use_true_random=False))
def test_invariance_under_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canon_code(g.n, permuted(g.n, g.adj, perm)) == canon_code(g.n, g.adj)


@given(graphs_st(max_n=8), st.randoms(use_true_random=False))
def test_colored_invariance(g, rnd):
    cols = [rnd.randint(0, 1) for _ in range(g.n)]
    perm = list(range(g.n))
    rnd.shuffle(perm)
    pmasks = permuted(g.n, g.adj, perm)
    pcols = [0] * g.n
    for v in range(g.n):
        pcols[perm[v]] = cols[v]
    assert canon_code(g.n, pmasks, pcols) == canon_code(g.n, g.adj, cols)


@given(graphs_st(max_n=9))
def test_decode_round_trip(g):
    code = canon_code(g.n, g.adj)
    n, masks, cols = decode_code(code)
    assert n == g.n and cols == (0,) * g.n
    assert canon_code(n, masks) == code


def brute_class_count(n):
    """Isomorphism classes of labelled graphs on n vertices, by brute force."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = set()
    for sel in range(1 << len(pairs)):
        masks = [0] * n
        for k, (u, v) in enumerate(pairs):
            if sel >> k & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        canon = min(
            tuple(permuted(n, masks, perm)) for perm in permutations(range(n))
        )
        seen.add(canon)
    return len(seen)


def test_exhaustive_class_counts_small():
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        codes = set()
        for sel in range(1 << len(pairs)):
            masks = [0] * n
            for k, (u, v) in enumerate(pairs):
                if sel >> k & 1:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            codes.add(canon_code(n, masks))
        assert len(codes) == brute_class_count(n)


def test_colored_codes_separate_colors():
    # paths P3 coloured alternately: swapped colourings are different objects
    masks = [0b010, 0b101, 0b010]
    a = canon_code(3, masks, (1, 0, 1))
    b = canon_code(3, masks, (0, 1, 0))
    assert a != b
    # but relabelling the same colouring is invariant
    assert canon_code(3, masks, (1, 0, 1)) == canon_code(
        3, [0b010, 0b101, 0b010][::-1], (1, 0, 1)[::-1]
    )


def test_highly_symmetric_graphs():
    # complete bipartite sides are twin-heavy; codes must stay exact
    from augmis import complete_bipartite, cycle_graph

    k67 = complete_bipartite(6, 7)
    code = canon_code(k67.n, k67.adj)
    rng = random.Random(7)
    for _ in range(5):
        perm = list(range(13))
        rng.shuffle(perm)
        assert canon_code(13, permuted(13, k67.adj, perm)) == code
    c9 = cycle_graph(9)
    code9 = canon_code(9, c9.adj)
    for _ in range(5):
        perm = list(range(9))
        rng.shuffle(perm)
        assert canon_code(9, permuted(9, c9.adj, perm)) == code9


# -- reported automorphisms -------------------------------------------------


def generated_order(n, gens):
    """Order of the permutation group generated by ``gens``."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                c = tuple(h[g[v]] for v in range(n))
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(group)


def check_reported_automorphisms(n, masks, cols):
    autos = []
    assert canon_code(n, masks, cols, autos) == canon_code(n, masks, cols)
    for p in autos:
        assert sorted(p) == list(range(n)) and p != tuple(range(n))
        assert all(cols[p[v]] == cols[v] for v in range(n))
        assert permuted(n, masks, p) == list(masks)
    assert generated_order(n, autos) == len(automorphisms(n, masks, cols))


def graph_classes(n_max):
    """One labelled graph per isomorphism class on 1..n_max vertices,
    grown by adding a vertex with every neighbourhood."""
    level = {canon_code(1, [0]): (0,)}
    out = list(level.values())
    for n in range(2, n_max + 1):
        nxt = {}
        for masks in level.values():
            for nb in range(1 << (n - 1)):
                child = tuple(
                    m | (1 << (n - 1)) * (nb >> v & 1) for v, m in enumerate(masks)
                ) + (nb,)
                nxt.setdefault(canon_code(n, child), child)
        level = nxt
        out.extend(level.values())
    return out


def test_reported_automorphisms_generate_the_group_small():
    classes = graph_classes(6)
    assert len(classes) == 1 + 2 + 4 + 11 + 34 + 156
    for masks in classes:
        n = len(masks)
        check_reported_automorphisms(n, masks, (0,) * n)


@settings(max_examples=200)
@given(graphs_st(max_n=7), st.randoms(use_true_random=False))
def test_reported_automorphisms_generate_the_group_colored(g, rnd):
    cols = [rnd.randint(0, 1) for _ in range(g.n)]
    check_reported_automorphisms(g.n, g.adj, cols)
