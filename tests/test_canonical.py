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

import pytest
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


@given(graphs_st(max_n=12), st.randoms(use_true_random=False))
def test_decode_round_trip(g, rnd):
    code = canon_code(g.n, g.adj)
    n, masks, cols = decode_code(code)
    assert n == g.n and cols == (0,) * g.n
    assert canon_code(n, masks) == code
    cols = [rnd.randint(0, 1) for _ in range(g.n)]
    code = canon_code(g.n, g.adj, cols)
    n, masks, dcols = decode_code(code)
    assert n == g.n and dcols == tuple(sorted(cols))
    assert canon_code(n, masks, dcols) == code


def fixed_masks(n):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if (u * v + 3 * u + 5 * v) % 7 < 3:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


# codes of fixed_masks(n), uncoloured and with every third vertex black;
# the sizes cross the colour-byte and edge-byte boundaries
PINNED_CODES = {
    8: ("08008220980f", "08e01202980f"),
    9: ("090000b220084c0f", "09c001b240044c0f"),
    16: (
        "100000606985c7040a44a000348087f6a17e",
        "1000fc0831080a849e0797580af00059b1e3",
    ),
    17: (
        "11000000204018065540558528385366b4e057f04b",
        "1100f801208140cc0a8e4bb07110849517550b5cb1",
    ),
    32: (
        "2000000000004094aaaa9a7af4c33f4007e001e800e400e0018007003c00c00300"
        "f82a014055804f2d008e2e801f5e007e80fe3f00e4ff0540fa5f0108ff3b00c0ff0f",
        "200000e0ff2052958e0f1c5040033000ad0054e034c038f081fe02fa0b80ff8002"
        "05a840413d78c8bf4008f8c011c08743005e0e03c07e300ff82604fe03f880fc067c",
    ),
}


def test_pinned_codes():
    for n, (plain, colored) in PINNED_CODES.items():
        masks = fixed_masks(n)
        cols = [1 if v % 3 == 0 else 0 for v in range(n)]
        for hexcode, c in ((plain, None), (colored, cols)):
            code = canon_code(n, masks, c)
            assert code.hex() == hexcode, n
            dn, dmasks, dcols = decode_code(code)
            assert canon_code(dn, dmasks, dcols) == code


def test_decode_code_length():
    code = canon_code(9, fixed_masks(9), [v % 2 for v in range(9)])
    # bytes past the payload are ignored
    assert decode_code(code + b"\x00\xff") == decode_code(code)
    # a code too short for its vertex count is rejected
    for short in (b"", code[:-1], bytes.fromhex("07ab")):
        with pytest.raises(ValueError):
            decode_code(short)


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


def test_colours_other_than_0_and_1_are_refused():
    # one colour bit per vertex: (0, 1, 2) would code as (0, 1, 1), 030600
    assert canon_code(3, [0, 0, 0], (0, 1, 1)).hex() == "030600"
    for cols in ((0, 1, 2), (0, -1, 0), (0, 1, 1.5)):
        with pytest.raises(ValueError, match="colours 0 and 1"):
            canon_code(3, [0, 0, 0], cols)


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


def test_reported_automorphisms_generate_the_group_symmetric():
    # the search prunes by the automorphisms it has met: on C8 and the
    # 3-cube that cuts most of the tree, on the bicliques the twin swaps do
    from augmis import complete_bipartite, cycle_graph

    cube = [0] * 8
    for v in range(8):
        for b in range(3):
            cube[v] |= 1 << (v ^ 1 << b)
    k34 = complete_bipartite(3, 4)
    for masks, cols, order in (
        (complete_bipartite(4, 4).adj, None, 1152),
        (cycle_graph(8).adj, None, 16),
        (cube, None, 48),
        (complete_bipartite(1, 7).adj, None, 5040),
        (k34.adj, (0, 0, 0, 1, 1, 1, 1), 144),
    ):
        n = len(masks)
        cols = cols or (0,) * n
        assert len(automorphisms(n, masks, cols)) == order
        check_reported_automorphisms(n, masks, cols)


def test_packaged_entries_carry_their_codes():
    from augmis.solver import _CATALOG_DATA

    text = (_CATALOG_DATA / "catalog-p3-n9.txt").read_text(encoding="ascii")
    checked = 0
    for line in text.splitlines():
        if line.startswith("c"):
            continue
        code = bytes.fromhex(line.split()[1])
        n, masks, cols = decode_code(code)
        assert canon_code(n, masks, cols) == code
        assert canon_code(n, masks, cols, []) == code
        checked += 1
    assert checked == 235


@settings(max_examples=200)
@given(graphs_st(max_n=7), st.randoms(use_true_random=False))
def test_reported_automorphisms_generate_the_group_colored(g, rnd):
    cols = [rnd.randint(0, 1) for _ in range(g.n)]
    check_reported_automorphisms(g.n, g.adj, cols)
