"""Irreducibility, the catalogue enumerator, and the census tools.

The Hall-surplus oracle here enumerates white subsets directly; the
catalogue oracle enumerates every labelled coloured graph of the right
shape.  Both stay independent of the implementations they check.
"""

from itertools import combinations

import pytest

from augmis import (
    ColoredBipartite,
    Graph,
    Pattern,
    bipartite_ramsey_search,
    cycle_graph,
    enumerate_irreducible,
    hall_surplus_check,
    is_free,
    is_irreducible,
    path_graph,
    subdivided_star,
    verify_min_classes,
)
from augmis.enumeration import grow_bicolored_raw
from augmis.graphs import connected_components
from augmis.irreducible import SearchBudgetError, decode_catalog_code
from conftest import (
    bicolored,
    bipartition,
    canonical_code,
    max_bipartite_matching,
    neighbourhood,
)


def alternately_colored_path(n, black_even=True):
    g = path_graph(n)
    evens = frozenset(range(0, n, 2))
    odds = frozenset(range(1, n, 2))
    return ColoredBipartite(g, odds if black_even else evens,
                            evens if black_even else odds)


def black_centred_star(k):
    g = subdivided_star(k)
    black = frozenset([0]) | frozenset(range(k + 1, 2 * k + 1))
    return ColoredBipartite(g, frozenset(range(1, k + 1)), black)


def test_colored_bipartite_validation():
    with pytest.raises(ValueError):
        bicolored(2, 1, [(0, 1)])  # white-white edge
    with pytest.raises(ValueError):
        ColoredBipartite(Graph(2), frozenset({0}), frozenset({0, 1}))


def test_matching_examples():
    assert len(max_bipartite_matching(bicolored(2, 3, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]))) == 2
    p5 = alternately_colored_path(5)  # 2 white, 3 black
    assert len(max_bipartite_matching(p5)) == 2
    assert max_bipartite_matching(bicolored(2, 2, [])) == frozenset()


def oracle_hall_surplus(h: ColoredBipartite) -> bool:
    whites = sorted(h.white)
    for r in range(1, len(whites) + 1):
        for sub in combinations(whites, r):
            if len(neighbourhood(h.graph, sub) & h.black) < r + 1:
                return False
    return True


def test_hall_examples():
    assert hall_surplus_check(bicolored(1, 2, [(0, 1), (0, 2)]))
    assert not hall_surplus_check(bicolored(1, 1, [(0, 1)]))
    assert hall_surplus_check(bicolored(3, 4, [(i, 3 + j) for i in range(3) for j in range(4)]))
    # white vertex with no black at all
    assert not hall_surplus_check(bicolored(1, 0, []))


def test_hall_matches_subset_oracle_small():
    checked = 0
    for n, adj, cols in grow_bicolored_raw(6):
        h = ColoredBipartite(
            Graph.from_masks(n, adj),
            frozenset(v for v in range(n) if not cols[v]),
            frozenset(v for v in range(n) if cols[v]),
        )
        assert hall_surplus_check(h) == oracle_hall_surplus(h)
        checked += 1
    assert checked == 2 + 4 + 8 + 17 + 38 + 94  # colored classes per size
    # disconnected edge cases the grown graphs do not reach
    edge_cases = [
        # a white with no neighbour
        (bicolored(2, 3, [(0, 2), (0, 3), (0, 4)]), False),
        (bicolored(1, 3, []), False),
        # an isolated black is free in every matching but no one's neighbour
        (bicolored(1, 3, [(0, 1), (0, 2)]), True),
        (bicolored(1, 2, [(0, 1)]), False),
        (bicolored(2, 4, [(0, 2), (0, 3), (1, 3), (1, 4)]), True),
        (bicolored(2, 4, [(0, 2), (1, 2), (0, 3)]), False),
        # W empty: no subset to check
        (bicolored(0, 0, []), True),
        (bicolored(0, 3, []), True),
    ]
    for h, want in edge_cases:
        assert hall_surplus_check(h) == oracle_hall_surplus(h) == want


def test_is_irreducible_examples():
    assert is_irreducible(alternately_colored_path(7))
    c6 = cycle_graph(6)
    w, b = bipartition(c6)
    assert not is_irreducible(ColoredBipartite(c6, w, b))
    assert is_irreducible(black_centred_star(3))
    assert is_irreducible(bicolored(0, 1, []))  # lone black vertex


def test_long_path_whose_last_white_reroutes_every_other():
    # b0 w0 b1 w1 ... w(k-1) bk with the black ids ordered b1 < ... < bk < b0
    # and the white ids w1 < ... < w(k-1) < w0: w0 comes last and its first
    # neighbour, b1, sends an augmenting path through all k - 1 other whites
    k = 3000
    white = {i: i - 1 for i in range(1, k)}
    white[0] = k - 1
    black = {i: k + i - 1 for i in range(1, k + 1)}
    black[0] = 2 * k
    edges = [(white[i], black[i]) for i in range(k)]
    edges += [(white[i], black[i + 1]) for i in range(k)]
    h = ColoredBipartite(
        Graph(2 * k + 1, edges), frozenset(white.values()), frozenset(black.values())
    )
    assert hall_surplus_check(h)
    assert is_irreducible(h)


@pytest.mark.parametrize("k", range(1, 7))
def test_figure_families(k):
    assert is_irreducible(alternately_colored_path(2 * k + 1))
    assert not is_irreducible(alternately_colored_path(2 * k + 1, black_even=False))
    sides = [(i, k + j) for i in range(k) for j in range(k + 1)]
    assert is_irreducible(bicolored(k, k + 1, sides))
    assert is_irreducible(black_centred_star(k))


def test_canonical_code_examples():
    a = bicolored(1, 2, [(0, 1), (0, 2)])  # P3 black-white-black
    relabeled = ColoredBipartite(
        Graph(3, [(1, 0), (1, 2)]), frozenset({1}), frozenset({0, 2})
    )
    assert canonical_code(a) == canonical_code(relabeled)
    assert canonical_code(a) != canonical_code(bicolored(0, 1, []))
    k23 = bicolored(2, 3, [(i, 2 + j) for i in range(2) for j in range(3)])
    p5 = alternately_colored_path(5)
    assert canonical_code(k23) != canonical_code(p5)


def test_canonical_code_decodes():
    h = black_centred_star(3)
    back = decode_catalog_code(canonical_code(h))
    assert canonical_code(back) == canonical_code(h)
    assert len(back.white) == len(h.white)


def test_enumerate_smallest():
    cat1 = enumerate_irreducible(1)
    assert cat1.census() == {1: 1}
    only = cat1.entries[0].graph
    assert only.graph.n == 1 and not only.white

    cat3 = enumerate_irreducible(3)
    assert cat3.census() == {1: 1, 3: 1}


def brute_catalog_codes(n_max, filters):
    codes = set()
    for m in range((n_max - 1) // 2 + 1):
        n = 2 * m + 1
        if n > n_max:
            break
        pairs = [(w, m + b) for w in range(m) for b in range(m + 1)]
        for sel in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if sel >> i & 1]
            g = Graph(n, edges)
            if len(connected_components(g)) > 1:
                continue
            h = ColoredBipartite(
                g, frozenset(range(m)), frozenset(range(m, n))
            )
            if not is_irreducible(h):
                continue
            if filters and not is_free(g, filters):
                continue
            codes.add(canonical_code(h))
    return codes


def test_enumerate_matches_label_level_brute_force():
    assert {e.code for e in enumerate_irreducible(5).entries} == brute_catalog_codes(5, ())
    filters = (Pattern("P", (8,)), Pattern("T", (4,)), Pattern("K", (3, 3)))
    got = enumerate_irreducible(7, filters)
    assert {e.code for e in got.entries} == brute_catalog_codes(7, filters)
    assert got.census() == {1: 1, 3: 1, 5: 3, 7: 17}


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        enumerate_irreducible(0)
    with pytest.raises(ValueError):
        enumerate_irreducible(15)


def test_enumerate_is_stable():
    filters = (Pattern("P", (8,)), Pattern("K", (3, 3)))
    a = enumerate_irreducible(7, filters)
    b = enumerate_irreducible(7, filters)
    assert [e.code for e in a.entries] == [e.code for e in b.entries]


def test_catalog_entries_satisfy_invariants():
    cat = enumerate_irreducible(7, (Pattern("K", (2, 2)),))
    for e in cat.entries:
        h = e.graph
        assert len(h.white) == len(h.black) - 1
        assert len(connected_components(h.graph)) == 1
        assert is_irreducible(h)
        assert is_free(h.graph, cat.filters)


def test_ramsey_bounds():
    assert bipartite_ramsey_search(1, 1).value == 1
    assert bipartite_ramsey_search(1, 2).value == 1
    res = bipartite_ramsey_search(2, 2)
    assert res.value == 3
    # the recorded extremal avoider: matching of size 2, no biclique K(2,2),
    # no induced 2-edge matching; it is P4 up to isomorphism
    ex = res.extremal
    assert ex is not None and ex.graph.n == 4 and ex.graph.num_edges == 3
    assert len(max_bipartite_matching(ex)) == 2


def test_ramsey_budget_error():
    # half graphs on 5 + 5 vertices hold neither K(4,4) nor an induced
    # 2-matching, so the search goes on to matching size 6, whose 2^30
    # graphs are over the budget
    with pytest.raises(SearchBudgetError, match="matching size 6"):
        bipartite_ramsey_search(4, 2)
    with pytest.raises(ValueError):
        bipartite_ramsey_search(0, 1)


def test_min_classes_censuses():
    r3 = verify_min_classes(7, 3)
    assert r3.counts == {1: 1, 3: 0, 5: 0, 7: 0}
    assert r3.ok
    r4 = verify_min_classes(7, 4)
    assert r4.counts == {1: 1, 3: 1, 5: 1, 7: 0}
    assert r4.ok
    # every irreducible graph is classified
    assert r4.checked == len(enumerate_irreducible(7)) == 25
