"""Acceptance suite: every criterion as one test, one pass line each.

Expected values marked "frozen" below were derived from the independent
oracles in this repository (exhaustive enumeration, label-level brute
force, subset checks) before being pinned; each test re-runs the oracle
route it was derived from.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import random
from itertools import combinations

import pytest

from augmis import (
    ColoredBipartite,
    Graph,
    Pattern,
    PlantSpec,
    SolveConfig,
    bipartite_ramsey_search,
    brute_force_mis,
    class_patterns,
    cycle_graph,
    enumerate_irreducible,
    find_tree_extension,
    gen_free_random,
    hall_surplus_check,
    is_irreducible,
    line_graph,
    max_matching_size,
    path_graph,
    plant_augmenting_tree,
    round_state,
    solve_mis,
    subdivided_star,
    verify_min_classes,
)
from augmis.enumeration import grow_bicolored_raw, grow_graphs
from augmis.finders import augments
from augmis.graphs import mask_of
from augmis.io import format_catalog
from augmis.verify import (
    spider_free_bipartite_corpus,
    verify_path_or_cycle,
    verify_star_anatomy,
)
from conftest import bipartition, neighbourhood

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({name}): PASS{suffix}")


# class-free connected graphs per vertex count, frozen from the
# exhaustive enumeration (canonical-code growth, cross-checked against
# known connected-graph counts at the unfiltered levels)
FREE_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 110, 7: 797, 8: 8992, 9: 156266}


@pytest.mark.slow
def test_criterion_1_oracle_sweep(solver_catalog9):
    cfg = SolveConfig(p=3, catalog_n_max=9)
    per_n: dict[int, int] = {}
    for g in grow_graphs(9, free_of=class_patterns(3)):
        result = solve_mis(g, cfg, solver_catalog9)
        oracle = brute_force_mis(g)
        assert result.alpha == oracle.alpha, tuple(g.adj)
        assert result.iterations <= g.n
        per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == FREE_CLASS_COUNTS
    _report(1, "oracle sweep", f"{sum(per_n.values())} graphs, exact match")


@pytest.mark.slow
def test_criterion_2_line_graph_equivalence(solver_catalog9):
    cfg = SolveConfig(p=3, catalog_n_max=9)
    for seed in range(1000):
        rng = random.Random(seed)
        n = 6 + seed % 9  # 6..14
        density = rng.uniform(0.15, 0.5)
        g = gen_free_random(n, density, [], seed)
        if g.num_edges == 0:
            g = Graph(n, [(0, 1)])
        lg, _ = line_graph(g)
        assert solve_mis(lg, cfg, solver_catalog9).alpha == max_matching_size(g), seed
    _report(2, "line-graph equivalence", "1000 seeded instances")


def test_criterion_3_figure_families():
    for k in range(1, 7):
        n = 2 * k + 1
        pg = path_graph(n)
        evens = frozenset(range(0, n, 2))
        odds = frozenset(range(1, n, 2))
        assert is_irreducible(ColoredBipartite(pg, odds, evens))
        assert not is_irreducible(ColoredBipartite(pg, evens, odds))

        kk = Graph(n, [(i, k + j) for i in range(k) for j in range(k + 1)])
        assert is_irreducible(
            ColoredBipartite(kk, frozenset(range(k)), frozenset(range(k, n)))
        )

        st = subdivided_star(k)
        black = frozenset([0]) | frozenset(range(k + 1, 2 * k + 1))
        assert is_irreducible(ColoredBipartite(st, frozenset(range(1, k + 1)), black))

        even_path = path_graph(2 * k)
        w, b = bipartition(even_path)
        assert not is_irreducible(ColoredBipartite(even_path, w, b))
        assert not is_irreducible(ColoredBipartite(even_path, b, w))
        if 2 * k >= 4:
            even_cycle = cycle_graph(2 * k)
            w, b = bipartition(even_cycle)
            assert not is_irreducible(ColoredBipartite(even_cycle, w, b))
            assert not is_irreducible(ColoredBipartite(even_cycle, b, w))
    _report(3, "figure families", "orders 1..6, exact booleans")


def test_criterion_4_hall_surplus_equivalence():
    def subset_oracle(h: ColoredBipartite) -> bool:
        whites = sorted(h.white)
        for r in range(1, len(whites) + 1):
            for sub in combinations(whites, r):
                if len(neighbourhood(h.graph, sub) & h.black) < r + 1:
                    return False
        return True

    checked = 0
    for n, adj, cols in grow_bicolored_raw(8):
        h = ColoredBipartite(
            Graph.from_masks(n, adj),
            frozenset(v for v in range(n) if not cols[v]),
            frozenset(v for v in range(n) if cols[v]),
        )
        assert hall_surplus_check(h) == subset_oracle(h)
        checked += 1
    assert checked == 1236  # frozen: coloured bipartite classes with <= 8 vertices
    _report(4, "hall surplus equivalence", f"{checked} coloured graphs")


@pytest.fixture(scope="module")
def bipartite_corpus_11():
    return list(spider_free_bipartite_corpus(11))


@pytest.mark.slow
def test_criterion_5_long_path_shape(bipartite_corpus_11):
    report = verify_path_or_cycle(11, bipartite_corpus_11)
    assert report.ok
    # frozen: the qualifying graphs are exactly P8; P9; P10 and C10; P11
    assert report.counts == {8: 1, 9: 1, 10: 2, 11: 1}
    _report(5, "long-path shape", f"{report.checked} graphs, 0 violations")


@pytest.mark.slow
def test_criterion_6_star_anatomy(bipartite_corpus_11):
    report = verify_star_anatomy(11, bipartite_corpus_11)
    assert report.ok
    assert report.checked == 473  # frozen: maximal stars of order >= 3
    _report(6, "star anatomy", f"{report.checked} maximal stars, 0 violations")


def test_criterion_7_planted_extensions():
    grid = [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]
    for seed in range(200):
        k, p = grid[seed % len(grid)]
        rng = random.Random(seed)
        extras = rng.randint(0, 2 * p)
        noise = rng.randint(0, min(extras, 2))
        g, s = plant_augmenting_tree(
            PlantSpec(k=k, p=p, extras=extras, noise=noise, seed=seed)
        )
        smask = mask_of(s)
        cand = find_tree_extension(g, round_state(g, smask), p)
        assert cand is not None, seed
        wmask, bmask = cand
        assert augments(g.adj, smask, wmask, bmask), seed
        bigger = smask & ~wmask | bmask
        assert bigger.bit_count() == len(s) + 1
        assert brute_force_mis(g).alpha == len(s) + 1, seed
    _report(7, "planted extensions", "200 seeded instances, 100% found")


def test_criterion_8_census(unfiltered_catalog9):
    filters = (Pattern("P", (8,)), Pattern("T", (4,)), Pattern("K", (3, 3)))
    cat = enumerate_irreducible(9, filters)
    assert cat.census() == {1: 1, 3: 1, 5: 3, 7: 17, 9: 212}  # frozen
    again = enumerate_irreducible(9, filters)
    assert format_catalog(again) == format_catalog(cat)  # byte-identical re-run

    report = verify_min_classes(9, 4)
    assert report.violations == ()
    assert report.counts == {1: 1, 3: 1, 5: 1, 7: 0, 9: 0}  # frozen
    assert report.checked == len(unfiltered_catalog9)
    _report(8, "census", f"{len(cat)} catalogue entries, 0 classification misses")


def test_criterion_9_matching_forcing_bound():
    first = bipartite_ramsey_search(2, 2)
    second = bipartite_ramsey_search(2, 2)
    assert first.value == second.value == 3  # frozen by exhaustive search

    # stored witness: an avoider with matching 2 and neither structure
    ex = first.extremal
    assert ex is not None
    g = ex.graph
    assert _matching_size_inline(g) == 2
    assert not _has_c4_inline(g)
    assert not _has_induced_2matching_inline(g)

    # exhaustive confirmation at N: every bipartite graph carrying a
    # 3-matching has one of the two structures (independent re-check)
    for sel in range(1 << 6):
        masks = [0] * 6
        off = [(i, j) for i in range(3) for j in range(3) if i != j]
        for i in range(3):
            masks[i] |= 1 << (3 + i)
            masks[3 + i] |= 1 << i
        for bit, (i, j) in enumerate(off):
            if sel >> bit & 1:
                masks[i] |= 1 << (3 + j)
                masks[3 + j] |= 1 << i
        g3 = Graph.from_masks(6, masks)
        assert _has_c4_inline(g3) or _has_induced_2matching_inline(g3)
    _report(9, "matching-forcing bound", "N(2,2) = 3, witness certified")


def _matching_size_inline(g: Graph) -> int:
    best = 0
    edges = list(g.edges())
    for size in range(len(edges), 0, -1):
        for sel in combinations(edges, size):
            used = set()
            ok = True
            for u, v in sel:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                return size
    return best


def _has_c4_inline(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        sub = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
        degs = {}
        for u, v in sub:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
        if len(sub) == 4 and all(degs.get(q, 0) == 2 for q in quad):
            return True
    return False


def _has_induced_2matching_inline(g: Graph) -> bool:
    edges = list(g.edges())
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        cross = [
            (x, y) for x in (a, b) for y in (c, d) if g.has_edge(x, y)
        ]
        if not cross:
            return True
    return False
