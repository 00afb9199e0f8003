import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    AugCandidate,
    Graph,
    Pattern,
    SolveConfig,
    augment,
    brute_force_mis,
    class_patterns,
    complete_graph,
    cycle_graph,
    default_catalog,
    enumerate_irreducible,
    gen_free_random,
    greedy_initial,
    is_augmenting,
    is_independent,
    line_graph,
    path_graph,
    solve_mis,
)
from augmis.enumeration import grow_graphs
from augmis.io import read_catalog, write_catalog
from augmis.irreducible import Catalog
from augmis.solver import DEFAULT_CATALOG_CENSUS, _default_filters, catalog_covers
from conftest import graphs_st, path_greedy_takes_odd_positions, petersen


def test_greedy_examples():
    assert greedy_initial(path_graph(3)) == {0, 2}
    assert greedy_initial(complete_graph(4)) == {0}
    assert greedy_initial(Graph(5)) == set(range(5))


@given(graphs_st(max_n=10))
def test_greedy_is_maximal_independent(g):
    s = greedy_initial(g)
    assert is_independent(g, s)
    for v in set(range(g.n)) - s:
        assert not is_independent(g, s | {v})


def test_augment_examples():
    p3 = path_graph(3)
    c = AugCandidate(frozenset({1}), frozenset({0, 2}), "x")
    assert augment(p3, {1}, c) == {0, 2}
    g = Graph(3, [(0, 1)])
    c = AugCandidate(frozenset(), frozenset({2}), "x")
    assert augment(g, {0}, c) == {0, 2}
    with pytest.raises(ValueError):
        augment(p3, {1}, AugCandidate(frozenset({1}), frozenset({0}), "x"))


@settings(max_examples=150)
@given(graphs_st(max_n=9), st.data())
def test_augment_grows_independent_sets(g, data):
    s = greedy_initial(g)
    if s:
        s = s - {data.draw(st.sampled_from(sorted(s)))}
    k = data.draw(st.integers(0, min(3, len(s))))
    whites = frozenset(data.draw(st.permutations(sorted(s)))[:k])
    rest = sorted(set(range(g.n)) - s)
    if len(rest) < k + 1:
        return
    blacks = frozenset(data.draw(st.permutations(rest))[: k + 1])
    cand = AugCandidate(whites, blacks, "x")
    if not is_augmenting(g, s, cand):
        return
    out = augment(g, s, cand)
    assert is_independent(g, out)
    assert len(out) == len(s) + 1


def test_solve_examples(solver_catalog9):
    assert solve_mis(cycle_graph(5), catalog=solver_catalog9).alpha == 2
    lg, _ = line_graph(complete_graph(4))
    assert solve_mis(lg, catalog=solver_catalog9).alpha == 2
    assert solve_mis(Graph(4), catalog=solver_catalog9).alpha == 4


def test_solve_deterministic(solver_catalog9):
    g = gen_free_random(12, 0.3, class_patterns(3), 11)
    a = solve_mis(g, catalog=solver_catalog9)
    b = solve_mis(g, catalog=solver_catalog9)
    assert a.independent_set == b.independent_set
    assert a.finder_hits == b.finder_hits


def test_class_patterns_flag_out_of_class_input(solver_catalog9):
    from augmis import find_forbidden, spider

    g = spider(1, 1, 4)  # contains the forbidden spider(1,1,3)
    pat, _ = find_forbidden(g, class_patterns(3))
    assert pat == Pattern("S", (1, 1, 3))
    r = solve_mis(g, catalog=solver_catalog9)
    assert is_independent(g, r.independent_set)
    assert find_forbidden(cycle_graph(5), class_patterns(3)) is None


def test_solve_long_path_with_one_augmenting_path(solver_catalog9):
    g = path_greedy_takes_odd_positions(2401)
    assert len(greedy_initial(g)) == 1200
    r = solve_mis(g, catalog=solver_catalog9)
    assert r.alpha == 1201 and r.iterations == 1
    assert r.finder_hits["path"] == 1
    assert is_independent(g, r.independent_set)


def test_solve_soundness_outside_class(solver_catalog9):
    # arbitrary graphs: result is always independent and never above alpha
    for seed in range(20):
        g = gen_free_random(10, 0.5, [Pattern("S", (1, 1, 1))], seed)
        r = solve_mis(g, catalog=solver_catalog9)
        assert is_independent(g, r.independent_set)
        assert r.alpha <= brute_force_mis(g).alpha


def test_brute_force_examples():
    from augmis import complete_bipartite

    assert brute_force_mis(complete_bipartite(3, 3)).alpha == 3
    assert brute_force_mis(petersen()).alpha == 4
    assert brute_force_mis(path_graph(7)).alpha == 4


def test_brute_force_witness_is_least_maximum_set():
    g = cycle_graph(6)
    res = brute_force_mis(g)
    assert res.alpha == 3
    best = min(
        (
            tuple(sorted(sub))
            for sub in combinations(range(6), 3)
            if is_independent(g, sub)
        ),
    )
    assert tuple(sorted(res.witness)) == best
    assert brute_force_mis(petersen()).witness == {0, 2, 8, 9}


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_mis(Graph(31))


@given(graphs_st(max_n=10))
def test_brute_force_witness_attains_alpha(g):
    res = brute_force_mis(g)
    assert is_independent(g, res.witness)
    assert len(res.witness) == res.alpha


def test_solve_matches_brute_force_on_class_graphs_n7(solver_catalog9):
    cfg = SolveConfig(p=3, catalog_n_max=9)
    checked = 0
    for g in grow_graphs(7, free_of=class_patterns(3)):
        r = solve_mis(g, cfg, solver_catalog9)
        assert r.alpha == brute_force_mis(g).alpha, tuple(g.adj)
        assert r.iterations <= g.n
        checked += 1
    # all 938 class-free connected graphs with at most 7 vertices
    assert checked == 938


def test_catalog_cache_that_does_not_cover_is_rebuilt(tmp_path, monkeypatch):
    import augmis.solver as solver_mod

    # an unfiltered n <= 3 catalogue under the name of the n <= 5 default
    path = tmp_path / "catalog-n5-P8-T5-K3x3.txt"
    write_catalog(enumerate_irreducible(3), str(path))
    monkeypatch.setenv(solver_mod.CATALOG_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    cfg = SolveConfig(catalog_n_max=5)
    cat = default_catalog(cfg)
    assert catalog_covers(cat, cfg)
    assert cat.max_vertices == 5 and cat.filters == (
        Pattern("P", (8,)), Pattern("T", (5,)), Pattern("K", (3, 3))
    )
    assert read_catalog(str(path)) == cat
    assert os.listdir(tmp_path) == [path.name]


def test_truncated_catalog_cache_is_rebuilt(tmp_path, monkeypatch, solver_catalog9):
    import augmis.solver as solver_mod

    # the n <= 3 entries under the n <= 9 default's name and header: the
    # file parses and its census header agrees with its two entries
    path = tmp_path / "catalog-n9-P8-T5-K3x3.txt"
    truncated = enumerate_irreducible(3).entries
    write_catalog(Catalog(9, solver_catalog9.filters, truncated), str(path))
    assert len(read_catalog(str(path))) == 2
    monkeypatch.setenv(solver_mod.CATALOG_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    cat = default_catalog(SolveConfig())
    assert cat == solver_catalog9 and len(cat) == 235
    assert read_catalog(str(path)) == cat


def test_catalog_cache_that_does_not_parse_is_rebuilt(tmp_path, monkeypatch):
    import augmis.solver as solver_mod

    path = tmp_path / "catalog-n5-P8-T5-K3x3.txt"
    path.write_text("garbage\n")
    monkeypatch.setenv(solver_mod.CATALOG_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    cfg = SolveConfig(catalog_n_max=5)
    assert solve_mis(path_graph(5), cfg).alpha == 3
    cat = read_catalog(str(path))
    assert catalog_covers(cat, cfg) and cat.max_vertices == 5
    assert os.listdir(tmp_path) == [path.name]


def test_catalog_cache_under_a_regular_file_is_skipped(tmp_path, monkeypatch):
    import augmis.solver as solver_mod

    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv(solver_mod.CATALOG_DIR_ENV, str(blocker / "cache"))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    cfg = SolveConfig(catalog_n_max=5)
    cat = default_catalog(cfg)
    assert catalog_covers(cat, cfg) and cat.max_vertices == 5
    assert solve_mis(path_graph(5), cfg).alpha == 3
    assert os.listdir(tmp_path) == [blocker.name]
    assert blocker.read_text() == "not a directory\n"


def test_catalog_covers_bound_and_filters(solver_catalog9, unfiltered_catalog9):
    assert catalog_covers(solver_catalog9, SolveConfig(catalog_n_max=9))
    assert catalog_covers(solver_catalog9, SolveConfig(catalog_n_max=7))
    assert not catalog_covers(solver_catalog9, SolveConfig(p=2))
    assert catalog_covers(unfiltered_catalog9, SolveConfig(p=2))
    assert not catalog_covers(unfiltered_catalog9, SolveConfig(catalog_n_max=11))


def test_catalog_covers_checks_the_census(solver_catalog9, unfiltered_catalog9):
    # the frozen rows are the censuses of the default catalogues
    assert DEFAULT_CATALOG_CENSUS[3] == (9, solver_catalog9.census())
    p2 = enumerate_irreducible(9, _default_filters(2))
    assert DEFAULT_CATALOG_CENSUS[2] == (9, p2.census())
    # one entry short, in the file's own terms consistent
    for drop in (0, 4, len(solver_catalog9) - 1):
        entries = list(solver_catalog9.entries)
        del entries[drop]
        short = Catalog(9, solver_catalog9.filters, tuple(entries))
        assert not catalog_covers(short, SolveConfig())
        assert catalog_covers(short, SolveConfig(catalog_n_max=7)) == (
            solver_catalog9.entries[drop].graph.graph.n > 7
        )
    # no frozen row for p = 4: compared with the default catalogue built
    # in memory, where the p = 3 entries fall short
    p4 = SolveConfig(p=4, catalog_n_max=7)
    assert 4 not in DEFAULT_CATALOG_CENSUS
    assert catalog_covers(unfiltered_catalog9, p4)
    assert not catalog_covers(Catalog(9, (), solver_catalog9.entries), p4)


def test_solve_iteration_and_hit_bookkeeping(solver_catalog9):
    # P5 with greedy start {0, 2, 4} is already maximum: zero iterations
    r = solve_mis(path_graph(5), catalog=solver_catalog9)
    assert r.alpha == 3 and r.iterations == 0
    assert all(v == 0 for v in r.finder_hits.values())
    # bad config
    with pytest.raises(ValueError):
        SolveConfig(p=1)
