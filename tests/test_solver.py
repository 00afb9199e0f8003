import gc
import hashlib
import os
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    Graph,
    Pattern,
    PlantSpec,
    SolveConfig,
    brute_force_mis,
    class_patterns,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    default_catalog,
    enumerate_irreducible,
    gen_free_random,
    is_free,
    is_independent,
    is_irreducible,
    line_graph,
    path_graph,
    plant_augmenting_tree,
    solve_mis,
)
import augmis
import augmis.finders as finders
import augmis.irreducible as irreducible
import augmis.solver as solver
from augmis.enumeration import grow_graphs
from augmis.graphs import mask_of
from augmis.io import GraphFormatError, write_catalog
from augmis.irreducible import Catalog, decode_catalog_code
from augmis.solver import (
    _CATALOG_DATA,
    DEFAULT_CATALOG_CENSUS,
    _default_filters,
    catalog_covers,
)
from conftest import (
    graphs_st,
    greedy_initial,
    is_augmenting,
    path_greedy_takes_odd_positions,
    petersen,
    verdict,
)


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
    # an augmenting candidate (wmask, bmask) is applied as
    # S & ~wmask | bmask; sets as masks, 0b101 is {0, 2}
    p3 = path_graph(3)
    wmask, bmask = 0b10, 0b101
    assert verdict(p3, 0b10, (wmask, bmask)) and 0b10 & ~wmask | bmask == 0b101
    g = Graph(3, [(0, 1)])
    wmask, bmask = 0, 0b100
    assert verdict(g, 0b1, (wmask, bmask)) and 0b1 & ~wmask | bmask == 0b101
    assert not verdict(p3, 0b10, (0b10, 0b1))


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
    if not verdict(g, mask_of(s), (mask_of(whites), mask_of(blacks))):
        return
    out = (s - whites) | blacks
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


def pinned_corpus():
    """(graph, p) pairs whose solve outputs are pinned: the class graphs
    with n <= 7, seeded random class graphs on 10-21 vertices, planted
    star extensions as generated and relabelled so that greedy starts
    from the planted set, and K(1,5) + P(15)."""
    for g in grow_graphs(7, free_of=class_patterns(3)):
        yield g, 3
    for n in range(10, 22):
        for seed in range(6):
            yield gen_free_random(n, 0.3, class_patterns(3), 100 * n + seed), 3
    for p in (2, 3):
        for k in range(p + 2, p + 5):
            for extras in range(0, 2 * p + 1, 2):
                for seed in range(2):
                    spec = PlantSpec(k, p, extras, min(extras, 1), seed)
                    g, s = plant_augmenting_tree(spec)
                    order = sorted(s) + [v for v in range(g.n) if v not in s]
                    new = {old: i for i, old in enumerate(order)}
                    yield g, p
                    yield Graph(g.n, [(new[u], new[v]) for u, v in g.edges()]), p
    edges = [(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(6, 19)]
    yield Graph(20, edges), 3


def test_solve_outputs_are_pinned():
    # a sha256 over (sorted set, iterations, finder hits) of every solve,
    # in corpus order: a change of which augmentation a finder returns
    # shows here even where alpha stays the same
    h = hashlib.sha256()
    count = 0
    hits = {"path": 0, "tree": 0, "catalog": 0}
    for g, p in pinned_corpus():
        r = solve_mis(g, SolveConfig(p=p))
        out = (sorted(r.independent_set), r.iterations, sorted(r.finder_hits.items()))
        h.update(repr(out).encode())
        count += 1
        for name, c in r.finder_hits.items():
            hits[name] += c
    assert (count, h.hexdigest()[:16]) == (1095, "93d6af17e9febc7f")
    assert hits == {"path": 523, "tree": 42, "catalog": 156}


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


def test_default_catalog_reads_and_writes_no_files(
    tmp_path, monkeypatch, solver_catalog9
):
    import augmis.solver as solver_mod

    # a truncated catalogue under the name and in the directory the
    # removed AUGMIS_CATALOG_DIR cache used: neither read nor rewritten
    path = tmp_path / "catalog-n9-P8-T5-K3x3.txt"
    truncated = enumerate_irreducible(3).entries
    write_catalog(Catalog(9, solver_catalog9.filters, truncated), str(path))
    before = path.read_bytes()
    monkeypatch.setenv("AUGMIS_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    cat = default_catalog(SolveConfig())
    assert cat == solver_catalog9 and len(cat) == 235
    cfg = SolveConfig(catalog_n_max=5)
    cat = default_catalog(cfg)
    assert catalog_covers(cat, cfg)
    assert cat.max_vertices == 5 and cat.filters == solver_catalog9.filters
    assert solve_mis(path_graph(5), cfg).alpha == 3
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_bytes() == before


@pytest.mark.parametrize("p", [2, 3])
def test_default_catalog_is_the_enumeration_at_every_packaged_bound(
    p, monkeypatch, solver_catalog9
):
    import augmis.solver as solver_mod

    def no_enumeration(*args):
        raise AssertionError("enumerated a packaged catalogue")

    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    monkeypatch.setattr(solver_mod, "enumerate_irreducible", no_enumeration)
    filters = _default_filters(p)
    for bound in (3, 5, 7, 9):
        if p == 3 and bound == 9:
            want = solver_catalog9
        else:
            want = enumerate_irreducible(bound, filters)
        got = default_catalog(SolveConfig(p, bound))
        assert got == want and got.max_vertices == bound
        assert default_catalog(SolveConfig(p, bound)) is got


def test_default_catalog_enumerates_beyond_the_packaged_rows(
    tmp_path, monkeypatch
):
    import augmis.solver as solver_mod

    calls = []

    def recording(n_max, filters):
        calls.append((n_max, filters))
        return Catalog(n_max, filters, ())

    # no packaged file is readable: these bounds must not need one
    monkeypatch.setattr(solver_mod, "_CATALOG_DATA", tmp_path)
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    monkeypatch.setattr(solver_mod, "enumerate_irreducible", recording)
    for p in (2, 3):
        default_catalog(SolveConfig(p, 11))
    default_catalog(SolveConfig(4, 7))
    assert calls == [
        (11, _default_filters(2)),
        (11, _default_filters(3)),
        (7, _default_filters(4)),
    ]
    # and p = 4 gets the real enumeration
    monkeypatch.undo()
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    assert default_catalog(SolveConfig(4, 7)) == enumerate_irreducible(
        7, _default_filters(4)
    )


def _edited_packaged_file(text):
    lines = text.splitlines(keepends=True)
    entries = [i for i, line in enumerate(lines) if not line.startswith("c")]
    census = next(i for i, line in enumerate(lines) if line.startswith("c census"))
    # two 9-vertex entries swapped
    reordered = list(lines)
    a, b = entries[-2], entries[-1]
    reordered[a], reordered[b] = reordered[b], reordered[a]
    # the last entry dropped, its census header made to agree
    short = lines[:-1]
    short[census] = short[census].replace("9:213", "9:212")
    # each edit with the message that rejects it
    return {
        "truncated": ("".join(lines[:-1]), "disagrees with the entries"),
        "truncated, census header edited to agree": (
            "".join(short), "frozen census"
        ),
        "reordered": ("".join(reordered), "order"),
        "filters header without K3x3": (
            text.replace("c filters P8,T5,K3x3", "c filters P8,T5"),
            "not the default",
        ),
        "n_max header raised": (
            text.replace("c n_max 9", "c n_max 11"), "not the default"
        ),
        "census header edited": (
            text.replace("9:213", "9:214"), "disagrees with the entries"
        ),
    }


def test_default_catalog_rejects_a_bad_packaged_file(tmp_path, monkeypatch):
    import augmis.solver as solver_mod

    name = "catalog-p3-n9.txt"
    text = (_CATALOG_DATA / name).read_text(encoding="ascii")
    monkeypatch.setattr(solver_mod, "_CATALOG_DATA", tmp_path)
    for how, (bad, match) in _edited_packaged_file(text).items():
        assert bad != text, how
        (tmp_path / name).write_text(bad, encoding="ascii")
        for bound in (5, 9):
            monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
            with pytest.raises(GraphFormatError, match=match):
                default_catalog(SolveConfig(3, bound))
            assert solver_mod._CATALOG_MEMO == {}, how
    # the unedited text in the same place is accepted
    (tmp_path / name).write_text(text, encoding="ascii")
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    assert len(default_catalog(SolveConfig())) == 235
    # a missing file raises too
    (tmp_path / name).unlink()
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    with pytest.raises(FileNotFoundError):
        default_catalog(SolveConfig())


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


def test_free_vertex_sweep_after_an_augmentation(solver_catalog9):
    # greedy takes the centre of K(1,2000); the first path swaps it for
    # two leaves, and the sweep adds the other 1998 without an iteration
    g = complete_bipartite(1, 2000)
    assert greedy_initial(g) == {0}
    r = solve_mis(g, catalog=solver_catalog9)
    assert r.alpha == 2000 and r.iterations == 1
    assert r.independent_set == frozenset(range(1, 2001))
    assert r.finder_hits == {"path": 1, "tree": 0, "catalog": 0}


def test_every_round_starts_from_a_maximal_set(monkeypatch, solver_catalog9):
    free = []
    real = solver.round_state

    def recording(g, s):
        state = real(g, s)
        free.append(state.by_degree[0])
        return state

    monkeypatch.setattr(solver, "round_state", recording)
    graphs = [complete_bipartite(1, 40), complete_bipartite(3, 5)]
    graphs += [gen_free_random(12, 0.3, class_patterns(3), s) for s in range(10)]
    rounds = 0
    for g in graphs:
        r = solve_mis(g, catalog=solver_catalog9)
        rounds += r.iterations + 1
    assert len(free) == rounds and not any(free)


def bad_candidates():
    """K(1,5) with centre 0, an edge 4-5 and a vertex 6 hanging off
    leaf 1, whose greedy set is {0, 6}; each candidate breaks one rule.
    W = {0}, B = {2, 3} would augment."""
    g = Graph(7, [(0, v) for v in range(1, 6)] + [(4, 5), (1, 6)])
    assert greedy_initial(g) == {0, 6}
    return g, {
        "white outside S": ({0, 1}, {2, 3, 4}),
        "black inside S": ({0}, {2, 3, 6}),
        "adjacent blacks": ({0}, {2, 4, 5}),
        "no more blacks than whites": ({0}, {2}),
        "black sees S outside the whites": ({0}, {1, 2}),
    }


@pytest.mark.parametrize(
    "finder", ["find_augmenting_path", "find_tree_extension", "find_from_catalog"]
)
def test_solve_rejects_a_candidate_that_does_not_augment(
    monkeypatch, finder, solver_catalog9
):
    g, cases = bad_candidates()
    for name in ("find_augmenting_path", "find_tree_extension"):
        if name == finder:
            break
        monkeypatch.setattr(solver, name, lambda *args: None)

    def first_call_returns(cand):
        calls = []

        def patched(*args):
            calls.append(args)
            return cand if len(calls) == 1 else None

        return patched

    smask = mask_of({0, 6})
    for rule, (whites, blacks) in cases.items():
        cand = (mask_of(whites), mask_of(blacks))
        if rule in ("white outside S", "black inside S"):
            with pytest.raises(ValueError):
                is_augmenting(g, smask, cand)
        else:
            assert not is_augmenting(g, smask, cand)
        monkeypatch.setattr(solver, finder, first_call_returns(cand))
        with pytest.raises(ValueError, match="does not augment"):
            solve_mis(g, catalog=solver_catalog9)
    # the same wiring applies a good candidate
    good = (mask_of({0}), mask_of({2, 3}))
    monkeypatch.setattr(solver, finder, first_call_returns(good))
    r = solve_mis(g, catalog=solver_catalog9)
    assert r.independent_set == {2, 3, 4, 6} and r.iterations == 1


def test_brute_force_memo_is_freed_on_return():
    # the memo dies with the call, without the cyclic collector
    g = gen_free_random(20, 0.3, [], 3)
    gc.disable()
    try:
        brute_force_mis(g)
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(5):
            brute_force_mis(g)
        now, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert now - base < 8192


def test_one_augmentation_verdict_in_the_package():
    # the set-based verdict, the wrappers only tests reached and the
    # set-based candidate are gone; finders.augments is the one verdict,
    # on the (wmask, bmask) pairs the finders return
    gone = {
        "AugCandidate": finders,
        "VertexSet": finders,
        "is_augmenting": finders,
        "augment": solver,
        "greedy_initial": solver,
        "bicolored": irreducible,
    }
    for name, module in gone.items():
        assert name not in augmis.__all__ and not hasattr(augmis, name)
        assert name not in module.__all__ and not hasattr(module, name)
    assert "augments" in finders.__all__


# Irreducible class graphs above the default catalogue bound, as catalogue
# codes: the entries of enumerate_irreducible(13, _default_filters(3) +
# (Pattern("S", (1, 1, 3)),)) with more than 9 vertices.  With the whites
# labelled first, greedy takes exactly the whites, the graph is the only
# augmenting subgraph for them, and no finder reaches it.
KNOWN_MISSES = [
    "0be00700048180f1e103",
    "0be00700080201f1e103",
    "0be007002028a3c1e103",
    "0be00700402ca3c1e103",
    "0be00700408982f1e103",
    "0be00700448982f1e103",
    "0be00700602ca3c1e103",
    "0be00700c0484281e103",
    "0be00700e44ca3c18103",
    "0dc01f000008142383061cfc00",
    "0dc01f000010162383061cfc00",
    "0dc01f000018162383061cfc00",
    "0dc01f000050448202861ffc00",
]


def whites_first(code):
    """The catalogue graph of ``code`` and the same graph relabelled with
    its whites first, each side in ascending id."""
    h = decode_catalog_code(bytes.fromhex(code))
    order = sorted(h.white) + sorted(h.black)
    new = {old: i for i, old in enumerate(order)}
    g = Graph(h.graph.n, [(new[u], new[v]) for u, v in h.graph.edges()])
    return h, g


def test_known_misses_are_irreducible_class_graphs():
    sizes = []
    for code in KNOWN_MISSES:
        h, g = whites_first(code)
        assert is_irreducible(h)
        assert is_free(g, class_patterns(3))
        assert greedy_initial(g) == frozenset(range(len(h.white)))
        sizes.append(g.n)
    assert sizes == [11] * 9 + [13] * 4


@pytest.mark.xfail(
    strict=True,
    reason="above the catalogue bound, no finder reaches the graph",
)
@pytest.mark.parametrize("code", KNOWN_MISSES)
def test_default_solve_on_known_misses(code):
    _, g = whites_first(code)
    assert solve_mis(g).alpha == brute_force_mis(g).alpha
