"""The three augmenting-subgraph finders against brute-force oracles.

The path oracle re-decides existence from the definition: enumerate all
(whites, blacks) pairs, keep the augmenting ones whose induced subgraph
is a path.  The catalogue oracle enumerates all small augmenting vertex
pairs regardless of shape; the catalogue finder is also compared, entry
by entry, with a plain per-entry backtracker kept here as a reference.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    AugCandidate,
    Graph,
    Pattern,
    complete_graph,
    enumerate_irreducible,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    gen_free_random,
    greedy_initial,
    induced_subgraph,
    is_augmenting,
    path_graph,
    subdivided_star,
)
import augmis.finders as finders
from augmis.finders import ClassViolationWarning
from augmis.irreducible import Catalog
from augmis.graphs import bits, mask_of
from conftest import graphs_st


def is_path_shape(g: Graph) -> bool:
    from augmis.graphs import connected_components

    if g.n == 1:
        return True
    degs = sorted(g.degree(v) for v in range(g.n))
    return (
        g.num_edges == g.n - 1
        and degs[:2] == [1, 1]
        and all(d == 2 for d in degs[2:])
        and len(connected_components(g)) == 1
    )


def oracle_augmenting_path_exists(g: Graph, s) -> bool:
    s = frozenset(s)
    rest = sorted(set(range(g.n)) - s)
    s_list = sorted(s)
    for k in range(len(s) + 1):
        if k + 1 > len(rest):
            break
        for whites in combinations(s_list, k):
            for blacks in combinations(rest, k + 1):
                cand = AugCandidate(frozenset(whites), frozenset(blacks), "x")
                if not is_augmenting(g, s, cand):
                    continue
                sub, _ = induced_subgraph(g, frozenset(whites) | frozenset(blacks))
                if is_path_shape(sub):
                    return True
    return False


def oracle_augmenting_exists(g: Graph, s, max_vertices: int) -> bool:
    s = frozenset(s)
    rest = sorted(set(range(g.n)) - s)
    s_list = sorted(s)
    for k in range(len(s) + 1):
        if 2 * k + 1 > max_vertices or k + 1 > len(rest):
            break
        for whites in combinations(s_list, k):
            for blacks in combinations(rest, k + 1):
                cand = AugCandidate(frozenset(whites), frozenset(blacks), "x")
                if is_augmenting(g, s, cand):
                    return True
    return False


def test_is_augmenting_examples():
    e = Graph(2, [(0, 1)])
    assert not is_augmenting(e, {0}, AugCandidate(frozenset({0}), frozenset({1}), "x"))
    p3 = path_graph(3)
    assert is_augmenting(p3, {1}, AugCandidate(frozenset({1}), frozenset({0, 2}), "x"))
    from augmis import complete_bipartite

    k13 = complete_bipartite(1, 3)
    assert not is_augmenting(
        k13, {1, 2, 3}, AugCandidate(frozenset({1, 2}), frozenset({0}), "x")
    )


def test_is_augmenting_precondition_errors():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        is_augmenting(p3, {0, 1}, AugCandidate(frozenset(), frozenset({2}), "x"))
    with pytest.raises(ValueError):
        is_augmenting(p3, {1}, AugCandidate(frozenset({0}), frozenset({2}), "x"))
    with pytest.raises(ValueError):
        is_augmenting(p3, {1}, AugCandidate(frozenset({1}), frozenset({1}), "x"))


def test_path_finder_examples():
    p3 = path_graph(3)
    c = find_augmenting_path(p3, {1})
    assert (c.whites, c.blacks) == (frozenset({1}), frozenset({0, 2}))
    g = Graph(3, [(0, 1)])
    c = find_augmenting_path(g, {0})
    assert (c.whites, c.blacks) == (frozenset(), frozenset({2}))
    assert find_augmenting_path(complete_graph(3), {0}) is None


def test_path_candidates_are_chordless_even_paths():
    for seed in range(30):
        g = gen_free_random(10, 0.35, [Pattern("S", (1, 1, 1))], seed)
        s = greedy_initial(g)
        c = find_augmenting_path(g, s)
        if c is None:
            continue
        assert is_augmenting(g, s, c)
        sub, _ = induced_subgraph(g, c.whites | c.blacks)
        assert is_path_shape(sub)
        assert sub.num_edges % 2 == 0
        assert len(c.blacks) == len(c.whites) + 1


def test_path_max_len():
    # P5 with middle S: the only augmenting path swaps 2 whites for 3 blacks
    p5 = path_graph(5)
    s = frozenset({1, 3})
    full = find_augmenting_path(p5, s)
    assert full is not None and len(full.blacks) == 3
    assert find_augmenting_path(p5, s, max_len=2) is None
    assert find_augmenting_path(p5, s, max_len=4) is not None


@settings(max_examples=150)
@given(graphs_st(max_n=9), st.randoms(use_true_random=False))
def test_path_finder_matches_oracle(g, rnd):
    s = greedy_initial(g)
    if rnd.random() < 0.5 and s:
        # also exercise non-maximal independent sets
        drop = rnd.choice(sorted(s))
        s = s - {drop}
    got = find_augmenting_path(g, s)
    assert (got is not None) == oracle_augmenting_path_exists(g, s)
    if got is not None:
        assert is_augmenting(g, s, got)


def test_tree_extension_examples():
    t5 = subdivided_star(5)
    s = frozenset(range(1, 6))
    c = find_tree_extension(t5, s, 3)
    assert c is not None
    assert c.whites == s
    assert c.blacks == frozenset({0}) | frozenset(range(6, 11))
    assert find_tree_extension(Graph(2, [(0, 1)]), {0}, 2) is None
    with pytest.raises(ValueError):
        find_tree_extension(t5, s, 1)


def test_tree_extension_candidate_contains_big_star():
    from augmis import find_induced, plant_augmenting_tree, PlantSpec

    g, s = plant_augmenting_tree(PlantSpec(k=5, p=3, extras=2, seed=3))
    c = find_tree_extension(g, s, 3)
    assert c is not None and is_augmenting(g, s, c)
    sub, _ = induced_subgraph(g, c.whites | c.blacks)
    assert find_induced(sub, Pattern("T", (5,))) is not None


def test_tree_extension_warns_on_class_violation():
    # wheel-ish star whose leaves share an edge: not spider-free
    k = 5
    t = subdivided_star(k)
    g = Graph(t.n, list(t.edges()) + [(k + 1, k + 2)])
    s = frozenset(range(1, k + 1))
    with pytest.warns(ClassViolationWarning):
        got = find_tree_extension(g, s, 3)
    assert got is None


def test_catalog_finder_examples(solver_catalog9):
    p3 = path_graph(3)
    cat3 = enumerate_irreducible(3)
    c = find_from_catalog(p3, {1}, cat3)
    assert (c.whites, c.blacks) == (frozenset({1}), frozenset({0, 2}))
    assert find_from_catalog(complete_graph(3), {0}, cat3) is None
    # lone-vertex augmentation via the one-vertex entry
    g = Graph(3, [(0, 1)])
    c = find_from_catalog(g, {0}, cat3)
    assert (c.whites, c.blacks) == (frozenset(), frozenset({2}))


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_catalog_finder_matches_oracle(seed, rnd):
    cat = enumerate_irreducible(7)
    g = gen_free_random(
        9, 0.3, [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))], seed
    )
    s = greedy_initial(g)
    if rnd.random() < 0.5 and s:
        s = s - {rnd.choice(sorted(s))}
    got = find_from_catalog(g, s, cat)
    assert (got is not None) == oracle_augmenting_exists(g, s, 7)
    if got is not None:
        assert is_augmenting(g, s, got)


def test_finders_are_deterministic():
    g = gen_free_random(11, 0.3, [Pattern("S", (1, 1, 1))], 5)
    s = greedy_initial(g) - {0}
    cat = enumerate_irreducible(5)
    for finder in (
        lambda: find_augmenting_path(g, s),
        lambda: find_tree_extension(g, s, 2),
        lambda: find_from_catalog(g, s, cat),
    ):
        assert finder() == finder()


def reference_embed_entry(g, smask, h):
    """Embedding of catalogue entry ``h`` as an augmenting subgraph of
    (g, S), or None: degree-ordered backtracking, blacks restricted to
    vertices outside S whose S-degree equals their entry degree."""
    adj = g.adj
    rmask = ((1 << g.n) - 1) & ~smask
    s_degree = [(adj[v] & smask).bit_count() for v in range(g.n)]
    hg = h.graph
    order = sorted(range(hg.n), key=lambda v: (-hg.degree(v), v))
    is_black = [v in h.black for v in range(hg.n)]
    edge_js = []
    nonedge_js = []
    for i, v in enumerate(order):
        e, ne = [], []
        for j in range(i):
            (e if hg.has_edge(v, order[j]) else ne).append(j)
        edge_js.append(tuple(e))
        nonedge_js.append(tuple(ne))
    images = [0] * hg.n

    def rec(i, used):
        if i == hg.n:
            return True
        q = order[i]
        cand = (rmask if is_black[q] else smask) & ~used
        for j in edge_js[i]:
            cand &= adj[images[j]]
        for j in nonedge_js[i]:
            cand &= ~adj[images[j]]
        for v in bits(cand):
            if is_black[q] and s_degree[v] != hg.degree(q):
                continue
            images[i] = v
            if rec(i + 1, used | 1 << v):
                return True
        return False

    if rec(0, 0):
        return {order[i]: images[i] for i in range(hg.n)}
    return None


def test_catalog_finder_matches_reference_backtracker(solver_catalog9):
    class_pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    singles = [
        Catalog(9, solver_catalog9.filters, (e,))
        for e in solver_catalog9.entries
    ]
    hits = misses = 0
    for n in range(10, 15):
        for seed in range(6):
            g = gen_free_random(n, 0.3, class_pats, 100 * n + seed)
            greedy = greedy_initial(g)
            for s in (greedy, greedy - {min(greedy)}):
                smask = mask_of(s)
                first = None
                for entry, single in zip(solver_catalog9.entries, singles):
                    want = reference_embed_entry(g, smask, entry.graph)
                    got = find_from_catalog(g, s, single)
                    assert (got is None) == (want is None), entry.code.hex()
                    if got is None:
                        misses += 1
                        continue
                    assert is_augmenting(g, s, got)
                    hits += 1
                    first = first or entry.code
                # both scan entries in catalogue order, so the whole
                # catalogue returns the first entry that embeds
                got = find_from_catalog(g, s, solver_catalog9)
                assert (got and got.detail) == first
    assert hits and misses


def test_catalog_plans_compile_once(monkeypatch, solver_catalog9):
    compiled = []
    real_plan = finders._Plan

    def counting_plan(*args):
        plan = real_plan(*args)
        compiled.append(plan)
        return plan

    monkeypatch.setattr(finders, "_ENTRY_PLANS", {})
    monkeypatch.setattr(finders, "_Plan", counting_plan)
    class_pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    graphs = [gen_free_random(12, 0.3, class_pats, seed) for seed in range(4)]
    for _ in range(2):
        for g in graphs:
            find_from_catalog(g, greedy_initial(g), solver_catalog9)
    assert compiled
    assert len(compiled) == len(finders._ENTRY_PLANS) <= len(solver_catalog9)
    # each compiled plan starts at a black of maximum degree and every
    # later vertex attaches to an already-placed one
    for entry in solver_catalog9.entries:
        hit = finders._ENTRY_PLANS.get(entry.code)
        if hit is None:
            continue
        _, plan, _ = hit
        h = entry.graph
        first = plan.order[0]
        assert first in h.black
        assert h.graph.degree(first) == max(h.graph.degree(b) for b in h.black)
        assert all(plan.edge_js[i] for i in range(1, len(plan.order)))
