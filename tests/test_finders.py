"""The three augmenting-subgraph finders against brute-force oracles.

The path oracle re-decides existence from the definition: enumerate all
(whites, blacks) pairs, keep the augmenting ones whose induced subgraph
is a path.  The catalogue oracle enumerates all small augmenting vertex
pairs regardless of shape; the catalogue finder is also compared, entry
by entry, with a plain per-entry backtracker kept here as a reference.
The path finder is compared, candidate for candidate, with the unpruned
path search kept here as a reference.  The catalogue finder leaves the
path entries to the path finder; the reference backtracker checks that
none of them embeds on any set the catalogue scans in ``solve_mis``.
The catalogue's fit index is compared with a per-entry count check, and
the round state with S-degrees, both recomputed here vertex by vertex.
"""

import gc
import random
import warnings
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    AugCandidate,
    Graph,
    Pattern,
    complete_bipartite,
    complete_graph,
    enumerate_irreducible,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    gen_free_random,
    greedy_initial,
    induced_subgraph,
    is_augmenting,
    line_graph,
    path_graph,
    plant_augmenting_tree,
    PlantSpec,
    solve_mis,
    subdivided_star,
)
import augmis.finders as finders
import augmis.solver as solver
from augmis.enumeration import grow_graphs
from augmis.irreducible import Catalog
from augmis.graphs import bits, mask_of, set_of
from augmis.solver import SolveConfig, class_patterns
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
    # P5 with middle S: the only augmenting path swaps 2 whites for 3 blacks
    c = find_augmenting_path(path_graph(5), {1, 3})
    assert c is not None and len(c.blacks) == 3


def reference_find_augmenting_path(g, s):
    """The path search without the endpoint bound: the same DFS, pruned
    only by S-degrees and chords."""
    smask = mask_of(s)
    adj = g.adj
    rmask = ((1 << g.n) - 1) & ~smask

    def extend(cur, wmask, bmask, order):
        pending = adj[cur] & smask & ~wmask
        if pending == 0:
            return wmask, bmask, order
        if pending & (pending - 1):
            return None
        w = pending.bit_length() - 1
        if adj[w] & bmask != 1 << cur:
            return None
        wmask2 = wmask | pending
        for nb in bits(adj[w] & rmask & ~(wmask2 | bmask)):
            if adj[nb] & bmask or adj[nb] & wmask2 != pending:
                continue
            hit = extend(nb, wmask2, bmask | (1 << nb), order + (w, nb))
            if hit is not None:
                return hit
        return None

    for b0 in bits(rmask):
        start = adj[b0] & smask
        if start & (start - 1):
            continue
        hit = extend(b0, 0, 1 << b0, (b0,))
        if hit is not None:
            wmask, bmask, order = hit
            return AugCandidate(
                set_of(wmask), set_of(bmask), "path", detail=order
            )
    return None


def seeded_line_graphs():
    """Randomly labelled line graphs of seeded random graphs on 12-16
    vertices: claw-free, so every augmenting graph is a path."""
    out = []
    for n in range(12, 17):
        for seed in range(4):
            rnd = random.Random(f"line graph {n} {seed}")
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rnd.random() < 0.3
            ]
            lg, _ = line_graph(Graph(n, edges or [(0, 1)]))
            perm = list(range(lg.n))
            rnd.shuffle(perm)
            out.append(Graph(lg.n, [(perm[u], perm[v]) for u, v in lg.edges()]))
    return out


@pytest.fixture(scope="module")
def class_graphs7():
    return list(grow_graphs(7, free_of=class_patterns(3)))


def test_path_finder_matches_reference(
    monkeypatch, class_graphs7, solver_catalog9
):
    found = []

    def checked(g, s, state=None):
        got = find_augmenting_path(g, s, state)
        assert got == reference_find_augmenting_path(g, s)
        found.append(got is not None)
        return got

    # every S that solve_mis visits goes through both searches
    monkeypatch.setattr(solver, "find_augmenting_path", checked)
    cfg = SolveConfig()
    for g in seeded_line_graphs():
        solve_mis(g, cfg, solver_catalog9)
    for g in class_graphs7:
        greedy = greedy_initial(g)
        for s in (greedy, greedy - {min(greedy)}):
            checked(g, s)
        solve_mis(g, cfg, solver_catalog9)
    assert any(found) and not all(found)


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
    # the leaves found are not independent, so the candidate is dropped
    # and the scan goes on; no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_tree_extension(g, s, 3)
    assert got is None


def test_catalog_finder_examples(solver_catalog9):
    # P3 and the lone vertex are paths: the path finder finds them (see
    # test_path_finder_examples) and the catalogue leaves them out
    p3 = path_graph(3)
    assert find_augmenting_path(p3, {1}) is not None
    assert find_from_catalog(p3, {1}, solver_catalog9) is None
    g = Graph(3, [(0, 1)])
    assert find_augmenting_path(g, {0}) is not None
    assert find_from_catalog(g, {0}, solver_catalog9) is None
    assert find_from_catalog(complete_graph(3), {0}, solver_catalog9) is None
    # K(2,3) with S its 2-side: no path augments, the catalogue does
    k23 = complete_bipartite(2, 3)
    assert find_augmenting_path(k23, {0, 1}) is None
    c = find_from_catalog(k23, {0, 1}, solver_catalog9)
    assert (c.whites, c.blacks) == (frozenset({0, 1}), frozenset({2, 3, 4}))


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
    # where no augmenting path exists, every augmenting pair on at most 7
    # vertices holds an irreducible one that is not a path
    if find_augmenting_path(g, s) is None:
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
    graphs = [
        gen_free_random(n, 0.3, class_pats, 100 * n + seed)
        for n in range(10, 15)
        for seed in range(6)
    ]
    hits = misses = 0
    for g in graphs + seeded_line_graphs():
        greedy = greedy_initial(g)
        for s in (greedy, greedy - {min(greedy)}):
            smask = mask_of(s)
            first = None
            for entry, single in zip(solver_catalog9.entries, singles):
                got = find_from_catalog(g, s, single)
                if is_path_entry(entry):
                    assert got is None
                    continue
                want = reference_embed_entry(g, smask, entry.graph)
                assert (got is None) == (want is None), entry.code.hex()
                if got is None:
                    misses += 1
                    continue
                assert is_augmenting(g, s, got)
                hits += 1
                first = first or entry.code
            # both scan entries in catalogue order, so the whole
            # catalogue returns the first entry that is not a path and
            # embeds
            got = find_from_catalog(g, s, solver_catalog9)
            assert (got and got.detail) == first
    assert hits and misses


def test_claw_centres():
    # 0 in S sees two outside cliques {1, 2}, {3, 4}: no independent
    # triple, so not a centre; 5 in S is the centre of the induced claw
    # with leaves 6, 7, 8 outside S
    g = Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
                  (5, 6), (5, 7), (5, 8)])
    smask = mask_of({0, 5})
    rmask = ((1 << g.n) - 1) & ~smask
    assert finders._claw_centres(g.adj, smask, rmask) == 1 << 5
    # joining two leaves breaks the claw
    g2 = Graph(9, list(g.edges()) + [(6, 7)])
    assert finders._claw_centres(g2.adj, smask, rmask) == 0
    # a line graph is claw-free: no S vertex is a centre
    for lg in seeded_line_graphs()[:5]:
        s = mask_of(greedy_initial(lg))
        rest = ((1 << lg.n) - 1) & ~s
        assert finders._claw_centres(lg.adj, s, rest) == 0


def test_catalog_plans_compile_once(monkeypatch, solver_catalog9):
    compiled = []
    real_plan = finders._Plan

    def counting_plan(*args):
        plan = real_plan(*args)
        compiled.append(plan)
        return plan

    monkeypatch.setattr(finders, "_SCANS", {})
    monkeypatch.setattr(finders, "_Plan", counting_plan)
    class_pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    graphs = [gen_free_random(12, 0.3, class_pats, seed) for seed in range(4)]
    for _ in range(2):
        for g in graphs:
            find_from_catalog(g, greedy_initial(g), solver_catalog9)
    # one plan per entry that is not a path: all but P1, P3, P5 and P7
    assert len(compiled) == 231 == len(solver_catalog9) - 4
    _, scan = finders._SCANS[id(solver_catalog9)]
    assert [plan for _, plan in scan.items] == compiled
    # the fit index is built with the scan: upto[m] holds the entries
    # with at most m vertices, and fits[c] of domain k the entries that
    # place at most c vertices there (whites in S, whites of degree 3 or
    # more among the claw centres, blacks of degree d outside S)
    assert scan is finders._scan_of(solver_catalog9)
    sizes = [entry.graph.graph.n for entry, _ in scan.items]
    assert scan.upto == [
        mask_of(i for i, hn in enumerate(sizes) if hn <= m)
        for m in range(max(sizes) + 1)
    ]
    needs = []
    for entry, _ in scan.items:
        h = entry.graph
        whites = [v for v in range(h.graph.n) if v not in h.black]
        need = Counter(2 + h.graph.degree(b) for b in h.black)
        need[0] = len(whites)
        need[1] = sum(h.graph.degree(w) >= 3 for w in whites)
        needs.append(need)
    domains = sorted({k for need in needs for k, c in need.items() if c})
    assert [k for k, _ in scan.rows] == [k for k in domains if k != 1] + [1]
    for k, fits in scan.rows:
        assert fits == [
            mask_of(i for i, need in enumerate(needs) if need[k] <= c)
            for c in range(max(need[k] for need in needs) + 1)
        ]
    # each compiled plan starts at a black of maximum degree and every
    # later vertex attaches to an already-placed one
    for entry, plan in scan.items:
        assert not is_path_entry(entry)
        h = entry.graph
        first = plan.order[0]
        assert first in h.black
        assert h.graph.degree(first) == max(h.graph.degree(b) for b in h.black)
        assert all(plan.edge_js[i] for i in range(1, len(plan.order)))


def is_path_entry(entry):
    return all(m.bit_count() <= 2 for m in entry.graph.graph.adj)


def path_entries(catalog):
    return tuple(e for e in catalog.entries if is_path_entry(e))


def small_star_instances():
    """Planted star extensions, relabelled so that greedy takes the
    middles, and K(1,5) + P(L) graphs, where the star finder misses."""
    out = []
    for extras in range(3):
        for seed in range(3):
            g, _ = plant_augmenting_tree(
                PlantSpec(k=5, p=3, extras=extras, seed=seed)
            )
            order = list(range(1, 6)) + [0] + list(range(6, g.n))
            perm = [0] * g.n
            for new, old in enumerate(order):
                perm[old] = new
            out.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for length in range(4, 10):
        n = 6 + length
        edges = [(0, i) for i in range(1, 6)]
        edges += [(i, i + 1) for i in range(6, n - 1)]
        out.append(Graph(n, edges))
    return out


def test_final_round_scan_matches_full_catalogue(
    monkeypatch, class_graphs7, solver_catalog9
):
    # no path entry embeds on any set the catalogue scans, so the scan,
    # which leaves them out, returns what the whole catalogue returns
    paths = path_entries(solver_catalog9)
    scanned = []

    def recording(g, s, catalog, state=None):
        scanned.append((g, mask_of(s)))
        return find_from_catalog(g, s, catalog, state)

    monkeypatch.setattr(solver, "find_from_catalog", recording)
    graphs = seeded_line_graphs() + small_star_instances() + class_graphs7
    catalog_hits = 0
    for g in graphs:
        res = solve_mis(g, SolveConfig(), solver_catalog9)
        catalog_hits += res.finder_hits["catalog"]
    assert catalog_hits and len(scanned) >= len(graphs)
    for g, smask in scanned:
        for e in paths:
            assert reference_embed_entry(g, smask, e.graph) is None


def test_path_entries_miss_where_the_path_finder_misses(
    class_graphs7, solver_catalog9
):
    paths = path_entries(solver_catalog9)
    assert sorted(e.graph.graph.n for e in paths) == [1, 3, 5, 7]
    only_paths = Catalog(9, solver_catalog9.filters, paths)
    graphs = seeded_line_graphs() + small_star_instances() + class_graphs7
    misses = 0
    for g in graphs:
        greedy = greedy_initial(g)
        sets = [greedy] + [greedy - {v} for v in sorted(greedy)[:3]]
        sets.append(solve_mis(g, SolveConfig(), solver_catalog9).independent_set)
        for s in sets:
            assert find_from_catalog(g, s, only_paths) is None
            smask = mask_of(s)
            embeds = [reference_embed_entry(g, smask, e.graph) for e in paths]
            if find_augmenting_path(g, s) is None:
                misses += 1
                assert embeds == [None] * len(paths)
            else:
                # below 8 vertices every augmenting path is an entry
                assert g.n > 7 or embeds != [None] * len(paths)
    assert misses


def test_final_round_scan_follows_catalogue_identity(solver_catalog9):
    g = gen_free_random(12, 0.3, class_patterns(3), 7)
    want = solve_mis(g, SolveConfig(), solver_catalog9)
    twins = [
        Catalog(9, solver_catalog9.filters, solver_catalog9.entries)
        for _ in range(2)
    ]
    no_paths = Catalog(
        9,
        solver_catalog9.filters,
        tuple(e for e in solver_catalog9.entries if not is_path_entry(e)),
    )
    for cat in twins + [no_paths]:
        got = solve_mis(g, SolveConfig(), cat)
        assert got == want and got.finder_hits == want.finder_hits
        ref, scan = finders._SCANS[id(cat)]
        assert ref() is cat and len(scan.items) == 231
        assert scan.upto[-1] == (1 << 231) - 1
    # a scan dies with its catalogue, so an id the allocator hands out
    # again never finds the scan of an earlier catalogue
    key = id(no_paths)
    del twins, no_paths, cat
    gc.collect()
    assert key not in finders._SCANS
    k23 = complete_bipartite(2, 3)
    k23_entry = tuple(
        e for e in enumerate_irreducible(5).entries
        if e.graph.graph.num_edges == 6
    )
    assert len(k23_entry) == 1
    for _ in range(20):
        only_k23 = Catalog(5, (), k23_entry)
        assert find_from_catalog(k23, {0, 1}, only_k23) is not None
        empty = Catalog(5, (), ())
        assert find_from_catalog(k23, {0, 1}, empty) is None


def maximal_sets(g, seed):
    """Greedy's maximal set and the greedy sets of two seeded random
    vertex orders."""
    rnd = random.Random(seed)
    out = [greedy_initial(g)]
    for _ in range(2):
        order = list(range(g.n))
        rnd.shuffle(order)
        taken = 0
        for v in order:
            if not g.adj[v] & taken:
                taken |= 1 << v
        out.append(set_of(taken))
    return out


def round_graphs(class_graphs7):
    class_pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    free = [
        gen_free_random(n, 0.3, class_pats, 100 * n + seed)
        for n in range(10, 15)
        for seed in range(4)
    ]
    return seeded_line_graphs() + class_graphs7[::10] + free


def reference_admitted(g, smask, scan):
    """Scan positions whose entries pass the per-entry count check,
    recomputed vertex by vertex: at most n vertices, at least as many S
    vertices as whites and claw centres as whites of degree 3 or more,
    and per degree d at least as many vertices outside S with d
    S-neighbours as blacks of degree d."""
    rest = [v for v in range(g.n) if not smask >> v & 1]
    s_vertices = [v for v in range(g.n) if smask >> v & 1]
    s_degree = Counter(
        sum(1 for u in s_vertices if g.has_edge(u, v)) for v in rest
    )
    claws = sum(
        1
        for v in s_vertices
        if any(
            not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
            for a, b, c in combinations(
                [u for u in rest if g.has_edge(u, v)], 3
            )
        )
    )
    out = 0
    for i, (entry, _) in enumerate(scan.items):
        h = entry.graph
        hg = h.graph
        whites = [v for v in range(hg.n) if v not in h.black]
        need = Counter(hg.degree(b) for b in h.black)
        if (
            hg.n <= g.n
            and len(whites) <= len(s_vertices)
            and sum(hg.degree(w) >= 3 for w in whites) <= claws
            and all(c <= s_degree[d] for d, c in need.items())
        ):
            out |= 1 << i
    return out


def test_fit_index_admits_what_the_count_check_admits(
    class_graphs7, solver_catalog9
):
    scan = finders._scan_of(solver_catalog9)
    admitted = hits = 0
    for g in round_graphs(class_graphs7):
        sets = maximal_sets(g, g.n)
        sets.append(solve_mis(g, SolveConfig(), solver_catalog9).independent_set)
        for s in sets:
            smask = mask_of(s)
            state = finders.round_state(g, s)
            fit, _ = finders._admitted(scan, g, state)
            assert fit == reference_admitted(g, smask, scan)
            admitted += fit.bit_count()
            # the first admitted entry that embeds, by the reference
            # backtracker, is the one the finder returns
            want = next(
                (
                    entry.code
                    for i, (entry, _) in enumerate(scan.items)
                    if fit >> i & 1
                    and reference_embed_entry(g, smask, entry.graph)
                ),
                None,
            )
            got = find_from_catalog(g, s, solver_catalog9, state)
            assert (got and got.detail) == want
            if got is not None:
                assert is_augmenting(g, s, got)
                hits += 1
    assert admitted and hits


def test_fit_index_computes_claw_centres_only_when_needed(
    monkeypatch, solver_catalog9
):
    calls = []
    real = finders._claw_centres

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(finders, "_claw_centres", counting)
    # T3 with S its middles: the entries still admitted have no white of
    # degree 3 or more, so no claw centre is computed
    t3 = subdivided_star(3)
    mids = frozenset({1, 2, 3})
    assert find_augmenting_path(t3, mids) is None
    assert find_from_catalog(t3, mids, solver_catalog9) is not None
    assert calls == []
    # K(2,3) with S its 2-side is itself an entry with whites of degree 3
    k23 = complete_bipartite(2, 3)
    assert find_from_catalog(k23, {0, 1}, solver_catalog9) is not None
    assert len(calls) == 1


def test_round_state_classes(class_graphs7):
    for g in round_graphs(class_graphs7):
        for s in maximal_sets(g, g.n):
            state = finders.round_state(g, s)
            rest = [v for v in range(g.n) if v not in s]
            degree = {v: sum(1 for u in s if g.has_edge(u, v)) for v in rest}
            assert state.smask == mask_of(s)
            assert state.rmask == mask_of(rest)
            assert len(state.by_degree) == g.n + 3
            for d, cls in enumerate(state.by_degree):
                assert cls == mask_of(v for v in rest if degree[v] == d)
            # the path finder's ends and mids are classes 1 and 2; its
            # starts and the tree finder's centres are unions of classes
            starts = state.by_degree[0] | state.by_degree[1]
            assert starts == mask_of(v for v in rest if degree[v] <= 1)
            for p in (2, 3):
                centres = 0
                for cls in state.by_degree[p + 2:]:
                    centres |= cls
                assert centres == mask_of(
                    v for v in rest if degree[v] >= p + 2
                )


def test_finders_agree_with_and_without_a_round_state(
    class_graphs7, solver_catalog9
):
    found = Counter()
    graphs = round_graphs(class_graphs7) + small_star_instances()
    for g in graphs:
        greedy = greedy_initial(g)
        for s in maximal_sets(g, g.n) + [greedy - {min(greedy)}]:
            state = finders.round_state(g, s)
            for name, finder in (
                ("path", lambda st: find_augmenting_path(g, s, st)),
                ("tree", lambda st: find_tree_extension(g, s, 3, st)),
                ("catalog", lambda st: find_from_catalog(g, s, solver_catalog9, st)),
            ):
                got = finder(state)
                assert got == finder(None)
                found[name] += got is not None
    assert all(found[name] for name in ("path", "tree", "catalog"))


def test_finders_read_the_round_state():
    # with every S-degree class emptied, no finder sees a candidate,
    # though each would find one from a state of its own
    def empty(g, s):
        smask = mask_of(s)
        return finders.RoundState(smask, ((1 << g.n) - 1) & ~smask, [0] * (g.n + 3))

    p3 = path_graph(3)
    assert find_augmenting_path(p3, {1}) is not None
    assert find_augmenting_path(p3, {1}, empty(p3, {1})) is None
    t5 = subdivided_star(5)
    mids = frozenset(range(1, 6))
    assert find_tree_extension(t5, mids, 3) is not None
    assert find_tree_extension(t5, mids, 3, empty(t5, mids)) is None
    k23 = complete_bipartite(2, 3)
    cat = enumerate_irreducible(5)
    assert find_from_catalog(k23, {0, 1}, cat) is not None
    assert find_from_catalog(k23, {0, 1}, cat, empty(k23, {0, 1})) is None
