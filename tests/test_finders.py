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
    Graph,
    Pattern,
    complete_bipartite,
    complete_graph,
    enumerate_irreducible,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    gen_free_random,
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
from augmis.finders import round_state
from augmis.irreducible import Catalog, ColoredBipartite
from augmis.graphs import bits, mask_of, set_of
from augmis.solver import SolveConfig, class_patterns
import conftest
from conftest import (
    canonical_code,
    graphs_st,
    greedy_initial,
    induced_subgraph,
    is_augmenting,
    verdict,
)


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
                cand = (mask_of(whites), mask_of(blacks))
                if not verdict(g, mask_of(s), cand):
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
                cand = (mask_of(whites), mask_of(blacks))
                if verdict(g, mask_of(s), cand):
                    return True
    return False


def test_augments_examples():
    # sets as masks: 0b101 is {0, 2}
    e = Graph(2, [(0, 1)])
    assert not verdict(e, 0b1, (0b1, 0b10))
    p3 = path_graph(3)
    assert verdict(p3, 0b10, (0b10, 0b101))
    k13 = complete_bipartite(1, 3)
    assert not verdict(k13, 0b1110, (0b110, 0b1))


def test_augments_is_false_on_precondition_breaches():
    # where the set-based reference raises, the mask verdict says no
    p3 = path_graph(3)
    cases = [
        ({0, 1}, set(), {2}),  # S not independent: black 2 sees 1
        ({1}, {0}, {2}),  # a white outside S
        ({1}, {1}, {1}),  # a black inside S
    ]
    for s, whites, blacks in cases:
        smask, cand = mask_of(s), (mask_of(whites), mask_of(blacks))
        with pytest.raises(ValueError):
            is_augmenting(p3, smask, cand)
        assert verdict(p3, smask, cand) is False


def test_mask_verdict_matches_is_augmenting(class_graphs7):
    # seeded random candidates over class graphs and random class-free
    # graphs, on maximal sets and on sets with free vertices; half of the
    # draws take blacks only from vertices with no S-neighbour outside
    # the whites, so both verdicts occur often.  Candidates that break a
    # precondition of is_augmenting are covered above and in test_solver.
    rnd = random.Random(13)
    class_pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    graphs = class_graphs7[::9] + [
        gen_free_random(n, 0.3, class_pats, 10 * n + seed)
        for n in range(8, 15)
        for seed in range(3)
    ]
    verdicts = Counter()
    for g in graphs:
        sets = []
        for s in maximal_sets(g, g.n):
            sets += [s, s - set(rnd.sample(sorted(s), min(2, len(s))))]
        for s in sets:
            smask = mask_of(s)
            rest = [v for v in range(g.n) if not smask >> v & 1]
            for _ in range(20):
                whites = rnd.sample(sorted(s), rnd.randint(0, min(3, len(s))))
                wmask = mask_of(whites)
                pool = rest
                if rnd.random() < 0.5:
                    pool = [v for v in rest if not g.adj[v] & smask & ~wmask]
                size = rnd.randint(0, min(len(whites) + 2, len(pool)))
                blacks = rnd.sample(pool, size)
                cand = (wmask, mask_of(blacks))
                got = finders.augments(g.adj, smask, *cand)
                assert got == is_augmenting(g, smask, cand)
                verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def state_of(g, s):
    """The round state of ``g`` and S given as vertex ids."""
    return round_state(g, mask_of(s))


def test_path_finder_examples():
    # sets as masks: 0b101 is {0, 2}
    p3 = path_graph(3)
    assert find_augmenting_path(p3, round_state(p3, 0b10)) == (0b10, 0b101)
    g = Graph(3, [(0, 1)])
    assert find_augmenting_path(g, round_state(g, 0b1)) == (0, 0b100)
    k3 = complete_graph(3)
    assert find_augmenting_path(k3, round_state(k3, 0b1)) is None
    # P5 with middle S: the only augmenting path swaps 2 whites for 3 blacks
    p5 = path_graph(5)
    assert find_augmenting_path(p5, round_state(p5, 0b1010)) == (0b1010, 0b10101)


def reference_find_augmenting_path(g, smask):
    """The path search without the endpoint bound: the same DFS, pruned
    only by S-degrees and chords."""
    adj = g.adj
    rmask = ((1 << g.n) - 1) & ~smask

    def extend(cur, wmask, bmask):
        pending = adj[cur] & smask & ~wmask
        if pending == 0:
            return wmask, bmask
        if pending & (pending - 1):
            return None
        w = pending.bit_length() - 1
        if adj[w] & bmask != 1 << cur:
            return None
        wmask2 = wmask | pending
        for nb in bits(adj[w] & rmask & ~(wmask2 | bmask)):
            if adj[nb] & bmask or adj[nb] & wmask2 != pending:
                continue
            hit = extend(nb, wmask2, bmask | (1 << nb))
            if hit is not None:
                return hit
        return None

    for b0 in bits(rmask):
        start = adj[b0] & smask
        if start & (start - 1):
            continue
        hit = extend(b0, 0, 1 << b0)
        if hit is not None:
            return hit
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

    def checked(g, state):
        got = find_augmenting_path(g, state)
        assert got == reference_find_augmenting_path(g, state.smask)
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
            checked(g, state_of(g, s))
        solve_mis(g, cfg, solver_catalog9)
    assert any(found) and not all(found)


def test_path_candidates_are_chordless_even_paths():
    for seed in range(30):
        g = gen_free_random(10, 0.35, [Pattern("S", (1, 1, 1))], seed)
        state = state_of(g, greedy_initial(g))
        c = find_augmenting_path(g, state)
        if c is None:
            continue
        assert verdict(g, state.smask, c)
        wmask, bmask = c
        sub, _ = induced_subgraph(g, bits(wmask | bmask))
        assert is_path_shape(sub)
        assert sub.num_edges % 2 == 0
        assert bmask.bit_count() == wmask.bit_count() + 1


@settings(max_examples=150)
@given(graphs_st(max_n=9), st.randoms(use_true_random=False))
def test_path_finder_matches_oracle(g, rnd):
    s = greedy_initial(g)
    if rnd.random() < 0.5 and s:
        # also exercise non-maximal independent sets
        drop = rnd.choice(sorted(s))
        s = s - {drop}
    got = find_augmenting_path(g, state_of(g, s))
    assert (got is not None) == oracle_augmenting_path_exists(g, s)
    if got is not None:
        assert verdict(g, mask_of(s), got)


def test_tree_extension_examples():
    t5 = subdivided_star(5)
    state = state_of(t5, range(1, 6))
    c = find_tree_extension(t5, state, 3)
    assert c == (mask_of(range(1, 6)), mask_of([0, *range(6, 11)]))
    e = Graph(2, [(0, 1)])
    assert find_tree_extension(e, round_state(e, 0b1), 2) is None
    with pytest.raises(ValueError):
        find_tree_extension(t5, state, 1)


def test_tree_extension_candidate_contains_big_star():
    from augmis import find_induced, plant_augmenting_tree, PlantSpec

    g, s = plant_augmenting_tree(PlantSpec(k=5, p=3, extras=2, seed=3))
    c = find_tree_extension(g, state_of(g, s), 3)
    assert c is not None and verdict(g, mask_of(s), c)
    sub, _ = induced_subgraph(g, bits(c[0] | c[1]))
    assert find_induced(sub, Pattern("T", (5,))) is not None


def dependent_leaves_star(k=5):
    """T(k) with an edge between the first two leaves: not spider-free."""
    t = subdivided_star(k)
    return Graph(t.n, list(t.edges()) + [(k + 1, k + 2)])


def test_tree_extension_skips_dependent_leaves():
    k = 5
    g = dependent_leaves_star(k)
    state = state_of(g, range(1, k + 1))
    # the leaves found are not independent, so the candidate is dropped
    # and the scan goes on; no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_tree_extension(g, state, 3)
    assert got is None


def relabelled(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def tree_reference_corpus():
    """(graph, S or None, p) inputs for the reference comparison; None
    stands for every S that solve_mis visits from greedy."""
    rnd = random.Random("tree extension reference")
    out = []
    for p in (2, 3):
        # K(1,k) + P(L) certifications, where the scan misses
        for k, n in ((5, 14), (5, 16), (5, 18), (6, 16), (6, 18)):
            edges = [(0, i) for i in range(1, k + 1)]
            edges += [(i, i + 1) for i in range(k + 1, n - 1)]
            out.append((relabelled(Graph(n, edges), rnd), None, p))
        for k in range(5, 8):
            for extras in range(3):
                g, s = plant_augmenting_tree(
                    PlantSpec(k=k, p=p, extras=extras, seed=rnd.randrange(99))
                )
                out += [(g, s, p), (g, None, p)]
        for seed in range(6):
            g = gen_free_random(12, 0.3, class_patterns(p), seed)
            greedy = greedy_initial(g)
            out += [(g, greedy, p), (g, greedy - {min(greedy)}, p)]
        # K(n,n) with S one side: out of class, every vertex outside S a
        # centre with n S-neighbours, so a level m < n - 1 has an empty
        # leaf pool, and from n = 2p + 2 on every level does
        for n in range(2, 10):
            out.append((complete_bipartite(n, n), frozenset(range(n)), p))
        out.append((dependent_leaves_star(), frozenset(range(1, 6)), p))
        # two disjoint T(5): both centres hit, and the lower one is returned
        t5 = subdivided_star(5)
        twin = Graph(22, [(u + d, v + d) for u, v in t5.edges() for d in (0, 11)])
        out.append((twin, frozenset(range(1, 6)) | frozenset(range(12, 17)), p))
    # K(1,5) + P(15), the benchmark's 20-vertex certification
    edges = [(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(6, 19)]
    out.append((relabelled(Graph(20, edges), rnd), None, 3))
    return out


def test_tree_extension_matches_reference(monkeypatch):
    # the (Q1, Q2, centre, middles) of every triple that passes the
    # centre tests, in scan order, and the leaves picked for it: the
    # finder picks from a pool cut by S-degree, the reference from all
    # of R.  The finder skips a level |Q1| = m whose pool (the vertices
    # outside S with 1 to m + 1 S-neighbours) is empty, so its calls
    # there are dropped from the reference trace, and each must have
    # found no leaves
    trace = []

    def recording(pick):
        def rec(adj, r_list, ns_of, smask, q1mask, q2mask, u, a0):
            leaves = pick(adj, r_list, ns_of, smask, q1mask, q2mask, u, a0)
            trace.append((q1mask, q2mask, u, a0, leaves))
            return leaves
        return rec

    monkeypatch.setattr(finders, "_pick_leaves", recording(finders._pick_leaves))
    monkeypatch.setattr(conftest, "_pick_leaves", recording(conftest._pick_leaves))
    outcomes = Counter()

    def checked(g, state, p):
        trace.clear()
        got = find_tree_extension(g, state, p)
        seen = trace[:]
        trace.clear()
        assert got == conftest.reference_tree_extension(g, state, p)
        by_degree = state.by_degree
        kept = []
        for call in trace:
            if any(by_degree[1 : call[0].bit_count() + 2]):
                kept.append(call)
            else:
                assert call[4] is None
                outcomes["empty pool"] += 1
        assert seen == kept
        if got is None:
            outcomes["miss"] += 1
        else:
            outcomes["hit", min(trace[-1][0].bit_count(), 1)] += 1
        return got

    # every S that solve_mis visits goes through both scans
    monkeypatch.setattr(solver, "find_tree_extension", checked)
    for g, s, p in tree_reference_corpus():
        if s is None:
            solve_mis(g, SolveConfig(p=p))
        else:
            checked(g, state_of(g, s), p)
    # misses, hits with empty Q1 and Q2, hits with m >= 1, and skipped
    # levels
    assert outcomes["miss"] and outcomes["hit", 0] and outcomes["hit", 1]
    assert outcomes["empty pool"]


def test_catalog_finder_examples(solver_catalog9):
    # P3 and the lone vertex are paths: the path finder finds them (see
    # test_path_finder_examples) and the catalogue leaves them out
    for g, smask in ((path_graph(3), 0b10), (Graph(3, [(0, 1)]), 0b1)):
        state = round_state(g, smask)
        assert find_augmenting_path(g, state) is not None
        assert find_from_catalog(g, state, solver_catalog9) is None
    k3 = complete_graph(3)
    assert find_from_catalog(k3, round_state(k3, 0b1), solver_catalog9) is None
    # K(2,3) with S its 2-side: no path augments, the catalogue does
    k23 = complete_bipartite(2, 3)
    state = round_state(k23, 0b11)
    assert find_augmenting_path(k23, state) is None
    assert find_from_catalog(k23, state, solver_catalog9) == (0b11, 0b11100)


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
    state = state_of(g, s)
    got = find_from_catalog(g, state, cat)
    # where no augmenting path exists, every augmenting pair on at most 7
    # vertices holds an irreducible one that is not a path
    if find_augmenting_path(g, state) is None:
        assert (got is not None) == oracle_augmenting_exists(g, s, 7)
    if got is not None:
        assert verdict(g, state.smask, got)


def test_finders_are_deterministic():
    g = gen_free_random(11, 0.3, [Pattern("S", (1, 1, 1))], 5)
    state = state_of(g, greedy_initial(g) - {0})
    cat = enumerate_irreducible(5)
    for finder in (
        lambda: find_augmenting_path(g, state),
        lambda: find_tree_extension(g, state, 2),
        lambda: find_from_catalog(g, state, cat),
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


def candidate_code(g, cand):
    """The canonical code of the subgraph of ``g`` induced on a
    candidate ``(wmask, bmask)``, coloured by it: a catalogue hit
    induces a copy of its entry, so the two codes are equal."""
    wmask, bmask = cand
    sub, remap = induced_subgraph(g, bits(wmask | bmask))
    h = ColoredBipartite(
        sub,
        frozenset(remap[v] for v in bits(wmask)),
        frozenset(remap[v] for v in bits(bmask)),
    )
    return canonical_code(h)


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
            state = state_of(g, s)
            smask = state.smask
            first = None
            for entry, single in zip(solver_catalog9.entries, singles):
                got = find_from_catalog(g, state, single)
                if is_path_entry(entry):
                    assert got is None
                    continue
                want = reference_embed_entry(g, smask, entry.graph)
                assert (got is None) == (want is None), entry.code.hex()
                if got is None:
                    misses += 1
                    continue
                assert verdict(g, smask, got)
                assert candidate_code(g, got) == entry.code
                hits += 1
                first = first or entry.code
            # both scan entries in catalogue order, so the whole
            # catalogue returns the first entry that is not a path and
            # embeds
            got = find_from_catalog(g, state, solver_catalog9)
            assert (got and candidate_code(g, got)) == first
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
            find_from_catalog(g, state_of(g, greedy_initial(g)), solver_catalog9)
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

    def recording(g, state, catalog):
        scanned.append((g, state.smask))
        return find_from_catalog(g, state, catalog)

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
            state = state_of(g, s)
            assert find_from_catalog(g, state, only_paths) is None
            embeds = [reference_embed_entry(g, state.smask, e.graph) for e in paths]
            if find_augmenting_path(g, state) is None:
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
    state = round_state(k23, 0b11)
    for _ in range(20):
        only_k23 = Catalog(5, (), k23_entry)
        assert find_from_catalog(k23, state, only_k23) is not None
        empty = Catalog(5, (), ())
        assert find_from_catalog(k23, state, empty) is None


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
            state = round_state(g, smask)
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
            got = find_from_catalog(g, state, solver_catalog9)
            assert (got and candidate_code(g, got)) == want
            if got is not None:
                assert verdict(g, smask, got)
                hits += 1
    assert admitted and hits


@settings(max_examples=200)
@given(graphs_st(max_n=9), st.integers(0, (1 << 9) - 1))
def test_independent_triple_check_matches_brute_force(g, sel):
    xs = sel & ((1 << g.n) - 1)
    vs = list(bits(xs))
    want = any(
        not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
        for a, b, c in combinations(vs, 3)
    )
    assert finders._has_independent_triple(g.adj, xs) == want

    def clique(part):
        return all(g.has_edge(a, b) for a, b in combinations(part, 2))

    split = any(
        clique([v for i, v in enumerate(vs) if side >> i & 1])
        and clique([v for i, v in enumerate(vs) if not side >> i & 1])
        for side in range(1 << len(vs))
    )
    assert finders._two_cliques(g.adj, xs) == split


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
    mids = state_of(t3, {1, 2, 3})
    assert find_augmenting_path(t3, mids) is None
    assert find_from_catalog(t3, mids, solver_catalog9) is not None
    assert calls == []
    # K(2,3) with S its 2-side is itself an entry with whites of degree 3
    k23 = complete_bipartite(2, 3)
    state = round_state(k23, 0b11)
    assert find_from_catalog(k23, state, solver_catalog9) is not None
    assert len(calls) == 1


def test_round_state_classes(class_graphs7):
    for g in round_graphs(class_graphs7):
        for s in maximal_sets(g, g.n):
            state = state_of(g, s)
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


def test_finders_read_the_round_state():
    # with every S-degree class emptied, no finder sees a candidate,
    # though each finds one from the round state of the same S
    def empty(g, smask):
        return finders.RoundState(smask, ((1 << g.n) - 1) & ~smask, [0] * (g.n + 3))

    p3 = path_graph(3)
    assert find_augmenting_path(p3, round_state(p3, 0b10)) is not None
    assert find_augmenting_path(p3, empty(p3, 0b10)) is None
    t5 = subdivided_star(5)
    mids = mask_of(range(1, 6))
    assert find_tree_extension(t5, round_state(t5, mids), 3) is not None
    assert find_tree_extension(t5, empty(t5, mids), 3) is None
    k23 = complete_bipartite(2, 3)
    cat = enumerate_irreducible(5)
    assert find_from_catalog(k23, round_state(k23, 0b11), cat) is not None
    assert find_from_catalog(k23, empty(k23, 0b11), cat) is None
