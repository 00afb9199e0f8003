"""Pattern constructors and the exact induced-subgraph search.

The subset-enumeration oracle below re-decides containment from the
definition (try every vertex subset of the right size, brute-force an
isomorphism) and never shares code with the search under test.
"""

import functools
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    Graph,
    Pattern,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_induced,
    find_forbidden,
    is_free,
    line_graph,
    parse_pattern,
    path_graph,
    spider,
)
from augmis.canonical import canon_code
from augmis.graphs import MAX_VERTICES
from augmis.enumeration import grow_graphs
from augmis.patterns import (
    _Compiled,
    _compile,
    _core,
    _one_out_refused,
    _refused,
    _search,
    all_maximal_subdivided_stars,
)
from conftest import graphs_st, induced_subgraph


@functools.lru_cache(maxsize=None)
def brute_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    for perm in permutations(range(a.n)):
        if all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u in range(a.n)
            for v in range(u + 1, a.n)
        ):
            return True
    return False


def oracle_contains_induced(g: Graph, p: Graph) -> bool:
    for sub in combinations(range(g.n), p.n):
        got, _ = induced_subgraph(g, sub)
        if got.num_edges == p.num_edges and brute_isomorphic(got, p):
            return True
    return False


def test_build_examples():
    p8 = Pattern("P", (8,)).build()
    assert p8.n == 8 and p8.num_edges == 7
    t3 = Pattern("T", (3,)).build()
    assert t3.n == 7 and t3.num_edges == 6 and t3.degree(0) == 3
    s = Pattern("S", (1, 1, 3)).build()
    assert sorted(s.degree(v) for v in range(6)) == [1, 1, 1, 2, 2, 3]


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Pattern("K", (0, 3))
    with pytest.raises(ValueError):
        Pattern("C", (2,))
    with pytest.raises(ValueError):
        Pattern("X", (1,))
    with pytest.raises(ValueError):
        Pattern("S", (1, 1))


def test_named_graph_size_cap():
    # vertex and edge counts come from the parameters, before any build
    for text in (
        "P100000000000",
        "C65537",
        "K100000",
        "K363",  # 363 vertices, 65703 edges
        "K256x257",
        "S1x1x65534",
        "T32768",
    ):
        with pytest.raises(ValueError, match="the cap is 65536"):
            parse_pattern(text)
    # the caps themselves are accepted
    assert MAX_VERTICES == 65536
    assert parse_pattern("K1x65535").build().n == MAX_VERTICES
    assert parse_pattern("K256x256").build().num_edges == MAX_VERTICES
    assert parse_pattern("K362").build().num_edges == 65341


def test_parse_and_str_round_trip():
    for text in ["P8", "C6", "K4", "K3x3", "S1x1x3", "T4"]:
        assert str(parse_pattern(text)) == text
    with pytest.raises(ValueError):
        parse_pattern("K3,3")


def test_k_kind_is_complete_or_complete_bipartite():
    assert parse_pattern("K4").build() == complete_graph(4)
    assert parse_pattern("K3x3").build() == complete_bipartite(3, 3)
    assert parse_pattern("P7").build() == path_graph(7)
    assert parse_pattern("C5").build() == cycle_graph(5)
    with pytest.raises(ValueError):
        Pattern("K", (1, 2, 3))
    with pytest.raises(ValueError):
        Pattern("K", (0,))


def test_claw_is_k13():
    assert brute_isomorphic(spider(1, 1, 1), complete_bipartite(1, 3))


def test_find_induced_examples():
    assert find_induced(cycle_graph(6), Pattern("P", (4,))) is not None
    assert find_induced(cycle_graph(5), Pattern("K", (2, 2))) is None
    assert find_induced(complete_bipartite(3, 3), Pattern("S", (1, 1, 1))) is not None


def test_find_induced_embedding_is_induced():
    for g, pat in [
        (cycle_graph(6), Pattern("P", (4,))),
        (complete_bipartite(3, 3), Pattern("S", (1, 1, 1))),
        (spider(1, 1, 4), Pattern("S", (1, 1, 3))),
        (path_graph(9), Pattern("P", (8,))),
    ]:
        emb = find_induced(g, pat)
        assert emb is not None
        p = pat.build()
        assert len(set(emb.values())) == p.n
        for u in range(p.n):
            for v in range(u + 1, p.n):
                assert p.has_edge(u, v) == g.has_edge(emb[u], emb[v])


def test_find_induced_deterministic():
    g = cycle_graph(8)
    assert find_induced(g, Pattern("P", (5,))) == find_induced(g, Pattern("P", (5,)))


def unpruned_find_induced(g: Graph, pat: Pattern):
    """``find_induced`` without the twin pruning, the counting refusals
    and the core domain: the same plan and engine, every host vertex a
    candidate, every candidate tried."""
    plan = _compile(pat).generic
    images = [0] * len(plan.order)
    g_deg = [m.bit_count() for m in g.adj]
    if _search(plan, g.adj, g_deg, ((1 << g.n) - 1,), images, 0, 0):
        return dict(zip(plan.order, images))
    return None


def blow_up(g: Graph, sizes, closed):
    """Each vertex v of g replaced by sizes[v] twins, pairwise adjacent
    where ``closed``: hosts with large twin classes."""
    ids, start = [], 0
    for s in sizes:
        ids.append(range(start, start + s))
        start += s
    edges = [(a, b) for u, v in g.edges() for a in ids[u] for b in ids[v]]
    if closed:
        edges += [e for r in ids for e in combinations(r, 2)]
    return Graph(start, edges)


@settings(max_examples=150)
@given(
    graphs_st(max_n=6),
    st.lists(st.integers(1, 3), min_size=6, max_size=6),
    st.booleans(),
    st.sampled_from(["P4", "S1x1x1", "K2x2", "S1x1x3", "K3x3", "C5", "T3"]),
)
def test_twin_pruning_returns_the_unpruned_embedding(g, sizes, closed, text):
    host = blow_up(g, sizes[: g.n], closed)
    pat = parse_pattern(text)
    assert find_induced(host, pat) == unpruned_find_induced(host, pat)


REFUSAL_PATTERNS = [
    "P3", "P4", "P5", "P6", "P7", "P8", "C4", "C5", "K4", "K2x2", "K3x3",
    "S1x1x1", "S1x1x3", "T3",
]


def near_copy_host(rnd, p: Graph, slack: int) -> Graph:
    """A host on p.n + slack vertices at a random density.  Half the time
    it holds a relabelled copy of p with up to two vertex pairs flipped,
    so the counts sit near their bounds on both sides."""
    n = p.n + slack
    d = rnd.random()
    on = {(u, v): rnd.random() < d for u in range(n) for v in range(u + 1, n)}
    if rnd.random() < 0.5:
        img = rnd.sample(range(n), p.n)
        for u, v in combinations(range(p.n), 2):
            on[min(img[u], img[v]), max(img[u], img[v])] = p.has_edge(u, v)
        for _ in range(rnd.randint(0, 2)):
            pair = rnd.choice(sorted(on))
            on[pair] = not on[pair]
    return Graph(n, [e for e, hit in on.items() if hit])


@settings(max_examples=400)
@given(
    st.sampled_from(REFUSAL_PATTERNS),
    st.sampled_from([0, 1, 2, 5]),
    st.randoms(use_true_random=False),
)
def test_counting_refusals_return_the_unrefused_embedding(text, slack, rnd):
    pat = parse_pattern(text)
    host = near_copy_host(rnd, pat.build(), slack)
    assert find_induced(host, pat) == unpruned_find_induced(host, pat)


def test_counting_refusals_on_irreducible_graphs(unfiltered_catalog9):
    # the catalogue's filters and a few more on every irreducible graph up
    # to 9 vertices; the counts settle most P8 and K3x3 tests with no search
    names = ("P8", "T5", "K3x3", "P6", "C6", "S1x1x3")
    refused = dict.fromkeys(names, 0)
    one_out = dict.fromkeys(names, 0)
    for e in unfiltered_catalog9.entries:
        g = e.graph.graph
        g_deg = [m.bit_count() for m in g.adj]
        for text in names:
            pat = parse_pattern(text)
            assert find_induced(g, pat) == unpruned_find_induced(g, pat)
            degs = _compile(pat).degs
            if len(degs) > g.n:
                continue
            core, core_deg = _core(g.adj, g_deg, degs[-1])
            if _refused(degs, core_deg):
                refused[text] += 1
            elif len(core_deg) == len(degs) + 1:
                one_out[text] += _one_out_refused(g.adj, core, core_deg, degs)
    assert len(unfiltered_catalog9) == 317
    assert refused == {"P8": 211, "T5": 0, "K3x3": 229, "P6": 7, "C6": 52, "S1x1x3": 9}
    assert one_out == {"P8": 68, "T5": 0, "K3x3": 0, "P6": 8, "C6": 21, "S1x1x3": 2}


def two_cycle_union(n: int, seed: int) -> Graph:
    """The union of two seeded random Hamiltonian cycles on n vertices:
    4-regular up to shared edges, and its line graph is claw-free."""
    rnd = random.Random(seed)
    edges = set()
    for _ in range(2):
        tour = rnd.sample(range(n), n)
        for a, b in zip(tour, tour[1:] + tour[:1]):
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def test_line_graphs_of_cycle_unions_match_the_unpruned_search():
    pats = [parse_pattern(t) for t in ("S1x1x3", "K3x3", "K2x2", "P8", "C6", "T3")]
    for n in range(5, 21):
        for seed in range(3):
            lg, _ = line_graph(two_cycle_union(n, seed))
            for pat in pats:
                assert find_induced(lg, pat) == unpruned_find_induced(lg, pat)


def test_generic_plans_are_connected():
    # each vertex of a connected pattern is placed next to a placed one,
    # so its candidates come from a placed image's neighbourhood
    for text in ("K3x3", "K2x5", "K4x4", "S1x1x3", "T4", "P8", "C7", "K5"):
        plan = _compile(parse_pattern(text)).generic
        assert all(plan.edge_js[i] for i in range(1, len(plan.order))), text
    assert _compile(parse_pattern("K3x3")).generic.order == (0, 3, 1, 4, 2, 5)


def test_twin_pruning_refutes_bicliques_at_once():
    # K(n,n) has no induced P4, so no S(1,1,3); without the pruning the
    # refutation tries order n^3 placements
    g = complete_bipartite(256, 256)
    assert find_induced(g, Pattern("S", (1, 1, 3))) is None
    hit = find_forbidden(g, [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))])
    assert str(hit[0]) == "K3x3"


def test_is_free_examples():
    lg, _ = line_graph(complete_bipartite(2, 3))
    assert is_free(lg, [Pattern("S", (1, 1, 1))])  # line graphs are claw-free
    hit = find_forbidden(complete_bipartite(3, 3), [Pattern("K", (3, 3))])
    assert hit is not None and str(hit[0]) == "K3x3"
    assert is_free(path_graph(7), [Pattern("P", (8,))])


@pytest.mark.parametrize(
    "pat", [parse_pattern(t) for t in ("S1x1x3", "K3x3", "P5", "C5", "K2x3", "S1x1x2")]
)
def test_oracle_equivalence_exhaustive_n6(pat):
    # every labelled graph on 6 vertices, against the subset oracle; with
    # a 5-vertex pattern this covers every core one vertex larger than it
    p = pat.build()
    for sel in range(1 << 15):
        edges = []
        k = 0
        for u in range(6):
            for v in range(u + 1, 6):
                if sel >> k & 1:
                    edges.append((u, v))
                k += 1
        g = Graph(6, edges)
        assert (find_induced(g, pat) is not None) == oracle_contains_induced(g, p)


@settings(max_examples=120)
@given(graphs_st(max_n=9), st.sampled_from(["P4", "S1x1x1", "K2x2", "P6", "S1x1x3", "K3x3", "C5", "T3"]))
def test_oracle_equivalence_random(g, text):
    pat = parse_pattern(text)
    assert (find_induced(g, pat) is not None) == oracle_contains_induced(
        g, pat.build()
    )


def test_claw_free_implies_class_free():
    # both larger patterns contain an induced claw
    spider113 = spider(1, 1, 3)
    k33 = complete_bipartite(3, 3)
    claw = Pattern("S", (1, 1, 1))
    assert find_induced(spider113, claw) is not None
    assert find_induced(k33, claw) is not None
    for seed in range(10):
        from augmis import gen_free_random

        g = gen_free_random(9, 0.4, [claw], seed)
        assert is_free(g, [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))])


# -- subdivided stars --


def oracle_max_star(g: Graph, centre: int):
    """Largest valid star at centre by brute force over (middles, leaves)."""
    best = None
    legs = [
        (a, b)
        for a in g.neighbors(centre)
        for b in g.neighbors(a)
        if b != centre and not g.has_edge(centre, b)
    ]

    def compatible(sel):
        seen = {centre}
        for a, b in sel:
            if a in seen or b in seen:
                return False
            seen.add(a)
            seen.add(b)
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                a1, b1 = sel[i]
                a2, b2 = sel[j]
                if (
                    g.has_edge(a1, a2)
                    or g.has_edge(a1, b2)
                    or g.has_edge(b1, a2)
                    or g.has_edge(b1, b2)
                ):
                    return False
        return True

    for size in range(len(legs), 0, -1):
        for sel in combinations(legs, size):
            if compatible(sel):
                return size
    return 0


@given(graphs_st(max_n=7), st.data())
def test_all_maximal_stars_agree_with_cardinality_oracle(g, data):
    centre = data.draw(st.integers(0, g.n - 1))
    stars = all_maximal_subdivided_stars(g, centre)
    best = oracle_max_star(g, centre)
    got_best = max((len(m) for m, _ in stars), default=0)
    assert got_best == best


# -- anchored plans --


def _orbit_roots(g: Graph) -> list[int]:
    """Least vertex of each automorphism orbit, from coloured canonical
    codes: u and v share an orbit iff colouring u alone gives the same
    code as colouring v alone."""
    seen = set()
    roots = []
    for v in range(g.n):
        cols = tuple(int(u == v) for u in range(g.n))
        code = canon_code(g.n, g.adj, cols)
        if code not in seen:
            seen.add(code)
            roots.append(v)
    return roots


def test_anchored_roots_are_orbit_minima():
    checked = 0
    for g in grow_graphs(6):
        full = (1 << g.n) - 1
        co = Graph.from_masks(
            g.n, [full & ~m & ~(1 << v) for v, m in enumerate(g.adj)]
        )
        for h in (g, co):
            roots = [plan.order[0] for plan in _Compiled(h).anchored]
            assert roots == _orbit_roots(h), h.adj
            checked += 1
    assert checked == 2 * 143


def test_symmetric_patterns_compile_to_one_anchored_plan():
    five_edges = Graph(10, [(2 * i, 2 * i + 1) for i in range(5)])
    for p in (complete_graph(10), Graph(10, []), five_edges):
        assert len(_Compiled(p).anchored) == 1
