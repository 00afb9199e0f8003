import pytest
from hypothesis import given
from hypothesis import strategies as st

from augmis import (
    Graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    is_independent,
    path_graph,
)
from augmis.graphs import bipartite_matching, component_mask, two_colouring
from conftest import (
    bicolored,
    bipartition,
    graphs_st,
    induced_subgraph,
    max_bipartite_matching,
    neighbourhood,
)


def test_construction_rejects_self_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_masks(2, [0b10, 0b00])  # asymmetric


def test_neighbourhood_examples():
    p3 = path_graph(3)
    assert neighbourhood(p3, {1}) == {0, 2}
    assert neighbourhood(p3, set()) == set()
    k33 = complete_bipartite(3, 3)
    assert neighbourhood(k33, {0, 1, 2}) == {3, 4, 5}


def test_neighbourhood_range_check():
    with pytest.raises(ValueError):
        neighbourhood(path_graph(3), {5})


def test_induced_subgraph_examples():
    c5 = cycle_graph(5)
    sub, remap = induced_subgraph(c5, {0, 1, 2})
    assert sub == path_graph(3)
    assert remap == {0: 0, 1: 1, 2: 2}

    g, _ = induced_subgraph(c5, range(5))
    assert g == c5

    k4 = complete_graph(4)
    sub, _ = induced_subgraph(k4, {0, 2, 3})
    assert sub == complete_graph(3)


def test_is_independent_examples():
    assert is_independent(complete_graph(3), set())
    assert not is_independent(complete_graph(3), {0, 1})
    assert is_independent(cycle_graph(5), {0, 2})


def test_connected_components_examples():
    assert connected_components(path_graph(5)) == [frozenset(range(5))]
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == [{0, 1}, {2, 3}]
    assert connected_components(Graph(3)) == [{0}, {1}, {2}]


def test_bipartition_examples():
    assert bipartition(cycle_graph(4)) == ({0, 2}, {1, 3})
    assert bipartition(cycle_graph(5)) is None
    assert bipartition(Graph(1)) == ({0}, frozenset())


def test_mask_helpers_examples():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert component_mask(two_edges.adj, 3) == 0b1100
    assert component_mask(Graph(1).adj, 0) == 1
    assert two_colouring(4, two_edges.adj) == (0b0101, 0b1010)
    assert two_colouring(3, complete_graph(3).adj) is None


def test_bipartition_canonical_side_rule():
    # two components; each component's smallest vertex lands on the first side
    g = Graph(4, [(0, 1), (2, 3)])
    first, second = bipartition(g)
    assert 0 in first and 2 in first


@given(graphs_st(max_n=8), st.data())
def test_independence_iff_no_induced_edges(g, data):
    xs = data.draw(st.sets(st.integers(0, g.n - 1)))
    sub, _ = induced_subgraph(g, xs)
    assert is_independent(g, xs) == (sub.num_edges == 0)


@given(graphs_st(max_n=8), st.data())
def test_neighbourhood_monotone(g, data):
    small = data.draw(st.sets(st.integers(0, g.n - 1)))
    extra = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert neighbourhood(g, small) <= neighbourhood(g, small | extra)


@given(graphs_st(max_n=8))
def test_bipartition_is_proper_cover(g):
    parts = bipartition(g)
    if parts is None:
        return
    first, second = parts
    assert first | second == set(range(g.n))
    assert not first & second
    assert is_independent(g, first) and is_independent(g, second)


@given(graphs_st(max_n=8))
def test_edges_round_trip(g):
    assert Graph(g.n, list(g.edges())) == g
    assert g.num_edges == len(list(g.edges()))


@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
)
def test_bipartite_matching_is_maximum(n_white, n_black, pairs):
    edges = [(w, n_white + b) for w, b in pairs if w < n_white and b < n_black]
    h = bicolored(n_white, n_black, edges)
    whites = sorted(h.white)
    mate = bipartite_matching(h.graph.adj, whites)
    assert set(mate) <= h.white
    assert len(set(mate.values())) == len(mate)
    assert all(h.graph.has_edge(w, b) for w, b in mate.items())
    assert len(mate) == len(max_bipartite_matching(h))
