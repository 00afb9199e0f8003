import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augmis import (
    Graph,
    Pattern,
    PlantSpec,
    brute_force_mis,
    complete_graph,
    find_tree_extension,
    gen_free_random,
    is_augmenting,
    is_free,
    is_independent,
    line_graph,
    max_matching_size,
    path_graph,
    plant_augmenting_tree,
)
from augmis.instances import GenerationError
from conftest import graphs_st, petersen


def test_line_graph_examples():
    lp4, edges = line_graph(path_graph(4))
    assert lp4 == path_graph(3)
    assert edges == ((0, 1), (1, 2), (2, 3))
    lk3, _ = line_graph(complete_graph(3))
    assert lk3 == complete_graph(3)
    lk4, _ = line_graph(complete_graph(4))
    assert lk4.n == 6 and lk4.num_edges == 12
    assert all(lk4.degree(v) == 4 for v in range(6))
    with pytest.raises(ValueError):
        line_graph(Graph(3))


def test_line_graphs_are_claw_free():
    claw = Pattern("S", (1, 1, 1))
    for seed in range(10):
        g = gen_free_random(8, 0.5, [], seed)
        if g.num_edges == 0:
            continue
        lg, _ = line_graph(g)
        assert is_free(lg, [claw])
        assert is_free(lg, [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))])


def test_matching_examples():
    assert max_matching_size(complete_graph(4)) == 2
    assert max_matching_size(path_graph(5)) == 2
    assert max_matching_size(petersen()) == 5
    with pytest.raises(ValueError):
        max_matching_size(Graph(21))


@settings(max_examples=60)
@given(graphs_st(max_n=8))
def test_line_graph_alpha_equals_matching(g):
    if g.num_edges == 0:
        return
    lg, _ = line_graph(g)
    if lg.n > 20:
        return
    assert brute_force_mis(lg).alpha == max_matching_size(g)


def test_gen_free_random_postcondition():
    pats = [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))]
    for seed in range(100):
        g = gen_free_random(10, 0.45, pats, seed)
        assert is_free(g, pats)
    assert gen_free_random(1, 0.5, pats, 0).n == 1


def test_gen_free_random_deterministic():
    pats = [Pattern("S", (1, 1, 1))]
    assert gen_free_random(12, 0.4, pats, 9) == gen_free_random(12, 0.4, pats, 9)
    assert gen_free_random(12, 0.4, pats, 9) != gen_free_random(12, 0.4, pats, 10)


@pytest.mark.parametrize("density", [1.5, -1.0, float("nan")])
def test_gen_free_random_rejects_bad_density(density):
    with pytest.raises(ValueError, match="density"):
        gen_free_random(10, density, [Pattern("S", (1, 1, 1))], 1)


def test_gen_free_random_rejects_edgeless_pattern():
    with pytest.raises(GenerationError):
        gen_free_random(5, 0.5, [path_graph(1)], 0)


def test_plant_spec_validation():
    with pytest.raises(ValueError):
        PlantSpec(k=3, p=2)  # k < p + 2
    with pytest.raises(ValueError):
        PlantSpec(k=5, p=2, extras=5)  # extras > 2p
    with pytest.raises(ValueError):
        PlantSpec(k=4, p=1)
    # 2k + 1 + 2 extras vertices, checked before anything is built
    with pytest.raises(ValueError, match="the cap is 65536"):
        PlantSpec(k=1_000_000_000, p=3, seed=1)
    with pytest.raises(ValueError, match="the cap is 65536"):
        PlantSpec(k=32767, p=3, extras=1)  # 65537 vertices
    # the counts are odd, so 65535 is the largest accepted
    PlantSpec(k=32767, p=3)
    PlantSpec(k=32766, p=3, extras=1)


def test_plant_bare_star():
    g, s = plant_augmenting_tree(PlantSpec(k=4, p=2))
    from augmis import subdivided_star

    assert g == subdivided_star(4)
    assert s == frozenset(range(1, 5))
    assert brute_force_mis(g).alpha == len(s) + 1


@pytest.mark.parametrize(
    "k,p,extras", [(4, 2, 0), (4, 2, 3), (5, 2, 4), (5, 3, 1), (5, 3, 2), (6, 3, 5)]
)
def test_plant_grid(k, p, extras):
    for seed in (0, 1, 2):
        spec = PlantSpec(k=k, p=p, extras=extras, seed=seed)
        g, s = plant_augmenting_tree(spec)
        assert is_independent(g, s)
        assert is_free(g, [Pattern("S", (1, 1, 3)), Pattern("K", (p, p))])
        assert brute_force_mis(g).alpha == len(s) + 1
        cand = find_tree_extension(g, s, p)
        assert cand is not None and is_augmenting(g, s, cand)


def test_plant_noise_keeps_guarantees():
    spec = PlantSpec(k=5, p=3, extras=3, noise=3, seed=4)
    g, s = plant_augmenting_tree(spec)
    assert is_free(g, [Pattern("S", (1, 1, 3)), Pattern("K", (3, 3))])
    assert brute_force_mis(g).alpha == len(s) + 1
    assert find_tree_extension(g, s, 3) is not None


def test_plant_infeasible_noise():
    with pytest.raises(GenerationError):
        # no extras means no legal noise pool at all
        plant_augmenting_tree(PlantSpec(k=4, p=2, extras=0, noise=1))
