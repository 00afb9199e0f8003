import pytest

from augmis import (
    Graph,
    Pattern,
    compute_anatomy,
    enumerate_irreducible,
    subdivided_star,
    verify_extension_bound,
    verify_min_classes,
    verify_path_or_cycle,
    verify_star_anatomy,
)
from augmis.verify import anatomy_covers, anatomy_violations


def test_anatomy_on_bare_star():
    t3 = subdivided_star(3)
    a = compute_anatomy(t3, 0, {1, 2, 3}, {4, 5, 6})
    assert not (
        a.leaf_nbrs
        | a.middle_nbrs
        | a.centre_only
        | a.second_middle
        | a.second_leaf
    )
    assert anatomy_violations(t3, a) == []
    assert anatomy_covers(t3, a)


def test_anatomy_strata_examples():
    t3 = subdivided_star(3)
    pendant_on_centre = Graph(8, list(t3.edges()) + [(0, 7)])
    a = compute_anatomy(pendant_on_centre, 0, {1, 2, 3}, {4, 5, 6})
    assert a.centre_only == {7}

    sees_all_leaves = Graph(8, list(t3.edges()) + [(7, 4), (7, 5), (7, 6)])
    a = compute_anatomy(sees_all_leaves, 0, {1, 2, 3}, {4, 5, 6})
    assert 7 in a.leaf_nbrs_full and 7 in a.leaf_nbrs
    assert 7 not in a.leaf_nbrs_single


def test_anatomy_rejects_malformed_star():
    t3 = subdivided_star(3)
    with pytest.raises(ValueError):
        compute_anatomy(t3, 0, {1, 2}, {4, 5, 6})
    with pytest.raises(ValueError):
        compute_anatomy(t3, 1, {0, 2, 3}, {4, 5, 6})


def test_anatomy_flags_statement_breaches():
    # leaf neighbour that misses the centre: its host graph is not
    # spider-free, and the checks report exactly that statement
    t3 = subdivided_star(3)
    g = Graph(8, list(t3.edges()) + [(7, 4)])
    a = compute_anatomy(g, 0, {1, 2, 3}, {4, 5, 6})
    assert "leaf-nbrs-see-centre" in anatomy_violations(g, a)


def test_path_or_cycle_small():
    rep = verify_path_or_cycle(10)
    assert rep.ok
    assert rep.counts == {8: 1, 9: 1, 10: 2}
    assert rep.checked == 4
    payload = rep.to_json()
    assert payload["violations"] == []


def test_star_anatomy_small():
    rep = verify_star_anatomy(9)
    assert rep.ok
    assert rep.counts == {7: 1, 8: 7, 9: 27}
    assert rep.checked == 35


def test_star_anatomy_bound_checks():
    with pytest.raises(ValueError):
        verify_star_anatomy(14)


def test_extension_bound_small():
    rep = verify_extension_bound(2, 11)
    assert rep.ok
    # the only qualifying irreducible graphs at this size are the bare
    # subdivided stars of orders 4 and 5
    assert rep.counts == {9: 1, 11: 1}
    assert rep.checked == 2


def test_extension_bound_rejects_small_p():
    with pytest.raises(ValueError, match="at least 2"):
        verify_extension_bound(1, 7)


def test_min_classes_reports_witnesses_that_are_not_induced(monkeypatch):
    import augmis.verify as verify_mod

    # a witness that maps two pattern vertices onto one host vertex
    def bogus(g, pats):
        if g.n < 4:
            return None
        return Pattern("P", (4,)), {0: 0, 1: 0, 2: 1, 3: 2}

    monkeypatch.setattr(verify_mod, "find_forbidden", bogus)
    rep = verify_min_classes(5, 4)
    assert not rep.ok
    assert rep.counts == {1: 1, 3: 1, 5: 0} and rep.checked == 5
    assert rep.violations == tuple(
        {"code": e.code.hex()}
        for e in enumerate_irreducible(5).entries
        if e.graph.graph.n == 5
    )
