"""Frozen digests of the enumerators' output.

The count tests elsewhere would miss a change of representative or of
yield order; these digests catch it.  Each is a sha256 over
``repr((g.n, g.adj))`` of every yielded Graph, or ``repr((n, adj,
cols))`` of every raw triple, in yield order.
"""

import hashlib

from augmis import Pattern, class_patterns
from augmis.enumeration import (
    grow_balanced_bicolored_raw,
    grow_bicolored_raw,
    grow_graphs,
)


def _digest(items):
    h = hashlib.sha256()
    count = 0
    for item in items:
        h.update(repr(item).encode())
        count += 1
    return count, h.hexdigest()[:16]


def test_grow_graphs_digests():
    classes = grow_graphs(7, free_of=class_patterns(3))
    assert _digest((g.n, g.adj) for g in classes) == (938, "d84bdf882ab4f152")
    spider_free = grow_graphs(9, bipartite=True, free_of=(Pattern("S", (1, 1, 3)),))
    assert _digest((g.n, g.adj) for g in spider_free) == (276, "22c4e72546af03f9")


def test_grow_bicolored_raw_digest():
    assert _digest(grow_bicolored_raw(6)) == (163, "f290c10e56971f28")


def test_grow_balanced_bicolored_raw_digest():
    filters = (Pattern("P", (8,)), Pattern("T", (5,)), Pattern("K", (3, 3)))
    got = _digest(grow_balanced_bicolored_raw(9, filters))
    assert got == (486, "840b7bd039da6181")


def test_growers_yield_nothing_below_one_vertex():
    for n_max in (0, -1):
        assert list(grow_graphs(n_max)) == []
        assert list(grow_bicolored_raw(n_max)) == []
        assert list(grow_balanced_bicolored_raw(n_max)) == []
