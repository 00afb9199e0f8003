"""Frozen digests of the enumerators' output, the grow loop against a
reference that filters every child before deduplicating, and the orbit
skip's number of canonical codes against a brute-force count.

The count tests elsewhere would miss a change of representative or of
yield order; these digests catch it.  Each is a sha256 over
``repr((g.n, g.adj))`` of every yielded Graph, or ``repr((n, adj,
cols))`` of every raw triple, in yield order.
"""

import hashlib

import pytest

from augmis import Pattern, class_patterns, enumeration
from augmis.canonical import canon_code
from augmis.enumeration import (
    grow_balanced_bicolored_raw,
    grow_bicolored_raw,
    grow_graphs,
)
from augmis.patterns import _as_graph, _compile, _contains_anchored
from augmis.solver import _default_filters
from conftest import automorphisms


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
    sweep = grow_graphs(8, free_of=class_patterns(3))
    assert _digest((g.n, g.adj) for g in sweep) == (9930, "81f79251303f59e6")
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


def _filter_then_dedup_grow(n_max, seeds, step, children, shape, free_of):
    """Reference loop: every child is shape-checked and searched for a
    filter pattern before its canonical code is taken."""
    if n_max < 1:
        return
    checks = [_compile(_as_graph(p)) for p in free_of]

    def keep(n, adj, fresh):
        if shape is not None and not shape(n, adj):
            return False
        if checks:
            deg = [m.bit_count() for m in adj]
            for c in checks:
                for v in fresh:
                    if _contains_anchored(n, adj, deg, c, v):
                        return False
        return True

    n = 1
    level = {}
    for adj, cols in seeds:
        if keep(1, adj, range(1)):
            level[canon_code(1, adj, cols)] = (adj, cols)
    while True:
        for code in sorted(level):
            adj, cols = level[code]
            yield n, adj, cols
        n += step
        if n > n_max:
            return
        fresh = range(n - step, n)
        nxt = {}
        for padj, pcols in level.values():
            for adj, cols in children(padj, pcols):
                if keep(n, adj, fresh):
                    code = canon_code(n, adj, cols)
                    if code not in nxt:
                        nxt[code] = (adj, cols)
        level = nxt


_GRAPH_FILTERS = {
    "S113-K2x2": class_patterns(2),
    "S113-K3x3": class_patterns(3),
    "P5": (Pattern("P", (5,)),),
    "K2x2": (Pattern("K", (2, 2)),),
}


def _graph_run(free_of, bipartite=False):
    return lambda: [
        (g.n, g.adj) for g in grow_graphs(7, bipartite=bipartite, free_of=free_of)
    ]


_DIFFERENTIAL_RUNS = {
    **{f"graphs-{k}": _graph_run(f) for k, f in _GRAPH_FILTERS.items()},
    "bipartite-graphs-P5": _graph_run(_GRAPH_FILTERS["P5"], bipartite=True),
    "bicolored": lambda: list(grow_bicolored_raw(6)),
    **{
        f"balanced-p{p}": lambda p=p: list(
            grow_balanced_bicolored_raw(9, _default_filters(p))
        )
        for p in (2, 3)
    },
}


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_RUNS))
def test_growers_match_filter_then_dedup_reference(name, monkeypatch):
    # dedup before the filter search keeps every representative and the
    # yield order of the loop that filters each child first
    run = _DIFFERENTIAL_RUNS[name]
    got = run()
    monkeypatch.setattr(enumeration, "_grow", _filter_then_dedup_grow)
    want = run()
    assert got == want and len(got) > 1


def test_filter_search_runs_once_per_class(monkeypatch):
    searched = []

    def counting(n, adj, deg, c, v):
        if not searched or searched[-1][1] is not adj:
            searched.append((n, adj))
        counting.calls += 1
        return _contains_anchored(n, adj, deg, c, v)

    counting.calls = 0
    monkeypatch.setattr(enumeration, "_contains_anchored", counting)
    kept = list(grow_graphs(7, free_of=class_patterns(3)))
    assert len(kept) == 938
    codes = [(n, canon_code(n, adj)) for n, adj in searched]
    assert len(set(codes)) == len(codes)
    # 938 classes kept and 57 rejected, each searched once
    assert (len(searched), counting.calls) == (995, 1943)


def _orbit_representatives(raw, n_max, seeds, step, children, shape):
    """Canonical codes an orbit skip with the full automorphism group of
    each parent takes: one per shape-passing seed (no filter holds a
    single vertex), and per expanded parent one per orbit of its
    shape-passing children under every permutation that is an
    automorphism of the parent, found by brute force."""
    count = sum(1 for adj, _ in seeds if shape is None or shape(1, adj))
    for n, adj, cols in raw:
        if n + step > n_max:
            continue
        low = (1 << n) - 1
        group = automorphisms(n, adj, cols)
        orbits = set()
        for cadj, ccols in children(adj, cols):
            if shape is not None and not shape(n + step, cadj):
                continue
            fresh_cols = ccols[n:] if ccols is not None else None
            orbits.add(min(
                (fresh_cols, tuple(
                    r & ~low | sum(1 << p[v] for v in range(n) if r >> v & 1)
                    for r in cadj[n:]
                ))
                for p in group
            ))
        count += len(orbits)
    return count


_SKIP_RUNS = {
    "graphs-S113-K3x3": (
        lambda: [(g.n, g.adj, None) for g in grow_graphs(7, free_of=class_patterns(3))],
        4104,
    ),
    "balanced-p3": (
        lambda: list(grow_balanced_bicolored_raw(9, _default_filters(3))),
        4399,
    ),
}


@pytest.mark.parametrize("name", sorted(_SKIP_RUNS))
def test_orbit_skip_codes_one_child_per_parent_orbit(name, monkeypatch):
    # a child is coded only when no automorphism of its parent maps it onto
    # an earlier child, so a skip that misses part of a parent's group (or
    # skips more) codes a different number of children
    run, pinned = _SKIP_RUNS[name]
    grow, canon = enumeration._grow, enumeration.canon_code
    args = {}
    calls = []

    def spy(n_max, seeds, step, children, shape, free_of):
        seeds = list(seeds)
        args.update(n_max=n_max, seeds=seeds, step=step, children=children,
                    shape=shape)
        return grow(n_max, seeds, step, children, shape, free_of)

    def counting(*a, **k):
        calls.append(a[0])
        return canon(*a, **k)

    monkeypatch.setattr(enumeration, "_grow", spy)
    monkeypatch.setattr(enumeration, "canon_code", counting)
    raw = run()
    monkeypatch.undo()
    assert len(calls) == _orbit_representatives(raw, **args) == pinned
