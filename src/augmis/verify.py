"""Executable structure checks over exhaustively enumerated small graphs.

Each sweep enumerates a hereditary family up to a vertex bound, tests a
structural claim on every member, and returns a machine-readable report:
counts per vertex count plus a list of violation witnesses.  An empty
violation list is the expected outcome; a non-empty one is a converted
test failure carrying the offending graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .enumeration import grow_graphs
from .graphs import Graph, bits, connected_components, mask_of, set_of
from .irreducible import enumerate_irreducible
from .patterns import (
    Pattern,
    all_maximal_subdivided_stars,
    class_patterns,
    find_forbidden,
    find_induced,
)

__all__ = [
    "StarAnatomy",
    "compute_anatomy",
    "anatomy_violations",
    "SweepReport",
    "spider_free_bipartite_corpus",
    "verify_path_or_cycle",
    "verify_star_anatomy",
    "verify_extension_bound",
    "verify_min_classes",
]

_SPIDER = Pattern("S", (1, 1, 3))
_MIN_STAR_ORDER = 3  # the anatomy statements need star order at least 3


@dataclass(frozen=True)
class StarAnatomy:
    """The neighbourhood strata around an induced subdivided star.

    With centre u, middles and leaves of the star fixed, the remaining
    vertices stratify by which layer they touch: leaf_nbrs touch leaves
    (beyond the middles), middle_nbrs touch middles (beyond centre and
    leaves), centre_only touch the centre but no leaf neighbour, and two
    second-order sets collect what hangs off middle_nbrs and leaf_nbrs.
    Sets overlap only where the definitions allow.
    """

    centre: int
    middles: frozenset[int]
    leaves: frozenset[int]
    leaf_nbrs: frozenset[int]          # N(leaves) minus middles
    leaf_nbrs_single: frozenset[int]   # exactly one leaf neighbour
    leaf_nbrs_full: frozenset[int]     # adjacent to every leaf
    middle_nbrs: frozenset[int]        # N(middles) minus centre and leaves
    centre_only: frozenset[int]        # N(centre) minus middles, leaf_nbrs
    second_middle: frozenset[int]      # N(middle_nbrs) minus the above
    second_leaf: frozenset[int]        # N(leaf_nbrs) minus the above


def compute_anatomy(
    g: Graph, centre: int, middles: Iterable[int], leaves: Iterable[int]
) -> StarAnatomy:
    """Stratify ``g`` around an induced subdivided star; validates it."""
    mid = frozenset(middles)
    leaf = frozenset(leaves)
    _validate_star(g, centre, mid, leaf)
    adj = g.adj
    mid_m = mask_of(mid)
    leaf_m = mask_of(leaf)
    centre_b = 1 << centre

    n_leaves = 0
    for v in leaf:
        n_leaves |= adj[v]
    leaf_nbrs_m = n_leaves & ~mid_m
    single = 0
    fullm = 0
    for v in bits(leaf_nbrs_m):
        cnt = (adj[v] & leaf_m).bit_count()
        if cnt == 1:
            single |= 1 << v
        if cnt == len(leaf):
            fullm |= 1 << v

    n_mid = 0
    for v in mid:
        n_mid |= adj[v]
    middle_nbrs_m = n_mid & ~(centre_b | leaf_m)
    centre_only_m = adj[centre] & ~(mid_m | leaf_nbrs_m)

    n_mn = 0
    for v in bits(middle_nbrs_m):
        n_mn |= adj[v]
    second_middle_m = n_mn & ~(centre_only_m | mid_m | leaf_nbrs_m)

    n_ln = 0
    for v in bits(leaf_nbrs_m):
        n_ln |= adj[v]
    second_leaf_m = n_ln & ~(centre_b | leaf_m | middle_nbrs_m)

    return StarAnatomy(
        centre,
        mid,
        leaf,
        set_of(leaf_nbrs_m),
        set_of(single),
        set_of(fullm),
        set_of(middle_nbrs_m),
        set_of(centre_only_m),
        set_of(second_middle_m),
        set_of(second_leaf_m),
    )


def _validate_star(
    g: Graph, centre: int, mid: frozenset[int], leaf: frozenset[int]
) -> None:
    k = len(mid)
    if k != len(leaf) or k == 0:
        raise ValueError("middles and leaves must pair up")
    body = {centre} | mid | leaf
    if len(body) != 2 * k + 1:
        raise ValueError("star vertices must be distinct")
    adj = g.adj
    mid_m, leaf_m = mask_of(mid), mask_of(leaf)
    if adj[centre] & mid_m != mid_m or adj[centre] & leaf_m:
        raise ValueError("centre adjacency is not star-shaped")
    for a in mid:
        if (adj[a] & leaf_m).bit_count() != 1 or adj[a] & mid_m:
            raise ValueError("middle adjacency is not star-shaped")
    for b in leaf:
        if (adj[b] & mid_m).bit_count() != 1 or adj[b] & leaf_m:
            raise ValueError("leaf adjacency is not star-shaped")


_CHECKS = (
    "leaf-nbrs-see-centre",
    "middle-nbrs-complete-to-middles",
    "centre-only-confined",
    "second-middle-confined",
    "leaf-nbrs-split",
    "leaf-nbrs-one-kind",
    "single-kind-confined",
    "second-leaf-confined",
)


def anatomy_violations(g: Graph, a: StarAnatomy) -> list[str]:
    """Names of the structure statements the anatomy breaks (ideally none).

    The statements hold for every inclusion-maximal induced subdivided
    star of order >= 3 in a bipartite graph with no induced spider(1,1,3);
    running them on other inputs can legitimately report violations.
    """
    adj = g.adj
    out = []
    centre_b = 1 << a.centre
    mid_m = mask_of(a.middles)
    leaf_m = mask_of(a.leaves)
    ln_m = mask_of(a.leaf_nbrs)
    mn_m = mask_of(a.middle_nbrs)

    if any(not adj[a.centre] >> v & 1 for v in a.leaf_nbrs):
        out.append(_CHECKS[0])
    if any(adj[v] & mid_m != mid_m for v in a.middle_nbrs):
        out.append(_CHECKS[1])
    if any(adj[v] & ~(centre_b | mn_m) for v in a.centre_only):
        out.append(_CHECKS[2])
    if any(adj[v] & ~mn_m for v in a.second_middle):
        out.append(_CHECKS[3])
    if a.leaf_nbrs != a.leaf_nbrs_single | a.leaf_nbrs_full:
        out.append(_CHECKS[4])
    if a.leaf_nbrs_single and a.leaf_nbrs_full:
        out.append(_CHECKS[5])
    if any(
        adj[v] & ~(centre_b | leaf_m | mn_m) for v in a.leaf_nbrs_single
    ):
        out.append(_CHECKS[6])
    if any(adj[v] & ~ln_m for v in a.second_leaf):
        out.append(_CHECKS[7])
    return out


def anatomy_covers(g: Graph, a: StarAnatomy) -> bool:
    """Do the strata exhaust the graph?  Expected to hold when connected."""
    cover = (
        {a.centre}
        | a.middles
        | a.leaves
        | a.leaf_nbrs
        | a.middle_nbrs
        | a.centre_only
        | a.second_middle
        | a.second_leaf
    )
    return cover == set(range(g.n))


@dataclass(frozen=True)
class SweepReport:
    """One sweep's outcome: ``checked`` members tested, ``counts`` per
    vertex count of what the sweep tallies, and one witness dict per
    violation."""

    name: str
    params: dict = field(compare=False)
    counts: dict[int, int] = field(compare=False)
    checked: int = 0
    violations: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "checked": self.checked,
            "violations": list(self.violations),
        }


def spider_free_bipartite_corpus(n_max: int) -> Iterable[Graph]:
    """The enumeration both sweeps below run over; exposed so callers
    can build it once and share it."""
    return grow_graphs(n_max, bipartite=True, free_of=(_SPIDER,))


def verify_path_or_cycle(
    n_max: int, corpus: Optional[Iterable[Graph]] = None
) -> SweepReport:
    """Connected bipartite spider-free graphs holding a long chordless
    path must themselves be chordless paths or cycles.

    Enumerates the family up to n_max vertices, filters the members
    containing an induced P(8), and shape-checks each one.
    """
    if n_max > 12:
        raise ValueError("sweep capped at 12 vertices")
    p8 = Pattern("P", (8,))
    counts: dict[int, int] = {}
    checked = 0
    violations = []
    for g in corpus if corpus is not None else spider_free_bipartite_corpus(n_max):
        if g.n < 8 or find_induced(g, p8) is None:
            continue
        checked += 1
        counts[g.n] = counts.get(g.n, 0) + 1
        # connected with maximum degree <= 2: a chordless path or cycle
        connected = len(connected_components(g)) == 1
        if not connected or any(g.degree(v) > 2 for v in range(g.n)):
            violations.append({"n": g.n, "edges": sorted(g.edges())})
    return SweepReport(
        "path-or-cycle", {"n_max": n_max}, counts, checked, tuple(violations)
    )


def verify_star_anatomy(
    n_max: int, corpus: Optional[Iterable[Graph]] = None
) -> SweepReport:
    """All eight structure statements, on every maximal star of order
    >= 3 in every connected bipartite spider-free graph <= n_max.

    Also asserts the strata cover the whole (connected) graph.
    """
    if n_max > 13:
        raise ValueError("sweep capped at 13 vertices")
    counts: dict[int, int] = {}
    checked = 0
    violations = []
    for g in corpus if corpus is not None else spider_free_bipartite_corpus(n_max):
        for centre in range(g.n):
            if g.degree(centre) < _MIN_STAR_ORDER:
                continue
            for mid, leaf in all_maximal_subdivided_stars(
                g, centre, _MIN_STAR_ORDER
            ):
                checked += 1
                counts[g.n] = counts.get(g.n, 0) + 1
                anatomy = compute_anatomy(g, centre, mid, leaf)
                broken = anatomy_violations(g, anatomy)
                if not anatomy_covers(g, anatomy):
                    broken = broken + ["coverage"]
                if broken:
                    violations.append(
                        {
                            "n": g.n,
                            "edges": sorted(g.edges()),
                            "centre": centre,
                            "middles": sorted(mid),
                            "broken": broken,
                        }
                    )
    return SweepReport(
        "anatomy",
        {"n_max": n_max, "k_min": _MIN_STAR_ORDER},
        counts,
        checked,
        tuple(violations),
    )


def verify_extension_bound(p: int, n_max: int) -> SweepReport:
    """Irreducible class-free graphs with a large induced subdivided star
    are near-stars: deleting at most 4p vertices leaves a subdivided
    star of order >= p+2, and a black-centred copy of order p+2 exists.
    """
    if p < 2:
        raise ValueError("class parameter p must be at least 2")
    if n_max > 13:
        raise ValueError("sweep capped at 13 vertices")
    star = Pattern("T", (p + 2,))
    counts: dict[int, int] = {}
    checked = 0
    violations = []
    for entry in enumerate_irreducible(n_max, class_patterns(p)).entries:
        h = entry.graph
        g = h.graph
        if g.n < 2 * (p + 2) + 1 or find_induced(g, star) is None:
            continue
        checked += 1
        counts[g.n] = counts.get(g.n, 0) + 1
        best_k = 0
        black_centred = False
        for centre in range(g.n):
            for mid, leaf in all_maximal_subdivided_stars(g, centre):
                if len(mid) > best_k:
                    best_k = len(mid)
                if len(mid) >= p + 2 and centre in h.black:
                    black_centred = True
        problems = []
        if best_k < p + 2 or g.n - (2 * best_k + 1) > 4 * p:
            problems.append("not-a-4p-extension")
        if not black_centred:
            problems.append("no-black-centred-star")
        if problems:
            violations.append(
                {"n": g.n, "edges": sorted(g.edges()), "broken": problems}
            )
    return SweepReport(
        "extension",
        {"p": p, "n_max": n_max},
        counts,
        checked,
        tuple(violations),
    )


def verify_min_classes(n_max: int, t: int) -> SweepReport:
    """Classify all irreducible graphs on <= n_max vertices against the
    patterns P(t), K(t-1,t), T(t): count the free ones per vertex count,
    and report every excluded one whose witness is not induced.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    pats = (
        Pattern("P", (t,)),
        Pattern("K", (t - 1, t)),
        Pattern("T", (t,)),
    )
    counts = {n: 0 for n in range(1, n_max + 1, 2)}
    entries = enumerate_irreducible(n_max).entries
    violations = []
    for entry in entries:
        g = entry.graph.graph
        hit = find_forbidden(g, pats)
        if hit is None:
            counts[g.n] += 1
        elif not _witness_is_induced(g, *hit):
            violations.append({"code": entry.code.hex()})
    return SweepReport(
        "min-classes",
        {"n_max": n_max, "t": t},
        counts,
        len(entries),
        tuple(violations),
    )


def _witness_is_induced(g: Graph, pat: Pattern, emb: dict[int, int]) -> bool:
    p = pat.build()
    img = list(emb.values())
    if len(set(img)) != p.n:
        return False
    for u in range(p.n):
        for v in range(u + 1, p.n):
            if p.has_edge(u, v) != g.has_edge(emb[u], emb[v]):
                return False
    return True
