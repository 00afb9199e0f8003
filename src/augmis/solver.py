"""Top-level maximum independent set algorithm and brute-force oracle.

The solver starts from a greedy maximal set and repeatedly applies
augmentations found by the path, star-extension and catalogue finders,
in that order, until all three miss.  After each one it adds the
vertices left with no neighbour in the set, so the set is maximal at
the start of every round.  Each augmentation grows the set by at least
one vertex, so at most |V| iterations run.  The output is
always independent; it is maximum on graphs from the target class
whenever the catalogue bound covers every irreducible augmenting graph
the instance can contain, which the test suite certifies exhaustively at
small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional

from .finders import (
    augments,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    round_state,
)
from .graphs import Graph, bits, set_of
from .io import GraphFormatError, parse_catalog
from .irreducible import Catalog, enumerate_irreducible
from .patterns import Pattern, class_patterns, is_free

__all__ = [
    "SolveConfig",
    "SolveResult",
    "solve_mis",
    "brute_force_mis",
    "MisResult",
    "default_catalog",
    "catalog_covers",
    "DEFAULT_CATALOG_CENSUS",
    "class_patterns",
]


@dataclass(frozen=True)
class SolveConfig:
    """Settings of one solve; defaults target the p=3 class at desk scale.

    ``p`` is the class parameter (the forbidden biclique is K(p,p)).
    ``catalog_n_max`` is the largest irreducible augmenting graph, in
    vertices, the catalogue finder looks for.
    """

    p: int = 3
    catalog_n_max: int = 9

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("class parameter p must be at least 2")
        if self.catalog_n_max < 3:
            raise ValueError("catalog bound must be at least 3")


_DEFAULT_CONFIG = SolveConfig()


@dataclass(frozen=True)
class SolveResult:
    independent_set: frozenset[int]
    alpha: int
    iterations: int
    finder_hits: dict[str, int] = field(compare=False)


def _greedy_mask(adj: tuple[int, ...]) -> int:
    """Maximal independent set by ascending-id greedy, as a bitmask."""
    taken = 0
    for v, nbrs in enumerate(adj):
        if not nbrs & taken:
            taken |= 1 << v
    return taken


_CATALOG_MEMO: dict[tuple[int, tuple[Pattern, ...]], Catalog] = {}


def _default_filters(p: int) -> tuple[Pattern, ...]:
    """Filters of the default catalogue for class parameter p."""
    return Pattern("P", (8,)), Pattern("T", (p + 2,)), Pattern("K", (p, p))


# Per-size census of the default catalogue for each class parameter p the
# package ships with, frozen up to the bound it was enumerated at; a
# smaller bound reads a prefix.  Each row guards the packaged file
# ``data/catalog-p<p>-n<bound>.txt``, which ``default_catalog`` reads
# instead of enumerating.  Irreducible graphs have one more black than
# white, so every size is odd.
DEFAULT_CATALOG_CENSUS: dict[int, tuple[int, dict[int, int]]] = {
    2: (9, {1: 1, 3: 1, 5: 1, 7: 3, 9: 6}),
    3: (9, {1: 1, 3: 1, 5: 3, 7: 17, 9: 213}),
}

_CATALOG_DATA = resources.files(__package__) / "data"


def catalog_covers(cat: Catalog, cfg: SolveConfig) -> bool:
    """True iff ``cat`` holds every entry ``default_catalog(cfg)`` holds.

    Its vertex bound must reach ``cfg.catalog_n_max``, it must be built
    with no filter beyond the default ones, and its entries that are free
    of the default filters and within the bound must match, size by size,
    the default census: the frozen row of ``DEFAULT_CATALOG_CENSUS``, or
    else the census of an in-memory ``default_catalog(cfg)``.  Entries
    read from a file are distinct, canonical and irreducible, so equal
    counts mean equal sets, and a truncated catalogue is rejected.
    """
    defaults = _default_filters(cfg.p)
    if cat.max_vertices < cfg.catalog_n_max or not set(cat.filters) <= set(defaults):
        return False
    unchecked = [f for f in defaults if f not in cat.filters]
    census: dict[int, int] = {}
    for e in cat.entries:
        h = e.graph.graph
        if h.n <= cfg.catalog_n_max and is_free(h, unchecked):
            census[h.n] = census.get(h.n, 0) + 1
    row = DEFAULT_CATALOG_CENSUS.get(cfg.p)
    if row is not None and cfg.catalog_n_max <= row[0]:
        want = {n: c for n, c in row[1].items() if n <= cfg.catalog_n_max}
    else:
        want = default_catalog(cfg).census()
    return census == want


def _packaged_catalog(p: int) -> Catalog:
    """The packaged default catalogue for ``p``, checked against its row.

    ``parse_catalog`` checks every entry and the census header; on top,
    the header's bound and filters must be the row's bound and
    ``_default_filters(p)``, and the census the frozen row.  A file that
    fails a check raises ``GraphFormatError``.
    """
    bound, census = DEFAULT_CATALOG_CENSUS[p]
    name = f"catalog-p{p}-n{bound}.txt"
    cat = parse_catalog((_CATALOG_DATA / name).read_text(encoding="ascii"))
    if cat.max_vertices != bound or cat.filters != _default_filters(p):
        raise GraphFormatError(
            f"packaged catalogue {name} is not the default one for p = {p}"
        )
    if cat.census() != census:
        raise GraphFormatError(
            f"packaged catalogue {name} disagrees with the frozen census"
        )
    return cat


def default_catalog(cfg: SolveConfig) -> Catalog:
    """Catalogue of irreducible graphs the solver needs for ``cfg``.

    Its filters exclude the two shapes the other finders already cover
    (long paths via P(8), large star extensions via T(p+2)) plus the class
    biclique K(p,p).  For a p with a ``DEFAULT_CATALOG_CENSUS`` row and a
    bound within the row's, it is read from the packaged file, validated
    (see ``_packaged_catalog``) and cut to the entries within the bound:
    entries ascend by vertex count and no level depends on the bound, so
    that prefix is what ``enumerate_irreducible`` returns.  A file that
    fails a check raises; nothing falls back to enumeration.  Any other
    (p, bound) is enumerated.  Results are memoised per process.
    """
    n_max = cfg.catalog_n_max
    filters = _default_filters(cfg.p)
    key = (n_max, filters)
    cat = _CATALOG_MEMO.get(key)
    if cat is None:
        row = DEFAULT_CATALOG_CENSUS.get(cfg.p)
        if row is None or n_max > row[0]:
            cat = enumerate_irreducible(n_max, filters)
        elif n_max == row[0]:
            cat = _packaged_catalog(cfg.p)
        else:
            full = default_catalog(SolveConfig(cfg.p, row[0]))
            prefix = tuple(e for e in full.entries if e.graph.graph.n <= n_max)
            cat = Catalog(n_max, filters, prefix)
        _CATALOG_MEMO[key] = cat
    return cat


def solve_mis(
    g: Graph,
    cfg: Optional[SolveConfig] = None,
    catalog: Optional[Catalog] = None,
) -> SolveResult:
    """Maximum independent set by iterated augmentation.

    S is kept as one bitmask from the greedy start to the return.  Each
    round builds the ``RoundState`` of S from that mask and runs the
    path, star-extension and catalogue finders on it, in that order.
    Each finder owns one shape: ``find_from_catalog`` leaves
    the path entries to ``find_augmenting_path``, an exhaustive search
    that has missed on the same set before the catalogue runs, so the
    result is the one a scan of the whole catalogue gives.

    The candidate found gets one verdict, ``finders.augments``, before it
    is applied; one that does not augment S raises ``ValueError``.  After
    each augmentation a sweep adds, in ascending id, every vertex left
    with no neighbour in S: these are the one-vertex augmentations, and
    ``iterations`` does not count them, only the augmentations the
    finders found.  The returned set is checked independent once more.

    Inputs outside the class are solved best effort: the output is still
    a valid independent set.  ``find_forbidden(g, class_patterns(p))``
    tells whether ``g`` lies in the class.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    if catalog is None:
        catalog = default_catalog(cfg)

    adj = g.adj
    smask = _greedy_mask(adj)
    hits = {"path": 0, "tree": 0, "catalog": 0}
    iterations = 0
    while True:
        state = round_state(g, smask)
        name = "path"
        cand = find_augmenting_path(g, state)
        if cand is None:
            name = "tree"
            cand = find_tree_extension(g, state, cfg.p)
        if cand is None:
            name = "catalog"
            cand = find_from_catalog(g, state, catalog)
        if cand is None:
            break
        wmask, bmask = cand
        if not augments(adj, smask, wmask, bmask):
            raise ValueError(f"the {name} finder's candidate does not augment S")
        hits[name] += 1
        smask = smask & ~wmask | bmask
        iterations += 1
        if iterations > g.n:
            raise RuntimeError("augmentation loop exceeded |V| iterations")
        # S was maximal, so a vertex left with no S-neighbour is a white
        # or a neighbour of one
        freed = wmask
        while wmask:
            low = wmask & -wmask
            wmask ^= low
            freed |= adj[low.bit_length() - 1]
        freed &= ~smask
        while freed:
            low = freed & -freed
            freed ^= low
            if not adj[low.bit_length() - 1] & smask:
                smask |= low
    out = set_of(smask)
    if any(adj[v] & smask for v in out):
        raise RuntimeError("augmentation produced a dependent set")
    return SolveResult(out, len(out), iterations, hits)


class MisResult(NamedTuple):
    alpha: int
    witness: frozenset[int]


_BRUTE_CAP = 30


def brute_force_mis(g: Graph) -> MisResult:
    """Exact alpha and the lexicographically least maximum set.

    Branch and bound on the highest-degree remaining vertex with
    memoisation; intended as an oracle at desk scale (n <= 30).
    """
    if g.n > _BRUTE_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_CAP} vertices")
    adj = g.adj
    memo: dict[int, int] = {0: 0}

    def alpha_of(mask: int) -> int:
        known = memo.get(mask)
        if known is not None:
            return known
        best_v, best_d = -1, -1
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d <= 1:
            # isolated vertices plus disjoint edges: count directly
            edges = sum((adj[v] & mask).bit_count() for v in bits(mask)) // 2
            out = mask.bit_count() - edges
        else:
            b = 1 << best_v
            out = max(
                1 + alpha_of(mask & ~adj[best_v] & ~b),
                alpha_of(mask & ~b),
            )
        memo[mask] = out
        return out

    full = (1 << g.n) - 1
    witness = []
    try:
        total = alpha_of(full)
        work = full
        remaining = total
        for v in range(g.n):
            b = 1 << v
            if not work & b:
                continue
            taken = work & ~adj[v] & ~b
            if 1 + alpha_of(taken) == remaining:
                witness.append(v)
                work = taken
                remaining -= 1
            else:
                work &= ~b
    finally:
        # alpha_of refers to itself through its closure cell, so the memo
        # would otherwise live until the cyclic collector runs
        memo.clear()
    return MisResult(total, frozenset(witness))
