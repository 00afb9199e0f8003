"""Top-level maximum independent set algorithm and brute-force oracle.

The solver starts from a greedy maximal set and repeatedly applies
augmentations found by the path, star-extension and catalogue finders,
in that order, until all three miss.  Each augmentation grows the set by
at least one vertex, so at most |V| iterations run.  The output is
always independent; it is maximum on graphs from the target class
whenever the catalogue bound covers every irreducible augmenting graph
the instance can contain, which the test suite certifies exhaustively at
small sizes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .finders import (
    AugCandidate,
    ClassViolationWarning,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    is_augmenting,
)
from .graphs import Graph, bits, is_independent, set_of
from .irreducible import Catalog, enumerate_irreducible
from .patterns import Pattern, find_forbidden

__all__ = [
    "SolveConfig",
    "SolveResult",
    "greedy_initial",
    "augment",
    "solve_mis",
    "brute_force_mis",
    "MisResult",
    "default_catalog",
    "class_patterns",
    "CATALOG_DIR_ENV",
]

CATALOG_DIR_ENV = "AUGMIS_CATALOG_DIR"

_FINDERS = ("path", "tree", "catalog")


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one solve; defaults target the p=3 class at desk scale."""

    p: int = 3
    catalog_n_max: int = 9
    path_max_len: Optional[int] = None
    validate_class: bool = False
    finder_order: tuple[str, ...] = _FINDERS

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("class parameter p must be at least 2")
        if self.catalog_n_max < 3:
            raise ValueError("catalog bound must be at least 3")
        if sorted(self.finder_order) != sorted(_FINDERS):
            raise ValueError(f"finder_order must permute {_FINDERS}")


@dataclass(frozen=True)
class SolveResult:
    independent_set: frozenset[int]
    alpha: int
    iterations: int
    finder_hits: dict[str, int] = field(compare=False)
    class_violation: Optional[tuple[Pattern, dict[int, int]]] = None


def class_patterns(p: int) -> tuple[Pattern, Pattern]:
    """The forbidden pair defining the target class for parameter p."""
    return Pattern("S", (1, 1, 3)), Pattern("K", (p, p))


def greedy_initial(g: Graph) -> frozenset[int]:
    """Maximal independent set by ascending-id greedy."""
    taken = 0
    for v in range(g.n):
        if not g.adj[v] & taken:
            taken |= 1 << v
    return set_of(taken)


def augment(g: Graph, s: Iterable[int], cand: AugCandidate) -> frozenset[int]:
    """Swap the candidate whites out of S and its blacks in."""
    s = frozenset(s)
    if not is_augmenting(g, s, cand):
        raise ValueError("candidate is not augmenting for S")
    out = (s - cand.whites) | cand.blacks
    assert is_independent(g, out) and len(out) > len(s)
    return out


_CATALOG_MEMO: dict[tuple[int, tuple[Pattern, ...]], Catalog] = {}


def default_catalog(cfg: SolveConfig) -> Catalog:
    """Catalogue of irreducible graphs the solver needs for ``cfg``.

    Filters exclude the two shapes the other finders already cover (long
    paths via P(8), large star extensions via T(p+2)) plus the class
    biclique.  Results are memoised per process and, when the directory
    named by AUGMIS_CATALOG_DIR exists or can be created, cached on disk;
    the cache file is replaced atomically and validated when read back.
    """
    filters = (
        Pattern("P", (8,)),
        Pattern("T", (cfg.p + 2,)),
        Pattern("K", (cfg.p, cfg.p)),
    )
    key = (cfg.catalog_n_max, filters)
    cat = _CATALOG_MEMO.get(key)
    if cat is not None:
        return cat
    cache_dir = os.environ.get(CATALOG_DIR_ENV)
    path = None
    if cache_dir:
        slug = "-".join(str(f) for f in filters)
        path = os.path.join(
            cache_dir, f"catalog-n{cfg.catalog_n_max}-{slug}.txt"
        )
        if os.path.exists(path):
            from .io import read_catalog

            cat = read_catalog(path)
    if cat is None:
        cat = enumerate_irreducible(cfg.catalog_n_max, filters)
        if path is not None:
            from .io import write_catalog

            os.makedirs(cache_dir, exist_ok=True)
            write_catalog(cat, path)
    _CATALOG_MEMO[key] = cat
    return cat


def solve_mis(
    g: Graph,
    cfg: Optional[SolveConfig] = None,
    catalog: Optional[Catalog] = None,
) -> SolveResult:
    """Maximum independent set by iterated augmentation.

    With ``cfg.validate_class`` the graph is first checked against the
    class patterns; a violation is reported in the result (and warned
    about) but solving proceeds best effort, and the output is still a
    valid independent set.
    """
    cfg = cfg or SolveConfig()
    violation = None
    if cfg.validate_class:
        violation = find_forbidden(g, class_patterns(cfg.p))
        if violation is not None:
            warnings.warn(
                f"input contains a forbidden {violation[0]}; solving best "
                "effort, optimality not guaranteed",
                ClassViolationWarning,
                stacklevel=2,
            )
    if catalog is None:
        catalog = default_catalog(cfg)

    s = greedy_initial(g)
    hits = {name: 0 for name in _FINDERS}
    iterations = 0
    while True:
        cand = None
        for name in cfg.finder_order:
            if name == "path":
                cand = find_augmenting_path(g, s, cfg.path_max_len)
            elif name == "tree":
                cand = find_tree_extension(g, s, cfg.p)
            else:
                cand = find_from_catalog(g, s, catalog)
            if cand is not None:
                hits[name] += 1
                break
        if cand is None:
            break
        s = augment(g, s, cand)
        iterations += 1
        if iterations > g.n:
            raise RuntimeError("augmentation loop exceeded |V| iterations")
    return SolveResult(s, len(s), iterations, hits, violation)


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
    total = alpha_of(full)
    witness = []
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
    return MisResult(total, frozenset(witness))
