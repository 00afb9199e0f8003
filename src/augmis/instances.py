"""Test-instance generation and independent combinatorial oracles.

Line graphs supply an endless family inside the target class (they are
claw-free), random generation with repair covers the rest of the class,
and the planted builder wires an augmenting star extension into a graph
whose maximum independent set size is known by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .graphs import MAX_VERTICES, Graph, bits, is_independent
from .patterns import PatternLike, _as_graph, class_patterns, find_forbidden, is_free

__all__ = [
    "line_graph",
    "max_matching_size",
    "gen_free_random",
    "PlantSpec",
    "plant_augmenting_tree",
    "GenerationError",
]

_MATCHING_CAP = 20


class GenerationError(RuntimeError):
    """Instance generation could not satisfy its constraints."""


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of ``g`` plus the vertex -> original-edge map.

    Vertices are the edges of ``g`` in ascending (u, v) order; two are
    adjacent exactly when the edges share an endpoint.
    """
    edge_list = tuple(g.edges())
    if not edge_list:
        raise ValueError("line graph needs at least one edge")
    lg_edges = []
    for i, (a, b) in enumerate(edge_list):
        for j in range(i + 1, len(edge_list)):
            c, d = edge_list[j]
            if a in (c, d) or b in (c, d):
                lg_edges.append((i, j))
    return Graph(len(edge_list), lg_edges), edge_list


def max_matching_size(g: Graph) -> int:
    """Maximum matching size by exhaustive branch and bound (n <= 20)."""
    if g.n > _MATCHING_CAP:
        raise ValueError(f"matching oracle capped at {_MATCHING_CAP} vertices")
    adj = g.adj
    memo: dict[int, int] = {}

    def nu(mask: int) -> int:
        known = memo.get(mask)
        if known is not None:
            return known
        v = -1
        rest = mask
        while rest:
            low = rest & -rest
            cand = low.bit_length() - 1
            rest ^= low
            if adj[cand] & mask:
                v = cand
                break
        if v < 0:
            memo[mask] = 0
            return 0
        b = 1 << v
        best = nu(mask & ~b)  # v stays unmatched
        for u in bits(adj[v] & mask):
            got = 1 + nu(mask & ~b & ~(1 << u))
            if got > best:
                best = got
        memo[mask] = best
        return best

    return nu((1 << g.n) - 1)


def gen_free_random(
    n: int, density: float, patterns: Iterable[PatternLike], seed: int
) -> Graph:
    """Seeded random graph repaired to avoid the given induced patterns.

    Edges are proposed pairwise with the given probability; while a
    forbidden copy remains, its lexicographically least edge is deleted
    and the scan restarts.  Deletion strictly shrinks the edge set, so
    repair always terminates; patterns must therefore contain at least
    one edge each.
    """
    if n < 1 or n > 200:
        raise ValueError("n must be between 1 and 200")
    if not 0 <= density <= 1:  # also rejects NaN
        raise ValueError("density must be between 0 and 1")
    pats = list(patterns)
    for p in pats:
        if _as_graph(p).num_edges == 0:
            raise GenerationError("cannot repair against an edgeless pattern")
    rng = random.Random(seed)
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    g = Graph.from_masks(n, masks)
    while True:
        hit = find_forbidden(g, pats)
        if hit is None:
            return g
        pat, emb = hit
        pg = _as_graph(pat)
        worst = min(
            (min(emb[a], emb[b]), max(emb[a], emb[b]))
            for a, b in pg.edges()
        )
        u, v = worst
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        g = Graph.from_masks(n, masks)


@dataclass(frozen=True)
class PlantSpec:
    """Parameters for a planted star-extension instance."""

    k: int
    p: int
    extras: int = 0
    noise: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.k < self.p + 2:
            raise ValueError("star order k must be at least p + 2")
        if not 0 <= self.extras <= 2 * self.p:
            raise ValueError("extras must lie between 0 and 2p")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        n = 2 * self.k + 1 + 2 * self.extras
        if n > MAX_VERTICES:
            raise ValueError(
                f"planted instance has {n} vertices; the cap is {MAX_VERTICES}"
            )


def plant_augmenting_tree(spec: PlantSpec) -> tuple[Graph, frozenset[int]]:
    """A class-free instance holding one augmenting star extension.

    Layout: centre 0; middles 1..k; leaf k+i under middle i; extra white
    j at 2k+j; extra black j at 2k+extras+j.  The returned independent
    set S is the middles plus the extra whites, every vertex of the
    white side, so by Koenig's theorem alpha equals |S| + 1 exactly: one
    augmentation closes the gap.

    Extra pairs are wired in one of three styles whose freeness was
    checked against both class patterns: a detached white-black edge, a
    chain hung off the centre, or (p >= 3, at most once) a forcing pair
    that makes the star finder assemble the extension explicitly.  Noise
    edges attach a seeded choice of detached pairs to the centre, the
    one family of additions that can never leave the class, so feasible
    noise is exactly 0..extras; requests beyond that raise.
    """
    k, p, extras = spec.k, spec.p, spec.extras
    if spec.noise > extras:
        raise GenerationError("noise edges exceed the feasible pool (extras)")
    rng = random.Random(spec.seed)
    centre = 0
    middles = list(range(1, k + 1))
    leaves = [k + i for i in range(1, k + 1)]
    extra_white = [2 * k + j for j in range(1, extras + 1)]
    extra_black = [2 * k + extras + j for j in range(1, extras + 1)]
    n = 2 * k + 1 + 2 * extras

    edges = [(centre, a) for a in middles]
    edges += [(middles[i], leaves[i]) for i in range(k)]

    styles: list[str] = []
    if extras and spec.noise:
        styles = ["detached"] * extras
    elif extras:
        if p >= 3 and rng.random() < 0.5:
            styles = ["forced"] + ["detached"] * (extras - 1)
        else:
            styles = [rng.choice(["detached", "chain"]) for _ in range(extras)]
    for j, style in enumerate(styles):
        w, b = extra_white[j], extra_black[j]
        edges.append((w, b))
        if style == "chain":
            edges.append((centre, w))
        elif style == "forced":
            edges.append((centre, w))
            edges.append((w, leaves[0]))
            edges += [(a, b) for a in middles]

    g = Graph(n, edges)
    pats = class_patterns(p)
    if not is_free(g, pats):
        raise GenerationError("planted wiring left the target class")

    if spec.noise:
        pool = [(centre, w) for w in extra_white]
        rng.shuffle(pool)
        masks = list(g.adj)
        for u, v in pool[: spec.noise]:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        g = Graph.from_masks(n, masks)
        if not is_free(g, pats):
            raise GenerationError("noise wiring left the target class")

    s = frozenset(middles) | frozenset(extra_white)
    assert is_independent(g, s)
    return g, s
