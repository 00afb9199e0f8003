"""Named graph templates and exact induced-subgraph detection.

A spider(i, j, k) is the tree with a single degree-3 vertex whose three
leaves sit at distances i, j, k from it; spider(1, 1, 1) is the claw.
A subdivided star of order k is the star on k edges with every edge
subdivided once (2k+1 vertices).

Detection is exact backtracking by one engine, ``_search``, over compiled
plans.  ``find_induced`` places the pattern vertices by descending degree;
the anchored plans that ask "is there a copy through host vertex v" start
at a root and place next the vertex with the most placed neighbours.  The
same engine finds the roots (one per automorphism orbit), so compiling a
highly symmetric pattern such as K(10) stays cheap.  Worst-case
exponential in the pattern size, which is fine at the sizes used here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .graphs import MAX_VERTICES, Graph, bits

__all__ = [
    "Pattern",
    "class_patterns",
    "parse_pattern",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "complete_bipartite",
    "spider",
    "subdivided_star",
    "find_induced",
    "find_forbidden",
    "is_free",
    "all_maximal_subdivided_stars",
]


def path_graph(n: int) -> Graph:
    """Chordless path on vertices 0..n-1 in order."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Chordless cycle 0-1-..-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """Sides 0..m-1 and m..m+n-1, all cross edges."""
    if m < 1 or n < 1:
        raise ValueError("both sides must be non-empty")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def spider(i: int, j: int, k: int) -> Graph:
    """Centre 0; legs 1..i, i+1..i+j, i+j+1..i+j+k, each a chain."""
    if min(i, j, k) < 1:
        raise ValueError("leg lengths must be positive")
    edges = []
    start = 1
    for leg in (i, j, k):
        edges.append((0, start))
        for t in range(leg - 1):
            edges.append((start + t, start + t + 1))
        start += leg
    return Graph(i + j + k + 1, edges)


def subdivided_star(k: int) -> Graph:
    """Centre 0, middles 1..k, leaf k+i pendant on middle i."""
    if k < 1:
        raise ValueError("order must be positive")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    return Graph(2 * k + 1, edges)


_ARITY = {"P": (1,), "C": (1,), "K": (1, 2), "S": (3,), "T": (1,)}
_BUILDERS = {
    "P": lambda p: path_graph(*p),
    "C": lambda p: cycle_graph(*p),
    "K": lambda p: complete_graph(*p) if len(p) == 1 else complete_bipartite(*p),
    "S": lambda p: spider(*p),
    "T": lambda p: subdivided_star(*p),
}
# Vertex and edge counts from the parameters, known before a build.
_SIZES = {
    "P": lambda p: (p[0], p[0] - 1),
    "C": lambda p: (p[0], p[0]),
    "K": lambda p: (
        (p[0], p[0] * (p[0] - 1) // 2)
        if len(p) == 1
        else (p[0] + p[1], p[0] * p[1])
    ),
    "S": lambda p: (sum(p) + 1, sum(p)),
    "T": lambda p: (2 * p[0] + 1, 2 * p[0]),
}


@dataclass(frozen=True)
class Pattern:
    """A named graph template, e.g. P(8), K(4), K(3,3), S(1,1,3).

    ``K`` with one parameter is the complete graph, with two the complete
    bipartite graph.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        arity = _ARITY[self.kind]
        if len(self.params) not in arity:
            counts = " or ".join(str(a) for a in arity)
            raise ValueError(f"pattern {self.kind} takes {counts} parameter(s)")
        if any(p < 1 for p in self.params):
            raise ValueError("pattern parameters must be positive")
        n, m = _SIZES[self.kind](self.params)
        if max(n, m) > MAX_VERTICES:
            raise ValueError(
                f"pattern {self} has {n} vertices and {m} edges; "
                f"the cap is {MAX_VERTICES} of each"
            )
        _BUILDERS[self.kind](self.params)  # reject e.g. C2 early

    def build(self) -> Graph:
        return _BUILDERS[self.kind](self.params)

    def __str__(self) -> str:
        return self.kind + "x".join(str(p) for p in self.params)


def class_patterns(p: int) -> tuple[Pattern, Pattern]:
    """The forbidden pair defining the target class for parameter p."""
    return Pattern("S", (1, 1, 3)), Pattern("K", (p, p))


_PATTERN_RE = re.compile(r"^([PCKST])(\d+(?:x\d+)*)$")


def parse_pattern(text: str) -> Pattern:
    """Parse compact pattern syntax: P8, C6, K4, K3x3, S1x1x3, T4."""
    m = _PATTERN_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse pattern {text!r}")
    return Pattern(m.group(1), tuple(int(t) for t in m.group(2).split("x")))


PatternLike = Union[Pattern, Graph]


def _as_graph(p: PatternLike) -> Graph:
    return p.build() if isinstance(p, Pattern) else p


# -- compiled search plans ------------------------------------------------
#
# A plan fixes the order in which pattern vertices are placed plus, for
# each position, the earlier positions it must / must not be adjacent to
# and the index of the host vertex domain its image is drawn from.
# Uncoloured plans use domain 0 everywhere and search with ``(full,)``;
# coloured plans (the catalogue finder) map colour classes to domains.
# The anchored plans pin one automorphism-orbit root at position 0 so that
# "is there a copy through vertex v" needs one search per orbit.  The roots
# are the least vertex of each orbit, found by embedding the pattern into
# itself with the plans compiled so far (see ``_Compiled``).


class _Plan:
    __slots__ = ("order", "degs", "dom", "edge_js", "nonedge_js")

    def __init__(
        self, p: Graph, order: list[int], dom_of: Optional[list[int]] = None
    ) -> None:
        self.order = tuple(order)
        self.degs = tuple(p.degree(v) for v in order)
        self.dom = tuple(dom_of[v] if dom_of else 0 for v in order)
        edge_js, nonedge_js = [], []
        for i, v in enumerate(order):
            e, ne = [], []
            for j in range(i):
                (e if p.has_edge(v, order[j]) else ne).append(j)
            edge_js.append(tuple(e))
            nonedge_js.append(tuple(ne))
        self.edge_js = tuple(edge_js)
        self.nonedge_js = tuple(nonedge_js)


def _static_order(p: Graph) -> list[int]:
    return sorted(range(p.n), key=lambda v: (-p.degree(v), v))


def _anchored_order(p: Graph, first: int) -> list[int]:
    order = [first]
    placed = {first}
    while len(order) < p.n:
        best = None
        key = None
        for v in range(p.n):
            if v in placed:
                continue
            attached = sum(1 for u in p.neighbors(v) if u in placed)
            k = (attached, p.degree(v), -v)
            if key is None or k > key:
                best, key = v, k
        order.append(best)
        placed.add(best)
    return order


class _Compiled:
    __slots__ = ("n", "generic", "anchored")

    def __init__(self, p: Graph) -> None:
        self.n = p.n
        self.generic = _Plan(p, _static_order(p))
        # v is a root unless an earlier root's plan embeds p into itself
        # with v at position 0: that embedding is an automorphism, so the
        # roots are the least vertex of each orbit, in ascending order.
        deg = [m.bit_count() for m in p.adj]
        full = (1 << p.n) - 1
        images = [0] * p.n
        anchored: list[_Plan] = []
        for v in range(p.n):
            images[0] = v
            if not any(
                plan.degs[0] == deg[v]
                and _search(plan, p.adj, deg, (full,), images, 1, 1 << v)
                for plan in anchored
            ):
                anchored.append(_Plan(p, _anchored_order(p, v)))
        self.anchored = tuple(anchored)


_COMPILE_CACHE: dict[tuple[int, tuple[int, ...]], _Compiled] = {}


def _compile(p: Graph) -> _Compiled:
    key = (p.n, p.adj)
    c = _COMPILE_CACHE.get(key)
    if c is None:
        c = _COMPILE_CACHE[key] = _Compiled(p)
    return c


def _search(
    plan: _Plan,
    g_adj: tuple[int, ...],
    g_deg: list[int],
    doms: Sequence[int],
    images: list[int],
    start: int,
    used: int,
    twins: Optional[Sequence[int]] = None,
) -> bool:
    """Extend ``images[:start]`` to a full induced embedding of the plan.

    Position i draws its image from ``doms[plan.dom[i]]`` minus the host
    vertices already ``used``; on success ``images`` holds the embedding
    in plan order.  With ``twins`` (see ``_twins``; a single domain only),
    a host vertex that fails at a position takes its twins with it.
    """
    order_len = len(plan.order)
    if start == order_len:
        return True
    degs = plan.degs
    dom = plan.dom
    edge_js = plan.edge_js
    nonedge_js = plan.nonedge_js

    def candidates(i: int, used: int) -> int:
        cand = doms[dom[i]] & ~used
        for j in edge_js[i]:
            cand &= g_adj[images[j]]
        for j in nonedge_js[i]:
            cand &= ~g_adj[images[j]]
        return cand

    i = start
    cand_stack = [candidates(start, used)]
    used_stack = [used]
    while cand_stack:
        cand = cand_stack[-1]
        advanced = False
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if g_deg[v] < degs[i]:
                continue
            cand_stack[-1] = cand
            images[i] = v
            if i + 1 == order_len:
                return True
            new_used = used_stack[-1] | low
            i += 1
            cand_stack.append(candidates(i, new_used))
            used_stack.append(new_used)
            advanced = True
            break
        if not advanced:
            cand_stack.pop()
            used_stack.pop()
            i -= 1
            if twins is not None and cand_stack:
                cand_stack[-1] &= ~twins[images[i]]
    return False


def _twins(g_adj: tuple[int, ...]) -> list[int]:
    """Per host vertex v, the vertices u with N(u) = N(v) or N[u] = N[v].

    Swapping v and such a u is an automorphism of the host.  It fixes
    every other vertex, so where v fails at a position no unused twin of
    v can succeed there: the pruning loses no embedding and keeps the
    search order.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, m in enumerate(g_adj):
        by_open[m] = by_open.get(m, 0) | 1 << v
        c = m | 1 << v
        by_closed[c] = by_closed.get(c, 0) | 1 << v
    return [by_open[m] | by_closed[m | 1 << v] for v, m in enumerate(g_adj)]


def find_induced(g: Graph, pattern: PatternLike) -> Optional[dict[int, int]]:
    """Least induced embedding of the pattern into ``g``, or None.

    The returned map sends pattern vertices to g vertices; adjacency is
    preserved exactly in both directions.  Deterministic: the first
    embedding in the backtracking order (pattern vertices by descending
    degree, candidates ascending).  Twins of a host vertex that fails at
    a position are skipped there, which returns the same embedding; a
    K(n, n) host is then refuted for S(1,1,3) at once instead of in
    order n^3 steps.
    """
    p = _as_graph(pattern)
    if p.n == 0 or p.n > g.n:
        return None
    plan = _compile(p).generic
    g_deg = [m.bit_count() for m in g.adj]
    images = [0] * p.n
    full = (1 << g.n) - 1
    if _search(plan, g.adj, g_deg, (full,), images, 0, 0, _twins(g.adj)):
        return {plan.order[i]: images[i] for i in range(p.n)}
    return None


def _contains_anchored(
    n: int,
    g_adj: tuple[int, ...],
    g_deg: list[int],
    compiled: _Compiled,
    anchor: int,
) -> bool:
    """True iff some induced copy of the compiled pattern contains anchor."""
    if compiled.n > n:
        return False
    doms = ((1 << n) - 1,)
    images = [0] * compiled.n
    for plan in compiled.anchored:
        if g_deg[anchor] < plan.degs[0]:
            continue
        images[0] = anchor
        if _search(plan, g_adj, g_deg, doms, images, 1, 1 << anchor):
            return True
    return False


def find_forbidden(
    g: Graph, patterns: Iterable[PatternLike]
) -> Optional[tuple[PatternLike, dict[int, int]]]:
    """First pattern with an induced copy in ``g``, plus its witness."""
    for p in patterns:
        emb = find_induced(g, p)
        if emb is not None:
            return p, emb
    return None


def is_free(g: Graph, patterns: Iterable[PatternLike]) -> bool:
    """True iff ``g`` has no induced copy of any of the patterns."""
    return find_forbidden(g, patterns) is None


# -- subdivided stars ------------------------------------------------------


def all_maximal_subdivided_stars(
    g: Graph, centre: int, k_min: int = 1
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All inclusion-maximal induced subdivided stars centred at ``centre``.

    Legs are (middle, leaf) pairs; two legs are compatible when the union
    stays an induced subdivided star, so maximal stars are the maximal
    cliques of the leg compatibility graph (Bron-Kerbosch below).  Stars
    with fewer than ``k_min`` legs are dropped from the output.
    """
    adj = g.adj
    legs: list[tuple[int, int]] = []
    for a in bits(adj[centre]):
        for b in bits(adj[a]):
            if b == centre or adj[centre] >> b & 1:
                continue
            legs.append((a, b))
    if not legs:
        return []
    nlegs = len(legs)
    compat = [0] * nlegs
    for i in range(nlegs):
        a1, b1 = legs[i]
        for j in range(i + 1, nlegs):
            a2, b2 = legs[j]
            if len({a1, b1, a2, b2}) < 4:
                continue
            if adj[a1] >> a2 & 1 or adj[a1] >> b2 & 1:
                continue
            if adj[b1] >> a2 & 1 or adj[b1] >> b2 & 1:
                continue
            compat[i] |= 1 << j
            compat[j] |= 1 << i

    out: list[tuple[frozenset[int], frozenset[int]]] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if r.bit_count() >= k_min:
                chosen = [legs[i] for i in bits(r)]
                out.append(
                    (
                        frozenset(a for a, _ in chosen),
                        frozenset(b for _, b in chosen),
                    )
                )
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        cand = p & ~compat[pivot]
        for i in bits(cand):
            bi = 1 << i
            bk(r | bi, p & compat[i], x & compat[i])
            p &= ~bi
            x |= bi

    bk(0, (1 << nlegs) - 1, 0)
    return out
