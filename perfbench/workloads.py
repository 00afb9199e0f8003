"""Seeded workload inputs, their oracles, and one measured pass of each.

Inputs are made from the seed before any timer starts; the program sees
only the generated graphs.  Every solve is checked: the set must be
independent (checked here, not by the program) and its size must equal
the workload's oracle.  A wrong answer or an exception is counted as a
failure and the pass goes on.

Sizes are fixed grids and graph structures a fixed corpus, so the mix of
instances, and with it the latency percentiles, is the same for every
seed; the seed draws vertex labellings, which set the greedy start and
every scan order.  ``TINY`` shrinks every grid for the harness self-test.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from augmis import enumeration, instances, solver
from augmis.graphs import Graph

P = 3
CATALOG_N_MAX = 9
# catalogue census of default_catalog(SolveConfig(p=3, catalog_n_max=9))
CATALOG_CENSUS = {1: 1, 3: 1, 5: 3, 7: 17, 9: 213}
# connected (S(1,1,3), K(3,3))-free graphs per vertex count (criterion 1)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 110, 7: 797, 8: 8992}

FULL = {
    # base graphs: every (n, density) cell, `reps` corpus graphs per cell
    "solve-line": {"ns": tuple(range(14, 21)),
                   "densities": (0.20, 0.25, 0.30),
                   "reps": 25},
    # planted: (k, extras, count); certification graphs: (k, n, count).
    # Every certification graph is slower than every planted one.  p50
    # falls in the middle of the (6, 0) cell, the tightest cluster of tree
    # hits, p90 in the middle of the (5, 20) certification cell, so
    # neither sits on a step between clusters of different cost.
    "solve-star": {"plants": ((5, 0, 40), (5, 1, 110), (6, 0, 200),
                              (6, 1, 60), (7, 0, 5), (7, 1, 5)),
                   "certs": ((5, 20, 70), (6, 22, 5), (5, 22, 5))},
    "sweep-class": {"n_max": 8},
}
TINY = {
    "solve-line": {"ns": (14,), "densities": (0.2, 0.3), "reps": 1},
    "solve-star": {"plants": ((5, 0, 1), (5, 1, 1)),
                   "certs": ((5, 14, 1), (6, 16, 1))},
    "sweep-class": {"n_max": 5},
}


@dataclass
class Instance:
    graph: Graph
    alpha: int  # the oracle's answer


def matching_oracle(base: Graph) -> int:
    """alpha of a line graph is the matching number of its base graph."""
    return instances.max_matching_size(base)


def brute_oracle(g: Graph) -> int:
    return solver.brute_force_mis(g).alpha


@dataclass
class PassResult:
    """One pass: each solve's (start, end) in input order, the pass's
    own (start, end), and its checks."""

    solves: list[tuple[float, float]] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    attempted: int = 0
    failed: int = 0


def is_independent_set(g: Graph, xs) -> bool:
    mask = 0
    for v in xs:
        if not 0 <= v < g.n:
            return False
        mask |= 1 << v
    return all(not g.adj[v] & mask for v in xs)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _solve(g: Graph, catalog, out: PassResult):
    """Timed solve; None (and a failure) when the solver raises."""
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        return solver.solve_mis(g, catalog=catalog)
    except Exception:
        out.failed += 1
        return None
    finally:
        out.solves.append((t0, time.perf_counter()))


def _check(g: Graph, res, alpha: int, out: PassResult) -> None:
    """Count a failure unless ``res`` is an independent set of g of size
    ``alpha``; an exception while checking counts too."""
    try:
        s = res.independent_set
        ok = is_independent_set(g, s) and res.alpha == len(s) == alpha
    except Exception:
        ok = False
    if not ok:
        out.failed += 1


# -- inputs ---------------------------------------------------------------


def gen_solve_line(rng: random.Random, ns, densities, reps):
    """(line graph, base graph) pairs.  The base graphs are a fixed corpus,
    random graphs drawn once from a constant seed; the run's seed draws
    each line graph's vertex labelling, and with it the greedy start and
    every scan order."""
    corpus = random.Random("solve-line corpus")
    out = []
    for n in ns:
        for d in densities:
            for _ in range(reps):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if corpus.random() < d]
                base = Graph(n, edges or [(0, 1)])
                lg, _ = instances.line_graph(base)
                out.append((relabel(lg, _shuffled(rng, lg.n)), base))
    return out


def gen_solve_star(rng: random.Random, plants, certs):
    """(graph, unlabelled structure) pairs: planted star extensions, where
    the tree finder hits, and K(1,k) + P(L) certification graphs, where it
    misses.  The planted wirings are a fixed corpus; the run's seed draws
    every labelling."""
    corpus = random.Random("solve-star corpus")
    graphs = []
    for k, extras, count in plants:
        for _ in range(count):
            spec = instances.PlantSpec(k=k, p=P, extras=extras,
                                       seed=corpus.randrange(1 << 30))
            g, _ = instances.plant_augmenting_tree(spec)
            # middles 1..k first, so greedy takes them all
            mids = list(range(1, k + 1))
            rest = list(range(k + 1, g.n)) + [0]
            rng.shuffle(mids)
            rng.shuffle(rest)
            perm = [0] * g.n
            for new, old in enumerate(mids + rest):
                perm[old] = new
            graphs.append((relabel(g, perm), g))
    for k, n, count in certs:
        # star 0..k, path k+1..n-1
        edges = [(0, i) for i in range(1, k + 1)]
        edges += [(i, i + 1) for i in range(k + 1, n - 1)]
        g = Graph(n, edges)
        for _ in range(count):
            graphs.append((relabel(g, _shuffled(rng, n)), g))
    return graphs


@dataclass
class SweepInputs:
    n_max: int
    perms: list[list[list[int]]]  # per vertex count, a pool of relabellings


def gen_sweep_class(rng: random.Random, n_max: int) -> SweepInputs:
    """The sweep enumerates its own graphs; the seed relabels them."""
    perms = [[_shuffled(rng, n) for _ in range(64)] for n in range(n_max + 1)]
    return SweepInputs(n_max, perms)


# -- passes ---------------------------------------------------------------


def solve_pass(inputs: list[Instance], catalog) -> PassResult:
    out = PassResult(start=time.perf_counter())
    for inst in inputs:
        res = _solve(inst.graph, catalog, out)
        if res is not None:
            _check(inst.graph, res, inst.alpha, out)
    out.end = time.perf_counter()
    return out


def sweep_pass(inputs: SweepInputs, catalog) -> PassResult:
    """Enumerate the class, solve every relabelled graph, check it against
    brute force, then check the per-size counts.  An exception in the
    enumeration or the oracle ends the pass and counts as a failure."""
    out = PassResult(start=time.perf_counter())
    seen: Counter = Counter()
    try:
        for g in enumeration.grow_graphs(inputs.n_max,
                                         free_of=solver.class_patterns(P)):
            pool = inputs.perms[g.n]
            h = relabel(g, pool[seen[g.n] % len(pool)])
            seen[g.n] += 1
            res = _solve(h, catalog, out)
            if res is not None:
                _check(h, res, brute_oracle(h), out)
    except Exception:
        out.attempted += 1
        out.failed += 1
    out.end = time.perf_counter()
    out.attempted += 1
    expected = {n: c for n, c in CLASS_COUNTS.items() if n <= inputs.n_max}
    if dict(seen) != expected:
        out.failed += 1
    return out


# name -> (inputs from (rng, **sizes), oracle applied to each input's
# second item before timing or None, one pass on (inputs, catalog))
WORKLOADS = {
    "solve-line": (gen_solve_line, matching_oracle, solve_pass),
    "solve-star": (gen_solve_star, brute_oracle, solve_pass),
    "sweep-class": (gen_sweep_class, None, sweep_pass),
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
