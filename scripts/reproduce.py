#!/usr/bin/env python3
"""Rebuild the catalogue and run every structure sweep at desk scale.

Prints a one-line summary per step; exits non-zero if any sweep reports
a violation.  --quick shrinks the bounds for a fast smoke run.
"""

import argparse
import sys
import time

from augmis import (
    SolveConfig,
    bipartite_ramsey_search,
    brute_force_mis,
    complete_bipartite,
    default_catalog,
    solve_mis,
    verify_min_classes,
)
from augmis.verify import (
    spider_free_bipartite_corpus,
    verify_extension_bound,
    verify_path_or_cycle,
    verify_star_anatomy,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="smaller bounds")
    args = ap.parse_args()
    n_sweep = 9 if args.quick else 11
    n_cat = 7 if args.quick else 9
    failures = 0

    def step(name, fn):
        nonlocal failures
        t0 = time.time()
        out = fn()
        ok = out if isinstance(out, bool) else out.ok
        failures += 0 if ok else 1
        print(f"{name:<22} {'ok' if ok else 'VIOLATION':<10} {time.time() - t0:6.1f}s")
        return out

    cfg = SolveConfig(p=3, catalog_n_max=n_cat)
    cat = default_catalog(cfg)
    census = " ".join(f"{n}:{c}" for n, c in sorted(cat.census().items()))
    print(f"catalogue n<={n_cat}      {len(cat)} entries   census {census}")

    corpus = list(spider_free_bipartite_corpus(n_sweep))
    print(f"bipartite corpus       {len(corpus)} graphs up to {n_sweep} vertices")
    step("path-or-cycle", lambda: verify_path_or_cycle(n_sweep, corpus))
    step("star anatomy", lambda: verify_star_anatomy(n_sweep, corpus))
    step("extension bound", lambda: verify_extension_bound(2, min(n_sweep + 1, 12)))
    step("min-classes census", lambda: verify_min_classes(n_cat, 4))
    res = bipartite_ramsey_search(2, 2)
    print(f"matching-forcing bound N(2,2) = {res.value} "
          f"({res.graphs_checked} graphs examined)")

    # greedy grabs the star centre first, so augmentations must fire
    g = complete_bipartite(1, 6)
    solved = solve_mis(g, cfg, cat)
    oracle = brute_force_mis(g)
    agree = solved.alpha == oracle.alpha
    failures += 0 if agree else 1
    print(f"demo solve K(1,6)      alpha {solved.alpha} "
          f"(oracle {oracle.alpha}, finders {solved.finder_hits})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
