"""Command-line surface: solve, atlas, verify, gen, oracle.

Exit codes: 0 success, 1 input/usage error, 2 class violation
(solve with --validate-class on an out-of-class graph).  Every run emits
a one-line JSON manifest on stderr; randomized commands refuse to run
without an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .graphs import Graph
from .instances import (
    GenerationError,
    PlantSpec,
    gen_free_random,
    line_graph,
    max_matching_size,
    plant_augmenting_tree,
)
from .io import (
    _format_census,
    format_catalog,
    format_dimacs,
    read_catalog,
    read_graph,
    write_catalog,
    write_graph,
)
from .irreducible import (
    SearchBudgetError,
    bipartite_ramsey_search,
    enumerate_irreducible,
)
from .patterns import class_patterns, find_forbidden, parse_pattern
from .solver import (
    SolveConfig,
    brute_force_mis,
    catalog_covers,
    default_catalog,
    solve_mis,
)
from .verify import (
    verify_extension_bound,
    verify_min_classes,
    verify_path_or_cycle,
    verify_star_anatomy,
)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for class violations
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _load_graph(spec: str) -> Graph:
    if os.path.exists(spec):
        return read_graph(spec)
    try:
        return parse_pattern(spec).build()
    except ValueError as exc:
        raise _CliError(f"{spec!r} is neither a file nor a named graph: {exc}")


def _parse_filters(text: str) -> tuple:
    if not text or text == "-":
        return ()
    return tuple(parse_pattern(t) for t in text.split(","))


def _emit_manifest(command: str, args: dict, started: float, summary: dict) -> None:
    manifest = {
        "command": command,
        "args": args,
        "version": __version__,
        "elapsed_s": round(time.monotonic() - started, 3),
        "summary": summary,
    }
    print("manifest: " + json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.monotonic()
    g = _load_graph(args.graph)
    cfg = SolveConfig(p=args.p, catalog_n_max=args.catalog_n_max)
    if args.catalog:
        catalog = read_catalog(args.catalog)
        if not catalog_covers(catalog, cfg):
            raise _CliError(
                f"catalogue {args.catalog} (n_max {catalog.max_vertices}, "
                f"filters {','.join(map(str, catalog.filters)) or '-'}, "
                f"census {_format_census(catalog.census())}) does not cover "
                f"--catalog-n-max {cfg.catalog_n_max} --p {cfg.p}"
            )
    run_args = {"graph": args.graph, "p": args.p, "catalog_n_max": args.catalog_n_max}
    hit = find_forbidden(g, class_patterns(cfg.p)) if args.validate_class else None
    if hit is not None:
        # out of class: report the witness and stop, since the solve may
        # take super-polynomial time there (K(n,n) for instance)
        pat, emb = hit
        violations = [
            {"pattern": str(pat), "embedding": {str(k): v for k, v in emb.items()}}
        ]
        if args.json:
            print(json.dumps({"violations": violations}, sort_keys=True))
        else:
            print(f"violation {pat}", file=sys.stderr)
        _emit_manifest("solve", run_args, started, {"violations": len(violations)})
        return 2
    if not args.catalog:
        catalog = default_catalog(cfg)
    result = solve_mis(g, cfg, catalog)
    payload = {
        "alpha": result.alpha,
        "set": sorted(result.independent_set),
        "iterations": result.iterations,
        "finders": dict(result.finder_hits),
        "violations": [],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"alpha {result.alpha}")
        print("set " + " ".join(str(v) for v in sorted(result.independent_set)))
        print(f"iterations {result.iterations}")
        hits = result.finder_hits
        print(
            f"finders path={hits['path']} tree={hits['tree']} "
            f"catalog={hits['catalog']}"
        )
    _emit_manifest(
        "solve",
        run_args,
        started,
        {"alpha": result.alpha, "iterations": result.iterations},
    )
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    started = time.monotonic()
    filters = _parse_filters(args.filters)
    cat = enumerate_irreducible(args.n_max, filters)
    if args.out:
        write_catalog(cat, args.out)
    else:
        sys.stdout.write(format_catalog(cat))
    census = _format_census(cat.census())
    print(f"catalog entries {len(cat)} census {census}", file=sys.stderr)
    _emit_manifest(
        "atlas",
        {"n_max": args.n_max, "filters": args.filters, "out": args.out},
        started,
        {"entries": len(cat)},
    )
    return 0


def _ramsey_report(t: int, p: int) -> dict:
    res = bipartite_ramsey_search(t, p)
    return {
        "name": "ramsey",
        "params": {"t": t, "p": p},
        "counts": {},
        "checked": res.graphs_checked,
        "value": res.value,
        "violations": [],
    }


_LEMMAS = {
    "path-or-cycle": lambda a: verify_path_or_cycle(a.n_max).to_json(),
    "anatomy": lambda a: verify_star_anatomy(a.n_max).to_json(),
    "extension": lambda a: verify_extension_bound(a.p, a.n_max).to_json(),
    "min-classes": lambda a: verify_min_classes(
        a.n_max, 4 if a.t is None else a.t
    ).to_json(),
    # at t = 4 the search would have to reach matching size 6, past its
    # budget; t = 2 is the size the reproduction script checks
    "ramsey": lambda a: _ramsey_report(2 if a.t is None else a.t, a.p),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = _LEMMAS[args.lemma](args)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"lemma {report['name']}")
        for n, c in sorted(report["counts"].items()):
            print(f"count n={n} {c}")
        if "value" in report:
            print(f"value {report['value']}")
        print(f"checked {report['checked']}")
        print(f"violations {len(report['violations'])}")
    _emit_manifest(
        "verify",
        {"lemma": args.lemma},
        started,
        {"violations": len(report["violations"])},
    )
    return 0 if not report["violations"] else 1


_PLANT_RE = re.compile(
    r"^k=(\d+),p=(\d+)(?:,extras=(\d+))?(?:,noise=(\d+))?$"
)


def _cmd_gen(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.line_graph:
        g, _ = line_graph(_load_graph(args.line_graph))
        summary = {"kind": "line-graph", "n": g.n}
    elif args.random:
        if args.seed is None:
            raise _CliError("--random requires --seed")
        patterns = _parse_filters(args.patterns)
        g = gen_free_random(args.n, args.density, patterns, args.seed)
        summary = {"kind": "random", "n": g.n}
    else:
        if args.seed is None:
            raise _CliError("--plant requires --seed")
        m = _PLANT_RE.match(args.plant)
        if not m:
            raise _CliError("plant spec must look like k=4,p=2,extras=0,noise=0")
        spec = PlantSpec(
            k=int(m.group(1)),
            p=int(m.group(2)),
            extras=int(m.group(3) or 0),
            noise=int(m.group(4) or 0),
            seed=args.seed,
        )
        g, s = plant_augmenting_tree(spec)
        summary = {"kind": "plant", "n": g.n, "s": sorted(s)}
        print("c independent set " + " ".join(str(v) for v in sorted(s)), file=sys.stderr)
    if args.out:
        write_graph(g, args.out)
    else:
        sys.stdout.write(format_dimacs(g))
    _emit_manifest("gen", {"seed": args.seed}, started, summary)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.mis:
        g = _load_graph(args.mis)
        res = brute_force_mis(g)
        if args.json:
            print(json.dumps({"alpha": res.alpha, "set": sorted(res.witness)}))
        else:
            print(res.alpha)
        summary = {"alpha": res.alpha}
    else:
        g = _load_graph(args.matching)
        nu = max_matching_size(g)
        if args.json:
            print(json.dumps({"matching": nu}))
        else:
            print(nu)
        summary = {"matching": nu}
    _emit_manifest("oracle", {}, started, summary)
    return 0


def _build_parser() -> _Parser:
    top = _Parser(prog="augmis", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="maximum independent set")
    p_solve.add_argument("graph", help="graph file or named graph (C5, K3x3, ...)")
    p_solve.add_argument("--p", type=int, default=3)
    p_solve.add_argument("--catalog", help="catalogue file to load")
    p_solve.add_argument("--catalog-n-max", type=int, default=9)
    p_solve.add_argument("--validate-class", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_atlas = sub.add_parser("atlas", help="enumerate the irreducible catalogue")
    p_atlas.add_argument("--n-max", type=int, required=True)
    p_atlas.add_argument("--filters", default="")
    p_atlas.add_argument("--out")
    p_atlas.set_defaults(func=_cmd_atlas)

    p_verify = sub.add_parser("verify", help="run a structure sweep")
    p_verify.add_argument("--lemma", required=True, choices=list(_LEMMAS))
    p_verify.add_argument("--n-max", type=int, default=10)
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument(
        "--t", type=int, help="default 4 for min-classes, 2 for ramsey"
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate instances")
    which = p_gen.add_mutually_exclusive_group(required=True)
    which.add_argument("--line-graph", metavar="GRAPH")
    which.add_argument("--random", action="store_true")
    which.add_argument("--plant", metavar="SPEC")
    p_gen.add_argument("--n", type=int, default=12)
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--patterns", default="S1x1x3,K3x3")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_oracle = sub.add_parser("oracle", help="brute-force reference values")
    which = p_oracle.add_mutually_exclusive_group(required=True)
    which.add_argument("--mis", metavar="GRAPH")
    which.add_argument("--matching", metavar="GRAPH")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, GenerationError, SearchBudgetError, ValueError, OSError) as exc:
        # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
