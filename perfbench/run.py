#!/usr/bin/env python3
"""Seeded solve and sweep benchmark of the augmis package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-line --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, nothing is
installed.  One process on one thread: it makes the workload's inputs
from the seed, times catalogue set-up, then runs measured passes over the
inputs until ``--seconds`` would be exceeded (at least one pass), checking
every answer.  Times are in seconds at reference host speed (see
``speed.py``).  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from untraced
passes followed by one traced pass, and it writes that run's spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3

# One set-up sample in a fresh interpreter: the first default_catalog,
# in seconds at reference speed.
SETUP_SAMPLE_CODE = """\
import sys, time
sys.path[:0] = ["src", {bench_dir!r}]
import speed
from augmis.solver import SolveConfig, default_catalog
with speed.SpeedMeter() as meter:
    t0 = time.perf_counter()
    default_catalog(SolveConfig(p={p}, catalog_n_max={n_max}))
    t1 = time.perf_counter()
print(meter.scaled(t0, t1))
"""


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "augmis", "__init__.py")):
        sys.exit("run from the root of a checkout: src/augmis is missing")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    # set-up is timed without the on-disk catalogue cache
    os.environ.pop("AUGMIS_CATALOG_DIR", None)


def _fresh_setup_seconds(p: int, n_max: int) -> float:
    code = SETUP_SAMPLE_CODE.format(bench_dir=BENCH_DIR, p=p, n_max=n_max)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def _timed_passes(run_pass, inputs, catalog, seconds: float) -> list:
    """Passes until the next one would end past the deadline; at least one."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(inputs, catalog))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return passes


def _with_answers(raw, oracle) -> list:
    """(graph, structure) pairs to instances.  The oracle runs once per
    distinct structure: relabelled copies share its answer."""
    import workloads as wl

    answers: dict[int, int] = {}
    inputs = []
    for g, structure in raw:
        if id(structure) not in answers:
            answers[id(structure)] = oracle(structure)
        inputs.append(wl.Instance(g, answers[id(structure)]))
    return inputs


def _scale_seconds(metrics: dict, factor: float) -> dict:
    """Traced times to reference speed: the wrappers time calls in wall
    seconds, which are scaled by their phase's overall speed factor."""
    return {k: v * factor if k.endswith("_s") or ".level_s." in k else v
            for k, v in metrics.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None, setup_samples: int = SETUP_SAMPLES):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    import layers
    import speed
    import workloads as wl
    from augmis import io, solver

    gen, oracle, run_pass = wl.WORKLOADS[workload]
    sizes = (sizes or wl.FULL)[workload]
    cfg = solver.SolveConfig(p=wl.P, catalog_n_max=wl.CATALOG_N_MAX)
    m: dict[str, float] = {}
    notes: list[str] = []
    attempted = failed = 0

    # inputs first, before any timer of the measurement starts
    t0 = time.perf_counter()
    raw = gen(random.Random(f"{workload}:{seed}"), **sizes)
    t1 = time.perf_counter()
    inputs = _with_answers(raw, oracle) if oracle else raw
    m["instances.gen_s"] = t1 - t0
    m["instances.oracle_s"] = time.perf_counter() - t1

    tracer = layers.Tracer()
    if trace:
        with speed.SpeedMeter() as meter:
            with tracer:
                t0 = time.perf_counter()
                catalog = solver.default_catalog(cfg)
                t1 = time.perf_counter()
            # outside the tracer: parsing re-checks every entry's Hall
            # surplus, which set-up's counts must not include
            again = io.parse_catalog(io.format_catalog(catalog))
            t2 = time.perf_counter()
        setup_spans = tracer.spans
        m.update(_scale_seconds(tracer.setup_metrics(len(catalog)),
                                meter.scaled(t0, t1) / (t1 - t0)))
        m["io.catalog_roundtrip_s"] = meter.scaled(t1, t2)
        attempted += 1
        failed += again != catalog
    else:
        with speed.SpeedMeter() as meter:
            t0 = time.perf_counter()
            catalog = solver.default_catalog(cfg)
            t1 = time.perf_counter()
        samples = [meter.scaled(t0, t1)]
        samples += [_fresh_setup_seconds(cfg.p, cfg.catalog_n_max)
                    for _ in range(setup_samples - 1)]
        m["setup_s"] = statistics.median(samples)
        notes.append("setup samples (s): "
                     + " ".join(f"{s:.3f}" for s in samples))
    expected = {n: c for n, c in wl.CATALOG_CENSUS.items()
                if n <= cfg.catalog_n_max}
    attempted += 1
    failed += catalog.census() != expected

    with speed.SpeedMeter() as meter:
        passes = _timed_passes(run_pass, inputs, catalog, seconds)
    pass_s = [meter.scaled(p.start, p.end) for p in passes]
    notes.append(f"host: median reference sample "
                 f"{meter.median_sample() / speed.REF_S:.2f}x REF_S")
    notes.append("passes (wall s / scaled s): " + " ".join(
        f"{p.end - p.start:.2f}/{s:.2f}" for p, s in zip(passes, pass_s)))
    if trace:
        tracer.reset()
        with speed.SpeedMeter() as meter, tracer:
            traced = run_pass(inputs, catalog)
        traced_s = meter.scaled(traced.start, traced.end)
        m.update(_scale_seconds(tracer.pass_metrics(),
                                traced_s / (traced.end - traced.start)))
        m["trace.overhead_share"] = traced_s / statistics.median(pass_s) - 1
        _write_spans(workload, seed, setup_spans, tracer.spans)
        passes.append(traced)
    else:
        # each input's median latency over the passes
        per_input = [statistics.median(x) for x in zip(*(
            [meter.scaled(a, b) for a, b in p.solves] for p in passes))]
        m["solve_ms_p50"] = 1000 * statistics.median(per_input)
        m["solve_ms_p90"] = 1000 * wl.percentile(per_input, 90)
        m["solves_per_s"] = len(per_input) / sum(per_input)
        m["graphs_per_s"] = statistics.median(
            len(p.solves) / s for p, s in zip(passes, pass_s))
        m["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        notes.append(f"latency samples: {len(per_input)} inputs x "
                     f"{len(passes)} passes")
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    notes.append(f"failed_share: {failed / attempted:.6f} "
                 f"({failed} of {attempted})")
    return m, attempted, failed, notes


def _write_spans(workload: str, seed: int, setup: list, passed: list) -> None:
    import layers

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"fields": layers.SPAN_FIELDS, "setup": setup,
                   "pass": passed}, fh)


def report(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
            for w in wanted}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-line", "solve-star", "sweep-class"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    metrics, attempted, failed, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(metrics, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
