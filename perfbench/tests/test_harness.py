"""Self-test of the benchmark harness at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

Each measurement starts from an empty catalogue memo, as the benchmark's
own process does, so set-up is traced in full every time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from augmis import solver  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = tuple(wl.WORKLOADS)
# counts made by the program repeat exactly for one seed
EXACT = [w["name"] for w in SPEC["per_layer"] if w["unit"] == "count"]


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch, tmp_path):
    monkeypatch.setattr(solver, "_CATALOG_MEMO", {})
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "BENCH_DIR", str(tmp_path))


def tiny(workload: str, trace: bool):
    return run.measure(workload, 7, 0, trace, sizes=wl.TINY, setup_samples=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    metrics, attempted, failed, _ = tiny(workload, trace)
    assert attempted > 0 and failed == 0
    out = run.report(metrics, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out) == [w["name"] for w in wanted]
    for w in wanted:
        value = out[w["name"]]["value"]
        assert isinstance(value, (int, float)), w["name"]
        assert math.isfinite(value), w["name"]
        assert out[w["name"]]["unit"] == w["unit"]
        if not trace:
            assert value > 0, w["name"]
    if trace:
        assert os.listdir(run.BENCH_DIR + "/out")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload, monkeypatch):
    first, _, _, _ = tiny(workload, True)
    monkeypatch.setattr(solver, "_CATALOG_MEMO", {})
    second, _, _, _ = tiny(workload, True)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["solver.solve_calls"] > 0
    assert first["irreducible.entries"] == sum(wl.CATALOG_CENSUS.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_solver_raises_failed_share(workload, monkeypatch):
    right = solver.solve_mis

    def drops_a_vertex(g, *args, **kwargs):
        res = right(g, *args, **kwargs)
        smaller = res.independent_set - {min(res.independent_set)}
        return dataclasses.replace(
            res, independent_set=smaller, alpha=len(smaller))

    monkeypatch.setattr(solver, "solve_mis", drops_a_vertex)
    _, attempted, failed, notes = tiny(workload, False)
    assert 0 < failed <= attempted
    assert not notes[-1].startswith("failed_share: 0.000000")


def test_scaled_time_takes_out_samples_and_follows_host_speed():
    meter = speed.SpeedMeter()
    # a sample every 0.1 s; the host runs at half the reference speed
    meter.starts = [0.1 * i for i in range(11)]
    meter.durations = [2 * speed.REF_S] * 11
    inside = 5 * 2 * speed.REF_S  # samples at 0.3 .. 0.7
    assert meter.scaled(0.25, 0.75) == pytest.approx((0.5 - inside) / 2)
    # too short to hold a sample: the speed of its neighbours
    assert meter.scaled(0.31, 0.32) == pytest.approx(0.005)
