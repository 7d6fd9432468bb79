"""Self-tests for the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads
from worker import ROOT, SPAN_METRICS, import_regtail, per_layer_units, run_job, run_plan

rt = import_regtail(ROOT)


# -- self time ---------------------------------------------------------------

def test_self_time_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_instrument_records_nested_calls_and_restores():
    original = rt.exponents.gamma, rt.cli.gamma, rt.sim.PStarSpec.__dict__["from_graphon"]
    k23 = rt.graphs.Graph(workloads.PATTERNS["K23"])
    inst = tracing.Instrument(rt, spans=True)
    with inst.installed():
        assert rt.cli.gamma is rt.exponents.gamma is not original[0]
        with inst.job_span(0):
            rt.exponents.contributing_subgraphs(k23)
        rt.exponents.gamma(k23)  # outside a job: not recorded
    assert (rt.exponents.gamma, rt.cli.gamma, rt.sim.PStarSpec.__dict__["from_graphon"]) == original
    summary = inst.summary()
    assert summary["job"][0] == 1
    assert summary["exponents.contributing_subgraphs"][0] == 1
    assert summary["exponents.gamma"][0] == 1
    assert summary["graphs.two_core"][0] == 2 * 2 ** k23.n_edges
    total_self = sum(s for _, s in summary.values())
    root = inst.end[0] - inst.start[0]
    assert total_self == pytest.approx(root)


# -- tail percentile ---------------------------------------------------------

def test_tail_has_ten_jobs_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.tail(values) == (90, 90.0, 10)
    value, pct, beyond = run.tail(list(range(11)))
    assert (value, beyond) == (0, 10) and pct == pytest.approx(100 / 11)


def test_tail_with_too_few_jobs_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.PATTERNS))
def test_relabeling_preserves_degrees_and_edge_count(name):
    edges = workloads.PATTERNS[name]

    def degrees(es):
        return sorted(Counter(x for e in es for x in e).values())

    for seed in range(5):
        out = workloads.relabel(edges, random.Random(seed))
        assert len({frozenset(e) for e in out}) == len(out) == len(edges)
        assert all(u != v for u, v in out)
        assert degrees(out) == degrees(edges)


def test_same_seed_same_inputs(tmp_path):
    wl = workloads.Invariants(rt)

    def inputs(seed):
        return [job.argv[0] + Path(job.argv[2]).read_text()
                for job in wl.jobs(seed, "pass0", tmp_path)]

    assert inputs(7) == inputs(7) != inputs(8)


# -- traced against untraced -------------------------------------------------

SLOW = {"rate:K34", "invariants:K34", "rate:K1122", "invariants:K1122"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_match(name, tmp_path):
    wl = workloads.WORKLOADS[name](rt)
    wl.configs = [c for c in wl.configs if c.key not in SLOW]
    capture = tracing.Instrument(rt, spans=False, sinks=wl.sinks())
    with capture.installed():
        for job in wl.jobs(3, "warmup", tmp_path, relabel_patterns=False):
            assert run_job(rt, wl, job, capture, -1, warmup=True).problems == []
    plan = wl.jobs(3, "pass0", tmp_path)
    plain = run_plan(rt, wl, plan, capture)
    traced = run_plan(rt, wl, plan, tracing.Instrument(rt, spans=True, sinks=wl.sinks()))
    assert [o.problems for o in plain] == [[] for _ in plan]
    assert [o.problems for o in traced] == [[] for _ in plan]
    assert [o.output for o in plain] == [o.output for o in traced]


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    fake = {"jobs": [["k", 1.0, 1.0, True, "-"]] * 12, "peak_rss_mb": 1.0, "failed": 0}
    metrics, _ = run.end_to_end(fake, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    wrappable = tracing.public_callables(rt)
    assert all(name in wrappable for name in SPAN_METRICS)


# -- stopping ----------------------------------------------------------------

def test_sigterm_during_a_job_stops_the_worker_and_removes_its_inputs():
    before = set(ROOT.glob(".bench_run-*"))
    proc = subprocess.Popen(
        [sys.executable, str(Path(worker.__file__)), "--workload", "regular-mc",
         "--seed", "1", "--seconds", "60"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().strip() == "READY"
        time.sleep(0.5)  # inside a measured job
        proc.terminate()
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert set(ROOT.glob(".bench_run-*")) == before
