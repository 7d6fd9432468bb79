"""One benchmark process: set-up, then the measured or the traced job loop.

Started by run.py, never by hand. It writes protocol lines to stdout:
``READY`` once set-up is over (the parent times set-up up to that line) and
``RESULT <json>`` at the end. A worker started with ``--role setup`` stops
after ``READY``; it exists so the parent can take several set-up samples.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import re
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import machine
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".bench_out"
WORK_PREFIX = ".bench_run-"
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
MAX_REPORTED_PROBLEMS = 20

# Functions whose spans become per-layer metrics (<name>.calls, <name>.self_s).
SPAN_METRICS = (
    "cli.main",
    "graphs.two_core",
    "exponents.gamma", "exponents.contributing_subgraphs", "exponents.p_polynomial",
    "exponents.rho", "exponents.classify_and_rate",
    "fractional.cover_number", "fractional.minimum_covers", "fractional.valid_subsets",
    "fractional.bad_edges", "fractional.weight_pair",
    "holder.random_instance", "holder.lhs_integral", "holder.rhs_bound",
    "graphons.hom_density", "graphons.hom_kernel", "graphons.ip_total",
    "graphons.build_w0", "graphons.build_w1", "graphons.check_conditions",
    "sim.sample_regular", "sim.hom_count",
    "sim.sample_pstar", "sim.sample_gnp", "sim.hom_counts_dense",
    "sim.PStarSpec.from_graphon",
)

# Per-layer metrics derived from sinks and re-timing: name -> unit.
DERIVED_METRICS = {
    "fractional.cover_number.distinct_share": "ratio",
    "sim.sample_regular.exact_share": "ratio",
    "sim.sample_regular.attempts_per_sample": "count",
    "sim.sample_regular.swap_accept_ratio": "ratio",
    "sim.swap_walk.s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_METRICS)
    return units


def import_regtail(root: Path):
    """Import regtail from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "regtail" / "__init__.py").is_file():
        raise SystemExit(f"no regtail sources under {src}")
    sys.path.insert(0, str(src))
    import regtail
    import regtail.cli  # noqa: F401  (not imported by the package itself)

    if Path(regtail.__file__).resolve().parent != (src / "regtail").resolve():
        raise SystemExit(f"regtail was imported from {regtail.__file__}, not {src}")
    return regtail


class Stopped(BaseException):
    """Raised on SIGTERM. run_job catches SystemExit, because argparse exits
    through it, so the stop request needs an exception of its own."""


def _stop(signum, frame):
    raise Stopped


@dataclass
class Outcome:
    wall: float
    cpu: float
    output: str                 # stdout with the timestamp blanked
    problems: list[str] = field(default_factory=list)


def run_job(rt, wl, job, instrument, job_id: int, warmup: bool = False) -> Outcome:
    """One CLI call, timed, then checked off the clock."""
    wl.captured.clear()
    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with instrument.job_span(job_id), redirect_stdout(out), redirect_stderr(err):
            code = rt.cli.main(job.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a job that raises is a failed job; the loop goes on
        problems.append(f"{job.config.key}: raised "
                        + traceback.format_exc(limit=2).strip().splitlines()[-1])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.getvalue()
    if not problems and code != 0:
        tail = err.getvalue().strip().splitlines()
        problems.append(f"{job.config.key}: exit code {code}: {tail[-1] if tail else ''}")
    if not problems:
        try:
            blob = json.loads(text)
            if warmup:
                problems += wl.learn(job, blob)
            problems += wl.check(job, blob)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{job.config.key}: unreadable output ({exc!r})")
    return Outcome(wall, cpu, TIMESTAMP.sub('"timestamp": "-"', text), problems)


def run_plan(rt, wl, plan, instrument) -> list[Outcome]:
    with instrument.installed():
        return [run_job(rt, wl, job, instrument, i) for i, job in enumerate(plan)]


def _both(first, second):
    def sink(args, kwargs, result):
        first(args, kwargs, result)
        second(args, kwargs, result)
    return sink


def trace_metrics(rt, wl, plan, seed) -> tuple[dict, list[Outcome], str]:
    """Run the plan with spans on; return per-layer metrics, outcomes and
    the path of the span file."""
    edge_sets: set = set()
    samples: list = []

    def count_cover(args, kwargs, result):
        edge_sets.add((args[0] if args else kwargs["g"]).edges)

    def keep_sample(args, kwargs, result):
        samples.append((args, kwargs, result.provenance))

    sinks = {"fractional.cover_number": count_cover, "sim.sample_regular": keep_sample}
    for name, sink in wl.sinks().items():
        sinks[name] = _both(sinks[name], sink) if name in sinks else sink
    tracer = tracing.Instrument(rt, spans=True, sinks=sinks)
    traced = run_plan(rt, wl, plan, tracer)

    summary = tracer.summary()
    metrics = {}
    for name in SPAN_METRICS:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    cover_calls = metrics["fractional.cover_number.calls"]
    metrics["fractional.cover_number.distinct_share"] = (
        len(edge_sets) / cover_calls if cover_calls else 0.0)
    n_samples = len(samples)
    exact = sum(1 for _, _, prov in samples if prov["sampler"] == "pairing-rejection")
    default_factor = inspect.signature(rt.sim.sample_regular).parameters["swap_factor"].default
    proposals = sum(kw.get("swap_factor", default_factor) * prov["n"] * prov["d"]
                    for _, kw, prov in samples)
    metrics["sim.sample_regular.exact_share"] = exact / n_samples if n_samples else 0.0
    metrics["sim.sample_regular.attempts_per_sample"] = (
        sum(prov["attempts"] for _, _, prov in samples) / n_samples if n_samples else 0.0)
    metrics["sim.sample_regular.swap_accept_ratio"] = (
        sum(prov["swaps_applied"] for _, _, prov in samples) / proposals if proposals else 0.0)
    # The swap walk has no public entry point: time the same draws again with
    # the walk switched off through the public swap_factor argument.
    walk = 0.0
    for args, kwargs, _ in samples:
        t0 = time.perf_counter()
        rt.sim.sample_regular(*args, **kwargs)
        t1 = time.perf_counter()
        rt.sim.sample_regular(*args, **{**kwargs, "swap_factor": 0})
        walk += (t1 - t0) - (time.perf_counter() - t1)
    metrics["sim.swap_walk.s"] = walk

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{seed}.json.gz"
    tracer.dump(path)
    return metrics, traced, str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)

    rt = import_regtail(ROOT)
    wl = workloads.WORKLOADS[args.workload](rt)
    workdir = Path(tempfile.mkdtemp(prefix=WORK_PREFIX, dir=ROOT))
    try:
        passes = wl.passes(args.seconds)
        warm = wl.jobs(args.seed, "warmup", workdir, relabel_patterns=False)
        plan = [job for k in range(passes) for job in wl.jobs(args.seed, f"pass{k}", workdir)]
        capture = tracing.Instrument(rt, spans=False, sinks=wl.sinks())
        with capture.installed():
            setup_problems = [p for i, job in enumerate(warm)
                              for p in run_job(rt, wl, job, capture, -1 - i, warmup=True).problems]
        print("READY", flush=True)
        if args.role == "setup":
            return 0

        result = {"passes": passes, "machine": machine.facts()}
        if args.trace:
            result["per_layer"], outcomes, result["trace_file"] = trace_metrics(
                rt, wl, plan, args.seed)
        else:
            outcomes = run_plan(rt, wl, plan, capture)
        final_problems = wl.final_checks(args.seed)
        problems = [p for o in outcomes for p in o.problems]
        result.update({
            # The digest leaves out where the input files live, which differs
            # between the untraced and the traced worker.
            "jobs": [[job.config.key, o.wall, o.cpu, not o.problems,
                      hashlib.sha256(o.output.replace(str(workdir), "").encode()).hexdigest()]
                     for job, o in zip(plan, outcomes)],
            "failed": sum(1 for o in outcomes if o.problems),
            "problems": (setup_problems + final_problems + problems)[:MAX_REPORTED_PROBLEMS],
            "checks_passed": not (setup_problems or final_problems or problems),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    except Stopped:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
