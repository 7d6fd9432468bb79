"""regtail benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/regtail`` of the
checkout that holds this file. With ``--trace 0`` the last stdout line is
the end-to-end result; with ``--trace 1`` it holds the per-layer metrics of
a traced run. The line before it is a JSON ``detail`` object: machine facts,
job counts, the tail percentile, all seven end-to-end metrics (``fail_rate``
included) and the first problems found by the output checks.

``--seed heldout`` selects a seed that no tuning run uses; keep it for
confirming a claim made on the development seeds.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import MAX_REPORTED_PROBLEMS, ROOT, per_layer_units
from workloads import WORKLOADS

HELDOUT_SEED = 1000003
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
TAIL_MIN_BEYOND = 10


class WorkerFailed(RuntimeError):
    pass


def stop(proc: subprocess.Popen) -> None:
    """Ask a worker to stop (it then removes its input files); kill it if
    it has not stopped within five seconds."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(args, role: str, deadline: float, trace: int = 0) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its RESULT payload or {})."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--role", role]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - started), stop, [proc])
    timer.start()
    ready, result = None, {}
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        stop(proc)
        proc.stdout.close()
    if code != 0 or ready is None or (role == "measure" and not result):
        raise WorkerFailed(f"{role} worker exited with code {code}")
    return ready, result


def tail(values: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) at the highest percentile that still
    has at least ``min_beyond`` samples strictly above its rank.

    With n samples sorted ascending, the rank is n - min_beyond - 1 (0-based)
    and the percentile is 100 * (rank + 1) / n. With too few samples the
    maximum is returned and the count beyond it is 0, so the report shows
    that the rule could not be met.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - min_beyond - 1
    if rank < 0:
        return ordered[-1], 100.0, 0
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    walls = [j[1] for j in result["jobs"]]
    cpus = [j[2] for j in result["jobs"]]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail_value, "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "cpu_s_per_job": (sum(cpus) / len(cpus), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {"tail_percentile": tail_pct, "jobs_beyond_tail": beyond,
              "setup_samples_s": setups,
              "fail_rate": {"value": result["failed"] / len(walls), "unit": "ratio"}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and its result merged with the
    untraced run of the same jobs. A job fails if it failed in either run or
    if its outputs differ apart from the timestamp."""
    pairs = list(zip(plain["jobs"], traced["jobs"]))
    mismatched = [t[0] for p, t in pairs if p[4] != t[4]]
    result = dict(
        traced,
        failed=sum(1 for p, t in pairs if not (p[3] and t[3]) or p[4] != t[4]),
        problems=(plain["problems"] + traced["problems"]
                  + [f"{key}: traced output differs from untraced output"
                     for key in mismatched])[:MAX_REPORTED_PROBLEMS],
        checks_passed=plain["checks_passed"] and traced["checks_passed"] and not mismatched)
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = (sum(t[1] for _, t in pairs) - sum(p[1] for p, _ in pairs))
    metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    return metrics, result


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so the finally blocks stop the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True,
                        type=lambda s: HELDOUT_SEED if s == "heldout" else int(s))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "regtail" / "__init__.py").is_file():
        print(f"error: no regtail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            # The untraced and the traced pass run in separate processes, so
            # neither finds memo entries the other left behind.
            _, plain = run_worker(args, "measure", deadline)
            _, traced = run_worker(args, "measure", deadline, trace=1)
            metrics, result = per_layer(plain, traced)
            detail = {"trace_file": result["trace_file"]}
        else:
            # Extra set-up samples first, so their cold caches (bytecode,
            # page cache) never land on the measured worker alone.
            setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, result = run_worker(args, "measure", deadline)
            metrics, detail = end_to_end(result, setups + [ready])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = len(result["jobs"])
    detail.update({"workload": args.workload, "seed": args.seed, "jobs": attempted,
                   "passes": result["passes"], "machine": result["machine"],
                   "problems": result["problems"]})
    if not args.trace:
        detail["metrics"] = dict(metrics, fail_rate=detail.pop("fail_rate"))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": result["checks_passed"], "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
