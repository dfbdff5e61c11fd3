"""The repository benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, each run in a fresh worker process
(bench/worker.py), until the next run would end after S seconds; at
least MIN_RUNS runs are made. Workload inputs are made from the seed.
Every run's outputs are checked, and all runs must write byte-identical
artifacts. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": runs, "failed": failed runs,
     "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones, medians over the
runs: run_s, peak_rss_mib and setup_s. With --trace 1 untraced and
traced runs alternate, and the metrics are the per-layer ones from the
traced runs (tracing.METRICS) plus trace.overhead_s, the median traced
run_s minus the median untraced run_s, and the raw medians run.wall_s
and machine.reference_s. ops_failed, failed runs over attempted runs, is
the pair (failed, attempted).

Every time reported, except the two raw medians, is at reference speed:
each run's times are multiplied by calibrate.NOMINAL_S over the mean
time of the reference kernel that the worker ran around its timed call
(see calibrate.py), and the median is taken over the runs.

Exits 2 without a result when the program's sources are not beside the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import NOMINAL_S
from worker import BENCH_DIR, SRC_DIR, load_workloads

ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_RUNS = 3
WORKER_TIMEOUT_S = 120

UNITS = {"run_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
# per-layer metrics of the invocation, after tracing.METRICS
RUN_METRICS = ["trace.overhead_s", "run.wall_s", "machine.reference_s"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if ".ms." in name:
        return "ms"
    if name.rsplit(".", 1)[-1] in ("s", "self_s", "overhead_s", "wall_s",
                                   "reference_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_visited"):
        return "ratio"
    return "count"


def run_worker(workload: str, seed: int, work: str, run_id: str,
               trace: bool, replay_check: bool, spans: str | None) -> dict:
    """One run in a fresh process. Returns the worker's result with
    setup_s added, or a result whose problems say why the run failed."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--run-id", run_id]
    if trace:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
    if replay_check:
        cmd.append("--replay-check")
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"problems": [f"worker exited {proc.returncode} without a "
                             f"result: {proc.stderr.strip()[-400:]}"]}
    if proc.returncode != 0:
        result["problems"].append(f"worker exited {proc.returncode}")
    if "ready_at" in result:
        result["setup_s"] = result["ready_at"] - spawned_at
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work_root: str) -> list[dict]:
    """Runs until the next would end after `seconds`. The first run also
    makes the untimed replay check where the workload has one, which is
    not counted against `seconds`."""
    runs: list[dict] = []
    durations: list[float] = []
    spans_dir = os.path.join(WORK_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    while True:
        index = len(runs)
        traced = trace and index % 2 == 1
        work = os.path.join(work_root, f"run{index}")
        os.makedirs(work)
        began = time.perf_counter()
        spans = (os.path.join(spans_dir, f"{workload}.jsonl")
                 if traced and index == 1 else None)
        result = run_worker(workload, seed, work,
                            f"{workload}/seed{seed}/run{index}", traced,
                            index == 0, spans)
        result["traced"] = traced
        runs.append(result)
        shutil.rmtree(work, ignore_errors=True)
        durations.append(time.perf_counter() - began
                         - result.get("replay_check_s", 0))
        elapsed = sum(durations)
        if len(runs) >= MIN_RUNS and (not trace or len(runs) % 2 == 0) \
                and elapsed + statistics.median(durations) > seconds:
            return runs


def judge(runs: list[dict]) -> int:
    """Marks runs whose artifacts differ from the first run's and
    returns the number of failed runs."""
    reference = next((r["digests"] for r in runs if "digests" in r), None)
    for r in runs:
        if "digests" in r and r["digests"] != reference:
            r["problems"].append("artifacts differ from the first run's")
    traced = [r for r in runs if "metrics" in r]
    for r in traced[1:]:
        for name, value in r["metrics"].items():
            if per_layer_unit(name) in ("count", "ratio") and \
                    value != traced[0]["metrics"][name]:
                r["problems"].append(f"count {name} differs between runs")
    return sum(1 for r in runs if r["problems"] or "run_s" not in r)


def scale(run: dict) -> float:
    """The factor that puts this run's times at reference speed."""
    return NOMINAL_S / statistics.mean(run["reference_s"])


def median_of(runs: list[dict], key: str) -> float:
    """Median of a time over the runs, each at reference speed."""
    return statistics.median(r[key] * scale(r) for r in runs)


def summarize(runs: list[dict], trace: bool) -> dict:
    good = [r for r in runs if not r["problems"] and "run_s" in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        return {name: {"value": median_of(plain, name) if unit == "s" else
                       statistics.median(r[name] for r in plain),
                       "unit": unit}
                for name, unit in UNITS.items()}
    metrics = {}
    for name in traced[0]["metrics"]:
        unit = per_layer_unit(name)
        # counts repeat exactly (judge checks it); times take the median
        if unit in ("count", "ratio"):
            value = traced[0]["metrics"][name]
        elif unit in ("s", "ms"):
            value = statistics.median(r["metrics"][name] * scale(r)
                                      for r in traced)
        else:
            value = statistics.median(r["metrics"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": median_of(traced, "run_s") - median_of(plain, "run_s"),
        "unit": "s"}
    metrics["run.wall_s"] = {
        "value": statistics.median(r["run_s"] for r in plain), "unit": "s"}
    metrics["machine.reference_s"] = {
        "value": statistics.median(s for r in good for s in r["reference_s"]),
        "unit": "s"}
    return metrics


def report_runs(runs: list[dict], workload: str, seed: int) -> None:
    """Human-readable lines on standard error."""
    for r in runs:
        tag = "traced " if r["traced"] else ""
        if "run_s" in r:
            print(f"{workload} seed {seed} {tag}run {r['run_id']}: "
                  f"run_s {r['run_s']:.3f} setup_s {r.get('setup_s', 0):.3f} "
                  f"peak_rss_mib {r['peak_rss_mib']:.1f} reference_s "
                  f"{' '.join(f'{x:.4f}' for x in r['reference_s'])}",
                  file=sys.stderr)
        for problem in r["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC_DIR, "ledgergraph", "pipeline.py")):
        print("bench: src/ledgergraph is missing; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.workload not in load_workloads():
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        runs = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    failed = judge(runs)
    report_runs(runs, args.workload, args.seed)
    result = {"correct": failed == 0, "attempted": len(runs),
              "failed": failed,
              "metrics": summarize(runs, bool(args.trace))}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
