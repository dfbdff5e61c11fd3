"""One benchmark run of one workload, in a process of its own.

    python3 bench/worker.py --workload NAME --seed N --work DIR --run-id ID
                            [--trace [--spans FILE]] [--replay-check]

Set-up (import, input generation) happens first; then run_pipeline is
timed; then the outputs are checked. The last line of standard output
is one JSON object:

    ready_at    wall clock (time.time) when set-up ended
    run_s       seconds inside run_pipeline
    reference_s  seconds of the reference kernel (calibrate.py) right
                before and right after run_pipeline
    peak_rss_mib  ru_maxrss of this process, which ran only this run
    digests     sha256 of every artifact
    rejected_ops  rejected script operations (replay workloads)
    problems    failed checks (empty when the run is correct)
    replay_check_s  seconds the checks took, with --replay-check
    metrics     per-layer metrics (traced runs only)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def load_workloads() -> dict:
    with open(os.path.join(BENCH_DIR, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_golden() -> dict:
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write((rec if isinstance(rec, str) else json.dumps(rec)) + "\n")


def prepare(workload: str, params: dict, seed: int, work: str):
    """Build the workload's inputs; return (RunConfig, script, genesis).
    script and genesis are kept for the tangle replay check."""
    import inputs
    from ledgergraph.pipeline import RunConfig

    out = os.path.join(work, "out")
    source = os.path.join(work, "input.jsonl")
    if workload == "utxo-full":
        write_jsonl(source, inputs.utxo_jsonl(seed, params["tx_count"]))
        return RunConfig(input_path=source, output_dir=out), None, None
    if workload == "ripple-replay":
        write_jsonl(source, inputs.ripple_script(seed, **params))
        return RunConfig(chain="ripple", input_path=source,
                         output_dir=out), None, None
    if workload == "tangle-replay":
        genesis, script = inputs.tangle_script(seed, **params)
        write_jsonl(source, script)
        return RunConfig(chain="iota", input_path=source, output_dir=out,
                         genesis_balances=genesis), script, genesis
    raise SystemExit(f"unknown workload {workload!r}")


def check(workload: str, report: dict, digests: dict, expected: dict | None,
          script, genesis, replay_check: bool) -> list[str]:
    """Every check that applies to one run of the workload. expected is
    the workload's bench/golden.json entry for the seed, if recorded."""
    import checks

    outputs = report["outputs"]
    problems = []
    if expected is not None:
        problems += checks.check_digests(digests, expected["digests"])
        rejected = report["summary"].get("rejected_ops")
        if rejected != expected.get("rejected_ops"):
            problems.append(f"scenario.rejected_ops {rejected}, recorded "
                            f"{expected.get('rejected_ops')}")
    if workload == "utxo-full":
        problems += checks.check_address_identity(outputs)
    if replay_check and workload == "tangle-replay":
        problems += checks.check_tangle_replay(outputs, script, genesis)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--replay-check", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args()

    sys.path.insert(0, SRC_DIR)
    import ledgergraph.pipeline as pipeline
    from calibrate import reference_s
    from tracing import Tracer, hwm_mib

    import checks

    params = load_workloads()[args.workload]["params"]
    tracer = Tracer(args.run_id) if args.trace else None
    result: dict = {"run_id": args.run_id, "problems": []}
    try:
        with tracer.installed() if tracer else nullcontext():
            config, script, genesis = prepare(args.workload, params,
                                              args.seed, args.work)
            gc.collect()
            result["ready_at"] = time.time()
            before = reference_s()
            with tracer.phase("run") if tracer else nullcontext():
                t0 = time.perf_counter()
                report = pipeline.run_pipeline(config)
                result["run_s"] = time.perf_counter() - t0
            result["reference_s"] = [before, reference_s()]
        result["peak_rss_mib"] = hwm_mib()
        result["digests"] = checks.digests(report["outputs"])
        result["rejected_ops"] = report["summary"].get("rejected_ops")
        expected = load_golden().get(args.workload, {}).get(str(args.seed))
        t0 = time.perf_counter()
        result["problems"] = check(args.workload, report, result["digests"],
                                   expected, script, genesis,
                                   args.replay_check)
        if args.replay_check:
            result["replay_check_s"] = time.perf_counter() - t0
        if tracer:
            result["metrics"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    except Exception:
        result["problems"].append(traceback.format_exc(limit=6))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
