"""Record bench/golden.json: the artifact digests, and for ripple-replay
the rejected-operation count, that a run of each seed-determined
workload must reproduce.

    python3 bench/record_golden.py --seeds 0-63

Re-record only in a change whose purpose is to alter artifact bytes, and
say so in that change. tangle-replay is checked by invariants instead,
so a fix to the tangle sweep needs no re-recording.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import worker
from run import WORK_ROOT

RECORDED = ("utxo-full", "ripple-replay")


def record(workload: str, seed: int, params: dict, work: str) -> dict:
    from ledgergraph.pipeline import run_pipeline

    import checks

    config, script, genesis = worker.prepare(workload, params, seed, work)
    report = run_pipeline(config)
    digests = checks.digests(report["outputs"])
    problems = worker.check(workload, report, digests, None, script, genesis,
                            replay_check=False)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    entry = {"digests": digests}
    if "rejected_ops" in report["summary"]:
        entry["rejected_ops"] = report["summary"]["rejected_ops"]
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    sys.path.insert(0, worker.SRC_DIR)
    workloads = worker.load_workloads()
    golden: dict = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="golden-", dir=WORK_ROOT)
    try:
        for workload in RECORDED:
            golden[workload] = {}
            for seed in seeds:
                work = os.path.join(work_root, f"{workload}-{seed}")
                os.makedirs(work)
                golden[workload][str(seed)] = record(
                    workload, seed, workloads[workload]["params"], work)
                shutil.rmtree(work)
                print(f"{workload} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(os.path.join(worker.BENCH_DIR, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
