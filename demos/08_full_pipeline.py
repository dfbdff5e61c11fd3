"""One-call orchestration: generate, validate, build, export
=============================================================

run_pipeline drives a whole run from a RunConfig: ingest (or generate)
a ledger, pass it through its validators, build every graph and matrix
for the window and write deterministic reports.
"""

import json
import pathlib
import tempfile

from ledgergraph.generate import UtxoSpec
from ledgergraph.pipeline import RunConfig, run_pipeline

out = pathlib.Path(tempfile.mkdtemp(prefix="ledgergraph_"))
report = run_pipeline(RunConfig(
    chain="utxo",
    output_dir=str(out),           # no input path: generate from the seed
    seed=42,
    generator=UtxoSpec(tx_count=2_000, split_bias=0.75),
    fold_n=5,
))

print("=== written artifacts ===")
for name, path in sorted(report["outputs"].items()):
    size = pathlib.Path(path).stat().st_size
    print(f"  {name:<18} {size:>8} bytes  {pathlib.Path(path).name}")

print("\n=== summary ===")
print(json.dumps(report["summary"], indent=2, sort_keys=True)[:600])

print("\nSame seed, same bytes: rerun the block above and diff the files.")
