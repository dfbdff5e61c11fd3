"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 -m pytest -q bench/test_bench.py

They check that each input generator is a function of its seed, that
each output check rejects an artifact with one byte changed, and that a
traced run reports every per-layer metric that BENCHMARK.json lists.
Workload sizes here are small; the checks do not depend on size.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import checks
import inputs
import run
import tracing
import worker

sys.path.insert(0, worker.SRC_DIR)

import ledgergraph.pipeline as pipeline  # noqa: E402

SMALL = {
    "utxo-full": {"tx_count": 300},
    "ripple-replay": {"communities": 2, "community_size": 6,
                      "lines_per_account": 2, "payments": 60,
                      "partial_share": 0.2, "offers": 20, "traders": 4},
    "tangle-replay": {"addresses": 6, "funding": 1000, "bundles": 9,
                      "conflict_share": 0.5, "messages_per_bundle": 1,
                      "milestone_every": 3},
}


def run_small(workload: str, seed: int, work: str, tracer=None):
    """One in-process run at the small size; returns what the worker's
    checks need. With a tracer, run_pipeline is looked up on its module
    so the traced wrapper is the one called."""
    os.makedirs(work, exist_ok=True)
    config, script, genesis = worker.prepare(workload, SMALL[workload], seed,
                                             work)
    if tracer is None:
        return pipeline.run_pipeline(config), script, genesis
    with tracer.phase("run"):
        return pipeline.run_pipeline(config), script, genesis


# -- generators -------------------------------------------------------------

GENERATORS = {
    "utxo": lambda seed: inputs.utxo_jsonl(seed, 200),
    "ripple": lambda seed: inputs.ripple_script(seed, **SMALL["ripple-replay"]),
    "tangle": lambda seed: inputs.tangle_script(seed, **SMALL["tangle-replay"]),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_a_function_of_its_seed(name):
    make = GENERATORS[name]
    first, again, other = make(7), make(7), make(8)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_tangle_script_keeps_honest_bundles_fundable():
    """Replayed, every honest bundle confirms and every conflicting one
    is invalid, so the generator's balances match the ledger's."""
    from ledgergraph import scenario

    genesis, script = inputs.tangle_script(3, **SMALL["tangle-replay"])
    state, log = scenario.replay_tangle(script, genesis_balances=genesis)
    assert all(e["ok"] for e in log)
    tags = {}
    for tx in state.transactions.values():
        if tx.value:
            tags.setdefault(tx.tag, set()).add(tx.hash in state.confirmed)
    assert tags["BENCH"] == {True}
    assert tags["DOUBLESPEND"] == {False}


# -- output checks ----------------------------------------------------------

def flip_one_byte(path: str) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))


@pytest.mark.parametrize("workload", ["utxo-full", "ripple-replay"])
def test_recorded_checks_reject_one_changed_byte(workload, tmp_path):
    report, script, genesis = run_small(workload, 5, str(tmp_path))
    digests = checks.digests(report["outputs"])
    expected = {"digests": digests,
                "rejected_ops": report["summary"].get("rejected_ops")}
    assert worker.check(workload, report, digests, expected, script, genesis,
                        replay_check=False) == []
    for name, path in report["outputs"].items():
        with open(path, "rb") as fh:
            original = fh.read()
        flip_one_byte(path)
        changed = checks.digests(report["outputs"])
        assert worker.check(workload, report, changed, expected, script,
                            genesis, replay_check=False), name
        with open(path, "wb") as fh:
            fh.write(original)


def test_recorded_rejected_ops_must_match(tmp_path):
    report, script, genesis = run_small("ripple-replay", 5, str(tmp_path))
    digests = checks.digests(report["outputs"])
    expected = {"digests": digests,
                "rejected_ops": report["summary"]["rejected_ops"] + 1}
    problems = worker.check("ripple-replay", report, digests, expected,
                            script, genesis, replay_check=False)
    assert any("rejected_ops" in p for p in problems)


def test_address_identity_rejects_merged_rows(tmp_path):
    """Without recorded digests the |I|x|O| identity still holds the
    address graph to the bipartite network: one newline turned into a
    comma merges two rows and breaks it."""
    report, _script, _genesis = run_small("utxo-full", 6, str(tmp_path))
    outputs = report["outputs"]
    assert checks.check_address_identity(outputs) == []
    with open(outputs["address_graph"], "rb") as fh:
        data = bytearray(fh.read())
    data[data.index(b"\n", len(data) // 2)] = ord(",")
    with open(outputs["address_graph"], "wb") as fh:
        fh.write(bytes(data))
    assert checks.check_address_identity(outputs)


def test_tangle_checks_reject_one_changed_byte(tmp_path):
    report, script, genesis = run_small("tangle-replay", 5, str(tmp_path))
    outputs = report["outputs"]
    assert checks.check_tangle_replay(outputs, script, genesis) == []
    for name, path in outputs.items():
        with open(path, "rb") as fh:
            original = fh.read()
        flip_one_byte(path)
        assert checks.check_tangle_replay(outputs, script, genesis), name
        with open(path, "wb") as fh:
            fh.write(original)


# -- traced run -------------------------------------------------------------

# Metrics that must be non-zero on each workload's traced run: the
# layers it is meant to exercise.
EXERCISED = {
    "utxo-full": ["utxo.load_jsonl.self_s", "utxo.apply_block.calls",
                  "generate.generate_utxo.self_s",
                  "utxo_graphs.build_address_graph.s",
                  "utxo_graphs.address_graph.edges", "core.to_edge_list.s",
                  "core.export_edge_list.rows", "core.export_matrix.s",
                  "chainlets.build_matrices.s", "pipeline.self_s",
                  "mem.core.export_edge_list.hwm_mib"],
    "ripple-replay": ["ripple.find_paths.calls", "ripple.find_paths.no_path",
                      "ripple.find_paths.paths_returned",
                      "ripple.find_paths.used_ratio", "ripple.pay.ms.p99",
                      "ripple.state_digest.calls", "ripple.execute_rippling.s",
                      "ripple.create_offer.fills", "core.export_hypergraph.s",
                      "scenario.replay_ripple.self_s", "scenario.rejected_ops"],
    "tangle-replay": ["iota.bundles.build_bundle.s", "iota.tangle.attach.ms.p50",
                      "iota.sponge.transform.calls",
                      "iota.trinary.encode_trytes.s",
                      "iota.trinary.ascii_to_trits.s",
                      "iota.tangle.select_tips.s",
                      "iota.tangle.apply_milestone.ms.p99",
                      "iota.tangle.ancestry.visited",
                      "iota.tangle.confirmed_per_visited",
                      "iota.tangle.invalidated", "iota.tangle.largest_cascade",
                      "iota.tangle.unclosed_confirmed",
                      "scenario.replay_tangle.self_s"],
}


def benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(worker.BENCH_DIR),
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["name"] for m in spec["per_layer"]] == \
        tracing.METRICS + run.RUN_METRICS
    for metric in spec["end_to_end"] + spec["per_layer"]:
        unit = run.UNITS.get(metric["name"]) or run.per_layer_unit(metric["name"])
        assert metric["unit"] == unit, metric["name"]
    assert [w["name"] for w in spec["workloads"]] == \
        list(worker.load_workloads())


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    tracer = tracing.Tracer("test")
    with tracer.installed():
        run_small(workload, 5, str(tmp_path), tracer)
    metrics = tracer.metrics()
    assert list(metrics) == tracing.METRICS
    missing = [m for m in EXERCISED[workload] if not metrics[m] > 0]
    assert missing == []
    reference = [run.NOMINAL_S / 2] * 2  # a machine at twice reference speed
    traced = {"traced": True, "problems": [], "run_s": 2.0, "metrics": metrics,
              "reference_s": reference}
    plain = {"traced": False, "problems": [], "run_s": 1.5,
             "reference_s": reference, "setup_s": 0.5, "peak_rss_mib": 40.0}
    summary = run.summarize([plain, traced], trace=True)
    assert set(summary) == {m["name"] for m in benchmark_json()["per_layer"]}
    assert summary["trace.overhead_s"]["value"] == 1.0
    assert summary["run.wall_s"]["value"] == 1.5
    summary = run.summarize([plain, traced], trace=False)
    assert [summary[m]["value"] for m in run.UNITS] == [3.0, 40.0, 1.0]


def test_tracer_restores_patched_names():
    import ledgergraph.pipeline as pipeline
    from ledgergraph.iota.sponge import MixerSponge

    before = (pipeline.run_pipeline, MixerSponge.__dict__["_transform"])
    with tracing.Tracer("test").installed():
        assert pipeline.run_pipeline is not before[0]
    assert (pipeline.run_pipeline, MixerSponge.__dict__["_transform"]) == before
