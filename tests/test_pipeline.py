"""run_pipeline orchestration and the cross-cutting graph
characteristics the ten graph types must carry."""

import contextlib
import gc
import hashlib
import json
import os
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph.core import BadRecordError, Hypergraph
from ledgergraph.iota.sponge import MixerSponge
from ledgergraph.pipeline import RunConfig, UnknownChainError, run_pipeline

import worked_examples


@pytest.fixture()
def fixture_dir():
    return pathlib.Path(__file__).parent.parent / "fixtures"


def test_unknown_chain_has_its_own_code(tmp_path):
    with pytest.raises(UnknownChainError) as exc:
        run_pipeline(RunConfig(chain="bitcoin", output_dir=str(tmp_path)))
    assert exc.value.code == "unknown-chain"
    assert str(exc.value) == "unknown chain kind 'bitcoin'"


def test_pipeline_on_six_tx_fixture_builds_both_graphs(fixture_dir, tmp_path):
    out = tmp_path / "out"
    report = run_pipeline(RunConfig(
        chain="utxo", input_path=str(fixture_dir / "six_tx_network.jsonl"),
        output_dir=str(out), window=(1, 2), fold_n=3, subsidy=6 * worked_examples.COIN))
    tx_rows = (out / "transaction_graph.csv").read_text().splitlines()
    assert len(tx_rows) == 1 + 6  # the six consumer edges
    addr_rows = (out / "address_graph.csv").read_text().splitlines()
    assert len(addr_rows) == 1 + 22
    summary = json.loads((out / "summary.json").read_text())
    assert summary["address_graph"]["nodes"] == 12


def test_pipeline_on_amount_fixture_reproduces_matrices(fixture_dir, tmp_path):
    out = tmp_path / "out"
    run_pipeline(RunConfig(
        chain="utxo", input_path=str(fixture_dir / "amount_network.jsonl"),
        output_dir=str(out), window=(1, 1), fold_n=3,
        subsidy=12 * worked_examples.COIN))
    assert (out / "occurrence.csv").read_text() == "0,2,0\n1,1,1\n1,0,0\n"
    amount_rows = (out / "amount.csv").read_text().splitlines()
    assert amount_rows == ["0,358000000,0",
                           "190000000,175000000,300000000",
                           "280000000,0,0"]


def test_pipeline_empty_input_header_only(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    report = run_pipeline(RunConfig(chain="utxo", input_path=str(empty),
                                    output_dir=str(out), fold_n=3))
    assert (out / "transaction_graph.csv").read_text() == \
        "source,target,weight_num,weight_den,attr_json\n"
    assert (out / "address_graph.csv").read_text().count("\n") == 1
    assert report["summary"]["transactions"] == 0


def test_pipeline_generates_when_no_input(tmp_path):
    from ledgergraph.generate import UtxoSpec
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_pipeline(RunConfig(chain="utxo", output_dir=str(out), seed=5,
                               generator=UtxoSpec(tx_count=80), fold_n=5))
    for name in ("transaction_graph.csv", "occurrence.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_utxo_and_ripple_pipelines_run_no_sponge_permutation(fixture_dir, tmp_path,
                                                             monkeypatch):
    """Only the iota chain hashes: the utxo and ripple chains never permute
    a sponge state, so a change to the permutation cannot move them."""
    calls = []
    monkeypatch.setattr(MixerSponge, "_transform", lambda self: calls.append(1))
    run_pipeline(RunConfig(
        chain="utxo", input_path=str(fixture_dir / "six_tx_network.jsonl"),
        output_dir=str(tmp_path / "u"), window=(1, 2), fold_n=3,
        subsidy=6 * worked_examples.COIN))
    run_pipeline(RunConfig(
        chain="ripple", input_path=str(fixture_dir / "rippling_payment.jsonl"),
        output_dir=str(tmp_path / "r")))
    assert calls == []
    run_pipeline(RunConfig(
        chain="iota", input_path=str(fixture_dir / "tangle_double_spend.jsonl"),
        output_dir=str(tmp_path / "i"), genesis_balances={"a1": 100}))
    assert calls  # the patch does reach the sponge


def test_pipeline_ripple_script(fixture_dir, tmp_path):
    out = tmp_path / "r"
    report = run_pipeline(RunConfig(
        chain="ripple", input_path=str(fixture_dir / "rippling_payment.jsonl"),
        output_dir=str(out)))
    assert report["summary"]["payments"] == 2  # the 50 and the partial 25
    assert report["summary"]["rejected_ops"] == 1
    rows = (out / "payment_graph.csv").read_text().splitlines()
    assert rows[0] == "label,position,member"
    assert len(rows) == 1 + 4 + 4  # two four-node settlement paths


def test_pipeline_iota_script(fixture_dir, tmp_path):
    out = tmp_path / "i"
    report = run_pipeline(RunConfig(
        chain="iota", input_path=str(fixture_dir / "tangle_double_spend.jsonl"),
        output_dir=str(out), genesis_balances={"a1": 100, "funder": 1000}))
    assert report["summary"]["supply"] == 1100
    graph_rows = (out / "transaction_graph.csv").read_text().splitlines()
    assert any("a1" in r and "r1" in r for r in graph_rows[1:])


def test_pipeline_account(fixture_dir, tmp_path):
    out = tmp_path / "a"
    report = run_pipeline(RunConfig(
        chain="account", input_path=str(fixture_dir / "account_table.jsonl"),
        output_dir=str(out)))
    assert report["summary"]["graph"]["edges"] == 6


def test_pipeline_account_generates_when_no_input(tmp_path):
    report = run_pipeline(RunConfig(chain="account", output_dir=str(tmp_path)))
    assert report["summary"]["transactions"] == 1000
    assert hashlib.sha256((tmp_path / "account_graph.csv").read_bytes()).hexdigest() \
        == "4fea9d118d1b9c0f5e8d1af9a4a9b0dc2194a846de7232f84798a501e64497b4"


@pytest.mark.parametrize("chain", ["utxo", "ripple", "iota", "account"])
def test_pipeline_input_that_is_not_utf8_is_a_bad_record(tmp_path, chain):
    src = tmp_path / "in.jsonl"
    src.write_bytes(b'{"id": "\xff"}\n')
    with pytest.raises(BadRecordError) as exc:
        run_pipeline(RunConfig(chain=chain, input_path=str(src),
                               output_dir=str(tmp_path / "out")))
    assert exc.value.code == "bad-record"
    assert str(exc.value).startswith(f"{src}: not UTF-8 text")


# -- the paused cyclic collector ---------------------------------------------------

FIXTURE_RUNS = {
    "utxo": dict(input_path="six_tx_network.jsonl", window=(1, 2), fold_n=3,
                 subsidy=6 * worked_examples.COIN),
    "ripple": dict(input_path="rippling_payment.jsonl"),
    "iota": dict(input_path="tangle_double_spend.jsonl",
                 genesis_balances={"a1": 100, "funder": 1000}),
    "account": dict(input_path="account_table.jsonl"),
}


@contextlib.contextmanager
def collector(on: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collector_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("chain", sorted(FIXTURE_RUNS))
def test_pipeline_leaves_no_cyclic_garbage(fixture_dir, tmp_path, chain,
                                           collector_on):
    """run_pipeline pauses the cyclic collector; nothing it allocates may
    then be left in a reference cycle, and the caller's collector state
    comes back as it was. With the collector off throughout, no automatic
    pass can free a cycle before the count."""
    params = dict(FIXTURE_RUNS[chain])
    params["input_path"] = str(fixture_dir / params["input_path"])
    with collector(collector_on):
        gc.collect()
        run_pipeline(RunConfig(chain=chain, output_dir=str(tmp_path), **params))
        assert gc.isenabled() == collector_on
        assert gc.collect() == 0


@pytest.mark.parametrize("collector_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("chain", sorted(FIXTURE_RUNS))
def test_failed_pipeline_restores_the_collector(tmp_path, chain, collector_on):
    src = tmp_path / "in.jsonl"
    src.write_bytes(b'{"id": "\xff"}\n')
    with collector(collector_on):
        gc.collect()
        with pytest.raises(BadRecordError):
            run_pipeline(RunConfig(chain=chain, input_path=str(src),
                                   output_dir=str(tmp_path / "out")))
        assert gc.isenabled() == collector_on
        assert gc.collect() == 0


# -- cross-cutting graph characteristics -----------------------------------------

def pair_counts(graph) -> Counter:
    return Counter((e.source, e.target) for e in graph.edges)


def test_graph_characteristics_table():
    # UTXO: address graph weighted directed multi; tx graph collapsed simple
    led = worked_examples.six_tx_network()
    from ledgergraph.utxo_graphs import build_address_graph, build_transaction_graph
    addr = build_address_graph(led, *worked_examples.SIX_TX_WINDOW).to_edge_list()
    assert len(pair_counts(addr)) < len(addr)
    assert all(e.weight is not None for e in addr.edges)
    tx = build_transaction_graph(led, *worked_examples.SIX_TX_WINDOW).to_edge_list()
    assert set(pair_counts(tx).values()) == {1}

    # account: transaction and token graphs are weighted directed multi
    from ledgergraph.account import build_account_graph
    acct = build_account_graph(worked_examples.account_table_txs())
    assert len(acct) == len(worked_examples.account_table_txs())  # one edge per tx

    # traces: directed hypergraph
    from ledgergraph.account import build_trace_hypergraph
    assert isinstance(build_trace_hypergraph(worked_examples.trace_scenario()),
                      Hypergraph)

    # ripple: trust graph weighted directed multi; payment graph hypergraph
    ripple = worked_examples.rippling_network()
    trust = ripple.trust_graph()
    assert len(trust) == sum((s.low_limit > 0) + (s.high_limit > 0)
                             for s in ripple.states.values())
    from ledgergraph.ripple import CurrencyValue, PaymentSpec
    ripple.pay(PaymentSpec("sarah", "bob", CurrencyValue("USD", None, 50)))
    payments = ripple.payment_graph()
    assert isinstance(payments, Hypergraph)
    assert payments.edges[0].members == ("sarah", "tim", "john", "bob")

    # iota: tangle graph directed simple; transaction graph weighted simple
    from ledgergraph.iota.bundles import build_bundle
    from ledgergraph.iota.tangle import GENESIS_HASH, TangleState
    state = TangleState({"a1": 100})
    head = state.attach(build_bundle([("a1", 1, 100)],
                                     [("r1", 60), ("r2", 40)]),
                        (GENESIS_HASH, GENESIS_HASH))
    state.apply_milestone(state.attach_message(state.coordinator, (head, head),
                                               tag="MILESTONE"))
    tangle = state.tangle_graph()
    assert set(pair_counts(tangle).values()) == {1}
    txg = state.transaction_graph()
    assert set(pair_counts(txg).values()) == {1}
    weights = {(e.source, e.target): e.weight for e in txg.edges}
    assert weights == {("a1", "r1"): 60, ("a1", "r2"): 40}


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 120),
       st.sampled_from(["uniform-random", "oldest-first"]))
def test_simple_graphs_never_repeat_a_pair(seed, tx_count, tip_strategy):
    """The UTXO transaction graph and the tangle's approval and value
    graphs are simple: no (source, target) pair occurs twice."""
    from ledgergraph.generate import (TangleSpec, UtxoSpec, generate_tangle,
                                      generate_utxo)
    from ledgergraph.utxo_graphs import build_transaction_graph

    ledger = generate_utxo(UtxoSpec(tx_count=tx_count, txs_per_block=5), seed)
    graphs = [build_transaction_graph(ledger).to_edge_list()]
    state, _totals = generate_tangle(
        TangleSpec(cycles=2, bundles_per_cycle=3, tip_strategy=tip_strategy),
        seed)
    graphs += [state.tangle_graph(), state.transaction_graph()]
    for graph in graphs:
        assert set(pair_counts(graph).values()) <= {1}


@pytest.mark.parametrize("seed", [0, 1])
def test_utxo_full_artifacts_match_recorded_digests(seed, tmp_path):
    """The utxo-full benchmark input, made as its worker makes it, gives
    the artifacts whose sha256 bench/golden.json records."""
    import hashlib

    from ledgergraph.generate import UtxoSpec, generate_utxo
    from ledgergraph.utxo import dump_jsonl

    golden = pathlib.Path(__file__).parent.parent / "bench" / "golden.json"
    expected = json.loads(golden.read_text())["utxo-full"][str(seed)]["digests"]
    source = tmp_path / "input.jsonl"
    with open(source, "w", encoding="utf-8") as fh:
        for line in dump_jsonl(generate_utxo(UtxoSpec(tx_count=2500), seed)):
            fh.write(line + "\n")
    report = run_pipeline(RunConfig(input_path=str(source),
                                    output_dir=str(tmp_path / "out")))
    actual = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
              for name, path in report["outputs"].items()}
    assert actual == expected


# sha256 of each tangle-replay artifact, recorded when every hash took one
# sponge state at a time. The benchmark's own check re-derives these
# artifacts with the code under test, so only a recorded value catches a
# sponge change that alters them.
TANGLE_REPLAY_DIGESTS = {
    1: {
        "tangle": "5a55032b388094579b0a2698cfa5766a5970a1c359317a30534b9effcb07d319",
        "tangle_graph": "9c924440705d4099c81becd72bee1f6e3a471544f5f4355dd4bd51691fb09504",
        "transaction_graph": "95a7d7000290173af0c49222ee775f9392636f50e5f7c7d40f510a268b7f078a",
        "log": "7b3f02b4b6f386dfe44babc2f676aa18c5ea69640448e9ab019615018589a972",
        "summary": "194c87f8cf6fa33cd2d55d63ab082ad69fc9866d81b9140351176149da005901",
    },
    7: {
        "tangle": "1b4b1080d832b17fd732557851bad4f070ca30efb61339490dcacea8706b1a4a",
        "tangle_graph": "89c9d09ab7528292e0072c559597d6577bcdcca60cbab4c8e4a5c5bb85d0322d",
        "transaction_graph": "138ebc7e50b848055296200c03354e28a80659a4b353ad08f53f48f76dc4ae50",
        "log": "5d9219f126858a8a3454b9c4df17a225f087111eb676530036d9ec57d8ad0ed2",
        "summary": "c9c356ccbb68710070a2db50927b84a7bfa2a426eeba8dfa485388e55e9f344a",
    },
}


@pytest.mark.parametrize("seed", sorted(TANGLE_REPLAY_DIGESTS))
def test_tangle_replay_artifacts_match_recorded_digests(seed, tmp_path):
    """The tangle-replay benchmark input, made as its worker makes it,
    gives the recorded artifacts. bench/inputs.py is loaded, not changed."""
    import hashlib
    import importlib.util

    bench = pathlib.Path(__file__).parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  bench / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    params = json.loads((bench / "workloads.json").read_text())[
        "tangle-replay"]["params"]
    genesis, script = inputs.tangle_script(seed, **params)
    source = tmp_path / "input.jsonl"
    source.write_text("".join(json.dumps(cmd) + "\n" for cmd in script))
    report = run_pipeline(RunConfig(chain="iota", input_path=str(source),
                                    output_dir=str(tmp_path / "out"),
                                    genesis_balances=genesis))
    actual = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
              for name, path in report["outputs"].items()}
    assert actual == TANGLE_REPLAY_DIGESTS[seed]


BENCH = pathlib.Path(__file__).parent.parent / "bench"


@pytest.mark.parametrize("workload,seed", [
    ("ripple-replay", 0), ("ripple-replay", 1), ("utxo-full", 0),
    ("tangle-replay", 1)])
def test_benchmark_run_passes_the_benchmark_checks(workload, seed, tmp_path,
                                                   monkeypatch):
    """A run made and checked as the benchmark worker makes and checks
    one, with bench/ loaded, not changed: the artifact digests and
    rejected-operation count that bench/golden.json records (Ripple and
    UTXO), the |I|x|O| address-graph identity (UTXO) and the untimed
    replay (tangle)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import worker

    params = worker.load_workloads()[workload]["params"]
    config, script, genesis = worker.prepare(workload, params, seed,
                                             str(tmp_path))
    report = run_pipeline(config)
    expected = worker.load_golden().get(workload, {}).get(str(seed))
    assert (expected is None) == (workload == "tangle-replay")
    assert worker.check(workload, report, checks.digests(report["outputs"]),
                        expected, script, genesis, replay_check=True) == []
