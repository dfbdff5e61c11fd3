"""Span tracing for the traced benchmark run, installed from outside the
program.

Each traced name is patched where the caller looks it up: names that
``pipeline`` or ``scenario`` imported with ``from ... import`` are patched
on those modules, and methods on their classes. Spans (name, start,
end, parent, run id) are kept in memory and written out when the run
ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import time
from contextlib import contextmanager

# (span name, "module" or "module:Class", attribute)
TARGETS = [
    ("pipeline", "ledgergraph.pipeline", "run_pipeline"),
    ("utxo.load_jsonl", "ledgergraph.pipeline", "load_jsonl"),
    ("utxo.apply_block", "ledgergraph.utxo:Ledger", "apply_block"),
    ("generate.generate_utxo", "ledgergraph.generate", "generate_utxo"),
    ("utxo_graphs.build_transaction_graph", "ledgergraph.pipeline",
     "build_transaction_graph"),
    ("utxo_graphs.build_address_graph", "ledgergraph.pipeline",
     "build_address_graph"),
    ("utxo_graphs.build_bipartite_graph", "ledgergraph.pipeline",
     "build_bipartite_graph"),
    ("utxo_graphs.graph_stats", "ledgergraph.pipeline", "graph_stats"),
    ("core.to_edge_list", "ledgergraph.utxo_graphs:TransactionGraph",
     "to_edge_list"),
    ("core.to_edge_list", "ledgergraph.utxo_graphs:AddressGraph",
     "to_edge_list"),
    ("core.export_edge_list", "ledgergraph.pipeline", "export_edge_list"),
    ("core.export_matrix", "ledgergraph.pipeline", "export_matrix"),
    ("core.export_hypergraph", "ledgergraph.pipeline", "export_hypergraph"),
    ("chainlets.snapshot_from_ledger", "ledgergraph.pipeline",
     "snapshot_from_ledger"),
    ("chainlets.build_matrices", "ledgergraph.pipeline", "build_matrices"),
    ("scenario.replay_ripple", "ledgergraph.scenario", "replay_ripple"),
    ("scenario.replay_tangle", "ledgergraph.scenario", "replay_tangle"),
    ("ripple.find_paths", "ledgergraph.ripple:RippleLedger", "find_paths"),
    ("ripple.pay", "ledgergraph.ripple:RippleLedger", "pay"),
    ("ripple.state_digest", "ledgergraph.ripple:RippleLedger", "state_digest"),
    ("ripple.execute_rippling", "ledgergraph.ripple:RippleLedger",
     "execute_rippling"),
    ("ripple.create_offer", "ledgergraph.ripple:RippleLedger", "create_offer"),
    ("ripple.trust_graph", "ledgergraph.ripple:RippleLedger", "trust_graph"),
    ("ripple.payment_graph", "ledgergraph.ripple:RippleLedger",
     "payment_graph"),
    ("iota.bundles.build_bundle", "ledgergraph.scenario", "build_bundle"),
    ("iota.tangle.attach", "ledgergraph.iota.tangle:TangleState", "attach"),
    ("iota.tangle.select_tips", "ledgergraph.iota.tangle:TangleState",
     "select_tips"),
    ("iota.tangle.apply_milestone", "ledgergraph.iota.tangle:TangleState",
     "apply_milestone"),
    ("iota.tangle.ancestry", "ledgergraph.iota.tangle:TangleState", "ancestry"),
    ("iota.tangle.export_rows", "ledgergraph.iota.tangle:TangleState",
     "export_rows"),
    ("iota.tangle.tangle_graph", "ledgergraph.iota.tangle:TangleState",
     "tangle_graph"),
    ("iota.tangle.transaction_graph", "ledgergraph.iota.tangle:TangleState",
     "transaction_graph"),
    ("iota.sponge.transform", "ledgergraph.iota.sponge:MixerSponge",
     "_transform"),
    ("iota.trinary.encode_trytes", "ledgergraph.iota.tangle", "encode_trytes"),
    ("iota.trinary.encode_trytes", "ledgergraph.iota.bundles", "encode_trytes"),
    ("iota.trinary.encode_trytes", "ledgergraph.iota.keys", "encode_trytes"),
    ("iota.trinary.ascii_to_trits", "ledgergraph.iota.tangle",
     "ascii_to_trits"),
    ("iota.trinary.ascii_to_trits", "ledgergraph.iota.bundles",
     "ascii_to_trits"),
]

# Span names whose calls pipeline makes directly: after each, the
# process's resident high-water mark is sampled as mem.<stage>.hwm_mib.
STAGES = [
    "utxo.load_jsonl",
    "utxo_graphs.build_transaction_graph", "utxo_graphs.build_address_graph",
    "core.to_edge_list", "core.export_edge_list",
    "utxo_graphs.build_bipartite_graph", "chainlets.snapshot_from_ledger",
    "chainlets.build_matrices", "core.export_matrix", "utxo_graphs.graph_stats",
    "scenario.replay_ripple", "scenario.replay_tangle",
    "core.export_hypergraph",
]

# Per-call latency percentiles are reported for these spans only; each
# runs hundreds of times in its workload.
LATENCY = ["ripple.pay", "iota.tangle.attach", "iota.tangle.apply_milestone"]


def hwm_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans and counters for one worker process.

    ``phase`` tags spans with the run id plus "setup" or "run"; metrics
    use the run phase, except generate_utxo, which runs in set-up (the
    utxo-full workload generates its ledger there)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase_id = f"{run_id}/setup"
        self.spans: list[list] = []  # [name, start, end, parent, phase id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.hwm: dict[str, float] = {}
        self.tangle_state = None

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []
        for name, where, attr in TARGETS:
            module_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def phase(self, label: str):
        previous, self.phase_id = self.phase_id, f"{self.run_id}/{label}"
        try:
            yield
        finally:
            self.phase_id = previous

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        is_stage = name in STAGES
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase_id]
            spans.append(span)
            stack.append(index)
            ctx = before(self, args) if before else None
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if after:
                    after(self, args, result, exc, ctx)
                if is_stage and span[4].endswith("/run"):
                    self.hwm[name] = hwm_mib()

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": phase_id},
                                    separators=(",", ":")) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run; see METRICS for the names."""
        run_tag = f"{self.run_id}/run"
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        per_call: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, phase_id) in enumerate(self.spans):
            if phase_id != run_tag and name != "generate.generate_utxo":
                continue
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if name in LATENCY:
                per_call.setdefault(name, []).append(dur * 1000)
        out: dict[str, float] = {}
        for metric in METRICS:
            out[metric] = 0
        for name in total:
            for suffix, table in ((".s", total), (".self_s", self_s),
                                  (".calls", calls)):
                if name + suffix in out:
                    out[name + suffix] = table[name]
        for name, values in per_call.items():
            out[f"{name}.ms.p50"] = _quantile(values, 0.50)
            out[f"{name}.ms.p99"] = _quantile(values, 0.99)
        for stage, mark in self.hwm.items():
            out[f"mem.{stage}.hwm_mib"] = mark
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        paths = self.counts.get("ripple.find_paths.paths_returned", 0)
        settled = self.counts.get("ripple.pay.settled", 0)
        out["ripple.find_paths.used_ratio"] = settled / paths if paths else 0
        visited = self.counts.get("iota.tangle.ancestry.visited", 0)
        newly = self.counts.get("iota.tangle.confirmed_new", 0)
        out["iota.tangle.confirmed_per_visited"] = newly / visited if visited else 0
        if self.tangle_state is not None:
            out["iota.tangle.unclosed_confirmed"] = unclosed_confirmed(
                self.tangle_state)
        return {k: out[k] for k in METRICS}


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def unclosed_confirmed(state) -> int:
    """Confirmed transactions with an invalid transaction among their
    ancestors. Zero once confirmation is closed over approved history.
    Transactions are stored in attachment order, so each one's trunk and
    branch are settled before it is reached."""
    tainted: set[str] = set()
    count = 0
    for h, tx in state.transactions.items():
        if any(ref in state.invalid or ref in tainted
               for ref in (tx.trunk, tx.branch)):
            tainted.add(h)
            if h in state.confirmed:
                count += 1
    return count


# -- counters taken at span boundaries ------------------------------------

def _after_export_edge_list(tr, args, result, exc, ctx):
    if result is not None:
        tr.count("core.export_edge_list.rows", result.count(b"\n") - 1)
        tr.count("core.export_edge_list.bytes", len(result))


def _after_address_graph(tr, args, result, exc, ctx):
    if result is not None:
        tr.count("utxo_graphs.address_graph.edges", len(result.edges))


def _after_find_paths(tr, args, result, exc, ctx):
    from ledgergraph.ripple import NoPathError

    if isinstance(exc, NoPathError):
        tr.count("ripple.find_paths.no_path")
    elif result is not None:
        tr.count("ripple.find_paths.paths_returned", len(result))


def _after_pay(tr, args, result, exc, ctx):
    if result is not None:
        tr.count("ripple.pay.settled")


def _after_create_offer(tr, args, result, exc, ctx):
    if result is not None:
        tr.count("ripple.create_offer.fills", len(result["fills"]))


def _after_replay(tr, args, result, exc, ctx):
    if result is not None:
        state, log = result
        tr.count("scenario.rejected_ops", sum(1 for e in log if not e["ok"]))
        if hasattr(state, "confirmed"):
            tr.tangle_state = state


def _after_ancestry(tr, args, result, exc, ctx):
    if result is not None:
        tr.count("iota.tangle.ancestry.visited", len(result))


def _before_milestone(tr, args):
    state = args[0]
    return len(state.confirmed), len(state.invalid)


def _after_milestone(tr, args, result, exc, ctx):
    state = args[0]
    confirmed0, invalid0 = ctx
    cascade = len(state.invalid) - invalid0
    tr.count("iota.tangle.confirmed_new", len(state.confirmed) - confirmed0)
    tr.count("iota.tangle.invalidated", cascade)
    largest = tr.counts.get("iota.tangle.largest_cascade", 0)
    tr.counts["iota.tangle.largest_cascade"] = max(largest, cascade)


_BEFORE = {"iota.tangle.apply_milestone": _before_milestone}
_AFTER = {
    "core.export_edge_list": _after_export_edge_list,
    "utxo_graphs.build_address_graph": _after_address_graph,
    "ripple.find_paths": _after_find_paths,
    "ripple.pay": _after_pay,
    "ripple.create_offer": _after_create_offer,
    "scenario.replay_ripple": _after_replay,
    "scenario.replay_tangle": _after_replay,
    "iota.tangle.ancestry": _after_ancestry,
    "iota.tangle.apply_milestone": _after_milestone,
}

# Every per-layer metric a traced run reports, in report order. Layers a
# workload bypasses report 0.
METRICS = [
    "pipeline.self_s",
    "utxo.load_jsonl.self_s",
    "utxo.apply_block.s",
    "utxo.apply_block.calls",
    "generate.generate_utxo.self_s",
    "utxo_graphs.build_transaction_graph.s",
    "utxo_graphs.build_address_graph.s",
    "utxo_graphs.build_bipartite_graph.s",
    "utxo_graphs.graph_stats.s",
    "utxo_graphs.address_graph.edges",
    "core.to_edge_list.s",
    "core.export_edge_list.s",
    "core.export_edge_list.rows",
    "core.export_edge_list.bytes",
    "core.export_matrix.s",
    "core.export_hypergraph.s",
    "chainlets.snapshot_from_ledger.s",
    "chainlets.build_matrices.s",
    *[f"mem.{stage}.hwm_mib" for stage in STAGES],
    "ripple.find_paths.s",
    "ripple.find_paths.calls",
    "ripple.find_paths.no_path",
    "ripple.find_paths.paths_returned",
    "ripple.find_paths.used_ratio",
    "ripple.pay.ms.p50",
    "ripple.pay.ms.p99",
    "ripple.state_digest.s",
    "ripple.state_digest.calls",
    "ripple.execute_rippling.s",
    "ripple.create_offer.s",
    "ripple.create_offer.fills",
    "scenario.replay_ripple.self_s",
    "scenario.replay_tangle.self_s",
    "scenario.rejected_ops",
    "iota.bundles.build_bundle.s",
    "iota.tangle.attach.s",
    "iota.tangle.attach.ms.p50",
    "iota.tangle.attach.ms.p99",
    "iota.sponge.transform.calls",
    "iota.sponge.transform.s",
    "iota.trinary.encode_trytes.s",
    "iota.trinary.ascii_to_trits.s",
    "iota.tangle.select_tips.s",
    "iota.tangle.apply_milestone.s",
    "iota.tangle.apply_milestone.ms.p99",
    "iota.tangle.ancestry.visited",
    "iota.tangle.confirmed_per_visited",
    "iota.tangle.invalidated",
    "iota.tangle.largest_cascade",
    "iota.tangle.unclosed_confirmed",
]
