"""A reference model of UTXO block validation.

Hypothesis draws block sequences over a small pool of addresses, with
hidden amounts and Zcash coinbases among them, and injects one rejection
the ledger knows into each block it draws (or none). After every block
it compares ``Ledger.apply_block`` with ``Reference``, a naive replay of
README's "UTXO validation" rules: the accept or reject decision, the
error code, the unspent set, ``destroyed`` and ``Ledger.summary()``.
"""

from hypothesis import given, settings, strategies as st

from ledgergraph.core import MAX_AMOUNT, LedgerError
from ledgergraph.utxo import Block, Ledger, Output, UtxoTransaction

ADDRESSES = ("a", "b", "c", "d")


class Reference:
    """README's rules replayed naively: a dict of unspent outputs, and one
    staging copy of it per block."""

    def __init__(self):
        self.unspent = {}  # (txid, index) -> (address, amount, visible)
        self.output_counts = {}  # committed txid -> its number of outputs
        self.tip = -1
        self.blocks = self.supply = self.destroyed = 0

    def apply(self, height, txs, subsidy):
        """The code of the first rule the block breaks; None when it breaks
        none, and then the block is committed."""
        if height != self.tip + 1:
            return "height-mismatch"
        ids = [tx.id for tx in txs]
        if len(set(ids)) < len(ids) or any(i in self.output_counts for i in ids):
            return "duplicate-txid"
        staged, made = dict(self.unspent), set()

        def add(tx):
            for i, out in enumerate(tx.outputs):
                staged[(tx.id, i)] = (out.address, out.amount, out.amount_visible)
                made.add((tx.id, i))

        coinbase, fees = txs[0], 0
        add(coinbase)
        for tx in txs[1:]:
            total_in = 0
            for ref in tx.inputs:
                if ref in staged:
                    total_in += staged.pop(ref)[1]
                elif ref in made or 0 <= ref[1] < self.output_counts.get(ref[0], 0):
                    return "double-spend"
                else:
                    return "missing-output"
            fee = total_in - sum(out.amount for out in tx.outputs)
            if fee < 0:
                return "overspend"
            if fee > MAX_AMOUNT:
                return "amount-overflow"
            fees += fee
            add(tx)
        if fees > MAX_AMOUNT:
            return "amount-overflow"
        claimed = sum(out.amount for out in coinbase.outputs)
        if claimed > subsidy + fees:
            return "excessive-reward"
        if coinbase.output_kinds is not None and set(coinbase.output_kinds) != {"z"}:
            return "unshielded-coinbase"
        if claimed > MAX_AMOUNT:
            return "amount-overflow"
        self.unspent = staged
        self.output_counts.update((tx.id, len(tx.outputs)) for tx in txs)
        self.tip, self.blocks = height, self.blocks + 1
        self.supply += claimed
        self.destroyed += subsidy + fees - claimed
        return None

    def summary(self):
        return {"blocks": self.blocks, "transactions": len(self.output_counts),
                "unspent_outputs": len(self.unspent), "total_supply": self.supply,
                "destroyed": self.destroyed}


def split(total, parts):
    """total in near-equal parts, each within the amount bound."""
    parts = max(parts, -(-total // MAX_AMOUNT))
    q, r = divmod(total, parts)
    return [q + (i < r) for i in range(parts)]


FAULTS = (None, "under-claim", "height", "duplicate-across", "duplicate-within",
          "double-spend-across", "double-spend-within", "missing", "index-outside",
          "overspend", "spend-later", "excessive", "unshielded", "fee-bound",
          "fees-bound", "claim-bound")


class BlockDrawer:
    """Draws blocks against the reference's state: a valid block, then one
    fault injected into it, with the code that fault must give."""

    def __init__(self, data, big):
        self.draw, self.model, self.count = data.draw, Reference(), 0
        # a subsidy of MAX_AMOUNT lets fees and claims pass the bound
        self.subsidy = MAX_AMOUNT if big else 1_000

    def fresh(self):
        self.count += 1
        return f"t{self.count}"

    def outputs(self, txid, amounts):
        return tuple(Output(txid, i, amount, self.draw(st.sampled_from(ADDRESSES)),
                            amount_visible=self.draw(st.booleans()))
                     for i, amount in enumerate(amounts))

    def tx(self, inputs, amounts, txid=None):
        txid = txid or self.fresh()
        return UtxoTransaction(txid, tuple(inputs), self.outputs(txid, amounts))

    def coinbase(self, txid, claim, transparent):
        """A coinbase claiming claim; a Zcash one (it names its output
        kinds) at random, and one with a transparent output if asked."""
        half = self.subsidy // 2
        amounts = [half] + split(claim - half, self.draw(st.integers(1, 2)))
        kinds = None
        if transparent:
            kinds = ["z"] * len(amounts)
            kinds[self.draw(st.integers(0, len(amounts) - 1))] = "t"
        elif self.draw(st.booleans()):
            kinds = ["z"] * len(amounts)
        return UtxoTransaction(txid, (), self.outputs(txid, amounts), coinbase=True,
                               output_kinds=kinds and tuple(kinds))

    def block(self):
        """(height, transactions, code the reference must give)."""
        model, draw = self.model, self.draw
        height, cb_id = model.tip + 1, self.fresh()
        # staged amounts: only the coinbase's first output, whose amount
        # does not depend on the fees, is spent within its own block
        staged = {ref: v[1] for ref, v in model.unspent.items()}
        staged[(cb_id, 0)] = self.subsidy // 2
        spends, spent, fees = [], [], 0
        for _ in range(draw(st.integers(0, 3))):
            if not staged:
                break
            inputs = draw(st.lists(st.sampled_from(sorted(staged)), min_size=1,
                                   max_size=3, unique=True))
            total = sum(staged.pop(ref) for ref in inputs)
            fee = draw(st.integers(0, min(total, 50)))
            spends.append(self.tx(inputs, split(total - fee, draw(st.integers(1, 3)))))
            spent += inputs
            fees += fee
            staged.update((out.ref, out.amount) for out in spends[-1].outputs)
        claim = min(self.subsidy + fees, MAX_AMOUNT)
        fault = draw(st.sampled_from(FAULTS))
        code, extra = None, []
        if fault == "under-claim":
            claim -= draw(st.integers(1, claim - self.subsidy // 2))
        elif fault == "height":
            height += draw(st.sampled_from([1, 2] + [-1] * (height > 0)))
            code = "height-mismatch"
        elif fault == "duplicate-across" and model.output_counts:
            taken = draw(st.sampled_from(sorted(model.output_counts)))
            if spends:
                last = spends.pop()
                spends.append(self.tx(last.inputs, [o.amount for o in last.outputs],
                                      taken))
            else:
                cb_id = taken
            code = "duplicate-txid"
        elif fault == "duplicate-within":
            extra = [self.tx([("x", 0)], [0], txid=cb_id)]
            code = "duplicate-txid"
        elif fault == "double-spend-across":
            gone = sorted((txid, i) for txid, n in model.output_counts.items()
                          for i in range(n) if (txid, i) not in model.unspent)
            if gone:
                extra = [self.tx([draw(st.sampled_from(gone))], [0])]
                code = "double-spend"
        elif fault == "double-spend-within":
            if not spent:  # spend the coinbase's first output twice
                extra = [self.tx([(cb_id, 0)], [self.subsidy // 2])]
                spent = [(cb_id, 0)]
            extra.append(self.tx([draw(st.sampled_from(spent))], [0]))
            code = "double-spend"
        elif fault == "missing":
            extra = [self.tx([("nope", 0)], [0])]
            code = "missing-output"
        elif fault == "index-outside" and (model.output_counts or spends):
            counts = dict(model.output_counts)
            counts.update((tx.id, len(tx.outputs)) for tx in spends)
            txid = draw(st.sampled_from(sorted(counts)))
            index = draw(st.sampled_from([-1, counts[txid]]))
            extra = [self.tx([(txid, index)], [0])]
            code = "missing-output"
        elif fault == "overspend" and staged:
            ref = draw(st.sampled_from(sorted(staged)))
            extra = [self.tx([ref], [staged[ref], 1])]
            code = "overspend"
        elif fault == "spend-later" and staged:
            # the later transaction is valid, and so is the earlier one
            # once the later one is applied
            ref = draw(st.sampled_from(sorted(staged)))
            later_id = self.fresh()
            extra = [self.tx([(later_id, 0)], [staged[ref]]),
                     self.tx([ref], [staged[ref]], later_id)]
            code = "missing-output"
        elif fault == "excessive":
            claim = self.subsidy + fees + 1
            code = "excessive-reward"
        elif fault == "unshielded":
            code = "unshielded-coinbase"
        elif fault == "fee-bound" and sum(staged.values()) > MAX_AMOUNT:
            # the fee passes the bound; a missing input after it shows
            # that the fee's own check stopped the block
            refs = sorted(staged, key=staged.get, reverse=True)
            while sum(map(staged.get, refs[:-1])) > MAX_AMOUNT:
                refs.pop()
            extra = [self.tx(refs, [0]), self.tx([("nope", 0)], [0])]
            code = "amount-overflow"
        elif fault == "fees-bound":
            refs = sorted((r for r in staged if staged[r]), key=staged.get, reverse=True)
            rest = sum(map(staged.get, refs[1:]))
            if len(refs) > 1 and staged[refs[0]] + rest > MAX_AMOUNT:
                # each fee is within the bound, their sum is not
                extra = [self.tx(refs[:1], [0]),
                         self.tx(refs[1:], split(max(0, rest - MAX_AMOUNT), 1))]
                code = "amount-overflow"
        elif fault == "claim-bound" and self.subsidy + fees > MAX_AMOUNT:
            claim = self.subsidy + fees
            code = "amount-overflow"
        coinbase = self.coinbase(cb_id, claim, fault == "unshielded")
        return height, [coinbase, *spends, *extra], code


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_apply_block_matches_the_reference_replay(data, big):
    drawer, ledger = BlockDrawer(data, big), Ledger()
    model = drawer.model
    for _ in range(data.draw(st.integers(1, 8))):
        height, txs, code = drawer.block()
        assert model.apply(height, txs, drawer.subsidy) == code
        try:
            ledger.apply_block(Block(height, tuple(txs), drawer.subsidy))
        except LedgerError as exc:
            assert exc.code == code
        else:
            assert code is None
        assert {ref: (out.address, out.amount, out.amount_visible)
                for ref, out in ledger.utxo.items()} == model.unspent
        assert ledger.destroyed == model.destroyed
        assert ledger.summary() == model.summary()
