"""Trust lines, rippling, offers (against a brute-force matcher oracle),
checks and escrows; path search against brute-force enumeration, and
the write counter against state digests on random scripts."""

import copy
import json
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph import ripple
from ledgergraph.cli import main
from ledgergraph.core import LedgerError
from ledgergraph.scenario import _ripple_step, replay_ripple
from ledgergraph.ripple import (
    BASE_RESERVE_DROPS,
    OWNER_RESERVE_DROPS,
    BelowReserveError,
    CheckError,
    CurrencyValue,
    DriedUpPathError,
    EscrowError,
    NoPathError,
    PaymentSpec,
    ReserveUnmetError,
    RippleLedger,
    UnfundedOfferError,
    XrpRipplingError,
    ZeroDeliverableError,
    _Legs,
    dump_trust_csv,
    fill_amounts,
    load_trust_csv,
)

import worked_examples
from offer_streams import OfferSpec, generate_offer_stream

XRP_100 = 100_000_000  # drops


def usd(value, issuer=None):
    return CurrencyValue("USD", issuer, value)


def funded_ledger(names, drops=XRP_100):
    led = RippleLedger()
    for n in names:
        led.create_account(n, xrp_drops=drops)
    return led


def hold(led, holder, cv, amount):
    """Give the holder `amount` of cv's issued currency: a line it extends
    to the issuer, on which the issuer owes that much."""
    led.set_trust(holder, cv.issuer, cv.currency, 10**12)
    led.adjust_line_debt(holder, cv.issuer, cv.currency, amount)


# -- canonicalization and trust lines ---------------------------------------------

def test_set_trust_canonicalizes_both_orders():
    led1 = funded_ledger(["alice", "bob"])
    s1 = led1.set_trust("bob", "alice", "USD", 500)
    led2 = funded_ledger(["alice", "bob"])
    s2 = led2.set_trust("bob", "alice", "USD", 500)
    assert (s1.low, s1.high) == ("alice", "bob") == (s2.low, s2.high)
    # lender bob is the high account, so its limit lands in high_limit
    assert s1.high_limit == 500 and s1.low_limit == 0


def test_table_row_shape():
    led = load_trust_csv(
        ["low,high,currency,balance,low_limit,high_limit",
         "gateway,rSA...Adw,USD,250,500,0"])
    state = led.line("gateway", "rSA...Adw", "USD")
    assert (state.balance, state.low_limit, state.high_limit) == (250, 500, 0)


def test_trust_csv_round_trips_names_with_commas_and_quotes():
    led = load_trust_csv(
        ["low,high,currency,balance,low_limit,high_limit",
         '"a,b",c,USD,3,10,0',
         'c,"q""x",USD,-2,0,5'])
    assert led.line("a,b", "c", "USD").balance == 3
    assert led.line("c", 'q"x', "USD").high_limit == 5
    text = dump_trust_csv(led).decode("utf-8")
    assert load_trust_csv(text.splitlines()).state_digest() == led.state_digest()


def test_trust_csv_round_trips_names_with_newlines():
    led = load_trust_csv(
        ["low,high,currency,balance,low_limit,high_limit\n",
         '"a\nb",c,USD,1,0,10\n',
         '  "c,d",e,USD,0,5,0\n',  # indented
         '\t"f,g",h,USD,0,0,10\n'])  # tab-indented
    assert led.line("a\nb", "c", "USD").balance == 1
    assert led.line("c,d", "e", "USD").low_limit == 5
    assert led.line("f,g", "h", "USD").high_limit == 10
    lines = dump_trust_csv(led).decode("utf-8").splitlines(keepends=True)
    assert len(lines) == 5  # the first record spans two lines
    assert load_trust_csv(lines).state_digest() == led.state_digest()
    with pytest.raises(LedgerError, match="^line 6: expected 6 cells, got 5$"):
        load_trust_csv(lines + ['"p\nq",r,USD,0,5\n'])


def test_zero_limit_on_clean_line_deletes():
    led = funded_ledger(["a", "b"])
    led.set_trust("a", "b", "USD", 100)
    assert led.account("a").owned_objects == 1
    assert led.set_trust("a", "b", "USD", 0) is None
    assert led.line("a", "b", "USD") is None
    assert led.account("a").owned_objects == 0


def test_reserve_unmet_blocks_new_line():
    led = RippleLedger()
    led.create_account("poor", xrp_drops=BASE_RESERVE_DROPS)  # no slack at all
    led.create_account("b", xrp_drops=XRP_100)
    with pytest.raises(ReserveUnmetError):
        led.set_trust("poor", "b", "USD", 10)


def test_available_capacity_uses_minus_used():
    led = funded_ledger(["alice", "bob"])
    led.set_trust("bob", "alice", "USD", 500, no_ripple=False)
    led.adjust_line_debt("bob", "alice", "USD", 15)
    state = led.line("bob", "alice", "USD")
    assert led.available_capacity(state, "alice") == 485


def test_fresh_line_capacity_is_limit():
    led = funded_ledger(["a", "b"])
    state = led.set_trust("a", "b", "USD", 123, no_ripple=False)
    assert led.available_capacity(state, "b") == 123


# -- direct payments -----------------------------------------------------------------

def test_direct_payment_keeps_reserve():
    led = funded_ledger(["s", "r"])
    led.direct_xrp_payment("s", "r", 50_000_000)
    assert led.account("s").xrp_balance == 50_000_000
    assert led.account("r").xrp_balance == 150_000_000


def test_direct_payment_below_reserve_rejected():
    led = funded_ledger(["s", "r"])
    with pytest.raises(BelowReserveError):
        led.direct_xrp_payment("s", "r", 85_000_000)  # 15 XRP left < 20


def test_new_account_needs_base_reserve_funding():
    led = funded_ledger(["s"], drops=10 * XRP_100)
    with pytest.raises(BelowReserveError):
        led.direct_xrp_payment("s", "newbie", 1_000_000)
    led.direct_xrp_payment("s", "newbie", 20_000_000)
    assert led.account("newbie").xrp_balance == 20_000_000


# -- pathfinding and rippling ----------------------------------------------------------

def test_figure_scenario_path_and_balances():
    led = worked_examples.rippling_network()
    spec = PaymentSpec("sarah", "bob", usd(50))
    paths = led.find_paths(spec)
    assert paths == [("sarah", "tim", "john", "bob")]  # alice route lacks capacity
    led.pay(spec)
    assert led.available_capacity(led.line("tim", "sarah", "USD"), "sarah") == 50
    assert led.available_capacity(led.line("john", "tim", "USD"), "tim") == 25
    assert led.available_capacity(led.line("bob", "john", "USD"), "john") == 35


def test_repeat_fails_atomically_then_partial_delivers_min_capacity():
    led = worked_examples.rippling_network()
    led.pay(PaymentSpec("sarah", "bob", usd(50)))
    before = led.state_digest()
    with pytest.raises((DriedUpPathError, NoPathError)):
        led.execute_rippling(("sarah", "tim", "john", "bob"), 50, "USD")
    assert led.state_digest() == before  # full rollback
    result = led.pay(PaymentSpec("sarah", "bob", usd(50), tf_partial_payment=True))
    assert result["delivered"] == 25
    assert result["path"] == ["sarah", "tim", "john", "bob"]


def test_single_hop_default_path():
    led = funded_ledger(["s", "d"])
    led.set_trust("d", "s", "USD", 100, no_ripple=False)
    paths = led.find_paths(PaymentSpec("s", "d", usd(40)))
    assert paths == [("s", "d")]
    with pytest.raises(NoPathError):
        led.find_paths(PaymentSpec("s", "d", usd(40), tf_no_direct_ripple=True))


def test_no_ripple_on_both_lines_blocks_intermediate():
    led = funded_ledger(["s", "x", "d"])
    led.set_trust("x", "s", "USD", 100, no_ripple=False)
    led.set_trust("d", "x", "USD", 100, no_ripple=False)
    assert led.find_paths(PaymentSpec("s", "d", usd(10)))
    # x flips no_ripple on both incident lines: path must vanish
    led.line("x", "s", "USD").low_no_ripple = True
    led.line("x", "s", "USD").high_no_ripple = True
    led.line("d", "x", "USD").low_no_ripple = True
    led.line("d", "x", "USD").high_no_ripple = True
    with pytest.raises(NoPathError):
        led.find_paths(PaymentSpec("s", "d", usd(10)))


def test_iou_conservation_and_endpoint_shift():
    led = worked_examples.rippling_network()
    before = led.net_positions("USD")
    led.pay(PaymentSpec("sarah", "bob", usd(50)))
    after = led.net_positions("USD")
    assert sum(before.values()) == sum(after.values()) == 0
    assert after["sarah"] - before.get("sarah", 0) == -50
    assert after["bob"] - before.get("bob", 0) == 50
    for mid in ("tim", "john", "alice"):
        assert after.get(mid, 0) == before.get(mid, 0)


def test_partial_zero_deliverable():
    led = funded_ledger(["s", "d"])
    led.set_trust("d", "s", "USD", 10, no_ripple=False)
    led.adjust_line_debt("d", "s", "USD", 10)
    with pytest.raises((ZeroDeliverableError, NoPathError)):
        led.pay(PaymentSpec("s", "d", usd(5), tf_partial_payment=True,
                            pathset=(("s", "d"),)))


def test_partial_payment_over_blocked_paths_names_the_first_block():
    """A partial payment whose explicit paths are all blocked raises what
    the full payment raises for the first of them; one open path, even an
    exhausted one, leaves it zero-deliverable."""
    led = funded_ledger(["s", "x", "y", "d"])
    led.set_trust("x", "s", "USD", 100)  # x's side has no_ripple set
    led.set_trust("d", "x", "USD", 100)
    led.set_trust("x", "d", "USD", 0)  # and so does its side of the d line
    led.set_trust("d", "s", "USD", 10)
    led.adjust_line_debt("d", "s", "USD", 10)  # the direct line is used up
    writes = led.writes
    for first, message in ((("s", "x", "d"), "path blocked by no_ripple flags"),
                           (("s", "y", "d"), "no USD line between s and y")):
        for partial in (False, True):
            with pytest.raises(DriedUpPathError, match=f"^{message}"):
                led.pay(PaymentSpec("s", "d", usd(5), tf_partial_payment=partial,
                                    pathset=(first, ("s", "x", "d"))))
    with pytest.raises(ZeroDeliverableError):
        led.pay(PaymentSpec("s", "d", usd(5), tf_partial_payment=True,
                            pathset=(("s", "x", "d"), ("s", "d"))))
    assert led.writes == writes


def test_amount_issuer_must_be_second_to_last():
    led = funded_ledger(["s", "gw1", "gw2", "d"])
    led.set_trust("gw1", "s", "USD", 100, no_ripple=False)
    led.set_trust("gw2", "s", "USD", 100, no_ripple=False)
    led.set_trust("d", "gw1", "USD", 100, no_ripple=False)
    led.set_trust("d", "gw2", "USD", 100, no_ripple=False)
    paths = led.find_paths(PaymentSpec("s", "d", usd(10, issuer="gw2")))
    assert paths == [("s", "gw2", "d")]


# -- offers -------------------------------------------------------------------------

def eur(value, issuer="issE"):
    return CurrencyValue("EUR", issuer, value)


def offer_ledger():
    led = funded_ledger(["m", "t", "issE", "issU"], drops=10 * XRP_100)
    hold(led, "m", eur(0), 1000)
    hold(led, "t", usd(0, "issU"), 1000)
    return led


def test_full_cross():
    led = offer_ledger()
    led.create_offer("m", eur(7), usd(10, "issU"))
    result = led.create_offer("t", usd(10, "issU"), eur(7))
    assert result["fills"] and not result["rested"]
    assert worked_examples.holding(led, "m", "USD", "issU") == 10
    assert worked_examples.holding(led, "m", "EUR", "issE") == 1000 - 7
    assert worked_examples.holding(led, "t", "EUR", "issE") == 7
    assert worked_examples.holding(led, "t", "USD", "issU") == 1000 - 10


def test_favorable_rate_keeps_difference():
    led = offer_ledger()
    led.create_offer("m", eur(7), usd(9, "issU"))
    result = led.create_offer("t", usd(10, "issU"), eur(7))
    assert result["pays_remaining"] == 0  # got all 7 EUR
    assert result["gets_remaining"] == 1  # kept 1 USD
    assert worked_examples.holding(led, "t", "USD", "issU") == 1000 - 9
    assert worked_examples.holding(led, "t", "EUR", "issE") == 7


def test_no_cross_rests_in_book():
    led = offer_ledger()
    result = led.create_offer("m", eur(7), usd(10, "issU"))
    assert result["rested"] and not result["fills"]
    assert len(led.book_rows()) == 1


def test_digest_sees_an_unfunded_maker_leave_its_book():
    """A resting maker whose USD is redeemed is dropped from its book by a
    crossing offer, which is then cancelled: only book membership and
    the sequence counter changed, and the digest must show it."""
    led = RippleLedger()
    for name in ("gw", "m", "t"):
        led.create_account(name, xrp_drops=10 * XRP_100)
    led.set_trust("m", "gw", "USD", 1000)
    led.adjust_line_debt("m", "gw", "USD", 100)
    led.set_trust("t", "gw", "EUR", 1000)
    led.adjust_line_debt("t", "gw", "EUR", 100)
    led.create_offer("m", CurrencyValue("USD", "gw", 10), CurrencyValue("EUR", "gw", 10))
    led.adjust_line_debt("m", "gw", "USD", -100)
    before, rows = led.state_digest(), led.book_rows()
    crossing = led.create_offer("t", CurrencyValue("EUR", "gw", 10),
                                CurrencyValue("USD", "gw", 10))
    led.cancel_offer("t", crossing["sequence"])
    assert len(rows) == 1 and led.book_rows() == []
    assert led.state_digest() != before


def test_unfunded_offer_fails():
    led = offer_ledger()
    with pytest.raises(UnfundedOfferError):
        led.create_offer("m", eur(5000), usd(1, "issU"))


def test_buying_issued_currency_creates_trust_line_and_reserve():
    led = offer_ledger()
    assert led.line("t", "issE", "EUR") is None
    owned_before = led.account("t").owned_objects
    led.create_offer("m", eur(7), usd(10, "issU"))
    led.create_offer("t", usd(10, "issU"), eur(7))
    assert led.line("t", "issE", "EUR") is not None
    assert led.account("t").owned_objects == owned_before + 1
    # once t's 7 EUR are redeemed, the issuer zeroing its side deletes the
    # line, which releases t's reserve for it
    led.adjust_line_debt("t", "issE", "EUR", -7)
    led.set_trust("issE", "t", "EUR", 0)
    assert led.line("t", "issE", "EUR") is None
    assert led.account("t").owned_objects == owned_before


# brute-force matcher oracle: same fill convention, naive book as a list
class NaiveBook:
    """Traders listed in `xrp` carry the reserve for each currency they
    hold on a line: a fill that would give one of them a new line it
    cannot reserve rejects the whole offer ("no-reserve:<trader>"), and
    a remainder rests only while its owner meets its reserve. Traders
    not listed never run short."""

    def __init__(self):
        self.resting = []  # (owner, gets_cur, pays_cur, gets_rem, pays_rem, rate, seq)
        self.balances = {}
        self.lines = {}  # owner -> currencies held on a line
        self.xrp = {}  # owner -> drops
        self.seq = 0
        self.last_fills = []  # (maker seq, maker gave, maker got)
        self.last_rested = False

    def fund(self, owner, currency, amount):
        self.balances[(owner, currency)] = \
            self.balances.get((owner, currency), 0) + amount
        self.lines.setdefault(owner, set()).add(currency)

    def _reserve_ok(self, owner, lines):
        return owner not in self.xrp or self.xrp[owner] >= \
            BASE_RESERVE_DROPS + lines * OWNER_RESERVE_DROPS

    def submit(self, owner, gets, pays):
        if self.balances.get((owner, gets.currency), 0) < gets.value:
            return "unfunded"
        saved = copy.deepcopy((self.resting, self.balances, self.lines, self.seq))
        self.seq += 1
        self.last_fills, self.last_rested = [], False
        taker = {"owner": owner, "gets_c": gets.currency, "pays_c": pays.currency,
                 "gets_rem": gets.value, "pays_rem": pays.value, "seq": self.seq}
        limit_rate = Fraction(gets.value, pays.value)
        while taker["gets_rem"] > 0 and taker["pays_rem"] > 0:
            crossable = [o for o in self.resting
                         if o["gets_c"] == taker["pays_c"]
                         and o["pays_c"] == taker["gets_c"]
                         and o["rate"] <= limit_rate]
            if not crossable:
                break
            maker = min(crossable, key=lambda o: (o["rate"], o["seq"]))
            # makers drained by other trades drop out at cross time
            if self.balances.get((maker["owner"], maker["gets_c"]), 0) < 1:
                self.resting.remove(maker)
                continue
            g, p = fill_amounts(maker["gets_rem"], maker["rate"],
                                taker["pays_rem"], taker["gets_rem"])
            if g <= 0:
                break
            if self.balances.get((maker["owner"], maker["gets_c"]), 0) < g:
                self.resting.remove(maker)
                continue
            for who, currency, amount in (
                    (maker["owner"], maker["gets_c"], -g),
                    (maker["owner"], maker["pays_c"], p),
                    (taker["owner"], taker["gets_c"], -p),
                    (taker["owner"], taker["pays_c"], g)):
                held = self.lines.get(who, set())
                if currency not in held and not self._reserve_ok(who, len(held) + 1):
                    self.resting, self.balances, self.lines, self.seq = saved
                    return f"no-reserve:{who}"
                self.fund(who, currency, amount)
            maker["gets_rem"] -= g
            maker["pays_rem"] = max(0, maker["pays_rem"] - p)
            taker["pays_rem"] -= g
            taker["gets_rem"] -= p
            self.last_fills.append((maker["seq"], g, p))
            if maker["gets_rem"] <= 0 or maker["pays_rem"] <= 0:
                self.resting.remove(maker)
        if taker["gets_rem"] > 0 and taker["pays_rem"] > 0 and \
                self._reserve_ok(owner, len(self.lines.get(owner, ()))):
            taker["rate"] = Fraction(pays.value, gets.value)
            self.resting.append(taker)
            self.last_rested = True
        return "ok"

    def book_rows(self):
        return sorted(
            ((o["gets_c"], o["pays_c"], o["seq"], o["gets_rem"], o["pays_rem"])
             for o in self.resting),
            key=lambda r: r[2])


def test_tight_funding_engine_and_oracle_agree_on_rejections():
    import random as _random
    from ledgergraph.ripple import UnfundedOfferError
    rng = _random.Random(5)
    traders = [f"m{i}" for i in range(4)]
    led = RippleLedger()
    oracle = NaiveBook()
    led.create_account("issuerX", xrp_drops=10**12)
    for t in traders:
        led.create_account(t, xrp_drops=10**12)
        for cur in ("USD", "EUR"):
            amount = rng.randint(0, 60)  # scarce: rejections will happen
            hold(led, t, CurrencyValue(cur, "issuerX", 0), amount)
            oracle.fund(t, cur, amount)
    rejected = 0
    for _ in range(400):
        owner = rng.choice(traders)
        a, b = rng.sample(["USD", "EUR"], 2)
        gets = CurrencyValue(a, "issuerX", rng.randint(1, 40))
        pays = CurrencyValue(b, "issuerX", rng.randint(1, 40))
        expected = oracle.submit(owner, gets, pays)
        if expected == "unfunded":
            rejected += 1
            with pytest.raises(UnfundedOfferError):
                led.create_offer(owner, gets, pays)
        else:
            led.create_offer(owner, gets, pays)
    assert rejected > 0  # the stream exercised the rejection path
    engine_rows = [(g[0], p[0], seq, grem, prem)
                   for (g, p, seq, grem, prem) in led.book_rows()]
    assert engine_rows == oracle.book_rows()
    for t in traders:
        for cur in ("USD", "EUR"):
            assert (worked_examples.holding(led, t, cur, "issuerX")
                    == oracle.balances[(t, cur)])


def test_residual_book_matches_brute_force_on_random_streams():
    traders, stream = generate_offer_stream(OfferSpec(count=1000), seed=11)
    led = RippleLedger()
    oracle = NaiveBook()
    led.create_account("issuerX", xrp_drops=10**12)
    for t in traders:
        led.create_account(t, xrp_drops=10**12)
        for cur in ("USD", "EUR"):
            hold(led, t, CurrencyValue(cur, "issuerX", 0), 10**6)
            oracle.fund(t, cur, 10**6)
    for owner, gets, pays in stream:
        led.create_offer(owner, gets, pays)
        assert oracle.submit(owner, gets, pays) == "ok"
    engine_rows = [(g[0], p[0], seq, grem, prem)
                   for (g, p, seq, grem, prem) in led.book_rows()]
    assert engine_rows == oracle.book_rows()
    for t in traders:
        for cur in ("USD", "EUR"):
            assert (worked_examples.holding(led, t, cur, "issuerX")
                    == oracle.balances[(t, cur)])


def test_near_reserve_engine_and_oracle_agree():
    # Besides traders rich in XRP and both currencies, some hold only one
    # currency and sit near the reserve: a fill paying them the other
    # would open a line that n0 and n1 cannot reserve (n2 just can).
    # n0 and n1 ask more, so their offers rest behind the others.
    rng = random.Random(7)
    base, per_line = BASE_RESERVE_DROPS, OWNER_RESERVE_DROPS
    roster = {f"r{i}": (10**12, ("USD", "EUR")) for i in range(4)}
    roster.update(n0=(base + per_line, ("USD",)),
                  n1=(base + 2 * per_line - 1, ("EUR",)),
                  n2=(base + 2 * per_line, ("USD",)),
                  n3=(10**12, ("EUR",)))
    traders = sorted(roster)
    led = RippleLedger()
    oracle = NaiveBook()
    led.create_account("issuerX", xrp_drops=10**12)
    for t, (xrp, held) in roster.items():
        led.create_account(t, xrp_drops=xrp)
        oracle.xrp[t] = xrp
        for cur in held:
            amount = rng.randint(50, 300)
            hold(led, t, CurrencyValue(cur, "issuerX", 0), amount)
            oracle.fund(t, cur, amount)
    outcomes = {"ok": 0, "unfunded": 0, "no-reserve": 0}
    fills = 0
    for _ in range(400):
        owner = rng.choice(traders)
        a, b = rng.sample(["USD", "EUR"], 2)
        premium = 30 if owner in ("n0", "n1") else 0
        gets = CurrencyValue(a, "issuerX", rng.randint(1, 40))
        pays = CurrencyValue(b, "issuerX", rng.randint(1, 40) + premium)
        expected = oracle.submit(owner, gets, pays)
        if expected == "ok":
            result = led.create_offer(owner, gets, pays)
            assert [(f["maker"], f["maker_gave"], f["maker_got"])
                    for f in result["fills"]] == oracle.last_fills
            assert result["rested"] == oracle.last_rested
            fills += len(result["fills"])
        else:
            kind, _, who = expected.partition(":")
            message = (f"{who} cannot cover the reserve for a new"
                       if kind == "no-reserve" else "does not hold")
            writes, digest = led.writes, led.state_digest()
            with pytest.raises(UnfundedOfferError, match=message):
                led.create_offer(owner, gets, pays)
            assert (led.writes, led.state_digest()) == (writes, digest)
        outcomes[expected.partition(":")[0]] += 1
    assert min(outcomes.values()) > 0 and fills > 0, outcomes
    engine_rows = [(g[0], p[0], seq, grem, prem)
                   for (g, p, seq, grem, prem) in led.book_rows()]
    assert engine_rows == oracle.book_rows()
    for t in traders:
        for cur in ("USD", "EUR"):
            assert (worked_examples.holding(led, t, cur, "issuerX")
                    == oracle.balances.get((t, cur), 0))
        assert led.account(t).owned_objects == len(oracle.lines[t])


# -- rejections that need a new line write nothing ------------------------------------

GW_EUR = {"currency": "EUR", "issuer": "gw"}
GW_USD = {"currency": "USD", "issuer": "gw"}

# The receiver holds exactly the base reserve and has no EUR line to gw,
# so cashing an EUR check would need a line it cannot reserve.
CHECK_TO_UNRESERVED = [
    {"op": "create_account", "address": "gw", "xrp": 10**12},
    {"op": "create_account", "address": "s", "xrp": 100_000_000},
    {"op": "create_account", "address": "r", "xrp": BASE_RESERVE_DROPS},
    {"op": "set_trust", "lender": "s", "borrower": "gw", "currency": "EUR",
     "limit": 1000},
    {"op": "adjust_debt", "lender": "s", "borrower": "gw", "currency": "EUR",
     "amount": 100},
    {"op": "write_check", "sender": "s", "receiver": "r",
     "amount": {**GW_EUR, "value": 50}},
    {"op": "cash_check", "check_id": 1, "amount": 50},
]

# The maker's XRP covers one owned line only; the crossing fill would pay
# it EUR, on a second line.
OFFER_TO_UNRESERVED_MAKER = [
    {"op": "create_account", "address": "gw", "xrp": 10**12},
    {"op": "create_account", "address": "m",
     "xrp": BASE_RESERVE_DROPS + OWNER_RESERVE_DROPS},
    {"op": "create_account", "address": "t", "xrp": 100_000_000},
    {"op": "set_trust", "lender": "m", "borrower": "gw", "currency": "USD",
     "limit": 1000},
    {"op": "adjust_debt", "lender": "m", "borrower": "gw", "currency": "USD",
     "amount": 100},
    {"op": "set_trust", "lender": "t", "borrower": "gw", "currency": "EUR",
     "limit": 1000},
    {"op": "adjust_debt", "lender": "t", "borrower": "gw", "currency": "EUR",
     "amount": 100},
    {"op": "offer", "owner": "m", "gets": {**GW_USD, "value": 10},
     "pays": {**GW_EUR, "value": 10}},
    {"op": "offer", "owner": "t", "gets": {**GW_EUR, "value": 10},
     "pays": {**GW_USD, "value": 10}},
]


@pytest.mark.parametrize("script,who", [(CHECK_TO_UNRESERVED, "r"),
                                        (OFFER_TO_UNRESERVED_MAKER, "m")],
                         ids=["check", "offer"])
def test_rejection_needing_a_new_line_writes_nothing(script, who, tmp_path, capsys):
    lines = [json.dumps(cmd) for cmd in script]
    setup, _ = replay_ripple(lines[:-1])
    led, log = replay_ripple(lines)
    assert [e["ok"] for e in log] == [True] * (len(script) - 1) + [False]
    assert log[-1]["error"] == {
        "code": "unfunded-offer",
        "message": f"{who} cannot cover the reserve for a new EUR line"}
    assert led.state_digest() == setup.state_digest()
    assert led.book_rows() == setup.book_rows()
    assert led.writes == setup.writes
    path = tmp_path / "script.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ripple", "pay", str(path), "--keep-going"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == log[-1]


def test_legs_reserve_every_line_they_open():
    led = funded_ledger(["gw"])
    led.create_account("r", xrp_drops=BASE_RESERVE_DROPS + OWNER_RESERVE_DROPS)
    writes = led.writes
    legs = _Legs(led)
    legs.move("r", usd(5, "gw"), 5)  # the first new line is covered
    with pytest.raises(UnfundedOfferError, match="r cannot cover .* new EUR line"):
        legs.move("r", eur(5, "gw"), 5)
    assert led.writes == writes and not led.states


# -- checks --------------------------------------------------------------------------

def test_partial_check_cashing():
    led = funded_ledger(["s", "r"], drops=10 * XRP_100)
    check = led.write_check("s", "r", CurrencyValue("XRP", None, 100_000))
    assert led.cash_check(check.check_id, 40_000) == 40_000
    assert led.checks[check.check_id].remaining == 60_000
    led.cash_check(check.check_id, 60_000)
    assert check.check_id not in led.checks


def test_check_expiry():
    led = funded_ledger(["s", "r"], drops=10 * XRP_100)
    check = led.write_check("s", "r", CurrencyValue("XRP", None, 5), expiration=100)
    with pytest.raises(CheckError):
        led.cash_check(check.check_id, 5, now=101)


def test_check_funds_verified_at_cash_time_only():
    led = funded_ledger(["s", "r"], drops=10 * XRP_100)
    check = led.write_check("s", "r", CurrencyValue("XRP", None, 9 * XRP_100))
    led.direct_xrp_payment("s", "r", 85 * XRP_100 // 10)  # drain s afterwards
    with pytest.raises(CheckError, match="unfunded"):
        led.cash_check(check.check_id, 9 * XRP_100)


def test_self_check_rejected_and_cancel_by_either():
    led = funded_ledger(["s", "r"])
    with pytest.raises(CheckError):
        led.write_check("s", "s", CurrencyValue("XRP", None, 1))
    check = led.write_check("s", "r", CurrencyValue("XRP", None, 1))
    led.cancel_check(check.check_id, "r")
    assert check.check_id not in led.checks


# -- escrows --------------------------------------------------------------------------

def test_escrow_lifecycle():
    led = funded_ledger(["s", "r"], drops=10 * XRP_100)
    escrow = led.create_escrow("s", "r", 100_000, release_time=50, expiration=100)
    assert led.account("s").xrp_balance == 10 * XRP_100 - 100_000
    with pytest.raises(EscrowError):
        led.finish_escrow(escrow.escrow_id, now=49)  # not yet releasable
    led.finish_escrow(escrow.escrow_id, now=60)
    assert led.account("r").xrp_balance == 10 * XRP_100 + 100_000


def test_escrow_expiry_refunds_sender():
    led = funded_ledger(["s", "r"], drops=10 * XRP_100)
    escrow = led.create_escrow("s", "r", 100_000, release_time=50, expiration=100)
    with pytest.raises(EscrowError):
        led.cancel_escrow(escrow.escrow_id, now=80)  # not expired yet
    led.cancel_escrow(escrow.escrow_id, now=101)
    assert led.account("s").xrp_balance == 10 * XRP_100


def test_self_escrow_allowed():
    led = funded_ledger(["s"], drops=10 * XRP_100)
    escrow = led.create_escrow("s", "s", 5_000, release_time=1)
    led.finish_escrow(escrow.escrow_id, now=2)
    assert led.account("s").xrp_balance == 10 * XRP_100


# -- path search against brute-force enumeration -------------------------------------

NODES = [f"n{i}" for i in range(5)]


@st.composite
def trust_networks(draw):
    """A ledger where each ordered pair of a few accounts may have a USD or
    EUR line, some partly used or without rippling, a payment to route,
    and the path depth to search it with."""
    names = NODES[:draw(st.sampled_from([5, 4, 3]))]
    depth = draw(st.sampled_from([4, 3, 2, 1]))
    led = RippleLedger()
    for name in names:
        led.create_account(name, xrp_drops=10**10)
    # each sampled_from list starts with its common case, which Hypothesis
    # draws most often; dense networks give search something to find
    rarely = st.sampled_from([False] * 6 + [True])
    for lender in names:
        for borrower in names:
            limit = draw(st.sampled_from([50, 100, 20, 0, 0]))
            if lender == borrower or not limit:
                continue
            currency = draw(st.sampled_from(["USD", "USD", "EUR"]))
            led.set_trust(lender, borrower, currency, limit,
                          no_ripple=draw(rarely))
            led.adjust_line_debt(lender, borrower, currency,
                                 draw(st.sampled_from([0, 10, 30, -20])))
    sender, dest = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                                 unique=True))
    issuer = st.one_of(st.none(), st.none(), st.none(), st.sampled_from(names))
    amount = draw(st.sampled_from([20, 10, 40, 30, 1, 50]))  # capacities recur
    spec = PaymentSpec(sender, dest, usd(amount, draw(issuer)),
                       send_max=usd(1, draw(issuer)) if draw(rarely) else None,
                       tf_no_direct_ripple=draw(st.booleans()),
                       tf_partial_payment=draw(st.booleans()))
    return led, spec, depth


def brute_force_paths(led, spec, depth):
    """Every simple sender-to-destination chain of at most `depth` hops
    whose lender extends credit on each hop with room for the amount (1
    for a partial payment), through the same admissibility and rippling
    filters as find_paths, shortest then lexicographically smallest."""
    currency = spec.amount.currency
    need = 1 if spec.tf_partial_payment else spec.amount.value
    names = sorted(led.accounts)

    def room(borrower, lender):
        state = led.states.get((min(borrower, lender), max(borrower, lender),
                                currency))
        if state is None:
            return 0
        if lender == state.low:
            limit, owed = state.low_limit, state.balance
        else:
            limit, owed = state.high_limit, -state.balance
        return limit - owed if limit > 0 else 0

    found = []

    def extend(path):
        if path[-1] == spec.destination:
            found.append(tuple(path))
            return
        if len(path) > depth:
            return
        for nxt in names:
            if nxt not in path and room(path[-1], nxt) >= need:
                extend(path + [nxt])

    extend([spec.account])
    found = [p for p in found if led._admissible(p, spec)
             and led._open_hops(p, currency) is not None
             and (len(p) > 2 or not spec.tf_no_direct_ripple)]
    return sorted(found, key=lambda p: (len(p), p))


@settings(max_examples=300, deadline=None)
@given(trust_networks())
def test_find_paths_matches_brute_force(network):
    led, spec, depth = network
    expected = brute_force_paths(led, spec, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ripple, "PATH_DEPTH", depth)
        if not expected:
            with pytest.raises(NoPathError):
                led.find_paths(spec)
        else:
            assert led.find_paths(spec) == expected


def payment_specs(names):
    """A USD or EUR payment between two of the names, with or without an
    amount issuer, partial or not, with or without direct rippling."""
    return st.builds(
        lambda pair, currency, value, issuer, no_direct, partial: PaymentSpec(
            *pair, CurrencyValue(currency, issuer, value),
            tf_no_direct_ripple=no_direct, tf_partial_payment=partial),
        st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True),
        st.sampled_from(["USD", "USD", "EUR"]), st.sampled_from([20, 10, 40, 1, 50]),
        st.one_of(st.none(), st.none(), st.sampled_from(names)),
        st.booleans(), st.booleans())


@st.composite
def trust_network_steps(draw):
    """A trust network, then steps on it, each with a payment spec to
    search for afterwards: set_trust (creating a line, moving or zeroing
    a limit, which deletes a line without balance, or flipping
    no_ripple), adjust_debt and payments (full, partial, with no direct
    ripple)."""
    led, _spec, depth = draw(trust_networks())
    names = sorted(led.accounts)
    pairs = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    currencies = st.sampled_from(["USD", "USD", "EUR"])
    steps = st.tuples(st.one_of(
        st.tuples(st.just("set_trust"), pairs, currencies,
                  st.sampled_from([0, 0, 100, 50, 5]), st.booleans()),
        st.tuples(st.just("adjust_debt"), pairs, currencies,
                  st.sampled_from([10, -10, 30, -30])),
        st.tuples(st.just("pay"), payment_specs(names))), payment_specs(names))
    return led, depth, draw(st.lists(steps, min_size=1, max_size=12))


def assert_credit_lists_fresh(led):
    """Every account's credit lists hold the lines that line_index gives."""
    for lender in led.accounts:
        for currency in ("USD", "EUR"):
            lines = led.line_index.get((lender, currency), {})
            assert [(b, id(s)) for b, s in led._borrowers_of(lender, currency)] \
                == [(b, id(s)) for b, s in sorted(lines.items())
                    if s.limit_of(lender) > 0]


@settings(max_examples=200, deadline=None)
@given(trust_network_steps())
def test_credit_lists_and_paths_track_every_step(network):
    """After every step, each account's credit lists are the ones
    line_index gives, and find_paths finds what brute force finds."""
    led, depth, steps = network
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ripple, "PATH_DEPTH", depth)
        for (op, *args), probe in steps:
            try:
                if op == "set_trust":
                    (lender, borrower), currency, limit, no_ripple = args
                    led.set_trust(lender, borrower, currency, limit, no_ripple)
                elif op == "adjust_debt":
                    (lender, borrower), currency, amount = args
                    led.adjust_line_debt(lender, borrower, currency, amount)
                else:
                    led.pay(*args)
            except LedgerError:
                pass
            assert_credit_lists_fresh(led)
            expected = brute_force_paths(led, probe, depth)
            if not expected:
                with pytest.raises(NoPathError):
                    led.find_paths(probe)
            else:
                assert led.find_paths(probe) == expected


def test_each_line_mutator_drops_the_credit_lists_it_changes():
    """_add_line, _set_side and _drop_line each keep the credit lists
    right on their own. Through the ledger's operations only _set_side's
    drop shows: a line that set_trust or an offer fill creates, or that
    set_trust deletes, has no limit above 0 at that moment, so it is in no
    list, and a trust CSV adds lines with limits before any list is read."""
    led = RippleLedger()
    for name in "ab":
        led.create_account(name, xrp_drops=10**10)
    assert_credit_lists_fresh(led)  # builds the empty lists
    state = ripple.RippleState("a", "b", "USD", low_limit=50, high_limit=20)
    led._add_line(state, {"a", "b"})
    assert_credit_lists_fresh(led)
    led._set_side(state, "a", 0, False)
    assert_credit_lists_fresh(led)
    led._drop_line(state.key)
    assert_credit_lists_fresh(led)


def brute_force_deliverable(led, path, amount, currency):
    """The largest amount in [0, amount] that every hop has room for,
    trying each."""
    rooms = [led.available_capacity(led.line(borrower, lender, currency), borrower)
             for borrower, lender in zip(path, path[1:])]
    return max(d for d in range(amount + 1) if all(room >= d for room in rooms))


def reference_pay(led, spec, depth):
    """pay as a full enumeration runs it: every brute-force path, in
    order, the partial payment's amount found by trying each."""
    currency, amount = spec.amount.currency, spec.amount.value
    candidates = brute_force_paths(led, spec, depth)
    if not candidates:
        raise NoPathError(
            f"no {currency} path from {spec.account} to {spec.destination}")
    if spec.tf_partial_payment:
        best = None
        for path in candidates:
            d = brute_force_deliverable(led, path, amount, currency)
            if d > 0 and (best is None or d > best[0]):
                best = (d, path)
        if best is None:
            raise ZeroDeliverableError("every candidate path is exhausted")
        assert led.execute_rippling(best[1], amount, currency, partial=True) == best[0]
        return {"delivered": best[0], "path": list(best[1])}
    errors = []
    for path in candidates:
        try:
            return {"delivered": led.execute_rippling(path, amount, currency),
                    "path": list(path)}
        except LedgerError as exc:
            errors.append(str(exc))
    raise DriedUpPathError("; ".join(errors))


def outcome(pay, led, spec):
    try:
        result = pay(led, spec)
    except LedgerError as exc:
        result = (type(exc), str(exc))
    return result, led.state_digest()


@settings(max_examples=300, deadline=None)
@given(trust_networks())
def test_pay_matches_a_full_enumeration(network):
    """Stopping at the first path that settles, and bounding the partial
    amount by the tightest hop, give the same result, error and ledger
    as trying every brute-force path."""
    led, spec, depth = network
    expected = outcome(partial(reference_pay, depth=depth), copy.deepcopy(led), spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ripple, "PATH_DEPTH", depth)
        assert outcome(RippleLedger.pay, led, spec) == expected


def test_all_fail_text_names_every_candidate_in_order():
    """Every path of the pathset is tried, and the error joins their texts
    in order: s -> b -> d is blocked at b, and s -> a -> d has room for
    only 20 of the 30. Nothing is written."""
    led = funded_ledger(["s", "a", "b", "d"])
    led.set_trust("a", "s", "USD", 20, no_ripple=False)
    led.set_trust("d", "a", "USD", 100, no_ripple=False)
    led.set_trust("b", "s", "USD", 100, no_ripple=True)
    led.set_trust("d", "b", "USD", 100, no_ripple=False)
    led.set_trust("b", "d", "USD", 0, no_ripple=True)  # b's own side opts out
    before, writes = led.state_digest(), led.writes
    spec = PaymentSpec("s", "d", usd(30), pathset=(("s", "b", "d"), ("s", "a", "d")))
    with pytest.raises(DriedUpPathError) as info:
        led.pay(spec)
    assert str(info.value) == ("path blocked by no_ripple flags; "
                               "path cannot carry 30 USD at execution time")
    assert (led.state_digest(), led.writes) == (before, writes)


def test_settled_direct_path_expands_no_longer_chain(monkeypatch):
    """Once the two-node path settles, no chain through x is expanded,
    though s -> x -> d is a path too."""
    led = funded_ledger(["s", "x", "d"])
    led.set_trust("d", "s", "USD", 100, no_ripple=False)
    led.set_trust("d", "x", "USD", 100, no_ripple=False)
    led.set_trust("x", "s", "USD", 100, no_ripple=False)
    assert led.find_paths(PaymentSpec("s", "d", usd(10))) == \
        [("s", "d"), ("s", "x", "d")]
    expanded = []
    borrowers_of = RippleLedger._borrowers_of

    def spy(self, lender, currency):
        expanded.append(lender)
        return borrowers_of(self, lender, currency)

    monkeypatch.setattr(RippleLedger, "_borrowers_of", spy)
    assert led.pay(PaymentSpec("s", "d", usd(10))) == {"delivered": 10,
                                                       "path": ["s", "d"]}
    assert expanded == ["d"]


def test_partial_payment_stops_at_a_candidate_that_delivers_everything(
        monkeypatch):
    """No later candidate can deliver more than all of the amount, so the
    second path s -> x -> d is never evaluated."""
    led = funded_ledger(["s", "x", "d"])
    led.set_trust("d", "s", "USD", 100, no_ripple=False)
    led.set_trust("d", "x", "USD", 100, no_ripple=False)
    led.set_trust("x", "s", "USD", 100, no_ripple=False)
    spec = PaymentSpec("s", "d", usd(10), tf_partial_payment=True)
    assert led.find_paths(spec) == [("s", "d"), ("s", "x", "d")]
    evaluated = []
    deliverable = RippleLedger.deliverable

    def spy(self, path, amount, currency):
        evaluated.append(tuple(path))
        return deliverable(self, path, amount, currency)

    monkeypatch.setattr(RippleLedger, "deliverable", spy)
    assert led.pay(spec) == {"delivered": 10, "path": ["s", "d"]}
    assert evaluated == [("s", "d")]


def test_xrp_has_no_rippling_path():
    led = funded_ledger(["s", "d"])
    with pytest.raises(XrpRipplingError) as exc:
        led.find_paths(PaymentSpec("s", "d", CurrencyValue("XRP", None, 5)))
    assert exc.value.code == "xrp-rippling"


# -- the write counter against state digests on random scripts ----------------------

ACCOUNTS = ["a", "b", "c", "gw"]
XRP_LEVELS = [BASE_RESERVE_DROPS, BASE_RESERVE_DROPS + OWNER_RESERVE_DROPS,
              BASE_RESERVE_DROPS + 2 * OWNER_RESERVE_DROPS, 10**9]

_name = st.sampled_from(ACCOUNTS)
_currency = st.sampled_from(["USD", "USD", "EUR", "XRP"])
_value = st.sampled_from([1, 7, 40, 150, 5_000_000, 30_000_000])
_nth = st.integers(0, 3)
_time = st.integers(0, 8)
_maybe_time = st.none() | _time


def _amount(currency, value):
    return {"currency": currency, "issuer": None if currency == "XRP" else "gw",
            "value": value}


_amounts = st.builds(_amount, _currency, _value)


def _offer(owner, sides, gets, pays):
    return {"op": "offer", "owner": owner, "gets": _amount(sides[0], gets),
            "pays": _amount(sides[1], pays)}


_issued_offers = st.builds(_offer, _name, st.permutations(["USD", "EUR"]),
                           st.integers(1, 60), st.integers(1, 60))
_payments = st.fixed_dictionaries({
    "op": st.just("pay"), "account": _name,
    "destination": st.sampled_from(ACCOUNTS + ["d"]), "amount": _amounts,
    "partial": st.booleans()})
_cashes = st.fixed_dictionaries({"op": st.just("cash_check"), "check_id": _nth,
                                 "amount": st.sampled_from([1, 7, 40, 150]),
                                 "now": _time})

# Fields named in REFS hold "the k-th newest" check, escrow, offer or line
# rather than its key, so that scripts mostly act on objects that exist;
# resolve() turns them into keys. Payments, crossable offers and cashes
# are listed more than once so that fills and cashes happen often.
SCRIPT_OPS = st.one_of(
    st.fixed_dictionaries({"op": st.just("create_account"),
                           "address": st.sampled_from(ACCOUNTS + ["d"]),
                           "xrp": st.sampled_from(XRP_LEVELS)}),
    st.fixed_dictionaries({"op": st.just("set_trust"), "lender": _name,
                           "borrower": _name,
                           "currency": st.sampled_from(["USD", "USD", "EUR"]),
                           "limit": st.sampled_from([0, 50, 1000]),
                           "no_ripple": st.booleans()}),
    st.fixed_dictionaries({"op": st.just("set_trust"), "line": _nth,
                           "low_side": st.booleans(),
                           "limit": st.sampled_from([0, 0, 50]),
                           "no_ripple": st.booleans()}),
    st.fixed_dictionaries({"op": st.just("adjust_debt"), "line": _nth,
                           "low_side": st.booleans(),
                           "amount": st.integers(-60, 120)}),
    _payments, _payments,
    st.builds(_offer, _name,
              st.permutations(["USD", "EUR", "XRP"]).map(lambda p: p[:2]),
              _value, _value),
    _issued_offers, _issued_offers, _issued_offers,
    st.fixed_dictionaries({"op": st.just("cancel_offer"),
                           "owner": st.none() | _name, "sequence": _nth}),
    st.fixed_dictionaries({"op": st.just("write_check"), "sender": _name,
                           "receiver": _name, "amount": _amounts,
                           "expiration": _maybe_time}),
    _cashes, _cashes,
    st.fixed_dictionaries({"op": st.just("cancel_check"), "check_id": _nth,
                           "by": _name}),
    st.fixed_dictionaries({"op": st.just("create_escrow"), "sender": _name,
                           "receiver": _name,
                           "drops": st.sampled_from([1, 5_000_000, 40_000_000]),
                           "release_time": _time, "expiration": _maybe_time}),
    st.fixed_dictionaries({"op": st.just("finish_escrow"), "escrow_id": _nth,
                           "now": _time}),
    st.fixed_dictionaries({"op": st.just("cancel_escrow"), "escrow_id": _nth,
                           "now": _time}),
)

REFS = {"check_id": "checks", "escrow_id": "escrows",
        "sequence": "offers_by_seq", "line": "states"}


def resolve(led, cmd):
    """The script command with its REFS fields turned into keys: a k past
    the newest objects becomes a key that does not exist. A line names
    lender, borrower and currency; an offer cancel without an owner is
    made by the offer's owner."""
    cmd = dict(cmd)
    for field, table in REFS.items():
        if field in cmd:
            keys = sorted(getattr(led, table), reverse=True)
            k = cmd.pop(field)
            cmd[field] = keys[k] if k < len(keys) else None
    if "line" in cmd:
        low, high, currency = cmd.pop("line") or ("a", "b", "USD")
        lender, borrower = (low, high) if cmd.pop("low_side") else (high, low)
        cmd.update(lender=lender, borrower=borrower, currency=currency)
    for field in ("check_id", "escrow_id", "sequence"):
        if field in cmd and cmd[field] is None:
            cmd[field] = 10**6
    if cmd["op"] == "cancel_offer" and cmd["owner"] is None:
        offer = led.offers_by_seq.get(cmd["sequence"])
        cmd["owner"] = offer.owner if offer else "a"
    return cmd


def rebuilt_index(led):
    index = {}
    for state in led.states.values():
        index.setdefault((state.low, state.currency), {})[state.high] = state
        index.setdefault((state.high, state.currency), {})[state.low] = state
    return index


def script_ledger(levels, held):
    """gw issues USD and EUR; a, b and c start at the given XRP levels,
    each holding 100 of the currencies in `held` that its XRP can
    reserve a line for."""
    led = RippleLedger()
    led.create_account("gw", xrp_drops=10**12)
    for name, xrp, currencies in zip(["a", "b", "c"], levels, held):
        led.create_account(name, xrp_drops=xrp)
        for currency in currencies:
            try:
                led.set_trust(name, "gw", currency, 1000, no_ripple=False)
            except ReserveUnmetError:
                continue
            led.adjust_line_debt(name, "gw", currency, 100)
    return led


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(XRP_LEVELS), min_size=3, max_size=3),
       st.lists(st.sampled_from([(), ("USD",), ("EUR",), ("USD", "EUR")]),
                min_size=3, max_size=3),
       st.lists(SCRIPT_OPS, min_size=20, max_size=50))
def test_writes_track_every_state_change(levels, held, script):
    led = script_ledger(levels, held)
    for cmd in script:
        cmd = resolve(led, cmd)
        before, writes = led.state_digest(), led.writes
        try:
            _ripple_step(led, cmd)
            rejected = False
        except LedgerError:
            rejected = True
        after = led.state_digest()
        if rejected:
            assert (led.writes, after) == (writes, before), cmd
        elif after != before:
            assert led.writes != writes, cmd
        index = rebuilt_index(led)
        assert led.line_index.keys() == index.keys()
        for key, peers in index.items():
            assert {p: id(s) for p, s in led.line_index[key].items()} == \
                {p: id(s) for p, s in peers.items()}
