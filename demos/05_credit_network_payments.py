"""Credit-network payments: trust lines, rippling, offers, checks
==================================================================

Settling a payment over a chain of trust lines shifts owed balances
along the path. This demo replays the five-party walkthrough, breaks
the path, recovers with a partial payment, then exercises the order
book and a check.
"""

import json
import os

from ledgergraph.core import read_lines
from ledgergraph.ripple import (
    CurrencyValue,
    LedgerError,
    PaymentSpec,
    RippleLedger,
)
from ledgergraph.scenario import replay_ripple

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def usd(v, issuer=None):
    return CurrencyValue("USD", issuer, v)


# the walkthrough's five parties and trust lines: every line of the
# script but its payments
script = read_lines(os.path.join(FIXTURES, "rippling_payment.jsonl"))
led, _log = replay_ripple(line for line in script
                          if json.loads(line)["op"] != "pay")

print("=== pathfinding for sarah -> bob, 50 USD ===")
spec = PaymentSpec("sarah", "bob", usd(50))
for path in led.find_paths(spec):
    print(f"  candidate: {' -> '.join(path)}")
print("  (the alice route offers only 20-2=18, below 50)")

result = led.pay(spec)
print(f"\n=== settled {result['delivered']} over {result['path']} ===")
for lender, borrower in [("tim", "sarah"), ("john", "tim"), ("bob", "john")]:
    state = led.line(lender, borrower, "USD")
    owed = state.balance if lender == state.low else -state.balance
    print(f"  {borrower} now owes {lender} {owed} USD")

print("\n=== the same payment again dries up ===")
digest = led.state_digest()
try:
    led.execute_rippling(("sarah", "tim", "john", "bob"), 50, "USD")
except LedgerError as exc:
    print(f"  rejected: {exc}")
print(f"  state untouched after failure: {led.state_digest() == digest}")

partial = led.pay(PaymentSpec("sarah", "bob", usd(50), tf_partial_payment=True))
print(f"  partial flag delivers what fits: {partial['delivered']} USD")

print("\n=== order book: maker rate, taker surplus ===")
book = RippleLedger()
for name in ("maker", "taker", "issE", "issU"):
    book.create_account(name, xrp_drops=10**9)
book.set_trust("maker", "issE", "EUR", 1000)
book.adjust_line_debt("maker", "issE", "EUR", 7)  # maker holds 7 EUR.issE
book.set_trust("taker", "issU", "USD", 1000)
book.adjust_line_debt("taker", "issU", "USD", 10)
book.create_offer("maker", CurrencyValue("EUR", "issE", 7),
                  CurrencyValue("USD", "issU", 9))
fill = book.create_offer("taker", CurrencyValue("USD", "issU", 10),
                         CurrencyValue("EUR", "issE", 7))
print(f"  taker bought 7 EUR for 9 USD and kept {fill['gets_remaining']} USD")

print("\n=== checks verify funds only when cashed ===")
checks = RippleLedger()
for name in ("payer", "payee"):
    checks.create_account(name, xrp_drops=10**9)
check = checks.write_check("payer", "payee", CurrencyValue("XRP", None, 500_000))
print(f"  cashed 200k of the 500k face: "
      f"{checks.cash_check(check.check_id, 200_000)}")
print(f"  remaining cashable: {checks.checks[check.check_id].remaining}")
