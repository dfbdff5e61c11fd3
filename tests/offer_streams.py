"""Seeded offer streams, the input for the order-book oracle tests."""

from dataclasses import dataclass

from ledgergraph.generate import derive_rng
from ledgergraph.ripple import CurrencyValue


@dataclass(frozen=True)
class OfferSpec:
    count: int = 1000
    traders: int = 8
    currencies: tuple[str, ...] = ("USD", "EUR")
    amount_max: int = 100


def generate_offer_stream(spec: OfferSpec, seed: int):
    """(owner, gets, pays) triples over issued-currency pairs; amounts are
    small integers so books cross frequently."""
    rng = derive_rng(seed, "offers")
    traders = [f"m{i:03d}" for i in range(spec.traders)]
    stream = []
    for _ in range(spec.count):
        owner = rng.choice(traders)
        a, b = rng.sample(spec.currencies, 2)
        gets = CurrencyValue(a, "issuerX", rng.randint(1, spec.amount_max))
        pays = CurrencyValue(b, "issuerX", rng.randint(1, spec.amount_max))
        stream.append((owner, gets, pays))
    return traders, stream
