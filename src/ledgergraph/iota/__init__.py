"""DAG-ledger mechanics: balanced-ternary codec, seed-to-address
derivation over one ternary sponge, bundles with signature fragmentation,
and tangle growth with milestones, promotion and snapshots."""

from .trinary import (
    TRYTE_ALPHABET,
    InvalidTryteError,
    ascii_to_trits,
    decode_trytes,
    encode_trytes,
    int_to_trits,
    trits_to_int,
)
from .sponge import MixerSponge, sponge_hash
from .keys import (
    MAX_KEY_INDEX,
    SEED_TRYTES,
    derive_address,
    derive_private_key,
    derive_subseed,
)
from .bundles import Bundle, TangleTransaction, UnbalancedBundleError, build_bundle
from .tangle import (
    NotCoordinatorError,
    NoValidTipsError,
    PowBudgetExceededError,
    TangleState,
)

__all__ = [
    "TRYTE_ALPHABET",
    "InvalidTryteError",
    "ascii_to_trits",
    "decode_trytes",
    "encode_trytes",
    "int_to_trits",
    "trits_to_int",
    "MixerSponge",
    "sponge_hash",
    "MAX_KEY_INDEX",
    "SEED_TRYTES",
    "derive_address",
    "derive_private_key",
    "derive_subseed",
    "Bundle",
    "TangleTransaction",
    "UnbalancedBundleError",
    "build_bundle",
    "NotCoordinatorError",
    "NoValidTipsError",
    "PowBudgetExceededError",
    "TangleState",
]
