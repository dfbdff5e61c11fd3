"""Trinary codec, derivation pipeline, bundles, tangle consensus."""

import hashlib
import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ledgergraph.cli import main as cli_main
from ledgergraph.iota import sponge as sponge_mod
from ledgergraph.iota import tangle as tangle_mod
from ledgergraph.iota.bundles import (Bundle, FragmentTooLongError,
                                      UnbalancedBundleError, build_bundle,
                                      compute_bundle_hash, message_transaction)
from ledgergraph.iota.keys import (MAX_KEY_INDEX, BadKeyLengthError,
                                   IndexOutOfRangeError, derive_address,
                                   derive_private_key, derive_subseed)
from ledgergraph.iota.sponge import MixerSponge, sponge_hash, squeeze_blocks
from ledgergraph.iota.tangle import (GENESIS_HASH, AlreadyAttachedError,
                                     InvalidTransactionError, NotCoordinatorError,
                                     NoValidTipsError, PowBudgetExceededError,
                                     TangleState, UnknownTransactionError)
from ledgergraph.iota.trinary import (TRYTE_ALPHABET, InvalidTryteError,
                                      ascii_to_trits, decode_trytes,
                                      encode_trytes, int_to_trits, trits_to_int)
from ledgergraph.scenario import replay_tangle

import worked_examples

SEED = "LEDGER" + "9" * 75
FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


# -- codec -------------------------------------------------------------------

def test_table_rows():
    assert encode_trytes([0, 0, 0]) == "9"
    assert encode_trytes([1, 0, 0]) == "A"
    assert encode_trytes([-1, 1, 0]) == "B"


def test_negative_one_wraps_to_z():
    assert encode_trytes([-1, 0, 0]) == "Z"


def test_codec_bijective_over_all_27():
    seen = set()
    for t0 in (-1, 0, 1):
        for t1 in (-1, 0, 1):
            for t2 in (-1, 0, 1):
                char = encode_trytes([t0, t1, t2])
                assert decode_trytes(char) == [t0, t1, t2]
                seen.add(char)
    assert seen == set(TRYTE_ALPHABET)


@given(st.text(alphabet=TRYTE_ALPHABET, max_size=300))
def test_string_round_trip(s):
    assert encode_trytes(decode_trytes(s)) == s


def test_invalid_char_rejected():
    with pytest.raises(InvalidTryteError):
        decode_trytes("abc")
    for not_triples in ([0, 0], np.zeros(4, dtype=np.int8)):
        with pytest.raises(InvalidTryteError):
            encode_trytes(not_triples)


def test_balanced_ternary_int_round_trip():
    for n in list(range(-199, 200)) + [MAX_KEY_INDEX, -MAX_KEY_INDEX]:
        assert trits_to_int(int_to_trits(n)) == n


@given(st.integers(-3**40, 3**40))
def test_negative_trits_are_the_magnitudes_negated(n):
    assert int_to_trits(-n) == [-t for t in int_to_trits(n)]


# -- derivation -----------------------------------------------------------------

def test_subseed_deterministic_and_index_sensitive():
    assert derive_subseed(SEED, 3) == derive_subseed(SEED, 3)
    assert derive_subseed(SEED, 0) != derive_subseed(SEED, 1)
    assert len(derive_subseed(SEED, 0)) == 81


def test_index_bounds():
    derive_subseed(SEED, MAX_KEY_INDEX)
    with pytest.raises(IndexOutOfRangeError):
        derive_subseed(SEED, MAX_KEY_INDEX + 1)
    with pytest.raises(IndexOutOfRangeError):
        derive_subseed(SEED, -1)


def test_key_lengths_per_level():
    sub = derive_subseed(SEED, 0)
    assert len(derive_private_key(sub, 1)) == 2187
    assert len(derive_private_key(sub, 2)) == 4374
    assert len(derive_private_key(sub, 3)) == 6561


def test_address_lengths():
    key = derive_private_key(derive_subseed(SEED, 0), 2)
    assert len(derive_address(key)) == 81
    assert len(derive_address(key, with_checksum=True)) == 90
    assert derive_address(key, with_checksum=True)[:81] == derive_address(key)


def straight_line_address(private_key: str) -> str:
    """Independent oracle: the same pipeline written as a flat loop over
    segments, with no shared helper state."""
    trits = decode_trytes(private_key)
    digests = []
    for seg_start in range(0, len(trits), 243):
        segment = np.array(trits[seg_start:seg_start + 243], dtype=np.int8)
        for _ in range(26):
            sponge = MixerSponge()
            sponge.absorb(segment)
            segment = sponge.squeeze()
        digests.append(segment)
    outer = MixerSponge()
    for d in digests:
        outer.absorb(d)
    return encode_trytes(outer.squeeze())


def test_address_matches_straight_line_reimplementation():
    for index, level in [(0, 1), (1, 2), (7, 3)]:
        key = derive_private_key(derive_subseed(SEED, index), level)
        assert derive_address(key) == straight_line_address(key)


def test_distinct_keys_give_distinct_addresses():
    a0 = derive_address(derive_private_key(derive_subseed(SEED, 0), 2))
    a1 = derive_address(derive_private_key(derive_subseed(SEED, 1), 2))
    assert a0 != a1


def test_level2_key_has_54_segments():
    key = derive_private_key(derive_subseed(SEED, 0), 2)
    assert len(key) // 81 == 54


# -- bundles -----------------------------------------------------------------------

def test_two_input_one_output_level2_has_five_txs():
    bundle = build_bundle([("A1", 2, 60), ("A2", 2, 40)], [("A5", 100)])
    assert len(bundle.transactions) == 5
    assert [tx.value for tx in bundle.transactions] == [-60, 0, -40, 0, 100]
    assert [tx.index for tx in bundle.transactions] == \
        [(i, 4) for i in range(5)]


def test_one_input_two_output_level2_has_four_txs():
    bundle = build_bundle([("A3", 2, 70)], [("A6", 30), ("A7", 40)])
    assert len(bundle.transactions) == 4


def test_table_bundle_sums_to_zero():
    addr, level, amount = worked_examples.IOTA_TABLE_BUNDLE["input"]
    bundle = build_bundle([(addr, level, amount)],
                          worked_examples.IOTA_TABLE_BUNDLE["outputs"])
    assert bundle.value_sum() == 0
    assert len(bundle.transactions) == 4  # input + fragment + two outputs
    frag = bundle.transactions[1]
    assert frag.value == 0 and frag.data == ""


def test_unbalanced_bundle_rejected():
    with pytest.raises(UnbalancedBundleError):
        build_bundle([("A", 1, 10)], [("B", 9)])


def test_fragment_sizes_and_signature_lengths():
    bundle = build_bundle([("A", 3, 5)], [("B", 5)])
    input_txs = [tx for tx in bundle.transactions if tx.value < 0]
    fragments = [tx for tx in bundle.transactions if tx.value == 0]
    assert len(input_txs) == 1 and len(fragments) == 2


def test_bundle_hash_changes_with_any_member():
    b1 = build_bundle([("A", 1, 5)], [("B", 5)])
    b2 = build_bundle([("A", 1, 5)], [("C", 5)])
    assert b1.bundle_hash != b2.bundle_hash
    mutated = [tx for tx in b1.transactions]
    mutated[0].value = -6
    assert compute_bundle_hash(mutated) != b1.bundle_hash


# -- known answers ------------------------------------------------------------
# Recorded from the roll-based mixer round and the per-trit codec loops
# (kept below as oracles); every faster implementation must reproduce
# them trit for trit.

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sponge_hash_known_answers():
    assert encode_trytes(sponge_hash([])) == (
        "IKYVMYGQESBYYNXHBTSZXIZEKTIIJWDRD9MUATSVTKWHFVJALSYPVOY9ZSNMTGZFROUFGAKE9WRAUF9NF")
    assert encode_trytes(sponge_hash(ascii_to_trits("ledgergraph"))) == (
        "WHCB9IAHNFUEOAWKXJSVEXOTRJCPYSM9TOWBGYIXZTGOLESOSOM9ULLU9EHWGMIVKPSYJHAQECLHXTLHY")
    two_blocks = ascii_to_trits("ledgergraph" * 7)
    assert two_blocks.size == 2 * 243
    assert encode_trytes(sponge_hash(two_blocks)) == (
        "UUCZVQJYHNEDYYOICFQOJMSUMXOCGPENBUG9VFBJRSQWBMLICOGXKTLPZTWJ99XRUQOFZOCIFSVYOFEOR")


def test_derivation_known_answers():
    subseed = derive_subseed(SEED, 0)
    assert subseed == (
        "ZKUWGGOXFPXXOBIYSTGKCPHVFCTISSVEIEMQK9UHIBSEDRWRKCD99OFZLBMAMJV9UNSOMLXGSSY9QXRQV")
    assert derive_subseed(SEED, 5) == (
        "FQEWUFLMQXCNLNDSNUHBUVWLHVULDIKAXEGNTNJIRWSKMDCQJCQNI9RKKGSJT9SK9ZWYHSALOBYFZVVJB")
    # Every trit of an all-M seed is +1, so adding the index carries off trit 0.
    assert derive_subseed("M" * 81, 1) == (
        "OUGOYDVKBDKLLV9VJTNSXCTFNPUUUUKCWNOGWXJDZNXFIZJQLIKBNGYAGIEAIVIAKTJBKXYXCPUKYZCXG")
    assert derive_subseed("M" * 81, MAX_KEY_INDEX) == (
        "GOUUHMLPBCPBRMONFDXGXSK9KGCKJZAAQCUHMGGHUVJDLWJKUDLVVIQDKPWAQA9PSWKOXVVZUXKRYH99B")
    keys = {level: derive_private_key(subseed, level) for level in (1, 2, 3)}
    assert {level: _sha256(key) for level, key in keys.items()} == {
        1: "72e0a23e9168b127f6d3a30477c5a9def00f14cef7d4d9de8220e869b13b2699",
        2: "9447849f6ce27c2eb863a375550d6bff23ccd071f715d860322231f4cbe80c50",
        3: "d2dfd56e588b3c7becc322dfc1460c9476ba4b80c2cd278e1995481d782196dd",
    }
    assert derive_address(keys[2], with_checksum=True) == (
        "ORAMD9YGMIYKYUJDDRJLUN9JQXHLIHNJFVNXYPOUORSKHLEZVRSJKTUYRCAVYOWTRRQXYHEPPTGTKLLKFYDMDXRPTY")


def test_bundle_known_answers():
    bundle = build_bundle([("A" * 81, 2, 10)], [("B" * 81, 4), ("C" * 81, 6)],
                          tag="T", timestamp=3)
    assert bundle.bundle_hash == (
        "XYCSAANHFNZHOWXPYUIMZOTDX9WLFUIZYWAZNXBWWLBGPABSS9CXVMSIUWSAY9EGPKLOHVNCGHEAFMACC")


def test_iota_grow_known_answer(tmp_path):
    out, log = tmp_path / "tangle.csv", tmp_path / "log.jsonl"
    code = cli_main(["iota", "grow", str(FIXTURES / "tangle_double_spend.jsonl"),
                     "--genesis", '{"a1": 100, "funder": 1000}',
                     "--out", str(out), "--log", str(log)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b0d0db860c660eb9efcdbf6848e7f2e406d0a639637580d30db8a87fdd02220d")
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "3739e26cb9016f8bcbffdefc5065162d6d15eaff4727256cec80cf9afd7d8b82")


# -- oracles for the bit-sliced round and the vectorised codecs ---------------

def roll_round_transform(state: np.ndarray) -> np.ndarray:
    """The mixer permutation as the formula states it: gather by the
    stride, two np.roll neighbours, the trit sum, int64 arithmetic."""
    s = state.astype(np.int64)
    for rnd in range(sponge_mod._ROUNDS):
        s = s[sponge_mod._PERM]
        a, b = np.roll(s, 1), np.roll(s, sponge_mod._OFFSETS[rnd])
        total = int(s.sum())
        s = (s + 2 * a + b + a * b + total + sponge_mod._ROUND_KEYS[rnd]) % 3 - 1
    return s.astype(np.int8)


def loop_encode_trytes(trits) -> str:
    trits = [int(t) for t in trits]
    if len(trits) % 3:
        raise InvalidTryteError("length")
    chars = []
    for i in range(0, len(trits), 3):
        t0, t1, t2 = trits[i:i + 3]
        if not {t0, t1, t2} <= {-1, 0, 1}:
            raise InvalidTryteError("trit")
        chars.append(TRYTE_ALPHABET[(t0 + 3 * t1 + 9 * t2) % 27])
    return "".join(chars)


def loop_ascii_to_trits(text: str) -> list[int]:
    trits: list[int] = []
    for byte in text.encode("utf-8"):
        trits.extend(int_to_trits(byte, 6))
    remainder = len(trits) % 243
    if remainder or not trits:
        trits.extend([0] * (243 - remainder))
    return trits


TRIT = st.sampled_from([-1, 0, 1])


@given(st.lists(TRIT, min_size=sponge_mod.STATE_TRITS,
                max_size=sponge_mod.STATE_TRITS))
@example([0] * sponge_mod.STATE_TRITS)
@example([1] * sponge_mod.STATE_TRITS)
@example([-1] * sponge_mod.STATE_TRITS)
def test_transform_equals_roll_formula(trits):
    state = np.array(trits, dtype=np.int8)
    mixer = MixerSponge()
    mixer.state = state.copy()
    mixer._transform()
    assert mixer.state.dtype == np.int8
    assert np.array_equal(mixer.state, roll_round_transform(state))


@pytest.mark.parametrize("bad", [2, -2, 5])
def test_absorb_rejects_values_outside_trits(bad):
    block = np.zeros(sponge_mod.BLOCK_TRITS, dtype=np.int8)
    block[100] = bad
    with pytest.raises(ValueError):
        MixerSponge().absorb(block)


@given(st.lists(TRIT, max_size=300))
def test_encode_trytes_equals_loop(trits):
    trits = trits[:len(trits) - len(trits) % 3]
    expected = loop_encode_trytes(trits)
    assert encode_trytes(trits) == expected
    assert encode_trytes(np.array(trits, dtype=np.int8)) == expected


@given(st.lists(TRIT, min_size=1, max_size=30), st.data())
def test_encode_trytes_rejects_what_the_loop_rejects(trits, data):
    bad = data.draw(st.sampled_from([2, -2, 3, 13, -13]))
    trits[data.draw(st.integers(0, len(trits) - 1))] = bad
    trits = trits + [0] * (-len(trits) % 3)
    for given_trits in (trits, trits + [0], np.array(trits, dtype=np.int8)):
        with pytest.raises(InvalidTryteError):
            loop_encode_trytes(given_trits)
        with pytest.raises(InvalidTryteError):
            encode_trytes(given_trits)


@given(st.text(max_size=60))
@example("")
@example("ñ€𝄞 ledger")
def test_ascii_to_trits_equals_loop(text):
    trits = ascii_to_trits(text)
    assert trits.dtype == np.int8
    assert trits.tolist() == loop_ascii_to_trits(text)


def test_level2_bundle_transform_count(monkeypatch):
    calls = []
    original = MixerSponge._transform

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(MixerSponge, "_transform", counted)
    build_bundle([("A" * 81, 2, 10)], [("B" * 81, 4), ("C" * 81, 6)],
                 tag="T", timestamp=3)
    # the bundle hash absorbs four essences of 3 blocks each and reads its
    # digest with no permutation after it
    assert len(calls) == 4 * 3


# -- oracles for the batched sponge ----------------------------------------------

def random_trits(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).integers(-1, 2, shape).astype(np.int8)


def loop_squeeze(trits: np.ndarray, count: int) -> np.ndarray:
    """A one-state sponge over the roll-formula round that permutes after
    every read: overwrite the rate and permute per block, then read and
    permute per squeezed block (the last permutation is never read)."""
    state = np.zeros(sponge_mod.STATE_TRITS, dtype=np.int8)
    for off in range(0, trits.size, sponge_mod.BLOCK_TRITS):
        state[:sponge_mod.BLOCK_TRITS] = trits[off:off + sponge_mod.BLOCK_TRITS]
        state = roll_round_transform(state)
    blocks = []
    for _ in range(count):
        blocks.append(state[:sponge_mod.BLOCK_TRITS].copy())
        state = roll_round_transform(state)
    return np.concatenate(blocks)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_batched_transform_equals_roll_formula_per_row(k, seed):
    states = random_trits(seed, (k, sponge_mod.STATE_TRITS))
    mixer = MixerSponge((k,))
    mixer.state = states.copy()
    mixer._transform()
    assert mixer.state.dtype == np.int8
    assert np.array_equal(mixer.state,
                          np.stack([roll_round_transform(row) for row in states]))


@pytest.mark.parametrize("shape", [(2, 3), (27,), (81,), (0,)],
                         ids=["2x3", "27-rows", "81-rows", "0-rows"])
def test_transform_of_a_batch_shape_equals_roll_formula_per_row(shape):
    states = random_trits(sum(shape), (*shape, sponge_mod.STATE_TRITS))
    mixer = MixerSponge(shape)
    mixer.state = states.copy()
    mixer._transform()
    assert mixer.state.dtype == np.int8
    assert mixer.state.shape == (*shape, sponge_mod.STATE_TRITS)
    rows = states.reshape(-1, sponge_mod.STATE_TRITS)
    expected = [roll_round_transform(row) for row in rows]
    assert np.array_equal(mixer.state.reshape(rows.shape),
                          np.array(expected, dtype=np.int8).reshape(rows.shape))


def test_transform_of_one_nonzero_trit_equals_roll_formula():
    """Each single nonzero trit, at every position: the rolls carry it
    across the end of the state in some round."""
    for position in range(sponge_mod.STATE_TRITS):
        for trit in (-1, 1):
            state = np.zeros(sponge_mod.STATE_TRITS, dtype=np.int8)
            state[position] = trit
            mixer = MixerSponge()
            mixer.state = state.copy()
            mixer._transform()
            assert np.array_equal(mixer.state, roll_round_transform(state)), (
                position, trit)


@given(st.integers(1, 5), st.integers(0, 3 * sponge_mod.BLOCK_TRITS),
       st.integers(0, 2**32 - 1))
def test_batched_sponge_hash_equals_per_row(k, length, seed):
    rows = random_trits(seed, (k, length))
    per_row = [sponge_hash(row) for row in rows]
    block = sponge_mod.BLOCK_TRITS
    padded = length + (-length % block if length else block)
    for row, digest in zip(rows, per_row):
        trits = np.concatenate([row, np.zeros(padded - length, dtype=np.int8)])
        assert np.array_equal(digest, loop_squeeze(trits, 1))
    assert np.array_equal(sponge_hash(rows), np.stack(per_row))


@given(st.integers(1, 4), st.integers(0, 2), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_batched_squeeze_blocks_equals_per_row(k, blocks, count, seed):
    rows = random_trits(seed, (k, blocks * sponge_mod.BLOCK_TRITS))
    per_row = [squeeze_blocks(row, count) for row in rows]
    for row, squeezed in zip(rows, per_row):
        assert np.array_equal(squeezed, loop_squeeze(row, count))
    assert np.array_equal(squeeze_blocks(rows, count), np.stack(per_row))


def test_repr_eq_and_attach_derive_no_fragment():
    bundle = build_bundle([("a1", 3, 100)], [("r1", 100)], timestamp=1)
    assert all(repr(tx) for tx in bundle.transactions)
    assert bundle == build_bundle([("a1", 3, 100)], [("r1", 100)], timestamp=1)
    assert bundle != build_bundle([("a1", 2, 100)], [("r1", 100)], timestamp=1)
    state = simple_state()
    head = state.attach(bundle, (GENESIS_HASH, GENESIS_HASH))
    state.issue_milestone(timestamp=2)
    assert head in state.confirmed and state.export_csv()


def test_message_data_longer_than_a_fragment_is_rejected():
    state = simple_state()
    g = GENESIS_HASH
    with pytest.raises(FragmentTooLongError) as info:
        state.attach_message("m", (g, g), data="9" * 2188)
    assert info.value.code == "fragment-too-long"
    assert state.transactions == {} and state.valid_tips() == [g]
    head = state.attach_message("m", (g, g), data="9" * 2187)
    assert state.transactions[head].data == "9" * 2187


def test_replay_logs_an_over_long_message_and_goes_on():
    script = [{"op": "attach_message", "address": "m", "data": "x" * 2188},
              {"op": "attach_message", "address": "m", "data": "x" * 2187}]
    state, log = replay_tangle([json.dumps(cmd) for cmd in script])
    assert [entry["ok"] for entry in log] == [False, True]
    assert log[0]["error"]["code"] == "fragment-too-long"
    assert len(state.transactions) == 1


def test_private_key_of_a_partial_fragment_is_rejected():
    with pytest.raises(BadKeyLengthError) as info:
        derive_address("A" * 2188)
    assert info.value.code == "bad-key-length"


# -- tangle -----------------------------------------------------------------------

def simple_state(**balances):
    return TangleState(balances or {"a1": 100, "funder": 1000})


def test_genesis_only_tip_selection_forced():
    state = simple_state()
    assert state.select_tips("uniform-random", 1) == (GENESIS_HASH, GENESIS_HASH)


def test_tip_selection_deterministic_and_distinct():
    state = simple_state()
    h1 = state.attach_message("x", (GENESIS_HASH, GENESIS_HASH))
    h2 = state.attach_message("y", (GENESIS_HASH, GENESIS_HASH))
    pick1 = state.select_tips("uniform-random", 42)
    pick2 = state.select_tips("uniform-random", 42)
    assert pick1 == pick2
    assert set(pick1) <= {h1, h2} and pick1[0] != pick1[1]
    assert state.select_tips("oldest-first") == (h1, h2)


def test_attach_unknown_tip_rejected():
    state = simple_state()
    with pytest.raises(Exception):
        state.attach_message("x", ("Q" * 81, GENESIS_HASH))


def test_pow_difficulty_and_budget(monkeypatch):
    state = simple_state()
    head = state.attach_message("x", (GENESIS_HASH, GENESIS_HASH), difficulty=3)
    trits = decode_trytes(state.transactions[head].hash)
    assert trits[-3:] == [0, 0, 0]
    with pytest.raises(PowBudgetExceededError):
        # 40 zero trits at budget 2: winning odds are 3^-40 per try
        monkeypatch.setattr(tangle_mod, "DEFAULT_POW_BUDGET", 2)
        state2 = simple_state()
        state2.attach(message_transaction("y"), (GENESIS_HASH, GENESIS_HASH),
                      difficulty=40)


def test_no_valid_tips_error_surface():
    state = simple_state()
    state.tips.clear()
    with pytest.raises(NoValidTipsError):
        state.select_tips()


def test_milestone_requires_coordinator():
    state = simple_state()
    head = state.attach_message("casual", (GENESIS_HASH, GENESIS_HASH))
    with pytest.raises(NotCoordinatorError):
        state.apply_milestone(head)


def test_double_spend_invalidation_matches_figure():
    state = simple_state()
    g = GENESIS_HASH
    t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)], timestamp=1),
                      (g, g))
    t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)], timestamp=2),
                      (g, g))
    x1 = state.attach_message("m1", (t2, t2), timestamp=3)
    x2 = state.attach_message("m2", (x1, t2), timestamp=4)
    x3 = state.attach_message("m3", (x2, x1), timestamp=5)
    milestone = state.attach_message(state.coordinator, (t1, t1), timestamp=6,
                                     tag="MILESTONE")
    state.apply_milestone(milestone)
    assert t1 in state.confirmed
    invalid_bundles = {state.transactions[h].bundle for h in state.invalid}
    assert len(invalid_bundles) == 4  # t2's bundle plus three approvers
    assert {t2, x1, x2, x3} <= state.invalid
    assert state.balances == {"a1": 0, "funder": 1000, "r1": 100}


def test_invalid_descendants_never_selected_as_tips():
    state = simple_state()
    g = GENESIS_HASH
    t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)]), (g, g))
    t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)]), (g, g))
    tail = state.attach_message("m", (t2, t2))
    state.apply_milestone(state.attach_message(state.coordinator, (t1, t1),
                                               tag="MILESTONE"))
    tips = state.valid_tips()
    assert tail not in tips and t2 not in tips
    for seed in range(20):
        picked = state.select_tips("uniform-random", seed)
        assert tail not in picked and t2 not in picked


def test_confirmation_monotonicity_across_milestones():
    state = simple_state()
    g = GENESIS_HASH
    t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)]), (g, g))
    state.apply_milestone(state.attach_message(state.coordinator, (t1, t1),
                                               tag="MILESTONE"))
    confirmed_before = set(state.confirmed)
    t3 = state.attach(build_bundle([("r1", 1, 100)], [("r3", 100)]),
                      state.select_tips("oldest-first"))
    state.apply_milestone(state.attach_message(state.coordinator, (t3, t3),
                                               tag="MILESTONE"))
    assert confirmed_before <= state.confirmed
    assert not (confirmed_before & state.invalid)


def test_bundle_approving_a_double_spend_is_invalidated_with_it():
    state = simple_state()
    g = GENESIS_HASH
    t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)], timestamp=1),
                      (g, g))
    t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)], timestamp=2),
                      (t1, t1))
    spend = state.attach(build_bundle([("funder", 1, 1000)], [("r3", 1000)],
                                      timestamp=3), (t2, t2))
    milestone = state.attach_message(state.coordinator, (spend, spend),
                                     timestamp=4, tag="MILESTONE")
    state.apply_milestone(milestone)
    assert t1 in state.confirmed
    assert {t2, spend, milestone} <= state.invalid
    assert state.balances == {"a1": 0, "funder": 1000, "r1": 100}
    assert state.valid_tips() == [t1]


def test_bundle_approving_a_partially_swept_bundle_waits():
    state = simple_state()
    g = GENESIS_HASH
    head = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)]), (g, g))
    tail = state.transactions[head].trunk  # second member of the bundle
    note = state.attach_message("note", (tail, tail))
    state.apply_milestone(state.attach_message(state.coordinator, (note, note),
                                               tag="MILESTONE"))
    assert not state.confirmed and not state.invalid
    state.apply_milestone(state.attach_message(state.coordinator, (head, note),
                                               tag="MILESTONE", timestamp=1))
    assert {head, tail, note} <= state.confirmed
    assert state.balances["r1"] == 100


def test_identical_messages_attached_twice_both_confirm():
    state = simple_state()
    g = GENESIS_HASH
    first = state.attach_message("note", (g, g))
    second = state.attach_message("note", (first, first))
    assert state.transactions[first].bundle == state.transactions[second].bundle
    state.issue_milestone()
    assert {first, second} <= state.confirmed


def test_milestone_noop_sweep():
    state = simple_state()
    m1 = state.attach_message(state.coordinator, (GENESIS_HASH, GENESIS_HASH),
                              tag="MILESTONE")
    state.apply_milestone(m1)
    balances_before = dict(state.balances)
    m2 = state.attach_message(state.coordinator, (m1, m1), tag="MILESTONE")
    result = state.apply_milestone(m2)
    assert state.balances == balances_before


def test_table_bundle_balance_deltas():
    addr, level, amount = worked_examples.IOTA_TABLE_BUNDLE["input"]
    outs = worked_examples.IOTA_TABLE_BUNDLE["outputs"]
    state = TangleState({addr: amount})
    head = state.attach(build_bundle([(addr, level, amount)], outs),
                        (GENESIS_HASH, GENESIS_HASH))
    state.apply_milestone(state.attach_message(state.coordinator, (head, head),
                                               tag="MILESTONE"))
    assert state.balances[addr] == 0
    assert state.balances["EM9..SYW"] == 1_000
    assert state.balances["NBN..GJA"] == 142_997_000
    assert sum(state.balances.values()) == amount


def test_promotion():
    state = simple_state()
    g = GENESIS_HASH
    stuck = state.attach_message("x", (g, g))
    promo = state.promote(stuck)
    assert state.transactions[promo].trunk == stuck
    assert promo in state.valid_tips()
    # promoting a confirmed tx is allowed and harmless
    state.apply_milestone(state.attach_message(state.coordinator, (promo, promo),
                                               tag="MILESTONE"))
    state.promote(stuck)
    assert stuck in state.confirmed


def test_script_promote_records_its_alias():
    """A promote's "as" names the promoted head, so a later op can attach
    on top of it."""
    script = [{"op": "attach_message", "address": "x", "as": "a"},
              {"op": "promote", "tx": "a", "as": "p"},
              {"op": "attach_message", "address": "y", "tips": ["p", "GENESIS"]}]
    state, log = replay_tangle([json.dumps(cmd) for cmd in script])
    assert [entry["ok"] for entry in log] == [True, True, True]
    promoted, last = log[1]["result"]["head"], log[2]["result"]["head"]
    assert state.transactions[promoted].trunk == log[0]["result"]["head"]
    assert state.transactions[last].trunk == promoted


def test_promote_invalid_rejected():
    state = simple_state()
    g = GENESIS_HASH
    t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)]), (g, g))
    t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)]), (g, g))
    state.apply_milestone(state.attach_message(state.coordinator, (t1, t1),
                                               tag="MILESTONE"))
    with pytest.raises(InvalidTransactionError) as info:
        state.promote(t2)
    assert info.value.code == "invalid-transaction"


def test_unknown_milestone_or_promoted_transaction_rejected():
    state = simple_state()
    for call in (state.apply_milestone, state.promote):
        with pytest.raises(UnknownTransactionError) as info:
            call("Q" * 81)
        assert info.value.code == "unknown-transaction"
    assert state.transactions == {}


def test_attach_rejects_a_bundle_whose_values_do_not_sum_to_zero():
    state = simple_state()
    bundle = build_bundle([("a1", 1, 100)], [("r1", 100)])
    bundle.transactions[-1].value = 99
    with pytest.raises(UnbalancedBundleError) as info:
        state.attach(bundle, (GENESIS_HASH, GENESIS_HASH))
    assert info.value.code == "unbalanced-bundle"
    assert state.transactions == {}


def test_attaching_the_same_transaction_again_is_rejected():
    state = simple_state()
    g = GENESIS_HASH
    state.attach_message("note", (g, g))
    with pytest.raises(AlreadyAttachedError) as info:
        state.attach_message("note", (g, g))
    assert info.value.code == "already-attached"
    assert len(state.transactions) == 1


def test_snapshot_preserves_balances_and_allows_growth():
    state = simple_state()
    g = GENESIS_HASH
    head = state.attach(build_bundle([("a1", 1, 100)], [("r1", 60), ("a1", 40)]),
                        (g, g))
    state.apply_milestone(state.attach_message(state.coordinator, (head, head),
                                               tag="MILESTONE"))
    total_before = sum(state.balances.values())
    balances, fresh = state.snapshot()
    assert balances == state.balances
    assert sum(fresh.balances.values()) == total_before
    assert fresh.transactions == {}
    new_head = fresh.attach(build_bundle([("r1", 1, 60)], [("r2", 60)]),
                            (GENESIS_HASH, GENESIS_HASH))
    fresh.apply_milestone(fresh.attach_message(fresh.coordinator,
                                               (new_head, new_head),
                                               tag="MILESTONE"))
    assert fresh.balances["r2"] == 60
    assert sum(fresh.balances.values()) == total_before


def test_consensus_fuzz_with_double_spend_injection():
    rng = random.Random(17)
    names = [f"F{i}" for i in range(5)]
    state = TangleState({n: 1000 for n in names})
    supply = sum(state.balances.values())
    spendable = dict(state.balances)
    confirmed_before: set[str] = set()
    for cycle in range(40):
        for _ in range(rng.randint(1, 3)):
            funded = [n for n in names if spendable.get(n, 0) > 0]
            if not funded:
                break
            src = rng.choice(funded)
            dst = rng.choice([n for n in names if n != src])
            tips = state.select_tips("uniform-random", rng.randrange(2**31))
            amount = spendable[src]
            state.attach(build_bundle([(src, 1, amount)], [(dst, amount)],
                                      timestamp=cycle * 100 + rng.randrange(90)),
                         tips)
            spendable[src] = 0
            spendable[dst] = spendable.get(dst, 0) + amount
            if rng.random() < 0.4:
                # inject a conflicting spend of the same funds
                rival = rng.choice([n for n in names if n != src])
                tips2 = state.select_tips("uniform-random",
                                          rng.randrange(2**31))
                state.attach(
                    build_bundle([(src, 1, amount)], [(rival, amount)],
                                 timestamp=cycle * 100 + 91 + rng.randrange(8)),
                    tips2)
        state.issue_milestone(timestamp=cycle * 100 + 99)
        assert sum(state.balances.values()) == supply
        assert all(v >= 0 for v in state.balances.values())
        assert confirmed_before <= state.confirmed
        assert not (state.confirmed & state.invalid)
        confirmed_before = set(state.confirmed)
        # confirmation is closed over approved history
        for h in state.confirmed:
            tx = state.transactions[h]
            assert all(ref == GENESIS_HASH or ref in state.confirmed
                       for ref in (tx.trunk, tx.branch))
        # invalidation is closed over approvers
        for h in state.invalid:
            for approver in state.approvers.get(h, []):
                assert approver in state.invalid
        spendable = {n: state.balances.get(n, 0) for n in names}
    assert state.invalid  # the injections actually produced conflicts
    assert state.verify_dag()


def test_export_rows_table_shape():
    state = simple_state()
    state.attach_message("x", (GENESIS_HASH, GENESIS_HASH), tag="TAG")
    rows = state.export_rows()
    assert rows[0] == "tx_hash,epoch,value,bundle,tag,address,branch,trunk"
    assert len(rows) == 2 and rows[1].split(",")[5] == "x"
