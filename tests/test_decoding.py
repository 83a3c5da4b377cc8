import random

import pytest
from hypothesis import given, settings, strategies as st

from mevlens.chain_model import ARBITRUM, ETHEREUM, EventLog, OPTIMISM, ZKSYNC
from mevlens.decoding import (decode_bridge_message, decode_flashloan,
                              decode_liquidation, decode_oracle_update,
                              decode_redeem, decode_swap, decode_transfer,
                              decode_word)
from mevlens.errors import SchemaMismatch, SlotOutOfRange
from mevlens.fixtures import (addr, enc_aave_v1_liquidation,
                              enc_aave_v2v3_liquidation, enc_answer_updated,
                              enc_balancer_v1_swap, enc_balancer_v2_swap,
                              enc_compound_liquidate, enc_compound_redeem,
                              enc_curve_exchange, enc_flashloan,
                              enc_inbox_message, enc_priority_request,
                              enc_redeem_scheduled, enc_relayed_message,
                              enc_token_swap, enc_transaction_deposited,
                              enc_transfer, enc_uniswap_v2_swap,
                              enc_uniswap_v3_swap, optimism_message_hash, word)
from mevlens.registry import DEFAULT_REGISTRY
from mevlens.amm import PoolInfo

TX = b"\x77" * 32


def make_log(topics, data, address=addr(0xF0), chain=ETHEREUM,
             block=5, tx_index=1, log_index=2):
    return EventLog(chain=chain, address=address, topics=tuple(topics),
                    data=data, block_number=block, tx_index=tx_index,
                    log_index=log_index, tx_hash=TX)


def pool_meta(address, tokens, kind="constant_product"):
    return {address: PoolInfo(address=address, kind=kind, tokens=tuple(tokens),
                              fee_num=3, fee_den=1000)}


# --- decode_word ---

def test_decode_word_basics():
    assert decode_word(b"\x00" * 32, 0, "uint") == 0
    assert decode_word(word(10 ** 18), 0, "uint") == 10 ** 18
    assert decode_word(b"\xff" * 32, 0, "int") == -1
    assert decode_word(word(addr(7), "address"), 0, "address") == addr(7)
    with pytest.raises(SlotOutOfRange):
        decode_word(b"\x00" * 32, 1, "uint")


# --- registry sanity ---

def test_topic_lookup_table_rows():
    v2 = bytes.fromhex(
        "d78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822")
    entry = DEFAULT_REGISTRY.lookup(v2)
    assert (entry.label, entry.protocol, entry.event) == ("Arbitrage", "Uniswap V2", "Swap")
    transfer = bytes.fromhex(
        "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef")
    entry = DEFAULT_REGISTRY.lookup(transfer)
    assert (entry.label, entry.protocol, entry.event) == \
        ("Sandwiches/Victim Inference", "ERC-20", "Transfer")
    assert DEFAULT_REGISTRY.lookup(b"\x00" * 32) is None


def test_registry_total_over_all_rows():
    for entry in DEFAULT_REGISTRY.entries():
        assert DEFAULT_REGISTRY.lookup(entry.topic) is entry


# --- swaps ---

def test_uniswap_v2_swap_roundtrip():
    t0, t1, pool = addr(1), addr(2), addr(0xF0)
    topics, data = enc_uniswap_v2_swap(addr(9), addr(9), 100, 0, 0, 90)
    s = decode_swap(make_log(topics, data), pool_meta(pool, [t0, t1]))
    assert (s.token_in, s.amount_in, s.token_out, s.amount_out) == (t0, 100, t1, 90)
    assert s.venue == pool and s.position == (5, 1, 2)


def test_uniswap_v3_signed_delta():
    t0, t1, pool = addr(1), addr(2), addr(0xF0)
    topics, data = enc_uniswap_v3_swap(addr(9), addr(9), 100, -90)
    s = decode_swap(make_log(topics, data), pool_meta(pool, [t0, t1]))
    assert (s.token_in, s.amount_in, s.token_out, s.amount_out) == (t0, 100, t1, 90)
    # flipped direction
    topics, data = enc_uniswap_v3_swap(addr(9), addr(9), -90, 100)
    s = decode_swap(make_log(topics, data), pool_meta(pool, [t0, t1]))
    assert (s.token_in, s.token_out) == (t1, t0)
    # both positive: not a swap
    topics, data = enc_uniswap_v3_swap(addr(9), addr(9), 100, 90)
    assert decode_swap(make_log(topics, data), pool_meta(pool, [t0, t1])) is None


def test_balancer_and_curve_and_tokenswap_roundtrip():
    t0, t1, pool = addr(1), addr(2), addr(0xF0)
    for topics, data in (
        enc_balancer_v1_swap(addr(9), t0, t1, 100, 90),
        enc_balancer_v2_swap(b"\x05" * 32, t0, t1, 100, 90),
    ):
        s = decode_swap(make_log(topics, data))
        assert (s.token_in, s.amount_in, s.token_out, s.amount_out) == (t0, 100, t1, 90)
    for topics, data in (
        enc_curve_exchange(addr(9), 0, 100, 1, 90),
        enc_curve_exchange(addr(9), 0, 100, 1, 90, underlying=True),
        enc_token_swap(addr(9), 100, 90, 0, 1),
    ):
        s = decode_swap(make_log(topics, data), pool_meta(pool, [t0, t1]))
        assert (s.token_in, s.amount_in, s.token_out, s.amount_out) == (t0, 100, t1, 90)


def test_swap_missing_pool_metadata_absent():
    topics, data = enc_uniswap_v2_swap(addr(9), addr(9), 100, 0, 0, 90)
    assert decode_swap(make_log(topics, data), None) is None


def test_transfer_log_is_not_a_swap():
    topics, data = enc_transfer(addr(1), addr(2), 5)
    assert decode_swap(make_log(topics, data)) is None


def test_swap_wrong_topic_count_raises():
    topics, data = enc_uniswap_v2_swap(addr(9), addr(9), 100, 0, 0, 90)
    with pytest.raises(SchemaMismatch):
        decode_swap(make_log(topics[:2], data), pool_meta(addr(0xF0), [addr(1), addr(2)]))


# --- transfers ---

def test_transfer_roundtrip():
    topics, data = enc_transfer(addr(1), addr(2), 5)
    t = decode_transfer(make_log(topics, data, address=addr(0xAB)))
    assert (t.token, t.sender, t.receiver, t.amount) == (addr(0xAB), addr(1), addr(2), 5)


def test_zero_amount_transfer_retained():
    topics, data = enc_transfer(addr(1), addr(2), 0)
    assert decode_transfer(make_log(topics, data)).amount == 0


def test_transfer_one_topic_raises():
    topics, data = enc_transfer(addr(1), addr(2), 5)
    with pytest.raises(SchemaMismatch):
        decode_transfer(make_log(topics[:1], data))


# --- liquidations / redeems ---

def test_aave_liquidation_roundtrip():
    for enc, proto in ((enc_aave_v2v3_liquidation, "aave_v2v3"),
                       (enc_aave_v1_liquidation, "aave_v1")):
        topics, data = enc(addr(3), addr(4), addr(5), 200, 300, addr(6))
        a = decode_liquidation(make_log(topics, data))
        assert a.protocol == proto
        assert (a.collateral_token, a.debt_token, a.borrower) == (addr(3), addr(4), addr(5))
        assert (a.debt_amount, a.collateral_amount, a.liquidator) == (200, 300, addr(6))


def test_compound_liquidate_and_redeem():
    topics, data = enc_compound_liquidate(addr(6), addr(5), 200, addr(7), 300)
    a = decode_liquidation(make_log(topics, data, address=addr(0xCC)))
    assert a.protocol == "compound_v2"
    assert (a.liquidator, a.borrower, a.debt_amount) == (addr(6), addr(5), 200)
    assert a.collateral_token is None and a.collateral_amount is None
    assert a.debt_token == addr(0xCC)

    topics, data = enc_compound_redeem(addr(6), 300, 280)
    redeemer, token, amount = decode_redeem(make_log(topics, data, address=addr(7)))
    assert (redeemer, token, amount) == (addr(6), addr(7), 300)


# --- flash loans / oracle updates ---

@pytest.mark.parametrize("provider", ["aave_v1", "aave_v2", "aave_v3", "balancer"])
def test_flashloan_roundtrip(provider):
    topics, data = enc_flashloan(provider, addr(8), 10 ** 21, 9 * 10 ** 17)
    fl = decode_flashloan(make_log(topics, data))
    assert (fl.provider, fl.token, fl.amount, fl.fee) == \
        (provider, addr(8), 10 ** 21, 9 * 10 ** 17)


def test_oracle_update_signed_answer():
    topics, data = enc_answer_updated(-5)
    u = decode_oracle_update(make_log(topics, data, address=addr(0xFE)))
    assert u.new_answer == -5 and u.feed == addr(0xFE)


# --- bridge messages ---

def test_arbitrum_link_key_equality():
    topics, data = enc_inbox_message(42)
    l1 = decode_bridge_message(make_log(topics, data), 1000)
    topics, data = enc_redeem_scheduled(42)
    l2 = decode_bridge_message(make_log(topics, data, chain=ARBITRUM), 1060)
    assert l1.direction == "l1_emit" and l2.direction == "l2_execute"
    assert l1.rollup == l2.rollup == ARBITRUM
    assert l1.link_key == l2.link_key == word(42)


def test_optimism_link_key_is_payload_keccak():
    payload = b"cross-domain-message"
    topics, data = enc_transaction_deposited(payload)
    l1 = decode_bridge_message(make_log(topics, data), 1000)
    expected = optimism_message_hash(payload)
    assert l1.link_key == expected
    topics, data = enc_relayed_message(expected)
    l2 = decode_bridge_message(make_log(topics, data, chain=OPTIMISM), 1100)
    assert l2.link_key == expected and l2.rollup == OPTIMISM


def test_zksync_link_key_is_tx_hash():
    topics, data = enc_priority_request()
    l1 = decode_bridge_message(make_log(topics, data), 1000)
    assert l1.rollup == ZKSYNC and l1.link_key == TX


# --- fuzzing: decoding never panics ---

def test_decoders_never_panic_on_random_logs():
    rng = random.Random(99)
    topics_pool = [e.topic for e in DEFAULT_REGISTRY.entries()] + [b"\x00" * 32]
    pools = pool_meta(addr(0xF0), [addr(1), addr(2)])
    decoders = [lambda l: decode_swap(l, pools), decode_transfer,
                decode_liquidation, decode_redeem, decode_flashloan,
                decode_oracle_update, lambda l: decode_bridge_message(l, 0)]
    for _ in range(400):
        n_topics = rng.randint(1, 4)
        topics = [rng.choice(topics_pool)] + \
            [rng.randbytes(32) for _ in range(n_topics - 1)]
        data = rng.randbytes(32 * rng.randint(0, 5))
        log = make_log(topics, data)
        for dec in decoders:
            try:
                dec(log)
            except SchemaMismatch:
                pass


@settings(max_examples=60, deadline=None)
@given(a0=st.integers(-(10 ** 24), 10 ** 24), a1=st.integers(-(10 ** 24), 10 ** 24))
def test_v3_signed_delta_property(a0, a1):
    """Exactly one positive and one negative delta yields a swap; any other
    sign combination yields None."""
    topics, data = enc_uniswap_v3_swap(addr(9), addr(9), a0, a1)
    s = decode_swap(make_log(topics, data), pool_meta(addr(0xF0), [addr(1), addr(2)]))
    if (a0 > 0 and a1 < 0) or (a1 > 0 and a0 < 0):
        assert s is not None
        assert s.amount_in in (a0, a1) and s.amount_out in (-a0, -a1)
    else:
        assert s is None
