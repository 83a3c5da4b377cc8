import itertools
import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import literal_decode, literal_decode_logs, literal_decode_swap
from mevlens.chain_model import ARBITRUM, ETHEREUM, EventLog, OPTIMISM, ZKSYNC
from mevlens.decoding import _SWAPS, WORD, _LAYOUTS, _decode, decode_logs, decode_swap
from mevlens.errors import MevlensError
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
from mevlens.registry import DEFAULT_REGISTRY, Category
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


def decoded(log, category, pools=None):
    """The action ``decode_logs`` yields for the one ``log``, or None."""
    pairs = decode_logs([log], (category,), pools)
    assert len(pairs) <= 1 and all(lg is log for lg, _ in pairs)
    return pairs[0][1] if pairs else None


def skip_reasons(caplog, log, category):
    """The DEBUG skip lines ``decode_logs`` writes for the one ``log``,
    which it must drop."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mevlens"):
        assert decode_logs([log], (category,)) == []
    return [r.getMessage() for r in caplog.records if r.name == "mevlens"]


# --- word types ---

def test_word_types(caplog):
    for amount in (0, 10 ** 18):
        topics, data = enc_transfer(addr(7), addr(8), amount)
        t = decoded(make_log(topics, data), Category.TRANSFER)
        assert (t.sender, t.receiver, t.amount) == (addr(7), addr(8), amount)
    topics, data = enc_answer_updated(-1)
    assert topics[1] == b"\xff" * 32
    assert decoded(make_log(topics, data), Category.ORACLE_UPDATE).new_answer == -1
    # a word past the end of the data is never read: the slot check rejects the log
    topics, _ = enc_transfer(addr(7), addr(8), 1)
    assert skip_reasons(caplog, make_log(topics, b""), Category.TRANSFER) == \
        ["skipped Transfer log at (5, 1, 2): need 1 data slots, have 0"]


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


def test_swap_wrong_topic_count_is_skipped(caplog):
    """decode_swap skips a log that breaks its layout, as decode_logs does
    for an oracle update: None, and the DEBUG line naming it."""
    topics, data = enc_uniswap_v2_swap(addr(9), addr(9), 100, 0, 0, 90)
    log = make_log(topics[:2], data)
    assert debug_outcome(caplog, decode_swap, log, pool_meta(addr(0xF0), [addr(1), addr(2)])) \
        == (("return", type(None), None),
            ["skipped Swap log at (5, 1, 2): Uniswap V2 Swap expects 3 topics"])
    topics, data = enc_answer_updated(10 ** 8)
    assert skip_reasons(caplog, make_log(topics[:2], data), Category.ORACLE_UPDATE) == \
        ["skipped AnswerUpdated log at (5, 1, 2): AnswerUpdated expects 3 topics"]


# --- transfers ---

def test_transfer_roundtrip():
    topics, data = enc_transfer(addr(1), addr(2), 5)
    t = decoded(make_log(topics, data, address=addr(0xAB)), Category.TRANSFER)
    assert (t.token, t.sender, t.receiver, t.amount) == (addr(0xAB), addr(1), addr(2), 5)


def test_zero_amount_transfer_retained():
    topics, data = enc_transfer(addr(1), addr(2), 0)
    assert decoded(make_log(topics, data), Category.TRANSFER).amount == 0


def test_transfer_one_topic_is_skipped(caplog):
    topics, data = enc_transfer(addr(1), addr(2), 5)
    assert skip_reasons(caplog, make_log(topics[:1], data), Category.TRANSFER) == \
        ["skipped Transfer log at (5, 1, 2): Transfer expects 3 topics"]


# --- liquidations / redeems ---

def test_aave_liquidation_roundtrip():
    for enc, proto in ((enc_aave_v2v3_liquidation, "aave_v2v3"),
                       (enc_aave_v1_liquidation, "aave_v1")):
        topics, data = enc(addr(3), addr(4), addr(5), 200, 300, addr(6))
        a = decoded(make_log(topics, data), Category.LIQUIDATION)
        assert a.protocol == proto
        assert (a.collateral_token, a.debt_token, a.borrower) == (addr(3), addr(4), addr(5))
        assert (a.debt_amount, a.collateral_amount, a.liquidator) == (200, 300, addr(6))


def test_compound_liquidate_and_redeem():
    topics, data = enc_compound_liquidate(addr(6), addr(5), 200, addr(7), 300)
    a = decoded(make_log(topics, data, address=addr(0xCC)), Category.LIQUIDATION)
    assert a.protocol == "compound_v2"
    assert (a.liquidator, a.borrower, a.debt_amount) == (addr(6), addr(5), 200)
    assert a.collateral_token is None and a.collateral_amount is None
    assert a.debt_token == addr(0xCC)

    topics, data = enc_compound_redeem(addr(6), 300, 280)
    redeemer, token, amount = decoded(make_log(topics, data, address=addr(7)),
                                      Category.LIQUIDATION)
    assert (redeemer, token, amount) == (addr(6), addr(7), 300)


# --- flash loans / oracle updates ---

@pytest.mark.parametrize("provider", ["aave_v1", "aave_v2", "aave_v3", "balancer"])
def test_flashloan_roundtrip(provider):
    topics, data = enc_flashloan(provider, addr(8), 10 ** 21, 9 * 10 ** 17)
    fl = decoded(make_log(topics, data), Category.FLASH_LOAN)
    assert (fl.provider, fl.token, fl.amount, fl.fee) == \
        (provider, addr(8), 10 ** 21, 9 * 10 ** 17)


def test_oracle_update_signed_answer():
    topics, data = enc_answer_updated(-5)
    u = decoded(make_log(topics, data, address=addr(0xFE)), Category.ORACLE_UPDATE)
    assert u.new_answer == -5 and u.feed == addr(0xFE)


# --- bridge messages ---

def test_arbitrum_link_key_equality():
    topics, data = enc_inbox_message(42)
    l1 = decoded(make_log(topics, data), Category.L1_MESSAGE)
    topics, data = enc_redeem_scheduled(42)
    l2 = decoded(make_log(topics, data, chain=ARBITRUM), Category.L2_MESSAGE)
    assert l1.direction == "l1_emit" and l2.direction == "l2_execute"
    assert l1.rollup == l2.rollup == ARBITRUM
    assert l1.link_key == l2.link_key == word(42)


def test_optimism_link_key_is_payload_keccak():
    payload = b"cross-domain-message"
    topics, data = enc_transaction_deposited(payload)
    l1 = decoded(make_log(topics, data), Category.L1_MESSAGE)
    expected = optimism_message_hash(payload)
    assert l1.link_key == expected
    topics, data = enc_relayed_message(expected)
    l2 = decoded(make_log(topics, data, chain=OPTIMISM), Category.L2_MESSAGE)
    assert l2.link_key == expected and l2.rollup == OPTIMISM


def test_zksync_link_key_is_tx_hash():
    topics, data = enc_priority_request()
    l1 = decoded(make_log(topics, data), Category.L1_MESSAGE)
    assert l1.rollup == ZKSYNC and l1.link_key == TX


# --- fuzzing: decoding never panics ---

def test_decoders_never_panic_on_random_logs():
    rng = random.Random(99)
    topics_pool = [e.topic for e in DEFAULT_REGISTRY.entries()] + [b"\x00" * 32]
    pools = pool_meta(addr(0xF0), [addr(1), addr(2)])
    for _ in range(400):
        n_topics = rng.randint(1, 4)
        topics = [rng.choice(topics_pool)] + \
            [rng.randbytes(32) for _ in range(n_topics - 1)]
        data = rng.randbytes(32 * rng.randint(0, 5))
        log = make_log(topics, data)
        for category in Category:
            decode_logs([log], (category,), pools)
        decode_swap(log, pools)


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


# --- the layout table against the literal decoders ---

def test_layout_table_has_one_row_per_schema():
    """Every registry schema has exactly one row, and every field lies
    inside the counts its row checks, so no read can run past a topic or
    past the data."""
    import ast
    import inspect
    import mevlens.decoding as decoding
    tree = ast.parse(inspect.getsource(decoding))
    rows = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_LAYOUTS"])
    keys = [key.value for key in rows.keys]
    schemas = {e.schema for e in DEFAULT_REGISTRY.entries()}
    assert sorted(keys) == sorted(schemas) and len(keys) == 21
    for schema, layout in _LAYOUTS.items():
        for index, start, stop, _ in layout.fields:
            assert 0 <= start < stop, schema
            if index < 0:
                assert stop <= layout.slots * WORD, schema
            else:
                assert layout.topics is not None and index < layout.topics, schema
                assert stop <= WORD, schema


SMALL = (0, 1, 2, 3, 5, -1, -2, -(2 ** 255), 2 ** 255 - 1)  # -1 is the all-0xff word
SPECIAL_WORDS = [word(v, "int") for v in SMALL] + [word(addr(1), "address"),
                                                  word(addr(2), "address")]
WORDS = st.one_of(st.sampled_from(SPECIAL_WORDS), st.binary(min_size=32, max_size=32))
POOL, OTHER_POOL = addr(0xF0), addr(0xF1)


@st.composite
def registered_logs(draw):
    """A log of any registry schema with random topics and data: any topic
    count, 0-6 data words, sometimes a ragged tail, sometimes no tx hash.
    Half the draws take the counts the schema's row asks for, so that most
    logs reach a build rule."""
    entry = draw(st.sampled_from(DEFAULT_REGISTRY.entries()))
    layout = _LAYOUTS[entry.schema]
    n_topics = draw(st.one_of(st.integers(1, 4), st.just(layout.topics or 1)))
    n_words = draw(st.one_of(st.integers(0, 6), st.integers(layout.slots, 6)))
    topics = [entry.topic] + draw(st.lists(WORDS, min_size=n_topics - 1, max_size=n_topics - 1))
    data = b"".join(draw(st.lists(WORDS, min_size=n_words, max_size=n_words)))
    data += draw(st.one_of(st.just(b""), st.binary(max_size=31)))
    log = EventLog(ETHEREUM, draw(st.sampled_from([POOL, OTHER_POOL])), tuple(topics), data,
                   5, 1, draw(st.integers(0, 3)), draw(st.sampled_from([TX, b""])))
    return entry, log


POOLS = st.one_of(st.none(), st.just({}),
                  st.lists(st.sampled_from([addr(1), addr(2), addr(3)]), min_size=1,
                           max_size=3).map(lambda tokens: pool_meta(POOL, tokens)))


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:
        return "raise", type(exc), str(exc)
    return "return", type(result), result


def debug_outcome(caplog, fn, log, *args):
    """``outcome`` of ``fn(log, *args)`` with the DEBUG lines it writes."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mevlens"):
        result = outcome(fn, log, *args)
    return result, [r.getMessage() for r in caplog.records if r.name == "mevlens"]


def skipped_outcome(oracle, log, *args):
    """``debug_outcome`` of a decoder that skips what ``oracle`` rejects
    with a MevlensError: None, and the DEBUG line decode_logs writes."""
    result = outcome(oracle, log, *args)
    if result[0] == "raise" and issubclass(result[1], MevlensError):
        event = DEFAULT_REGISTRY.lookup(log.topics[0]).event
        return ("return", type(None), None), [f"skipped {event} log at {log.position}: {result[2]}"]
    return result, []


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases=st.lists(registered_logs(), min_size=1, max_size=12), pools=POOLS)
def test_layout_table_matches_literal_decoders(cases, pools, caplog):
    """The one table-driven decoder gives the same action, the same None or
    the same exception class and message as the per-category decoders it
    replaced, and decode_logs the same pairs and DEBUG skip lines.
    decode_swap skips, as decode_logs does, the logs the old decoders
    rejected."""
    for entry, log in cases:
        assert outcome(_decode, log, entry, pools) == outcome(literal_decode, log, entry, pools)
        assert debug_outcome(caplog, decode_swap, log, pools) == \
            skipped_outcome(literal_decode_swap, log, pools)
    logs = [log for _, log in cases]
    for categories in [[c] for c in Category] + [list(Category)]:
        runs = []
        for decode in (decode_logs, literal_decode_logs):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="mevlens"):
                pairs = decode(logs, categories, pools)
            runs.append(([(lg, type(a), a) for lg, a in pairs],
                         [(r.levelname, r.getMessage()) for r in caplog.records]))
        assert runs[0] == runs[1]


def test_rules_match_literal_decoders_on_a_grid():
    """Every schema at its own counts, with every combination of small,
    zero and negative data words (zero amounts, out-of-range and negative
    Curve and StableSwap indexes among them). The rules that read pool
    metadata meet every kind of pool entry: absent, empty, one to three
    tokens, a token listed twice."""
    pools_grid = [None, {}, pool_meta(OTHER_POOL, [addr(1), addr(2)])] + [
        pool_meta(POOL, tokens) for tokens in
        ([addr(1)], [addr(1), addr(2)], [addr(1), addr(2), addr(3)], [addr(1), addr(1)])]
    values = [word(v, "int") for v in (0, 1, 2, 3, -1)]
    for entry in DEFAULT_REGISTRY.entries():
        layout = _LAYOUTS[entry.schema]
        topics = [entry.topic] + [word(addr(k), "address") for k in range(1, layout.topics or 1)]
        reads_pools = entry.schema in ("uniswap_v2_swap", "uniswap_v3_swap", "curve_exchange",
                                       "stableswap_token_swap")
        for words in itertools.product(values, repeat=layout.slots):
            log = make_log(topics, b"".join(words), address=POOL)
            for pools in pools_grid if reads_pools else [None]:
                assert outcome(_decode, log, entry, pools) == \
                    outcome(literal_decode, log, entry, pools), (entry.schema, words, pools)


def test_a_decode_pass_keeps_one_object_per_address():
    """The addresses one pass slices out of topics and data are shared:
    the swaps' tokens and the transfers' parties, one object per value."""
    tokens, logs = [addr(0xA1), addr(0xB2), addr(0xC3)], []
    for i in range(30):
        t_in, t_out = tokens[i % 3], tokens[(i + 1) % 3]
        logs.append(make_log(*enc_balancer_v1_swap(addr(0xEE), t_in, t_out, 100 + i, 205),
                             log_index=2 * i))
        logs.append(make_log(*enc_transfer(addr(0xEE), addr(0x51), 100 + i), address=t_in,
                             log_index=2 * i + 1))
    swaps = [a for _, a in decode_logs(logs, _SWAPS)]
    transfers = [a for _, a in decode_logs(logs, (Category.TRANSFER,))]
    both = [action for _, action in decode_logs(logs, (Category.ARBITRAGE, Category.TRANSFER))]
    assert len(swaps) == len(transfers) == 30 and len(both) == 60
    fields = ("token_in", "token_out", "sender", "receiver")
    for values in ([s.token_in for s in swaps] + [s.token_out for s in swaps],
                   [t.sender for t in transfers] + [t.receiver for t in transfers],
                   [getattr(a, f) for a in both for f in fields if hasattr(a, f)]):
        assert len({id(v) for v in values}) == len(set(values)) < len(values)
