import logging
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mevlens.chain_model import ARBITRUM, ETHEREUM, TxRecord, TxStatus
from mevlens.detectors import (ArbitrageFinding, PriceProvider, SandwichFinding,
                               WEI, arbitrage_profit, attribute_flash_loans,
                               chain_cycles, detect_arbitrages,
                               detect_liquidations, detect_sandwiches, liquidation_profit,
                               split_flash_loans)
from mevlens.decoding import _SWAPS, LiquidationAction, decode_logs
from mevlens.errors import MalformedRecord
from mevlens.fixtures import (FixtureBuilder, addr, enc_aave_v2v3_liquidation,
                              enc_compound_liquidate, enc_compound_redeem,
                              enc_flashloan, enc_transfer)
from mevlens.registry import Category
from conftest import (build_planted_arb_dataset, decoded_swaps, literal_sandwiches, make_swap,
                      make_transfer, oracle_cycles, oracle_sandwiches, random_swap_tx,
                      random_transfer_blocks, validate_arbitrage)

A, B, C = addr(0xA1), addr(0xB1), addr(0xC1)
LIQUIDATIONS, FLASH_LOANS = (Category.LIQUIDATION,), (Category.FLASH_LOAN,)
V1, V2, V3 = addr(0xD1), addr(0xD2), addr(0xD3)


def _tx(fee=0, builder=0, sender=addr(0xEE)):
    return TxRecord(hash=b"\x11" * 32, block_number=1, tx_index=0,
                    sender=sender, to=None, fee_paid=fee,
                    builder_payment=builder, status=TxStatus.SUCCESS)


# --- arbitrage chaining ---

def test_three_swap_cycle():
    swaps = [make_swap(A, B, 100, 200, V1),
             make_swap(B, C, 200, 300, V2),
             make_swap(C, A, 300, 110, V3)]
    assert chain_cycles(swaps) == [(0, 1, 2)]


def test_single_swap_no_cycle():
    assert chain_cycles([make_swap(A, B, 100, 200, V1)]) == []


def test_same_venue_blocks_link():
    swaps = [make_swap(A, B, 100, 200, V1), make_swap(B, A, 200, 110, V1)]
    assert chain_cycles(swaps) == []


def test_amount_rule_blocks_link():
    swaps = [make_swap(A, B, 100, 200, V1), make_swap(B, A, 201, 110, V2)]
    assert chain_cycles(swaps) == []


def test_two_disjoint_cycles_in_one_tx():
    swaps = [make_swap(A, B, 100, 200, V1), make_swap(B, A, 200, 110, V2),
             make_swap(B, C, 400, 500, V1), make_swap(C, B, 500, 410, V2)]
    assert chain_cycles(swaps) == [(0, 1), (2, 3)]


def test_greedy_matches_oracle_randomized(rng):
    for _ in range(800):
        swaps = random_swap_tx(rng)
        assert chain_cycles(swaps) == oracle_cycles(swaps)


def test_detect_and_validate(planted_arb_dataset):
    ds, expected = planted_arb_dataset
    findings = detect_arbitrages(decoded_swaps(ds))
    assert len(findings) == len(expected) == 25
    assert sorted((f.tx_hash, len(f.cycle)) for f in findings) == sorted(expected)
    for f in findings:
        assert validate_arbitrage(f)


def test_a_swap_pass_is_a_position_ordered_list(planted_arb_dataset):
    ds, _ = planted_arb_dataset
    swaps = [swap for _, swap in decode_logs(ds.logs, _SWAPS)]
    assert isinstance(swaps, list) and swaps
    positions = [s.position for s in swaps]
    assert positions == sorted(positions)


def test_detect_arbitrages_groups_interleaved_txs_in_first_seen_order():
    t1, t2 = b"\x01" * 32, b"\x02" * 32
    # t2's first swap comes first; t1's cycle is split by one of t2's swaps
    swaps = [make_swap(B, C, 50, 60, V1, position=(1, 0, 0), tx_hash=t2),
             make_swap(A, B, 100, 200, V1, position=(1, 1, 1), tx_hash=t1),
             make_swap(C, B, 60, 55, V2, position=(1, 2, 2), tx_hash=t2),
             make_swap(B, A, 200, 110, V2, position=(1, 3, 3), tx_hash=t1)]
    found = detect_arbitrages(swaps)
    assert [f.tx_hash for f in found] == [t2, t1]
    assert [tuple(s.position for s in f.cycle) for f in found] == \
        [((1, 0, 0), (1, 2, 2)), ((1, 1, 1), (1, 3, 3))]
    for f in found:
        alone = [s for s in swaps if s.tx_hash == f.tx_hash]
        assert detect_arbitrages(alone) == [f]


# --- profit accounting ---

def _prices(rows):
    return PriceProvider(rows)


def test_prices_from_csv(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(f"token_address,day,price_eth\n0x{A.hex()},7,0.0005\n"
                    f"{B.hex().upper()},7,.25\nETHUSD,7,2000\n")
    prices = PriceProvider.from_csv(path)
    assert prices.lookup(A, 7) == Fraction(5, 10000)
    assert prices.lookup(B, 7) == Fraction(1, 4)
    assert prices.eth_usd(7) == 2000 and prices.eth_usd(8) is None


@pytest.mark.parametrize("row", [
    f"0x{A.hex()},7,0",              # non-positive price
    f"0x{A.hex()},7,0.000",
    f"0x{A.hex()},7,-1",
    f"0x{A.hex()},7,1e-3",           # non-decimal price
    f"0x{A.hex()},7,abc",
    f"0x{A.hex()},7",                # short row
    "0xzz11,7,0.5",                  # non-hex token
    "0xabc,7,0.5",
    f"0x{A.hex()},7.5,0.5",          # non-integer day
    f"0x{A.hex()},\u00b2,0.5",
])
def test_prices_from_csv_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "prices.csv"
    path.write_text(f"token_address,day,price_eth\nETHUSD,7,2000\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecord) as exc:
        PriceProvider.from_csv(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{path}: line 3: ")


def test_balanced_cycle_zero_profit():
    swaps = (make_swap(A, B, 100, 200, V1), make_swap(B, A, 200, 100, V2))
    f = ArbitrageFinding(b"\x11" * 32, swaps, {A: 0, B: 0})
    priced = arbitrage_profit(f, _prices([(A, 0, 1)]), _tx(), timestamp=0)
    assert priced.profit_eth == 0 and not priced.unpriced


def test_profit_arithmetic_example():
    # net +10 tokens at 0.5 ETH, fee 1 ETH, builder payment 2 ETH -> 2 ETH
    f = ArbitrageFinding(b"\x11" * 32, (), {A: 10 * WEI})
    priced = arbitrage_profit(f, _prices([(A, 0, Fraction(1, 2))]),
                              _tx(fee=1 * WEI, builder=2 * WEI), timestamp=0)
    assert priced.profit_eth == 2


def test_unknown_price_flags_unpriced():
    f = ArbitrageFinding(b"\x11" * 32, (), {A: 10 * WEI, B: -3 * WEI})
    priced = arbitrage_profit(f, _prices([(A, 0, 1)]), _tx(), timestamp=0)
    assert priced.unpriced and priced.profit_eth == 10


def test_profit_scale_invariance():
    balances = {A: 6 * WEI, B: -2 * WEI}
    f = ArbitrageFinding(b"\x11" * 32, (), balances)
    p1 = arbitrage_profit(f, _prices([(A, 0, Fraction(1, 3)), (B, 0, Fraction(1, 7))]),
                          _tx(), 0)
    doubled = ArbitrageFinding(b"\x11" * 32, (), {t: 2 * v for t, v in balances.items()})
    p2 = arbitrage_profit(doubled,
                          _prices([(A, 0, Fraction(1, 6)), (B, 0, Fraction(1, 14))]),
                          _tx(), 0)
    assert p1.profit_eth == p2.profit_eth


# --- liquidations ---

def _liq_fixture():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    tx = fb.tx(fee=10 ** 17)  # 0.1 ETH
    topics, data = enc_aave_v2v3_liquidation(A, B, addr(5), 2 * WEI, 3 * WEI, addr(6))
    fb.log(addr(0xAA), topics, data)
    return fb.dataset(), tx


def test_aave_liquidation_profit():
    ds, tx_hash = _liq_fixture()
    findings = detect_liquidations(decode_logs(ds.logs, LIQUIDATIONS))
    assert len(findings) == 1
    prices = _prices([(A, 0, 1), (B, 0, 1)])
    tx = ds.tx(tx_hash)
    priced = liquidation_profit(findings[0], prices, tx, 0)
    assert priced.profit_eth == Fraction(9, 10)  # 3 - 2 - 0.1


def test_compound_redeem_pairing_in_log_order():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx()
    t1, d1 = enc_compound_liquidate(addr(6), addr(5), 100, addr(7), 90)
    t2, d2 = enc_compound_liquidate(addr(6), addr(5), 200, addr(7), 180)
    r1 = enc_compound_redeem(addr(6), 90, 85)
    r2 = enc_compound_redeem(addr(6), 180, 170)
    fb.log(addr(0xC1), t1, d1)
    fb.log(addr(0xC2), t2, d2)
    fb.log(addr(0xE1), *r1)
    fb.log(addr(0xE2), *r2)
    findings = detect_liquidations(decode_logs(fb.dataset().logs, LIQUIDATIONS))
    assert len(findings) == 1
    acts = findings[0].actions
    assert acts[0].collateral_token == addr(0xE1) and acts[0].collateral_amount == 90
    assert acts[1].collateral_token == addr(0xE2) and acts[1].collateral_amount == 180
    assert not findings[0].unredeemed


def test_compound_without_redeem_is_unredeemed():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx()
    topics, data = enc_compound_liquidate(addr(6), addr(5), 100, addr(7), 90)
    fb.log(addr(0xC1), topics, data)
    findings = detect_liquidations(decode_logs(fb.dataset().logs, LIQUIDATIONS))
    assert findings[0].unredeemed
    assert findings[0].actions[0].collateral_amount is None


def test_redeem_without_liquidation_is_no_finding_and_pairs_with_no_other_tx():
    """The first tx holds only a Redeem: no finding, and the next tx's
    LiquidateBorrow does not take it."""
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx()
    fb.log(addr(0xE1), *enc_compound_redeem(addr(6), 90, 85))
    fb.tx()
    liquidated = fb.log(addr(0xC1), *enc_compound_liquidate(addr(6), addr(5), 100, addr(7), 90))
    findings = detect_liquidations(decode_logs(fb.dataset().logs, LIQUIDATIONS))
    assert [f.tx_hash for f in findings] == [liquidated.tx_hash]
    assert findings[0].unredeemed
    assert findings[0].actions[0].collateral_amount is None


def test_two_liquidations_one_finding():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx()
    for amount in (2 * WEI, 4 * WEI):
        topics, data = enc_aave_v2v3_liquidation(A, B, addr(5), amount,
                                                 amount * 2, addr(6))
        fb.log(addr(0xAA), topics, data)
    findings = detect_liquidations(decode_logs(fb.dataset().logs, LIQUIDATIONS))
    assert len(findings) == 1 and len(findings[0].actions) == 2


def test_finding_block_is_its_first_actions_block():
    fb = FixtureBuilder(ETHEREUM, start_block=41)
    fb.block()
    fb.block()
    fb.tx()
    topics, data = enc_aave_v2v3_liquidation(A, B, addr(5), 2 * WEI, 3 * WEI, addr(6))
    fb.log(addr(0xAA), topics, data)
    (liquidation,) = detect_liquidations(decode_logs(fb.dataset().logs, LIQUIDATIONS))
    assert liquidation.block == liquidation.actions[0].position[0] == 42
    (arbitrage,) = detect_arbitrages([make_swap(A, B, 100, 200, V1, position=(7, 0, 3)),
                                      make_swap(B, A, 200, 110, V2, position=(8, 0, 0))])
    assert arbitrage.block == 7


# --- sandwiches ---

def _sandwich_transfers(amount_back=90, back_block=1):
    token, d, x, v = addr(0x31), addr(0x41), addr(0x42), addr(0x43)
    return [
        make_transfer(token, d, x, 100, (1, 0, 0), b"\x01" * 32),
        make_transfer(token, d, v, 50, (1, 1, 1), b"\x02" * 32),
        make_transfer(token, x, d, amount_back, (back_block, 2, 2), b"\x03" * 32),
    ]


def test_sandwich_positive_example():
    findings = detect_sandwiches(_sandwich_transfers(), ETHEREUM)
    assert len(findings) == 1
    f = findings[0]
    assert f.front_tx == b"\x01" * 32 and f.back_tx == b"\x03" * 32
    assert f.victim_txs == (b"\x02" * 32,)
    assert f.attacker == addr(0x42)


def test_sandwich_amount_rule_negative():
    assert detect_sandwiches(_sandwich_transfers(amount_back=110), ETHEREUM) == []


def test_sandwich_window_rule_negative():
    transfers = _sandwich_transfers(back_block=121)
    assert detect_sandwiches(transfers, ARBITRUM, window=100) == []
    # and it is found when the gap fits the window
    transfers = _sandwich_transfers(back_block=100)
    assert len(detect_sandwiches(transfers, ARBITRUM, window=100)) == 1


def test_sandwich_l1_requires_same_block():
    transfers = _sandwich_transfers(back_block=2)
    assert detect_sandwiches(transfers, ETHEREUM) == []


def test_sandwich_matches_window_oracle_randomized(rng):
    for _ in range(150):
        transfers = random_transfer_blocks(rng)
        for chain, span in ((ETHEREUM, 1), (ARBITRUM, 3)):
            got = {(f.front_tx, f.back_tx)
                   for f in detect_sandwiches(transfers, chain, window=3)}
            assert got == oracle_sandwiches(transfers, span)


def test_sandwich_l1_equals_window_one(rng):
    for _ in range(100):
        transfers = random_transfer_blocks(rng)
        l1 = detect_sandwiches(transfers, ETHEREUM)
        l2 = detect_sandwiches(transfers, ARBITRUM, window=1)
        assert l1 == l2


def _one_key_two_pairs():
    """Front tx F and back tx B each hold two transfers, so the key (F, B)
    is reached by two transfer pairs with different victims; the first
    pair in position order wins."""
    token, d, e, x, p = addr(0x31), addr(0x41), addr(0x44), addr(0x42), addr(0x43)
    f, v1, v2, b = (bytes([i]) * 32 for i in (1, 2, 3, 4))
    transfers = [
        make_transfer(token, d, x, 100, (1, 0, 0), f),
        make_transfer(token, e, x, 100, (1, 0, 1), f),
        make_transfer(token, d, p, 50, (1, 1, 0), v1),
        make_transfer(token, e, p, 50, (1, 2, 0), v2),
        make_transfer(token, x, d, 90, (2, 0, 0), b),
        make_transfer(token, x, e, 90, (2, 0, 1), b),
    ]
    expected = [SandwichFinding(front_tx=f, back_tx=b, victim_txs=(v1,), token=token,
                                attacker=x, window=(1, 2))]
    return transfers, expected


def test_sandwich_first_pair_of_a_key_wins():
    transfers, expected = _one_key_two_pairs()
    assert literal_sandwiches(transfers, ARBITRUM, window=2) == expected
    assert detect_sandwiches(transfers, ARBITRUM, window=2) == expected
    assert detect_sandwiches(transfers, ARBITRUM, window=1) == []


_PARTIES = [addr(0x400 + i) for i in range(3)]
_TRANSFER = st.tuples(
    st.integers(1, 6), st.integers(0, 2), st.integers(0, 2),   # block, tx index, log index
    st.sampled_from([None, None, None, 0, 1]),                 # tx: the slot's, or a shared one
    st.sampled_from([addr(0x300), addr(0x300), addr(0x301)]),   # token
    st.sampled_from(_PARTIES), st.sampled_from(_PARTIES),      # sender, receiver
    st.integers(1, 4))                                         # amount


def _transfers(rows):
    """Transfers from ``_TRANSFER`` rows. Several transfers share a tx (one
    per (block, tx index) slot), and some belong to one of two shared txs
    instead: one tx then spans positions and blocks, and two txs can hold
    the same position. Sender and receiver are drawn independently, so
    self-transfers occur."""
    return [make_transfer(token, sender, receiver, amount, (block, tx_index, log_index),
                          bytes([block, tx_index] if shared is None else [0, shared]) * 16)
            for block, tx_index, log_index, shared, token, sender, receiver, amount in rows]


@settings(max_examples=300, deadline=None)
@given(transfers=st.lists(_TRANSFER, min_size=10, max_size=30).map(_transfers),
       chain=st.sampled_from([ETHEREUM, ARBITRUM]), window=st.integers(1, 5))
@example(transfers=_one_key_two_pairs()[0], chain=ARBITRUM, window=2)
def test_sandwich_findings_match_literal_scan(transfers, chain, window):
    """The whole ordered finding list (victims, window, attacker, order),
    on L1 (one block) and on L2 windows of 1 to 5 blocks."""
    assert (detect_sandwiches(transfers, chain, window=window)
            == literal_sandwiches(transfers, chain, window=window))


# --- flash loans ---

def test_flash_loan_attribution():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    tx = fb.tx()
    for provider in ("aave_v2", "balancer"):
        topics, data = enc_flashloan(provider, A, 10 ** 20, 10 ** 17)
        fb.log(addr(0xFA), topics, data)
    ds = fb.dataset()
    f = ArbitrageFinding(tx, (), {})
    [annotated] = attribute_flash_loans([f], [a for _, a in decode_logs(ds.logs, FLASH_LOANS)])
    assert [fl.provider for fl in annotated.flash_loans] == ["aave_v2", "balancer"]


def test_split_flash_loans_parts_one_pass():
    """One pass's FlashLoanActions and its other pairs, or their actions,
    each in log order: detect liq hands detect_liquidations only the other
    pairs, and detect arb hands detect_arbitrages only the swaps."""
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx()
    fb.log(addr(0xFA), *enc_flashloan("aave_v2", A, 10 ** 20, 10 ** 17))
    fb.log(addr(0xAB), *enc_aave_v2v3_liquidation(A, B, addr(5), 100, 150, addr(6)))
    fb.log(addr(0xFA), *enc_flashloan("balancer", B, 10 ** 18, 0))
    decoded = decode_logs(fb.dataset().logs, LIQUIDATIONS + FLASH_LOANS)
    loans, rest = split_flash_loans(decoded)
    assert loans == [decoded[0][1], decoded[2][1]]
    assert [loan.provider for loan in loans] == ["aave_v2", "balancer"]
    assert rest == [decoded[1]]
    assert split_flash_loans(decoded, actions=True) == (loans, [decoded[1][1]])
    [finding] = detect_liquidations(rest)
    assert finding.actions == (decoded[1][1],)


def test_flash_loan_no_events_empty():
    f = ArbitrageFinding(b"\x11" * 32, (), {})
    assert attribute_flash_loans([f], []) == [f]


def test_flash_loans_are_decoded_once_for_all_findings(caplog):
    """One decode pass's loans: two findings of one tx and one of another
    each carry their own tx's loans in log order, a loan of a tx with no
    finding goes to none, and a broken loan log in the shared tx is skipped
    with one DEBUG line."""
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    shared = fb.tx()
    fb.log(addr(0xFA), *enc_flashloan("aave_v2", A, 10 ** 20, 10 ** 17))
    topics, data = enc_flashloan("balancer", B, 10 ** 19, 0)
    fb.log(addr(0xFA), topics[:2], data)
    fb.log(addr(0xFA), *enc_flashloan("balancer", B, 10 ** 18, 0))
    other = fb.tx()
    fb.log(addr(0xFA), *enc_flashloan("aave_v3", C, 10 ** 18, 10 ** 15))
    fb.tx()
    fb.log(addr(0xFA), *enc_flashloan("aave_v1", C, 10 ** 18, 10 ** 15))
    findings = [ArbitrageFinding(shared, (), {}), ArbitrageFinding(other, (), {}),
                ArbitrageFinding(shared, (), {A: 1})]
    with caplog.at_level(logging.DEBUG, logger="mevlens"):
        loans = [loan for _, loan in decode_logs(fb.dataset().logs, FLASH_LOANS)]
        annotated = attribute_flash_loans(findings, loans)
    assert [[(fl.provider, fl.amount) for fl in f.flash_loans] for f in annotated] == [
        [("aave_v2", 10 ** 20), ("balancer", 10 ** 18)], [("aave_v3", 10 ** 18)],
        [("aave_v2", 10 ** 20), ("balancer", 10 ** 18)]]
    assert [f._replace(flash_loans=()) for f in annotated] == findings
    assert [r.getMessage() for r in caplog.records] == [
        "skipped FlashLoan log at (1, 0, 1): Balancer FlashLoan expects 3 topics"]
