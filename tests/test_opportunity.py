import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mevlens import opportunity
from mevlens.amm import PoolInfo, cp_pool, dump_pool_metadata, stable_pool, swap_out
from mevlens.chain_model import ETHEREUM, ChainDataset, EventLog
from mevlens.cli import main
from mevlens.detectors import ArbitrageFinding, LiquidationFinding, detect_arbitrages
from mevlens.decoding import LiquidationAction
from mevlens.errors import MalformedRecord
from mevlens.fixtures import (FixtureBuilder, addr, dump_fixture, enc_aave_v2v3_liquidation,
                              enc_answer_updated, enc_balancer_v1_swap, enc_token_swap,
                              enc_transfer, enc_uniswap_v2_swap)
from mevlens.opportunity import (FOUND, NOT_FOUND, UNSIMULATABLE, StateProvider,
                                 block_distance_cdf, detect_competition,
                                 find_arbitrage_opportunity,
                                 find_liquidation_opportunity)
from mevlens.registry import DEFAULT_REGISTRY
from conftest import (TOKEN_A, TOKEN_B, TOKEN_C, VENUE_1, VENUE_2, VENUE_3, VENUE_4,
                      build_planted_arb_dataset, decoded_swaps, literal_opportunity, make_swap,
                      oracle_updates, replay_cycle)

A, B = addr(0xA1), addr(0xB1)
P1, P2 = addr(0xD1), addr(0xD2)
F = 200  # finding block


def _finding(tx=b"\x10" * 32, block=F):
    cycle = (make_swap(A, B, 1000, 999, P1, position=(block, 0, 0), tx_hash=tx),
             make_swap(B, A, 999, 1008, P2, position=(block, 0, 1), tx_hash=tx))
    return ArbitrageFinding(tx, cycle, {A: 8, B: 0})


def _balanced():
    return cp_pool(10 ** 6, 10 ** 6, tokens=(A, B), fee_num=0, fee_den=1)


def _imbalanced():
    # extra A in the second pool makes the A->B->A cycle profitable
    return cp_pool(11 * 10 ** 5, 10 ** 6, tokens=(A, B), fee_num=0, fee_den=1)


def plant_arb_scenario(distance):
    """Opportunity swap at block F-distance; returns (dataset, provider,
    planted candidate tx hash)."""
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _balanced())
    provider.add_pool(P2, F - distance, _imbalanced())

    fb = FixtureBuilder(ETHEREUM, start_block=F - distance)
    fb.block(number=F - distance)
    tx = fb.tx()
    topics, data = enc_balancer_v1_swap(addr(0xEE), B, A, 10 ** 5, 1008 * 10 ** 2)
    fb.log(P2, topics, data)
    fb.block(number=F)
    fb.tx()
    return fb.dataset(), provider, tx


def test_planted_distances_exact():
    for d in (1, 5, 37, 99, 100):
        ds, provider, tx = plant_arb_scenario(d)
        r = find_arbitrage_opportunity(_finding(), decoded_swaps(ds), provider)
        assert r.status == FOUND
        assert r.block_distance == d
        assert r.opportunity_tx == tx
        assert not r.approximate


def test_planted_distance_zero_is_approximate_boundary():
    # the closest prior block is already unprofitable: the crossing sits
    # between the finding and block F-1
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _balanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F - 1)
    fb.block(number=F - 1)
    fb.tx()
    topics, data = enc_balancer_v1_swap(addr(0xEE), B, A, 10, 9)
    fb.log(P2, topics, data)
    ds = fb.dataset()
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(ds), provider)
    assert r.status == FOUND and r.block_distance == 0
    assert r.opportunity_tx is None and r.approximate


def test_planted_distance_101_not_found():
    ds, provider, _ = plant_arb_scenario(101)
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(ds), provider)
    assert r.status == NOT_FOUND


def test_no_candidate_swaps_not_found():
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _imbalanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F)
    fb.block(number=F)
    fb.tx()
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(fb.dataset()), provider)
    assert r.status == NOT_FOUND


def test_missing_pool_state_unsimulatable():
    ds, provider, _ = plant_arb_scenario(5)
    bare = StateProvider()  # no pool snapshots at all
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(ds), bare)
    assert r.status == UNSIMULATABLE


# --- liquidations ---

def _liq_finding(protocol="aave_v2v3", tx=b"\x20" * 32, block=F):
    action = LiquidationAction(protocol=protocol, liquidator=addr(6),
                               borrower=addr(5), debt_token=B, debt_amount=100,
                               collateral_token=A, collateral_amount=150,
                               position=(block, 0, 0), tx_hash=tx)
    return LiquidationFinding(tx, (action,))


def _oracle_fixture(update_blocks):
    fb = FixtureBuilder(ETHEREUM, start_block=min(update_blocks))
    txs = {}
    for b in sorted(update_blocks):
        fb.block(number=b)
        txs[b] = fb.tx()
        topics, data = enc_answer_updated(10 ** 8)
        fb.log(addr(0xFE), topics, data)
    fb.block(number=F)
    fb.tx()
    return fb.dataset(), txs


def test_hf_series_stop_rule():
    # hf 0.97, 0.98, 1.02 at distances 2, 7, 11 -> opportunity at d=7
    ds, txs = _oracle_fixture([F - 2, F - 7, F - 11])
    provider = StateProvider()
    provider.add_health(addr(5), F - 11, Fraction(102, 100))
    provider.add_health(addr(5), F - 7, Fraction(98, 100))
    provider.add_health(addr(5), F - 2, Fraction(97, 100))
    r = find_liquidation_opportunity(_liq_finding(), oracle_updates(ds), provider)
    assert r.status == FOUND and r.block_distance == 7
    assert r.opportunity_tx == txs[F - 7]


def test_hf_closed_at_closest_is_boundary():
    ds, txs = _oracle_fixture([F - 3])
    provider = StateProvider()
    provider.add_health(addr(5), 0, Fraction(101, 100))
    r = find_liquidation_opportunity(_liq_finding(), oracle_updates(ds), provider)
    assert r.status == FOUND and r.block_distance == 0 and r.approximate


def test_shortfall_never_zero_not_found():
    ds, _ = _oracle_fixture([F - 3, F - 50])
    provider = StateProvider()
    provider.add_shortfall(addr(5), 0, 42)
    r = find_liquidation_opportunity(_liq_finding("compound_v2"), oracle_updates(ds), provider)
    assert r.status == NOT_FOUND


def test_shortfall_stop_rule():
    ds, txs = _oracle_fixture([F - 4, F - 9])
    provider = StateProvider()
    provider.add_shortfall(addr(5), 0, 0)
    provider.add_shortfall(addr(5), F - 9, 17)
    r = find_liquidation_opportunity(_liq_finding("compound_v2"), oracle_updates(ds), provider)
    assert r.status == FOUND and r.block_distance == 9
    assert r.opportunity_tx == txs[F - 9]


# --- snapshot file loading ---

def test_state_provider_from_jsonl(tmp_path):
    pools_meta = {P1: PoolInfo(P1, "constant_product", (A, B), 0, 1)}
    path = tmp_path / "snap.jsonl"
    rows = [
        {"kind": "pool", "key": "0x" + P1.hex(), "block": 3,
         "value": {"reserves": ["1000", "2000"]}},
        {"kind": "health", "key": "0x" + addr(5).hex(), "block": 1, "value": "0.97"},
        {"kind": "shortfall", "key": "0x" + addr(5).hex(), "block": 2, "value": 7},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    sp = StateProvider.from_jsonl(path, pools_meta)
    assert sp.pool_state(P1, 2) is None
    assert sp.pool_state(P1, 9).reserves == (1000, 2000)
    assert sp.health_factor(addr(5), 5) == Fraction(97, 100)
    assert sp.shortfall(addr(5), 2) == 7


def _linear_at(inserted, block):
    """Latest snapshot at or before block; of snapshots at the same block,
    the one added last."""
    best = None
    for b, value in inserted:
        if b <= block and (best is None or b >= best[0]):
            best = (b, value)
    return None if best is None else best[1]


def test_state_provider_lookups_match_linear_scan():
    rng = random.Random(31)
    for _ in range(50):
        sp = StateProvider()
        inserted = []
        for n in range(rng.randint(0, 12)):
            block = rng.randint(10, 20)   # few blocks, so duplicates are common
            inserted.append((block, n))
            sp.add_pool(P1, block, cp_pool(1000 + n, 1000, tokens=(A, B)))
            sp.add_health(addr(5), block, Fraction(n, 7))
            sp.add_shortfall(addr(5), block, n)
        for block in range(7, 24):      # before the first and after the last
            want = _linear_at(inserted, block)
            pool = sp.pool_state(P1, block)
            assert (None if pool is None else pool.reserves[0] - 1000) == want
            assert sp.health_factor(addr(5), block) == (
                None if want is None else Fraction(want, 7))
            assert sp.shortfall(addr(5), block) == want


def pool_row(pool, reserves=("1000", "2000"), block=3):
    return {"kind": "pool", "key": "0x" + pool.hex(), "block": block,
            "value": {"reserves": [str(r) for r in reserves]}}


def malformed_snapshots(pool, unknown_pool):
    """Snapshot lines to reject, given pool metadata that lists the
    two-token `pool` but not `unknown_pool`."""
    return {
        "pool_missing_from_metadata": json.dumps(pool_row(unknown_pool)),
        "reserves_length": json.dumps(pool_row(pool, ["1", "2", "3"])),
        "unknown_kind": json.dumps(dict(pool_row(pool), kind="pools")),
        "invalid_json": '{"kind": "pool", "key": ',
        "non_object": json.dumps([pool_row(pool)]),
        "non_decimal_reserve": json.dumps(pool_row(pool, ["1e3", "2000"])),
    }


@pytest.mark.parametrize("name", sorted(malformed_snapshots(P1, P2)))
def test_state_provider_from_jsonl_rejects_malformed_row(tmp_path, name):
    pools_meta = {P1: PoolInfo(P1, "constant_product", (A, B), 0, 1)}
    path = tmp_path / "snap.jsonl"
    path.write_text(json.dumps(pool_row(P1)) + "\n"
                    + malformed_snapshots(P1, P2)[name] + "\n")
    with pytest.raises(MalformedRecord) as exc:
        StateProvider.from_jsonl(path, pools_meta)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: ")


# --- distributions / competition ---

def _result(distance, status=FOUND):
    from mevlens.opportunity import OpportunityResult
    return OpportunityResult(status, b"\x01" * 32, distance)


def test_cdf_counting_oracle():
    results = [_result(0), _result(1), _result(1), _result(3)]
    cdf = dict(block_distance_cdf(results, horizon=3))
    assert cdf[0] == Fraction(1, 4)
    assert cdf[1] == Fraction(3, 4)
    assert cdf[2] == Fraction(3, 4)
    assert cdf[3] == 1


def test_cdf_monotone_and_ends_at_one():
    results = [_result(d) for d in (5, 17, 99)] + [_result(None, NOT_FOUND)]
    cdf = block_distance_cdf(results, horizon=100)
    values = [v for _, v in cdf]
    assert values == sorted(values) and values[-1] == 1


def test_cdf_empty():
    assert block_distance_cdf([], horizon=100) == []


def test_competition_grouping():
    opp = b"\x0a" * 32
    entries = [
        ("arb", opp, addr(1), "f1"),
        ("arb", opp, addr(2), "f2"),
        ("arb", b"\x0b" * 32, addr(1), "f3"),     # alone on its opportunity
        ("arb", b"\x0c" * 32, addr(3), "f4"),     # same extractor twice
        ("arb", b"\x0c" * 32, addr(3), "f5"),
        ("liq", None, addr(4), "f6"),             # unresolved: ignored
    ]
    groups = detect_competition(entries)
    assert len(groups) == 1
    assert groups[0]["opportunity_tx"] == opp
    assert groups[0]["extractors"] == sorted([addr(1), addr(2)])
    assert set(groups[0]["findings"]) == {"f1", "f2"}


def test_cli_compete_row_carries_the_opportunity_block(tmp_path):
    """Two liquidators of one borrower compete for the oracle update that
    made the position liquidable; the row names that update's block and
    its timestamp, not those of the liquidations."""
    fb = FixtureBuilder(ETHEREUM, start_block=F - 7)
    fb.block(number=F - 7)
    opened = fb.tx()
    fb.log(addr(0xFE), *enc_answer_updated(10 ** 8))
    fb.block(number=F)
    for liquidator in (addr(6), addr(7)):
        fb.tx(sender=liquidator)
        fb.log(addr(0xAB), *enc_aave_v2v3_liquidation(A, B, addr(5), 100, 150, liquidator))
    ds = fb.dataset()
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    dump_fixture(ds, fixtures / "ethereum.jsonl")
    snapshots = tmp_path / "snap.jsonl"
    snapshots.write_text("".join(
        json.dumps({"kind": "health", "key": "0x" + addr(5).hex(), "block": block,
                    "value": value}) + "\n" for block, value in ((0, "1.02"), (F - 7, "0.98"))))
    out = tmp_path / "out"
    assert main(["compete", "--type", "liq", "--fixtures", str(fixtures),
                 "--snapshots", str(snapshots), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "competition_liq.jsonl").read_text().splitlines()]
    assert [(r["tx_hash"], r["block"], r["timestamp"], len(r["extractors"])) for r in rows] == [
        ("0x" + opened.hex(), F - 7, ds.block_timestamp(F - 7), 2)]
    assert ds.block_timestamp(F - 7) != ds.block_timestamp(F)


def test_cli_compete_leaves_out_findings_with_no_tx_record(tmp_path, caplog):
    """A finding whose tx has no record has no extractor: compete leaves it
    out of the competition and says how many at INFO, so two unknown
    senders do not count as one extractor beside the known ones."""
    fb = FixtureBuilder(ETHEREUM, start_block=F - 7)
    fb.block(number=F - 7)
    opened = fb.tx()
    fb.log(addr(0xFE), *enc_answer_updated(10 ** 8))
    fb.block(number=F)
    liquidators = [addr(6), addr(7), addr(8), addr(9)]
    for liquidator in liquidators:
        fb.tx(sender=liquidator)
        fb.log(addr(0xAB), *enc_aave_v2v3_liquidation(A, B, addr(5), 100, 150, liquidator))
    ds = fb.dataset()
    known = [t for t in ds.txs if t.sender not in liquidators[2:]]
    ds = ChainDataset(ds.chain, ds.blocks, known, ds.logs)
    health = [{"kind": "health", "key": "0x" + addr(5).hex(), "block": block, "value": value}
              for block, value in ((0, "1.02"), (F - 7, "0.98"))]
    args = _write_inputs(tmp_path, ds, health)
    caplog.set_level(logging.INFO, logger="mevlens")
    assert main(["compete", "--type", "liq"] + args) == 0
    rows = [json.loads(line)
            for line in (tmp_path / "out" / "competition_liq.jsonl").read_text().splitlines()]
    assert [(r["tx_hash"], r["extractors"], r["findings"]) for r in rows] == [
        ("0x" + opened.hex(), ["0x" + a.hex() for a in liquidators[:2]],
         ["0x" + t.hash.hex() for t in known[1:]])]
    assert "compete: 2 findings left out: no tx record names their extractor" in [
        r.getMessage() for r in caplog.records]


def _write_inputs(tmp_path, ds, snapshots=(), pools=None):
    """The fixture directory, snapshot file and pool sidecar of one run."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    dump_fixture(ds, fixtures / "ethereum.jsonl")
    (tmp_path / "snap.jsonl").write_text("".join(json.dumps(row) + "\n" for row in snapshots))
    args = ["--fixtures", str(fixtures), "--snapshots", str(tmp_path / "snap.jsonl"),
            "--out", str(tmp_path / "out")]
    if pools is not None:
        dump_pool_metadata(pools, tmp_path / "pools.json")
        args += ["--pools", str(tmp_path / "pools.json")]
    return args


@pytest.mark.parametrize("mev_type, line", [
    ("arb", f"skipped Swap log at ({F - 3}, 0, 0): Uniswap V2 Swap expects 3 topics"),
    ("liq", f"skipped AnswerUpdated log at ({F - 2}, 0, 1): AnswerUpdated expects 3 topics"),
])
def test_cli_opportunity_skips_a_log_that_breaks_its_layout(tmp_path, caplog, mev_type, line):
    """A Uniswap V2 swap at a venue of the arbitrages and a Chainlink update
    inside both findings' windows, each short of one topic: the command
    skips them as the detectors do, logs each once at DEBUG, however many
    windows hold it, and writes every row."""
    fb = FixtureBuilder(ETHEREUM, start_block=F - 3)
    fb.block(number=F - 3)
    fb.tx()
    topics, data = enc_uniswap_v2_swap(addr(9), addr(9), 100, 0, 0, 90)
    fb.log(P1, topics[:2], data)
    fb.block(number=F - 2)
    fb.tx()
    topics, data = enc_answer_updated(10 ** 8)
    fb.log(addr(0xFE), topics[:2], data)
    for block in (F, F + 1):
        fb.block(number=block)
        fb.tx()
        fb.log(P1, *enc_balancer_v1_swap(addr(0xEE), A, B, 1000, 999))
        fb.log(P2, *enc_balancer_v1_swap(addr(0xEE), B, A, 999, 1008))
        fb.tx(sender=addr(6))
        fb.log(addr(0xAB), *enc_aave_v2v3_liquidation(A, B, addr(5), 100, 150, addr(6)))
    args = _write_inputs(tmp_path, fb.dataset())
    with caplog.at_level(logging.DEBUG, logger="mevlens"):
        assert main(["opportunity", "--type", mev_type] + args) == 0
    rows = (tmp_path / "out" / f"opportunities_{mev_type}.jsonl").read_text().splitlines()
    assert len(rows) == 2
    assert [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()] == [line]


def test_cli_liquidation_walk_looks_up_each_log_once(tmp_path, monkeypatch):
    """opportunity --type liq looks up each kept log's topic once: one
    decode pass serves the liquidations and the oracle updates. The
    transfers beside them are not kept, and no load looks a topic up."""
    fb = FixtureBuilder(ETHEREUM, start_block=F - 2)
    for block in range(F - 2, F + 2):
        fb.block(number=block)
        fb.tx()
        fb.log(addr(0xFE), *enc_answer_updated(10 ** 8 + block))
        fb.log(A, *enc_transfer(addr(5), addr(6), block))
        fb.tx(sender=addr(6))
        fb.log(addr(0xAB), *enc_aave_v2v3_liquidation(A, B, addr(5), 100, 150, addr(6)))
    ds = fb.dataset()
    args = _write_inputs(tmp_path, ds)
    lookup, topics = DEFAULT_REGISTRY.lookup, []
    monkeypatch.setattr(DEFAULT_REGISTRY, "lookup",
                        lambda topic: topics.append(topic) or lookup(topic))
    assert main(["opportunity", "--type", "liq"] + args) == 0
    kept = [log.topics[0] for log in ds.logs if log.address != A]
    assert len(kept) == 8
    assert sorted(topics) == sorted(kept)


def test_cli_stableswap_token_swap_opens_an_arbitrage(tmp_path):
    """A StableSwap TokenSwap closes a cycle like any DEX swap, so at a
    venue of the cycle it opens the opportunity like one too."""
    d = 4
    pools = {p: PoolInfo(p, "constant_product", (A, B), 0, 1) for p in (P1, P2)}
    fb = FixtureBuilder(ETHEREUM, start_block=F - d)
    fb.block(number=F - d)
    opened = fb.tx()
    fb.log(P2, *enc_token_swap(addr(9), 10 ** 5, 10 ** 5, 1, 0))   # sells B for A
    fb.block(number=F)
    fb.tx()
    fb.log(P1, *enc_balancer_v1_swap(addr(0xEE), A, B, 1000, 999))
    fb.log(P2, *enc_balancer_v1_swap(addr(0xEE), B, A, 999, 1008))

    snapshots = [pool_row(P1, _balanced().reserves, 0), pool_row(P2, _balanced().reserves, 0),
                 pool_row(P2, _imbalanced().reserves, F - d)]
    args = _write_inputs(tmp_path, fb.dataset(), snapshots, pools)
    assert main(["opportunity", "--type", "arb"] + args) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "out" / "opportunities_arb.jsonl").read_text().splitlines()]
    assert [(r["status"], r["opportunity_tx"], r["block_distance"]) for r in rows] == [
        (FOUND, "0x" + opened.hex(), d)]


def test_not_found_status_names_the_horizon():
    # no candidate swap within 5 blocks
    ds, provider, _ = plant_arb_scenario(6)
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(ds), provider, horizon=5)
    assert r.status == "not_found_within_5"
    # a candidate, but the cycle stays profitable past the horizon
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _imbalanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F - 2)
    fb.block(number=F - 2)
    fb.tx()
    fb.log(P2, *enc_balancer_v1_swap(addr(0xEE), B, A, 10 ** 5, 1008 * 10 ** 2))
    r = find_arbitrage_opportunity(_finding(), decoded_swaps(fb.dataset()), provider,
                                   horizon=5)
    assert r.status == "not_found_within_5"
    assert NOT_FOUND == "not_found_within_100"


def test_cli_walk_bisects_swaps_of_a_tx_hash_that_recurs(tmp_path):
    """The swaps of a tx hash that recurs two blocks apart are grouped
    together by tx, and the walk still finds the later one, the only swap
    in a 1-block window."""
    recurring = b"\x41" * 32
    pools = {p: PoolInfo(p, "constant_product", (A, B), 0, 1) for p in (P1, P2)}
    fb = FixtureBuilder(ETHEREUM, start_block=F - 5)
    for block, venue, tx in ((F - 5, P2, recurring), (F - 3, P2, None), (F - 1, P1, recurring)):
        fb.block(number=block)
        fb.tx(tx_hash=tx)
        fb.log(venue, *enc_balancer_v1_swap(addr(0xEE), B, A, 10 ** 5, 10 ** 5))
    fb.block(number=F)
    fb.tx()
    fb.log(P1, *enc_balancer_v1_swap(addr(0xEE), A, B, 1000, 999))
    fb.log(P2, *enc_balancer_v1_swap(addr(0xEE), B, A, 999, 1008))
    ds = fb.dataset()

    snapshots = [pool_row(P1, _balanced().reserves, 0), pool_row(P2, _balanced().reserves, 0),
                 pool_row(P2, _imbalanced().reserves, F - 1)]
    args = _write_inputs(tmp_path, ds, snapshots, pools)
    assert main(["opportunity", "--type", "arb", "--horizon", "1"] + args) == 0
    [row] = [json.loads(line) for line in
             (tmp_path / "out" / "opportunities_arb.jsonl").read_text().splitlines()]
    assert (row["status"], row["opportunity_tx"], row["block_distance"]) == (
        FOUND, "0x" + recurring.hex(), 1)


# --- the walk's per-state-set memo against a fresh simulation per block ---

def test_walk_simulates_each_distinct_state_set_once(monkeypatch):
    """Snapshots at every block, equal but separate objects, alternate
    between two profitable tilts from block 5 on: each finding's walk
    agrees with the literal walk and simulates each distinct set once."""
    ds, _ = build_planted_arb_dataset()
    provider = StateProvider()
    for b in range(30):
        tilt = 10 ** 6 * (1 + b % 2) if b >= 5 else 0
        for venue, tokens, reserves in (
                (VENUE_1, (TOKEN_A, TOKEN_B), (10 ** 6, 10 ** 6)),
                (VENUE_2, (TOKEN_A, TOKEN_B), (10 ** 6 + tilt, 10 ** 6)),
                (VENUE_3, (TOKEN_B, TOKEN_C), (10 ** 6, 10 ** 6)),
                (VENUE_4, (TOKEN_B, TOKEN_C), (10 ** 6 + tilt, 10 ** 6))):
            provider.add_pool(venue, b, cp_pool(*reserves, tokens=tokens, fee_num=0,
                                                fee_den=1))
    calls = []

    simulated_profit = opportunity._simulated_profit

    def counting(finding, states):
        calls.append(states)
        return simulated_profit(finding, states)

    monkeypatch.setattr(opportunity, "_simulated_profit", counting)
    swaps = decoded_swaps(ds)
    results, repeats = [], 0
    for finding in detect_arbitrages(swaps):
        expected, simulated = literal_opportunity(finding, ds, provider)
        calls.clear()
        assert find_arbitrage_opportunity(finding, swaps, provider) == expected
        assert len(calls) == len(set(simulated))
        repeats += len(simulated) - len(set(simulated))
        results.append(expected)
    assert repeats > 100
    assert {r.status for r in results} == {FOUND, UNSIMULATABLE, NOT_FOUND}
    assert any(r.block_distance for r in results) and any(r.approximate for r in results)


def test_replay_carries_a_venue_to_its_second_hop():
    """A cycle V1 -> V2 -> V1: its second V1 hop swaps on the reserves the
    first left behind, as composed ``swap_out`` quotes do, not on the
    snapshot's."""
    c = addr(0xC1)
    v1 = stable_pool([10 ** 9, 10 ** 9, 10 ** 9], tokens=(A, B, c))
    v2 = cp_pool(10 ** 9, 11 * 10 ** 8, tokens=(B, c), fee_num=0, fee_den=1)
    amount = 10 ** 8
    q1 = swap_out(v1, A, B, amount)
    q2 = swap_out(v2, B, c, q1.amount_out)
    q3 = swap_out(q1.post_state, c, A, q2.amount_out)
    cycle = (make_swap(A, B, amount, q1.amount_out, P1, position=(F, 0, 0)),
             make_swap(B, c, q1.amount_out, q2.amount_out, P2, position=(F, 0, 1)),
             make_swap(c, A, q2.amount_out, q3.amount_out, P1, position=(F, 0, 2)))
    states = (v1, v2, v1)
    assert replay_cycle(cycle, states, amount) == q3.amount_out
    assert q3.amount_out != swap_out(v1, c, A, q2.amount_out).amount_out
    finding = ArbitrageFinding(b"\x10" * 32, cycle, {})
    assert opportunity._simulated_profit(finding, states) == q3.amount_out - amount


# --- both walks against the literal window rescan ---

P3 = addr(0xD3)   # a venue outside the cycle
REPEATED_TX = b"\x31" * 32
_TXS = (REPEATED_TX, b"\x32" * 32, b"\x33" * 32)   # few hashes: one recurs at two positions
_EVENTS = {
    "balancer_swap": enc_balancer_v1_swap(addr(0xEE), B, A, 10 ** 5, 10 ** 5),
    "uniswap_v2_swap": enc_uniswap_v2_swap(addr(9), addr(9), 0, 100, 90, 0),
    "token_swap": enc_token_swap(addr(9), 100, 90, 1, 0),
    "update": enc_answer_updated(10 ** 8),
    "transfer": enc_transfer(addr(1), addr(2), 5),
}
_BROKEN = {"broken_swap": "uniswap_v2_swap", "broken_update": "update"}  # short of one topic
_WALK_POOLS = {p: PoolInfo(p, "constant_product", (A, B), 0, 1) for p in (P1, P2, P3)}


def _walk_dataset(events) -> ChainDataset:
    """One log per event (block, kind, address, tx hash), at position
    (block, i, 0) for the event's index i in block order."""
    logs = []
    for i, (block, kind, address, tx) in enumerate(sorted(events, key=lambda e: e[0])):
        topics, data = _EVENTS[_BROKEN.get(kind, kind)]
        if kind in _BROKEN:
            topics = topics[:2]
        logs.append(EventLog(ETHEREUM, address, tuple(topics), data, block, i, 0, tx))
    return ChainDataset(ETHEREUM, logs=logs)


def _walk_provider(pool_snapshots, health, shortfall) -> StateProvider:
    provider = StateProvider()
    for venue, block, tilted in pool_snapshots:
        provider.add_pool(venue, block, _imbalanced() if tilted else _balanced())
    for block, hf in health:
        provider.add_health(addr(5), block, hf)
    for block, sf in shortfall:
        provider.add_shortfall(addr(5), block, sf)
    return provider


_BLOCKS = st.integers(0, 7)
_EVENT = st.tuples(_BLOCKS, st.sampled_from(sorted(_EVENTS) + sorted(_BROKEN)),
                   st.sampled_from([P1, P2, P3, addr(0xFE)]), st.sampled_from(_TXS))
_SNAPSHOT = st.tuples(st.sampled_from([P1, P2]), _BLOCKS, st.booleans())
_HEALTH = st.tuples(_BLOCKS, st.sampled_from([Fraction(97, 100), Fraction(1), Fraction(102, 100)]))
_SHORTFALL = st.tuples(_BLOCKS, st.sampled_from([0, 17]))
_PLANTED = [(1, "broken_swap", P1, REPEATED_TX), (2, "broken_update", addr(0xFE), _TXS[1]),
            (2, "balancer_swap", P2, REPEATED_TX), (2, "uniswap_v2_swap", P1, _TXS[2]),
            (3, "update", addr(0xFE), REPEATED_TX), (3, "update", addr(0xFE), _TXS[1]),
            (4, "token_swap", P2, _TXS[2]), (5, "uniswap_v2_swap", P1, REPEATED_TX)]
_TILTED = [(P1, 0, False), (P2, 0, False), (P2, 2, True)]


@settings(max_examples=300, deadline=None)
@given(finding_block=_BLOCKS, horizon=st.one_of(st.integers(1, 8), st.just(100)),
       events=st.lists(_EVENT, max_size=14), pool_snapshots=st.lists(_SNAPSHOT, max_size=5),
       health=st.lists(_HEALTH, max_size=4), shortfall=st.lists(_SHORTFALL, max_size=4),
       protocol=st.sampled_from(["aave_v2v3", "compound_v2"]))
@example(finding_block=0, horizon=1, events=_PLANTED, pool_snapshots=_TILTED,
         health=[(0, Fraction(97, 100))], shortfall=[(0, 17)], protocol="aave_v2v3")
@example(finding_block=1, horizon=1, events=_PLANTED, pool_snapshots=_TILTED,
         health=[(0, Fraction(97, 100))], shortfall=[(0, 17)], protocol="compound_v2")
@example(finding_block=1, horizon=100, events=_PLANTED, pool_snapshots=_TILTED,
         health=[(0, Fraction(102, 100))], shortfall=[(0, 0)], protocol="aave_v2v3")
@example(finding_block=7, horizon=100, events=_PLANTED, pool_snapshots=_TILTED,
         health=[(0, Fraction(102, 100)), (3, Fraction(97, 100))], shortfall=[(0, 0), (2, 17)],
         protocol="compound_v2")
@example(finding_block=6, horizon=3, events=_PLANTED, pool_snapshots=_TILTED,
         health=[(0, Fraction(97, 100))], shortfall=[(0, 17)], protocol="aave_v2v3")
def test_walks_match_literal_window_rescan(finding_block, horizon, events, pool_snapshots,
                                           health, shortfall, protocol):
    """Both walks, bisecting the swaps and updates decoded once, return what
    the literal walk returns after rescanning every log of the finding's
    window: findings at block 0 and up, horizons from 1 block, logs that
    break their layout, swaps at venues outside the cycle, StableSwap and
    Uniswap swaps that need the pool sidecar, and a tx hash at several
    positions."""
    ds = _walk_dataset(events)
    provider = _walk_provider(pool_snapshots, health, shortfall)
    arb = _finding(block=finding_block)
    assert (find_arbitrage_opportunity(arb, decoded_swaps(ds, _WALK_POOLS), provider,
                                       horizon)
            == literal_opportunity(arb, ds, provider, _WALK_POOLS, horizon)[0])
    liq = _liq_finding(protocol, block=finding_block)
    assert (find_liquidation_opportunity(liq, oracle_updates(ds), provider, horizon)
            == literal_opportunity(liq, ds, provider, _WALK_POOLS, horizon)[0])


def test_planted_walk_case_opens_on_the_repeated_tx_and_the_stableswap_swap():
    """The planted events of the examples above, with the cycle opened at
    block 2 and then at block 4: the opportunity is the first swap of block
    2, whose tx hash recurs, then the StableSwap swap. The first Chainlink
    update of block 3, of that tx hash too, opens the liquidation."""
    ds = _walk_dataset(_PLANTED)
    swaps = decoded_swaps(ds, _WALK_POOLS)
    health = [(0, Fraction(102, 100)), (3, Fraction(97, 100))]
    provider = _walk_provider(_TILTED, health, [])
    assert find_arbitrage_opportunity(_finding(block=4), swaps, provider) == \
        opportunity.OpportunityResult(FOUND, REPEATED_TX, 2)
    assert find_liquidation_opportunity(_liq_finding(block=7), oracle_updates(ds), provider) == \
        opportunity.OpportunityResult(FOUND, REPEATED_TX, 4)
    provider = _walk_provider([(P1, 0, False), (P2, 0, False), (P2, 4, True)], health, [])
    assert find_arbitrage_opportunity(_finding(block=7), swaps, provider) == \
        opportunity.OpportunityResult(FOUND, _TXS[2], 3)
