import json
import random
from fractions import Fraction

import pytest

from mevlens import opportunity
from mevlens.amm import PathHop, PoolInfo, cp_pool, simulate_path
from mevlens.chain_model import ETHEREUM, dump_fixture
from mevlens.cli import main
from mevlens.detectors import (ArbitrageFinding, LiquidationFinding, detect_arbitrages,
                               extract_swaps)
from mevlens.decoding import LiquidationAction, decode_swap
from mevlens.errors import MalformedRecord, MevlensError
from mevlens.fixtures import (FixtureBuilder, addr, enc_aave_v2v3_liquidation,
                              enc_answer_updated, enc_balancer_v1_swap)
from mevlens.opportunity import (DEFAULT_HORIZON, FOUND, NOT_FOUND, UNSIMULATABLE,
                                 OpportunityResult,
                                 StateProvider, block_distance_cdf,
                                 detect_competition,
                                 find_arbitrage_opportunity,
                                 find_liquidation_opportunity)
from conftest import (TOKEN_A, TOKEN_B, TOKEN_C, VENUE_1, VENUE_2, VENUE_3, VENUE_4,
                      build_planted_arb_dataset, make_swap)

A, B = addr(0xA1), addr(0xB1)
P1, P2 = addr(0xD1), addr(0xD2)
F = 200  # finding block


def _finding(tx=b"\x10" * 32):
    cycle = (make_swap(A, B, 1000, 999, P1, position=(F, 0, 0), tx_hash=tx),
             make_swap(B, A, 999, 1008, P2, position=(F, 0, 1), tx_hash=tx))
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
        r = find_arbitrage_opportunity(_finding(), ds, provider)
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
    r = find_arbitrage_opportunity(_finding(), ds, provider)
    assert r.status == FOUND and r.block_distance == 0
    assert r.opportunity_tx is None and r.approximate


def test_planted_distance_101_not_found():
    ds, provider, _ = plant_arb_scenario(101)
    r = find_arbitrage_opportunity(_finding(), ds, provider)
    assert r.status == NOT_FOUND


def test_no_candidate_swaps_not_found():
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _imbalanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F)
    fb.block(number=F)
    fb.tx()
    r = find_arbitrage_opportunity(_finding(), fb.dataset(), provider)
    assert r.status == NOT_FOUND


def test_missing_pool_state_unsimulatable():
    ds, provider, _ = plant_arb_scenario(5)
    bare = StateProvider()  # no pool snapshots at all
    r = find_arbitrage_opportunity(_finding(), ds, bare)
    assert r.status == UNSIMULATABLE


# --- liquidations ---

def _liq_finding(protocol="aave_v2v3", tx=b"\x20" * 32):
    action = LiquidationAction(protocol=protocol, liquidator=addr(6),
                               borrower=addr(5), debt_token=B, debt_amount=100,
                               collateral_token=A, collateral_amount=150,
                               position=(F, 0, 0), tx_hash=tx)
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
    r = find_liquidation_opportunity(_liq_finding(), ds, provider)
    assert r.status == FOUND and r.block_distance == 7
    assert r.opportunity_tx == txs[F - 7]


def test_hf_closed_at_closest_is_boundary():
    ds, txs = _oracle_fixture([F - 3])
    provider = StateProvider()
    provider.add_health(addr(5), 0, Fraction(101, 100))
    r = find_liquidation_opportunity(_liq_finding(), ds, provider)
    assert r.status == FOUND and r.block_distance == 0 and r.approximate


def test_shortfall_never_zero_not_found():
    ds, _ = _oracle_fixture([F - 3, F - 50])
    provider = StateProvider()
    provider.add_shortfall(addr(5), 0, 42)
    r = find_liquidation_opportunity(_liq_finding("compound_v2"), ds, provider)
    assert r.status == NOT_FOUND


def test_shortfall_stop_rule():
    ds, txs = _oracle_fixture([F - 4, F - 9])
    provider = StateProvider()
    provider.add_shortfall(addr(5), 0, 0)
    provider.add_shortfall(addr(5), F - 9, 17)
    r = find_liquidation_opportunity(_liq_finding("compound_v2"), ds, provider)
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


def pool_row(pool, reserves=("1000", "2000")):
    return {"kind": "pool", "key": "0x" + pool.hex(), "block": 3,
            "value": {"reserves": list(reserves)}}


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


def test_not_found_status_names_the_horizon():
    # no candidate swap within 5 blocks
    ds, provider, _ = plant_arb_scenario(6)
    r = find_arbitrage_opportunity(_finding(), ds, provider, horizon=5)
    assert r.status == "not_found_within_5"
    # a candidate, but the cycle stays profitable past the horizon
    provider = StateProvider()
    provider.add_pool(P1, 0, _balanced())
    provider.add_pool(P2, 0, _imbalanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F - 2)
    fb.block(number=F - 2)
    fb.tx()
    fb.log(P2, *enc_balancer_v1_swap(addr(0xEE), B, A, 10 ** 5, 1008 * 10 ** 2))
    r = find_arbitrage_opportunity(_finding(), fb.dataset(), provider, horizon=5)
    assert r.status == "not_found_within_5"
    assert NOT_FOUND == "not_found_within_100"


# --- the walk's per-state-set memo against a fresh simulation per block ---

def _literal_walk(finding, dataset, provider, horizon=DEFAULT_HORIZON):
    """find_arbitrage_opportunity written out block by block, simulating
    every block afresh; returns the result and the pool states of every
    block it simulated."""
    finding_block = finding.cycle[0].position[0]
    venues = {s.venue for s in finding.cycle}
    candidates = {}
    for log in dataset.logs:
        if (finding_block - horizon <= log.block_number < finding_block
                and log.address in venues and decode_swap(log) is not None):
            candidates.setdefault(log.block_number, log.tx_hash)
    if not candidates:
        return OpportunityResult(f"not_found_within_{horizon}"), []
    path = [PathHop(s.venue, s.token_in, s.token_out) for s in finding.cycle]
    amount_in = finding.cycle[0].amount_in
    simulated = []
    last_open = None
    for block in range(finding_block - 1, max(finding_block - horizon - 2, -1), -1):
        states = tuple(provider.pool_state(hop.pool_key, block) for hop in path)
        if any(state is None for state in states):
            return OpportunityResult(UNSIMULATABLE), simulated
        simulated.append(states)
        pools = {hop.pool_key: state for hop, state in zip(path, states)}
        try:
            final, _ = simulate_path(pools, path, amount_in)
        except MevlensError:
            return OpportunityResult(UNSIMULATABLE), simulated
        if final <= amount_in:
            if last_open is None:
                return OpportunityResult(FOUND, None, 0, approximate=True), simulated
            tx = candidates.get(last_open)
            return (OpportunityResult(FOUND, tx, finding_block - last_open,
                                      approximate=tx is None), simulated)
        if block >= finding_block - horizon:
            last_open = block
    return OpportunityResult(f"not_found_within_{horizon}"), simulated


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

    def counting(pools, path, amount_in):
        calls.append(amount_in)
        return simulate_path(pools, path, amount_in)

    monkeypatch.setattr(opportunity, "simulate_path", counting)
    results, repeats = [], 0
    for finding in detect_arbitrages(extract_swaps(ds)):
        expected, simulated = _literal_walk(finding, ds, provider)
        calls.clear()
        assert find_arbitrage_opportunity(finding, ds, provider) == expected
        assert len(calls) == len(set(simulated))
        repeats += len(simulated) - len(set(simulated))
        results.append(expected)
    assert repeats > 100
    assert {r.status for r in results} == {FOUND, UNSIMULATABLE, NOT_FOUND}
    assert any(r.block_distance for r in results) and any(r.approximate for r in results)
