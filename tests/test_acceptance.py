"""End-to-end acceptance gate: every numbered guarantee the package makes,
checked against independent oracles and planted ground truth."""

import gc
import random
import time
from fractions import Fraction

from mevlens.amm import _stable_D, cp_pool, swap_out
from mevlens.bytecode import BytecodeRecord, _skeleton, cluster
from mevlens.chain_model import ARBITRUM, ETHEREUM, dump_fixture
from mevlens.cli import main
from mevlens.crosslayer import (CostModel, DEFAULT_CAPITAL_TIERS_USD,
                                DEFAULT_REACTION_TIME_S, S1, S2, S3, STRATEGIES,
                                VictimSwap, capital_sweep, delay_stats, infer_victims,
                                optimal_frontrun)
from mevlens.detectors import (detect_arbitrages, detect_sandwiches,
                               extract_swaps)
from mevlens.fixtures import FixtureBuilder, addr, enc_balancer_v1_swap
from mevlens.opportunity import (FOUND, NOT_FOUND, StateProvider,
                                 find_arbitrage_opportunity,
                                 find_liquidation_opportunity)
from mevlens.reporting import read_findings

from conftest import (XL_DELAYS, build_crosslayer_fixture,
                      build_planted_arb_dataset, build_victim_scenarios,
                      make_transfer, oracle_cycles, oracle_sandwiches, oracle_updates,
                      random_swap_tx, random_transfer_blocks,
                      xl_pools_meta)
from test_amm import cp_formula, stable_residual
from test_bytecode import BODY, cbor_trailer, digest, mutate_push_operands
from test_crosslayer import COSTS, _sweep_one, _victim, grid_frontrun, realized_out
from test_opportunity import (A, B, F, _balanced, _finding, _liq_finding,
                              _oracle_fixture, plant_arb_scenario)


# 1. arbitrage detection equals the brute-force enumerator on 500 random txs
def test_1_arbitrage_oracle_equivalence():
    rng = random.Random(0xACCE01)
    start = time.monotonic()
    for i in range(500):
        tx_hash = i.to_bytes(32, "big")
        swaps = [s._replace(tx_hash=tx_hash) for s in random_swap_tx(rng)]
        found = detect_arbitrages(swaps)
        assert all(f.tx_hash == tx_hash for f in found)
        got = sorted(tuple(s.position for s in f.cycle) for f in found)
        want = sorted(tuple(swaps[j].position for j in cyc)
                      for cyc in oracle_cycles(swaps))
        assert got == want
    assert time.monotonic() - start < 10


# 2. planted demo fixture yields exactly 25 findings with correct cycles
def test_2_planted_cycle_recall():
    ds, expected = build_planted_arb_dataset()
    findings = detect_arbitrages(extract_swaps(ds))
    assert len(findings) == 25
    got = sorted((f.tx_hash, len(f.cycle)) for f in findings)
    assert got == sorted(expected)
    for f in findings:
        head, tail = f.cycle[0], f.cycle[-1]
        assert tail.token_out == head.token_in
        for s, t in zip(f.cycle, f.cycle[1:]):
            assert s.token_out == t.token_in and s.amount_out >= t.amount_in
            assert s.venue != t.venue


# 3. sandwich predicate: worked examples plus L1 == window-1 equivalence
def test_3_sandwich_predicate_fidelity():
    token, d, x, v = addr(0x31), addr(0x41), addr(0x42), addr(0x43)

    def transfers(amount_back=90, back_block=1):
        return [
            make_transfer(token, d, x, 100, (1, 0, 0), b"\x01" * 32),
            make_transfer(token, d, v, 50, (1, 1, 1), b"\x02" * 32),
            make_transfer(token, x, d, amount_back, (back_block, 2, 2),
                          b"\x03" * 32),
        ]

    positive = detect_sandwiches(transfers(), ETHEREUM)
    assert len(positive) == 1
    assert positive[0].victim_txs == (b"\x02" * 32,)
    # amount rule: backrun larger than frontrun
    assert detect_sandwiches(transfers(amount_back=110), ETHEREUM) == []
    # window rule: back tx beyond the L2 window
    assert detect_sandwiches(transfers(back_block=121), ARBITRUM,
                             window=100) == []

    rng = random.Random(0xACCE03)
    for _ in range(100):
        ts = random_transfer_blocks(rng)
        assert detect_sandwiches(ts, ETHEREUM) == \
            detect_sandwiches(ts, ARBITRUM, window=1)
        got = {(f.front_tx, f.back_tx)
               for f in detect_sandwiches(ts, ARBITRUM, window=3)}
        assert got == oracle_sandwiches(ts, 3)


# 4. AMM math is exact: cp closed form, StableSwap root bracketing
def test_4_amm_exactness():
    rng = random.Random(0xACCE04)
    t0 = b"\x00" * 20
    for _ in range(10 ** 4):
        r0 = rng.randint(10, 10 ** 12)
        r1 = rng.randint(10, 10 ** 12)
        fee_den = rng.choice([1, 1000, 10000])
        fee_num = rng.randint(0, min(fee_den - 1, 30))
        x = rng.randint(1, 10 ** 12)
        pool = cp_pool(r0, r1, fee_num=fee_num, fee_den=fee_den)
        assert swap_out(pool, t0, pool.tokens[1], x).amount_out == \
            cp_formula(r0, r1, x, fee_num, fee_den)
    for _ in range(10 ** 3):
        n = rng.choice([2, 3])
        amp = rng.choice([10, 100, 200, 1000])
        xs = [rng.randint(10 ** 5, 10 ** 12) for _ in range(n)]
        d = _stable_D(xs, amp)
        # the integer root lies within one unit of the exact crossing
        assert stable_residual(xs, amp, d - 2) >= 0 >= stable_residual(xs, amp, d + 2)
    for n, x in ((2, 10 ** 6), (3, 10 ** 9)):
        assert _stable_D([x] * n, 200) == n * x


# 5. frontrun sizing matches the brute-force grid on 200 random scenarios
def test_5_optimal_frontrun_correctness():
    rng = random.Random(0xACCE05)
    ta, tb = addr(0x7A1), addr(0x7B2)
    for _ in range(200):
        reserve = rng.randint(10 ** 4, 5 * 10 ** 4)
        pool = cp_pool(reserve, rng.randint(10 ** 4, 5 * 10 ** 4),
                       tokens=(ta, tb), fee_num=rng.choice([0, 3]),
                       fee_den=1000)
        amount = rng.randint(max(1, reserve // 100), reserve // 10)
        quote = realized_out(pool, VictimSwap(ta, tb, amount), 0)
        slip = rng.choice([1, 2])
        min_out = quote - quote * slip // 100
        victim = _victim(amount_in=amount, min_out=min_out)
        x, gross = optimal_frontrun(pool, victim.swap)
        realized = realized_out(pool, victim.swap, x)
        assert realized is not None and realized >= min_out
        assert (x, gross) == grid_frontrun(pool, victim.swap)
    # zero-slippage victims are unattackable
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(ta, tb))
    quote = realized_out(pool, VictimSwap(ta, tb, 10 ** 4), 0)
    victim = _victim(min_out=quote)
    assert optimal_frontrun(pool, victim.swap) == (0, 0)
    table = _sweep_one(pool, victim, price=Fraction(10 ** 18))
    assert all(table[s][t]["count"] == 0 for s in STRATEGIES for t in DEFAULT_CAPITAL_TIERS_USD)


# 6. strategy cost ordering and capital-tier monotonicity on 50 victims
def test_6_strategy_ordering_and_capital_monotonicity():
    scenarios = build_victim_scenarios(50)
    all_profit = 0
    for vs in scenarios:
        # the victim alone, unbounded: each strategy's total is its profit
        # in USD when positive, and the cell is empty otherwise
        one = capital_sweep([vs], COSTS, (None,))
        totals = {s: one[s][None]["total"] for s in STRATEGIES}
        assert totals[S2] >= totals[S1]
        if vs["victim"].link.delay_s < DEFAULT_REACTION_TIME_S:
            assert one[S3][None]["count"] == 0
        else:
            assert totals[S3] >= totals[S2]
            all_profit += all(one[s][None]["count"] == 1 for s in STRATEGIES)
    assert all_profit > 0
    table = capital_sweep(scenarios, COSTS)
    for strategy in STRATEGIES:
        counts = [table[strategy][t]["count"] for t in DEFAULT_CAPITAL_TIERS_USD]
        totals = [table[strategy][t]["total"] for t in DEFAULT_CAPITAL_TIERS_USD]
        assert counts == sorted(counts)
        assert totals == sorted(totals)


# 7. backward opportunity search recovers planted distances exactly
def test_7_opportunity_search_exactness():
    for d in (1, 5, 37, 99, 100):
        ds, provider, tx = plant_arb_scenario(d)
        r = find_arbitrage_opportunity(_finding(), extract_swaps(ds), provider)
        assert r.status == FOUND and r.block_distance == d
        assert r.opportunity_tx == tx
    # d = 0: crossing between the finding and its immediate predecessor
    provider = StateProvider()
    provider.add_pool(addr(0xD1), 0, _balanced())
    provider.add_pool(addr(0xD2), 0, _balanced())
    fb = FixtureBuilder(ETHEREUM, start_block=F - 1)
    fb.block(number=F - 1)
    fb.tx()
    topics, data = enc_balancer_v1_swap(addr(0xEE), B, A, 10, 9)
    fb.log(addr(0xD2), topics, data)
    r = find_arbitrage_opportunity(_finding(), extract_swaps(fb.dataset()), provider)
    assert r.status == FOUND and r.block_distance == 0 and r.approximate

    ds, provider, _ = plant_arb_scenario(101)
    assert find_arbitrage_opportunity(_finding(), extract_swaps(ds),
                                      provider).status == NOT_FOUND

    # liquidation stop rules: hf < 1 (Aave), sf > 0 (Compound)
    ds, txs = _oracle_fixture([F - 2, F - 7, F - 11])
    provider = StateProvider()
    provider.add_health(addr(5), F - 11, Fraction(102, 100))
    provider.add_health(addr(5), F - 7, Fraction(98, 100))
    provider.add_health(addr(5), F - 2, Fraction(97, 100))
    r = find_liquidation_opportunity(_liq_finding(), oracle_updates(ds), provider)
    assert r.status == FOUND and r.block_distance == 7
    ds, txs = _oracle_fixture([F - 4, F - 9])
    provider = StateProvider()
    provider.add_shortfall(addr(5), 0, 0)
    provider.add_shortfall(addr(5), F - 9, 17)
    r = find_liquidation_opportunity(_liq_finding("compound_v2"), oracle_updates(ds), provider)
    assert r.status == FOUND and r.block_distance == 9


# 8. bytecode clustering survives 10^4 operand mutations; exclusions exact
def test_8_bytecode_clustering():
    rng = random.Random(0xACCE08)
    base = digest(BODY + cbor_trailer())
    for _ in range(10 ** 4):
        mutated = mutate_push_operands(BODY, rng) + \
            cbor_trailer(rng.randrange(256))
        assert digest(mutated) == base
    records = [
        BytecodeRecord(ETHEREUM, addr(1), BODY + cbor_trailer(1)),
        BytecodeRecord(ARBITRUM, addr(2), mutate_push_operands(BODY, rng)),
        BytecodeRecord(ETHEREUM, addr(3), BODY, verified=True),
        BytecodeRecord(ETHEREUM, addr(4), BODY + b"\xf4"),
    ]
    clusters = cluster(records)
    assert len(clusters) == 1 and clusters[0].size == 2
    assert {m[1] for m in clusters[0].members} == {addr(1), addr(2)}
    for rec in records:
        skeleton = _skeleton(rec.code)
        assert digest(skeleton) == digest(rec.code)


# 9. cross-layer join recovers the planted candidates and orphans exactly
def test_9_crosslayer_join():
    l1, l2s, swap_txs = build_crosslayer_fixture()
    candidates, links, orphans = [], [], 0
    for name in ("arbitrum", "optimism", "zksync"):
        cand, lk, diag = infer_victims(l1, l2s[name], xl_pools_meta())
        candidates += cand
        links += lk
        orphans += len(diag["unlinked_l1"]) + len(diag["unlinked_l2"])
    assert sorted(c.link.l2_tx for c in candidates) == sorted(swap_txs)
    assert len(candidates) == 9 and orphans == 5 and len(links) == 25
    overall, _, anomalies = delay_stats(links)
    xs = sorted(XL_DELAYS)
    assert anomalies == []
    assert (overall.min, overall.max) == (xs[0], xs[-1])
    assert overall.median == xs[len(xs) // 2]
    assert overall.mean == Fraction(sum(xs), len(xs))


# 10. 100k-log CLI run: < 30 s, byte-identical across runs
def test_10_determinism_and_performance(tmp_path):
    fb = FixtureBuilder(ETHEREUM)
    t_a, t_b, t_c = addr(0xA1), addr(0xB1), addr(0xC1)
    v1, v2, v3 = addr(0xD1), addr(0xD2), addr(0xD3)
    cycle_legs = [
        (v1, enc_balancer_v1_swap(addr(0xEE), t_a, t_b, 100, 205)),
        (v2, enc_balancer_v1_swap(addr(0xEE), t_b, t_c, 205, 310)),
        (v3, enc_balancer_v1_swap(addr(0xEE), t_c, t_a, 310, 120)),
    ]
    noise = (v1, enc_balancer_v1_swap(addr(0xEE), t_a, t_b, 50, 49))
    counter = 0
    total_logs = 0
    while total_logs < 100_000:
        fb.block()
        for _ in range(10):
            counter += 1
            fb.tx(sender=addr(0xBEEF), tx_hash=counter.to_bytes(32, "big"))
            if counter % 4 == 0:
                for venue, (topics, payload) in cycle_legs:
                    fb.log(venue, topics, payload)
                total_logs += 3
            else:
                venue, (topics, payload) = noise
                fb.log(venue, topics, payload)
                fb.log(venue, topics, payload)
                total_logs += 2
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    dump_fixture(fb.dataset(), fixtures / "ethereum.jsonl")

    blobs = []
    for i in range(3):
        out = tmp_path / f"out{i}"
        start = time.monotonic()
        assert main(["detect", "arb", "--fixtures", str(fixtures),
                     "--out", str(out)]) == 0
        assert time.monotonic() - start < 30
        assert gc.get_freeze_count() == 0
        blobs.append((out / "findings_arb.jsonl").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    findings = list(read_findings(tmp_path / "out0" / "findings_arb.jsonl"))
    assert len(findings) == counter // 4
