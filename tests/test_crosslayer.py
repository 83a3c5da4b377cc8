import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mevlens.amm import cp_pool, dump_pool_metadata, stable_pool, swap_out
from mevlens.chain_model import ARBITRUM, dump_fixture
from mevlens.cli import main
from mevlens.crosslayer import (CostModel, CrossLayerLink, DEFAULT_CAPITAL_TIERS_USD,
                                DEFAULT_COSTS, DEFAULT_REACTION_TIME_S, S1, S2, S3,
                                STRATEGIES, VictimCandidate, VictimSwap, WEI,
                                capital_sweep, delay_stats, infer_victims,
                                load_attack_config, optimal_frontrun,
                                victim_realized_out, _sandwich_gross, _VictimSizing)
from mevlens.amm import load_pool_metadata
from mevlens.reporting import summary_stats
from mevlens.errors import (EmptyInput, Infeasible, InvalidScenario, MalformedRecord,
                            MevlensError)
from conftest import (XL_DELAYS, XL_POOL, XL_TA, XL_TB, build_crosslayer_fixture,
                      build_victim_scenarios, xl_pools_meta)
from test_opportunity import malformed_snapshots, pool_row

COSTS = CostModel(l1_tx_cost=Fraction(2, 1000), l2_tx_cost=Fraction(1, 10000),
                  bribe=Fraction(1, 1000))


def _link(delay=60):
    return CrossLayerLink(rollup=ARBITRUM, l1_tx=b"\x01" * 32, l2_tx=b"\x02" * 32,
                          link_key=b"\x03", l1_timestamp=1_700_000_000,
                          l2_timestamp=1_700_000_000 + delay, l2_block=1)


def _victim(amount_in=10 ** 4, min_out=None, delay=60):
    return VictimCandidate(
        link=_link(delay),
        swap=VictimSwap(token_in=XL_TA, token_out=XL_TB, amount_in=amount_in,
                        min_amount_out=min_out),
        pool=XL_POOL,
    )


def _swap_or_none(state, token_in, token_out, amount):
    try:
        return swap_out(state, token_in, token_out, amount)
    except (MevlensError, AssertionError):
        return None


def oracle_sandwich(pool, victim_swap, x):
    """Frontrun x, victim trade and backrun composed from amm.swap_out over
    PoolStates: (attacker profit, victim output), or None when a swap
    cannot execute. The reference the frontrun sizing is judged by."""
    v = victim_swap
    if x == 0:
        mid = _swap_or_none(pool, v.token_in, v.token_out, v.amount_in)
        return None if mid is None else (0, mid.amount_out)
    front = _swap_or_none(pool, v.token_in, v.token_out, x)
    if front is None:
        return None
    mid = _swap_or_none(front.post_state, v.token_in, v.token_out, v.amount_in)
    if mid is None:
        return None
    if front.amount_out <= 0:
        return -x, mid.amount_out
    back = _swap_or_none(mid.post_state, v.token_out, v.token_in, front.amount_out)
    return None if back is None else (back.amount_out - x, mid.amount_out)


def grid_frontrun(pool, victim_swap, capital_units=None):
    """Exhaustive scan over every feasible integer frontrun size."""
    min_out = victim_swap.min_amount_out
    best_x, best_g = 0, oracle_sandwich(pool, victim_swap, 0)[0]
    x = 1
    while capital_units is None or x <= capital_units:
        result = oracle_sandwich(pool, victim_swap, x)
        if result is None or result[1] < min_out:
            break
        g = result[0]
        if g > best_g:
            best_x, best_g = x, g
        x += 1
    return best_x, best_g


# --- join ---

def test_crosslayer_join_counts():
    l1, l2s, swap_txs = build_crosslayer_fixture()
    candidates, links, orphans_l1, orphans_l2 = [], [], [], []
    for name in ("arbitrum", "optimism", "zksync"):
        cand, lk, diag = infer_victims(l1, l2s[name], xl_pools_meta())
        candidates += cand
        links += lk
        orphans_l1 += diag["unlinked_l1"]
        orphans_l2 += diag["unlinked_l2"]
    assert len(links) == 25
    assert len(candidates) == 9
    assert len(orphans_l1) == 3 and len(orphans_l2) == 2
    assert sorted(c.link.l2_tx for c in candidates) == sorted(swap_txs)
    for c in candidates:
        assert c.pool == XL_POOL
        assert (c.swap.token_in, c.swap.token_out) == (XL_TA, XL_TB)
        assert c.swap.amount_in == 10 ** 4


def test_join_link_keys_unique():
    l1, l2s, _ = build_crosslayer_fixture()
    for name in ("arbitrum", "optimism", "zksync"):
        _, links, _ = infer_victims(l1, l2s[name], xl_pools_meta())
        keys = [l.link_key for l in links]
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("rollup", ["arbitrum", "optimism", "zksync"])
def test_cli_infer_rows_carry_the_l2_block(tmp_path, rollup):
    """Each victim row names the block of its L2 execution: that of the L2
    transaction record with the row's hash."""
    l1, l2s, _ = build_crosslayer_fixture()
    dump_fixture(l1, tmp_path / "ethereum.jsonl")
    dump_fixture(l2s[rollup], tmp_path / f"{rollup}.jsonl")
    dump_pool_metadata(xl_pools_meta(), tmp_path / "pools.json")
    out = tmp_path / "out"
    assert main(["crosslayer", "infer", "--chain", rollup, "--fixtures", str(tmp_path),
                 "--pools", str(tmp_path / "pools.json"), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "victims.jsonl").read_text().splitlines()]
    assert len(rows) == {"arbitrum": 4, "optimism": 4, "zksync": 1}[rollup]
    for row in rows:
        tx = l2s[rollup].tx(bytes.fromhex(row["tx_hash"][2:]))
        assert row["block"] == tx.block_number > 0


# --- delay statistics ---

def test_delay_stats_matches_sort_oracle():
    l1, l2s, _ = build_crosslayer_fixture()
    links = []
    for name in ("arbitrum", "optimism", "zksync"):
        links += infer_victims(l1, l2s[name], xl_pools_meta())[1]
    overall, monthly, anomalies = delay_stats(links)
    xs = sorted(XL_DELAYS)
    assert overall.count == 25
    assert overall.min == xs[0] and overall.max == xs[-1]
    assert overall.median == xs[len(xs) // 2]  # odd count
    assert overall.mean == Fraction(sum(xs), len(xs))
    assert anomalies == []
    assert sum(s.count for s in monthly.values()) == 25


def test_delay_stats_worked_example():
    links = [_link(d) for d in (0, 60, 120, 600)]
    overall, _, _ = delay_stats(links)
    assert (overall.min, overall.median, overall.mean, overall.max) == \
        (0, 90, 195, 600)


def test_delay_single_link():
    overall, _, _ = delay_stats([_link(60)])
    assert (overall.min, overall.median, overall.mean, overall.max) == (60, 60, 60, 60)


def test_negative_delay_is_anomaly():
    overall, _, anomalies = delay_stats([_link(60), _link(-5)])
    assert overall.count == 1 and len(anomalies) == 1
    with pytest.raises(EmptyInput):
        delay_stats([_link(-1)])


# --- optimal frontrun ---

def _sweep_one(pool, victim, price=Fraction(10 ** 12), tiers=DEFAULT_CAPITAL_TIERS_USD,
               reaction_time_s=DEFAULT_REACTION_TIME_S):
    """``capital_sweep`` over the one victim ``victim`` on ``pool``."""
    return capital_sweep([{"victim": victim, "pool_state": pool, "token_in_price_eth": price,
                           "eth_usd": Fraction(2000)}], COSTS, tiers, reaction_time_s)


def test_sweep_rejects_non_positive_price():
    """The frontrun bound divides by the price, and capital_sweep skips an
    Infeasible victim, so a price that is not positive is rejected with
    another error before the victim is sized: also for a victim whose own
    trade breaks its slippage floor."""
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    for victim in (_victim(), _victim(min_out=10 ** 7)):
        for price in (Fraction(0), Fraction(-1)):
            with pytest.raises(InvalidScenario, match="token_in_price_eth must be positive"):
                _sweep_one(pool, victim, price=price)
    assert not issubclass(InvalidScenario, Infeasible)


def test_zero_slippage_victim_unattackable():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    victim = _victim(min_out=quote)
    x, gross = optimal_frontrun(pool, victim.swap)
    assert x == 0 and gross == 0
    # a zero gain minus a positive cost: no strategy profits at any tier
    table = _sweep_one(pool, victim, price=Fraction(10 ** 18))
    assert all(table[s][t]["count"] == 0 and table[s][t]["total"] == 0
               for s in STRATEGIES for t in DEFAULT_CAPITAL_TIERS_USD)
    assert min(COSTS.total(s) for s in STRATEGIES) > 0


def test_frontrun_worked_example_matches_grid():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    min_out = quote - quote * 2 // 100
    victim = _victim(min_out=min_out)
    x, gross = optimal_frontrun(pool, victim.swap)
    gx, gg = grid_frontrun(pool, victim.swap)
    assert gross == gg
    assert abs(x - gx) <= 1 or gross == gg
    assert victim_realized_out(pool, victim.swap, x) >= min_out


def test_frontrun_randomized_against_grid():
    rng = random.Random(12)
    for _ in range(40):
        reserve = rng.randint(5 * 10 ** 4, 5 * 10 ** 5)
        pool = cp_pool(reserve, rng.randint(5 * 10 ** 4, 5 * 10 ** 5),
                       tokens=(XL_TA, XL_TB), fee_num=rng.choice([0, 3]),
                       fee_den=1000)
        amount = rng.randint(reserve // 100, reserve // 10)
        quote = victim_realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
        slip = rng.choice([1, 2, 5])
        min_out = quote - quote * slip // 100
        victim = _victim(amount_in=amount, min_out=min_out)
        x, gross = optimal_frontrun(pool, victim.swap)
        gx, gg = grid_frontrun(pool, victim.swap)
        assert abs(x - gx) <= 1 or gross == gg
        assert gross >= gg - 1
        assert victim_realized_out(pool, victim.swap, x) >= min_out


def test_frontrun_capital_cap():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    victim = _victim(min_out=quote - quote * 5 // 100)
    unc_x, _ = optimal_frontrun(pool, victim.swap)
    cap_units = unc_x // 2
    x, gross = optimal_frontrun(pool, victim.swap, cap_units)
    gx, gg = grid_frontrun(pool, victim.swap, capital_units=cap_units)
    assert x <= cap_units
    assert gross == gg


def test_assumed_slippage_fallback():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(min_out=None)
    x, gross = optimal_frontrun(pool, victim.swap)
    quote = victim_realized_out(pool, victim.swap, 0)
    expected_min = quote - quote * 2 // 100
    gx, gg = grid_frontrun(
        pool, VictimSwap(XL_TA, XL_TB, victim.swap.amount_in, expected_min))
    assert gross == gg


def test_stable_frontrun_holds_the_floor_under_output_jitter():
    """Integer Newton steps make this victim's output jitter across its
    floor below the bisected x_slip (586,825): 586,791 is the first size
    that breaks it, and 21 sizes up to x_slip do."""
    pool = stable_pool([931532, 835827])
    victim = VictimSwap(pool.tokens[0], pool.tokens[1], 71687, 70192)
    assert _VictimSizing(pool, victim).x_slip == 586825
    assert victim_realized_out(pool, victim, 586791) == 70191
    x, gross = optimal_frontrun(pool, victim)
    assert x <= 586790
    assert victim_realized_out(pool, victim, x) >= 70192
    assert gross == _sandwich_gross(pool, victim, x)[0] > 0


@st.composite
def _stable_victim_near_floor(draw):
    """A StableSwap pool scarce in the victim's input token, so that a
    1-unit frontrun pays out, and a floor a few units under the quote."""
    r_in = draw(st.integers(10 ** 4, 10 ** 6))
    pool = stable_pool([r_in, r_in * draw(st.integers(2, 20))],
                       amp=draw(st.sampled_from([1, 10, 200])), tokens=(XL_TA, XL_TB))
    amount = draw(st.integers(r_in // 100, r_in // 5))
    quote = victim_realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
    assume(quote is not None)
    return pool, VictimSwap(XL_TA, XL_TB, amount, quote - draw(st.integers(0, 200)))


@settings(max_examples=60, deadline=None)
@given(case=_stable_victim_near_floor())
def test_stable_frontrun_matches_grid_near_floor(case):
    """With x_slip at most 1024 the final scan covers all of [0, x_slip],
    so the search returns what the grid returns: the best size before the
    first one that breaks the floor."""
    pool, victim = case
    assume(1 <= _VictimSizing(pool, victim).x_slip <= 1024)
    assert optimal_frontrun(pool, victim) == grid_frontrun(pool, victim)


def test_infeasible_when_min_out_unreachable():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(min_out=10 ** 7)
    with pytest.raises(Infeasible):
        optimal_frontrun(pool, victim.swap)


_TOKENS = (XL_TA, XL_TB, b"\x0c" * 20)


@st.composite
def _sandwich_case(draw, stable=False):
    n = draw(st.integers(2, 3)) if stable else 2
    reserves = [draw(st.one_of(st.integers(0, 3), st.integers(1, 10 ** 12)))
                for _ in range(n)]
    fee_den = draw(st.sampled_from([1, 4, 1000, 10 ** 6]))
    fee_num = draw(st.sampled_from(sorted({0, min(3, fee_den - 1), fee_den - 1})))
    # drawing tokens from three addresses covers a token missing from the
    # pool, the reversed direction and a pool listing one token twice
    tokens = tuple(draw(st.sampled_from(_TOKENS)) for _ in range(n))
    if stable:
        pool = stable_pool(reserves, tokens=tokens, amp=draw(st.sampled_from([1, 200, 10 ** 4])),
                           fee_num=fee_num, fee_den=fee_den)
    else:
        pool = cp_pool(*reserves, tokens=tokens, fee_num=fee_num, fee_den=fee_den)
    victim = VictimSwap(draw(st.sampled_from(_TOKENS)), draw(st.sampled_from(_TOKENS)),
                        draw(st.one_of(st.just(0), st.integers(1, 10 ** 12))))
    x = draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, 10 ** 12),
                       st.integers(4 * sum(reserves), 4 * sum(reserves) + 10 ** 12)))
    return pool, victim, x


@settings(max_examples=1300, deadline=None)
@given(case=st.one_of(_sandwich_case(), _sandwich_case(stable=True)))
def test_sandwich_kernel_matches_swap_composition(case):
    pool, victim, x = case
    assert _sandwich_gross(pool, victim, x) == oracle_sandwich(pool, victim, x)


def test_sandwich_gross_none_cases_on_fixed_pools():
    pool = cp_pool(10 ** 6, 2 * 10 ** 6, tokens=(XL_TA, XL_TB))
    forward = VictimSwap(XL_TA, XL_TB, 10 ** 4)
    reverse = VictimSwap(XL_TB, XL_TA, 10 ** 4)
    missing = VictimSwap(b"\x0c" * 20, XL_TB, 10 ** 4)
    empty = cp_pool(0, 10 ** 6, tokens=(XL_TA, XL_TB))
    for p, v in ((pool, forward), (pool, reverse), (pool, missing), (empty, forward),
                 (pool, VictimSwap(XL_TA, XL_TB, 0))):
        for x in (0, 1, 999, 4 * 3 * 10 ** 6):
            assert _sandwich_gross(p, v, x) == oracle_sandwich(p, v, x)
    assert _sandwich_gross(pool, missing, 5) is None
    assert _sandwich_gross(empty, forward, 0) is None
    # one kernel for both kinds: a 1-unit StableSwap frontrun pays nothing
    # and raises DrainedPool, where a constant-product one may pay 0
    stable = stable_pool([10 ** 6, 10 ** 6], tokens=(XL_TA, XL_TB))
    for x in (0, 1, 10 ** 3, 10 ** 5):
        assert _sandwich_gross(stable, forward, x) == oracle_sandwich(stable, forward, x)
    assert _sandwich_gross(stable, forward, 1) is None
    tiny = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB), fee_num=0, fee_den=1)
    assert _sandwich_gross(tiny, forward, 1) == (-1, victim_realized_out(tiny, forward, 0))


# --- strategies ---

def test_strategy_cost_ordering():
    """S3 pays two L2 fees, S2 one L1 and one L2 fee, S1 two L1 fees and a
    bribe: on one victim's gain the profits order S3 >= S2 >= S1."""
    assert DEFAULT_COSTS == COSTS   # a run without --config prices as these tests do
    assert COSTS.total(S1) == Fraction(5, 1000) and COSTS.total(S2) == Fraction(21, 10000)
    assert COSTS.total(S3) == Fraction(2, 10000)
    with pytest.raises(ValueError):
        COSTS.total("S4")
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(delay=600)
    _, gross = optimal_frontrun(pool, victim.swap)
    price = Fraction(WEI, 100)   # 0.01 ETH a unit: every strategy profits
    table = _sweep_one(pool, victim, price=price, tiers=(None,))
    totals = [table[s][None]["total"] for s in (S3, S2, S1)]
    assert totals == [(gross * Fraction(1, 100) - COSTS.total(s)) * 2000 for s in (S3, S2, S1)]
    assert totals == sorted(totals, reverse=True) and totals[-1] > 0


def test_s3_delay_gate():
    """S3 counts a victim only when its inclusion delay is at least the
    reaction time; S1 and S2 count it whatever the delay."""
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    price = Fraction(WEI, 100)
    for delay, s3_count in ((0, 0), (44, 0), (45, 1), (600, 1)):
        table = _sweep_one(pool, _victim(delay=delay), price=price, tiers=(None,),
                           reaction_time_s=45)
        assert table[S3][None]["count"] == s3_count
        assert table[S1][None]["count"] == table[S2][None]["count"] == 1


def test_capital_sweep_monotone_on_fifty_victims():
    scenarios = build_victim_scenarios(50)
    table = capital_sweep(scenarios, COSTS)
    tiers = list(DEFAULT_CAPITAL_TIERS_USD)
    for strategy in STRATEGIES:
        counts = [table[strategy][t]["count"] for t in tiers]
        totals = [table[strategy][t]["total"] for t in tiers]
        assert counts == sorted(counts)
        assert totals == sorted(totals)
    # S3 is cheapest per attack: never fewer profitable victims among
    # delay-feasible scenarios than S2 restricted to the same set
    assert table[S3][None]["count"] >= 1
    assert table[S2][None]["count"] >= table[S1][None]["count"]


def per_tier_sweep(victim_scenarios, costs, tiers_usd,
                   reaction_time_s=DEFAULT_REACTION_TIME_S):
    """``capital_sweep`` as a literal loop: one fresh
    ``optimal_frontrun(pool, swap, capital_units)`` per (tier, victim),
    each resolving the victim's slippage floor and probe on its own, and
    no search reused."""
    gains = {}
    for tier in tiers_usd:
        for i, vs in enumerate(victim_scenarios):
            capital_units = None if tier is None else _capital_units(vs, tier)
            try:
                _, gross_tokens = optimal_frontrun(vs["pool_state"], vs["victim"].swap,
                                                   capital_units)
            except Infeasible:
                continue
            gains[tier, i] = Fraction(gross_tokens, WEI) * vs["token_in_price_eth"]
    table = {}
    for strategy in STRATEGIES:
        table[strategy] = {}
        for tier in tiers_usd:
            profits_usd = []
            for i, vs in enumerate(victim_scenarios):
                if (tier, i) not in gains:
                    continue
                if strategy == S3 and vs["victim"].link.delay_s < reaction_time_s:
                    continue
                profit = gains[tier, i] - costs.total(strategy)
                if profit > 0:
                    profits_usd.append(profit * vs["eth_usd"])
            cell = summary_stats(profits_usd)
            cell["count"] = len(profits_usd)
            if not profits_usd:
                cell["total"] = Fraction(0)
            table[strategy][tier] = cell
    return table


SWEEP_TIERS = [0, 1000, 10 ** 5, None]


def _capital_units(vs, tier):
    return int(Fraction(tier) / vs["eth_usd"] * WEI / vs["token_in_price_eth"])


def _random_victim_scenarios(rng, n):
    """Constant-product and StableSwap victims, with a stated or an assumed
    slippage floor or an unreachable one. The token price spreads the
    1000 USD tier from binding to loose. The first victim gets a 2% floor;
    for the first victim with a positive x_slip the price is set so that
    the tier's bound equals that x_slip exactly."""
    scenarios = []
    bound_set = False
    for i in range(n):
        reserve = rng.randint(10 ** 5, 10 ** 6)
        if rng.random() < 0.25:
            pool = stable_pool([reserve, rng.randint(10 ** 5, 10 ** 6)], tokens=(XL_TA, XL_TB))
        else:
            pool = cp_pool(reserve, rng.randint(10 ** 5, 10 ** 6), tokens=(XL_TA, XL_TB),
                           fee_num=rng.choice([0, 3]), fee_den=1000)
        amount = rng.randint(reserve // 200, reserve // 10)
        quote = victim_realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
        min_out = rng.choice([None, quote - quote * rng.choice([1, 2, 5]) // 100,
                              quote + 1])
        vs = {"victim": _victim(amount_in=amount, min_out=min_out,
                                delay=rng.choice([0, 45, 600])),
              "pool_state": pool,
              "token_in_price_eth": Fraction(10 ** 12) * rng.choice([1, 100, 10 ** 4]),
              "eth_usd": Fraction(rng.randint(1000, 4000))}
        if i == 0:
            vs["victim"] = _victim(amount_in=amount, min_out=quote - quote * 2 // 100)
        if not bound_set:
            try:
                x_slip = _VictimSizing(pool, vs["victim"].swap).x_slip
            except Infeasible:
                x_slip = 0
            if x_slip > 0:
                vs["token_in_price_eth"] = Fraction(1000 * WEI) / (vs["eth_usd"] * x_slip)
                assert _capital_units(vs, 1000) == x_slip
                bound_set = True
        scenarios.append(vs)
    return scenarios


def test_capital_sweep_matches_per_tier_loop():
    assert (capital_sweep(build_victim_scenarios(50), COSTS)
            == per_tier_sweep(build_victim_scenarios(50), COSTS, DEFAULT_CAPITAL_TIERS_USD))
    for seed in (0x5EE9, 99, 7):
        rng = random.Random(seed)
        for _ in range(6):
            scenarios = _random_victim_scenarios(rng, 8)
            assert (capital_sweep(scenarios, COSTS, SWEEP_TIERS, 45)
                    == per_tier_sweep(scenarios, COSTS, SWEEP_TIERS, 45))


def test_capital_sweep_sizes_each_victim_once_per_distinct_bound(monkeypatch):
    """The slippage probe runs once per victim whatever the tiers; the
    search runs once per distinct frontrun bound min(x_slip, capital)."""
    import mevlens.crosslayer as crosslayer
    probes, x_slips, searches = [], [], []
    probe, search = crosslayer._max_input_within_slippage, crosslayer.optimal_frontrun

    def counted_probe(pool, victim):
        probes.append(victim)
        x_slips.append(probe(pool, victim))
        return x_slips[-1]

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(crosslayer, "_max_input_within_slippage", counted_probe)
    monkeypatch.setattr(crosslayer, "optimal_frontrun", counted_search)
    scenarios = build_victim_scenarios(20)
    # a victim whose floor its own trade already breaks: probed, never searched
    scenarios.append(dict(scenarios[0], victim=_victim(min_out=10 ** 12)))
    table = capital_sweep(scenarios, COSTS, SWEEP_TIERS)
    assert len(probes) == len(scenarios) and len(x_slips) == len(scenarios) - 1
    expected = sum(len({x_slip if tier is None else min(x_slip, _capital_units(vs, tier))
                        for tier in SWEEP_TIERS})
                   for vs, x_slip in zip(scenarios, x_slips))
    assert len(searches) == expected < 20 * len(SWEEP_TIERS)
    monkeypatch.undo()
    assert table == per_tier_sweep(scenarios, COSTS, SWEEP_TIERS)


def test_empty_sweep():
    table = capital_sweep([], COSTS)
    for strategy in STRATEGIES:
        for tier in DEFAULT_CAPITAL_TIERS_USD:
            assert table[strategy][tier]["count"] == 0


def test_load_attack_config(tmp_path):
    path = tmp_path / "attack.json"
    path.write_text(json.dumps({
        "l1_tx_cost_eth": "0.002", "l2_tx_cost_eth": "0.0001",
        "bribe_eth": "0.001", "reaction_time_s": 45,
        "capital_tiers_usd": [1000, 10000, "inf"],
    }))
    costs, reaction, tiers = load_attack_config(path)
    assert costs == COSTS
    assert reaction == 45 and tiers == (1000, 10000, None)


# --- `crosslayer simulate` on malformed sidecars ---

def _simulate(tmp_path, price="0.000001", snapshot=None, pools=None, config=None,
              pool_snapshot=True, priced_token=XL_TA):
    """Run `crosslayer simulate` over the cross-layer fixture; `snapshot`
    is an extra snapshot line after a valid one, `pools` replaces the pool
    metadata text and `config`, when given, is the attack config text.
    Without `pool_snapshot` the victims' pool has none; the prices name
    `priced_token` and ETHUSD."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir(parents=True)
    l1, l2s, _ = build_crosslayer_fixture()
    dump_fixture(l1, fixtures / "ethereum.jsonl")
    dump_fixture(l2s["arbitrum"], fixtures / "arbitrum.jsonl")
    if pools is None:
        dump_pool_metadata(xl_pools_meta(), tmp_path / "pools.json")
    else:
        (tmp_path / "pools.json").write_text(pools)
    options = []
    if config is not None:
        (tmp_path / "attack.json").write_text(config)
        options = ["--config", str(tmp_path / "attack.json")]
    snapshots = tmp_path / "snap.jsonl"
    lines = [json.dumps(pool_row(XL_POOL, ["1000000", "1000000"]))] if pool_snapshot else []
    if snapshot is not None:
        lines.append(snapshot)
    snapshots.write_text("".join(line + "\n" for line in lines))
    prices = tmp_path / "prices.csv"
    rows = ["token_address,day,price_eth"]
    for day in sorted({b.timestamp // 86400 for b in l1.blocks}):
        rows += [f"0x{priced_token.hex()},{day},{price}", f"ETHUSD,{day},2000"]
    prices.write_text("\n".join(rows) + "\n")
    return main(["crosslayer", "simulate", "--chain", "arbitrum",
                 "--fixtures", str(fixtures), "--pools", str(tmp_path / "pools.json"),
                 "--snapshots", str(snapshots), "--prices", str(prices),
                 "--out", str(tmp_path / "out"), *options])


def test_cli_simulate_zero_price_exit_1(tmp_path, capsys):
    assert _simulate(tmp_path / "ok") == 0
    assert _simulate(tmp_path / "zero", price="0") == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'zero' / 'prices.csv'}: line 2: price" in err
    assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize("missing, counts", [(None, (0, 0)), ("snapshot", (4, 0)),
                                             ("price", (0, 4))])
def test_cli_simulate_logs_the_victims_it_skips(tmp_path, caplog, capsys, missing, counts):
    """One INFO line says how many victims the run read and how many it
    skipped for want of a pool snapshot or a price; stdout stays as it was."""
    with caplog.at_level(logging.INFO, logger="mevlens"):
        assert _simulate(tmp_path, pool_snapshot=missing != "snapshot",
                         priced_token=XL_TB if missing == "price" else XL_TA) == 0
    assert ("victims: 4 read, %d skipped for no pool snapshot, %d skipped for no price"
            % counts) in [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    out = capsys.readouterr().out
    assert out == f"{4 - sum(counts)} scenarios -> {tmp_path / 'out' / 'attack_tables.csv'}\n"


@pytest.mark.parametrize("name", sorted(malformed_snapshots(XL_POOL, XL_TA)))
def test_cli_simulate_malformed_snapshot_exit_1(tmp_path, capsys, name):
    snapshot = malformed_snapshots(XL_POOL, XL_TA)[name]
    assert _simulate(tmp_path, snapshot=snapshot) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'snap.jsonl'}: line 2: " in err
    assert "internal error" not in err and "Traceback" not in err


def _pools_text(key="0x" + XL_POOL.hex(), **fields):
    entry = {"kind": "constant_product", "tokens": ["0x" + XL_TA.hex(), "0x" + XL_TB.hex()],
             "fee_num": 3, "fee_den": 1000, "amp": 200}
    entry.update(fields)
    return json.dumps({key: {k: v for k, v in entry.items() if v is not None}})


MALFORMED_POOLS = {
    "invalid_json": '{"0x01": ',
    "top_level_list": "[]",
    "entry_not_object": json.dumps({"0x" + XL_POOL.hex(): "constant_product"}),
    "missing_kind": _pools_text(kind=None),
    "unknown_kind": _pools_text(kind="curve"),
    "non_hex_address": _pools_text(key="0xzz"),
    "non_hex_token": _pools_text(tokens=["0xzz", "0x" + XL_TB.hex()]),
    "three_cp_tokens": _pools_text(tokens=["0x" + XL_TA.hex()] * 3),
    "non_integer_fee_num": _pools_text(fee_num="abc"),
    "non_integer_fee_den": _pools_text(fee_den=1000.5),
    "fee_num_not_below_fee_den": _pools_text(fee_num=1000),
    "non_integer_amp": _pools_text(amp="x"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POOLS))
def test_malformed_pool_metadata_exit_1(tmp_path, capsys, name):
    assert _simulate(tmp_path, pools=MALFORMED_POOLS[name]) == 1
    path = tmp_path / "pools.json"
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "internal error" not in err and "Traceback" not in err
    with pytest.raises(MalformedRecord) as exc:
        load_pool_metadata(path)
    assert str(exc.value).startswith(f"{path}: ")
    if name not in ("invalid_json", "top_level_list"):
        assert "pool '0x" in str(exc.value)


_CONFIG = {"l1_tx_cost_eth": "0.002", "l2_tx_cost_eth": "0.0001", "bribe_eth": "0.001",
           "reaction_time_s": 45, "capital_tiers_usd": [1000, 10000, "inf"]}

MALFORMED_CONFIGS = {
    "invalid_json": ("", '{"l1_tx_cost_eth": '),
    "top_level_list": ("", "[]"),
    "nested_too_deep": ("", "[" * 100_000 + "]" * 100_000),
    "non_decimal_cost": ("l1_tx_cost_eth", json.dumps(dict(_CONFIG, l1_tx_cost_eth="abc"))),
    "missing_cost": ("l2_tx_cost_eth",
                     json.dumps({k: v for k, v in _CONFIG.items() if k != "l2_tx_cost_eth"})),
    "negative_bribe": ("bribe_eth", json.dumps(dict(_CONFIG, bribe_eth=-1))),
    "non_integer_reaction": ("reaction_time_s", json.dumps(dict(_CONFIG, reaction_time_s="fast"))),
    "non_integer_tier": ("capital_tiers_usd",
                         json.dumps(dict(_CONFIG, capital_tiers_usd=[1000, "lots"]))),
    "tiers_not_list": ("capital_tiers_usd", json.dumps(dict(_CONFIG, capital_tiers_usd=1000))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_attack_config_exit_1(tmp_path, capsys, name):
    key, text = MALFORMED_CONFIGS[name]
    assert _simulate(tmp_path / "ok", config=json.dumps(_CONFIG)) == 0
    assert _simulate(tmp_path / "bad", config=text) == 1
    path = tmp_path / "bad" / "attack.json"
    err = capsys.readouterr().err
    assert f"{path}: {key}" in err
    assert "internal error" not in err and "Traceback" not in err
    with pytest.raises(MalformedRecord) as exc:
        load_attack_config(path)
    assert str(exc.value).startswith(f"{path}: {key}")
