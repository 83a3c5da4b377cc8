import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mevlens.amm import cp_pool, dump_pool_metadata, stable_pool, swap_out
from mevlens.chain_model import ARBITRUM, dump_fixture
from mevlens.cli import main
from mevlens.crosslayer import (AttackScenario, CostModel, CrossLayerLink,
                                DEFAULT_CAPITAL_TIERS_USD, DEFAULT_REACTION_TIME_S, S1,
                                S2, S3, STRATEGIES, VictimCandidate, VictimSwap, WEI,
                                capital_sweep, delay_stats, infer_victims,
                                load_attack_config, optimal_frontrun,
                                simulate_strategy, victim_realized_out,
                                _sandwich_gross, _VictimSizing)
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

def _scenario(pool, victim, strategy=S2, capital=None, costs=COSTS):
    return AttackScenario(strategy=strategy, victim=victim, pool_state=pool,
                          costs=costs, capital_eth=capital,
                          token_in_price_eth=Fraction(10 ** 12))


def test_scenario_rejects_non_positive_price():
    """The frontrun size divides by the price, and capital_sweep skips an
    Infeasible scenario, so a price that is not positive is rejected at
    construction with another error, and the sweep does not drop it."""
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    for price in (Fraction(0), Fraction(-1)):
        with pytest.raises(InvalidScenario):
            AttackScenario(strategy=S1, victim=_victim(), pool_state=pool, costs=COSTS,
                           capital_eth=Fraction(1), token_in_price_eth=price)
        with pytest.raises(InvalidScenario):
            capital_sweep([{"victim": _victim(), "pool_state": pool,
                            "token_in_price_eth": price, "eth_usd": Fraction(2000)}], COSTS)
    assert not issubclass(InvalidScenario, Infeasible)


def test_zero_slippage_victim_unattackable():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    victim = _victim(min_out=quote)
    x, gross = optimal_frontrun(_scenario(pool, victim))
    assert x == 0 and gross == 0
    result = simulate_strategy(_scenario(pool, victim))
    assert result.profit <= 0 and not result.profitable


def test_frontrun_worked_example_matches_grid():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    min_out = quote - quote * 2 // 100
    victim = _victim(min_out=min_out)
    x, gross = optimal_frontrun(_scenario(pool, victim))
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
        x, gross = optimal_frontrun(_scenario(pool, victim))
        gx, gg = grid_frontrun(pool, victim.swap)
        assert abs(x - gx) <= 1 or gross == gg
        assert gross >= gg - 1
        assert victim_realized_out(pool, victim.swap, x) >= min_out


def test_frontrun_capital_cap():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = victim_realized_out(pool, _victim().swap, 0)
    victim = _victim(min_out=quote - quote * 5 // 100)
    unc_x, _ = optimal_frontrun(_scenario(pool, victim))
    cap_units = unc_x // 2
    capital = Fraction(cap_units) * Fraction(10 ** 12) / WEI
    x, gross = optimal_frontrun(_scenario(pool, victim, capital=capital))
    gx, gg = grid_frontrun(pool, victim.swap, capital_units=cap_units)
    assert x <= cap_units
    assert gross == gg


def test_assumed_slippage_fallback():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(min_out=None)
    x, gross = optimal_frontrun(_scenario(pool, victim))
    quote = victim_realized_out(pool, victim.swap, 0)
    expected_min = quote - quote * 2 // 100
    gx, gg = grid_frontrun(
        pool, VictimSwap(XL_TA, XL_TB, victim.swap.amount_in, expected_min))
    assert gross == gg


def test_infeasible_when_min_out_unreachable():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(min_out=10 ** 7)
    with pytest.raises(Infeasible):
        optimal_frontrun(_scenario(pool, victim))


_TOKENS = (XL_TA, XL_TB, b"\x0c" * 20)


@st.composite
def _cp_sandwich_case(draw):
    reserves = [draw(st.one_of(st.integers(0, 3), st.integers(1, 10 ** 12)))
                for _ in range(2)]
    fee_den = draw(st.sampled_from([1, 4, 1000, 10 ** 6]))
    fee_num = draw(st.sampled_from(sorted({0, min(3, fee_den - 1), fee_den - 1})))
    # drawing tokens from three addresses covers a token missing from the
    # pool, the reversed direction and a pool listing one token twice
    pool = cp_pool(*reserves, tokens=(draw(st.sampled_from(_TOKENS)),
                                      draw(st.sampled_from(_TOKENS))),
                   fee_num=fee_num, fee_den=fee_den)
    victim = VictimSwap(draw(st.sampled_from(_TOKENS)), draw(st.sampled_from(_TOKENS)),
                        draw(st.one_of(st.just(0), st.integers(1, 10 ** 12))))
    x = draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, 10 ** 12),
                       st.integers(4 * sum(reserves), 4 * sum(reserves) + 10 ** 12)))
    return pool, victim, x


@settings(max_examples=1000, deadline=None)
@given(case=_cp_sandwich_case())
def test_cp_sandwich_kernel_matches_swap_composition(case):
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
    # the StableSwap path composes the same swaps
    stable = stable_pool([10 ** 6, 10 ** 6], tokens=(XL_TA, XL_TB))
    for x in (0, 1, 10 ** 3, 10 ** 5):
        assert _sandwich_gross(stable, forward, x) == oracle_sandwich(stable, forward, x)


# --- strategies ---

def test_strategy_cost_ordering():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(delay=600)
    profits = {}
    for strategy in STRATEGIES:
        profits[strategy] = simulate_strategy(
            _scenario(pool, victim, strategy=strategy)).profit
    assert profits[S3] >= profits[S2] >= profits[S1]


def test_s3_delay_gate():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    victim = _victim(delay=0)
    with pytest.raises(Infeasible):
        simulate_strategy(_scenario(pool, victim, strategy=S3))
    # S1/S2 unaffected
    for strategy in (S1, S2):
        simulate_strategy(_scenario(pool, victim, strategy=strategy))


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
    """``capital_sweep`` as a literal loop: one ``optimal_frontrun`` per
    (tier, victim), each resolving the victim's slippage floor and probe
    on its own, and no search reused."""
    gains = {}
    for tier in tiers_usd:
        for i, vs in enumerate(victim_scenarios):
            capital_eth = None if tier is None else Fraction(tier) / vs["eth_usd"]
            scenario = AttackScenario(
                strategy=S1, victim=vs["victim"], pool_state=vs["pool_state"], costs=costs,
                capital_eth=capital_eth, token_in_price_eth=vs["token_in_price_eth"],
                reaction_time_s=reaction_time_s)
            try:
                _, gross_tokens = optimal_frontrun(scenario)
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
    1000 USD tier from binding to loose; for the first victim it is set so
    that the tier's bound equals the victim's x_slip exactly."""
    scenarios = []
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
            x_slip = _VictimSizing(pool, vs["victim"].swap).x_slip
            vs["token_in_price_eth"] = Fraction(1000 * WEI) / (vs["eth_usd"] * x_slip)
            assert _capital_units(vs, 1000) == x_slip
        scenarios.append(vs)
    return scenarios


def test_capital_sweep_matches_per_tier_loop():
    assert (capital_sweep(build_victim_scenarios(50), COSTS)
            == per_tier_sweep(build_victim_scenarios(50), COSTS, DEFAULT_CAPITAL_TIERS_USD))
    rng = random.Random(0x5EE9)
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

    def counted_search(scenario, *args):
        searches.append(scenario)
        return search(scenario, *args)

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

def _simulate(tmp_path, price="0.000001", snapshot=None, pools=None, config=None):
    """Run `crosslayer simulate` over the cross-layer fixture; `snapshot`
    is an extra snapshot line after a valid one, `pools` replaces the pool
    metadata text and `config`, when given, is the attack config text."""
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
    lines = [json.dumps(pool_row(XL_POOL, ["1000000", "1000000"]))]
    if snapshot is not None:
        lines.append(snapshot)
    snapshots.write_text("\n".join(lines) + "\n")
    prices = tmp_path / "prices.csv"
    rows = ["token_address,day,price_eth"]
    for day in sorted({b.timestamp // 86400 for b in l1.blocks}):
        rows += [f"0x{XL_TA.hex()},{day},{price}", f"ETHUSD,{day},2000"]
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
