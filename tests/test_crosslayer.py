import json
import logging
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mevlens.amm import (STABLESWAP, PoolInfo, cp_pool, dump_pool_metadata, stable_pool,
                         swap_out)
from mevlens.bridge import CrossLayerLink, VictimCandidate, VictimSwap, delay_stats, infer_victims
from mevlens.chain_model import ARBITRUM, ETHEREUM, OPTIMISM, ChainDataset
from mevlens.cli import main
from mevlens.crosslayer import (CostModel, DEFAULT_CAPITAL_TIERS_USD, DEFAULT_COSTS,
                                DEFAULT_REACTION_TIME_S, S1, S2, S3, STRATEGIES, WEI,
                                capital_sweep, load_attack_config, optimal_frontrun,
                                _floor_free_gain, _sandwich_plan, _VictimSizing, _window)
from mevlens.amm import load_pool_metadata
from mevlens.registry import DEFAULT_REGISTRY
from mevlens.reporting import summary_stats
from mevlens.errors import (EmptyInput, Infeasible, InvalidScenario, MalformedRecord,
                            MevlensError)
from mevlens.fixtures import (FixtureBuilder, addr, dump_fixture, enc_inbox_message,
                              enc_redeem_scheduled, enc_token_swap, enc_transfer,
                              enc_uniswap_v3_swap)
from conftest import (XL_DELAYS, XL_POOL, XL_TA, XL_TB, build_crosslayer_fixture,
                      build_victim_scenarios, literal_victims, xl_pools_meta)
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


def realized_out(pool, victim_swap, x):
    """The victim's output after a frontrun of x, through its sandwich plan."""
    result = _sandwich_plan(pool, victim_swap)(x)
    return None if result is None else result[1]


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


def literal_cp_sandwich(pool, victim_swap, x):
    """``oracle_sandwich`` on a constant-product pool restated on plain
    integers, sharing no code with ``mevlens.amm``: a swap floors the fee
    off its input and pays the most that keeps the product of the two
    reserves at least what it was. The pool pays out the slot other than
    the first one holding token_in."""
    reserves, tokens = list(pool.reserves), pool.tokens
    keep_num, den = pool.fee_den - pool.fee_num, pool.fee_den

    def slots(token_in, token_out):
        if token_in not in tokens:
            return None
        i = tokens.index(token_in)
        return (i, 1 - i) if tokens[1 - i] == token_out else None

    def swap(where, amount):
        if where is None or amount <= 0:
            return None
        i, j = where
        if reserves[i] <= 0 or reserves[j] <= 0:
            return None
        k = reserves[i] * reserves[j]
        out = reserves[j] - -(-k // (reserves[i] + amount * keep_num // den))
        reserves[i] += amount
        reserves[j] -= out
        return out

    v = victim_swap
    forward = slots(v.token_in, v.token_out)
    if x == 0:
        mid = swap(forward, v.amount_in)
        return None if mid is None else (0, mid)
    front = swap(forward, x)
    mid = None if front is None else swap(forward, v.amount_in)
    if mid is None:
        return None
    if front == 0:
        return -x, mid
    back = swap(slots(v.token_out, v.token_in), front)
    return None if back is None else (back - x, mid)


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


def test_infer_victims_looks_up_each_log_once(monkeypatch):
    """The join looks up each L1 and each L2 log's topic once: one decode
    pass per dataset serves the messages and the victim swaps."""
    l1, l2s, _ = build_crosslayer_fixture()
    lookup = DEFAULT_REGISTRY.lookup
    for name, l2 in l2s.items():
        topics = []
        monkeypatch.setattr(DEFAULT_REGISTRY, "lookup",
                            lambda topic: topics.append(topic) or lookup(topic))
        infer_victims(l1, l2, xl_pools_meta())
        monkeypatch.undo()
        assert sorted(topics) == sorted(log.topics[0] for log in l1.logs + l2.logs), name


def test_message_executed_twice_links_to_its_first_execution():
    """A link key executed in two L2 txs links to the first, with that
    block's timestamp; the second counts as unlinked on L2."""
    l1 = FixtureBuilder(ETHEREUM, start_block=1000, start_timestamp=1_700_000_000)
    l2 = FixtureBuilder(ARBITRUM, start_block=5000)
    l1.block()
    l1_tx = l1.tx()
    l1.log(addr(0x1001), *enc_inbox_message(1))
    executions = []
    for delay in (60, 90):
        l2.block(timestamp=l1.timestamp + delay)
        executions.append(l2.tx())
        l2.log(addr(0x1001), *enc_redeem_scheduled(1))
    candidates, links, diagnostics = infer_victims(l1.dataset(), l2.dataset())
    assert candidates == []
    assert [(l.l1_tx, l.l2_tx, l.l2_block, l.delay_s) for l in links] == [
        (l1_tx, executions[0], 5000, 60)]
    assert diagnostics["unlinked_l1"] == []
    assert [a.tx_hash for a in diagnostics["unlinked_l2"]] == [executions[1]]


@pytest.mark.parametrize("blocks", [0, 1])
def test_cli_infer_on_an_empty_rollup_fixture_joins_only_that_rollup(tmp_path, capsys, blocks):
    """A rollup fixture with no records is of the chain its file names: of
    the L1 messages, only that rollup's count as unlinked, as they do
    beside a fixture of one block."""
    l1, _, _ = build_crosslayer_fixture()
    dump_fixture(l1, tmp_path / "ethereum.jsonl")
    l2 = FixtureBuilder(OPTIMISM, start_block=6000)
    for _ in range(blocks):
        l2.block()
        l2.tx()
    dump_fixture(l2.dataset(), tmp_path / "optimism.jsonl")
    assert main(["crosslayer", "infer", "--chain", "optimism", "--fixtures", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 0
    # the fixture's nine Optimism messages, none executed
    assert capsys.readouterr().out.splitlines()[-1] == "links: 0, unlinked L1: 9, unlinked L2: 0"


@pytest.mark.parametrize("chain, named", [(None, "no chain"), (ETHEREUM, "chain ethereum")])
def test_join_with_a_dataset_of_no_rollup_is_refused(chain, named):
    """A dataset without a chain, or of L1, names no rollup whose messages
    the join could link: refused, not every L1 message counted unlinked."""
    l1, _, _ = build_crosslayer_fixture()
    with pytest.raises(ValueError, match=f"the L2 dataset has {named}: no rollup"):
        infer_victims(l1, ChainDataset(chain))


# --- victim inference: the decoded swap of each linked L2 tx ---

XL_USER = addr(0x7E1)
XL_TC = addr(0x7C3)
XL_STABLE = addr(0x778)
XL_UNLISTED = addr(0x779)   # a pool missing from --pools


def _inference_pools():
    return {**xl_pools_meta(),
            XL_STABLE: PoolInfo(XL_STABLE, STABLESWAP, (XL_TA, XL_TB, XL_TC), 4, 10000, 200)}


def _tx_logs(kind, *args):
    """(address, topics, data) of one piece of a linked L2 tx."""
    if kind == "v3":             # token A user -> pool, Swap, token B pool -> user
        a0, a1 = args
        return [(XL_TA, *enc_transfer(XL_USER, XL_POOL, abs(a0))),
                (XL_POOL, *enc_uniswap_v3_swap(XL_USER, XL_USER, a0, a1)),
                (XL_TB, *enc_transfer(XL_POOL, XL_USER, abs(a1)))]
    if kind == "stable":
        sold, bought, amount = args
        return [(XL_STABLE, *enc_token_swap(XL_USER, amount, amount * 99 // 100, sold, bought))]
    if kind == "unlisted":       # a V3 Swap at a pool without metadata
        a0, a1 = args
        return [(XL_UNLISTED, *enc_uniswap_v3_swap(XL_USER, XL_USER, a0, a1))]
    if kind == "round_trip":     # one token out and back, no swap event
        return [(XL_TA, *enc_transfer(XL_USER, XL_POOL, 10 ** 4)),
                (XL_TA, *enc_transfer(XL_POOL, XL_USER, 10 ** 4))]
    raise AssertionError(kind)


def _linked_txs(txs):
    """An L1 and an Arbitrum dataset with one bridge link per entry of
    ``txs``, each L2 execution holding the logs of its pieces in order."""
    l1 = FixtureBuilder(ETHEREUM, start_block=1000, start_timestamp=1_700_000_000)
    l2 = FixtureBuilder(ARBITRUM, start_block=5000)
    for msg, pieces in enumerate(txs, 1):
        l1.block()
        l1.tx()
        l1.log(addr(0x1001), *enc_inbox_message(msg))
        l2.block(timestamp=l1.timestamp + 60)
        l2.tx()
        l2.log(addr(0x1001), *enc_redeem_scheduled(msg))
        for piece in pieces:
            for address, topics, data in _tx_logs(*piece):
                l2.log(address, topics, data)
    return l1.dataset(), l2.dataset()


_DELTA = st.integers(-10 ** 6, 10 ** 6)
_PIECE = st.one_of(
    st.tuples(st.just("v3"), _DELTA, _DELTA),
    st.tuples(st.just("stable"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 10 ** 6)),
    st.tuples(st.just("unlisted"), _DELTA, _DELTA),
    st.just(("round_trip",)),
)


@settings(max_examples=200, deadline=None)
@given(txs=st.lists(st.lists(_PIECE, max_size=3), min_size=1, max_size=6))
def test_infer_victims_matches_literal_rescan(txs):
    """Two-token V3 and StableSwap swaps, same-token round trips, swaps at
    unlisted pools and several swaps per tx: each link's candidate is the
    first victim swap a literal rescan of its tx decodes."""
    l1, l2 = _linked_txs(txs)
    pools = _inference_pools()
    candidates, links, _ = infer_victims(l1, l2, pools)
    assert len(links) == len(txs)
    assert candidates == literal_victims(links, l2.logs, pools)
    for c in candidates:
        assert c.swap.token_in != c.swap.token_out


def test_two_token_v3_swap_is_a_victim():
    l1, l2 = _linked_txs([[("v3", 10 ** 4, -9900)]])
    (victim,), _, _ = infer_victims(l1, l2, _inference_pools())
    assert victim.pool == XL_POOL
    assert victim.swap == VictimSwap(XL_TA, XL_TB, 10 ** 4)


def test_same_token_round_trip_is_no_victim():
    l1, l2 = _linked_txs([[("round_trip",)]])
    candidates, links, _ = infer_victims(l1, l2, _inference_pools())
    assert len(links) == 1 and candidates == []


# --- delay statistics ---

def test_delay_stats_matches_sort_oracle():
    l1, l2s, _ = build_crosslayer_fixture()
    links = []
    for name in ("arbitrum", "optimism", "zksync"):
        links += infer_victims(l1, l2s[name], xl_pools_meta())[1]
    overall, monthly, anomalies = delay_stats(links)
    xs = sorted(XL_DELAYS)
    assert overall["count"] == 25
    assert overall["min"] == xs[0] and overall["max"] == xs[-1]
    assert overall["median"] == xs[len(xs) // 2]  # odd count
    assert overall["mean"] == Fraction(sum(xs), len(xs))
    assert anomalies == []
    assert sum(s["count"] for s in monthly.values()) == 25


def test_delay_stats_worked_example():
    links = [_link(d) for d in (0, 60, 120, 600)]
    overall, _, _ = delay_stats(links)
    assert (overall["min"], overall["median"], overall["mean"], overall["max"]) == \
        (0, 90, 195, 600)


def test_delay_single_link():
    overall, _, _ = delay_stats([_link(60)])
    assert (overall["min"], overall["median"], overall["mean"], overall["max"]) == (60, 60, 60, 60)


def test_negative_delay_is_anomaly():
    overall, _, anomalies = delay_stats([_link(60), _link(-5)])
    assert overall["count"] == 1 and len(anomalies) == 1
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
    quote = realized_out(pool, _victim().swap, 0)
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
    quote = realized_out(pool, _victim().swap, 0)
    min_out = quote - quote * 2 // 100
    victim = _victim(min_out=min_out)
    x, gross = optimal_frontrun(pool, victim.swap)
    assert (x, gross) == grid_frontrun(pool, victim.swap)
    assert realized_out(pool, victim.swap, x) >= min_out


def test_frontrun_randomized_against_grid():
    rng = random.Random(12)
    for _ in range(40):
        reserve = rng.randint(5 * 10 ** 4, 5 * 10 ** 5)
        pool = cp_pool(reserve, rng.randint(5 * 10 ** 4, 5 * 10 ** 5),
                       tokens=(XL_TA, XL_TB), fee_num=rng.choice([0, 3]),
                       fee_den=1000)
        amount = rng.randint(reserve // 100, reserve // 10)
        quote = realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
        slip = rng.choice([1, 2, 5])
        min_out = quote - quote * slip // 100
        victim = _victim(amount_in=amount, min_out=min_out)
        x, gross = optimal_frontrun(pool, victim.swap)
        assert (x, gross) == grid_frontrun(pool, victim.swap)
        assert realized_out(pool, victim.swap, x) >= min_out


def floor_free_sandwich(pool, victim_swap, x):
    """The gain of frontrun x, victim trade and backrun on a constant-product
    pool in exact rationals, with no floor division."""
    keep = Fraction(pool.fee_den - pool.fee_num, pool.fee_den)
    i = pool.tokens.index(victim_swap.token_in)
    reserves = [Fraction(pool.reserves[i]), Fraction(pool.reserves[1 - i])]  # in, out

    def swap(src, dst, amount):
        out = reserves[dst] * amount * keep / (reserves[src] + amount * keep)
        reserves[src] += amount
        reserves[dst] -= out
        return out

    front = swap(0, 1, x)
    swap(0, 1, victim_swap.amount_in)
    return swap(1, 0, front) - x


@st.composite
def _wide_cp_victim(draw):
    """A constant-product pool with reserves up to 10^26 and a fee of 0 to
    10%, and a victim trade on it."""
    fee_den = draw(st.sampled_from([1, 1000, 10 ** 4, 10 ** 6]))
    pool = cp_pool(draw(st.integers(1, 10 ** 26)), draw(st.integers(1, 10 ** 26)),
                   tokens=(XL_TA, XL_TB), fee_num=draw(st.integers(0, fee_den // 10)),
                   fee_den=fee_den)
    return pool, VictimSwap(XL_TA, XL_TB, draw(st.integers(1, 10 ** 26)))


@settings(max_examples=300, deadline=None)
@given(case=_wide_cp_victim(), x=st.one_of(st.integers(0, 10 ** 6), st.integers(0, 10 ** 28)))
def test_floor_free_gain_caps_the_integer_gain(case, x):
    """The closed form is the floor-free composition, and no integer
    sandwich gains more than it."""
    pool, victim = case
    num, den = _floor_free_gain(pool, victim)(x)
    assert Fraction(num, den) == floor_free_sandwich(pool, victim, x)
    assert _sandwich_plan(pool, victim)(x)[0] * den <= num


@settings(max_examples=150, deadline=None)
@given(case=_wide_cp_victim(), xs=st.lists(st.integers(1, 10 ** 28), max_size=30))
def test_floor_free_gain_is_unimodal(case, xs):
    """Over a doubling grid and random sizes, G never rises after it has
    fallen."""
    pool, victim = case
    gains = [floor_free_sandwich(pool, victim, x)
             for x in sorted({*xs, *(1 << k for k in range(94))})]
    fell = False
    for before, after in zip(gains, gains[1:]):
        assert not (fell and after > before)
        fell = fell or after < before


@st.composite
def _cp_victim_past_the_peak(draw):
    """A small constant-product pool with a 2 to 10% fee, and a victim
    whose floor lets the frontrun run past G's peak."""
    pool = cp_pool(draw(st.integers(10, 200)), draw(st.integers(10, 200)),
                   tokens=(XL_TA, XL_TB), fee_num=draw(st.integers(2, 10)), fee_den=100)
    amount = draw(st.integers(1, 600))
    quote = realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
    assume(quote)
    return pool, VictimSwap(XL_TA, XL_TB, amount, max(1, quote * draw(st.integers(0, 60)) // 100))


@settings(max_examples=100, deadline=None)
@given(case=_cp_victim_past_the_peak(), cap=st.none() | st.integers(0, 2000))
@example(case=(cp_pool(328, 325, tokens=(XL_TA, XL_TB), fee_num=4, fee_den=100),
               VictimSwap(XL_TA, XL_TB, 20, 4)), cap=None)
@example(case=(cp_pool(244, 151, tokens=(XL_TA, XL_TB), fee_num=2, fee_den=100),
               VictimSwap(XL_TA, XL_TB, 303, 1)), cap=None)
@example(case=(cp_pool(161, 79, tokens=(XL_TA, XL_TB), fee_num=8, fee_den=100),
               VictimSwap(XL_TA, XL_TB, 159, 1)), cap=None)
def test_cp_frontrun_matches_grid_past_the_peak(case, cap):
    """Where the bound lies past G's peak the search locates the peak
    before it takes the window; it returns what the grid, which walks to
    the first size that breaks the floor, returns. In the first example G
    is 0.76 at x_slip (384), and only sizes near the peak pay: 1 unit from
    x = 150. In the second the floor holds past 4 x the reserves sum, and
    the best size, 2,885, lies there. In the third the window is 1,030
    sizes wide and g jumps by over 20 between neighbours (124 at 747, 102
    at 800, 125 at 1,083), so a cut that trusts g to within a few units
    drops the best size."""
    pool, victim = case
    assert optimal_frontrun(pool, victim, cap) == grid_frontrun(pool, victim, cap)


def test_frontrun_on_a_pool_listing_its_token_twice_matches_grid():
    """Such a pool's backrun repeats the frontrun's direction, so G does
    not describe it: the search sizes it as it sizes a StableSwap pool."""
    token = b"\x05" * 20
    for fee_num in (0, 3):
        pool = cp_pool(10 ** 4, 2 * 10 ** 4, tokens=(token, token), fee_num=fee_num)
        quote = realized_out(pool, VictimSwap(token, token, 300), 0)
        victim = VictimSwap(token, token, 300, quote - quote * 5 // 100)
        assert optimal_frontrun(pool, victim) == grid_frontrun(pool, victim)


def test_flat_victim_is_sized_without_search():
    """Seed 7's victim that no sandwich pays: G falls from 0, so each bound
    costs one plan call at most (the x = 0 quote) after the x_slip probe,
    where the ternary search and scans made 12,844."""
    pool = cp_pool(10 ** 24, 10 ** 24, tokens=(XL_TA, XL_TB))
    sizing = _VictimSizing(pool, VictimSwap(XL_TA, XL_TB, 2 * 10 ** 21))
    calls, plan = [], sizing.plan
    sizing.plan = lambda x: calls.append(x) or plan(x)
    assert sizing.x_slip > 10 ** 21
    for bound in (10 ** 21, sizing.x_slip):
        assert optimal_frontrun(pool, sizing.victim, bound, sizing) == (0, 0)
    assert calls == [0]


def test_wide_window_near_a_flat_peak_is_searched_within_a_bound():
    """A victim just above the fee's breakeven on 10^24 reserves: G peaks
    below x_slip, so flat that the sizes where G reaches the best integer
    gain span about 5 * 10^13. ``_window`` bounds the search to those
    sizes, four coarse-grid rounds of at most 1,026 plan calls each
    narrow them to at most 65,537, and the final scan takes those; the
    window's g(p) and the x = 0 baseline add one call each."""
    pool = cp_pool(10 ** 24, 10 ** 24, tokens=(XL_TA, XL_TB))
    victim = VictimSwap(XL_TA, XL_TB, 302 * 10 ** 19)
    sizing = _VictimSizing(pool, victim)
    lo, hi = _window(sizing.gain, sizing.x_slip, lambda x: sizing.plan(x)[0])
    assert hi < sizing.x_slip and hi - lo > 10 ** 13
    calls, plan = [], sizing.plan
    sizing.plan = lambda x: calls.append(x) or plan(x)
    x, gross = optimal_frontrun(pool, victim, None, sizing)
    assert lo <= x <= hi and gross == plan(x)[0] > 10 ** 16
    assert len(calls) <= 2 + 4 * 1026 + 65537


def test_frontrun_capital_cap():
    pool = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB))
    quote = realized_out(pool, _victim().swap, 0)
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
    quote = realized_out(pool, victim.swap, 0)
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
    assert realized_out(pool, victim, 586791) == 70191
    x, gross = optimal_frontrun(pool, victim)
    assert x <= 586790
    assert realized_out(pool, victim, x) >= 70192
    assert gross == _sandwich_plan(pool, victim)(x)[0] > 0


@st.composite
def _stable_victim_near_floor(draw):
    """A StableSwap pool scarce in the victim's input token, made scarcer
    until a 1-unit frontrun pays out, and the victim's floor its output
    after a drawn frontrun of at most 256 (or with none, if that is
    lower): a frontrun of 1 and one of the drawn size keep the floor, so
    x_slip is at least 1, and near the drawn size."""
    r_in = draw(st.integers(10 ** 4, 10 ** 6))
    ratio, amp = draw(st.integers(2, 20)), draw(st.sampled_from([1, 10, 200]))
    victim = VictimSwap(XL_TA, XL_TB, draw(st.integers(r_in // 100, r_in // 5)))
    pool = stable_pool([r_in, r_in * ratio], amp=amp, tokens=(XL_TA, XL_TB))
    for _ in range(32):
        if realized_out(pool, victim, 1) is not None:
            break
        ratio *= 2
        pool = stable_pool([r_in, r_in * ratio], amp=amp, tokens=(XL_TA, XL_TB))
    outputs = [realized_out(pool, victim, x) for x in (0, 1, draw(st.integers(1, 256)))]
    assume(None not in outputs)
    return pool, victim._replace(min_amount_out=min(outputs))


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
    assert _sandwich_plan(pool, victim)(x) == oracle_sandwich(pool, victim, x)


@settings(max_examples=1000, deadline=None)
@given(case=_sandwich_case())
def test_sandwich_plan_matches_literal_constant_product_rule(case):
    """Against an oracle that shares no code with the plan: the property
    test above composes ``swap_out``, whose rule the plan also runs."""
    pool, victim, x = case
    assert _sandwich_plan(pool, victim)(x) == literal_cp_sandwich(pool, victim, x)


def test_sandwich_gross_none_cases_on_fixed_pools():
    pool = cp_pool(10 ** 6, 2 * 10 ** 6, tokens=(XL_TA, XL_TB))
    forward = VictimSwap(XL_TA, XL_TB, 10 ** 4)
    reverse = VictimSwap(XL_TB, XL_TA, 10 ** 4)
    missing = VictimSwap(b"\x0c" * 20, XL_TB, 10 ** 4)
    empty = cp_pool(0, 10 ** 6, tokens=(XL_TA, XL_TB))
    for p, v in ((pool, forward), (pool, reverse), (pool, missing), (empty, forward),
                 (pool, VictimSwap(XL_TA, XL_TB, 0))):
        for x in (0, 1, 999, 4 * 3 * 10 ** 6):
            assert _sandwich_plan(p, v)(x) == oracle_sandwich(p, v, x)
    assert _sandwich_plan(pool, missing)(5) is None
    assert _sandwich_plan(empty, forward)(0) is None
    # one kernel for both kinds: a 1-unit StableSwap frontrun pays nothing
    # and raises DrainedPool, where a constant-product one may pay 0
    stable = stable_pool([10 ** 6, 10 ** 6], tokens=(XL_TA, XL_TB))
    for x in (0, 1, 10 ** 3, 10 ** 5):
        assert _sandwich_plan(stable, forward)(x) == oracle_sandwich(stable, forward, x)
    assert _sandwich_plan(stable, forward)(1) is None
    tiny = cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB), fee_num=0, fee_den=1)
    assert _sandwich_plan(tiny, forward)(1) == (-1, realized_out(tiny, forward, 0))


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
        quote = realized_out(pool, VictimSwap(XL_TA, XL_TB, amount), 0)
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

    def counted_probe(pool, victim, plan):
        probes.append(victim)
        x_slips.append(probe(pool, victim, plan))
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


def _benchmark_victims():
    """The victims of the l2_crosslayer benchmark workload on seed 7, as
    ``crosslayer simulate`` sizes them: four constant-product ones, the
    first of which no sandwich pays, and four StableSwap ones, each with
    the assumed 2% floor, priced at 1/2000 ETH per 10^18 units."""
    e24 = 10 ** 24
    cases = [
        (cp_pool(e24, e24), 2 * 10 ** 21),
        (cp_pool(1171583830389324695769406, 1096602465244407915240164),
         28370672242096245382056),
        (cp_pool(883827460825402466878400, 816656573802671879395641),
         39295381712785979379297),
        (cp_pool(1124385925803036809763645, 1158117503577127914056554),
         25033750737638438602589),
        (stable_pool([12 * e24 // 10, e24, 8 * e24 // 10]), 35544900468125105759432),
        (stable_pool([e24, 11 * e24 // 10, 9 * e24 // 10]), 43533428683756307051923),
        (stable_pool([e24, e24, e24]), 58832552447295163733621),
        (stable_pool([9 * e24 // 10, e24, 11 * e24 // 10]), 24963488194289375904290),
    ]
    return [{"victim": VictimCandidate(_link(), VictimSwap(pool.tokens[0], pool.tokens[1], amount),
                                       XL_POOL),
             "pool_state": pool, "token_in_price_eth": Fraction(1, 2000), "eth_usd": Fraction(2000)}
            for pool, amount in cases]


def test_capital_sweep_resolves_slots_once_per_victim(monkeypatch):
    """Each victim's slots are resolved a fixed number of times (both
    directions for its plan, and once in the x = 0 quote's ``swap_out``),
    not once per evaluation; the number of sandwich evaluations is pinned,
    so that a search that makes more shows here. On the benchmark's
    victims the ternary search made 19,308, 12,844 on the first alone."""
    import mevlens.amm as amm
    import mevlens.crosslayer as crosslayer
    resolved, evaluations = [], []
    indices, make_plan = amm._indices, crosslayer._sandwich_plan

    def counted_indices(*args):
        resolved.append(args)
        return indices(*args)

    def counted_plan(pool, victim):
        plan = make_plan(pool, victim)

        def counted(x):
            evaluations.append(x)
            return plan(x)
        return counted

    monkeypatch.setattr(amm, "_indices", counted_indices)
    monkeypatch.setattr(crosslayer, "_indices", counted_indices)
    monkeypatch.setattr(crosslayer, "_sandwich_plan", counted_plan)
    for scenarios, tiers, evaluations_made in (
            (build_victim_scenarios(20), DEFAULT_CAPITAL_TIERS_USD, 1170),
            (_benchmark_victims(), (1000, 100_000, None), 824)):
        resolved.clear()
        evaluations.clear()
        capital_sweep(scenarios, COSTS, tiers)
        assert len(resolved) == 3 * len(scenarios)
        assert len(evaluations) == evaluations_made


def test_empty_sweep():
    table = capital_sweep([], COSTS)
    for strategy in STRATEGIES:
        for tier in DEFAULT_CAPITAL_TIERS_USD:
            assert table[strategy][tier]["count"] == 0


def test_capital_sweep_logs_the_victim_it_cannot_size(caplog):
    """A victim whose floor is above its x = 0 quote counts in no cell, and
    one DEBUG line names its L2 tx and the reason."""
    victim = _victim(min_out=10 ** 7)
    scenario = {"victim": victim, "pool_state": cp_pool(10 ** 6, 10 ** 6, tokens=(XL_TA, XL_TB)),
                "token_in_price_eth": Fraction(10 ** 12), "eth_usd": Fraction(2000)}
    with caplog.at_level(logging.DEBUG, logger="mevlens"):
        table = capital_sweep([scenario], COSTS)
    assert table == capital_sweep([], COSTS)
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG] == [
        f"skipped victim at L2 tx 0x{victim.link.l2_tx.hex()}: "
        "victim slippage bound violated with no frontrun"]


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
    # with no config, a run takes the defaults
    assert load_attack_config(None) == (DEFAULT_COSTS, DEFAULT_REACTION_TIME_S,
                                        DEFAULT_CAPITAL_TIERS_USD)


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


# `crosslayer simulate`'s attack_tables.csv for the cross-layer fixture at
# 10^14 ETH per 10^18 token units, byte for byte: the 1000 USD tier binds
# the frontrun, and S3's delay gate drops two of the four victims
ATTACK_TABLES = """\
strategy,capital_usd,profitable_count,total_usd,max_usd,mean_usd,median_usd,min_usd
S1,1000,4,14.40,3.60,3.60,3.60,3.60
S1,10000,4,71.20,17.80,17.80,17.80,17.80
S1,100000,4,71.20,17.80,17.80,17.80,17.80
S1,1000000,4,71.20,17.80,17.80,17.80,17.80
S1,inf,4,71.20,17.80,17.80,17.80,17.80
S2,1000,4,37.60,9.40,9.40,9.40,9.40
S2,10000,4,94.40,23.60,23.60,23.60,23.60
S2,100000,4,94.40,23.60,23.60,23.60,23.60
S2,1000000,4,94.40,23.60,23.60,23.60,23.60
S2,inf,4,94.40,23.60,23.60,23.60,23.60
S3,1000,2,26.40,13.20,13.20,13.20,13.20
S3,10000,2,54.80,27.40,27.40,27.40,27.40
S3,100000,2,54.80,27.40,27.40,27.40,27.40
S3,1000000,2,54.80,27.40,27.40,27.40,27.40
S3,inf,2,54.80,27.40,27.40,27.40,27.40
"""


def test_cli_simulate_attack_tables_are_pinned(tmp_path):
    assert _simulate(tmp_path, price="100000000000000") == 0
    written = (tmp_path / "out" / "attack_tables.csv").read_bytes()
    assert written == ATTACK_TABLES.replace("\n", "\r\n").encode()   # csv rows end in CRLF


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


def test_repeated_pool_or_json_key_exits_1(tmp_path, capsys):
    """A pools.json key naming an address that an earlier key gave in
    another spelling names both pools; a key given twice in one JSON
    object, at the top level or in a pool's entry, names the key. Each
    would otherwise keep the later entry or value and drop the other."""
    key = "0x" + XL_POOL.hex()
    entry = json.loads(_pools_text())[key]
    body = json.dumps(entry)
    cases = [
        (json.dumps({key: entry, XL_POOL.hex().upper(): entry}),
         f"pool {XL_POOL.hex().upper()!r}: address already given as pool {key!r}"),
        (f'{{"{key}": {body}, "{key}": {body}}}', f"key {key!r} given twice in one object"),
        (f'{{"{key}": {body[:-1]}, "amp": 100}}}}', "key 'amp' given twice in one object"),
    ]
    assert _simulate(tmp_path / "ok", pools=json.dumps({key: entry})) == 0
    for i, (text, reason) in enumerate(cases):
        assert _simulate(tmp_path / str(i), pools=text) == 1
        path = tmp_path / str(i) / "pools.json"
        err = capsys.readouterr().err
        assert f"error: {path}: {reason}\n" in err and "Traceback" not in err
        with pytest.raises(MalformedRecord, match="^" + re.escape(f"{path}: {reason}") + "$"):
            load_pool_metadata(path)


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
    # json.load alone would keep the second value
    "repeated_key": ("key 'bribe_eth' given twice in one object",
                     json.dumps(_CONFIG)[:-1] + ', "bribe_eth": "0.5"}'),
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
