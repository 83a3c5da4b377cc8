"""Cross-layer victim inference, inclusion-delay statistics, and the three
sandwich attack strategies with capital-constrained optimal frontrun sizing.

Strategies:
  S1 - classical L1 sandwich (two L1 txs plus a builder bribe)
  S2 - hybrid: L1 frontrun, L2 backrun (top-of-batch placement)
  S3 - speculative: both txs on L2, needs the sequencer inclusion delay
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .amm import PoolState, _indices, _out, swap_out
from .chain_model import (_DECIMAL_FRACTION, ChainDataset, ChainId, ZKSYNC, _decimal,
                          _json_object, _whole, group_logs_by_tx)
from .decoding import TransferAction, decode_logs
from .detectors import WEI
from .errors import EmptyInput, Infeasible, InvalidScenario, MalformedRecord, MevlensError
from .registry import Category
from .reporting import month_of, summary_stats

S1 = "S1"
S2 = "S2"
S3 = "S3"
STRATEGIES = (S1, S2, S3)


class CrossLayerLink(NamedTuple):
    rollup: ChainId
    l1_tx: bytes
    l2_tx: bytes
    link_key: bytes
    l1_timestamp: int
    l2_timestamp: int
    l2_block: int           # the block of the L2 execution

    @property
    def delay_s(self) -> int:
        return self.l2_timestamp - self.l1_timestamp


class VictimSwap(NamedTuple):
    token_in: bytes
    token_out: bytes
    amount_in: int
    min_amount_out: Optional[int] = None
    assumed_slippage: bool = False


class VictimCandidate(NamedTuple):
    link: CrossLayerLink
    swap: VictimSwap
    pool: bytes


class _CostFields(NamedTuple):
    l1_tx_cost: Fraction  # ETH
    l2_tx_cost: Fraction
    bribe: Fraction       # S1 frontrun priority payment


class CostModel(_CostFields):
    """Checked on every construction; ``_replace`` and ``_make`` skip the check."""

    __slots__ = ()

    def __new__(cls, l1_tx_cost, l2_tx_cost, bribe):
        if not (l1_tx_cost >= 0 and l2_tx_cost >= 0 and bribe >= 0):  # kept under python -O
            raise AssertionError(f"negative cost: {l1_tx_cost}, {l2_tx_cost}, {bribe}")
        return tuple.__new__(cls, (l1_tx_cost, l2_tx_cost, bribe))

    def total(self, strategy: str) -> Fraction:
        if strategy == S1:
            return 2 * self.l1_tx_cost + self.bribe
        if strategy == S2:
            return self.l1_tx_cost + self.l2_tx_cost
        if strategy == S3:
            return 2 * self.l2_tx_cost
        raise ValueError(f"unknown strategy {strategy!r}")


# the cost model of a run without an attack config
DEFAULT_COSTS = CostModel(l1_tx_cost=Fraction(2, 1000), l2_tx_cost=Fraction(1, 10000),
                          bribe=Fraction(1, 1000))
DEFAULT_REACTION_TIME_S = 30
DEFAULT_SLIPPAGE = Fraction(2, 100)
DEFAULT_CAPITAL_TIERS_USD = (1_000, 10_000, 100_000, 1_000_000, None)  # None = unbounded


def load_attack_config(path):
    """JSON config: {l1_tx_cost_eth, l2_tx_cost_eth, bribe_eth,
    reaction_time_s, capital_tiers_usd[]} -> (CostModel, reaction_time,
    tiers). A value that does not fit raises MalformedRecord naming the
    file and the key."""
    obj = _json_object(path)

    def bad(key, reason):
        return MalformedRecord(None, f"{key}: {reason}, got {obj.get(key)!r}", path)

    def eth(key, default=None):
        value = obj.get(key, default)
        if _decimal(value, _DECIMAL_FRACTION):
            return Fraction(value)
        if type(value) in (int, float) and 0 <= value < math.inf:
            return Fraction(str(value))
        raise bad(key, "must be a non-negative decimal")

    costs = CostModel(l1_tx_cost=eth("l1_tx_cost_eth"), l2_tx_cost=eth("l2_tx_cost_eth"),
                      bribe=eth("bribe_eth", 0))
    reaction = _whole(obj.get("reaction_time_s", DEFAULT_REACTION_TIME_S))
    if reaction is None:
        raise bad("reaction_time_s", "must be a non-negative integer")

    def tier(value):
        if value is None or value == "inf":
            return None
        usd = _whole(value)
        if usd is None:
            raise bad("capital_tiers_usd", 'must list non-negative integers or "inf"')
        return usd

    raw_tiers = obj.get("capital_tiers_usd", DEFAULT_CAPITAL_TIERS_USD)
    if not isinstance(raw_tiers, (list, tuple)):
        raise bad("capital_tiers_usd", "must be a list")
    tiers = tuple(tier(t) for t in raw_tiers)
    return costs, reaction, tiers


# --- victim inference ---

def _bridge_actions(dataset: ChainDataset):
    """Bridge messages stamped with their block's timestamp (0 when the
    block record is missing)."""
    decoded = decode_logs(dataset.logs, (Category.L1_MESSAGE, Category.L2_MESSAGE))
    return [action._replace(timestamp=dataset.block_timestamp(log.block_number) or 0)
            for log, action in decoded]


def _detect_l2_swap(tx_logs, pools_meta) -> Optional[tuple]:
    """Swap pattern inside a linked L2 tx: two Transfer events from the same
    token with sender/receiver swapped; a TokenSwap/V3 Swap event in the
    same tx refines pool and amounts when present."""
    transfers = []
    dex_swap = None
    for _, action in decode_logs(tx_logs, (Category.TRANSFER, Category.VICTIM_SWAP),
                                 pools_meta):
        if isinstance(action, TransferAction):
            transfers.append(action)
        elif dex_swap is None:
            dex_swap = action
    pair = None
    for i, t1 in enumerate(transfers):
        for t2 in transfers[i + 1:]:
            if (t2.token == t1.token and t2.sender == t1.receiver
                    and t2.receiver == t1.sender):
                pair = (t1, t2)
                break
        if pair:
            break
    if pair is None:
        return None
    if dex_swap is not None:
        return (dex_swap.token_in, dex_swap.token_out, dex_swap.amount_in,
                dex_swap.venue)
    t1, t2 = pair
    # same-token roundtrip heuristic: pool is the first transfer's receiver
    return (t1.token, t1.token, t1.amount, t1.receiver)


def infer_victims(l1_dataset: ChainDataset, l2_dataset: ChainDataset, pools_meta=None):
    """Join L1 bridge emissions with L2 executions, then scan linked L2 txs
    for the swapped-transfer pattern.

    Returns (candidates, links, diagnostics) where diagnostics lists
    unlinked message actions on both sides.
    """
    l1_actions = [a for a in _bridge_actions(l1_dataset)
                  if a.direction == "l1_emit"
                  and (l2_dataset.chain is None or a.rollup == l2_dataset.chain)]
    l2_actions = [a for a in _bridge_actions(l2_dataset)
                  if a.direction == "l2_execute"]

    # zkSync executes under the same tx hash; synthesize the L2 side
    if l2_dataset.chain == ZKSYNC:
        for a in l1_actions:
            if a.rollup != ZKSYNC:
                continue
            tx = l2_dataset.tx(a.link_key)
            if tx is not None:
                ts = l2_dataset.block_timestamp(tx.block_number) or 0
                l2_actions.append(a._replace(
                    direction="l2_execute",
                    position=(tx.block_number, tx.tx_index, -1),
                    tx_hash=tx.hash, timestamp=ts))

    l2_by_key = {}
    for a in l2_actions:
        l2_by_key.setdefault((a.rollup.name, a.link_key), []).append(a)

    links, candidates = [], []
    matched_l2 = set()
    unlinked_l1 = []
    l2_logs_by_tx = group_logs_by_tx(l2_dataset.logs)

    for a in l1_actions:
        partners = l2_by_key.get((a.rollup.name, a.link_key), [])
        if not partners:
            unlinked_l1.append(a)
            continue
        b = partners[0]
        matched_l2.add(id(b))
        link = CrossLayerLink(rollup=a.rollup, l1_tx=a.tx_hash, l2_tx=b.tx_hash,
                              link_key=a.link_key, l1_timestamp=a.timestamp,
                              l2_timestamp=b.timestamp, l2_block=b.position[0])
        links.append(link)
        swap = _detect_l2_swap(l2_logs_by_tx.get(b.tx_hash, []), pools_meta)
        if swap is None:
            continue
        token_in, token_out, amount_in, pool = swap
        candidates.append(VictimCandidate(
            link=link,
            swap=VictimSwap(token_in=token_in, token_out=token_out, amount_in=amount_in),
            pool=pool,
        ))

    unlinked_l2 = [a for a in l2_actions if id(a) not in matched_l2]
    diagnostics = {"unlinked_l1": unlinked_l1, "unlinked_l2": unlinked_l2}
    return candidates, links, diagnostics


# --- inclusion-delay statistics ---

class DelayStats(NamedTuple):
    count: int
    min: int
    mean: Fraction
    median: Fraction
    max: int


def _stats(delays) -> DelayStats:
    s = summary_stats(delays)
    return DelayStats(count=len(delays), min=s["min"], mean=s["mean"],
                      median=s["median"], max=s["max"])


def delay_stats(links: Sequence[CrossLayerLink]):
    """Overall and per-month (UTC, by L1 timestamp) delay statistics.

    Negative delays are anomalies: excluded from statistics, returned
    separately.
    """
    valid = [l for l in links if l.delay_s >= 0]
    anomalies = [l for l in links if l.delay_s < 0]
    if not valid:
        raise EmptyInput("no valid links")
    overall = _stats([l.delay_s for l in valid])
    monthly = {}
    for l in valid:
        monthly.setdefault(month_of(l.l1_timestamp), []).append(l.delay_s)
    monthly_stats = {m: _stats(ds) for m, ds in sorted(monthly.items())}
    return overall, monthly_stats, anomalies


# --- optimal frontrun sizing ---

def _sandwich_gross(pool: PoolState, victim: VictimSwap, x: int):
    """Attacker token_in profit of frontrun x + victim trade + backrun,
    swapped through ``amm._out`` on one local copy of the reserves.

    Returns (profit, victim_realized_out); None when the sequence cannot
    execute.
    """
    try:
        if x == 0:
            return 0, swap_out(pool, victim.token_in, victim.token_out,
                               victim.amount_in).amount_out
        i, j = _indices(pool, victim.token_in, victim.token_out)
        reserves = list(pool.reserves)
        front_out = _out(pool, reserves, i, j, x)
        reserves[i] += x
        reserves[j] -= front_out
        mid_out = _out(pool, reserves, i, j, victim.amount_in)
        if front_out <= 0:
            return -x, mid_out
        reserves[i] += victim.amount_in
        reserves[j] -= mid_out
        i, j = _indices(pool, victim.token_out, victim.token_in)
        return _out(pool, reserves, i, j, front_out) - x, mid_out
    except MevlensError:
        return None


def victim_realized_out(pool: PoolState, victim: VictimSwap, x: int) -> Optional[int]:
    result = _sandwich_gross(pool, victim, x)
    return None if result is None else result[1]


def _max_input_within_slippage(pool: PoolState, victim: VictimSwap) -> int:
    """Largest frontrun size keeping the victim's realized output at or
    above min_amount_out (monotone in x -> exponential probe + bisect)."""
    min_out = victim.min_amount_out
    if min_out is None:
        raise AssertionError("slippage search on a victim without min_amount_out")

    def ok(x):
        out = victim_realized_out(pool, victim, x)
        return out is not None and out >= min_out

    if not ok(0):
        raise Infeasible("victim slippage bound violated with no frontrun")
    hi = 1
    while ok(hi):
        hi *= 2
        if hi > sum(pool.reserves) * 4:
            break
    lo = hi // 2 if hi > 1 else 0
    if ok(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


class _VictimSizing:
    """What sizing one victim's frontrun needs that no capital bound
    changes: the victim with its slippage floor, the largest frontrun
    that keeps the victim within it (``x_slip``), and the x ->
    ``_sandwich_gross`` cache. Raises Infeasible when the victim trade
    cannot execute or its floor is violated with no frontrun."""

    def __init__(self, pool: PoolState, victim: VictimSwap):
        if victim.min_amount_out is None:
            quote = victim_realized_out(pool, victim, 0)
            if quote is None:
                raise Infeasible("victim trade cannot execute on the given pool")
            min_out = quote - quote * DEFAULT_SLIPPAGE.numerator // DEFAULT_SLIPPAGE.denominator
            victim = victim._replace(min_amount_out=min_out, assumed_slippage=True)
        self.victim = victim
        self.x_slip = _max_input_within_slippage(pool, victim)
        self.sandwiches: dict = {}


def optimal_frontrun(pool: PoolState, victim_swap: VictimSwap,
                     capital_units: Optional[int] = None,
                     sizing: Optional[_VictimSizing] = None):
    """Profit-maximizing integer frontrun size, at most ``capital_units``
    (None: unbounded) and within the victim's slippage floor, via ternary
    search with an exact scan of the final interval. Returns (x, gross
    profit in token_in units). ``sizing``: the victim's ``_VictimSizing``
    when one victim is sized under several bounds, built here otherwise.

    A size is feasible when the victim's realized output holds its floor
    at that size. The bisected ``x_slip`` only bounds the search: on a
    StableSwap pool the output can jitter across the floor below it. So
    the coarse grid ranks feasible sizes only, and the final scan stops at
    the first size that breaks the floor."""
    if sizing is None:
        sizing = _VictimSizing(pool, victim_swap)
    victim = sizing.victim
    floor = victim.min_amount_out
    x_max = sizing.x_slip if capital_units is None else min(sizing.x_slip, capital_units)
    cache = sizing.sandwiches

    def sandwich(x):
        if x not in cache:
            cache[x] = _sandwich_gross(pool, victim, x) or (-x, None)
        return cache[x]

    def g(x):
        return sandwich(x)[0]

    def holds(x):
        out = sandwich(x)[1]
        return out is not None and out >= floor

    # Integer floors put small jags on an otherwise unimodal curve, so a
    # plain ternary comparison can latch onto the wrong side of a tie. Cut
    # only when the gap exceeds the jitter bound (then the discarded side
    # provably holds no maximum), and scan the rest exactly.
    margin = 8
    lo, hi = 0, x_max
    while hi - lo > 1024:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if g(m1) + margin < g(m2):
            lo = m1
        elif g(m2) + margin < g(m1):
            hi = m2
        else:
            break
    while hi - lo > 65536:
        # curve too flat for confident cuts on a huge domain: coarse-grid
        # refinement, accepting possible unit-level suboptimality
        step = (hi - lo) // 1024
        b = max(filter(holds, [*range(lo, hi + 1, step), hi]), key=g, default=lo)
        lo, hi = max(lo, b - 2 * step), min(hi, b + 2 * step)
    best, best_g = lo, g(lo)
    for x in range(lo, hi + 1):
        gain, out = sandwich(x)
        if out is None or out < floor:
            break
        if gain > best_g:
            best, best_g = x, gain
    # hard slippage check on the returned size, kept under python -O
    if not holds(best):
        raise AssertionError(f"frontrun {best} breaks the victim's slippage bound")
    return best, best_g


# --- capital sweep (per strategy x capital tier report) ---

def capital_sweep(victim_scenarios, costs: CostModel,
                  tiers_usd=DEFAULT_CAPITAL_TIERS_USD,
                  reaction_time_s: int = DEFAULT_REACTION_TIME_S):
    """Aggregate attack profitability per (strategy, capital tier).

    ``victim_scenarios`` is a sequence of dicts with keys: victim
    (VictimCandidate), pool_state, token_in_price_eth (ETH per 10^18
    token_in units, positive), eth_usd (Fraction, dollar price of ETH on
    the victim's L1 emission day).

    A strategy's profit is the victim's gross gain minus the strategy's
    cost; S3 needs an inclusion delay of at least ``reaction_time_s``.
    Returns {strategy: {tier: {count, total, max, mean, median, min}}} with
    profits in USD; statistics over profitable victims only.
    """
    # the gross sandwich gain depends only on (victim, pool, frontrun
    # bound): resolve the slippage floor, x_slip and the x -> gross cache
    # once per victim, search once per distinct bound min(x_slip, capital),
    # and reuse the result across tiers and strategies
    gains = {}
    for i, vs in enumerate(victim_scenarios):
        price, eth_usd = vs["token_in_price_eth"], vs["eth_usd"]
        # checked first: a price that is not positive is rejected even for
        # a victim that turns out infeasible
        if not price > 0:
            raise InvalidScenario(f"token_in_price_eth must be positive, got {price!r}")
        pool, swap = vs["pool_state"], vs["victim"].swap
        try:
            sizing = _VictimSizing(pool, swap)
        except Infeasible:
            continue
        searched = {}   # frontrun bound -> (x, gross tokens)
        for tier in tiers_usd:
            bound = sizing.x_slip
            if tier is not None:
                bound = min(bound, int(Fraction(tier) / eth_usd * WEI / price))
            if bound not in searched:
                searched[bound] = optimal_frontrun(pool, swap, bound, sizing)
            gains[tier, i] = Fraction(searched[bound][1], WEI) * price
    table = {}
    for strategy in STRATEGIES:
        table[strategy] = {}
        cost = costs.total(strategy)
        for tier in tiers_usd:
            profits_usd = []
            for i, vs in enumerate(victim_scenarios):
                gain = gains.get((tier, i))
                if gain is None or gain <= cost:
                    continue
                if strategy == S3 and vs["victim"].link.delay_s < reaction_time_s:
                    continue
                profits_usd.append((gain - cost) * vs["eth_usd"])
            cell = summary_stats(profits_usd)
            cell["count"] = len(profits_usd)
            if not profits_usd:
                cell["total"] = Fraction(0)
            table[strategy][tier] = cell
    return table
