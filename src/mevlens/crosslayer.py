"""The three sandwich attack strategies on the victims that ``bridge``
infers, with capital-constrained optimal frontrun sizing.

Strategies:
  S1 - classical L1 sandwich (two L1 txs plus a builder bribe)
  S2 - hybrid: L1 frontrun, L2 backrun (top-of-batch placement)
  S3 - speculative: both txs on L2, needs the sequencer inclusion delay
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .amm import CONSTANT_PRODUCT, PoolState, _indices, _swap_rule, swap_out
from .bridge import VictimSwap
from .chain_model import _DECIMAL_FRACTION, _decimal, _json_object, _log, _whole, to_hex
from .errors import Infeasible, InvalidScenario, MalformedRecord, MevlensError
from .reporting import WEI, summary_stats

S1 = "S1"
S2 = "S2"
S3 = "S3"
STRATEGIES = (S1, S2, S3)


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
    tiers); the defaults for no ``path``. A value that does not fit raises
    MalformedRecord naming the file and the key."""
    if path is None:
        return DEFAULT_COSTS, DEFAULT_REACTION_TIME_S, DEFAULT_CAPITAL_TIERS_USD
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


# --- optimal frontrun sizing ---

def _sandwich_plan(pool: PoolState, victim: VictimSwap):
    """The victim's sandwich as a function of the frontrun size: ``plan(x)``
    is the attacker's token_in profit of frontrun x + victim trade +
    backrun and the victim's realized output, or None when the sequence
    cannot execute. The slots of both directions, the pool's swap rule and
    the x = 0 quote (a plain ``swap_out``) are resolved here once; each
    call runs the three swaps on a local copy of the reserves."""
    amount = victim.amount_in
    try:
        zero = 0, swap_out(pool, victim.token_in, victim.token_out, amount).amount_out
    except MevlensError:
        zero = None
    try:
        i, j = _indices(pool, victim.token_in, victim.token_out)
        back_i, back_j = _indices(pool, victim.token_out, victim.token_in)
    except MevlensError:
        # slots that do not resolve failed the x = 0 quote too
        return lambda x: None
    rule = _swap_rule(pool)
    reserves = pool.reserves

    def plan(x):
        if x == 0:
            return zero
        try:
            r = list(reserves)
            front_out = rule(r, i, j, x)
            r[i] += x
            r[j] -= front_out
            mid_out = rule(r, i, j, amount)
            if front_out <= 0:
                return -x, mid_out
            r[i] += amount
            r[j] -= mid_out
            return rule(r, back_i, back_j, front_out) - x, mid_out
        except MevlensError:
            return None
    return plan


def _max_input_within_slippage(pool: PoolState, victim: VictimSwap, plan=None) -> int:
    """Largest frontrun size keeping the victim's realized output at or
    above min_amount_out (monotone in x -> exponential probe + bisect),
    up to a limit past which no size can pay: (b - 1)(a + v) on a
    constant-product pool with input reserve a, output reserve b and
    victim amount v, the least power of two above 4 x the reserves sum
    otherwise. ``plan``: the victim's ``_sandwich_plan``, built here when
    None.

    The constant-product limit: the backrun sells f = the frontrun's
    output into a pool left with B >= 1 of it (no swap drains a reserve)
    and B + f <= b, so it returns at most a fraction f / (B + f) <= 1 - 1/b
    of the a + x + v the pool then holds, and the gain, that minus x, is
    below 0 once x > (b - 1)(a + v)."""
    min_out = victim.min_amount_out
    if min_out is None:
        raise AssertionError("slippage search on a victim without min_amount_out")
    if plan is None:
        plan = _sandwich_plan(pool, victim)

    def ok(x):
        result = plan(x)
        return result is not None and result[1] >= min_out

    if not ok(0):
        raise Infeasible("victim slippage bound violated with no frontrun")
    if pool.kind == CONSTANT_PRODUCT and pool.tokens[0] != pool.tokens[1]:
        i = pool.index_of(victim.token_in)
        limit = (pool.reserves[1 - i] - 1) * (pool.reserves[i] + victim.amount_in)
    else:
        limit = 1 << (4 * sum(pool.reserves)).bit_length()
    return _reach(ok, 0, limit)


def _floor_free_gain(pool: PoolState, victim: VictimSwap):
    """G(x), the sandwich gain of frontrun x on a constant-product pool in
    exact rationals with no floor division, as ``gain(x) -> (num, den)``
    with den > 0; None on a StableSwap pool, or on one listing its token
    twice, whose backrun does not reverse the frontrun.

    With a the victim's input reserve, v its amount, g = k/d the share of
    an input kept after the fee and s = a + x, the output reserve cancels:
    G(x) = (s + v) g^2 x (s + g v) / (a s + g^2 x (s + g v)) - x.

    G caps the integer gain, ``plan(x)[0] <= G(x)``: each floor lowers
    an output or an input kept, and the backrun pays less when the
    frontrun bought less or the victim's output left more in the pool.

    G is unimodal: G'(x) has the sign of q0 + q1 x + q2 x^2, where q2 > 0
    (g^2 v > a (1 + g)) forces q1 > 0 (g^2 (a + v) > a), which forces
    q0 > 0. The coefficients change sign at most once, from + to -, so
    by Descartes' rule G rises, then falls."""
    if pool.kind != CONSTANT_PRODUCT or pool.tokens[0] == pool.tokens[1]:
        return None
    a, v = pool.reserves[pool.index_of(victim.token_in)], victim.amount_in
    d = pool.fee_den
    k = d - pool.fee_num
    kk, ad3 = k * k, a * d ** 3

    def gain(x):
        # the fraction above with numerator and denominator times d^3
        s = a + x
        q = kk * x * (d * s + k * v)
        den = ad3 * s + q
        return (s + v) * q - x * den, den
    return gain


def _reach(pred, x: int, limit: int) -> int:
    """The farthest size from x toward ``limit`` (either side of x) where
    ``pred`` holds, given that it holds at x and, once it fails on the
    way, fails on to ``limit``; ``limit`` when it never fails. Probes at
    distances 1, 2, 4, ... from x, then bisects, so an edge near x costs
    few calls. x itself is not tested."""
    sign = 1 if limit >= x else -1
    n = (limit - x) * sign
    good, bad = 0, 1
    while bad <= n and pred(x + sign * bad):
        good, bad = bad, 2 * bad
    bad = min(bad, n + 1)
    while bad - good > 1:
        mid = (good + bad) // 2
        if pred(x + sign * mid):
            good = mid
        else:
            bad = mid
    return x + sign * good


def _window(gain, x_max: int, g):
    """The sizes in [1, x_max] that the integer optimum can take, as
    (lo, hi), given G = ``gain`` and the integer gain ``g``; lo > hi when
    no size beats x = 0.

    G is unimodal, so p, its first integer maximum on [0, x_max], is the
    first x where G(x + 1) < G(x), or x_max. A size beats x = 0 only with
    g >= 1, and the first maximum only with g >= g(p); since g <= G, every
    candidate lies where G >= t = max(g(p), 1), an interval around p.
    Its ends are found on G alone, probing outward from p (none to
    search above p when p = x_max)."""
    def falls(x):
        n0, d0 = gain(x)
        n1, d1 = gain(x + 1)
        return n1 * d0 < n0 * d1

    if x_max < 1 or falls(0):
        return 1, 0     # p = 0, and no size reaches G(0) + 1 = 1
    p = _reach(falls, x_max, 1)
    t = max(g(p), 1)

    def holds(x):
        num, den = gain(x)
        return num >= t * den

    if not holds(p):
        return 1, 0
    return _reach(holds, p, 1), _reach(holds, p, x_max)


class _VictimSizing:
    """What sizing one victim's frontrun needs that no capital bound
    changes: the victim with its slippage floor, its ``_sandwich_plan``,
    the largest frontrun that keeps the victim within the floor
    (``x_slip``), the floor-free gain G on a constant-product pool (None
    otherwise) and the x -> plan(x) cache. Raises Infeasible when the
    victim trade cannot execute or its floor is violated with no
    frontrun."""

    def __init__(self, pool: PoolState, victim: VictimSwap):
        self.plan = _sandwich_plan(pool, victim)
        if victim.min_amount_out is None:
            zero = self.plan(0)
            if zero is None:
                raise Infeasible("victim trade cannot execute on the given pool")
            quote = zero[1]
            min_out = quote - quote * DEFAULT_SLIPPAGE.numerator // DEFAULT_SLIPPAGE.denominator
            victim = victim._replace(min_amount_out=min_out, assumed_slippage=True)
        self.victim = victim
        self.x_slip = _max_input_within_slippage(pool, victim, self.plan)
        self.gain = _floor_free_gain(pool, victim)
        self.sandwiches: dict = {}


def optimal_frontrun(pool: PoolState, victim_swap: VictimSwap,
                     capital_units: Optional[int] = None,
                     sizing: Optional[_VictimSizing] = None):
    """Profit-maximizing integer frontrun size, at most ``capital_units``
    (None: unbounded) and within the victim's slippage floor, the first
    such size on a tie. Returns (x, gross profit in token_in units).
    ``sizing``: the victim's ``_VictimSizing`` when one victim is sized
    under several bounds, built here otherwise.

    On a constant-product pool the floor-free gain G caps the integer
    gain, so the optimum lies where G reaches the best integer gain found
    (``_window``), and a victim whose G falls from 0 costs no search at
    all. Where x_max sits on G's rising side the window is tens of sizes
    wide. Near G's flat peak on a pool with large reserves it can span
    about the square root of a reserve, so it takes the coarse grid that a
    StableSwap pool, which has no such bound, takes after a ternary search
    on [0, x_max]. The coarse grid, run only on more than 65,536 sizes,
    accepts possible unit-level suboptimality; the final scan is exact.

    A size is feasible when the victim's realized output holds its floor
    at that size. The bisected ``x_slip`` only bounds the search: on a
    StableSwap pool the output can jitter across the floor below it. So
    the coarse grid ranks feasible sizes only, and the final scan stops at
    the first size that breaks the floor. On a constant-product pool the
    output falls with x, so no size below ``x_slip`` breaks it."""
    if sizing is None:
        sizing = _VictimSizing(pool, victim_swap)
    victim = sizing.victim
    floor = victim.min_amount_out
    x_max = sizing.x_slip if capital_units is None else min(sizing.x_slip, capital_units)
    cache = sizing.sandwiches
    plan = sizing.plan

    def sandwich(x):
        if x not in cache:
            cache[x] = plan(x) or (-x, None)
        return cache[x]

    def g(x):
        return sandwich(x)[0]

    def holds(x):
        out = sandwich(x)[1]
        return out is not None and out >= floor

    if sizing.gain is not None:
        lo, hi = _window(sizing.gain, x_max, g)
    else:
        lo, hi = 0, x_max
        # Integer floors put small jags on an otherwise unimodal curve, so
        # a plain ternary comparison can latch onto the wrong side of a
        # tie. Cut only when the gap exceeds the jitter margin, and scan
        # the rest exactly.
        margin = 8
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
    best = lo if sizing.gain is None else 0
    best_g = g(best)
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
    # bound): resolve the slippage floor, the sandwich plan, x_slip and the
    # x -> gross cache once per victim, search once per distinct bound
    # min(x_slip, capital), and reuse the result across tiers and strategies
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
        except Infeasible as exc:
            _log.debug("skipped victim at L2 tx %s: %s", to_hex(vs["victim"].link.l2_tx), exc)
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
