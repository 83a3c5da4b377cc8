import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mevlens.amm import (PathHop, _stable_D, cp_pool, dump_pool_metadata,
                         load_pool_metadata, PoolInfo, simulate_path, stable_pool, swap_out)
from mevlens.errors import (BrokenPath, DrainedPool, EmptyPool, InvalidSwap,
                            UnknownToken)
from mevlens.fixtures import addr

T0, T1 = b"\x00" * 20, b"\x01" * 20


def cp_formula(r_in, r_out, amount_in, fee_num, fee_den):
    """Independent closed-form constant-product oracle in exact rationals."""
    a = (amount_in * (fee_den - fee_num)) // fee_den
    out = Fraction(r_out * a, r_in + a)
    return out.numerator // out.denominator


def stable_residual(xs, amp, d):
    """g(D) for the StableSwap invariant; decreasing in D, zero at the root."""
    n = len(xs)
    ann = amp * n ** n
    prod = 1
    for x in xs:
        prod *= x
    return Fraction(ann * sum(xs)) + d - ann * d - Fraction(d ** (n + 1), n ** n * prod)


# --- constant product ---

def test_cp_tiny_input_floors_to_zero():
    pool = cp_pool(1000, 1000, fee_num=0, fee_den=1)
    assert swap_out(pool, T0, T1, 1).amount_out == 0


def test_cp_worked_example():
    pool = cp_pool(10 ** 6, 10 ** 6, fee_num=3, fee_den=1000)
    q = swap_out(pool, T0, T1, 10 ** 5)
    assert q.amount_out == 90661
    assert q.post_state.reserves == (10 ** 6 + 10 ** 5, 10 ** 6 - 90661)


def test_cp_matches_formula_randomized():
    rng = random.Random(4)
    for _ in range(2000):
        r0 = rng.randint(10, 10 ** 12)
        r1 = rng.randint(10, 10 ** 12)
        fee_den = rng.choice([1, 1000, 10000])
        fee_num = rng.randint(0, min(fee_den - 1, 30))
        x = rng.randint(1, 10 ** 12)
        pool = cp_pool(r0, r1, fee_num=fee_num, fee_den=fee_den)
        assert swap_out(pool, T0, T1, x).amount_out == \
            cp_formula(r0, r1, x, fee_num, fee_den)


def test_cp_empty_pool():
    with pytest.raises(EmptyPool):
        swap_out(cp_pool(0, 1000), T0, T1, 10)


def test_cp_product_never_decreases_at_fee_zero():
    rng = random.Random(5)
    for _ in range(300):
        r0, r1 = rng.randint(100, 10 ** 9), rng.randint(100, 10 ** 9)
        pool = cp_pool(r0, r1, fee_num=0, fee_den=1)
        q = swap_out(pool, T0, T1, rng.randint(1, 10 ** 9))
        nr = q.post_state.reserves
        assert nr[0] * nr[1] >= r0 * r1


def test_cp_round_trip_never_gains():
    pool = cp_pool(10 ** 6, 10 ** 6, fee_num=0, fee_den=1)
    x = 12345
    q1 = swap_out(pool, T0, T1, x)
    q2 = swap_out(q1.post_state, T1, T0, q1.amount_out)
    assert q2.amount_out <= x


@settings(max_examples=100, deadline=None)
@given(r0=st.integers(10, 10 ** 15), r1=st.integers(10, 10 ** 15),
       x=st.integers(1, 10 ** 15))
def test_cp_formula_property(r0, r1, x):
    pool = cp_pool(r0, r1, fee_num=3, fee_den=1000)
    assert swap_out(pool, T0, T1, x).amount_out == cp_formula(r0, r1, x, 3, 1000)


def test_cp_monotone_in_input():
    pool = cp_pool(10 ** 6, 10 ** 6)
    outs = [swap_out(pool, T0, T1, x).amount_out for x in range(1, 2000, 13)]
    assert outs == sorted(outs)


# --- stableswap ---

def test_balanced_pool_D_identity():
    for n, x in ((2, 10 ** 6), (3, 10 ** 9)):
        pool = stable_pool([x] * n, amp=200)
        assert _stable_D(pool.reserves, pool.amp) == n * x


def test_stable_D_residual_bracket():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.choice([2, 3])
        amp = rng.choice([10, 100, 200, 1000])
        xs = [rng.randint(10 ** 5, 10 ** 12) for _ in range(n)]
        d = _stable_D(xs, amp)
        assert stable_residual(xs, amp, d - 2) >= 0 >= stable_residual(xs, amp, d + 2)


def test_stable_swap_brute_force_y_example():
    pool = stable_pool([10 ** 6, 10 ** 6], amp=200, fee_num=0, fee_den=1)
    q = swap_out(pool, pool.tokens[0], pool.tokens[1], 1000)
    assert 997 <= q.amount_out <= 1000


def test_stable_fee_is_exact_output_deduction():
    free = stable_pool([10 ** 6, 10 ** 6], amp=200, fee_num=0, fee_den=1)
    fee = stable_pool([10 ** 6, 10 ** 6], amp=200, fee_num=4, fee_den=10000)
    out0 = swap_out(free, free.tokens[0], free.tokens[1], 5000).amount_out
    out1 = swap_out(fee, fee.tokens[0], fee.tokens[1], 5000).amount_out
    assert out1 == out0 - out0 * 4 // 10000


def test_stable_round_trip_never_gains():
    pool = stable_pool([10 ** 6, 10 ** 6], amp=200, fee_num=0, fee_den=1)
    x = 40000
    q1 = swap_out(pool, pool.tokens[0], pool.tokens[1], x)
    q2 = swap_out(q1.post_state, pool.tokens[1], pool.tokens[0], q1.amount_out)
    assert q2.amount_out <= x


def test_stable_monotone_in_input():
    pool = stable_pool([10 ** 8, 10 ** 8], amp=200, fee_num=0, fee_den=1)
    outs = [swap_out(pool, pool.tokens[0], pool.tokens[1], x).amount_out
            for x in range(1000, 100000, 3777)]
    assert outs == sorted(outs)


def test_stable_high_amp_near_parity():
    pool = stable_pool([10 ** 18, 10 ** 18], amp=10 ** 6, fee_num=0, fee_den=1)
    x = 10 ** 14  # 1e-4 of reserves
    q = swap_out(pool, pool.tokens[0], pool.tokens[1], x)
    assert Fraction(q.amount_out, x) >= Fraction(999, 1000)


def test_stable_empty_reserve_errors():
    pool = stable_pool([10 ** 6, 10 ** 6]).with_reserves((10 ** 6, 0))
    for token_in, token_out in (pool.tokens, pool.tokens[::-1]):
        with pytest.raises(EmptyPool):
            swap_out(pool, token_in, token_out, 1000)


# --- path simulation ---

def test_empty_path_identity():
    assert simulate_path({}, [], 1234)[0] == 1234


def test_two_hop_composition():
    p1 = cp_pool(10 ** 6, 10 ** 6, tokens=(T0, T1))
    t2 = b"\x02" * 20
    p2 = cp_pool(2 * 10 ** 6, 10 ** 6, tokens=(T1, t2))
    pools = {b"P1": p1, b"P2": p2}
    path = [PathHop(b"P1", T0, T1), PathHop(b"P2", T1, t2)]
    final, states = simulate_path(pools, path, 10 ** 4)
    q1 = swap_out(p1, T0, T1, 10 ** 4)
    q2 = swap_out(p2, T1, t2, q1.amount_out)
    assert final == q2.amount_out
    assert states[b"P1"] == q1.post_state and states[b"P2"] == q2.post_state


def test_broken_path():
    p1 = cp_pool(10 ** 6, 10 ** 6, tokens=(T0, T1))
    with pytest.raises(BrokenPath):
        simulate_path({b"P1": p1}, [PathHop(b"P1", T0, T1),
                                    PathHop(b"P1", T0, T1)], 100)


def test_diverged_prices_make_profitable_cycle():
    # pool A prices T1 at parity, pool B prices T1 5% higher in T0 terms
    pa = cp_pool(10 ** 9, 10 ** 9, tokens=(T0, T1), fee_num=0, fee_den=1)
    pb = cp_pool(105 * 10 ** 7, 10 ** 9, tokens=(T0, T1), fee_num=0, fee_den=1)
    pools = {b"A": pa, b"B": pb}
    path = [PathHop(b"A", T0, T1), PathHop(b"B", T1, T0)]
    final, _ = simulate_path(pools, path, 10 ** 6)
    assert final > 10 ** 6


# --- metadata sidecar ---

def test_pool_metadata_round_trip(tmp_path):
    pools = {
        addr(1): PoolInfo(addr(1), "constant_product", (T0, T1), 3, 1000),
        addr(2): PoolInfo(addr(2), "stableswap", (T0, T1), 4, 10000, amp=500),
    }
    path = tmp_path / "pools.json"
    dump_pool_metadata(pools, path)
    assert load_pool_metadata(path) == pools


def test_swap_out_dispatch():
    cp = cp_pool(10 ** 6, 10 ** 6)
    ss = stable_pool([10 ** 6, 10 ** 6])
    assert swap_out(cp, cp.tokens[0], cp.tokens[1], 100).amount_out > 0
    assert swap_out(ss, ss.tokens[0], ss.tokens[1], 100).amount_out > 0


def test_swap_out_errors_for_both_kinds():
    """One swap rule: each kind rejects a token the pool does not list and
    an amount that is not positive; a StableSwap pool also rejects a swap
    of a token for itself and a swap that pays nothing, where a
    constant-product swap may pay 0."""
    t2 = b"\x02" * 20
    cp = cp_pool(10 ** 6, 10 ** 6, fee_num=0, fee_den=1)
    ss = stable_pool([10 ** 6, 10 ** 6, 10 ** 6])
    for pool in (cp, ss):
        a, b = pool.tokens[:2]
        with pytest.raises(UnknownToken):
            swap_out(pool, b"\x09" * 20, b, 1000)
        with pytest.raises(UnknownToken):
            swap_out(pool, a, b"\x09" * 20, 1000)
        for amount in (0, -1):
            with pytest.raises(InvalidSwap):
                swap_out(pool, a, b, amount)
    with pytest.raises(UnknownToken):
        swap_out(cp, T0, T0, 1000)
    with pytest.raises(InvalidSwap):
        swap_out(ss, t2, t2, 1000)
    assert swap_out(cp, T0, T1, 1).amount_out == 0
    with pytest.raises(DrainedPool):
        swap_out(ss, T0, T1, 1)
    q = swap_out(ss, t2, T0, 1000)
    assert q.post_state.reserves == (10 ** 6 - q.amount_out, 10 ** 6, 10 ** 6 + 1000)
