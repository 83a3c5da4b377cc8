"""Deterministic AMM pool simulators: constant-product and StableSwap.

All arithmetic is exact (Python integers, floor division) so replays are
reproducible and match EVM semantics. No floating point in this module.
"""

import json
from typing import NamedTuple, Sequence

from .chain_model import _json_object, _sidecar_hex, _whole
from .errors import (DrainedPool, EmptyPool, InvalidSwap, MalformedRecord, NoConvergence,
                     UnknownToken)

CONSTANT_PRODUCT = "constant_product"
STABLESWAP = "stableswap"

DEFAULT_AMP = 200
MAX_ITERATIONS = 255


class _PoolFields(NamedTuple):
    kind: str
    tokens: tuple            # ordered token addresses
    reserves: tuple          # unsigned big integers, same length
    fee_num: int
    fee_den: int
    amp: int                 # stableswap only


class PoolState(_PoolFields):
    """Checked on every construction; ``_replace`` and ``_make`` skip the checks."""

    __slots__ = ()

    def __new__(cls, kind, tokens, reserves, fee_num=0, fee_den=1, amp=DEFAULT_AMP):
        # raised, not asserted, so that python -O keeps the checks
        if not (kind in (CONSTANT_PRODUCT, STABLESWAP) and len(tokens) == len(reserves)
                and (len(tokens) == 2 if kind == CONSTANT_PRODUCT
                     else len(tokens) >= 2 and amp > 0)
                and 0 <= fee_num < fee_den):
            raise AssertionError(f"invalid pool state: {kind!r}, {len(tokens)} tokens, "
                                 f"{len(reserves)} reserves, fee {fee_num}/{fee_den}, amp {amp}")
        return tuple.__new__(cls, (kind, tokens, reserves, fee_num, fee_den, amp))

    def index_of(self, token) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise UnknownToken(f"token 0x{token.hex() if isinstance(token, bytes) else token} not in pool")

    def with_reserves(self, reserves) -> "PoolState":
        return PoolState(self.kind, self.tokens, tuple(reserves), self.fee_num,
                         self.fee_den, self.amp)


def cp_pool(reserve0: int, reserve1: int, tokens=(b"\x00" * 20, b"\x01" * 20),
            fee_num: int = 3, fee_den: int = 1000) -> PoolState:
    return PoolState(CONSTANT_PRODUCT, tuple(tokens), (reserve0, reserve1),
                     fee_num, fee_den)


def stable_pool(reserves, tokens=None, amp: int = DEFAULT_AMP,
                fee_num: int = 4, fee_den: int = 10000) -> PoolState:
    if tokens is None:
        tokens = tuple(bytes([i]) * 20 for i in range(len(reserves)))
    return PoolState(STABLESWAP, tuple(tokens), tuple(reserves), fee_num, fee_den, amp)


class SwapQuote(NamedTuple):
    amount_in: int
    amount_out: int
    post_state: PoolState


def _stable_D(xs: Sequence[int], amp: int) -> int:
    """Solve the StableSwap invariant for D by Newton iteration.

    A*n^n*sum(x) + D = A*D*n^n + D^(n+1) / (n^n * prod(x))
    """
    n = len(xs)
    s = sum(xs)
    d = s
    ann = amp * n ** n
    for _ in range(MAX_ITERATIONS):
        d_p = d
        for x in xs:
            d_p = d_p * d // (n * x)
        d_prev = d
        d = (ann * s + n * d_p) * d // ((ann - 1) * d + (n + 1) * d_p)
        if abs(d - d_prev) <= 1:
            return d
    raise NoConvergence("D solver did not converge in 255 iterations")


def _stable_y(xs: Sequence[int], amp: int, i: int, j: int, new_x_i: int, d: int) -> int:
    """Balance of coin j that keeps the invariant at D when coin i moves to
    new_x_i; standard quadratic Newton iteration."""
    n = len(xs)
    ann = amp * n ** n
    c = d
    s = 0
    for k in range(n):
        if k == j:
            continue
        x = new_x_i if k == i else xs[k]
        s += x
        c = c * d // (x * n)
    c = c * d // (ann * n)
    b = s + d // ann
    y = d
    for _ in range(MAX_ITERATIONS):
        y_prev = y
        y = (y * y + c) // (2 * y + b - d)
        if abs(y - y_prev) <= 1:
            return y
    raise NoConvergence("y solver did not converge in 255 iterations")


def _indices(pool: PoolState, token_in, token_out) -> tuple:
    """Reserve slots (i, j) of a swap of token_in for token_out. A
    constant-product pool pays out its other slot, so one listing a token
    twice resolves that token to slots (0, 1) in both directions."""
    i = pool.index_of(token_in)
    if pool.kind == CONSTANT_PRODUCT:
        if pool.tokens[1 - i] != token_out:
            raise UnknownToken("token_out not in pool")
        return i, 1 - i
    j = pool.index_of(token_out)
    if i == j:
        raise InvalidSwap("token_in and token_out are the same token")
    return i, j


def _swap_rule(pool: PoolState):
    """The pool's reserve-level swap rule with its kind, fee and amp bound
    once: ``rule(reserves, i, j, amount_in)`` is the output in slot j of
    swapping amount_in into slot i of ``reserves``. A constant-product swap
    may pay 0; a StableSwap swap that pays nothing raises DrainedPool."""
    kind, _, _, fee_num, fee_den, amp = pool
    if kind == CONSTANT_PRODUCT:
        keep = fee_den - fee_num

        def rule(reserves, i, j, amount_in):
            if amount_in <= 0:
                raise InvalidSwap(f"swap amount must be positive, got {amount_in}")
            r_in, r_out = reserves[i], reserves[j]
            if r_in <= 0 or r_out <= 0:
                raise EmptyPool("pool has an empty reserve")
            # x*y=k, fee taken from the input, floor division throughout
            a = amount_in * keep // fee_den
            return r_out * a // (r_in + a)
        return rule

    def rule(reserves, i, j, amount_in):
        if amount_in <= 0:
            raise InvalidSwap(f"swap amount must be positive, got {amount_in}")
        if any(x <= 0 for x in reserves):
            raise EmptyPool("stableswap pool has an empty reserve")
        d = _stable_D(reserves, amp)
        y = _stable_y(reserves, amp, i, j, reserves[i] + amount_in, d)
        gross_out = reserves[j] - y - 1  # conservative rounding
        amount_out = gross_out - gross_out * fee_num // fee_den
        if amount_out <= 0:
            raise DrainedPool("swap produces no output")
        return amount_out
    return rule


def swap_out(pool: PoolState, token_in, token_out, amount_in: int) -> SwapQuote:
    """Swap amount_in of token_in for token_out on either pool kind: the
    output and the pool state after the swap."""
    i, j = _indices(pool, token_in, token_out)
    amount_out = _swap_rule(pool)(pool.reserves, i, j, amount_in)
    reserves = list(pool.reserves)
    reserves[i] += amount_in
    reserves[j] -= amount_out
    return SwapQuote(amount_in, amount_out, pool.with_reserves(reserves))


# --- pool metadata sidecar ---

class PoolInfo(NamedTuple):
    address: bytes
    kind: str
    tokens: tuple
    fee_num: int
    fee_den: int
    amp: int = DEFAULT_AMP

    def state(self, reserves) -> PoolState:
        return PoolState(self.kind, self.tokens, tuple(reserves),
                         self.fee_num, self.fee_den, self.amp)


def load_pool_metadata(path) -> dict:
    """JSON sidecar: {pool address: {kind, tokens, fee_num, fee_den, amp}}.
    An entry that does not fit, or whose address an earlier key gave in
    another spelling, raises MalformedRecord naming the file and the pool."""
    pools, keys = {}, {}
    for key, obj in _json_object(path).items():
        info = _pool_info(key, obj, path)
        earlier = keys.setdefault(info.address, key)
        if earlier != key:
            raise MalformedRecord(None, f"pool {key!r}: address already given as pool {earlier!r}",
                                  path)
        pools[info.address] = info
    return pools


def _pool_info(key: str, obj, path) -> PoolInfo:
    def bad(reason):
        return MalformedRecord(None, f"pool {key!r}: {reason}", path)

    address = _sidecar_hex(key)
    if address is None:
        raise bad("address must be hex bytes")
    if not isinstance(obj, dict):
        raise bad("entry must be a JSON object")
    kind = obj.get("kind")
    if kind not in (CONSTANT_PRODUCT, STABLESWAP):
        raise bad(f"unknown or missing kind {kind!r}")
    cp = kind == CONSTANT_PRODUCT
    tokens = obj.get("tokens")
    token_bytes = [_sidecar_hex(t) for t in tokens] if isinstance(tokens, list) else [None]
    if None in token_bytes:
        raise bad(f"tokens must be a list of hex addresses, got {tokens!r}")
    if len(tokens) < 2 or cp and len(tokens) != 2:
        raise bad(f"a {kind} pool cannot have {len(tokens)} tokens")
    fee_num = _whole(obj.get("fee_num", 3 if cp else 4))
    fee_den = _whole(obj.get("fee_den", 1000 if cp else 10000))
    if fee_num is None or fee_den is None or not 0 <= fee_num < fee_den:
        raise bad("fee_num and fee_den must be integers with 0 <= fee_num < fee_den, "
                  f"got {obj.get('fee_num')!r} and {obj.get('fee_den')!r}")
    amp = _whole(obj.get("amp", DEFAULT_AMP))
    if amp is None or not (cp or amp > 0):
        raise bad(f"amp must be a positive integer, got {obj.get('amp')!r}")
    return PoolInfo(address=address, kind=kind, tokens=tuple(token_bytes),
                    fee_num=fee_num, fee_den=fee_den, amp=amp)


def dump_pool_metadata(pools: dict, path) -> None:
    out = {}
    for addr, info in sorted(pools.items()):
        out["0x" + addr.hex()] = {
            "kind": info.kind,
            "tokens": ["0x" + t.hex() for t in info.tokens],
            "fee_num": info.fee_num,
            "fee_den": info.fee_den,
            "amp": info.amp,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
