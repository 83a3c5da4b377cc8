"""Backward search for the opportunity transaction behind each finding,
block-distance distributions, and competition measurement."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .amm import PoolState, _indices, _swap_rule
from .chain_model import _DECIMAL_FRACTION, _decimal, _sidecar_hex, _whole, read_jsonl
# decode_swap stays bound here, unused: perfbench/selftest.py checks that the
# tracer wraps mevlens.opportunity.decode_swap together with mevlens.decoding's
from .decoding import OracleUpdateAction, SwapAction, decode_swap  # noqa: F401
from .errors import MalformedRecord, MevlensError

DEFAULT_HORIZON = 100

FOUND = "found"
UNSIMULATABLE = "unsimulatable"


def _not_found(horizon: int) -> str:
    return f"not_found_within_{horizon}"


NOT_FOUND = _not_found(DEFAULT_HORIZON)  # the status at the default horizon


class OpportunityResult(NamedTuple):
    status: str
    opportunity_tx: Optional[bytes] = None
    block_distance: Optional[int] = None
    approximate: bool = False


class StateProvider:
    """Snapshot-backed historical state: pool reserves, Aave health factors,
    Compound shortfalls, keyed by (key, block).

    Lookups resolve to the latest snapshot at or before the queried block,
    so fixtures only need to record changes.
    """

    def __init__(self):
        self._pool: dict = {}       # pool address -> ([block], [PoolState])
        self._health: dict = {}     # borrower -> ([block], [Fraction])
        self._shortfall: dict = {}  # borrower -> ([block], [int])

    def add_pool(self, address: bytes, block: int, state: PoolState):
        _insert(self._pool, address, block, state)

    def add_health(self, borrower: bytes, block: int, hf: Fraction):
        _insert(self._health, borrower, block, Fraction(hf))

    def add_shortfall(self, borrower: bytes, block: int, sf: int):
        _insert(self._shortfall, borrower, block, int(sf))

    @staticmethod
    def _at(series, block):
        blocks, values = series
        i = bisect_right(blocks, block)
        return values[i - 1] if i else None

    def pool_state(self, address: bytes, block: int) -> Optional[PoolState]:
        return self._at(self._pool.get(address, _NO_SNAPSHOTS), block)

    def health_factor(self, borrower: bytes, block: int) -> Optional[Fraction]:
        return self._at(self._health.get(borrower, _NO_SNAPSHOTS), block)

    def shortfall(self, borrower: bytes, block: int) -> Optional[int]:
        return self._at(self._shortfall.get(borrower, _NO_SNAPSHOTS), block)

    @classmethod
    def from_jsonl(cls, path, pools_meta=None) -> "StateProvider":
        """JSONL rows: {kind: pool|health|shortfall, key, block, value}.

        pool values are {reserves: [dec strings]} resolved against the pool
        metadata sidecar; health values are decimal strings; shortfall
        values are decimal integers. A row that does not fit raises
        MalformedRecord with the file and line.
        """
        provider = cls()
        adders = {"pool": provider.add_pool, "health": provider.add_health,
                  "shortfall": provider.add_shortfall}
        pools_meta = pools_meta or {}
        for kind, key, block, value in read_jsonl(path, lambda obj: _snapshot(obj, pools_meta)):
            adders[kind](key, block, value)
        return provider


_NO_SNAPSHOTS = ((), ())


def _insert(series_by_key, key, block, value):
    """Insert after every snapshot at or before block, so that of
    snapshots at the same block the last one added is the one found."""
    blocks, values = series_by_key.setdefault(key, ([], []))
    i = bisect_right(blocks, block)
    blocks.insert(i, block)
    values.insert(i, value)


def _snapshot(obj: dict, pools_meta):
    """One snapshot row as (kind, key, block, value)."""
    kind, value = obj.get("kind"), obj.get("value")
    key = _sidecar_hex(obj.get("key"))
    if key is None:
        raise MalformedRecord(None, f"key must be hex bytes, got {obj.get('key')!r}")
    block = _whole(obj.get("block"))
    if block is None:
        raise MalformedRecord(None, f"block must be an integer, got {obj.get('block')!r}")
    if kind == "pool":
        info = pools_meta.get(key)
        if info is None:
            raise MalformedRecord(None, f"pool 0x{key.hex()} missing from metadata")
        reserves = value.get("reserves") if isinstance(value, dict) else None
        if not isinstance(reserves, list) or len(reserves) != len(info.tokens):
            raise MalformedRecord(
                None, f"pool 0x{key.hex()} needs {len(info.tokens)} reserves, got {reserves!r}")
        amounts = [_whole(r) for r in reserves]
        if None in amounts:
            raise MalformedRecord(None, f"reserves must be decimal integers, got {reserves!r}")
        return kind, key, block, info.state(amounts)
    if kind == "health":
        if not (type(value) is int or _decimal(value, _DECIMAL_FRACTION)):
            raise MalformedRecord(None, f"health factor must be a decimal, got {value!r}")
        return kind, key, block, Fraction(value)
    if kind == "shortfall":
        shortfall = _whole(value)
        if shortfall is None:
            raise MalformedRecord(None, f"shortfall must be an integer, got {value!r}")
        return kind, key, block, shortfall
    raise MalformedRecord(None, f"unknown snapshot kind {kind!r}")


# the findings are detectors' records, named in quotes: crosslayer simulate
# imports no detector
def _simulated_profit(finding: "ArbitrageFinding", states) -> Optional[int]:
    """Replay the cycle through the swap rule of each hop's state in
    ``states``, on reserves copied at a venue's first hop and carried to its
    later hops; profit in the cycle's entry token, None when a hop fails."""
    reserves: dict = {}  # venue -> its reserves, updated in place
    amount_in = amount = finding.cycle[0].amount_in
    try:
        for swap, state in zip(finding.cycle, states):
            r = reserves.get(swap.venue)
            if r is None:
                r = reserves[swap.venue] = list(state.reserves)
            i, j = _indices(state, swap.token_in, swap.token_out)
            out = _swap_rule(state)(r, i, j, amount)
            r[i] += amount
            r[j] -= out
            amount = out
    except MevlensError:
        return None
    return amount - amount_in


_position = attrgetter("position")


def _first_tx_per_block(actions, finding_block, horizon, venues=None) -> dict:
    """Block -> tx of the first of the position-sorted ``actions`` in that
    block, over blocks [finding_block - horizon, finding_block - 1]; with
    ``venues``, only the swaps at one of them count."""
    lo = bisect_left(actions, (finding_block - horizon,), key=_position)
    hi = bisect_left(actions, (finding_block,), lo, key=_position)
    candidates: dict = {}
    for action in actions[lo:hi]:
        if venues is None or action.venue in venues:
            candidates.setdefault(action.position[0], action.tx_hash)
    return candidates


def _walk_backward(finding_block, horizon, candidates, is_open):
    """Shared backward walk: evaluate ``is_open`` on each block from the
    closest (finding_block - 1) down to one block past the horizon, stop at
    the first closed block; the opportunity is the candidate tx in the last
    open block. Without a candidate in the horizon there is none.

    Probing one block beyond the horizon lets a transition exactly at
    distance ``horizon`` still be confirmed, while a transition farther out
    reports not-found.
    """
    if not candidates:
        return OpportunityResult(_not_found(horizon))
    last_open = None
    for block in range(finding_block - 1, max(finding_block - horizon - 2, -1), -1):
        open_ = is_open(block)
        if open_ is None:
            return OpportunityResult(UNSIMULATABLE)
        if not open_:
            if last_open is None:
                # crossing sits between the finding and its immediate
                # predecessor block
                return OpportunityResult(FOUND, None, 0, approximate=True)
            tx = candidates.get(last_open)
            return OpportunityResult(FOUND, tx, finding_block - last_open,
                                     approximate=tx is None)
        if block >= finding_block - horizon:
            last_open = block
    return OpportunityResult(_not_found(horizon))


def find_arbitrage_opportunity(finding: "ArbitrageFinding", swaps: Sequence[SwapAction],
                               provider: StateProvider,
                               horizon: int = DEFAULT_HORIZON) -> OpportunityResult:
    """Walk blocks closest-to-farthest, re-simulating the cycle on each
    block's pool states, and stop at the first block where simulated profit
    is non-positive; the opportunity is the first swap at a venue of the
    cycle in the last profitable block. ``swaps`` are the dataset's decoded
    swaps in position order."""
    finding_block = finding.block
    candidates = _first_tx_per_block(swaps, finding_block, horizon,
                                     {s.venue for s in finding.cycle})
    verdicts: dict = {}  # pool states along the cycle -> is_open verdict

    def is_open(block):
        states = []
        for swap in finding.cycle:
            state = provider.pool_state(swap.venue, block)
            if state is None:
                return None
            states.append(state)
        states = tuple(states)
        if states not in verdicts:
            profit = _simulated_profit(finding, states)
            verdicts[states] = None if profit is None else profit > 0
        return verdicts[states]

    return _walk_backward(finding_block, horizon, candidates, is_open)


def find_liquidation_opportunity(finding: "LiquidationFinding",
                                 updates: Sequence[OracleUpdateAction],
                                 provider: StateProvider,
                                 horizon: int = DEFAULT_HORIZON) -> OpportunityResult:
    """Same walk over the blocks of the dataset's Chainlink ``updates`` (in
    position order), stopping when the position is no longer liquidable
    (hf >= 1 for Aave, sf == 0 for Compound)."""
    action = finding.actions[0]
    finding_block = finding.block
    use_shortfall = action.protocol == "compound_v2"
    candidates = _first_tx_per_block(updates, finding_block, horizon)

    def is_open(block):
        if use_shortfall:
            sf = provider.shortfall(action.borrower, block)
            return None if sf is None else sf > 0
        hf = provider.health_factor(action.borrower, block)
        return None if hf is None else hf < 1

    return _walk_backward(finding_block, horizon, candidates, is_open)


def block_distance_cdf(results: Sequence[OpportunityResult],
                       horizon: int = DEFAULT_HORIZON):
    """Fraction of found results with distance <= d for d in 0..horizon."""
    distances = [r.block_distance for r in results
                 if r.status == FOUND and r.block_distance is not None]
    if not distances:
        return []
    total = len(distances)
    return [(d, Fraction(sum(1 for x in distances if x <= d), total))
            for d in range(horizon + 1)]


def detect_competition(entries):
    """Group findings targeting the same opportunity.

    ``entries`` is a sequence of (mev_type, opportunity_tx, extractor,
    finding_id); emits groups with >= 2 distinct extractors.
    """
    grouped: dict = {}
    for mev_type, opp_tx, extractor, finding_id in entries:
        if opp_tx is None:
            continue
        grouped.setdefault((mev_type, opp_tx), []).append((extractor, finding_id))
    groups = []
    for (mev_type, opp_tx), members in grouped.items():
        extractors = {m[0] for m in members}
        if len(extractors) >= 2:
            groups.append({
                "type": mev_type,
                "opportunity_tx": opp_tx,
                "extractors": sorted(extractors),
                "findings": [m[1] for m in members],
            })
    groups.sort(key=lambda g: (g["type"], g["opportunity_tx"]))
    return groups

