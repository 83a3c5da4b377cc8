"""Backward search for the opportunity transaction behind each finding,
block-distance distributions, and competition measurement."""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .amm import PathHop, PoolState, simulate_path
from .chain_model import (_DECIMAL_FRACTION, _HEX_BYTES, ChainDataset, _whole,
                          logs_in_range)
from .decoding import decode_oracle_update, decode_swap
from .detectors import ArbitrageFinding, LiquidationFinding
from .errors import MalformedRecord
from .registry import DEFAULT_REGISTRY, Category, TopicRegistry

FOUND = "found"
NOT_FOUND = "not_found_within_100"
UNSIMULATABLE = "unsimulatable"

DEFAULT_HORIZON = 100


@dataclass(frozen=True)
class OpportunityResult:
    finding_id: object
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
        with open(path, "r", encoding="utf-8") as fh:
            for line, raw in enumerate(fh, 1):
                raw = raw.strip()
                if raw:
                    kind, key, block, value = _snapshot(raw, pools_meta or {}, path, line)
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


def _snapshot(raw: str, pools_meta, path, line):
    """One snapshot row as (kind, key, block, value)."""
    def bad(reason):
        return MalformedRecord(line, reason, path)

    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise bad(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise bad("record must be a JSON object")
    kind, key, value = obj.get("kind"), obj.get("key"), obj.get("value")
    if not (isinstance(key, str) and _HEX_BYTES.fullmatch(key.removeprefix("0x"))):
        raise bad(f"key must be hex bytes, got {key!r}")
    key = bytes.fromhex(key.removeprefix("0x"))
    block = _whole(obj.get("block"))
    if block is None:
        raise bad(f"block must be an integer, got {obj.get('block')!r}")
    if kind == "pool":
        info = pools_meta.get(key)
        if info is None:
            raise bad(f"pool 0x{key.hex()} missing from metadata")
        reserves = value.get("reserves") if isinstance(value, dict) else None
        if not isinstance(reserves, list) or len(reserves) != len(info.tokens):
            raise bad(f"pool 0x{key.hex()} needs {len(info.tokens)} reserves, got {reserves!r}")
        amounts = [_whole(r) for r in reserves]
        if None in amounts:
            raise bad(f"reserves must be decimal integers, got {reserves!r}")
        return kind, key, block, info.state(amounts)
    if kind == "health":
        if not (type(value) is int
                or isinstance(value, str) and _DECIMAL_FRACTION.fullmatch(value)):
            raise bad(f"health factor must be a decimal, got {value!r}")
        return kind, key, block, Fraction(value)
    if kind == "shortfall":
        shortfall = _whole(value)
        if shortfall is None:
            raise bad(f"shortfall must be an integer, got {value!r}")
        return kind, key, block, shortfall
    raise bad(f"unknown snapshot kind {kind!r}")


def _cycle_path(finding: ArbitrageFinding):
    return [PathHop(s.venue, s.token_in, s.token_out) for s in finding.cycle]


def _simulated_profit(finding: ArbitrageFinding, provider: StateProvider,
                      block: int) -> Optional[int]:
    """Replay the cycle over pool states at `block`; profit in units of the
    cycle's entry token. None when any pool state is missing."""
    path = _cycle_path(finding)
    pools = {}
    for hop in path:
        state = provider.pool_state(hop.pool_key, block)
        if state is None:
            return None
        pools[hop.pool_key] = state
    amount_in = finding.cycle[0].amount_in
    try:
        final, _ = simulate_path(pools, path, amount_in)
    except Exception:
        return None
    return final - amount_in


def _walk_backward(finding_id, finding_block, horizon, candidates, is_open):
    """Shared backward walk: evaluate ``is_open`` on each block from the
    closest (finding_block - 1) down to one block past the horizon, stop at
    the first closed block; the opportunity is the candidate tx in the last
    open block.

    Probing one block beyond the horizon lets a transition exactly at
    distance ``horizon`` still be confirmed, while a transition farther out
    reports not-found.
    """
    last_open = None
    for block in range(finding_block - 1, max(finding_block - horizon - 2, -1), -1):
        open_ = is_open(block)
        if open_ is None:
            return OpportunityResult(finding_id, UNSIMULATABLE)
        if not open_:
            if last_open is None:
                # crossing sits between the finding and its immediate
                # predecessor block
                return OpportunityResult(finding_id, FOUND, None, 0,
                                         approximate=True)
            tx = candidates.get(last_open)
            return OpportunityResult(finding_id, FOUND, tx,
                                     finding_block - last_open,
                                     approximate=tx is None)
        if block >= finding_block - horizon:
            last_open = block
    return OpportunityResult(finding_id, NOT_FOUND)


def find_arbitrage_opportunity(finding: ArbitrageFinding, dataset: ChainDataset,
                               provider: StateProvider, pools_meta=None,
                               horizon: int = DEFAULT_HORIZON,
                               registry: TopicRegistry = DEFAULT_REGISTRY,
                               finding_id=None) -> OpportunityResult:
    """Walk blocks closest-to-farthest, re-simulating the cycle on each
    block's pool states, and stop at the first block where simulated profit
    is non-positive; the opportunity is the qualifying swap in the last
    profitable block."""
    finding_id = finding_id if finding_id is not None else finding.tx_hash
    finding_block = finding.cycle[0].position[0]
    venues = {s.venue for s in finding.cycle}
    lo = max(0, finding_block - horizon)
    hi = finding_block - 1
    candidates: dict = {}  # block -> first qualifying swap tx
    if hi >= lo:
        for log in logs_in_range(dataset, lo, hi):
            entry = registry.lookup(log.topics[0])
            if entry is None or not entry.has(Category.ARBITRAGE):
                continue
            if log.address not in venues:
                continue
            swap = decode_swap(log, pools_meta, registry)
            if swap is None:
                continue
            candidates.setdefault(log.block_number, log.tx_hash)
    if not candidates:
        return OpportunityResult(finding_id, NOT_FOUND)

    def is_open(block):
        profit = _simulated_profit(finding, provider, block)
        return None if profit is None else profit > 0

    return _walk_backward(finding_id, finding_block, horizon, candidates, is_open)


def find_liquidation_opportunity(finding: LiquidationFinding, dataset: ChainDataset,
                                 provider: StateProvider,
                                 horizon: int = DEFAULT_HORIZON,
                                 registry: TopicRegistry = DEFAULT_REGISTRY,
                                 finding_id=None) -> OpportunityResult:
    """Same walk over Chainlink update blocks, stopping when the position is
    no longer liquidable (hf >= 1 for Aave, sf == 0 for Compound)."""
    finding_id = finding_id if finding_id is not None else finding.tx_hash
    action = finding.actions[0]
    finding_block = action.position[0]
    use_shortfall = action.protocol == "compound_v2"
    lo = max(0, finding_block - horizon)
    hi = finding_block - 1
    candidates: dict = {}
    if hi >= lo:
        for log in logs_in_range(dataset, lo, hi):
            update = decode_oracle_update(log, registry)
            if update is not None:
                candidates.setdefault(log.block_number, log.tx_hash)
    if not candidates:
        return OpportunityResult(finding_id, NOT_FOUND)

    def is_open(block):
        if use_shortfall:
            sf = provider.shortfall(action.borrower, block)
            return None if sf is None else sf > 0
        hf = provider.health_factor(action.borrower, block)
        return None if hf is None else hf < 1

    return _walk_backward(finding_id, finding_block, horizon, candidates, is_open)


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


def reverted_rate(tx_status_lists: dict):
    """Per-extractor and aggregate fraction of reverted transactions.

    Values are exact rationals; empty lists report None.
    """
    per_extractor = {}
    total = reverted = 0
    for extractor, statuses in tx_status_lists.items():
        n = len(statuses)
        r = sum(1 for s in statuses if s == "reverted")
        per_extractor[extractor] = Fraction(r, n) if n else None
        total += n
        reverted += r
    aggregate = Fraction(reverted, total) if total else None
    return per_extractor, aggregate
