"""Core chain data types and JSONL fixture ingestion.

A fixture file holds the blocks, transactions, and event logs of a single
chain as line-delimited JSON with an explicit ``kind`` tag per record.
Hashes and addresses are lowercase 0x-hex; token/wei amounts are decimal
strings so values above 64 bits survive round-trips.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import DuplicateKey, InvalidRange, MalformedRecord, OrderingViolation


class Layer(Enum):
    L1 = "L1"
    L2 = "L2"


class TxStatus(Enum):
    SUCCESS = "success"
    REVERTED = "reverted"


@dataclass(frozen=True)
class ChainId:
    name: str
    layer: Layer

    def __post_init__(self):
        assert self.layer is (Layer.L1 if self.name == "ethereum" else Layer.L2)


ETHEREUM = ChainId("ethereum", Layer.L1)
ARBITRUM = ChainId("arbitrum", Layer.L2)
OPTIMISM = ChainId("optimism", Layer.L2)
ZKSYNC = ChainId("zksync", Layer.L2)

CHAINS = {c.name: c for c in (ETHEREUM, ARBITRUM, OPTIMISM, ZKSYNC)}


_DECIMAL = re.compile(r"[0-9]+")
# sidecar files (prices, snapshots, pools, attack config): hex bytes in
# either case, and non-negative decimals such as "0.0005"
_HEX_BYTES = re.compile(r"(?:[0-9a-fA-F]{2})+")
_DECIMAL_FRACTION = re.compile(r"[0-9]*\.?[0-9]+")


def _hexstr(value, length, line, what):
    if not isinstance(value, str) or not value.startswith("0x"):
        raise MalformedRecord(line, f"{what} must be 0x-hex, got {value!r}")
    body = value[2:]
    if length is not None and len(body) != 2 * length:
        raise MalformedRecord(line, f"{what} must be {length} bytes, got {value!r}")
    # bytes.fromhex alone would skip whitespace and accept uppercase; the
    # exact round trip rejects both, and fromhex rejects odd lengths
    try:
        raw = bytes.fromhex(body)
    except ValueError:
        raw = None
    if raw is None or raw.hex() != body:
        raise MalformedRecord(line, f"{what} must be lowercase hex bytes: {value!r}")
    return raw


def _amount(value, line, what):
    # str.isdigit() would accept non-ASCII digits such as "²", which int() rejects
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise MalformedRecord(line, f"{what} must be a decimal string, got {value!r}")


def _whole(value) -> Optional[int]:
    """A non-negative int, or a decimal digit string as an int; None
    otherwise."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    return None


def _json_object(path) -> dict:
    """A sidecar holding one JSON object; MalformedRecord with the file
    (and the line, for invalid JSON) otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(exc.lineno, f"invalid JSON: {exc.msg}", path) from None
    if not isinstance(obj, dict):
        raise MalformedRecord(None, "top level must be a JSON object", path)
    return obj


def to_hex(b: bytes) -> str:
    return "0x" + b.hex()


@dataclass(frozen=True)
class BlockRecord:
    chain: ChainId
    number: int
    timestamp: int
    tx_hashes: tuple  # ordered 32-byte hashes


@dataclass(frozen=True)
class TxRecord:
    hash: bytes
    block_number: int
    tx_index: int
    sender: bytes
    to: Optional[bytes]
    fee_paid: int
    builder_payment: int = 0
    status: TxStatus = TxStatus.SUCCESS


@dataclass(frozen=True)
class EventLog:
    chain: ChainId
    address: bytes
    topics: tuple  # 1-4 32-byte words
    data: bytes
    block_number: int
    tx_index: int
    log_index: int
    tx_hash: bytes

    @property
    def position(self):
        return (self.block_number, self.tx_index, self.log_index)


@dataclass
class ChainDataset:
    """Immutable after load; safe for concurrent readers."""

    chain: Optional[ChainId] = None
    blocks: list = field(default_factory=list)        # BlockRecord, ascending number
    txs: list = field(default_factory=list)           # TxRecord
    logs: list = field(default_factory=list)          # EventLog, total order

    def __post_init__(self):
        self._tx_by_hash = {t.hash: t for t in self.txs}
        self._block_by_number = {b.number: b for b in self.blocks}

    def tx(self, tx_hash: bytes) -> Optional[TxRecord]:
        return self._tx_by_hash.get(tx_hash)

    def block(self, number: int) -> Optional[BlockRecord]:
        return self._block_by_number.get(number)

    def block_timestamp(self, number: int) -> Optional[int]:
        b = self._block_by_number.get(number)
        return b.timestamp if b else None


def _parse_block(obj, line) -> BlockRecord:
    try:
        chain = CHAINS[obj["chain"]]
    except KeyError:
        raise MalformedRecord(line, f"unknown or missing chain: {obj.get('chain')!r}")
    number = obj.get("number")
    ts = obj.get("timestamp")
    if not isinstance(number, int) or number < 0:
        raise MalformedRecord(line, "block number must be a non-negative integer")
    if not isinstance(ts, int):
        raise MalformedRecord(line, "block timestamp must be an integer")
    hashes = tuple(_hexstr(h, 32, line, "tx hash") for h in obj.get("tx_hashes", []))
    return BlockRecord(chain, number, ts, hashes)


def _parse_tx(obj, line) -> TxRecord:
    to_raw = obj.get("to")
    try:
        status = TxStatus(obj.get("status", "success"))
    except ValueError:
        raise MalformedRecord(line, f"unknown tx status {obj.get('status')!r}")
    tx = TxRecord(
        hash=_hexstr(obj.get("hash"), 32, line, "tx hash"),
        block_number=obj.get("block_number"),
        tx_index=obj.get("tx_index"),
        sender=_hexstr(obj.get("from"), 20, line, "from"),
        to=None if to_raw is None else _hexstr(to_raw, 20, line, "to"),
        fee_paid=_amount(obj.get("fee_paid", "0"), line, "fee_paid"),
        builder_payment=_amount(obj.get("builder_payment", "0"), line, "builder_payment"),
        status=status,
    )
    if not isinstance(tx.block_number, int) or not isinstance(tx.tx_index, int) or tx.tx_index < 0:
        raise MalformedRecord(line, "tx block_number/tx_index must be integers")
    return tx


def _parse_log(obj, line) -> EventLog:
    try:
        chain = CHAINS[obj["chain"]]
    except KeyError:
        raise MalformedRecord(line, f"unknown or missing chain: {obj.get('chain')!r}")
    topics = tuple(_hexstr(t, 32, line, "topic") for t in obj.get("topics", []))
    if not 1 <= len(topics) <= 4:
        raise MalformedRecord(line, f"log must have 1-4 topics, got {len(topics)}")
    data = _hexstr(obj.get("data", "0x"), None, line, "data")
    if len(data) % 32 != 0:
        raise MalformedRecord(line, "log data length must be a multiple of 32")
    for k in ("block_number", "tx_index", "log_index"):
        if not isinstance(obj.get(k), int):
            raise MalformedRecord(line, f"log {k} must be an integer")
    return EventLog(
        chain=chain,
        address=_hexstr(obj.get("address"), 20, line, "address"),
        topics=topics,
        data=data,
        block_number=obj["block_number"],
        tx_index=obj["tx_index"],
        log_index=obj["log_index"],
        tx_hash=_hexstr(obj.get("tx_hash"), 32, line, "tx_hash"),
    )


def load_fixture(path) -> ChainDataset:
    """Parse one chain's JSONL fixture, validating ordering invariants.

    Rejects the whole file on the first malformed record, ordering
    violation, or duplicate coordinate.
    """
    blocks, txs, logs = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc}")
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, "record must be a JSON object")
            kind = obj.get("kind")
            if kind == "block":
                blocks.append(_parse_block(obj, line_no))
            elif kind == "tx":
                txs.append(_parse_tx(obj, line_no))
            elif kind == "log":
                logs.append(_parse_log(obj, line_no))
            else:
                raise MalformedRecord(line_no, f"unknown kind {kind!r}")

    chains = {b.chain for b in blocks} | {l.chain for l in logs}
    if len(chains) > 1:
        raise MalformedRecord(0, f"fixture mixes chains: {sorted(c.name for c in chains)}")
    chain = next(iter(chains)) if chains else None

    for prev, cur in zip(blocks, blocks[1:]):
        if cur.number <= prev.number:
            raise OrderingViolation(f"block {cur.number} after block {prev.number}")
        if cur.timestamp < prev.timestamp:
            raise OrderingViolation(
                f"timestamp decreases at block {cur.number}: {prev.timestamp} -> {cur.timestamp}")

    seen_tx = set()
    for t in txs:
        key = (t.block_number, t.tx_index)
        if key in seen_tx:
            raise DuplicateKey(f"tx coordinates {key}")
        seen_tx.add(key)

    seen_log = set()
    for l in logs:
        if l.position in seen_log:
            raise DuplicateKey(f"log coordinates {l.position}")
        seen_log.add(l.position)
    logs.sort(key=lambda l: l.position)
    txs.sort(key=lambda t: (t.block_number, t.tx_index))

    return ChainDataset(chain=chain, blocks=blocks, txs=txs, logs=logs)


def dump_fixture(dataset: ChainDataset, path) -> None:
    """Serialize a dataset back to canonical JSONL (blocks, txs, logs, each
    in total order, fixed key order). load_fixture(dump_fixture(d)) is the
    identity and re-serializing is byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in sorted(dataset.blocks, key=lambda b: b.number):
            fh.write(json.dumps({
                "kind": "block",
                "chain": b.chain.name,
                "number": b.number,
                "timestamp": b.timestamp,
                "tx_hashes": [to_hex(h) for h in b.tx_hashes],
            }, separators=(",", ":")) + "\n")
        for t in sorted(dataset.txs, key=lambda t: (t.block_number, t.tx_index)):
            obj = {
                "kind": "tx",
                "hash": to_hex(t.hash),
                "block_number": t.block_number,
                "tx_index": t.tx_index,
                "from": to_hex(t.sender),
            }
            if t.to is not None:
                obj["to"] = to_hex(t.to)
            obj["fee_paid"] = str(t.fee_paid)
            obj["builder_payment"] = str(t.builder_payment)
            obj["status"] = t.status.value
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        for l in sorted(dataset.logs, key=lambda l: l.position):
            fh.write(json.dumps({
                "kind": "log",
                "chain": l.chain.name,
                "address": to_hex(l.address),
                "topics": [to_hex(t) for t in l.topics],
                "data": to_hex(l.data),
                "block_number": l.block_number,
                "tx_index": l.tx_index,
                "log_index": l.log_index,
                "tx_hash": to_hex(l.tx_hash),
            }, separators=(",", ":")) + "\n")


_block_number = attrgetter("block_number")


def logs_in_range(dataset: ChainDataset, from_block: int, to_block: int,
                  topics: Optional[Iterable[bytes]] = None) -> list:
    """Logs with block_number in [from_block, to_block] matching any filter
    topic (topic0), in (block, tx_index, log_index) order.

    Bisects ``dataset.logs``, which must be in that order.
    """
    if from_block > to_block:
        raise InvalidRange(f"from_block {from_block} > to_block {to_block}")
    logs = dataset.logs
    hit = logs[bisect_left(logs, from_block, key=_block_number):
               bisect_right(logs, to_block, key=_block_number)]
    if topics is None:
        return hit
    wanted = set(topics)
    return [log for log in hit if log.topics[0] in wanted]


def group_logs_by_tx(logs: Sequence[EventLog]) -> "dict[bytes, list]":
    """Group logs by tx hash preserving log order; dict preserves first-seen
    tx order."""
    grouped: dict = {}
    for log in logs:
        grouped.setdefault(log.tx_hash, []).append(log)
    return grouped
