"""Core chain data types, JSONL fixture ingestion, and the JSONL reader
and hex rules every input loader shares.

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
from typing import Optional, Sequence

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
# sidecar files (prices, snapshots, pools, attack config): non-negative
# decimals such as "0.0005"
_DECIMAL_FRACTION = re.compile(r"[0-9]*\.?[0-9]+")
# the last second month_of can render: 9999-12-31T23:59:59Z
_MAX_TIMESTAMP = 253402300799
# int() and Fraction() refuse a decimal past the interpreter's digit limit:
# 4300 by default, and never below 640 (sys.int_info.
# str_digits_check_threshold) whatever PYTHONINTMAXSTRDIGITS says. A
# uint256 has at most 78 digits.
_MAX_DECIMAL_CHARS = 640


def _hexstr(value, length, what):
    if not isinstance(value, str) or not value.startswith("0x"):
        raise MalformedRecord(None, f"{what} must be 0x-hex, got {value!r}")
    body = value[2:]
    if length is not None and len(body) != 2 * length:
        raise MalformedRecord(None, f"{what} must be {length} bytes, got {value!r}")
    # bytes.fromhex alone would skip whitespace and accept uppercase; the
    # exact round trip rejects both, and fromhex rejects odd lengths
    try:
        raw = bytes.fromhex(body)
    except ValueError:
        raw = None
    if raw is None or raw.hex() != body:
        raise MalformedRecord(None, f"{what} must be lowercase hex bytes: {value!r}")
    return raw


def _sidecar_hex(value, allow_empty=False) -> Optional[bytes]:
    """Sidecar hex: a string of hex bytes in either case with an optional
    0x prefix, at least one byte unless ``allow_empty``; None otherwise.
    fromhex skips whitespace, so a body with any is longer than two digits
    per byte."""
    if not isinstance(value, str):
        return None
    body = value.removeprefix("0x")
    try:
        data = bytes.fromhex(body)
    except ValueError:
        return None
    if 2 * len(data) != len(body) or not (data or allow_empty):
        return None
    return data


def _decimal(value, pattern=_DECIMAL) -> bool:
    """Whether ``value`` is a string that fully matches ``pattern`` and is
    short enough for int() and Fraction(). A regex, not str.isdigit(),
    which would accept non-ASCII digits such as "²" that int() rejects."""
    return (isinstance(value, str) and len(value) <= _MAX_DECIMAL_CHARS
            and pattern.fullmatch(value) is not None)


def _amount(value, what):
    if _decimal(value):
        return int(value)
    raise MalformedRecord(None, f"{what} must be a decimal string, got {value!r}")


def _whole(value) -> Optional[int]:
    """A non-negative int, or a decimal digit string as an int; None
    otherwise."""
    if type(value) is int and value >= 0:
        return value
    if _decimal(value):
        return int(value)
    return None


def _raise_not_utf8(path, exc: UnicodeDecodeError):
    """Raise the error for a text read of ``path`` that failed with ``exc``:
    MalformedRecord naming the first line that is not UTF-8, counting lines
    as text mode does (LF, CRLF and a lone CR each end one). If every line
    decodes, ``exc`` came from elsewhere and is re-raised. Runs only once a
    read has failed, so valid input pays nothing for it."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as bad:
            raise MalformedRecord(line, f"not UTF-8: {bad}", path) from None
    raise exc


def read_jsonl(path, parse):
    """Yield ``parse(obj)`` for each non-blank line of a JSONL file; every
    line-based input (fixtures, snapshots, bytecode, findings) is read here.

    A line that is not UTF-8 or not one JSON object, or whose ``parse``
    raises MalformedRecord, raises MalformedRecord with the file and the
    line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line, raw in enumerate(fh, 1):
                raw = raw.strip()
                if not raw:
                    continue
                # ValueError covers JSONDecodeError and integers past int's
                # digit limit; RecursionError, arrays or objects nested too deep
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecord(line, f"invalid JSON: {exc}", path) from None
                if not isinstance(obj, dict):
                    raise MalformedRecord(line, "record must be a JSON object", path)
                try:
                    record = parse(obj)
                except MalformedRecord as exc:
                    raise MalformedRecord(line, exc.reason, path) from None
                yield record
        except UnicodeDecodeError as exc:
            _raise_not_utf8(path, exc)


def _json_object(path) -> dict:
    """A sidecar holding one JSON object; MalformedRecord with the file
    (and the line, for invalid JSON) otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            _raise_not_utf8(path, exc)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(exc.lineno, f"invalid JSON: {exc.msg}", path) from None
        except (ValueError, RecursionError) as exc:
            raise MalformedRecord(None, f"invalid JSON: {exc}", path) from None
    if not isinstance(obj, dict):
        raise MalformedRecord(None, "top level must be a JSON object", path)
    return obj


def to_hex(b: bytes) -> str:
    return "0x" + b.hex()


@dataclass(frozen=True, slots=True)
class BlockRecord:
    chain: ChainId
    number: int
    timestamp: int
    tx_hashes: tuple  # ordered 32-byte hashes


@dataclass(frozen=True, slots=True)
class TxRecord:
    hash: bytes
    block_number: int
    tx_index: int
    sender: bytes
    to: Optional[bytes]
    fee_paid: int
    builder_payment: int = 0
    status: TxStatus = TxStatus.SUCCESS


@dataclass(frozen=True, slots=True)
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

    def block_timestamp(self, number: int) -> Optional[int]:
        b = self._block_by_number.get(number)
        return b.timestamp if b else None


def _chain(obj) -> ChainId:
    name = obj.get("chain")
    if isinstance(name, str) and name in CHAINS:
        return CHAINS[name]
    raise MalformedRecord(None, f"unknown or missing chain: {name!r}")


def _index(obj, key):
    """A non-negative JSON integer field (true and false are not)."""
    value = obj.get(key)
    if type(value) is int and value >= 0:
        return value
    raise MalformedRecord(None, f"{key} must be a non-negative integer, got {value!r}")


def _timestamp(obj, key):
    """A unix timestamp month_of can render: 0 to the end of year 9999."""
    value = obj.get(key)
    if type(value) is int and 0 <= value <= _MAX_TIMESTAMP:
        return value
    raise MalformedRecord(
        None, f"{key} must be an integer in [0, {_MAX_TIMESTAMP}], got {value!r}")


def _hex_memo():
    """A ``_hexstr`` for fixed-length values that checks each distinct
    string once and then returns the same bytes object for it. The memo
    keys on the string alone, so a hit must also have the asked length; a
    string seen at one length and asked at another falls through to
    ``_hexstr``, which raises."""
    memo = {}

    def hexstr(value, length, what):
        raw = memo.get(value) if type(value) is str else None
        if raw is None or len(raw) != length:
            raw = memo[value] = _hexstr(value, length, what)
        return raw

    return hexstr


def _hex_list(obj, key, what, hexstr):
    values = obj.get(key, [])
    if not isinstance(values, list):
        raise MalformedRecord(None, f"{key} must be a list, got {values!r}")
    return tuple([hexstr(v, 32, what) for v in values])


def _parse_block(obj, hexstr) -> BlockRecord:
    chain = _chain(obj)
    number = _index(obj, "number")
    ts = _timestamp(obj, "timestamp")
    return BlockRecord(chain, number, ts, _hex_list(obj, "tx_hashes", "tx hash", hexstr))


def _parse_tx(obj, hexstr) -> TxRecord:
    to_raw = obj.get("to")
    try:
        status = TxStatus(obj.get("status", "success"))
    except ValueError:
        raise MalformedRecord(None, f"unknown tx status {obj.get('status')!r}")
    return TxRecord(
        hexstr(obj.get("hash"), 32, "tx hash"),
        _index(obj, "block_number"),
        _index(obj, "tx_index"),
        hexstr(obj.get("from"), 20, "from"),
        None if to_raw is None else hexstr(to_raw, 20, "to"),
        _amount(obj.get("fee_paid", "0"), "fee_paid"),
        _amount(obj.get("builder_payment", "0"), "builder_payment"),
        status,
    )


def _parse_log(obj, hexstr) -> EventLog:
    chain = _chain(obj)
    topics = _hex_list(obj, "topics", "topic", hexstr)
    if not 1 <= len(topics) <= 4:
        raise MalformedRecord(None, f"log must have 1-4 topics, got {len(topics)}")
    data = _hexstr(obj.get("data", "0x"), None, "data")
    if len(data) % 32 != 0:
        raise MalformedRecord(None, "log data length must be a multiple of 32")
    return EventLog(
        chain,
        hexstr(obj.get("address"), 20, "address"),
        topics,
        data,
        _index(obj, "block_number"),
        _index(obj, "tx_index"),
        _index(obj, "log_index"),
        hexstr(obj.get("tx_hash"), 32, "tx_hash"),
    )


_PARSERS = {"block": _parse_block, "tx": _parse_tx, "log": _parse_log}


def _parse_record(obj, hexstr):
    kind = obj.get("kind")
    parse = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parse is None:
        raise MalformedRecord(None, f"unknown kind {kind!r}")
    return kind, parse(obj, hexstr)


def load_fixture(path) -> ChainDataset:
    """Parse one chain's JSONL fixture, validating ordering invariants.

    Rejects the whole file on the first malformed record, ordering
    violation, or duplicate coordinate; every error names the file.
    """
    records = {kind: [] for kind in _PARSERS}
    hexstr = _hex_memo()
    for kind, record in read_jsonl(path, lambda obj: _parse_record(obj, hexstr)):
        records[kind].append(record)
    blocks, txs, logs = records["block"], records["tx"], records["log"]

    chains = {b.chain for b in blocks} | {l.chain for l in logs}
    if len(chains) > 1:
        raise MalformedRecord(
            None, f"fixture mixes chains: {sorted(c.name for c in chains)}", path)
    chain = next(iter(chains)) if chains else None

    for prev, cur in zip(blocks, blocks[1:]):
        if cur.number <= prev.number:
            raise OrderingViolation(f"{path}: block {cur.number} after block {prev.number}")
        if cur.timestamp < prev.timestamp:
            raise OrderingViolation(f"{path}: timestamp decreases at block {cur.number}: "
                                    f"{prev.timestamp} -> {cur.timestamp}")

    seen_tx = set()
    for t in txs:
        key = (t.block_number, t.tx_index)
        if key in seen_tx:
            raise DuplicateKey(f"{path}: tx coordinates {key}")
        seen_tx.add(key)

    seen_log = set()
    for l in logs:
        if l.position in seen_log:
            raise DuplicateKey(f"{path}: log coordinates {l.position}")
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


def logs_in_range(dataset: ChainDataset, from_block: int, to_block: int) -> list:
    """Logs with block_number in [from_block, to_block], in (block,
    tx_index, log_index) order.

    Bisects ``dataset.logs``, which must be in that order.
    """
    if from_block > to_block:
        raise InvalidRange(f"from_block {from_block} > to_block {to_block}")
    logs = dataset.logs
    return logs[bisect_left(logs, from_block, key=_block_number):
                bisect_right(logs, to_block, key=_block_number)]


def group_logs_by_tx(logs: Sequence[EventLog]) -> "dict[bytes, list]":
    """Group logs by tx hash preserving log order; dict preserves first-seen
    tx order."""
    grouped: dict = {}
    for log in logs:
        grouped.setdefault(log.tx_hash, []).append(log)
    return grouped
