"""Core chain data types, JSONL fixture ingestion, and the JSONL reader
and hex rules every input loader shares.

A fixture file holds the blocks, transactions, and event logs of a single
chain as line-delimited JSON with an explicit ``kind`` tag per record.
Hashes and addresses are lowercase 0x-hex; token/wei amounts are decimal
strings so values above 64 bits survive round-trips.
"""

from __future__ import annotations

import gc
import json
import re
from bisect import bisect_left, bisect_right
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .errors import DuplicateKey, InvalidRange, MalformedRecord, OrderingViolation


class Layer(Enum):
    L1 = "L1"
    L2 = "L2"


class TxStatus(Enum):
    SUCCESS = "success"
    REVERTED = "reverted"


class ChainId(NamedTuple):
    name: str
    layer: Layer


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


def _lines(path):
    """Yield (line number, stripped text) for each non-blank line of a
    text file, counting lines as text mode does (LF, CRLF and a lone CR
    each end one). A line that is not UTF-8 raises MalformedRecord with
    the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line, raw in enumerate(fh, 1):
                raw = raw.strip()
                if raw:
                    yield line, raw
        except UnicodeDecodeError as exc:
            _raise_not_utf8(path, exc)


def _json_line(path, line, raw, parse):
    """``parse(obj)`` for one line that must hold one JSON object; a line
    that does not, or whose ``parse`` raises MalformedRecord, raises
    MalformedRecord with the file and the line."""
    # ValueError covers JSONDecodeError and integers past int's digit
    # limit; RecursionError, arrays or objects nested too deep
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(line, f"invalid JSON: {exc}", path) from None
    if not isinstance(obj, dict):
        raise MalformedRecord(line, "record must be a JSON object", path)
    try:
        return parse(obj)
    except MalformedRecord as exc:
        raise MalformedRecord(line, exc.reason, path) from None


def read_jsonl(path, parse):
    """Yield ``parse(obj)`` for each non-blank line of a JSONL file; every
    line-based input (fixtures, snapshots, bytecode, findings) is framed
    by ``_lines`` and parsed by ``_json_line``.

    A line that is not UTF-8 or not one JSON object, or whose ``parse``
    raises MalformedRecord, raises MalformedRecord with the file and the
    line.
    """
    for line, raw in _lines(path):
        yield _json_line(path, line, raw, parse)


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


class BlockRecord(NamedTuple):
    chain: ChainId
    number: int
    timestamp: int
    tx_hashes: tuple  # ordered 32-byte hashes


class TxRecord(NamedTuple):
    hash: bytes
    block_number: int
    tx_index: int
    sender: bytes
    to: Optional[bytes]
    fee_paid: int
    builder_payment: int = 0
    status: TxStatus = TxStatus.SUCCESS


class EventLog(NamedTuple):
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


class ChainDataset:
    """One chain's records; a command may narrow ``logs`` to a block range."""

    def __init__(self, chain: Optional[ChainId] = None, blocks=None, txs=None, logs=None):
        self.chain = chain
        self.blocks = [] if blocks is None else blocks    # BlockRecord, ascending number
        self.txs = [] if txs is None else txs             # TxRecord
        self.logs = [] if logs is None else logs          # EventLog, total order
        self._tx_by_hash = {t.hash: t for t in self.txs}
        self._block_by_number = {b.number: b for b in self.blocks}

    def __eq__(self, other):
        fields = attrgetter("chain", "blocks", "txs", "logs")
        return type(other) is ChainDataset and fields(self) == fields(other)

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


class _HexMemo(dict):
    """One load's fixed-length hex strings, each checked once and then
    shared as one bytes object by both parsing paths.

    ``check`` is a ``_hexstr`` for the json path. The memo keys on the
    string alone, so a hit must also have the asked length; a string seen
    at one length and asked at another falls through to ``_hexstr``,
    which raises. ``memo[value]`` is for a string that a canonical
    pattern matched, which is lowercase hex of the one length its field
    takes."""

    def __missing__(self, value):
        raw = self[value] = bytes.fromhex(value[2:])
        return raw

    def check(self, value, length, what):
        raw = self.get(value) if type(value) is str else None
        if raw is None or len(raw) != length:
            raw = self[value] = _hexstr(value, length, what)
        return raw


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


# dump_fixture's exact layout, one pattern per kind. Every line a pattern
# matches is one the json path accepts, and the record built from the
# match is the one the json path builds; every other line, valid or not,
# takes the json path, which alone rejects. Integers are bounded so int()
# never meets its digit limit.
_TX_STATUS = {s.value: s for s in TxStatus}
_H20 = r'"(0x[0-9a-f]{40})"'
_H32 = r'"(0x[0-9a-f]{64})"'
_WORDS = r'(?:"0x[0-9a-f]{64}",)'
_INT = r"(0|[1-9][0-9]{0,17})"
_DEC = r'"(0|[1-9][0-9]{0,77})"'
_CHAIN = '"(' + "|".join(CHAINS) + ')"'
_CANONICAL_BLOCK = re.compile(
    r'\{"kind":"block","chain":' + _CHAIN + ',"number":' + _INT + ',"timestamp":' + _INT
    + r',"tx_hashes":\[(' + _WORDS + r'*"0x[0-9a-f]{64}")?\]\}')
_CANONICAL_TX = re.compile(
    r'\{"kind":"tx","hash":' + _H32 + ',"block_number":' + _INT + ',"tx_index":' + _INT
    + ',"from":' + _H20 + '(?:,"to":' + _H20 + ')?,"fee_paid":' + _DEC
    + ',"builder_payment":' + _DEC + ',"status":"(' + "|".join(_TX_STATUS) + r')"\}')
_CANONICAL_LOG = re.compile(
    r'\{"kind":"log","chain":' + _CHAIN + ',"address":' + _H20
    + r',"topics":\[(' + _WORDS + r'{0,3}"0x[0-9a-f]{64}")\],"data":"0x((?:[0-9a-f]{64})*)"'
    + ',"block_number":' + _INT + ',"tx_index":' + _INT + ',"log_index":' + _INT
    + ',"tx_hash":' + _H32 + r'\}')


def _matched_words(text, memo) -> tuple:
    """The 32-byte words of a matched '"0x..","0x.."' list body."""
    if text is None:
        return ()
    return tuple([memo[w] for w in text[1:-1].split('","')])


def _canonical_block(groups, memo) -> Optional[BlockRecord]:
    chain, number, timestamp, tx_hashes = groups
    timestamp = int(timestamp)
    if timestamp > _MAX_TIMESTAMP:
        return None
    return BlockRecord(CHAINS[chain], int(number), timestamp,
                       _matched_words(tx_hashes, memo))


def _canonical_tx(groups, memo) -> TxRecord:
    tx_hash, block, index, sender, to, fee, payment, status = groups
    return TxRecord(memo[tx_hash], int(block), int(index), memo[sender],
                    None if to is None else memo[to],
                    int(fee), int(payment), _TX_STATUS[status])


def _canonical_log(groups, memo) -> EventLog:
    chain, address, topics, data, block, tx_index, log_index, tx_hash = groups
    return EventLog(CHAINS[chain], memo[address], _matched_words(topics, memo),
                    bytes.fromhex(data), int(block), int(tx_index), int(log_index),
                    memo[tx_hash])


# most frequent kind first
_CANONICAL = (("log", _CANONICAL_LOG.fullmatch, _canonical_log),
              ("tx", _CANONICAL_TX.fullmatch, _canonical_tx),
              ("block", _CANONICAL_BLOCK.fullmatch, _canonical_block))


def _canonical_record(raw, memo):
    """(kind, record) for a line in dump_fixture's exact layout; None for
    any other line."""
    for kind, fullmatch, build in _CANONICAL:
        m = fullmatch(raw)
        if m is not None:
            record = build(m.groups(), memo)
            return None if record is None else (kind, record)
    return None


def _in_key_order(records, keys, what, path) -> list:
    """``records`` sorted by their ``keys``; DuplicateKey names the first
    key that repeats, in file order."""
    by_key = dict(zip(keys, records))
    if len(by_key) < len(records):
        seen = set()
        for key in keys:
            if key in seen:
                raise DuplicateKey(f"{path}: {what} coordinates {key}")
            seen.add(key)
    return [by_key[key] for key in sorted(by_key)]


def load_fixture(path) -> ChainDataset:
    """Parse one chain's JSONL fixture, validating ordering invariants.

    A line in ``dump_fixture``'s layout is built straight from one
    compiled match; any other line goes through ``json`` and the record
    parsers, and loads to the same record. Rejects the whole file on the
    first malformed record, ordering violation, or duplicate coordinate;
    every error names the file.
    """
    # The records and their key tuples form no reference cycles, yet each
    # allocation counts toward the cyclic collector, which would rescan
    # the growing heap again and again; pause it for the load, and restore
    # the caller's setting however the load ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load_fixture(path)
    finally:
        if collecting:
            gc.enable()


def _load_fixture(path) -> ChainDataset:
    records = {kind: [] for kind in _PARSERS}
    memo = _HexMemo()

    def parse(obj):
        return _parse_record(obj, memo.check)

    for line, raw in _lines(path):
        parsed = _canonical_record(raw, memo)
        if parsed is None:
            parsed = _json_line(path, line, raw, parse)
        kind, record = parsed
        records[kind].append(record)
    blocks, txs, logs = records["block"], records["tx"], records["log"]

    names = {b.chain.name for b in blocks}
    names.update([l.chain.name for l in logs])
    if len(names) > 1:
        raise MalformedRecord(None, f"fixture mixes chains: {sorted(names)}", path)
    chain = CHAINS[names.pop()] if names else None

    for prev, cur in zip(blocks, blocks[1:]):
        if cur.number <= prev.number:
            raise OrderingViolation(f"{path}: block {cur.number} after block {prev.number}")
        if cur.timestamp < prev.timestamp:
            raise OrderingViolation(f"{path}: timestamp decreases at block {cur.number}: "
                                    f"{prev.timestamp} -> {cur.timestamp}")

    txs = _in_key_order(txs, [(t.block_number, t.tx_index) for t in txs], "tx", path)
    logs = _in_key_order(
        logs, [(l.block_number, l.tx_index, l.log_index) for l in logs], "log", path)
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
