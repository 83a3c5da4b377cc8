"""Core chain data types, the chain fixture's load and dump, and the
JSONL reader and hex rules every input loader shares; the fixture parser
itself is ``fixture_parser``.

A fixture file holds the blocks, transactions, and event logs of a single
chain as line-delimited JSON with an explicit ``kind`` tag per record.
Hashes and addresses are lowercase 0x-hex; token/wei amounts are decimal
strings so values above 64 bits survive round-trips.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from bisect import bisect_left, bisect_right
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import InvalidRange, MalformedRecord


class _Log:
    """The ``mevlens`` logger's ``debug`` and ``info``, the levels mevlens
    logs at, without importing ``logging``: until something imports it
    (``cli`` when MEVLENS_LOG is set, or a host program) no handler
    exists to take a record. A record names the caller's line."""

    def debug(self, *args, **kwargs):
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger("mevlens").debug(*args, stacklevel=2, **kwargs)

    def info(self, *args, **kwargs):
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger("mevlens").info(*args, stacklevel=2, **kwargs)


_log = _Log()


class Layer(Enum):
    L1 = "L1"
    L2 = "L2"


class TxStatus(Enum):
    SUCCESS = "success"
    REVERTED = "reverted"


# a status by its value, as a fixture and a cache entry hold it
_TX_STATUS = {s.value: s for s in TxStatus}


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


def _fromhex(body) -> bytes:
    """The bytes of a body of lowercase hex digit pairs; ValueError for any
    other string. bytes.fromhex alone would skip whitespace and accept
    uppercase; the exact round trip rejects both, and fromhex rejects odd
    lengths and anything but ASCII hex digits."""
    raw = bytes.fromhex(body)
    if raw.hex() != body:
        raise ValueError(f"not lowercase hex: {body!r}")
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


def _text_lines(path):
    """Yield (line number, text with its line end) for each line of a text
    file, ended as text mode ends them (LF, CRLF or a lone CR). A line that
    is not UTF-8 raises MalformedRecord with the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            _raise_not_utf8(path, exc)


def _lines(path):
    """(line number, stripped text) for each non-blank ``_text_lines``."""
    for line, raw in _text_lines(path):
        raw = raw.strip()
        if raw:
            yield line, raw


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
    """A sidecar holding one JSON object, in which no object gives a key
    twice; MalformedRecord with the file (and the line, for invalid JSON)
    otherwise."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise MalformedRecord(None, f"key {key!r} given twice in one object", path)
            obj[key] = value
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=unique)
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


def _timestamp(obj, key):
    """A unix timestamp month_of can render: 0 to the end of year 9999."""
    value = obj.get(key)
    if type(value) is int and 0 <= value <= _MAX_TIMESTAMP:
        return value
    raise MalformedRecord(
        None, f"{key} must be an integer in [0, {_MAX_TIMESTAMP}], got {value!r}")


def load_fixture(path) -> ChainDataset:
    """Parse one chain's JSONL fixture, validating ordering invariants.

    A line in ``dump_fixture``'s layout is built straight from one
    compiled match; any other line goes through ``json`` and the record
    parsers, and loads to the same record. Rejects the whole file on the
    first malformed record, ordering violation, or duplicate coordinate;
    every error names the file. Logs at INFO what it read.
    """
    # The records and their key tuples form no reference cycles, yet each
    # allocation counts toward the cyclic collector, which would rescan
    # the growing heap again and again; pause it for the load, and restore
    # the caller's setting however the load ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        from . import fixture_cache
        dataset, by_json = fixture_cache.load(path)
    finally:
        if collecting:
            gc.enable()
    _log.info("loaded %s: %d blocks, %d txs, %d logs; json-path lines: %d", path,
              len(dataset.blocks), len(dataset.txs), len(dataset.logs), by_json)
    return dataset


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

