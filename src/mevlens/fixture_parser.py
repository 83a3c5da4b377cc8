"""The chain fixture parser: ``_load_fixture`` and what only it runs; and
the fixture cache's writer, ``_parse_and_write`` and what only it runs.

``fixture_cache`` imports this module only for a load that the entry
does not serve, so a load that the entry serves compiles none of it.
"""

from __future__ import annotations

import marshal
import os
import re
from bisect import bisect_left
from itertools import chain, pairwise, repeat, starmap
from operator import attrgetter, lt

from .chain_model import (_MAX_TIMESTAMP, _TX_STATUS, CHAINS, BlockRecord, ChainDataset, EventLog,
                          TxRecord, TxStatus, _chain, _decimal, _fromhex, _json_line, _log,
                          _text_lines, _timestamp)
from .errors import DuplicateKey, MalformedRecord, OrderingViolation
from .fixture_cache import SECTION, _MAGIC, _digest, _stamp


def _hexstr(value, length, what):
    if not isinstance(value, str) or not value.startswith("0x"):
        raise MalformedRecord(None, f"{what} must be 0x-hex, got {value!r}")
    body = value[2:]
    if length is not None and len(body) != 2 * length:
        raise MalformedRecord(None, f"{what} must be {length} bytes, got {value!r}")
    try:
        return _fromhex(body)
    except ValueError:
        raise MalformedRecord(None, f"{what} must be lowercase hex bytes: {value!r}") from None


def _amount(value, what):
    if _decimal(value):
        return int(value)
    raise MalformedRecord(None, f"{what} must be a decimal string, got {value!r}")


def _index(obj, key):
    """A non-negative JSON integer field (true and false are not)."""
    value = obj.get(key)
    if type(value) is int and value >= 0:
        return value
    raise MalformedRecord(None, f"{key} must be a non-negative integer, got {value!r}")


class _HexMemo(dict):
    """One load's address and topic word strings, the hex values that recur
    across a fixture, each checked once and then shared as one bytes object.

    ``memo[body]`` is for a body a canonical pattern captured after '0x'
    at its field's length, so an address and a topic word never meet under
    one key: the body's bytes, or ValueError (and nothing kept), which
    sends the line to the json path."""

    def __missing__(self, body):
        raw = self[body] = _fromhex(body)
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


# dump_fixture's exact layout with its line end, one pattern per kind,
# picked by the character after '{"kind":"'. A hex field matches as '0x'
# and its length in characters but a quote; ``_fromhex`` checks every
# body, addresses and topic words once per distinct string (``_HexMemo``).
# A line that matches and passes is one the json path accepts, built to
# the record it builds; any other line takes the json path, which alone
# rejects. Integers are bounded so int() never meets its digit limit.
_H20 = r'"0x([^"]{40})"'
_H32 = r'"0x([^"]{64})"'
_WORDS = r'(?:"0x[^"]{64}",)'
_INT = r"(0|[1-9][0-9]{0,17})"
_DEC = r'"(0|[1-9][0-9]{0,77})"'
_CHAIN = '"(' + "|".join(CHAINS) + ')"'
_CANONICAL = {
    "b": re.compile(
        r'\{"kind":"block","chain":' + _CHAIN + ',"number":' + _INT + ',"timestamp":' + _INT
        + r',"tx_hashes":\[(' + _WORDS + r'*"0x[^"]{64}")?\]\}\n?').fullmatch,
    "t": re.compile(
        r'\{"kind":"tx","hash":' + _H32 + ',"block_number":' + _INT + ',"tx_index":' + _INT
        + ',"from":' + _H20 + '(?:,"to":' + _H20 + ')?,"fee_paid":' + _DEC
        + ',"builder_payment":' + _DEC + ',"status":"(' + "|".join(_TX_STATUS) + r')"\}\n?'
        ).fullmatch,
    "l": re.compile(
        r'\{"kind":"log","chain":' + _CHAIN + ',"address":' + _H20
        + r',"topics":\[(' + _WORDS + r'{0,3}"0x[^"]{64}")\],"data":"0x((?:[^"]{64})*)"'
        + ',"block_number":' + _INT + ',"tx_index":' + _INT + ',"log_index":' + _INT
        + ',"tx_hash":' + _H32 + r'\}\n?').fullmatch,
}


def _in_key_order(records, coordinates, what, path) -> list:
    """``records`` sorted by their ``coordinates``; DuplicateKey names the
    first key that repeats, in file order. Records already strictly
    ascending, as dump_fixture writes them, are checked pair by pair and
    come back as loaded: only a file out of order builds the key list."""
    key = attrgetter(*coordinates)
    if all(starmap(lt, pairwise(map(key, records)))):
        return records
    keys = list(map(key, records))
    by_key = dict(zip(keys, records))
    if len(by_key) < len(records):
        seen = set()
        for key in keys:
            if key in seen:
                raise DuplicateKey(f"{path}: {what} coordinates {key}")
            seen.add(key)
    return [by_key[key] for key in sorted(by_key)]


def _load_fixture(path):
    """The dataset and the number of lines that took the json path.

    Equal values are kept once. Addresses and topic words recur across a
    file, so a canonical line takes their bytes from the memo, which holds
    one string per distinct value until the load ends. Tx hashes, senders
    and block numbers recur a few times at most, so they are converted
    where they appear and shared through tables keyed by value, which hold
    no string. A log whose tx hash or block string is the previous log's
    reuses its value."""
    blocks, txs, logs = [], [], []
    records = {"block": blocks, "tx": txs, "log": logs}
    # share(value, value) is the first value equal to it. Senders recur
    # only among txs, which the canonical layout writes before the logs,
    # so their table is emptied at the first log.
    shared, senders = {}, {}
    share, share_sender = shared.setdefault, senders.setdefault
    memo, by_json = _HexMemo(), 0
    new, hexes = tuple.__new__, memo.__getitem__
    last_hash = last_block = hash_raw = number = None

    def json_hex(value, length, what):
        raw = _hexstr(value, length, what)
        return share(raw, raw)

    for line, raw in _text_lines(path):
        kind = raw[9:10]
        match = kind in _CANONICAL and _CANONICAL[kind](raw)
        try:
            if match and kind == "l":
                if senders:
                    senders.clear()
                chain, address, topics, data, block, tx_index, log_index, tx_hash = match.groups()
                if tx_hash != last_hash:
                    hash_raw = _fromhex(tx_hash)
                    last_hash, hash_raw = tx_hash, share(hash_raw, hash_raw)
                if block != last_block:
                    number = int(block)
                    last_block, number = block, share(number, number)
                logs.append(new(EventLog, (
                    CHAINS[chain], memo[address], tuple(map(hexes, topics[3:-1].split('","0x'))),
                    _fromhex(data), number, int(tx_index), int(log_index), hash_raw)))
                continue
            if match and kind == "t":
                tx_hash, block, index, sender, to, fee, payment, status = match.groups()
                tx_hash, block, sender = _fromhex(tx_hash), int(block), _fromhex(sender)
                txs.append(new(TxRecord, (
                    share(tx_hash, tx_hash), share(block, block), int(index),
                    share_sender(sender, sender), to and memo[to], int(fee), int(payment),
                    _TX_STATUS[status])))
                continue
            if match and int(match[3]) <= _MAX_TIMESTAMP:
                chain, block, timestamp, tx_hashes = match.groups()
                block = int(block)
                blocks.append(new(BlockRecord, (
                    CHAINS[chain], share(block, block), int(timestamp),
                    tuple([share(h, h) for h in map(_fromhex, tx_hashes[3:-1].split('","0x'))])
                    if tx_hashes else ())))
                continue
        except ValueError:
            pass
        raw = raw.strip()
        if raw:
            by_json += 1
            kind, record = _json_line(path, line, raw, lambda obj: _parse_record(obj, json_hex))
            records[kind].append(record)
    # the records keep the values; the memo's strings and the tables go
    # before the ordering checks allocate
    del memo, hexes, shared, senders, share, share_sender, json_hex, last_hash, last_block

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

    txs = _in_key_order(txs, ("block_number", "tx_index"), "tx", path)
    logs = _in_key_order(logs, ("block_number", "tx_index", "log_index"), "log", path)
    return ChainDataset(chain=chain, blocks=blocks, txs=txs, logs=logs), by_json


# --- the cache entry's writer ---

def _clock(fh) -> int:
    """The file system's time now, in ns: the modification time it gave
    the file just created at ``fh``."""
    return os.fstat(fh.fileno()).st_mtime_ns


def _parse_and_write(path, entry, code, reason):
    """The parse of a fixture that its entry does not serve; the entry is
    then written again through a temporary file. A load that cannot
    create that file only parses."""
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        # created here or not at all: an existing path, a symlink too, is
        # an OSError, so no write lands outside the directory
        out = open(tmp, "xb")
    except OSError as exc:
        loaded = _load_fixture(path)
        _log.debug("fixture cache miss (%s): not written: %s", reason, exc)
        return loaded
    try:
        # before the stamp: a write to the fixture after it sets the
        # fixture's change time past it
        clock = _clock(out)
        stamp = _stamp(os.stat(path))
        loaded = _load_fixture(path)
        try:
            if _stamp(os.stat(path)) != stamp:
                outcome = "not written: the fixture changed while it was read"
            else:
                _write(out, (code, stamp, clock), *loaded)
                out.close()
                os.replace(tmp, entry)
                outcome = f"wrote {entry}"
        except OSError as exc:
            outcome = f"not written: {exc}"
    finally:
        out.close()
        try:
            os.remove(tmp)
        except OSError:
            pass
    _log.debug("fixture cache miss (%s): %s", reason, outcome)
    return loaded


def _write(out, header, dataset, by_json):
    """Write ``dataset``'s entry to ``out``, holding one section at a time:
    its magic, the ``header`` and the sections."""
    from array import array

    def put(value):
        payload = marshal.dumps(value, 2)   # version 2: no table of objects seen
        out.write(len(payload).to_bytes(8, "little") + _digest(payload))
        out.write(payload)

    def at(table, items):
        return array("I", map(bisect_left, repeat(table), items)).tobytes()

    def lengths(items):
        return array("I", map(len, items)).tobytes()

    blocks, txs, logs = dataset.blocks, dataset.txs, dataset.logs
    # one sorted table per kind of shared value, each deduplicated on its
    # own, so that one set at a time is held
    tables = hashes, senders, addresses, words, numbers = [sorted(set(values)) for values in (
        chain(chain.from_iterable(map(attrgetter("tx_hashes"), blocks)),
              map(attrgetter("hash"), txs), map(attrgetter("tx_hash"), logs)),
        map(attrgetter("sender"), txs),
        chain(map(attrgetter("address"), logs), filter(None, map(attrgetter("to"), txs))),
        chain.from_iterable(map(attrgetter("topics"), logs)),
        chain(map(attrgetter("number"), blocks), map(attrgetter("block_number"), txs),
              map(attrgetter("block_number"), logs)))]

    def block_columns(part):
        _, block_numbers, timestamps, block_hashes = zip(*part)
        return (at(numbers, block_numbers), timestamps, lengths(block_hashes),
                at(hashes, chain.from_iterable(block_hashes)))

    def tx_columns(part):
        tx_hashes, block_numbers, indices, tx_senders, to, fees, payments, statuses = zip(*part)
        to_at = [len(addresses) if t is None else bisect_left(addresses, t) for t in to]
        return (at(hashes, tx_hashes), at(numbers, block_numbers), indices,
                at(senders, tx_senders), array("I", to_at).tobytes(), fees, payments,
                tuple(s.value for s in statuses))

    def log_columns(part):
        _, log_addresses, topics, data, block_numbers, indices, log_indices, tx_hashes = zip(
            *part)
        return (at(addresses, log_addresses), lengths(topics),
                at(words, chain.from_iterable(topics)), data, at(numbers, block_numbers),
                indices, log_indices, at(hashes, tx_hashes))

    out.write(_MAGIC)
    put(header)
    put((None if dataset.chain is None else dataset.chain.name, by_json,
         tuple(map(len, tables)), len(blocks), len(txs), len(logs)))
    for table in tables:
        for i in range(0, len(table), SECTION):
            put(tuple(table[i:i + SECTION]))
    for records, columns in ((blocks, block_columns), (txs, tx_columns), (logs, log_columns)):
        for i in range(0, len(records), SECTION):
            put(columns(records[i:i + SECTION]))
