"""A parse cache for chain fixtures: the first load of a fixture writes a
binary entry beside it, and every later load of the same bytes, in any
process, rebuilds the same dataset from the entry instead of parsing.
The parser stays the one reference path: a load that cannot read the
entry parses, and writes the entry only after that parse succeeded.

The entry of ``DIR/NAME`` is ``DIR/.NAME.<cache tag>.cache``, named for
the interpreter because it holds ``marshal`` bytes. It starts with a
magic line and the BLAKE2b-256 of the fixture's bytes, after the source
of this module and of ``chain_model``, and serves only that fixture and
that code: an edit that keeps the size and the modification time still
misses, and so does an entry written before the parser changed. Then
come sections, each its length, its own BLAKE2b-256 and ``marshal``
bytes:

- the chain, the json-path line count and the sizes of what follows;
- the distinct tx hashes, senders, addresses, topic words and block
  numbers, one sorted table each, every value once;
- the blocks, the txs and the logs, as columns whose shared values are
  native unsigned int indices into those tables, so a rebuilt dataset
  shares equal values as the parsed one does.

Every table and record list is split into sections of at most SECTION
items, so that a load or a write holds one section's bytes at a time
beside the dataset.
"""

from __future__ import annotations

import marshal
import os
import sys
from _blake2 import blake2b
from bisect import bisect_left
from itertools import chain, islice, repeat
from operator import attrgetter
from stat import S_ISREG

from . import chain_model
from .chain_model import _TX_STATUS, CHAINS, BlockRecord, ChainDataset, EventLog, TxRecord, _log

SECTION = 128
# the indices are native unsigned ints: a machine of the other byte order
# reads another magic and misses
_MAGIC = f"mevlens fixture cache 1 {SECTION} {sys.byteorder}\n".encode()
_HEAD = 8 + 32   # a section's length and digest
# every way a damaged or foreign entry fails to read; each is a miss
_UNREADABLE = (OSError, EOFError, ValueError, TypeError, IndexError, KeyError)
_new = tuple.__new__
# the code that builds a dataset: an entry that other code wrote is a miss
_SOURCES = (chain_model.__file__, __file__)


def _digest(data) -> bytes:
    return blake2b(data, digest_size=32).digest()


def _fingerprint(path):
    """BLAKE2b-256 of the parse's code and of a regular file's bytes, read
    through one small buffer, and the file's ``_stamp`` from before the
    read; None for any other file, which might not read the same twice."""
    state, buf = blake2b(digest_size=32), bytearray(1 << 14)
    view = memoryview(buf)
    for source in _SOURCES:
        with open(source, "rb") as fh:
            state.update(fh.read())
    with open(path, "rb", buffering=0) as fh:
        stat = os.fstat(fh.fileno())
        if not S_ISREG(stat.st_mode):
            return None
        while n := fh.readinto(buf):
            state.update(view[:n])
    return state.digest(), _stamp(stat)


def _stamp(stat):
    # a write changes the ctime even where the mtime is set back after it
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns


def entry_path(path) -> str:
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{sys.implementation.cache_tag}.cache")


def load(path, parse):
    """``parse(path)``, a (dataset, json-path line count) pair: rebuilt
    from the fixture's entry when the entry was written for these bytes,
    else parsed and the entry rewritten. Logs at DEBUG whether the entry
    served the load, and if not, why and whether it was written."""
    try:
        fingerprint = _fingerprint(path)
    except OSError:
        fingerprint = None   # the parse raises what the file does
    if fingerprint is None:
        return parse(path)
    digest, stamp = fingerprint
    entry = entry_path(path)
    try:
        with open(entry, "rb") as fh:
            loaded = _read(fh, digest)
    except FileNotFoundError:
        reason = "no entry"
    except _UNREADABLE as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        _log.debug("fixture cache hit: %s", entry)
        return loaded
    loaded = parse(path)
    _log.debug("fixture cache miss (%s): %s", reason, _write(entry, digest, stamp, path, *loaded))
    return loaded


def _read(fh, digest):
    if fh.read(len(_MAGIC) + 32) != _MAGIC + digest:
        raise ValueError("entry of other bytes, code or format")
    size = os.fstat(fh.fileno()).st_size

    def section():
        head = fh.read(_HEAD)
        length = int.from_bytes(head[:8], "little")
        if length > size:
            raise ValueError("section longer than the entry")
        payload = fh.read(length)
        if _digest(payload) != head[8:]:
            raise ValueError("section digest differs")
        return marshal.loads(payload)

    def table(n):
        values = []
        for _ in range(0, n, SECTION):
            values += section()
        if len(values) != n:
            raise ValueError("table of the wrong length")
        return values

    name, by_json, sizes, n_blocks, n_txs, n_logs = section()
    chain_id = None if name is None else CHAINS[name]
    hashes, senders, addresses, words, numbers = map(table, sizes)
    addresses.append(None)   # the index past the addresses: a tx with no recipient
    tx_hash, sender, address, word, number = (
        t.__getitem__ for t in (hashes, senders, addresses, words, numbers))
    blocks, txs, logs = [], [], []
    for _ in range(0, n_blocks, SECTION):
        numbers_at, timestamps, counts, hashes_at = section()
        block_hashes = map(tx_hash, _ints(hashes_at))
        blocks += map(_new, repeat(BlockRecord), zip(
            repeat(chain_id), map(number, _ints(numbers_at)), timestamps,
            map(tuple, map(islice, repeat(block_hashes), _ints(counts)))))
    for _ in range(0, n_txs, SECTION):
        hashes_at, numbers_at, indices, senders_at, to_at, fees, payments, statuses = section()
        txs += map(_new, repeat(TxRecord), zip(
            map(tx_hash, _ints(hashes_at)), map(number, _ints(numbers_at)), indices,
            map(sender, _ints(senders_at)), map(address, _ints(to_at)), fees, payments,
            map(_TX_STATUS.__getitem__, statuses)))
    for _ in range(0, n_logs, SECTION):
        addresses_at, counts, topics_at, data, numbers_at, indices, log_indices, hashes_at = (
            section())
        topics = map(word, _ints(topics_at))
        logs += map(_new, repeat(EventLog), zip(
            repeat(chain_id), map(address, _ints(addresses_at)),
            map(tuple, map(islice, repeat(topics), _ints(counts))), data,
            map(number, _ints(numbers_at)), indices, log_indices,
            map(tx_hash, _ints(hashes_at))))
    if (len(blocks), len(txs), len(logs)) != (n_blocks, n_txs, n_logs):
        raise ValueError("fewer records than counted")
    return ChainDataset(chain_id, blocks, txs, logs), by_json


def _ints(data):
    return memoryview(data).cast("I")


def _write(entry, digest, stamp, path, dataset, by_json) -> str:
    """Write the entry through a temporary file, if the fixture's stamp is
    still the one taken before its bytes were hashed and parsed; what was
    done, for the DEBUG line."""
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        if _stamp(os.stat(path)) != stamp:
            return "not written: the fixture changed during the parse"
        # created here or not at all: an existing path, a symlink too, is
        # an OSError, so no write lands outside the directory
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError as exc:
        return f"not written: {exc}"
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC + digest)
            _write_sections(fh, dataset, by_json)
        os.replace(tmp, entry)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        return f"not written: {exc}"
    return f"wrote {entry}"


def _write_sections(fh, dataset, by_json):
    """Write each section of ``dataset``'s entry, holding one at a time."""
    from array import array

    def put(value):
        payload = marshal.dumps(value, 2)   # version 2: no table of objects seen
        fh.write(len(payload).to_bytes(8, "little") + _digest(payload))
        fh.write(payload)

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

    put((None if dataset.chain is None else dataset.chain.name, by_json,
         tuple(map(len, tables)), len(blocks), len(txs), len(logs)))
    for table in tables:
        for i in range(0, len(table), SECTION):
            put(tuple(table[i:i + SECTION]))
    for records, columns in ((blocks, block_columns), (txs, tx_columns), (logs, log_columns)):
        for i in range(0, len(records), SECTION):
            put(columns(records[i:i + SECTION]))
