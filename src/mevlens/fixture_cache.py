"""A parse cache for chain fixtures: the first load of a fixture writes a
binary entry beside it, and every later load of it, in any process,
rebuilds the same dataset from the entry instead of parsing. The parser,
``fixture_parser``, stays the one reference path. It holds the entry's
writer too, and is imported only by a load that the entry does not
serve: one that parses the fixture and then writes the entry again. A
load writes the entry only after its parse succeeded.

The entry of ``DIR/NAME`` is ``DIR/.NAME.<cache tag>.cache``, named for
the interpreter because it holds ``marshal`` bytes. After a magic line
come sections, each its length, its own BLAKE2b-256 and ``marshal``
bytes:

- the header: the BLAKE2b-256 of the source of the code that builds a
  dataset (``chain_model``, this module and ``fixture_parser``), the
  fixture's stamp before it was parsed, and the file system's time
  taken just before that stamp;
- the chain, the json-path line count and the sizes of what follows;
- the distinct tx hashes, senders, addresses, topic words and block
  numbers, one sorted table each, every value once;
- the blocks, the txs and the logs, as columns whose shared values are
  native unsigned int indices into those tables, so a rebuilt dataset
  shares equal values as the parsed one does.

An entry serves only loads by the code that wrote it, and only when the
fixture's stamp (device, inode, size, modification and change time) is
the header's and that change time is older than the header's time:
every write to a file sets its change time to the time of the write, so
no write made after that time was taken leaves the stamp as it was. A
stamp whose change time is not older is racy: a write in the same tick
of the file system's clock would keep it. Every other load parses the
fixture and writes the entry again. Git's index trusts a file's stat
the same way.

Every table and record list is split into sections of at most SECTION
items, so that a load or a write holds one section's bytes at a time
beside the dataset.
"""

from __future__ import annotations

import marshal
import os
import sys
from _blake2 import blake2b
from itertools import islice, repeat
from stat import S_ISREG

from . import chain_model
from .chain_model import _TX_STATUS, CHAINS, BlockRecord, ChainDataset, EventLog, TxRecord, _log

SECTION = 128
# the indices are native unsigned ints: a machine of the other byte order
# reads another magic and misses
_MAGIC = f"mevlens fixture cache 3 {SECTION} {sys.byteorder}\n".encode()
_HEAD = 8 + 32   # a section's length and digest
# every way a damaged or foreign entry fails to read; each is a miss
_UNREADABLE = (OSError, EOFError, ValueError, TypeError, IndexError, KeyError)
_new = tuple.__new__
# the code that builds a dataset, read by path, so that a load the entry
# serves imports no parser: an entry that other code wrote is a miss
_SOURCES = (chain_model.__file__, __file__,
            os.path.join(os.path.dirname(__file__), "fixture_parser.py"))


def _digest(data) -> bytes:
    return blake2b(data, digest_size=32).digest()


def _code_digest() -> bytes:
    state = blake2b(digest_size=32)
    for source in _SOURCES:
        with open(source, "rb") as fh:
            state.update(fh.read())
    return state.digest()


def _stamp(stat):
    # a write changes the ctime even where the mtime is set back after it
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns


def entry_path(path) -> str:
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{sys.implementation.cache_tag}.cache")


def load(path):
    """``fixture_parser._load_fixture(path)``, a (dataset, json-path line
    count) pair: rebuilt from the fixture's entry when the fixture's stamp
    is the entry's and not racy, otherwise parsed. Logs at DEBUG whether
    the entry served the load, and if not, why and whether the entry was
    written again."""
    try:
        stat = os.stat(path)
    except OSError:
        stat = None
    if stat is None or not S_ISREG(stat.st_mode):
        # another kind of file might not read the same twice; the parse
        # raises what the path does
        from .fixture_parser import _load_fixture
        return _load_fixture(path)
    entry, code, stamp = entry_path(path), _code_digest(), _stamp(stat)
    try:
        with open(entry, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError("entry of another format")
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

            written_by, written, clock = section()
            if written_by != code:
                raise ValueError("entry of other code")
            # not racy: the change time is older than the time read before
            # the stamp, so no write since then has kept the stamp
            if written == stamp and stamp[4] < clock:
                loaded = _records(section)
                _log.debug("fixture cache hit: %s", entry)
                return loaded
    except FileNotFoundError:
        reason = "no entry"
    except _UNREADABLE as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        reason = "stamp differs" if written != stamp else "racy stamp"
    from .fixture_parser import _parse_and_write   # compiled only by a load the entry does not serve
    return _parse_and_write(path, entry, code, reason)


def _records(section):
    """The (dataset, json-path line count) that the entry's sections after
    its header hold."""

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
