"""The fixture parse cache against its oracle, the parse: a load that
rebuilds from a cache entry gives what ``_load_fixture`` gives, and an
entry that is damaged, foreign or stale, or that cannot be written,
leaves every load as it would be with no cache at all."""

import logging
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from mevlens import chain_model, fixture_cache
from mevlens.chain_model import _load_fixture, dump_fixture, load_fixture
from mevlens.cli import main

from test_chain_model import _in_layout, _recurring_fixture, fixture_datasets


@contextmanager
def _messages():
    """The messages the ``mevlens`` logger takes inside the block, at
    DEBUG and above."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("mevlens")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    messages = []
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        messages += [r.getMessage() for r in records]


def _loaded_line(path, dataset, by_json):
    return (f"loaded {path}: {len(dataset.blocks)} blocks, {len(dataset.txs)} txs, "
            f"{len(dataset.logs)} logs; json-path lines: {by_json}")


def _types(dataset):
    return [type(r) for r in dataset.blocks + dataset.txs + dataset.logs]


@settings(max_examples=60, deadline=None)
@given(dataset=fixture_datasets(), layout=st.sampled_from(["canonical", "json"]))
def test_cold_and_warm_loads_equal_the_parse(tmp_path_factory, dataset, layout):
    """The first load parses and writes the entry, the second rebuilds
    from it; both give the parse's records, of the parse's types, and the
    same INFO line, after a DEBUG line that says which it was."""
    path = _in_layout(tmp_path_factory.mktemp("cache"), dataset, layout)
    entry = fixture_cache.entry_path(path)
    with _messages() as cold_log:
        cold = load_fixture(path)
    with _messages() as warm_log:
        warm = load_fixture(path)
    parsed, by_json = _load_fixture(path)
    assert cold == warm == parsed == dataset
    assert _types(warm) == _types(parsed)
    assert [warm.tx(t.hash) for t in parsed.txs] == [parsed.tx(t.hash) for t in parsed.txs]
    line = _loaded_line(path, parsed, by_json)
    assert cold_log == [f"fixture cache miss (no entry): wrote {entry}", line]
    assert warm_log == [f"fixture cache hit: {entry}", line]


# --- an entry that cannot serve the load: each gives the parse ---

@pytest.fixture
def cached(tmp_path):
    """A fixture whose entry its first load wrote: (fixture, entry, the
    entry's bytes, the parse)."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    path = fixtures / "ethereum.jsonl"
    dump_fixture(_recurring_fixture(60), path)
    load_fixture(path)
    entry = fixture_cache.entry_path(path)
    with open(entry, "rb") as fh:
        data = fh.read()
    return path, entry, data, _load_fixture(path)


def _section_spans(data):
    """(start, end) of each section of an entry: its length, its digest
    and its marshal bytes."""
    at, spans = len(fixture_cache._MAGIC) + 32, []
    while at < len(data):
        end = at + 8 + 32 + int.from_bytes(data[at:at + 8], "little")
        spans.append((at, end))
        at = end
    assert at == len(data)
    return spans


def _assert_miss_then_hit(path, entry, parsed, *reasons):
    """A load with ``entry`` as it is parses, names one of ``reasons`` and
    rewrites the entry, which serves the next load."""
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log[1:] == [_loaded_line(path, *parsed)]
    assert log[0] in [f"fixture cache miss ({reason}): wrote {entry}" for reason in reasons]
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log[0] == f"fixture cache hit: {entry}"


def test_entry_layout_has_a_section_per_part(cached):
    """Meta, five tables of shared values and the blocks, txs and logs of
    60 blocks: 120 txs and 360 logs take one, one and three sections."""
    _, _, data, _ = cached
    assert data.startswith(fixture_cache._MAGIC)
    assert len(_section_spans(data)) == 1 + 5 + 1 + 1 + 3


def test_truncated_entry_is_a_miss(cached):
    path, entry, data, parsed = cached
    spans = _section_spans(data)
    cuts = {0, 10, len(fixture_cache._MAGIC) + 32, len(data) - 1}
    cuts.update(start for start, _ in spans[1:])
    cuts.update((start + end) // 2 for start, end in spans)
    for cut in sorted(cuts):
        with open(entry, "wb") as fh:
            fh.write(data[:cut])
        if cut < len(fixture_cache._MAGIC) + 32:
            reasons = ["ValueError: entry of other bytes, code or format"]
        else:
            reasons = ["ValueError: section digest differs",
                       "ValueError: section longer than the entry"]
        _assert_miss_then_hit(path, entry, parsed, *reasons)


def test_one_flipped_byte_in_any_section_is_a_miss(cached):
    """A byte flipped in a section's length, digest or marshal bytes, or
    in the entry's magic line or fixture digest."""
    path, entry, data, parsed = cached
    spans = _section_spans(data)
    header = [(0, "entry of other bytes, code or format"),
              (len(fixture_cache._MAGIC) + 5, "entry of other bytes, code or format")]
    flips = header + [(at, reason) for start, end in spans for at, reason in (
        (start + 6, "section longer than the entry"), (start + 8 + 3, "section digest differs"),
        ((start + 40 + end) // 2, "section digest differs"))]
    for at, reason in flips:
        damaged = bytearray(data)
        damaged[at] ^= 0x40
        with open(entry, "wb") as fh:
            fh.write(damaged)
        _assert_miss_then_hit(path, entry, parsed, f"ValueError: {reason}")


def test_entry_of_another_fixture_is_a_miss(cached, tmp_path):
    path, entry, _, parsed = cached
    other = _in_layout(tmp_path, _recurring_fixture(7), "json")
    load_fixture(other)
    os.replace(fixture_cache.entry_path(other), entry)
    _assert_miss_then_hit(path, entry, parsed,
                          "ValueError: entry of other bytes, code or format")


def test_entry_written_by_other_code_is_a_miss(cached, monkeypatch):
    """The key covers the parse's source: once it changes, an entry
    written before is not used."""
    path, entry, _, parsed = cached
    changed = path.parent / "changed_parser.py"
    changed.write_text("# another parser\n")
    monkeypatch.setattr(fixture_cache, "_SOURCES", fixture_cache._SOURCES + (str(changed),))
    _assert_miss_then_hit(path, entry, parsed, "ValueError: entry of other bytes, code or format")


def test_edit_that_keeps_size_and_mtime_is_a_miss(cached):
    """One hex digit changed in place, the size and the modification time
    as they were: the entry is keyed on the bytes, so the load parses the
    edited file."""
    path, entry, _, old = cached
    stat = os.stat(path)
    text = path.read_text()
    at = text.index('"data":"0x') + len('"data":"0x') + 5
    digit = "1" if text[at] != "1" else "2"
    path.write_text(text[:at] + digit + text[at + 1:])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    parsed = _load_fixture(path)
    assert parsed[0] != old[0]
    _assert_miss_then_hit(path, entry, parsed,
                          "ValueError: entry of other bytes, code or format")


def test_failed_write_leaves_no_entry(tmp_path, monkeypatch):
    """An OSError while writing: the load still returns the parse, no
    entry and no temporary file is left, and the DEBUG line says why."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(fixture_cache.os, "replace", refuse)
    with _messages() as log:
        assert load_fixture(path) == _load_fixture(path)[0]
    assert sorted(os.listdir(tmp_path)) == [path.name]
    assert log[0] == "fixture cache miss (no entry): not written: [Errno 28] No space left on device"


def test_symlink_at_the_temporary_path_is_not_followed(tmp_path):
    """A symlink planted at the temporary file's name: the write refuses
    it, the file it points to keeps its bytes, and the load still returns
    the parse."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    entry = fixture_cache.entry_path(path)
    target = tmp_path / "elsewhere"
    target.write_bytes(b"not the cache's to write\n")
    tmp = f"{entry}.{os.getpid()}.tmp"
    os.symlink(target, tmp)
    with _messages() as log:
        assert load_fixture(path) == _load_fixture(path)[0]
    assert target.read_bytes() == b"not the cache's to write\n"
    assert os.path.islink(tmp) and not os.path.exists(entry)
    assert log[0] == f"fixture cache miss (no entry): not written: [Errno 17] File exists: {tmp!r}"


def test_fixture_changed_during_the_parse_gets_no_entry(tmp_path, monkeypatch):
    """The parse returns what it read, but the fixture's bytes changed
    under it, so its records are not written for either content."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    parse = chain_model._load_fixture

    def parse_then_edit(p):
        loaded = parse(p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("\n")
        return loaded

    monkeypatch.setattr(chain_model, "_load_fixture", parse_then_edit)
    with _messages() as log:
        load_fixture(path)
    assert log[0] == "fixture cache miss (no entry): not written: the fixture changed during the parse"
    assert not os.path.exists(fixture_cache.entry_path(path))


def test_two_processes_loading_one_fixture_at_once(tmp_path):
    """Both load the records the parse gives, and the entry left behind
    serves the next load."""
    path = _in_layout(tmp_path, _recurring_fixture(300), "canonical")
    import mevlens
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    code = ("import sys\nfrom mevlens.chain_model import dump_fixture, load_fixture\n"
            "dump_fixture(load_fixture(sys.argv[1]), sys.argv[2])\n")
    env = dict(os.environ, PYTHONPATH=src)
    procs = [subprocess.Popen([sys.executable, "-c", code, str(path), str(tmp_path / f"{i}.out")],
                              env=env) for i in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    for i in range(2):
        assert (tmp_path / f"{i}.out").read_bytes() == path.read_bytes()
    with _messages() as log:
        assert load_fixture(path) == _load_fixture(path)[0]
    assert log[0] == f"fixture cache hit: {fixture_cache.entry_path(path)}"
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_malformed_fixture_beside_an_entry_exits_1_naming_the_line(cached, capsys):
    """A fixture broken after its entry was written still exits 1 with
    the file and the line, and gets no entry: the old one is left as it
    was, for the old bytes."""
    path, entry, data, _ = cached
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = '{"kind": "block", "chain": "ethereum", "number": true}\n'
    path.write_text("".join(lines))
    assert main(["decode", "--fixtures", str(path.parent)]) == 1
    assert f"error: {path}: line 5: " in capsys.readouterr().err
    with open(entry, "rb") as fh:
        assert fh.read() == data
