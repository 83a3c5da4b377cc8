"""The fixture parse cache against its oracle, the parse: a load that
rebuilds from a cache entry gives what ``_load_fixture`` gives, and an
entry that is damaged, foreign or stale, or that cannot be written,
leaves every load as it would be with no cache at all. A load is served
only by an entry whose stamp is the fixture's and not racy, without
reading the fixture; every other load parses and writes the entry
again. The tests forge the clock or the stamp rather than wait for the
file system's clock to tick."""

import builtins
import logging
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from mevlens import fixture_cache, fixture_parser
from mevlens.chain_model import dump_fixture, load_fixture
from mevlens.cli import main
from mevlens.fixture_parser import _load_fixture

from conftest import settle
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
    from it, and a third, after the fixture's modification time moves,
    parses and writes the entry again, with the first entry's sections;
    each gives the parse's records, of the parse's types, and the same
    INFO line, after a DEBUG line that says which it was."""
    path = _in_layout(tmp_path_factory.mktemp("cache"), dataset, layout)
    entry = fixture_cache.entry_path(path)
    with pytest.MonkeyPatch.context() as monkeypatch:
        settle(monkeypatch)
        with _messages() as cold_log:
            cold = load_fixture(path)
        with _messages() as warm_log:
            warm = load_fixture(path)
        sections = _past_header(entry)
        later = os.stat(path).st_mtime_ns + 10**9
        os.utime(path, ns=(later, later))
        with _messages() as touched_log:
            touched = load_fixture(path)
    parsed, by_json = _load_fixture(path)
    assert cold == warm == touched == parsed == dataset
    assert _types(warm) == _types(parsed)
    assert [warm.tx(t.hash) for t in parsed.txs] == [parsed.tx(t.hash) for t in parsed.txs]
    line = _loaded_line(path, parsed, by_json)
    assert cold_log == [f"fixture cache miss (no entry): wrote {entry}", line]
    assert warm_log == [f"fixture cache hit: {entry}", line]
    assert touched_log == [f"fixture cache miss (stamp differs): wrote {entry}", line]
    assert _past_header(entry) == sections


def _past_header(entry):
    """The bytes of an entry after its magic and its header section."""
    with open(entry, "rb") as fh:
        data = fh.read()
    at = len(fixture_cache._MAGIC)
    return data[at + fixture_cache._HEAD + int.from_bytes(data[at:at + 8], "little"):]


# --- when the stamp serves a load ---

def _forbid(monkeypatch, *names):
    """Make each named function of fixture_parser, which holds the parser
    and the entry's writer, fail the test if called."""
    for name in names:
        def called(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(fixture_parser, name, called)


def test_trusted_hit_never_opens_the_fixture(tmp_path, monkeypatch, settled):
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    parsed = _load_fixture(path)
    load_fixture(path)
    opened = []
    real_open, real_os_open = builtins.open, os.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **k: (
        opened.append(os.fspath(file)), real_open(file, *a, **k))[1])
    monkeypatch.setattr(os, "open", lambda file, *a, **k: (
        opened.append(os.fspath(file)), real_os_open(file, *a, **k))[1])
    _forbid(monkeypatch, "_load_fixture", "_parse_and_write")
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log == [f"fixture cache hit: {fixture_cache.entry_path(path)}",
                   _loaded_line(path, *parsed)]
    assert opened and str(path) not in opened


@pytest.mark.parametrize("change", ["touch", "copy2"])
def test_new_stamp_same_bytes_is_a_miss(tmp_path, settled, change):
    """A later modification time (``touch``), or a copy of the fixture and
    its entry to another directory (``shutil.copy2``, a new inode): the
    stamp differs, so the load parses, although the bytes do not differ,
    and writes the entry again with the new stamp before the same
    sections, byte for byte; that entry serves the next load."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    parsed = _load_fixture(path)
    load_fixture(path)
    if change == "touch":
        later = os.stat(path).st_mtime_ns + 10**9
        os.utime(path, ns=(later, later))
    else:
        copies = tmp_path / "copies"
        copies.mkdir()
        shutil.copy2(fixture_cache.entry_path(path), fixture_cache.entry_path(copies / path.name))
        path = shutil.copy2(path, copies / path.name)
    entry = fixture_cache.entry_path(path)
    before = _past_header(entry)
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log[0] == f"fixture cache miss (stamp differs): wrote {entry}"
    assert _past_header(entry) == before
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log[0] == f"fixture cache hit: {entry}"


def _edit_keeping_size_and_mtime(path):
    """Change one hex digit of the fixture in place and set its modification
    time back: only the change time says it was written."""
    stat = os.stat(path)
    text = path.read_text()
    at = text.index('"data":"0x') + len('"data":"0x') + 5
    digit = "1" if text[at] != "1" else "2"
    path.write_text(text[:at] + digit + text[at + 1:])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    return fixture_cache._stamp(stat)


def test_edit_that_keeps_size_and_mtime_is_a_miss(tmp_path):
    """On the real clock: the edit either moves the change time, or falls
    in the tick the entry's stamp was taken in, which makes that stamp
    racy; either way the load parses the edited bytes."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    old = _load_fixture(path)
    load_fixture(path)
    _edit_keeping_size_and_mtime(path)
    parsed = _load_fixture(path)
    assert parsed[0] != old[0]
    entry = fixture_cache.entry_path(path)
    with _messages() as log:
        assert load_fixture(path) == parsed[0]
    assert log[0] in (f"fixture cache miss (stamp differs): wrote {entry}",
                      f"fixture cache miss (racy stamp): wrote {entry}")


@pytest.mark.parametrize("after", [0, 1], ids=["racy", "settled"])
def test_a_racy_stamp_is_a_miss(tmp_path, monkeypatch, after):
    """The entry's time is forged to the fixture's change time (racy: a
    write in that tick keeps the stamp) or 1 ns after it; the fixture is
    then edited in place and its stamp forged back to the entry's. Only
    the settled entry is trusted by its stamp, and then serves the bytes
    it was written for: the stamp alone cannot see such an edit, which is
    why a racy one is not trusted, and the load parses."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    old = _load_fixture(path)
    ctime = os.stat(path).st_ctime_ns
    monkeypatch.setattr(fixture_parser, "_clock", lambda fh: ctime + after)
    load_fixture(path)
    stamp = _edit_keeping_size_and_mtime(path)
    monkeypatch.setattr(fixture_cache, "_stamp", lambda stat: stamp)
    entry = fixture_cache.entry_path(path)
    with _messages() as log:
        loaded = load_fixture(path)
    if after:
        assert loaded == old[0]
        assert log[0] == f"fixture cache hit: {entry}"
    else:
        assert loaded == _load_fixture(path)[0] != old[0]
        assert log[0] == f"fixture cache miss (racy stamp): wrote {entry}"


def test_the_time_is_read_before_the_stamp(tmp_path, monkeypatch):
    """The entry's time is read before the fixture's stamp is taken: read
    after it, it could fall in a later tick than a write made between the
    two, which the stamp would then hide. The stamp is taken before the
    parse, so a write during the parse moves the change time past it, and
    again after the parse, to see whether one did."""
    path = _in_layout(tmp_path, _recurring_fixture(5), "canonical")
    calls = []
    clock, stamp, parse = fixture_parser._clock, fixture_parser._stamp, fixture_parser._load_fixture
    monkeypatch.setattr(fixture_parser, "_clock", lambda fh: (calls.append("time"), clock(fh))[1])
    monkeypatch.setattr(fixture_parser, "_stamp", lambda st: (calls.append("stamp"), stamp(st))[1])
    monkeypatch.setattr(fixture_parser, "_load_fixture",
                        lambda p: (calls.append("parse"), parse(p))[1])
    with _messages() as log:
        load_fixture(path)
    assert calls == ["time", "stamp", "parse", "stamp"]
    assert log[0] == f"fixture cache miss (no entry): wrote {fixture_cache.entry_path(path)}"


def test_unwritable_directory_parses_and_writes_nothing(tmp_path, monkeypatch, settled):
    """No temporary file can be made beside the fixture (``chmod`` cannot
    show it, as the tests may run as root): a load the entry does not
    serve parses and writes no entry, whether there is no entry or one of
    another stamp, which is left as it was."""
    path = _in_layout(tmp_path, _recurring_fixture(20), "canonical")
    parsed = _load_fixture(path)
    entry = fixture_cache.entry_path(path)
    tmp = f"{entry}.{os.getpid()}.tmp"

    def refuse(file, mode="r", *args, **kwargs):
        if mode == "xb":
            raise PermissionError(13, "Permission denied", file)
        return builtins.open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(fixture_parser, "open", refuse, raising=False)
        with _messages() as log:
            assert load_fixture(path) == parsed[0]
        assert log[0] == f"fixture cache miss (no entry): not written: [Errno 13] Permission denied: {tmp!r}"
        assert not os.path.exists(entry)
    load_fixture(path)
    with open(entry, "rb") as fh:
        data = fh.read()
    later = os.stat(path).st_mtime_ns + 10**9
    os.utime(path, ns=(later, later))
    with monkeypatch.context() as patched:
        patched.setattr(fixture_parser, "open", refuse, raising=False)
        with _messages() as log:
            assert load_fixture(path) == parsed[0]
        assert log[0] == ("fixture cache miss (stamp differs): not written: "
                          f"[Errno 13] Permission denied: {tmp!r}")
    with open(entry, "rb") as fh:
        assert fh.read() == data


# --- an entry that cannot serve the load: each gives the parse ---

@pytest.fixture
def cached(tmp_path, settled):
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
    """(start, end) of each section of an entry, the header first: its
    length, its digest and its marshal bytes."""
    at, spans = len(fixture_cache._MAGIC), []
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
    """The header, meta, five tables of shared values and the blocks, txs
    and logs of 60 blocks: 120 txs and 360 logs take one, one and three
    sections."""
    _, _, data, _ = cached
    assert data.startswith(fixture_cache._MAGIC)
    assert len(_section_spans(data)) == 1 + 1 + 5 + 1 + 1 + 3


def test_truncated_entry_is_a_miss(cached):
    path, entry, data, parsed = cached
    spans = _section_spans(data)
    cuts = {0, 10, len(fixture_cache._MAGIC), len(data) - 1}
    cuts.update(start for start, _ in spans[1:])
    cuts.update((start + end) // 2 for start, end in spans)
    for cut in sorted(cuts):
        with open(entry, "wb") as fh:
            fh.write(data[:cut])
        if cut < len(fixture_cache._MAGIC):
            reasons = ["ValueError: entry of another format"]
        else:
            reasons = ["ValueError: section digest differs",
                       "ValueError: section longer than the entry"]
        _assert_miss_then_hit(path, entry, parsed, *reasons)


def _flip(entry, data, at):
    damaged = bytearray(data)
    damaged[at] ^= 0x40
    with open(entry, "wb") as fh:
        fh.write(damaged)


def test_one_flipped_header_byte_is_a_miss(cached):
    """Every byte of the magic line and of the header section: its length,
    its digest, and the code digest, stamp and time it holds."""
    path, entry, data, parsed = cached
    _, header_end = _section_spans(data)[0]
    for at in range(header_end):
        _flip(entry, data, at)
        _assert_miss_then_hit(path, entry, parsed, *(f"ValueError: {reason}" for reason in (
            "entry of another format", "section longer than the entry",
            "section digest differs")))


def test_one_flipped_byte_in_any_section_is_a_miss(cached):
    """A byte flipped in a section's length, digest or marshal bytes."""
    path, entry, data, parsed = cached
    flips = [(at, reason) for start, end in _section_spans(data)[1:] for at, reason in (
        (start + 6, "section longer than the entry"), (start + 8 + 3, "section digest differs"),
        ((start + 40 + end) // 2, "section digest differs"))]
    for at, reason in flips:
        _flip(entry, data, at)
        _assert_miss_then_hit(path, entry, parsed, f"ValueError: {reason}")


def test_entry_of_another_fixture_is_a_miss(cached, tmp_path):
    """Its stamp is the other fixture's."""
    path, entry, _, parsed = cached
    other = _in_layout(tmp_path, _recurring_fixture(7), "json")
    load_fixture(other)
    os.replace(fixture_cache.entry_path(other), entry)
    _assert_miss_then_hit(path, entry, parsed, "stamp differs")


def test_entry_written_by_other_code_is_a_miss(cached, monkeypatch):
    """The key covers the parse's source: once it changes, an entry
    written before is not used."""
    path, entry, _, parsed = cached
    changed = path.parent / "changed_parser.py"
    changed.write_text("# another parser\n")
    monkeypatch.setattr(fixture_cache, "_SOURCES", fixture_cache._SOURCES + (str(changed),))
    _assert_miss_then_hit(path, entry, parsed, "ValueError: entry of other code")


def test_code_key_covers_the_parser_source():
    assert [os.path.basename(source) for source in fixture_cache._SOURCES] == [
        "chain_model.py", "fixture_cache.py", "fixture_parser.py"]
    assert fixture_cache._SOURCES[2] == fixture_parser.__file__


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
    parse = fixture_parser._load_fixture

    def parse_then_edit(p):
        loaded = parse(p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("\n")
        return loaded

    monkeypatch.setattr(fixture_parser, "_load_fixture", parse_then_edit)
    with _messages() as log:
        load_fixture(path)
    assert log[0] == "fixture cache miss (no entry): not written: the fixture changed while it was read"
    assert not os.path.exists(fixture_cache.entry_path(path))


def test_two_processes_loading_one_fixture_at_once(tmp_path):
    """Both load the records the parse gives, and the entry left behind
    serves the next load by its stamp or, had the processes written it
    within the tick the fixture was written in, is written again."""
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
    entry = fixture_cache.entry_path(path)
    with _messages() as log:
        assert load_fixture(path) == _load_fixture(path)[0]
    assert log[0] in (f"fixture cache hit: {entry}",
                      f"fixture cache miss (racy stamp): wrote {entry}")
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
    assert not [name for name in os.listdir(path.parent) if name.endswith(".tmp")]
