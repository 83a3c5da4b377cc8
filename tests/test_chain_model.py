import gc
import json
import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mevlens import fixture_cache
from mevlens.chain_model import (CHAINS, ETHEREUM, ChainDataset, _MAX_TIMESTAMP, dump_fixture,
                                 load_fixture, logs_in_range, read_jsonl, to_hex)
from mevlens.cli import main
from mevlens.errors import (DuplicateKey, InvalidRange, MalformedRecord,
                            OrderingViolation)
from mevlens.fixture_parser import (_CANONICAL, _hexstr, _in_key_order, _load_fixture,
                                    _parse_record)
from mevlens.fixtures import FixtureBuilder, addr, enc_balancer_v1_swap, enc_transfer


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))


def _block(number, ts, hashes=()):
    return {"kind": "block", "chain": "ethereum", "number": number,
            "timestamp": ts, "tx_hashes": [to_hex(h) for h in hashes]}


def _log(block, tx_index, log_index, topic=b"\xaa" * 32):
    return {"kind": "log", "chain": "ethereum", "address": to_hex(addr(1)),
            "topics": [to_hex(topic)], "data": "0x",
            "block_number": block, "tx_index": tx_index, "log_index": log_index,
            "tx_hash": to_hex(b"\x01" * 32)}


def test_empty_file_empty_dataset(tmp_path):
    p = tmp_path / "f.jsonl"
    p.write_text("")
    ds = load_fixture(p)
    assert ds.blocks == [] and ds.txs == [] and ds.logs == []


def test_block_ordering_violation(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(5, 100), _block(4, 112)])
    with pytest.raises(OrderingViolation):
        load_fixture(p)


def _tx(**fields):
    tx = {"kind": "tx", "hash": to_hex(b"\x01" * 32), "block_number": 1, "tx_index": 0,
          "from": to_hex(addr(2)), "fee_paid": "0"}
    tx.update(fields)
    return tx


def _coordinates(ds):
    return ([(t.block_number, t.tx_index) for t in ds.txs],
            [(l.block_number, l.tx_index, l.log_index) for l in ds.logs])


def _ordering_tx(block, index):
    return _tx(hash=to_hex(bytes([block, index]) * 16), block_number=block, tx_index=index)


def test_blocks_only_fixture_has_no_txs_or_logs(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _block(2, 112)])
    ds = load_fixture(p)
    assert [b.number for b in ds.blocks] == [1, 2] and ds.txs == [] and ds.logs == []


def test_one_tx_and_one_log(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _ordering_tx(1, 0), _log(1, 0, 0)])
    assert _coordinates(load_fixture(p)) == ([(1, 0)], [(1, 0, 0)])


def test_ascending_records_come_back_as_loaded(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _block(2, 112), _ordering_tx(1, 0), _ordering_tx(1, 3),
                     _ordering_tx(2, 0), _log(1, 0, 0), _log(1, 3, 1), _log(2, 0, 2)])
    ds = load_fixture(p)
    assert _coordinates(ds) == ([(1, 0), (1, 3), (2, 0)], [(1, 0, 0), (1, 3, 1), (2, 0, 2)])
    logs = list(ds.logs)
    assert _in_key_order(logs, ("block_number", "tx_index", "log_index"), "log", p) is logs


def test_out_of_order_records_are_sorted(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _block(2, 112), _ordering_tx(2, 0), _ordering_tx(1, 3),
                     _ordering_tx(1, 0), _log(1, 3, 1), _log(2, 0, 0), _log(1, 0, 5)])
    assert _coordinates(load_fixture(p)) == ([(1, 0), (1, 3), (2, 0)],
                                             [(1, 0, 5), (1, 3, 1), (2, 0, 0)])


@pytest.mark.parametrize("what, records, first_repeat", [
    # (1, 0) sorts first, but (2, 0) is the first key to repeat in the file
    ("tx", [_ordering_tx(2, 0), _ordering_tx(1, 0), _ordering_tx(2, 0), _ordering_tx(1, 0)],
     "(2, 0)"),
    ("log", [_log(2, 0, 0), _log(1, 0, 0), _log(2, 0, 0), _log(1, 0, 0)], "(2, 0, 0)"),
], ids=["tx", "log"])
def test_duplicate_key_names_the_first_repeat_in_file_order(tmp_path, what, records,
                                                            first_repeat):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _block(2, 112)] + records)
    with pytest.raises(DuplicateKey) as exc:
        load_fixture(p)
    assert str(exc.value) == f"{p}: {what} coordinates {first_repeat}"


def test_uppercase_hex_rejected(tmp_path, capsys):
    bad_log = _log(1, 0, 0)
    bad_log["address"] = "0x" + "AB" * 20
    # data has no fixed length, so only the hex check can reject these
    odd_log = dict(_log(1, 0, 0), data="0x" + "0" * 63)
    spaced_log = dict(_log(1, 0, 0), data="0xab cd")   # bytes.fromhex accepts it
    bad_records = [
        bad_log,
        # right length only because bytes.fromhex would skip the spaces
        _tx(hash="0x  " + "ab" * 30 + "  "),
        # a digit to str.isdigit(), not to int()
        _tx(fee_paid="\u00b2"),
        odd_log,
        spaced_log,
    ]
    for i, bad in enumerate(bad_records):
        fixtures = tmp_path / f"fixtures{i}"
        fixtures.mkdir()
        _write_lines(fixtures / "ethereum.jsonl", [_block(1, 100), bad])
        with pytest.raises(MalformedRecord) as exc:
            load_fixture(fixtures / "ethereum.jsonl")
        assert exc.value.line == 2
        assert main(["decode", "--fixtures", str(fixtures)]) == 1
        err = capsys.readouterr().err
        assert f"{fixtures / 'ethereum.jsonl'}: line 2: " in err
        assert "Traceback" not in err


MALFORMED_FIXTURE_LINES = {
    "invalid_json": '{"kind": "log", ',
    "non_object": "[1, 2]",
    "topics_int": json.dumps(dict(_log(1, 0, 0), topics=5)),
    "topics_null": json.dumps(dict(_log(1, 0, 0), topics=None)),
    "topics_bool": json.dumps(dict(_log(1, 0, 0), topics=True)),
    "tx_hashes_int": json.dumps(dict(_block(2, 100), tx_hashes=5)),
    "tx_hashes_bool": json.dumps(dict(_block(2, 100), tx_hashes=True)),
    "tx_hashes_float": json.dumps(dict(_block(2, 100), tx_hashes=1.5)),
    "chain_list": json.dumps(dict(_log(1, 0, 0), chain=[])),
    "chain_object": json.dumps(dict(_block(2, 100), chain={})),
    "block_number_bool": json.dumps(dict(_log(1, 0, 0), block_number=True)),
    "block_number_negative": json.dumps(_log(-1, 0, 0)),
    "tx_block_number_bool": json.dumps(_tx(block_number=True)),
    "block_bool_number": json.dumps(dict(_block(2, 100), number=True)),
    # month_of cannot render years past 9999
    "timestamp_past_year_9999": json.dumps(_block(2, 10 ** 30)),
    "timestamp_bool": json.dumps(_block(2, True)),
    # valid JSON that json.loads cannot read
    "integer_past_digit_limit": json.dumps(_block(2, 100))[:-1] + ', "x": ' + "9" * 5000 + "}",
    # a decimal string that int() cannot read
    "fee_past_digit_limit": json.dumps(_tx(fee_paid="9" * 5000)),
    "builder_payment_past_digit_limit": json.dumps(_tx(builder_payment="1" * 641)),
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURE_LINES))
def test_malformed_fixture_line_names_file_and_line(tmp_path, capsys, name):
    path = tmp_path / "ethereum.jsonl"
    path.write_text(json.dumps(_block(1, 100)) + "\n" + MALFORMED_FIXTURE_LINES[name] + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_fixture(path)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: ")
    for argv in (["decode"], ["detect", "arb", "--out", str(tmp_path / "out")]):
        assert main(argv + ["--fixtures", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 2: " in err
        assert "internal error" not in err and "Traceback" not in err


def test_fixture_invariant_errors_name_file(tmp_path, capsys):
    arbitrum_log = dict(_log(1, 0, 1), chain="arbitrum")
    cases = {
        "ordering": [_block(5, 100), _block(4, 112)],
        "duplicate_tx": [_block(1, 100), _tx(), _tx(hash=to_hex(b"\x02" * 32))],
        "duplicate_log": [_block(1, 100), _log(1, 0, 0), _log(1, 0, 0)],
        "mixed_chains": [_block(1, 100), arbitrum_log],
    }
    for name, lines in cases.items():
        fixtures = tmp_path / name
        fixtures.mkdir()
        path = fixtures / "ethereum.jsonl"
        _write_lines(path, lines)
        assert main(["decode", "--fixtures", str(fixtures)]) == 1, name
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "line 0" not in err, name


def test_round_trip_byte_identical(tmp_path):
    fb = FixtureBuilder(ETHEREUM)
    for b in range(3):
        fb.block()
        for t in range(2):
            fb.tx(fee=5 * 10 ** 14, builder_payment=10 ** 13)
            topics, data = enc_transfer(addr(1), addr(2), 10 ** 20 + b + t)
            fb.log(addr(9), topics, data)
            fb.log(addr(9), topics, data[:32])
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ds = fb.write(p1)
    assert len(ds.logs) == 12
    dump_fixture(load_fixture(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_logs_in_range_matches_linear_scan(tmp_path):
    fb = FixtureBuilder(ETHEREUM)
    topic_a, topic_b = b"\xaa" * 32, b"\xbb" * 32
    for b in range(1, 11):
        fb.block(number=b)
        fb.tx()
        for i, topic in enumerate((topic_a, topic_b)):
            fb.log(addr(3), [topic], b"")
    ds = fb.dataset()

    got = logs_in_range(ds, 3, 7)
    assert got == [l for l in ds.logs if 3 <= l.block_number <= 7]
    assert got == sorted(got, key=lambda l: l.position)

    # full range visits every log exactly once in total order
    full = logs_in_range(ds, 0, 100)
    assert full == ds.logs

    # before the first block, after the last, one block, no logs at all
    for dataset, lo, hi in ((ds, 0, 0), (ds, 11, 20), (ds, 4, 4), (ChainDataset(), 0, 100)):
        assert logs_in_range(dataset, lo, hi) == \
            [l for l in dataset.logs if lo <= l.block_number <= hi]
    assert len(logs_in_range(ds, 4, 4)) == 2


def test_invalid_range():
    with pytest.raises(InvalidRange):
        logs_in_range(load_empty(), 10, 5)


def load_empty():
    from mevlens.chain_model import ChainDataset
    return ChainDataset()


def test_unknown_kind_rejected(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [{"kind": "mystery"}])
    with pytest.raises(MalformedRecord):
        load_fixture(p)


# --- the per-load hex memo against an independent per-field check ---

# (field, bytes or None for variable length, name in the error) in the
# order the loader checks them
HEX_FIELDS = {
    "block": [("tx_hashes", 32, "tx hash")],
    "tx": [("hash", 32, "tx hash"), ("from", 20, "from"), ("to", 20, "to")],
    "log": [("topics", 32, "topic"), ("data", None, "data"), ("address", 20, "address"),
            ("tx_hash", 32, "tx_hash")],
}


def _reference_hex(value, length, what):
    """(bytes, None) or (None, reason) for one fixture hex field: a regex
    check that knows nothing of what other fields hold."""
    if not isinstance(value, str) or not value.startswith("0x"):
        return None, f"{what} must be 0x-hex, got {value!r}"
    if length is not None and len(value) != 2 + 2 * length:
        return None, f"{what} must be {length} bytes, got {value!r}"
    if not re.fullmatch(r"0x(?:[0-9a-f]{2})*", value):
        return None, f"{what} must be lowercase hex bytes: {value!r}"
    raw = bytes.fromhex(value[2:])
    if length is None and len(raw) % 32:
        return None, "log data length must be a multiple of 32"
    return raw, None


def _reference_load(records):
    """(hex fields per record, None) or (None, (line, reason)) for the first
    bad field, checking every field on its own."""
    loaded = []
    for line, obj in enumerate(records, 1):
        row = [obj["kind"]]
        for key, length, what in HEX_FIELDS[obj["kind"]]:
            if obj.get(key) is None and key == "to":   # a contract creation
                row.append(None)
                continue
            values = obj[key] if key in ("tx_hashes", "topics") else [obj[key]]
            raws = []
            for value in values:
                raw, reason = _reference_hex(value, length, what)
                if reason is not None:
                    return None, (line, reason)
                raws.append(raw)
            row.append(tuple(raws) if key in ("tx_hashes", "topics") else raws[0])
        loaded.append(tuple(row))
    return loaded, None


def _loaded_hex(ds):
    return ([("block", b.tx_hashes) for b in ds.blocks]
            + [("tx", t.hash, t.sender, t.to) for t in ds.txs]
            + [("log", l.topics, l.data, l.address, l.tx_hash) for l in ds.logs])


def _memo_fixture():
    """Canonical records in which addresses and topics repeat: the same
    tokens and traders across several swaps and transfers."""
    fb = FixtureBuilder(ETHEREUM)
    ta, tb = addr(0xA1), addr(0xB2)
    for b in range(3):
        fb.block()
        fb.tx(to=addr(0x99))
        fb.log(addr(0x51), *enc_balancer_v1_swap(addr(0xEE), ta, tb, 100 + b, 205))
        fb.log(ta, *enc_transfer(addr(0xEE), addr(0x51), 100 + b))
        fb.tx()
        fb.log(tb, *enc_transfer(addr(0x51), addr(0xEE), 205))
    ds = fb.dataset()
    assert ds.txs[0].to is not None and ds.txs[1].to is None
    return ds


def _records(ds, tmp_path):
    path = tmp_path / "canonical.jsonl"
    dump_fixture(ds, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def _hex_slots(records):
    """(record index, field, list index or None) of every hex value."""
    return [(i, key, j if key in ("tx_hashes", "topics") else None)
            for i, obj in enumerate(records)
            for key, _, _ in HEX_FIELDS[obj["kind"]] if key in obj
            for j in (range(len(obj[key])) if key in ("tx_hashes", "topics") else [None])]


def _set(records, slot, value):
    records = json.loads(json.dumps(records))
    i, key, j = slot
    if j is None:
        records[i][key] = value
    else:
        records[i][key][j] = value
    return records


def _get(records, slot):
    i, key, j = slot
    return records[i][key] if j is None else records[i][key][j]


def _assert_matches_reference(path, records):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in records))
    expected, error = _reference_load(records)
    if error is None:
        assert _loaded_hex(load_fixture(path)) == expected
        return
    with pytest.raises(MalformedRecord) as exc:
        load_fixture(path)
    assert (exc.value.line, exc.value.reason) == error


@pytest.fixture(scope="module")
def memo_records(tmp_path_factory):
    return _records(_memo_fixture(), tmp_path_factory.mktemp("memo"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hex_memo_matches_per_field_check(memo_records, tmp_path_factory, data):
    """One hex field of a fixture set to another field's string (of any
    length, earlier or later in the file) or to a corrupted one: the
    loader, which checks each distinct address and topic string once and
    every other hex field where it appears, agrees with a check of every
    field on its own."""
    records = memo_records
    slots = _hex_slots(records)
    slot = data.draw(st.sampled_from(slots), label="slot")
    original = _get(records, slot)
    others = sorted({_get(records, s) for s in slots})
    value = data.draw(st.one_of(
        st.sampled_from(others),
        st.sampled_from([original.upper(), original[:-1], original[2:], original + "00",
                         original[:4] + " " + original[5:], None, 5, [original]])),
        label="value")
    _assert_matches_reference(tmp_path_factory.mktemp("case") / "f.jsonl",
                              _set(records, slot, value))


def test_hex_memo_checks_length_on_every_hit(memo_records, tmp_path):
    """A string seen as a valid address and later given as a topic, and a
    topic later given as an address, are rejected where they are reused;
    the reverse placements are rejected at the first line."""
    records = memo_records
    logs = [i for i, obj in enumerate(records) if obj["kind"] == "log"]
    first, last = logs[0], logs[-1]
    address, topic = records[first]["address"], records[first]["topics"][0]
    assert len(address) == 42 and len(topic) == 66
    cases = {
        "address_then_topic": ((last, "topics", 0), address),
        "topic_then_address": ((last, "address", None), topic),
        "topic_before_address": ((first, "topics", 0), records[last]["address"]),
        "address_before_topic": ((first, "address", None), records[last]["topics"][0]),
    }
    for name, (slot, value) in cases.items():
        mutated = _set(records, slot, value)
        expected, error = _reference_load(mutated)
        assert expected is None and error[0] == slot[0] + 1, name
        _assert_matches_reference(tmp_path / f"{name}.jsonl", mutated)


def test_repeated_hex_strings_share_one_bytes_object(tmp_path):
    path = tmp_path / "f.jsonl"
    dump_fixture(_memo_fixture(), path)
    ds = load_fixture(path)
    transfers = [l for l in ds.logs if len(l.topics) == 3]
    assert transfers[0].topics[0] is transfers[1].topics[0]
    tx = ds.txs[0]
    assert tx.hash is ds.blocks[0].tx_hashes[0]
    assert all(l.tx_hash is tx.hash for l in ds.logs if l.tx_hash == tx.hash)


def _recurring_fixture(blocks):
    """Records as a chain holds them: a few tokens, pools and traders
    recur in every block's swaps and transfers, one tx in two comes from
    one bot and the other from a new sender, and block numbers run past
    the small ints Python caches."""
    fb = FixtureBuilder(ETHEREUM, start_block=1000)
    tokens = [addr(0xA0 + i) for i in range(3)]
    pools = [addr(0x50), addr(0x51)]
    for b in range(blocks):
        fb.block()
        for t, pool in enumerate(pools):
            fb.tx(sender=addr(0xB07) if t else None, to=pool,
                  tx_hash=(2 * b + t + 1).to_bytes(32, "big"))
            t_in, t_out, trader = tokens[(b + t) % 3], tokens[(b + t + 1) % 3], addr(0xE0 + t)
            fb.log(pool, *enc_balancer_v1_swap(trader, t_in, t_out, 100 + b, 205))
            fb.log(t_in, *enc_transfer(trader, pool, 100 + b))
            fb.log(t_out, *enc_transfer(pool, trader, 205))
    return fb.dataset()


def _in_layout(tmp_path, dataset, layout):
    """``dataset`` dumped in the canonical layout, or as its twin with
    default separators and sorted keys, which takes the json path."""
    path = tmp_path / f"{layout}.jsonl"
    dump_fixture(dataset, path)
    if layout == "json":
        path.write_text("".join(json.dumps(json.loads(line), sort_keys=True) + "\n"
                                for line in path.read_text().splitlines()))
    return path


def _cold_or_warm(path, load):
    """Leave ``path`` with no cache entry ("cold") or with the one its
    first load writes ("warm"), which, its stamp settled, serves the next
    load without reading the fixture."""
    if load == "warm":
        load_fixture(path)
    assert os.path.exists(fixture_cache.entry_path(path)) == (load == "warm")


@pytest.mark.parametrize("load", ["cold", "warm"])
@pytest.mark.parametrize("layout", ["canonical", "json"])
def test_equal_values_load_as_one_object(tmp_path, layout, load, settled):
    """A log's tx hash is its tx's hash and its block's entry; equal
    addresses, topic words and senders are each one object, and on the
    canonical path so are equal block numbers. A load from the cache
    entry shares them as the parse does."""
    path = _in_layout(tmp_path, _recurring_fixture(6), layout)
    _cold_or_warm(path, load)
    ds = load_fixture(path)
    hashes = {h: h for b in ds.blocks for h in b.tx_hashes}
    assert all(t.hash is hashes[t.hash] for t in ds.txs)
    assert all(l.tx_hash is hashes[l.tx_hash] for l in ds.logs)
    shared = [[l.address for l in ds.logs] + [t.to for t in ds.txs],
              [w for l in ds.logs for w in l.topics], [t.sender for t in ds.txs]]
    if layout == "canonical":
        shared.append([b.number for b in ds.blocks] + [t.block_number for t in ds.txs]
                      + [l.block_number for l in ds.logs])
    for values in shared:
        assert len({id(v) for v in values}) == len(set(values)) < len(values)


@pytest.mark.parametrize("load", ["cold", "warm"])
@pytest.mark.parametrize("layout", ["canonical", "json"])
def test_load_peak_is_within_a_tenth_of_the_dataset(tmp_path, layout, load, settled):
    """A load keeps little beside what it returns: its traced peak exceeds
    the dataset it returns by at most 10% (4% here). A memo of every hex
    string seen, tx hashes and senders included, took it to 14% on the
    canonical layout and 17% on the json one. A cold load also writes the
    cache entry, one section at a time; a warm one rebuilds from it."""
    path = _in_layout(tmp_path, _recurring_fixture(300), layout)
    load_fixture(path)   # once first, so that no one-time cache counts
    if load == "cold":
        os.remove(fixture_cache.entry_path(path))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ds = load_fixture(path)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(ds.logs) == 1800
    assert os.path.exists(fixture_cache.entry_path(path))
    assert peak - base <= 1.10 * (size - base), (peak - base, size - base)


def test_load_keeps_the_collector_setting(tmp_path):
    """The load pauses the cyclic collector while it builds records; after
    a good load and after a failing one the collector is on or off as it
    was before."""
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    dump_fixture(_memo_fixture(), good)
    bad.write_text(good.read_text() + '{"kind": "block", "number": true}\n')
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert load_fixture(good).logs
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedRecord):
                load_fixture(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- bytes that are not UTF-8, in every line-based and whole-file input ---

def test_non_utf8_line_names_file_and_line(tmp_path, capsys):
    """Lines end at LF, CRLF or a lone CR, as in text mode; the first line
    that is not UTF-8 is named."""
    good = json.dumps(_block(1, 100)).encode()
    for name, content, line in (
            ("first", b"\xff\xfe\n", 1),
            ("lf", good + b"\n\xff\n", 2),
            ("crlf", good + b"\r\n\r\n" + b'{"kind": "\xe9"}\r\n', 3),
            ("lone_cr", good + b"\r\r" + good + b"\r\xc3\n", 4)):
        fixtures = tmp_path / name
        fixtures.mkdir()
        path = fixtures / "ethereum.jsonl"
        path.write_bytes(content)
        with pytest.raises(MalformedRecord) as exc:
            load_fixture(path)
        assert exc.value.line == line, name
        assert main(["decode", "--fixtures", str(fixtures)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: line {line}: not UTF-8: " in err, name
        assert "internal error" not in err and "Traceback" not in err


# --- the canonical-line recognizer against the json path ---

@st.composite
def fixture_datasets(draw):
    """Random datasets over every field the canonical layout varies: 1-4
    topics, empty and multi-word data, uint256 amounts, a set or unset
    ``to``, both statuses and all four chains."""
    fb = FixtureBuilder(draw(st.sampled_from(list(CHAINS.values()))),
                        start_block=draw(st.integers(0, 10 ** 12)),
                        start_timestamp=draw(st.integers(0, _MAX_TIMESTAMP - 100)))
    amounts = st.integers(0, 2 ** 256 - 1)
    for _ in range(draw(st.integers(1, 3))):
        fb.block()
        for _ in range(draw(st.integers(1, 3))):
            fb.tx(sender=addr(draw(st.integers(0, 2 ** 160 - 1))),
                  to=draw(st.none() | st.integers(0, 2 ** 160 - 1).map(addr)),
                  fee=draw(amounts), builder_payment=draw(amounts),
                  status=draw(st.sampled_from(["success", "reverted"])),
                  tx_hash=draw(st.binary(min_size=32, max_size=32)))
            for _ in range(draw(st.integers(0, 3))):
                topics = draw(st.lists(st.binary(min_size=32, max_size=32),
                                       min_size=1, max_size=4))
                words = draw(st.integers(0, 3))
                fb.log(addr(draw(st.integers(0, 2 ** 160 - 1))), topics,
                       draw(st.binary(min_size=32 * words, max_size=32 * words)))
    return fb.dataset()


@settings(max_examples=60, deadline=None)
@given(dataset=fixture_datasets())
def test_recognizer_takes_every_canonical_line(tmp_path_factory, dataset):
    """Every line dump_fixture writes takes the compiled path, every line
    of its json.dumps(sort_keys=True) twin takes the json path, and both
    files load to the dataset."""
    tmp = tmp_path_factory.mktemp("twin")
    canonical, twin = tmp / "canonical.jsonl", tmp / "twin.jsonl"
    dump_fixture(dataset, canonical)
    lines = canonical.read_text().splitlines()
    twin_lines = [json.dumps(json.loads(line), sort_keys=True) for line in lines]
    twin.write_text("".join(line + "\n" for line in twin_lines))
    assert _load_fixture(canonical) == (dataset, 0)
    assert _load_fixture(twin) == (dataset, len(twin_lines))
    assert load_fixture(canonical) == load_fixture(twin) == dataset


def _recognizer_fixture():
    fb = FixtureBuilder(ETHEREUM)
    fb.block()
    fb.tx(to=addr(0x99), fee=7, tx_hash=bytes(range(32)))
    fb.log(addr(0xAB), *enc_transfer(addr(1), addr(2), 0xBEEF))
    return fb.dataset()


def _outcome(load, path):
    """The records a loader returns, in file order, or the (line, reason)
    it rejects the file with."""
    try:
        return load(path)
    except MalformedRecord as exc:
        return exc.line, exc.reason


def _load_records(path):
    ds = load_fixture(path)
    return ds.blocks + ds.txs + ds.logs


def _json_path_records(path):
    return [record for _, record in read_jsonl(path, lambda obj: _parse_record(obj, _hexstr))]


def test_recognizer_mutations_match_json_path(tmp_path):
    """One-line mutations of a canonical block, tx and log: load_fixture
    gives the record or the (line, reason) that the json path alone
    gives."""
    ds = _recognizer_fixture()
    path = tmp_path / "canonical.jsonl"
    dump_fixture(ds, path)
    block, tx, log = path.read_text().splitlines()
    address, topic = to_hex(ds.logs[0].address), to_hex(ds.logs[0].topics[0])
    data, sender = to_hex(ds.logs[0].data), to_hex(ds.txs[0].sender)
    assert tx.count('"hash":"0x00') == 1 and '"to":"0x' in tx and data.endswith("beef")
    mutations = {
        "uppercase_hex": (2, log.replace(address, "0x" + address[2:].upper())),
        "address_19_bytes": (2, log.replace(address, address[:-2])),
        "address_21_bytes": (2, log.replace(address, address + "00")),
        "no_topics": (2, re.sub(r'"topics":\[[^]]*\]', '"topics":[]', log)),
        "five_topics": (2, re.sub(r'"topics":\[[^]]*\]',
                                  '"topics":[' + ",".join([f'"{topic}"'] * 5) + "]", log)),
        "data_31_bytes": (2, log.replace(data, data[:-2])),
        "block_number_leading_zero": (1, tx.replace('"block_number":1,',
                                                    '"block_number":01,')),
        "fee_leading_zeros": (1, tx.replace('"fee_paid":"7"', '"fee_paid":"007"')),
        "fee_5000_digits": (1, tx.replace('"fee_paid":"7"', '"fee_paid":"' + "9" * 5000 + '"')),
        "to_null": (1, re.sub(r'"to":"0x[0-9a-f]*"', '"to":null', tx)),
        "no_status": (1, tx.replace(',"status":"success"', "")),
        "chain_capitalized": (0, block.replace('"ethereum"', '"Ethereum"')),
        "timestamp_past_max": (0, re.sub(r'"timestamp":[0-9]+',
                                         f'"timestamp":{_MAX_TIMESTAMP + 1}', block)),
        "escaped_digit_in_hash": (1, tx.replace('"hash":"0x00', '"hash":"0x\\u00300')),
        "trailing_tab": (2, log + "\t"),
        "nul_in_hex": (2, log.replace(address, address[:10] + "\0" + address[10:])),
        "line_separator_in_hex": (2, log.replace(address,
                                                 address[:10] + "\u2028" + address[10:])),
    }
    # at each field's length, so that the structural pattern matches and
    # only the hex round trip sends the line to the json path
    structural = {
        "g_in_address": (2, log.replace(address, address[:-1] + "g")),
        "space_in_data": (2, log.replace(data, data[:-3] + " " + data[-2:])),
        "uppercase_data": (2, log.replace(data, "0x" + data[2:].upper())),
        "escaped_digit_in_data": (2, log.replace(data, data[:-6] + "\\u0030")),
        "arabic_indic_digit_in_tx_hash": (1, tx.replace('"hash":"0x00', '"hash":"0x0\u0663')),
        "backslash_before_from_quote": (1, tx.replace(sender, sender[:-1] + "\\")),
    }
    assert all(_CANONICAL[mutated[9]](mutated) for _, mutated in structural.values())
    mutations.update(structural)
    assert all(mutated != [block, tx, log][i] for i, mutated in mutations.values())
    contents = {name: "".join(line + "\n" for line in
                              [block, tx, log][:i] + [mutated] + [block, tx, log][i + 1:]
                              ).encode()
                for name, (i, mutated) in mutations.items()}
    canonical = path.read_bytes()
    contents["crlf"] = canonical.replace(b"\n", b"\r\n")
    contents["bom"] = b"\xef\xbb\xbf" + canonical
    rejected = 0
    for name, content in contents.items():
        mutated = tmp_path / f"{name}.jsonl"
        mutated.write_bytes(content)
        expected = _outcome(_json_path_records, mutated)
        assert _outcome(_load_records, mutated) == expected, name
        rejected += isinstance(expected, tuple)
    assert 0 < rejected < len(contents)
    assert _load_records(path) == _json_path_records(path) == ds.blocks + ds.txs + ds.logs


# characters that break a field's syntax or its hex, and any other
EDIT_CHARACTERS = (st.sampled_from(list('09afAFgx"\\ ,:[]{}\t\0\u0663\u2028\xe9'))
                   | st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 2), offset=st.integers(0, 10 ** 4),
       edit=st.sampled_from(["replace", "insert", "delete"]), character=EDIT_CHARACTERS)
def test_single_character_edits_match_json_path(tmp_path_factory, which, offset, edit,
                                                character):
    """One character replaced, inserted or deleted anywhere in a canonical
    block, tx or log line: load_fixture gives the records or the (line,
    reason) that the json path alone gives."""
    path = tmp_path_factory.mktemp("edit") / "edited.jsonl"
    dump_fixture(_recognizer_fixture(), path)
    lines = path.read_text().splitlines()
    line = lines[which]
    at = offset % (len(line) + 1)
    lines[which] = line[:at] + {"replace": character, "insert": character + line[at:at + 1],
                                "delete": ""}[edit] + line[at + 1:]
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    assert _outcome(_load_records, path) == _outcome(_json_path_records, path)
