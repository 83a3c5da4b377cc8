import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from mevlens.chain_model import (ETHEREUM, ChainDataset, dump_fixture, load_fixture,
                                 logs_in_range, to_hex)
from mevlens.cli import main
from mevlens.errors import (DuplicateKey, InvalidRange, MalformedRecord,
                            OrderingViolation)
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


def test_duplicate_log_coordinates(tmp_path):
    p = tmp_path / "f.jsonl"
    _write_lines(p, [_block(1, 100), _log(1, 0, 0), _log(1, 0, 0)])
    with pytest.raises(DuplicateKey):
        load_fixture(p)


def _tx(**fields):
    tx = {"kind": "tx", "hash": to_hex(b"\x01" * 32), "block_number": 1, "tx_index": 0,
          "from": to_hex(addr(2)), "fee_paid": "0"}
    tx.update(fields)
    return tx


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
    loader, which checks each distinct string once, agrees with a check of
    every field on its own."""
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
