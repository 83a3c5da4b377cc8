import json

import pytest

from mevlens.chain_model import (ETHEREUM, ChainDataset, dump_fixture, load_fixture,
                                 logs_in_range, to_hex)
from mevlens.cli import main
from mevlens.errors import (DuplicateKey, InvalidRange, MalformedRecord,
                            OrderingViolation)
from mevlens.fixtures import FixtureBuilder, addr, enc_transfer


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
    for argv in (["decode"], ["detect", "arb"]):
        assert main(argv + ["--fixtures", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
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

    got = logs_in_range(ds, 3, 7, topics=[topic_a])
    expected = [l for l in ds.logs
                if 3 <= l.block_number <= 7 and l.topics[0] == topic_a]
    assert got == expected
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
