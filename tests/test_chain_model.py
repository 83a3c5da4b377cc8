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
        assert "line 2" in err and "Traceback" not in err


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
