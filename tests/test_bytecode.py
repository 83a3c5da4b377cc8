import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mevlens.bytecode
from mevlens.bytecode import (BytecodeRecord, Cluster, DELEGATECALL, _skeleton, cluster,
                              load_bytecode_fixture, strip_metadata)
from mevlens.chain_model import ARBITRUM, CHAINS, ETHEREUM, OPTIMISM
from mevlens.cli import main
from mevlens.errors import MalformedRecord
from mevlens.fixtures import addr
from mevlens.keccak import keccak256
from conftest import literal_skeleton
from test_keccak import reference_keccak256

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# a small plausible runtime body: dispatcher-ish prologue, no DELEGATECALL
BODY = bytes.fromhex(
    "6080604052348015600f57600080fd5b506004361060285760003560e01c8063"
    "c605f76c14602d575b600080fd5b60336047565b604051603e9190608d565b60"
    "405180910390f35b606060405180000000000000000000000000000000000000"
)


def cbor_trailer(seed=0):
    """Well-formed Solidity-style metadata: CBOR map + 2-byte length."""
    payload = b"\xa2\x64ipfs\x58\x22" + bytes([seed % 256]) * 34 + \
        b"\x64solc\x43\x00\x08\x11"
    return payload + len(payload).to_bytes(2, "big")


def mutate_push_operands(code, rng):
    """Rewrite the operand bytes of every PUSH with random values."""
    out = bytearray(code)
    i = 0
    while i < len(out):
        op = out[i]
        if 0x60 <= op <= 0x7F:
            width = op - 0x5F
            for j in range(i + 1, min(i + 1 + width, len(out))):
                out[j] = rng.randrange(256)
            i += 1 + width
        else:
            i += 1
    return bytes(out)


def digest(code: bytes) -> bytes:
    """keccak-256 of the code's PUSH-free, metadata-free skeleton: the key
    ``cluster`` groups by."""
    return keccak256(_skeleton(code))


def test_normalization_idempotent():
    skeleton = _skeleton(BODY + cbor_trailer())
    assert _skeleton(skeleton) == skeleton
    assert digest(skeleton) == digest(BODY + cbor_trailer())


def test_push_operand_mutations_keep_digest():
    rng = random.Random(7)
    base = digest(BODY + cbor_trailer())
    for _ in range(500):
        mutated = mutate_push_operands(BODY, rng) + cbor_trailer(rng.randrange(256))
        assert digest(mutated) == base


def test_non_push_mutation_changes_digest():
    base = digest(BODY)
    # flip a non-PUSH opcode that survives into the skeleton
    body = bytearray(BODY)
    idx = BODY.index(0x52)  # MSTORE in the prologue
    body[idx] = 0x53        # MSTORE8
    assert digest(bytes(body)) != base


def test_metadata_stripping_edges():
    assert strip_metadata(b"") == b""
    assert strip_metadata(b"\x00") == b"\x00"
    # declared length longer than the code: untouched
    assert strip_metadata(b"\x01\x02\xff\xff") == b"\x01\x02\xff\xff"
    # zero declared length: untouched
    assert strip_metadata(BODY + b"\x00\x00") == BODY + b"\x00\x00"
    # segment not opening with a CBOR map header: untouched
    bogus = BODY + b"\x11\x22\x33" + b"\x00\x03"
    assert strip_metadata(bogus) == bogus
    trailer = cbor_trailer()
    assert strip_metadata(BODY + trailer) == BODY


@given(st.binary(max_size=200))
def test_normalize_never_panics_and_skeleton_push_free(code):
    skeleton = _skeleton(code)
    assert all(not 0x60 <= b <= 0x7F for b in skeleton)
    assert digest(skeleton) == digest(code)


def test_truncated_push_operand():
    # PUSH32 with only 3 operand bytes left: swallowed to end of code
    assert _skeleton(b"\x01\x7f\xaa\xbb") == b"\x01"


# the bytes where a skeleton can go wrong: a newline operand, PUSH0 (which
# has no operand), every PUSH1..PUSH32 and DELEGATECALL
EDGE_BYTE = st.one_of(st.sampled_from([0x0A, 0x5F, *range(0x60, 0x80), DELEGATECALL]),
                      st.integers(0, 255))


@st.composite
def push_near_the_end(draw):
    """Mostly edge bytes, with a PUSH whose operand may run past the end."""
    head = draw(st.lists(EDGE_BYTE, max_size=64))
    push = draw(st.integers(0x60, 0x7F))
    tail = draw(st.lists(EDGE_BYTE, max_size=31))
    return bytes(head + [push] + tail)


@settings(max_examples=500)
@given(st.one_of(st.binary(max_size=300), push_near_the_end()))
def test_skeleton_matches_literal_disassembly(code):
    assert _skeleton(code) == literal_skeleton(code)


@pytest.mark.parametrize("code, skeleton", [
    (b"\x60\x0a\x01", b"\x01"),         # a newline operand is an operand
    (b"\x5f\x01", b"\x5f\x01"),         # PUSH0 is kept
    (b"\x7f" + b"\x0a" * 31, b""),       # a truncated PUSH32 of newlines
], ids=["newline_operand", "push0", "truncated_push32"])
def test_skeleton_edge_cases(code, skeleton):
    assert _skeleton(code) == literal_skeleton(code) == skeleton


def test_exclusions_remove_exactly_planted_records():
    records = [
        BytecodeRecord(ETHEREUM, addr(1), BODY + cbor_trailer(1)),
        BytecodeRecord(ETHEREUM, addr(2), BODY + cbor_trailer(2)),
        BytecodeRecord(ETHEREUM, addr(3), BODY, verified=True),
        BytecodeRecord(ETHEREUM, addr(4), BODY + bytes([DELEGATECALL])),
        # DELEGATECALL only inside a PUSH operand: must NOT be excluded
        BytecodeRecord(ETHEREUM, addr(5), b"\x61" + bytes([DELEGATECALL, 0x01]) + b"\x01"),
    ]
    clusters = cluster(records)
    kept = {m[1] for c in clusters for m in c.members}
    assert kept == {addr(1), addr(2), addr(5)}
    assert sum(c.size for c in clusters) == 3


def test_clustering_is_a_partition():
    rng = random.Random(99)
    records = []
    for i in range(60):
        code = mutate_push_operands(BODY, rng) if i % 2 else BODY + bytes([i])
        records.append(BytecodeRecord(ETHEREUM, addr(100 + i), code))
    clusters = cluster(records)
    seen = [m for c in clusters for m in c.members]
    assert len(seen) == len(set(seen)) == 60
    # mutated halves collapse into one cluster
    assert max(c.size for c in clusters) == 30


def test_cross_chain_cluster_of_three():
    rng = random.Random(5)
    records = [
        BytecodeRecord(ETHEREUM, addr(1), mutate_push_operands(BODY, rng)),
        BytecodeRecord(ARBITRUM, addr(2), mutate_push_operands(BODY, rng)),
        BytecodeRecord(OPTIMISM, addr(3), mutate_push_operands(BODY, rng)),
    ]
    clusters = cluster(records)
    assert len(clusters) == 1
    assert clusters[0].size == 3 and len(clusters[0].chains) > 1
    assert clusters[0].chains == ("arbitrum", "ethereum", "optimism")


def test_load_bytecode_fixture(tmp_path):
    path = tmp_path / "code.jsonl"
    rows = [
        {"chain": "ethereum", "address": "0x" + addr(1).hex(),
         "code_hex": "0x" + BODY.hex(), "verified": False},
        {"chain": "arbitrum", "address": "0x" + addr(2).hex(),
         "code_hex": BODY.hex(), "verified": True},
        {"chain": "zksync", "address": addr(3).hex().upper(), "code_hex": "0x"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    records = load_bytecode_fixture(path)
    assert len(records) == 3
    assert records[2].address == addr(3) and records[2].code == b""
    assert records[0].chain == ETHEREUM and not records[0].verified
    assert records[1].chain == ARBITRUM and records[1].verified
    assert records[0].code == BODY


def oracle_clusters(records):
    """Literal grouping: the skeleton and the reference keccak on every
    retained record, members and clusters sorted as documented."""
    groups = {}
    for rec in records:
        skeleton = _skeleton(rec.code)
        if rec.verified or DELEGATECALL in skeleton:
            continue
        groups.setdefault(reference_keccak256(skeleton), []).append((rec.chain, rec.address))
    clusters = [Cluster(digest=digest,
                        members=tuple(sorted(members, key=lambda m: (m[0].name, m[1]))),
                        chains=tuple(sorted({m[0].name for m in members})))
                for digest, members in groups.items()]
    return sorted(clusters, key=lambda c: (-c.size, c.digest))


def corpus(rng):
    """Deployments of a few bodies across chains: repeated skeletons with
    fresh operands and metadata, verified-only bodies, proxies, a body
    with DELEGATECALL inside an operand, and stray verified deployments."""
    records = []
    n = 0
    for op in range(0x01, 0x0D):
        body = BODY + bytes([op])
        all_verified = op % 6 == 0
        if op % 4 == 0:
            body += bytes([DELEGATECALL])                       # proxy
        if op == 0x03:
            body += b"\x61" + bytes([DELEGATECALL, DELEGATECALL])  # operand only
        for _ in range(rng.randint(1, 4)):
            n += 1
            code = mutate_push_operands(body, rng) + cbor_trailer(rng.randrange(256))
            verified = all_verified or rng.random() < 0.2
            records.append(BytecodeRecord(rng.choice(list(CHAINS.values())), addr(n), code,
                                          verified))
    rng.shuffle(records)
    return records


@pytest.mark.parametrize("seed", range(3))
def test_cluster_matches_oracle_hashing_each_retained_skeleton_once(monkeypatch, seed):
    records = corpus(random.Random(seed))
    expected = oracle_clusters(records)
    retained = set()
    for rec in records:
        skeleton = _skeleton(rec.code)
        if not rec.verified and DELEGATECALL not in skeleton:
            retained.add(skeleton)
    calls = []
    real = mevlens.bytecode.keccak256_many

    def counting(messages):
        calls.append(list(messages))
        return real(messages)

    monkeypatch.setattr(mevlens.bytecode, "keccak256_many", counting)
    assert cluster(records) == expected
    # one batch holding each distinct retained skeleton exactly once;
    # never verified-only bodies or proxies
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(retained)


def _bytecode_row(**fields):
    row = {"chain": "ethereum", "address": "0x" + addr(1).hex(),
           "code_hex": "0x" + BODY.hex(), "verified": False}
    row.update(fields)
    return json.dumps({k: v for k, v in row.items() if v is not None})


MALFORMED_BYTECODE_ROWS = {
    "invalid_json": "notjson",
    "non_object": "[1, 2]",
    "missing_chain": _bytecode_row(chain=None),
    "unknown_chain": _bytecode_row(chain="nochain"),
    "non_hex_code": _bytecode_row(code_hex="0xzz"),
    "spaced_code": _bytecode_row(code_hex="0x6080 6040"),
    "odd_length_code": _bytecode_row(code_hex="0x608"),
    "non_hex_address": _bytecode_row(address="0xzz"),
    "missing_address": _bytecode_row(address=None),
    "empty_address": _bytecode_row(address="0x"),
    "string_verified": _bytecode_row(verified="false"),
    "repeated_address": _bytecode_row(),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_BYTECODE_ROWS))
def test_load_bytecode_fixture_rejects_malformed_row(tmp_path, capsys, name):
    path = tmp_path / "code.jsonl"
    path.write_text(_bytecode_row() + "\n" + MALFORMED_BYTECODE_ROWS[name] + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_bytecode_fixture(path)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: ")
    assert main(["bytecode", "cluster", "--bytecode", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 2: " in err
    assert "internal error" not in err and "Traceback" not in err


def test_repeated_chain_and_address_rejected_whatever_its_spelling(tmp_path, capsys):
    """The same address on two chains is two deployments; the same address
    twice on one chain, in any hex spelling, is a repeated row that would
    otherwise form a clone cluster with itself."""
    path = tmp_path / "code.jsonl"
    rows = [_bytecode_row(), _bytecode_row(chain="arbitrum"),
            _bytecode_row(address=addr(2).hex(), code_hex=BODY.hex().upper()),
            _bytecode_row(address=addr(1).hex().upper())]
    path.write_text("\n".join(rows[:3]) + "\n")
    assert [(r.chain, r.address) for r in load_bytecode_fixture(path)] == \
        [(ETHEREUM, addr(1)), (ARBITRUM, addr(1)), (ETHEREUM, addr(2))]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_bytecode_fixture(path)
    assert exc.value.line == 4
    assert main(["bytecode", "cluster", "--bytecode", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 4: ethereum address 0x{addr(1).hex()} already on line 1" in err
    assert not (tmp_path / "out").exists()


def test_cluster_command_imports_no_reporting_and_writes_the_golden_csv(tmp_path):
    """In a fresh interpreter, ``bytecode cluster`` loads neither the
    reporting module nor what only it needs, and writes the same bytes as
    the reporting writer it replaced (tests/data/bytecode_clusters.csv).
    The corpus holds clones with fresh operands and metadata, newline
    operands, PUSH0, a verified body, a proxy, DELEGATECALL inside an
    operand, truncated PUSH32s and empty code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    code = ("import sys\n"
            "from mevlens.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, *[m for m in ('mevlens.reporting', 'fractions', 'decimal', 'datetime')\n"
            "            if m in sys.modules])\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "bytecode", "cluster",
         "--bytecode", os.path.join(DATA, "bytecode_corpus.jsonl"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout.splitlines()[-1] == "0", (proc.stdout, proc.stderr)
    with open(os.path.join(DATA, "bytecode_clusters.csv"), "rb") as fh:
        golden = fh.read()
    assert (tmp_path / "bytecode_clusters.csv").read_bytes() == golden
