"""EVM runtime bytecode normalization and identical-skeleton clustering.

Normalization removes every PUSH opcode with its operand bytes and strips
the trailing Solidity CBOR metadata segment, so deployments differing only
in embedded constants collapse to one digest.
"""

from __future__ import annotations

import csv
import re
from typing import NamedTuple

from .chain_model import ChainId, _chain, _json_line, _lines, _sidecar_hex, to_hex
from .errors import MalformedRecord
# keccak256 stays bound here, unused: perfbench/selftest.py checks that the
# tracer wraps mevlens.bytecode.keccak256 together with mevlens.keccak's
from .keccak import keccak256, keccak256_many  # noqa: F401

PUSH1 = 0x60
DELEGATECALL = 0xF4
# PUSH1..PUSH32, each with up to its operand width of following bytes: a
# scan from the left matches exactly where a linear disassembly finds a
# PUSH, and a truncated operand runs to the end; re.S lets "." take 0x0a
_PUSH = re.compile(b"|".join(re.escape(bytes([PUSH1 + k])) + b".{0,%d}" % (k + 1)
                             for k in range(32)), re.S)


class BytecodeRecord(NamedTuple):
    chain: ChainId
    address: bytes
    code: bytes
    verified: bool = False


def strip_metadata(code: bytes) -> bytes:
    """Drop the trailing CBOR metadata segment when the final two bytes
    declare a plausible length and the segment opens with a CBOR map
    header; otherwise return the code unchanged."""
    if len(code) < 2:
        return code
    declared = int.from_bytes(code[-2:], "big")
    if declared == 0 or declared + 2 > len(code):
        return code
    start = len(code) - 2 - declared
    # CBOR major type 5 (map) header byte: 0xa0..0xbf
    if code[start] & 0xE0 != 0xA0:
        return code
    return code[:start]


def _skeleton(code: bytes) -> bytes:
    """The metadata-free code without its PUSH1..PUSH32 and their operands."""
    return _PUSH.sub(b"", strip_metadata(code))


class Cluster(NamedTuple):
    digest: bytes
    members: tuple          # (chain, address) pairs
    chains: tuple           # distinct chain names, sorted

    @property
    def size(self) -> int:
        return len(self.members)


def cluster(records) -> list:
    """Group unverified, non-proxy records by skeleton digest.

    Excluded: records with verified=True and records whose skeleton
    contains DELEGATECALL (scanned post PUSH removal so operand bytes
    cannot cause false exclusion). Every retained record lands in exactly
    one cluster. Both exclusions are checked before any hashing, and the
    distinct retained skeletons are hashed together, each once.
    """
    by_skeleton: dict = {}  # skeleton -> members, in record order
    for rec in records:
        if rec.verified:
            continue
        skel = _skeleton(rec.code)
        if DELEGATECALL in skel:
            continue
        by_skeleton.setdefault(skel, []).append((rec.chain, rec.address))
    groups: dict = {}
    for members, digest in zip(by_skeleton.values(), keccak256_many(list(by_skeleton))):
        groups.setdefault(digest, []).extend(members)
    clusters = []
    for digest, members in groups.items():
        members.sort(key=lambda m: (m[0].name, m[1]))
        chains = tuple(sorted({m[0].name for m in members}))
        clusters.append(Cluster(digest=digest, members=tuple(members), chains=chains))
    clusters.sort(key=lambda c: (-c.size, c.digest))
    return clusters


def write_clusters(clusters, path) -> None:
    """One CSV row per cluster: digest, size, chains and members."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["digest", "size", "chains", "members"])
        for c in clusters:
            members = ";".join(f"{chain.name}:0x{address.hex()}" for chain, address in c.members)
            writer.writerow(["0x" + c.digest.hex(), c.size, ";".join(c.chains), members])


def load_bytecode_fixture(path) -> list:
    """JSONL rows: {chain, address, code_hex, verified}, hex in either
    case with an optional 0x prefix. A row that does not fit, or that
    repeats an earlier row's chain and address, raises MalformedRecord
    with the file and line."""
    records = []
    seen = {}   # (chain, address bytes) -> line
    for line, raw in _lines(path):
        rec = _json_line(path, line, raw, _record)
        key = (rec.chain, rec.address)
        if key in seen:
            raise MalformedRecord(line, f"{rec.chain.name} address {to_hex(rec.address)} "
                                        f"already on line {seen[key]}", path)
        seen[key] = line
        records.append(rec)
    return records


def _record(obj: dict) -> BytecodeRecord:
    chain = _chain(obj)
    address = _sidecar_hex(obj.get("address"))
    if address is None:
        raise MalformedRecord(None, f"address must be hex bytes, got {obj.get('address')!r}")
    code = _sidecar_hex(obj.get("code_hex"), allow_empty=True)
    if code is None:
        raise MalformedRecord(None, f"code_hex must be hex bytes, got {obj.get('code_hex')!r}")
    verified = obj.get("verified", False)
    if type(verified) is not bool:
        raise MalformedRecord(None, f"verified must be true or false, got {verified!r}")
    return BytecodeRecord(chain=chain, address=address, code=code, verified=verified)
