"""EVM runtime bytecode normalization and identical-skeleton clustering.

Normalization removes every PUSH opcode with its operand bytes and strips
the trailing Solidity CBOR metadata segment, so deployments differing only
in embedded constants collapse to one digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chain_model import CHAINS, ChainId
from .errors import MalformedRecord
from .keccak import keccak256

PUSH1 = 0x60
PUSH32 = 0x7F
DELEGATECALL = 0xF4


@dataclass(frozen=True)
class BytecodeRecord:
    chain: ChainId
    address: bytes
    code: bytes
    verified: bool = False


@dataclass(frozen=True)
class NormalizedCode:
    skeleton: bytes
    digest: bytes


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
    """Linear disassembly copying every non-PUSH byte; PUSH1..PUSH32 skip
    the opcode plus its operand bytes (truncated operands skip to end)."""
    body = strip_metadata(code)
    out = bytearray()
    i = 0
    n = len(body)
    while i < n:
        op = body[i]
        if PUSH1 <= op <= PUSH32:
            i += 1 + (op - PUSH1 + 1)
        else:
            out.append(op)
            i += 1
    return bytes(out)


def normalize(code: bytes) -> NormalizedCode:
    """The code's PUSH-free, metadata-free skeleton and its keccak digest."""
    skel = _skeleton(code)
    return NormalizedCode(skeleton=skel, digest=keccak256(skel))


@dataclass(frozen=True)
class Cluster:
    digest: bytes
    members: tuple          # (chain, address) pairs
    chains: tuple           # distinct chain names, sorted

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def cross_chain(self) -> bool:
        return len(self.chains) > 1


def cluster(records) -> list:
    """Group unverified, non-proxy records by skeleton digest.

    Excluded: records with verified=True and records whose skeleton
    contains DELEGATECALL (scanned post PUSH removal so operand bytes
    cannot cause false exclusion). Every retained record lands in exactly
    one cluster. Both exclusions are checked before any hashing, and each
    distinct retained skeleton is hashed once.
    """
    digests: dict = {}      # skeleton -> digest, for this call only
    groups: dict = {}
    for rec in records:
        if rec.verified:
            continue
        skel = _skeleton(rec.code)
        if DELEGATECALL in skel:
            continue
        digest = digests.get(skel)
        if digest is None:
            digest = digests[skel] = keccak256(skel)
        groups.setdefault(digest, []).append((rec.chain, rec.address))
    clusters = []
    for digest, members in groups.items():
        members.sort(key=lambda m: (m[0].name, m[1]))
        chains = tuple(sorted({m[0].name for m in members}))
        clusters.append(Cluster(digest=digest, members=tuple(members), chains=chains))
    clusters.sort(key=lambda c: (-c.size, c.digest))
    return clusters


def load_bytecode_fixture(path) -> list:
    """JSONL rows: {chain, address, code_hex, verified}. A row that does
    not fit raises MalformedRecord with the file and line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line, raw in enumerate(fh, 1):
            raw = raw.strip()
            if raw:
                records.append(_record(raw, path, line))
    return records


def _record(raw: str, path, line) -> BytecodeRecord:
    def bad(reason):
        return MalformedRecord(line, reason, path)

    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise bad(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise bad("record must be a JSON object")
    chain = obj.get("chain")
    if not (isinstance(chain, str) and chain in CHAINS):
        raise bad(f"unknown or missing chain: {chain!r}")
    address = _hex_bytes(obj.get("address"), "address", bad)
    code = _hex_bytes(obj.get("code_hex"), "code_hex", bad)
    verified = obj.get("verified", False)
    if type(verified) is not bool:
        raise bad(f"verified must be true or false, got {verified!r}")
    return BytecodeRecord(chain=CHAINS[chain], address=address, code=code, verified=verified)


def _hex_bytes(value, key, bad) -> bytes:
    """Hex in either case with an optional 0x prefix. fromhex skips
    whitespace, so a body with any is longer than two digits per byte."""
    if isinstance(value, str):
        body = value.removeprefix("0x")
        try:
            data = bytes.fromhex(body)
        except ValueError:
            data = None
        if data is not None and 2 * len(data) == len(body):
            return data
    raise bad(f"{key} must be hex bytes, got {value!r}")
