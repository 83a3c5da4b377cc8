"""Known-answer tests for keccak-256 plus a cross-check of the single and
the batched sponge against a second, independently written permutation."""

import random

from hypothesis import example, given, settings, strategies as st

from mevlens.keccak import keccak256, keccak256_many

# --- independent reference implementation (lane-matrix style) ---

_ROT = [[0, 36, 3, 41, 18],
        [1, 44, 10, 45, 2],
        [62, 6, 43, 15, 61],
        [28, 55, 25, 21, 56],
        [27, 20, 39, 8, 14]]

_RC = [0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
      0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
      0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
      0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
      0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
      0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
      0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
      0x8000000000008080, 0x0000000080000001, 0x8000000080008008]

_MASK = (1 << 64) - 1


def _rol(x, s):
    return ((x << s) | (x >> (64 - s))) & _MASK


def _permute(lanes):
    for rc in _RC:
        c = [lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3] ^ lanes[x][4]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rol(c[(x + 1) % 5], 1) for x in range(5)]
        lanes = [[lanes[x][y] ^ d[x] for y in range(5)] for x in range(5)]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rol(lanes[x][y], _ROT[x][y])
        lanes = [[b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
                  for y in range(5)] for x in range(5)]
        lanes[0][0] ^= rc
    return lanes


def reference_keccak256(data: bytes) -> bytes:
    rate = 136
    padded = bytearray(data)
    pad_len = rate - (len(padded) % rate)
    padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80" if pad_len >= 2 \
        else b"\x81"
    lanes = [[0] * 5 for _ in range(5)]
    for off in range(0, len(padded), rate):
        block = padded[off:off + rate]
        for i in range(rate // 8):
            x, y = i % 5, i // 5
            lanes[x][y] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        lanes = _permute(lanes)
    out = bytearray()
    for i in range(4):
        out += lanes[i % 5][i // 5].to_bytes(8, "little")
    return bytes(out)


def test_empty_input_vector():
    assert keccak256(b"").hex() == \
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"


def test_transfer_signature_vector():
    assert keccak256(b"Transfer(address,address,uint256)").hex() == \
        "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"


def test_abc_vector():
    assert keccak256(b"abc").hex() == \
        "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"


def test_matches_reference_on_random_inputs():
    rng = random.Random(7)
    for _ in range(60):
        data = rng.randbytes(rng.randint(0, 400))
        assert keccak256(data) == reference_keccak256(data)


def test_multi_block_input():
    data = b"x" * 500  # spans 4 sponge blocks
    assert keccak256(data) == reference_keccak256(data)


# lengths that end just before, at and just after one or two 136-byte
# blocks, where the padding byte moves into a block of its own
_LENGTHS = st.one_of(st.integers(0, 2), st.integers(134, 138), st.integers(270, 274),
                     st.integers(0, 4096))


@settings(deadline=None)
@given(_LENGTHS.flatmap(lambda n: st.binary(min_size=n, max_size=n)))
def test_matches_reference_around_rate_boundaries(data):
    assert keccak256(data) == reference_keccak256(data)


@st.composite
def _batches(draw):
    """Up to 40 messages of mixed block counts, some of them repeated, in
    any order."""
    distinct = draw(st.lists(_LENGTHS.flatmap(lambda n: st.binary(min_size=n, max_size=n)),
                             max_size=20))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=40 - len(distinct))) \
        if distinct else []
    return draw(st.permutations(distinct + repeats))


@settings(max_examples=40, deadline=None)
@given(_batches())
# wider than one sponge run, lengths 0..299 (one to three blocks)
@example([bytes([k % 251]) * (k % 300) for k in range(1100)])
def test_batched_sponge_matches_reference_in_input_order(messages):
    expected = {m: reference_keccak256(m) for m in set(messages)}
    assert keccak256_many(messages) == [expected[m] for m in messages]
