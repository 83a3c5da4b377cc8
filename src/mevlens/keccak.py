"""Self-contained Keccak-256 (original padding, not NIST SHA3).

Only dependency-free primitive the package needs; used for bridge message
link keys and bytecode skeleton digests. ``hashlib.sha3_256`` pads with
the NIST domain byte 0x06 instead of 0x01 and gives other digests, so it
is no substitute.

The state is one flat list of 25 lanes, lane (x, y) at index x + 5*y, so a
136-byte block absorbs into lanes 0..16 in order and the digest is lanes
0..3. The permutation keeps theta in straight-line code, runs rho and pi
from a literal (source, destination, rotation) table and runs chi one row
at a time with the row's lanes in locals.
"""

import struct

_RC = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rho + pi: lane (x, y) rotated by its rho offset moves to lane
# (y, 2x + 3y mod 5); entries are (x + 5y, destination index, offset)
_RHO_PI = (
    (0, 0, 0), (1, 10, 1), (2, 20, 62), (3, 5, 28), (4, 15, 27),
    (5, 16, 36), (6, 1, 44), (7, 11, 6), (8, 21, 55), (9, 6, 20),
    (10, 7, 3), (11, 17, 10), (12, 2, 43), (13, 12, 25), (14, 22, 39),
    (15, 23, 41), (16, 8, 45), (17, 18, 15), (18, 3, 21), (19, 13, 8),
    (20, 14, 18), (21, 24, 2), (22, 9, 61), (23, 19, 56), (24, 4, 14),
)

_MASK = (1 << 64) - 1
_RATE = 136  # bytes, for 256-bit output
_BLOCK = struct.Struct("<17Q")   # one block as its 17 rate lanes
_DIGEST = struct.Struct("<4Q")   # 32 bytes = 4 lanes


def _keccak_f(a):
    """Keccak-f[1600] in place on the flat 25-lane state."""
    b = [0] * 25
    for rc in _RC:
        # theta: column parities c, then d[x] = c[x-1] ^ rol(c[x+1], 1)
        c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
        c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
        c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
        c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
        c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
        d = (c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK),
             c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK),
             c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK),
             c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK),
             c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK)) * 5
        # theta applied on the way into rho + pi
        for src, dst, rot in _RHO_PI:
            v = a[src] ^ d[src]
            b[dst] = ((v << rot) | (v >> (64 - rot))) & _MASK
        # chi, one row of five lanes at a time
        for y in (0, 5, 10, 15, 20):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ (~b1 & b2), b1 ^ (~b2 & b3), b2 ^ (~b3 & b4),
                          b3 ^ (~b4 & b0), b4 ^ (~b0 & b1))
        # iota
        a[0] ^= rc


def keccak256(data: bytes) -> bytes:
    state = [0] * 25
    # pad10*1 with 0x01 domain byte (legacy Keccak)
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded += b"\x00" * pad_len
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80

    for off in range(0, len(padded), _RATE):
        lanes = _BLOCK.unpack_from(padded, off)
        state[:17] = [s ^ lane for s, lane in zip(state, lanes)]
        _keccak_f(state)

    return _DIGEST.pack(*state[:4])
