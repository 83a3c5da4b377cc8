"""Self-contained Keccak-256 (original padding, not NIST SHA3), many
messages side by side.

Only dependency-free primitive the package needs; used for bridge message
link keys and bytecode skeleton digests. ``hashlib.sha3_256`` pads with
the NIST domain byte 0x06 instead of 0x01 and gives other digests, so it
is no substitute.

The sponge hashes up to 1024 messages (``_WIDTH``) in one state, each
message's lanes packed into shared integers: lane i of the message in
slot k is bits 64k..64k+63 of ``a[i]``, so one Python operation works on
every message at once. XOR and AND act lane-wise as they are; NOT is XOR
with ``ones`` (every bit of every slot set), iota XORs the round
constant copied into each slot, and a rotation by r is
``((v << r) & hi) | ((v >> (64 - r)) & lo)``, where the slot masks ``hi``
(bits r..63) and ``lo`` (bits 0..r-1) drop the bits that crossed into a
neighbouring slot. The masks depend on the number of slots; the last
few widths' sets are kept.
This is the multi-buffer scheme of Gueron and Krasnov, "Simultaneous
Hashing of Multiple Messages" (2012), on Python integers.

The state is flat, lane (x, y) at index x + 5*y, so a 136-byte block
absorbs into lanes 0..16 in order and the digest is lanes 0..3. The
permutation keeps theta in straight-line code, runs rho and pi from a
literal (source, destination, rotation) table and runs chi one row at a
time with the row's lanes in locals.

Messages are ordered by padded block count, longest in the low slots, so
the messages still absorbing at any block step fill a prefix of the
slots; the state is cut to that prefix as the shorter ones finish, and
each digest is read out after the message's last block.
"""

from functools import lru_cache

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
_RATE = 136      # bytes, for 256-bit output
_LANES = 17      # rate lanes per block
# messages per sponge run: past about a thousand slots the cost per
# message barely falls (570-byte messages on CPython 3.11, 2-core Xeon:
# 64, 50 and 46 us each at 256, 1024 and 4096 slots), while the state
# and each width's masks keep growing
_WIDTH = 1024


@lru_cache(maxsize=8)
def _constants(n):
    """For n slots: ``ones``, the round constants and the rho + pi table
    as (source, destination, rotation, hi, lo, 64 - rotation), plus the
    hi and lo masks of theta's rotation by one."""
    each = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n, "little")

    def hi(rot):
        return ((_MASK << rot) & _MASK) * each

    def lo(rot):
        return ((1 << rot) - 1) * each

    rho_pi = tuple((src, dst, rot, hi(rot), lo(rot), 64 - rot)
                   for src, dst, rot in _RHO_PI)
    return _MASK * each, tuple(rc * each for rc in _RC), rho_pi, hi(1), lo(1)


def _keccak_f(a, n):
    """Keccak-f[1600] in place on the flat 25-lane state of n slots."""
    ones, rcs, rho_pi, hi1, lo1 = _constants(n)
    b = [0] * 25
    for rc in rcs:
        # theta: column parities c, then d[x] = c[x-1] ^ rol(c[x+1], 1)
        c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
        c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
        c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
        c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
        c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
        d = (c4 ^ (((c1 << 1) & hi1) | ((c1 >> 63) & lo1)),
             c0 ^ (((c2 << 1) & hi1) | ((c2 >> 63) & lo1)),
             c1 ^ (((c3 << 1) & hi1) | ((c3 >> 63) & lo1)),
             c2 ^ (((c4 << 1) & hi1) | ((c4 >> 63) & lo1)),
             c3 ^ (((c0 << 1) & hi1) | ((c0 >> 63) & lo1))) * 5
        # theta applied on the way into rho + pi
        for src, dst, rot, hi, lo, back in rho_pi:
            v = a[src] ^ d[src]
            b[dst] = ((v << rot) & hi) | ((v >> back) & lo)
        # chi, one row of five lanes at a time
        for y in (0, 5, 10, 15, 20):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ ((b1 ^ ones) & b2), b1 ^ ((b2 ^ ones) & b3),
                          b2 ^ ((b3 ^ ones) & b4), b3 ^ ((b4 ^ ones) & b0),
                          b4 ^ ((b0 ^ ones) & b1))
        # iota
        a[0] ^= rc


def _sponge(messages):
    """The digest of each message, in input order."""
    digests = [None] * len(messages)
    # longest first: a message of f full blocks absorbs f + 1 blocks
    order = sorted(range(len(messages)), key=lambda k: -(len(messages[k]) // _RATE))
    for start in range(0, len(order), _WIDTH):
        slots = order[start:start + _WIDTH]
        msgs = [messages[k] for k in slots]
        fulls = [len(m) // _RATE for m in msgs]
        # pad10*1 with 0x01 domain byte (legacy Keccak), last block only
        lasts = []
        for m, full in zip(msgs, fulls):
            last = bytearray(m[full * _RATE:])
            last += bytes(_RATE - len(last))
            last[len(m) - full * _RATE] ^= 0x01
            last[-1] ^= 0x80
            lasts.append(last)
        a = [0] * 25
        active = len(msgs)
        step = 0
        while active:
            off = step * _RATE
            block = b"".join(m[off:off + _RATE] if full > step else last
                             for m, full, last in zip(msgs[:active], fulls, lasts))
            # every 8 bytes one lane; a strided view picks rate lane i of
            # each active message, in slot order
            lanes = memoryview(block).cast("Q")
            for i in range(_LANES):
                a[i] ^= int.from_bytes(lanes[i::_LANES], "little")
            _keccak_f(a, active)
            done = active
            while done and fulls[done - 1] == step:
                done -= 1
            if done < active:
                words = [lane.to_bytes(8 * active, "little") for lane in a[:4]]
                for s in range(done, active):
                    digests[slots[s]] = b"".join(w[8 * s:8 * s + 8] for w in words)
                if done:
                    ones = _constants(done)[0]
                    a = [lane & ones for lane in a]
            active = done
            step += 1
    return digests


def keccak256_many(messages) -> list:
    """The Keccak-256 digest of each message in a sequence, in order."""
    return _sponge(messages)


def keccak256(data: bytes) -> bytes:
    return _sponge([data])[0]
