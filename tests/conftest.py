"""Shared fixture builders and independent oracles used across the suite.

Oracles here are deliberately naive re-implementations (linear scans,
exhaustive enumeration) so the production code is checked against
independently derived answers, not against itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from mevlens.amm import swap_out
from mevlens.bytecode import strip_metadata
from mevlens.chain_model import (ARBITRUM, ETHEREUM, OPTIMISM, ZKSYNC, ChainId, EventLog,
                                 Layer, _log)
from mevlens.decoding import (_SWAPS, BridgeMessageAction, FlashLoanAction, LiquidationAction,
                              OracleUpdateAction, SwapAction, TransferAction, decode_logs)
from mevlens.detectors import SandwichFinding
from mevlens.errors import MevlensError, SchemaMismatch
from mevlens.fixtures import FixtureBuilder, addr, enc_balancer_v1_swap, enc_transfer
from mevlens.opportunity import FOUND, UNSIMULATABLE, OpportunityResult
from mevlens.registry import DEFAULT_REGISTRY, Category


def make_swap(token_in, token_out, amount_in, amount_out, venue,
              position=(1, 0, 0), tx_hash=b"\x11" * 32) -> SwapAction:
    return SwapAction(venue=venue, token_in=token_in, token_out=token_out,
                      amount_in=amount_in, amount_out=amount_out,
                      position=position, tx_hash=tx_hash)


def make_transfer(token, sender, receiver, amount, position, tx_hash) -> TransferAction:
    return TransferAction(token=token, sender=sender, receiver=receiver,
                          amount=amount, position=position, tx_hash=tx_hash)


# --- arbitrage oracle: naive greedy chaining, no index structures ---

def _oracle_links(a: SwapAction, b: SwapAction) -> bool:
    return (a.token_out == b.token_in and a.amount_out >= b.amount_in
            and a.venue != b.venue)


def oracle_cycles(swaps):
    """Greedy left-to-right chaining by direct quadratic scan."""
    n = len(swaps)
    unused = set(range(n))
    cycles = []
    for head in range(n):
        if head not in unused:
            continue
        chain = [head]
        closed = False
        while True:
            tail = swaps[chain[-1]]
            if len(chain) >= 2 and tail.token_out == swaps[chain[0]].token_in:
                closed = True
                break
            nxt = None
            for cand in range(chain[-1] + 1, n):
                if cand in unused and cand not in chain and _oracle_links(tail, swaps[cand]):
                    nxt = cand
                    break
            if nxt is None:
                break
            chain.append(nxt)
        if closed:
            cycles.append(tuple(chain))
            unused -= set(chain)
        else:
            unused.discard(head)
    return cycles


def validate_arbitrage(finding) -> bool:
    """Independent re-check of the cycle predicates on an emitted finding:
    at least two swaps, each linking to the next, the last closing on the
    first swap's input token."""
    cycle = finding.cycle
    return (len(cycle) >= 2 and cycle[-1].token_out == cycle[0].token_in
            and all(_oracle_links(a, b) for a, b in zip(cycle, cycle[1:])))


def random_swap_tx(rng: random.Random, max_swaps: int = 8):
    """A synthetic transaction's swap list biased toward chainable amounts."""
    tokens = [addr(0x100 + i) for i in range(4)]
    venues = [addr(0x200 + i) for i in range(3)]
    n = rng.randint(1, max_swaps)
    swaps = []
    for i in range(n):
        t_in, t_out = rng.sample(tokens, 2)
        amount_in = rng.randint(1, 50)
        amount_out = rng.randint(1, 50)
        swaps.append(make_swap(t_in, t_out, amount_in, amount_out,
                               rng.choice(venues), position=(1, 0, i)))
    return swaps


# --- sandwich oracle: literal sliding windows, brute force per window ---

def oracle_sandwiches(transfers, span: int):
    transfers = sorted(transfers, key=lambda t: t.position)
    if not transfers:
        return set()
    blocks = sorted({t.position[0] for t in transfers})
    found = set()
    for start in range(blocks[0], blocks[-1] + 1):
        window = [t for t in transfers if start <= t.position[0] <= start + span - 1]
        for front in window:
            for back in window:
                if back.position <= front.position:
                    continue
                if back.token != front.token:
                    continue
                if (back.sender, back.receiver) != (front.receiver, front.sender):
                    continue
                if back.tx_hash == front.tx_hash or back.amount > front.amount:
                    continue
                victims = [m for m in window
                           if front.position < m.position < back.position
                           and m.token == front.token
                           and m.tx_hash not in (front.tx_hash, back.tx_hash)
                           and m.sender == front.sender
                           and m.receiver != front.receiver]
                if victims:
                    found.add((front.tx_hash, back.tx_hash))
    return found


def literal_sandwiches(transfers, chain: ChainId, window: int = 100):
    """The whole ordered SandwichFinding list by a literal scan: every
    reverse pair of a token's transfers is tried whatever its block, and
    each pair rescans all of the token's transfers for victims. This is
    ``detect_sandwiches`` before it became a windowed sweep."""
    span = 1 if chain.layer == Layer.L1 else window
    transfers = sorted(transfers, key=lambda t: t.position)

    by_token: dict = {}
    for idx, t in enumerate(transfers):
        by_token.setdefault(t.token, []).append(idx)

    findings = []
    seen = set()
    for token, idxs in by_token.items():
        by_pair: dict = {}
        for i in idxs:
            t = transfers[i]
            by_pair.setdefault((t.sender, t.receiver), []).append(i)
        for i in idxs:
            front = transfers[i]
            for j in by_pair.get((front.receiver, front.sender), ()):
                back = transfers[j]
                if back.position <= front.position:
                    continue
                if back.position[0] - front.position[0] > span - 1:
                    continue
                if back.tx_hash == front.tx_hash:
                    continue
                if back.amount > front.amount:
                    continue
                victims = []
                for k in idxs:
                    mid = transfers[k]
                    if not front.position < mid.position < back.position:
                        continue
                    if mid.tx_hash in (front.tx_hash, back.tx_hash):
                        continue
                    if mid.sender == front.sender and mid.receiver != front.receiver:
                        victims.append(mid.tx_hash)
                if not victims:
                    continue
                key = (front.tx_hash, back.tx_hash)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(SandwichFinding(
                    front_tx=front.tx_hash,
                    back_tx=back.tx_hash,
                    victim_txs=tuple(dict.fromkeys(victims)),
                    token=token,
                    attacker=front.receiver,
                    window=(front.position[0], back.position[0]),
                ))
    findings.sort(key=lambda f: (f.window, f.front_tx, f.back_tx))
    return findings


def random_transfer_blocks(rng: random.Random, n_blocks: int = 4,
                           per_block: int = 6):
    """Random transfers over a few blocks with a small address alphabet so
    sandwich-shaped patterns occur by chance."""
    tokens = [addr(0x300 + i) for i in range(2)]
    parties = [addr(0x400 + i) for i in range(3)]
    transfers = []
    tx_n = 0
    for b in range(1, n_blocks + 1):
        for i in range(rng.randint(1, per_block)):
            tx_n += 1
            transfers.append(make_transfer(
                token=rng.choice(tokens),
                sender=rng.choice(parties),
                receiver=rng.choice(parties),
                amount=rng.randint(1, 20),
                position=(b, i, i),
                tx_hash=tx_n.to_bytes(32, "big"),
            ))
    return transfers


# --- planted arbitrage demo fixture (criterion: 25 findings) ---

TOKEN_A = addr(0xA1)
TOKEN_B = addr(0xB1)
TOKEN_C = addr(0xC1)
VENUE_1 = addr(0xD1)
VENUE_2 = addr(0xD2)
VENUE_3 = addr(0xD3)
VENUE_4 = addr(0xD4)


def build_planted_arb_dataset(chain: ChainId = ETHEREUM):
    """21 single-cycle txs + 2 txs with two cycles each = 25 findings,
    plus non-cycle noise. Returns (dataset, expected cycle signatures)."""
    fb = FixtureBuilder(chain)
    expected = []

    def swap_log(venue, t_in, t_out, a_in, a_out):
        topics, data = enc_balancer_v1_swap(addr(0xEE), t_in, t_out, a_in, a_out)
        fb.log(venue, topics, data)

    # 21 single-cycle transactions, alternating 2- and 3-swap cycles
    for i in range(21):
        fb.block()
        tx = fb.tx(fee=10 ** 15)
        if i % 2 == 0:
            swap_log(VENUE_1, TOKEN_A, TOKEN_B, 100 + i, 205)
            swap_log(VENUE_2, TOKEN_B, TOKEN_A, 205, 110 + i)
            expected.append((tx, 2))
        else:
            swap_log(VENUE_1, TOKEN_A, TOKEN_B, 100 + i, 205)
            swap_log(VENUE_2, TOKEN_B, TOKEN_C, 200, 310)
            swap_log(VENUE_3, TOKEN_C, TOKEN_A, 310, 120 + i)
            expected.append((tx, 3))

    # 2 transactions carrying two disjoint cycles each
    for _ in range(2):
        fb.block()
        tx = fb.tx(fee=10 ** 15)
        swap_log(VENUE_1, TOKEN_A, TOKEN_B, 100, 205)
        swap_log(VENUE_2, TOKEN_B, TOKEN_A, 205, 111)
        swap_log(VENUE_3, TOKEN_B, TOKEN_C, 400, 505)
        swap_log(VENUE_4, TOKEN_C, TOKEN_B, 505, 410)
        expected.append((tx, 2))
        expected.append((tx, 2))

    # noise: single swaps and same-venue non-cycles
    for _ in range(5):
        fb.block()
        fb.tx()
        swap_log(VENUE_1, TOKEN_A, TOKEN_B, 50, 49)
    fb.block()
    fb.tx()
    swap_log(VENUE_1, TOKEN_A, TOKEN_B, 100, 205)
    swap_log(VENUE_1, TOKEN_B, TOKEN_A, 205, 110)  # same venue: no cycle

    return fb.dataset(), expected


def settle(monkeypatch):
    """Have the fixture cache write each entry as if a second after its
    clock reads, so that no stamp a test takes is racy and a load after
    the one that wrote the entry is served by the stamp. Only for tests
    that make no same-size edit to a fixture: within one tick of the file
    system's clock the racy rule alone catches one."""
    from mevlens import fixture_parser
    clock = fixture_parser._clock
    monkeypatch.setattr(fixture_parser, "_clock", lambda fh: clock(fh) + 10**9)


@pytest.fixture
def settled(monkeypatch):
    settle(monkeypatch)


@pytest.fixture
def planted_arb_dataset():
    return build_planted_arb_dataset()


# --- misc ---

@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def frac(x) -> Fraction:
    return Fraction(x)


# --- cross-layer join fixture (criterion: 9 candidates, 5 orphans) ---

XL_POOL = addr(0x777)
XL_TA = addr(0x7A1)
XL_TB = addr(0x7B2)
XL_VICTIM = addr(0x7E0)

# delays (seconds) for the 25 matched links, in planting order; ascending
# within each rollup so L2 block timestamps stay monotone
XL_DELAYS = ([0, 0, 60, 60, 120, 120, 600, 600] * 2
             + [0, 0, 45, 60, 60, 120, 120, 600, 600])


def xl_pools_meta():
    from mevlens.amm import PoolInfo
    return {XL_POOL: PoolInfo(XL_POOL, "constant_product", (XL_TA, XL_TB), 3, 1000)}


def build_crosslayer_fixture():
    """L1 dataset plus one L2 dataset per rollup.

    30 bridge interactions: 10 per rollup, of which 3 L1 emissions have no
    L2 execution and 2 L2 executions have no L1 emission; 9 of the 25
    matched links carry a victim swap of XL_TA for XL_TB at XL_POOL (4
    Arbitrum, 4 Optimism, 1 zkSync).
    """
    from mevlens.chain_model import ARBITRUM, ETHEREUM, OPTIMISM, ZKSYNC
    from mevlens.fixtures import (FixtureBuilder, enc_inbox_message,
                                  enc_priority_request, enc_redeem_scheduled,
                                  enc_relayed_message, enc_token_swap,
                                  enc_transaction_deposited, enc_transfer,
                                  optimism_message_hash)

    l1 = FixtureBuilder(ETHEREUM, start_block=1000, start_timestamp=1_700_000_000)
    l2s = {"arbitrum": FixtureBuilder(ARBITRUM, start_block=5000),
           "optimism": FixtureBuilder(OPTIMISM, start_block=6000),
           "zksync": FixtureBuilder(ZKSYNC, start_block=7000)}
    bridges = {"arbitrum": addr(0x1001), "optimism": addr(0x1002),
               "zksync": addr(0x1003)}
    delays = iter(XL_DELAYS)
    swap_txs = []

    def l2_execute(rollup, l2_logs, l1_ts, with_swap):
        fb = l2s[rollup]
        fb.block(timestamp=l1_ts + next(delays))
        tx = fb.tx()
        for address, topics, data in l2_logs:
            fb.log(address, topics, data)
        if with_swap:
            t, d = enc_transfer(XL_VICTIM, XL_POOL, 10 ** 4)
            fb.log(XL_TA, t, d)
            t, d = enc_token_swap(XL_VICTIM, 10 ** 4, 9900, 0, 1)
            fb.log(XL_POOL, t, d)
            t, d = enc_transfer(XL_POOL, XL_VICTIM, 9900)
            fb.log(XL_TB, t, d)
            swap_txs.append(tx)
        return tx

    # Arbitrum: 8 matched (msgs 1..8, first 4 swap-bearing), 1 unlinked L1,
    # 1 unlinked L2
    for i in range(1, 9):
        l1.block()
        l1.tx()
        topics, data = enc_inbox_message(i)
        l1.log(bridges["arbitrum"], topics, data)
        t, d = enc_redeem_scheduled(i)
        l2_execute("arbitrum", [(bridges["arbitrum"], t, d)], l1.timestamp, i <= 4)
    l1.block()
    l1.tx()
    topics, data = enc_inbox_message(100)
    l1.log(bridges["arbitrum"], topics, data)
    fb = l2s["arbitrum"]
    fb.block()
    fb.tx()
    t, d = enc_redeem_scheduled(200)
    fb.log(bridges["arbitrum"], t, d)

    # Optimism: 8 matched (first 4 swap-bearing), 1 unlinked L1, 1 unlinked L2
    for i in range(1, 9):
        payload = b"opt-%d" % i
        l1.block()
        l1.tx()
        topics, data = enc_transaction_deposited(payload)
        l1.log(bridges["optimism"], topics, data)
        t, d = enc_relayed_message(optimism_message_hash(payload))
        l2_execute("optimism", [(bridges["optimism"], t, d)], l1.timestamp, i <= 4)
    l1.block()
    l1.tx()
    topics, data = enc_transaction_deposited(b"opt-unlinked")
    l1.log(bridges["optimism"], topics, data)
    fb = l2s["optimism"]
    fb.block()
    fb.tx()
    t, d = enc_relayed_message(optimism_message_hash(b"opt-orphan"))
    fb.log(bridges["optimism"], t, d)

    # zkSync: 9 matched (1 swap-bearing), 1 unlinked L1
    for i in range(1, 10):
        l1.block()
        l1_tx = l1.tx()
        topics, data = enc_priority_request()
        l1.log(bridges["zksync"], topics, data)
        fb = l2s["zksync"]
        fb.block(timestamp=l1.timestamp + next(delays))
        fb.tx(tx_hash=l1_tx)
        if i == 1:
            t, d = enc_transfer(XL_VICTIM, XL_POOL, 10 ** 4)
            fb.log(XL_TA, t, d)
            t, d = enc_token_swap(XL_VICTIM, 10 ** 4, 9900, 0, 1)
            fb.log(XL_POOL, t, d)
            t, d = enc_transfer(XL_POOL, XL_VICTIM, 9900)
            fb.log(XL_TB, t, d)
            swap_txs.append(l1_tx)
    l1.block()
    l1.tx()  # priority request whose hash has no L2 transaction
    topics, data = enc_priority_request()
    l1.log(bridges["zksync"], topics, data)

    return (l1.dataset(), {name: fb.dataset() for name, fb in l2s.items()},
            swap_txs)


# --- in-memory victim scenarios (criterion: 50-victim capital sweep) ---

def build_victim_scenarios(n=50):
    """Synthetic victims of staged sizes over constant-product pools."""
    from mevlens.amm import cp_pool
    from mevlens.chain_model import ARBITRUM
    from mevlens.bridge import CrossLayerLink, VictimCandidate, VictimSwap

    scenarios = []
    for i in range(n):
        reserve = 10 ** 6 * (1 + i % 7)
        amount = reserve // 20 + 137 * i
        delay = (0, 15, 45, 120, 600)[i % 5]
        link = CrossLayerLink(rollup=ARBITRUM, l1_tx=bytes([i]) * 32,
                              l2_tx=bytes([i, 1]) * 16, link_key=bytes([i]),
                              l1_timestamp=1_700_000_000 + i,
                              l2_timestamp=1_700_000_000 + i + delay, l2_block=i)
        victim = VictimCandidate(
            link=link,
            swap=VictimSwap(token_in=XL_TA, token_out=XL_TB, amount_in=amount),
            pool=XL_POOL,
        )
        pool = cp_pool(reserve, reserve, tokens=(XL_TA, XL_TB))
        scenarios.append({
            "victim": victim,
            "pool_state": pool,
            "token_in_price_eth": Fraction(10 ** 12),   # 1 token unit ~ 1e-6 ETH
            "eth_usd": Fraction(2000),
        })
    return scenarios


# --- decoding oracle: the per-category decoders before the layout table ---
#
# Verbatim copies of the hand-written decoders that ``mevlens.decoding``
# replaced with one layout table and one decoder: an if/elif chain per
# schema, reading each word through ``decode_word``. Only the keccak
# import and the names of the public entry points differ.

WORD = 32


class SlotOutOfRange(MevlensError):
    """The old decoders' error for a word read past the data; raised by
    ``decode_word`` only, which every decoder guards with its slot check."""


def decode_word(data: bytes, slot: int, typ: str):
    """Decode one 32-byte slot: address | uint | int | bytes32."""
    if (slot + 1) * WORD > len(data):
        raise SlotOutOfRange(f"slot {slot} beyond data of {len(data)} bytes")
    word = data[slot * WORD:(slot + 1) * WORD]
    if typ == "address":
        return word[12:]
    if typ == "uint":
        return int.from_bytes(word, "big")
    if typ == "int":
        value = int.from_bytes(word, "big")
        return value - (1 << 256) if value >= (1 << 255) else value
    if typ == "bytes32":
        return word
    raise ValueError(f"unknown slot type {typ!r}")


def _topic_word(log: EventLog, index: int, typ: str):
    if index >= len(log.topics):
        raise SchemaMismatch(f"expected topic {index}, log has {len(log.topics)}")
    return decode_word(log.topics[index], 0, typ)


def _require_slots(log: EventLog, n: int):
    if len(log.data) < n * WORD:
        raise SchemaMismatch(f"need {n} data slots, have {len(log.data) // WORD}")


def _decode_one(log: EventLog, decoder, *args):
    """Run ``decoder`` on ``log`` if the log's topic maps to its schema."""
    entry = DEFAULT_REGISTRY.lookup(log.topics[0])
    if entry is None or _DECODERS.get(entry.schema) is not decoder:
        return None
    return decoder(log, entry, *args)


def _swap(log: EventLog, entry, pools) -> Optional[SwapAction]:
    schema = entry.schema

    def pool_tokens():
        info = (pools or {}).get(log.address)
        return None if info is None else list(info.tokens)

    token_in = token_out = None
    amount_in = amount_out = 0

    if schema == "uniswap_v2_swap":
        if len(log.topics) != 3:
            raise SchemaMismatch("Uniswap V2 Swap expects 3 topics")
        _require_slots(log, 4)
        a0_in, a1_in, a0_out, a1_out = (decode_word(log.data, i, "uint") for i in range(4))
        tokens = pool_tokens()
        if tokens is None or len(tokens) < 2:
            return None
        in_idx = 0 if a0_in >= a1_in else 1
        out_idx = 0 if a0_out >= a1_out else 1
        token_in, amount_in = tokens[in_idx], (a0_in, a1_in)[in_idx]
        token_out, amount_out = tokens[out_idx], (a0_out, a1_out)[out_idx]
    elif schema == "uniswap_v3_swap":
        if len(log.topics) != 3:
            raise SchemaMismatch("Uniswap V3 Swap expects 3 topics")
        _require_slots(log, 2)
        a0 = decode_word(log.data, 0, "int")
        a1 = decode_word(log.data, 1, "int")
        tokens = pool_tokens()
        if tokens is None or len(tokens) < 2:
            return None
        # positive delta flows into the pool, negative out
        if a0 > 0 and a1 < 0:
            token_in, amount_in, token_out, amount_out = tokens[0], a0, tokens[1], -a1
        elif a1 > 0 and a0 < 0:
            token_in, amount_in, token_out, amount_out = tokens[1], a1, tokens[0], -a0
        else:
            return None
    elif schema in ("balancer_v1_swap", "balancer_v2_swap"):
        if len(log.topics) != 4:
            raise SchemaMismatch(f"{entry.event} expects 4 topics")
        _require_slots(log, 2)
        token_in = _topic_word(log, 2, "address")
        token_out = _topic_word(log, 3, "address")
        amount_in = decode_word(log.data, 0, "uint")
        amount_out = decode_word(log.data, 1, "uint")
    elif schema == "curve_exchange":
        if len(log.topics) != 2:
            raise SchemaMismatch("Curve TokenExchange expects 2 topics")
        _require_slots(log, 4)
        sold_id = decode_word(log.data, 0, "int")
        amount_in = decode_word(log.data, 1, "uint")
        bought_id = decode_word(log.data, 2, "int")
        amount_out = decode_word(log.data, 3, "uint")
        tokens = pool_tokens()
        if tokens is None or not (0 <= sold_id < len(tokens) and 0 <= bought_id < len(tokens)):
            return None
        token_in, token_out = tokens[sold_id], tokens[bought_id]
    else:  # stableswap_token_swap
        if len(log.topics) != 2:
            raise SchemaMismatch("TokenSwap expects 2 topics")
        _require_slots(log, 4)
        amount_in = decode_word(log.data, 0, "uint")
        amount_out = decode_word(log.data, 1, "uint")
        sold_id = decode_word(log.data, 2, "uint")
        bought_id = decode_word(log.data, 3, "uint")
        tokens = pool_tokens()
        if tokens is None or not (sold_id < len(tokens) and bought_id < len(tokens)):
            return None
        token_in, token_out = tokens[sold_id], tokens[bought_id]

    if amount_in <= 0 or amount_out <= 0 or token_in == token_out:
        return None
    return SwapAction(venue=log.address, token_in=token_in, token_out=token_out,
                      amount_in=amount_in, amount_out=amount_out,
                      position=log.position, tx_hash=log.tx_hash)


def _transfer(log: EventLog, entry) -> TransferAction:
    if len(log.topics) != 3:
        raise SchemaMismatch("Transfer expects 3 topics")
    _require_slots(log, 1)
    return TransferAction(
        token=log.address,
        sender=_topic_word(log, 1, "address"),
        receiver=_topic_word(log, 2, "address"),
        amount=decode_word(log.data, 0, "uint"),
        position=log.position,
        tx_hash=log.tx_hash,
    )


def _liquidation(log: EventLog, entry) -> Optional[LiquidationAction]:
    schema = entry.schema
    if schema in ("aave_v1_liquidation", "aave_v2v3_liquidation"):
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave LiquidationCall expects 4 topics")
        _require_slots(log, 4)
        # topics: collateral asset, debt asset, borrower
        if schema == "aave_v1_liquidation":
            liquidator = decode_word(log.data, 3, "address")
        else:
            liquidator = decode_word(log.data, 2, "address")
        action = LiquidationAction(
            protocol="aave_v1" if schema == "aave_v1_liquidation" else "aave_v2v3",
            liquidator=liquidator,
            borrower=_topic_word(log, 3, "address"),
            debt_token=_topic_word(log, 2, "address"),
            debt_amount=decode_word(log.data, 0, "uint"),
            collateral_token=_topic_word(log, 1, "address"),
            collateral_amount=decode_word(log.data, 1, "uint"),
            position=log.position,
            tx_hash=log.tx_hash,
        )
    else:  # compound_liquidate
        if len(log.topics) != 1:
            raise SchemaMismatch("LiquidateBorrow expects 1 topic")
        _require_slots(log, 5)
        # collateral stays absent until paired with a Redeem in the same tx
        action = LiquidationAction(
            protocol="compound_v2",
            liquidator=decode_word(log.data, 0, "address"),
            borrower=decode_word(log.data, 1, "address"),
            debt_token=log.address,
            debt_amount=decode_word(log.data, 2, "uint"),
            collateral_token=None,
            collateral_amount=None,
            position=log.position,
            tx_hash=log.tx_hash,
        )
    if action.debt_amount <= 0:
        return None
    return action


def _redeem(log: EventLog, entry) -> tuple:
    if len(log.topics) != 1:
        raise SchemaMismatch("Redeem expects 1 topic")
    _require_slots(log, 2)
    return (decode_word(log.data, 0, "address"), log.address,
            decode_word(log.data, 1, "uint"))


def _flashloan(log: EventLog, entry) -> Optional[FlashLoanAction]:
    schema = entry.schema
    if schema == "aave_v1_flashloan":
        if len(log.topics) != 3:
            raise SchemaMismatch("Aave V1 FlashLoan expects 3 topics")
        _require_slots(log, 2)
        provider, token = "aave_v1", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    elif schema == "aave_v2_flashloan":
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave V2 FlashLoan expects 4 topics")
        _require_slots(log, 2)
        provider, token = "aave_v2", _topic_word(log, 3, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    elif schema == "aave_v3_flashloan":
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave V3 FlashLoan expects 4 topics")
        _require_slots(log, 4)
        provider, token = "aave_v3", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 1, "uint"), decode_word(log.data, 3, "uint")
    else:  # balancer_flashloan
        if len(log.topics) != 3:
            raise SchemaMismatch("Balancer FlashLoan expects 3 topics")
        _require_slots(log, 2)
        provider, token = "balancer", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    if amount <= 0:
        return None
    return FlashLoanAction(provider=provider, token=token, amount=amount, fee=fee,
                           tx_hash=log.tx_hash)


def _oracle_update(log: EventLog, entry) -> OracleUpdateAction:
    if len(log.topics) != 3:
        raise SchemaMismatch("AnswerUpdated expects 3 topics")
    return OracleUpdateAction(
        feed=log.address,
        new_answer=_topic_word(log, 1, "int"),
        position=log.position,
        tx_hash=log.tx_hash,
    )


def _bridge_message(log: EventLog, entry) -> Optional[BridgeMessageAction]:
    schema = entry.schema
    if schema == "arbitrum_inbox_message":
        if len(log.topics) != 2:
            raise SchemaMismatch("InboxMessageDelivered expects 2 topics")
        direction, rollup, link_key = "l1_emit", ARBITRUM, log.topics[1]
    elif schema == "optimism_l1_message":
        # message payload carried verbatim in the data field; only this
        # event hashes, so only a run that meets one loads keccak
        from mevlens.keccak import keccak256
        direction, rollup, link_key = "l1_emit", OPTIMISM, keccak256(log.data)
    elif schema == "zksync_priority_request":
        direction, rollup, link_key = "l1_emit", ZKSYNC, log.tx_hash
    elif schema == "arbitrum_redeem_scheduled":
        if len(log.topics) != 2:
            raise SchemaMismatch("RedeemScheduled expects 2 topics")
        direction, rollup, link_key = "l2_execute", ARBITRUM, log.topics[1]
    else:  # optimism_relayed_message
        if len(log.topics) != 2:
            raise SchemaMismatch("RelayedMessage expects 2 topics")
        direction, rollup, link_key = "l2_execute", OPTIMISM, log.topics[1]
    if not link_key:
        return None
    return BridgeMessageAction(direction=direction, rollup=rollup, link_key=link_key,
                               position=log.position, tx_hash=log.tx_hash)


# registry schema key -> decoder(log, entry), plus pools for swaps
_DECODERS = {schema: decoder for decoder, schemas in (
    (_swap, ("uniswap_v2_swap", "uniswap_v3_swap", "balancer_v1_swap", "balancer_v2_swap",
             "curve_exchange", "stableswap_token_swap")),
    (_transfer, ("erc20_transfer",)),
    (_liquidation, ("aave_v1_liquidation", "aave_v2v3_liquidation", "compound_liquidate")),
    (_redeem, ("compound_redeem",)),
    (_flashloan, ("aave_v1_flashloan", "aave_v2_flashloan", "aave_v3_flashloan",
                  "balancer_flashloan")),
    (_oracle_update, ("chainlink_answer_updated",)),
    (_bridge_message, ("arbitrum_inbox_message", "optimism_l1_message",
                       "zksync_priority_request", "arbitrum_redeem_scheduled",
                       "optimism_relayed_message")),
) for schema in schemas}


def literal_decode_logs(logs: Sequence[EventLog], categories, pools=None) -> list:
    """Decode every log registered under one of ``categories``.

    Returns ``(log, action)`` pairs in input order, dropping logs whose
    decoder yields None. A log its decoder rejects with a MevlensError is
    skipped and logged at DEBUG; any other exception propagates. Swap
    decoders read ``pools``.
    """
    wanted = frozenset(categories)
    decoded = []
    for log in logs:
        entry = DEFAULT_REGISTRY.lookup(log.topics[0])
        if entry is None or wanted.isdisjoint(entry.categories):
            continue
        decoder = _DECODERS.get(entry.schema)
        if decoder is None:
            continue
        try:
            action = decoder(log, entry, pools) if decoder is _swap else decoder(log, entry)
        except MevlensError as exc:
            _log.debug("skipped %s log at %s: %s", entry.event, log.position, exc)
            continue
        if action is not None:
            decoded.append((log, action))
    return decoded


def literal_victims(links, l2_logs: Sequence[EventLog], pools=None) -> list:
    """The victim candidate of each link whose L2 tx holds a victim swap:
    a linear rescan of ``l2_logs`` for that tx, whose first decoded
    VICTIM_SWAP action names the tokens, the amount and the pool."""
    from mevlens.bridge import VictimCandidate, VictimSwap
    victims = []
    for link in links:
        tx_logs = [log for log in l2_logs if log.tx_hash == link.l2_tx]
        decoded = literal_decode_logs(tx_logs, (Category.VICTIM_SWAP,), pools)
        if decoded:
            swap = decoded[0][1]
            victims.append(VictimCandidate(
                link, VictimSwap(swap.token_in, swap.token_out, swap.amount_in), swap.venue))
    return victims


def literal_decode(log: EventLog, entry, pools=None):
    """One log through the old decoder of its registry schema."""
    decoder = _DECODERS[entry.schema]
    return decoder(log, entry, pools) if decoder is _swap else decoder(log, entry)


def literal_decode_swap(log: EventLog, pools=None):
    return _decode_one(log, _swap, pools)


def literal_decode_oracle_update(log: EventLog):
    return _decode_one(log, _oracle_update)


# --- opportunity oracle: each finding's window rescanned log by log ---

def decoded_swaps(dataset, pools=None) -> list:
    """The dataset's swaps in position order, from one ``decode_logs`` pass
    over ``_SWAPS``: what ``detect arb`` chains into cycles and
    ``find_arbitrage_opportunity`` bisects."""
    return [s for _, s in decode_logs(dataset.logs, _SWAPS, pools)]


def oracle_updates(dataset) -> list:
    """The dataset's Chainlink updates in position order: what
    ``find_liquidation_opportunity`` bisects."""
    return [u for _, u in decode_logs(dataset.logs, (Category.ORACLE_UPDATE,))]


def _rescan_window(dataset, finding_block, horizon, opens) -> dict:
    """Block -> tx of the first log in the block for which ``opens`` holds,
    over every log of [finding_block - horizon, finding_block - 1]; a log
    that breaks its layout is skipped."""
    candidates = {}
    for log in dataset.logs:
        if not finding_block - horizon <= log.block_number < finding_block:
            continue
        try:
            if opens(log):
                candidates.setdefault(log.block_number, log.tx_hash)
        except MevlensError:
            continue
    return candidates


def replay_cycle(cycle, states, amount_in) -> Optional[int]:
    """The cycle's final output as composed ``swap_out`` quotes: each hop
    quotes on its venue's state after the venue's previous hop, or on the
    hop's own state in ``states`` at the venue's first hop. None when a
    quote fails."""
    current = {}
    amount = amount_in
    for swap, state in zip(cycle, states):
        try:
            quote = swap_out(current.get(swap.venue, state), swap.token_in, swap.token_out,
                             amount)
        except MevlensError:
            return None
        current[swap.venue] = quote.post_state
        amount = quote.amount_out
    return amount


def literal_opportunity(finding, dataset, provider, pools=None, horizon=100):
    """``find_arbitrage_opportunity`` or ``find_liquidation_opportunity``
    written out: the window rescanned through the literal decoders (any
    swap at a venue of the cycle; any Chainlink update), then every block
    from the closest back probed afresh, an arbitrage cycle replayed as
    ``swap_out`` quotes that carry each venue's post-swap state to its next
    hop. Returns the result and the pool states of every block an arbitrage
    walk simulated."""
    arbitrage = hasattr(finding, "cycle")
    first = finding.cycle[0] if arbitrage else finding.actions[0]
    finding_block = first.position[0]
    if arbitrage:
        venues = {s.venue for s in finding.cycle}

        def opens(log):
            swap = literal_decode_swap(log, pools)
            return swap is not None and swap.venue in venues
    else:
        def opens(log):
            return literal_decode_oracle_update(log) is not None
    candidates = _rescan_window(dataset, finding_block, horizon, opens)
    if not candidates:
        return OpportunityResult(f"not_found_within_{horizon}"), []
    simulated = []
    last_open = None
    for block in range(finding_block - 1, max(finding_block - horizon - 2, -1), -1):
        if arbitrage:
            states = tuple(provider.pool_state(s.venue, block) for s in finding.cycle)
            if any(state is None for state in states):
                return OpportunityResult(UNSIMULATABLE), simulated
            simulated.append(states)
            final = replay_cycle(finding.cycle, states, first.amount_in)
            if final is None:
                return OpportunityResult(UNSIMULATABLE), simulated
            open_ = final > first.amount_in
        elif first.protocol == "compound_v2":
            shortfall = provider.shortfall(first.borrower, block)
            if shortfall is None:
                return OpportunityResult(UNSIMULATABLE), simulated
            open_ = shortfall > 0
        else:
            health = provider.health_factor(first.borrower, block)
            if health is None:
                return OpportunityResult(UNSIMULATABLE), simulated
            open_ = health < 1
        if not open_:
            if last_open is None:
                return OpportunityResult(FOUND, None, 0, approximate=True), simulated
            tx = candidates.get(last_open)
            return (OpportunityResult(FOUND, tx, finding_block - last_open,
                                      approximate=tx is None), simulated)
        if block >= finding_block - horizon:
            last_open = block
    return OpportunityResult(f"not_found_within_{horizon}"), simulated


# --- bytecode oracle: a byte-at-a-time linear disassembly ---

def literal_skeleton(code: bytes) -> bytes:
    """Copy every non-PUSH byte of the metadata-free code; PUSH1..PUSH32
    skip the opcode plus its operand bytes (truncated operands skip to end)."""
    body = strip_metadata(code)
    out = bytearray()
    i = 0
    while i < len(body):
        op = body[i]
        if 0x60 <= op <= 0x7F:
            i += 1 + (op - 0x5F)
        else:
            out.append(op)
            i += 1
    return bytes(out)
