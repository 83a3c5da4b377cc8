"""Detection heuristics: cyclic arbitrage, liquidations, sandwiches, and
flash-loan attribution, plus profit accounting through a price provider.

Profits are exact rationals in ETH; rendering to 18-digit fixed point is a
reporting concern.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .chain_model import ChainDataset, ChainId, EventLog, Layer, TxRecord
from .decoding import (LiquidationAction, SwapAction, TransferAction, decode_logs, decode_swap,
                       shared_addresses)
from .registry import Category
# the price table and its units live there so that `report` loads no decoder
from .reporting import WEI, PriceProvider, day_of


# --- findings ---

class ArbitrageFinding(NamedTuple):
    tx_hash: bytes
    cycle: tuple                 # ordered SwapActions forming the cycle
    token_balances: Mapping      # token -> signed big integer
    gain_eth: Optional[Fraction] = None
    cost_eth: Optional[Fraction] = None
    profit_eth: Optional[Fraction] = None
    unpriced: bool = False
    flash_loans: tuple = ()

    @property
    def block(self) -> int:
        return self.cycle[0].position[0]


class LiquidationFinding(NamedTuple):
    tx_hash: bytes
    actions: tuple               # LiquidationActions
    profit_eth: Optional[Fraction] = None
    unpriced: bool = False
    unredeemed: bool = False
    flash_loans: tuple = ()

    @property
    def block(self) -> int:
        return self.actions[0].position[0]


class SandwichFinding(NamedTuple):
    front_tx: bytes
    back_tx: bytes
    victim_txs: tuple
    token: bytes
    attacker: bytes
    window: tuple                # (first block, last block)


# --- arbitrage ---

def _links(a: SwapAction, b: SwapAction) -> bool:
    return (a.token_out == b.token_in
            and a.amount_out >= b.amount_in
            and a.venue != b.venue)


def _cycle_balances(cycle: Sequence[SwapAction]) -> dict:
    # extractor's view: amounts entering the DEX are deducted, amounts
    # leaving the DEX are added
    balances: dict = {}
    for swap in cycle:
        balances[swap.token_in] = balances.get(swap.token_in, 0) - swap.amount_in
        balances[swap.token_out] = balances.get(swap.token_out, 0) + swap.amount_out
    return balances


def chain_cycles(swaps: Sequence[SwapAction]):
    """Greedy left-to-right chaining with restart.

    Ties broken by the earliest candidate; a chain that cannot close
    retires only its head swap. Returns cycles as index tuples.
    """
    n = len(swaps)
    # successor candidates per index, precomputed
    by_token_in: dict = {}
    for idx, swap in enumerate(swaps):
        by_token_in.setdefault(swap.token_in, []).append(idx)

    unused = set(range(n))
    order = list(range(n))
    cycles = []
    for head in order:
        while head in unused:
            chain = [head]
            in_chain = {head}
            closed = False
            while True:
                tail = swaps[chain[-1]]
                if len(chain) >= 2 and tail.token_out == swaps[chain[0]].token_in:
                    closed = True
                    break
                nxt = None
                for cand in by_token_in.get(tail.token_out, ()):
                    if cand <= chain[-1] or cand not in unused or cand in in_chain:
                        continue
                    if _links(tail, swaps[cand]):
                        nxt = cand
                        break
                if nxt is None:
                    break
                chain.append(nxt)
                in_chain.add(nxt)
            if closed:
                cycles.append(tuple(chain))
                unused -= in_chain
                # same head slot may seed another cycle only via later heads
            else:
                unused.discard(head)
                break
    return cycles


def detect_arbitrages(swaps: Sequence[SwapAction]):
    """Cyclic-arbitrage findings per transaction, over the swaps grouped by
    tx in first-seen order; one tx may yield several."""
    swaps_by_tx: dict = {}
    for swap in swaps:
        swaps_by_tx.setdefault(swap.tx_hash, []).append(swap)
    findings = []
    for tx_hash, tx_swaps in swaps_by_tx.items():
        for cycle_idx in chain_cycles(tx_swaps):
            cycle = tuple(tx_swaps[i] for i in cycle_idx)
            findings.append(ArbitrageFinding(
                tx_hash=tx_hash,
                cycle=cycle,
                token_balances=_cycle_balances(cycle),
            ))
    return findings


def _price_balances(balances: Mapping, prices: PriceProvider, day: int):
    gains = Fraction(0)
    costs = Fraction(0)
    unpriced = False
    for token, balance in balances.items():
        if balance == 0:
            continue
        price = prices.lookup(token, day)
        if price is None:
            unpriced = True
            continue
        value = Fraction(abs(balance), WEI) * price
        if balance > 0:
            gains += value
        else:
            costs += value
    return gains, costs, unpriced


def arbitrage_profit(finding: ArbitrageFinding, prices: PriceProvider,
                     tx: TxRecord, timestamp: int) -> ArbitrageFinding:
    gains, costs, unpriced = _price_balances(finding.token_balances, prices,
                                             day_of(timestamp))
    fees = Fraction(tx.fee_paid + tx.builder_payment, WEI)
    return finding._replace(gain_eth=gains, cost_eth=costs,
                            profit_eth=gains - costs - fees, unpriced=unpriced)


# --- liquidations ---

def detect_liquidations(logs: Sequence[EventLog]):
    """One structural finding per tx containing at least one liquidation.

    Compound LiquidateBorrow actions are paired with Redeem events of the
    same tx in log order, first-unmatched-first.
    """
    by_tx: dict = {}
    for log, action in decode_logs(logs, (Category.LIQUIDATION,)):
        by_tx.setdefault(log.tx_hash, []).append(action)
    findings = []
    for tx_hash, decoded in by_tx.items():
        actions = [a for a in decoded if isinstance(a, LiquidationAction)]
        if not actions:
            continue
        # the rest are Compound Redeems: (redeemer, collateral token, amount)
        unmatched = [r for r in decoded if not isinstance(r, LiquidationAction)]
        paired = []
        unredeemed = False
        for action in actions:
            if action.protocol == "compound_v2" and action.collateral_amount is None:
                if unmatched:
                    _, token, amount = unmatched.pop(0)
                    action = action.with_collateral(token, amount)
                else:
                    unredeemed = True
            paired.append(action)
        findings.append(LiquidationFinding(tx_hash=tx_hash, actions=tuple(paired),
                                           unredeemed=unredeemed))
    return findings


def liquidation_profit(finding: LiquidationFinding, prices: PriceProvider,
                       tx: TxRecord, timestamp: int) -> LiquidationFinding:
    day = day_of(timestamp)
    total = Fraction(0)
    unpriced = False
    for action in finding.actions:
        debt_price = prices.lookup(action.debt_token, day)
        if debt_price is None:
            unpriced = True
        else:
            total -= Fraction(action.debt_amount, WEI) * debt_price
        if action.collateral_token is not None and action.collateral_amount is not None:
            col_price = prices.lookup(action.collateral_token, day)
            if col_price is None:
                unpriced = True
            else:
                total += Fraction(action.collateral_amount, WEI) * col_price
    total -= Fraction(tx.fee_paid + tx.builder_payment, WEI)
    return finding._replace(profit_eth=total, unpriced=unpriced)


# --- sandwiches ---

def _by_position(transfers, key):
    """Position-sorted transfers grouped by ``key``: {key: (transfers,
    their positions)}, the positions for bisecting."""
    groups: dict = {}
    for t in transfers:
        groups.setdefault(key(t), []).append(t)
    return {k: (ts, [t.position for t in ts]) for k, ts in groups.items()}


def detect_sandwiches(transfers: Sequence[TransferAction], chain: ChainId,
                      window: int = 100):
    """Find (front, victim+, back) transfer patterns.

    L1 searches within single blocks; L2 uses sliding windows of ``window``
    consecutive blocks with stride one, deduplicated by (front, back) tx.
    Both paths reduce to: the pair must fit inside one window.

    Per token, back-runs come from the reverse pair's position-sorted list,
    bisected to just after the front and cut at the window's last block;
    victims come from the front sender's list, bisected to the open
    interval (front, back). The work is linear in the pairs inside the
    window and the victims emitted, not in the token's transfers.
    """
    span = 1 if chain.layer == Layer.L1 else window
    transfers = sorted(transfers, key=lambda t: t.position)

    by_token: dict = {}
    for t in transfers:
        by_token.setdefault(t.token, []).append(t)

    findings = []
    seen = set()
    for token, ts in by_token.items():
        by_pair = _by_position(ts, lambda t: (t.sender, t.receiver))
        by_sender = _by_position(ts, lambda t: t.sender)
        for front in ts:
            pair = by_pair.get((front.receiver, front.sender))
            if pair is None:
                continue
            backs, back_positions = pair
            mids, mid_positions = by_sender[front.sender]
            last_block = front.position[0] + span - 1
            first_mid = bisect_right(mid_positions, front.position)
            for j in range(bisect_right(back_positions, front.position), len(backs)):
                back = backs[j]
                if back.position[0] > last_block:
                    break
                if back.tx_hash == front.tx_hash:
                    continue
                if back.amount > front.amount:
                    continue
                key = (front.tx_hash, back.tx_hash)
                if key in seen:
                    # first wins: a seen pair is dropped whatever its victims
                    continue
                last_mid = bisect_left(mid_positions, back.position, first_mid)
                victims = [mid.tx_hash for mid in mids[first_mid:last_mid]
                           if mid.receiver != front.receiver
                           and mid.tx_hash not in (front.tx_hash, back.tx_hash)]
                if not victims:
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


# --- flash loans ---

def attribute_flash_loans(findings: Sequence, logs: Sequence[EventLog]) -> list:
    """Each finding with the flash loans of its tx, in log order. The logs
    of the findings' txs are decoded once for all findings."""
    txs = {f.tx_hash for f in findings}
    loans: dict = {}
    for log, loan in decode_logs([log for log in logs if log.tx_hash in txs],
                                 (Category.FLASH_LOAN,)):
        loans.setdefault(log.tx_hash, []).append(loan)
    return [f._replace(flash_loans=tuple(loans.get(f.tx_hash, ()))) for f in findings]


# --- dataset-level drivers ---

def extract_swaps(dataset: ChainDataset, pools=None):
    """Decode all swap events, in position order.

    Victim-swap events (StableSwap TokenSwap) count too: they can close a
    cycle like any DEX swap.
    """
    share = shared_addresses()
    swaps = []
    for log in dataset.logs:
        swap = decode_swap(log, pools, share)
        if swap is not None:
            swaps.append(swap)
    return swaps


def extract_transfers(dataset: ChainDataset):
    return [t for _, t in decode_logs(dataset.logs, (Category.TRANSFER,))]
