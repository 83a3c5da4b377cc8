"""The ``detect`` commands: each runs one detector over a chain fixture."""

from __future__ import annotations

from .chain_model import to_hex
from .registry import Category
from .reporting import fmt_fixed


def _swap_json(s):
    return {
        "venue": to_hex(s.venue),
        "token_in": to_hex(s.token_in),
        "token_out": to_hex(s.token_out),
        "amount_in": str(s.amount_in),
        "amount_out": str(s.amount_out),
        "position": list(s.position),
    }


def _priced_json(kind, finding, chain, timestamp, extractor, **fields) -> dict:
    """The fields an arbitrage row and a liquidation row share, then ``fields``."""
    return {
        "type": kind,
        "chain": chain,
        "tx_hash": to_hex(finding.tx_hash),
        "block": finding.block,
        "timestamp": timestamp,
        "extractor": to_hex(extractor) if extractor else None,
        "profit_eth": fmt_fixed(finding.profit_eth),
        "unpriced": finding.unpriced,
        "flash_loans": [{"provider": fl.provider, "token": to_hex(fl.token),
                         "amount": str(fl.amount), "fee": str(fl.fee)}
                        for fl in finding.flash_loans],
        **fields,
    }


def arbitrage_to_json(finding, chain: str, timestamp: int, extractor=None) -> dict:
    return _priced_json(
        "arbitrage", finding, chain, timestamp, extractor,
        cycle=[_swap_json(s) for s in finding.cycle],
        balances={to_hex(t): str(b) for t, b in sorted(finding.token_balances.items())},
        gain_eth=fmt_fixed(finding.gain_eth), cost_eth=fmt_fixed(finding.cost_eth))


def liquidation_to_json(finding, chain: str, timestamp: int, extractor=None) -> dict:
    return _priced_json("liquidation", finding, chain, timestamp, extractor, actions=[{
        "protocol": a.protocol,
        "liquidator": to_hex(a.liquidator),
        "borrower": to_hex(a.borrower),
        "debt_token": to_hex(a.debt_token),
        "debt_amount": str(a.debt_amount),
        "collateral_token": to_hex(a.collateral_token) if a.collateral_token else None,
        "collateral_amount": (str(a.collateral_amount)
                              if a.collateral_amount is not None else None),
    } for a in finding.actions], unredeemed=finding.unredeemed)


def sandwich_to_json(finding, chain: str, timestamp: int) -> dict:
    return {
        "type": "sandwich",
        "chain": chain,
        "tx_hash": to_hex(finding.front_tx),
        "block": finding.window[0],
        "timestamp": timestamp,
        "front_tx": to_hex(finding.front_tx),
        "back_tx": to_hex(finding.back_tx),
        "victim_txs": [to_hex(v) for v in finding.victim_txs],
        "token": to_hex(finding.token),
        "attacker": to_hex(finding.attacker),
        "window": list(finding.window),
    }


def _detect_priced(ctx, categories, detect, profit, to_json, name, pools=None, actions=False):
    """One decode pass over ``categories`` and the flash loans: ``detect``
    takes the pass's other pairs, or with ``actions`` their actions. Each
    finding gets its tx's loans, a price at its block's day (when --prices
    is given and its tx is known) and its row."""
    from .decoding import load_decoded
    from .detectors import attribute_flash_loans, split_flash_loans
    ds, decoded = load_decoded(ctx, categories | {Category.FLASH_LOAN}, pools)
    loans, decoded = split_flash_loans(decoded, actions)
    findings = detect(decoded)
    del decoded  # the rows need only the findings and the loans
    prices = ctx.prices()
    chain = ds.chain.name

    def row(f):
        ts = ds.block_timestamp(f.block)
        tx = ds.tx(f.tx_hash)
        if prices is not None and tx is not None:
            f = profit(f, prices, tx, ts)
        return to_json(f, chain, ts, tx.sender if tx else None)

    ctx.write(name, map(row, attribute_flash_loans(findings, loans)))


def arb(ctx):
    from . import detectors
    from .decoding import _SWAPS
    _detect_priced(ctx, _SWAPS, detectors.detect_arbitrages, detectors.arbitrage_profit,
                   arbitrage_to_json, "findings_arb.jsonl", ctx.pools(), actions=True)


def liq(ctx):
    from . import detectors
    _detect_priced(ctx, {Category.LIQUIDATION}, detectors.detect_liquidations,
                   detectors.liquidation_profit, liquidation_to_json, "findings_liq.jsonl")


def sandwich(ctx):
    from . import detectors
    from .decoding import load_decoded
    ds, decoded = load_decoded(ctx, {Category.TRANSFER})
    transfers = [t for _, t in decoded]
    del decoded  # the scan's indexes peak above the transfers: hold no pairs beside them
    findings = detectors.detect_sandwiches(transfers, ds.chain, window=ctx.window)
    chain = ds.chain.name
    ctx.write("findings_sandwich.jsonl", (
        sandwich_to_json(f, chain, ds.block_timestamp(f.window[0]))
        for f in findings))


def flashloan(ctx):
    from .decoding import load_decoded
    ds, decoded = load_decoded(ctx, {Category.FLASH_LOAN})
    chain = ds.chain.name
    ctx.write("findings_flashloan.jsonl", ({
        "type": "flash_loan", "chain": chain,
        "tx_hash": to_hex(loan.tx_hash), "block": lg.block_number,
        "timestamp": ds.block_timestamp(lg.block_number), "provider": loan.provider,
        "token": to_hex(loan.token),
        "amount": str(loan.amount), "fee": str(loan.fee),
    } for lg, loan in decoded))


RUN = {"detect arb": arb, "detect liq": liq, "detect sandwich": sandwich,
       "detect flashloan": flashloan}
