"""The ``detect`` commands: each runs one detector over a chain fixture."""

from __future__ import annotations

from .chain_model import to_hex


def _write_priced(ctx, ds, findings, profit, to_json, name):
    """Attach each finding's flash loans, price it at its block's day (when
    --prices is given and its tx is known) and write its row."""
    from .detectors import attribute_flash_loans
    prices = ctx.prices()
    chain = ds.chain.name

    def row(f):
        ts = ds.block_timestamp(f.block)
        tx = ds.tx(f.tx_hash)
        if prices is not None and tx is not None:
            f = profit(f, prices, tx, ts)
        return to_json(f, chain, ts, tx.sender if tx else None)

    ctx.write(name, map(row, attribute_flash_loans(findings, ds.logs)))


def arb(ctx):
    from . import detectors, reporting
    from .decoding import _FLASH_LOANS, _SWAPS
    ds = ctx.dataset(categories=_SWAPS | _FLASH_LOANS)
    findings = detectors.detect_arbitrages(detectors.extract_swaps(ds, ctx.pools()))
    _write_priced(ctx, ds, findings, detectors.arbitrage_profit, reporting.arbitrage_to_json,
                  "findings_arb.jsonl")


def liq(ctx):
    from . import detectors, reporting
    from .decoding import _FLASH_LOANS
    ds = ctx.dataset(categories=detectors._LIQUIDATIONS | _FLASH_LOANS)
    _write_priced(ctx, ds, detectors.detect_liquidations(ds.logs), detectors.liquidation_profit,
                  reporting.liquidation_to_json, "findings_liq.jsonl")


def sandwich(ctx):
    from . import detectors, reporting
    ds = ctx.dataset(categories=detectors._TRANSFERS)
    transfers = detectors.extract_transfers(ds)
    findings = detectors.detect_sandwiches(transfers, ds.chain, window=ctx.window)
    chain = ds.chain.name
    ctx.write("findings_sandwich.jsonl", (
        reporting.sandwich_to_json(f, chain, ds.block_timestamp(f.window[0]))
        for f in findings))


def flashloan(ctx):
    from .decoding import _FLASH_LOANS, decode_logs
    ds = ctx.dataset(categories=_FLASH_LOANS)
    chain = ds.chain.name
    ctx.write("findings_flashloan.jsonl", ({
        "type": "flash_loan", "chain": chain,
        "tx_hash": to_hex(loan.tx_hash), "block": lg.block_number,
        "timestamp": ds.block_timestamp(lg.block_number), "provider": loan.provider,
        "token": to_hex(loan.token),
        "amount": str(loan.amount), "fee": str(loan.fee),
    } for lg, loan in decode_logs(ds.logs, _FLASH_LOANS)))


RUN = {"detect arb": arb, "detect liq": liq, "detect sandwich": sandwich,
       "detect flashloan": flashloan}
