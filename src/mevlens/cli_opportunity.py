"""The ``opportunity`` and ``compete`` commands, which share one walk per
finding back to the transaction that opened its opportunity."""

from __future__ import annotations

import os

from .chain_model import to_hex
from .registry import Category
from .reporting import _write_csv, fmt_fixed

_ORACLE_UPDATES = frozenset((Category.ORACLE_UPDATE,))  # the liquidation walk's


def _opportunities(ctx):
    """(finding, its opportunity) for each finding of ``--type``.
    Each walk bisects the swaps or oracle updates decoded once for all."""
    from . import detectors, opportunity
    from .decoding import _SWAPS, OracleUpdateAction, decode_logs
    arb = ctx.mev_type == "arb"
    ds = ctx.dataset(categories=_SWAPS if arb else detectors._LIQUIDATIONS | _ORACLE_UPDATES)
    pools = ctx.pools()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    results = []
    if arb:
        swaps = detectors.extract_swaps(ds, pools)
        for f in detectors.detect_arbitrages(swaps):
            results.append((f, opportunity.find_arbitrage_opportunity(
                f, swaps, provider, ctx.horizon)))
    else:
        # one decode pass serves the liquidations and the oracle updates
        decoded = decode_logs(ds.logs, detectors._LIQUIDATIONS | _ORACLE_UPDATES)
        updates = [a for _, a in decoded if isinstance(a, OracleUpdateAction)]
        for f in detectors.detect_liquidations(
                [p for p in decoded if not isinstance(p[1], OracleUpdateAction)]):
            results.append((f, opportunity.find_liquidation_opportunity(
                f, updates, provider, ctx.horizon)))
    return ds, results


def opportunities(ctx):
    from . import opportunity
    ds, results = _opportunities(ctx)
    ctx.write(f"opportunities_{ctx.mev_type}.jsonl", ({
        "type": f"opportunity_{ctx.mev_type}",
        "tx_hash": to_hex(f.tx_hash),
        "block": f.block,
        "timestamp": ds.block_timestamp(f.block),
        "status": r.status,
        "opportunity_tx": to_hex(r.opportunity_tx) if r.opportunity_tx else None,
        "block_distance": r.block_distance,
        "approximate": r.approximate,
    } for f, r in results))
    cdf = opportunity.block_distance_cdf([r for _, r in results], ctx.horizon)
    write_distance_cdf(cdf, os.path.join(ctx.out_dir, "distance_cdf.csv"))


def write_distance_cdf(cdf, path) -> None:
    _write_csv(path, ["distance", "cumulative_fraction"],
               [[d, fmt_fixed(frac, 6)] for d, frac in cdf])


def compete(ctx):
    from .opportunity import detect_competition
    ds, results = _opportunities(ctx)
    entries, opportunity_block = [], {}
    for f, r in results:
        tx = ds.tx(f.tx_hash)
        extractor = tx.sender if tx else b""
        entries.append((ctx.mev_type, r.opportunity_tx, extractor, to_hex(f.tx_hash)))
        if r.opportunity_tx is not None:
            # the walk found the opportunity tx this many blocks back
            opportunity_block[r.opportunity_tx] = f.block - r.block_distance

    def row(g):
        block = opportunity_block[g["opportunity_tx"]]
        return {
            "type": "competition",
            "mev_type": g["type"],
            "tx_hash": to_hex(g["opportunity_tx"]),
            "block": block,
            "timestamp": ds.block_timestamp(block),
            "extractors": [to_hex(e) for e in g["extractors"]],
            "findings": g["findings"],
        }

    ctx.write(f"competition_{ctx.mev_type}.jsonl", map(row, detect_competition(entries)))


RUN = {"opportunity": opportunities, "compete": compete}
