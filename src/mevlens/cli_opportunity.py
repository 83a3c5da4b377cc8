"""The ``opportunity`` and ``compete`` commands, which share one walk per
finding back to the transaction that opened its opportunity."""

from __future__ import annotations

import os

from .chain_model import _log as log, to_hex
from .registry import Category
from .reporting import _write_csv, fmt_fixed


def _opportunities(ctx):
    """(finding, its opportunity) for each finding of ``--type``.
    Each walk bisects the swaps or oracle updates decoded once for all."""
    from . import detectors, opportunity
    from .decoding import _SWAPS, OracleUpdateAction, load_decoded
    arb = ctx.mev_type == "arb"
    pools = ctx.pools()
    ds, decoded = load_decoded(
        ctx, _SWAPS if arb else {Category.LIQUIDATION, Category.ORACLE_UPDATE}, pools)
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    results = []
    if arb:
        swaps = [swap for _, swap in decoded]
        del decoded  # the walks bisect the swaps alone
        for f in detectors.detect_arbitrages(swaps):
            results.append((f, opportunity.find_arbitrage_opportunity(
                f, swaps, provider, ctx.horizon)))
    else:
        updates = [a for _, a in decoded if isinstance(a, OracleUpdateAction)]
        findings = detectors.detect_liquidations(
            [p for p in decoded if not isinstance(p[1], OracleUpdateAction)])
        del decoded  # the walks bisect the updates alone
        for f in findings:
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
    entries, opportunity_block, unknown = [], {}, 0
    for f, r in results:
        tx = ds.tx(f.tx_hash)
        if tx is None:  # no tx record, so no extractor to credit
            unknown += 1
            continue
        entries.append((ctx.mev_type, r.opportunity_tx, tx.sender, to_hex(f.tx_hash)))
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

    if unknown:
        log.info("compete: %d findings left out: no tx record names their extractor", unknown)
    ctx.write(f"competition_{ctx.mev_type}.jsonl", map(row, detect_competition(entries)))


RUN = {"opportunity": opportunities, "compete": compete}
