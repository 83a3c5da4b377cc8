"""The ``crosslayer`` commands: each joins the ethereum fixture with one
rollup's through the victims that L1 bridge messages announce."""

from __future__ import annotations

import os

from .bridge import _L1_CATEGORIES, _L2_CATEGORIES, delay_stats, infer_victims
from .chain_model import _log as log, to_hex
from .reporting import _write_csv, day_of, fmt_fixed


def _infer(ctx):
    l1 = ctx.dataset("ethereum", _L1_CATEGORIES)
    l2 = ctx.dataset(ctx.chain_name, _L2_CATEGORIES)
    return infer_victims(l1, l2, ctx.pools())


def infer(ctx):
    candidates, links, diagnostics = _infer(ctx)
    ctx.write("victims.jsonl", ({
        "type": "victim_candidate",
        "tx_hash": to_hex(c.link.l2_tx),
        "block": c.link.l2_block,
        "timestamp": c.link.l1_timestamp,
        "l1_tx": to_hex(c.link.l1_tx),
        "link_key": "0x" + c.link.link_key.hex(),
        "delay_s": c.link.delay_s,
        "pool": to_hex(c.pool),
        "token_in": to_hex(c.swap.token_in),
        "token_out": to_hex(c.swap.token_out),
        "amount_in": str(c.swap.amount_in),
    } for c in candidates))
    print(f"links: {len(links)}, unlinked L1: {len(diagnostics['unlinked_l1'])}, "
          f"unlinked L2: {len(diagnostics['unlinked_l2'])}")


def delay(ctx):
    _, links, _ = _infer(ctx)
    overall, monthly, anomalies = delay_stats(links)
    path = os.path.join(ctx.ensure_out(), "delay_stats.csv")
    write_delay_stats(overall, monthly, path)
    print(f"{overall['count']} links, {len(anomalies)} anomalies -> {path}")


def write_delay_stats(overall, monthly, path) -> None:
    rows = [[period, s["count"], s["min"], fmt_fixed(s["mean"], 1), fmt_fixed(s["median"], 1),
             s["max"]] for period, s in [("all", overall), *monthly.items()]]
    _write_csv(path, ["period", "count", "min_s", "mean_s", "median_s", "max_s"], rows)


def simulate(ctx):
    from fractions import Fraction

    from . import crosslayer, opportunity
    candidates, _, _ = _infer(ctx)
    pools = ctx.pools()
    prices = ctx.prices()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    costs, reaction, tiers = crosslayer.load_attack_config(ctx.config_file)

    scenarios = []
    no_state = no_price = 0
    for c in candidates:
        state = provider.pool_state(c.pool, 1 << 62)
        if state is None:
            no_state += 1
            continue
        day = day_of(c.link.l1_timestamp)
        token_price = prices.lookup(c.swap.token_in, day) if prices else Fraction(1)
        eth_usd = prices.eth_usd(day) if prices else Fraction(2000)
        if token_price is None or eth_usd is None:
            no_price += 1
            continue
        scenarios.append({"victim": c, "pool_state": state,
                          "token_in_price_eth": token_price, "eth_usd": eth_usd})
    log.info("victims: %d read, %d skipped for no pool snapshot, %d skipped for no price",
             len(candidates), no_state, no_price)
    table = crosslayer.capital_sweep(scenarios, costs, tiers, reaction)
    path = os.path.join(ctx.ensure_out(), "attack_tables.csv")
    write_attack_table(table, tiers, path)
    print(f"{len(scenarios)} scenarios -> {path}")


def write_attack_table(table, tiers, path) -> None:
    """CSV mirroring the strategy x capital-tier profitability layout."""
    stats = ("total", "max", "mean", "median", "min")  # a sweep cell has no p90
    rows = []
    for strategy in sorted(table):
        for tier in tiers:
            cell = table[strategy][tier]
            rows.append([strategy, "inf" if tier is None else str(tier), cell["count"],
                         *(fmt_fixed(cell[key], 2) for key in stats)])
    _write_csv(path, ["strategy", "capital_usd", "profitable_count",
                      *(f"{key}_usd" for key in stats)], rows)


RUN = {"crosslayer infer": infer, "crosslayer delay": delay, "crosslayer simulate": simulate}
