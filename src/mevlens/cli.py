"""Command-line entry point and pipeline orchestration."""

from __future__ import annotations

import glob
import logging
import os
import sys

import click

# Each command imports the modules it runs, so a process compiles and
# loads only those: the chain model is all that every chain command shares.
from .chain_model import (CHAINS, ETHEREUM, group_logs_by_tx, load_fixture, logs_in_range,
                          to_hex)
from .errors import MevlensError

log = logging.getLogger("mevlens")


def _setup_logging():
    level = os.environ.get("MEVLENS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# every chain command reads one fixture directory, optionally cut to a block range
_CHAIN_OPTIONS = (
    click.option("--chain", "chain_name", default="ethereum",
                 type=click.Choice(sorted(CHAINS)), show_default=True),
    click.option("--from-block", type=int, default=None),
    click.option("--to-block", type=int, default=None),
    click.option("--fixtures", "fixtures_dir", required=True,
                 type=click.Path(exists=True, file_okay=False)),
)
# the rest, each declared by the commands that read it
TYPE = click.option("--type", "mev_type", type=click.Choice(["arb", "liq"]),
                    default="arb", show_default=True)
PRICES = click.option("--prices", "prices_file", type=click.Path(exists=True), default=None)
POOLS = click.option("--pools", "pools_file", type=click.Path(exists=True), default=None)
SNAPSHOTS = click.option("--snapshots", "snapshots_file", type=click.Path(exists=True),
                         required=True)
CONFIG = click.option("--config", "config_file", type=click.Path(exists=True), default=None)
WINDOW = click.option("--window", type=click.IntRange(min=1), default=100, show_default=True)
HORIZON = click.option("--horizon", type=click.IntRange(min=1), default=100,
                       show_default=True)
OUT = click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False))


def _chain_options(*options):
    """The options every chain command takes, then ``options``, in the
    order --help lists them."""
    def decorate(fn):
        for option in reversed(_CHAIN_OPTIONS + options):
            fn = option(fn)
        return fn
    return decorate


class Ctx:
    """Lazy-loading bundle of the run inputs."""

    def __init__(self, **kw):
        self.__dict__.update(kw)
        self._pools = None
        self._prices = None

    def dataset(self, chain_name=None):
        name = chain_name or self.chain_name
        path = os.path.join(self.fixtures_dir, f"{name}.jsonl")
        if not os.path.exists(path):
            raise click.UsageError(f"fixture not found: {path}")
        ds = load_fixture(path)
        if self.from_block is not None or self.to_block is not None:
            lo = self.from_block if self.from_block is not None else 0
            hi = self.to_block if self.to_block is not None else (1 << 62)
            ds.logs = logs_in_range(ds, lo, hi)
        return ds

    def pools(self):
        if self._pools is None and self.pools_file:
            from .amm import load_pool_metadata
            self._pools = load_pool_metadata(self.pools_file)
        return self._pools

    def prices(self):
        if self._prices is None and self.prices_file:
            from .reporting import PriceProvider
            self._prices = PriceProvider.from_csv(self.prices_file)
        return self._prices

    def ensure_out(self):
        os.makedirs(self.out_dir, exist_ok=True)
        return self.out_dir


@click.group()
def cli():
    """MEV detection and cross-layer sandwich simulation over recorded
    event-log fixtures."""
    _setup_logging()


@cli.group()
def detect():
    """Run one MEV detector over a chain fixture."""


def _detect_arb(ctx: Ctx):
    from . import detectors, reporting
    ds = ctx.dataset()
    findings = detectors.detect_arbitrages(detectors.extract_swaps(ds, ctx.pools()))
    prices = ctx.prices()
    tx_logs = group_logs_by_tx(ds.logs)
    out = []
    for f in findings:
        ts = ds.block_timestamp(f.cycle[0].position[0]) or 0
        tx = ds.tx(f.tx_hash)
        if prices is not None and tx is not None:
            f = detectors.arbitrage_profit(f, prices, tx, ts)
        f = detectors.attribute_flash_loans(f, tx_logs.get(f.tx_hash, []))
        out.append(reporting.arbitrage_to_json(
            f, ds.chain.name if ds.chain else ctx.chain_name, ts,
            tx.sender if tx else None))
    return out


def _detect_liq(ctx: Ctx):
    from . import detectors, reporting
    ds = ctx.dataset()
    prices = ctx.prices()
    tx_logs = group_logs_by_tx(ds.logs)
    out = []
    for f in detectors.detect_liquidations(ds.logs):
        ts = ds.block_timestamp(f.actions[0].position[0]) or 0
        tx = ds.tx(f.tx_hash)
        if prices is not None and tx is not None:
            f = detectors.liquidation_profit(f, prices, tx, ts)
        f = detectors.attribute_flash_loans(f, tx_logs.get(f.tx_hash, []))
        out.append(reporting.liquidation_to_json(
            f, ds.chain.name if ds.chain else ctx.chain_name, ts,
            tx.sender if tx else None))
    return out


def _detect_sandwich(ctx: Ctx):
    from . import detectors, reporting
    ds = ctx.dataset()
    transfers = detectors.extract_transfers(ds)
    findings = detectors.detect_sandwiches(transfers, ds.chain or ETHEREUM,
                                           window=ctx.window)
    out = []
    for f in findings:
        ts = ds.block_timestamp(f.window[0]) or 0
        out.append(reporting.sandwich_to_json(
            f, ds.chain.name if ds.chain else ctx.chain_name, ts))
    return out


def _write(ctx: Ctx, name, rows):
    from .reporting import write_findings
    ctx.ensure_out()
    path = os.path.join(ctx.out_dir, name)
    write_findings(rows, path)
    click.echo(f"{len(rows)} findings -> {path}")


@detect.command("arb")
@_chain_options(POOLS, PRICES, OUT)
def detect_arb_cmd(**kw):
    ctx = Ctx(**kw)
    _write(ctx, "findings_arb.jsonl", _detect_arb(ctx))


@detect.command("liq")
@_chain_options(PRICES, OUT)
def detect_liq_cmd(**kw):
    ctx = Ctx(**kw)
    _write(ctx, "findings_liq.jsonl", _detect_liq(ctx))


@detect.command("sandwich")
@_chain_options(WINDOW, OUT)
def detect_sandwich_cmd(**kw):
    ctx = Ctx(**kw)
    _write(ctx, "findings_sandwich.jsonl", _detect_sandwich(ctx))


@detect.command("flashloan")
@_chain_options(OUT)
def detect_flashloan_cmd(**kw):
    from .decoding import decode_logs
    from .registry import Category
    ctx = Ctx(**kw)
    ds = ctx.dataset()
    rows = [{
        "type": "flash_loan", "chain": ds.chain.name if ds.chain else ctx.chain_name,
        "tx_hash": to_hex(loan.tx_hash), "block": lg.block_number,
        "timestamp": ds.block_timestamp(lg.block_number) or 0, "provider": loan.provider,
        "token": to_hex(loan.token),
        "amount": str(loan.amount), "fee": str(loan.fee),
    } for lg, loan in decode_logs(ds.logs, (Category.FLASH_LOAN,))]
    _write(ctx, "findings_flashloan.jsonl", rows)


@cli.command("decode")
@_chain_options()
def decode_cmd(**kw):
    from .registry import DEFAULT_REGISTRY
    ctx = Ctx(**kw)
    ds = ctx.dataset()
    counts = {}
    for lg in ds.logs:
        entry = DEFAULT_REGISTRY.lookup(lg.topics[0])
        if entry is None:
            counts["unknown"] = counts.get("unknown", 0) + 1
            continue
        counts[entry.schema] = counts.get(entry.schema, 0) + 1
    for schema in sorted(counts):
        click.echo(f"{schema}: {counts[schema]}")


def _opportunities(ctx: Ctx, mev_type):
    from . import detectors, opportunity
    ds = ctx.dataset()
    pools = ctx.pools()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    results = []
    if mev_type == "arb":
        swaps_by_tx = detectors.extract_swaps(ds, pools)
        for f in detectors.detect_arbitrages(swaps_by_tx):
            results.append((f, opportunity.find_arbitrage_opportunity(
                f, ds, provider, pools, horizon=ctx.horizon)))
    else:
        for f in detectors.detect_liquidations(ds.logs):
            results.append((f, opportunity.find_liquidation_opportunity(
                f, ds, provider, horizon=ctx.horizon)))
    return ds, results


@cli.command("opportunity")
@_chain_options(TYPE, POOLS, SNAPSHOTS, HORIZON, OUT)
def opportunity_cmd(mev_type, **kw):
    from . import opportunity, reporting
    ctx = Ctx(**kw)
    ds, results = _opportunities(ctx, mev_type)
    rows = []
    for f, r in results:
        block = (f.cycle[0].position[0] if mev_type == "arb"
                 else f.actions[0].position[0])
        rows.append({
            "type": f"opportunity_{mev_type}",
            "tx_hash": to_hex(f.tx_hash),
            "block": block,
            "timestamp": ds.block_timestamp(block) or 0,
            "status": r.status,
            "opportunity_tx": to_hex(r.opportunity_tx) if r.opportunity_tx else None,
            "block_distance": r.block_distance,
            "approximate": r.approximate,
        })
    _write(ctx, f"opportunities_{mev_type}.jsonl", rows)
    cdf = opportunity.block_distance_cdf([r for _, r in results], ctx.horizon)
    ctx.ensure_out()
    reporting.write_distance_cdf(cdf, os.path.join(ctx.out_dir, "distance_cdf.csv"))


@cli.command("compete")
@_chain_options(TYPE, POOLS, SNAPSHOTS, HORIZON, OUT)
def compete_cmd(mev_type, **kw):
    from .opportunity import detect_competition
    ctx = Ctx(**kw)
    ds, results = _opportunities(ctx, mev_type)
    entries = []
    for f, r in results:
        tx = ds.tx(f.tx_hash)
        extractor = tx.sender if tx else b""
        entries.append((mev_type, r.opportunity_tx, extractor,
                        to_hex(f.tx_hash)))
    groups = detect_competition(entries)
    rows = [{
        "type": "competition",
        "mev_type": g["type"],
        "tx_hash": to_hex(g["opportunity_tx"]),
        "block": 0,
        "timestamp": 0,
        "extractors": [to_hex(e) for e in g["extractors"]],
        "findings": g["findings"],
    } for g in groups]
    _write(ctx, f"competition_{mev_type}.jsonl", rows)


@cli.group("crosslayer")
def crosslayer_group():
    """Cross-layer victim inference, delay stats, attack simulation."""


def _infer(ctx: Ctx):
    from .crosslayer import infer_victims
    l1 = ctx.dataset("ethereum")
    l2 = ctx.dataset(ctx.chain_name)
    return infer_victims(l1, l2, ctx.pools())


@crosslayer_group.command("infer")
@_chain_options(POOLS, OUT)
def crosslayer_infer_cmd(**kw):
    ctx = Ctx(**kw)
    candidates, links, diagnostics = _infer(ctx)
    rows = [{
        "type": "victim_candidate",
        "tx_hash": to_hex(c.link.l2_tx),
        "block": 0,
        "timestamp": c.link.l1_timestamp,
        "l1_tx": to_hex(c.link.l1_tx),
        "link_key": "0x" + c.link.link_key.hex(),
        "delay_s": c.link.delay_s,
        "pool": to_hex(c.pool),
        "token_in": to_hex(c.swap.token_in),
        "token_out": to_hex(c.swap.token_out),
        "amount_in": str(c.swap.amount_in),
    } for c in candidates]
    _write(ctx, "victims.jsonl", rows)
    click.echo(f"links: {len(links)}, unlinked L1: {len(diagnostics['unlinked_l1'])}, "
               f"unlinked L2: {len(diagnostics['unlinked_l2'])}")


@crosslayer_group.command("delay")
@_chain_options(POOLS, OUT)
def crosslayer_delay_cmd(**kw):
    from . import crosslayer, reporting
    ctx = Ctx(**kw)
    _, links, _ = _infer(ctx)
    overall, monthly, anomalies = crosslayer.delay_stats(links)
    ctx.ensure_out()
    path = os.path.join(ctx.out_dir, "delay_stats.csv")
    reporting.write_delay_stats(overall, monthly, path)
    click.echo(f"{overall.count} links, {len(anomalies)} anomalies -> {path}")


@crosslayer_group.command("simulate")
@_chain_options(POOLS, PRICES, SNAPSHOTS, CONFIG, OUT)
def crosslayer_simulate_cmd(**kw):
    from fractions import Fraction

    from . import crosslayer, opportunity, reporting
    ctx = Ctx(**kw)
    candidates, _, _ = _infer(ctx)
    pools = ctx.pools()
    prices = ctx.prices()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    if ctx.config_file:
        costs, reaction, tiers = crosslayer.load_attack_config(ctx.config_file)
    else:
        costs = crosslayer.CostModel(Fraction(2, 1000), Fraction(1, 10000),
                                     Fraction(1, 1000))
        reaction = crosslayer.DEFAULT_REACTION_TIME_S
        tiers = crosslayer.DEFAULT_CAPITAL_TIERS_USD

    scenarios = []
    for c in candidates:
        state = provider.pool_state(c.pool, 1 << 62)
        if state is None:
            continue
        day = c.link.l1_timestamp // 86400
        token_price = prices.lookup(c.swap.token_in, day) if prices else Fraction(1)
        eth_usd = prices.eth_usd(day) if prices else Fraction(2000)
        if token_price is None or eth_usd is None:
            continue
        scenarios.append({"victim": c, "pool_state": state,
                          "token_in_price_eth": token_price, "eth_usd": eth_usd})
    table = crosslayer.capital_sweep(scenarios, costs, tiers, reaction)
    ctx.ensure_out()
    path = os.path.join(ctx.out_dir, "attack_tables.csv")
    reporting.write_attack_table(table, tiers, path)
    click.echo(f"{len(scenarios)} scenarios -> {path}")


@cli.group("bytecode")
def bytecode_group():
    """Bytecode normalization and clustering."""


@bytecode_group.command("cluster")
@click.option("--bytecode", "bytecode_file", required=True,
              type=click.Path(exists=True))
@OUT
def bytecode_cluster_cmd(bytecode_file, out_dir):
    from . import bytecode, reporting
    records = bytecode.load_bytecode_fixture(bytecode_file)
    clusters = bytecode.cluster(records)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bytecode_clusters.csv")
    reporting.write_bytecode_clusters(clusters, path)
    click.echo(f"{len(clusters)} clusters -> {path}")


@cli.command("report")
@OUT
@PRICES
def report_cmd(out_dir, prices_file):
    """Summarize all findings_*.jsonl files in the output directory."""
    from . import reporting
    findings = []
    for path in sorted(glob.glob(os.path.join(out_dir, "findings_*.jsonl"))):
        findings.extend(reporting.read_findings(path))
    eth_usd = None
    if prices_file:
        eth_usd = reporting.PriceProvider.from_csv(prices_file).eth_usd
    paths = reporting.emit_report(findings, out_dir, eth_usd)
    for name in sorted(paths):
        click.echo(f"{name} -> {paths[name]}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except MevlensError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except SystemExit as exc:
        code = exc.code or 0
        return 1 if code == 2 else int(code)
    except Exception as exc:
        # anything else is a bug in the package, not bad input
        log.debug("internal error", exc_info=True)
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
