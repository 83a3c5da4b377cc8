"""Command-line entry point and pipeline orchestration."""

from __future__ import annotations

import argparse
import gc
import os
import sys

# Each command imports the modules it runs, so a process compiles and
# loads only those: the chain model is all that every chain command shares.
from .chain_model import (CHAINS, ETHEREUM, Layer, _log as log, load_fixture, logs_in_range,
                          to_hex)
from .errors import MevlensError

LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _setup_logging():
    """Configure logging when MEVLENS_LOG names a level. Unset, it is not
    imported: mevlens logs nothing above INFO, so no record would print."""
    level = os.environ.get("MEVLENS_LOG")
    if level is None:
        return
    if level.upper() not in LEVELS:
        raise MevlensError(f"MEVLENS_LOG: unknown level {level!r}, "
                           f"expected one of {', '.join(LEVELS)}")
    import logging
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")


# the checks on an option's value; each failure is a usage error
def _path(value):
    if not os.path.exists(value):
        # a link whose target is missing or leads back to itself: the name exists
        what = "is a broken or looping symlink" if os.path.lexists(value) else "does not exist"
        raise argparse.ArgumentTypeError(f"path {value!r} {what}")
    return value


def _directory(value):
    if os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a file, not a directory")
    return value


def _file(value):
    if os.path.isdir(_path(value)):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory, not a file")
    return value


def _fixture_directory(value):
    return _directory(_path(value))


def _at_least_1(value):
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{number} is not >= 1")
    return number


# each option: its flag and its add_argument keywords
DEFAULT = "default: %(default)s"
_CHAIN_OPTIONS = (
    ("--chain", dict(dest="chain_name", choices=sorted(CHAINS), default="ethereum", help=DEFAULT)),
    ("--from-block", dict(type=int, metavar="N")),
    ("--to-block", dict(type=int, metavar="N")),
    ("--fixtures", dict(dest="fixtures_dir", required=True, type=_fixture_directory,
                        metavar="DIR")),
)
# a cross-layer command joins the ethereum fixture with one rollup's
_L2_CHAIN_OPTIONS = (
    ("--chain", dict(dest="chain_name", required=True, choices=sorted(
        name for name, chain in CHAINS.items() if chain.layer is Layer.L2))),
    _CHAIN_OPTIONS[-1],
)
TYPE = ("--type", dict(dest="mev_type", choices=["arb", "liq"], default="arb", help=DEFAULT))
PRICES = ("--prices", dict(dest="prices_file", type=_file, metavar="FILE"))
POOLS = ("--pools", dict(dest="pools_file", type=_file, metavar="FILE"))
SNAPSHOTS = ("--snapshots", dict(dest="snapshots_file", type=_file, required=True, metavar="FILE"))
CONFIG = ("--config", dict(dest="config_file", type=_file, metavar="FILE"))
WINDOW = ("--window", dict(type=_at_least_1, default=100, metavar="BLOCKS", help=DEFAULT))
HORIZON = ("--horizon", dict(type=_at_least_1, default=100, metavar="BLOCKS", help=DEFAULT))
OUT = ("--out", dict(dest="out_dir", default="out", type=_directory, metavar="DIR", help=DEFAULT))
BYTECODE = ("--bytecode", dict(dest="bytecode_file", required=True, type=_file, metavar="FILE"))


class Ctx(argparse.Namespace):
    """The options of one command, with its inputs loaded on first use."""

    _pools = _prices = None
    from_block = to_block = None  # a cross-layer command has none: L1 and L2 number blocks apart

    def dataset(self, chain_name=None):
        name = chain_name or self.chain_name
        ds = load_fixture(os.path.join(self.fixtures_dir, f"{name}.jsonl"))
        # the records live until the command ends: keep the collector's
        # full passes from walking them again (``main`` thaws them)
        gc.freeze()
        if self.from_block is not None or self.to_block is not None:
            lo = self.from_block if self.from_block is not None else 0
            hi = self.to_block if self.to_block is not None else (1 << 62)
            ds.logs = logs_in_range(ds, lo, hi)
        return ds

    def chain_of(self, ds):
        """The chain a row names: the fixture's, or --chain for an empty one."""
        return ds.chain.name if ds.chain else self.chain_name

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


def _write(ctx: Ctx, name, rows):
    """Write the rows an iterator yields; --out is made only once the last
    one is in, so a row that raises leaves no output."""
    from .reporting import write_findings
    path = os.path.join(ctx.out_dir, name)
    print(f"{write_findings(rows, path)} findings -> {path}")


def _write_priced(ctx: Ctx, ds, findings, profit, to_json, name):
    """Attach each finding's flash loans, price it at its block's day (when
    --prices is given and its tx is known) and write its row."""
    from .detectors import attribute_flash_loans
    prices = ctx.prices()
    chain = ctx.chain_of(ds)

    def row(f):
        ts = ds.block_timestamp(f.block) or 0
        tx = ds.tx(f.tx_hash)
        if prices is not None and tx is not None:
            f = profit(f, prices, tx, ts)
        return to_json(f, chain, ts, tx.sender if tx else None)

    _write(ctx, name, map(row, attribute_flash_loans(findings, ds.logs)))


def detect_arb_cmd(ctx: Ctx):
    """Cyclic arbitrages, priced, with their flash loans."""
    from . import detectors, reporting
    ds = ctx.dataset()
    findings = detectors.detect_arbitrages(detectors.extract_swaps(ds, ctx.pools()))
    _write_priced(ctx, ds, findings, detectors.arbitrage_profit, reporting.arbitrage_to_json,
                  "findings_arb.jsonl")


def detect_liq_cmd(ctx: Ctx):
    """Liquidations, priced, with their flash loans."""
    from . import detectors, reporting
    ds = ctx.dataset()
    _write_priced(ctx, ds, detectors.detect_liquidations(ds.logs), detectors.liquidation_profit,
                  reporting.liquidation_to_json, "findings_liq.jsonl")


def detect_sandwich_cmd(ctx: Ctx):
    """Sandwiches: in one block on L1, within --window blocks on L2."""
    from . import detectors, reporting
    ds = ctx.dataset()
    transfers = detectors.extract_transfers(ds)
    findings = detectors.detect_sandwiches(transfers, ds.chain or ETHEREUM,
                                           window=ctx.window)
    chain = ctx.chain_of(ds)
    _write(ctx, "findings_sandwich.jsonl", (
        reporting.sandwich_to_json(f, chain, ds.block_timestamp(f.window[0]) or 0)
        for f in findings))


def detect_flashloan_cmd(ctx: Ctx):
    """Flash loans of the supported providers."""
    from .decoding import decode_logs
    from .registry import Category
    ds = ctx.dataset()
    chain = ctx.chain_of(ds)
    _write(ctx, "findings_flashloan.jsonl", ({
        "type": "flash_loan", "chain": chain,
        "tx_hash": to_hex(loan.tx_hash), "block": lg.block_number,
        "timestamp": ds.block_timestamp(lg.block_number) or 0, "provider": loan.provider,
        "token": to_hex(loan.token),
        "amount": str(loan.amount), "fee": str(loan.fee),
    } for lg, loan in decode_logs(ds.logs, (Category.FLASH_LOAN,))))


def decode_cmd(ctx: Ctx):
    """Count the fixture's logs per event schema."""
    from .registry import DEFAULT_REGISTRY
    ds = ctx.dataset()
    counts = {}
    for lg in ds.logs:
        entry = DEFAULT_REGISTRY.lookup(lg.topics[0])
        if entry is None:
            counts["unknown"] = counts.get("unknown", 0) + 1
            continue
        counts[entry.schema] = counts.get(entry.schema, 0) + 1
    for schema in sorted(counts):
        print(f"{schema}: {counts[schema]}")


def _opportunities(ctx: Ctx):
    """(finding, its opportunity) for each finding of ``--type``.
    Each walk bisects the swaps or oracle updates decoded once for all."""
    from . import detectors, opportunity
    ds = ctx.dataset()
    pools = ctx.pools()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    results = []
    if ctx.mev_type == "arb":
        swaps = detectors.extract_swaps(ds, pools)
        for f in detectors.detect_arbitrages(swaps):
            results.append((f, opportunity.find_arbitrage_opportunity(
                f, swaps, provider, ctx.horizon)))
    else:
        from .decoding import decode_logs
        from .registry import Category
        findings = detectors.detect_liquidations(ds.logs)
        updates = [u for _, u in decode_logs(ds.logs, (Category.ORACLE_UPDATE,))]
        for f in findings:
            results.append((f, opportunity.find_liquidation_opportunity(
                f, updates, provider, ctx.horizon)))
    return ds, results


def opportunity_cmd(ctx: Ctx):
    """The transaction that opened each finding's opportunity."""
    from . import opportunity, reporting
    ds, results = _opportunities(ctx)
    _write(ctx, f"opportunities_{ctx.mev_type}.jsonl", ({
        "type": f"opportunity_{ctx.mev_type}",
        "tx_hash": to_hex(f.tx_hash),
        "block": f.block,
        "timestamp": ds.block_timestamp(f.block) or 0,
        "status": r.status,
        "opportunity_tx": to_hex(r.opportunity_tx) if r.opportunity_tx else None,
        "block_distance": r.block_distance,
        "approximate": r.approximate,
    } for f, r in results))
    cdf = opportunity.block_distance_cdf([r for _, r in results], ctx.horizon)
    reporting.write_distance_cdf(cdf, os.path.join(ctx.out_dir, "distance_cdf.csv"))


def compete_cmd(ctx: Ctx):
    """Opportunities that findings of two or more extractors share."""
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
            "timestamp": ds.block_timestamp(block) or 0,
            "extractors": [to_hex(e) for e in g["extractors"]],
            "findings": g["findings"],
        }

    _write(ctx, f"competition_{ctx.mev_type}.jsonl", map(row, detect_competition(entries)))


def _infer(ctx: Ctx):
    from .crosslayer import infer_victims
    l1 = ctx.dataset("ethereum")
    l2 = ctx.dataset(ctx.chain_name)
    return infer_victims(l1, l2, ctx.pools())


def crosslayer_infer_cmd(ctx: Ctx):
    """Victim swaps in L2 executions of L1 bridge messages."""
    candidates, links, diagnostics = _infer(ctx)
    _write(ctx, "victims.jsonl", ({
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


def crosslayer_delay_cmd(ctx: Ctx):
    """Inclusion delays from L1 bridge message to L2 execution."""
    from . import crosslayer, reporting
    _, links, _ = _infer(ctx)
    overall, monthly, anomalies = crosslayer.delay_stats(links)
    path = os.path.join(ctx.ensure_out(), "delay_stats.csv")
    reporting.write_delay_stats(overall, monthly, path)
    print(f"{overall.count} links, {len(anomalies)} anomalies -> {path}")


def crosslayer_simulate_cmd(ctx: Ctx):
    """Sandwich attack tables per strategy and capital tier."""
    from fractions import Fraction

    from . import crosslayer, opportunity, reporting
    candidates, _, _ = _infer(ctx)
    pools = ctx.pools()
    prices = ctx.prices()
    provider = opportunity.StateProvider.from_jsonl(ctx.snapshots_file, pools)
    if ctx.config_file:
        costs, reaction, tiers = crosslayer.load_attack_config(ctx.config_file)
    else:
        costs = crosslayer.DEFAULT_COSTS
        reaction = crosslayer.DEFAULT_REACTION_TIME_S
        tiers = crosslayer.DEFAULT_CAPITAL_TIERS_USD

    scenarios = []
    no_state = no_price = 0
    for c in candidates:
        state = provider.pool_state(c.pool, 1 << 62)
        if state is None:
            no_state += 1
            continue
        day = reporting.day_of(c.link.l1_timestamp)
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
    reporting.write_attack_table(table, tiers, path)
    print(f"{len(scenarios)} scenarios -> {path}")


def bytecode_cluster_cmd(ctx: Ctx):
    """Cluster identical bytecode skeletons across chains."""
    from . import bytecode
    records = bytecode.load_bytecode_fixture(ctx.bytecode_file)
    clusters = bytecode.cluster(records)
    path = os.path.join(ctx.ensure_out(), "bytecode_clusters.csv")
    bytecode.write_clusters(clusters, path)
    print(f"{len(clusters)} clusters -> {path}")


def report_cmd(ctx: Ctx):
    """Summarize all findings_*.jsonl files in the output directory."""
    import glob
    from itertools import chain

    from . import reporting
    # escaped: the directory's name may hold a glob metacharacter
    files = sorted(glob.glob(os.path.join(glob.escape(ctx.out_dir), "findings_*.jsonl")))
    read = dict.fromkeys(files, 0)

    def rows(path):
        def count(row):
            read[path] += 1
            return row
        # map, not a loop, so that no row outlives its turn in the fold
        return map(count, reporting.read_findings(path))

    prices = ctx.prices()
    paths = reporting.emit_report(chain.from_iterable(map(rows, files)), ctx.out_dir,
                                  prices.eth_usd if prices is not None else None)
    log.info("report: read %d rows from %d files in %s%s", sum(read.values()), len(files),
             ctx.out_dir, "".join(f"; {os.path.basename(path)}: {n}" for path, n in read.items()))
    for name in sorted(paths):
        print(f"{name} -> {paths[name]}")


GROUPS = {
    "detect": "Run one MEV detector over a chain fixture.",
    "crosslayer": "Cross-layer victim inference, delay stats, attack simulation.",
    "bytecode": "Bytecode normalization and clustering.",
}
# every command, "group leaf" or "leaf": the options it takes, in the order
# --help lists them, and the function that runs it
COMMANDS = {
    "decode": (_CHAIN_OPTIONS, decode_cmd),
    "detect arb": (_CHAIN_OPTIONS + (POOLS, PRICES, OUT), detect_arb_cmd),
    "detect liq": (_CHAIN_OPTIONS + (PRICES, OUT), detect_liq_cmd),
    "detect sandwich": (_CHAIN_OPTIONS + (WINDOW, OUT), detect_sandwich_cmd),
    "detect flashloan": (_CHAIN_OPTIONS + (OUT,), detect_flashloan_cmd),
    "opportunity": (_CHAIN_OPTIONS + (TYPE, POOLS, SNAPSHOTS, HORIZON, OUT), opportunity_cmd),
    "compete": (_CHAIN_OPTIONS + (TYPE, POOLS, SNAPSHOTS, HORIZON, OUT), compete_cmd),
    "crosslayer infer": (_L2_CHAIN_OPTIONS + (POOLS, OUT), crosslayer_infer_cmd),
    "crosslayer delay": (_L2_CHAIN_OPTIONS + (POOLS, OUT), crosslayer_delay_cmd),
    "crosslayer simulate": (_L2_CHAIN_OPTIONS + (POOLS, PRICES, SNAPSHOTS, CONFIG, OUT),
                            crosslayer_simulate_cmd),
    "bytecode cluster": ((BYTECODE, OUT), bytecode_cluster_cmd),
    "report": ((OUT, PRICES), report_cmd),
}


class _Parser(argparse.ArgumentParser):
    """Adds its ``options`` only when it parses: argparse hands argv to the
    one command it selects, so a process builds only that command's options."""

    def __init__(self, options=(), **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._options = options

    def parse_known_args(self, args=None, namespace=None):
        for flag, keywords in self._options:
            self.add_argument(flag, **keywords)
        self._options = ()
        return super().parse_known_args(args, namespace)


def _parser():
    root = _Parser(prog="mevlens", description=(
        "MEV detection and cross-layer sandwich simulation over recorded "
        "event-log fixtures."))
    commands = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    for name, (options, run) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in commands:
            parser = commands[""].add_parser(group, help=GROUPS[group],
                                             description=GROUPS[group])
            commands[group] = parser.add_subparsers(metavar="COMMAND", required=True)
        parser = commands[group].add_parser(leaf, options=options, help=run.__doc__,
                                            description=run.__doc__)
        parser.set_defaults(run=run)
    return root


def main(argv=None) -> int:
    try:
        ctx = _parser().parse_args(argv, Ctx())
        _setup_logging()
        ctx.run(ctx)
        return 0
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error
        return 1 if exc.code else 0
    except (MevlensError, OSError) as exc:
        # every path the package opens comes from the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else is a bug in the package, not bad input
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
