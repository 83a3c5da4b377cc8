"""The ``report`` command: the summary CSV tables of the findings files."""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .chain_model import _DECIMAL_FRACTION, _decimal, _log as log, _timestamp, read_jsonl
from .errors import MalformedRecord
from .reporting import _STATS, _write_csv, day_of, fmt_fixed, month_of, summary_stats


def read_findings(path) -> Iterator[dict]:
    """Yield the file's findings rows as dicts, one line at a time. A row
    whose fields emit_report cannot summarize raises MalformedRecord with
    the file and line when it is reached."""
    return read_jsonl(path, _finding)


def _finding(obj: dict) -> dict:
    """Check the fields emit_report reads: type, chain, timestamp,
    profit_eth and flash_loans[].provider."""
    for key in ("type", "chain"):
        if not isinstance(obj.get(key), str):
            raise MalformedRecord(None, f"{key} must be a string, got {obj.get(key)!r}")
    _timestamp(obj, "timestamp")
    profit = obj.get("profit_eth")
    if not (profit is None or isinstance(profit, str)
            and _decimal(profit.removeprefix("-"), _DECIMAL_FRACTION)):
        raise MalformedRecord(None, f"profit_eth must be a decimal string, got {profit!r}")
    loans = obj.get("flash_loans", [])
    if not (isinstance(loans, list)
            and all(isinstance(fl, dict) and isinstance(fl.get("provider"), str)
                    for fl in loans)):
        raise MalformedRecord(
            None, f"flash_loans must be a list of objects with a provider, got {loans!r}")
    return obj


def emit_report(findings: Iterable[dict], out_dir, eth_usd=None) -> dict:
    """Write the summary CSVs for findings rows; returns paths written.

    ``findings`` is read once, a row at a time, and no row is kept: the
    fold keeps the month counts, the flash-loan share counts and, per
    (chain, type), the (profit, day) pairs that P90 and the median need.
    ``eth_usd`` optionally maps unix day -> Fraction dollar price to add a
    USD column to profit statistics. Logs at INFO, per (chain, type), the
    rows the profit table leaves out.
    """
    from fractions import Fraction
    monthly: dict = {}   # (month, type, chain) -> findings
    shares: dict = {}    # (chain, type, provider) -> flash loans
    groups: dict = {}    # (chain, type) -> [(profit, day)]
    left_out: dict = {}  # (chain, type) -> [rows without profit_eth, without ETHUSD]
    for f in findings:
        chain, typ, ts = f["chain"], f["type"], f["timestamp"]
        key = (month_of(ts), typ, chain)
        monthly[key] = monthly.get(key, 0) + 1
        profit = f.get("profit_eth")
        if profit is not None:
            groups.setdefault((chain, typ), []).append((Fraction(profit), day_of(ts)))
        else:
            left_out.setdefault((chain, typ), [0, 0])[0] += 1
        for fl in f.get("flash_loans", []):
            key = (chain, typ, fl["provider"])
            shares[key] = shares.get(key, 0) + 1
        # the row goes before the next one is read
        del f

    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    # monthly counts per type (UTC month of block timestamp)
    paths["monthly_counts"] = f"{out_dir}/monthly_counts.csv"
    _write_csv(paths["monthly_counts"], ["month", "type", "chain", "count"],
               [[m, t, c, n] for (m, t, c), n in sorted(monthly.items())])

    # profit statistics per chain and type
    rows = []
    for (chain, typ), entries in sorted(groups.items()):
        stats = summary_stats([e[0] for e in entries])
        row = [chain, typ, len(entries), *(fmt_fixed(stats[key]) for key in _STATS)]
        if eth_usd is not None:
            usd = [value * price for value, day in entries if (price := eth_usd(day)) is not None]
            row.append(fmt_fixed(summary_stats(usd)["total"], 2))
            if len(usd) < len(entries):
                left_out.setdefault((chain, typ), [0, 0])[1] = len(entries) - len(usd)
        rows.append(row)
    for key, counts in sorted(left_out.items()):
        log.info("report: %s %s rows left out: %d without profit_eth (profit_stats.csv), "
                 "%d without an ETHUSD price (total_usd)", *key, *counts)
    header = ["chain", "type", "count", *(f"{key}_eth" for key in _STATS)]
    if eth_usd is not None:
        header.append("total_usd")
    paths["profit_stats"] = f"{out_dir}/profit_stats.csv"
    _write_csv(paths["profit_stats"], header, rows)

    # flash loan provider shares per finding type
    paths["flash_loan_shares"] = f"{out_dir}/flash_loan_shares.csv"
    _write_csv(paths["flash_loan_shares"], ["chain", "type", "provider", "count"],
               [[c, t, p, n] for (c, t, p), n in sorted(shares.items())])

    return paths


def report(ctx):
    import glob
    from itertools import chain

    # escaped: the directory's name may hold a glob metacharacter
    files = sorted(glob.glob(os.path.join(glob.escape(ctx.out_dir), "findings_*.jsonl")))
    read = dict.fromkeys(files, 0)

    def rows(path):
        def count(row):
            read[path] += 1
            return row
        # map, not a loop, so that no row outlives its turn in the fold
        return map(count, read_findings(path))

    prices = ctx.prices()
    paths = emit_report(chain.from_iterable(map(rows, files)), ctx.out_dir,
                        prices.eth_usd if prices is not None else None)
    log.info("report: read %d rows from %d files in %s%s", sum(read.values()), len(files),
             ctx.out_dir, "".join(f"; {os.path.basename(path)}: {n}" for path, n in read.items()))
    for name in sorted(paths):
        print(f"{name} -> {paths[name]}")


RUN = {"report": report}
