"""Report emission: findings JSONL and the summary CSV tables, and the
daily price table that both profit accounting and the report read.

All outputs are deterministic: stable ordering, fixed key order, no wall
clock anywhere.
"""

from __future__ import annotations

# csv, datetime and fractions are imported where they are used: the
# detectors import this module for its prices, most commands write no CSV
# or month, and some read no price
import json
import os
from math import lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .chain_model import (_DECIMAL_FRACTION, _decimal, _log, _raise_not_utf8, _sidecar_hex,
                          _timestamp, read_jsonl, to_hex)
from .errors import MalformedRecord

if TYPE_CHECKING:  # annotations only
    from fractions import Fraction

FIXED_PLACES = 18


# --- price provider (daily CSV fixture, CoinGecko-style) ---

WEI = 10 ** 18
SECONDS_PER_DAY = 86400


def day_of(timestamp: int) -> int:
    """The day a timestamp falls in: the price table's day key."""
    return timestamp // SECONDS_PER_DAY


class PriceProvider:
    """token/day -> ETH price as exact rational; 'ETHUSD' row carries the
    dollar series."""

    ETHUSD = "ETHUSD"

    def __init__(self, rows: Iterable[tuple] = ()):
        from fractions import Fraction
        self._prices = {}
        for token, day, price in rows:
            self._prices[(token, int(day))] = Fraction(price)

    @classmethod
    def from_csv(cls, path) -> "PriceProvider":
        """Rows of token_address,day,price_eth. Raises MalformedRecord with
        the file and line for a short row, a token that is neither hex nor
        ETHUSD, a day that is not a non-negative integer, a price that is
        not a positive decimal, or a token and day that an earlier row gave
        (tokens compared as bytes)."""
        import csv
        from fractions import Fraction
        rows, seen = [], {}   # (token, day) -> line
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if not row or row[0] == "token_address":
                        continue
                    line = reader.line_num
                    if len(row) < 3:
                        raise MalformedRecord(
                            line, f"expected token,day,price, got {row!r}", path)
                    token_raw, day, price = row[0], row[1], row[2]
                    token = token_raw if token_raw == cls.ETHUSD else _sidecar_hex(token_raw)
                    if token is None:
                        raise MalformedRecord(
                            line, f"token must be hex bytes or {cls.ETHUSD}, got {token_raw!r}",
                            path)
                    if not _decimal(day):
                        raise MalformedRecord(
                            line, f"day must be a non-negative integer, got {day!r}", path)
                    if not _decimal(price, _DECIMAL_FRACTION) or Fraction(price) <= 0:
                        raise MalformedRecord(
                            line, f"price must be a positive decimal, got {price!r}", path)
                    key = token, int(day)
                    if key in seen:
                        name = token if token == cls.ETHUSD else to_hex(token)
                        raise MalformedRecord(
                            line, f"{name} day {key[1]} already on line {seen[key]}", path)
                    seen[key] = line
                    rows.append((*key, price))
            except UnicodeDecodeError as exc:
                _raise_not_utf8(path, exc)
        return cls(rows)

    def lookup(self, token: bytes, day: int) -> Optional[Fraction]:
        return self._prices.get((token, day))

    def eth_usd(self, day: int) -> Optional[Fraction]:
        return self._prices.get((self.ETHUSD, day))


def fmt_fixed(value: Optional[Fraction], places: int = FIXED_PLACES) -> Optional[str]:
    """Render an exact rational as a fixed-point decimal string (round
    toward zero)."""
    if value is None:
        return None
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10 ** places
    units = scaled.numerator // scaled.denominator
    whole, frac = divmod(units, 10 ** places)
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def month_of(timestamp: int) -> str:
    from datetime import datetime, timezone
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m")


def _sorted_and_sum(values):
    """``sorted(values)`` and ``Fraction(sum(values))`` of integers or
    Fractions, computed on exact integers, each value's numerator over the
    lcm of the denominators, which compare and add far faster than
    Fractions. The stable sort keeps equal values in sorted()'s order."""
    from fractions import Fraction
    denominator = lcm(*{v.denominator for v in values})
    keys = [v.numerator * (denominator // v.denominator) for v in values]
    return ([values[i] for i in sorted(range(len(keys)), key=keys.__getitem__)],
            Fraction(sum(keys), denominator))


_STATS = ("total", "max", "p90", "mean", "median", "min")  # summary_stats' keys, in column order


def summary_stats(values: Sequence) -> dict:
    """Exact Total, Max, P90, Mean, Median and Min of integers or
    Fractions; each is None for an empty sample.

    Total, Mean and Median are Fractions, so integer samples never turn
    into floats; Max, P90 and Min are sample values.
    """
    n = len(values)
    if n == 0:
        return dict.fromkeys(_STATS)
    from fractions import Fraction
    xs, total = _sorted_and_sum(values)
    mid = n // 2
    return {
        "total": total,
        "max": xs[-1],
        "p90": xs[-(-9 * n // 10) - 1],  # nearest rank: the value at rank ceil(0.9 n)
        "mean": total / n,
        "median": Fraction(xs[mid]) if n % 2 else Fraction(xs[mid - 1] + xs[mid], 2),
        "min": xs[0],
    }


# --- findings serialization ---

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


_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _keyed_line(row: dict) -> tuple:
    return (row["block"], row["tx_hash"], row.get("type", "")), _encode(row) + "\n"


def write_findings(rows: Iterable[dict], path) -> int:
    """Write findings rows to ``path`` as JSONL in (block, tx_hash, type)
    order, rows with equal keys in the order they came; returns how many.

    Each row is encoded as it arrives and dropped before the next one is
    asked for, so only its line outlives it. The file and its directory
    are made once every row is in: a row that raises leaves nothing.
    """
    # map keeps no row between calls, as a loop variable would while the
    # next row is built; the sort is on the key alone, so a tie keeps input
    # order, not line order
    lines = sorted(map(_keyed_line, rows), key=itemgetter(0))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line for _, line in lines)
    return len(lines)


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


# --- summary CSV tables ---

def _write_csv(path, header, rows):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        _log.info("report: %s %s rows left out: %d without profit_eth (profit_stats.csv), "
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


def write_distance_cdf(cdf, path) -> None:
    _write_csv(path, ["distance", "cumulative_fraction"],
               [[d, fmt_fixed(frac, 6)] for d, frac in cdf])


def write_delay_stats(overall, monthly, path) -> None:
    rows = [[period, s["count"], s["min"], fmt_fixed(s["mean"], 1), fmt_fixed(s["median"], 1),
             s["max"]] for period, s in [("all", overall), *monthly.items()]]
    _write_csv(path, ["period", "count", "min_s", "mean_s", "median_s", "max_s"], rows)


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
