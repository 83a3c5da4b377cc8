"""What the command groups share to price and write their results: the
daily price table, exact summary statistics, fixed-point rendering, and
the findings JSONL and CSV writers. Each group builds its own rows.

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
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .chain_model import _DECIMAL_FRACTION, _decimal, _raise_not_utf8, _sidecar_hex, to_hex
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


# --- findings JSONL ---

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


# --- summary CSV tables ---

def _write_csv(path, header, rows):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
