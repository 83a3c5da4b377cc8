"""Output checks against the ground truth the generators planted.

``check(workload, stdouts)`` returns {command name: [problems]} for the
outputs of one round; a command with problems counts as failed. The
checks compare findings with planted ground truth and test invariants;
they do not pin output bytes, so changes that legitimately alter values
(such as the simulation lookahead fix) keep passing as long as the
invariants hold. ``output_digest`` hashes what a command produced, so
rounds with the same inputs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from collections import Counter
from fractions import Fraction

TRANSFER_TOPIC = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
SANDWICH_SPAN = 100   # default --window

# files each command writes, relative to the workload's out directory; a
# file written by two commands belongs to the last writer
OUTPUTS = {
    "detect_arb": ["findings_arb.jsonl"],
    "detect_liq": ["findings_liq.jsonl"],
    "detect_flashloan": ["findings_flashloan.jsonl"],
    "opportunity_arb": ["opportunities_arb.jsonl"],
    "opportunity_liq": ["opportunities_liq.jsonl", "distance_cdf.csv"],
    "report": ["monthly_counts.csv", "profit_stats.csv", "flash_loan_shares.csv"],
    "detect_sandwich": ["findings_sandwich.jsonl"],
    "crosslayer_infer": ["victims.jsonl"],
    "crosslayer_delay": ["delay_stats.csv"],
    "crosslayer_simulate": ["attack_tables.csv"],
    "bytecode_cluster": ["bytecode_clusters.csv"],
}


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _same(kind, got, want):
    got, want = Counter(got), Counter(want)
    _require(got == want, f"{kind}: {sum((got - want).values())} unexpected, "
                          f"{sum((want - got).values())} missing")


def _fixed(value: Fraction, places: int) -> str:
    """Non-negative rational as fixed point, rounded toward zero."""
    units = value.numerator * 10 ** places // value.denominator
    return f"{units // 10 ** places}.{units % 10 ** places:0{places}d}"


def output_digest(out_dir, command, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in OUTPUTS.get(command, ()):
        path = os.path.join(out_dir, name)
        h.update(name.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --- l1_history ---

def _flash_key(loans):
    return tuple(sorted((fl["provider"], fl["token"], fl["amount"], fl["fee"])
                        for fl in loans))


def check_decode(truth, out, stdout):
    got = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"(\w+): (\d+)", line.strip())
        if m:
            got[m.group(1)] = int(m.group(2))
    _require(got == truth["schemas"], f"decode counts {got} != planted {truth['schemas']}")


def check_detect_arb(truth, out, stdout):
    rows = _jsonl(os.path.join(out, "findings_arb.jsonl"))
    got = [(r["tx_hash"], r["block"], tuple(
        (s["venue"], s["token_in"], s["token_out"], s["amount_in"], s["amount_out"])
        for s in r["cycle"]), _flash_key(r["flash_loans"])) for r in rows]
    want = [(a["tx"], a["block"], tuple(
        (s["venue"], s["token_in"], s["token_out"], s["amount_in"], s["amount_out"])
        for s in a["cycle"]), tuple(sorted(a["flash"]))) for a in truth["arb"]]
    _same("arbitrage findings", got, want)


def check_detect_liq(truth, out, stdout):
    keys = ("protocol", "liquidator", "borrower", "debt_token", "debt_amount",
            "collateral_token", "collateral_amount")
    rows = _jsonl(os.path.join(out, "findings_liq.jsonl"))
    got = [(r["tx_hash"], r["block"], tuple(tuple(a[k] for k in keys) for a in r["actions"]),
            r["unredeemed"], _flash_key(r["flash_loans"])) for r in rows]
    want = [(t["tx"], t["block"], tuple(tuple(a[k] for k in keys) for a in t["actions"]),
             t["unredeemed"], tuple(sorted(t["flash"]))) for t in truth["liq"]]
    _same("liquidation findings", got, want)


def check_detect_flashloan(truth, out, stdout):
    rows = _jsonl(os.path.join(out, "findings_flashloan.jsonl"))
    got = [(r["tx_hash"], r["provider"], r["token"], r["amount"], r["fee"]) for r in rows]
    want = [(f["tx"], f["provider"], f["token"], f["amount"], f["fee"])
            for f in truth["flash"]]
    _same("flash loans", got, want)


def _check_opportunities(name, truth_rows, out):
    rows = _jsonl(os.path.join(out, f"opportunities_{name}.jsonl"))
    keys = ("block", "status", "opportunity_tx", "block_distance", "approximate")
    got = [(r["tx_hash"],) + tuple(r[k] for k in keys) for r in rows]
    want = [(t["tx"],) + tuple(t[k] for k in keys) for t in truth_rows]
    _same(f"{name} opportunities", got, want)


def check_opportunity_arb(truth, out, stdout):
    _check_opportunities("arb", truth["opp_arb"], out)


def check_opportunity_liq(truth, out, stdout):
    _check_opportunities("liq", truth["opp_liq"], out)
    distances = [t["block_distance"] for t in truth["opp_liq"] if t["status"] == "found"]
    rows = _csv(os.path.join(out, "distance_cdf.csv"))
    _require(len(rows) == 101, "distance CDF must have rows 0..100")
    for row in rows:
        d = int(row["distance"])
        want = _fixed(Fraction(sum(1 for x in distances if x <= d), len(distances)), 6)
        _require(row["cumulative_fraction"] == want,
                 f"CDF at {d}: {row['cumulative_fraction']} != {want}")


def check_report(truth, out, stdout):
    monthly = Counter()
    for row in _csv(os.path.join(out, "monthly_counts.csv")):
        monthly[row["type"]] += int(row["count"])
    want = Counter({"arbitrage": len(truth["arb"]), "liquidation": len(truth["liq"]),
                    "flash_loan": len(truth["flash"])})
    _require(monthly == want, f"monthly counts {dict(monthly)} != {dict(want)}")
    profit = {row["type"]: int(row["count"])
              for row in _csv(os.path.join(out, "profit_stats.csv"))}
    _require(profit == {"arbitrage": len(truth["arb"]), "liquidation": len(truth["liq"])},
             f"profit stats counts {profit}")
    shares = Counter()
    for row in _csv(os.path.join(out, "flash_loan_shares.csv")):
        shares[row["type"], row["provider"]] += int(row["count"])
    want = Counter()
    for typ, findings in (("arbitrage", truth["arb"]), ("liquidation", truth["liq"])):
        for f in findings:
            for provider, *_ in f["flash"]:
                want[typ, provider] += 1
    _require(shares == want, f"flash loan shares {dict(shares)} != {dict(want)}")


# --- l2_crosslayer ---

def l2_transfers(fixture_path):
    """Transfers of the L2 fixture, decoded here from the raw input."""
    by_tx: dict = {}
    with open(fixture_path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if obj["kind"] != "log" or obj["topics"][0] != TRANSFER_TOPIC:
                continue
            t = {"token": obj["address"], "sender": "0x" + obj["topics"][1][-40:],
                 "receiver": "0x" + obj["topics"][2][-40:],
                 "amount": int(obj["data"][2:], 16),
                 "pos": (obj["block_number"], obj["tx_index"], obj["log_index"])}
            by_tx.setdefault(obj["tx_hash"], []).append(t)
    return by_tx


def _sandwich_ok(f, by_tx):
    token, attacker = f["token"], f["attacker"]
    front_tx, back_tx = f["front_tx"], f["back_tx"]
    if front_tx == back_tx or not f["victim_txs"]:
        return False
    mids = [(tx, t) for tx in f["victim_txs"] for t in by_tx.get(tx, ())
            if t["token"] == token]
    for fr in by_tx.get(front_tx, ()):
        if fr["token"] != token or fr["receiver"] != attacker:
            continue
        for bk in by_tx.get(back_tx, ()):
            if (bk["token"] != token or bk["sender"] != attacker
                    or bk["receiver"] != fr["sender"] or bk["pos"] <= fr["pos"]
                    or bk["pos"][0] - fr["pos"][0] > SANDWICH_SPAN - 1
                    or bk["amount"] > fr["amount"]
                    or f["window"] != [fr["pos"][0], bk["pos"][0]]):
                continue
            if all(v not in (front_tx, back_tx) and any(
                    fr["pos"] < t["pos"] < bk["pos"] and t["sender"] == fr["sender"]
                    and t["receiver"] != attacker for tx, t in mids if tx == v)
                   for v in f["victim_txs"]):
                return True
    return False


def check_detect_sandwich(truth, out, stdout):
    rows = _jsonl(os.path.join(out, "findings_sandwich.jsonl"))
    if "_l2_transfers" not in truth:
        truth["_l2_transfers"] = l2_transfers(truth["l2_fixture"])
    by_tx = truth["_l2_transfers"]
    bad = [r["tx_hash"] for r in rows if not _sandwich_ok(r, by_tx)]
    _require(not bad, f"{len(bad)} sandwich findings fail the predicate")
    found = {(r["front_tx"], r["back_tx"]): set(r["victim_txs"]) for r in rows}
    missing = [p for p in truth["sandwiches"]
               if p["victim"] not in found.get((p["front"], p["back"]), ())]
    _require(not missing, f"{len(missing)} planted sandwiches not found")


def check_crosslayer_infer(truth, out, stdout):
    rows = _jsonl(os.path.join(out, "victims.jsonl"))
    got = [(r["tx_hash"], r["pool"], r["token_in"], r["token_out"], r["amount_in"])
           for r in rows]
    want = [(v["l2_tx"], v["pool"], v["token_in"], v["token_out"], v["amount_in"])
            for v in truth["victims"]]
    _same("victim candidates", got, want)
    line = (f"links: {truth['links']}, unlinked L1: {truth['unlinked_l1']}, "
            f"unlinked L2: {truth['unlinked_l2']}")
    _require(line in stdout, f"expected '{line}' in the output")


def check_crosslayer_delay(truth, out, stdout):
    rows = _csv(os.path.join(out, "delay_stats.csv"))
    xs = sorted(truth["delays"])
    n = len(xs)
    median = Fraction(xs[n // 2]) if n % 2 else Fraction(xs[n // 2 - 1] + xs[n // 2], 2)
    overall = rows[0]
    want = {"period": "all", "count": str(n), "min_s": str(xs[0]),
            "median_s": _fixed(median, 1),
            "max_s": str(xs[-1])}
    got = {k: overall[k] for k in want}
    _require(got == want, f"delay stats {got} != {want}")
    _require(sum(int(r["count"]) for r in rows[1:]) == n, "monthly delay counts")


def check_crosslayer_simulate(truth, out, stdout):
    rows = _csv(os.path.join(out, "attack_tables.csv"))
    tiers = [str(t) for t in truth["tiers"]]
    cells = {(r["strategy"], r["capital_usd"]): r for r in rows}
    _require(set(cells) == {(s, t) for s in ("S1", "S2", "S3") for t in tiers},
             "attack table must have one row per strategy and tier")

    def value(cell):
        return int(cell["profitable_count"]), Fraction(cell["total_usd"])

    for s in ("S1", "S2", "S3"):
        series = [value(cells[s, t]) for t in tiers]
        for (c0, v0), (c1, v1) in zip(series, series[1:]):
            _require(c1 >= c0 and v1 >= v0, f"{s} decreases with capital tier")
    for t in tiers:
        c1, v1 = value(cells["S1", t])
        c2, v2 = value(cells["S2", t])
        _require(c2 >= c1 and v2 >= v1, f"S2 below S1 at tier {t}")
    _require(f"{len(truth['victims'])} scenarios" in stdout,
             "every victim must become a scenario")


# --- bytecode_corpus ---

def check_bytecode_cluster(truth, out, stdout):
    rows = _csv(os.path.join(out, "bytecode_clusters.csv"))
    got = []
    for r in rows:
        members = r["members"].split(";")
        _require(int(r["size"]) == len(members), "cluster size != member count")
        chains = sorted({m.split(":")[0] for m in members})
        _require(r["chains"] == ";".join(chains), "cluster chains != member chains")
        _require(re.fullmatch(r"0x[0-9a-f]{64}", r["digest"]), "malformed digest")
        got.append(tuple(sorted(members)))
    _require(len({r["digest"] for r in rows}) == len(rows), "duplicate digests")
    _same("bytecode clusters", got, [tuple(c) for c in truth["clusters"]])


CHECKS = {
    "decode": check_decode,
    "detect_arb": check_detect_arb,
    "detect_liq": check_detect_liq,
    "detect_flashloan": check_detect_flashloan,
    "opportunity_arb": check_opportunity_arb,
    "opportunity_liq": check_opportunity_liq,
    "report": check_report,
    "detect_sandwich": check_detect_sandwich,
    "crosslayer_infer": check_crosslayer_infer,
    "crosslayer_delay": check_crosslayer_delay,
    "crosslayer_simulate": check_crosslayer_simulate,
    "bytecode_cluster": check_bytecode_cluster,
}


def check(workload, stdouts: dict) -> dict:
    """Problems per command of ``workload`` for one round's outputs;
    ``stdouts`` maps command name to its standard output."""
    problems = {}
    for cmd in workload.commands:
        try:
            CHECKS[cmd.name](workload.truth, workload.truth["out"], stdouts[cmd.name])
            problems[cmd.name] = []
        except CheckFailed as exc:
            problems[cmd.name] = [str(exc)]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems[cmd.name] = [f"unreadable output: {exc!r}"]
    return problems
