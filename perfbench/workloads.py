"""Seeded input generators for the three benchmark workloads.

Each generator writes one workload's input files into a directory and
returns a ``Workload``: the ``mevlens`` commands to run, in order, the
ground truth the generator planted (read by ``checks.py``) and the
measured properties of the inputs.

Counts that set the cost of a run (logs per schema, trades per user and
token, victims per pool kind, deployments per contract body) are fixed
constants, and sizes (amounts, instructions per body) come from fixed
ranges; the seed draws addresses, hashes, amounts, block placement and
the order of events. Two seeds therefore give inputs of the same shape,
and the same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from mevlens.amm import CONSTANT_PRODUCT, STABLESWAP, PoolInfo, dump_pool_metadata
from mevlens.chain_model import ARBITRUM, ETHEREUM
from mevlens.fixtures import (FixtureBuilder, enc_aave_v2v3_liquidation,
                              enc_answer_updated, enc_balancer_v1_swap,
                              enc_compound_liquidate, enc_compound_redeem,
                              enc_flashloan, enc_inbox_message, enc_redeem_scheduled,
                              enc_token_swap, enc_transfer, enc_uniswap_v2_swap,
                              enc_uniswap_v3_swap)

E18 = 10 ** 18
HORIZON = 100        # default `--horizon` of the opportunity search
WINDOW = 100         # default `--window` of the L2 sandwich scan
NOT_FOUND = "not_found_within_100"

@dataclass
class Command:
    name: str            # metric-friendly name, e.g. "detect_arb"
    argv: list           # arguments to `mevlens`
    reads: list          # input keys whose records the command parses


@dataclass
class Workload:
    name: str
    commands: list
    truth: dict
    records: dict = field(default_factory=dict)      # input key -> records
    properties: dict = field(default_factory=dict)   # measured input shape

    def command_records(self, cmd: Command) -> int:
        return sum(self.records[key] for key in cmd.reads)

    @property
    def total_records(self) -> int:
        return sum(self.command_records(c) for c in self.commands)


class Gen:
    """Seeded source of addresses, hashes and amounts."""

    def __init__(self, seed: int, tag: str):
        self.rng = random.Random(f"{tag}:{seed}")
        self._prefix = f"{tag}:{seed}:"
        self._n = 0

    def h32(self) -> bytes:
        self._n += 1
        return hashlib.sha256(f"{self._prefix}{self._n}".encode()).digest()

    def addr(self) -> bytes:
        return self.h32()[:20]

    def units(self, lo: int, hi: int) -> int:
        """A token amount between lo and hi whole tokens, 18 decimals."""
        return self.rng.randrange(lo * E18, hi * E18)


def hx(b: bytes) -> str:
    return "0x" + b.hex()


class ChainPlan:
    """Transactions planned per block, emitted in block order through
    ``FixtureBuilder``. Tracks logs per schema as they are planned."""

    def __init__(self, gen: Gen, chain, start_timestamp: int, block_time: int):
        self.gen = gen
        self.chain = chain
        self.start_timestamp = start_timestamp
        self.block_time = block_time
        self.blocks: dict = {}
        self.schema_counts: dict = {}

    def timestamp(self, block: int) -> int:
        return self.start_timestamp + block * self.block_time

    def add_tx(self, block: int, logs, sender=None, fee: int = 0) -> bytes:
        """``logs`` is a list of (address, (topics, data), schema)."""
        h = self.gen.h32()
        self.blocks.setdefault(block, []).append(
            {"hash": h, "sender": sender or self.gen.addr(), "fee": fee, "logs": logs})
        for _, _, schema in logs:
            self.schema_counts[schema] = self.schema_counts.get(schema, 0) + 1
        return h

    def shuffle(self):
        for txs in self.blocks.values():
            self.gen.rng.shuffle(txs)

    def txs_in(self, block: int) -> list:
        return self.blocks.get(block, [])

    def write(self, path) -> int:
        fb = FixtureBuilder(self.chain, start_block=0,
                            start_timestamp=self.start_timestamp,
                            block_time=self.block_time)
        for number in sorted(self.blocks):
            fb.block(number=number, timestamp=self.timestamp(number))
            for tx in self.blocks[number]:
                fb.tx(sender=tx["sender"], fee=tx["fee"], tx_hash=tx["hash"])
                for address, (topics, data), _ in tx["logs"]:
                    fb.log(address, topics, data)
        fb.write(path)
        return count_lines(path)


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def write_prices(path, tokens_prices, days, eth_usd=2000) -> int:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_address", "day", "price_eth"])
        rows = 0
        for day in days:
            for token, price in tokens_prices:
                writer.writerow([hx(token), day, price])
                rows += 1
            writer.writerow(["ETHUSD", day, eth_usd])
            rows += 1
    return rows


def write_jsonl(path, rows) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return len(rows)


def flash_logs(gen: Gen, token: bytes, n: int):
    out = []
    for _ in range(n):
        provider = gen.rng.choice(("aave_v1", "aave_v2", "aave_v3", "balancer"))
        amount = gen.units(100, 5000)
        fee = amount * 9 // 10000
        out.append({"provider": provider, "token": hx(token), "amount": str(amount),
                    "fee": str(fee),
                    "log": (gen.addr(), enc_flashloan(provider, token, amount, fee),
                            f"{provider}_flashloan")})
    return out


# --------------------------------------------------------------------------
# l1_history
# --------------------------------------------------------------------------

L1_BLOCKS = 900
L1_BLOCK_TIME = 600                  # spans a month boundary
L1_START_TS = 1_706_572_800          # 2024-01-30 00:00 UTC
L1_TOKENS = 12
L1_TRANSFER_TXS_PER_BLOCK = 3        # ERC-20 noise txs per block
L1_UNKNOWN_LOGS = 40
L1_STANDALONE_FLASH = 12
L1_NOISE_SWAPS = 80
# planted arbitrage transactions: (hops of each cycle, flash loans)
L1_ARB_TXS = ([((2,), 0)] * 10 + [((3,), 0)] * 10 + [((4,), 0)] * 6
              + [((2,), 1)] * 4 + [((3,), 2)] * 2
              + [((2, 3), 0)] * 3 + [((2, 2), 1)] * 2 + [((3, 4), 0)])
# planted liquidations: (kind, flash loans); compound kinds name the number
# of LiquidateBorrow and Redeem logs in the transaction
L1_LIQ_TXS = ([("aave", 0)] * 12 + [("aave", 1)] * 3
              + [(("compound", 1, 1), 0)] * 6 + [(("compound", 2, 2), 0)] * 3
              + [(("compound", 1, 0), 0)] * 2 + [(("compound", 2, 1), 1)] * 2)
# planted opportunity distances: spread over 0..100 plus a few beyond the
# horizon (-1 marks "closes farther back than the search reaches")
L1_EXTRA_DISTANCES = (0, 0, 100, 99, -1, -1, -1)
CP_FEE = (3, 1000)


def _distances(rng, n):
    fixed = list(L1_EXTRA_DISTANCES)
    rest = [1 + (i * 97) % 98 for i in range(n - len(fixed))]
    ds = fixed + rest
    rng.shuffle(ds)
    return ds[:n]


def _swap_log(gen, pool: PoolInfo, t_in, t_out, a_in, a_out, use_uniswap):
    if use_uniswap:
        i = pool.tokens.index(t_in)
        a0_in, a1_in = (a_in, 0) if i == 0 else (0, a_in)
        a0_out, a1_out = (0, a_out) if i == 0 else (a_out, 0)
        enc = enc_uniswap_v2_swap(gen.addr(), gen.addr(), a0_in, a1_in, a0_out, a1_out)
        return (pool.address, enc, "uniswap_v2_swap")
    enc = enc_balancer_v1_swap(gen.addr(), t_in, t_out, a_in, a_out)
    return (pool.address, enc, "balancer_v1_swap")


def gen_l1_history(seed: int, d: str) -> Workload:
    gen = Gen(seed, "l1_history")
    rng = gen.rng
    plan = ChainPlan(gen, ETHEREUM, L1_START_TS, L1_BLOCK_TIME)
    tokens = [gen.addr() for _ in range(L1_TOKENS)]
    pools: dict = {}
    snapshots = []
    first = 2 * HORIZON + 10
    n_arb = sum(len(c) for c, _ in L1_ARB_TXS)
    n_liq = len(L1_LIQ_TXS)
    arb_dist = _distances(rng, n_arb)
    liq_dist = _distances(rng, n_liq)

    def new_pool(t0, t1) -> PoolInfo:
        a = gen.addr()
        info = PoolInfo(a, CONSTANT_PRODUCT, tuple(sorted((t0, t1))), *CP_FEE)
        pools[a] = info
        return info

    def walk_blocks(finding_block, dist):
        """Blocks of the open snapshot, the closed snapshot and the planted
        opportunity tx for a planted distance (None when not planted)."""
        if dist == 0:
            return None, finding_block - 1 - rng.randrange(3), None
        if dist < 0:
            back = HORIZON + 2 + rng.randrange(40)
            return finding_block - back, finding_block - back - 1, None
        return finding_block - dist, finding_block - dist - 1 - rng.randrange(3), \
            finding_block - dist

    # --- arbitrage ---
    truth_arb = []
    truth_opp_arb = []
    truth_flash = []
    di = 0
    for cycles_hops, n_flash in L1_ARB_TXS:
        f_block = rng.randrange(first, L1_BLOCKS)
        free = list(tokens)
        rng.shuffle(free)
        logs = []
        loans = flash_logs(gen, free[0], n_flash)
        logs.extend(l["log"] for l in loans)
        findings = []
        for hops in cycles_hops:
            cyc_tokens = [free.pop() for _ in range(hops)]
            hop_pools = [new_pool(cyc_tokens[i], cyc_tokens[(i + 1) % hops])
                         for i in range(hops)]
            amount = gen.units(5, 50)
            swaps = []
            for i, pool in enumerate(hop_pools):
                t_in, t_out = cyc_tokens[i], cyc_tokens[(i + 1) % hops]
                a_out = amount * rng.randrange(1000, 1030) // 1000
                logs.append(_swap_log(gen, pool, t_in, t_out, amount, a_out,
                                      rng.random() < 0.5))
                swaps.append({"venue": hx(pool.address), "token_in": hx(t_in),
                              "token_out": hx(t_out), "amount_in": str(amount),
                              "amount_out": str(a_out)})
                amount = a_out
            findings.append((swaps, hop_pools, cyc_tokens))
        fee = rng.randrange(1, 50) * 10 ** 15
        tx = plan.add_tx(f_block, logs, fee=fee)
        truth_flash.extend({"tx": hx(tx), "provider": l["provider"], "token": l["token"],
                            "amount": l["amount"], "fee": l["fee"]} for l in loans)
        for swaps, hop_pools, cyc_tokens in findings:
            truth_arb.append({"tx": hx(tx), "block": f_block, "cycle": swaps,
                              "flash": [(l["provider"], l["token"], l["amount"], l["fee"])
                                        for l in loans]})
            dist = arb_dist[di]
            di += 1
            open_b, closed_b, opp_b = walk_blocks(f_block, dist)
            hops = len(cyc_tokens)
            for i, pool in enumerate(hop_pools):
                t_in, t_out = cyc_tokens[i], cyc_tokens[(i + 1) % hops]
                base = gen.units(500_000, 2_000_000)

                def reserves(ratio_permille):
                    r = {t_in: base, t_out: base * ratio_permille // 1000}
                    return [str(r[t]) for t in pool.tokens]

                snapshots.append({"kind": "pool", "key": hx(pool.address),
                                  "block": closed_b, "value": {"reserves": reserves(990)}})
                if open_b is not None:
                    for b in sorted({open_b} | {rng.randrange(open_b, f_block)
                                                for _ in range(2)}):
                        snapshots.append({"kind": "pool", "key": hx(pool.address),
                                          "block": b,
                                          "value": {"reserves": reserves(
                                              rng.randrange(1015, 1030))}})
            # a swap on a cycle venue marks each candidate block
            cand_b = opp_b if opp_b is not None else f_block - 1 - rng.randrange(HORIZON)
            p = hop_pools[0]
            t0, t1 = cyc_tokens[0], cyc_tokens[1]
            opp_tx = plan.add_tx(cand_b, [_swap_log(gen, p, t0, t1, gen.units(1, 9),
                                                    gen.units(1, 9), rng.random() < 0.5)])
            truth_opp_arb.append(_opp_truth(tx, f_block, dist,
                                            opp_tx if opp_b is not None else None))

    # single swaps on their own pools: decode work, never a cycle
    for _ in range(L1_NOISE_SWAPS):
        t0, t1 = rng.sample(tokens, 2)
        plan.add_tx(rng.randrange(L1_BLOCKS),
                    [_swap_log(gen, new_pool(t0, t1), t0, t1, gen.units(1, 99),
                               gen.units(1, 99), rng.random() < 0.5)])

    # --- liquidations ---
    truth_liq = []
    liq_plants = []
    for (kind, n_flash), dist in zip(L1_LIQ_TXS, liq_dist):
        f_block = rng.randrange(first, L1_BLOCKS)
        borrower = gen.addr()
        liquidator = gen.addr()
        debt, coll = rng.sample(tokens, 2)
        loans = flash_logs(gen, debt, n_flash)
        logs = [l["log"] for l in loans]
        actions = []
        if kind == "aave":
            debt_amt, coll_amt = gen.units(1, 500), gen.units(1, 600)
            logs.append((gen.addr(), enc_aave_v2v3_liquidation(
                coll, debt, borrower, debt_amt, coll_amt, liquidator),
                "aave_v2v3_liquidation"))
            actions.append({"protocol": "aave_v2v3", "liquidator": hx(liquidator),
                            "borrower": hx(borrower), "debt_token": hx(debt),
                            "debt_amount": str(debt_amt), "collateral_token": hx(coll),
                            "collateral_amount": str(coll_amt)})
            unredeemed = False
        else:
            _, n_liq_logs, n_redeem = kind
            redeems = []
            for _ in range(n_liq_logs):
                c_debt = gen.addr()
                repay = gen.units(1, 500)
                logs.append((c_debt, enc_compound_liquidate(
                    liquidator, borrower, repay, gen.addr(), gen.units(1, 50)),
                    "compound_liquidate"))
                actions.append({"protocol": "compound_v2", "liquidator": hx(liquidator),
                                "borrower": hx(borrower), "debt_token": hx(c_debt),
                                "debt_amount": str(repay), "collateral_token": None,
                                "collateral_amount": None})
            for _ in range(n_redeem):
                c_coll = gen.addr()
                amount = gen.units(1, 700)
                logs.append((c_coll, enc_compound_redeem(liquidator, amount,
                                                         gen.units(1, 50)),
                             "compound_redeem"))
                redeems.append((hx(c_coll), str(amount)))
            for action, (token, amount) in zip(actions, redeems):
                action["collateral_token"], action["collateral_amount"] = token, amount
            unredeemed = n_redeem < n_liq_logs
        tx = plan.add_tx(f_block, logs, fee=rng.randrange(1, 50) * 10 ** 15)
        truth_flash.extend({"tx": hx(tx), "provider": l["provider"], "token": l["token"],
                            "amount": l["amount"], "fee": l["fee"]} for l in loans)
        truth_liq.append({"tx": hx(tx), "block": f_block, "actions": actions,
                          "unredeemed": unredeemed,
                          "flash": [(l["provider"], l["token"], l["amount"], l["fee"])
                                    for l in loans]})
        open_b, closed_b, opp_b = walk_blocks(f_block, dist)
        compound = kind != "aave"
        snap_kind = "shortfall" if compound else "health"
        closed_v = "0" if compound else "1.05"
        snapshots.append({"kind": snap_kind, "key": hx(borrower), "block": closed_b,
                          "value": closed_v})
        if open_b is not None:
            for b in sorted({open_b} | {rng.randrange(open_b, f_block) for _ in range(2)}):
                value = (str(gen.units(1, 90)) if compound
                         else f"0.{rng.randrange(900, 999)}")
                snapshots.append({"kind": snap_kind, "key": hx(borrower), "block": b,
                                  "value": value})
        if opp_b is not None:
            plan.add_tx(opp_b, [(gen.addr(), enc_answer_updated(gen.units(1, 4000)),
                                 "chainlink_answer_updated")])
        liq_plants.append((tx, f_block, dist, opp_b))

    # --- noise: oracle updates, ERC-20 transfers, flash loans, unknown topics ---
    feeds = [gen.addr() for _ in range(6)]
    for b in range(0, L1_BLOCKS, 7):
        plan.add_tx(b + rng.randrange(7), [(rng.choice(feeds), enc_answer_updated(
            gen.units(1, 4000), rng.randrange(1, 1 << 32), plan.timestamp(b)),
            "chainlink_answer_updated")])
    holders = [gen.addr() for _ in range(400)]
    for b in range(L1_BLOCKS):
        for _ in range(L1_TRANSFER_TXS_PER_BLOCK):
            logs = []
            for _ in range(1 + rng.randrange(3)):
                s, r = rng.sample(holders, 2)
                logs.append((rng.choice(tokens), enc_transfer(s, r, gen.units(1, 10_000)),
                             "erc20_transfer"))
            plan.add_tx(b, logs)
    for _ in range(L1_STANDALONE_FLASH):
        loans = flash_logs(gen, rng.choice(tokens), 1)
        tx = plan.add_tx(rng.randrange(L1_BLOCKS), [loans[0]["log"]])
        truth_flash.append({"tx": hx(tx), "provider": loans[0]["provider"],
                            "token": loans[0]["token"], "amount": loans[0]["amount"],
                            "fee": loans[0]["fee"]})
    for _ in range(L1_UNKNOWN_LOGS):
        plan.add_tx(rng.randrange(L1_BLOCKS), [(gen.addr(), ([gen.h32()], b""),
                                                "unknown")])
    plan.shuffle()

    # opportunity tx of a liquidation: first oracle update in the block
    truth_opp_liq = []
    for tx, f_block, dist, opp_b in liq_plants:
        opp_tx = None
        if opp_b is not None:
            opp_tx = next(t["hash"] for t in plan.txs_in(opp_b)
                          if any(s == "chainlink_answer_updated" for _, _, s in t["logs"]))
        truth_opp_liq.append(_opp_truth(tx, f_block, dist, opp_tx))

    os.makedirs(d, exist_ok=True)
    fixtures = os.path.join(d, "fixtures")
    os.makedirs(fixtures, exist_ok=True)
    records = {"fixture": plan.write(os.path.join(fixtures, "ethereum.jsonl"))}
    dump_pool_metadata(pools, os.path.join(d, "pools.json"))
    records["pools"] = len(pools)
    days = sorted({plan.timestamp(b) // 86400 for b in range(L1_BLOCKS + 1)})
    records["prices"] = write_prices(os.path.join(d, "prices.csv"),
                                     [(t, f"0.{rng.randrange(1, 99):02d}") for t in tokens],
                                     days)
    snapshots.sort(key=lambda s: (s["block"], s["kind"], s["key"]))
    records["snapshots"] = write_jsonl(os.path.join(d, "snapshots.jsonl"), snapshots)
    records["findings"] = len(truth_arb) + len(truth_liq) + len(truth_flash)

    out = os.path.join(d, "out")
    fx = ["--fixtures", fixtures]
    pr = ["--prices", os.path.join(d, "prices.csv")]
    po = ["--pools", os.path.join(d, "pools.json")]
    sn = ["--snapshots", os.path.join(d, "snapshots.jsonl")]
    o = ["--out", out]
    commands = [
        Command("decode", ["decode"] + fx, ["fixture"]),
        Command("detect_arb", ["detect", "arb"] + fx + po + pr + o,
                ["fixture", "pools", "prices"]),
        Command("detect_liq", ["detect", "liq"] + fx + pr + o, ["fixture", "prices"]),
        Command("detect_flashloan", ["detect", "flashloan"] + fx + o, ["fixture"]),
        Command("opportunity_arb", ["opportunity", "--type", "arb"] + fx + po + sn + o,
                ["fixture", "pools", "snapshots"]),
        Command("opportunity_liq", ["opportunity", "--type", "liq"] + fx + po + sn + o,
                ["fixture", "pools", "snapshots"]),
        Command("report", ["report", "--out", out] + pr, ["findings", "prices"]),
    ]
    truth = {"out": out, "schemas": dict(plan.schema_counts), "arb": truth_arb,
             "liq": truth_liq, "flash": truth_flash, "opp_arb": truth_opp_arb,
             "opp_liq": truth_opp_liq}
    props = {"logs_per_schema": dict(sorted(plan.schema_counts.items())),
             "records_per_file": dict(records),
             "planted": {"arbitrage_findings": len(truth_arb),
                         "liquidation_findings": len(truth_liq),
                         "flash_loans": len(truth_flash),
                         "opportunity_not_found": sum(1 for x in arb_dist + liq_dist
                                                      if x < 0)}}
    return Workload("l1_history", commands, truth, records, props)


def _opp_truth(tx, f_block, dist, opp_tx):
    if dist < 0:
        return {"tx": hx(tx), "block": f_block, "status": NOT_FOUND,
                "opportunity_tx": None, "block_distance": None, "approximate": False}
    return {"tx": hx(tx), "block": f_block, "status": "found",
            "opportunity_tx": hx(opp_tx) if opp_tx else None,
            "block_distance": dist, "approximate": opp_tx is None}


# --------------------------------------------------------------------------
# l2_crosslayer
# --------------------------------------------------------------------------

L2_BLOCKS = 800
L2_BLOCK_TIME = 2
L2_START_TS = 1_709_251_200          # 2024-03-01 00:00 UTC
L1_MSG_BLOCKS = 60                   # L1 blocks carrying bridge emissions
L2_HOT_TOKENS = 6
L2_USERS = 100
L2_TRADES_RANK1 = 300                # Zipf: user k trades ~TRADES_RANK1 / k times
L2_ZIPF_S = 1.2
L2_SANDWICHES = 12
# victim swaps: (pool kind, victim size in whole tokens as a range or a
# fixed value, reserves of the pool's latest snapshot or None for random
# ones). Pools hold about 10^6 tokens.
# - Large cp victims make the profit curve steep; sizing cuts it by
#   ternary search (3.1k-3.7k swap_out calls per sizing).
# - A small cp victim leaves the curve flat, so sizing falls through to its
#   coarse grid and exact final scan. That scan's length swings by +-20%
#   with the low digits of the reserves, so this victim is fixed.
# - StableSwap reserves are whole-token values. At these the 1-wei sizing
#   probe returns no output (DrainedPool) and the victim sizes to x = 0.
#   Random low digits pass the probe on about one pool in four, and the
#   full search then costs about 85k swap_out calls, which would tie run
#   time to the seed.
L2_VICTIMS = ([(CONSTANT_PRODUCT, (20_000, 60_000), None)] * 3
              + [(CONSTANT_PRODUCT, 2_000, (1_000_000, 1_000_000))]
              + [(STABLESWAP, (20_000, 60_000), r)
                 for r in ((1_000_000, 1_000_000, 1_000_000),
                           (1_000_000, 1_100_000, 900_000),
                           (1_200_000, 1_000_000, 800_000),
                           (900_000, 1_000_000, 1_100_000))])
L2_PLAIN_LINKS = 40                  # linked messages without a victim swap
L2_UNLINKED_L1 = 5
L2_UNLINKED_L2 = 4
L2_DELAYS_S = (0, 4, 10, 30, 60, 90, 120, 300, 600, 900)
L2_CAPITAL_TIERS = (1_000, 100_000, "inf")


def _zipf_counts():
    return [max(1, round(L2_TRADES_RANK1 / (k ** L2_ZIPF_S)))
            for k in range(1, L2_USERS + 1)]


def gen_l2_crosslayer(seed: int, d: str) -> Workload:
    gen = Gen(seed, "l2_crosslayer")
    rng = gen.rng
    l2 = ChainPlan(gen, ARBITRUM, L2_START_TS, L2_BLOCK_TIME)
    l1 = ChainPlan(gen, ETHEREUM, L2_START_TS, 12)
    weth = gen.addr()
    hot = [gen.addr() for _ in range(L2_HOT_TOKENS)]
    pools: dict = {}
    hot_pool = {}
    for t in hot:
        a = gen.addr()
        pools[a] = PoolInfo(a, CONSTANT_PRODUCT, tuple(sorted((t, weth))), *CP_FEE)
        hot_pool[t] = a
    transfers = []   # (token, sender, receiver, amount, block, tx)

    def transfer_log(token, s, r, amount):
        return (token, enc_transfer(s, r, amount), "erc20_transfer")

    def trade(block, user, token, buy, amount):
        pool = hot_pool[token]
        eth = amount // rng.randrange(500, 3000)
        if buy:   # user pays WETH, pool sends the token
            legs = [(weth, user, pool, eth), (token, pool, user, amount)]
        else:
            legs = [(token, user, pool, amount), (weth, pool, user, eth)]
        h = l2.add_tx(block, [transfer_log(*leg) for leg in legs], sender=user)
        transfers.extend((*leg, block, h) for leg in legs)
        return h

    # dense Zipf traffic: fixed trade counts per user rank, each user's
    # trades spread round-robin over the hot tokens and alternating
    # buy/sell, so the (user, pool) repetition profile is seed-independent
    users = [gen.addr() for _ in range(L2_USERS)]
    for user, n in zip(users, _zipf_counts()):
        order = list(hot)
        rng.shuffle(order)
        for i in range(n):
            trade(rng.randrange(L2_BLOCKS), user, order[i % len(order)],
                  (i // len(order)) % 2 == 0, gen.units(1, 1000))

    # planted front / victim / back triples inside one window
    truth_sandwich = []
    for _ in range(L2_SANDWICHES):
        token = rng.choice(hot)
        attacker, victim = gen.addr(), gen.addr()
        b_front = rng.randrange(L2_BLOCKS - WINDOW)
        b_victim = b_front + rng.randrange(WINDOW // 2)
        b_back = b_victim + 1 + rng.randrange(WINDOW // 2 - 1)
        front_amount = gen.units(100, 1000)
        # distinct blocks keep the plant's positions ordered after shuffling
        front = trade(b_front, attacker, token, True, front_amount)
        vic = trade(b_victim + (b_victim == b_front), victim, token, True,
                    gen.units(1, 1000))
        back = trade(b_back + 1, attacker, token, False,
                     front_amount - rng.randrange(1, 10) * E18)
        truth_sandwich.append({"front": hx(front), "back": hx(back), "victim": hx(vic)})

    # bridge messages: victims over cp and StableSwap pools, plain links,
    # unlinked emissions on either side
    victim_pools = []
    for kind, size, latest in L2_VICTIMS:
        a = gen.addr()
        if kind == CONSTANT_PRODUCT:
            info = PoolInfo(a, kind, tuple(sorted((gen.addr(), weth))), *CP_FEE)
        else:
            info = PoolInfo(a, kind, (gen.addr(), gen.addr(), gen.addr()), 4, 10000, 200)
        pools[a] = info
        victim_pools.append((info, size, latest))
    n_links = len(victim_pools) + L2_PLAIN_LINKS
    kinds = victim_pools + [None] * L2_PLAIN_LINKS
    rng.shuffle(kinds)
    delays = [L2_DELAYS_S[i % len(L2_DELAYS_S)] for i in range(n_links)]
    rng.shuffle(delays)
    bridge = gen.addr()
    msg_blocks = sorted(rng.sample(range(L1_MSG_BLOCKS), n_links + L2_UNLINKED_L1))
    truth_victims, truth_delays = [], []
    l2_ts = {b: l2.timestamp(b) for b in range(L2_BLOCKS)}
    msg = 1000
    for i, victim in enumerate(kinds):
        msg += 1
        l1_b = msg_blocks[i]
        l1.add_tx(l1_b, [(bridge, enc_inbox_message(msg), "arbitrum_inbox_message")])
        l1_t = l1.timestamp(l1_b)
        target = l1_t + delays[i]
        # the L2 block whose timestamp equals the emission time plus delay
        b = (target - L2_START_TS) // L2_BLOCK_TIME
        assert 0 <= b < L2_BLOCKS and l2_ts[b] == target, "delay outside the L2 span"
        logs = [(bridge, enc_redeem_scheduled(msg), "arbitrum_redeem_scheduled")]
        if victim is not None:
            pool, size, _ = victim
            v = gen.addr()
            t_in, t_out = pool.tokens[0], pool.tokens[1]
            amount = size * E18 if isinstance(size, int) else gen.units(*size)
            if pool.kind == CONSTANT_PRODUCT:
                swap = (pool.address, enc_uniswap_v3_swap(v, v, amount, -amount // 2),
                        "uniswap_v3_swap")
            else:
                swap = (pool.address, enc_token_swap(v, amount, amount * 99 // 100, 0, 1),
                        "stableswap_token_swap")
            logs += [transfer_log(t_in, v, pool.address, amount), swap,
                     transfer_log(t_in, pool.address, v, amount)]
        h = l2.add_tx(b, logs)
        if victim is not None:
            transfers.append((pool.tokens[0], v, pool.address, amount, b, h))
            transfers.append((pool.tokens[0], pool.address, v, amount, b, h))
            truth_victims.append({"l2_tx": hx(h), "pool": hx(pool.address),
                                  "kind": pool.kind, "token_in": hx(t_in),
                                  "token_out": hx(t_out), "amount_in": str(amount)})
        truth_delays.append(delays[i])
    for i in range(L2_UNLINKED_L1):
        msg += 1
        l1.add_tx(msg_blocks[n_links + i],
                  [(bridge, enc_inbox_message(msg), "arbitrum_inbox_message")])
    for _ in range(L2_UNLINKED_L2):
        msg += 1
        l2.add_tx(rng.randrange(L2_BLOCKS),
                  [(bridge, enc_redeem_scheduled(10 ** 9 + msg),
                    "arbitrum_redeem_scheduled")])
    l2.shuffle()

    # pool snapshot series: several entries per victim pool, latest last
    snapshots = []
    for pool, _, latest in victim_pools:
        blocks = sorted(rng.sample(range(L2_BLOCKS), 4))
        for b in blocks:
            if latest is not None and b == blocks[-1]:
                res = [r * E18 for r in latest]
            elif pool.kind == CONSTANT_PRODUCT:
                r0 = gen.units(800_000, 1_200_000)
                res = [r0, r0 * rng.randrange(900, 1100) // 1000]
            else:
                res = [gen.units(800_000, 1_200_000) for _ in pool.tokens]
            snapshots.append({"kind": "pool", "key": hx(pool.address), "block": b,
                              "value": {"reserves": [str(r) for r in res]}})

    os.makedirs(d, exist_ok=True)
    fixtures = os.path.join(d, "fixtures")
    os.makedirs(fixtures, exist_ok=True)
    records = {"l1_fixture": l1.write(os.path.join(fixtures, "ethereum.jsonl")),
               "l2_fixture": l2.write(os.path.join(fixtures, "arbitrum.jsonl"))}
    dump_pool_metadata(pools, os.path.join(d, "pools.json"))
    records["pools"] = len(pools)
    price_tokens = sorted({p.tokens[0] for p, _, _ in victim_pools})
    days = sorted({l1.timestamp(b) // 86400 for b in range(L1_MSG_BLOCKS + 1)})
    records["prices"] = write_prices(os.path.join(d, "prices.csv"),
                                     [(t, "0.0005") for t in price_tokens], days)
    snapshots.sort(key=lambda s: (s["block"], s["key"]))
    records["snapshots"] = write_jsonl(os.path.join(d, "snapshots.jsonl"), snapshots)
    config = {"l1_tx_cost_eth": "0.004", "l2_tx_cost_eth": "0.0002", "bribe_eth": "0.002",
              "reaction_time_s": 30, "capital_tiers_usd": list(L2_CAPITAL_TIERS)}
    with open(os.path.join(d, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    records["config"] = 1

    out = os.path.join(d, "out")
    base = ["--chain", "arbitrum", "--fixtures", fixtures, "--out", out]
    po = ["--pools", os.path.join(d, "pools.json")]
    commands = [
        Command("detect_sandwich", ["detect", "sandwich"] + base, ["l2_fixture"]),
        Command("crosslayer_infer", ["crosslayer", "infer"] + base + po,
                ["l1_fixture", "l2_fixture", "pools"]),
        Command("crosslayer_delay", ["crosslayer", "delay"] + base + po,
                ["l1_fixture", "l2_fixture", "pools"]),
        Command("crosslayer_simulate", ["crosslayer", "simulate"] + base + po + [
            "--prices", os.path.join(d, "prices.csv"),
            "--snapshots", os.path.join(d, "snapshots.jsonl"),
            "--config", os.path.join(d, "config.json")],
            ["l1_fixture", "l2_fixture", "pools", "prices", "snapshots", "config"]),
    ]
    truth = {"out": out, "l2_fixture": os.path.join(fixtures, "arbitrum.jsonl"),
             "sandwiches": truth_sandwich, "victims": truth_victims,
             "links": n_links, "unlinked_l1": L2_UNLINKED_L1,
             "unlinked_l2": L2_UNLINKED_L2, "delays": truth_delays,
             "tiers": list(L2_CAPITAL_TIERS)}
    props = {"logs_per_schema": dict(sorted(l2.schema_counts.items())),
             "l1_logs_per_schema": dict(sorted(l1.schema_counts.items())),
             "records_per_file": dict(records),
             "max_pair_repeats_in_window": _max_pair_repeats(transfers),
             "victims_cp_stableswap": [sum(1 for k, _, _ in L2_VICTIMS if k == kind)
                                       for kind in (CONSTANT_PRODUCT, STABLESWAP)],
             "transfers": len(transfers)}
    return Workload("l2_crosslayer", commands, truth, records, props)


def _max_pair_repeats(transfers) -> dict:
    """Per token (by rank of transfer count): the largest number of
    transfers of one (sender, receiver) pair inside any WINDOW-block
    window."""
    by_pair: dict = {}
    for token, s, r, _, block, _ in transfers:
        by_pair.setdefault(token, {}).setdefault((s, r), []).append(block)
    per_token = []
    for token, pairs in by_pair.items():
        best = 0
        for blocks in pairs.values():
            blocks.sort()
            lo = 0
            for hi, b in enumerate(blocks):
                while b - blocks[lo] > WINDOW - 1:
                    lo += 1
                best = max(best, hi - lo + 1)
        per_token.append((sum(len(v) for v in pairs.values()), best))
    per_token.sort(reverse=True)
    return {f"token{i}": {"transfers": n, "max_pair_repeats": best}
            for i, (n, best) in enumerate(per_token[:L2_HOT_TOKENS + 1])}


# --------------------------------------------------------------------------
# bytecode_corpus
# --------------------------------------------------------------------------

BC_CHAINS = ("ethereum", "arbitrum", "optimism", "zksync")
BC_DEPLOYMENTS = (2, 3, 4, 5, 6, 8, 10)   # cycled over the clustered bodies
BC_CLUSTER_BODIES = 42
BC_SINGLETONS = 24
BC_ALL_VERIFIED_BODIES = 4
BC_PROXY_BODIES = 8
BC_VERIFIED_SHARE = 0.1
BC_OPS = (480, 560)                       # non-PUSH instructions per body
PUSH_LENGTHS = (1, 1, 1, 2, 2, 4, 20, 32)
_PLAIN_OPS = [op for op in range(0x00, 0x100)
              if not 0x60 <= op <= 0x7F and op != 0xF4]


def _body(rng, n_ops, proxy):
    """Instruction list: ints are plain opcodes, (n,) marks a PUSHn."""
    ins = []
    for _ in range(n_ops):
        ins.append(rng.choice(_PLAIN_OPS))
        if rng.random() < 0.6:
            ins.append((rng.choice(PUSH_LENGTHS),))
    if proxy:
        ins[rng.randrange(len(ins))] = 0xF4
    return ins


def _assemble(rng, ins) -> bytes:
    code = bytearray()
    for item in ins:
        if isinstance(item, tuple):
            n = item[0]
            code.append(0x5F + n)
            code += rng.randbytes(n)
        else:
            code.append(item)
    # CBOR metadata trailer: {"ipfs": <34 bytes>, "solc": <3 bytes>}
    trailer = (b"\xa2\x64ipfs\x58\x22" + rng.randbytes(34) + b"\x64solc\x43"
               + rng.randbytes(3))
    return bytes(code) + trailer + len(trailer).to_bytes(2, "big")


def gen_bytecode_corpus(seed: int, d: str) -> Workload:
    gen = Gen(seed, "bytecode_corpus")
    rng = gen.rng
    plans = []   # (deployments, proxy, all_verified)
    for i in range(BC_CLUSTER_BODIES):
        plans.append((BC_DEPLOYMENTS[i % len(BC_DEPLOYMENTS)], False, False))
    plans += [(1, False, False)] * BC_SINGLETONS
    plans += [(2, False, True)] * BC_ALL_VERIFIED_BODIES
    plans += [(2 + i % 2, True, False) for i in range(BC_PROXY_BODIES)]
    records, clusters, skeletons = [], [], set()
    excluded = {"verified": 0, "proxy": 0}
    hashed = 0
    for n_deploy, proxy, all_verified in plans:
        ins = _body(rng, rng.randrange(*BC_OPS), proxy)
        skeleton = bytes(i for i in ins if not isinstance(i, tuple))
        assert skeleton not in skeletons, "two bodies share a skeleton"
        skeletons.add(skeleton)
        members = []
        for k in range(n_deploy):
            chain = rng.choice(BC_CHAINS)
            address = hx(gen.addr())
            verified = all_verified or (k > 0 and rng.random() < BC_VERIFIED_SHARE)
            records.append({"chain": chain, "address": address,
                            "code_hex": hx(_assemble(rng, ins)), "verified": verified})
            if verified:
                excluded["verified"] += 1
                continue
            hashed += 1
            if proxy:
                excluded["proxy"] += 1
            else:
                members.append(f"{chain}:{address}")
        if members:
            clusters.append(sorted(members))
    rng.shuffle(records)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "bytecode.jsonl")
    write_jsonl(path, records)
    out = os.path.join(d, "out")
    commands = [Command("bytecode_cluster",
                        ["bytecode", "cluster", "--bytecode", path, "--out", out],
                        ["bytecode"])]
    distinct = len(plans) - BC_ALL_VERIFIED_BODIES
    truth = {"out": out, "clusters": clusters, "excluded": excluded}
    props = {"records_per_file": {"bytecode": len(records)},
             "hashed_records": hashed,
             "distinct_skeletons": distinct,
             "distinct_skeleton_share": distinct / hashed,
             "mean_code_bytes": sum(len(r["code_hex"]) // 2 - 1 for r in records)
             / len(records),
             "excluded": excluded}
    return Workload("bytecode_corpus", commands, truth, {"bytecode": len(records)},
                    props)


GENERATORS = {"l1_history": gen_l1_history, "l2_crosslayer": gen_l2_crosslayer,
              "bytecode_corpus": gen_bytecode_corpus}
