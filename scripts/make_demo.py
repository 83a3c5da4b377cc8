#!/usr/bin/env python3
"""Write a small demo fixture directory for the CLI walkthrough.

The dataset plants 25 cyclic-arbitrage findings (21 single-cycle
transactions plus 2 transactions carrying two disjoint cycles each) among
non-cycle noise, together with a price sheet so the detector can attach
ETH-denominated profits.

Usage: python3 scripts/make_demo.py [--out demo]
"""

import argparse
import csv
import os

from mevlens.chain_model import ETHEREUM
from mevlens.fixtures import FixtureBuilder, addr, dump_fixture, enc_balancer_v1_swap

TOKEN_A = addr(0xA1)
TOKEN_B = addr(0xB1)
TOKEN_C = addr(0xC1)
VENUES = [addr(0xD1), addr(0xD2), addr(0xD3), addr(0xD4)]


def build_dataset():
    fb = FixtureBuilder(ETHEREUM)

    def swap_log(venue, t_in, t_out, a_in, a_out):
        topics, data = enc_balancer_v1_swap(addr(0xEE), t_in, t_out, a_in, a_out)
        fb.log(venue, topics, data)

    for i in range(21):
        fb.block()
        fb.tx(fee=10 ** 15)
        if i % 2 == 0:
            swap_log(VENUES[0], TOKEN_A, TOKEN_B, 100 + i, 205)
            swap_log(VENUES[1], TOKEN_B, TOKEN_A, 205, 110 + i)
        else:
            swap_log(VENUES[0], TOKEN_A, TOKEN_B, 100 + i, 205)
            swap_log(VENUES[1], TOKEN_B, TOKEN_C, 200, 310)
            swap_log(VENUES[2], TOKEN_C, TOKEN_A, 310, 120 + i)

    for _ in range(2):
        fb.block()
        fb.tx(fee=10 ** 15)
        swap_log(VENUES[0], TOKEN_A, TOKEN_B, 100, 205)
        swap_log(VENUES[1], TOKEN_B, TOKEN_A, 205, 111)
        swap_log(VENUES[2], TOKEN_B, TOKEN_C, 400, 505)
        swap_log(VENUES[3], TOKEN_C, TOKEN_B, 505, 410)

    # noise that must not register as arbitrage
    for _ in range(5):
        fb.block()
        fb.tx()
        swap_log(VENUES[0], TOKEN_A, TOKEN_B, 50, 49)
    fb.block()
    fb.tx()
    swap_log(VENUES[0], TOKEN_A, TOKEN_B, 100, 205)
    swap_log(VENUES[0], TOKEN_B, TOKEN_A, 205, 110)  # same venue: no cycle

    return fb.dataset()


def write_prices(path, dataset):
    days = sorted({b.timestamp // 86400 for b in dataset.blocks})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_address", "day", "price_eth"])
        for day in days:
            writer.writerow(["0x" + TOKEN_A.hex(), day, "0.5"])
            writer.writerow(["0x" + TOKEN_B.hex(), day, "0.25"])
            writer.writerow(["0x" + TOKEN_C.hex(), day, "0.1"])
            writer.writerow(["ETHUSD", day, "2000"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    dataset = build_dataset()
    dump_fixture(dataset, os.path.join(args.out, "ethereum.jsonl"))
    write_prices(os.path.join(args.out, "prices.csv"), dataset)
    print(f"demo fixture written to {args.out}/")


if __name__ == "__main__":
    main()
