#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py

Checks that each generator is deterministic for a fixed seed, that each
output check passes on the real outputs and flags corrupted ones, and
that the tracer's self-time arithmetic is right on a synthetic span tree
and on real nested calls. Runs each workload's commands once (about 15 s).
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import GENERATORS  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work", "selftest")


def _files(d):
    out = []
    for base, _, names in os.walk(d):
        out += [os.path.relpath(os.path.join(base, n), d) for n in names]
    return sorted(out)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, gen in GENERATORS.items():
            with self.subTest(workload=name):
                a, b, c = (os.path.join(WORK, "gen", name, x) for x in "abc")
                for d in (a, b, c):
                    shutil.rmtree(d, ignore_errors=True)
                wa, wb = gen(7, a), gen(7, b)
                gen(8, c)
                self.assertEqual(_files(a), _files(b))
                _, mismatch, errors = filecmp.cmpfiles(a, b, _files(a), shallow=False)
                self.assertEqual((mismatch, errors), ([], []))
                self.assertEqual(wa.properties, wb.properties)
                _, mismatch, _ = filecmp.cmpfiles(a, c, _files(a), shallow=False)
                self.assertTrue(mismatch, "another seed must give other inputs")


class CheckTest(unittest.TestCase):
    """Real outputs pass; each corruption is flagged on its command."""

    rounds = {}

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        for name, gen in GENERATORS.items():
            work = os.path.relpath(os.path.join(WORK, "check", name), ROOT)
            shutil.rmtree(work, ignore_errors=True)
            wl = gen(3, os.path.join(work, "inputs"))
            runs = run.run_round(wl, work, 0, False, {})
            cls.rounds[name] = (wl, runs)

    def _assert_flagged(self, workload, command, path, corrupt):
        wl, runs = self.rounds[workload]
        stdouts = {r.name: r.stdout for r in runs}
        target = os.path.join(wl.truth["out"], path) if path else None
        original = None
        if target:
            with open(target, encoding="utf-8") as fh:
                original = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(corrupt(original))
        else:
            stdouts[command] = corrupt(stdouts[command])
        try:
            problems = checks.check(wl, stdouts)
        finally:
            if target:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
        self.assertTrue(problems[command], f"{command}: corruption not flagged")
        self.assertFalse([p for c, p in problems.items() if p and c != command])

    def test_real_outputs_pass(self):
        for name, (wl, runs) in self.rounds.items():
            with self.subTest(workload=name):
                self.assertEqual([(r.name, r.problems) for r in runs if r.problems], [])

    def test_l1_corruptions(self):
        def drop_last_line(text):
            return "".join(text.splitlines(keepends=True)[:-1])

        def unpair_redeem(text):
            rows = [json.loads(x) for x in text.splitlines()]
            for r in rows:
                for a in r["actions"]:
                    if a["protocol"] == "compound_v2" and a["collateral_token"]:
                        a["collateral_token"] = a["collateral_amount"] = None
                        return "".join(json.dumps(r) + "\n" for r in rows)
            raise AssertionError("no paired redeem in the output")

        def shift_distance(text):
            rows = [json.loads(x) for x in text.splitlines()]
            r = next(r for r in rows if r["block_distance"])
            r["block_distance"] += 1
            return "".join(json.dumps(r) + "\n" for r in rows)

        cases = [
            ("detect_arb", "findings_arb.jsonl", drop_last_line),
            ("detect_liq", "findings_liq.jsonl", unpair_redeem),
            ("detect_flashloan", "findings_flashloan.jsonl", drop_last_line),
            ("opportunity_arb", "opportunities_arb.jsonl", shift_distance),
            ("opportunity_liq", "opportunities_liq.jsonl", shift_distance),
            ("report", "flash_loan_shares.csv", drop_last_line),
            ("decode", None, lambda s: s.replace("erc20_transfer: ", "erc20_transfer: 1")),
        ]
        for command, path, corrupt in cases:
            with self.subTest(command=command):
                self._assert_flagged("l1_history", command, path, corrupt)

    def test_l2_corruptions(self):
        wl, _ = self.rounds["l2_crosslayer"]
        planted_front = wl.truth["sandwiches"][0]["front"]

        def drop_planted(text):
            return "".join(x for x in text.splitlines(keepends=True)
                           if f'"front_tx":"{planted_front}"' not in x)

        def bad_victim(text):
            rows = [json.loads(x) for x in text.splitlines()]
            rows[0]["victim_txs"] = [rows[0]["back_tx"]]
            return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)

        def break_monotone(text):
            lines = text.splitlines(keepends=True)
            cells = lines[1].split(",")
            cells[2] = "999"
            lines[1] = ",".join(cells)
            return "".join(lines)

        def raise_max(text):
            lines = text.splitlines(keepends=True)
            cells = lines[1].rstrip().split(",")
            cells[-1] = str(int(cells[-1]) + 1)
            lines[1] = ",".join(cells) + "\n"
            return "".join(lines)

        cases = [
            ("detect_sandwich", "findings_sandwich.jsonl", drop_planted),
            ("detect_sandwich", "findings_sandwich.jsonl", bad_victim),
            ("crosslayer_infer", "victims.jsonl",
             lambda s: "".join(s.splitlines(keepends=True)[1:])),
            ("crosslayer_infer", None, lambda s: s.replace("unlinked L1: ", "unlinked L1: 1")),
            ("crosslayer_delay", "delay_stats.csv", raise_max),
            ("crosslayer_simulate", "attack_tables.csv", break_monotone),
        ]
        for command, path, corrupt in cases:
            with self.subTest(command=command, path=path, corrupt=corrupt.__name__):
                self._assert_flagged("l2_crosslayer", command, path, corrupt)

    def test_bytecode_corruptions(self):
        def swap_members(text):
            lines = text.splitlines(keepends=True)
            a, b = lines[1].split(","), lines[2].split(",")
            ma, mb = a[3].strip().split(";"), b[3].strip().split(";")
            ma[0], mb[0] = mb[0], ma[0]
            a[3], b[3] = ";".join(ma) + "\n", ";".join(mb) + "\n"
            lines[1], lines[2] = ",".join(a), ",".join(b)
            return "".join(lines)

        self._assert_flagged("bytecode_corpus", "bytecode_cluster", "bytecode_clusters.csv",
                             swap_members)
        self._assert_flagged("bytecode_corpus", "bytecode_cluster", "bytecode_clusters.csv",
                             lambda s: "".join(s.splitlines(keepends=True)[:-1]))


class SelfTimeTest(unittest.TestCase):
    def test_covered_is_union(self):
        self.assertAlmostEqual(tracer.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(tracer.covered([]), 0.0)

    def test_synthetic_tree(self):
        # cli.main 0..10 has children A 1..4 and B 5..8, one second of
        # aggregated keccak calls; A has child C 2..3 and aggregated
        # swap_out calls (0.5 s) that spend 0.2 s in cp_swap_out
        trace = {
            "spans": [[0, "cli.main", 0.0, 10.0, None, 1.0],
                      [1, "detectors.a", 1.0, 4.0, 0, 0.5],
                      [2, "detectors.b", 5.0, 8.0, 0, 0.0],
                      [3, "decoding.c", 2.0, 3.0, 1, 0.0]],
            "aggs": [[1, "amm.swap_out", 10, 0.5, 0.3],
                     [1, "amm.cp_swap_out", 10, 0.2, 0.2],
                     [0, "keccak.keccak256", 2, 1.0, 1.0]],
        }
        funcs = tracer.analyze(trace)["funcs"]
        want = {"cli.main": 3.0, "detectors.a": 1.5, "detectors.b": 3.0,
                "decoding.c": 1.0, "amm.swap_out": 0.3, "amm.cp_swap_out": 0.2,
                "keccak.keccak256": 1.0}
        for name, self_s in want.items():
            self.assertAlmostEqual(funcs[name]["self_s"], self_s, msg=name)
        self.assertAlmostEqual(sum(f["self_s"] for f in funcs.values()), 10.0)
        under = tracer.analyze(trace)["under"]
        self.assertEqual(under["detectors.a", "amm.swap_out"], 10)
        self.assertEqual(under["cli.main", "decoding.c"], 1)
        self.assertNotIn(("detectors.b", "amm.swap_out"), under)

    def test_real_calls_add_up(self):
        t = tracer.Tracer("selftest")

        def leaf():
            time.sleep(0.001)

        def mid():
            for _ in range(5):
                t.call("amm.leaf", leaf, (), {})

        def root():
            for _ in range(4):
                t.call("detectors.mid", mid, (), {})

        cap = tracer.SPAN_CAP
        tracer.SPAN_CAP = 2
        try:
            t.call("cli.main", root, (), {})
        finally:
            tracer.SPAN_CAP = cap
        funcs = tracer.analyze(json.loads(json.dumps(t.dump())))["funcs"]
        self.assertEqual(funcs["detectors.mid"]["calls"], 4)
        self.assertEqual(funcs["amm.leaf"]["calls"], 20)
        self.assertEqual(len(t.spans), 1 + 2 + 2)   # SPAN_CAP spans per function
        main = funcs["cli.main"]["total_s"]
        self.assertAlmostEqual(sum(f["self_s"] for f in funcs.values()), main, places=9)
        self.assertGreater(funcs["amm.leaf"]["self_s"], 0.015)

    def test_install_wraps_every_binding(self):
        code = ("import sys; sys.path[:0] = [%r, %r]\n"
                "import tracer, mevlens.cli as cli, mevlens.chain_model as cm\n"
                "import mevlens.crosslayer as xl, mevlens.amm as amm\n"
                "import mevlens.bytecode as bc, mevlens.keccak as kc\n"
                "import mevlens.opportunity as op, mevlens.decoding as dec\n"
                "from mevlens.registry import DEFAULT_REGISTRY as reg\n"
                "t = tracer.install('x')\n"
                "assert cli.load_fixture is cm.load_fixture\n"
                "assert cli.logs_in_range.__wrapped__ is not None\n"
                "assert xl.swap_out is amm.swap_out and amm.swap_out.__wrapped__\n"
                "assert bc.keccak256 is kc.keccak256 and kc.keccak256.__wrapped__\n"
                "assert op.decode_swap is dec.decode_swap and op.decode_swap.__wrapped__\n"
                "reg.lookup(b'x'); kc.keccak256(b'')\n"
                "names = {s[1] for s in t.spans}\n"
                "assert names == {'registry.TopicRegistry.lookup', 'keccak.keccak256'}, names\n"
                % (HERE, os.path.join(ROOT, "src")))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
