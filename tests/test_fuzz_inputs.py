"""Fuzz gate for every input file the CLI reads.

A valid input set (fixtures, snapshots, bytecode, findings, prices, pools
and attack config) is built once; each example sets one field of one file
to a wrong-typed or out-of-range value, or edits the file's bytes, and runs
every command that reads that file. Malformed input must exit 1 and valid
input 0; exit 2 means an internal error. Every leaf command runs on the
valid set with exactly the options it takes, in process and in a fresh
interpreter that shows which modules it loads. Each usage error exits 1. A bug planted in a simulation exits 2.
"""

import contextlib
import csv
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from mevlens.amm import PoolInfo, dump_pool_metadata
from mevlens.chain_model import ARBITRUM, ETHEREUM, dump_fixture
from mevlens.cli import main
from mevlens.fixtures import (FixtureBuilder, addr, enc_aave_v2v3_liquidation,
                              enc_answer_updated, enc_balancer_v1_swap, enc_flashloan,
                              enc_inbox_message, enc_redeem_scheduled, enc_token_swap,
                              enc_transfer)

TA, TB = addr(0x7A1), addr(0x7B2)
V1, V2, XL_POOL = addr(0xD1), addr(0xD2), addr(0x777)
BORROWER, VICTIM, ATTACKER = addr(0xB0), addr(0x7E0), addr(0x72)

# "9" * 5000 is past the digit limit of int() and Fraction()
VALUES = [7, -1, 10 ** 30, True, None, [1], {"a": 1}, "x", "0x", 1.5, "²", "9" * 5000]

# {root} is the directory the inputs are written to
FIXTURES = ["--fixtures", "{root}/fixtures"]
POOLS = ["--pools", "{root}/pools.json"]
SNAPSHOTS = ["--snapshots", "{root}/snap.jsonl"]
PRICES = ["--prices", "{root}/prices.csv"]
CONFIG = ["--config", "{root}/attack.json"]
OUT = ["--out", "{root}/out"]
L2 = ["--chain", "arbitrum"]

# every leaf command with exactly the input options it takes
ARGV = {
    "decode": ["decode", *FIXTURES],
    "detect arb": ["detect", "arb", *FIXTURES, *POOLS, *PRICES, *OUT],
    "detect liq": ["detect", "liq", *FIXTURES, *PRICES, *OUT],
    "detect flashloan": ["detect", "flashloan", *FIXTURES, *OUT],
    "detect sandwich": ["detect", "sandwich", *L2, *FIXTURES, *OUT],
    "opportunity": ["opportunity", *FIXTURES, *POOLS, *SNAPSHOTS, *OUT],
    "compete": ["compete", *FIXTURES, *POOLS, *SNAPSHOTS, *OUT],
    "crosslayer infer": ["crosslayer", "infer", *L2, *FIXTURES, *POOLS, *OUT],
    "crosslayer delay": ["crosslayer", "delay", *L2, *FIXTURES, *POOLS, *OUT],
    "crosslayer simulate": ["crosslayer", "simulate", *L2, *FIXTURES, *POOLS, *PRICES,
                            *SNAPSHOTS, *CONFIG, *OUT],
    # detect writes findings_*.jsonl into out/, which report then summarizes
    "report": ["report", *OUT, *PRICES],
    "bytecode cluster": ["bytecode", "cluster", "--bytecode", "{root}/code.jsonl", *OUT],
}
DETECT = [ARGV["detect arb"], ARGV["detect liq"], ARGV["detect flashloan"],
          ARGV["detect sandwich"]]
OPPORTUNITY = [ARGV[command] + ["--type", mev_type]
               for command in ("opportunity", "compete") for mev_type in ("arb", "liq")]
SIMULATE = ARGV["crosslayer simulate"]
CROSSLAYER = [ARGV["crosslayer infer"], ARGV["crosslayer delay"], SIMULATE]
REPORT = ARGV["report"]
REPORT_FINDINGS = ["report", "--out", "{root}/findings", *PRICES]

# the commands that read each input file
COMMANDS = {
    "fixtures/ethereum.jsonl": [ARGV["decode"], *DETECT[:3], *OPPORTUNITY, *CROSSLAYER,
                                REPORT],
    "fixtures/arbitrum.jsonl": [DETECT[3], *CROSSLAYER, REPORT],
    "snap.jsonl": [*OPPORTUNITY, SIMULATE],
    "pools.json": [ARGV["detect arb"], *OPPORTUNITY, *CROSSLAYER],
    "attack.json": [SIMULATE],
    "prices.csv": [ARGV["detect arb"], ARGV["detect liq"], SIMULATE, REPORT_FINDINGS],
    "findings/findings_arb.jsonl": [REPORT_FINDINGS],
    "code.jsonl": [ARGV["bytecode cluster"]],
}


def _datasets():
    """Ethereum: a swap and an oracle update, then an arbitrage with a flash
    loan, an Aave liquidation and an Arbitrum inbox message. Arbitrum: a
    sandwich and the bridged execution carrying a victim swap."""
    l1 = FixtureBuilder(ETHEREUM, start_timestamp=1_700_000_000)
    l1.block()
    l1.tx()
    l1.log(V1, *enc_balancer_v1_swap(addr(0xEE), TA, TB, 100, 205))
    l1.log(addr(0xCC), *enc_answer_updated(10 ** 8))
    l1.block()
    l1.tx()
    l1.log(V1, *enc_balancer_v1_swap(addr(0xEE), TA, TB, 100, 205))
    l1.log(V2, *enc_balancer_v1_swap(addr(0xEE), TB, TA, 205, 120))
    l1.log(addr(0xAA), *enc_flashloan("aave_v2", TA, 10 ** 18, 9))
    l1.tx()
    l1.log(addr(0xAB), *enc_aave_v2v3_liquidation(TA, TB, BORROWER, 500, 600, addr(0xC0)))
    l1.tx()
    l1.log(addr(0x1001), *enc_inbox_message(7))

    l2 = FixtureBuilder(ARBITRUM, start_timestamp=1_700_000_060)
    l2.block()
    for sender, receiver, amount in ((XL_POOL, ATTACKER, 100), (XL_POOL, addr(0x73), 50),
                                     (ATTACKER, XL_POOL, 90)):
        l2.tx()
        l2.log(TA, *enc_transfer(sender, receiver, amount))
    l2.block()
    l2.tx()
    l2.log(addr(0x1001), *enc_redeem_scheduled(7))
    l2.log(TA, *enc_transfer(VICTIM, XL_POOL, 10 ** 4))
    l2.log(XL_POOL, *enc_token_swap(VICTIM, 10 ** 4, 9900, 0, 1))
    l2.log(TA, *enc_transfer(XL_POOL, VICTIM, 10 ** 4))
    return l1.dataset(), l2.dataset()


@functools.lru_cache(maxsize=None)
def valid_inputs():
    """{relative path: (format, content)}; format is jsonl (a list of
    records), json (one object) or csv (a list of rows)."""
    l1, l2 = _datasets()
    day = l1.blocks[0].timestamp // 86400
    pools = {p: PoolInfo(p, "constant_product", (TA, TB), 3, 1000) for p in (V1, V2, XL_POOL)}
    with tempfile.TemporaryDirectory() as tmp:
        for chain, ds in (("ethereum", l1), ("arbitrum", l2)):
            dump_fixture(ds, os.path.join(tmp, f"{chain}.jsonl"))
        dump_pool_metadata(pools, os.path.join(tmp, "pools.json"))
        fixtures = {name: _read_jsonl(os.path.join(tmp, f"{name}.jsonl"))
                    for name in ("ethereum", "arbitrum")}
        with open(os.path.join(tmp, "pools.json"), encoding="utf-8") as fh:
            pools_json = json.load(fh)
    inputs = {
        "fixtures/ethereum.jsonl": ("jsonl", fixtures["ethereum"]),
        "fixtures/arbitrum.jsonl": ("jsonl", fixtures["arbitrum"]),
        "pools.json": ("json", pools_json),
        "snap.jsonl": ("jsonl", [
            {"kind": "pool", "key": "0x" + p.hex(), "block": 0,
             "value": {"reserves": ["1000000", "1000000"]}} for p in pools]
            + [{"kind": "health", "key": "0x" + BORROWER.hex(), "block": 0, "value": "0.9"},
               {"kind": "shortfall", "key": "0x" + BORROWER.hex(), "block": 0, "value": "5"}]),
        "prices.csv": ("csv", [["token_address", "day", "price_eth"],
                               ["0x" + TA.hex(), str(day), "0.000001"],
                               ["0x" + TB.hex(), str(day), "0.000002"],
                               ["ETHUSD", str(day), "2000"]]),
        "attack.json": ("json", {"l1_tx_cost_eth": "0.002", "l2_tx_cost_eth": "0.0001",
                                 "bribe_eth": "0.001", "reaction_time_s": 45,
                                 "capital_tiers_usd": [1000, 10000, "inf"]}),
        "code.jsonl": ("jsonl", [
            {"chain": "ethereum", "address": "0x" + addr(1).hex(),
             "code_hex": "0x6080604052600436106100", "verified": False},
            {"chain": "arbitrum", "address": "0x" + addr(2).hex(),
             "code_hex": "6080604052600536106100", "verified": False},
            {"chain": "zksync", "address": "0x" + addr(3).hex(),
             "code_hex": "0x60806040f4", "verified": False}]),
    }
    # the findings that report reads are the ones detect writes for the inputs above
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp, inputs)
        findings = []
        for command in DETECT:
            assert _run(tmp, command) == 0, command
        for name in sorted(os.listdir(os.path.join(tmp, "out"))):
            findings += _read_jsonl(os.path.join(tmp, "out", name))
    assert {f["type"] for f in findings} == {"arbitrage", "liquidation", "flash_loan",
                                             "sandwich"}
    inputs["findings/findings_arb.jsonl"] = ("jsonl", findings)
    return inputs


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_inputs(root, inputs):
    for rel, (fmt, content) in inputs.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "jsonl":
                fh.writelines(json.dumps(record) + "\n" for record in content)
            elif fmt == "json":
                json.dump(content, fh)
            else:
                csv.writer(fh).writerows(content)


def _run(root, argv):
    return main([a.format(root=root) for a in argv])


def _targets(node, path=()):
    """Paths to every value inside a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _targets(child, path + (key,))


def _mutation_targets(rel):
    fmt, content = valid_inputs()[rel]
    if fmt == "jsonl":
        # the whole line, or any value inside it
        return [(i,) + p for i, record in enumerate(content)
                for p in [(), *_targets(record)]]
    if fmt == "csv":
        return [(i, j) for i, row in enumerate(content) for j in range(len(row))]
    # values only: JSON object keys are always strings
    return list(_targets(content))


def _mutate(rel, path, value):
    fmt, content = valid_inputs()[rel]
    if fmt == "csv":
        value = value if isinstance(value, str) else json.dumps(value)
    content = json.loads(json.dumps(content))
    parent, key = content, path[-1]
    for step in path[:-1]:
        parent = parent[step]
    parent[key] = value
    return dict(valid_inputs(), **{rel: (fmt, content)})


@pytest.mark.parametrize("rel", sorted(COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_bad_field_exits_0_or_1(rel, data):
    path = data.draw(st.sampled_from(_mutation_targets(rel)), label="path")
    value = data.draw(st.sampled_from(VALUES), label="value")
    inputs = _mutate(rel, path, value)
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, inputs)
        for argv in COMMANDS[rel]:
            assert _run(root, argv) in (0, 1), argv


def test_valid_inputs_exit_0():
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        for rel in sorted(COMMANDS):
            for argv in COMMANDS[rel]:
                assert _run(root, argv) == 0, argv


def _assert_readers_exit_1(root, rel, message, capsys):
    # REPORT reads the findings that detect would have written
    for argv in (a for a in COMMANDS[rel] if a is not REPORT):
        assert _run(root, argv) == 1, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("rel", sorted(COMMANDS))
def test_non_utf8_input_exits_1_naming_the_line(rel, capsys):
    """Line 2 of a line-based input (line 1 of a one-line JSON document)
    holds bytes that are not UTF-8."""
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        path = os.path.join(root, rel)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        line = min(2, len(lines))
        lines[line - 1] = b"\xff\xfe" + lines[line - 1]
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        _assert_readers_exit_1(root, rel, f"error: {path}: line {line}: not UTF-8: ", capsys)


# where a value the reader checks starts, in each sidecar: a reserve, a
# day, a fee, a cost, bytecode hex and a timestamp
VALUE_AT = {
    "snap.jsonl": b'"reserves": ["',
    "prices.csv": b"ETHUSD,",
    "pools.json": b'"fee_num": ',
    "attack.json": b'"l2_tx_cost_eth": "',
    "code.jsonl": b'"code_hex": "',
    "findings/findings_arb.jsonl": b'"timestamp": ',
}


def _one_line_spread(content):
    # a JSON document on one line is spread over several, so that it has line ends
    return content if b"\n" in content else content.replace(b", ", b",\n") + b"\n"


def _trailing_tab(content, at):
    body = content.rstrip(b"\r\n")
    return body + b"\t" + content[len(body):]


# byte-level mutations of a whole file (its encoding and line ends) or of
# the first character of one value (at index ``at``)
BYTE_MUTATIONS = {
    "bom": lambda content, at: b"\xef\xbb\xbf" + content,
    "nul": lambda content, at: content[:at] + b"\x00" + content[at:],
    # CSV lines already end in CRLF, and end in CR CR LF after this
    "crlf": lambda content, at: _one_line_spread(content).replace(b"\n", b"\r\n"),
    "lone_cr": lambda content, at: (_one_line_spread(content).replace(b"\r\n", b"\n")
                                    .replace(b"\n", b"\r")),
    "trailing_tab": _trailing_tab,
    "u2028": lambda content, at: content[:at] + "\u2028".encode() + content[at:],
    "full_width_digit": lambda content, at: (
        content[:at] + chr(0xFF10 + int(content[at:at + 1])).encode() + content[at + 1:]),
}
SIDECARS = sorted(VALUE_AT)


@pytest.mark.parametrize("mutation", sorted(BYTE_MUTATIONS))
@pytest.mark.parametrize("rel", SIDECARS)
def test_sidecar_byte_mutation_exits_0_or_1_naming_the_file(rel, mutation, capsys):
    """Every command that reads the mutated sidecar exits 0 or 1, never
    with a traceback, and an exit 1 names the file."""
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        path = os.path.join(root, rel)
        with open(path, "rb") as fh:
            content = fh.read()
        at = content.index(VALUE_AT[rel]) + len(VALUE_AT[rel])
        assert content[at:at + 1].isdigit()
        mutated = BYTE_MUTATIONS[mutation](content, at)
        assert mutated != content
        with open(path, "wb") as fh:
            fh.write(mutated)
        capsys.readouterr()
        for argv in COMMANDS[rel]:
            code = _run(root, argv)
            err = capsys.readouterr().err
            assert code in (0, 1) and "Traceback" not in err, (argv, code, err)
            if code == 1:
                assert f"error: {path}: " in err, (argv, err)


# not UTF-8: a lone continuation byte, an invalid start byte, a truncated
# sequence, a UTF-16 surrogate, an overlong encoding and a code point past
# U+10FFFF
NOT_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"]


def _byte_edit(content, data):
    """One byte-level edit of a file, drawn from ``data``: bytes that are
    not UTF-8, a BOM or a NUL inserted at any offset (the start of the
    file among them), or some of its line ends turned to CRLF or a lone CR."""
    kind = data.draw(st.sampled_from(["not_utf8", "bom", "nul", "crlf", "lone_cr"]),
                     label="edit")
    if kind in ("crlf", "lone_cr"):
        content = _one_line_spread(content)
        ends = [m.span() for m in re.finditer(rb"\r?\n", content)]
        chosen = sorted(data.draw(st.sets(st.sampled_from(ends), min_size=1), label="ends"))
        new, pieces, last = b"\r\n" if kind == "crlf" else b"\r", [], 0
        for start, end in chosen:
            pieces += [content[last:start], new]
            last = end
        return b"".join(pieces) + content[last:]
    insert = {"not_utf8": data.draw(st.sampled_from(NOT_UTF8), label="bytes"),
              "bom": b"\xef\xbb\xbf", "nul": b"\x00"}[kind]
    at = data.draw(st.one_of(st.just(0), st.integers(0, len(content))), label="offset")
    return content[:at] + insert + content[at:]


@pytest.mark.parametrize("rel", sorted(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_byte_level_edit_exits_0_or_1_naming_the_file(rel, data):
    """Every command that reads the edited file exits 0 or 1, never with a
    traceback, and an exit 1 names the file."""
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        path = os.path.join(root, rel)
        with open(path, "rb") as fh:
            content = fh.read()
        with open(path, "wb") as fh:
            fh.write(_byte_edit(content, data))
        for argv in COMMANDS[rel]:
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                code = _run(root, argv)
            err = stderr.getvalue()
            assert code in (0, 1) and "Traceback" not in err, (argv, code, err)
            if code == 1:
                assert f"error: {path}: " in err, (argv, err)


def _long_decimal_targets():
    """(file, path to a decimal field) for every kind of decimal an input
    holds: on-chain amounts, prices and days, snapshot values, costs,
    profits and pool parameters."""
    inputs = valid_inputs()
    first_tx = next(i for i, r in enumerate(inputs["fixtures/ethereum.jsonl"][1])
                    if r["kind"] == "tx")
    snap = inputs["snap.jsonl"][1]
    health, shortfall = (next(i for i, r in enumerate(snap) if r["kind"] == kind)
                         for kind in ("health", "shortfall"))
    pool = next(iter(inputs["pools.json"][1]))
    prices = inputs["prices.csv"][1]
    ethusd = next(i for i, row in enumerate(prices) if row[0] == "ETHUSD")
    return [("fixtures/ethereum.jsonl", (first_tx, "fee_paid")),
            ("fixtures/ethereum.jsonl", (first_tx, "builder_payment")),
            ("prices.csv", (ethusd, 2)), ("prices.csv", (1, 1)),
            ("snap.jsonl", (0, "value", "reserves", 0)), ("snap.jsonl", (0, "block")),
            ("snap.jsonl", (health, "value")), ("snap.jsonl", (shortfall, "value")),
            ("attack.json", ("l1_tx_cost_eth",)), ("attack.json", ("capital_tiers_usd", 0)),
            ("pools.json", (pool, "fee_num")),
            ("findings/findings_arb.jsonl", (0, "profit_eth"))]


def test_decimal_past_digit_limit_exits_1(capsys):
    """A decimal string int() and Fraction() cannot read, of 5000 digits
    (past the default limit of 4300) and of 641 (past the lowest limit
    an interpreter can be set to)."""
    for rel, path in _long_decimal_targets():
        for value in ("9" * 5000, "1" * 641):
            with tempfile.TemporaryDirectory() as root:
                _write_inputs(root, _mutate(rel, path, value))
                _assert_readers_exit_1(root, rel, f"error: {os.path.join(root, rel)}: ",
                                       capsys)


@pytest.mark.parametrize("option, commands", [
    ("--window", ["detect sandwich"]), ("--horizon", ["opportunity", "compete"])],
    ids=["--window", "--horizon"])
def test_window_and_horizon_below_1_exit_1(option, commands, capsys):
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        for value in ("0", "-3"):
            for argv in (ARGV[command] for command in commands):
                assert _run(root, argv + [option, value]) == 1, argv
                assert f"error: argument {option}: " in capsys.readouterr().err


# the mevlens modules a command must not load: those of the other commands;
# and, as mevlens has no runtime dependency, no module outside the standard
# library. No command loads the dataclass machinery or the introspection
# it imports: the records are NamedTuples. Nor does one load logging unless
# MEVLENS_LOG is set: until then no handler exists to print a record.
# Nor does one load hashlib, which loads OpenSSL: the fixture cache hashes
# with the built-in BLAKE2b. A command that reads no chain fixture does
# not load the fixture cache.
NEVER_LOADED = ["dataclasses", "inspect", "logging", "hashlib"]
NOT_LOADED = [
    (ARGV["detect arb"], {"crosslayer", "bytecode", "keccak", "opportunity"}),
    (ARGV["decode"], {"amm", "opportunity", "crosslayer", "bytecode"}),
    (ARGV["bytecode cluster"], {"decoding", "detectors", "amm", "opportunity", "crosslayer",
                                "fixture_cache"}),
    (REPORT_FINDINGS, {"detectors", "decoding", "registry", "amm", "opportunity",
                       "crosslayer", "bytecode", "fixture_cache"}),
    (ARGV["crosslayer infer"], {"detectors", "opportunity", "bytecode"}),
    (ARGV["crosslayer delay"], {"detectors", "opportunity", "bytecode"}),
    (ARGV["crosslayer simulate"], {"detectors", "bytecode"}),
]
# the standard-library modules only some commands use, and those commands:
# report globs the findings, and report and crosslayer delay render months
LOADED_ONLY_UNDER = {"glob": {"report"}, "datetime": {"report", "crosslayer delay"}}
# the commands that neither read prices nor write a CSV
NO_CSV = {"decode", "detect flashloan", "detect sandwich", "crosslayer infer", "compete"}


def _command(argv):
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


def test_commands_load_only_the_modules_they_run():
    import mevlens
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("MEVLENS_LOG", None)
    watched = sorted(LOADED_ONLY_UNDER) + ["csv"]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from mevlens.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, *sorted(m for m in sys.modules if m.startswith('mevlens.')))\n"
            "print('outside:', *sorted({m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "                          - set(sys.stdlib_module_names) - {'mevlens'}))\n"
            f"print('never:', *[m for m in {NEVER_LOADED!r} if m in sys.modules])\n"
            f"print(*[m for m in {watched!r} if m in set(sys.modules) - before])\n")

    def run(argv, env):
        proc = subprocess.run(
            [sys.executable, "-c", code, *(a.format(root=root) for a in argv)],
            capture_output=True, text=True, env=env, timeout=120)
        modules, outside, never, stdlib = proc.stdout.splitlines()[-4:]
        rc, *loaded = modules.split()
        assert rc == "0", (argv, proc.stderr)
        assert outside == "outside:", (argv, outside)
        return {m.removeprefix("mevlens.") for m in loaded}, never, set(stdlib.split())

    # every command, in ARGV's order, so that report reads what detect wrote
    runs = {tuple(argv): set() for argv in ARGV.values()}
    runs.update((tuple(argv), absent) for argv, absent in NOT_LOADED)
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        for argv, absent in runs.items():
            loaded, never, stdlib = run(argv, env)
            command = _command(argv)
            assert "chain_model" in loaded, argv
            assert not absent & loaded, argv
            assert never == "never:", (argv, never)
            for module, commands in LOADED_ONLY_UNDER.items():
                assert (module in stdlib) == (command in commands), (argv, module)
            assert command not in NO_CSV or "csv" not in stdlib, argv
        # a set level loads logging, and with it only what the command runs
        loaded, never, _ = run(ARGV["decode"], dict(env, MEVLENS_LOG="INFO"))
        assert never == "never: logging", never
        assert loaded == run(ARGV["decode"], env)[0]


_CHAIN = {"--chain", "--from-block", "--to-block", "--fixtures"}
# the options of each leaf command: only those it reads
OPTION_NAMES = {
    "decode": _CHAIN,
    "detect arb": _CHAIN | {"--pools", "--prices", "--out"},
    "detect liq": _CHAIN | {"--prices", "--out"},
    "detect sandwich": _CHAIN | {"--window", "--out"},
    "detect flashloan": _CHAIN | {"--out"},
    "opportunity": _CHAIN | {"--type", "--pools", "--snapshots", "--horizon", "--out"},
    "compete": _CHAIN | {"--type", "--pools", "--snapshots", "--horizon", "--out"},
    # the two chains of a cross-layer command number their blocks apart
    "crosslayer infer": {"--chain", "--fixtures", "--pools", "--out"},
    "crosslayer delay": {"--chain", "--fixtures", "--pools", "--out"},
    "crosslayer simulate": {"--chain", "--fixtures", "--pools", "--prices", "--snapshots",
                            "--config", "--out"},
    "report": {"--out", "--prices"},
    "bytecode cluster": {"--bytecode", "--out"},
}


def test_each_command_takes_only_the_options_it_reads():
    from mevlens.cli import COMMANDS
    got = {name: {flag for flag, _ in options} for name, (options, _) in COMMANDS.items()}
    assert got == OPTION_NAMES
    # ARGV hands every command each file option it takes
    not_files = {"--chain", "--from-block", "--to-block", "--type", "--window", "--horizon"}
    for name, argv in ARGV.items():
        given = {a for a in argv if a.startswith("--")}
        assert given - not_files == OPTION_NAMES[name] - not_files, name


# a command line that is wrong before any input is read, and the usage
# error it must print
USAGE_ERRORS = [
    (ARGV["detect arb"] + ["--jobs", "1"], "unrecognized arguments: --jobs 1"),
    (ARGV["decode"] + ["--out", "x"], "unrecognized arguments: --out x"),
    (ARGV["detect flashloan"] + PRICES, "unrecognized arguments: --prices"),
    # an abbreviation is not the option it abbreviates
    (["detect", "arb", *FIXTURES, "--pool", "{root}/pools.json"],
     "unrecognized arguments: --pool"),
    (["decode", "--fix", "{root}/fixtures", *FIXTURES], "unrecognized arguments: --fix"),
    (["opportunity", *FIXTURES, *POOLS], "the following arguments are required: --snapshots"),
    (["decode"], "the following arguments are required: --fixtures"),
    (["bytecode", "cluster"], "the following arguments are required: --bytecode"),
    ([], "the following arguments are required: COMMAND"),
    (["detect"], "the following arguments are required: COMMAND"),
    (["nope"], "argument COMMAND: invalid choice: 'nope'"),
    (ARGV["detect arb"] + ["--prices", "{root}/missing.csv"], "argument --prices: path "),
    (["decode", "--fixtures", "{root}/missing"], "argument --fixtures: path "),
    (["decode", "--fixtures", "{root}/pools.json"], "argument --fixtures: "),
    (ARGV["detect flashloan"] + ["--out", "{root}/pools.json"], "argument --out: "),
    (ARGV["opportunity"] + ["--type", "sandwich"], "argument --type: invalid choice: "),
    (ARGV["decode"] + ["--chain", "solana"], "argument --chain: invalid choice: "),
    (ARGV["decode"] + ["--from-block", "x"], "argument --from-block: invalid int value"),
    (ARGV["opportunity"] + ["--horizon", "many"], "argument --horizon: "),
    # a cross-layer command needs the rollup whose executions it joins
    *[([*argv[:2], *argv[4:]], "the following arguments are required: --chain")
      for argv in CROSSLAYER],
    *[(argv + ["--chain", "ethereum"], "argument --chain: invalid choice: 'ethereum'")
      for argv in CROSSLAYER],
    # L1 and the rollup number their blocks apart: one range cannot cut both
    (ARGV["crosslayer infer"] + ["--from-block", "5000"],
     "unrecognized arguments: --from-block 5000"),
    (ARGV["crosslayer delay"] + ["--to-block", "1005"],
     "unrecognized arguments: --to-block 1005"),
    (SIMULATE + ["--from-block", "0", "--to-block", "9"],
     "unrecognized arguments: --from-block 0 --to-block 9"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv[:2]) + ": " + m for argv, m in USAGE_ERRORS])
def test_usage_error_exits_1(argv, message, capsys):
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        assert _run(root, argv) == 1, argv
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, (argv, err)
    assert err.startswith("usage: mevlens"), err


# each file option of each command, each fixture a --fixtures directory
# holds and each findings file report reads from --out: given a directory
# there, the command exits 1 naming it
FILE_OPTIONS = {"--pools", "--prices", "--snapshots", "--config", "--bytecode"}
DIRECTORY_AS_FILE = [(name, flag) for name, argv in ARGV.items()
                     for flag in argv if flag in FILE_OPTIONS] + [
    ("decode", "fixtures/ethereum.jsonl"), ("detect sandwich", "fixtures/arbitrum.jsonl"),
    ("report", "out/findings_x.jsonl")]


@pytest.mark.parametrize("command, target", DIRECTORY_AS_FILE,
                         ids=[f"{c}: {t}" for c, t in DIRECTORY_AS_FILE])
def test_directory_given_for_a_file_exits_1_naming_it(command, target, capsys):
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        argv = [a.format(root=root) for a in ARGV[command]]
        if target in FILE_OPTIONS:
            path = os.path.join(root, "a_directory")
            argv[argv.index(target) + 1] = path
        else:
            path = os.path.join(root, target)
            if os.path.exists(path):
                os.remove(path)
        os.makedirs(path)
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err and "Traceback" not in err, err


# every input path of every command, in each shape it can take but the
# directory for a file above: missing, a regular file where --fixtures
# wants a directory, below a regular file, a dangling symlink and a symlink
# to itself; the command exits 1 naming the path. The fixture files a
# --fixtures directory holds and the findings report globs from --out are
# named by the directory, so below_a_file and a file for --fixtures do not
# apply to them; report skips a missing findings file, as no name matches.
FILE_SHAPES = ("missing", "below_a_file", "dangling_symlink", "symlink_loop")
PATH_SHAPES = (
    [(name, "--fixtures", shape) for name, argv in ARGV.items() if "--fixtures" in argv
     for shape in FILE_SHAPES + ("file_for_directory",)]
    + [(name, flag, shape) for name, flag in DIRECTORY_AS_FILE if flag in FILE_OPTIONS
       for shape in FILE_SHAPES]
    + [(name, target, shape) for name, target in (
        ("decode", "fixtures/ethereum.jsonl"), ("detect sandwich", "fixtures/arbitrum.jsonl"),
        ("crosslayer infer", "fixtures/ethereum.jsonl"),
        ("crosslayer infer", "fixtures/arbitrum.jsonl"))
       for shape in ("missing", "dangling_symlink", "symlink_loop")]
    + [("report", "out/findings_x.jsonl", shape)
       for shape in ("dangling_symlink", "symlink_loop")])


@pytest.mark.parametrize("command, target, shape", PATH_SHAPES,
                         ids=[f"{c}: {t}: {s}" for c, t, s in PATH_SHAPES])
def test_input_path_shapes_exit_1_naming_the_path(command, target, shape, capsys):
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        argv = [a.format(root=root) for a in ARGV[command]]
        if target.startswith("--"):
            path = {"below_a_file": os.path.join(root, "pools.json", "x"),
                    "file_for_directory": os.path.join(root, "pools.json")}.get(
                shape, os.path.join(root, "shaped"))
            argv[argv.index(target) + 1] = path
        else:
            path = os.path.join(root, target)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if os.path.exists(path):
                os.remove(path)
        if shape == "dangling_symlink":
            os.symlink(os.path.join(root, "missing"), path)
        elif shape == "symlink_loop":
            os.symlink(path, path)
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err and "Traceback" not in err, err
    if target.startswith("--") and shape in FILE_SHAPES:
        what = ("is a broken or looping symlink" if shape in ("dangling_symlink", "symlink_loop")
                else "does not exist")
        assert f"path {path!r} {what}" in err, err


# each command that writes, and each --out it cannot write under: a path
# below a regular file, a directory where an output file goes, and a
# dangling symlink; the command exits 1 naming the path
WRITERS = [name for name, argv in ARGV.items() if "--out" in argv]
OUT_SHAPES = ("below_a_file", "output_name_is_a_directory", "dangling_symlink")


@pytest.mark.parametrize("shape", OUT_SHAPES)
@pytest.mark.parametrize("command", WRITERS)
def test_out_it_cannot_write_exits_1_naming_it(command, shape, capsys):
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        argv = [a.format(root=root) for a in ARGV[command]]
        at = argv.index("--out") + 1
        if shape == "below_a_file":
            path = os.path.join(root, "pools.json")
            argv[at] = os.path.join(path, "out")
        elif shape == "output_name_is_a_directory":
            assert main(argv) == 0, argv
            written = sorted(os.listdir(argv[at]))
            shutil.rmtree(argv[at])
            path = os.path.join(argv[at], written[0])
            os.makedirs(path)
        else:
            path = argv[at] = os.path.join(root, "dangling")
            os.symlink(os.path.join(root, "missing"), path)
        capsys.readouterr()
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err and "Traceback" not in err, err


@pytest.mark.parametrize("level", ["BASIC_FORMAT", "bogus", "", "5"])
def test_unknown_log_level_exits_1(level, monkeypatch, capsys):
    """Only a level name is a level: not another attribute of ``logging``
    and not a number."""
    monkeypatch.setenv("MEVLENS_LOG", level)
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        assert _run(root, ARGV["decode"]) == 1
        err = capsys.readouterr().err
        assert f"error: MEVLENS_LOG: unknown level {level!r}" in err, err
        assert "Traceback" not in err
        for name in ("debug", "Info", "WARNING", "error", "critical"):
            monkeypatch.setenv("MEVLENS_LOG", name)
            assert _run(root, ARGV["decode"]) == 0, name


def _bug(*args, **kwargs):
    raise ValueError("planted bug")


def test_bug_in_opportunity_simulation_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("mevlens.opportunity._swap_rule", _bug)
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root, valid_inputs())
        assert _run(root, OPPORTUNITY[0]) == 2
    assert "internal error: ValueError: planted bug" in capsys.readouterr().err


def test_bug_in_attack_simulation_exits_2(monkeypatch, capsys):
    # sizing quotes every victim's trade through swap_out, whatever the pool kind
    for kind in ("constant_product", "stableswap"):
        inputs = _mutate("pools.json", ("0x" + XL_POOL.hex(), "kind"), kind)
        with tempfile.TemporaryDirectory() as root:
            _write_inputs(root, inputs)
            assert _run(root, SIMULATE) == 0
            assert "1 scenarios" in capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setattr("mevlens.crosslayer.swap_out", _bug)
                assert _run(root, SIMULATE) == 2
        assert "internal error: ValueError: planted bug" in capsys.readouterr().err
