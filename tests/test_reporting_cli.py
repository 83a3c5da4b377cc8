import gc
import json
import logging
import os
from fractions import Fraction

import pytest

from mevlens import decoding
from mevlens.chain_model import (ARBITRUM, ETHEREUM, ChainDataset, EventLog, dump_fixture,
                                 load_fixture)
from mevlens.cli import main
from mevlens.errors import MalformedRecord
from mevlens.fixtures import (FixtureBuilder, addr, enc_aave_v2v3_liquidation,
                              enc_balancer_v1_swap, enc_flashloan, enc_inbox_message,
                              enc_redeem_scheduled, enc_transfer, word)
from mevlens.reporting import (fmt_fixed, month_of, p90, read_findings,
                               summary_stats, write_findings)
from conftest import build_planted_arb_dataset


def test_p90_nearest_rank():
    values = [Fraction(i) for i in range(1, 11)]
    assert p90(values) == 9
    assert p90([Fraction(5)]) == 5
    assert p90([Fraction(3), Fraction(1)]) == 3


def test_profit_stats_basic():
    stats = summary_stats([Fraction(i) for i in range(1, 11)])
    assert stats["total"] == 55
    assert stats["max"] == 10 and stats["min"] == 1
    assert stats["mean"] == Fraction(11, 2)
    assert stats["median"] == Fraction(11, 2)
    assert stats["p90"] == 9
    empty = summary_stats([])
    assert all(v is None for v in empty.values())


def test_fmt_fixed():
    assert fmt_fixed(Fraction(3, 2), 4) == "1.5000"
    assert fmt_fixed(Fraction(-1, 3), 6) == "-0.333333"
    assert fmt_fixed(Fraction(0), 2) == "0.00"
    assert fmt_fixed(None) is None
    # rounds toward zero
    assert fmt_fixed(Fraction(2, 3), 2) == "0.66"
    assert fmt_fixed(Fraction(-2, 3), 2) == "-0.66"


def test_month_of_utc():
    assert month_of(1_700_000_000) == "2023-11"
    assert month_of(0) == "1970-01"


def test_write_findings_deterministic(tmp_path):
    rows = [
        {"type": "arbitrage", "chain": "ethereum", "block": 7, "timestamp": 0,
         "tx_hash": "0xbb", "x": 1},
        {"type": "arbitrage", "chain": "ethereum", "block": 3, "timestamp": 0,
         "tx_hash": "0xaa", "x": 2},
        {"type": "arbitrage", "chain": "ethereum", "block": 3, "timestamp": 0,
         "tx_hash": "0x99", "x": 3},
    ]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_findings(rows, p1)
    write_findings(list(reversed(rows)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_findings(p1)
    assert [f["x"] for f in loaded] == [3, 2, 1]


# --- CLI ---

def _demo_dir(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    ds, expected = build_planted_arb_dataset()
    dump_fixture(ds, fixtures / "ethereum.jsonl")
    day = ds.blocks[0].timestamp // 86400
    prices = tmp_path / "prices.csv"
    from conftest import TOKEN_A, TOKEN_B, TOKEN_C
    lines = ["token_address,day,price_eth"]
    for token, price in ((TOKEN_A, "0.5"), (TOKEN_B, "0.25"), (TOKEN_C, "0.1")):
        lines.append(f"0x{token.hex()},{day},{price}")
    lines.append(f"ETHUSD,{day},2000")
    prices.write_text("\n".join(lines) + "\n")
    return fixtures, prices, expected


def test_cli_unknown_command_exit_1():
    assert main(["nope"]) == 1


def test_cli_missing_fixture_exit_1(tmp_path):
    empty = tmp_path / "fixtures"
    empty.mkdir()
    assert main(["detect", "arb", "--fixtures", str(empty)]) == 1


def test_cli_detect_arb_planted(tmp_path, capsys):
    fixtures, prices, expected = _demo_dir(tmp_path)
    out = tmp_path / "out"
    code = main(["detect", "arb", "--fixtures", str(fixtures),
                 "--prices", str(prices), "--out", str(out)])
    assert code == 0
    findings = read_findings(out / "findings_arb.jsonl")
    assert len(findings) == len(expected) == 25
    got = sorted((f["tx_hash"], len(f["cycle"])) for f in findings)
    want = sorted(("0x" + tx.hex(), n) for tx, n in expected)
    assert got == want
    for f in findings:
        assert f["profit_eth"] is not None and not f["unpriced"]


def test_cli_artifacts_byte_identical(tmp_path):
    fixtures, prices, _ = _demo_dir(tmp_path)
    blobs = []
    for i in range(3):
        out = tmp_path / f"out{i}"
        assert main(["detect", "arb", "--fixtures", str(fixtures),
                     "--prices", str(prices), "--out", str(out)]) == 0
        blobs.append((out / "findings_arb.jsonl").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_cli_freezes_the_dataset_and_thaws_it_on_exit(tmp_path, monkeypatch):
    """The loaded records sit in the collector's permanent generation
    while the command runs, and ``main`` hands the collector back whole
    whether the command succeeds or fails after the load."""
    from mevlens.reporting import PriceProvider
    fixtures, prices, _ = _demo_dir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("token_address,day,price_eth\nETHUSD,0\n")
    frozen = []
    real = PriceProvider.from_csv.__func__

    def recording(cls, path):
        frozen.append(gc.get_freeze_count())
        return real(cls, path)

    monkeypatch.setattr(PriceProvider, "from_csv", classmethod(recording))
    for price_file, code in ((prices, 0), (bad, 1)):
        assert main(["detect", "arb", "--fixtures", str(fixtures),
                     "--prices", str(price_file), "--out", str(tmp_path / "out")]) == code
        assert gc.get_freeze_count() == 0
    assert len(frozen) == 2 and min(frozen) > 0


def test_cli_block_range_filter(tmp_path):
    fixtures, prices, _ = _demo_dir(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "arb", "--fixtures", str(fixtures),
                 "--from-block", "1", "--to-block", "5",
                 "--out", str(out)]) == 0
    findings = read_findings(out / "findings_arb.jsonl")
    assert len(findings) == 5
    assert all(1 <= f["block"] <= 5 for f in findings)


def test_cli_report_from_findings(tmp_path):
    fixtures, prices, _ = _demo_dir(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "arb", "--fixtures", str(fixtures),
                 "--prices", str(prices), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out), "--prices", str(prices)]) == 0
    stats = (out / "profit_stats.csv").read_text().splitlines()
    assert stats[0].startswith("chain,type,count")
    row = stats[1].split(",")
    assert row[:3] == ["ethereum", "arbitrage", "25"]
    monthly = (out / "monthly_counts.csv").read_text().splitlines()
    assert monthly[1].split(",")[1:] == ["arbitrage", "ethereum", "25"]


def _finding_row(**fields):
    row = {"type": "arbitrage", "chain": "ethereum", "block": 1, "timestamp": 1_600_000_000,
           "tx_hash": "0x01", "profit_eth": "-0.5", "flash_loans": [{"provider": "aave_v2"}]}
    row.update(fields)
    return json.dumps({k: v for k, v in row.items() if v is not None})


MALFORMED_FINDINGS = {
    "invalid_json": '{"type": "arbitrage", ',
    "non_object": "[1, 2]",
    "missing_type": _finding_row(type=None),
    "non_string_chain": _finding_row(chain=1),
    "missing_timestamp": _finding_row(timestamp=None),
    "bool_timestamp": _finding_row(timestamp=True),
    # month_of cannot render years past 9999
    "timestamp_past_year_9999": _finding_row(timestamp=10 ** 30),
    "non_decimal_profit": _finding_row(profit_eth="1e3"),
    "flash_loans_not_list": _finding_row(flash_loans={"provider": "aave_v2"}),
    "flash_loan_without_provider": _finding_row(flash_loans=[{}]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FINDINGS))
def test_cli_report_malformed_findings_exit_1(tmp_path, capsys, name):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "findings_arb.jsonl"
    path.write_text(_finding_row() + "\n" + MALFORMED_FINDINGS[name] + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_findings(path)
    assert exc.value.line == 2
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 2: " in err
    assert "internal error" not in err and "Traceback" not in err


def test_cli_report_empty_out_dir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["report", "--out", str(out)]) == 0
    for name in ("profit_stats.csv", "monthly_counts.csv",
                 "flash_loan_shares.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 1  # header only


def test_cli_decode_counts(tmp_path, capsys):
    fixtures, _, _ = _demo_dir(tmp_path)
    assert main(["decode", "--fixtures", str(fixtures)]) == 0
    printed = capsys.readouterr().out
    assert "Balancer V1" in printed or "LOG_SWAP" in printed or printed.strip()


def test_make_demo_script(tmp_path):
    import subprocess
    import sys
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "..",
                                      "scripts", "make_demo.py"),
         "--out", str(tmp_path / "demo")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    out = tmp_path / "out"
    assert main(["detect", "arb", "--fixtures", str(tmp_path / "demo"),
                 "--prices", str(tmp_path / "demo" / "prices.csv"),
                 "--out", str(out)]) == 0
    assert len(read_findings(out / "findings_arb.jsonl")) == 25


def test_cli_detect_arb_without_block_records(tmp_path):
    """Arbitrage findings come from the logs alone: block records that stop
    before the last planted cycle, or are missing, lose no finding."""
    ds, expected = build_planted_arb_dataset()
    want = sorted(("0x" + tx.hex(), n) for tx, n in expected)
    for blocks in (ds.blocks[:22], []):
        fixtures = tmp_path / f"fixtures{len(blocks)}"
        fixtures.mkdir()
        dump_fixture(ChainDataset(ds.chain, blocks, ds.txs, ds.logs), fixtures / "ethereum.jsonl")
        out = tmp_path / f"out{len(blocks)}"
        assert main(["detect", "arb", "--fixtures", str(fixtures), "--out", str(out)]) == 0
        findings = read_findings(out / "findings_arb.jsonl")
        assert sorted((f["tx_hash"], len(f["cycle"])) for f in findings) == want


def test_cli_internal_error_exit_2(tmp_path, monkeypatch, capsys):
    fixtures, _, _ = _demo_dir(tmp_path)

    def broken(log, entry):
        raise ValueError("decoder bug")

    monkeypatch.setitem(decoding._DECODERS, "balancer_v1_swap", broken)
    assert main(["detect", "arb", "--fixtures", str(fixtures),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "internal error: ValueError: decoder bug" in err
    assert "Traceback" not in err


def _layout_fixtures(root, with_bad_logs):
    """Ethereum and Arbitrum fixtures with two arbitrages, a liquidation, a
    flash loan, an L2 sandwich and one bridged L2 victim swap. With
    ``with_bad_logs``, one log per kind that does not match its event
    layout is added at the end of its tx: an Aave V2 FlashLoan and a
    LiquidationCall each missing a topic, and a 4-topic (ERC-721) Transfer."""
    t_a, t_b = addr(0xA1), addr(0xB1)
    l1 = FixtureBuilder(ETHEREUM)
    for _ in range(2):
        l1.block()
        l1.tx()
        l1.log(addr(0xD1), *enc_balancer_v1_swap(addr(0xEE), t_a, t_b, 100, 205))
        l1.log(addr(0xD2), *enc_balancer_v1_swap(addr(0xEE), t_b, t_a, 205, 120))
    l1.block()
    l1.tx()
    l1.log(addr(0xAA), *enc_flashloan("aave_v2", t_a, 10 ** 18, 9))
    l1.tx()
    l1.log(addr(0xAB), *enc_aave_v2v3_liquidation(t_a, t_b, addr(0xB0), 500, 600,
                                                  addr(0xC0)))
    l1.tx()
    l1.tx()
    l1.log(addr(0x1B), *enc_inbox_message(7))

    token, pool, attacker, victim = addr(0x70), addr(0x71), addr(0x72), addr(0x74)
    l2 = FixtureBuilder(ARBITRUM, start_timestamp=1_600_000_100)
    l2.block()
    for sender, receiver, amount in ((pool, attacker, 100), (pool, addr(0x73), 50),
                                     (attacker, pool, 90)):
        l2.tx()
        l2.log(token, *enc_transfer(sender, receiver, amount))
    l2.block()
    l2.tx()
    l2.log(addr(0x1C), *enc_redeem_scheduled(7))
    l2.log(token, *enc_transfer(victim, pool, 10))
    l2.log(token, *enc_transfer(pool, victim, 9))
    l1_ds, l2_ds = l1.dataset(), l2.dataset()

    if with_bad_logs:
        def bad(ds, block, tx_index, topics, data):
            tx = next(t for t in ds.txs if (t.block_number, t.tx_index) == (block, tx_index))
            ds.logs.append(EventLog(ds.chain, addr(0xBAD), tuple(topics), data, block,
                                    tx_index, 900 + len(ds.logs), tx.hash))

        topics, data = enc_flashloan("aave_v2", t_a, 10 ** 18, 9)
        bad(l1_ds, 1, 0, topics[:3], data)            # inside the first arbitrage
        topics, data = enc_aave_v2v3_liquidation(t_a, t_b, addr(0xB0), 5, 6, addr(0xC0))
        bad(l1_ds, 3, 2, topics[:3], data)
        topics, _ = enc_transfer(pool, victim, 0)
        bad(l2_ds, 2, 0, topics + [word(1)], b"")     # inside the linked L2 tx
    root.mkdir()
    dump_fixture(l1_ds, root / "ethereum.jsonl")
    dump_fixture(l2_ds, root / "arbitrum.jsonl")


def test_cli_skips_logs_that_break_their_layout(tmp_path, caplog):
    """A log that does not match its event layout is skipped the same way
    by every command: exit 0, the findings of the fixture without it, and
    one DEBUG record naming its position and the reason."""
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    _layout_fixtures(clean, with_bad_logs=False)
    _layout_fixtures(dirty, with_bad_logs=True)
    caplog.set_level(logging.DEBUG, logger="mevlens")
    commands = (
        (["detect", "arb"], "findings_arb.jsonl", 2),
        (["detect", "liq"], "findings_liq.jsonl", 1),
        (["detect", "flashloan"], "findings_flashloan.jsonl", 1),
        (["detect", "sandwich", "--chain", "arbitrum"], "findings_sandwich.jsonl", 1),
        (["crosslayer", "infer", "--chain", "arbitrum"], "victims.jsonl", 1),
    )
    for argv, output, n_findings in commands:
        blobs = []
        for fixtures in (clean, dirty):
            caplog.clear()
            out = fixtures / "out"
            assert main(argv + ["--fixtures", str(fixtures), "--out", str(out)]) == 0, argv
            skipped = [r for r in caplog.records
                       if r.name == "mevlens" and r.levelno == logging.DEBUG]
            assert len(skipped) == (fixtures is dirty), argv
            if skipped:
                assert "expects" in skipped[0].getMessage(), argv
            blobs.append((out / output).read_bytes())
        assert blobs[0] == blobs[1], argv
        assert len(blobs[0].splitlines()) == n_findings, argv


def test_info_log_says_what_the_loader_read(tmp_path):
    """MEVLENS_LOG=INFO logs one line per loaded fixture, with its counts
    and the lines that took the json path; the default level logs nothing,
    and the findings are byte-identical either way."""
    import subprocess
    import sys
    import mevlens
    fixtures, prices, _ = _demo_dir(tmp_path)
    path = fixtures / "ethereum.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(json.loads(lines[0]), sort_keys=True)  # one line off the layout
    path.write_text("".join(line + "\n" for line in lines))
    ds = load_fixture(path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "MEVLENS_LOG"}
    env["PYTHONPATH"] = src
    runs = []
    for level in (None, "INFO"):
        out = tmp_path / f"out_{level}"
        proc = subprocess.run(
            [sys.executable, "-m", "mevlens.cli", "detect", "arb", "--fixtures", str(fixtures),
             "--prices", str(prices), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=env if level is None else dict(env, MEVLENS_LOG=level))
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stderr, (out / "findings_arb.jsonl").read_bytes()))
    (quiet, findings), (info, info_findings) = runs
    assert quiet == ""
    assert info == (f"INFO mevlens: loaded {path}: {len(ds.blocks)} blocks, {len(ds.txs)} txs, "
                    f"{len(ds.logs)} logs; json-path lines: 1\n")
    assert findings == info_findings and findings
