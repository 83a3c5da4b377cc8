import gc
import json
import logging
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mevlens import decoding, fixture_cache, reporting
from mevlens.amm import PoolInfo, dump_pool_metadata
from mevlens.chain_model import (ARBITRUM, ETHEREUM, ChainDataset, EventLog, dump_fixture,
                                 load_fixture)
from mevlens.cli import main
from mevlens.errors import MalformedRecord
from mevlens.fixtures import (FixtureBuilder, addr, enc_aave_v2v3_liquidation,
                              enc_balancer_v1_swap, enc_flashloan, enc_inbox_message,
                              enc_redeem_scheduled, enc_transfer, enc_uniswap_v3_swap,
                              word)
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


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=50)
       | st.lists(st.fractions(), min_size=1, max_size=50))
def test_summary_stats_matches_naive_definitions(values):
    """Each statistic, of integers or of Fractions, equals its definition
    computed on its own: P90 is the value at rank ceil(0.9 n) of the
    ascending sample, and Total, Mean and Median are Fractions."""
    n, xs = len(values), sorted(values)
    rank = next(r for r in range(1, n + 1) if 10 * r >= 9 * n)
    median = Fraction(xs[(n - 1) // 2] + xs[n // 2], 2)
    expected = {"total": Fraction(sum(values)), "max": max(values), "p90": xs[rank - 1],
                "mean": Fraction(sum(values)) / n, "median": median, "min": min(values)}
    stats = summary_stats(values)
    assert stats == expected
    assert {type(stats[k]) for k in ("total", "mean", "median")} == {Fraction}
    assert {type(stats[k]) for k in ("max", "p90", "min")} == {type(values[0])}
    assert p90(values) == stats["p90"]


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


class _CountedRow(dict):
    """A findings row that counts how many of its kind are alive at once."""

    live = most = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CountedRow.live += 1
        _CountedRow.most = max(_CountedRow.most, _CountedRow.live)

    def __del__(self):
        _CountedRow.live -= 1


def _row(block, tx_hash, **fields):
    return {"type": "arbitrage", "chain": "ethereum", "block": block, "timestamp": 0,
            "tx_hash": tx_hash, **fields}


def test_write_findings_holds_one_row_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(_CountedRow, "live", 0)
    monkeypatch.setattr(_CountedRow, "most", 0)
    rows = (_CountedRow(_row(100 - i, f"0x{i:02x}", x=i)) for i in range(50))
    count = write_findings(rows, tmp_path / "f.jsonl")
    assert _CountedRow.most == 1
    assert count == 50
    assert [f["x"] for f in read_findings(tmp_path / "f.jsonl")] == list(range(49, -1, -1))


def test_write_findings_keeps_input_order_on_equal_keys(tmp_path):
    # line order would put x=1 first; ties must keep the order they came in
    rows = [_row(3, "0xaa", x=2), _row(1, "0xbb", x=0), _row(3, "0xaa", x=1),
            _row(3, "0xaa", x=3, type="sandwich")]
    write_findings(iter(rows), tmp_path / "f.jsonl")
    assert [f["x"] for f in read_findings(tmp_path / "f.jsonl")] == [0, 2, 1, 3]


def test_write_findings_returns_the_count(tmp_path):
    assert write_findings(iter(()), tmp_path / "empty.jsonl") == 0
    assert (tmp_path / "empty.jsonl").read_bytes() == b""
    assert write_findings([_row(1, "0x01"), _row(1, "0x02")], tmp_path / "two.jsonl") == 2


def test_write_findings_writes_nothing_when_a_row_raises(tmp_path):
    def rows():
        yield _row(1, "0x01")
        raise ValueError("row bug")

    path = tmp_path / "out" / "f.jsonl"
    with pytest.raises(ValueError, match="row bug"):
        write_findings(rows(), path)
    assert not (tmp_path / "out").exists()


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
    findings = list(read_findings(out / "findings_arb.jsonl"))
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
    findings = list(read_findings(out / "findings_arb.jsonl"))
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
        list(read_findings(path))
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


def _findings_file(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(row + "\n" for row in rows))


def _report_tables(out):
    return {name: (out / f"{name}.csv").read_text()
            for name in ("monthly_counts", "profit_stats", "flash_loan_shares")}


GLOB_ROWS = [_finding_row(), _finding_row(type="liquidation", profit_eth="1.25", flash_loans=[]),
             _finding_row(timestamp=1_650_000_000, profit_eth=None)]


@pytest.mark.parametrize("name", ["out[1]", "out*", "out?"])
def test_cli_report_reads_a_directory_named_with_glob_metacharacters(tmp_path, name):
    """The --out directory is matched as named: a glob metacharacter in
    it neither hides its findings nor reads a sibling's, here ``out1``."""
    for directory in ("plain", name):
        _findings_file(tmp_path / directory / "findings_arb.jsonl", GLOB_ROWS)
    _findings_file(tmp_path / "out1" / "findings_arb.jsonl", [_finding_row(chain="arbitrum")])
    for directory in ("plain", name):
        assert main(["report", "--out", str(tmp_path / directory)]) == 0
    tables = _report_tables(tmp_path / name)
    assert tables == _report_tables(tmp_path / "plain")
    assert len(tables["monthly_counts"].splitlines()) == 1 + len(GLOB_ROWS)


def test_cli_report_logs_the_files_and_rows_it_read(tmp_path, caplog):
    out, empty = tmp_path / "out", tmp_path / "empty"
    _findings_file(out / "findings_liq.jsonl", GLOB_ROWS[:2])
    _findings_file(out / "findings_arb.jsonl", GLOB_ROWS)
    _findings_file(out / "opportunities_arb.jsonl", ['{"type": "opportunity_arb"}'])
    empty.mkdir()
    with caplog.at_level(logging.INFO, logger="mevlens"):
        assert main(["report", "--out", str(out)]) == 0
        assert main(["report", "--out", str(empty)]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelname == "INFO"] == [
        f"report: read 5 rows from 2 files in {out}; findings_arb.jsonl: 3; "
        "findings_liq.jsonl: 2",
        f"report: read 0 rows from 0 files in {empty}"]


def test_cli_report_names_the_line_of_a_malformed_row_in_a_later_file(tmp_path, capsys):
    """Rows are read as the report folds them; a bad row still exits 1
    naming its file and line (blank lines counted), and no table is
    written."""
    out = tmp_path / "out"
    _findings_file(out / "findings_arb.jsonl", GLOB_ROWS)
    _findings_file(out / "findings_liq.jsonl",
                   [GLOB_ROWS[1], "", _finding_row(), MALFORMED_FINDINGS["bool_timestamp"]])
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{out / 'findings_liq.jsonl'}: line 4: timestamp must be an integer" in err
    assert sorted(os.listdir(out)) == ["findings_arb.jsonl", "findings_liq.jsonl"]


def test_emit_report_holds_one_row_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(_CountedRow, "live", 0)
    monkeypatch.setattr(_CountedRow, "most", 0)
    rows = (_CountedRow(json.loads(_finding_row(profit_eth=f"{i}.5"))) for i in range(50))
    reporting.emit_report(rows, tmp_path)
    assert _CountedRow.most == 1
    assert (tmp_path / "profit_stats.csv").read_text().splitlines()[1].startswith(
        "ethereum,arbitrage,50,")


def test_cli_report_holds_one_row_at_a_time(tmp_path, monkeypatch):
    """Through ``report``: the files' rows pass one at a time from the
    reader through the count to the fold."""
    monkeypatch.setattr(_CountedRow, "live", 0)
    monkeypatch.setattr(_CountedRow, "most", 0)
    finding = reporting._finding
    monkeypatch.setattr(reporting, "_finding", lambda obj: _CountedRow(finding(obj)))
    out = tmp_path / "out"
    for kind in ("arb", "liq"):
        _findings_file(out / f"findings_{kind}.jsonl", GLOB_ROWS * 10)
    assert main(["report", "--out", str(out)]) == 0
    assert _CountedRow.most == 1
    assert _report_tables(out)["monthly_counts"].splitlines()[1:] == [
        "2020-09,arbitrage,ethereum,20", "2020-09,liquidation,ethereum,20",
        "2022-04,arbitrage,ethereum,20"]


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


REPORT_ROWS = st.lists(st.fixed_dictionaries({
    "type": st.sampled_from(["arbitrage", "liquidation", "sandwich"]),
    "chain": st.sampled_from(["ethereum", "arbitrum"]),
    "timestamp": st.integers(1_600_000_000, 1_700_000_000),
    "profit_eth": st.none() | st.integers(-10 ** 21, 10 ** 21).map(
        lambda units: fmt_fixed(Fraction(units, 10 ** 18))),
    "flash_loans": st.lists(st.fixed_dictionaries(
        {"provider": st.sampled_from(["aave_v2", "balancer"])}), max_size=2),
}), min_size=1, max_size=15)


@settings(max_examples=40, deadline=None)
@given(rows=REPORT_ROWS, k=st.integers(2, 4))
def test_report_of_k_copies_scales_counts_and_keeps_statistics(tmp_path_factory, rows, k):
    """Metamorphic relation: the findings repeated k times (here split over
    two files) give k times every month, flash-loan and profit count and
    the total, and the same max, P90, mean, median and min; nearest-rank
    P90 and the median do not move under k-fold repetition."""
    once, k_fold = tmp_path_factory.mktemp("once"), tmp_path_factory.mktemp("k_fold")
    lines = [json.dumps(row) for row in rows]
    _findings_file(once / "findings_arb.jsonl", lines)
    _findings_file(k_fold / "findings_arb.jsonl", lines)
    _findings_file(k_fold / "findings_sandwich.jsonl", lines * (k - 1))
    for out in (once, k_fold):
        assert main(["report", "--out", str(out)]) == 0
    base, scaled = _report_tables(once), _report_tables(k_fold)
    for name in ("monthly_counts", "flash_loan_shares"):
        assert _csv_rows(scaled[name]) == [row[:-1] + [str(k * int(row[-1]))]
                                           for row in _csv_rows(base[name])]
    stats = _csv_rows(base["profit_stats"])
    assert [row[:2] for row in _csv_rows(scaled["profit_stats"])] == [row[:2] for row in stats]
    for row, scaled_row in zip(stats, _csv_rows(scaled["profit_stats"])):
        chain, typ, count, total, *kept = row
        assert int(scaled_row[2]) == k * int(count)
        assert Fraction(scaled_row[3]) == k * Fraction(total)
        assert scaled_row[4:] == kept


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
    assert len(list(read_findings(out / "findings_arb.jsonl"))) == 25


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

    def broken(log, pools, *fields):
        raise ValueError("decoder bug")

    layout = decoding._LAYOUTS["balancer_v1_swap"]
    monkeypatch.setitem(decoding._LAYOUTS, "balancer_v1_swap", layout._replace(rule=broken))
    assert main(["detect", "arb", "--fixtures", str(fixtures),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "internal error: ValueError: decoder bug" in err
    assert "Traceback" not in err


def test_cli_row_that_raises_leaves_no_out_dir(tmp_path, monkeypatch, capsys):
    from mevlens import reporting
    fixtures = tmp_path / "fixtures"
    _layout_fixtures(fixtures, with_bad_logs=False)

    def broken(finding, chain, timestamp):
        raise ValueError("serializer bug")

    monkeypatch.setattr(reporting, "sandwich_to_json", broken)
    out = tmp_path / "out"
    assert main(["detect", "sandwich", "--chain", "arbitrum", "--fixtures", str(fixtures),
                 "--out", str(out)]) == 2
    assert "internal error: ValueError: serializer bug" in capsys.readouterr().err
    assert not out.exists()


# the pool of the bridged L2 victim swap in ``_layout_fixtures``
LAYOUT_POOL = addr(0x71)
LAYOUT_POOLS = {LAYOUT_POOL: PoolInfo(LAYOUT_POOL, "constant_product", (addr(0x70), addr(0x75)),
                                      3, 1000)}


def _layout_fixtures(root, with_bad_logs):
    """Ethereum and Arbitrum fixtures with two arbitrages, a liquidation, a
    flash loan, an L2 sandwich and one bridged L2 victim swap (token 0x70
    in, a Uniswap V3 Swap at ``LAYOUT_POOL``, token 0x75 out). With
    ``with_bad_logs``, one log per kind that does not match its event
    layout is added at the end of its tx: an Aave V2 FlashLoan, a
    LiquidationCall and a Uniswap V3 Swap each missing a topic, and a
    4-topic (ERC-721) Transfer."""
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

    token, pool, attacker, victim = addr(0x70), LAYOUT_POOL, addr(0x72), addr(0x74)
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
    l2.log(pool, *enc_uniswap_v3_swap(victim, victim, 10, -9))
    l2.log(addr(0x75), *enc_transfer(pool, victim, 9))
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
        # both inside the linked L2 tx: detect sandwich reads the Transfer,
        # crosslayer infer the Swap
        topics, _ = enc_transfer(pool, victim, 0)
        bad(l2_ds, 2, 0, topics + [word(1)], b"")
        topics, data = enc_uniswap_v3_swap(victim, victim, 10, -9)
        bad(l2_ds, 2, 0, topics[:2], data)
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
    pools = tmp_path / "pools.json"
    dump_pool_metadata(LAYOUT_POOLS, pools)
    caplog.set_level(logging.DEBUG, logger="mevlens")
    commands = (
        (["detect", "arb"], "findings_arb.jsonl", 2),
        (["detect", "liq"], "findings_liq.jsonl", 1),
        (["detect", "flashloan"], "findings_flashloan.jsonl", 1),
        (["detect", "sandwich", "--chain", "arbitrum"], "findings_sandwich.jsonl", 1),
        (["crosslayer", "infer", "--chain", "arbitrum", "--pools", str(pools)],
         "victims.jsonl", 1),
    )
    for argv, output, n_findings in commands:
        blobs = []
        for fixtures in (clean, dirty):
            caplog.clear()
            out = fixtures / "out"
            assert main(argv + ["--fixtures", str(fixtures), "--out", str(out)]) == 0, argv
            # beside the skip lines, DEBUG holds the fixture cache's line
            skipped = [r for r in caplog.records
                       if r.name == "mevlens" and r.levelno == logging.DEBUG
                       and r.module != "fixture_cache"]
            assert len(skipped) == (fixtures is dirty), argv
            if skipped:
                assert "expects" in skipped[0].getMessage(), argv
            blobs.append((out / output).read_bytes())
        assert blobs[0] == blobs[1], argv
        assert len(blobs[0].splitlines()) == n_findings, argv
    # the victim is the decoded two-token swap
    victim = json.loads((clean / "out" / "victims.jsonl").read_text())
    assert (victim["pool"], victim["token_in"], victim["token_out"], victim["amount_in"]) == (
        f"0x{LAYOUT_POOL.hex()}", f"0x{addr(0x70).hex()}", f"0x{addr(0x75).hex()}", "10")


def _fresh_process(argv, level, code=None):
    """``python -m mevlens.cli`` (or ``-c code``) run with ``argv`` in a
    fresh interpreter, with MEVLENS_LOG set to ``level`` (None: unset)."""
    import subprocess
    import sys
    import mevlens
    env = {k: v for k, v in os.environ.items() if k != "MEVLENS_LOG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    if level is not None:
        env["MEVLENS_LOG"] = level
    run = ["-m", "mevlens.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *run, *argv], capture_output=True, text=True,
                          timeout=120, env=env)


def test_info_log_says_what_the_loader_read(tmp_path):
    """MEVLENS_LOG=INFO logs one line per loaded fixture, with its counts
    and the lines that took the json path; the default level logs nothing,
    and the findings are byte-identical either way."""
    fixtures, prices, _ = _demo_dir(tmp_path)
    path = fixtures / "ethereum.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(json.loads(lines[0]), sort_keys=True)  # one line off the layout
    path.write_text("".join(line + "\n" for line in lines))
    ds = load_fixture(path)
    runs = []
    for level in (None, "INFO"):
        out = tmp_path / f"out_{level}"
        proc = _fresh_process(["detect", "arb", "--fixtures", str(fixtures),
                               "--prices", str(prices), "--out", str(out)], level)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stderr, (out / "findings_arb.jsonl").read_bytes()))
    (quiet, findings), (info, info_findings) = runs
    assert quiet == ""
    assert info == (f"INFO mevlens: loaded {path}: {len(ds.blocks)} blocks, {len(ds.txs)} txs, "
                    f"{len(ds.logs)} logs; json-path lines: 1\n")
    assert findings == info_findings and findings


def _one_broken_log(tmp_path):
    """detect arb's arguments on the planted arbitrages, whose first swap
    log is short of a topic, and the fixture's path."""
    fixtures, prices, _ = _demo_dir(tmp_path)
    path = fixtures / "ethereum.jsonl"
    lines = path.read_text().splitlines()
    n = next(i for i, text in enumerate(lines) if json.loads(text)["kind"] == "log")
    record = json.loads(lines[n])
    record["topics"].pop()
    lines[n] = json.dumps(record, separators=(",", ":"))
    path.write_text("".join(line + "\n" for line in lines))
    return ["detect", "arb", "--fixtures", str(fixtures), "--prices", str(prices),
            "--out", str(tmp_path / "out")], path


def test_debug_lines_of_a_fresh_process(tmp_path):
    """A command that imports logging only when MEVLENS_LOG is set prints,
    at DEBUG, the loader's INFO line and the skip line it printed when
    every process imported logging, byte for byte; unset, nothing. The
    fixture cache's line comes first: a miss that writes the entry, then
    a hit, and the lines after it are the same."""
    argv, path = _one_broken_log(tmp_path)
    entry = fixture_cache.entry_path(path)
    lines = (f"INFO mevlens: loaded {path}: 29 blocks, 29 txs, 67 logs; json-path lines: 0\n"
             "DEBUG mevlens: skipped LOG_SWAP log at (1, 0, 0): LOG_SWAP expects 4 topics\n")
    cold = _fresh_process(argv, "DEBUG")
    assert cold.returncode == 0, cold.stderr
    assert cold.stderr == f"DEBUG mevlens: fixture cache miss (no entry): wrote {entry}\n" + lines
    warm = _fresh_process(argv, "DEBUG")
    assert (warm.returncode, warm.stdout) == (0, cold.stdout)
    assert warm.stderr == f"DEBUG mevlens: fixture cache hit: {entry}\n" + lines
    quiet = _fresh_process(argv, None)
    assert (quiet.returncode, quiet.stderr, quiet.stdout) == (0, "", cold.stdout)


def test_bug_prints_its_traceback_only_at_debug(tmp_path):
    """A bug planted in a fresh process exits 2; MEVLENS_LOG=DEBUG adds its
    traceback before the one line printed at every level."""
    argv, path = _one_broken_log(tmp_path)
    code = ("import sys\nimport mevlens.detectors\n"
            "def planted(*args):\n    raise ValueError('planted bug')\n"
            "mevlens.detectors.detect_arbitrages = planted\n"
            "from mevlens.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    quiet = _fresh_process(argv, None, code)
    assert (quiet.returncode, quiet.stderr) == (2, "internal error: ValueError: planted bug\n")
    debug = _fresh_process(argv, "DEBUG", code)
    assert debug.returncode == 2
    head, _, trace = debug.stderr.partition(
        "DEBUG mevlens: internal error\nTraceback (most recent call last):\n")
    # the quiet run wrote the fixture's cache entry
    assert head.startswith(f"DEBUG mevlens: fixture cache hit: {fixture_cache.entry_path(path)}\n"
                           "INFO mevlens: loaded ") and "skipped LOG_SWAP" in head, head
    assert 'line 4, in planted\n' in trace, trace
    assert trace.endswith("ValueError: planted bug\ninternal error: ValueError: planted bug\n")


def test_records_reach_a_handler_on_the_mevlens_logger(tmp_path):
    """A host that configures logging gets mevlens's records as the
    ``mevlens`` logger made them: level, name, message, arguments,
    exception and the line that logged. mevlens logs only at DEBUG and
    INFO, so a higher level is no method."""
    from mevlens.chain_model import _log
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("mevlens")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        _log.info("loaded %s: %d blocks", "x.jsonl", 3)
        try:
            raise ValueError("boom")
        except ValueError:
            _log.debug("internal error", exc_info=True)
        argv, _ = _one_broken_log(tmp_path)
        assert main(argv) == 0
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert [(r.levelname, r.name, r.msg, r.args) for r in records[:2]] == [
        ("INFO", "mevlens", "loaded %s: %d blocks", ("x.jsonl", 3)),
        ("DEBUG", "mevlens", "internal error", ())]
    assert records[1].exc_info[0] is ValueError
    assert {(r.module, r.funcName) for r in records} == {
        ("test_reporting_cli", "test_records_reach_a_handler_on_the_mevlens_logger"),
        ("fixture_cache", "load"), ("chain_model", "load_fixture"),
        ("decoding", "_decode_or_skip")}
    assert [r.levelname for r in records[2:]] == ["DEBUG", "INFO", "DEBUG"]
    with pytest.raises(AttributeError):
        _log.warning("no such level")
