"""A command's fixture load keeps only the logs of the event categories it
decodes. Its oracle: the same command with every log loaded. Each command
that takes --fixtures must write the same files, print the same lines and
exit the same way on fixtures that hold every registered schema and logs
of unknown topics, so a command whose load leaves out a category that
one of its detectors reads fails here."""

import importlib.util
import os
import shutil

import pytest

from mevlens import cli
from mevlens.amm import PoolInfo, dump_pool_metadata
from mevlens.chain_model import ARBITRUM, ETHEREUM, Layer, CHAINS
from mevlens.fixtures import (FixtureBuilder, _topic, addr, dump_fixture, enc_aave_v1_liquidation,
                              enc_aave_v2v3_liquidation, enc_answer_updated,
                              enc_balancer_v1_swap, enc_balancer_v2_swap,
                              enc_compound_liquidate, enc_compound_redeem, enc_curve_exchange,
                              enc_flashloan, enc_inbox_message, enc_priority_request,
                              enc_redeem_scheduled, enc_token_swap, enc_transaction_deposited,
                              enc_transfer, enc_uniswap_v2_swap, enc_uniswap_v3_swap, word)
from mevlens.registry import DEFAULT_REGISTRY

from conftest import XL_POOL, XL_TA, XL_TB, build_crosslayer_fixture

TA, TB, TK = addr(0xA1), addr(0xB1), addr(0xC1)
V1, BV2, U2, U3, CU, SS = (addr(0xD0 + i) for i in range(6))
FEED, BORROWER, COMPOUND_BORROWER = addr(0xF1), addr(0xBB), addr(0xBC)
POOL, ATTACKER, VICTIM = addr(0x51), addr(0x52), addr(0x53)
UNKNOWN = [b"\x0f" * 32]   # a topic no registry entry names

POOLS = {p: PoolInfo(p, "constant_product", (TA, TB), 3, 1000) for p in (U2, U3, CU)}
POOLS[SS] = PoolInfo(SS, "stableswap", (TB, TA), 4, 10000)
POOLS[XL_POOL] = PoolInfo(XL_POOL, "constant_product", (XL_TA, XL_TB), 3, 1000)


def _sandwich(fb):
    """Front, victim and back transfers of TK through POOL in one block."""
    fb.block()
    for sender, receiver, amount in ((POOL, ATTACKER, 100), (POOL, VICTIM, 50),
                                     (ATTACKER, POOL, 90)):
        fb.tx()
        fb.log(TK, *enc_transfer(sender, receiver, amount))


def _every_schema():
    """Ethereum: an oracle update that opens two liquidations of one
    borrower (with a flash loan), two Compound liquidations each redeemed
    under one of Redeem's topics, cycles through every DEX swap (one with a
    StableSwap leg and three flash loans), a sandwich and every L1 bridge
    message. Arbitrum: a sandwich and the execution of the Arbitrum
    message, carrying a Uniswap V3 victim swap. Unknown topics throughout."""
    l1 = FixtureBuilder(ETHEREUM)
    l1.block()
    l1.tx()
    l1.log(FEED, *enc_answer_updated(10 ** 8))
    l1.log(FEED, UNKNOWN)
    for _ in range(3):
        l1.block()
    l1.tx(sender=addr(0x101))
    l1.log(addr(0xAB), *enc_aave_v2v3_liquidation(TA, TB, BORROWER, 500, 600, addr(0x101)))
    l1.log(addr(0xAA), *enc_flashloan("aave_v2", TB, 500, 1))
    l1.tx(sender=addr(0x102))
    l1.log(addr(0xAC), *enc_aave_v1_liquidation(TA, TB, BORROWER, 400, 450, addr(0x102)))
    for redeem in (t.topic for t in DEFAULT_REGISTRY.entries() if t.schema == "compound_redeem"):
        l1.tx()
        l1.log(addr(0xCE), *enc_compound_liquidate(addr(0x103), COMPOUND_BORROWER, 300, TA, 7))
        _, data = enc_compound_redeem(addr(0x103), 310, 7)
        l1.log(TA, [redeem], data)
    l1.block()
    l1.tx()
    l1.log(V1, *enc_balancer_v1_swap(addr(0xEE), TA, TB, 100, 205))
    l1.log(SS, *enc_token_swap(addr(0xEE), 205, 120, 0, 1))
    for provider in ("aave_v1", "aave_v3", "balancer"):
        l1.log(addr(0xAA), *enc_flashloan(provider, TA, 100, 1))
    l1.log(V1, UNKNOWN)
    l1.tx()
    l1.log(U2, *enc_uniswap_v2_swap(addr(0xEE), addr(0xEE), 100, 0, 0, 205))
    l1.log(U3, *enc_uniswap_v3_swap(addr(0xEE), addr(0xEE), -120, 205))
    l1.tx()
    l1.log(CU, *enc_curve_exchange(addr(0xEE), 0, 100, 1, 205))
    l1.log(BV2, *enc_balancer_v2_swap(b"\x01" * 32, TB, TA, 205, 120))
    l1.tx()
    l1.log(CU, *enc_curve_exchange(addr(0xEE), 1, 205, 0, 120, underlying=True))
    _sandwich(l1)
    l1.block()
    l1.tx()
    l1.log(addr(0x1001), *enc_inbox_message(7))
    l1.log(addr(0x1002), *enc_transaction_deposited(b"deposited"))
    l1.log(addr(0x1002), [_topic("Optimism", "TransactionEnqueued"), word(1)],
           b"enqueued".ljust(32, b"\0"))
    l1.log(addr(0x1003), *enc_priority_request())

    l2 = FixtureBuilder(ARBITRUM, start_timestamp=l1.timestamp + 60)
    _sandwich(l2)
    l2.block()
    l2.tx()
    l2.log(addr(0x1001), *enc_redeem_scheduled(7))
    l2.log(U3, *enc_uniswap_v3_swap(VICTIM, VICTIM, 10 ** 4, -9900))
    l2.log(U3, UNKNOWN)
    return {"ethereum": l1.dataset(), "arbitrum": l2.dataset()}


def _demo():
    spec = importlib.util.spec_from_file_location("make_demo", os.path.join(
        os.path.dirname(__file__), "..", "scripts", "make_demo.py"))
    make_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_demo)
    return {"ethereum": make_demo.build_dataset()}


def _crosslayer():
    l1, l2s, _ = build_crosslayer_fixture()
    return dict(l2s, ethereum=l1)


def _write(root, datasets):
    """The fixtures and the sidecars every command reads."""
    fixtures = root / "fixtures"
    fixtures.mkdir()
    for name, ds in datasets.items():
        dump_fixture(ds, fixtures / f"{name}.jsonl")
    dump_pool_metadata(POOLS, root / "pools.json")
    (root / "snapshots.jsonl").write_text("".join(
        f'{{"kind": "{kind}", "key": "0x{key.hex()}", "block": {block}, "value": {value}}}\n'
        for kind, key, block, value in [
            ("health", BORROWER, 0, '"1.5"'), ("health", BORROWER, 1, '"0.9"'),
            ("shortfall", COMPOUND_BORROWER, 1, '"5"'),
            ("pool", U3, 0, '{"reserves": ["1000000", "1000000"]}'),
            ("pool", XL_POOL, 0, '{"reserves": ["1000000", "1000000"]}')]))
    days = sorted({b.timestamp // 86400 for ds in datasets.values() for b in ds.blocks})
    (root / "prices.csv").write_text("token_address,day,price_eth\n" + "".join(
        f"0x{token.hex()},{day},0.5\n" for day in days for token in (TA, TB, XL_TA))
        + "".join(f"ETHUSD,{day},2000\n" for day in days))
    return fixtures


def _commands(root, chains):
    """Every command that takes --fixtures, on each chain it can read."""
    fixtures, pools = ["--fixtures", str(root / "fixtures")], ["--pools", str(root / "pools.json")]
    prices, out = ["--prices", str(root / "prices.csv")], ["--out", str(root / "out")]
    snapshots = ["--snapshots", str(root / "snapshots.jsonl")]
    for chain in chains:
        given = ["--chain", chain, *fixtures]
        yield ["decode", *given]
        yield ["detect", "arb", *given, *pools, *prices, *out]
        yield ["detect", "liq", *given, *prices, *out]
        yield ["detect", "flashloan", *given, *out]
        yield ["detect", "sandwich", *given, *out]
        for command in ("opportunity", "compete"):
            for mev_type in ("arb", "liq"):
                yield [command, *given, "--type", mev_type, *pools, *snapshots, *out]
        if CHAINS[chain].layer is Layer.L2:
            yield ["crosslayer", "infer", *given, *pools, *out]
            yield ["crosslayer", "delay", *given, *pools, *out]
            yield ["crosslayer", "simulate", *given, *pools, *prices, *snapshots, *out]


def _run_all(root, chains, capsys):
    """Each command's exit code, stdout, stderr and the files it wrote."""
    results = []
    out = root / "out"
    for argv in _commands(root, chains):
        code = cli.main(argv)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        results.append((argv, code, *capsys.readouterr(), files))
    return results


@pytest.mark.parametrize("build", [_every_schema, _demo, _crosslayer])
def test_each_command_writes_what_it_writes_with_every_log(tmp_path, monkeypatch, capsys, build):
    datasets = build()
    _write(tmp_path, datasets)
    selected = _run_all(tmp_path, sorted(datasets), capsys)
    load_fixture = cli.load_fixture
    monkeypatch.setattr(cli, "load_fixture", lambda path, categories=None: load_fixture(path))
    assert _run_all(tmp_path, sorted(datasets), capsys) == selected
    assert [r for r in selected if r[1] != 0] == []
