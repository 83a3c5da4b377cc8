"""Records are NamedTuples. Each prints and hashes as the frozen dataclass
it replaced did, so no message that prints a record changes, and no set or
dict order moves; the validated records check every construction."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mevlens.amm import PoolInfo, SwapQuote, cp_pool
from mevlens.bytecode import BytecodeRecord, Cluster
from mevlens.amm import CONSTANT_PRODUCT, STABLESWAP, PoolState
from mevlens.chain_model import (ARBITRUM, CHAINS, ETHEREUM, BlockRecord, ChainId, EventLog,
                                 Layer, TxRecord)
from mevlens.crosslayer import CostModel, CrossLayerLink, DelayStats, VictimCandidate, VictimSwap
from mevlens.decoding import (BridgeMessageAction, FlashLoanAction, LiquidationAction,
                              OracleUpdateAction, SwapAction, TransferAction)
from mevlens.detectors import ArbitrageFinding, LiquidationFinding, SandwichFinding
from mevlens.opportunity import OpportunityResult
from mevlens.registry import Category, RegistryEntry

A, B, H = b"\xaa", b"\xbb", b"\x01"
POOL = cp_pool(5, 7, tokens=(A, B))
LINK = CrossLayerLink(ARBITRUM, H, b"\x02", b"\x03", 10, 12, 4)
VICTIM = VictimCandidate(LINK, VictimSwap(A, B, 3), B)
COSTS = CostModel(Fraction(1, 2), Fraction(0), Fraction(1, 4))
SWAP = SwapAction(B, A, B, 3, 2, (1, 0, 0), H)

# one record of each class, and its repr as the dataclass printed it
RECORDS = [
    (ChainId("zksync", Layer.L2),
     "ChainId(name='zksync', layer=<Layer.L2: 'L2'>)"),
    (BlockRecord(ETHEREUM, 1, 12, (H,)),
     "BlockRecord(chain=ChainId(name='ethereum', layer=<Layer.L1: 'L1'>), number=1, "
     "timestamp=12, tx_hashes=(b'\\x01',))"),
    (TxRecord(H, 1, 0, A, None, 9),
     "TxRecord(hash=b'\\x01', block_number=1, tx_index=0, sender=b'\\xaa', to=None, "
     "fee_paid=9, builder_payment=0, status=<TxStatus.SUCCESS: 'success'>)"),
    (EventLog(ETHEREUM, A, (H,), b"", 1, 0, 2, H),
     "EventLog(chain=ChainId(name='ethereum', layer=<Layer.L1: 'L1'>), address=b'\\xaa', "
     "topics=(b'\\x01',), data=b'', block_number=1, tx_index=0, log_index=2, "
     "tx_hash=b'\\x01')"),
    (SWAP,
     "SwapAction(venue=b'\\xbb', token_in=b'\\xaa', token_out=b'\\xbb', amount_in=3, "
     "amount_out=2, position=(1, 0, 0), tx_hash=b'\\x01')"),
    (TransferAction(A, A, B, 3, (1, 0, 1), H),
     "TransferAction(token=b'\\xaa', sender=b'\\xaa', receiver=b'\\xbb', amount=3, "
     "position=(1, 0, 1), tx_hash=b'\\x01')"),
    (LiquidationAction("compound_v2", A, B, A, 5, None, None, (1, 0, 2), H),
     "LiquidationAction(protocol='compound_v2', liquidator=b'\\xaa', borrower=b'\\xbb', "
     "debt_token=b'\\xaa', debt_amount=5, collateral_token=None, collateral_amount=None, "
     "position=(1, 0, 2), tx_hash=b'\\x01')"),
    (FlashLoanAction("balancer", A, 8, 0, H),
     "FlashLoanAction(provider='balancer', token=b'\\xaa', amount=8, fee=0, "
     "tx_hash=b'\\x01')"),
    (OracleUpdateAction(A, -1, (1, 0, 3), H),
     "OracleUpdateAction(feed=b'\\xaa', new_answer=-1, position=(1, 0, 3), tx_hash=b'\\x01')"),
    (BridgeMessageAction("l1_emit", ARBITRUM, b"\x03", (1, 0, 4), H, 10),
     "BridgeMessageAction(direction='l1_emit', rollup=ChainId(name='arbitrum', "
     "layer=<Layer.L2: 'L2'>), link_key=b'\\x03', position=(1, 0, 4), tx_hash=b'\\x01', "
     "timestamp=10)"),
    (ArbitrageFinding(H, (SWAP,), {A: 1}, profit_eth=Fraction(-1, 3)),
     "ArbitrageFinding(tx_hash=b'\\x01', cycle=(SwapAction(venue=b'\\xbb', "
     "token_in=b'\\xaa', token_out=b'\\xbb', amount_in=3, amount_out=2, position=(1, 0, 0), "
     "tx_hash=b'\\x01'),), token_balances={b'\\xaa': 1}, gain_eth=None, cost_eth=None, "
     "profit_eth=Fraction(-1, 3), unpriced=False, flash_loans=())"),
    (LiquidationFinding(H, (), unredeemed=True),
     "LiquidationFinding(tx_hash=b'\\x01', actions=(), profit_eth=None, unpriced=False, "
     "unredeemed=True, flash_loans=())"),
    (SandwichFinding(H, b"\x02", (b"\x03",), A, B, (1, 2)),
     "SandwichFinding(front_tx=b'\\x01', back_tx=b'\\x02', victim_txs=(b'\\x03',), "
     "token=b'\\xaa', attacker=b'\\xbb', window=(1, 2))"),
    (OpportunityResult("found", H, 2),
     "OpportunityResult(status='found', opportunity_tx=b'\\x01', block_distance=2, "
     "approximate=False)"),
    (RegistryEntry(H, frozenset([Category.TRANSFER]), "Transfer", "ERC-20", "Transfer",
                  "erc20_transfer"),
     "RegistryEntry(topic=b'\\x01', "
     "categories=frozenset({<Category.TRANSFER: 'transfer'>}), label='Transfer', "
     "protocol='ERC-20', event='Transfer', schema='erc20_transfer')"),
    (BytecodeRecord(ARBITRUM, A, b"\x60\x00"),
     "BytecodeRecord(chain=ChainId(name='arbitrum', layer=<Layer.L2: 'L2'>), "
     "address=b'\\xaa', code=b'`\\x00', verified=False)"),
    (Cluster(H, ((ETHEREUM, A),), ("ethereum",)),
     "Cluster(digest=b'\\x01', members=((ChainId(name='ethereum', layer=<Layer.L1: 'L1'>), "
     "b'\\xaa'),), chains=('ethereum',))"),
    (POOL,
     "PoolState(kind='constant_product', tokens=(b'\\xaa', b'\\xbb'), reserves=(5, 7), "
     "fee_num=3, fee_den=1000, amp=200)"),
    (SwapQuote(3, 2, POOL),
     "SwapQuote(amount_in=3, amount_out=2, post_state=PoolState(kind='constant_product', "
     "tokens=(b'\\xaa', b'\\xbb'), reserves=(5, 7), fee_num=3, fee_den=1000, amp=200))"),
    (PoolInfo(B, "constant_product", (A, B), 3, 1000),
     "PoolInfo(address=b'\\xbb', kind='constant_product', tokens=(b'\\xaa', b'\\xbb'), "
     "fee_num=3, fee_den=1000, amp=200)"),
    (LINK,
     "CrossLayerLink(rollup=ChainId(name='arbitrum', layer=<Layer.L2: 'L2'>), "
     "l1_tx=b'\\x01', l2_tx=b'\\x02', link_key=b'\\x03', l1_timestamp=10, l2_timestamp=12, "
     "l2_block=4)"),
    (VictimSwap(A, B, 3, 1, True),
     "VictimSwap(token_in=b'\\xaa', token_out=b'\\xbb', amount_in=3, min_amount_out=1, "
     "assumed_slippage=True)"),
    (VICTIM,
     "VictimCandidate(link=CrossLayerLink(rollup=ChainId(name='arbitrum', "
     "layer=<Layer.L2: 'L2'>), l1_tx=b'\\x01', l2_tx=b'\\x02', link_key=b'\\x03', "
     "l1_timestamp=10, l2_timestamp=12, l2_block=4), swap=VictimSwap(token_in=b'\\xaa', "
     "token_out=b'\\xbb', amount_in=3, min_amount_out=None, assumed_slippage=False), "
     "pool=b'\\xbb')"),
    (COSTS,
     "CostModel(l1_tx_cost=Fraction(1, 2), l2_tx_cost=Fraction(0, 1), bribe=Fraction(1, 4))"),
    (DelayStats(3, 1, Fraction(5, 2), Fraction(2), 5),
     "DelayStats(count=3, min=1, mean=Fraction(5, 2), median=Fraction(2, 1), max=5)"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_record_prints_and_hashes_as_the_dataclass_did(record, text):
    assert repr(record) == text
    if type(record) is ArbitrageFinding:
        # token_balances is a dict, so this record never hashed
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(record))


def test_chains_are_layer_consistent():
    """Ethereum is the one L1; every other chain is a rollup."""
    assert set(CHAINS) == {"ethereum", "arbitrum", "optimism", "zksync"}
    for name, chain in CHAINS.items():
        assert chain.name == name
        assert chain.layer is (Layer.L1 if name == "ethereum" else Layer.L2)


@pytest.mark.parametrize("args", [
    ("curve", (A, B), (5, 7)),                          # unknown kind
    (CONSTANT_PRODUCT, (A, B, H), (5, 7, 9)),           # constant product of 3 tokens
    (CONSTANT_PRODUCT, (A, B), (5,)),                   # a reserve short
    (STABLESWAP, (A,), (5,)),                           # one token
    (STABLESWAP, (A, B), (5, 7), 4, 10000, 0),          # amp 0
    (CONSTANT_PRODUCT, (A, B), (5, 7), 1000, 1000),     # fee of 100%
    (CONSTANT_PRODUCT, (A, B), (5, 7), -1, 1000),       # negative fee
], ids=["kind", "cp_tokens", "length", "stable_tokens", "amp", "fee", "negative_fee"])
def test_pool_state_checks_every_construction(args):
    with pytest.raises(AssertionError):
        PoolState(*args)


def test_post_swap_pool_state_is_checked():
    """A swap builds its post-swap state through the same checks."""
    assert POOL.with_reserves([6, 6]) == PoolState(CONSTANT_PRODUCT, (A, B), (6, 6), 3, 1000)
    with pytest.raises(AssertionError):
        POOL.with_reserves([6])


@pytest.mark.parametrize("field", ["l1_tx_cost", "l2_tx_cost", "bribe"])
def test_cost_model_rejects_a_negative_cost(field):
    costs = {"l1_tx_cost": Fraction(1), "l2_tx_cost": Fraction(1), "bribe": Fraction(0)}
    CostModel(**costs)
    with pytest.raises(AssertionError):
        CostModel(**dict(costs, **{field: Fraction(-1, 10 ** 18)}))


def test_checks_hold_under_python_O():
    """The checks raise AssertionError themselves, so python -O, which
    strips assert statements, keeps them."""
    import mevlens
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevlens.__file__)))
    code = ("from fractions import Fraction\n"
            "from mevlens.amm import PoolState, cp_pool\n"
            "from mevlens.crosslayer import CostModel, VictimSwap, _max_input_within_slippage\n"
            "cp = cp_pool(10 ** 6, 10 ** 6)\n"
            "print('debug', __debug__)\n"
            "for build in (lambda: PoolState('curve', (b'a',), (1, 2), 5, 1),\n"
            "              lambda: CostModel(Fraction(-1), 0, 0),\n"
            "              lambda: _max_input_within_slippage(\n"
            "                  cp, VictimSwap(cp.tokens[0], cp.tokens[1], 1000))):\n"
            "    try:\n"
            "        print('returned', build())\n"
            "    except AssertionError:\n"
            "        print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout.splitlines() == ["debug False"] + ["raised"] * 3, proc.stderr
