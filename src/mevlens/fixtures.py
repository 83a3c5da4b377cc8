"""Synthetic fixtures: event encoders, a dataset builder and its dump.

Encoders are the mirror image of the decoding schemas; tests rely on
decode(encode(x)) == x, and the demo generator uses the builder to plant
ground-truth scenarios.
"""

from __future__ import annotations

import json
from typing import Optional

from .chain_model import BlockRecord, ChainDataset, ChainId, EventLog, TxRecord, TxStatus, to_hex
from .keccak import keccak256
from .registry import DEFAULT_REGISTRY


def word(value, typ="uint") -> bytes:
    if typ == "address":
        return b"\x00" * 12 + value
    if typ == "bytes32":
        assert len(value) == 32
        return value
    if typ == "int":
        return (value & ((1 << 256) - 1)).to_bytes(32, "big")
    assert value >= 0
    return value.to_bytes(32, "big")


def addr(i: int) -> bytes:
    return i.to_bytes(20, "big")


def _topic(protocol: str, event: str) -> bytes:
    for entry in DEFAULT_REGISTRY.entries():
        if entry.protocol == protocol and entry.event == event:
            return entry.topic
    raise KeyError(f"{protocol} {event}")


# (topics, data) encoders per protocol layout

def enc_uniswap_v2_swap(sender, to, a0_in, a1_in, a0_out, a1_out):
    return ([_topic("Uniswap V2", "Swap"), word(sender, "address"), word(to, "address")],
            word(a0_in) + word(a1_in) + word(a0_out) + word(a1_out))


def enc_uniswap_v3_swap(sender, recipient, amount0, amount1,
                        sqrt_price=0, liquidity=0, tick=0):
    return ([_topic("Uniswap V3", "Swap"), word(sender, "address"),
             word(recipient, "address")],
            word(amount0, "int") + word(amount1, "int") + word(sqrt_price)
            + word(liquidity) + word(tick, "int"))


def enc_balancer_v1_swap(caller, token_in, token_out, amount_in, amount_out):
    return ([_topic("Balancer V1", "LOG_SWAP"), word(caller, "address"),
             word(token_in, "address"), word(token_out, "address")],
            word(amount_in) + word(amount_out))


def enc_balancer_v2_swap(pool_id, token_in, token_out, amount_in, amount_out):
    return ([_topic("Balancer V2", "Swap"), word(pool_id, "bytes32"),
             word(token_in, "address"), word(token_out, "address")],
            word(amount_in) + word(amount_out))


def enc_curve_exchange(buyer, sold_id, amount_in, bought_id, amount_out,
                       underlying=False):
    event = "TokenExchangeUnderlying" if underlying else "TokenExchange"
    return ([_topic("Curve", event), word(buyer, "address")],
            word(sold_id, "int") + word(amount_in) + word(bought_id, "int")
            + word(amount_out))


def enc_token_swap(buyer, amount_in, amount_out, sold_id, bought_id):
    return ([_topic("StableSwap", "TokenSwap"), word(buyer, "address")],
            word(amount_in) + word(amount_out) + word(sold_id) + word(bought_id))


def enc_transfer(sender, receiver, amount):
    return ([_topic("ERC-20", "Transfer"), word(sender, "address"),
             word(receiver, "address")],
            word(amount))


def enc_aave_v2v3_liquidation(collateral, debt, borrower, debt_amount,
                              collateral_amount, liquidator):
    return ([_topic("Aave V2/V3", "LiquidationCall"), word(collateral, "address"),
             word(debt, "address"), word(borrower, "address")],
            word(debt_amount) + word(collateral_amount)
            + word(liquidator, "address") + word(0))


def enc_aave_v1_liquidation(collateral, debt, borrower, debt_amount,
                            collateral_amount, liquidator, accrued_interest=0):
    return ([_topic("Aave V1", "LiquidationCall"), word(collateral, "address"),
             word(debt, "address"), word(borrower, "address")],
            word(debt_amount) + word(collateral_amount) + word(accrued_interest)
            + word(liquidator, "address"))


def enc_compound_liquidate(liquidator, borrower, repay_amount, ctoken_collateral,
                           seize_tokens):
    return ([_topic("Compound V2", "LiquidateBorrow")],
            word(liquidator, "address") + word(borrower, "address")
            + word(repay_amount) + word(ctoken_collateral, "address")
            + word(seize_tokens))


def enc_compound_redeem(redeemer, amount, tokens):
    return ([_topic("Compound", "Redeem")],
            word(redeemer, "address") + word(amount) + word(tokens))


def enc_flashloan(provider, token, amount, fee, target=None):
    target = target or addr(0xFEED)
    if provider == "aave_v1":
        return ([_topic("Aave V1", "FlashLoan"), word(target, "address"),
                 word(token, "address")], word(amount) + word(fee))
    if provider == "aave_v2":
        return ([_topic("Aave V2", "FlashLoan"), word(target, "address"),
                 word(target, "address"), word(token, "address")],
                word(amount) + word(fee))
    if provider == "aave_v3":
        return ([_topic("Aave V3", "FlashLoan"), word(target, "address"),
                 word(token, "address"), word(0, "uint")],
                word(target, "address") + word(amount) + word(0) + word(fee))
    if provider == "balancer":
        return ([_topic("Balancer", "FlashLoan"), word(target, "address"),
                 word(token, "address")], word(amount) + word(fee))
    raise ValueError(provider)


def enc_answer_updated(new_answer, round_id=1, updated_at=0):
    return ([_topic("Chainlink", "AnswerUpdated"), word(new_answer, "int"),
             word(round_id)], word(updated_at))


def enc_inbox_message(message_number: int, payload: bytes = b""):
    data = payload + b"\x00" * ((-len(payload)) % 32)
    return ([_topic("Arbitrum", "InboxMessageDelivered"), word(message_number)], data)


def enc_redeem_scheduled(message_number: int):
    return ([_topic("Arbitrum", "RedeemScheduled"), word(message_number)], b"")


def enc_transaction_deposited(payload: bytes):
    data = payload + b"\x00" * ((-len(payload)) % 32)
    return ([_topic("Optimism", "TransactionDeposited"), word(addr(1), "address")],
            data)


def enc_relayed_message(msg_hash: bytes):
    return ([_topic("Optimism", "RelayedMessage"), word(msg_hash, "bytes32")], b"")


def enc_priority_request(payload: bytes = b""):
    data = payload + b"\x00" * ((-len(payload)) % 32)
    return ([_topic("zkSync", "NewPriorityRequest"), word(1)], data)


def optimism_message_hash(payload: bytes) -> bytes:
    """Link key as the decoder computes it: keccak of the padded data."""
    data = payload + b"\x00" * ((-len(payload)) % 32)
    return keccak256(data)


class FixtureBuilder:
    """Accumulates one chain's blocks/txs/logs with auto-assigned
    coordinates and deterministic hashes."""

    def __init__(self, chain: ChainId, start_block: int = 1,
                 start_timestamp: int = 1_600_000_000, block_time: int = 12):
        self.chain = chain
        self.block_time = block_time
        self._blocks: list = []
        self._txs: list = []
        self._logs: list = []
        self._block_number = start_block - 1
        self._timestamp = start_timestamp - block_time
        self._tx_index = 0
        self._log_index = 0
        self._block_tx_hashes: list = []
        self._tx_counter = 0
        self._current_tx: Optional[bytes] = None

    def block(self, number: Optional[int] = None,
              timestamp: Optional[int] = None) -> int:
        self._seal_block()
        self._block_number = number if number is not None else self._block_number + 1
        self._timestamp = (timestamp if timestamp is not None
                           else self._timestamp + self.block_time)
        self._tx_index = 0
        self._current_tx = None
        return self._block_number

    def _seal_block(self):
        if self._block_tx_hashes:
            self._blocks.append(BlockRecord(self.chain, self._block_number,
                                            self._timestamp,
                                            tuple(self._block_tx_hashes)))
            self._block_tx_hashes = []

    def tx(self, sender: Optional[bytes] = None, to: Optional[bytes] = None,
           fee: int = 0, builder_payment: int = 0,
           status: str = "success", tx_hash: Optional[bytes] = None) -> bytes:
        if self._block_number < 0:
            self.block()
        self._tx_counter += 1
        h = tx_hash or keccak256(f"{self.chain.name}-tx-{self._tx_counter}".encode())
        record = TxRecord(hash=h, block_number=self._block_number,
                          tx_index=self._tx_index,
                          sender=sender or addr(0xAAAA + self._tx_counter),
                          to=to, fee_paid=fee, builder_payment=builder_payment,
                          status=TxStatus(status))
        self._txs.append(record)
        self._block_tx_hashes.append(h)
        self._tx_index += 1
        self._current_tx = h
        return h

    def log(self, address: bytes, topics, data: bytes = b"") -> EventLog:
        assert self._current_tx is not None, "call tx() before log()"
        log = EventLog(chain=self.chain, address=address, topics=tuple(topics),
                       data=data, block_number=self._block_number,
                       tx_index=self._tx_index - 1, log_index=self._log_index,
                       tx_hash=self._current_tx)
        self._logs.append(log)
        self._log_index += 1
        return log

    @property
    def timestamp(self) -> int:
        return self._timestamp

    def dataset(self) -> ChainDataset:
        self._seal_block()
        return ChainDataset(chain=self.chain, blocks=list(self._blocks),
                            txs=list(self._txs),
                            logs=sorted(self._logs, key=lambda l: l.position))

    def write(self, path) -> ChainDataset:
        ds = self.dataset()
        dump_fixture(ds, path)
        return ds


def dump_fixture(dataset: ChainDataset, path) -> None:
    """Serialize a dataset back to canonical JSONL (blocks, txs, logs, each
    in total order, fixed key order). load_fixture(dump_fixture(d)) is the
    identity and re-serializing is byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in sorted(dataset.blocks, key=lambda b: b.number):
            fh.write(json.dumps({
                "kind": "block",
                "chain": b.chain.name,
                "number": b.number,
                "timestamp": b.timestamp,
                "tx_hashes": [to_hex(h) for h in b.tx_hashes],
            }, separators=(",", ":")) + "\n")
        for t in sorted(dataset.txs, key=lambda t: (t.block_number, t.tx_index)):
            obj = {
                "kind": "tx",
                "hash": to_hex(t.hash),
                "block_number": t.block_number,
                "tx_index": t.tx_index,
                "from": to_hex(t.sender),
            }
            if t.to is not None:
                obj["to"] = to_hex(t.to)
            obj["fee_paid"] = str(t.fee_paid)
            obj["builder_payment"] = str(t.builder_payment)
            obj["status"] = t.status.value
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        for l in sorted(dataset.logs, key=lambda l: l.position):
            fh.write(json.dumps({
                "kind": "log",
                "chain": l.chain.name,
                "address": to_hex(l.address),
                "topics": [to_hex(t) for t in l.topics],
                "data": to_hex(l.data),
                "block_number": l.block_number,
                "tx_index": l.tx_index,
                "log_index": l.log_index,
                "tx_hash": to_hex(l.tx_hash),
            }, separators=(",", ":")) + "\n")
