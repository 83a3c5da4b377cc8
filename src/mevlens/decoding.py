"""Word-slot ABI decoding of raw event logs into typed protocol actions.

Every supported event decodes from fixed 32-byte slots; per-protocol
differences are declarative schemas selected via the topic registry.
Decoders return None for logs that are well-formed but not decodable into
the requested action (wrong category, zero amounts, missing pool
metadata) and raise SchemaMismatch for structurally broken logs.

``decode_logs`` is the one pass over a log sequence: it looks up each
topic once, runs the schema's decoder, and skips (logging at DEBUG) the
logs a decoder rejects.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional, Sequence

from .chain_model import ARBITRUM, OPTIMISM, ZKSYNC, ChainId, EventLog
from .errors import MevlensError, SchemaMismatch, SlotOutOfRange
from .registry import DEFAULT_REGISTRY

_log = logging.getLogger("mevlens")

WORD = 32


def decode_word(data: bytes, slot: int, typ: str):
    """Decode one 32-byte slot: address | uint | int | bytes32."""
    if (slot + 1) * WORD > len(data):
        raise SlotOutOfRange(f"slot {slot} beyond data of {len(data)} bytes")
    word = data[slot * WORD:(slot + 1) * WORD]
    if typ == "address":
        return word[12:]
    if typ == "uint":
        return int.from_bytes(word, "big")
    if typ == "int":
        value = int.from_bytes(word, "big")
        return value - (1 << 256) if value >= (1 << 255) else value
    if typ == "bytes32":
        return word
    raise ValueError(f"unknown slot type {typ!r}")


def _topic_word(log: EventLog, index: int, typ: str):
    if index >= len(log.topics):
        raise SchemaMismatch(f"expected topic {index}, log has {len(log.topics)}")
    return decode_word(log.topics[index], 0, typ)


def _require_slots(log: EventLog, n: int):
    if len(log.data) < n * WORD:
        raise SchemaMismatch(f"need {n} data slots, have {len(log.data) // WORD}")


# --- typed actions ---

class SwapAction(NamedTuple):
    venue: bytes
    token_in: bytes
    token_out: bytes
    amount_in: int
    amount_out: int
    position: tuple
    tx_hash: bytes


class TransferAction(NamedTuple):
    token: bytes
    sender: bytes
    receiver: bytes
    amount: int
    position: tuple
    tx_hash: bytes


class LiquidationAction(NamedTuple):
    protocol: str  # aave_v1 | aave_v2v3 | compound_v2
    liquidator: bytes
    borrower: bytes
    debt_token: bytes
    debt_amount: int
    collateral_token: Optional[bytes]
    collateral_amount: Optional[int]
    position: tuple
    tx_hash: bytes

    def with_collateral(self, token: bytes, amount: int) -> "LiquidationAction":
        return self._replace(collateral_token=token, collateral_amount=amount)


class FlashLoanAction(NamedTuple):
    provider: str  # aave_v1 | aave_v2 | aave_v3 | balancer
    token: bytes
    amount: int
    fee: int
    tx_hash: bytes


class OracleUpdateAction(NamedTuple):
    feed: bytes
    new_answer: int
    position: tuple
    tx_hash: bytes


class BridgeMessageAction(NamedTuple):
    direction: str  # l1_emit | l2_execute
    rollup: ChainId
    link_key: bytes
    position: tuple
    tx_hash: bytes
    timestamp: int


def _decode_one(log: EventLog, decoder, *args):
    """Run ``decoder`` on ``log`` if the log's topic maps to its schema."""
    entry = DEFAULT_REGISTRY.lookup(log.topics[0])
    if entry is None or _DECODERS.get(entry.schema) is not decoder:
        return None
    return decoder(log, entry, *args)


def decode_swap(log: EventLog, pools=None) -> Optional[SwapAction]:
    """Decode a DEX swap event into a SwapAction.

    ``pools`` maps pool address -> object with a ``tokens`` sequence; it is
    required for protocols whose events carry token indexes or no token
    addresses at all (Uniswap V2/V3, Curve, Hop StableSwap).
    """
    return _decode_one(log, _swap, pools)


def _swap(log: EventLog, entry, pools) -> Optional[SwapAction]:
    schema = entry.schema

    def pool_tokens():
        info = (pools or {}).get(log.address)
        return None if info is None else list(info.tokens)

    token_in = token_out = None
    amount_in = amount_out = 0

    if schema == "uniswap_v2_swap":
        if len(log.topics) != 3:
            raise SchemaMismatch("Uniswap V2 Swap expects 3 topics")
        _require_slots(log, 4)
        a0_in, a1_in, a0_out, a1_out = (decode_word(log.data, i, "uint") for i in range(4))
        tokens = pool_tokens()
        if tokens is None or len(tokens) < 2:
            return None
        in_idx = 0 if a0_in >= a1_in else 1
        out_idx = 0 if a0_out >= a1_out else 1
        token_in, amount_in = tokens[in_idx], (a0_in, a1_in)[in_idx]
        token_out, amount_out = tokens[out_idx], (a0_out, a1_out)[out_idx]
    elif schema == "uniswap_v3_swap":
        if len(log.topics) != 3:
            raise SchemaMismatch("Uniswap V3 Swap expects 3 topics")
        _require_slots(log, 2)
        a0 = decode_word(log.data, 0, "int")
        a1 = decode_word(log.data, 1, "int")
        tokens = pool_tokens()
        if tokens is None or len(tokens) < 2:
            return None
        # positive delta flows into the pool, negative out
        if a0 > 0 and a1 < 0:
            token_in, amount_in, token_out, amount_out = tokens[0], a0, tokens[1], -a1
        elif a1 > 0 and a0 < 0:
            token_in, amount_in, token_out, amount_out = tokens[1], a1, tokens[0], -a0
        else:
            return None
    elif schema in ("balancer_v1_swap", "balancer_v2_swap"):
        if len(log.topics) != 4:
            raise SchemaMismatch(f"{entry.event} expects 4 topics")
        _require_slots(log, 2)
        token_in = _topic_word(log, 2, "address")
        token_out = _topic_word(log, 3, "address")
        amount_in = decode_word(log.data, 0, "uint")
        amount_out = decode_word(log.data, 1, "uint")
    elif schema == "curve_exchange":
        if len(log.topics) != 2:
            raise SchemaMismatch("Curve TokenExchange expects 2 topics")
        _require_slots(log, 4)
        sold_id = decode_word(log.data, 0, "int")
        amount_in = decode_word(log.data, 1, "uint")
        bought_id = decode_word(log.data, 2, "int")
        amount_out = decode_word(log.data, 3, "uint")
        tokens = pool_tokens()
        if tokens is None or not (0 <= sold_id < len(tokens) and 0 <= bought_id < len(tokens)):
            return None
        token_in, token_out = tokens[sold_id], tokens[bought_id]
    else:  # stableswap_token_swap
        if len(log.topics) != 2:
            raise SchemaMismatch("TokenSwap expects 2 topics")
        _require_slots(log, 4)
        amount_in = decode_word(log.data, 0, "uint")
        amount_out = decode_word(log.data, 1, "uint")
        sold_id = decode_word(log.data, 2, "uint")
        bought_id = decode_word(log.data, 3, "uint")
        tokens = pool_tokens()
        if tokens is None or not (sold_id < len(tokens) and bought_id < len(tokens)):
            return None
        token_in, token_out = tokens[sold_id], tokens[bought_id]

    if amount_in <= 0 or amount_out <= 0 or token_in == token_out:
        return None
    return SwapAction(venue=log.address, token_in=token_in, token_out=token_out,
                      amount_in=amount_in, amount_out=amount_out,
                      position=log.position, tx_hash=log.tx_hash)


def decode_transfer(log: EventLog) -> Optional[TransferAction]:
    return _decode_one(log, _transfer)


def _transfer(log: EventLog, entry) -> TransferAction:
    if len(log.topics) != 3:
        raise SchemaMismatch("Transfer expects 3 topics")
    _require_slots(log, 1)
    return TransferAction(
        token=log.address,
        sender=_topic_word(log, 1, "address"),
        receiver=_topic_word(log, 2, "address"),
        amount=decode_word(log.data, 0, "uint"),
        position=log.position,
        tx_hash=log.tx_hash,
    )


def decode_liquidation(log: EventLog) -> Optional[LiquidationAction]:
    return _decode_one(log, _liquidation)


def _liquidation(log: EventLog, entry) -> Optional[LiquidationAction]:
    schema = entry.schema
    if schema in ("aave_v1_liquidation", "aave_v2v3_liquidation"):
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave LiquidationCall expects 4 topics")
        _require_slots(log, 4)
        # topics: collateral asset, debt asset, borrower
        if schema == "aave_v1_liquidation":
            liquidator = decode_word(log.data, 3, "address")
        else:
            liquidator = decode_word(log.data, 2, "address")
        action = LiquidationAction(
            protocol="aave_v1" if schema == "aave_v1_liquidation" else "aave_v2v3",
            liquidator=liquidator,
            borrower=_topic_word(log, 3, "address"),
            debt_token=_topic_word(log, 2, "address"),
            debt_amount=decode_word(log.data, 0, "uint"),
            collateral_token=_topic_word(log, 1, "address"),
            collateral_amount=decode_word(log.data, 1, "uint"),
            position=log.position,
            tx_hash=log.tx_hash,
        )
    else:  # compound_liquidate
        if len(log.topics) != 1:
            raise SchemaMismatch("LiquidateBorrow expects 1 topic")
        _require_slots(log, 5)
        # collateral stays absent until paired with a Redeem in the same tx
        action = LiquidationAction(
            protocol="compound_v2",
            liquidator=decode_word(log.data, 0, "address"),
            borrower=decode_word(log.data, 1, "address"),
            debt_token=log.address,
            debt_amount=decode_word(log.data, 2, "uint"),
            collateral_token=None,
            collateral_amount=None,
            position=log.position,
            tx_hash=log.tx_hash,
        )
    if action.debt_amount <= 0:
        return None
    return action


def decode_redeem(log: EventLog):
    """Compound Redeem -> (redeemer, collateral token, amount) or None."""
    return _decode_one(log, _redeem)


def _redeem(log: EventLog, entry) -> tuple:
    if len(log.topics) != 1:
        raise SchemaMismatch("Redeem expects 1 topic")
    _require_slots(log, 2)
    return (decode_word(log.data, 0, "address"), log.address,
            decode_word(log.data, 1, "uint"))


def decode_flashloan(log: EventLog) -> Optional[FlashLoanAction]:
    return _decode_one(log, _flashloan)


def _flashloan(log: EventLog, entry) -> Optional[FlashLoanAction]:
    schema = entry.schema
    if schema == "aave_v1_flashloan":
        if len(log.topics) != 3:
            raise SchemaMismatch("Aave V1 FlashLoan expects 3 topics")
        _require_slots(log, 2)
        provider, token = "aave_v1", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    elif schema == "aave_v2_flashloan":
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave V2 FlashLoan expects 4 topics")
        _require_slots(log, 2)
        provider, token = "aave_v2", _topic_word(log, 3, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    elif schema == "aave_v3_flashloan":
        if len(log.topics) != 4:
            raise SchemaMismatch("Aave V3 FlashLoan expects 4 topics")
        _require_slots(log, 4)
        provider, token = "aave_v3", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 1, "uint"), decode_word(log.data, 3, "uint")
    else:  # balancer_flashloan
        if len(log.topics) != 3:
            raise SchemaMismatch("Balancer FlashLoan expects 3 topics")
        _require_slots(log, 2)
        provider, token = "balancer", _topic_word(log, 2, "address")
        amount, fee = decode_word(log.data, 0, "uint"), decode_word(log.data, 1, "uint")
    if amount <= 0:
        return None
    return FlashLoanAction(provider=provider, token=token, amount=amount, fee=fee,
                           tx_hash=log.tx_hash)


def decode_oracle_update(log: EventLog) -> Optional[OracleUpdateAction]:
    return _decode_one(log, _oracle_update)


def _oracle_update(log: EventLog, entry) -> OracleUpdateAction:
    if len(log.topics) != 3:
        raise SchemaMismatch("AnswerUpdated expects 3 topics")
    return OracleUpdateAction(
        feed=log.address,
        new_answer=_topic_word(log, 1, "int"),
        position=log.position,
        tx_hash=log.tx_hash,
    )


def decode_bridge_message(log: EventLog, timestamp: int) -> Optional[BridgeMessageAction]:
    return _decode_one(log, _bridge_message, timestamp)


def _bridge_message(log: EventLog, entry, timestamp: int = 0) -> Optional[BridgeMessageAction]:
    schema = entry.schema
    if schema == "arbitrum_inbox_message":
        if len(log.topics) != 2:
            raise SchemaMismatch("InboxMessageDelivered expects 2 topics")
        direction, rollup, link_key = "l1_emit", ARBITRUM, log.topics[1]
    elif schema == "optimism_l1_message":
        # message payload carried verbatim in the data field; only this
        # event hashes, so only a run that meets one loads keccak
        from .keccak import keccak256
        direction, rollup, link_key = "l1_emit", OPTIMISM, keccak256(log.data)
    elif schema == "zksync_priority_request":
        direction, rollup, link_key = "l1_emit", ZKSYNC, log.tx_hash
    elif schema == "arbitrum_redeem_scheduled":
        if len(log.topics) != 2:
            raise SchemaMismatch("RedeemScheduled expects 2 topics")
        direction, rollup, link_key = "l2_execute", ARBITRUM, log.topics[1]
    else:  # optimism_relayed_message
        if len(log.topics) != 2:
            raise SchemaMismatch("RelayedMessage expects 2 topics")
        direction, rollup, link_key = "l2_execute", OPTIMISM, log.topics[1]
    if not link_key:
        return None
    return BridgeMessageAction(direction=direction, rollup=rollup, link_key=link_key,
                               position=log.position, tx_hash=log.tx_hash,
                               timestamp=timestamp)


# registry schema key -> decoder(log, entry), plus pools for swaps
_DECODERS = {schema: decoder for decoder, schemas in (
    (_swap, ("uniswap_v2_swap", "uniswap_v3_swap", "balancer_v1_swap", "balancer_v2_swap",
             "curve_exchange", "stableswap_token_swap")),
    (_transfer, ("erc20_transfer",)),
    (_liquidation, ("aave_v1_liquidation", "aave_v2v3_liquidation", "compound_liquidate")),
    (_redeem, ("compound_redeem",)),
    (_flashloan, ("aave_v1_flashloan", "aave_v2_flashloan", "aave_v3_flashloan",
                  "balancer_flashloan")),
    (_oracle_update, ("chainlink_answer_updated",)),
    (_bridge_message, ("arbitrum_inbox_message", "optimism_l1_message",
                       "zksync_priority_request", "arbitrum_redeem_scheduled",
                       "optimism_relayed_message")),
) for schema in schemas}


def decode_logs(logs: Sequence[EventLog], categories, pools=None) -> list:
    """Decode every log registered under one of ``categories``.

    Returns ``(log, action)`` pairs in input order, dropping logs whose
    decoder yields None. A log its decoder rejects with a MevlensError is
    skipped and logged at DEBUG; any other exception propagates. Swap
    decoders read ``pools``; bridge messages carry timestamp 0, since the
    block timestamp belongs to the dataset, not the log.
    """
    wanted = frozenset(categories)
    decoded = []
    for log in logs:
        entry = DEFAULT_REGISTRY.lookup(log.topics[0])
        if entry is None or wanted.isdisjoint(entry.categories):
            continue
        decoder = _DECODERS.get(entry.schema)
        if decoder is None:
            continue
        try:
            action = decoder(log, entry, pools) if decoder is _swap else decoder(log, entry)
        except MevlensError as exc:
            _log.debug("skipped %s log at %s: %s", entry.event, log.position, exc)
            continue
        if action is not None:
            decoded.append((log, action))
    return decoded
