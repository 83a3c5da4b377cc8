"""Word-slot ABI decoding of raw event logs into typed protocol actions.

``_LAYOUTS`` has one row per registry schema: the event name for error
messages, the exact topic count (None: unchecked), the minimum data slots,
each field's source and type (``"t2:address"``: the address in topic 2,
``"d0:uint"``: the unsigned integer in data slot 0; offsets are computed at
import) and a build rule. ``_decode``, the one decoder, raises
SchemaMismatch on a count its row rejects, reads the fields and calls the
rule, which returns the action, or None for a well-formed log that is no
usable action (a zero amount, an unknown pool). ``decode_logs``, the one
decode loop, looks up each log's topic once and skips, logging at DEBUG,
the logs the decoder rejects. The addresses one pass slices out of topics
and data are shared: equal addresses are one object.
"""

from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .chain_model import ARBITRUM, OPTIMISM, ZKSYNC, ChainId, EventLog, _log
from .errors import MevlensError, SchemaMismatch
from .registry import DEFAULT_REGISTRY, Category

WORD = 32
# the swap categories: StableSwap TokenSwap, a victim swap, can close a
# cycle like any DEX swap
_SWAPS = frozenset((Category.ARBITRAGE, Category.VICTIM_SWAP))


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


# --- build rules: rule(log, pools, *field values) -> action or None ---

def _pool_tokens(log: EventLog, pools) -> Optional[list]:
    """The log's pool's tokens; None if it is unknown or has fewer than two."""
    info = (pools or {}).get(log.address)
    return None if info is None or len(info.tokens) < 2 else list(info.tokens)


def _swap(log, pools, token_in, token_out, amount_in, amount_out) -> Optional[SwapAction]:
    """Balancer's rule as is: its events name both tokens."""
    if amount_in <= 0 or amount_out <= 0 or token_in == token_out:
        return None
    return SwapAction(log.address, token_in, token_out, amount_in, amount_out,
                      log.position, log.tx_hash)


def _uniswap_v2(log, pools, a0_in, a1_in, a0_out, a1_out):
    tokens = _pool_tokens(log, pools)
    if tokens is None:
        return None
    i = 0 if a0_in >= a1_in else 1
    o = 0 if a0_out >= a1_out else 1
    return _swap(log, pools, tokens[i], tokens[o], (a0_in, a1_in)[i], (a0_out, a1_out)[o])


def _uniswap_v3(log, pools, a0, a1):
    tokens = _pool_tokens(log, pools)
    if tokens is None:
        return None
    # positive delta flows into the pool, negative out
    if a0 > 0 and a1 < 0:
        return _swap(log, pools, tokens[0], tokens[1], a0, -a1)
    if a1 > 0 and a0 < 0:
        return _swap(log, pools, tokens[1], tokens[0], a1, -a0)
    return None


def _by_index(log, pools, sold, amount_in, bought, amount_out):
    """Curve and StableSwap name the tokens by their index in the pool."""
    tokens = _pool_tokens(log, pools)
    if tokens is None or not (0 <= sold < len(tokens) and 0 <= bought < len(tokens)):
        return None
    return _swap(log, pools, tokens[sold], tokens[bought], amount_in, amount_out)


def _transfer(log, pools, sender, receiver, amount) -> TransferAction:
    return TransferAction(log.address, sender, receiver, amount, log.position, log.tx_hash)


def _liquidation(protocol, log, pools, liquidator, borrower, debt_token, debt_amount,
                 collateral_token, collateral_amount) -> Optional[LiquidationAction]:
    if debt_amount <= 0:
        return None
    return LiquidationAction(protocol, liquidator, borrower, debt_token, debt_amount,
                             collateral_token, collateral_amount, log.position, log.tx_hash)


def _compound_liquidation(log, pools, liquidator, borrower, debt_amount):
    # collateral stays absent until paired with a Redeem in the same tx
    return _liquidation("compound_v2", log, pools, liquidator, borrower, log.address,
                        debt_amount, None, None)


def _redeem(log, pools, redeemer, amount) -> tuple:
    return redeemer, log.address, amount  # Compound: the collateral token is the log's


def _flashloan(provider, log, pools, token, amount, fee) -> Optional[FlashLoanAction]:
    if amount <= 0:
        return None
    return FlashLoanAction(provider, token, amount, fee, log.tx_hash)


def _oracle_update(log, pools, new_answer) -> OracleUpdateAction:
    return OracleUpdateAction(log.address, new_answer, log.position, log.tx_hash)


def _message(direction, rollup, log, pools, link_key) -> Optional[BridgeMessageAction]:
    if not link_key:
        return None
    return BridgeMessageAction(direction, rollup, link_key, log.position, log.tx_hash)


def _optimism_l1_message(log, pools):
    # only this event hashes its data, so only a run that meets one loads keccak
    from .keccak import keccak256
    return _message("l1_emit", OPTIMISM, log, pools, keccak256(log.data))


def _zksync_priority_request(log, pools):
    return _message("l1_emit", ZKSYNC, log, pools, log.tx_hash)


# --- the layout table ---

class _Layout(NamedTuple):
    name: str              # event name in SchemaMismatch messages
    topics: Optional[int]  # exact topic count; None: not checked
    slots: int             # minimum number of data slots
    fields: tuple          # per rule argument: (topic index or -1 for data, start, stop, convert)
    rule: Callable


# an address field's convert is None: the decode pass's ``share``
_CONVERT = {"address": None, "bytes32": bytes,
            "uint": partial(int.from_bytes, byteorder="big"),
            "int": partial(int.from_bytes, byteorder="big", signed=True)}


def _row(name, topics, slots, rule, specs="") -> _Layout:
    """``specs``: the rule's fields as t<i>:type (topic i) or d<j>:type (slot j)."""
    fields = []
    for spec in specs.split():
        source, typ = spec.split(":")
        n = int(source[1:])
        index, word = (n, 0) if source[0] == "t" else (-1, n * WORD)
        start = word + 12 if typ == "address" else word
        fields.append((index, start, word + WORD, _CONVERT[typ]))
    return _Layout(name, topics, slots, tuple(fields), rule)


_BALANCER_SWAP = "t2:address t3:address d0:uint d1:uint"
_AAVE_LIQUIDATION = "t3:address t2:address d0:uint t1:address d1:uint"  # after the liquidator

_LAYOUTS = {
    "uniswap_v2_swap": _row("Uniswap V2 Swap", 3, 4, _uniswap_v2,
                            "d0:uint d1:uint d2:uint d3:uint"),
    "uniswap_v3_swap": _row("Uniswap V3 Swap", 3, 2, _uniswap_v3, "d0:int d1:int"),
    "balancer_v1_swap": _row("LOG_SWAP", 4, 2, _swap, _BALANCER_SWAP),
    "balancer_v2_swap": _row("Swap", 4, 2, _swap, _BALANCER_SWAP),
    "curve_exchange": _row("Curve TokenExchange", 2, 4, _by_index,
                           "d0:int d1:uint d2:int d3:uint"),
    "stableswap_token_swap": _row("TokenSwap", 2, 4, _by_index, "d2:uint d0:uint d3:uint d1:uint"),
    "erc20_transfer": _row("Transfer", 3, 1, _transfer, "t1:address t2:address d0:uint"),
    "aave_v1_liquidation": _row("Aave LiquidationCall", 4, 4, partial(_liquidation, "aave_v1"),
                                "d3:address " + _AAVE_LIQUIDATION),
    "aave_v2v3_liquidation": _row("Aave LiquidationCall", 4, 4, partial(_liquidation, "aave_v2v3"),
                                  "d2:address " + _AAVE_LIQUIDATION),
    "compound_liquidate": _row("LiquidateBorrow", 1, 5, _compound_liquidation,
                               "d0:address d1:address d2:uint"),
    "compound_redeem": _row("Redeem", 1, 2, _redeem, "d0:address d1:uint"),
    "aave_v1_flashloan": _row("Aave V1 FlashLoan", 3, 2, partial(_flashloan, "aave_v1"),
                              "t2:address d0:uint d1:uint"),
    "aave_v2_flashloan": _row("Aave V2 FlashLoan", 4, 2, partial(_flashloan, "aave_v2"),
                              "t3:address d0:uint d1:uint"),
    "aave_v3_flashloan": _row("Aave V3 FlashLoan", 4, 4, partial(_flashloan, "aave_v3"),
                              "t2:address d1:uint d3:uint"),
    "balancer_flashloan": _row("Balancer FlashLoan", 3, 2, partial(_flashloan, "balancer"),
                               "t2:address d0:uint d1:uint"),
    "chainlink_answer_updated": _row("AnswerUpdated", 3, 0, _oracle_update, "t1:int"),
    "arbitrum_inbox_message": _row("InboxMessageDelivered", 2, 0,
                                   partial(_message, "l1_emit", ARBITRUM), "t1:bytes32"),
    "optimism_l1_message": _row("TransactionEnqueued", None, 0, _optimism_l1_message),
    "zksync_priority_request": _row("NewPriorityRequest", None, 0, _zksync_priority_request),
    "arbitrum_redeem_scheduled": _row("RedeemScheduled", 2, 0,
                                      partial(_message, "l2_execute", ARBITRUM), "t1:bytes32"),
    "optimism_relayed_message": _row("RelayedMessage", 2, 0,
                                     partial(_message, "l2_execute", OPTIMISM), "t1:bytes32"),
}


class _Shared(dict):
    """``shared[value]`` is the first value equal to ``value``: one object
    per value."""

    def __missing__(self, value):
        self[value] = value
        return value


def _decode(log: EventLog, entry, pools, share=bytes):
    """Decode ``log`` by its registry entry's layout row. ``share`` maps
    each address to the object kept for its value; by default, itself."""
    layout = _LAYOUTS[entry.schema]
    topics, data = log.topics, log.data
    n = layout.topics
    if n is not None and len(topics) != n:
        raise SchemaMismatch(f"{layout.name} expects {n} topic{'s' if n != 1 else ''}")
    if len(data) < layout.slots * WORD:
        raise SchemaMismatch(f"need {layout.slots} data slots, have {len(data) // WORD}")
    return layout.rule(log, pools, *[
        (convert or share)((data if i < 0 else topics[i])[start:stop])
        for i, start, stop, convert in layout.fields])


def decode_swap(log: EventLog, pools=None) -> Optional[SwapAction]:
    """Decode a DEX swap event into a SwapAction: ``decode_logs`` over one
    log and ``_SWAPS``. None for any other log, and for a swap log the
    decoder rejects. ``pools`` maps pool address -> object with a
    ``tokens`` sequence, which Uniswap V2/V3, Curve and StableSwap events
    need to name their tokens."""
    decoded = decode_logs((log,), _SWAPS, pools)
    return decoded[0][1] if decoded else None


def decode_logs(logs: Sequence[EventLog], categories, pools=None) -> list:
    """Decode every log registered under one of ``categories`` into
    ``(log, action)`` pairs in input order, dropping logs whose rule yields
    None. A log the decoder rejects with a MevlensError is skipped and
    logged at DEBUG; any other exception propagates. Equal addresses in the
    actions are one object."""
    wanted = frozenset(categories)
    share = _Shared().__getitem__
    decoded = []
    for log in logs:
        entry = DEFAULT_REGISTRY.lookup(log.topics[0])
        if entry is None or wanted.isdisjoint(entry.categories):
            continue
        try:
            action = _decode(log, entry, pools, share)
        except MevlensError as exc:
            _log.debug("skipped %s log at %s: %s", entry.event, log.position, exc)
            continue
        if action is not None:
            decoded.append((log, action))
    return decoded


def load_decoded(ctx, categories, pools=None) -> tuple:
    """A command's dataset, loaded through ``ctx`` with the logs of
    ``categories`` only, and the one ``decode_logs`` pass over them."""
    ds = ctx.dataset(categories=categories)
    return ds, decode_logs(ds.logs, categories, pools)
