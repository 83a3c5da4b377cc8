"""Event topic registry: topic hash -> (category, protocol, event, schema).

The compiled-in table mirrors the event set the detectors rely on.
"""

from enum import Enum
from typing import NamedTuple, Optional


class Category(Enum):
    ARBITRAGE = "arbitrage"
    LIQUIDATION = "liquidation"
    TRANSFER = "transfer"
    ORACLE_UPDATE = "oracle_update"
    FLASH_LOAN = "flash_loan"
    L1_MESSAGE = "l1_message"
    L2_MESSAGE = "l2_message"
    VICTIM_SWAP = "victim_swap"


class RegistryEntry(NamedTuple):
    topic: bytes
    categories: frozenset  # of Category
    label: str             # display category
    protocol: str
    event: str
    schema: str            # decoder schema key, see decoding module


def _e(topic_hex, categories, label, protocol, event, schema):
    return RegistryEntry(bytes.fromhex(topic_hex), frozenset(categories),
                         label, protocol, event, schema)


_ARB = [Category.ARBITRAGE]
_LIQ = [Category.LIQUIDATION]

_ENTRIES = [
    # DEX swap events
    _e("d78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822",
       _ARB, "Arbitrage", "Uniswap V2", "Swap", "uniswap_v2_swap"),
    _e("c42079f94a6350d7e6235f29174924f928cc2ac818eb64fed8004e115fbcca67",
       [Category.ARBITRAGE, Category.VICTIM_SWAP],
       "Arbitrage/Victim Inference", "Uniswap V3", "Swap", "uniswap_v3_swap"),
    _e("908fb5ee8f16c6bc9bc3690973819f32a4d4b10188134543c88706e0e1d43378",
       _ARB, "Arbitrage", "Balancer V1", "LOG_SWAP", "balancer_v1_swap"),
    _e("2170c741c41531aec20e7c107c24eecfdd15e69c9bb0a8dd37b1840b9e0b207b",
       _ARB, "Arbitrage", "Balancer V2", "Swap", "balancer_v2_swap"),
    _e("d013ca23e77a65003c2c659c5442c00c805371b7fc1ebd4c206c41d1536bd90b",
       _ARB, "Arbitrage", "Curve", "TokenExchangeUnderlying", "curve_exchange"),
    _e("8b3e96f2b889fa771c53c981b40daf005f63f637f1869f707052d15a3dd97140",
       _ARB, "Arbitrage", "Curve", "TokenExchange", "curve_exchange"),
    # lending liquidations
    _e("56864757fd5b1fc9f38f5f3a981cd8ae512ce41b902cf73fc506ee369c6bc237",
       _LIQ, "Liquidations", "Aave V1", "LiquidationCall", "aave_v1_liquidation"),
    _e("e413a321e8681d831f4dbccbca790d2952b56f977908e45be37335533e005286",
       _LIQ, "Liquidations", "Aave V2/V3", "LiquidationCall", "aave_v2v3_liquidation"),
    _e("298637f684da70674f26509b10f07ec2fbc77a335ab1e7d6215a4b2484d8bb52",
       _LIQ, "Liquidations", "Compound V2", "LiquidateBorrow", "compound_liquidate"),
    _e("e5b754fb1abb7f01b499791d0b820ae3b6af3424ac1c59768edb53f4ec31a929",
       _LIQ, "Liquidations", "Compound", "Redeem", "compound_redeem"),
    _e("e02f6383e19e87c24e0c03e2cd5dbd05156cb29a1b0f3dbca1fa3430e444f63d",
       _LIQ, "Liquidations", "Compound", "Redeem", "compound_redeem"),
    # ERC-20 transfer: sandwich detection (the label is the paper's; victim
    # inference reads the swap event alone)
    _e("ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef",
       [Category.TRANSFER], "Sandwiches/Victim Inference", "ERC-20", "Transfer",
       "erc20_transfer"),
    # oracle updates
    _e("0559884fd3a460db3073b7fc896cc77986f16e378210ded43186175bf646fc5f",
       [Category.ORACLE_UPDATE], "Oracle Updates", "Chainlink", "AnswerUpdated",
       "chainlink_answer_updated"),
    # flash loans
    _e("5b8f46461c1dd69fb968f1a003acee221ea3e19540e350233b612ddb43433b55",
       [Category.FLASH_LOAN], "Flash Loans", "Aave V1", "FlashLoan", "aave_v1_flashloan"),
    _e("631042c832b07452973831137f2d73e395028b44b250dedc5abb0ee766e168ac",
       [Category.FLASH_LOAN], "Flash Loans", "Aave V2", "FlashLoan", "aave_v2_flashloan"),
    _e("efefaba5e921573100900a3ad9cf29f222d995fb3b6045797eaea7521bd8d6f0",
       [Category.FLASH_LOAN], "Flash Loans", "Aave V3", "FlashLoan", "aave_v3_flashloan"),
    _e("0d7d75e01ab95780d3cd1c8ec0dd6c2ce19e3a20427eec8bf53283b6fb8e95f0",
       [Category.FLASH_LOAN], "Flash Loans", "Balancer", "FlashLoan", "balancer_flashloan"),
    # L1 -> L2 bridge messages
    _e("ff64905f73a67fb594e0f940a8075a860db489ad991e032f48c81123eb52d60b",
       [Category.L1_MESSAGE], "L1 Messages", "Arbitrum", "InboxMessageDelivered",
       "arbitrum_inbox_message"),
    _e("4b388aecf9fa6cc92253704e5975a6129a4f735bdbd99567df4ed0094ee4ceb5",
       [Category.L1_MESSAGE], "L1 Messages", "Optimism", "TransactionEnqueued",
       "optimism_l1_message"),
    _e("b3813568d9991fc951961fcb4c784893574240a28925604d09fc577c55bb7c32",
       [Category.L1_MESSAGE], "L1 Messages", "Optimism", "TransactionDeposited",
       "optimism_l1_message"),
    _e("4531cd5795773d7101c17bdeb9f5ab7f47d7056017506f937083be5d6e77a382",
       [Category.L1_MESSAGE], "L1 Messages", "zkSync", "NewPriorityRequest",
       "zksync_priority_request"),
    _e("5ccd009502509cf28762c67858994d85b163bb6e451f5e9df7c5e18c9c2e123e",
       [Category.L2_MESSAGE], "L2 Messages", "Arbitrum", "RedeemScheduled",
       "arbitrum_redeem_scheduled"),
    _e("4641df4a962071e12719d8c8c8e5ac7fc4d97b927346a3d7a335b1f7517e133c",
       [Category.L2_MESSAGE], "L2 Messages", "Optimism", "RelayedMessage",
       "optimism_relayed_message"),
    # Hop-style StableSwap trade (victim inference)
    _e("c6c1e0630dbe9130cc068028486c0d118ddcea348550819defd5cb8c257f8a38",
       [Category.VICTIM_SWAP], "Victim Inference", "StableSwap", "TokenSwap",
       "stableswap_token_swap"),
]


class TopicRegistry:
    def __init__(self):
        self._by_topic = {}
        for entry in _ENTRIES:
            if entry.topic in self._by_topic:
                raise ValueError(f"duplicate topic 0x{entry.topic.hex()}")
            self._by_topic[entry.topic] = entry

    def lookup(self, topic: bytes) -> Optional[RegistryEntry]:
        return self._by_topic.get(topic)

    def topics(self, categories) -> frozenset:
        """The topics registered under one of ``categories``."""
        wanted = frozenset(categories)
        return frozenset(topic for topic, entry in self._by_topic.items()
                         if not wanted.isdisjoint(entry.categories))

    def entries(self):
        return list(self._by_topic.values())


DEFAULT_REGISTRY = TopicRegistry()
