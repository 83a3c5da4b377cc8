"""The bridge join: L1 bridge messages linked to their L2 executions, the
victim swaps those executions hold, and the inclusion delays between the
two layers."""

from typing import NamedTuple, Optional, Sequence

from .chain_model import ChainDataset, ChainId, Layer, ZKSYNC
from .decoding import BridgeMessageAction, decode_logs
from .errors import EmptyInput
from .registry import Category
from .reporting import month_of, summary_stats

# the categories of each side's decode pass in infer_victims
_L1_CATEGORIES = frozenset((Category.L1_MESSAGE,))
_L2_CATEGORIES = frozenset((Category.L2_MESSAGE, Category.VICTIM_SWAP))


class CrossLayerLink(NamedTuple):
    rollup: ChainId
    l1_tx: bytes
    l2_tx: bytes
    link_key: bytes
    l1_timestamp: int
    l2_timestamp: int
    l2_block: int           # the block of the L2 execution

    @property
    def delay_s(self) -> int:
        return self.l2_timestamp - self.l1_timestamp


class VictimSwap(NamedTuple):
    token_in: bytes
    token_out: bytes
    amount_in: int
    min_amount_out: Optional[int] = None
    assumed_slippage: bool = False


class VictimCandidate(NamedTuple):
    link: CrossLayerLink
    swap: VictimSwap
    pool: bytes


def infer_victims(l1_dataset: ChainDataset, l2_dataset: ChainDataset, pools_meta=None):
    """Join L1 bridge emissions with L2 executions; a linked L2 tx holding a
    decoded victim swap (Uniswap V3 Swap, StableSwap TokenSwap) at a pool
    in ``pools_meta`` is a candidate, taken from the tx's first such swap.
    A message executed twice links to its first execution; the second
    stays unlinked. One decode pass per dataset looks up each topic once.

    Returns (candidates, links, diagnostics) where diagnostics lists
    unlinked message actions on both sides. ValueError when ``l2_dataset``
    is not of a rollup: every L1 message would stay unlinked.
    """
    rollup = l2_dataset.chain
    if rollup is None or rollup.layer is not Layer.L2:
        what = "no chain" if rollup is None else f"chain {rollup.name}"
        raise ValueError(f"the L2 dataset has {what}: no rollup to join the L1 messages to")
    l1_actions = [a for _, a in decode_logs(l1_dataset.logs, _L1_CATEGORIES)
                  if a.rollup == rollup]
    l2_actions, swaps = [], {}
    for _, action in decode_logs(l2_dataset.logs, _L2_CATEGORIES, pools_meta):
        if isinstance(action, BridgeMessageAction):
            l2_actions.append(action)
        else:
            swaps.setdefault(action.tx_hash, action)

    # zkSync executes under the same tx hash; synthesize the L2 side
    if rollup == ZKSYNC:
        for a in l1_actions:
            tx = l2_dataset.tx(a.link_key)
            if tx is not None:
                l2_actions.append(a._replace(direction="l2_execute", tx_hash=tx.hash,
                                             position=(tx.block_number, tx.tx_index, -1)))

    l2_by_key = {}
    for a in l2_actions:
        l2_by_key.setdefault((a.rollup.name, a.link_key), a)

    links, candidates, unlinked_l1 = [], [], []
    matched_l2 = set()
    for a in l1_actions:
        b = l2_by_key.get((a.rollup.name, a.link_key))
        if b is None:
            unlinked_l1.append(a)
            continue
        matched_l2.add(id(b))
        link = CrossLayerLink(rollup=a.rollup, l1_tx=a.tx_hash, l2_tx=b.tx_hash,
                              link_key=a.link_key,
                              l1_timestamp=l1_dataset.block_timestamp(a.position[0]),
                              l2_timestamp=l2_dataset.block_timestamp(b.position[0]),
                              l2_block=b.position[0])
        links.append(link)
        swap = swaps.get(b.tx_hash)
        if swap is not None:
            candidates.append(VictimCandidate(
                link=link, swap=VictimSwap(swap.token_in, swap.token_out, swap.amount_in),
                pool=swap.venue))

    unlinked_l2 = [a for a in l2_actions if id(a) not in matched_l2]
    diagnostics = {"unlinked_l1": unlinked_l1, "unlinked_l2": unlinked_l2}
    return candidates, links, diagnostics


def delay_stats(links: Sequence[CrossLayerLink]):
    """Overall and per-month (UTC, by L1 timestamp) delay statistics.

    Each is a ``summary_stats`` cell with the ``count`` of its delays.
    Negative delays are anomalies: excluded from statistics, returned
    separately.
    """
    def cell(delays):
        return dict(summary_stats(delays), count=len(delays))

    valid = [l for l in links if l.delay_s >= 0]
    anomalies = [l for l in links if l.delay_s < 0]
    if not valid:
        raise EmptyInput("no valid links")
    monthly = {}
    for l in valid:
        monthly.setdefault(month_of(l.l1_timestamp), []).append(l.delay_s)
    return (cell([l.delay_s for l in valid]),
            {m: cell(ds) for m, ds in sorted(monthly.items())}, anomalies)
