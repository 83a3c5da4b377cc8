"""mevlens: MEV detection, opportunity attribution, and cross-layer
sandwich simulation over recorded chain fixtures."""

from .amm import (PathHop, PoolInfo, PoolState, SwapQuote, cp_pool, cp_swap_out,
                  load_pool_metadata, simulate_path, stable_D, stable_pool,
                  stable_swap_out, swap_out)
from .bytecode import BytecodeRecord, Cluster, cluster, normalize, strip_metadata
from .chain_model import (ARBITRUM, CHAINS, ETHEREUM, OPTIMISM, ZKSYNC, BlockRecord,
                          ChainDataset, ChainId, EventLog, Layer, TxRecord, TxStatus,
                          dump_fixture, load_fixture, logs_in_range, to_hex)
from .crosslayer import (AttackResult, AttackScenario, CostModel, CrossLayerLink,
                         DelayStats, VictimCandidate, VictimSwap, capital_sweep,
                         delay_stats, infer_victims, optimal_frontrun,
                         simulate_strategy)
from .detectors import (ArbitrageFinding, LiquidationFinding, PriceProvider,
                        SandwichFinding, arbitrage_profit, attribute_flash_loans,
                        chain_cycles, detect_arbitrages, detect_liquidations,
                        detect_sandwiches, liquidation_profit, validate_arbitrage)
from .errors import MevlensError
from .keccak import keccak256
from .opportunity import (OpportunityResult, StateProvider, block_distance_cdf,
                          detect_competition, find_arbitrage_opportunity,
                          find_liquidation_opportunity, reverted_rate)
from .registry import DEFAULT_REGISTRY, Category, TopicRegistry

__version__ = "0.1.0"
