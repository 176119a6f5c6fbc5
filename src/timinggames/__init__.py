"""Timing games in propose-vote Proof-of-Stake consensus: a deterministic
slot simulator, strategy profiles with mechanical equilibrium verification,
and a synthetic block-auction market with a marginal-value-of-time estimator.
"""

from .config import (
    COMMANDS,
    PRESETS,
    ExperimentConfig,
    resolve_config,
)
from .distributions import LatencyDistribution
from .engine import (
    RngStream,
    SimConfig,
    SimulationError,
    StrategySpec,
    derive_seed,
    run_simulation,
    sample_latency_array,
    strategy_spec,
)
from .equilibrium import (
    DeviationOutcome,
    DeviationReport,
    ResponseCurve,
    SweepRow,
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    default_deviation_grid,
    sweep_delta_star,
)
from .market import (
    BidTable,
    RegressionReport,
    estimate_mvot,
    generate_bid_stream,
    load_bids,
    pooled_ols_slope,
    read_bids_csv,
    read_bids_jsonl,
    write_bids_jsonl,
)
from .metrics import bucket_curve, next_slot_share_samples, pearson
from .model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    SimulationTrace,
)
from .strategies import DEFAULT_SIGNING_DELAY, optimal_delay

__version__ = "0.1.0"
