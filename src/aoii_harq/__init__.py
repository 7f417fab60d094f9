"""Budget-constrained scheduling for remote monitoring of a symmetric Markov
source over a slotted HARQ channel, measured by the age of incorrect
information (AoII).

The package solves the constrained average-cost problem in closed form
(lagrangian + rate + optimizer), validates the solution against an
independent relative-value-iteration oracle (rvi), and measures policies by
seeded Monte Carlo simulation (sim).  The cli module wraps everything as an
experiment harness.
"""

from .errors import (
    BoundednessError,
    ConfigError,
    DivergenceError,
    SolverError,
    ThresholdSearchError,
    TruncationError,
)
from .lagrangian import (
    SeriesConfig,
    cycle_sums,
    g_for_threshold,
    g_wait,
    optimal_threshold,
    sigma_series,
    value_at,
)
from .model import (
    TRANSMIT,
    WAIT,
    ChannelModel,
    GammaPair,
    PenaltySpec,
    SourceModel,
    State,
    gamma,
    gamma_arrays,
    transition_dist,
    validate_boundedness,
)
from .optimizer import (
    REGIME_MIXED,
    REGIME_NEVER_TRANSMIT,
    REGIME_PURE_THRESHOLD,
    CmdpSolution,
    solution_policy,
    solve_cmdp,
)
from .rate import MTable, RateAnalysis, achieved_rate, m_table, mixed_chain_analysis
from .rvi import RviConfig, RviSolution, extract_thresholds, rvi_solve
from .sim import (
    FixedThreshold,
    MixedThreshold,
    NeverTransmit,
    Periodic,
    SimReport,
    replicate,
    simulate,
    split_seed,
)

__version__ = "0.1.0"
