"""Budget-constrained scheduling for remote monitoring of a symmetric Markov
source over a slotted HARQ channel, measured by the age of incorrect
information (AoII).

The model module holds the source, channel and penalty types and the one
transmit law that every computation reads: only model.transmit_law forms
and range-checks a transmit slot's outcomes, and gamma_arrays is its
(gamma1, gamma2).  The package solves the constrained average-cost problem
in closed form (lagrangian + rate + optimizer), validates the solution
against an independent relative-value-iteration oracle (rvi), and measures
policies by seeded Monte Carlo simulation (sim).  The cli module wraps
everything as an experiment harness.
"""

from .errors import (
    BoundednessError,
    ConfigError,
    DegenerateKernelError,
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
    ChannelModel,
    GammaPair,
    PenaltySpec,
    SourceModel,
    gamma,
    gamma_arrays,
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
from .rate import RateAnalysis, achieved_rate, m_table, mixed_chain_analysis
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
