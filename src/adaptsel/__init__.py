"""Adaptive selection policies on explicitly enumerated Bayesian instances.

Construct and evaluate adaptive policies, compute their parameters (greedy
approximation ratio, maximal gain ratio, adaptive submodularity ratio,
discrete-covering Q and eta), solve small instances to optimality by brute
force, and numerically verify the approximation guarantees relating them.
"""

from .core import (
    EMPTY,
    TOL,
    ConditionalPrior,
    Instance,
    PartialRealization,
    c_avg,
    check_adaptive_monotone,
    check_adaptive_submodular,
    f_avg,
    policy_gain,
    positive_partial_realizations,
    version_space,
)
from .errors import (
    AdaptselError,
    BudgetExceedsCost,
    CoverageUnreachable,
    DuplicateHypothesis,
    EmptyVersionSpace,
    EnumerationBudgetExceeded,
    InvalidParams,
    MalformedPolicy,
    ParseError,
    PreconditionFailed,
)
from .policy import (
    IMMEDIATE,
    TERMINAL,
    Node,
    Policy,
    RunTrace,
    Select,
    Terminal,
    ThresholdSubPolicy,
    build_greedy,
    chain_policy,
    find_threshold_pair,
    policy_height,
    run,
    tree_height,
    validate_policy,
)
from .metrics import (
    BetaResult,
    FrontierGains,
    GammaResult,
    ParamReport,
    alpha,
    beta,
    covering_params,
    frontier_gains,
    gamma,
    param_report,
)
from .oracle import (
    count_policies,
    enumerate_policies,
    optimal_budget,
    optimal_coverage,
)
from .bounds import BOUND_IDS, BoundReport, verify
from .learn import (
    HypothesisClass,
    coverage_instance,
    coverage_utility,
    gbs_policy,
    instance_from_hypotheses,
    modified_prior,
)
from .gen import gen_random, gen_theorem4, gen_theorem5, random_policy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
