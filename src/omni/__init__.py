"""Desk-scale workbench for running, enumerating, and weighing tiny programs.

A three-symbol machine whose halting programs form a prefix-free set, a
shortlex bijection for fair enumeration, complexity and prior-mass
estimators built on exhaustive search and sampling, an entropy coder for
state sequences, and a self-modifying learner that keeps only the policy
edits that keep paying for themselves.
"""

from .coding import (
    CODER_SLACK_BITS,
    NoiseModel,
    ZeroProbabilityError,
    arithmetic_roundtrip,
    fit_noise_model,
    shannon_code_length,
)
from .complexity import (
    ComplexityBound,
    MutualInformation,
    compressibility_census,
    conditional_upper_bound,
    mutual_information_estimate,
    shortest_program_upper_bound,
)
from .enumeration import (
    OUTPUT_CAP,
    DovetailRegistry,
    RegistryEntry,
    dovetail,
    index_to_program,
    program_to_index,
    programs,
    steps_offered,
)
from .machine import (
    BUDGET,
    DUAL,
    FINITE,
    HALTED,
    LAZY,
    T3,
    T3C,
    RunResult,
    run,
)
from .multiverse import (
    END_MARKER,
    DedupGroup,
    UniverseState,
    dedup_universes,
    parse_evolution,
)
from .prior import (
    KraftReport,
    PriorEstimate,
    canonical_programs,
    coding_theorem_gap,
    compiler_prefix_check,
    enumerate_prior,
    estimate_prior_mc,
    estimate_prior_mc_batch,
    kraft_sum,
)
from .ssa import (
    ACTIONS,
    LearnerTrace,
    Policy,
    SwitchingBandit,
    apply_pla,
    run_learner,
    ssc_evaluate,
    ssc_holds,
    uniform_baseline,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
