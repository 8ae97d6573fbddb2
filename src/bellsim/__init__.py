"""Simulation and analysis toolkit for CHSH correlation experiments.

Exact two-qubit quantum mechanics, trial generators for quantum,
local-hidden-variable, superdeterministic and nonlocal world models,
CHSH statistics with the classical and quantum bounds, local-polytope
membership, angle optimization, counterfactual replay classification,
and a single-photon absorber-detection interferometer.
"""

from .counterfactual import (
    CounterfactualCell,
    CounterfactualTable,
    DefinitenessVerdict,
    TrialLedger,
    classify_definiteness,
    counterfactual_table,
    joint_assignment_feasibility,
    ledger_text,
    read_ledger_records,
    record_run,
    replay_counterfactual,
    write_ledger,
)
from .experiment import (
    ChshExperimentResult,
    estimate_correlation_vector,
    model_exact_correlations,
    run_chsh_experiment,
)
from .interferometer import InterferometerSpec, port_probabilities, run_bomb_trials
from .models import (
    LhvStrategy,
    ModelDescriptor,
    NoSignallingReport,
    SINGLET_OPTIMAL_ANGLES,
    TrialRecord,
    catalog,
    count_outcomes,
    generate_outcomes,
    lhv_deterministic_model,
    lhv_stochastic_model,
    no_signalling_check,
    nonlocal_model,
    pr_box_table,
    quantum_model,
    run_trial,
    run_trials,
    superdeterministic_model,
)
from .optimize import LandscapeGrid, OptimizationResult, optimize_angles, s_landscape
from .polytope import (
    CorrelationVector,
    FeasibilityVerdict,
    ViolatedFacet,
    enumerate_deterministic_strategies,
    local_membership,
    max_classical_s,
    strategy_correlation,
    vertex_matrix,
)
from .quantum import (
    JointOutcomeDistribution,
    MeasurementSetting,
    OUTCOME_ORDER,
    SpinObservable,
    TwoQubitState,
    correlation_matrix,
    expectation,
    joint_probabilities,
    make_bell_state,
    make_named_state,
    spin_observable,
)
from .stats import (
    ChshResult,
    CoincidenceCounts,
    CorrelationEstimate,
    DEFAULT_SIGN_PATTERN,
    PAIR_ORDER,
    SIGN_PATTERNS,
    TSIRELSON_BOUND,
    accumulate,
    chsh_s,
    correlation,
    correlation_fraction,
    counts_from_outcomes,
    exact_chsh_s,
    validate_sign_pattern,
)
from .streams import TrialStream, batch_uniforms

__version__ = "0.1.0"
