"""Simulation and analysis toolkit for CHSH correlation experiments.

Exact two-qubit quantum mechanics, trial generators for quantum,
local-hidden-variable, superdeterministic and nonlocal world models,
CHSH statistics with the classical and quantum bounds, local-polytope
membership, angle optimization, counterfactual replay classification,
and a single-photon absorber-detection interferometer.

The package namespace is lazy (PEP 562): `import bellsim` loads no
submodule, and each public name imports its module on first access, so a
process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_MODULE_EXPORTS: dict[str, tuple[str, ...]] = {
    "counterfactual": (
        "CounterfactualCell",
        "CounterfactualTable",
        "DefinitenessVerdict",
        "TrialLedger",
        "classify_definiteness",
        "counterfactual_table",
        "ledger_text",
        "record_run",
        "replay_counterfactual",
    ),
    "experiment": (
        "ChshExperimentResult",
        "model_exact_correlations",
        "run_chsh_experiment",
    ),
    "interferometer": ("InterferometerSpec", "port_probabilities", "run_bomb_trials"),
    "models": (
        "ModelDescriptor",
        "SINGLET_OPTIMAL_ANGLES",
        "TrialRecord",
        "catalog",
        "generate_outcomes",
        "lhv_deterministic_model",
        "lhv_stochastic_model",
        "nonlocal_model",
        "pr_box_table",
        "quantum_model",
        "run_trial",
        "superdeterministic_model",
    ),
    "optimize": ("LandscapeGrid", "OptimizationResult", "optimize_angles", "s_landscape"),
    "polytope": (
        "CorrelationVector",
        "FeasibilityVerdict",
        "VERTICES",
        "ViolatedFacet",
        "local_membership",
    ),
    "quantum": (
        "JointOutcomeDistribution",
        "MeasurementSetting",
        "OUTCOME_ORDER",
        "TwoQubitState",
        "correlation_matrix",
        "expectation",
        "joint_probabilities",
        "make_named_state",
    ),
    "stats": (
        "ChshResult",
        "CoincidenceCounts",
        "CorrelationEstimate",
        "DEFAULT_SIGN_PATTERN",
        "PAIR_ORDER",
        "SIGN_PATTERNS",
        "TSIRELSON_BOUND",
        "chsh_s",
        "correlation",
        "counts_from_outcomes",
        "exact_chsh_s",
        "validate_sign_pattern",
    ),
    "streams": ("TrialStream", "batch_uniforms"),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_EXPORTS) | set(_EXPORTS))
