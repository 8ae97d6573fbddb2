"""Every frozen record class: construction, checks, immutability, equality, repr, pickling.

The repr strings are the text the standard-library frozen dataclasses gave
for the same values, kept as literals. The timing checks compare building
a record with building a dataclass twin of it, whose methods are compiled.
"""

import dataclasses
import importlib
import math
import pickle
import pkgutil
import re
import timeit
from typing import Optional

import numpy as np
import pytest

import bellsim
from bellsim.counterfactual import (
    CounterfactualCell,
    CounterfactualTable,
    DefinitenessVerdict,
    TrialLedger,
)
from bellsim.interferometer import InterferometerSpec
from bellsim.models import (
    ModelDescriptor,
    TrialRecord,
    _SamplingTables,
)
from bellsim.optimize import LandscapeGrid, OptimizationResult
from bellsim.polytope import CorrelationVector, FeasibilityVerdict, ViolatedFacet
from bellsim.quantum import JointOutcomeDistribution, TwoQubitState
from bellsim.stats import ChshResult, CoincidenceCounts, CorrelationEstimate

PATTERN = (1, -1, 1, 1)
MODEL = ModelDescriptor("quantum", "psi_minus", (0.0, 1.0, 2.0, 3.0))
MODEL_REPR = (
    "ModelDescriptor(kind='quantum', state='psi_minus', angles=(0.0, 1.0, 2.0, 3.0), "
    "weights=None, table=None)"
)
COUNTS = CoincidenceCounts(7, 2, 2, 5)
COUNTS_REPR = "CoincidenceCounts(n_pp=7, n_pm=2, n_mp=2, n_mm=5)"
ESTIMATE = CorrelationEstimate(0.5, 0.25, COUNTS)
ESTIMATE_REPR = f"CorrelationEstimate(value=0.5, std_error=0.25, counts={COUNTS_REPR})"
CHSH_REPR = (
    f"ChshResult(correlations={{('a', 'b'): {ESTIMATE_REPR}}}, s_value=0.5, s_std_error=0.25, "
    "sign_pattern=(1, -1, 1, 1), bound_class='local')"
)
FACET = ViolatedFacet(PATTERN, 0.5)
FACET_REPR = "ViolatedFacet(sign_pattern=(1, -1, 1, 1), margin=0.5)"
VERDICT = FeasibilityVerdict(False, None, FACET)
VERDICT_REPR = f"FeasibilityVerdict(feasible=False, weights=None, violated_facet={FACET_REPR})"
VECTOR = CorrelationVector(0.5, 0.5, 0.5, -0.5)
VECTOR_REPR = "CorrelationVector(e_ab=0.5, e_abp=0.5, e_apb=0.5, e_apbp=-0.5)"
CELL = CounterfactualCell("definite", (1, -1), None)
CELL_REPR = "CounterfactualCell(kind='definite', outcome=(1, -1), distribution=None)"
RECORD_REPR = "TrialRecord(settings=('a', 'b'), outcomes=(1, -1), hidden=None, stream_id=3)"

# Each record class, its fields in order with valid values, and its repr.
CASES = [
    (
        TwoQubitState,
        {"amplitudes": (1, 0, 0, 0)},
        "TwoQubitState(amplitudes=((1+0j), 0j, 0j, 0j))",
    ),
    (
        JointOutcomeDistribution,
        {"probabilities": (0.5, 0, 0, 0.5)},
        "JointOutcomeDistribution(probabilities=(0.5, 0.0, 0.0, 0.5))",
    ),
    (
        CoincidenceCounts,
        {"n_pp": 1, "n_pm": 2, "n_mp": 3, "n_mm": 4},
        "CoincidenceCounts(n_pp=1, n_pm=2, n_mp=3, n_mm=4)",
    ),
    (CorrelationEstimate, {"value": 0.5, "std_error": 0.25, "counts": COUNTS}, ESTIMATE_REPR),
    (
        ChshResult,
        {
            "correlations": {("a", "b"): ESTIMATE},
            "s_value": 0.5,
            "s_std_error": 0.25,
            "sign_pattern": PATTERN,
            "bound_class": "local",
        },
        CHSH_REPR,
    ),
    (
        TrialRecord,
        {"settings": ("a", "b"), "outcomes": (1, -1), "hidden": None, "stream_id": 3},
        RECORD_REPR,
    ),
    (
        _SamplingTables,
        {
            "draws": 2,
            "cdf": None,
            "answers": None,
            "conditionals": None,
        },
        "_SamplingTables(draws=2, cdf=None, answers=None, conditionals=None)",
    ),
    (
        ModelDescriptor,
        {
            "kind": "quantum",
            "state": "psi_minus",
            "angles": (0.0, 1.0, 2.0, 3.0),
            "weights": None,
            "table": None,
        },
        MODEL_REPR,
    ),
    (CorrelationVector, {"e_ab": 0.5, "e_abp": 0.5, "e_apb": 0.5, "e_apbp": -0.5}, VECTOR_REPR),
    (ViolatedFacet, {"sign_pattern": PATTERN, "margin": 0.5}, FACET_REPR),
    (
        FeasibilityVerdict,
        {"feasible": False, "weights": None, "violated_facet": FACET},
        VERDICT_REPR,
    ),
    (
        OptimizationResult,
        {"angles": (0.0, 1.0, 2.0, 3.0), "s_value": 2.5, "sign_pattern": PATTERN},
        "OptimizationResult(angles=(0.0, 1.0, 2.0, 3.0), s_value=2.5, sign_pattern=(1, -1, 1, 1))",
    ),
    (
        LandscapeGrid,
        {
            "row_label": "a",
            "col_label": "b",
            "angles": (0.0, 1.0),
            "values": ((1.0, 2.0), (3.0, 4.0)),
            "fixed": {"a'": 0.0, "b'": 1.0},
            "sign_pattern": PATTERN,
        },
        "LandscapeGrid(row_label='a', col_label='b', angles=(0.0, 1.0), "
        "values=((1.0, 2.0), (3.0, 4.0)), fixed={\"a'\": 0.0, \"b'\": 1.0}, "
        "sign_pattern=(1, -1, 1, 1))",
    ),
    (
        InterferometerSpec,
        {"reflectivity": 0.25, "bomb_present": True, "phase": 0.5},
        "InterferometerSpec(reflectivity=0.25, bomb_present=True, phase=0.5)",
    ),
    (CounterfactualCell, {"kind": "definite", "outcome": (1, -1), "distribution": None}, CELL_REPR),
    (
        CounterfactualTable,
        {"factual_settings": ("a", "b"), "factual_outcome": (1, -1), "cells": {("a", "b"): CELL}},
        "CounterfactualTable(factual_settings=('a', 'b'), factual_outcome=(1, -1), "
        f"cells={{('a', 'b'): {CELL_REPR}}})",
    ),
    (
        TrialLedger,
        {
            "seed": 7,
            "model": MODEL,
            "pairs": np.array([0], dtype=np.int8),
            "outcomes": np.array([[1, -1]], dtype=np.int8),
            "hidden": None,
        },
        f"TrialLedger(seed=7, model={MODEL_REPR}, pairs=array([0], dtype=int8), "
        "outcomes=array([[ 1, -1]], dtype=int8), hidden=None)",
    ),
    (
        DefinitenessVerdict,
        {
            "classification": "definite",
            "feasibility": VERDICT,
            "correlation_vector": VECTOR,
            "feasibility_tolerance": 0.125,
            "cell_kinds": {"definite": 4},
            "trials_examined": 4,
            "factual_replays_matched": 4,
        },
        f"DefinitenessVerdict(classification='definite', feasibility={VERDICT_REPR}, "
        f"correlation_vector={VECTOR_REPR}, feasibility_tolerance=0.125, "
        "cell_kinds={'definite': 4}, trials_examined=4, factual_replays_matched=4)",
    ),
]
IDS = [cls.__name__ for cls, *_ in CASES]

# Classes compared by identity, as their dataclasses were (eq=False), and
# TrialLedger, whose array fields have no single truth value under ==.
IDENTITY_EQUAL = {TwoQubitState, TrialLedger}

# Per class with a check in __post_init__, calls that its checks reject.
INVALID = {
    TwoQubitState: [lambda: TwoQubitState((1, 0, 0))],
    JointOutcomeDistribution: [lambda: JointOutcomeDistribution((0.5,) * 4)],
    CoincidenceCounts: [lambda: CoincidenceCounts(n_mp=-1)],
    CorrelationEstimate: [lambda: CorrelationEstimate(1.5, 0.25, COUNTS)],
    ChshResult: [lambda: ChshResult({}, 5.0, 0.0, PATTERN, "algebraic")],
    ModelDescriptor: [lambda: ModelDescriptor("quantum", "psi_minus")],
    CorrelationVector: [lambda: CorrelationVector(0.5, 0.5, 1.5, 0.5)],
    FeasibilityVerdict: [lambda: FeasibilityVerdict(True)],
    InterferometerSpec: [lambda: InterferometerSpec(reflectivity=1.0)],
    CounterfactualCell: [
        lambda: CounterfactualCell("definite"),
        lambda: CounterfactualCell("maybe"),
    ],
    CounterfactualTable: [lambda: CounterfactualTable(("a", "b"), (1, 1), {("a", "b"): CELL})],
    TrialLedger: [
        lambda: TrialLedger(
            7, MODEL, np.array([0, 1], dtype=np.int8), np.array([[1, -1]], dtype=np.int8), None
        ),
    ],
}

# Calls that leave fields at their defaults.
DEFAULTS = [
    (CoincidenceCounts, {}, "CoincidenceCounts(n_pp=0, n_pm=0, n_mp=0, n_mm=0)"),
    (CoincidenceCounts, {"n_mm": 4}, "CoincidenceCounts(n_pp=0, n_pm=0, n_mp=0, n_mm=4)"),
    (InterferometerSpec, {}, "InterferometerSpec(reflectivity=0.5, bomb_present=False, phase=0.0)"),
    (
        CounterfactualCell,
        {"kind": "undefined"},
        "CounterfactualCell(kind='undefined', outcome=None, distribution=None)",
    ),
    (FeasibilityVerdict, {"feasible": False, "violated_facet": FACET}, VERDICT_REPR),
    (ModelDescriptor, {"kind": "quantum", "state": "psi_minus", "angles": (0, 1, 2, 3)}, MODEL_REPR),
]


def _record_classes():
    found = set()
    for info in pkgutil.iter_modules(bellsim.__path__):
        module = importlib.import_module(f"bellsim.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and "__record_fields__" in vars(value):
                found.add(value)
    return found


def test_every_record_class_is_covered():
    assert _record_classes() == {cls for cls, *_ in CASES}
    assert len(CASES) == 18


def test_every_post_init_check_is_covered():
    assert {cls for cls, *_ in CASES if hasattr(cls, "__post_init__")} == set(INVALID)


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == text
    for name in fields:
        # An array field holds the array passed in, where == would compare element by element.
        keyword_value, positional_value = getattr(by_keyword, name), getattr(by_position, name)
        assert keyword_value is positional_value or keyword_value == positional_value
    first, *rest = fields
    mixed = cls(fields[first], **{name: fields[name] for name in rest})
    assert repr(mixed) == text


@pytest.mark.parametrize("cls,fields,text", DEFAULTS, ids=[cls.__name__ for cls, *_ in DEFAULTS])
def test_defaults_fill_omitted_fields(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, fields, text):
    values = list(fields.values())
    first = next(iter(fields))
    signature = re.escape(f"{cls.__name__}() takes ({', '.join(fields)}); got ")
    with pytest.raises(TypeError, match=signature + f"{len(values) + 1} positional"):
        cls(*values, None)
    with pytest.raises(TypeError, match=signature + r"0 positional .* \['bogus', "):
        cls(bogus=1, **fields)
    with pytest.raises(TypeError, match=signature + f"{len(values)} positional .* \\['{first}'\\]"):
        cls(*values, **{first: values[0]})
    if cls not in (CoincidenceCounts, InterferometerSpec):  # every field has a default
        with pytest.raises(TypeError, match=signature + r"0 positional .* \[\]"):
            cls()


@pytest.mark.parametrize("cls", sorted(INVALID, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_post_init_still_rejects_bad_input(cls):
    for call in INVALID[cls]:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    record = cls(**fields)
    for name in [*fields, "unrelated"]:
        with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, fields, text):
    record, twin = cls(**fields), cls(**fields)
    assert record == record
    assert record != object()
    if cls in IDENTITY_EQUAL:
        assert record != twin
        assert hash(record) == object.__hash__(record)
        return
    assert record == twin
    assert not record != twin
    values = tuple(getattr(record, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the field tuple is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


def test_equality_needs_the_same_class_and_fields():
    assert CoincidenceCounts(1, 2, 3, 4) != (1, 2, 3, 4)
    assert ViolatedFacet(PATTERN, 0.5) != ViolatedFacet(PATTERN, 0.25)
    assert CorrelationVector(0.5, 0.5, 0.5, -0.5) != CorrelationVector(0.5, 0.5, 0.5, 0.5)
    assert len({CoincidenceCounts(1, 2, 3, 4), CoincidenceCounts(1, 2, 3, 4)}) == 1


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    record = cls(**fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert repr(copy) == text
    if cls not in IDENTITY_EQUAL:
        assert copy == record


def test_cached_tables_are_written_past_the_frozen_fields():
    model = ModelDescriptor("lhv_deterministic", weights=(1.0,) + (0.0,) * 15)
    assert model._tables is model._tables
    assert model == ModelDescriptor("lhv_deterministic", weights=(1.0,) + (0.0,) * 15)


@dataclasses.dataclass(frozen=True)
class _TrialRecordTwin:
    settings: tuple
    outcomes: tuple
    hidden: Optional[int]
    stream_id: int


@dataclasses.dataclass(frozen=True)
class _CoincidenceCountsTwin:
    n_pp: int = 0
    n_pm: int = 0
    n_mp: int = 0
    n_mm: int = 0

    __post_init__ = CoincidenceCounts.__post_init__


@pytest.mark.parametrize(
    "record,twin",
    [
        (lambda: TrialRecord(("a", "b"), (1, -1), None, 3), lambda: _TrialRecordTwin(("a", "b"), (1, -1), None, 3)),
        (lambda: CoincidenceCounts(1, 2, 3, 4), lambda: _CoincidenceCountsTwin(1, 2, 3, 4)),
    ],
    ids=["TrialRecord", "CoincidenceCounts"],
)
def test_positional_construction_stays_within_twice_the_compiled_cost(record, twin):
    # Methods shared by all classes cost more per call than ones compiled for
    # one class: about 1.15 against 0.78 us for TrialRecord and 1.42 against
    # 1.09 us for CoincidenceCounts, best of 30 rounds on a 2-core Xeon. Going
    # through keyword binding for positional calls would cost more than twice.
    assert repr(record()).partition("(")[2] == repr(twin()).partition("(")[2]
    record_s = twin_s = math.inf
    for _ in range(45):  # alternated round by round, so a slow spell of the machine hits both
        record_s = min(record_s, timeit.timeit(record, number=2000))
        twin_s = min(twin_s, timeit.timeit(twin, number=2000))
    assert record_s <= 2.0 * twin_s
