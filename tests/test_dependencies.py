"""What a fresh bellsim process loads.

scipy is a test-only dependency: the package and its CLI never import it.
The package itself holds only `__version__`, each subcommand imports only
the modules it runs and builds only the catalog model it runs, and only
sampling loads numpy: local-polytope membership and its witness are plain
Python. Once numpy loads, the CLI has kept OpenBLAS from starting worker
threads unless the caller asks for them with OPENBLAS_NUM_THREADS. Nothing
starts a thread pool. Records compile no code, so no command loads
`dataclasses`, and one that samples nothing loads none of the modules
`dataclasses` would bring (numpy imports `inspect` itself).

`EXPORTS` is the one list of the public API, each name by the module that
defines it, and every top-level import of the package and its tests is read
in its module.
"""

import ast
import functools
import importlib
import json
import os
import pkgutil
from pathlib import Path

import pytest

import bellsim
from bellsim.models import CATALOG

import fresh

_PROGRAM = """
import contextlib, io, sys
import bellsim, bellsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["counterfactual", "--model", "lhv-uniform", "--trials", "8", "--stats-trials", "100", "--seed", "1"],
        ["optimize"],
        ["landscape", "--resolution", "4"],
    ):
        assert bellsim.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run_fresh(program, *args, **env):
    """stdout of a fresh `python -c program *args`; keywords are added to its environment."""
    return fresh.python(["-c", program, *args], env=env, check=True).stdout.strip()


def test_cli_runs_without_loading_scipy():
    assert _run_fresh(_PROGRAM) == "[]"


_THREADS_AFTER_SAMPLING = """
import contextlib, io, os, sys
import bellsim.cli
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert bellsim.cli.main(["chsh", "--trials", "10"]) == 0
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) == 1,
    reason="needs /proc/self/task and more than one CPU, where OpenBLAS would start workers",
)
def test_cli_import_starts_no_blas_threads():
    assert _run_fresh(_THREADS_AFTER_SAMPLING) == "1"


_THREADS_AFTER_COUNTING = """
import contextlib, io, os, threading
import bellsim.cli
from bellsim import streams
observed = []
real_start = threading.Thread.start
threading.Thread.start = lambda self: observed.append(self) or real_start(self)
with contextlib.redirect_stdout(io.StringIO()):
    assert bellsim.cli.main(["chsh", "--model", "pr-box", "--trials", "1100000"]) == 0
print(len(observed), streams._workers(4 * 17), len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and an affinity mask of at least two CPUs",
)
def test_counting_threads_end_with_the_run():
    # 17 chunks per setting pair, 68 per run: the run starts workers - 1 threads and joins them.
    started, workers, alive = map(int, _run_fresh(_THREADS_AFTER_COUNTING).split())
    assert workers >= 2
    assert started == workers - 1
    assert alive == 1


def test_caller_blas_thread_setting_is_kept():
    program = "import os, bellsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_fresh(program, OPENBLAS_NUM_THREADS="2") == "2"


def test_package_import_loads_no_submodule():
    program = (
        "import sys, bellsim\n"
        "print(sorted(m for m in sys.modules if m.startswith(('bellsim.', 'numpy'))))"
    )
    assert _run_fresh(program) == "[]"


_MODULES_AFTER_RUN = """
import contextlib, io, json, sys
import bellsim.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    assert bellsim.cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""

# Every subcommand loads these bellsim modules: the CLI's own imports.
_SHARED = {"_record", "cli", "config", "quantum", "stats"}

# Each subcommand, the other bellsim modules it loads (the ones it runs),
# and whether it loads numpy: only the commands that sample do.
_LOADED_MODULES = [
    (["chsh", "--trials", "10"], {"experiment", "models", "streams"}, True),
    (["chsh", "--trials", "10", "--threads", "2"], {"experiment", "models", "streams"}, True),
    (["chsh", "--exact"], {"experiment", "models", "polytope"}, False),
    (["bomb", "--exact"], {"interferometer"}, False),
    (["bomb", "--trials", "10"], {"interferometer", "streams"}, True),
    (["lhv-scan"], {"polytope"}, False),
    (["optimize"], {"optimize"}, False),
    (["landscape", "--resolution", "4"], {"optimize"}, False),
    (
        ["counterfactual", "--trials", "8", "--stats-trials", "100"],
        {"counterfactual", "experiment", "models", "polytope", "streams"},
        True,
    ),
]


def _bellsim_modules(loaded):
    return {m.removeprefix("bellsim.") for m in loaded if m.startswith("bellsim.")}


def _numpy_modules(loaded):
    return {m for m in loaded if m == "numpy" or m.startswith("numpy.")}


# `dataclasses` and the modules it imports to compile a class's methods.
_INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_import_loads_only_the_shared_modules():
    program = "import json, sys, bellsim.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_run_fresh(program))
    assert _bellsim_modules(loaded) == _SHARED
    assert "concurrent.futures" not in loaded
    assert _numpy_modules(loaded) == set()
    assert "gc" not in loaded
    assert _INTROSPECTION.isdisjoint(loaded)
    assert len(loaded) <= 120


@pytest.mark.parametrize(
    "argv,used,samples", _LOADED_MODULES, ids=[" ".join(argv) for argv, *_ in _LOADED_MODULES]
)
def test_subcommand_loads_only_what_it_runs(argv, used, samples):
    loaded = set(json.loads(_run_fresh(_MODULES_AFTER_RUN, json.dumps(argv))))
    assert _bellsim_modules(loaded) == _SHARED | used
    assert "concurrent.futures" not in loaded
    assert {m for m in loaded if m == "scipy" or m.startswith("scipy.")} == set()
    assert ("numpy" in loaded) == samples
    assert "dataclasses" not in loaded
    if not samples:
        assert _INTROSPECTION.isdisjoint(loaded)


# Which of streams and numpy a command starts importing first.
_IMPORT_ORDER = """
import contextlib, io, json, sys
order = []
def note(event, args):
    if event == "import" and args[0] in ("bellsim.streams", "numpy") and args[0] not in order:
        order.append(args[0])
sys.addaudithook(note)
import bellsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert bellsim.cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(order))
"""

_SAMPLING = [argv for argv, _, samples in _LOADED_MODULES if samples]


@pytest.mark.parametrize("argv", _SAMPLING, ids=[" ".join(argv) for argv in _SAMPLING])
def test_sampling_imports_streams_before_numpy(argv):
    # Without a bytecode cache, a module compiled once numpy is loaded adds
    # the compiler's peak memory on top of numpy's.
    assert json.loads(_run_fresh(_IMPORT_ORDER, json.dumps(argv))) == ["bellsim.streams", "numpy"]


# After each command, which of numpy and the introspection modules are loaded.
_LOADED_AFTER_EACH = """
import contextlib, io, json, sys
import bellsim.cli
argvs, watched = json.loads(sys.argv[1]), set(json.loads(sys.argv[2]))
loaded = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert bellsim.cli.main(argv) == 0, argv
    loaded.append(sorted(watched & {m.partition(".")[0] for m in sys.modules}))
print(json.dumps(loaded))
"""

_STATE_KINDS = (
    "psi_plus", "psi_minus", "phi_plus", "phi_minus", "up_up", "up_down", "down_up", "down_down"
)

# Commands that sample nothing, in groups run one group per fresh process.
_ANALYSIS_COMMANDS = {
    "analysis workload": [
        ["chsh", "--exact"],
        ["lhv-scan"],
        ["optimize"],
        ["optimize", "--state", "psi_plus", "--grid", "32"],
        ["landscape", "--resolution", "64", "--fixed", "a=0.4,a'=2.2"],
        ["bomb", "--exact"],
    ],
    "chsh --exact per catalog model": [
        ["chsh", "--exact", "--model", name] for name in sorted(CATALOG)
    ] + [
        ["chsh", "--exact", "--model", "nonlocal", "--state", "phi_minus", "--angles", "0,1,2,3"],
        ["chsh", "--exact", "--model", "pr-box-soft", "--format", "csv"],
    ],
    "optimize and landscape per state": [
        argv
        for state in _STATE_KINDS
        for argv in (
            ["optimize", "--state", state, "--format", "csv"],
            ["landscape", "--state", state, "--resolution", "4", "--fixed", "b=0.1,b'=1.2"],
            ["landscape", "--state", state, "--resolution", "3", "--format", "json"],
        )
    ] + [["lhv-scan", "--format", "csv"], ["bomb", "--exact", "--no-bomb", "--format", "csv"]],
}


@pytest.mark.parametrize("group", sorted(_ANALYSIS_COMMANDS))
def test_analysis_commands_load_no_numpy(group):
    argvs = _ANALYSIS_COMMANDS[group]
    watched = json.dumps(sorted(_INTROSPECTION | {"numpy"}))
    loaded = json.loads(_run_fresh(_LOADED_AFTER_EACH, json.dumps(argvs), watched))
    assert [(argv, modules) for argv, modules in zip(argvs, loaded) if modules] == []


def _count_born_solves(monkeypatch):
    import bellsim.models

    calls = []
    solve = bellsim.models.joint_probabilities
    monkeypatch.setattr(
        bellsim.models, "joint_probabilities", lambda *a: calls.append(a) or solve(*a)
    )
    return calls


def test_resolving_a_catalog_model_builds_only_that_model(monkeypatch):
    import bellsim.models
    from bellsim.config import resolve_model
    from bellsim.experiment import run_chsh_experiment

    calls = _count_born_solves(monkeypatch)
    model = resolve_model("quantum-optimal")
    assert calls == []  # tables are built on first sampling, not at resolution
    run_chsh_experiment(model, 10, 0)
    assert len(calls) == 4  # one Born distribution per setting pair
    assert model == bellsim.models.catalog()["quantum-optimal"]
    calls.clear()
    run_chsh_experiment(resolve_model("lhv-uniform"), 10, 0)
    assert calls == []


@pytest.mark.parametrize(
    "spec,overrides",
    [("quantum", {"state": "psi_plus"}), ("quantum-optimal", {"angles": (0.0, 1.0, 2.0, 3.0)})],
)
def test_state_and_angle_overrides_solve_born_rule_once(monkeypatch, spec, overrides):
    from bellsim.config import resolve_model
    from bellsim.experiment import run_chsh_experiment

    calls = _count_born_solves(monkeypatch)
    model = resolve_model(spec, **overrides)
    assert calls == []
    run_chsh_experiment(model, 10, 0)
    assert len(calls) == 4


def test_a_models_born_distributions_are_solved_once(monkeypatch):
    from bellsim.config import resolve_model
    from bellsim.counterfactual import counterfactual_table, record_run
    from bellsim.quantum import joint_probabilities
    from bellsim.stats import PAIR_ORDER

    calls = _count_born_solves(monkeypatch)
    ledger = record_run(resolve_model("quantum-optimal"), list(PAIR_ORDER) * 250, seed=3)
    tables = [counterfactual_table(ledger, i) for i in range(1000)]
    assert len(calls) <= 4  # one per setting pair, solved when the ledger was sampled
    cell = tables[1].cells[("a", "b")]  # trial 1 measured (a, b')
    assert cell.kind == "distribution"
    assert cell.distribution == joint_probabilities(*calls[0])


_BORN_RULE = """
import sys
from bellsim.models import catalog
from bellsim.quantum import joint_probabilities
from bellsim.stats import PAIR_ORDER
solved = 0
for model in catalog().values():
    if model.kind in ("quantum", "nonlocal"):
        state = model.quantum_state()
        for x, y in PAIR_ORDER:
            direct = joint_probabilities(state, model.angle_for(x), model.angle_for(y))
            assert model.distribution((x, y)) == direct, (model, x, y)
            solved += 1
print(solved, "numpy" in sys.modules)
"""


def test_born_rule_loads_no_numpy():
    # Three catalog models are quantum or nonlocal, four setting pairs each; a model's
    # Born cell is the direct solve, with no sampling tables built.
    assert _run_fresh(_BORN_RULE) == "12 False"


_MEMBERSHIP = """
import sys
from bellsim.polytope import CorrelationVector, local_membership
inside = local_membership(CorrelationVector(0.5, 0.25, -0.125, 0.0))
outside = local_membership(CorrelationVector(1.0, -1.0, 1.0, 1.0))
print(inside.feasible, len(inside.weights), outside.feasible, "numpy" in sys.modules)
"""


def test_membership_loads_no_numpy():
    # A witness and a violated facet, both in plain Python.
    assert _run_fresh(_MEMBERSHIP) == "True 16 False False"


def test_unknown_model_diagnostic_is_unchanged():
    from bellsim.config import ConfigError, resolve_model

    with pytest.raises(ConfigError) as exc:
        resolve_model("no-such-model")
    assert str(exc.value) == (
        "unknown model 'no-such-model'; expected a catalog name (lhv-all-plus, lhv-edge, "
        "lhv-uniform, nonlocal-optimal, pr-box, pr-box-soft, quantum-optimal, "
        "quantum-psi-plus), 'quantum', 'nonlocal', or a JSON object"
    )


# The public API: each name by the module that defines it, the one place it is imported from.
EXPORTS = {
    "counterfactual": [
        "CounterfactualCell", "CounterfactualTable", "DefinitenessVerdict", "TrialLedger",
        "classify_definiteness", "counterfactual_table",
        "ledger_text", "record_run", "replay_counterfactual",
    ],
    "experiment": ["model_exact_correlations", "run_chsh_experiment"],
    "interferometer": ["InterferometerSpec", "port_probabilities", "run_bomb_trials"],
    "models": [
        "CATALOG", "ModelDescriptor", "SINGLET_OPTIMAL_ANGLES",
        "TrialRecord", "catalog", "generate_outcomes",
        "lhv_deterministic_model", "pr_box_table", "run_trial",
    ],
    "optimize": ["LandscapeGrid", "OptimizationResult", "optimize_angles", "s_landscape"],
    "polytope": [
        "CorrelationVector", "FeasibilityVerdict", "VERTICES", "ViolatedFacet",
        "local_membership",
    ],
    "quantum": [
        "JointOutcomeDistribution", "OUTCOME_ORDER", "TwoQubitState",
        "correlation_matrix", "expectation", "joint_probabilities", "make_named_state",
    ],
    "stats": [
        "ChshResult", "CoincidenceCounts", "CorrelationEstimate", "DEFAULT_SIGN_PATTERN",
        "PAIR_ORDER", "SIGN_PATTERNS", "STRATEGIES", "TSIRELSON_BOUND", "chsh_s",
        "correlation", "counts_from_outcomes", "exact_chsh_s",
        "validate_sign_pattern",
    ],
    "streams": ["TrialStream", "batch_uniforms"],
}


def _submodules():
    return [
        importlib.import_module(f"bellsim.{info.name}")
        for info in pkgutil.iter_modules(bellsim.__path__)
    ]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_defining_modules_objects(module):
    defining = importlib.import_module(f"bellsim.{module}")
    for name in EXPORTS[module]:
        value = getattr(defining, name)
        assert getattr(value, "__module__", defining.__name__) == defining.__name__, name


def test_package_holds_only_its_version_and_submodules():
    submodules = {module.__name__.rpartition(".")[2] for module in _submodules()}
    names = {name for name in vars(bellsim) if not name.startswith("__")}
    assert names <= submodules
    assert not [name for names in EXPORTS.values() for name in names if hasattr(bellsim, name)]


@pytest.mark.parametrize("name", [
    "no_signalling_check", "NoSignallingReport", "correlation_fraction",
    "enumerate_deterministic_strategies", "strategy_correlation", "read_ledger_records",
    "quantum_model", "nonlocal_model", "lhv_stochastic_model", "superdeterministic_model",
    "ChshExperimentResult", "ClassificationEvidence",
])
def test_names_no_subcommand_reaches_are_not_exported(name):
    assert not [module.__name__ for module in _submodules() if hasattr(module, name)]


def _top_level(body):
    """The statements of a module body, in its top-level `if` and `try` blocks too."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            handlers = [handler.body for handler in getattr(node, "handlers", ())]
            for block in (node.body, node.orelse, getattr(node, "finalbody", ()), *handlers):
                yield from _top_level(block)
        else:
            yield node


def _names_read(tree):
    """Every name the tree reads, in string annotations too."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                read |= _names_read(ast.parse(part.value, mode="eval"))
    return read


def _unused_imports(source):
    """`line name` for each name a top-level import binds that the module never reads."""
    tree = ast.parse(source)
    read = _names_read(tree)
    return [
        f"{node.lineno} {bound}"
        for node in _top_level(tree.body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for bound in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        if bound not in read
    ]


def test_unused_import_check_sees_an_unread_name():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "    from collections import OrderedDict\n"
        "def f(a: 'np.ndarray'):\n"
        "    return sys.argv\n"
    )
    assert _unused_imports(source) == ["2 os", "6 OrderedDict"]


_SCANNED_ROOTS = (Path(bellsim.__file__).parent, Path(__file__).parent)
SCANNED = sorted(path for root in _SCANNED_ROOTS for path in root.rglob("*.py"))


def test_import_scan_covers_the_package_and_tests():
    package = {Path(bellsim.__file__)} | {Path(module.__file__) for module in _submodules()}
    assert package | {Path(__file__)} <= set(SCANNED)
    assert len(SCANNED) > 20


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: str(path.relative_to(path.parents[1])))
def test_every_top_level_import_is_read(path):
    assert _unused_imports(path.read_text()) == []


@functools.cache
def _defined_in(module):
    """The names a bellsim module ("bellsim.stats") binds at top level other than by import."""
    _, _, name = module.partition(".")
    path = Path(bellsim.__file__).with_name(f"{name}.py") if name else Path(bellsim.__file__)
    defined = set()
    for node in _top_level(ast.parse(path.read_text()).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def _misaddressed_imports(source, package=None):
    """`line module.name` for each name imported from a bellsim module that does not define it.

    An absolute import counts when it names bellsim or a bellsim module, and a relative one
    is resolved in `package`; importing a submodule from its package is its one address.
    """
    submodules = {info.name for info in pkgutil.iter_modules(bellsim.__path__)}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package.rsplit(".", node.level - 1)[0]
            module = f"{base}.{node.module}" if node.module else base
        else:
            module = node.module
        if module != "bellsim" and not module.startswith("bellsim."):
            continue
        for alias in node.names:
            if module == "bellsim" and alias.name in submodules:
                continue
            if alias.name not in _defined_in(module):
                found.append(f"{node.lineno} {module}.{alias.name}")
    return found


def test_address_check_sees_a_name_imported_from_another_module():
    source = (
        "from bellsim import streams\n"
        "from bellsim.stats import PAIR_ORDER\n"
        "def f():\n"
        "    from bellsim.models import PAIR_ORDER, catalog\n"
        "    from .config import MAX_LEDGER_TRIALS\n"
        "    from .counterfactual import MAX_LEDGER_TRIALS\n"
    )
    assert _misaddressed_imports(source, "bellsim") == [
        "4 bellsim.models.PAIR_ORDER", "6 bellsim.counterfactual.MAX_LEDGER_TRIALS"
    ]


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: str(path.relative_to(path.parents[1])))
def test_every_bellsim_name_is_imported_from_its_defining_module(path):
    package = "bellsim" if path.parent == Path(bellsim.__file__).parent else None
    assert _misaddressed_imports(path.read_text(), package) == []


def test_version_unchanged():
    assert bellsim.__version__ == "0.1.0"
