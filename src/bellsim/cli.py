"""Command-line entry point.

Subcommands: chsh, lhv-scan, optimize, counterfactual, bomb, landscape.
Artifacts carry {"schema_version", "config", "results"}; wall-clock runtime
goes to stderr so identical configurations produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 I/O error.

Each handler returns what its subcommand computed: the config echo, the
results, the CSV rows, then any further artifact as (path, text pieces).
`main` alone resolves the artifact's path and format, encodes it and writes
every artifact of the run.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, and each subcommand imports the modules it runs when it runs. Only
sampling loads numpy: `chsh --exact`, `lhv-scan`, `optimize`, `landscape`
and `bomb --exact` run in plain Python.

`run` is the process entry point (the `bellsim` script and `python -m
bellsim.cli`): it calls `main`, then freezes the garbage collector's
objects so the interpreter's exit-time collections skip them. `main` never
freezes, so tests and library callers in a long-lived process call `main`.
"""

from __future__ import annotations

import os

# bellsim's matrix products are at most 4x4, so OpenBLAS worker threads only
# cost start-up time. This must run before anything imports numpy, which
# the sampling subcommands do when they run.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import json
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .config import (
    ConfigError,
    parse_angles,
    parse_config_file,
    resolve_model,
    resolve_seed,
    sign_pattern_from_string,
    sign_pattern_to_string,
)
from .quantum import STATE_KINDS, make_named_state
from .stats import DEFAULT_SIGN_PATTERN, PAIR_ORDER, SIGN_PATTERNS, classify_bound

if TYPE_CHECKING:
    from .models import ModelDescriptor


def _check_config_keys(args: argparse.Namespace, file_values: dict) -> None:
    """Reject config-file keys that name no flag of the subcommand."""
    accepted = sorted(set(vars(args)) - {"command", "config"})
    unknown = sorted(set(file_values) - set(accepted))
    if unknown:
        raise ConfigError(
            f"unknown config key {', '.join(map(repr, unknown))} for {args.command}; "
            f"accepted keys: {', '.join(accepted)}"
        )


def _merged(args: argparse.Namespace, file_values: dict, key: str, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        return file_values[key]
    return default


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _setting(args: argparse.Namespace, file_values: dict, key: str, kind: type, default=None):
    """The merged value of `key`, checked to be of `kind` (int, float, bool or str).

    Config-file values arrive as any JSON type. A bool is never taken for a
    number, and a float is taken for an int only when it is integral.
    """
    value = _merged(args, file_values, key, default)
    if value is None or (isinstance(value, kind) and isinstance(value, bool) == (kind is bool)):
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


# The most trials a run samples per setting pair: 2**16 chunks of CHUNK trials.
MAX_TRIALS = 1 << 32


def _at_least(
    args: argparse.Namespace,
    file_values: dict,
    key: str,
    default: int,
    low: int = 1,
    high: Optional[int] = None,
) -> int:
    value = _setting(args, file_values, key, int, default)
    name = key.replace("_", "-")
    if value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{name} must be at most {high}, got {value}")
    return value


class _Output(NamedTuple):
    path: Optional[str]  # None for stdout
    format: str  # json or csv


def _artifact_path(args: argparse.Namespace, file_values: dict, key: str) -> Optional[str]:
    """The path for --out or --ledger, if any: never empty, never a directory."""
    path = _setting(args, file_values, key, str)
    if path is not None and (path == "" or os.path.isdir(path)):
        raise ConfigError(f"--{key} {path!r} is empty or a directory; it must name a file")
    return path


def _output(args: argparse.Namespace, file_values: dict, default: str) -> _Output:
    """Where the artifact goes and in which format."""
    out_path = _artifact_path(args, file_values, "out")
    out_format = _setting(args, file_values, "format", str, default)
    if out_format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {out_format!r}")
    return _Output(out_path, out_format)


def _sign_pattern(args: argparse.Namespace, file_values: dict) -> tuple[int, ...]:
    raw = _setting(args, file_values, "pattern", str)
    return sign_pattern_from_string(raw) if raw else DEFAULT_SIGN_PATTERN


def _document(config: dict, results: dict) -> Iterator[str]:
    """The JSON artifact in pieces: the bytes of json.dumps(..., indent=2) and a newline."""
    doc = {"schema_version": 1, "config": config, "results": results}
    yield from json.JSONEncoder(indent=2).iterencode(doc)
    yield "\n"


def _csv_lines(rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """CSV text, one piece per row: each field's str, joined by commas.

    That is the text csv.writer writes, since no field bellsim writes holds a
    comma, a quote or a line break: fields are numbers, fixed labels and
    names from fixed sets. On a landscape grid it is some 20 times faster.
    """
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _kv_rows(rows: Sequence[tuple[str, object]]) -> list[tuple[str, object]]:
    """Key-value CSV rows under a header; a value that is not a string is written as its repr."""
    return [("key", "value")] + [
        (key, value if isinstance(value, str) else repr(value)) for key, value in rows
    ]


def _write_artifacts(artifacts: Sequence[tuple[Optional[str], Iterable[str]]]) -> None:
    """Write text pieces to `path.tmp` files renamed once all are written, or to stdout."""
    staged = []
    try:
        for path, pieces in artifacts:
            if path is None:
                continue
            tmp = path + ".tmp"
            staged.append((tmp, path))
            with open(tmp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        # Pieces may be a generator that fails while encoding, not only a failed write.
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror or exc}") from exc
    for path, pieces in artifacts:
        if path is None:
            sys.stdout.writelines(pieces)


def _model_run(args: argparse.Namespace, file_values: dict) -> tuple[ModelDescriptor, int, int]:
    """The model, trials per setting pair and seed that chsh and counterfactual run."""
    angles_raw = _merged(args, file_values, "angles")
    angles = parse_angles(angles_raw) if angles_raw is not None else None
    model = resolve_model(
        _merged(args, file_values, "model", "quantum"),
        state=_setting(args, file_values, "state", str),
        angles=angles,
    )
    trials = _at_least(args, file_values, "trials", 100_000, high=MAX_TRIALS)
    _at_least(args, file_values, "threads", 1)  # checked; the affinity mask sets the threads
    return model, trials, resolve_seed(getattr(args, "seed", None), file_values.get("seed"))


_COUNT_KEYS = ("n_pp", "n_pm", "n_mp", "n_mm")


def _cmd_chsh(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .experiment import model_exact_correlations, run_chsh_experiment

    model, trials, seed = _model_run(args, file_values)
    pattern = _sign_pattern(args, file_values)
    exact = _setting(args, file_values, "exact", bool, False)
    config_echo = {
        "command": "chsh",
        "model": model.to_dict(),
        "trials_per_pair": trials,
        "seed": seed,
        "sign_pattern": sign_pattern_to_string(pattern),
        "exact": exact,
        "format": output.format,
    }
    # What each pair reports: its value, and when sampled its counts and error too.
    if exact:
        values = model_exact_correlations(model).as_tuple()
        s_value = sum(s * value for s, value in zip(pattern, values))
        summary = (s_value, 0.0, classify_bound(abs(s_value), 0.0))
        results: dict = {"exact": True}
        measured = [{"value": value} for value in values]
    else:
        outcome = run_chsh_experiment(model, trials, seed, pattern)
        result = outcome.result
        summary = (result.s_value, result.s_std_error, result.bound_class)
        results = {"exact": False, "trials_per_pair": trials}
        measured = [
            {
                "counts": {key: getattr(outcome.counts[pair], key) for key in _COUNT_KEYS},
                "value": result.correlations[pair].value,
                "std_error": result.correlations[pair].std_error,
            }
            for pair in PAIR_ORDER
        ]
    results["pairs"] = [{"left": x, "right": y, **m} for (x, y), m in zip(PAIR_ORDER, measured)]
    results.update(zip(("s_value", "s_std_error", "bound_class"), summary))
    rows = [["section", "left", "right", *_COUNT_KEYS, "value", "std_error", "bound_class"]]
    no_counts = dict.fromkeys(_COUNT_KEYS, "")
    for pair in results["pairs"]:
        counts = pair.get("counts", no_counts).values()
        estimate = (pair["value"], pair.get("std_error", 0.0))
        rows.append(["correlation", pair["left"], pair["right"], *counts, *map(repr, estimate), ""])
    rows.append(["s_statistic", *[""] * 6, repr(summary[0]), repr(summary[1]), summary[2]])
    return config_echo, results, rows


def _cmd_lhv_scan(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .polytope import enumerate_deterministic_strategies, strategy_correlation

    strategies = []
    rows = [
        ["index", "r_a", "r_a'", "r_b", "r_b'", "e_ab", "e_ab'", "e_a'b", "e_a'b'", "best_abs_s"]
    ]
    best_overall = 0.0
    for strategy in enumerate_deterministic_strategies():
        vector = strategy_correlation(strategy).as_tuple()
        best = max(
            abs(sum(s * e for s, e in zip(pattern, vector))) for pattern in SIGN_PATTERNS
        )
        best_overall = max(best_overall, best)
        responses = {**strategy.response_left, **strategy.response_right}
        strategies.append(
            {
                "index": strategy.index,
                "responses": responses,
                "correlations": list(vector),
                "best_abs_s": best,
            }
        )
        rows.append(
            [strategy.index, *responses.values()] + [repr(float(e)) for e in (*vector, best)]
        )
    rows.append(["max", *[""] * 8, repr(float(best_overall))])
    results = {"strategies": strategies, "max_abs_s": best_overall}
    return {"command": "lhv-scan", "format": output.format}, results, rows


def _cmd_optimize(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .optimize import optimize_angles

    state_kind = _setting(args, file_values, "state", str, "psi_minus")
    pattern = _sign_pattern(args, file_values)
    _at_least(args, file_values, "grid", 16, 8)  # checked; the optimum is closed form
    try:
        state = make_named_state(state_kind)
        result = optimize_angles(state, pattern)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config_echo = {
        "command": "optimize",
        "state": state_kind,
        "sign_pattern": sign_pattern_to_string(pattern),
    }
    results = {
        "angles": list(result.angles),
        "s_value": result.s_value,
        "abs_s": abs(result.s_value),
    }
    labels = ("angle_a", "angle_a'", "angle_b", "angle_b'")
    rows = [("state", state_kind), *zip(labels, result.angles)]
    rows += [(key, value) for key, value in results.items() if key != "angles"]
    return config_echo, results, _kv_rows(rows)


def _cmd_counterfactual(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .counterfactual import MAX_LEDGER_TRIALS, classify_definiteness, ledger_blocks, record_run

    model, trials, seed = _model_run(args, file_values)
    if trials > MAX_LEDGER_TRIALS:
        raise ConfigError(
            f"counterfactual trials must be at most {MAX_LEDGER_TRIALS}, got {trials}"
        )
    stats_trials = _at_least(args, file_values, "stats_trials", 100_000, high=MAX_TRIALS)
    ledger_path = _artifact_path(args, file_values, "ledger")
    # Both artifacts are staged as PATH.tmp, so one path for both would leave the ledger there.
    out_path = output.path
    if out_path and ledger_path and os.path.realpath(out_path) == os.path.realpath(ledger_path):
        raise ConfigError(f"--out and --ledger name the same file {out_path}")
    # Loaded once the inputs are checked: a rejected run never loads numpy.
    import numpy as np

    ledger = record_run(model, np.arange(trials) % 4, seed)
    verdict = classify_definiteness(ledger, trials_for_stats=stats_trials)
    evidence = verdict.evidence
    witness, facet = evidence.feasibility, evidence.feasibility.violated_facet
    feasibility = {
        "feasible": witness.feasible,
        "weights": None if witness.weights is None else [float(w) for w in witness.weights],
        "violated_facet": None if facet is None else {
            "sign_pattern": sign_pattern_to_string(facet.sign_pattern), "margin": facet.margin
        },
    }
    config_echo = {
        "command": "counterfactual",
        "model": model.to_dict(),
        "trials": trials,
        "stats_trials": stats_trials,
        "seed": seed,
    }
    results = {
        "classification": verdict.classification,
        "correlations": list(evidence.correlation_vector.as_tuple()),
        "feasibility": feasibility,
        "feasibility_tolerance": evidence.feasibility_tolerance,
        "cell_kinds": evidence.cell_kinds,
        "trials_examined": evidence.trials_examined,
        "factual_replays_matched": evidence.factual_replays_matched,
    }
    keys = ("feasibility_tolerance", "trials_examined", "factual_replays_matched")
    rows = [("classification", verdict.classification), ("feasible", witness.feasible)]
    rows += [(key, results[key]) for key in keys]
    rows += [(f"e_{x}{y}", value) for (x, y), value in zip(PAIR_ORDER, results["correlations"])]
    rows += [(f"cells_{kind}", count) for kind, count in evidence.cell_kinds.items()]
    ledger_artifact = [] if ledger_path is None else [(ledger_path, ledger_blocks(ledger))]
    return config_echo, results, _kv_rows(rows), *ledger_artifact


def _cmd_bomb(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .interferometer import InterferometerSpec, OUTCOMES, port_probabilities, run_bomb_trials

    reflectivity = _setting(args, file_values, "reflectivity", float, 0.5)
    bomb_present = _setting(args, file_values, "bomb", bool, True)
    phase = _setting(args, file_values, "phase", float, 0.0)
    trials = _at_least(args, file_values, "trials", 100_000, high=MAX_TRIALS)
    exact = _setting(args, file_values, "exact", bool, False)
    seed = resolve_seed(getattr(args, "seed", None), file_values.get("seed"))
    try:
        spec = InterferometerSpec(reflectivity=reflectivity, bomb_present=bomb_present, phase=phase)
        probabilities = port_probabilities(spec)
        frequencies = None if exact else run_bomb_trials(spec, trials, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config_echo = {
        "command": "bomb",
        "reflectivity": reflectivity,
        "bomb_present": bomb_present,
        "phase": phase,
        "trials": 0 if exact else trials,
        "seed": seed,
        "exact": exact,
    }
    results = {"interferometry": {"probabilities": probabilities, "frequencies": frequencies}}
    rows = [("outcome", "probability", "frequency")]
    for name in OUTCOMES:
        frequency = "" if frequencies is None else repr(frequencies[name])
        rows.append((name, repr(probabilities[name]), frequency))
    return config_echo, results, rows


def _parse_fixed(raw: object) -> dict[str, float]:
    if isinstance(raw, dict):
        items = list(raw.items())
        if any(isinstance(value, (bool, str)) for _, value in items):
            raise ConfigError(f"fixed angles must be numbers: {raw!r}")
    elif isinstance(raw, str):
        items = []
        for segment in raw.split(","):
            if "=" not in segment:
                raise ConfigError(f"--fixed segments must look like a=0.5, got {segment!r}")
            label, _, value = segment.partition("=")
            items.append((label.strip(), value.strip()))
    else:
        raise ConfigError(f"cannot interpret fixed angles {raw!r}")
    labels = [label for label, _ in items]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"fixed angle {', '.join(map(repr, repeated))} is given more than once")
    try:
        return {label: float(value) for label, value in items}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"fixed angles must be numbers: {raw!r}") from exc


def _cmd_landscape(args: argparse.Namespace, file_values: dict, output: _Output) -> tuple:
    from .optimize import s_landscape

    state_kind = _setting(args, file_values, "state", str, "psi_minus")
    pattern = _sign_pattern(args, file_values)
    fixed_raw = _merged(args, file_values, "fixed", "a=0.0,a'=1.5707963267948966")
    resolution = _setting(args, file_values, "resolution", int, 32)
    fixed = _parse_fixed(fixed_raw)
    try:
        grid = s_landscape(make_named_state(state_kind), fixed, resolution, pattern)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config_echo = {
        "command": "landscape",
        "state": state_kind,
        "sign_pattern": sign_pattern_to_string(pattern),
        "fixed": fixed,
        "resolution": resolution,
    }
    results = {
        "row_label": grid.row_label,
        "col_label": grid.col_label,
        "row_angles": grid.row_angles,
        "col_angles": grid.col_angles,
        "values": grid.values,
    }
    return config_echo, results, grid.csv_rows()


class _Subcommand(NamedTuple):
    help: str
    format: str  # the artifact's default format
    flags: dict[str, dict]  # flag -> add_argument keywords, besides --config, --out and --format
    handler: Callable[[argparse.Namespace, dict, _Output], tuple]


_BOOL = argparse.BooleanOptionalAction
_STATE = {"--state": {"choices": STATE_KINDS}}
_PATTERN = {"--pattern": {"help": "sign pattern such as +-++"}}
_RUN_FLAGS = {
    "--model": {"help": "catalog name, 'quantum', 'nonlocal', or JSON"},
    **_STATE,
    "--angles": {"help": "four radians: a,a',b,b'"},
    "--trials": {"type": int},
    "--seed": {"type": int},
    "--threads": {
        "type": int,
        "help": "no effect (still must be >= 1): sampling uses one thread per CPU the "
        "process may run on (limit with taskset), at most one per 8 chunks",
    },
}

_SUBCOMMANDS = {
    "chsh": _Subcommand(
        "run trials for the four setting pairs and estimate S",
        "json",
        {
            **_RUN_FLAGS,
            **_PATTERN,
            "--exact": {
                "action": _BOOL,
                "help": "skip sampling; compute S from exact expectation values",
            },
        },
        _cmd_chsh,
    ),
    "lhv-scan": _Subcommand("enumerate all 16 deterministic strategies", "json", {}, _cmd_lhv_scan),
    "optimize": _Subcommand(
        "maximize |S| over the four angles",
        "json",
        {
            **_STATE,
            **_PATTERN,
            "--grid": {
                "type": int,
                "help": "no effect; the optimum is closed form (still must be >= 8)",
            },
        },
        _cmd_optimize,
    ),
    "counterfactual": _Subcommand(
        "record a run, replay it, classify the model",
        "json",
        {
            **_RUN_FLAGS,
            "--stats-trials": {"type": int},
            "--ledger": {"help": "path for the JSON-lines trial ledger"},
        },
        _cmd_counterfactual,
    ),
    "bomb": _Subcommand(
        "interferometer with an optional absorber",
        "json",
        {
            "--reflectivity": {"type": float},
            "--bomb": {"action": _BOOL},
            "--phase": {"type": float},
            "--trials": {"type": int},
            "--seed": {"type": int},
            "--exact": {"action": _BOOL, "help": "skip sampling; report exact probabilities only"},
        },
        _cmd_bomb,
    ),
    "landscape": _Subcommand(
        "S on a 2-D angle slice, CSV grid",
        "csv",
        {
            **_STATE,
            **_PATTERN,
            "--fixed": {"help": "two fixed angles, e.g. \"a=0,a'=1.5707963\""},
            "--resolution": {"type": int},
        },
        _cmd_landscape,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bellsim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key = JSON config file")
        for flag, options in command.flags.items():
            p.add_argument(flag, **options)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), help=f"default: {command.format}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        _check_config_keys(args, file_values)
        command = _SUBCOMMANDS[args.command]
        output = _output(args, file_values, command.format)
        config, results, rows, *extra = command.handler(args, file_values, output)
        pieces = _csv_lines(rows) if output.format == "csv" else _document(config, results)
        _write_artifacts([(output.path, pieces), *extra])
    except ConfigError as exc:
        print(f"bellsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bellsim: I/O error: {exc}", file=sys.stderr)
        return 3
    runtime_ms = int(round((time.perf_counter() - started) * 1000.0))
    print(f"runtime_ms={runtime_ms}", file=sys.stderr)
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """The process entry point: main(argv), then gc.freeze().

    The interpreter's exit-time collections skip frozen objects, some 13,000
    after `chsh --exact` and 22,000 once numpy is loaded, and it still
    flushes the standard streams, runs atexit and clears its modules. Only
    cyclic garbage goes uncollected: main has written and closed every
    artifact and joined every counting thread. Call main, not run, from a
    process that goes on.
    """
    code = main(argv)
    import gc

    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
