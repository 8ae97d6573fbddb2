"""Command-line entry point.

Subcommands: chsh, lhv-scan, optimize, counterfactual, bomb, landscape.
Artifacts carry {"schema_version", "config", "results"}; wall-clock runtime
goes to stderr so identical configurations produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 I/O error.

`_SUBCOMMANDS` declares each subcommand's settings once, in the order `main`
resolves and checks them. A handler gets them as one mapping and returns the
config echo, the results, the CSV rows, then any further artifact as (path,
text pieces); `main` alone encodes and writes every artifact of the run.

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
    ECHO_LIMIT,
    MAX_JSON_DEPTH,
    MAX_LEDGER_TRIALS,
    MAX_TRIALS,
    ConfigError,
    cut_short,
    echoed,
    parse_angles,
    parse_config_file,
    parse_fixed,
    resolve_model,
    sign_pattern_from_string,
    sign_pattern_to_string,
)
from .quantum import STATE_KINDS, make_named_state, sum_in_order
from .stats import (
    DEFAULT_SIGN_PATTERN, PAIR_ORDER, SETTING_LABELS, SIGN_PATTERNS, STRATEGIES, classify_bound
)

if TYPE_CHECKING:
    from .models import ModelDescriptor

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _of_kind(name: str, kind: type, value: object):
    """`value`, read from `name`, as `kind`: int, float, bool or str. A config value may be
    any JSON type, but a bool is never a number and a float is an int only when integral."""
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {echoed(value)}")


# A parser takes a value, its source (the flag, config key or environment
# variable it came from) and the settings resolved before it.
def _path(value: object, source: str, settings: dict) -> str:
    """The path for --out or --ledger: a new or regular file, for --ledger not --out's file."""
    path, flag = _of_kind(source, str, value), "--" + source.lstrip("-")
    if path == "" or os.path.isdir(path):
        raise ConfigError(f"{flag} {echoed(path)} is empty or a directory; it must name a file")
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or a device, say
        raise ConfigError(f"{flag} {echoed(path)} exists and is not a regular file")
    out = settings.get("out")
    if out and os.path.realpath(out) == os.path.realpath(path):
        raise ConfigError(f"--out and {flag} name the same file {out}")
    return path


def _pattern(value: object, source: str, settings: dict) -> tuple[int, ...]:
    return sign_pattern_from_string(_of_kind(source, str, value))


def _model(value: object, source: str, settings: dict) -> ModelDescriptor:
    return resolve_model(value, state=settings["state"], angles=settings["angles"])


def _seed(value: object, source: str, settings: dict) -> int:
    """A seed from --seed, the seed key or BELLSIM_SEED: an integer in [0, 2**64)."""
    value = _of_kind(source, int, value)
    # Streams use the seed modulo 2**64, so any other seed would repeat another's trials.
    if not 0 <= value < 1 << 64:
        raise ConfigError(f"{source} must be in [0, 2**64), got {echoed(value)}")
    return value


_FROM_TEXT = {int: int, float: float, _seed: int}  # reads a flag's or BELLSIM_SEED's text


class _Setting(NamedTuple):
    """One flag and config key: what its value must be, and its default."""

    kind: object  # int, float, bool, str, or a parser (value, source, settings) -> value
    default: object = None  # None leaves the setting unset
    low: Optional[int] = None
    high: Optional[int] = None
    help: Optional[str] = None  # the flag's help
    choices: tuple = ()  # the values a str setting may take, from any source
    env: str = ""  # an environment variable tried after the config file

    def parse(self, key: str, value: object, source: str, settings: dict):
        if value is None and self.default is None:  # unset, or null in the config file
            return None
        if source != key and self.kind in _FROM_TEXT:  # text from a flag or the environment
            with contextlib.suppress(ValueError):  # text that is no number is reported below
                value = _FROM_TEXT[self.kind](value)
        if self.kind not in _KIND_NAMES:
            return self.kind(value, source, settings)
        value = _of_kind(source, self.kind, value)
        name, choices = key.replace("_", "-"), self.choices
        if self.low is not None and value < self.low:
            raise ConfigError(f"{name} must be at least {self.low}, got {echoed(value)}")
        if self.high is not None and value > self.high:
            raise ConfigError(f"{name} must be at most {self.high}, got {echoed(value)}")
        if choices and value not in choices:
            expected = f"{', '.join(choices[:-1])} or {choices[-1]}"
            raise ConfigError(f"{name} must be {expected}, got {echoed(value)}")
        return value


def _resolve(table: dict[str, _Setting], args: argparse.Namespace) -> dict[str, object]:
    """Every setting of `table`, in its order: the flag, else the config file, else the
    environment variable, else the default. Each value is checked, defaults too."""
    file_values = parse_config_file(args.config) if args.config else {}
    unknown = [key for key in file_values if key not in table]
    if unknown:
        # The others are counted, not named, so the line stays short.
        more = f" and {len(unknown) - 1} more" if len(unknown) > 1 else ""
        raise ConfigError(
            f"unknown config key {echoed(unknown[0])}{more} for {args.command}; "
            f"accepted keys: {', '.join(sorted(table))}"
        )
    settings: dict[str, object] = {}
    for key, setting in table.items():
        if getattr(args, key) is not None:
            value, source = getattr(args, key), "--" + key.replace("_", "-")
        elif key in file_values:
            value, source = file_values[key], key
        elif setting.env and setting.env in os.environ:
            value, source = os.environ[setting.env], setting.env
        else:
            value, source = setting.default, key
        settings[key] = setting.parse(key, value, source, settings)
    return settings


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
    """Write text pieces to staging files renamed onto their paths once all are written, then
    stdout. A staging file, `PATH.<pid>.tmp`, is created only if absent, so a run never writes
    over or removes a file it did not create; one already there fails the run (exit code 3)."""
    staged = []
    try:
        for path, pieces in artifacts:
            if path is None:
                continue
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="utf-8", newline="") as handle:
                staged.append((tmp, path))
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


_COUNT_KEYS = ("n_pp", "n_pm", "n_mp", "n_mm")


def _cmd_chsh(settings: dict) -> tuple:
    from .experiment import model_exact_correlations, run_chsh_experiment

    model, trials, pattern = settings["model"], settings["trials"], settings["pattern"]
    config_echo = {
        "command": "chsh",
        "model": model.to_dict(),
        "trials_per_pair": trials,
        "seed": settings["seed"],
        "sign_pattern": sign_pattern_to_string(pattern),
        "exact": settings["exact"],
        "format": settings["format"],
    }
    # What each pair reports: its value, and when sampled its counts and error too.
    if settings["exact"]:
        values = model_exact_correlations(model).as_tuple()
        s_value = sum_in_order(s * value for s, value in zip(pattern, values))
        summary = (s_value, 0.0, classify_bound(abs(s_value), 0.0))
        results: dict = {"exact": True}
        measured = [{"value": value} for value in values]
    else:
        result = run_chsh_experiment(model, trials, settings["seed"], pattern)
        summary = (result.s_value, result.s_std_error, result.bound_class)
        results = {"exact": False, "trials_per_pair": trials}
        measured = [
            {"counts": {key: getattr(estimate.counts, key) for key in _COUNT_KEYS},
             "value": estimate.value, "std_error": estimate.std_error}
            for estimate in result.correlations.values()
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


def _cmd_lhv_scan(settings: dict) -> tuple:
    from .polytope import VERTICES

    strategies = []
    rows = [
        ["index", "r_a", "r_a'", "r_b", "r_b'", "e_ab", "e_ab'", "e_a'b", "e_a'b'", "best_abs_s"]
    ]
    best_overall = 0.0
    for index, (strategy, vector) in enumerate(zip(STRATEGIES, VERTICES)):
        best = max(
            abs(sum(s * e for s, e in zip(pattern, vector))) for pattern in SIGN_PATTERNS
        )
        best_overall = max(best_overall, best)
        strategies.append({"index": index, "responses": dict(zip(SETTING_LABELS, strategy)),
                           "correlations": list(vector), "best_abs_s": best})
        rows.append([index, *strategy] + [repr(float(e)) for e in (*vector, best)])
    rows.append(["max", *[""] * 8, repr(float(best_overall))])
    results = {"strategies": strategies, "max_abs_s": best_overall}
    return {"command": "lhv-scan", "format": settings["format"]}, results, rows


def _cmd_optimize(settings: dict) -> tuple:
    from .optimize import optimize_angles

    state_kind, pattern = settings["state"], settings["pattern"]
    result = optimize_angles(make_named_state(state_kind), pattern)
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


def _cmd_counterfactual(settings: dict) -> tuple:
    from .counterfactual import classify_definiteness, ledger_blocks, record_run

    # Loaded once the inputs are checked: a rejected run never loads numpy.
    import numpy as np

    model, trials, stats_trials = settings["model"], settings["trials"], settings["stats_trials"]
    ledger = record_run(model, np.resize(np.arange(4, dtype=np.int8), trials), settings["seed"])
    verdict = classify_definiteness(ledger, trials_for_stats=stats_trials)
    witness, facet = verdict.feasibility, verdict.feasibility.violated_facet
    feasibility = {
        "feasible": witness.feasible,
        "weights": None if witness.weights is None else list(witness.weights),
        "violated_facet": None if facet is None else {
            "sign_pattern": sign_pattern_to_string(facet.sign_pattern), "margin": facet.margin
        },
    }
    config_echo = {
        "command": "counterfactual",
        "model": model.to_dict(),
        "trials": trials,
        "stats_trials": stats_trials,
        "seed": settings["seed"],
    }
    results = {
        "classification": verdict.classification,
        "correlations": list(verdict.correlation_vector.as_tuple()),
        "feasibility": feasibility,
        "feasibility_tolerance": verdict.feasibility_tolerance,
        "cell_kinds": verdict.cell_kinds,
        "trials_examined": verdict.trials_examined,
        "factual_replays_matched": verdict.factual_replays_matched,
    }
    keys = ("feasibility_tolerance", "trials_examined", "factual_replays_matched")
    rows = [("classification", verdict.classification), ("feasible", witness.feasible)]
    rows += [(key, results[key]) for key in keys]
    rows += [(f"e_{x}{y}", value) for (x, y), value in zip(PAIR_ORDER, results["correlations"])]
    rows += [(f"cells_{kind}", count) for kind, count in verdict.cell_kinds.items()]
    ledger_path = settings["ledger"]
    ledger_artifact = [] if ledger_path is None else [(ledger_path, ledger_blocks(ledger))]
    return config_echo, results, _kv_rows(rows), *ledger_artifact


def _cmd_bomb(settings: dict) -> tuple:
    from .interferometer import InterferometerSpec, OUTCOMES, port_probabilities, run_bomb_trials

    exact = settings["exact"]
    try:
        spec = InterferometerSpec(settings["reflectivity"], settings["bomb"], settings["phase"])
        probabilities = port_probabilities(spec)
        frequencies = None if exact else run_bomb_trials(spec, settings["trials"], settings["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config_echo = {
        "command": "bomb",
        "reflectivity": spec.reflectivity,
        "bomb_present": spec.bomb_present,
        "phase": spec.phase,
        "trials": 0 if exact else settings["trials"],
        "seed": settings["seed"],
        "exact": exact,
    }
    results = {"interferometry": {"probabilities": probabilities, "frequencies": frequencies}}
    rows = [("outcome", "probability", "frequency")]
    for name in OUTCOMES:
        frequency = "" if frequencies is None else repr(frequencies[name])
        rows.append((name, repr(probabilities[name]), frequency))
    return config_echo, results, rows


def _cmd_landscape(settings: dict) -> tuple:
    from .optimize import s_landscape

    state_kind, pattern, fixed = settings["state"], settings["pattern"], settings["fixed"]
    resolution = settings["resolution"]
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
        "row_angles": grid.angles,
        "col_angles": grid.angles,
        "values": grid.values,
    }
    return config_echo, results, grid.csv_rows()


class _Subcommand(NamedTuple):
    help: str
    settings: dict[str, _Setting]  # resolved in this order; --config is read first
    handler: Callable[[dict], tuple]


def _output(default_format: str) -> dict[str, _Setting]:
    """Where the artifact goes and in which format, resolved before any other setting."""
    formats = ("json", "csv")
    return {
        "out": _Setting(_path, help="output path (default: stdout)"),
        "format": _Setting(str, default_format, help=f"default: {default_format}", choices=formats),
    }


_TRIALS = _Setting(int, 100_000, 1, MAX_TRIALS)
_SEED = _Setting(_seed, 0, env="BELLSIM_SEED")
_STATE = _Setting(str, "psi_minus", choices=STATE_KINDS)
_PATTERN = _Setting(
    _pattern, sign_pattern_to_string(DEFAULT_SIGN_PATTERN), help="sign pattern such as +-++"
)


def _run_settings(trials: _Setting) -> dict[str, _Setting]:
    """The model, trials per setting pair and seed that chsh and counterfactual run."""
    return {
        # The state and angles, if given, override the model's own.
        "angles": _Setting(lambda value, *_: parse_angles(value), help="four radians: a,a',b,b'"),
        "state": _STATE._replace(default=None),
        "model": _Setting(_model, "quantum", help="catalog name, 'quantum', 'nonlocal', or JSON"),
        "trials": trials,
        "threads": _Setting(int, 1, 1, help=(
            "no effect (still must be >= 1): sampling uses one thread per CPU the "
            "process may run on (limit with taskset), at most one per 8 chunks of a run"
        )),
        "seed": _SEED,
    }


_SUBCOMMANDS = {
    "chsh": _Subcommand(
        "run trials for the four setting pairs and estimate S",
        {
            **_output("json"),
            **_run_settings(_TRIALS),
            "pattern": _PATTERN,
            "exact": _Setting(
                bool, False, help="skip sampling; compute S from exact expectation values"
            ),
        },
        _cmd_chsh,
    ),
    "lhv-scan": _Subcommand(
        "enumerate all 16 deterministic strategies", _output("json"), _cmd_lhv_scan
    ),
    "optimize": _Subcommand(
        "maximize |S| over the four angles",
        {
            **_output("json"),
            "state": _STATE,
            "pattern": _PATTERN,
            "grid": _Setting(
                int, 16, 8, help="no effect; the optimum is closed form (still must be >= 8)"
            ),
        },
        _cmd_optimize,
    ),
    "counterfactual": _Subcommand(
        "record a run, replay it, classify the model",
        {
            **_output("json"),
            **_run_settings(_TRIALS._replace(high=MAX_LEDGER_TRIALS)),
            "stats_trials": _TRIALS,
            "ledger": _Setting(_path, help="path for the JSON-lines trial ledger"),
        },
        _cmd_counterfactual,
    ),
    "bomb": _Subcommand(
        "interferometer with an optional absorber",
        {
            **_output("json"),
            "reflectivity": _Setting(float, 0.5),
            "bomb": _Setting(bool, True),
            "phase": _Setting(float, 0.0),
            "trials": _TRIALS,
            "exact": _Setting(bool, False, help="skip sampling; report exact probabilities only"),
            "seed": _SEED,
        },
        _cmd_bomb,
    ),
    "landscape": _Subcommand(
        "S on a 2-D angle slice, CSV grid",
        {
            **_output("csv"),
            "state": _STATE,
            "pattern": _PATTERN,
            "fixed": _Setting(
                lambda value, *_: parse_fixed(value),
                "a=0.0,a'=1.5707963267948966",
                help="two fixed angles, e.g. \"a=0,a'=1.5707963\"",
            ),
            "resolution": _Setting(int, 32),
        },
        _cmd_landscape,
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # One line, exit code 2. argparse echoes a rejected argument whole; cut after three
        # times echoed's limit, a message echoing an argument within that limit stays whole.
        message = cut_short(message, 3 * ECHO_LIMIT)
        self.exit(2, f"bellsim: usage error: {message}; see {self.prog} --help\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellsim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key = JSON config file")
        for key, setting in command.settings.items():
            # Values reach _Setting.parse as text, so a long one is echoed cut short.
            action = argparse.BooleanOptionalAction if setting.kind is bool else "store"
            metavar = "{" + ",".join(setting.choices) + "}" if setting.choices else None
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, action=action, help=setting.help, metavar=metavar)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    # MAX_JSON_DEPTH frames of headroom: JSON within the cap decodes and is echoed
    # however deep in the caller's stack main runs.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + MAX_JSON_DEPTH)
    try:
        command = _SUBCOMMANDS[args.command]
        settings = _resolve(command.settings, args)
        config, results, rows, *extra = command.handler(settings)
        pieces = _csv_lines(rows) if settings["format"] == "csv" else _document(config, results)
        _write_artifacts([(settings["out"], pieces), *extra])
    except ConfigError as exc:
        print(f"bellsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bellsim: I/O error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.setrecursionlimit(limit)
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
