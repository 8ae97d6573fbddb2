"""Experiment configuration: flat key-value files plus flag overrides.

A config file holds one `key = value` pair per line, where the value is
JSON-encoded; `#` starts a comment. `bellsim.cli`'s command table says which
keys each subcommand takes and in what order flags, file values, BELLSIM_SEED
and defaults are tried.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import TYPE_CHECKING, Mapping, Optional

from .stats import validate_sign_pattern

if TYPE_CHECKING:
    from .models import ModelDescriptor


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


# The most trials a run samples per setting pair: 2**16 chunks of CHUNK trials.
MAX_TRIALS = 1 << 32
# The most trials a ledger records (see bellsim.counterfactual).
MAX_LEDGER_TRIALS = 1 << 19

ECHO_LIMIT = 64
# The deepest a config value or a JSON model may nest: what a fresh process could decode
# before there was a cap. json.loads and repr recurse once per level.
MAX_JSON_DEPTH = 1000


def cut_short(text: str, limit: int) -> str:
    """`text`, or its first `limit` characters then `…` and its length."""
    return text if len(text) <= limit else f"{text[:limit]}… ({len(text)} characters)"


def echoed(value: object) -> str:
    """`repr(value)` for a diagnostic, cut after ECHO_LIMIT characters to `…` and its length."""
    try:
        return cut_short(repr(value), ECHO_LIMIT)
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply"


def json_value(text: str) -> object:
    """json.loads(text); RecursionError, before decoding, if it nests past MAX_JSON_DEPTH."""
    outside_strings = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text)
    steps = [1 if bracket in "[{" else -1 for bracket in re.findall(r"[][{}]", outside_strings)]
    if max(itertools.accumulate(steps), default=0) > MAX_JSON_DEPTH:
        raise RecursionError(f"JSON nested more than {MAX_JSON_DEPTH} deep")
    return json.loads(text)


def parse_config_file(path: str) -> dict[str, object]:
    """Parse `key = JSON` lines into a dict; each key may be set once."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        at = f"{path}:{lineno}:"
        if "=" not in line:
            raise ConfigError(f"{at} expected 'key = value', got {echoed(raw)}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{at} {echoed(key)} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = json_value(value.strip())
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise ConfigError(f"{at} value for {echoed(key)} is not valid JSON") from exc
        except RecursionError as exc:
            raise ConfigError(f"{at} value for {echoed(key)} is nested too deeply") from exc
    return values


def sign_pattern_from_string(text: str) -> tuple[int, ...]:
    signs = {"+": 1, "-": -1}
    if any(ch not in signs for ch in text):
        raise ConfigError(f"sign pattern must use only '+' and '-', got {echoed(text)}")
    try:
        return validate_sign_pattern(signs[ch] for ch in text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def sign_pattern_to_string(pattern: tuple[int, ...]) -> str:
    return "".join("+" if s == 1 else "-" for s in pattern)


def parse_angles(value: object) -> tuple[float, float, float, float]:
    """Angles from a CSV string ('0,1.57,0.78,2.35') or a JSON list of numbers."""
    try:
        if isinstance(value, str):
            parts = value.split(",")
        else:
            parts = list(value)  # type: ignore[call-overload]
            if any(isinstance(p, (bool, str)) for p in parts):
                raise TypeError("a bool or a string is not a number")
        angles = tuple(float(p) for p in parts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"angles must be four numbers, got {echoed(value)}") from exc
    if len(angles) != 4 or any(not math.isfinite(t) for t in angles):
        raise ConfigError(f"angles must be four finite radians, got {echoed(value)}")
    return angles


def resolve_model(
    spec: object,
    state: Optional[str] = None,
    angles: Optional[tuple[float, float, float, float]] = None,
) -> ModelDescriptor:
    """Resolve --model input: a catalog name or alias, or JSON.

    Every route ends in ModelDescriptor.from_dict: a name's payload is its CATALOG
    entry. `state` and `angles` override the state kind and angle binding for
    quantum and nonlocal models. Only the model resolved is built.
    """
    from .models import ALIASES, CATALOG, ModelDescriptor

    try:
        if isinstance(spec, str):
            name = ALIASES.get(spec.strip(), spec.strip())
            if name in CATALOG:
                spec = CATALOG[name]
            elif name.startswith("{"):
                spec = json_value(name)
            else:
                # A name cut short is followed by a line break: the first line stays short.
                cut = "\n" if len(repr(name)) > ECHO_LIMIT else " "
                aliases = ", ".join(map(repr, ALIASES))
                raise ConfigError(
                    f"unknown model {echoed(name)};{cut}expected a catalog name "
                    f"({', '.join(sorted(CATALOG))}), {aliases}, or a JSON object"
                )
        if isinstance(spec, Mapping):
            model = ModelDescriptor.from_dict(spec)
        else:
            raise ConfigError(f"cannot interpret model specification {echoed(spec)}")
        if model.state is not None and (state is not None or angles is not None):
            model = ModelDescriptor(
                kind=model.kind,
                state=state if state is not None else model.state,
                angles=angles if angles is not None else model.angles,
            )
        elif state is not None or angles is not None:
            raise ConfigError(f"--state/--angles do not apply to a {model.kind} model")
        return model
    except ConfigError:
        raise
    except RecursionError as exc:  # from json_value, or from echoing a deep value
        raise ConfigError("invalid model: the JSON is nested too deeply") from exc
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"invalid model: {exc}") from exc


def parse_fixed(raw: object) -> dict[str, float]:
    """Two fixed landscape angles from 'a=0,a\'=1.5' or a JSON mapping of label to number."""
    if isinstance(raw, dict):
        items = list(raw.items())
        if any(isinstance(value, (bool, str)) for _, value in items):
            raise ConfigError(f"fixed angles must be numbers: {echoed(raw)}")
    elif isinstance(raw, str):
        segments = [segment.partition("=") for segment in raw.split(",")]
        for label, equals, _ in segments:
            if not equals:
                raise ConfigError(f"--fixed segments must look like a=0.5, got {echoed(label)}")
        items = [(label.strip(), value.strip()) for label, _, value in segments]
    else:
        raise ConfigError(f"cannot interpret fixed angles {echoed(raw)}")
    labels = [label for label, _ in items]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"fixed angle {', '.join(map(echoed, repeated))} is given more than once")
    try:
        return {label: float(value) for label, value in items}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"fixed angles must be numbers: {echoed(raw)}") from exc
