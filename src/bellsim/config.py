"""Experiment configuration: flat key-value files plus flag overrides.

A config file holds one `key = value` pair per line, where the value is
JSON-encoded; `#` starts a comment. Command-line flags always take
precedence over file values, and BELLSIM_SEED is the seed of last resort.
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING, Mapping, Optional

from .stats import validate_sign_pattern

if TYPE_CHECKING:
    from .models import ModelDescriptor


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


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
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = json.loads(value.strip())
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise ConfigError(f"{path}:{lineno}: value for {key!r} is not valid JSON") from exc
        except RecursionError as exc:
            raise ConfigError(f"{path}:{lineno}: value for {key!r} is nested too deeply") from exc
    return values


def sign_pattern_from_string(text: str) -> tuple[int, ...]:
    signs = {"+": 1, "-": -1}
    if any(ch not in signs for ch in text):
        raise ConfigError(f"sign pattern must use only '+' and '-', got {text!r}")
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
        raise ConfigError(f"angles must be four numbers, got {value!r}") from exc
    if len(angles) != 4 or any(not math.isfinite(t) for t in angles):
        raise ConfigError(f"angles must be four finite radians, got {value!r}")
    return angles


def resolve_model(
    spec: object,
    state: Optional[str] = None,
    angles: Optional[tuple[float, float, float, float]] = None,
) -> ModelDescriptor:
    """Resolve --model input: a catalog name, 'quantum'/'nonlocal', or JSON.

    `state` and `angles` override the state kind and angle binding for
    quantum and nonlocal models. Only the model resolved is built.
    """
    from .models import CATALOG, ModelDescriptor, nonlocal_model, quantum_model

    try:
        if isinstance(spec, Mapping):
            model = ModelDescriptor.from_dict(spec)
        elif isinstance(spec, str):
            name = spec.strip()
            if name in CATALOG:
                model = CATALOG[name]()
            elif name == "quantum":
                model = quantum_model()
            elif name == "nonlocal":
                model = nonlocal_model()
            elif name.startswith("{"):
                model = ModelDescriptor.from_dict(json.loads(name))
            else:
                raise ConfigError(
                    f"unknown model {name!r}; expected a catalog name "
                    f"({', '.join(sorted(CATALOG))}), 'quantum', 'nonlocal', or a JSON object"
                )
        else:
            raise ConfigError(f"cannot interpret model specification {spec!r}")
        if model.kind in ("quantum", "nonlocal") and (state is not None or angles is not None):
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
    except RecursionError as exc:  # from json.loads, or from echoing a deep value
        raise ConfigError("invalid model: the JSON is nested too deeply") from exc
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"invalid model: {exc}") from exc


def resolve_seed(flag_value: Optional[int], file_value: Optional[object]) -> int:
    """Seed precedence: flag, then config file, then BELLSIM_SEED, then 0."""
    if flag_value is not None:
        seed, source = int(flag_value), "--seed"
    elif file_value is not None:
        if isinstance(file_value, bool) or not isinstance(file_value, int):
            raise ConfigError(f"seed must be an integer, got {file_value!r}")
        seed, source = file_value, "seed"
    else:
        env = os.environ.get("BELLSIM_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "BELLSIM_SEED"
        except ValueError as exc:
            raise ConfigError(f"BELLSIM_SEED must be an integer, got {env!r}") from exc
    # Streams use the seed modulo 2**64, so any other seed would repeat another's trials.
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{source} must be in [0, 2**64), got {seed}")
    return seed
