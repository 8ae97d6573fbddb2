"""In-memory spans around bellsim's public functions, and self-time accounting.

The tracer wraps functions from outside the package. A wrapper is installed
in every bellsim module whose namespace binds the original function, because
that binding is where a caller looks it up: `from .streams import
batch_uniforms` puts one copy in `bellsim.models` and another in
`bellsim.interferometer`. Worker threads start with an empty span stack, so
the executor bellsim uses is swapped for one that hands the submitting
thread's open span to each task as its parent.

A span's self time is its duration minus the union of its children's
intervals; children on worker threads may overlap each other, and the union
counts the overlap once.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    invocation: Optional[str]
    work: int = 0  # items processed, where the traced function reports a size


class Tracer:
    """Records spans; `invocation` tags every span with the running command."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `work(args, kwargs)` sizes the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                size = _size(work, args, kwargs)
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), self.invocation, size))

        return traced

    def adopt(self, parent: Optional[int], fn: Callable) -> Callable:
        """`fn` run on another thread with `parent` as its open span."""

        def adopted(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [] if parent is None else [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return adopted

    def executor_class(self) -> type:
        tracer = self

        class SpanPropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

        return SpanPropagatingExecutor

    def dump(self, path: Path) -> None:
        """Write every span as one gzipped JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.span_id, s.name, s.start, s.end, s.parent, s.thread, s.invocation, s.work]
                for s in self.spans]
        payload = {"fields": ["id", "name", "start", "end", "parent", "thread",
                              "invocation", "work"], "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# Functions traced, by the module that defines them, with an optional sizer.
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("streams", "batch_uniforms", lambda a, k: len(a[1]) * int(a[2])),
    ("models", "generate_outcomes", lambda a, k: int(a[4])),
    ("models", "run_trial", None),
    ("quantum", "joint_probabilities", None),
    ("quantum", "expectation", None),
    ("stats", "counts_from_outcomes", lambda a, k: len(a[0])),
    ("stats", "exact_chsh_s", None),
    ("experiment", "run_chsh_experiment", None),
    ("polytope", "local_membership", None),
    ("counterfactual", "record_run", None),
    ("counterfactual", "classify_definiteness", None),
    ("counterfactual", "ledger_text", None),
    ("optimize", "optimize_angles", None),
    ("optimize", "s_landscape", None),
    ("interferometer", "run_bomb_trials", None),
)


class Installation:
    """The wrappers installed into bellsim's modules; `remove` restores them."""

    def __init__(self, tracer: Tracer, package: str = "bellsim") -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module_name, attr, work in TRACED:
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(f"{module_name}.{attr}", original, work)
            self._bind_everywhere(modules, original, wrapper)
        executor = tracer.executor_class()
        self._bind_everywhere(modules, ThreadPoolExecutor, executor)

    def _bind_everywhere(self, modules: Iterable, original: object, replacement: object) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, replacement)

    def remove(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()


def _size(work: Optional[Callable], args: tuple, kwargs: dict) -> int:
    # A call whose signature no longer matches the sizer counts no work.
    if work is None:
        return 0
    try:
        return work(args, kwargs)
    except (IndexError, TypeError, ValueError):
        return 0


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(s.span_id, ()) if hi > s.start and lo < s.end]
        result[s.span_id] = (s.end - s.start) - union_length(clipped)
    return result


def has_ancestor(span: Span, names: set[str], by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, self seconds and work per span name."""
    own = self_times(spans)
    summary: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = summary.setdefault(s.name, {"calls": 0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["self_s"] += own[s.span_id]
        entry["work"] += s.work
    return summary
