"""Benchmark bellsim end to end and per layer.

    python3 bench/run.py --workload sample --seed 0 --seconds 40 --trace 0

Untraced (`--trace 0`), one driver process starts fresh `python -m
bellsim.cli ...` children one at a time and reaps each with `os.wait4`, so a
workload is a closed loop with one client. It repeats the workload's
invocation list while another repetition still fits in `--seconds` and
reports, over the repetitions:

    wall_s       wall time of the invocation list: the sum over invocations
                 of each one's median wall time
    setup_s      median wall time of a fresh interpreter that imports
                 bellsim.cli and exits
    peak_rss_mb  largest ru_maxrss of any invocation (median per invocation)

Both times are given at reference machine speed: scaled by REFERENCE_S over
the median wall time of a fixed reference program that runs before every
invocation. The unscaled times are printed as `raw_wall_s` and
`raw_setup_s` and kept in the result record.

Traced (`--trace 1`), the invocation list runs in this process through
`bellsim.cli.main(argv)`: one warm-up pass, one untraced pass and one pass
with spans around bellsim's public functions (see spans.py). It reports
span counts and self times, the fixed-size rates of layers.py, startup
figures from fresh interpreters and the tracing overhead.

Every invocation's output is checked (see workloads.py). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the exit code is 0 only when every check passed. Metric
names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 2
STARTUP_REPEATS = 3
STARTUP_SNIPPET = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import bellsim.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "import json\n"
    "print(json.dumps({'import_s': elapsed, 'modules_loaded': len(sys.modules),"
    " 'scipy_loaded': int('scipy' in sys.modules)}))\n"
)


# A fixed program that shares nothing with bellsim but the interpreter and
# numpy: an import, a bytecode loop and numpy sorts, like a bellsim run.
REFERENCE_SNIPPET = (
    "import numpy as np\n"
    "total = 0\n"
    "for i in range(300_000):\n"
    "    total += i * i % 7\n"
    "rng = np.random.default_rng(1)\n"
    "for _ in range(5):\n"
    "    np.sort(rng.random(200_000))\n"
)
# The reference program's wall time, in round figures, on the machine of
# the first recorded baseline (see README.md).
REFERENCE_S = 0.3


class Child:
    """Runs one interpreter per call, reaping it before returning."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("BELLSIM_SEED", None)
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")

    def run(self, args: list[str], stdout: str = os.devnull) -> tuple[float, float, int]:
        """(wall seconds, ru_maxrss in MB, exit code) of `python args...`."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.workdir / "stderr.txt"), flags, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
        return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)

    def stderr_tail(self) -> str:
        text = (self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])


def clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


# --- untraced: fresh processes -------------------------------------------------


def untraced(invs: list[workloads.Invocation], seconds: float, child: Child,
             golden: dict) -> dict:
    """Repeat the invocation list while another repetition fits in `seconds`.

    The first repetition always runs; a later one starts only if the
    slowest so far would still end within `seconds` of the start.

    Each repetition starts with one set-up sample, and every invocation
    follows one run of the reference program. On a shared machine, other
    tenants slow every program for spells that can outlast a whole run and
    can move a median of raw wall times by a third. The reference program
    slows much as bellsim does, so wall_s and setup_s are scaled by
    REFERENCE_S over the reference's median: they are the times the list
    and the import would take at the reference's speed. A change to
    bellsim moves the invocations and not the reference, so it moves the
    scaled times in full.
    """

    def setup_sample() -> float:
        wall, _, code = child.run(["-c", "import bellsim.cli"])
        if code != 0:
            raise SystemExit(f"bench: importing bellsim.cli failed: {child.stderr_tail()}")
        return wall

    def reference_sample() -> float:
        wall, _, code = child.run(["-c", REFERENCE_SNIPPET])
        if code != 0:
            raise SystemExit(f"bench: the reference program failed: {child.stderr_tail()}")
        return wall

    started = perf_counter()
    setup_sample()  # fills the bytecode cache
    setup = [setup_sample() for _ in range(SETUP_REPEATS)]
    walls: dict[str, list[float]] = {inv.label: [] for inv in invs}
    rss: dict[str, list[float]] = {inv.label: [] for inv in invs}
    problems, attempted, failed, repetitions, golden_compared = [], 0, 0, [], 0
    reference: list[float] = []
    while True:
        rep_started = perf_counter()
        setup.append(setup_sample())
        outputs = workloads.Outputs(child.workdir, golden)
        for inv in invs:
            reference.append(reference_sample())
            wall, maxrss, code = child.run(["-m", "bellsim.cli", *inv.full_argv(child.workdir)])
            walls[inv.label].append(wall)
            rss[inv.label].append(maxrss)
            issues = ([f"{inv.label}: exit code {code}: {child.stderr_tail()}"] if code != 0
                      else workloads.check(inv, outputs))
            attempted += 1
            failed += bool(issues)
            problems += issues
        clear(child.workdir)
        golden_compared += outputs.facts.get("golden_compared", 0)
        repetitions.append(perf_counter() - rep_started)
        if perf_counter() - started + max(repetitions) > seconds:
            break
    raw_wall = sum(statistics.median(w) for w in walls.values())
    raw_setup = statistics.median(setup)
    speed = REFERENCE_S / statistics.median(reference)
    return {
        "metrics": {
            "wall_s": raw_wall * speed,
            "setup_s": raw_setup * speed,
            "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {"raw_wall_s": raw_wall, "raw_setup_s": raw_setup, "wall_s": walls, "reference_s": reference,
                   "peak_rss_mb": rss, "setup_s": setup, "repetition_s": repetitions,
                   "golden_compared": golden_compared},
    }


# --- traced: in process -------------------------------------------------------


def in_process(invs: list[workloads.Invocation], workdir: Path, golden: dict,
               tracer: spans.Tracer | None = None) -> dict:
    import bellsim.cli

    gc.collect()
    wall, failed, problems, artifact_bytes = 0.0, 0, [], 0
    outputs = workloads.Outputs(workdir, golden)
    for inv in invs:
        main = bellsim.cli.main if tracer is None else tracer.wrap("cli.main", bellsim.cli.main)
        if tracer is not None:
            tracer.invocation = inv.label
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(inv.full_argv(workdir))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one failing invocation must not stop the others
            code = traceback.format_exc(limit=3)
        wall += perf_counter() - start
        if tracer is not None:
            tracer.invocation = None
        issues = ([f"{inv.label}: exit {code}: {sink.getvalue()[-300:]}"] if code != 0
                  else workloads.check(inv, outputs))
        failed += bool(issues)
        problems += issues
        written = [inv.out_path(workdir)] + ([inv.ledger_path(workdir)] if inv.ledger else [])
        artifact_bytes += sum(p.stat().st_size for p in written if p.exists())
    clear(workdir)
    return {"wall_s": wall, "attempted": len(invs), "failed": failed, "problems": problems,
            "facts": outputs.facts, "artifact_bytes": artifact_bytes}


def startup(child: Child) -> dict[str, float]:
    samples = []
    target = child.workdir / "startup.json"
    for _ in range(STARTUP_REPEATS):
        _, _, code = child.run(["-c", STARTUP_SNIPPET], stdout=str(target))
        if code != 0:
            raise SystemExit(f"bench: importing bellsim.cli failed: {child.stderr_tail()}")
        samples.append(json.loads(target.read_text(encoding="utf-8")))
    target.unlink()
    return {
        "startup.import_s": statistics.median(s["import_s"] for s in samples),
        "startup.modules_loaded": statistics.median(s["modules_loaded"] for s in samples),
        "startup.scipy_loaded": max(s["scipy_loaded"] for s in samples),
    }


def joint_probabilities_per_ledger_trial(trace: list[spans.Span],
                                         invs: list[workloads.Invocation]) -> float:
    """Single-trial `joint_probabilities` calls per ledger trial, quantum and nonlocal.

    Calls under `generate_outcomes` serve the batch statistics, not the
    ledger, and are left out.
    """
    ledger_trials = {inv.label: int(inv.flag("--trials")) for inv in invs
                     if inv.ledger and workloads.MODEL_KINDS[inv.model] in ("quantum", "nonlocal")}
    if not ledger_trials:
        return 0.0
    by_id = {s.span_id: s for s in trace}
    calls = sum(1 for s in trace if s.name == "quantum.joint_probabilities"
                and s.invocation in ledger_trials
                and not spans.has_ancestor(s, {"models.generate_outcomes"}, by_id))
    return calls / sum(ledger_trials.values())


def traced(invs: list[workloads.Invocation], child: Child, golden: dict, tiny: bool,
           spans_path: Path) -> dict:
    metrics = startup(child)
    sys.path.insert(0, str(SRC))
    passes = [in_process(invs, child.workdir, golden)]  # warm-up
    passes.append(in_process(invs, child.workdir, golden))
    tracer = spans.Tracer()
    installation = spans.Installation(tracer)
    try:
        passes.append(in_process(invs, child.workdir, golden, tracer))
    finally:
        installation.remove()
    plain, traced_pass = passes[1], passes[2]
    tracer.dump(spans_path)

    summary = spans.summarize(tracer.spans)

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    for name in ("streams.batch_uniforms", "models.run_trial", "quantum.joint_probabilities",
                 "quantum.expectation", "stats.exact_chsh_s", "polytope.local_membership"):
        metrics[f"{name}.calls"] = span(name, "calls")
    for name in ("streams.batch_uniforms", "models.generate_outcomes", "models.run_trial",
                 "quantum.joint_probabilities", "quantum.expectation",
                 "stats.counts_from_outcomes", "stats.exact_chsh_s",
                 "experiment.run_chsh_experiment", "polytope.local_membership",
                 "counterfactual.record_run", "counterfactual.classify_definiteness",
                 "counterfactual.ledger_text", "optimize.optimize_angles",
                 "optimize.s_landscape", "interferometer.run_bomb_trials", "cli.main"):
        metrics[f"{name}.self_s"] = span(name, "self_s")
    metrics["streams.batch_uniforms.variates"] = span("streams.batch_uniforms", "work")
    metrics["quantum.joint_probabilities.calls_per_ledger_trial"] = (
        joint_probabilities_per_ledger_trial(tracer.spans, invs))
    facts = traced_pass["facts"]
    metrics["counterfactual.ledger_bytes"] = facts.get("ledger_bytes", 0)
    examined = facts.get("trials_examined", 0)
    metrics["counterfactual.replays_matched_ratio"] = (
        facts.get("replays_matched", 0) / examined if examined else 0.0)
    metrics["cli.artifact_bytes"] = traced_pass["artifact_bytes"]
    metrics["trace.overhead_ratio"] = traced_pass["wall_s"] / plain["wall_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics["error_rate"] = failed / attempted
    metrics.update(layers.measure(repeats=1 if tiny else 5))

    per_invocation: dict[str, dict[str, int]] = {}
    for s in tracer.spans:
        counts = per_invocation.setdefault(s.invocation or "-", {})
        counts[s.name] = counts.get(s.name, 0) + 1
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for ps in passes for p in ps["problems"]],
        "detail": {"pass_wall_s": [p["wall_s"] for p in passes],
                   "calls_per_invocation": per_invocation,
                   "golden_compared": sum(p["facts"].get("golden_compared", 0) for p in passes),
                   "untraced_functions": installation.missing,
                   "spans": len(tracer.spans)},
    }


# --- environment, declared metrics, output ---------------------------------


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def environment() -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_start": loadavg(),
    }


def declared_units(trace: bool) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for testing the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "bellsim" / "cli.py").is_file():
        print(f"bench: no bellsim sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))

    env = environment()
    print("env " + json.dumps(env), flush=True)
    invs = workloads.invocations(args.workload, args.seed, "tiny" if args.tiny else "full")
    golden = workloads.load_golden()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        child = Child(workdir)
        if args.trace:
            outcome = traced(invs, child, golden, args.tiny, OUT / f"spans-{tag}.json.gz")
        else:
            outcome = untraced(invs, args.seconds, child, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    measured = outcome["metrics"]
    if set(measured) != set(units):
        print(f"bench: measured metrics {sorted(set(measured) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    correct = outcome["failed"] == 0
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, problems=outcome["problems"], detail=outcome["detail"])
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env_end " + json.dumps({"loadavg_end": env["loadavg_end"]}))
    for name in units:
        print(f"{name:52s} {measured[name]:>16.6g} {units[name]}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in outcome["detail"]:
            print(f"{name + ' (unscaled, not a metric)':52s} "
                  f"{outcome['detail'][name]:>16.6g} s")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
