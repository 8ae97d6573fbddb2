"""The benchmark's workloads: bellsim invocation lists and their output checks.

A workload is a list of `bellsim` command lines. The harness seed fixes the
`--seed` value bellsim sees (and, for `analysis`, the fixed landscape
angles), so the same harness seed always gives the same invocations.

Every invocation has a check that reads the artifacts it wrote and returns
a list of problems; an empty list means the output is correct. Checks read
the fields they need and ignore everything else, so an added `provenance`
block, a ledger header line or a stderr timings line never fails one.
Sampled content (coincidence counts, bomb frequencies and ledger records)
is also compared against values captured from earlier runs, stored in
`golden.json` and keyed by the exact command line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("sample", "replay", "analysis")

# Sizes of the full benchmark and of the tiny variant the harness tests use.
SIZES = {
    "full": {"chsh_trials": 3_000_000, "bomb_trials": 3_000_000, "ledger_trials": 1_500,
             "stats_trials": None, "resolution": 64, "grid": 32},
    "tiny": {"chsh_trials": 20_000, "bomb_trials": 20_000, "ledger_trials": 800,
             "stats_trials": 2_000, "resolution": 8, "grid": 8},
}

SAMPLED_MODELS = ("quantum-optimal", "nonlocal-optimal", "lhv-uniform", "pr-box")
MODEL_KINDS = {
    "quantum-optimal": "quantum",
    "nonlocal-optimal": "nonlocal",
    "lhv-uniform": "lhv_stochastic",
    "pr-box": "superdeterministic",
}

PAIR_ORDER = (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))
SIGN_PATTERN = (1, -1, 1, 1)  # the CLI default "+-++"
OUTCOME_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SINGLET_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
TSIRELSON = 2.0 * math.sqrt(2.0)
BOMB_REFLECTIVITY = 0.5  # the CLI default

# Classification and cell kinds each model must produce on replay, with
# the number of cells of each kind per ledger trial.
EXPECTED_REPLAY = {
    "quantum": ("semi-definite", False, {"definite": 1, "distribution": 3, "undefined": 0}),
    "nonlocal": ("semi-definite", False, {"definite": 1, "distribution": 3, "undefined": 0}),
    "lhv_stochastic": ("definite", True, {"definite": 4, "distribution": 0, "undefined": 0}),
    "superdeterministic": ("indefinite", False, {"definite": 1, "distribution": 0, "undefined": 3}),
}

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Invocation:
    """One bellsim command line and the check for what it writes."""

    label: str
    argv: tuple[str, ...]
    check: Callable[["Invocation", "Outputs"], list[str]]
    model: Optional[str] = None
    ledger: bool = False
    suffix: str = ".json"
    twin: Optional[str] = None  # label whose artifact must be byte-identical

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"{self.label}{self.suffix}"

    def ledger_path(self, workdir: Path) -> Path:
        return workdir / f"{self.label}.jsonl"

    def full_argv(self, workdir: Path) -> list[str]:
        argv = list(self.argv) + ["--out", str(self.out_path(workdir))]
        if self.ledger:
            argv += ["--ledger", str(self.ledger_path(workdir))]
        return argv

    def flag(self, name: str) -> str:
        """The value given to flag `name` on the command line."""
        return self.argv[self.argv.index(name) + 1]

    @property
    def key(self) -> str:
        """The golden-table key: the command line without output paths."""
        return " ".join(self.argv)


@dataclass
class Outputs:
    """Where the artifacts are, plus what the checks learned from them.

    `observed` maps each command line to the sampled values its check
    compared (or would have compared) with `golden`.
    """

    workdir: Path
    golden: dict
    facts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.facts[name] = self.facts.get(name, 0) + value


def bellsim_seed(seed: int) -> int:
    """The `--seed` bellsim receives for harness seed `seed`."""
    return random.Random(seed).randrange(1 << 31)


def landscape_fixed(seed: int) -> tuple[float, float]:
    """The fixed angles (a, a') of the analysis landscape for `seed`."""
    rng = random.Random(seed)
    rng.randrange(1 << 31)
    return rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)


def invocations(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """The invocation list of `workload` under harness seed `seed`."""
    n = SIZES[size]
    s = str(bellsim_seed(seed))
    if workload == "sample":
        trials = str(n["chsh_trials"])
        invs = [
            Invocation(f"chsh-{m}", ("chsh", "--model", m, "--trials", trials, "--seed", s),
                       check_chsh, model=m)
            for m in SAMPLED_MODELS
        ]
        invs.append(
            Invocation("chsh-quantum-optimal-t2",
                       ("chsh", "--model", "quantum-optimal", "--trials", trials, "--seed", s,
                        "--threads", "2"),
                       check_chsh, model="quantum-optimal", twin="chsh-quantum-optimal"))
        invs.append(Invocation("bomb", ("bomb", "--trials", str(n["bomb_trials"]), "--seed", s),
                               check_bomb))
        return invs
    if workload == "replay":
        extra = () if n["stats_trials"] is None else ("--stats-trials", str(n["stats_trials"]))
        return [
            Invocation(f"counterfactual-{m}",
                       ("counterfactual", "--model", m, "--trials", str(n["ledger_trials"]),
                        "--seed", s) + extra,
                       check_counterfactual, model=m, ledger=True)
            for m in SAMPLED_MODELS
        ]
    if workload == "analysis":
        a, ap = landscape_fixed(seed)
        return [
            Invocation("chsh-exact", ("chsh", "--exact"), check_chsh_exact),
            Invocation("lhv-scan", ("lhv-scan",), check_lhv_scan),
            Invocation("optimize", ("optimize",), check_optimize),
            Invocation("optimize-psi-plus",
                       ("optimize", "--state", "psi_plus", "--grid", str(n["grid"])),
                       check_optimize),
            Invocation("landscape",
                       ("landscape", "--resolution", str(n["resolution"]),
                        "--fixed", f"a={a!r},a'={ap!r}"),
                       check_landscape, suffix=".csv"),
            Invocation("bomb-exact", ("bomb", "--exact"), check_bomb_exact),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {}


def check(inv: Invocation, outputs: Outputs) -> list[str]:
    """Run the invocation's check; a missing or malformed artifact is a problem."""
    try:
        return inv.check(inv, outputs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{inv.label}: unreadable output ({type(exc).__name__}: {exc})"]


# --- closed forms the checks compare against --------------------------------


def singlet_correlation(theta_a: float, theta_b: float) -> float:
    """E(θa, θb) = −cos(θa − θb) for psi_minus."""
    return -math.cos(theta_a - theta_b)


def psi_plus_correlation(theta_a: float, theta_b: float) -> float:
    """E(θa, θb) = −cos(θa + θb) for psi_plus."""
    return -math.cos(theta_a + theta_b)


def closed_form_s(correlation: Callable[[float, float], float], angles) -> float:
    by_label = dict(zip(("a", "a'", "b", "b'"), angles))
    return sum(sign * correlation(by_label[x], by_label[y])
               for sign, (x, y) in zip(SIGN_PATTERN, PAIR_ORDER))


def bomb_probabilities(reflectivity: float) -> dict[str, float]:
    """Exact outcome probabilities with the absorber in the reflected arm."""
    r = reflectivity
    return {"exploded": r, "dark_port": (1.0 - r) * r, "bright_port": (1.0 - r) ** 2}


def s_from_counts(counts: list[tuple[int, int, int, int]]) -> tuple[float, float]:
    """S and its standard error from per-pair (n_pp, n_pm, n_mp, n_mm)."""
    s, variance = 0, 0.0
    for sign, (pp, pm, mp, mm) in zip(SIGN_PATTERN, counts):
        total = pp + pm + mp + mm
        value = (pp + mm - pm - mp) / total
        s += sign * value
        variance += max(0.0, 1.0 - value * value) / total
    return s, math.sqrt(variance)


def bound_problems(label: str, kind: str, s: float, sigma: float) -> list[str]:
    if kind in ("quantum", "nonlocal") and not abs(s) > 2.0 + 3.0 * sigma:
        return [f"{label}: |S| = {abs(s)} does not exceed 2 + 3σ ({2.0 + 3.0 * sigma})"]
    if kind == "lhv_stochastic" and not abs(s) <= 2.0 + 3.0 * sigma:
        return [f"{label}: |S| = {abs(s)} exceeds 2 + 3σ ({2.0 + 3.0 * sigma})"]
    if kind == "superdeterministic" and s != 4.0:
        return [f"{label}: S = {s}, expected exactly 4"]
    return []


def golden_problems(inv: Invocation, outputs: Outputs, name: str, value) -> list[str]:
    outputs.observed.setdefault(inv.key, {})[name] = value
    entry = outputs.golden.get(inv.key)
    if entry is None or name not in entry:
        return []
    outputs.add("golden_compared", 1)
    if entry[name] != value:
        return [f"{inv.label}: {name} differs from the captured value"]
    return []


# --- extraction ----------------------------------------------------------------


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def chsh_counts(document: dict) -> list[tuple[int, int, int, int]]:
    pairs = document["results"]["pairs"]
    if [(p["left"], p["right"]) for p in pairs] != list(PAIR_ORDER):
        raise ValueError("setting pairs are not in canonical order")
    return [tuple(int(p["counts"][k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm")) for p in pairs]


def bomb_frequencies(document: dict) -> dict[str, float]:
    return {k: float(v) for k, v in document["results"]["interferometry"]["frequencies"].items()}


def ledger_records(path: Path) -> list[tuple[list, list, Optional[int]]]:
    """(settings, outcomes, hidden) of every record line; other lines are skipped."""
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        if isinstance(payload, dict) and "settings" in payload and "outcomes" in payload:
            records.append((list(payload["settings"]), list(payload["outcomes"]),
                            payload.get("hidden")))
    return records


def ledger_digest(records) -> str:
    canonical = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- checks -------------------------------------------------------------------


def check_chsh(inv: Invocation, outputs: Outputs) -> list[str]:
    path = inv.out_path(outputs.workdir)
    document = read_json(path)
    problems = []
    results = document["results"]
    trials = int(inv.flag("--trials"))
    counts = chsh_counts(document)
    for pair, row in zip(PAIR_ORDER, counts):
        if sum(row) != trials or min(row) < 0:
            problems.append(f"{inv.label}: counts {row} for {pair} do not sum to {trials}")
    if problems:
        return problems
    s, sigma = s_from_counts(counts)
    if abs(results["s_value"] - s) > 1e-12:
        problems.append(f"{inv.label}: s_value {results['s_value']} != {s} from the counts")
    problems += bound_problems(inv.label, MODEL_KINDS[inv.model], s, sigma)
    problems += golden_problems(inv, outputs, "counts", [list(r) for r in counts])
    if inv.twin is not None:
        twin = outputs.workdir / f"{inv.twin}{inv.suffix}"
        if path.read_bytes() != twin.read_bytes():
            problems.append(f"{inv.label}: artifact differs from {inv.twin}")
    return problems


def check_bomb(inv: Invocation, outputs: Outputs) -> list[str]:
    document = read_json(inv.out_path(outputs.workdir))
    trials = int(inv.flag("--trials"))
    frequencies = bomb_frequencies(document)
    problems = []
    for name, p in bomb_probabilities(BOMB_REFLECTIVITY).items():
        sigma = math.sqrt(p * (1.0 - p) / trials)
        if abs(frequencies[name] - p) > 5.0 * sigma:
            problems.append(f"{inv.label}: {name} frequency {frequencies[name]} not within 5σ of {p}")
    if abs(sum(frequencies.values()) - 1.0) > 1e-9:
        problems.append(f"{inv.label}: frequencies do not sum to 1")
    return problems + golden_problems(inv, outputs, "frequencies", frequencies)


def check_counterfactual(inv: Invocation, outputs: Outputs) -> list[str]:
    kind = MODEL_KINDS[inv.model]
    trials = int(inv.flag("--trials"))
    classification, feasible, cells_per_trial = EXPECTED_REPLAY[kind]
    problems = []

    results = read_json(inv.out_path(outputs.workdir))["results"]
    if results["classification"] != classification:
        problems.append(f"{inv.label}: classified {results['classification']!r}, "
                        f"expected {classification!r}")
    if results["feasibility"]["feasible"] is not feasible:
        problems.append(f"{inv.label}: feasibility {results['feasibility']['feasible']}, "
                        f"expected {feasible}")
    expected_cells = {k: v * trials for k, v in cells_per_trial.items()}
    if {k: results["cell_kinds"].get(k, 0) for k in expected_cells} != expected_cells:
        problems.append(f"{inv.label}: cell kinds {results['cell_kinds']}, expected {expected_cells}")
    matched, examined = results["factual_replays_matched"], results["trials_examined"]
    outputs.add("replays_matched", matched)
    outputs.add("trials_examined", examined)
    if examined != trials or matched != examined:
        problems.append(f"{inv.label}: {matched} of {examined} replays matched, {trials} recorded")

    ledger_path = inv.ledger_path(outputs.workdir)
    outputs.add("ledger_bytes", ledger_path.stat().st_size)
    records = ledger_records(ledger_path)
    problems += ledger_problems(inv.label, kind, trials, records)
    if not problems:
        problems += golden_problems(inv, outputs, "ledger_sha256", ledger_digest(records))
    return problems


def ledger_problems(label: str, kind: str, trials: int, records) -> list[str]:
    """Settings follow the schedule; outcomes agree with the hidden value."""
    if len(records) != trials:
        return [f"{label}: ledger has {len(records)} records, expected {trials}"]
    tallies = [[0, 0, 0, 0] for _ in PAIR_ORDER]
    for index, (settings, outcomes, hidden) in enumerate(records):
        pair = PAIR_ORDER[index % 4]
        if tuple(settings) != pair:
            return [f"{label}: record {index} has settings {settings}, expected {list(pair)}"]
        if tuple(outcomes) not in OUTCOME_ORDER:
            return [f"{label}: record {index} has outcomes {outcomes}"]
        if kind in ("quantum", "nonlocal"):
            consistent = hidden is None
        elif kind == "lhv_stochastic":
            # Strategy bits (a, a', b, b') from the most significant; 0 means +1.
            consistent = isinstance(hidden, int) and 0 <= hidden < 16 and tuple(outcomes) == (
                1 - 2 * ((hidden >> (3 - ("a", "a'").index(pair[0]))) & 1),
                1 - 2 * ((hidden >> (1 - ("b", "b'").index(pair[1]))) & 1),
            )
        else:
            consistent = (isinstance(hidden, int) and 0 <= hidden < 4
                          and tuple(outcomes) == OUTCOME_ORDER[hidden])
        if not consistent:
            return [f"{label}: record {index} outcomes {outcomes} disagree with hidden {hidden}"]
        tallies[index % 4][OUTCOME_ORDER.index(tuple(outcomes))] += 1
    if min(sum(t) for t in tallies) == 0:
        return []
    s, sigma = s_from_counts([tuple(t) for t in tallies])
    return bound_problems(f"{label} ledger", kind, s, sigma)


def check_chsh_exact(inv: Invocation, outputs: Outputs) -> list[str]:
    results = read_json(inv.out_path(outputs.workdir))["results"]
    by_label = dict(zip(("a", "a'", "b", "b'"), SINGLET_ANGLES))
    problems = []
    for pair in results["pairs"]:
        expected = singlet_correlation(by_label[pair["left"]], by_label[pair["right"]])
        if abs(pair["value"] - expected) > 1e-12:
            problems.append(f"{inv.label}: E{pair['left'], pair['right']} = {pair['value']}, "
                            f"expected {expected}")
    if abs(abs(results["s_value"]) - TSIRELSON) > 1e-12:
        problems.append(f"{inv.label}: |S| = {abs(results['s_value'])}, expected 2√2")
    return problems


def check_lhv_scan(inv: Invocation, outputs: Outputs) -> list[str]:
    results = read_json(inv.out_path(outputs.workdir))["results"]
    if len(results["strategies"]) != 16:
        return [f"{inv.label}: {len(results['strategies'])} strategies, expected 16"]
    problems = []
    for row in results["strategies"]:
        r = row["responses"]
        expected = [r[x] * r[y] for x, y in PAIR_ORDER]
        if list(row["correlations"]) != expected:
            problems.append(f"{inv.label}: strategy {row['index']} correlations {row['correlations']}")
    if results["max_abs_s"] != 2:
        problems.append(f"{inv.label}: max |S| = {results['max_abs_s']}, expected 2")
    return problems


def check_optimize(inv: Invocation, outputs: Outputs) -> list[str]:
    results = read_json(inv.out_path(outputs.workdir))["results"]
    correlation = psi_plus_correlation if "psi_plus" in inv.argv else singlet_correlation
    problems = []
    if abs(abs(results["s_value"]) - TSIRELSON) > 1e-9:
        problems.append(f"{inv.label}: |S| = {abs(results['s_value'])}, not within 1e-9 of 2√2")
    s_at_angles = closed_form_s(correlation, results["angles"])
    if abs(s_at_angles - results["s_value"]) > 1e-9:
        problems.append(f"{inv.label}: S at the reported angles is {s_at_angles}, "
                        f"reported {results['s_value']}")
    return problems


def check_landscape(inv: Invocation, outputs: Outputs) -> list[str]:
    resolution = int(inv.flag("--resolution"))
    fixed_raw = inv.flag("--fixed")
    fixed = {k: float(v) for k, v in (seg.split("=") for seg in fixed_raw.split(","))}
    with inv.out_path(outputs.workdir).open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0][0] != "b\\b'" or len(rows) != resolution + 1:
        return [f"{inv.label}: grid header {rows[0][0]!r} with {len(rows) - 1} rows"]
    thetas = [math.pi * k / resolution for k in range(resolution)]
    columns = [float(v) for v in rows[0][1:]]
    if len(columns) != resolution or max(abs(c - t) for c, t in zip(columns, thetas)) > 1e-12:
        return [f"{inv.label}: column angles are not the uniform grid"]
    worst = 0.0
    for theta_b, row in zip(thetas, rows[1:]):
        if abs(float(row[0]) - theta_b) > 1e-12 or len(row) != resolution + 1:
            return [f"{inv.label}: row {row[0]} is not on the uniform grid"]
        for theta_bp, value in zip(thetas, row[1:]):
            angles = (fixed["a"], fixed["a'"], theta_b, theta_bp)
            worst = max(worst, abs(float(value) - closed_form_s(singlet_correlation, angles)))
    if worst > 1e-12:
        return [f"{inv.label}: a value differs from the closed form by {worst}"]
    return []


def check_bomb_exact(inv: Invocation, outputs: Outputs) -> list[str]:
    interferometry = read_json(inv.out_path(outputs.workdir))["results"]["interferometry"]
    problems = []
    if interferometry["frequencies"] is not None:
        problems.append(f"{inv.label}: an exact run reported sampled frequencies")
    for name, p in bomb_probabilities(BOMB_REFLECTIVITY).items():
        if abs(interferometry["probabilities"][name] - p) > 1e-12:
            problems.append(f"{inv.label}: {name} probability "
                            f"{interferometry['probabilities'][name]}, expected {p}")
    return problems
