"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q

They run bellsim at tiny sizes, so they take about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "startup.import_s", "startup.modules_loaded", "startup.scipy_loaded",
    "streams.batch_uniforms.calls", "streams.batch_uniforms.variates",
    "streams.batch_uniforms.self_s", "streams.batch_uniforms.ns_per_variate.chunk",
    "streams.batch_uniforms.ns_per_variate.large",
    "models.generate_outcomes.self_s", "models.generate_outcomes.ns_per_trial",
    "models.generate_outcomes.t2_speedup", "models.trials_per_s.quantum",
    "models.trials_per_s.nonlocal", "models.trials_per_s.lhv_stochastic",
    "models.trials_per_s.superdeterministic", "models.run_trial.calls",
    "models.run_trial.self_s", "models.run_trial.us_per_call",
    "quantum.joint_probabilities.calls", "quantum.joint_probabilities.self_s",
    "quantum.joint_probabilities.calls_per_ledger_trial", "quantum.expectation.calls",
    "quantum.expectation.self_s", "stats.counts_from_outcomes.self_s",
    "stats.counts_from_outcomes.ns_per_trial", "stats.exact_chsh_s.calls",
    "stats.exact_chsh_s.self_s", "experiment.run_chsh_experiment.self_s",
    "polytope.local_membership.calls", "polytope.local_membership.self_s",
    "counterfactual.record_run.self_s", "counterfactual.classify_definiteness.self_s",
    "counterfactual.ledger_text.self_s", "counterfactual.ledger_bytes",
    "counterfactual.replays_matched_ratio", "optimize.optimize_angles.self_s",
    "optimize.s_landscape.self_s", "optimize.s_landscape.us_per_cell",
    "interferometer.run_bomb_trials.self_s", "interferometer.run_bomb_trials.ns_per_trial",
    "cli.main.self_s", "cli.artifact_bytes", "trace.overhead_ratio", "error_rate",
}


def test_self_time_subtracts_the_union_of_overlapping_children_on_two_threads():
    trace = [
        spans.Span(1, "parent", 0.0, 10.0, None, 1, None),
        spans.Span(2, "child", 1.0, 5.0, 1, 2, None),
        spans.Span(3, "child", 3.0, 8.0, 1, 3, None),
        spans.Span(4, "grandchild", 2.0, 4.0, 2, 2, None),
    ]
    own = spans.self_times(trace)
    assert own[1] == pytest.approx(10.0 - 7.0)  # [1, 5] ∪ [3, 8] covers 7, not 9
    assert own[2] == pytest.approx(4.0 - 2.0)
    assert own[3] == pytest.approx(5.0)
    summary = spans.summarize(trace)
    assert summary["child"]["calls"] == 2
    assert summary["child"]["self_s"] == pytest.approx(7.0)


def test_spans_on_worker_threads_belong_to_the_submitting_span():
    tracer = spans.Tracer()
    both_running = threading.Barrier(2, timeout=5)

    def leaf() -> None:
        both_running.wait()
        time.sleep(0.05)

    traced_leaf = tracer.wrap("leaf", leaf)

    def fan_out() -> None:
        with tracer.executor_class()(max_workers=2) as pool:
            for future in [pool.submit(traced_leaf) for _ in range(2)]:
                future.result()

    tracer.wrap("fan_out", fan_out)()
    parent = next(s for s in tracer.spans if s.name == "fan_out")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert [s.parent for s in leaves] == [parent.span_id] * 2
    assert len({s.thread for s in leaves}) == 2
    covered = spans.union_length((s.start, s.end) for s in leaves)
    assert covered < sum(s.end - s.start for s in leaves)
    own = spans.self_times(tracer.spans)
    assert own[parent.span_id] == pytest.approx(parent.end - parent.start - covered)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Tiny chsh and counterfactual artifacts written by bellsim."""
    import bellsim.cli

    workdir = tmp_path_factory.mktemp("artifacts")
    invs = {inv.label: inv for w in ("sample", "replay")
            for inv in workloads.invocations(w, 5, "tiny")}
    chosen = [invs["chsh-quantum-optimal"], invs["counterfactual-lhv-uniform"]]
    for inv in chosen:
        with contextlib.redirect_stderr(io.StringIO()):
            assert bellsim.cli.main(inv.full_argv(workdir)) == 0
    return workdir, chosen[0], chosen[1]


def rewrite(path: Path, edit) -> None:
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document, indent=2) + "\n")


def fresh_copy(workdir: Path, tmp_path: Path) -> Path:
    target = tmp_path / "copy"
    shutil.copytree(workdir, target)
    return target


def test_checker_accepts_untouched_artifacts(artifacts, tmp_path):
    workdir, chsh, counterfactual = artifacts
    outputs = workloads.Outputs(fresh_copy(workdir, tmp_path), {})
    assert workloads.check(chsh, outputs) == []
    assert workloads.check(counterfactual, outputs) == []


def test_checker_rejects_an_artifact_with_one_count_changed(artifacts, tmp_path):
    workdir, chsh, _ = artifacts
    copy = fresh_copy(workdir, tmp_path)
    rewrite(chsh.out_path(copy), lambda d: d["results"]["pairs"][2]["counts"].update(
        n_mm=d["results"]["pairs"][2]["counts"]["n_mm"] + 1))
    assert workloads.check(chsh, workloads.Outputs(copy, {})) != []


def test_checker_rejects_counts_that_differ_from_the_captured_ones(artifacts, tmp_path):
    workdir, chsh, _ = artifacts
    copy = fresh_copy(workdir, tmp_path)
    counts = workloads.chsh_counts(workloads.read_json(chsh.out_path(copy)))
    captured = [list(c) for c in counts]
    captured[1][0] += 1
    captured[1][1] -= 1
    problems = workloads.check(chsh, workloads.Outputs(copy, {chsh.key: {"counts": captured}}))
    assert any("captured" in p for p in problems)


def test_checker_accepts_a_provenance_block_and_a_ledger_header(artifacts, tmp_path):
    workdir, chsh, counterfactual = artifacts
    copy = fresh_copy(workdir, tmp_path)
    provenance = {"bellsim": "0.1.0", "stream": "splitmix64-counter", "schema": 2}
    for inv in (chsh, counterfactual):
        rewrite(inv.out_path(copy), lambda d: d.update(provenance=provenance))
    ledger = counterfactual.ledger_path(copy)
    ledger.write_text(json.dumps({"schema": 2, "model": "lhv-uniform", "seed": 1}) + "\n"
                      + ledger.read_text())
    records = workloads.ledger_records(counterfactual.ledger_path(workdir))
    golden = {counterfactual.key: {"ledger_sha256": workloads.ledger_digest(records)}}
    outputs = workloads.Outputs(copy, golden)
    assert workloads.check(chsh, outputs) == []
    assert workloads.check(counterfactual, outputs) == []
    assert outputs.facts["golden_compared"] == 1


def test_checker_rejects_a_ledger_record_that_disagrees_with_its_hidden_value(artifacts, tmp_path):
    workdir, _, counterfactual = artifacts
    copy = fresh_copy(workdir, tmp_path)
    ledger = counterfactual.ledger_path(copy)
    lines = ledger.read_text().splitlines()
    first = json.loads(lines[0])
    first["outcomes"] = [-first["outcomes"][0], first["outcomes"][1]]
    ledger.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    assert workloads.check(counterfactual, workloads.Outputs(copy, {})) != []


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_every_metric_of_the_harness():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [("analysis", "0"), ("sample", "1"),
                                            ("replay", "1"), ("analysis", "1")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", trace, "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = declared()["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in section
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["error_rate"]["value"] == 0
    if workload == "replay":
        metrics = result["metrics"]
        assert metrics["quantum.joint_probabilities.calls_per_ledger_trial"]["value"] == 5
        assert metrics["counterfactual.replays_matched_ratio"]["value"] == 1.0


def test_run_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(tmp_path, "--workload", "sample", "--seed", "0", "--seconds", "1",
                          "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
