"""Byte-identity gate: SHA-256 of CLI artifacts pinned from an earlier build.

The determinism contract says the same configuration gives the same bytes
at any thread count. These hashes were captured before the sampling path
was rewritten as one batch kernel, so any change to how uniforms become
outcomes, how chunks are tallied or how ledgers are replayed shows up here
as a hash mismatch. The `out.json` of the two feasible counterfactual cases
was re-pinned when the witness weights became the closed-form 16-cell
decomposition: a witness is not unique, and only those weights changed.
The small cases of every subcommand in both formats, and the diagnostics of
rejected inputs, were captured before the configuration record was removed
and the JSON artifacts were streamed. The 70,000-trial ledger, which spans
two sampling chunks and two written blocks, was captured while ledgers
were still built and written one TrialRecord at a time. The diagnostics of
oversized trial counts were added when those counts got an upper bound;
before it, each ended in a MemoryError. The diagnostics of a config file
that is not UTF-8, of JSON nested 20,000 deep and of an angle beyond float
range were added when those inputs stopped ending in a traceback. The
diagnostics of argparse's usage errors with a 5,000-character argument and
of a misspelt JSON model field were added when the first were cut short and
the second stopped being ignored, and that of 2,000 unknown config keys when
that list was cut to its first key. The `out.json` of `counterfactual-lhv-edge`
was pinned from numpy's witness at the default OpenBLAS kernel, before the
witness was written in plain Python; it must not change with the kernel.
The `chsh --exact` cases of `nonlocal-optimal` and of an lhv mixture were
added when float sums stopped following the Python version, pinned from the
bytes Python 3.11 wrote before that change. The 70,001-trial ledgers of
`quantum-optimal` (no hidden index) and `pr-box` (the outcome index as
hidden index) were added before the key table was cut to 4,096 steps, the
inverse-CDF lookup stopped copying a CDF row per trial and ledger text was
written in 4,096-line pieces. The sampled `chsh` cases of the lhv mixture, whose
neighbouring strategies share a coincidence counter under distinct weights, and
of a mixture whose first weight is 0 were added while chunks were still counted
on merged counter segments, before they were counted on the CDF rows.
The `out.json` of `counterfactual-lhv-edge` at seed 1 was added when a shell
comparison of its bytes under the default and the Prescott OpenBLAS kernel
became a case of the kernel test here, pinned from the build before.

To print the hashes the current code produces (for example after a
deliberate schema change), run `PYTHONPATH=src python tests/test_golden_artifacts.py`.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bellsim.cli import main
from bellsim.config import MAX_JSON_DEPTH
from bellsim.models import catalog

import fresh
from oracles import compensated_sum

SEED = "20190916"
CHSH_TRIALS = "200000"
LEDGER_TRIALS = "400"
MIXTURE = json.dumps({
    "kind": "lhv_stochastic",
    "weights": [0.1, 0.05, 0.05, 0.1, 0.02, 0.08, 0.1, 0.1, 0.03, 0.07] + [0.05] * 6,
})
# Its first strategy has weight 0, a tie at threshold 0.
LEADING_ZERO = json.dumps({"kind": "lhv_stochastic", "weights": [0.0] + [0.125] * 8 + [0.0] * 7})
# One catalog model per model kind.
LEDGER_MODELS = ("quantum-optimal", "nonlocal-optimal", "lhv-all-plus", "lhv-uniform", "pr-box")


def _cases() -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Case id -> (argv without output paths, artifact names it writes)."""
    cases = {}
    sampled = {name: name for name in catalog()}
    sampled.update({"mixture": MIXTURE, "lhv-leading-zero": LEADING_ZERO})
    for name, model in sorted(sampled.items()):
        for threads in ("1", "2"):
            cases[f"chsh-{name}-t{threads}"] = (
                ["chsh", "--model", model, "--trials", CHSH_TRIALS, "--seed", SEED,
                 "--threads", threads],
                ("out.json",),
            )
    for name in LEDGER_MODELS:
        cases[f"counterfactual-{name}"] = (
            ["counterfactual", "--model", name, "--trials", LEDGER_TRIALS, "--seed", SEED],
            ("out.json", "ledger.jsonl"),
        )
    cases["bomb"] = (["bomb", "--trials", CHSH_TRIALS, "--seed", SEED], ("out.json",))
    # Every subcommand in both formats at small sizes; the first artifact
    # name says which format the case writes.
    small = ["--trials", "2000", "--seed", SEED]
    cases.update({
        "chsh-csv": (["chsh", "--model", "lhv-uniform", *small, "--format", "csv"], ("out.csv",)),
        "chsh-pattern": (["chsh", "--model", "quantum-psi-plus", *small, "--pattern=+++-"],
                         ("out.json",)),
        "chsh-exact": (["chsh", "--exact"], ("out.json",)),
        "chsh-exact-csv": (["chsh", "--exact", "--model", "pr-box", "--format", "csv"],
                           ("out.csv",)),
        "chsh-exact-nonlocal-optimal": (["chsh", "--exact", "--model", "nonlocal-optimal"],
                                        ("out.json",)),
        # Its correlations and S are sums that Python 3.12's builtin sum rounds otherwise.
        "chsh-exact-mixture": (["chsh", "--exact", "--model", MIXTURE], ("out.json",)),
        "lhv-scan": (["lhv-scan"], ("out.json",)),
        "lhv-scan-csv": (["lhv-scan", "--format", "csv"], ("out.csv",)),
        "optimize": (["optimize"], ("out.json",)),
        "optimize-pattern": (["optimize", "--state", "psi_plus", "--pattern=-+++"],
                             ("out.json",)),
        "optimize-csv": (["optimize", "--state", "phi_minus", "--format", "csv"], ("out.csv",)),
        "counterfactual-lhv-uniform-70000": (
            ["counterfactual", "--model", "lhv-uniform", "--trials", "70000", "--stats-trials",
             "2000", "--seed", SEED],
            ("out.json", "ledger.jsonl"),
        ),
        # Ledgers across two chunks with no hidden index and with the outcome index as hidden.
        **{
            f"counterfactual-{name}-70001": (
                ["counterfactual", "--model", name, "--trials", "70001", "--stats-trials",
                 "2000", "--seed", SEED],
                ("out.json", "ledger.jsonl"),
            )
            for name in ("quantum-optimal", "pr-box")
        },
        "counterfactual-csv": (
            ["counterfactual", "--model", "lhv-edge", "--trials", "40", "--stats-trials", "2000",
             "--seed", SEED, "--format", "csv"],
            ("out.csv", "ledger.jsonl"),
        ),
        # Feasible with witness weights off the vertices, so its bytes hold rounded sums.
        "counterfactual-lhv-edge": (
            ["counterfactual", "--model", "lhv-edge", "--trials", "40", "--stats-trials", "2000",
             "--seed", SEED],
            ("out.json",),
        ),
        "counterfactual-lhv-edge-seed-1": (
            ["counterfactual", "--model", "lhv-edge", "--trials", "40", "--stats-trials", "2000",
             "--seed", "1"],
            ("out.json",),
        ),
        "bomb-csv": (["bomb", *small, "--phase", "0.5", "--format", "csv"], ("out.csv",)),
        "bomb-exact-no-bomb": (["bomb", "--exact", "--no-bomb"], ("out.json",)),
        "landscape": (["landscape", "--resolution", "6"], ("out.csv",)),
        "landscape-json": (["landscape", "--resolution", "5", "--pattern=+-++", "--format",
                            "json"], ("out.json",)),
    })
    return cases


CASES = _cases()

GOLDEN: dict[str, dict[str, str]] = {
    "bomb": {
        "out.json": "3b52024e249d36c4bd6bd30b19c0d9e121e4fdb6ee183df2b268a12f51c2bc81",
    },
    "bomb-csv": {
        "out.csv": "dacd60ca5dd7b0f0f2dae4e7a4682bc9e3b542536eeac27968c0d73bb6b038f0",
    },
    "bomb-exact-no-bomb": {
        "out.json": "28392e721b17a4195b0a86221e187cc42603b93dc5201e8657f2f54e0e12a77e",
    },
    "chsh-csv": {
        "out.csv": "5075c92fa73e68f575708170fdd3e5d0d13faf253ff1bc66dcc339ca81dab6e1",
    },
    "chsh-exact": {
        "out.json": "f764dfdf0bdafdcbe5090d5ff82937577b003438542abcdf1f14ae4afcc70b00",
    },
    "chsh-exact-csv": {
        "out.csv": "3507f331d8eddb210a676d433792e7cfbe85c1f5152c29e06c16a69ba2961c3c",
    },
    "chsh-exact-mixture": {
        "out.json": "42f26e913dd618d1c1c689fddacdee10c703b6e296145d73024b9b1234e861cf",
    },
    "chsh-exact-nonlocal-optimal": {
        "out.json": "6ae8398882b706078872a383fbf966da9eef2815d2ed4b6e8a82d8c4dbad57c9",
    },
    "chsh-lhv-all-plus-t1": {
        "out.json": "47f92b83040c05b47bb7889d34dd1dd28ba56b68698fdb9b0b5ec44adef56ec8",
    },
    "chsh-lhv-all-plus-t2": {
        "out.json": "47f92b83040c05b47bb7889d34dd1dd28ba56b68698fdb9b0b5ec44adef56ec8",
    },
    "chsh-lhv-edge-t1": {
        "out.json": "23e9c64db7391595ad0b7e491228d1bee0a06c599a210b40df1fef29c37dada9",
    },
    "chsh-lhv-edge-t2": {
        "out.json": "23e9c64db7391595ad0b7e491228d1bee0a06c599a210b40df1fef29c37dada9",
    },
    "chsh-lhv-leading-zero-t1": {
        "out.json": "df2eecf4312422227099b05f17ec22ff5f4c6b7a504f2ba115a530d208e6502f",
    },
    "chsh-lhv-leading-zero-t2": {
        "out.json": "df2eecf4312422227099b05f17ec22ff5f4c6b7a504f2ba115a530d208e6502f",
    },
    "chsh-lhv-uniform-t1": {
        "out.json": "8558764b28c2a111872ca118d299865a508d9fb4f01de6e85afea2920f3e17e1",
    },
    "chsh-lhv-uniform-t2": {
        "out.json": "8558764b28c2a111872ca118d299865a508d9fb4f01de6e85afea2920f3e17e1",
    },
    "chsh-mixture-t1": {
        "out.json": "5ac2ad9353b8e53ca8394fa0807e2f395ec3d3c3a33e218f85440bba52a0e4ce",
    },
    "chsh-mixture-t2": {
        "out.json": "5ac2ad9353b8e53ca8394fa0807e2f395ec3d3c3a33e218f85440bba52a0e4ce",
    },
    "chsh-nonlocal-optimal-t1": {
        "out.json": "a6a2e30da8213a69d9b545deafe2e8cdb044e89da6cc060153b5d5efffedbf95",
    },
    "chsh-nonlocal-optimal-t2": {
        "out.json": "a6a2e30da8213a69d9b545deafe2e8cdb044e89da6cc060153b5d5efffedbf95",
    },
    "chsh-pattern": {
        "out.json": "787f45a97dbedff59425848dcc9d1f98b1f1ec2da5db95a18a242b96881b6791",
    },
    "chsh-pr-box-soft-t1": {
        "out.json": "6adddb656715dcc0755a202d54e0f7b1eda2a446acfb363035c9179807e7cea2",
    },
    "chsh-pr-box-soft-t2": {
        "out.json": "6adddb656715dcc0755a202d54e0f7b1eda2a446acfb363035c9179807e7cea2",
    },
    "chsh-pr-box-t1": {
        "out.json": "fe67f90293a749a3f7085c7fbf4cf58b8b2f896582a1d31a3cb81119e416bd8a",
    },
    "chsh-pr-box-t2": {
        "out.json": "fe67f90293a749a3f7085c7fbf4cf58b8b2f896582a1d31a3cb81119e416bd8a",
    },
    "chsh-quantum-optimal-t1": {
        "out.json": "0b5c06cb0c08eb1dd34dcc04e201fe8cf1f8a904e84b11ba93cd9c3732150571",
    },
    "chsh-quantum-optimal-t2": {
        "out.json": "0b5c06cb0c08eb1dd34dcc04e201fe8cf1f8a904e84b11ba93cd9c3732150571",
    },
    "chsh-quantum-psi-plus-t1": {
        "out.json": "d7ae323b007d5dbbf0ebe077fbf5b447e3140296440e83fb40bdca50de9758cf",
    },
    "chsh-quantum-psi-plus-t2": {
        "out.json": "d7ae323b007d5dbbf0ebe077fbf5b447e3140296440e83fb40bdca50de9758cf",
    },
    "counterfactual-csv": {
        "out.csv": "2db94027c615f6cbc364c0245a86b38c0f5bc428119fd2c9ff861f0ab75ea14d",
        "ledger.jsonl": "6e6dd70f1643be4f8d927437f869369c66c69fe2136a3171d25930061020a196",
    },
    "counterfactual-lhv-edge": {
        "out.json": "01ba129190249f5c91b9dd99f729188c88b85cc40bea37174a4cec3e8591b02b",
    },
    "counterfactual-lhv-edge-seed-1": {
        "out.json": "4e68ffe747bb75d2eda9e87020a5927669af2967176a52ffa9d8ad3031cc7c4a",
    },
    "counterfactual-lhv-all-plus": {
        "out.json": "72bbd4c9470886c59996ed68cb918aec13526aecc26821ca91148e1310ef87b8",
        "ledger.jsonl": "b13f25711eb9f259c374013ed0ec76bc17345c54f91ae374c320f972bc0d812f",
    },
    "counterfactual-lhv-uniform": {
        "out.json": "409c135cc1f761f863346a5f7d9dae66a6b1f4835c9371fcdc9fc3f66b50398f",
        "ledger.jsonl": "59bd9cdcd849787d93359bf6ca0a14dc3633399263c30407112cbd7d8833b1b4",
    },
    "counterfactual-lhv-uniform-70000": {
        "out.json": "a0219d5e86ebc25de960488a2faaaca0239dbf6f656dcecf394562c42b42a45e",
        "ledger.jsonl": "2ec824f6351cfcbc3a5e65c66cb744be99eb6a08371c9fc433e2f37f9b89ae00",
    },
    "counterfactual-nonlocal-optimal": {
        "out.json": "27f661fd92f89bc9057b9e7d9c621dd502798c6a89c46b3e47c6ea8cea043012",
        "ledger.jsonl": "048c8443b77c24552b3ffadb3c868a7f3e55944d39bf5ec092b8fdd114d17703",
    },
    "counterfactual-pr-box": {
        "out.json": "3b34d187ebc25c75eb470164f2d3336cf5211e89ef80b43dcffdf236477b96ec",
        "ledger.jsonl": "bfe4cffc72c22c149ec6dbe036600daeb50dda19002cb95aa4a1ee22caef9b30",
    },
    "counterfactual-pr-box-70001": {
        "out.json": "59a98e0c6908c76a277ee86af084a2a185a34f4e52386926313881edf259d1c8",
        "ledger.jsonl": "78d558be0ecc13376066606ed8d41efd2517a9f4c13b80744d606ffc6aaa7898",
    },
    "counterfactual-quantum-optimal": {
        "out.json": "774d3e53006de23aa994d142db0fcdfbf8aa0bed24749061f98391e1106906f7",
        "ledger.jsonl": "fb77c598250b0cf7488fd9b98d38c6743e1a1122dfbd0a074c739f6a7b54209c",
    },
    "counterfactual-quantum-optimal-70001": {
        "out.json": "ed96b298d3c74b21c0b06bca5339d7bab81ca03112cf45e8f05639dcc7d1ef33",
        "ledger.jsonl": "6e689977fc29cd4e46457cb980e6ad8aa8dd83a33242b071b5ffb9d2104c4fff",
    },
    "landscape": {
        "out.csv": "2b1467738fd09f1174c5d906754f6282d7ca113d900c8b6fdaa92f95f465416b",
    },
    "landscape-json": {
        "out.json": "d987904ec6fabbb55410726739a65f29d275ee21736cf6a74505c833a66b75ec",
    },
    "lhv-scan": {
        "out.json": "8faed33bd00bf038c41a96c6aef9fce90165d442c4b68cc2392dd090fec640e2",
    },
    "lhv-scan-csv": {
        "out.csv": "fc3ad4b30d3a69652e3b81d5c0464e27bd8199361b0c5fb7c934e3209f0f3de9",
    },
    "optimize": {
        "out.json": "58cfa508ec87beb7b239117e0653c166b3d3d346c32f85a32d481608f7f4e149",
    },
    "optimize-csv": {
        "out.csv": "af56637855c8620731661637fab11427a5e88d7ab5733fb7d7b2a4e4eb2b178e",
    },
    "optimize-pattern": {
        "out.json": "a8caf094a4d739289e3dfbdf20793ab00658838aad4333640f7b2ae3b1830c87",
    },
}


def artifact_hashes(case: str, workdir: Path, run=main) -> dict[str, str]:
    """Run one case in `workdir` through `run(argv)` and hash every artifact it wrote."""
    argv, names = CASES[case]
    argv = argv + ["--out", str(workdir / names[0])]
    if "ledger.jsonl" in names:
        argv += ["--ledger", str(workdir / "ledger.jsonl")]
    assert run(argv) == 0
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


def fresh_process(argv: list[str], **kwargs) -> int:
    """Exit code of `python -m bellsim.cli *argv` in a new interpreter (fresh.python's keywords)."""
    return fresh.python(["-m", "bellsim.cli", *argv], **kwargs).returncode


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_unchanged(case, tmp_path):
    assert artifact_hashes(case, tmp_path) == GOLDEN[case]


# A fresh process imports numpy itself, after the CLI has set its start-up
# environment, where the in-process cases above run with numpy loaded.
COLD_CASES = (
    "bomb",
    "chsh-quantum-optimal-t1",
    "chsh-quantum-optimal-t2",
    "counterfactual-nonlocal-optimal",
)


@pytest.mark.parametrize("case", COLD_CASES)
def test_artifact_bytes_unchanged_in_fresh_process(case, tmp_path):
    assert artifact_hashes(case, tmp_path, fresh_process) == GOLDEN[case]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of at least two CPUs",
)
@pytest.mark.parametrize(
    "model,trials,seed",
    [
        # 17 chunks per setting pair, 68 per run.
        ("nonlocal-optimal", 1100000, SEED),
        # 7 chunks per pair, 28 per run, counted on CDF rows of 3 thresholds
        # (quantum, pr-box) and 15 (lhv-uniform).
        ("quantum", 458752, "3"),
        ("lhv-uniform", 458752, "3"),
        ("pr-box", 458752, "3"),
    ],
)
def test_one_cpu_gives_the_bytes_of_every_cpu(model, trials, seed, tmp_path):
    # Unpinned, the run is counted on two or more threads.
    from bellsim import streams

    assert streams._workers(4 * -(-trials // streams.CHUNK)) >= 2
    argv = ["chsh", "--model", model, "--trials", str(trials), "--seed", seed]
    one_cpu = {min(os.sched_getaffinity(0))}
    artifacts = []
    for cpus in (None, one_cpu):
        out = tmp_path / f"run-{len(artifacts)}.json"
        assert fresh_process(argv + ["--out", str(out)], cpus=cpus) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("coretype", ["", "Prescott"])
@pytest.mark.parametrize("case", ["counterfactual-lhv-edge", "counterfactual-lhv-edge-seed-1"])
def test_witness_bytes_do_not_depend_on_the_blas_kernel(case, coretype, tmp_path):
    # The Prescott kernel adds a matrix-vector product in another order than the default one.
    env = {"OPENBLAS_CORETYPE": coretype} if coretype else None
    run = lambda argv: fresh_process(argv, env=env)  # noqa: E731
    assert artifact_hashes(case, tmp_path, run) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


# From Python 3.12 on, builtin sum adds floats with a compensation term, which
# changes the last bit of some sums. Artifacts add floats with
# quantum.sum_in_order, so every case keeps its bytes under 3.12's sum too.
@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_do_not_depend_on_builtin_sum(case, tmp_path, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert artifact_hashes(case, tmp_path) == GOLDEN[case]


# The builtin sum calls left in bellsim, by file and enclosing function: each adds ints.
INTEGER_SUMS = {("cli.py", "_cmd_lhv_scan"), ("streams.py", "map_chunks")}


def _sum_calls(path: Path) -> set[tuple[str, str]]:
    """(file name, enclosing function) of each call of the name `sum` in a source file."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum":
                found.add((path.name, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_builtin_sum_adds_only_ints():
    source = Path(sys.modules["bellsim"].__file__).resolve().parent
    assert set().union(*map(_sum_calls, source.glob("*.py"))) == INTEGER_SUMS


# Rejected inputs: exit code and first stderr line, pinned from the same build.
DIAGNOSTICS: dict[str, tuple[list[str], int, str]] = {
    "chsh-threads-0": (
        ["chsh", "--trials", "10", "--threads", "0"],
        2,
        "bellsim: configuration error: threads must be at least 1, got 0",
    ),
    "chsh-trials-0": (
        ["chsh", "--trials", "0"],
        2,
        "bellsim: configuration error: trials must be at least 1, got 0",
    ),
    "counterfactual-stats-trials-0": (
        ["counterfactual", "--trials", "8", "--stats-trials", "0"],
        2,
        "bellsim: configuration error: stats-trials must be at least 1, got 0",
    ),
    "optimize-grid-3": (
        ["optimize", "--grid", "3"],
        2,
        "bellsim: configuration error: grid must be at least 8, got 3",
    ),
    "chsh-trials-1e20": (
        ["chsh", "--trials", "100000000000000000000"],
        2,
        "bellsim: configuration error: trials must be at most 4294967296, "
        "got 100000000000000000000",
    ),
    "bomb-trials-1e17": (
        ["bomb", "--trials", "99999999999999999"],
        2,
        "bellsim: configuration error: trials must be at most 4294967296, got 99999999999999999",
    ),
    "counterfactual-stats-trials-1e20": (
        ["counterfactual", "--trials", "8", "--stats-trials", "100000000000000000000"],
        2,
        "bellsim: configuration error: stats-trials must be at most 4294967296, "
        "got 100000000000000000000",
    ),
    "config-not-utf8": (
        ["chsh", "--exact", "--config", "not-utf8.cfg"],
        2,
        "bellsim: configuration error: config file not-utf8.cfg is not UTF-8: "
        "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ),
    "config-value-nested-20000": (
        ["chsh", "--exact", "--config", "nested.cfg"],
        2,
        "bellsim: configuration error: nested.cfg:1: value for 'seed' is nested too deeply",
    ),
    "model-nested-20000": (
        ["chsh", "--exact", "--model", '{"a": ' * 20_000 + "1" + "}" * 20_000],
        2,
        "bellsim: configuration error: invalid model: the JSON is nested too deeply",
    ),
    "model-angle-1e400": (
        ["chsh", "--exact", "--model",
         '{"kind": "quantum", "state": "psi_minus", "angles": [1%s, 0, 0, 0]}' % ("0" * 400)],
        2,
        "bellsim: configuration error: invalid model: angles must be numbers within float range",
    ),
    # An empty sign pattern is rejected, not taken for the default.
    "chsh-pattern-empty": (
        ["chsh", "--exact", "--pattern", ""],
        2,
        "bellsim: configuration error: sign pattern must be four values in {-1,+1}, got ()",
    ),
    "config-pattern-empty": (
        ["optimize", "--config", "pattern-empty.cfg"],
        2,
        "bellsim: configuration error: sign pattern must be four values in {-1,+1}, got ()",
    ),
    # A long value is echoed cut short: each of these first lines stays under 200 characters.
    "model-name-60000": (
        ["chsh", "--exact", "--model", "x" * 60_000],
        2,
        "bellsim: configuration error: unknown model '%s… (60002 characters);" % ("x" * 63),
    ),
    "config-angles-1e400": (
        ["chsh", "--exact", "--config", "angles-1e400.cfg"],
        2,
        "bellsim: configuration error: angles must be four numbers, got 1%s… (401 characters)"
        % ("0" * 63),
    ),
    "config-seed-nested-400": (
        ["chsh", "--exact", "--config", "seed-nested-400.cfg"],
        2,
        "bellsim: configuration error: seed must be an integer, got %s… (800 characters)"
        % ("[" * 64),
    ),
    # A state that is not a string is an unknown state kind, not a TypeError.
    "model-state-list": (
        ["chsh", "--exact", "--model", '{"kind": "quantum", "state": [], "angles": [0, 0, 0, 0]}'],
        2,
        "bellsim: configuration error: invalid model: unknown state kind []; expected one of "
        "('psi_plus', 'psi_minus', 'phi_plus', 'phi_minus', 'up_up', 'up_down', 'down_up', "
        "'down_down')",
    ),
    # A null config value is no value of the setting's type.
    "config-trials-null": (
        ["chsh", "--exact", "--config", "trials-null.cfg"],
        2,
        "bellsim: configuration error: trials must be an integer, got None",
    ),
    # A flag's text reaches bellsim's own check, so a long value is echoed cut short too.
    "chsh-state-5000": (
        ["chsh", "--exact", "--state", "y" * 5_000],
        2,
        "bellsim: configuration error: state must be psi_plus, psi_minus, phi_plus, phi_minus, "
        "up_up, up_down, down_up or down_down, got '%s… (5002 characters)" % ("y" * 63),
    ),
    "chsh-trials-5000-zeros": (
        ["chsh", "--trials", "1" + "0" * 5_000],
        2,
        "bellsim: configuration error: --trials must be an integer, got '1%s… (5003 characters)"
        % ("0" * 62),
    ),
    "chsh-seed-abc": (
        ["chsh", "--exact", "--seed", "abc"],
        2,
        "bellsim: configuration error: --seed must be an integer, got 'abc'",
    ),
    # argparse's own usage errors echo the argument they reject, cut short too.
    "command-5000": (
        ["x" * 5_000],
        2,
        "bellsim: usage error: argument command: invalid choice: '%s… (5120 characters); "
        "see bellsim --help" % ("x" * 157),
    ),
    "chsh-exact-argument-5000": (
        ["chsh", "--exact", "x" * 5_000],
        2,
        "bellsim: usage error: unrecognized arguments: %s… (5024 characters); "
        "see bellsim --help" % ("x" * 168),
    ),
    # A misspelt field of a JSON model is named, not ignored.
    "model-field-misspelt": (
        ["chsh", "--exact", "--model",
         '{"kind": "quantum", "state": "psi_minus", "angles": [0, 0, 0, 0], '
         '"angels": [1, 1, 1, 1]}'],
        2,
        "bellsim: configuration error: invalid model: unknown model key 'angels'; "
        "accepted keys: kind, strategy, state, angles, weights, table",
    ),
    # Of many unknown config keys, the first is named and the others counted.
    "config-unknown-keys-2000": (
        ["chsh", "--exact", "--config", "unknown-2000.cfg"],
        2,
        "bellsim: configuration error: unknown config key 'k0' and 1999 more for chsh; "
        "accepted keys: angles, exact, format, model, out, pattern, seed, state, threads, trials",
    ),
}

# The config files the diagnostics name, written to the working directory.
CONFIG_FILES = {
    "not-utf8.cfg": b"seed = 1\n# \xff\n",
    "nested.cfg": b"seed = " + b"[" * 20_000 + b"]" * 20_000 + b"\n",
    "pattern-empty.cfg": b'pattern = ""\n',
    "angles-1e400.cfg": b"angles = 1" + b"0" * 400 + b"\n",
    "seed-nested-400.cfg": b"seed = " + b"[" * 400 + b"]" * 400 + b"\n",
    "trials-null.cfg": b"trials = null\n",
    "unknown-2000.cfg": b"".join(b"k%d = 1\n" % n for n in range(2_000)),
}


def write_config_files(directory: Path) -> None:
    for name, data in CONFIG_FILES.items():
        (directory / name).write_bytes(data)


def diagnostic(argv: list[str]) -> tuple[int, str]:
    """Exit code and first stderr line of `main(argv)`, which must write no stdout."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert out.getvalue() == ""
    return code, stderr.getvalue().splitlines()[0]


@pytest.mark.parametrize("case", sorted(DIAGNOSTICS))
def test_diagnostic_unchanged(case, tmp_path, monkeypatch):
    write_config_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv, code, line = DIAGNOSTICS[case]
    assert diagnostic(argv) == (code, line)


@pytest.mark.parametrize(
    "case",
    ["model-name-60000", "config-angles-1e400", "config-seed-nested-400",
     "config-unknown-keys-2000"],
)
def test_echoed_values_are_cut(case):
    assert len(DIAGNOSTICS[case][2]) <= 200


_DEEP_MAIN = """
import sys
from bellsim.cli import main
def deep(frames):
    return deep(frames - 1) if frames else main(sys.argv[1:])
sys.exit(deep(400))
"""


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1])
def test_nesting_cap_does_not_depend_on_the_stack(depth, tmp_path):
    # A fresh process and main called 400 frames deep read JSON nested to the same depth.
    (tmp_path / "seed.cfg").write_text("seed = " + "[" * depth + "]" * depth + "\n")
    model = '{"kind": ' * depth + '"quantum"' + "}" * depth
    lines = {}
    for argv in (["--config", "seed.cfg"], ["--model", model]):
        for program in (["-m", "bellsim.cli"], ["-c", _DEEP_MAIN]):
            child = fresh.python([*program, "chsh", "--exact", *argv], tmp_path)
            assert child.returncode == 2
            lines.setdefault(argv[0], set()).add(child.stderr.splitlines()[0])
    (seed_line,), (model_line,) = lines["--config"], lines["--model"]
    deeper = depth > MAX_JSON_DEPTH
    assert seed_line.endswith("nested too deeply") == deeper
    assert model_line.endswith("nested too deeply") == deeper


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_bomb_exact_checks_trials_like_chsh(trials):
    # Trials are checked before the exact branch, as `chsh --exact` checks them.
    assert diagnostic(["bomb", "--exact", "--trials", trials]) == (
        2,
        f"bellsim: configuration error: trials must be at least 1, got {trials}",
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            workdir = Path(tmp) / case
            workdir.mkdir()
            print(f"    {case!r}: {artifact_hashes(case, workdir)!r},", file=sys.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        write_config_files(Path(tmp))
        os.chdir(tmp)
        for case, (argv, _, _) in sorted(DIAGNOSTICS.items()):
            print(f"    {case!r}: {diagnostic(argv)!r},", file=sys.stdout)
