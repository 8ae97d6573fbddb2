"""Byte-identity gate: SHA-256 of CLI artifacts pinned from an earlier build.

The determinism contract says the same configuration gives the same bytes
at any thread count. These hashes were captured before the sampling path
was rewritten as one batch kernel, so any change to how uniforms become
outcomes, how chunks are tallied or how ledgers are replayed shows up here
as a hash mismatch. The `out.json` of the two feasible counterfactual cases
was re-pinned when the witness weights became the closed-form 16-cell
decomposition: a witness is not unique, and only those weights changed.

To print the hashes the current code produces (for example after a
deliberate schema change), run `PYTHONPATH=src python tests/test_golden_artifacts.py`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bellsim.cli import main
from bellsim.models import catalog

SEED = "20190916"
CHSH_TRIALS = "200000"
LEDGER_TRIALS = "400"
# One catalog model per model kind.
LEDGER_MODELS = ("quantum-optimal", "nonlocal-optimal", "lhv-all-plus", "lhv-uniform", "pr-box")


def _cases() -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Case id -> (argv without output paths, artifact names it writes)."""
    cases = {}
    for name in sorted(catalog()):
        for threads in ("1", "2"):
            cases[f"chsh-{name}-t{threads}"] = (
                ["chsh", "--model", name, "--trials", CHSH_TRIALS, "--seed", SEED,
                 "--threads", threads],
                ("out.json",),
            )
    for name in LEDGER_MODELS:
        cases[f"counterfactual-{name}"] = (
            ["counterfactual", "--model", name, "--trials", LEDGER_TRIALS, "--seed", SEED],
            ("out.json", "ledger.jsonl"),
        )
    cases["bomb"] = (["bomb", "--trials", CHSH_TRIALS, "--seed", SEED], ("out.json",))
    return cases


CASES = _cases()

GOLDEN: dict[str, dict[str, str]] = {
    "bomb": {
        "out.json": "3b52024e249d36c4bd6bd30b19c0d9e121e4fdb6ee183df2b268a12f51c2bc81",
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
    "chsh-lhv-uniform-t1": {
        "out.json": "8558764b28c2a111872ca118d299865a508d9fb4f01de6e85afea2920f3e17e1",
    },
    "chsh-lhv-uniform-t2": {
        "out.json": "8558764b28c2a111872ca118d299865a508d9fb4f01de6e85afea2920f3e17e1",
    },
    "chsh-nonlocal-optimal-t1": {
        "out.json": "a6a2e30da8213a69d9b545deafe2e8cdb044e89da6cc060153b5d5efffedbf95",
    },
    "chsh-nonlocal-optimal-t2": {
        "out.json": "a6a2e30da8213a69d9b545deafe2e8cdb044e89da6cc060153b5d5efffedbf95",
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
    "counterfactual-lhv-all-plus": {
        "out.json": "72bbd4c9470886c59996ed68cb918aec13526aecc26821ca91148e1310ef87b8",
        "ledger.jsonl": "b13f25711eb9f259c374013ed0ec76bc17345c54f91ae374c320f972bc0d812f",
    },
    "counterfactual-lhv-uniform": {
        "out.json": "409c135cc1f761f863346a5f7d9dae66a6b1f4835c9371fcdc9fc3f66b50398f",
        "ledger.jsonl": "59bd9cdcd849787d93359bf6ca0a14dc3633399263c30407112cbd7d8833b1b4",
    },
    "counterfactual-nonlocal-optimal": {
        "out.json": "27f661fd92f89bc9057b9e7d9c621dd502798c6a89c46b3e47c6ea8cea043012",
        "ledger.jsonl": "048c8443b77c24552b3ffadb3c868a7f3e55944d39bf5ec092b8fdd114d17703",
    },
    "counterfactual-pr-box": {
        "out.json": "3b34d187ebc25c75eb470164f2d3336cf5211e89ef80b43dcffdf236477b96ec",
        "ledger.jsonl": "bfe4cffc72c22c149ec6dbe036600daeb50dda19002cb95aa4a1ee22caef9b30",
    },
    "counterfactual-quantum-optimal": {
        "out.json": "774d3e53006de23aa994d142db0fcdfbf8aa0bed24749061f98391e1106906f7",
        "ledger.jsonl": "fb77c598250b0cf7488fd9b98d38c6743e1a1122dfbd0a074c739f6a7b54209c",
    },
}


def artifact_hashes(case: str, workdir: Path, run=main) -> dict[str, str]:
    """Run one case in `workdir` through `run(argv)` and hash every artifact it wrote."""
    argv, names = CASES[case]
    argv = argv + ["--out", str(workdir / "out.json")]
    if "ledger.jsonl" in names:
        argv += ["--ledger", str(workdir / "ledger.jsonl")]
    assert run(argv) == 0
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


def fresh_process(argv: list[str]) -> int:
    """Exit code of `python -m bellsim.cli *argv` in a new interpreter.

    The child starts without this process's OPENBLAS_NUM_THREADS, so it
    runs the start-up path of a plain shell invocation.
    """
    source_root = str(Path(sys.modules["bellsim"].__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bellsim.cli", *argv], env=env, capture_output=True
    ).returncode


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


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            workdir = Path(tmp) / case
            workdir.mkdir()
            print(f"    {case!r}: {artifact_hashes(case, workdir)!r},", file=sys.stdout)
