"""scipy is a test-only dependency: the package and its CLI never import it."""

import os
import subprocess
import sys
from pathlib import Path

import bellsim

_PROGRAM = """
import contextlib, io, sys
import bellsim, bellsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["counterfactual", "--model", "lhv-uniform", "--trials", "8", "--stats-trials", "100", "--seed", "1"],
        ["optimize"],
        ["landscape", "--resolution", "4"],
    ):
        assert bellsim.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_loading_scipy():
    source_root = str(Path(bellsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]", completed.stdout
