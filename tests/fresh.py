"""Fresh interpreters, started one way, for tests that need a process of their own.

`python` is the one place a test starts an interpreter. The child runs this
checkout's bellsim: its `src` goes first on PYTHONPATH. It starts without
OPENBLAS_NUM_THREADS and OPENBLAS_CORETYPE, as a shell invocation does,
because importing bellsim.cli in the test process sets the first. `env`
adds variables to the child, and `cpus` pins it to those CPUs before it
starts, as `taskset -c` does: a first interpreter sets the affinity mask
and execs the child, which inherits it. `peak_mb` runs the CLI in such a
child and reads the child's own peak resident set.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import bellsim

_SOURCE_ROOT = str(Path(bellsim.__file__).resolve().parent.parent)

_BLAS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")

# Pins itself to the comma-separated CPUs of argv[1], then execs `python *argv[2:]`.
_PIN = """
import os, sys
os.sched_setaffinity(0, map(int, sys.argv[1].split(",")))
os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
"""

# Runs the CLI, then prints the process's peak resident set (VmHWM, in kB).
# ru_maxrss would not do: Linux carries the spawning process's high-water
# mark into the child at exec, so the child would report pytest's peak.
_PEAK_AFTER_RUN = """
import sys
import bellsim.cli
code = bellsim.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def python(args, cwd=None, env=None, cpus=None, text=True, check=False):
    """The finished `python *args` in a fresh interpreter, its output captured."""
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SOURCE_ROOT, child_env.get("PYTHONPATH")]))
    child_env.update(env or {})
    pin = [] if cpus is None else ["-c", _PIN, ",".join(map(str, sorted(cpus)))]
    return subprocess.run(
        [sys.executable, *pin, *args],
        cwd=cwd,
        env=child_env,
        capture_output=True,
        encoding="utf-8" if text else None,
        check=check,
    )


def peak_mb(argv, cwd=None, cpus=None) -> float:
    """Peak resident set, in MB (2**20 bytes), of a fresh `bellsim *argv` that exits 0."""
    completed = python(["-c", _PEAK_AFTER_RUN, *argv], cwd=cwd, cpus=cpus, check=True)
    return int(completed.stdout.split()[-1]) / 1024
