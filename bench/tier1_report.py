"""Report the Tier-1 test suite's wall time and its five slowest tests.

    python3 bench/tier1_report.py

Opt-in and ungated: no workload runs it and no bound applies to it. It runs
the whole suite once, the way ROADMAP.md's Tier-1 command does, and prints
one JSON object with the wall time, pytest's summary line and the five
slowest test phases.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S+)")
SUMMARY = re.compile(r"\d+ (passed|failed|error)")


def parse(output: str) -> tuple[list[dict], str]:
    slowest, summary = [], ""
    for line in output.splitlines():
        match = DURATION.match(line.strip())
        if match:
            slowest.append({"seconds": float(match[1]), "phase": match[2], "test": match[3]})
        elif SUMMARY.search(line):
            summary = line.strip("= ").strip()
    return slowest[:5], summary


def main() -> int:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + existing if existing else "")
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "--durations=5", "-p", "no:cacheprovider"]
    start = perf_counter()
    completed = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    slowest, summary = parse(completed.stdout)
    print(json.dumps({"wall_s": wall, "exit_code": completed.returncode, "summary": summary,
                      "slowest": slowest}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
