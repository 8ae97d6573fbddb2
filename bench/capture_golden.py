"""Capture the sampled content the output checks compare against.

    python3 bench/capture_golden.py --seeds 0-19

Runs the `sample` and `replay` invocation lists in this process for each
harness seed, checks every output, and writes the values the checks
observed (per-pair coincidence counts, bomb frequencies and a digest of
each ledger's records) to bench/golden.json, keyed by the command line.
Run it only at a commit whose outputs are known to be right: the checks
then hold every later commit to the same sampled values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def capture(seeds: range, workdir: Path) -> dict:
    import bellsim.cli

    outputs = workloads.Outputs(workdir, golden={})
    for seed in seeds:
        for workload in ("sample", "replay"):
            for inv in workloads.invocations(workload, seed):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = bellsim.cli.main(inv.full_argv(workdir))
                problems = [f"exit code {code}"] if code != 0 else workloads.check(inv, outputs)
                if problems:
                    raise SystemExit(f"capture: {inv.key}: {problems}")
            print(f"seed {seed} {workload}: captured", flush=True)
    return outputs.observed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_out" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        golden = capture(args.seeds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entries = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
               for key, value in sorted(golden.items())]
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
