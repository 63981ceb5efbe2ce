"""Run every workload once and print all its metrics in one table.

    python3 bench/report.py --seed 1 [--seconds 20] [--trace]

Each workload runs in its own process through run.py; with --trace a
traced run follows each untraced one. Exits 1 if any run fails or
reports incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    """Result object of one run.py invocation, after echoing its table."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith("{"):
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, args.seed, args.seconds, trace)
            if result is None or not result["correct"]:
                status = 1
            if result is not None:
                print("%-8s %-32s %14s (%d of %d jobs failed)"
                      % (workload, "correct", result["correct"], result["failed"], result["attempted"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
