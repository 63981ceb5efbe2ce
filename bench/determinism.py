"""Check that the traced counts repeat exactly at a fixed seed.

    python3 bench/determinism.py --seed 1 [--workload design ...]

Runs each workload's traced run twice and compares the counts (and the
ratios of counts) that must not depend on timing. Exits 1 on a mismatch
or a failed run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent

EXACT = (
    "model.solve.count",
    "optimize.tb_evals_per_job",
    "optimize.nm_runs",
    "optimize.nm_useful_ratio",
    "optimize.dip_search.count",
    "analytic.polariton_modes.count",
    "oracle.pieces_hit_ratio",
    "oracle.factor_nnz",
    "helicity.local_basis.count",
    "tableio.write_bytes",
    "tableio.read_bytes",
)


def traced(workload, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 and proc.stdout else None
    if result is None or not result["correct"]:
        raise SystemExit("traced %s run failed:\n%s" % (workload, proc.stderr))
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        for name in EXACT:
            same = first[name] == second[name]
            status |= not same
            print("%-8s %-32s %16s %16s %s" % (workload, name, first[name], second[name],
                                               "ok" if same else "MISMATCH"))
    return status


if __name__ == "__main__":
    sys.exit(main())
