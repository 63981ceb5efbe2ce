"""Committed `validate` outputs, rerun through the command line.

Each case directory under tests/golden/ holds a validate.csv and its
sidecar without `_meta`. The test replays the sidecar and compares: the
resolved config, the header, the row order and the delta_c, direction and
t_linear columns must match exactly, and the oracle's columns within the
tolerances below, which sit far above the solver's rounding and far below
any physics change. A change that moves the outputs on purpose
regenerates the files with `python tests/test_golden.py` and states the
deviation per column.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ringqed.cli import VALIDATE_COLUMNS, main

GOLDEN = Path(__file__).parent / "golden"

README_HARDWARE = {"g0": 20.0, "kappa_i": 5.0, "kappa_ex": 7.0, "h": 20.0, "p": 0.8, "delta12": 30.0}
# one draw from g0 in [0.5, 30], kappa_i in [0.1, 10], kappa_ex in [0.5, 15],
# h in [0, 30], p in [-1, 1], theta in [0, 2 pi] and delta12 in [-40, 40]
BROAD_DRAW = {
    "g0": 21.083, "kappa_i": 3.207, "kappa_ex": 2.257, "h": 9.708,
    "p": 0.862, "theta": 4.962, "delta12": -39.198,
}
CASES = {
    "%s_n%d" % (name, n_max): {
        "params": params,
        "validate": {"n_max": n_max, "start": -40.0, "stop": 40.0, "n": 5},
    }
    for name, params in (("readme", README_HARDWARE), ("broad", BROAD_DRAW))
    for n_max in (2, 3)
}
# one weak n_max = 4 point, and the ideal set, where whole terms (h, g_minus
# and delta12) vanish from the Liouvillian's pattern
CASES["weak_n4"] = {
    "params": {"g0": 20.0, "kappa_i": 3.0, "kappa_ex": 5.0, "h": 20.0, "p": 0.8, "delta12": 30.0},
    "validate": {"n_max": 4, "start": -12.0, "stop": -12.0, "n": 1, "directions": ["forward"]},
}
CASES["ideal_n3"] = {
    "params": {"g0": 20.0, "kappa_i": 3.0, "kappa_ex": 5.0, "h": 0.0, "p": 1.0, "delta12": 0.0},
    "validate": {"n_max": 3, "start": -20.0, "stop": 20.0, "n": 2},
}

# |new - old| <= rtol * |old| + atol, per oracle column
TOLERANCES = {"t_oracle": (1e-11, 1e-13), "rel_dev": (0.0, 1e-11)}


def replay(config_path, out_dir):
    assert main(["validate", str(config_path), "--out-dir", str(out_dir)]) == 0
    sidecar = json.loads((out_dir / "validate.meta.json").read_text(encoding="utf-8"))
    del sidecar["_meta"]
    return sidecar


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_matches_golden_output(case, tmp_path):
    golden = GOLDEN / case
    sidecar = replay(golden / "validate.meta.json", tmp_path)
    assert sidecar == json.loads((golden / "validate.meta.json").read_text(encoding="utf-8"))

    new_lines = (tmp_path / "validate.csv").read_text(encoding="utf-8").splitlines()
    old_lines = (golden / "validate.csv").read_text(encoding="utf-8").splitlines()
    assert new_lines[0] == old_lines[0] == ",".join(VALIDATE_COLUMNS)
    block = sidecar["validate"]
    assert len(new_lines) == len(old_lines) == 1 + len(block["directions"]) * block["n"]
    new_rows = [line.split(",") for line in new_lines[1:]]
    old_rows = [line.split(",") for line in old_lines[1:]]
    assert [row[:3] for row in new_rows] == [row[:3] for row in old_rows]
    for index, column in enumerate(VALIDATE_COLUMNS[3:], start=3):
        rtol, atol = TOLERANCES[column]
        new = np.array([float(row[index]) for row in new_rows])
        old = np.array([float(row[index]) for row in old_rows])
        assert np.all(np.abs(new - old) <= rtol * np.abs(old) + atol), column


def regenerate():
    """Write every case's validate.csv and its sidecar without `_meta`."""
    for case, config in CASES.items():
        out_dir = GOLDEN / case
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / "validate.meta.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        sidecar = replay(config_path, out_dir)
        config_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
