import json
import math

import numpy as np
import pytest

from ringqed.errors import GridError
from ringqed.tableio import (
    finite,
    format_value,
    read_table,
    write_json,
    write_table,
)


def test_format_value_types():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(7) == "7"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value("forward") == "forward"


def test_float_round_trip_is_exact(tmp_path):
    values = [
        math.pi,
        1.0 / 3.0,
        -2.2250738585072014e-308,
        6.02214076e23,
        -0.0,
        1e-17,
    ]
    path = tmp_path / "t.csv"
    write_table(path, ("x",), [(v,) for v in values])
    back = read_table(path, required_columns=("x",))["x"]
    for original, restored in zip(values, back):
        assert restored == original


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [(1.0,)])


def test_read_table_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(GridError) as err:
        read_table(path)
    assert "line 3" in str(err.value)


def test_read_table_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,zap\n", encoding="utf-8")
    with pytest.raises(GridError) as err:
        read_table(path)
    assert "line 2" in str(err.value) and "zap" in str(err.value)


def test_read_table_missing_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a",), [(1.0,)])
    with pytest.raises(GridError) as err:
        read_table(path, required_columns=("a", "b", "c"))
    msg = str(err.value)
    assert "b" in msg and "c" in msg


def test_read_table_missing_file(tmp_path):
    with pytest.raises(GridError):
        read_table(tmp_path / "nope.csv")


def test_json_round_trip(tmp_path):
    payload = {"a": [1, 2.5], "b": {"c": "x"}}
    path = tmp_path / "t.json"
    write_json(path, payload)
    assert json.loads(path.read_text(encoding="utf-8")) == payload
    assert path.read_text().endswith("\n")


def test_finite():
    assert finite(1.5)
    assert finite(0)
    assert not finite(math.nan)
    assert not finite(math.inf)
    assert finite(np.float64(-2.0))
    assert not finite("x")
    assert not finite(True)
    assert not finite("1.5")
    assert not finite(None)
