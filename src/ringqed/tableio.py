"""Delimited-text tables and JSON sidecars used by all file exports.

Tables are comma-separated UTF-8 with a single header row. Floating-point
values are written with 17 significant digits so that every value survives
a round trip through text exactly. The module also holds the value checks
shared by the other modules: finite numbers and monotone axes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import GridError, ValidationError

FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    """Render one cell: floats at full precision, ints and strings as-is."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % value
    return str(value)


def write_table(path, columns, rows) -> None:
    """Write rows (iterable of sequences) under a comma-joined header."""
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                "row has %d cells but header has %d columns" % (len(row), len(columns))
            )
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path, required_columns=None):
    """Read a delimited table into a dict of float arrays keyed by column.

    Raises GridError naming the file line for any malformed row, and
    listing the missing columns when required_columns is given.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GridError("cannot read table %s: %s" % (path, exc)) from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GridError("%s: empty table" % path)
    header = [c.strip() for c in lines[0].split(",")]
    if required_columns is not None:
        missing = [c for c in required_columns if c not in header]
        if missing:
            raise GridError(
                "%s: missing required columns: %s" % (path, ", ".join(missing))
            )
    data = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise GridError(
                "%s: line %d has %d cells, expected %d"
                % (path, lineno, len(cells), len(header))
            )
        for name, cell in zip(header, cells):
            try:
                data[name].append(float(cell))
            except ValueError as exc:
                raise GridError(
                    "%s: line %d: cannot parse %r as a number" % (path, lineno, cell)
                ) from exc
    return {name: np.asarray(vals, dtype=float) for name, vals in data.items()}


def write_json(path, payload) -> None:
    """Write a JSON document with stable formatting."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def finite(value) -> bool:
    """True for real numbers that are neither NaN nor infinite.

    Strings are not numbers here, even when they parse as one, so a
    validator that passes a value on to arithmetic never sees one. Nor
    are booleans, so a JSON true never runs as 1, nor integers too large
    for a float.
    """
    if isinstance(value, (str, bytes, bool)):
        return False
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def checked_axis(values, name: str) -> np.ndarray:
    """values as a float array, or ValidationError naming the axis.

    An axis is a finite, non-empty, strictly monotone 1-D array, running
    in either direction.
    """
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ValidationError("%s must be a non-empty 1-D array" % name)
    if not np.all(np.isfinite(axis)):
        raise ValidationError("%s must be finite" % name)
    steps = np.diff(axis)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValidationError("%s must be strictly monotone" % name)
    return axis
