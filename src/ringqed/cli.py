"""Command-line interface driven by JSON configuration files.

Every subcommand reads one JSON config, writes a CSV data file plus a
``<command>.meta.json`` sidecar into the output directory, and exits 0.
The sidecar embeds the fully resolved configuration, so re-running the
tool on the sidecar itself reproduces the data files byte for byte.

Exit codes: 0 success, 1 computation or data-file failure, 2 config or
parameter validation failure. On failure a machine-readable
``error.json`` is written next to the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import eigenvalue_sweep, save_eigenvalue_sweep
from .errors import ConfigError, RingqedError, TruncationError, ValidationError
from .model import DriveSpec, SystemParams, save_spectrum, spectrum, transmission
from .optimize import (
    OptimizationResult,
    maximize_contrast,
    save_contour,
    save_zero_trace,
    sweep_grid,
)
from .tableio import finite, write_json, write_table

VALIDATE_COLUMNS = ("delta_c", "direction", "t_linear", "t_oracle", "rel_dev")

# Most points of one grid: spectrum.n, eigen.n, validate.n, and the nodes
# of a sweep. A sweep node holds about 5 kB of working arrays and a
# spectrum point about 1 kB, so a larger grid is a config error, not an
# allocation of gigabytes.
MAX_GRID_POINTS = 100_000


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "invalid JSON in %s: %s (line %d, column %d)"
            % (path, exc.msg, exc.lineno, exc.colno)
        ) from exc
    except RecursionError as exc:
        raise ConfigError("config %s nests too deeply" % path) from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _apply_overrides(config: dict, assignments) -> None:
    """Apply --set KEY=VALUE pairs, with dotted keys as nested paths."""
    for text in assignments:
        key, sep, raw = text.partition("=")
        if not sep or not key:
            raise ConfigError("--set expects KEY=VALUE, got %r" % text)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        except RecursionError as exc:
            raise ConfigError("--set value for %r nests too deeply" % key) from exc
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    "--set path %r crosses the non-object entry %r" % (key, part)
                )
        node[parts[-1]] = value


def _check_sections(config: dict, command: str) -> None:
    allowed = {"command", "params", "_meta", command}
    unknown = sorted(k for k in config if k not in allowed)
    if unknown:
        raise ConfigError("unknown config section(s): %s" % ", ".join(unknown))
    declared = config.get("command")
    if declared is not None and declared != command:
        raise ConfigError(
            "config declares command %r but %r was invoked" % (declared, command)
        )
    if command in config and not isinstance(config[command], dict):
        raise ConfigError("section %r must be a JSON object" % command)


def _resolve_params(config: dict, command: str) -> SystemParams:
    raw = config.get("params")
    if raw is None:
        raise ConfigError("config must contain a 'params' section")
    if not isinstance(raw, dict):
        raise ConfigError("'params' must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(SystemParams)})
    if unknown:
        raise ConfigError("unknown parameter key(s): %s" % ", ".join(unknown))
    required = ["g0", "kappa_i"]
    if command in ("spectrum", "eigen", "validate"):
        # these run at one fixed coupling, so it has to be given
        required.append("kappa_ex")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError("missing required parameter(s): %s" % ", ".join(missing))
    values = dict(raw)
    if "kappa_ex" not in values:
        # placeholder for searches that scan the coupling anyway; when
        # kappa_i or gamma is not a number, SystemParams names it
        kappa_i, gamma = values["kappa_i"], values.get("gamma", 1.0)
        values["kappa_ex"] = kappa_i + gamma if finite(kappa_i) and finite(gamma) else 1.0
    try:
        return SystemParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid parameter value: %s" % exc) from exc


def _block(config: dict, command: str, defaults: dict) -> dict:
    raw = config.get(command, {})
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(
            "unknown key(s) in %r section: %s" % (command, ", ".join(unknown))
        )
    return {**defaults, **raw}


def _grid(block: dict, section: str) -> np.ndarray:
    start, stop, n = block["start"], block["stop"], block["n"]
    if not (finite(start) and finite(stop)):
        raise ConfigError("%s start/stop must be finite numbers" % section)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("%s n must be a positive integer" % section)
    if n > MAX_GRID_POINTS:
        raise ConfigError("%s n must be at most %d" % (section, MAX_GRID_POINTS))
    return np.linspace(float(start), float(stop), n)


def _subgrid(block: dict, key: str, defaults: dict, section: str) -> np.ndarray:
    """The axis block[key] over defaults; block[key] becomes its resolved form."""
    raw = block[key]
    if not isinstance(raw, dict):
        raise ConfigError("%s.%s must be a JSON object" % (section, key))
    unknown = sorted(set(raw) - {"start", "stop", "n"})
    if unknown:
        raise ConfigError(
            "unknown key(s) in %s.%s: %s" % (section, key, ", ".join(unknown))
        )
    axis = _grid({**defaults, **raw}, "%s.%s" % (section, key))
    block[key] = {"start": float(axis[0]), "stop": float(axis[-1]), "n": int(axis.size)}
    return axis


def _run_spectrum(config, params):
    gamma = params.gamma
    block = _block(
        config,
        "spectrum",
        {"start": -60.0 * gamma, "stop": 60.0 * gamma, "n": 1201},
    )
    grid = _grid(block, "spectrum")
    result = spectrum(params, grid)
    return block, {"spectrum.csv": lambda p: save_spectrum(p, result)}


def _run_eigen(config, params):
    gamma = params.gamma
    block = _block(
        config,
        "eigen",
        {"variable": "delta12", "start": None, "stop": None, "n": 121},
    )
    if block["variable"] not in ("delta12", "p"):
        raise ConfigError("eigen.variable must be 'delta12' or 'p'")
    if block["start"] is None:
        block["start"] = 0.0
    if block["stop"] is None:
        block["stop"] = 60.0 * gamma if block["variable"] == "delta12" else 1.0
    values = _grid(block, "eigen")
    eigenvalues = eigenvalue_sweep(params, block["variable"], values)
    return block, {"eigen.csv": lambda p: save_eigenvalue_sweep(p, values, eigenvalues)}


def _run_helicity(config, params):
    block = _block(
        config,
        "helicity",
        {"input": None, "mode_number": 1, "label": "quasi-TE"},
    )
    if not isinstance(block["input"], str) or not block["input"]:
        raise ConfigError("helicity.input must name a field-grid CSV file")
    # the helicity module loads only for this command
    from .helicity import load_field_grid, map_helicity, save_helicity_map

    grid = load_field_grid(
        block["input"], mode_number=block["mode_number"], label=block["label"]
    )
    hmap = map_helicity(grid)
    return block, {"helicity.csv": lambda p: save_helicity_map(p, grid, hmap)}


def _run_optimize(config, params):
    block = _block(config, "optimize", {"fixed_delta12": None})
    result = maximize_contrast(params, fixed_delta12=block["fixed_delta12"])
    columns = [f.name for f in fields(OptimizationResult)]
    return block, {"optimize.csv": lambda p: write_table(p, columns, [astuple(result)])}


def _run_sweep(config, params):
    gamma, ki = params.gamma, params.kappa_i
    block = _block(config, "sweep", {"kappa_ex": {}, "delta12": {}})
    kex_axis = _subgrid(
        block, "kappa_ex", {"start": ki, "stop": ki + 20.0 * gamma, "n": 21}, "sweep"
    )
    d12_axis = _subgrid(
        block, "delta12", {"start": 0.0, "stop": 80.0 * gamma, "n": 21}, "sweep"
    )
    if kex_axis.size * d12_axis.size > MAX_GRID_POINTS:
        raise ConfigError("sweep kappa_ex.n * delta12.n must be at most %d" % MAX_GRID_POINTS)
    contour = sweep_grid(params, kex_axis, d12_axis)
    return block, {
        "sweep.csv": lambda p: save_contour(p, contour),
        "sweep_trace.csv": lambda p: save_zero_trace(p, contour),
    }


def _run_validate(config, params):
    gamma = params.gamma
    block = _block(
        config,
        "validate",
        {
            "n_max": 2,
            "drive_amp": 0.01 * gamma,
            "start": -60.0 * gamma,
            "stop": 60.0 * gamma,
            "n": 41,
            "directions": ["forward", "backward"],
        },
    )
    # the oracle, and with it scipy.sparse, loads only for this command
    from .oracle import TruncationSpec, oracle_transmission

    directions = block["directions"]
    if not isinstance(directions, list) or not directions or any(
        d not in ("forward", "backward") for d in directions
    ):
        raise ConfigError(
            "validate.directions must be a non-empty list drawn from "
            "'forward' and 'backward'"
        )
    try:
        trunc = TruncationSpec(n_max=block["n_max"], drive_amp=block["drive_amp"])
    except TruncationError as exc:
        raise ConfigError(str(exc)) from exc
    grid = _grid(block, "validate").tolist()
    t_oracle = oracle_transmission(params, trunc, directions, grid).tolist()
    rows = []
    for dc, t_row in zip(grid, t_oracle):
        for direction, t_orc in zip(directions, t_row):
            t_lin = transmission(params, DriveSpec(direction, dc))
            rel = abs(t_orc - t_lin) / max(abs(t_lin), 1e-2)
            rows.append((dc, direction, t_lin, t_orc, rel))
    return block, {"validate.csv": lambda p: write_table(p, VALIDATE_COLUMNS, rows)}


# command -> (help, runner); a runner returns its resolved config section
# and the writers of its data files, keyed by file name
COMMANDS = {
    "spectrum": ("transmission and reflection spectra in both directions", _run_spectrum),
    "eigen": ("polariton eigenvalue sweep over delta12 or p", _run_eigen),
    "helicity": ("helicity-degree map from a sampled mode field", _run_helicity),
    "optimize": ("maximize isolation contrast at zero backward transmission", _run_optimize),
    "sweep": ("contrast contour over (kappa_ex, delta12) with zero trace", _run_sweep),
    "validate": ("cross-check the linear pipeline against the truncated model", _run_validate),
}


def _fail(out_dir: Path, command: str, exc: Exception, code: int) -> int:
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "command": command,
        "exit_code": code,
    }
    try:
        write_json(out_dir / "error.json", record)
    except OSError:
        pass
    print("error: %s" % exc, file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringqed",
        description="Non-reciprocal transmission through a ring resonator "
        "with a helicity-sensitive emitter.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, _) in COMMANDS.items():
        cp = sub.add_parser(name, help=help_text)
        cp.add_argument("config", help="JSON configuration file")
        cp.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override a config entry; dotted keys address nested objects",
        )
        cp.add_argument("--out-dir", default=".", help="output directory")
        cp.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect (N >= 1)",
        )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    command = args.command
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        config = _load_config(args.config)
        _apply_overrides(config, args.overrides)
        _check_sections(config, command)
        if command == "helicity":
            params = None
        else:
            params = _resolve_params(config, command)
        started = time.perf_counter()
        _, runner = COMMANDS[command]
        block, writers = runner(config, params)
        for filename, writer in writers.items():
            writer(out_dir / filename)
        if params is None:
            # helicity needs no parameters, but keeps any the config gave
            resolved = {"command": command, command: block}
            if "params" in config:
                resolved["params"] = config["params"]
        else:
            resolved = {"command": command, "params": asdict(params), command: block}
        resolved["_meta"] = {
            "version": __version__,
            "command": command,
            "wall_time_s": round(time.perf_counter() - started, 3),
            "outputs": sorted(writers),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        write_json(out_dir / ("%s.meta.json" % command), resolved)
    except (ConfigError, ValidationError) as exc:
        return _fail(out_dir, command, exc, 2)
    except RingqedError as exc:
        return _fail(out_dir, command, exc, 1)
    except OSError as exc:
        return _fail(out_dir, command, exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
