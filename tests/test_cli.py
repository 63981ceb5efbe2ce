import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringqed
from ringqed.cli import MAX_GRID_POINTS, main
from ringqed.helicity import (
    FieldGrid,
    HELICITY_MAP_COLUMNS,
    load_field_grid,
    map_helicity,
    save_field_grid,
)
from ringqed.tableio import read_table

IDEAL_PARAMS = {"g0": 20.0, "kappa_i": 3.0, "kappa_ex": 5.0}
NONIDEAL_PARAMS = {
    "g0": 20.0,
    "kappa_i": 5.0,
    "kappa_ex": 7.0,
    "h": 20.0,
    "p": 0.8,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run(command, config, out_dir, *extra):
    return main([command, config, "--out-dir", str(out_dir), *extra])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# --- spectrum ---


def test_spectrum_defaults_and_sidecar(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    out = tmp_path / "nested" / "out"
    assert run("spectrum", config, out) == 0

    lines = read_lines(out / "spectrum.csv")
    assert lines[0] == "delta_c,t_fwd,t_bwd,r_fwd,r_bwd"
    assert len(lines) == 1 + 1201

    meta = json.loads((out / "spectrum.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "spectrum"
    assert meta["params"]["g0"] == 20.0
    assert meta["spectrum"] == {"start": -60.0, "stop": 60.0, "n": 1201}
    assert meta["_meta"]["outputs"] == ["spectrum.csv"]
    assert meta["_meta"]["command"] == "spectrum"
    assert meta["_meta"]["wall_time_s"] >= 0.0


def test_spectrum_shows_nonreciprocity(tmp_path):
    params = {"g0": 20.0, "kappa_i": 5.0, "kappa_ex": 6.0,
              "delta12": 30.017710327960245}
    config = write_config(tmp_path / "c.json", {"params": params})
    out = tmp_path / "out"
    assert run("spectrum", config, out, "--set", "spectrum.n=241") == 0
    data = read_table(out / "spectrum.csv")
    assert np.max(np.abs(data["t_fwd"] - data["t_bwd"])) > 0.1


def test_set_overrides_take_precedence(tmp_path):
    payload = {"params": {**IDEAL_PARAMS, "p": 0.8}, "spectrum": {"n": 11}}
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run(
        "spectrum", config, out, "--set", "params.p=1.0", "--set", "spectrum.n=5"
    ) == 0
    meta = json.loads((out / "spectrum.meta.json").read_text(encoding="utf-8"))
    assert meta["params"]["p"] == 1.0
    assert meta["spectrum"]["n"] == 5
    assert len(read_lines(out / "spectrum.csv")) == 1 + 5


# a small config section per command, so every replay runs in well under a second
REPLAY_SECTIONS = {
    "spectrum": {"n": 101},
    "eigen": {"n": 11},
    "helicity": {"mode_number": 12},
    "optimize": {"fixed_delta12": 30.0},
    "sweep": {
        "kappa_ex": {"start": 7.0, "stop": 8.0, "n": 3},
        "delta12": {"start": 20.0, "stop": 30.0, "n": 3},
    },
    "validate": {"n_max": 1, "n": 2, "directions": ["forward"]},
}


def sample_field_grid():
    """A 3x3 field of constant elliptical polarization, helicity 0.96."""
    shape = (3, 3)
    return FieldGrid(
        rho=np.array([1.0, 1.2, 1.4]),
        z=np.array([-0.2, 0.0, 0.2]),
        e_rho=np.full(shape, 0.8, dtype=complex),
        e_phi=np.full(shape, 0.6j, dtype=complex),
        e_z=np.zeros(shape, dtype=complex),
        mode_number=12,
    )


@pytest.mark.parametrize("command", list(REPLAY_SECTIONS))
def test_sidecar_reproduces_outputs_byte_for_byte(tmp_path, command):
    section = dict(REPLAY_SECTIONS[command])
    payload = {"params": {**NONIDEAL_PARAMS, "delta12": 30.0}, command: section}
    if command == "helicity":
        save_field_grid(tmp_path / "field.csv", sample_field_grid())
        section["input"] = str(tmp_path / "field.csv")
    config = write_config(tmp_path / "c.json", payload)
    first = tmp_path / "first"
    assert run(command, config, first) == 0

    sidecar = first / ("%s.meta.json" % command)
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    if command == "helicity":
        # helicity resolves no parameters and keeps the given ones last
        assert list(meta) == ["command", "helicity", "params", "_meta"]
    else:
        assert list(meta) == ["command", "params", command, "_meta"]

    second = tmp_path / "second"
    assert run(command, str(sidecar), second) == 0
    outputs = meta["_meta"]["outputs"]
    assert outputs
    for name in outputs:
        assert (second / name).read_bytes() == (first / name).read_bytes()


# --- eigen ---


def test_eigen_sweep_over_helicity(tmp_path):
    payload = {
        "params": IDEAL_PARAMS,
        "eigen": {"variable": "p", "start": 0.0, "stop": 1.0, "n": 11},
    }
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("eigen", config, out) == 0
    data = read_table(out / "eigen.csv")
    assert list(data) == ["sweep_var", "lambda1", "lambda2", "lambda3", "lambda4"]
    split = 20.0 * math.sqrt(2.0)
    first = [data[k][0] for k in list(data)[1:]]
    last = [data[k][-1] for k in list(data)[1:]]
    assert first == pytest.approx([-split, 0.0, 0.0, split], abs=1e-9)
    assert last == pytest.approx([-20.0, -20.0, 20.0, 20.0], abs=1e-9)


def test_eigen_rejects_unknown_variable(tmp_path):
    payload = {"params": IDEAL_PARAMS, "eigen": {"variable": "kappa_ex"}}
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("eigen", config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["error"] == "ConfigError"
    assert "eigen.variable" in error["message"]


# --- helicity ---


def test_helicity_round_trip(tmp_path):
    field_path = tmp_path / "field.csv"
    save_field_grid(field_path, sample_field_grid())
    before = field_path.read_bytes()

    payload = {"helicity": {"input": str(field_path), "mode_number": 12}}
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("helicity", config, out) == 0
    # the input grid is read, never rewritten
    assert field_path.read_bytes() == before

    lines = read_lines(out / "helicity.csv")
    assert lines[0] == ",".join(HELICITY_MAP_COLUMNS)
    data = read_table(out / "helicity.csv")
    expected = map_helicity(load_field_grid(field_path, mode_number=12))
    assert data["p"] == pytest.approx(expected.p_values.ravel(), abs=0)
    assert np.all(np.abs(data["p"] - 0.96) < 1e-12)


def test_helicity_requires_input(tmp_path):
    config = write_config(tmp_path / "c.json", {"helicity": {}})
    assert run("helicity", config, tmp_path / "out") == 2


def test_helicity_missing_file_is_a_data_error(tmp_path):
    payload = {"helicity": {"input": str(tmp_path / "absent.csv")}}
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("helicity", config, out) == 1
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["error"] == "GridError"


# --- optimize ---


def test_optimize_with_fixed_splitting(tmp_path):
    payload = {
        "command": "optimize",
        "params": NONIDEAL_PARAMS,
        "optimize": {"fixed_delta12": 30.0},
    }
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("optimize", config, out) == 0
    data = read_table(out / "optimize.csv")
    assert data["kappa_ex"][0] == 7.0
    assert data["delta12"][0] == 30.0
    assert abs(data["t_fwd"][0] - 0.78698860728823661) < 1e-9
    assert abs(data["contrast_db"][0] - 40.002427620733911) < 1e-6
    assert data["converged"][0] == 0.0


# --- sweep ---


def test_sweep_small_grid(tmp_path):
    payload = {
        "params": NONIDEAL_PARAMS,
        "sweep": {
            "kappa_ex": {"start": 7.0, "stop": 8.0, "n": 2},
            "delta12": {"start": 20.0, "stop": 30.0, "n": 3},
        },
    }
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("sweep", config, out) == 0
    grid_lines = read_lines(out / "sweep.csv")
    assert len(grid_lines) == 1 + 2 * 3
    trace = read_table(out / "sweep_trace.csv")
    assert trace["kappa_ex"].size >= 1
    meta = json.loads((out / "sweep.meta.json").read_text(encoding="utf-8"))
    assert meta["sweep"]["kappa_ex"] == {"start": 7.0, "stop": 8.0, "n": 2}
    assert sorted(meta["_meta"]["outputs"]) == ["sweep.csv", "sweep_trace.csv"]


# --- validate ---


def test_validate_weak_drive_agreement(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    out = tmp_path / "out"
    assert run(
        "validate", config, out,
        "--set", "validate.start=-20.0",
        "--set", "validate.stop=20.0",
        "--set", "validate.n=3",
    ) == 0
    lines = read_lines(out / "validate.csv")
    assert lines[0] == "delta_c,direction,t_linear,t_oracle,rel_dev"
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] in ("forward", "backward")
        assert float(cells[4]) <= 1e-3


def test_validate_threads_do_not_change_output(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    args = ("--set", "validate.n=2", "--set", "validate.directions=[\"forward\"]")
    assert run("validate", config, serial, *args) == 0
    assert run("validate", config, threaded, "--threads", "3", *args) == 0
    assert (serial / "validate.csv").read_bytes() == (
        threaded / "validate.csv"
    ).read_bytes()


def test_validate_rejects_bad_cutoff(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    out = tmp_path / "out"
    assert run("validate", config, out, "--set", "validate.n_max=9") == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["error"] == "ConfigError"
    assert "n_max" in error["message"]


# --- config errors ---


def test_invalid_parameter_exits_2(tmp_path):
    params = {**IDEAL_PARAMS, "p": 1.5}
    config = write_config(tmp_path / "c.json", {"params": params})
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["error"] == "ValidationError"
    assert "p must lie" in error["message"]
    assert error["exit_code"] == 2


def test_missing_params_section_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", {"spectrum": {"n": 5}})
    assert run("spectrum", config, tmp_path / "out") == 2


def test_missing_required_parameter_exits_2(tmp_path):
    config = write_config(
        tmp_path / "c.json", {"params": {"g0": 20.0, "kappa_i": 3.0}}
    )
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert "kappa_ex" in error["message"]


def test_unknown_section_and_keys_exit_2(tmp_path):
    config = write_config(
        tmp_path / "c.json", {"params": IDEAL_PARAMS, "extra": {}}
    )
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 2
    assert "extra" in json.loads((out / "error.json").read_text())["message"]

    config = write_config(
        tmp_path / "c2.json", {"params": {**IDEAL_PARAMS, "foo": 1.0}}
    )
    assert run("spectrum", config, out) == 2

    config = write_config(
        tmp_path / "c3.json", {"params": IDEAL_PARAMS, "spectrum": {"steps": 5}}
    )
    assert run("spectrum", config, out) == 2


def test_params_drive_amp_is_an_unknown_key(tmp_path):
    # the linear model works per unit probe amplitude, so an older sidecar
    # carrying params.drive_amp is refused until the key is deleted
    config = write_config(
        tmp_path / "c.json", {"params": {**IDEAL_PARAMS, "drive_amp": 1.0}}
    )
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["exit_code"] == 2
    assert "drive_amp" in error["message"]
    assert not (out / "spectrum.csv").exists()


def test_declared_command_must_match(tmp_path):
    config = write_config(
        tmp_path / "c.json", {"command": "eigen", "params": IDEAL_PARAMS}
    )
    out = tmp_path / "out"
    assert run("spectrum", config, out) == 2
    assert "declares" in json.loads((out / "error.json").read_text())["message"]


def test_malformed_json_reports_position(tmp_path):
    config = tmp_path / "c.json"
    config.write_text('{"params": {,}\n', encoding="utf-8")
    out = tmp_path / "out"
    assert run("spectrum", str(config), out) == 2
    message = json.loads((out / "error.json").read_text())["message"]
    assert "line 1" in message


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        (command, "params", key, value)
        for command in ("sweep", "optimize")
        for key in ("kappa_i", "gamma")
        for value in ("x", None, True)
    ]
    + [
        ("helicity", "helicity", "mode_number", None),
        ("helicity", "helicity", "mode_number", "x"),
        ("helicity", "helicity", "mode_number", True),
        ("validate", "validate", "n_max", None),
        ("validate", "validate", "n_max", True),
        ("validate", "validate", "drive_amp", "x"),
        ("optimize", "optimize", "fixed_delta12", "x"),
        ("optimize", "optimize", "fixed_delta12", True),
        # integers too large for a float
        pytest.param("validate", "params", "g0", 10**400, id="validate-params-g0-1e400"),
        pytest.param("validate", "validate", "n_max", 10**400, id="validate-n_max-1e400"),
    ],
)
def test_wrong_typed_config_value_exits_2(tmp_path, command, section, key, value):
    # sweep and optimize run without kappa_ex, which the CLI fills in
    params = IDEAL_PARAMS if command == "validate" else {"g0": 20.0, "kappa_i": 5.0}
    payload = {"params": dict(params)}
    payload.setdefault(section, {})[key] = value
    if command == "helicity":
        shape = (2, 2)
        field = FieldGrid(
            rho=np.array([1.0, 1.2]),
            z=np.array([-0.1, 0.1]),
            e_rho=np.ones(shape, dtype=complex),
            e_phi=np.full(shape, 1j),
            e_z=np.zeros(shape, dtype=complex),
            mode_number=1,
        )
        save_field_grid(tmp_path / "field.csv", field)
        payload["helicity"]["input"] = str(tmp_path / "field.csv")
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run(command, config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["exit_code"] == 2
    assert key in error["message"]


@pytest.mark.parametrize("n", [MAX_GRID_POINTS + 1, 10**400], ids=["bound+1", "1e400"])
@pytest.mark.parametrize(
    "command, path",
    [
        ("spectrum", ("spectrum",)),
        ("eigen", ("eigen",)),
        ("validate", ("validate",)),
        ("sweep", ("sweep", "kappa_ex")),
        ("sweep", ("sweep", "delta12")),
    ],
)
def test_grid_above_bound_exits_2(tmp_path, command, path, n):
    payload = {"params": IDEAL_PARAMS}
    node = payload
    for key in path:
        node = node.setdefault(key, {})
    node["n"] = n
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run(command, config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert error["exit_code"] == 2
    assert "%s n must be at most %d" % (".".join(path), MAX_GRID_POINTS) in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_sweep_nodes_above_bound_exit_2(tmp_path):
    side = math.isqrt(MAX_GRID_POINTS) + 1
    payload = {"params": IDEAL_PARAMS, "sweep": {"kappa_ex": {"n": side}, "delta12": {"n": side}}}
    config = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run("sweep", config, out) == 2
    error = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert "kappa_ex.n * delta12.n must be at most %d" % MAX_GRID_POINTS in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_bad_threads_exit_2(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    assert run("spectrum", config, tmp_path / "out", "--threads", "0") == 2


def test_bad_set_syntax_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", {"params": IDEAL_PARAMS})
    assert run("spectrum", config, tmp_path / "out", "--set", "no-equals") == 2


def as_bytes(payload):
    return json.dumps(payload).encode("utf-8")


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, config, extra, code, error",
    [
        pytest.param("spectrum", None, (), 2, "ConfigError", id="unreadable-config"),
        pytest.param("spectrum", b'{"params": "\xff"}', (), 2, "ConfigError", id="config-not-utf8"),
        pytest.param("spectrum", DEEP.encode(), (), 2, "ConfigError", id="config-too-deep"),
        pytest.param("spectrum", b"[1, 2]", (), 2, "ConfigError", id="root-not-object"),
        pytest.param(
            "spectrum", as_bytes({"params": IDEAL_PARAMS}), ("--set", "params.g0.x=1"),
            2, "ConfigError", id="set-crosses-number",
        ),
        pytest.param(
            "spectrum", as_bytes({"params": IDEAL_PARAMS}), ("--set", "params.x=" + DEEP),
            2, "ConfigError", id="set-value-too-deep",
        ),
        pytest.param(
            "spectrum", as_bytes({"params": IDEAL_PARAMS, "spectrum": [1]}), (),
            2, "ConfigError", id="section-not-object",
        ),
        pytest.param(
            "spectrum", as_bytes({"params": [1]}), (), 2, "ConfigError", id="params-not-object"
        ),
        *[
            pytest.param(
                "spectrum", as_bytes({"params": IDEAL_PARAMS, "spectrum": section}), (),
                2, "ConfigError", id="spectrum-%s" % name,
            )
            for name, section in [
                ("start-nan", {"start": float("nan")}),
                ("stop-inf", {"stop": float("inf")}),
                ("n-float", {"n": 5.0}),
                ("n-zero", {"n": 0}),
            ]
        ],
        pytest.param(
            "sweep", as_bytes({"params": IDEAL_PARAMS, "sweep": {"kappa_ex": 3}}), (),
            2, "ConfigError", id="sweep-axis-not-object",
        ),
        pytest.param(
            "sweep", as_bytes({"params": IDEAL_PARAMS, "sweep": {"delta12": {"step": 1}}}), (),
            2, "ConfigError", id="sweep-axis-unknown-key",
        ),
        *[
            pytest.param(
                "validate", as_bytes({"params": IDEAL_PARAMS, "validate": {"directions": d}}),
                (), 2, "ConfigError", id="validate-directions-%s" % name,
            )
            for name, d in [("empty", []), ("string", "forward"), ("unknown", ["sideways"])]
        ],
        pytest.param(
            "helicity", as_bytes({"helicity": {"input": "latin1.csv"}}), (),
            1, "GridError", id="field-grid-not-utf8",
        ),
        pytest.param(
            "eigen", as_bytes({"params": IDEAL_PARAMS, "eigen": {"n": 3}}), (),
            1, "IsADirectoryError", id="output-not-writable",
        ),
    ],
)
def test_exit_path_writes_error_json(tmp_path, monkeypatch, command, config, extra, code, error):
    monkeypatch.chdir(tmp_path)
    # a field grid that is not UTF-8, and a directory where eigen.csv goes
    Path("latin1.csv").write_bytes(b"rho,z\n\xe9,0\n")
    Path("out", "eigen.csv").mkdir(parents=True)
    if config is not None:
        Path("c.json").write_bytes(config)
    assert main([command, "c.json", "--out-dir", "out", *extra]) == code
    record = json.loads(Path("out", "error.json").read_text(encoding="utf-8"))
    assert (record["error"], record["exit_code"]) == (error, code)


# --- console entry point ---


def fresh_python(*args):
    """Run a fresh interpreter on the package this process imports, installed or not."""
    src = str(Path(ringqed.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_console_script_version():
    proc = fresh_python("-m", "ringqed.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("ringqed ")


# --- import paths: only validate loads scipy, only its command a module ---


def modules_loaded_by(code, *argv):
    """sys.modules after code runs in a fresh interpreter with argv."""
    report = "print(json.dumps(sorted(sys.modules)))"
    proc = fresh_python("-c", "import json, sys\n%s\n%s" % (code, report), *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_loaded_by(code, *argv):
    """Modules of scipy loaded after code runs in a fresh interpreter with argv."""
    return [m for m in modules_loaded_by(code, *argv) if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("module", ["ringqed", "ringqed.cli"])
def test_import_loads_no_scipy(module):
    # helicity and validate load their modules when they run, and no
    # command runs a thread pool
    command_only = {"ringqed.helicity", "ringqed.oracle", "concurrent.futures"}
    loaded = modules_loaded_by("import " + module)
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m in command_only] == []


def test_sweep_runs_without_scipy(tmp_path):
    payload = {"params": NONIDEAL_PARAMS, "sweep": REPLAY_SECTIONS["sweep"]}
    config = write_config(tmp_path / "c.json", payload)
    code = "from ringqed.cli import main\nassert main(sys.argv[1:]) == 0"
    assert scipy_loaded_by(code, "sweep", config, "--out-dir", str(tmp_path)) == []
    assert (tmp_path / "sweep_trace.csv").is_file()


def test_validate_loads_scipy_sparse_but_not_optimize(tmp_path):
    payload = {"params": IDEAL_PARAMS, "validate": REPLAY_SECTIONS["validate"]}
    config = write_config(tmp_path / "c.json", payload)
    code = "from ringqed.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = scipy_loaded_by(code, "validate", config, "--out-dir", str(tmp_path))
    assert "scipy.sparse.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
