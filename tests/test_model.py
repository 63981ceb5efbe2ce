import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringqed import model
from ringqed.errors import SingularSystemError, ValidationError
from ringqed.model import (
    DriveSpec,
    LinearSystem,
    SystemParams,
    build_linear_system,
    coupling_matrix,
    couplings,
    decay_matrix,
    reflection,
    save_spectrum,
    spectrum,
    steady_state,
    transmission,
)

IDEAL = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0)
NONIDEAL = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=20.0, p=0.8,
                        delta12=30.0)


# --- parameter validation ---


def test_params_validation_messages():
    with pytest.raises(ValidationError, match="p must lie in"):
        SystemParams(g0=20.0, kappa_i=1.0, kappa_ex=5.0, p=1.5)
    with pytest.raises(ValidationError, match="g0"):
        SystemParams(g0=-1.0, kappa_i=1.0, kappa_ex=5.0)
    with pytest.raises(ValidationError, match="gamma"):
        SystemParams(g0=20.0, kappa_i=1.0, kappa_ex=5.0, gamma=0.0)
    with pytest.raises(ValidationError, match="finite"):
        SystemParams(g0=math.nan, kappa_i=1.0, kappa_ex=5.0)
    with pytest.raises(ValidationError):
        SystemParams(g0=20.0, kappa_i=0.0, kappa_ex=0.0)  # kappa == 0


def test_kappa_property():
    assert IDEAL.kappa == 8.0


def test_drive_spec_validation():
    assert DriveSpec("forward", 0.0).forward
    assert not DriveSpec("backward", 1.0).forward
    with pytest.raises(ValidationError):
        DriveSpec("up", 0.0)
    with pytest.raises(ValidationError):
        DriveSpec("forward", math.inf)


# --- couplings and matrices ---


def test_couplings_perfect_helicity():
    gp, gm = couplings(20.0, math.pi / 4, 1.0)
    assert gp == pytest.approx(20.0 * np.exp(1j * math.pi / 4))
    assert gm == 0.0


def test_couplings_magnitudes():
    gp, gm = couplings(20.0, 0.3, 0.8)
    assert abs(gp) ** 2 + abs(gm) ** 2 == pytest.approx(400.0)
    assert abs(gp) ** 2 - abs(gm) ** 2 == pytest.approx(400.0 * 0.8)


def test_coupling_matrix_structure():
    n = coupling_matrix(NONIDEAL, detuning=2.0)
    gp, gm = couplings(20.0, math.pi / 4, 0.8)
    assert np.allclose(n, n.conj().T)  # Hermitian
    assert n[0, 0] == 2.0 and n[1, 1] == 2.0
    assert n[0, 1] == 20.0
    assert n[2, 2] == pytest.approx(2.0 + 15.0)
    assert n[3, 3] == pytest.approx(2.0 - 15.0)
    assert n[2, 3] == 0.0
    assert n[2, 0] == pytest.approx(gp)
    assert n[2, 1] == pytest.approx(np.conj(gm))
    assert n[3, 0] == pytest.approx(gm)
    assert n[3, 1] == pytest.approx(np.conj(gp))


def test_decay_matrix():
    d = decay_matrix(IDEAL)
    assert np.allclose(d, np.diag([8.0, 8.0, 0.5, 0.5]))


# --- steady state ---


def test_steady_state_known_amplitude():
    # ideal case, resonant forward drive: <a> = -i*E*(gamma/2)/(g0^2 + kappa*gamma/2)
    system = build_linear_system(IDEAL, DriveSpec("forward", 0.0))
    x = steady_state(system)
    assert x[0] == pytest.approx(-1j * 0.5 / 404.0, abs=1e-15)
    assert x[1] == 0.0  # backward mode stays empty without backscattering


def test_steady_state_bare_cavity():
    bare = SystemParams(g0=0.0, kappa_i=3.0, kappa_ex=5.0)
    for dc in (0.0, -4.0, 11.0):
        system = build_linear_system(bare, DriveSpec("forward", dc))
        x = steady_state(system)
        assert x[0] == pytest.approx(1j / (-8.0 - 1j * dc), abs=1e-14)


def test_steady_state_rejects_singular_matrix():
    bad = LinearSystem(matrix=np.zeros((4, 4), complex), drive=np.array([1, 0, 0, 0], complex))
    with pytest.raises(SingularSystemError):
        steady_state(bad)
    # one singular system in a stack fails the whole stack
    good = build_linear_system(NONIDEAL, DriveSpec("forward", 3.0))
    stack = LinearSystem(
        matrix=np.stack([good.matrix, bad.matrix, good.matrix]),
        drive=np.stack([good.drive] * 3),
    )
    with pytest.raises(SingularSystemError, match="singular"):
        steady_state(stack)
    # a pivot this small overflows the solution
    tiny = LinearSystem(matrix=np.diag([1e-310, 1.0, 1.0, 1.0]).astype(complex), drive=bad.drive)
    with pytest.raises(SingularSystemError, match="non-finite"):
        steady_state(tiny)


def test_steady_state_stack_matches_single_solves():
    systems = [build_linear_system(NONIDEAL, DriveSpec(d, dc))
               for d in ("forward", "backward") for dc in (-12.0, 0.0, 30.0)]
    stack = LinearSystem(matrix=np.stack([s.matrix for s in systems]),
                         drive=np.stack([s.drive for s in systems]))
    x = steady_state(stack)
    assert x.shape == (6, 4)
    for row, system in zip(x, systems):
        assert np.array_equal(row, steady_state(system))


# --- transmission / reflection ---


def test_transmission_resonant_ideal_value():
    t = transmission(IDEAL, DriveSpec("forward", 0.0))
    assert t == pytest.approx((399.0 / 404.0) ** 2, abs=1e-12)


def test_transmission_critical_coupling_bare_cavity():
    bare = SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=5.0)
    assert transmission(bare, DriveSpec("forward", 0.0)) == pytest.approx(0.0, abs=1e-25)


def test_transmission_far_detuned_approaches_unity():
    t = transmission(IDEAL, DriveSpec("forward", 1e5))
    assert t == pytest.approx(1.0, abs=1e-3)


def test_transmission_dips_near_polariton_lines():
    # ideal case, delta12 = 0: dips at -+g0
    grid = np.linspace(-30.0, 30.0, 601)
    result = spectrum(IDEAL, grid)
    dips = grid[np.r_[False, (result.t_fwd[1:-1] < result.t_fwd[:-2])
                      & (result.t_fwd[1:-1] < result.t_fwd[2:]), False]]
    assert len(dips) == 2
    assert sorted(abs(d) for d in dips) == pytest.approx([20.0, 20.0], abs=0.2)


def test_reflection_zero_without_backscattering():
    assert reflection(IDEAL, DriveSpec("forward", 3.0)) == 0.0


def test_reflection_bare_modes_value():
    # two coupled empty modes, resonant: |2*kappa_ex*h / (kappa^2 + h^2)|^2
    params = SystemParams(g0=0.0, kappa_i=3.0, kappa_ex=5.0, h=20.0)
    r = reflection(params, DriveSpec("forward", 0.0))
    assert r == pytest.approx((200.0 / 464.0) ** 2, abs=1e-12)


def test_reciprocal_when_splitting_vanishes():
    params = replace(NONIDEAL, delta12=0.0)
    for dc in (-25.0, -5.0, 0.0, 17.0):
        tf = transmission(params, DriveSpec("forward", dc))
        tb = transmission(params, DriveSpec("backward", dc))
        assert tb == pytest.approx(tf, abs=1e-12)


def test_direction_swap_equals_helicity_flip():
    # reversing propagation is equivalent to p -> -p, theta -> -theta
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, theta=0.6,
                          p=0.8, h=12.0, delta12=30.0)
    mirrored = replace(params, p=-0.8, theta=-0.6)
    for dc in (-20.0, -12.0, 0.0, 9.0, 33.0):
        tf = transmission(params, DriveSpec("forward", dc))
        tb = transmission(mirrored, DriveSpec("backward", dc))
        assert tb == pytest.approx(tf, rel=1e-12, abs=1e-15)


def test_passivity():
    grid = np.linspace(-50.0, 50.0, 201)
    result = spectrum(NONIDEAL, grid)
    for arr in (result.t_fwd, result.t_bwd, result.r_fwd, result.r_bwd):
        assert np.all(arr <= 1.0 + 1e-12)
        assert np.all(arr >= 0.0)
    assert np.all(result.t_fwd + result.r_fwd <= 1.0 + 1e-12)
    assert np.all(result.t_bwd + result.r_bwd <= 1.0 + 1e-12)


# --- spectrum and export ---


def test_spectrum_grid_validation():
    with pytest.raises(ValidationError):
        spectrum(IDEAL, [])
    with pytest.raises(ValidationError):
        spectrum(IDEAL, [0.0, 1.0, 0.5])
    with pytest.raises(ValidationError):
        spectrum(IDEAL, [0.0, math.nan])
    with pytest.raises(ValidationError):
        spectrum(IDEAL, [[0.0, 1.0]])


def test_spectrum_gate_failure_names_first_failing_detuning(monkeypatch):
    # A is invertible for every valid parameter set, so break one system
    # of the stack by hand: system 2*i + 1 is the backward drive at grid[i]
    dynamics = model._dynamics

    def broken(params, detuning):
        a = dynamics(params, detuning)
        if a.ndim == 3:
            a[5] = 0.0
            a[7] = 0.0
        return a

    monkeypatch.setattr(model, "_dynamics", broken)
    with pytest.raises(SingularSystemError, match="at detuning -5 "):
        spectrum(NONIDEAL, [-10.0, -7.5, -5.0, -2.5])


def test_spectrum_accepts_descending_grid():
    up = spectrum(IDEAL, np.linspace(-10, 10, 5))
    down = spectrum(IDEAL, np.linspace(10, -10, 5))
    assert np.allclose(up.t_fwd, down.t_fwd[::-1])


def test_save_spectrum_writes_table(tmp_path):
    result = spectrum(IDEAL, np.linspace(-5, 5, 3))
    path = tmp_path / "s.csv"
    save_spectrum(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_c,t_fwd,t_bwd,r_fwd,r_bwd"
    assert len(lines) == 4


# --- invariants over random parameters ---

system_params = st.builds(
    SystemParams,
    g0=st.floats(0.0, 40.0),
    kappa_i=st.floats(0.0, 10.0),
    kappa_ex=st.floats(0.05, 15.0),
    theta=st.floats(-math.pi, math.pi),
    p=st.floats(-1.0, 1.0),
    h=st.floats(0.0, 30.0),
    gamma=st.floats(0.1, 5.0),
    delta12=st.floats(-60.0, 60.0),
)
detuning = st.floats(-100.0, 100.0)
invariants = settings(max_examples=150)


@invariants
@given(system_params, st.lists(detuning, min_size=1, max_size=8, unique=True))
def test_spectrum_equals_per_point_responses(params, points):
    grid = np.sort(points)
    result = spectrum(params, grid)
    for i, dc in enumerate(grid):
        for direction, t, r in (("forward", result.t_fwd, result.r_fwd),
                                ("backward", result.t_bwd, result.r_bwd)):
            drive = DriveSpec(direction, dc)
            assert t[i] == pytest.approx(transmission(params, drive), abs=1e-12)
            assert r[i] == pytest.approx(reflection(params, drive), abs=1e-12)


@invariants
@given(system_params, detuning)
def test_reciprocal_without_splitting_randomized(params, dc):
    params = replace(params, delta12=0.0)
    tf = transmission(params, DriveSpec("forward", dc))
    tb = transmission(params, DriveSpec("backward", dc))
    assert tb == pytest.approx(tf, abs=1e-10)


@invariants
@given(system_params, detuning)
def test_passivity_randomized(params, dc):
    for direction in ("forward", "backward"):
        drive = DriveSpec(direction, dc)
        t, r = transmission(params, drive), reflection(params, drive)
        assert t >= 0.0 and r >= 0.0
        assert t + r <= 1.0 + 1e-12


@invariants
@given(system_params, detuning)
def test_direction_swap_equals_helicity_flip_randomized(params, dc):
    mirrored = replace(params, p=-params.p, theta=-params.theta)
    forward, backward = DriveSpec("forward", dc), DriveSpec("backward", dc)
    assert transmission(mirrored, backward) == pytest.approx(transmission(params, forward), abs=1e-12)
    assert reflection(mirrored, backward) == pytest.approx(reflection(params, forward), abs=1e-12)
