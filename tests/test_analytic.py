import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringqed.analytic import (
    eigenvalue_sweep,
    ideal_transmission,
    isolation_conditions,
    optimal_coupling,
    polariton_eigenvalues,
    polariton_modes,
    save_eigenvalue_sweep,
)
from ringqed.errors import ConstraintError, ValidationError
from ringqed.model import DriveSpec, SystemParams, transmission


def closed_form_eigenvalues(g0, p):
    inner = math.sqrt(1.0 - p * p)
    vals = [
        -g0 * math.sqrt(1.0 + inner),
        -g0 * math.sqrt(1.0 - inner),
        g0 * math.sqrt(1.0 - inner),
        g0 * math.sqrt(1.0 + inner),
    ]
    return sorted(vals)


# --- isolation conditions ---


def test_isolation_conditions_reference_point():
    d12, dc = isolation_conditions(20.0, 1.0, 5.0, 5.24)
    assert d12 == pytest.approx(30.017710327960245, abs=1e-12)
    assert dc == pytest.approx(-13.854327843673982, abs=1e-12)


def test_isolation_conditions_zero_transmission():
    for kappa_ex in (5.1, 5.24, 6.0, 9.0):
        d12, dc = isolation_conditions(20.0, 1.0, 5.0, kappa_ex)
        params = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=kappa_ex, delta12=d12)
        assert transmission(params, DriveSpec("backward", dc)) < 1e-25


def test_isolation_conditions_constraint_errors():
    with pytest.raises(ConstraintError, match="kappa_ex"):
        isolation_conditions(20.0, 1.0, 5.0, 5.0)
    with pytest.raises(ConstraintError, match="kappa_ex"):
        isolation_conditions(20.0, 1.0, 5.0, 4.0)
    with pytest.raises(ConstraintError, match="g0"):
        isolation_conditions(1.0, 1.0, 5.0, 10.0)


def test_isolation_conditions_boundary_radicand():
    # 2*g0^2 == gamma*delta_kappa: s = 0 exactly
    d12, dc = isolation_conditions(1.0, 1.0, 5.0, 7.0)
    assert d12 == 0.0 and dc == 0.0


def test_isolation_conditions_input_validation():
    with pytest.raises(ValidationError):
        isolation_conditions(20.0, -1.0, 5.0, 6.0)
    with pytest.raises(ValidationError):
        isolation_conditions(20.0, 1.0, -5.0, 6.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "5", True])
@pytest.mark.parametrize("slot", range(4))
def test_isolation_conditions_rejects_non_finite_inputs(slot, bad):
    args = [20.0, 1.0, 5.0, 6.0]
    args[slot] = bad
    with pytest.raises(ValidationError, match="finite"):
        isolation_conditions(*args)


# --- ideal transmission formula ---


def test_ideal_matches_pipeline_when_assumptions_hold():
    for kappa_ex in (5.1, 5.24, 7.5):
        d12, dc = isolation_conditions(20.0, 1.0, 5.0, kappa_ex)
        params = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=kappa_ex, delta12=d12)
        for direction in ("forward", "backward"):
            drive = DriveSpec(direction, dc)
            assert ideal_transmission(params, drive) == pytest.approx(
                transmission(params, drive), abs=1e-10
            )


def test_ideal_forward_backward_exchange_under_splitting_flip():
    params = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=5.24, delta12=30.0)
    flipped = replace(params, delta12=-30.0)
    for dc in (-13.85, 0.0, 8.0):
        assert ideal_transmission(params, DriveSpec("forward", dc)) == pytest.approx(
            ideal_transmission(flipped, DriveSpec("backward", dc)), rel=1e-14
        )


def test_ideal_reference_forward_value():
    d12, dc = isolation_conditions(20.0, 1.0, 5.0, 5.24)
    params = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=5.24, delta12=d12)
    assert ideal_transmission(params, DriveSpec("forward", dc)) == pytest.approx(
        0.9754293927836902, abs=1e-12
    )
    assert ideal_transmission(params, DriveSpec("backward", dc)) < 1e-28


# --- optimal coupling ---


def test_optimal_coupling_reference_point():
    pt = optimal_coupling(20.0, 1.0, 5.0)
    assert pt.kappa_ex == pytest.approx(5.238021, abs=1e-4)
    assert pt.delta12 == pytest.approx(30.3717, abs=1e-3)
    assert pt.delta_c == pytest.approx(-13.7971, abs=1e-3)
    assert pt.t_fwd_predicted == pytest.approx(0.9754610577655844, abs=1e-9)


def test_optimal_coupling_beats_nearby_couplings():
    pt = optimal_coupling(20.0, 1.0, 5.0)
    for kappa_ex in (pt.kappa_ex - 0.05, pt.kappa_ex + 0.05):
        d12, dc = isolation_conditions(20.0, 1.0, 5.0, kappa_ex)
        params = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=kappa_ex, delta12=d12)
        assert transmission(params, DriveSpec("forward", dc)) < pt.t_fwd_predicted


def test_optimal_transmission_grows_with_coupling_strength():
    values = [optimal_coupling(g0, 1.0, 5.0).t_fwd_predicted for g0 in (20.0, 100.0, 1000.0)]
    assert values[0] < values[1] < values[2]
    assert values[1] == pytest.approx(0.99900075, abs=1e-6)
    assert values[2] == pytest.approx(0.99999000, abs=1e-6)


def test_optimal_coupling_validation():
    with pytest.raises(ValidationError):
        optimal_coupling(0.0, 1.0, 5.0)
    with pytest.raises(ValidationError):
        optimal_coupling(20.0, 0.0, 5.0)


def forward_on_zero_line(g0, gamma, kappa_i, kappa_ex):
    delta12, delta_c = isolation_conditions(g0, gamma, kappa_i, kappa_ex)
    params = SystemParams(g0=g0, kappa_i=kappa_i, kappa_ex=kappa_ex, gamma=gamma,
                          delta12=delta12)
    return ideal_transmission(params, DriveSpec("forward", delta_c))


@settings(max_examples=300)
@given(
    st.floats(0.01, 3.0),
    st.floats(0.05, 5.0),
    # subnormal kappa_i is below the resolution of the 1% neighbours
    st.floats(0.0, 5.0, exclude_min=True, allow_subnormal=False),
)
# g0 < gamma/2: the optimum lies below kappa_i + gamma/2, where a bracketed
# search over (kappa_i + gamma/2, ...) found no feasible point and raised
@example(1.0, 4.0, 0.5)
def test_optimal_coupling_is_a_feasible_maximum(g0, gamma, kappa_i):
    pt = optimal_coupling(g0, gamma, kappa_i)
    x = pt.kappa_ex - kappa_i
    assert 0.0 < x <= 2.0 * g0**2 / gamma
    assert isolation_conditions(g0, gamma, kappa_i, pt.kappa_ex) == (pt.delta12, pt.delta_c)
    assert pt.t_fwd_predicted == forward_on_zero_line(g0, gamma, kappa_i, pt.kappa_ex)
    for scale in (0.99, 1.01):
        if scale * x < 2.0 * g0**2 / gamma:
            # 1e-12 absorbs rounding where T_f is flat to double precision
            other = forward_on_zero_line(g0, gamma, kappa_i, kappa_i + scale * x)
            assert pt.t_fwd_predicted >= other - 1e-12


def test_optimal_coupling_below_half_gamma_reference():
    # T_f = 1/9 here, from the quadratic factor of dT_f/dx
    pt = optimal_coupling(1.0, 4.0, 0.5)
    assert pt.kappa_ex == pytest.approx(0.6492189406417879, rel=1e-12)
    assert pt.t_fwd_predicted == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_optimal_coupling_needs_intrinsic_loss():
    # at kappa_i = 0, T_f -> 1 as kappa_ex -> 0: a supremum, not a maximum
    with pytest.raises(ValidationError, match="kappa_i > 0"):
        optimal_coupling(1.0, 4.0, 0.0)
    for kappa_i in (1e-3, 1e-9):
        pt = optimal_coupling(1.0, 4.0, kappa_i)
        assert pt.t_fwd_predicted > 1.0 - 10.0 * kappa_i
        assert pt.kappa_ex < 3.0 * kappa_i


@pytest.mark.parametrize("bad", [math.nan, math.inf, "5", True])
@pytest.mark.parametrize("slot", range(3))
def test_optimal_coupling_rejects_non_finite_inputs(slot, bad):
    args = [20.0, 1.0, 5.0]
    args[slot] = bad
    with pytest.raises(ValidationError, match="finite"):
        optimal_coupling(*args)


# --- polariton eigenvalues ---


def test_eigenvalues_perfect_helicity():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, p=1.0)
    assert np.allclose(polariton_eigenvalues(params), [-20.0, -20.0, 20.0, 20.0],
                       atol=1e-9)


def test_eigenvalues_zero_helicity():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, p=0.0)
    expected = [-20.0 * math.sqrt(2.0), 0.0, 0.0, 20.0 * math.sqrt(2.0)]
    assert np.allclose(polariton_eigenvalues(params), expected, atol=1e-9)


def test_eigenvalues_closed_form_general_p():
    for p in (0.2, 0.5, 0.8, 0.95):
        params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, p=p)
        assert np.allclose(polariton_eigenvalues(params),
                           closed_form_eigenvalues(20.0, p), atol=1e-9)


def test_eigenvalues_pure_backscattering():
    params = SystemParams(g0=0.0, kappa_i=3.0, kappa_ex=5.0, h=20.0)
    assert np.allclose(polariton_eigenvalues(params), [-20.0, 0.0, 0.0, 20.0],
                       atol=1e-12)


def test_eigenvalue_sum_vanishes():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=17.0, p=0.6,
                          delta12=24.0)
    assert sum(polariton_eigenvalues(params)) == pytest.approx(0.0, abs=1e-9)


def test_polariton_modes_weights():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=20.0, p=0.8,
                          delta12=30.0)
    values, vectors = polariton_modes(params)
    assert np.allclose(values, polariton_eigenvalues(params))
    weights = np.sum(np.abs(vectors[:2, :]) ** 2, axis=0)
    assert np.all((weights >= 0) & (weights <= 1 + 1e-12))
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-9)  # two photonic modes


# --- sweeps ---


def test_eigenvalue_sweep_branches_split_with_p():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0)
    values = np.linspace(0.0, 1.0, 11)
    table = eigenvalue_sweep(params, "p", values)
    assert table.shape == (11, 4)
    # columns sorted ascending at every sample
    assert np.all(np.diff(table, axis=1) >= -1e-12)
    # inner branches move from 0 to -+g0 as helicity becomes perfect
    assert np.allclose(table[0, 1:3], 0.0, atol=1e-9)
    assert np.allclose(table[-1], [-20.0, -20.0, 20.0, 20.0], atol=1e-9)
    # continuity between neighboring samples; the branch slope steepens
    # near p = 1 where d(lambda)/dp diverges, so the bound is loose
    assert np.all(np.abs(np.diff(table, axis=0)) < 6.0)


def test_eigenvalue_sweep_delta12():
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=20.0, p=0.8)
    values = np.linspace(0.0, 60.0, 7)
    table = eigenvalue_sweep(params, "delta12", values)
    assert table.shape == (7, 4)
    with pytest.raises(ValidationError):
        eigenvalue_sweep(params, "kappa_ex", values)


def test_save_eigenvalue_sweep(tmp_path):
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0)
    values = np.linspace(0.0, 1.0, 3)
    table = eigenvalue_sweep(params, "p", values)
    path = tmp_path / "e.csv"
    save_eigenvalue_sweep(path, values, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "sweep_var,lambda1,lambda2,lambda3,lambda4"
    assert len(lines) == 4
