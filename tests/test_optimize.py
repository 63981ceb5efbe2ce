import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from ringqed import model, optimize
from ringqed.analytic import IsolationPoint, isolation_conditions, optimal_coupling, polariton_modes
from ringqed.errors import ContinuationError, NoDipError, SingularSystemError, ValidationError
from ringqed.model import (
    DriveSpec,
    LinearSystem,
    SystemParams,
    _dynamics,
    _transmitted,
    coupling_matrix,
    decay_matrix,
    steady_state,
    transmission,
)
from ringqed.optimize import (
    CONTOUR_COLUMNS,
    CONTRAST_FLOOR,
    ZERO_TB_ACCEPT,
    ZERO_TB_TARGET,
    _tb_zeros,
    cavity_dip_detuning,
    contrast_db,
    maximize_contrast,
    save_contour,
    save_zero_trace,
    sweep_grid,
    trace_zero_tb_line,
)
from ringqed.tableio import read_table

IDEAL = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=6.0)
NONIDEAL = SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=7.0, h=20.0, p=0.8)


def backward_at(params, delta12, delta_c):
    return transmission(
        replace(params, delta12=float(delta12)), DriveSpec("backward", float(delta_c))
    )


# --- contrast ---


def test_contrast_db_values_and_floor():
    assert contrast_db(1.0, 1.0) == 0.0
    assert math.isclose(contrast_db(1.0, 1e-6), 60.0)
    # a vanishing backward transmission is clamped at the floor
    assert math.isclose(contrast_db(1.0, 0.0), 120.0)
    assert math.isclose(contrast_db(1.0, 0.0, floor=1e-6), 60.0)


# --- backward dip location ---


def dip_at(params):
    """cavity_dip_detuning on the one node of params."""
    return cavity_dip_detuning(params, [params.kappa_ex], [params.delta12]).item()


def backward_grid(params, detunings):
    """T_b of the 4x4 model at each detuning, one stacked solve."""
    drive = np.tile(np.eye(4, dtype=complex)[1], (len(detunings), 1))
    system = LinearSystem(_dynamics(params, np.asarray(detunings)[:, None, None]), drive)
    return _transmitted(params, steady_state(system)[:, 1])


def grid_minima(params, n=4001):
    """(x, T_b) of each local minimum of the 4x4 T_b on a dense grid over the node's brackets.

    Only minima two grid steps or more inside a bracket's interior, more
    than 1e-3 widths from its ends, count.
    """
    runs = optimize._dip_runs(*polariton_modes(params))
    _, width, lo, hi = optimize._dip_brackets(runs, np.array([params.kappa]), params.gamma)[:, 0]
    live = np.isfinite(width)
    if not live.any():
        return []
    grid = np.linspace(lo[live].min(), hi[live].max(), n)
    tb = backward_grid(params, grid)
    step, edge = grid[1] - grid[0], 1e-3 * width[live]
    local = (tb[2:-2] <= tb[1:-3]) & (tb[2:-2] <= tb[3:-1])
    # two steps away a minimum rises above rounding, which a flat T_b does not
    local &= (tb[2:-2] + 1e-12 < tb[:-4]) & (tb[2:-2] + 1e-12 < tb[4:])
    x, tb = grid[2:-2][local], tb[2:-2][local]
    inside = (lo[live] + edge + 2 * step < x[:, None]) & (x[:, None] < hi[live] - edge - 2 * step)
    return list(zip(x[inside.any(axis=1)], tb[inside.any(axis=1)]))


def check_dip(params, dip):
    """dip is a stationary minimum of the 4x4 T_b, and no grid minimum of its brackets is deeper.

    A NaN dip must leave the grid without an interior minimum. The
    stationarity check is a central difference over the first step h of
    1e-6, 1e-4 and 1e-2 times R, R the largest of g0, kappa, h, gamma and
    |delta12|, whose second difference exceeds 1e-12 T_b in size: it must
    be positive, and the first difference within 0.05 of it, so a
    stationary point lies within 0.05 * h, or 0.025 * h at a double zero of
    T_b, where T_b is quartic. Where no step resolves, T_b is flat to
    rounding around the dip. A deeper minimum must undercut the
    dip's T_b by more than a relative 1e-9 plus 1e-15.
    """
    minima = grid_minima(params)
    if math.isnan(dip):
        assert minima == []
        return
    size = max(params.g0, params.kappa, params.h, params.gamma, abs(params.delta12))
    for h in (1e-6 * size, 1e-4 * size, 1e-2 * size):
        below, at, above = backward_grid(params, [dip - h, dip, dip + h])
        second = above - 2.0 * at + below
        if abs(second) > 1e-12 * at:
            assert second > 0.0
            assert abs(above - below) / 2.0 <= 0.05 * second
            break
    for _, tb in minima:
        assert at <= tb * (1.0 + 1e-9) + 1e-15


def test_dip_matches_closed_form_operating_point():
    d12, dc = isolation_conditions(20.0, 1.0, 5.0, 6.0)
    params = replace(IDEAL, delta12=d12)
    dip = dip_at(params)
    assert abs(dip - dc) < 1e-3
    assert backward_at(IDEAL, d12, dip) < 1e-12


def test_dip_of_bare_cavity_sits_at_resonance():
    bare = SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=6.0)
    assert abs(dip_at(bare)) < 1e-6


def test_dip_regression_with_backscattering():
    params = replace(NONIDEAL, delta12=30.0)
    assert abs(dip_at(params) - (-12.247764284722717)) < 1e-6


def or_corner(corner, values):
    return st.one_of(st.just(corner), values)


@settings(max_examples=200)
@given(
    st.builds(
        SystemParams,
        g0=or_corner(0.0, st.floats(0.0, 40.0)),
        kappa_i=st.floats(0.0, 10.0),
        kappa_ex=st.floats(0.05, 40.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
        h=or_corner(0.0, st.floats(0.0, 30.0)),
        delta12=or_corner(0.0, st.floats(-60.0, 60.0)),
    ),
    st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=5),
)
# no emitter: the emitter's zeros cancel its poles
@example(SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=6.0, delta12=10.0), [-5.0, 0.0, 5.0])
# decoupled directions, with and without splitting
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=6.0, p=1.0), [-20.0, -14.1, 0.0])
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=6.0, p=-1.0, delta12=28.0), [-12.0])
# reciprocal hardware
@example(replace(NONIDEAL, delta12=0.0), [-25.0, -12.0, 0.0, 12.0])
def test_determinant_tb_matches_linear_solve(params, detunings):
    # T_b = |n/d|**2 with n and d the determinants, and the coefficients of
    # n and d reproduce both to 1e-13 of the leading term on the scale circle
    shifted = coupling_matrix(params) - 1j * np.stack(
        [optimize._backward_decay(params), decay_matrix(params)]
    )
    (scale,), ((n, d),) = optimize._tb_quotient(shifted[None])
    for delta_c in detunings + np.linspace(-80.0, 80.0, 41).tolist():
        dets = np.linalg.det(shifted + delta_c * np.eye(4))
        tb = abs(dets[0] / dets[1]) ** 2
        assert abs(tb - backward_at(params, params.delta12, delta_c)) <= 1e-12
        u = delta_c / scale
        poly = np.array([P.polyval(u, n), P.polyval(u, d)])
        assert np.all(np.abs(poly - dets / scale**4) <= 1e-13 * max(1.0, abs(u)) ** 4)


@settings(max_examples=100)
@given(
    st.builds(
        SystemParams,
        g0=st.floats(5.0, 40.0),
        kappa_i=st.floats(0.5, 10.0),
        kappa_ex=st.floats(0.5, 40.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.floats(-0.95, 0.95),
        h=st.floats(1.0, 30.0),
        delta12=st.floats(-60.0, 60.0),
    )
)
def test_dip_is_a_local_minimum_of_linear_solve(params):
    dip = dip_at(params)
    step = 1e-4 * max(params.kappa, params.gamma)
    at_dip = backward_at(params, params.delta12, dip)
    for neighbour in (dip - step, dip + step):
        assert at_dip <= backward_at(params, params.delta12, neighbour) * (1.0 + 1e-12)


dip_hardware = st.builds(
    SystemParams,
    g0=or_corner(0.0, st.floats(0.0, 40.0)),
    kappa_i=or_corner(0.0, st.floats(0.0, 10.0)),
    kappa_ex=st.floats(0.05, 40.0),
    theta=st.floats(-math.pi, math.pi),
    p=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    h=or_corner(0.0, st.floats(0.0, 30.0)),
    delta12=or_corner(0.0, st.floats(-60.0, 60.0)),
)


@settings(max_examples=100)
@given(dip_hardware)
@example(replace(NONIDEAL, delta12=30.0))
# a bracket whose deepest minimum sits far from its eigenvalue
@example(replace(NONIDEAL, kappa_ex=17.0, delta12=60.0))
# mirror-symmetric minima at zero splitting
@example(replace(NONIDEAL, kappa_ex=25.0, delta12=0.0))
def test_dip_is_the_deepest_stationary_minimum(params):
    check_dip(params, dip_at(params))


@pytest.mark.parametrize(
    "params, kappa_ex",
    [
        # kappa_ex = 0 decouples the waveguide: T_b == 1 and W vanishes
        (NONIDEAL, [0.0, 7.0, 9.0]),
        (SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=1.0), [0.0, 6.0, 12.0]),
        # a bare cavity: the emitter's factor of W has no real root
        (SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=1.0, h=3.0), [5.0, 6.0]),
        # kappa_i = 0 drops W's degree-13 term
        (SystemParams(g0=20.0, kappa_i=0.0, kappa_ex=1.0, h=20.0, p=0.8), [0.5, 2.0, 7.0]),
        # a lossless bare cavity passes everything: T_b == 1
        (SystemParams(g0=0.0, kappa_i=0.0, kappa_ex=1.0), [0.5, 6.0]),
    ],
)
def test_degenerate_w_rows_give_no_spurious_dip(params, kappa_ex):
    delta12 = [0.0, 10.0, 30.0]
    dips = cavity_dip_detuning(params, kappa_ex, delta12)
    for i, kex in enumerate(kappa_ex):
        for j, d12 in enumerate(delta12):
            node = replace(params, kappa_ex=kex, delta12=d12)
            flat = kex == 0.0 or params.g0 == params.h == params.kappa_i == 0.0
            if flat:
                assert math.isnan(dips[i, j])
            elif params.g0 == params.h == 0.0:
                assert abs(dips[i, j]) < 1e-6
            else:
                check_dip(node, dips[i, j])


# --- zero-backward-transmission tracing ---


def test_trace_follows_closed_form_conditions():
    points = trace_zero_tb_line(IDEAL, (5.5, 8.0), 6)
    assert len(points) == 6
    assert [p.kappa_ex for p in points] == sorted(p.kappa_ex for p in points)
    for point in points:
        d12, dc = isolation_conditions(20.0, 1.0, 5.0, point.kappa_ex)
        assert abs(point.delta12 - d12) < 1e-4
        assert abs(point.delta_c - dc) < 1e-4
        assert 0.0 < point.t_fwd_predicted <= 1.0
        params = replace(IDEAL, kappa_ex=point.kappa_ex)
        assert backward_at(params, point.delta12, point.delta_c) <= ZERO_TB_ACCEPT


def test_trace_input_validation():
    with pytest.raises(ValidationError, match="lo <= hi"):
        trace_zero_tb_line(IDEAL, (8.0, 6.0), 3)
    with pytest.raises(ValidationError, match="kappa_ex > kappa_i"):
        trace_zero_tb_line(IDEAL, (4.0, 8.0), 3)
    with pytest.raises(ValidationError, match="n_points"):
        trace_zero_tb_line(IDEAL, (6.0, 8.0), 0)


@pytest.mark.parametrize("n_points", [2.5, True, "3", None])
def test_trace_rejects_non_integer_sample_counts(n_points):
    with pytest.raises(ValidationError, match="n_points"):
        trace_zero_tb_line(IDEAL, (6.0, 8.0), n_points)


@pytest.mark.parametrize(
    "kappa_ex_range", [(6.0, math.inf), (-math.inf, 8.0), (math.nan, 8.0), (6.0, "8")]
)
def test_trace_rejects_non_finite_range_ends(kappa_ex_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="kappa_ex_range"):
            trace_zero_tb_line(IDEAL, kappa_ex_range, 3)


def test_trace_accepts_numpy_integer_sample_count():
    expected = trace_zero_tb_line(IDEAL, (5.5, 8.0), 3)
    assert trace_zero_tb_line(IDEAL, (5.5, 8.0), np.int64(3)) == expected


def test_trace_nonideal_from_seed_is_honest():
    seed = IsolationPoint(
        kappa_ex=6.9, delta12=28.2, delta_c=-12.0, t_fwd_predicted=0.79
    )
    points = trace_zero_tb_line(NONIDEAL, (7.0, 9.0), 5, seed=seed)
    assert len(points) == 5
    for point in points:
        params = replace(NONIDEAL, kappa_ex=point.kappa_ex)
        assert backward_at(params, point.delta12, point.delta_c) <= ZERO_TB_ACCEPT


def test_trace_reports_unreachable_couplings():
    # just above critical coupling the backscattered system admits no
    # zero-backward point, so tracing fails and names the samples
    with pytest.raises(ContinuationError) as info:
        trace_zero_tb_line(NONIDEAL, (5.1, 6.5), 3)
    assert info.value.failed_kappa_ex == pytest.approx([5.1, 5.8, 6.5])
    assert info.value.points == []


def test_trace_is_deterministic():
    first = trace_zero_tb_line(NONIDEAL, (7.0, 8.0), 3)
    second = trace_zero_tb_line(NONIDEAL, (7.0, 8.0), 3)
    assert first == second


# --- exact zero set ---

hardware = st.builds(
    SystemParams,
    g0=st.floats(0.0, 40.0),
    kappa_i=st.floats(0.0, 10.0),
    kappa_ex=st.floats(0.05, 40.0),
    theta=st.floats(-math.pi, math.pi),
    p=st.floats(-1.0, 1.0),
    h=st.floats(0.0, 30.0),
)


@settings(max_examples=150)
@given(hardware)
def test_zero_set_reevaluates_below_target(params):
    (zeros,), evaluations = _tb_zeros(params, [params.kappa_ex])
    assert evaluations >= 1
    assert [z.delta_c for z, _ in zeros] == sorted(z.delta_c for z, _ in zeros)
    for zero, tb in zeros:
        assert zero.kappa_ex == params.kappa_ex
        assert tb == backward_at(params, zero.delta12, zero.delta_c) <= 1e-10
        forward = transmission(
            replace(params, delta12=zero.delta12), DriveSpec("forward", zero.delta_c)
        )
        assert zero.t_fwd_predicted == forward


@settings(max_examples=20)
@given(
    st.builds(
        SystemParams,
        g0=or_corner(0.0, st.floats(0.0, 40.0)),
        kappa_i=st.floats(0.0, 10.0),
        kappa_ex=st.just(1.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
        h=or_corner(0.0, st.floats(0.0, 30.0)),
    ),
    st.lists(st.floats(0.05, 40.0), min_size=1, max_size=4),
)
# no emitter, decoupled directions, and a coupling at kappa_i
@example(SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=1.0), [5.0, 6.0, 30.0])
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=1.0, p=1.0), [5.0, 6.0, 9.0])
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=1.0, p=-1.0), [5.5, 6.0])
@example(replace(NONIDEAL, kappa_ex=1.0), [5.0, 6.9, 7.0, 12.0])
def test_stacked_zero_set_equals_one_at_a_time(params, kappa_ex):
    zeros, evaluations = _tb_zeros(params, kappa_ex)
    alone = [_tb_zeros(params, [kex]) for kex in kappa_ex]
    assert zeros == [found for (found,), _ in alone]
    assert evaluations == sum(spent for _, spent in alone)


def test_line_of_zeros_gives_no_trace_rows():
    # a critically coupled bare cavity: T_b vanishes at delta_c = 0 for every
    # delta12, a line of zeros and not points, so kappa_ex = 5 gives no row
    params = SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=1.0)
    for d12 in (0.0, 3.0, 10.0):
        assert backward_at(replace(params, kappa_ex=5.0), d12, 0.0) < 1e-20
    assert _tb_zeros(params, [5.0])[0] == [[]]
    assert sweep_grid(params, [1.0, 5.0], [0.0, 10.0]).zero_tb_rows.shape == (0, 7)


@settings(max_examples=100)
@given(
    st.floats(1.0, 30.0),
    st.floats(0.0, 8.0),
    st.floats(1e-3, 0.999),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-math.pi, math.pi),
)
def test_zero_set_contains_closed_form_point(g0, kappa_i, fraction, p, theta):
    # valid couplings satisfy 0 < kappa_ex - kappa_i <= 2*g0**2/gamma
    kappa_ex = kappa_i + fraction * 2.0 * g0**2
    params = SystemParams(g0=g0, kappa_i=kappa_i, kappa_ex=kappa_ex, p=p, theta=theta)
    d12, dc = isolation_conditions(g0, 1.0, kappa_i, kappa_ex)
    # at p = -1 the two transitions swap roles, which flips the splitting
    d12 *= p
    (zeros,), _ = _tb_zeros(params, [kappa_ex])
    miss = min(math.hypot(z.delta12 - d12, z.delta_c - dc) for z, _ in zeros)
    assert miss <= 1e-6 * max(1.0, math.hypot(d12, dc))


# --- contrast maximization ---


def test_maximize_contrast_with_fixed_splitting():
    result = maximize_contrast(NONIDEAL, fixed_delta12=30.0)
    assert result.kappa_ex == 7.0
    assert result.delta12 == 30.0
    assert abs(result.delta_c - (-12.247764284722717)) < 1e-6
    assert abs(result.t_fwd - 0.78698860728823661) < 1e-9
    assert abs(result.t_bwd - 7.8654881906371264e-05) < 1e-12
    assert abs(result.contrast_db - 40.002427620733911) < 1e-6
    assert result.iterations == 0
    assert not result.converged


def test_maximize_contrast_zero_splitting_is_reciprocal():
    result = maximize_contrast(NONIDEAL, fixed_delta12=0.0)
    assert result.t_fwd == result.t_bwd
    assert result.contrast_db == 0.0
    assert not result.converged


@pytest.mark.parametrize("fixed", [True, math.nan, math.inf, "30"])
def test_maximize_contrast_rejects_non_finite_fixed_splitting(fixed):
    with pytest.raises(ValidationError, match="fixed_delta12"):
        maximize_contrast(NONIDEAL, fixed_delta12=fixed)


def test_maximize_contrast_fixed_splitting_without_dip(monkeypatch):
    monkeypatch.setattr(optimize, "cavity_dip_detuning", lambda *args: np.full((1, 1), math.nan))
    with pytest.raises(NoDipError):
        maximize_contrast(NONIDEAL, fixed_delta12=30.0)


def test_maximize_contrast_requires_emitter():
    with pytest.raises(ValidationError, match="g0"):
        maximize_contrast(SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=6.0))


def test_maximize_contrast_recovers_closed_form_optimum():
    reference = optimal_coupling(20.0, 1.0, 5.0)
    result = maximize_contrast(IDEAL)
    assert result.converged
    assert abs(result.kappa_ex - reference.kappa_ex) < 1e-2
    assert abs(result.delta12 - reference.delta12) < 0.1
    assert abs(result.delta_c - reference.delta_c) < 0.1
    assert abs(result.t_fwd - reference.t_fwd_predicted) < 1e-5
    assert result.t_bwd <= 1e-10


def test_maximize_contrast_nonideal_regression():
    result = maximize_contrast(NONIDEAL)
    assert result.converged
    assert abs(result.kappa_ex - 6.897819551367728) < 1e-4
    assert abs(result.delta12 - 28.233927970780336) < 1e-3
    assert abs(result.delta_c - (-12.027429340503707)) < 1e-3
    assert abs(result.t_fwd - 0.791357046906854) < 1e-6
    assert result.contrast_db > 100.0
    # the reported point must reproduce when evaluated from scratch
    params = replace(NONIDEAL, kappa_ex=result.kappa_ex)
    assert backward_at(params, result.delta12, result.delta_c) <= 1e-10
    t_fwd = transmission(
        replace(params, delta12=result.delta12), DriveSpec("forward", result.delta_c)
    )
    assert abs(t_fwd - result.t_fwd) < 1e-12


# --- grid sweeps ---


def test_sweep_grid_nodes_and_trace():
    kex_axis = np.array([7.0, 8.0, 9.0])
    d12_axis = np.array([0.0, 15.0, 25.0, 35.0])
    contour = sweep_grid(NONIDEAL, kex_axis, d12_axis)
    assert contour.t_fwd.shape == (3, 4)
    assert np.all(np.isfinite(contour.contrast_db))
    # the dip detuning follows the negative-branch convention
    assert np.all(contour.delta_c <= 1e-6)
    # contrast and saturation flags are consistent with the node values
    for i in range(3):
        for j in range(4):
            expected = contrast_db(contour.t_fwd[i, j], contour.t_bwd[i, j])
            assert abs(contour.contrast_db[i, j] - expected) < 1e-9
            assert contour.saturated[i, j] == (contour.t_bwd[i, j] < CONTRAST_FLOOR)
    # transmission is reciprocal at zero splitting: contrast vanishes there
    assert np.all(np.abs(contour.contrast_db[:, 0]) < 1e-8)
    # trace rows re-evaluate honestly at zero backward transmission
    assert contour.zero_tb_rows.shape[1] == 7
    assert len(contour.zero_tb_rows) >= 1
    for row in contour.zero_tb_rows:
        kex, d12, dc, tf, tb, cdb, saturated = row
        assert kex in kex_axis
        assert d12_axis[0] <= d12 <= d12_axis[-1]
        params = replace(NONIDEAL, kappa_ex=kex)
        assert backward_at(params, d12, dc) <= ZERO_TB_TARGET
        assert abs(tb - backward_at(params, d12, dc)) < 1e-12
        assert abs(cdb - contrast_db(tf, tb)) < 1e-9
        assert bool(saturated) == (tb < CONTRAST_FLOOR)


def test_sweep_grid_solves_nodes_and_zero_trace_in_four_stacks(monkeypatch):
    # the nodes are one grid dip search and one
    # stacked solve per direction, and the zero trace is one stacked
    # backward solve over every real resultant root and one stacked forward
    # solve over the roots that re-evaluate at zero; a root that needs
    # polishing would add single solves
    kex_axis = np.linspace(5.5, 15.0, 9)
    zeros = sum(len(column) for column in _tb_zeros(NONIDEAL, kex_axis)[0])
    calls, dips, searches, polished = [], [], [], []

    def counting(system):
        drives = system.drive.reshape(-1, 4)
        calls.append(("forward" if drives[0, 0] else "backward", len(drives)))
        return steady_state(system)

    def counting_dip(*args):
        dips.append(args)
        return cavity_dip_detuning(*args)

    def counting_polish(*args):
        polished.append(args)
        return optimize._minimize_tb(*args)

    monkeypatch.setattr(model, "steady_state", counting)
    monkeypatch.setattr(optimize, "steady_state", counting)
    monkeypatch.setattr(optimize, "cavity_dip_detuning", counting_dip)
    monkeypatch.setattr(optimize, "minimize_scalar", lambda *a, **k: searches.append(a))
    monkeypatch.setattr(optimize, "_minimize_tb", counting_polish)
    contour = sweep_grid(NONIDEAL, kex_axis, np.linspace(0.0, 40.0, 9))
    defined = int(np.sum(np.isfinite(contour.t_fwd)))
    assert len(dips) == 1 and searches == [] and polished == []
    assert calls[:2] == [("backward", defined), ("forward", defined)]
    assert calls[2][0] == "backward" and calls[2][1] >= zeros
    assert calls[3:] == [("forward", zeros)]
    assert 1 <= len(contour.zero_tb_rows) <= zeros


@settings(max_examples=10)
@given(
    st.builds(
        SystemParams,
        g0=st.floats(15.0, 25.0),
        kappa_i=st.floats(3.0, 6.0),
        kappa_ex=st.just(7.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.floats(0.6, 0.95),
        h=st.floats(5.0, 25.0),
    )
)
# the zero at kappa_ex = 11, delta12 = 11.4 lies inside the window, while
# the column's least node T_b sits at its delta12 = 80 edge
@example(NONIDEAL)
def test_sweep_trace_holds_every_in_window_zero(params):
    kex_axis = np.linspace(params.kappa_i, params.kappa_i + 20.0, 11)
    rows = sweep_grid(params, kex_axis, np.linspace(0.0, 80.0, 9)).zero_tb_rows
    for kex, d12, dc, tf, tb, _, _ in rows:
        assert tb == backward_at(replace(params, kappa_ex=kex), d12, dc) <= ZERO_TB_TARGET
    for kex in kex_axis:
        (zeros,), _ = _tb_zeros(params, [kex])
        expected = sorted((z.delta12, z.delta_c) for z, _ in zeros if 0.0 <= z.delta12 <= 80.0)
        assert [(row[1], row[2]) for row in rows if row[0] == kex] == expected


def node_reference(params, dc):
    """Both solves at one node at detuning dc, as sweep_grid reports them."""
    try:
        tb = transmission(params, DriveSpec("backward", dc))
        tf = transmission(params, DriveSpec("forward", dc))
    except (ValidationError, SingularSystemError):
        # a NaN detuning, where no dip was found, is no DriveSpec
        return [math.nan] * 4 + [False]
    return [dc, tf, tb, contrast_db(tf, tb), tb < CONTRAST_FLOOR]


def node_values(contour, i, j):
    names = ("delta_c", "t_fwd", "t_bwd", "contrast_db", "saturated")
    return [getattr(contour, name)[i, j].item() for name in names]


def same(got, expected):
    """Equal under ==, with NaN matching NaN."""
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected))


def axis(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True).map(sorted)


@settings(max_examples=40)
@given(
    st.builds(
        SystemParams,
        g0=st.floats(0.0, 40.0),
        kappa_i=st.floats(0.0, 10.0),
        kappa_ex=st.just(1.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
        h=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    ),
    axis(0.05, 40.0, 3),
    axis(-60.0, 60.0, 4),
)
# no emitter
@example(SystemParams(g0=0.0, kappa_i=5.0, kappa_ex=6.0), [5.5, 7.0, 9.0], [0.0, 10.0, 20.0, 30.0])
# decoupled directions, where the polariton pairs merge at zero splitting
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=6.0), [5.5, 6.0, 9.0], [0.0, 14.0, 28.2, 40.0])
@example(SystemParams(g0=20.0, kappa_i=5.0, kappa_ex=6.0, p=-1.0), [9.0, 6.0], [-28.2, 0.0, 14.0])
def test_sweep_grid_nodes_equal_scalar_dip_and_solves(params, kex_axis, d12_axis):
    # each node's dip is its own one-node call's bit for bit, and meets the
    # rule within check_dip's tolerances; its values are the scalar solves there
    contour = sweep_grid(params, kex_axis, d12_axis)
    for i, kex in enumerate(kex_axis):
        for j, d12 in enumerate(d12_axis):
            node = replace(params, kappa_ex=kex, delta12=d12)
            dc = dip_at(node)
            check_dip(node, dc)
            assert same(node_values(contour, i, j), node_reference(node, dc)), (kex, d12)


def test_sweep_grid_gate_failure_blanks_one_node(monkeypatch):
    kex_axis, d12_axis = np.array([7.0, 8.0, 9.0]), np.array([0.0, 15.0, 25.0, 35.0])
    clean = sweep_grid(NONIDEAL, kex_axis, d12_axis)
    assert np.all(np.isfinite(clean.t_fwd))
    build = optimize._system_matrix

    def broken(n0, decay, detuning):
        # the stacked node systems, row-major: system 6 is node (1, 2)
        a = build(n0, decay, detuning)
        if a.ndim == 3:
            a[6] = 0.0
        return a

    monkeypatch.setattr(optimize, "_system_matrix", broken)
    contour = sweep_grid(NONIDEAL, kex_axis, d12_axis)
    for i in range(3):
        for j in range(4):
            expected = [math.nan] * 4 + [False] if (i, j) == (1, 2) else node_values(clean, i, j)
            assert same(node_values(contour, i, j), expected)


def test_sweep_grid_axis_validation():
    with pytest.raises(ValidationError, match="monotone"):
        sweep_grid(NONIDEAL, np.array([7.0, 7.0, 9.0]), np.array([10.0]))
    with pytest.raises(ValidationError, match="delta12"):
        sweep_grid(NONIDEAL, np.array([7.0]), np.array([]))
    with pytest.raises(ValidationError, match="kappa_ex"):
        sweep_grid(NONIDEAL, np.array([[7.0, 8.0]]), np.array([10.0]))


def test_save_contour_and_trace_round_trip(tmp_path):
    contour = sweep_grid(NONIDEAL, np.array([7.0, 8.0]), np.array([20.0, 30.0]))
    grid_path = tmp_path / "grid.csv"
    trace_path = tmp_path / "trace.csv"
    save_contour(grid_path, contour)
    save_zero_trace(trace_path, contour)

    grid = read_table(grid_path, required_columns=CONTOUR_COLUMNS)
    assert list(grid) == list(CONTOUR_COLUMNS)
    # row-major over (kappa_ex, delta12)
    assert grid["kappa_ex"].tolist() == [7.0, 7.0, 8.0, 8.0]
    assert grid["delta12"].tolist() == [20.0, 30.0, 20.0, 30.0]
    assert np.array_equal(grid["t_fwd"], contour.t_fwd.ravel())

    trace = read_table(trace_path, required_columns=CONTOUR_COLUMNS)
    stacked = np.column_stack([trace[name] for name in CONTOUR_COLUMNS])
    assert np.array_equal(stacked, contour.zero_tb_rows)
