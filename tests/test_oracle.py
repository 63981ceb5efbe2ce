import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from ringqed import oracle
from ringqed.errors import (
    NonUniqueSteadyStateError,
    SteadyStateError,
    TruncationError,
    ValidationError,
)
from ringqed.model import DriveSpec, SystemParams, transmission
from ringqed.oracle import (
    TruncationSpec,
    build_liouvillian,
    oracle_transmission,
    steady_density_matrix,
)

IDEAL = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0)
NONIDEAL = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=20.0, p=0.8,
                        delta12=30.0)
WEAK = TruncationSpec(n_max=2, drive_amp=0.01)


def number_ops(n_max):
    """Occupation observables built independently of the solver internals.

    Follows the documented basis ordering (n_a, n_b, s1, s2) with the
    excited emitter level at index 1.
    """
    nph = np.diag(np.arange(n_max + 1.0))
    idp = np.eye(n_max + 1)
    excited = np.diag([0.0, 1.0])
    id2 = np.eye(2)
    n_a = np.kron(np.kron(np.kron(nph, idp), id2), id2)
    n_b = np.kron(np.kron(np.kron(idp, nph), id2), id2)
    pop1 = np.kron(np.kron(np.kron(idp, idp), excited), id2)
    pop2 = np.kron(np.kron(np.kron(idp, idp), id2), excited)
    return n_a, n_b, pop1, pop2


def direct_steady_state(lio):
    """rho from one SuperLU solve with row 0 replaced by the trace row."""
    d = math.isqrt(lio.shape[0])
    trace_row = sparse.csr_matrix(np.eye(d).reshape(1, -1, order="F"))
    constrained = sparse.vstack([trace_row, sparse.csr_matrix(lio)[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    return splu(constrained).solve(rhs).reshape((d, d), order="F")


# --- truncation spec ---


def test_truncation_spec_validation():
    with pytest.raises(TruncationError):
        TruncationSpec(n_max=0)
    with pytest.raises(TruncationError, match="maximum"):
        TruncationSpec(n_max=5)
    with pytest.raises(TruncationError):
        TruncationSpec(n_max=2.5)
    with pytest.raises(ValidationError, match="drive_amp"):
        TruncationSpec(n_max=2, drive_amp=-0.01)
    with pytest.raises(ValidationError, match="drive_amp"):
        TruncationSpec(n_max=2, drive_amp=np.nan)


def test_truncation_spec_dimension():
    assert TruncationSpec(n_max=2).dimension == 36
    assert TruncationSpec(n_max=3).dimension == 64


# --- generator structure ---


def test_liouvillian_preserves_trace():
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("forward", -12.0))
    d = WEAK.dimension
    assert lio.shape == (d * d, d * d)
    # Tr(L rho) must vanish for every rho: the trace row annihilates L
    trace_row = np.zeros(d * d)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(trace_row @ lio.toarray())) < 1e-10


def test_undriven_part_is_liouvillian_without_drive():
    # the coherent drive is the only term that changes the excitation number
    silent = TruncationSpec(n_max=2, drive_amp=0.0)
    driven = TruncationSpec(n_max=2, drive_amp=0.3)
    for direction in ("forward", "backward"):
        drive = DriveSpec(direction, 4.0)
        lio = build_liouvillian(NONIDEAL, driven, drive)
        conserving = oracle._excitation_conserving(lio, driven.dimension)
        assert abs(conserving - build_liouvillian(NONIDEAL, silent, drive)).max() == 0.0


# --- steady-state physicality ---


def test_steady_state_is_physical():
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("backward", -12.0))
    rho = steady_density_matrix(lio)
    assert rho.dimension == 36
    assert rho.n_max == 2
    mat = rho.matrix
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
    assert abs(np.trace(mat) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(mat).min() > -1e-8
    # the weak drive barely perturbs the vacuum
    assert 0.99 < rho.purity <= 1.0 + 1e-9


def test_perfect_helicity_leaves_reverse_mode_dark():
    # with p = 1 and no backscattering the forward drive addresses only
    # mode a and transition 1; mode b and transition 2 stay empty
    lio = build_liouvillian(IDEAL, WEAK, DriveSpec("forward", -20.0))
    rho = steady_density_matrix(lio)
    n_a, n_b, pop1, pop2 = number_ops(2)
    assert abs(rho.expectation(n_a)) > 1e-7
    assert abs(rho.expectation(pop1)) > 1e-7
    assert abs(rho.expectation(n_b)) < 1e-14
    assert abs(rho.expectation(pop2)) < 1e-14


# --- agreement with the linearized model ---


def test_bare_cavity_matches_linear_model():
    # without an emitter the system is exactly linear, so the only error
    # left is the photon-number cutoff, negligible at this drive
    bare = SystemParams(g0=0.0, kappa_i=3.0, kappa_ex=5.0)
    for detuning in (0.0, 2.0):
        t_orc = oracle_transmission(bare, WEAK, "forward", detuning)
        t_lin = transmission(bare, DriveSpec("forward", detuning))
        assert abs(t_orc - t_lin) < 1e-9


def test_reciprocal_when_levels_are_degenerate():
    # delta12 = 0 removes the only direction-sensitive energy scale;
    # the residual difference is the weak-drive nonlinearity
    params = SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, h=20.0, p=0.8)
    for detuning in (-10.0, 3.0):
        t_fwd = oracle_transmission(params, WEAK, "forward", detuning)
        t_bwd = oracle_transmission(params, WEAK, "backward", detuning)
        assert abs(t_fwd - t_bwd) < 5e-6


def test_matches_linear_model_at_weak_drive():
    for direction in ("forward", "backward"):
        for detuning in (-12.0, 0.0, 25.0):
            t_orc = oracle_transmission(NONIDEAL, WEAK, direction, detuning)
            t_lin = transmission(NONIDEAL, DriveSpec(direction, detuning))
            assert abs(t_orc - t_lin) / max(t_lin, 1e-2) < 1e-4


def test_strong_drive_departs_from_linear_model():
    # at the polariton dip the emitter saturates once the drive is of
    # order gamma, which the linearized model cannot capture
    strong = TruncationSpec(n_max=3, drive_amp=1.0)
    t_orc = oracle_transmission(IDEAL, strong, "forward", -20.0)
    t_lin = transmission(IDEAL, DriveSpec("forward", -20.0))
    assert abs(t_orc - t_lin) > 1e-3


def test_cutoff_insensitive_at_weak_drive():
    t2 = oracle_transmission(NONIDEAL, WEAK, "forward", -12.0)
    t3 = oracle_transmission(
        NONIDEAL, TruncationSpec(n_max=3, drive_amp=0.01), "forward", -12.0
    )
    assert abs(t3 - t2) < 1e-10


# --- solver paths ---

oracle_params = st.builds(
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


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    oracle_params,
    st.floats(1e-3, 3.0),
    st.sampled_from(["forward", "backward"]),
    st.floats(-60.0, 60.0),
)
def test_steady_state_matches_direct_solve_randomized(params, amp, direction, detuning):
    trunc = TruncationSpec(n_max=2, drive_amp=amp)
    lio = build_liouvillian(params, trunc, DriveSpec(direction, detuning))
    rho = steady_density_matrix(lio).matrix
    assert np.max(np.abs(rho - direct_steady_state(lio))) <= 1e-12


def hermiticity_breaking(lio, d):
    """lio conjugated by a scaling of rho[1, 0] alone.

    Its null vector is the steady state with rho[1, 0] doubled and
    rho[0, 1] kept, which has unit trace but is not Hermitian.
    """
    scale = np.ones(d * d)
    scale[1] = 2.0
    return (sparse.diags(scale) @ lio @ sparse.diags(1.0 / scale)).tocsc()


def test_gmres_failure_falls_back_to_direct_solve(monkeypatch):
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("forward", -12.0))
    expected = steady_density_matrix(lio).matrix
    skewed = hermiticity_breaking(lio, WEAK.dimension)
    with pytest.raises(SteadyStateError, match="Hermiticity"):
        steady_density_matrix(skewed)

    factored = []

    def counting_splu(matrix, **kwargs):
        factored.append(matrix.nnz)
        return splu(matrix, **kwargs)

    def failing_gmres(matrix, rhs, **kwargs):
        return np.full_like(rhs, np.nan), 1

    monkeypatch.setattr(oracle, "splu", counting_splu)
    monkeypatch.setattr(oracle, "gmres", failing_gmres)
    rho = steady_density_matrix(lio).matrix
    # the preconditioner, then the full matrix, which has the drive's entries
    assert len(factored) == 2 and factored[1] > factored[0]
    assert np.max(np.abs(rho - expected)) <= 1e-14
    assert np.max(np.abs(rho - direct_steady_state(lio))) <= 1e-14
    with pytest.raises(SteadyStateError, match="Hermiticity"):
        steady_density_matrix(skewed)


def test_other_dimensions_solve_directly():
    # a driven, decaying two-level system is not in the (n+1)**2 * 4 basis
    sm = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    drive = 0.5 * (sm + sm.T)
    lio = oracle._commutator_superop(drive) + oracle._dissipator_superop(sm, 1.0)
    rho = steady_density_matrix(lio).matrix
    assert np.max(np.abs(rho - direct_steady_state(lio.tocsc()))) <= 1e-14
    # resonance fluorescence with H = (Omega/2) sigma_x, Omega = gamma = 1:
    # excited population s/(2(1+s)) with s = 2 Omega^2 / gamma^2 = 2
    assert rho[1, 1].real == pytest.approx(1.0 / 3.0, abs=1e-14)


# --- failure modes ---


def test_degenerate_null_space_raises():
    zero = sparse.csc_matrix((16, 16), dtype=complex)
    with pytest.raises(NonUniqueSteadyStateError) as info:
        steady_density_matrix(zero)
    assert info.value.null_dimension == 16


def test_steady_state_input_validation():
    with pytest.raises(ValidationError, match="square"):
        steady_density_matrix(sparse.csc_matrix((16, 9), dtype=complex))
    with pytest.raises(ValidationError, match="perfect square"):
        steady_density_matrix(sparse.identity(15, format="csc", dtype=complex))


def test_oracle_transmission_requires_drive():
    silent = TruncationSpec(n_max=2, drive_amp=0.0)
    with pytest.raises(ValidationError, match="drive_amp"):
        oracle_transmission(IDEAL, silent, "forward", 0.0)
