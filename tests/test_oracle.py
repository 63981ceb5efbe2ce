import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from ringqed.model import DriveSpec, SystemParams, build_linear_system, couplings, transmission
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


def test_truncation_spec_stores_integer_cutoff():
    # a JSON config may give the cutoff as 2.0
    for n_max in (2.0, np.int64(2)):
        trunc = TruncationSpec(n_max=n_max)
        assert type(trunc.n_max) is int and trunc.n_max == 2
        assert type(trunc.dimension) is int and trunc.dimension == 36
    assert TruncationSpec(n_max=2.0) == TruncationSpec(n_max=2)


# --- generator structure ---

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


def test_liouvillian_preserves_trace():
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("forward", -12.0))
    d = WEAK.dimension
    assert lio.shape == (d * d, d * d)
    # Tr(L rho) must vanish for every rho: the trace row annihilates L
    trace_row = np.zeros(d * d)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(trace_row @ lio.toarray())) < 1e-10


def lowering_operators(n_max):
    """Sparse (a, b, s1, s2) in the documented basis order, built with kron."""
    ann = sparse.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    idp, id2 = sparse.identity(n_max + 1), sparse.identity(2)
    sm = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def embed(*ops):
        return reduce(lambda x, y: sparse.kron(x, y, format="csr"), ops)

    return (embed(ann, idp, id2, id2), embed(idp, ann, id2, id2),
            embed(idp, idp, sm, id2), embed(idp, idp, id2, sm))


def commutator(h):
    """rho -> -i (H rho - rho H) under column stacking."""
    ident = sparse.identity(h.shape[0], format="csr")
    return -1j * (sparse.kron(ident, h, format="csr") - sparse.kron(h.T, ident, format="csr"))


def dissipator(op, rate):
    """rho -> rate * (O rho O' - (O'O rho + rho O'O)/2)."""
    ident = sparse.identity(op.shape[0], format="csr")
    opd_op = (op.conj().T @ op).tocsr()
    jump = sparse.kron(op.conj(), op, format="csr")
    left = sparse.kron(ident, opd_op, format="csr")
    right = sparse.kron(opd_op.T, ident, format="csr")
    return rate * (jump - 0.5 * (left + right))


def reference_liouvillian(params, trunc, drive):
    """The generator assembled operator by operator: H summed, then kron."""
    a, b, s1, s2 = lowering_operators(trunc.n_max)
    gp, gm = couplings(params.g0, params.theta, params.p)
    proj1 = (s1.conj().T @ s1).tocsr()
    proj2 = (s2.conj().T @ s2).tocsr()
    h = (params.delta12 / 2.0) * (proj1 - proj2)
    h = h + params.h * (a @ b.conj().T + b @ a.conj().T)
    inter = gp * (s1.conj().T @ a) + gm * (s2.conj().T @ a)
    inter = inter + np.conj(gm) * (s1.conj().T @ b) + np.conj(gp) * (s2.conj().T @ b)
    h = h + inter + inter.conj().T
    drive_op = a if drive.forward else b
    h = h + trunc.drive_amp * (drive_op + drive_op.conj().T)
    lio = commutator(h.tocsr())
    lio = lio + dissipator(a, 2.0 * params.kappa) + dissipator(b, 2.0 * params.kappa)
    lio = lio + dissipator(s1, params.gamma) + dissipator(s2, params.gamma)
    number = (a.conj().T @ a + b.conj().T @ b + proj1 + proj2).tocsr()
    return (lio + drive.detuning * commutator(number)).tocsc()


@settings(max_examples=40)
@given(
    oracle_params,
    st.sets(st.sampled_from(["h", "p", "delta12"])),
    st.integers(1, 3),
    st.sampled_from(["forward", "backward"]),
    st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
    st.floats(-60.0, 60.0),
)
def test_liouvillian_matches_reference_assembly(params, ideal, n_max, direction, amp, detuning):
    # h = 0, p = 1 and delta12 = 0 each remove entries from the pattern
    params = replace(params, **{name: 1.0 if name == "p" else 0.0 for name in ideal})
    trunc = TruncationSpec(n_max=n_max, drive_amp=amp)
    drive = DriveSpec(direction, detuning)
    lio = build_liouvillian(params, trunc, drive)
    reference = reference_liouvillian(params, trunc, drive)
    assert np.array_equal(lio.indptr, reference.indptr)
    assert np.array_equal(lio.indices, reference.indices)
    scale = np.max(np.abs(reference.data))
    assert np.max(np.abs(lio.data - reference.data)) <= 1e-13 * scale


def test_undriven_part_is_liouvillian_without_drive():
    # the coherent drive is the only term that changes the coherence order
    silent = TruncationSpec(n_max=2, drive_amp=0.0)
    driven = TruncationSpec(n_max=2, drive_amp=0.3)
    d = driven.dimension
    kept = oracle._levels(d)[0]
    for direction in ("forward", "backward"):
        drive = DriveSpec(direction, 4.0)
        constrained = oracle._trace_constrained(build_liouvillian(NONIDEAL, driven, drive))
        matrix = oracle._preconditioner_matrix(constrained, d)
        reference = oracle._trace_constrained(build_liouvillian(NONIDEAL, silent, drive))
        reference = reference[kept][:, kept]
        assert matrix.nnz == reference.nnz
        assert abs(matrix - reference).max() == 0.0


# --- steady-state physicality ---


def test_steady_state_is_physical():
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("backward", -12.0))
    mat = steady_density_matrix(lio).matrix
    # (n_max + 1)**2 photon states times 4 emitter states, at n_max = 2
    assert mat.shape == (36, 36)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
    assert abs(np.trace(mat) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(mat).min() > -1e-8
    # the weak drive barely perturbs the vacuum: purity Tr(rho^2) near 1
    assert 0.99 < float(np.real(np.trace(mat @ mat))) <= 1.0 + 1e-9


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


@settings(max_examples=25)
@given(
    st.builds(
        SystemParams,
        g0=st.floats(0.0, 30.0),
        kappa_i=st.floats(0.5, 8.0),
        kappa_ex=st.floats(0.5, 15.0),
        theta=st.floats(-math.pi, math.pi),
        p=st.floats(-1.0, 1.0),
        h=st.floats(0.0, 25.0),
        delta12=st.floats(-40.0, 40.0),
    ),
    st.sampled_from(["forward", "backward"]),
    st.floats(-50.0, 50.0),
)
# no emitter: no drive**2 term, and the cutoff's drive**4 term is all that is left
@example(SystemParams(g0=0.0, kappa_i=1.0, kappa_ex=0.5, p=0.0, h=0.0), "forward", 0.0)
def test_drive_limit_extrapolation_matches_linear_model(params, direction, detuning):
    # the oracle departs from the linear model in even powers of the drive;
    # Richardson extrapolation over drives 0.01, 0.02 and 0.04 removes the
    # drive**2 and drive**4 terms
    t1, t2, t4 = (
        oracle_transmission(params, TruncationSpec(n_max=2, drive_amp=amp), direction, detuning)
        for amp in (0.01, 0.02, 0.04)
    )
    linear = transmission(params, DriveSpec(direction, detuning))
    assert abs((64.0 * t1 - 20.0 * t2 + t4) / 45.0 - linear) <= 1e-9


@settings(max_examples=60)
@given(
    oracle_params,
    st.integers(1, 3),
    st.sampled_from(["forward", "backward"]),
    st.floats(-60.0, 60.0),
    st.floats(1e-3, 3.0),
)
# no emitter coupling, and every optional term zero, at the smallest cutoff
@example(SystemParams(g0=0.0, kappa_i=1.0, kappa_ex=0.5, p=0.0, h=0.0), 1, "forward", 0.0, 0.01)
@example(SystemParams(g0=20.0, kappa_i=3.0, kappa_ex=5.0, p=1.0, h=0.0), 3, "backward", -12.0, 3.0)
def test_drive_limit_is_the_linear_model_by_construction(params, n_max, direction, detuning, amp):
    # the expected matrices come from the 4x4 model alone; the coherences
    # |e><0| with e the single excitations (a, b, sigma1, sigma2), in the
    # documented basis order, are the vec indices e + d*0 = e
    drive = DriveSpec(direction, detuning)
    system = build_linear_system(params, drive)
    shape = (n_max + 1, n_max + 1, 2, 2)
    singles = [int(np.ravel_multi_index(e, shape)) for e in np.eye(4, dtype=int)]
    undriven = build_liouvillian(params, TruncationSpec(n_max=n_max, drive_amp=0.0), drive)
    columns = undriven[:, singles].toarray()
    assert np.array_equal(columns[singles], system.matrix)
    assert not np.delete(columns, singles, axis=0).any()
    driven = build_liouvillian(params, TruncationSpec(n_max=n_max, drive_amp=amp), drive)
    from_vacuum = (driven - undriven)[:, [0]].toarray()[:, 0]
    assert np.array_equal(from_vacuum[singles], -1j * amp * system.drive)


# --- solver paths ---


@settings(max_examples=40)
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


def undriven(params, n_max, detuning):
    """The generator at zero drive, which conserves the coherence order, and d."""
    trunc = TruncationSpec(n_max=n_max, drive_amp=0.0)
    lio = build_liouvillian(params, trunc, DriveSpec("forward", detuning))
    return sparse.csr_matrix(lio), trunc.dimension


def excitation_orders(n_max):
    """(coherence order k, N_i) of each vec index i + d*j."""
    number = sum(np.diag(op) for op in number_ops(n_max)).astype(int)
    d = number.size
    n_i = np.tile(number, d)
    return n_i - np.repeat(number, d), n_i


def swap_indices(d):
    """The index of vec(rho') entry by entry: i + d*j -> j + d*i."""
    return np.arange(d * d).reshape((d, d)).T.ravel()


preconditioner_cases = st.tuples(
    oracle_params, st.sampled_from([1, 2, 3]), st.floats(-60.0, 60.0)
)


@settings(max_examples=15, deadline=None)
@given(preconditioner_cases)
def test_undriven_generator_is_its_own_mirror(case):
    # L(rho') = L(rho)': swapping i and j conjugates the generator
    conserving, d = undriven(*case)
    swap = swap_indices(d)
    mirrored = conserving[swap][:, swap]
    assert abs(mirrored - conserving.conj()).max() == 0.0


@settings(max_examples=15, deadline=None)
@given(preconditioner_cases, st.integers(0, 2**32 - 1))
def test_preconditioner_solves_the_constrained_undriven_system(case, seed):
    params, n_max, detuning = case
    trunc = TruncationSpec(n_max=n_max, drive_amp=0.05)
    lio = build_liouvillian(params, trunc, DriveSpec("backward", detuning))
    d = trunc.dimension
    constrained = oracle._trace_constrained(lio)
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    precond = oracle._level_preconditioner(constrained, d)
    applied = []

    def recording(r):
        applied.append(r.copy())
        return precond(r)

    oracle._gmres(constrained, rhs, recording)
    conserving, _ = undriven(params, n_max, detuning)
    reference = splu(oracle._trace_constrained(conserving).tocsc())
    # GMRES starts from the undriven solution
    assert np.array_equal(applied[0], rhs)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    for b in (rhs, r):
        expected = reference.solve(b)
        assert np.linalg.norm(precond(b) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_preconditioner_order_is_block_upper_triangular(n_max):
    conserving, d = undriven(NONIDEAL, n_max, 7.0)
    kept = oracle._levels(d)[0]
    order, n_i = excitation_orders(n_max)
    # no entry below the (level, k) diagonal blocks, the trace row included
    restricted = oracle._trace_constrained(conserving)[kept][:, kept].tocoo()
    assert restricted.nnz > 0
    rows, cols = kept[restricted.row], kept[restricted.col]
    assert np.array_equal(order[rows], order[cols])
    assert np.all(n_i[rows] <= n_i[cols])
    assert np.any(n_i[rows] < n_i[cols])
    # jumps reach the next level only; the trace row (vec index 0) every level
    above = (n_i[rows] < n_i[cols]) & (rows != 0)
    assert np.all(n_i[cols[above]] == n_i[rows[above]] + 1)
    assert np.array_equal(np.unique(n_i[cols[rows == 0]]), np.unique(n_i[kept]))


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_levels_sort_the_orders_k_nonnegative_by_level_then_order(n_max):
    d = TruncationSpec(n_max=n_max).dimension
    kept, mirrored, positive, place, order, bounds = oracle._levels(d)
    k, n_i = excitation_orders(n_max)
    assert np.array_equal(order, k)
    # each k >= 0 index once, in ascending (N_i, k, index), each level contiguous
    assert np.array_equal(np.sort(kept), np.flatnonzero(k >= 0))
    key = (n_i[kept] * 2 * d + k[kept]) * d * d + kept
    assert np.all(np.diff(key) > 0)
    assert bounds[0] == 0 and bounds[-1] == kept.size
    for level, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert np.all(n_i[kept[start:stop]] == level)
    # the mirrors of the k > 0 indices cover k < 0, so kept and they partition
    assert np.array_equal(mirrored, swap_indices(d)[kept])
    assert np.array_equal(positive, np.flatnonzero(k[kept] > 0))
    covered = np.concatenate((kept, mirrored[positive]))
    assert np.array_equal(np.sort(covered), np.arange(d * d))
    assert np.array_equal(place[kept], np.arange(kept.size))
    assert np.all(place[k < 0] == -1)


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
        factored.append((matrix.shape[0], matrix.nnz))
        return splu(matrix, **kwargs)

    level_preconditioner = oracle._level_preconditioner

    def useless_preconditioner(constrained, d):
        # the levels are factored, but every GMRES step comes back empty
        precond = level_preconditioner(constrained, d)
        return lambda r: 0.0 * precond(r)

    monkeypatch.setattr(oracle, "splu", counting_splu)
    monkeypatch.setattr(oracle, "_level_preconditioner", useless_preconditioner)
    rho = steady_density_matrix(lio).matrix
    # the levels GMRES reached, each once (their sizes differ at n_max 2),
    # then the full matrix, which has the drive's entries
    *levels, (full_dim, full_nnz) = factored
    assert len(levels) >= 1
    assert len({dim for dim, _ in levels}) == len(levels)
    assert all(dim < WEAK.dimension**2 for dim, _ in levels)
    assert full_dim == WEAK.dimension**2
    assert full_nnz > max(nnz for _, nnz in levels)
    assert np.max(np.abs(rho - expected)) <= 1e-14
    assert np.max(np.abs(rho - direct_steady_state(lio))) <= 1e-14
    with pytest.raises(SteadyStateError, match="Hermiticity"):
        steady_density_matrix(skewed)


@pytest.mark.parametrize("n_max", [3, 4])
def test_weak_drive_point_applies_the_preconditioner_at_most_six_times(n_max, monkeypatch):
    applied = []
    level_preconditioner = oracle._level_preconditioner

    def counting_preconditioner(constrained, d):
        precond = level_preconditioner(constrained, d)

        def counted(r):
            applied.append(r.shape)
            return precond(r)

        return counted

    monkeypatch.setattr(oracle, "_level_preconditioner", counting_preconditioner)
    trunc = TruncationSpec(n_max=n_max, drive_amp=0.01)
    for direction in ("forward", "backward"):
        applied.clear()
        oracle_transmission(NONIDEAL, trunc, direction, -12.0)
        # x0, then one per GMRES step
        assert 1 < len(applied) <= 6


def level_sizes(n_max):
    return list(np.diff(oracle._levels(TruncationSpec(n_max=n_max).dimension)[5]))


@pytest.fixture
def factored(monkeypatch):
    """Sizes of the matrices the oracle factors, in order."""
    sizes = []

    def counting_splu(matrix, **kwargs):
        sizes.append(matrix.shape[0])
        return splu(matrix, **kwargs)

    monkeypatch.setattr(oracle, "splu", counting_splu)
    return sizes


def test_weak_drive_n_max_4_point_factors_levels_0_to_4(factored):
    trunc = TruncationSpec(n_max=4, drive_amp=0.01)
    oracle_transmission(NONIDEAL, trunc, "forward", -12.0)
    # five preconditioner applications reach levels 0-4 of 11
    assert len(level_sizes(4)) == 11
    assert factored == level_sizes(4)[:5]


def test_strong_drive_reaches_every_level(factored):
    lio = build_liouvillian(NONIDEAL, TruncationSpec(n_max=3, drive_amp=3.0),
                            DriveSpec("forward", -12.0))
    rho = steady_density_matrix(lio).matrix
    assert factored == level_sizes(3)
    assert np.max(np.abs(rho - direct_steady_state(lio))) <= 1e-12


def test_singular_reached_level_falls_back_to_direct_solve(monkeypatch):
    lio = build_liouvillian(NONIDEAL, WEAK, DriveSpec("backward", 3.0))
    factored = []

    def failing_splu(matrix, **kwargs):
        factored.append(matrix.shape[0])
        if 1 < matrix.shape[0] < WEAK.dimension**2:
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(oracle, "splu", failing_splu)
    rho = steady_density_matrix(lio).matrix
    # level 0, then level 1 fails inside GMRES, then the full matrix
    assert factored == level_sizes(WEAK.n_max)[:2] + [WEAK.dimension**2]
    assert np.max(np.abs(rho - direct_steady_state(lio))) <= 1e-14


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


def test_shared_factors_give_the_same_transmissions():
    # both directions at a detuning reuse the first one's level factors,
    # which are the factors each direction would have made on its own
    directions = ("forward", "backward")
    detunings = [-12.0, 3.0, 25.0]
    table = oracle_transmission(NONIDEAL, WEAK, directions, detunings)
    assert table.shape == (3, 2)
    for row, detuning in enumerate(detunings):
        for column, direction in enumerate(directions):
            alone = oracle_transmission(NONIDEAL, WEAK, direction, detuning)
            assert isinstance(alone, float)
            assert table[row, column] == alone
    assert np.array_equal(oracle_transmission(NONIDEAL, WEAK, "backward", detunings), table[:, 1])
    assert np.array_equal(oracle_transmission(NONIDEAL, WEAK, directions, 3.0), table[1])
    with pytest.raises(ValidationError, match="detuning"):
        oracle_transmission(NONIDEAL, WEAK, directions, [0.0, True])
    with pytest.raises(ValidationError, match="direction"):
        oracle_transmission(NONIDEAL, WEAK, ["forward", "sideways"], 0.0)


def test_oracle_transmission_requires_drive():
    silent = TruncationSpec(n_max=2, drive_amp=0.0)
    with pytest.raises(ValidationError, match="drive_amp"):
        oracle_transmission(IDEAL, silent, "forward", 0.0)
