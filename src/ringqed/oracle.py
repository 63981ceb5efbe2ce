"""Brute-force steady state of the full master equation.

The linearized 4x4 model treats the emitter lowering operators as bosonic.
This module solves the full Lindblad master equation on a truncated photon
space with true two-level lowering operators, including the sector where
both excited states are occupied, and is used to certify the linearized
model at weak drive.

Basis ordering is (n_a, n_b, s1, s2) lexicographic with photon numbers
0..n_max per cavity mode and s = 0 (ground) or 1 (excited) per transition;
the Hilbert dimension is (n_max+1)**2 * 4. Density matrices are vectorized
column-major: vec(rho)[i + d*j] = rho[i, j].

Every Liouvillian is one weighted sum over a cached term basis: eleven
parameter-free superoperators per n_max on one shared sparse pattern, so
a new parameter set costs one sparse product and no kron.

The steady state solves the Liouvillian with row 0 replaced by the trace
functional, by GMRES preconditioned with its undriven part. Every term
but the coherent drive conserves the coherence order k = N_i - N_j, where
N counts excitations, so the undriven part is the entries of the
constrained matrix whose row and column share an order k; the trace row
lies in k = 0. A Lindblad generator maps rho' to L(rho)', so block -k is
the complex conjugate of block k: only k >= 0 is factored, and the
k <= 0 part of a vector goes through it conjugated, as a second column.
Damping lowers N_i and N_j together, so in ascending N_i the k >= 0 part
is block upper triangular by level: jumps reach level N_i + 1 only, the
trace row every level. Each level's diagonal block gets its own
natural-order LU, and the off-diagonal blocks are applied by block
back-substitution, so no LU fills them. Where that does not apply (a
dimension outside the basis, a singular level block, GMRES not
converging) a direct LU of the full constrained matrix is the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import (
    NonUniqueSteadyStateError,
    SteadyStateError,
    TruncationError,
    ValidationError,
)
from .model import DriveSpec, SystemParams, _transmitted, couplings
from .tableio import finite

MAX_N_MAX = 4


@dataclass(frozen=True)
class TruncationSpec:
    """Photon cutoff and probe amplitude for the brute-force solver.

    drive_amp is intended to be well below gamma so the emitter stays
    weakly excited; zero is allowed (undriven steady state).
    """

    n_max: int
    drive_amp: float = 0.01

    def __post_init__(self):
        if not finite(self.n_max) or int(self.n_max) != self.n_max or self.n_max < 1:
            raise TruncationError("n_max must be an integer >= 1")
        if self.n_max > MAX_N_MAX:
            raise TruncationError(
                "n_max=%d exceeds the supported maximum %d" % (self.n_max, MAX_N_MAX)
            )
        if not finite(self.drive_amp) or self.drive_amp < 0:
            raise ValidationError("drive_amp must be finite and >= 0")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** 2 * 4


@dataclass(frozen=True, eq=False)
class SteadyDensityMatrix:
    """Steady-state density matrix over the truncated space."""

    matrix: np.ndarray

    def expectation(self, operator) -> complex:
        """Tr(operator @ rho) for a sparse or dense operator."""
        return complex(np.trace(operator @ self.matrix))


@lru_cache(maxsize=8)
def _mode_operators(n_levels: int):
    """Sparse lowering operators (a, b, s1, s2) on the composite space."""
    ann = sparse.diags(np.sqrt(np.arange(1, n_levels)), 1, format="csr")
    idp = sparse.identity(n_levels, format="csr")
    sm = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    id2 = sparse.identity(2, format="csr")

    def embed(ops):
        out = ops[0]
        for op in ops[1:]:
            out = sparse.kron(out, op, format="csr")
        return out

    a = embed((ann, idp, id2, id2))
    b = embed((idp, ann, id2, id2))
    s1 = embed((idp, idp, sm, id2))
    s2 = embed((idp, idp, id2, sm))
    return a, b, s1, s2


def _commutator_superop(h) -> sparse.csr_matrix:
    """Superoperator of rho -> -i (H rho - rho H) under column stacking."""
    dim = h.shape[0]
    ident = sparse.identity(dim, format="csr")
    return -1j * (sparse.kron(ident, h, format="csr") - sparse.kron(h.T, ident, format="csr"))


def _dissipator_superop(op, rate: float) -> sparse.csr_matrix:
    """Superoperator of rate * (O rho O' - (O'O rho + rho O'O)/2)."""
    dim = op.shape[0]
    ident = sparse.identity(dim, format="csr")
    opd_op = (op.conj().T @ op).tocsr()
    jump = sparse.kron(op.conj(), op, format="csr")
    left = sparse.kron(ident, opd_op, format="csr")
    right = sparse.kron(opd_op.T, ident, format="csr")
    return rate * (jump - 0.5 * (left + right))


@lru_cache(maxsize=MAX_N_MAX)
def _liouvillian_pieces(n_max: int):
    """Parameter-free superoperator of each Liouvillian term, on one pattern.

    The Liouvillian is sum_t w_t * T_t over 11 real superoperators T_t.
    The first nine are commutators, T = kron(I, H) - kron(H.T, I), with
    w = -i times the coefficient of H: delta12 on (P1 - P2)/2, h on
    ab' + ba', g_plus on s1'a + b's2 and conj(g_plus) on its adjoint,
    g_minus on s2'a + b's1 and conj(g_minus) on its adjoint, the drive
    on a + a' and on b + b', and the detuning on the excitation number.
    The last two are the dissipators D(a) + D(b) at rate 2*kappa and
    D(s1) + D(s2) at rate gamma.

    Returns (indices, indptr, basis): the CSC pattern shared by all
    terms, and a sparse (pattern nnz, 11) matrix whose column t holds
    term t as (positions in the pattern, values).
    """
    a, b, s1, s2 = _mode_operators(n_max + 1)
    ad, bd, s1d, s2d = (op.T.tocsr() for op in (a, b, s1, s2))
    proj1, proj2 = s1d @ s1, s2d @ s2
    g_plus, g_minus = s1d @ a + bd @ s2, s2d @ a + bd @ s1
    hamiltonians = (
        (proj1 - proj2) / 2.0, a @ bd + b @ ad,
        g_plus, g_plus.T, g_minus, g_minus.T,
        a + ad, b + bd, ad @ a + bd @ b + proj1 + proj2,
    )
    terms = [(1j * _commutator_superop(op)).real for op in hamiltonians]
    terms.append(_dissipator_superop(a, 1.0) + _dissipator_superop(b, 1.0))
    terms.append(_dissipator_superop(s1, 1.0) + _dissipator_superop(s2, 1.0))

    coos = [sparse.coo_matrix(term) for term in terms]
    n2 = coos[0].shape[0]
    keys = np.concatenate([coo.col.astype(np.int64) * n2 + coo.row for coo in coos])
    pattern = np.unique(keys)
    indices = (pattern % n2).astype(np.int32)
    indptr = np.searchsorted(pattern, np.arange(n2 + 1) * n2).astype(np.int32)
    basis = sparse.csc_matrix(
        (
            np.concatenate([coo.data for coo in coos]),
            np.searchsorted(pattern, keys),
            np.cumsum([0] + [coo.nnz for coo in coos]),
        ),
        shape=(pattern.size, len(coos)),
    )
    for array in (indices, indptr, basis.data, basis.indices, basis.indptr):
        array.flags.writeable = False
    return indices, indptr, basis


def build_liouvillian(
    params: SystemParams, trunc: TruncationSpec, drive: DriveSpec
) -> sparse.csc_matrix:
    """Sparse generator of rho-dot for the driven, lossy system.

    Implements rho-dot = -i[H, rho] + 2*kappa*L(a) + 2*kappa*L(b)
    + gamma*L(sigma1) + gamma*L(sigma2), where H carries the detunings,
    backscattering, helicity-split couplings, and the coherent drive of
    amplitude trunc.drive_amp on mode a (forward) or b (backward). A term
    whose coefficient vanishes (h = 0, p = 1, delta12 = 0, zero drive)
    leaves no entries behind.
    """
    indices, indptr, basis = _liouvillian_pieces(trunc.n_max)
    gp, gm = couplings(params.g0, params.theta, params.p)
    amp = trunc.drive_amp
    drives = (amp, 0.0) if drive.forward else (0.0, amp)
    energies = (params.delta12, params.h, gp, np.conj(gp), gm, np.conj(gm), *drives, drive.detuning)
    weights = np.array([-1j * c for c in energies] + [2.0 * params.kappa, params.gamma])
    data = basis @ weights
    if np.count_nonzero(data) < data.size:
        nonzero = np.flatnonzero(data)
        data, indices, indptr = data[nonzero], indices[nonzero], np.searchsorted(nonzero, indptr)
    n2 = indptr.size - 1
    return sparse.csc_matrix((data, indices, indptr), shape=(n2, n2))


def _diagnose_singular(liouvillian) -> int | None:
    dim = liouvillian.shape[0]
    if dim <= 1024:
        dense = liouvillian.toarray()
        sigma = np.linalg.svd(dense, compute_uv=False)
        return int(np.sum(sigma < 1e-10 * max(sigma[0], 1e-300)))
    return None


def _trace_constrained(matrix) -> sparse.csr_matrix:
    """The superoperator with row 0 replaced by the trace functional."""
    csr = sparse.csr_matrix(matrix)
    d = math.isqrt(csr.shape[0])
    start = csr.indptr[1]
    indptr = np.concatenate(([0], csr.indptr[1:] - start + d))
    indices = np.concatenate((np.arange(d) * (d + 1), csr.indices[start:]))
    data = np.concatenate((np.ones(d, dtype=csr.dtype), csr.data[start:]))
    return sparse.csr_matrix((data, indices, indptr), shape=csr.shape)


@lru_cache(maxsize=8)
def _levels(d: int):
    """Vec indices of the coherence orders k >= 0 in excitation order, or None.

    Returns (kept, mirrored, positive, place, order, bounds): the indices
    i + d*j with k = N_i - N_j >= 0, sorted by (N_i, k, index); their
    mirrors j + d*i; the positions in kept whose k is > 0; the position
    of each vec index in kept (-1 where k < 0); the coherence order of
    each vec index; and the bounds of the levels N_i = 0, 1, ... in kept.
    None if d is not a dimension of the documented basis.
    """
    n_levels = math.isqrt(d // 4)
    if n_levels * n_levels * 4 != d:
        return None
    number = np.indices((n_levels, n_levels, 2, 2)).sum(axis=0).ravel()
    vec = np.arange(d * d)
    rows, cols = vec % d, vec // d
    order = number[rows] - number[cols]
    kept = vec[order >= 0]
    kept = kept[np.lexsort((order[kept], number[rows[kept]]))]
    mirrored = cols[kept] + d * rows[kept]
    positive = np.flatnonzero(order[kept] > 0)
    place = np.full(d * d, -1)
    place[kept] = np.arange(kept.size)
    bounds = np.searchsorted(number[rows[kept]], np.arange(number.max() + 2))
    for array in (kept, mirrored, positive, place, order, bounds):
        array.flags.writeable = False
    return kept, mirrored, positive, place, order, bounds


def _preconditioner_matrix(constrained, d: int) -> sparse.csc_matrix:
    """The entries of constrained whose row and column share an order k >= 0.

    Placed in _levels' order. The caller has checked that d is a dimension
    of the documented basis.
    """
    kept, _, _, place, order, _ = _levels(d)
    coo = constrained.tocoo()
    same = (order[coo.row] == order[coo.col]) & (order[coo.row] >= 0)
    return sparse.coo_matrix(
        (coo.data[same], (place[coo.row[same]], place[coo.col[same]])),
        shape=(kept.size,) * 2,
    ).tocsc()


def _preconditioned_solve(constrained, rhs, d: int):
    """GMRES on the constrained system, preconditioned by its undriven part.

    Returns None when d is not a dimension of the documented basis, a
    level block is singular, or GMRES does not converge.
    """
    levels = _levels(d)
    if levels is None:
        return None
    kept, mirrored, positive, _, _, bounds = levels
    matrix = _preconditioner_matrix(constrained, d)
    factors = []
    try:
        for start, stop in zip(bounds[:-1], bounds[1:]):
            lu = splu(matrix[start:stop, start:stop], permc_spec="NATURAL")
            factors.append((start, stop, lu, matrix[:start, start:stop]))
    except RuntimeError:
        return None
    factors.reverse()
    mirrored_positive = mirrored[positive]

    def solve(r):
        r = np.ravel(r)
        y = np.stack((r[kept], np.conj(r[mirrored])), axis=1)
        for start, stop, lu, above in factors:
            y[start:stop] = lu.solve(y[start:stop])
            if start:
                y[:start] -= above @ y[start:stop]
        x = np.empty(r.shape, dtype=complex)
        x[kept] = y[:, 0]
        x[mirrored_positive] = np.conj(y[positive, 1])
        return x

    precond = LinearOperator(constrained.shape, matvec=solve, dtype=complex)
    vec, info = gmres(
        constrained, rhs, x0=solve(rhs), M=precond,
        rtol=1e-14, atol=0.0, restart=50, maxiter=20,
    )
    return vec if info == 0 else None


def steady_density_matrix(liouvillian) -> SteadyDensityMatrix:
    """Null vector of the Liouvillian normalized to unit trace.

    Raises NonUniqueSteadyStateError if the null space is degenerate, and
    SteadyStateError if the residual of the Liouvillian exceeds 1e-8 or
    the result violates the Hermiticity, trace or positivity tolerance.
    """
    lio = sparse.csc_matrix(liouvillian)
    n2 = lio.shape[0]
    if lio.shape[0] != lio.shape[1]:
        raise ValidationError("liouvillian must be square")
    d = math.isqrt(n2)
    if d * d != n2:
        raise ValidationError("liouvillian dimension must be a perfect square")

    constrained = _trace_constrained(lio)
    rhs = np.zeros(n2, dtype=complex)
    rhs[0] = 1.0
    vec = _preconditioned_solve(constrained, rhs, d)
    if vec is None:
        try:
            vec = splu(constrained.tocsc()).solve(rhs)
        except RuntimeError as exc:
            null_dim = _diagnose_singular(lio)
            if null_dim is not None and null_dim > 1:
                raise NonUniqueSteadyStateError(
                    "steady state is not unique: Liouvillian null space has "
                    "dimension %d" % null_dim,
                    null_dimension=null_dim,
                ) from exc
            raise NonUniqueSteadyStateError(
                "trace-constrained steady-state solve is singular; the "
                "Liouvillian null space has dimension >= 2",
                null_dimension=null_dim,
            ) from exc

    residual = np.linalg.norm(lio @ vec)
    if not np.all(np.isfinite(vec)) or residual > 1e-8:
        raise SteadyStateError(
            "steady-state residual %.3e exceeds 1e-8" % residual
        )
    rho = vec.reshape((d, d), order="F")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    trace_dev = abs(np.trace(rho) - 1.0)
    if herm_dev > 1e-10 or trace_dev > 1e-10:
        raise SteadyStateError(
            "steady state violates Hermiticity (%.3e) or trace (%.3e) tolerance"
            % (herm_dev, trace_dev)
        )
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if min_eig < -1e-8:
        raise SteadyStateError(
            "steady state violates positivity: min eigenvalue %.3e" % min_eig
        )
    return SteadyDensityMatrix(matrix=rho)


def oracle_transmission(
    params: SystemParams, trunc: TruncationSpec, direction: str, detuning: float
) -> float:
    """Transmission from the full-master-equation steady state.

    Uses the same input-output formula as the linearized model with the
    intracavity amplitude per unit probe amplitude taken as
    Tr(o rho_ss) / drive_amp.
    """
    if trunc.drive_amp == 0:
        raise ValidationError("oracle transmission requires a nonzero drive_amp")
    drive = DriveSpec(direction, detuning)
    lio = build_liouvillian(params, trunc, drive)
    rho = steady_density_matrix(lio)
    a, b, _, _ = _mode_operators(trunc.n_max + 1)
    amp = rho.expectation(a if drive.forward else b)
    return _transmitted(params, amp / trunc.drive_amp)
