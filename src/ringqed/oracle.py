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
functional, by GMRES right-preconditioned with its undriven part. Every term
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
back-substitution, so no LU fills them. A level is factored the first
time a vector reaches it, and back-substitution starts at the vector's
highest level. The drive raises a vector's highest level by at most one
and the preconditioner never raises it, so each application reaches at
most one level more than the one before: a weak-drive point that
converges after five applications factors levels 0-4 only. The levels
above hold exact zeros, so skipping them changes no result. The
undriven part is the same for both directions and every drive
amplitude, so the solves at one detuning share its factors, and a later
solve factors whatever further levels it reaches.

A direct LU of the full constrained matrix is the fallback for a
dimension outside the basis, a constrained matrix with an empty row or
column, a singular level block that a solve reaches, and GMRES not
converging. An exactly singular level block that no vector reaches goes
undetected. build_liouvillian's generators have none: SystemParams
keeps kappa and gamma positive, so every level above 0 decays, and
level 0 holds the trace row.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

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
    """Steady-state density matrix over the truncated space.

    preconditioner is the solve with the undriven part that GMRES used,
    holding the level factors made so far, or None where none applies.
    A Liouvillian with the same parameters, cutoff and detuning has
    the same undriven part, whatever the drive's direction or amplitude,
    so its `steady_density_matrix` can reuse them, factoring any further
    level it reaches.
    """

    matrix: np.ndarray
    preconditioner: Callable | None = field(default=None, repr=False)

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


def _has_empty_line(csr) -> bool:
    """Whether the square CSR matrix has a row or a column with no stored entry."""
    n = csr.shape[0]
    return not (np.all(np.diff(csr.indptr)) and np.all(np.bincount(csr.indices, minlength=n)))


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


def _level_preconditioner(constrained, d: int):
    """Solve with the undriven part of constrained, factored level by level.

    A level is factored the first time a vector holds a nonzero in it or in
    a level above; back-substitution starts at the vector's highest level.
    The solve raises RuntimeError if a level it reaches is singular.
    Returns None when d is not a dimension of the documented basis or
    constrained has an empty row or column.
    """
    levels = _levels(d)
    if levels is None or _has_empty_line(constrained):
        return None
    kept, mirrored, positive, _, _, bounds = levels
    matrix = _preconditioner_matrix(constrained, d)
    factors = []
    mirrored_positive = mirrored[positive]

    def solve(r):
        y = np.stack((r[kept], np.conj(r[mirrored])), axis=1)
        # the levels up to the vector's highest; those above hold only zeros
        nonzero = np.flatnonzero(y)
        reached = np.searchsorted(bounds, nonzero[-1] // 2, side="right") if nonzero.size else 0
        for level in range(len(factors), reached):
            start, stop = bounds[level], bounds[level + 1]
            lu = splu(matrix[start:stop, start:stop], permc_spec="NATURAL")
            factors.append((start, stop, lu, matrix[:start, start:stop]))
        for start, stop, lu, above in reversed(factors[:reached]):
            y[start:stop] = lu.solve(y[start:stop])
            if start:
                y[:start] -= above @ y[start:stop]
        x = np.empty(r.shape, dtype=complex)
        x[kept] = y[:, 0]
        x[mirrored_positive] = np.conj(y[positive, 1])
        return x

    return solve


def _gmres(matrix, rhs, precond):
    """Right-preconditioned GMRES from x0 = precond(rhs), or None.

    Each step minimizes the true residual over x0 plus the span of the
    preconditioned basis vectors, which are kept as in flexible GMRES
    (Y. Saad, SIAM J. Sci. Comput. 14, 461 (1993)), so k steps apply
    precond k times and the update needs no further pass. Converged when
    |rhs - matrix @ x| <= 1e-14 |rhs|; None if that fails after 20
    cycles of at most 50 steps.
    """
    restart = 50
    tol = 1e-14 * np.linalg.norm(rhs)
    x = precond(rhs)
    for _ in range(20):
        residual = rhs - matrix @ x
        beta = np.linalg.norm(residual)
        if beta <= tol:
            return x
        basis, applied = [residual / beta], []
        hessenberg = np.zeros((restart + 1, restart), dtype=complex)
        target = np.zeros(restart + 1, dtype=complex)
        target[0] = beta
        for step in range(restart):
            applied.append(precond(basis[step]))
            w = matrix @ applied[step]
            for row, v in enumerate(basis):
                hessenberg[row, step] = np.vdot(v, w)
                w -= hessenberg[row, step] * v
            hessenberg[step + 1, step] = norm = np.linalg.norm(w)
            h, t = hessenberg[: step + 2, : step + 1], target[: step + 2]
            coef = np.linalg.lstsq(h, t)[0]
            if norm == 0.0 or np.linalg.norm(h @ coef - t) <= tol:
                break
            basis.append(w / norm)
        x = x + np.stack(applied, axis=1) @ coef
    return x if np.linalg.norm(rhs - matrix @ x) <= tol else None


def steady_density_matrix(liouvillian, preconditioner=None) -> SteadyDensityMatrix:
    """Null vector of the Liouvillian normalized to unit trace.

    preconditioner is the `preconditioner` of an earlier steady state with
    the same undriven part; by default one is made here. Either way a
    level block is factored only when a GMRES vector reaches it, and a
    singular one sends the solve to the direct LU. Raises
    NonUniqueSteadyStateError if the null space is degenerate, and
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
    if preconditioner is None:
        preconditioner = _level_preconditioner(constrained, d)
    try:
        vec = None if preconditioner is None else _gmres(constrained, rhs, preconditioner)
    except RuntimeError:  # a level block the solve reached is singular
        vec = None
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
    return SteadyDensityMatrix(matrix=rho, preconditioner=preconditioner)


def oracle_transmission(
    params: SystemParams, trunc: TruncationSpec, direction, detuning
):
    """Transmission from the full-master-equation steady state.

    Uses the same input-output formula as the linearized model with the
    intracavity amplitude per unit probe amplitude taken as
    Tr(o rho_ss) / drive_amp. direction is "forward", "backward" or a
    sequence of them, and detuning a number or an array of them. One
    direction and one detuning give a float; otherwise the result has
    detuning's shape plus, for a sequence of directions, a last axis over
    them. All directions at one detuning share one factorization.
    """
    if trunc.drive_amp == 0:
        raise ValidationError("oracle transmission requires a nonzero drive_amp")
    names = [direction] if isinstance(direction, str) else list(direction)
    # the given numbers themselves, for DriveSpec to check
    detunings = np.asarray(detuning, dtype=object)
    a, b, _, _ = _mode_operators(trunc.n_max + 1)
    result = np.empty(detunings.shape + (len(names),))
    for index, value in np.ndenumerate(detunings):
        shared = None
        for column, name in enumerate(names):
            drive = DriveSpec(name, value)
            rho = steady_density_matrix(build_liouvillian(params, trunc, drive), shared)
            shared = rho.preconditioner
            amp = rho.expectation(a if drive.forward else b)
            result[index + (column,)] = _transmitted(params, amp / trunc.drive_amp)
        # free this detuning's factors before the next one's are made
        rho = shared = None
    if isinstance(direction, str):
        result = result[..., 0]
    return float(result) if result.ndim == 0 else result
