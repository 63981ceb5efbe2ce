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

The steady state is found by GMRES on the trace-constrained Liouvillian,
preconditioned with a sparse LU of its excitation-conserving part, the
Liouvillian without the coherent drive. That part is block-diagonal in
the coherence order k = N_i - N_j, and block -k mirrors block k, so only
the orders k >= 0 are factored, in one LU. Taken in ascending N_i within
each order, those blocks are block upper triangular by excitation level,
so an LU in that natural order pivots within a level and leaves every
later level's diagonal block untouched: no fill across levels. A direct
LU of the full matrix is the fallback.
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

# Column ordering of the direct fallback's LU of the full constrained
# matrix (the preconditioner has its own, natural order). On the non-ideal
# set COLAMD and MMD_ATA are within 7% at n_max 2-3; at n_max 4 MMD_ATA
# takes 17 s against COLAMD's 20 s, with 10% less fill.
_PERMC_SPEC = "COLAMD"


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

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_max(self) -> int:
        return math.isqrt(self.dimension // 4) - 1

    def expectation(self, operator) -> complex:
        """Tr(operator @ rho) for a sparse or dense operator."""
        return complex(np.trace(operator @ self.matrix))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


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


@lru_cache(maxsize=16)
def _liouvillian_pieces(params: SystemParams, n_max: int, direction: str, drive_amp: float):
    """Detuning-independent Liouvillian and the detuning generator.

    The full Liouvillian at cavity-probe detuning dc is
    static + dc * detuning_piece, so sweeping a spectrum reuses the
    expensive assembly.
    """
    a, b, s1, s2 = _mode_operators(n_max + 1)
    gp, gm = couplings(params.g0, params.theta, params.p)
    proj1 = (s1.conj().T @ s1).tocsr()
    proj2 = (s2.conj().T @ s2).tocsr()

    h_static = (params.delta12 / 2.0) * (proj1 - proj2)
    h_static = h_static + params.h * (a @ b.conj().T + b @ a.conj().T)
    inter = gp * (s1.conj().T @ a) + gm * (s2.conj().T @ a)
    inter = inter + np.conj(gm) * (s1.conj().T @ b) + np.conj(gp) * (s2.conj().T @ b)
    h_static = h_static + inter + inter.conj().T
    drive_op = a if direction == "forward" else b
    h_static = h_static + drive_amp * (drive_op + drive_op.conj().T)

    static = _commutator_superop(h_static.tocsr())
    static = static + _dissipator_superop(a, 2.0 * params.kappa)
    static = static + _dissipator_superop(b, 2.0 * params.kappa)
    static = static + _dissipator_superop(s1, params.gamma)
    static = static + _dissipator_superop(s2, params.gamma)

    number_op = (a.conj().T @ a + b.conj().T @ b + proj1 + proj2).tocsr()
    detuning_piece = _commutator_superop(number_op)
    return static.tocsc(), detuning_piece.tocsc()


def build_liouvillian(
    params: SystemParams, trunc: TruncationSpec, drive: DriveSpec
) -> sparse.csc_matrix:
    """Sparse generator of rho-dot for the driven, lossy system.

    Implements rho-dot = -i[H, rho] + 2*kappa*L(a) + 2*kappa*L(b)
    + gamma*L(sigma1) + gamma*L(sigma2), where H carries the detunings,
    backscattering, helicity-split couplings, and the coherent drive of
    amplitude trunc.drive_amp on mode a (forward) or b (backward).
    """
    static, detuning_piece = _liouvillian_pieces(
        params, trunc.n_max, drive.direction, trunc.drive_amp
    )
    return (static + drive.detuning * detuning_piece).tocsc()


def _diagnose_singular(liouvillian) -> int | None:
    dim = liouvillian.shape[0]
    if dim <= 1024:
        dense = liouvillian.toarray()
        sigma = np.linalg.svd(dense, compute_uv=False)
        return int(np.sum(sigma < 1e-10 * max(sigma[0], 1e-300)))
    return None


def _trace_constrained(matrix) -> sparse.csc_matrix:
    """The superoperator with row 0 replaced by the trace functional."""
    csr = sparse.csr_matrix(matrix)
    d = math.isqrt(csr.shape[0])
    start = csr.indptr[1]
    indptr = np.concatenate(([0], csr.indptr[1:] - start + d))
    indices = np.concatenate((np.arange(d) * (d + 1), csr.indices[start:]))
    data = np.concatenate((np.ones(d, dtype=csr.dtype), csr.data[start:]))
    return sparse.csr_matrix((data, indices, indptr), shape=csr.shape).tocsc()


@lru_cache(maxsize=8)
def _excitation_number(d: int):
    """N = n_a + n_b + s1 + s2 of each basis state, or None.

    Read from the documented basis order. None if d is not a dimension
    of that basis.
    """
    n_levels = math.isqrt(d // 4)
    if n_levels * n_levels * 4 != d:
        return None
    number = np.indices((n_levels, n_levels, 2, 2)).sum(axis=0).ravel()
    number.flags.writeable = False
    return number


def _excitation_conserving(lio, d: int):
    """The entries of lio that keep the coherence order, or None.

    The coherence order of vec(rho)[i + d*j] is N_i - N_j. Every term
    but the coherent drive conserves N, so this is lio without the drive
    commutator. None if d is not a dimension of the documented basis.
    """
    number = _excitation_number(d)
    if number is None:
        return None
    coo = lio.tocoo()
    keep = (number[coo.row % d] - number[coo.row // d]) == (
        number[coo.col % d] - number[coo.col // d]
    )
    return sparse.coo_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=lio.shape
    )


@lru_cache(maxsize=8)
def _coherence_order(d: int):
    """Vec indices of coherence order k >= 0 in excitation order.

    Returns (keep, mirror, n0): the indices i + d*j with
    k = N_i - N_j >= 0, sorted by k and then by N_i; their mirrors
    j + d*i, of order -k; and the number of entries with k = 0. The
    caller has checked that d is a dimension of the documented basis.
    """
    number = _excitation_number(d)
    vec = np.arange(d * d)
    rows, cols = vec % d, vec // d
    order = number[rows] - number[cols]
    keep = vec[order >= 0]
    keep = keep[np.lexsort((number[rows[keep]], order[keep]))]
    mirror = cols[keep] + d * rows[keep]
    for index in (keep, mirror):
        index.flags.writeable = False
    return keep, mirror, int(np.count_nonzero(order == 0))


def _preconditioned_solve(lio, constrained, rhs, d: int):
    """GMRES on the constrained system, preconditioned by its undriven part.

    The undriven part conserves the coherence order k, so it is
    block-diagonal in k. Within a block its jump terms lower N_i and N_j
    together, so in ascending N_i order each block is block upper
    triangular by level: a natural-order LU pivots within a level and
    never updates a later level's diagonal block. A Lindblad generator maps rho' to
    L(rho)', so block -k is the complex conjugate of block k under
    i <-> j. Only k >= 0 is factored, in one LU; the trace row lies in
    block 0, its own mirror. Returns None when the preconditioner does
    not apply or GMRES does not converge.
    """
    conserving = _excitation_conserving(lio, d)
    if conserving is None:
        return None
    keep, mirror, n0 = _coherence_order(d)
    try:
        lu = splu(
            _trace_constrained(conserving)[keep][:, keep], permc_spec="NATURAL"
        )
    except RuntimeError:
        return None

    def solve(r):
        r = np.ravel(r)
        x = np.empty(r.shape, dtype=complex)
        x[keep] = lu.solve(r[keep])
        x[mirror[n0:]] = np.conj(lu.solve(np.conj(r[mirror]))[n0:])
        return x

    precond = LinearOperator(constrained.shape, matvec=solve, dtype=complex)
    vec, info = gmres(
        constrained, rhs, x0=solve(rhs), M=precond,
        rtol=1e-14, atol=0.0, restart=50, maxiter=20,
    )
    return vec if info == 0 else None


def steady_density_matrix(liouvillian) -> SteadyDensityMatrix:
    """Null vector of the Liouvillian normalized to unit trace.

    One superoperator row is replaced by the trace constraint. The
    constrained system is solved by GMRES, preconditioned with a sparse
    LU of its excitation-conserving part (the Liouvillian without the
    coherent drive) and started from that preconditioner's solution. The
    LU covers the coherence orders k >= 0 in natural excitation order;
    the orders k < 0 are solved as their complex-conjugate mirrors. If the
    dimension is not (n+1)**2 * 4, the preconditioner is singular, or
    GMRES does not converge, the full constrained system is factored
    directly instead. The residual of the original Liouvillian is checked
    against 1e-8. Raises if the null space is degenerate or the result
    violates Hermiticity, trace, or positivity tolerances.
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
    vec = _preconditioned_solve(lio, constrained, rhs, d)
    if vec is None:
        try:
            vec = splu(constrained, permc_spec=_PERMC_SPEC).solve(rhs)
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
