"""Linearized steady-state model of a waveguide-coupled ring resonator
containing a helicity-sensitive three-level emitter.

The resonator carries a degenerate pair of counter-propagating modes,
``a`` (forward, clockwise) and ``b`` (backward, counter-clockwise). Each
mode couples to the two excited states of a V-type emitter with strengths
weighted by the local field helicity, so a magnetic splitting of the
excited states breaks the forward/backward symmetry. At weak probe power
the emitter lowering operators behave like bosonic modes and the steady
state in the frame rotating at the probe frequency reduces to a 4x4
complex linear solve over the amplitudes (<a>, <b>, <sigma1>, <sigma2>).
The response is linear in the probe, so the model works per unit probe
amplitude: amplitudes are those of a unit drive, and transmission and
reflection follow from input-output relations without a probe amplitude.

All rates are expressed in units of the emitter decay rate ``gamma``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, ValidationError
from .tableio import checked_axis, finite, write_table

DIRECTIONS = ("forward", "backward")

SPECTRUM_COLUMNS = ("delta_c", "t_fwd", "t_bwd", "r_fwd", "r_bwd")

# rows 0 and 1 are the drive selectors u of the forward and backward ports
_IDENTITY = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and couplings of the resonator-emitter system.

    The model is linear in the probe, so no probe amplitude appears: every
    amplitude it computes is per unit probe amplitude.

    g0        coupling magnitude between one cavity mode and one transition
    kappa_i   intrinsic cavity loss rate
    kappa_ex  waveguide-cavity coupling rate
    theta     phase of the complex coupling g = g0 * exp(i*theta)
    p         helicity degree of the field at the emitter, in [-1, 1]
    h         backscattering rate mixing the two cavity modes (real >= 0,
              its phase is absorbed into theta)
    gamma     emitter decay rate, the unit of every other rate
    delta12   splitting between the two excited states
    """

    g0: float
    kappa_i: float
    kappa_ex: float
    theta: float = math.pi / 4
    p: float = 1.0
    h: float = 0.0
    gamma: float = 1.0
    delta12: float = 0.0

    def __post_init__(self):
        # __dataclass_fields__, not fields(self): a design pass builds ~1e4 of
        # these, and fields() costs a few microseconds per construction
        for name in self.__dataclass_fields__:
            if not finite(getattr(self, name)):
                raise ValidationError("%s must be a finite real number" % name)
        for name in ("g0", "kappa_i", "kappa_ex", "h"):
            if getattr(self, name) < 0:
                raise ValidationError("%s must be >= 0" % name)
        if self.gamma <= 0:
            raise ValidationError("gamma must be > 0")
        if not -1.0 <= self.p <= 1.0:
            raise ValidationError("p must lie in [-1, 1]")
        if self.kappa <= 0:
            raise ValidationError("kappa_ex + kappa_i must be > 0")

    @property
    def kappa(self) -> float:
        """Total cavity linewidth kappa_ex + kappa_i."""
        return self.kappa_ex + self.kappa_i


@dataclass(frozen=True)
class DriveSpec:
    """Probe direction and cavity-probe detuning Delta_C = omega_C - omega_p.

    The forward drive feeds mode ``a``, the backward drive mode ``b``.
    """

    direction: str
    detuning: float = 0.0

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValidationError(
                "direction must be one of %s, got %r" % (DIRECTIONS, self.direction)
            )
        if not finite(self.detuning):
            raise ValidationError("detuning must be a finite real number")

    @property
    def forward(self) -> bool:
        return self.direction == "forward"


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Coefficient matrix and drive selector of the linearized dynamics.

    The amplitude vector x = (<a>, <b>, <sigma1>, <sigma2>) obeys
    dx/dt = A x - i E_p u with A = -i N - Gamma, N Hermitian and
    Gamma = diag(kappa, kappa, gamma/2, gamma/2).
    """

    matrix: np.ndarray
    drive: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Transmission and reflection in both directions over a detuning grid."""

    detunings: np.ndarray
    t_fwd: np.ndarray
    t_bwd: np.ndarray
    r_fwd: np.ndarray
    r_bwd: np.ndarray


def couplings(g0: float, theta: float, p: float) -> tuple[complex, complex]:
    """Helicity-split coupling amplitudes (g_plus, g_minus).

    g_pm = g0 * exp(i*theta) * sqrt((1 pm p) / 2); the identity
    |g_plus|**2 + |g_minus|**2 = g0**2 holds for every p.
    """
    g = g0 * cmath.exp(1j * theta)
    # clip guards square roots against roundoff just outside [-1, 1]
    gp = g * math.sqrt(max(0.0, (1.0 + p) / 2.0))
    gm = g * math.sqrt(max(0.0, (1.0 - p) / 2.0))
    return gp, gm


def coupling_matrix(params: SystemParams, detuning: float = 0.0) -> np.ndarray:
    """Hermitian coupling matrix N over (<a>, <b>, <sigma1>, <sigma2>).

    Diagonal entries carry the detunings of the modes and transitions;
    off-diagonal entries carry backscattering and the helicity-split
    couplings. The full dynamics matrix is A = -i N - Gamma.
    """
    gp, gm = couplings(params.g0, params.theta, params.p)
    dc = float(detuning)
    h = params.h
    d12 = params.delta12
    return np.array(
        [
            [dc, h, gp.conjugate(), gm.conjugate()],
            [h, dc, gm, gp],
            [gp, gm.conjugate(), dc + d12 / 2.0, 0.0],
            [gm, gp.conjugate(), 0.0, dc - d12 / 2.0],
        ],
        dtype=complex,
    )


def decay_matrix(params: SystemParams) -> np.ndarray:
    """Diagonal decay matrix Gamma = diag(kappa, kappa, gamma/2, gamma/2)."""
    k = params.kappa
    g2 = params.gamma / 2.0
    return _IDENTITY * [k, k, g2, g2]


def _dynamics(params: SystemParams, detuning) -> np.ndarray:
    """A = -i N - Gamma; detuning is a float, or an array (n, 1, 1) for a stack."""
    return _system_matrix(coupling_matrix(params), decay_matrix(params), detuning)


def _system_matrix(n0: np.ndarray, decay: np.ndarray, detuning) -> np.ndarray:
    """A = -i (N0 + detuning) - Gamma over broadcast stacks; detunings (..., 1, 1)."""
    return -1j * (n0 + detuning * _IDENTITY) - decay


def build_linear_system(params: SystemParams, drive: DriveSpec) -> LinearSystem:
    """Assemble A = -i N - Gamma and the drive selector for one direction."""
    return LinearSystem(
        matrix=_dynamics(params, drive.detuning),
        drive=_IDENTITY[0 if drive.forward else 1].copy(),
    )


class _SystemFailure(SingularSystemError):
    """A steady-state gate failure; index is the first failing system."""

    def __init__(self, message: str, failed: np.ndarray):
        super().__init__(message)
        self.index = int(np.argmax(failed))


def steady_state(system: LinearSystem) -> np.ndarray:
    """Steady-state amplitudes x per unit probe amplitude, solving A x = i u.

    Setting dx/dt = A x - i E_p u to zero gives A x = i E_p u. The system
    is one matrix (4, 4) with drive (4,), or a stack (n, 4, 4) with drives
    (n, 4) solved at once. Each system's residual is checked against
    1e-10 * ||A|| * ||x||, and the first system that fails raises.
    """
    a = system.matrix.reshape(-1, 4, 4)
    rhs = 1j * system.drive.reshape(-1, 4, 1)
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        # det repeats the LU factorization, so its zero marks the failing system
        raise _SystemFailure("steady-state matrix is singular", np.linalg.det(a) == 0) from exc
    if not np.isfinite(x).all():
        failed = ~np.isfinite(x).all(axis=(1, 2))
        raise _SystemFailure("steady-state solve produced non-finite amplitudes", failed)
    # ||A x - rhs||**2 > 1e-20 * ||A||**2 * ||x||**2; squares and count_nonzero
    # keep the single-point call, which the optimizer makes ~1e5 times, cheap
    residual2 = _squared_norms(a @ x - rhs)
    bound2 = 1e-20 * _squared_norms(a) * _squared_norms(x)
    failed = residual2 > bound2
    if np.count_nonzero(failed):
        k = int(np.argmax(failed))
        values = (math.sqrt(residual2[k]), math.sqrt(bound2[k]))
        raise _SystemFailure("steady-state residual %.3e exceeds tolerance %.3e" % values, failed)
    return x.reshape(system.drive.shape)


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack."""
    flat = v.reshape(len(v), -1)
    return np.vecdot(flat, flat).real


def _singular(params: SystemParams, detuning: float) -> SingularSystemError:
    return SingularSystemError("singular steady state at detuning %g for %r" % (detuning, params))


def _transmitted(params: SystemParams, own):
    """|i + 2*kappa_ex*own|**2, own the driven mode's amplitude per unit probe amplitude."""
    return abs(1j + 2.0 * params.kappa_ex * own) ** 2


def _reflected(params: SystemParams, other):
    """|2*kappa_ex*other|**2, other the other mode's amplitude per unit probe amplitude."""
    return abs(2.0 * params.kappa_ex * other) ** 2


def _driven_and_other(params: SystemParams, drive: DriveSpec):
    try:
        x = steady_state(build_linear_system(params, drive))
    except SingularSystemError as exc:
        raise _singular(params, drive.detuning) from exc
    return (x[0], x[1]) if drive.forward else (x[1], x[0])


def transmission(params: SystemParams, drive: DriveSpec) -> float:
    """Normalized transmitted power |i + 2*kappa_ex*<o>/E_p|**2.

    The intracavity amplitude <o> is <a> for forward drive and <b> for
    backward drive.
    """
    return _transmitted(params, _driven_and_other(params, drive)[0])


def reflection(params: SystemParams, drive: DriveSpec) -> float:
    """Normalized reflected power |2*kappa_ex*<o'>/E_p|**2.

    The reflected signal leaves through the mode counter-propagating to
    the drive, so <o'> is <b> for forward drive and <a> for backward.
    """
    return _reflected(params, _driven_and_other(params, drive)[1])


def spectrum(params: SystemParams, detunings) -> SpectrumResult:
    """Transmission and reflection in both directions over a detuning grid.

    All points and both directions are one stacked steady-state solve.
    A + A^H = -2 Gamma is negative definite, so A is invertible for every
    valid parameter set; a failed gate raises, naming the first failing
    detuning, as transmission and reflection do.
    """
    grid = checked_axis(detunings, "detuning grid")
    # system 2*i + k drives port k (0 forward, 1 backward) at grid[i]
    system = LinearSystem(
        matrix=_dynamics(params, np.repeat(grid, 2)[:, None, None]),
        drive=np.tile(_IDENTITY[:2], (grid.size, 1)),
    )
    try:
        x = steady_state(system).reshape(grid.size, 2, 4)
    except _SystemFailure as exc:
        raise _singular(params, grid[exc.index // 2]) from exc
    return SpectrumResult(
        detunings=grid,
        t_fwd=_transmitted(params, x[:, 0, 0]),
        t_bwd=_transmitted(params, x[:, 1, 1]),
        r_fwd=_reflected(params, x[:, 0, 1]),
        r_bwd=_reflected(params, x[:, 1, 0]),
    )


def save_spectrum(path, result: SpectrumResult):
    """Write a spectrum table with columns delta_c, t_fwd, t_bwd, r_fwd, r_bwd."""
    rows = zip(result.detunings, result.t_fwd, result.t_bwd, result.r_fwd, result.r_bwd)
    write_table(path, SPECTRUM_COLUMNS, rows)
