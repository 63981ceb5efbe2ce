"""Closed-form results for the ideal configuration and polariton spectra.

In the ideal configuration (no backscattering, perfect helicity) the
forward and backward channels decouple and the transmission has a compact
closed form. Requiring the backward transmission to vanish fixes the
excited-state splitting and the operating detuning as functions of the
coupling rates, leaving the waveguide coupling as the one free knob for
maximizing forward transmission. This module also exposes the eigenvalues
of the lossless coupling matrix, which locate the transmission dips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConstraintError, SingularSystemError, ValidationError
from .model import DriveSpec, SystemParams, coupling_matrix, decay_matrix
from .tableio import write_table

EIGEN_SWEEP_COLUMNS = ("sweep_var", "lambda1", "lambda2", "lambda3", "lambda4")


@dataclass(frozen=True)
class IsolationPoint:
    """One point on the zero-backward-transmission line.

    Evaluating the backward transmission at (kappa_ex, delta12, delta_c)
    yields a value below 1e-10; t_fwd_predicted is the forward
    transmission predicted at the same point.
    """

    kappa_ex: float
    delta12: float
    delta_c: float
    t_fwd_predicted: float


def ideal_transmission(params: SystemParams, drive: DriveSpec) -> float:
    """Closed-form transmission for the decoupled (h=0, |p|=1) system.

    T = |1 - 2*kappa_ex*D / (g0^2 + D*(kappa_ex + kappa_i + i*Delta_C))|^2
    with D = gamma/2 + i*(Delta_C + delta12/2) forward and
    D = gamma/2 + i*(Delta_C - delta12/2) backward. Callers may evaluate
    it anywhere, but it models only the ideal configuration.
    """
    sign = 1.0 if drive.forward else -1.0
    dc = drive.detuning
    d = params.gamma / 2.0 + 1j * (dc + sign * params.delta12 / 2.0)
    denom = params.g0**2 + d * (params.kappa + 1j * dc)
    if abs(denom) < 1e-300:
        raise SingularSystemError(
            "ideal transmission denominator vanished at detuning %g" % dc
        )
    return abs(1.0 - 2.0 * params.kappa_ex * d / denom) ** 2


def isolation_conditions(
    g0: float, gamma: float, kappa_i: float, kappa_ex: float
) -> tuple[float, float]:
    """Splitting and detuning that null the ideal backward transmission.

    With s = sqrt(2*g0^2 / (gamma*(kappa_ex - kappa_i)) - 1):

        delta12 = (gamma - 2*(kappa_ex - kappa_i)) * s
        delta_c = -(kappa_ex - kappa_i) * s

    Valid only for kappa_ex > kappa_i and g0^2 >= gamma*(kappa_ex-kappa_i)/2.
    """
    if gamma <= 0:
        raise ValidationError("gamma must be > 0")
    if g0 < 0:
        raise ValidationError("g0 must be >= 0")
    if kappa_i < 0:
        raise ValidationError("kappa_i must be >= 0")
    dk = kappa_ex - kappa_i
    if dk <= 0:
        raise ConstraintError(
            "isolation conditions require kappa_ex > kappa_i "
            "(got kappa_ex=%g, kappa_i=%g)" % (kappa_ex, kappa_i)
        )
    radicand = 2.0 * g0**2 / (gamma * dk) - 1.0
    if radicand < 0:
        raise ConstraintError(
            "isolation conditions require g0^2 >= gamma*(kappa_ex - kappa_i)/2 "
            "(got g0^2=%g, bound=%g)" % (g0**2, gamma * dk / 2.0)
        )
    s = math.sqrt(radicand)
    return (gamma - 2.0 * dk) * s, -dk * s


def _isolation_params(g0, gamma, kappa_i, kappa_ex) -> tuple[SystemParams, DriveSpec]:
    delta12, delta_c = isolation_conditions(g0, gamma, kappa_i, kappa_ex)
    params = SystemParams(
        g0=g0,
        kappa_i=kappa_i,
        kappa_ex=kappa_ex,
        p=1.0,
        h=0.0,
        gamma=gamma,
        delta12=delta12,
    )
    return params, DriveSpec("forward", delta_c)


def optimal_coupling(g0: float, gamma: float, kappa_i: float) -> IsolationPoint:
    """Waveguide coupling maximizing forward transmission at zero backward.

    The forward transmission along the zero-backward-transmission line can
    be bimodal in kappa_ex, with one candidate in the narrow window
    (kappa_i, kappa_i + gamma/2) and one beyond it, so both regimes are
    searched independently and the better optimum is returned.
    """
    if g0 <= 0:
        raise ValidationError("optimal_coupling requires g0 > 0")
    if gamma <= 0:
        raise ValidationError("gamma must be > 0")
    if kappa_i < 0:
        raise ValidationError("kappa_i must be >= 0")

    def negative_tf(kappa_ex: float) -> float:
        try:
            params, drive = _isolation_params(g0, gamma, kappa_i, kappa_ex)
        except ConstraintError:
            return 0.0
        return -ideal_transmission(params, drive)

    edge = 1e-9 * max(gamma, kappa_i, 1.0)
    split = kappa_i + gamma / 2.0
    regimes = (
        (kappa_i + edge, split),
        (split, split + 10.0 * g0),
    )
    best = None
    for lo, hi in regimes:
        res = minimize_scalar(
            negative_tf, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
        )
        if best is None or res.fun < best.fun:
            best = res
    kappa_ex = float(best.x)
    delta12, delta_c = isolation_conditions(g0, gamma, kappa_i, kappa_ex)
    return IsolationPoint(
        kappa_ex=kappa_ex,
        delta12=delta12,
        delta_c=delta_c,
        t_fwd_predicted=float(-best.fun),
    )


def polariton_eigenvalues(params: SystemParams) -> np.ndarray:
    """Polariton eigenvalues on the cavity-probe detuning axis, ascending.

    These are the eigenvalues of the lossless coupling matrix taken at
    zero detuning and mapped to the detuning axis (the probe rotating
    frame reverses the sign of internal energies), so transmission dips
    appear at these values of Delta_C.

    For h = 0 and delta12 = 0 they are +-g0 * sqrt(1 +- sqrt(1 - p**2))
    for any theta: an outer pair at +-sqrt(2) * g0 and a zero pair at
    p = 0, merging into a degenerate pair at +-g0 when |p| = 1.
    """
    return polariton_modes(params)[0]


def polariton_modes(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (detuning axis, ascending) and eigenvectors as columns.

    Column k of the eigenvector matrix spans the amplitudes
    (<a>, <b>, <sigma1>, <sigma2>) of the polariton at eigenvalue k; the
    photonic weight of a polariton is the squared norm of its first two
    components.
    """
    n0 = coupling_matrix(params, detuning=0.0)
    values, vectors = np.linalg.eigh(-n0)
    return values, vectors


def damped_eigenvalues(params: SystemParams) -> np.ndarray:
    """Complex detunings at which the driven response has poles.

    Diagnostic variant including the decay matrix: the real part gives
    the resonance position on the detuning axis and the imaginary part
    the half-linewidth. Sorted by real part.
    """
    n0 = coupling_matrix(params, detuning=0.0)
    gamma = decay_matrix(params)
    values = np.linalg.eigvals(-n0 + 1j * gamma)
    return values[np.argsort(values.real)]


def eigenvalue_sweep(params: SystemParams, variable: str, values) -> np.ndarray:
    """Polariton eigenvalues as one parameter sweeps over given values.

    variable is "delta12" or "p"; returns an array of shape (n, 4) with
    ascending eigenvalues per row.
    """
    if variable not in ("delta12", "p"):
        raise ValidationError("sweep variable must be 'delta12' or 'p', got %r" % variable)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("sweep values must be a non-empty 1-D array")
    rows = np.empty((values.size, 4))
    for i, v in enumerate(values):
        rows[i] = polariton_eigenvalues(replace(params, **{variable: float(v)}))
    return rows


def save_eigenvalue_sweep(path, values, eigenvalues) -> None:
    """Write a sweep table with columns sweep_var, lambda1..lambda4."""
    values = np.asarray(values, dtype=float)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    rows = (
        (values[i], *eigenvalues[i]) for i in range(values.size)
    )
    write_table(path, EIGEN_SWEEP_COLUMNS, rows)
