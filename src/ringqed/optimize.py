"""Search utilities on the zero-backward-transmission manifold.

Backward transmission vanishes along a line in (kappa_ex, delta12,
delta_c). By the matrix determinant lemma the backward amplitude is
proportional to det(Delta*I + N0(delta12) - i*Gamma_b), where Gamma_b is
the decay matrix with the backward-mode rate kappa replaced by
kappa_i - kappa_ex. At one coupling that determinant has degree 4 in the
detuning Delta and 2 in the splitting delta12, so its real zeros are the
real roots of one resultant of its real and imaginary parts, found
without seeds. Each root is re-evaluated through the 4x4 model; one that
misses ZERO_TB_TARGET is polished by a Nelder-Mead simplex. On that zero
set this module traces the zero line and maximizes the isolation contrast
by a bounded search over the coupling.

The same lemma gives the backward amplitude in pole-zero form,
t_b(Delta) = i*prod(Delta - z_k)/prod(Delta - p_k), with the poles the
eigenvalues of i*Gamma - N0 and the zeros those of i*Gamma_b - N0. The
backward-dip search behind the contour sweeps over (kappa_ex, delta12)
reads T_b from that product, factored once per node, by scipy's bounded
Brent search run on plain floats, and reports the transmissions of the
4x4 solve at the dip. A sweep runs that search for all its grid nodes at
once: one stacked eigvals for every node's poles and zeros, one lockstep
array Brent search over every candidate bracket, and one stacked 4x4
solve per direction, each node's numbers equal to the scalar search's
bit for bit. Its ridge refinement stays a scalar bounded search per
column, each step one scalar dip search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import minimize, minimize_scalar

from .analytic import IsolationPoint, polariton_modes
from .errors import ContinuationError, NoDipError, SingularSystemError, ValidationError
from .model import (
    _IDENTITY,
    DriveSpec,
    LinearSystem,
    SystemParams,
    _SystemFailure,
    _system_matrix,
    _transmitted,
    coupling_matrix,
    decay_matrix,
    steady_state,
    transmission,
)
from .tableio import checked_axis, write_table

# T_b values below this are clamped for dB reporting and flagged saturated.
CONTRAST_FLOOR = 1e-12

# A fixed-splitting operating point counts as converged below this T_b.
ZERO_TB_ACCEPT = 1e-8

# Every zero found or reported re-evaluates below this backward transmission.
ZERO_TB_TARGET = 1e-10

# Contour ridge extraction threshold on the refined backward minimum.
RIDGE_THRESHOLD = 1e-6

# A resultant root reading T_b above this is no zero (the spurious roots
# of its ill-conditioned top coefficients read T_b ~ 1); one between
# ZERO_TB_TARGET and this is polished.
_POLISH_BELOW = 1e-3

# Relative imaginary part up to which a resultant root counts as real;
# the roots of genuine zeros stayed near 1e-7 or below on random hardware.
_REAL_ROOT_TOL = 1e-6

# Couplings in the logarithmic scan that brackets the contrast maximum.
_SCAN_POINTS = 48

CONTOUR_COLUMNS = ("kappa_ex", "delta12", "delta_c", "t_fwd", "t_bwd", "contrast_db", "saturated")


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal operating point with achieved transmissions and contrast.

    iterations counts the resultant solves plus the T_b evaluations of
    the polishing simplex runs.
    """

    kappa_ex: float
    delta12: float
    delta_c: float
    t_fwd: float
    t_bwd: float
    contrast_db: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class ContourData:
    """Contrast and transmission over a (kappa_ex, delta12) grid.

    delta_c holds the per-node backward-dip detuning. zero_tb_rows holds
    the export rows, in the contour schema, of the points where the
    refined backward minimum of a kappa_ex column falls below the ridge
    threshold; its first two columns are the (kappa_ex, delta12) trace.
    """

    kappa_ex: np.ndarray
    delta12: np.ndarray
    delta_c: np.ndarray
    t_fwd: np.ndarray
    t_bwd: np.ndarray
    contrast_db: np.ndarray
    saturated: np.ndarray
    zero_tb_rows: np.ndarray


def contrast_db(t_fwd: float, t_bwd: float, floor: float = CONTRAST_FLOOR) -> float:
    """Isolation contrast 10*log10(T_f/T_b) with T_b clamped at floor."""
    return 10.0 * math.log10(max(t_fwd, 1e-300) / max(t_bwd, floor))


def _tb(params: SystemParams, delta12: float, delta_c: float) -> float:
    p = replace(params, delta12=float(delta12))
    return transmission(p, DriveSpec("backward", float(delta_c)))


def _tf(params: SystemParams, delta12: float, delta_c: float) -> float:
    p = replace(params, delta12=float(delta12))
    return transmission(p, DriveSpec("forward", float(delta_c)))


def _backward_decay(params: SystemParams) -> np.ndarray:
    """Gamma_b: the decay matrix with 2*kappa_ex taken off the backward mode."""
    gamma_b = decay_matrix(params)
    gamma_b[1, 1] -= 2.0 * params.kappa_ex
    return gamma_b


def _tb_poles_zeros(n0: np.ndarray, decays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poles and zeros of t_b, the eigenvalues of i*Gamma - N0 and i*Gamma_b - N0.

    decays stacks (Gamma, Gamma_b) on its third-to-last axis and
    broadcasts against n0, so one stacked eigvals serves any number of
    nodes; the values of each node are those of its own call bit for bit.
    """
    values = np.linalg.eigvals(1j * decays - n0[..., None, :, :])
    return values[..., 0, :], values[..., 1, :]


def _decays(params: SystemParams) -> np.ndarray:
    """Gamma and Gamma_b stacked, as _tb_poles_zeros takes them."""
    return np.stack([decay_matrix(params), _backward_decay(params)])


def _tb_factors(params: SystemParams) -> list[tuple[complex, complex]]:
    """Zero-pole pairs (z_k, p_k) of t_b(Delta) = i*prod (Delta - z_k)/(Delta - p_k).

    The pairing is arbitrary: only the whole product is meaningful.
    """
    poles, zeros = _tb_poles_zeros(coupling_matrix(params), _decays(params))
    return list(zip(zeros.tolist(), poles.tolist()))


def _tb_rational(factors: list[tuple[complex, complex]], delta_c: float) -> float:
    """Backward transmission |prod (Delta - z_k)/(Delta - p_k)|**2 at Delta = delta_c."""
    # a numpy scalar would route every complex operation through numpy
    delta_c, ratio = float(delta_c), 1.0
    for zero, pole in factors:
        ratio *= (delta_c - zero) / (delta_c - pole)
    return abs(ratio) ** 2


def _tb_rational_array(zeros: np.ndarray, poles: np.ndarray, delta_c: np.ndarray) -> np.ndarray:
    """_tb_rational per row of zeros and poles (n, 4) at delta_c (n,), bit for bit.

    CPython's complex arithmetic is repeated in real operations: the
    quotient divides through by the larger part of the denominator, as
    _Py_c_quot does and numpy's complex division does not, the product is
    _Py_c_prod's, abs is hypot, and the square is Python's pow, which
    differs from numpy's x*x in the last bit.
    """
    re, im = np.ones_like(delta_c), np.zeros_like(delta_c)
    for k in range(zeros.shape[1]):
        num_re, num_im = delta_c - zeros[:, k].real, 0.0 - zeros[:, k].imag
        den_re, den_im = delta_c - poles[:, k].real, 0.0 - poles[:, k].imag
        by_re = np.abs(den_re) >= np.abs(den_im)
        # each branch is kept only where its divisor is the larger part
        with np.errstate(all="ignore"):
            ratio = np.where(by_re, den_im / den_re, den_re / den_im)
        denom = np.where(by_re, den_re + den_im * ratio, den_re * ratio + den_im)
        q_re = np.where(by_re, num_re + num_im * ratio, num_re * ratio + num_im) / denom
        q_im = np.where(by_re, num_im - num_re * ratio, num_im * ratio - num_re) / denom
        re, im = re * q_re - im * q_im, re * q_im + im * q_re
    return np.array([v**2 for v in np.hypot(re, im).tolist()])


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimum (x, f) of func on [lo, hi]: scipy's bounded Brent search on plain floats.

    A line-for-line port of minimize_scalar(method="bounded") (Brent 1973,
    ch. 5) with the same constants, steps and 500-evaluation cap, so it
    returns scipy's res.x and res.fun bit for bit, without the wrapper's
    numpy scalars and result object.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = func(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while num < 500 and abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            golden = not (abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf))
            if not golden:
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # the sign of rat with 0 mapped to +1, as scipy's np.sign(rat) + (rat == 0)
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def _bounded_brent_array(func, lo, hi, xatol: float) -> tuple[np.ndarray, np.ndarray]:
    """_bounded_brent over arrays of brackets [lo, hi], in lockstep.

    func(x, idx) returns the objective of element idx[k] at x[k]. Every
    element takes the scalar driver's steps under its own stopping test,
    so it returns the same (x, f) bit for bit; an element that has stopped
    is no longer evaluated.
    """
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = a + golden_mean * (b - a)
    live = np.arange(a.size)
    fx = func(xf, live)
    zero = np.zeros_like(a)
    # one row per variable of _bounded_brent, one column per element
    state = np.stack([a, b, xf, fx, xf, fx, xf, fx, zero, zero, zero + 1.0])
    while live.size:
        a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, num = state[:, live]
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        running = (num < 500) & (np.abs(xf - xm) > tol2 - 0.5 * (b - a))
        if not running.all():
            live = live[running]
            continue
        # parabola through the three best points, where abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabola = np.abs(e) > tol1
        parabola &= (np.abs(p) < np.abs(0.5 * q * e)) & (q * (a - xf) < p) & (p < q * (b - xf))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (p + 0.0) / q
        x = xf + step
        near_end = (x - a < tol2) | (b - x < tol2)
        step = np.where(near_end, np.where(xm >= xf, tol1, -tol1), step)
        # otherwise a golden-section step into the larger part of the bracket
        e = np.where(parabola, rat, np.where(xf >= xm, a - xf, b - xf))
        rat = np.where(parabola, step, golden_mean * e)
        size = np.abs(rat)
        x = xf + np.where(rat >= 0, 1.0, -1.0) * np.where(tol1 > size, tol1, size)
        fu = func(x, live)
        lower = fu <= fx
        a, b = (
            np.where(lower, np.where(x >= xf, xf, a), np.where(x < xf, x, a)),
            np.where(lower, np.where(x >= xf, b, xf), np.where(x < xf, b, x)),
        )
        second = ~lower & ((fu <= fnfc) | (nfc == xf))
        third = ~lower & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = lower | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(lower, xf, np.where(second, x, nfc))
        fnfc = np.where(lower, fx, np.where(second, fu, fnfc))
        xf, fx = np.where(lower, x, xf), np.where(lower, fu, fx)
        state[:, live] = a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, num + 1.0
    return state[2], state[3]


def _dip_runs(values: np.ndarray, vectors: np.ndarray) -> tuple[list, list[tuple[float, float]]]:
    """Centers of the runs of degenerate polariton eigenvalues, and the candidates.

    values and vectors are polariton_modes' output. Each run reports its
    mean eigenvalue and mean photonic weight; the candidates are the
    (center, weight) of the runs at non-positive detuning.
    """
    values = values.tolist()
    weights = np.sum(abs(vectors[:2]) ** 2, axis=0).tolist()
    # the values ascend, so an end holds the largest magnitude
    tol = 1e-9 * max(1.0, abs(values[0]), abs(values[-1]))

    # runs as [value sum, weight sum, count]
    runs: list[list] = []
    for idx in range(4):
        if runs and values[idx] - values[idx - 1] <= tol:
            runs[-1][0] += values[idx]
            runs[-1][1] += weights[idx]
            runs[-1][2] += 1
        else:
            runs.append([values[idx], weights[idx], 1])
    centers = [total / count for total, _, count in runs]
    return centers, [(c, w / count) for c, (_, w, count) in zip(centers, runs) if c <= tol]


def _dip_brackets(runs, kappa: float, gamma: float) -> list[tuple[float, float, float, float]]:
    """(weight, width, lo, hi) of the search bracket around each candidate of runs."""
    centers, candidates = runs
    brackets = []
    for center, weight in candidates:
        width = max(kappa, gamma)
        others = [c for c in centers if c != center]
        if others:
            width = max(width, 0.5 * min(abs(center - o) for o in others))
        brackets.append((weight, width, center - width, center + width))
    return brackets


def _pick_dip(brackets, minima) -> float | None:
    """The deepest interior minimum, or None; minima holds (x, T_b) per bracket.

    A minimum within 1e-3 widths of its bracket's ends escaped it. Ties
    fall to the candidate of larger photonic weight, then smaller |x|.
    """
    results = []
    for (weight, width, lo, hi), (x, tb) in zip(brackets, minima):
        edge = 1e-3 * width
        if lo + edge < x < hi - edge:
            results.append((tb, -weight, abs(x), x))
    return min(results)[3] if results else None


def cavity_dip_detuning(params: SystemParams) -> float:
    """Detuning of the backward-transmission dip used for contour sweeps.

    Dips sit at the polariton eigen-detunings, so each non-positive
    eigenvalue seeds a bounded one-dimensional minimization of T_b (the
    relevant branch has negative detuning, matching the sign of the
    ideal-case operating point). T_b is read from the pole-zero form of
    the backward amplitude, factored once per call, so a search step costs
    a product of four ratios instead of a 4x4 solve, and the search is
    scipy's bounded Brent method on plain floats (_bounded_brent), which
    finds the same minimum bit for bit. Among the bracketed interior
    minima the deepest one is returned; ties fall to the candidate whose
    eigenvector has the larger photonic weight. Raises NoDipError when
    every local search escapes its bracket.
    """
    brackets = _dip_brackets(_dip_runs(*polariton_modes(params)), params.kappa, params.gamma)
    factors = _tb_factors(params)
    minima = [
        _bounded_brent(lambda dc: _tb_rational(factors, dc), lo, hi, 1e-8)
        for _, _, lo, hi in brackets
    ]
    dip = _pick_dip(brackets, minima)
    if dip is None:
        raise NoDipError("no interior backward-transmission minimum found for %r" % (params,))
    return dip


def _minimize_tb(params, seed):
    """Polish a near-zero of T_b over (delta12, delta_c) by two simplex passes.

    The second pass restarts from the first's best point with a fresh
    simplex and tighter tolerances; neither can end above its start.
    Returns T_b, the point, and the number of T_b evaluations spent.
    """
    x, evaluations = np.asarray(seed, dtype=float), 0
    for xatol, fatol, maxiter in ((1e-9, 1e-18, 250), (1e-11, 1e-22, 400)):
        options = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
        res = minimize(lambda y: _tb(params, y[0], y[1]), x, method="Nelder-Mead", options=options)
        x, evaluations = res.x, evaluations + res.nfev
    return float(res.fun), (float(x[0]), float(x[1])), evaluations


def _tb_zeros(params: SystemParams) -> tuple[list[IsolationPoint], int]:
    """Every real zero (delta12, delta_c) of T_b at the couplings of params.

    D(Delta, delta12) = det(Delta*I + N0(delta12) - i*Gamma_b) is
    interpolated exactly at scaled roots of unity, five in Delta and three
    in delta12, so its coefficients come from one 2-D FFT. For real
    arguments D = 0 means Re D = Im D = 0, two quadratics in delta12 whose
    resultant is a polynomial in Delta; each real root gives delta12 as
    the near-real root of D(Delta, .). Returns the zeros, each at
    T_b <= ZERO_TB_TARGET, and the count of one resultant solve plus the
    polishing evaluations.
    """
    scale = max(params.g0, params.kappa, params.h, params.gamma)
    gamma_b = _backward_decay(params)
    x = scale * np.exp(2j * np.pi * np.arange(5) / 5)[:, None, None, None]
    y = scale * np.exp(2j * np.pi * np.arange(3) / 3)[None, :, None, None]
    n0 = coupling_matrix(replace(params, delta12=0.0))
    split = coupling_matrix(replace(params, delta12=1.0)) - n0
    matrices = n0 - 1j * gamma_b + x * np.eye(4) + y * split
    # coef[k, j] multiplies (Delta/scale)**k * (delta12/scale)**j
    coef = np.fft.fft2(np.linalg.det(matrices)) / (15 * scale**4)
    re, im = coef.real.T, coef.imag.T

    def cross(i, j):
        return P.polysub(P.polymul(re[i], im[j]), P.polymul(re[j], im[i]))

    # resultant of re[2] v^2 + re[1] v + re[0] and im[2] v^2 + im[1] v + im[0]
    resultant = P.polysub(P.polymul(cross(2, 0), cross(2, 0)), P.polymul(cross(2, 1), cross(1, 0)))

    zeros, evaluations = [], 1
    for u in P.polyroots(resultant):
        if abs(u.imag) > _REAL_ROOT_TOL * max(1.0, abs(u)):
            continue
        v = P.polyroots(P.polyval(u.real, coef))
        point = (scale * v[np.argmin(np.abs(v.imag))].real, scale * u.real)
        tb = _tb(params, *point)
        if tb > _POLISH_BELOW:
            continue
        if tb > ZERO_TB_TARGET:
            tb, point, spent = _minimize_tb(params, point)
            evaluations += spent
            if tb > ZERO_TB_TARGET:
                continue
        zeros.append(IsolationPoint(params.kappa_ex, point[0], point[1], _tf(params, *point)))
    return zeros, evaluations


def _follow(zeros: list[IsolationPoint], ref: IsolationPoint | None) -> IsolationPoint:
    """The zero nearest ref in (delta12, delta_c).

    With nothing to follow, the most transmissive zero with delta_c <= 0,
    the branch cavity_dip_detuning reports.
    """
    if ref is None:
        return max(zeros, key=lambda z: (z.delta_c <= 0, z.t_fwd_predicted))
    return min(zeros, key=lambda z: math.hypot(z.delta12 - ref.delta12, z.delta_c - ref.delta_c))


def trace_zero_tb_line(
    params_fixed: SystemParams,
    kappa_ex_range: tuple[float, float],
    n_points: int,
    seed: IsolationPoint | None = None,
) -> list[IsolationPoint]:
    """Zero-backward-transmission line over a range of waveguide couplings.

    Each sample takes the exact zero set at its coupling and keeps the
    zero nearest the previous sample's point. Samples are visited outward
    from the one nearest seed.kappa_ex, which keeps the zero nearest seed;
    without a seed they run upward from the first, which keeps the most
    transmissive zero of non-positive detuning. Points re-evaluate at
    T_b <= 1e-10. Raises ContinuationError listing the samples that admit
    no zero; the error carries the successful points for callers that
    want partial traces.
    """
    lo, hi = float(kappa_ex_range[0]), float(kappa_ex_range[1])
    if not (lo <= hi):
        raise ValidationError("kappa_ex range must satisfy lo <= hi")
    if lo <= params_fixed.kappa_i:
        raise ValidationError("zero-backward tracing requires kappa_ex > kappa_i over the range")
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    samples = np.linspace(lo, hi, n_points)
    start = 0 if seed is None else int(np.argmin(np.abs(samples - seed.kappa_ex)))

    found: dict[int, IsolationPoint] = {}
    failures: list[float] = []
    for walk in (range(start, n_points), range(start - 1, -1, -1)):
        ref = found.get(start, seed)
        for idx in walk:
            zeros, _ = _tb_zeros(replace(params_fixed, kappa_ex=float(samples[idx])))
            if zeros:
                ref = found[idx] = _follow(zeros, ref)
            else:
                failures.append(float(samples[idx]))

    points = [found[idx] for idx in sorted(found)]
    if failures:
        failures.sort()
        raise ContinuationError(
            "no zero-backward-transmission point at kappa_ex = %s"
            % ", ".join("%g" % k for k in failures),
            failed_kappa_ex=failures,
            points=points,
        )
    return points


def maximize_contrast(
    params_fixed: SystemParams, fixed_delta12: float | None = None
) -> OptimizationResult:
    """Operating point of maximal isolation contrast at zero T_b.

    The objective at one coupling is the best forward transmission among
    that coupling's exact zeros. A logarithmic scan over
    (kappa_i, kappa_i + 1.05*(gamma/2 + 10*max(g0, gamma))] brackets its
    local maxima, each is refined by a bounded one-dimensional search,
    and the best point, in the positive-splitting convention, is polished
    before it is reported. kappa_ex and delta12 of params_fixed are
    ignored (they are being optimized); g0, gamma, kappa_i, h, p, theta
    are treated as fixed hardware.

    With fixed_delta12 given, no search runs: the result reports the
    contrast at the backward dip for that splitting (identically 0 dB at
    zero splitting, where transmission is reciprocal by symmetry).
    """
    if fixed_delta12 is not None:
        params = replace(params_fixed, delta12=float(fixed_delta12))
        dc = cavity_dip_detuning(params)
        tf = transmission(params, DriveSpec("forward", dc))
        # transmission is exactly reciprocal at zero splitting; reuse the
        # forward value instead of resolving to keep the symmetry exact
        tb = tf if params.delta12 == 0 else transmission(params, DriveSpec("backward", dc))
        return OptimizationResult(
            kappa_ex=params.kappa_ex,
            delta12=params.delta12,
            delta_c=dc,
            t_fwd=tf,
            t_bwd=tb,
            contrast_db=contrast_db(tf, tb),
            iterations=0,
            converged=bool(tb <= ZERO_TB_ACCEPT),
        )

    if params_fixed.g0 <= 0:
        raise ValidationError("contrast maximization requires g0 > 0")
    gamma = params_fixed.gamma
    dk_hi = gamma / 2.0 + 10.0 * max(params_fixed.g0, gamma)
    # the best T_f can peak in the narrow window just above kappa_i and
    # again at large couplings, so the scan is logarithmic in kappa_ex - kappa_i
    scan = params_fixed.kappa_i + np.geomspace(1e-6 * gamma, 1.05 * dk_hi, _SCAN_POINTS)

    best: dict[float, IsolationPoint] = {}
    evaluations = 0

    def negative_tf(kex):
        nonlocal evaluations
        zeros, spent = _tb_zeros(replace(params_fixed, kappa_ex=float(kex)))
        evaluations += spent
        if not zeros:
            return 0.0
        best[float(kex)] = max(zeros, key=lambda z: z.t_fwd_predicted)
        return -best[float(kex)].t_fwd_predicted

    values = [negative_tf(kex) for kex in scan]
    if not best:
        raise ContinuationError(
            "no zero-backward-transmission point over the coupling scan; cannot maximize contrast",
            failed_kappa_ex=[float(k) for k in scan],
        )
    for i, value in enumerate(values):
        lo, hi = max(i - 1, 0), min(i + 1, _SCAN_POINTS - 1)
        if value < 0 and value <= min(values[lo], values[hi]):
            bounds = (scan[lo], scan[hi])
            # the result is read from best, where negative_tf records every visit
            minimize_scalar(negative_tf, bounds=bounds, method="bounded", options={"xatol": 1e-6})

    point = max(best.values(), key=lambda z: z.t_fwd_predicted)
    params = replace(params_fixed, kappa_ex=point.kappa_ex)
    sol = (point.delta12, point.delta_c)
    if sol[0] < 0 and _tb(params, -sol[0], -sol[1]) <= ZERO_TB_TARGET:
        # the sign-flipped point is gauge-equivalent when it is also a
        # zero; prefer the positive-splitting convention
        sol = (-sol[0], -sol[1])
    # polished always, so convergence does not hinge on the root's conditioning
    tb, sol, spent = _minimize_tb(params, sol)
    tf = _tf(params, sol[0], sol[1])
    return OptimizationResult(
        kappa_ex=point.kappa_ex,
        delta12=sol[0],
        delta_c=sol[1],
        t_fwd=tf,
        t_bwd=tb,
        contrast_db=contrast_db(tf, tb),
        iterations=evaluations + spent,
        converged=bool(tb <= ZERO_TB_TARGET),
    )


def _grid_dips(kex_params, d12_params, n0: np.ndarray, decays: np.ndarray) -> np.ndarray:
    """cavity_dip_detuning at every node of a grid, NaN where it finds no dip.

    kex_params and d12_params hold the hardware at each kappa_ex and each
    delta12 of the axes, n0 their N0 per delta12 and decays their _decays
    per kappa_ex. N0 does not depend on kappa_ex, so the polariton modes
    are taken once per delta12; the poles and zeros of every node are one
    stacked eigvals, and one lockstep Brent search runs over every
    candidate bracket. Each node finds cavity_dip_detuning's dip bit for
    bit.
    """
    runs = [_dip_runs(*polariton_modes(p)) for p in d12_params]
    poles, zeros = _tb_poles_zeros(n0, decays[:, None])

    brackets = [[_dip_brackets(r, p.kappa, p.gamma) for r in runs] for p in kex_params]
    # one row (i, j, lo, hi) per candidate bracket, node by node
    rows = [
        (i, j, lo, hi)
        for i, row in enumerate(brackets)
        for j, node in enumerate(row)
        for _, _, lo, hi in node
    ]
    ii, jj, lo, hi = np.array(rows).reshape(-1, 4).T
    ii, jj = ii.astype(int), jj.astype(int)
    zeros, poles = zeros[ii, jj], poles[ii, jj]
    x, tb = _bounded_brent_array(
        lambda dc, k: _tb_rational_array(zeros[k], poles[k], dc), lo, hi, 1e-8
    )

    dips = np.full((len(kex_params), len(d12_params)), math.nan)
    minima = iter(zip(x.tolist(), tb.tolist()))
    for i, row in enumerate(brackets):
        for j, node in enumerate(row):
            dip = _pick_dip(node, [next(minima) for _ in node])
            if dip is not None:
                dips[i, j] = dip
    return dips


def _driven_amplitudes(matrices: np.ndarray, port: int) -> np.ndarray:
    """Amplitude of the driven mode of each system, driven at port; NaN where its gate fails.

    The stack is one steady_state solve; a system that fails the gate is
    dropped and the rest solved again.
    """
    own = np.full(len(matrices), math.nan, dtype=complex)
    live = np.arange(len(matrices))
    while live.size:
        system = LinearSystem(matrices[live], np.tile(_IDENTITY[port], (live.size, 1)))
        try:
            own[live] = steady_state(system)[:, port]
        except _SystemFailure as exc:
            live = np.delete(live, exc.index)
        else:
            break
    return own


def sweep_grid(
    params_fixed: SystemParams, kappa_ex_axis, delta12_axis
) -> ContourData:
    """Contrast and transmissions over a (kappa_ex, delta12) grid.

    At each node the operating detuning is set to the backward dip and
    the contrast evaluated there. The nodes are one batched pass
    (_grid_dips) followed by one stacked 4x4 solve per direction at the
    dips, and give the values of cavity_dip_detuning and transmission
    node by node, bit for bit. A node without a dip, or whose solve fails
    its gate, is marked NaN. The zero-T_b ridge is extracted per kappa_ex
    column by a scalar bounded search over the best node's splitting,
    each step a cavity_dip_detuning and a backward solve; the search
    returns a splitting it evaluated, so a refined point costs one more
    forward solve. Refined points below the ridge threshold form the trace.
    """
    kex_axis = checked_axis(kappa_ex_axis, "kappa_ex axis")
    d12_axis = checked_axis(delta12_axis, "delta12 axis")

    # (kappa_ex, delta12) -> (params, dip, T_b) of every ridge step
    seen: dict[tuple[float, float], tuple[SystemParams, float, float]] = {}

    def dip_bwd(kex: float, d12: float) -> float:
        params = replace(params_fixed, kappa_ex=float(kex), delta12=float(d12))
        dc = cavity_dip_detuning(params)
        seen[float(kex), float(d12)] = params, dc, transmission(params, DriveSpec("backward", dc))
        return seen[float(kex), float(d12)][2]

    kex_params = [replace(params_fixed, kappa_ex=float(k)) for k in kex_axis]
    d12_params = [replace(params_fixed, delta12=float(d)) for d in d12_axis]
    n0 = np.stack([coupling_matrix(p) for p in d12_params])
    decays = np.stack([_decays(p) for p in kex_params])
    dips = _grid_dips(kex_params, d12_params, n0, decays)
    ii, jj = np.nonzero(np.isfinite(dips))
    matrices = _system_matrix(n0[jj], decays[ii, 0], dips[ii, jj][:, None, None])
    own_bwd, own_fwd = (_driven_amplitudes(matrices, port) for port in (1, 0))
    ok = np.isfinite(own_bwd) & np.isfinite(own_fwd)

    nk, nd = kex_axis.size, d12_axis.size
    delta_c = np.full((nk, nd), math.nan)
    t_fwd = np.full((nk, nd), math.nan)
    t_bwd = np.full((nk, nd), math.nan)
    contrast = np.full((nk, nd), math.nan)
    saturated = np.zeros((nk, nd), dtype=bool)
    for i, j, bwd, fwd in zip(ii[ok].tolist(), jj[ok].tolist(), own_bwd[ok], own_fwd[ok]):
        t_bwd[i, j] = _transmitted(kex_params[i], bwd)
        t_fwd[i, j] = _transmitted(kex_params[i], fwd)
        delta_c[i, j] = dips[i, j]
        contrast[i, j] = contrast_db(t_fwd[i, j], t_bwd[i, j])
        saturated[i, j] = t_bwd[i, j] < CONTRAST_FLOOR

    trace_rows = []
    for i, kex in enumerate(kex_axis):
        row = t_bwd[i]
        if np.all(np.isnan(row)):
            continue
        j_best = int(np.nanargmin(row))
        if nd == 1:
            d12_star = float(d12_axis[0])
            dip_bwd(kex, d12_star)
        else:
            lo = float(d12_axis[max(0, j_best - 1)])
            hi = float(d12_axis[min(nd - 1, j_best + 1)])
            lo, hi = min(lo, hi), max(lo, hi)
            try:
                res = minimize_scalar(
                    lambda d12: dip_bwd(kex, d12),
                    bounds=(lo, hi),
                    method="bounded",
                    options={"xatol": 1e-6},
                )
            except (NoDipError, SingularSystemError):
                continue
            d12_star = float(res.x)
        params, dc_star, tb_star = seen[float(kex), d12_star]
        tf_star = transmission(params, DriveSpec("forward", dc_star))
        if tb_star < RIDGE_THRESHOLD:
            row = (float(kex), d12_star, dc_star, tf_star, tb_star)
            trace_rows.append((*row, contrast_db(tf_star, tb_star), tb_star < CONTRAST_FLOOR))

    trace_rows = np.asarray(trace_rows, dtype=float).reshape(-1, 7)
    return ContourData(
        kappa_ex=kex_axis,
        delta12=d12_axis,
        delta_c=delta_c,
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        contrast_db=contrast,
        saturated=saturated,
        zero_tb_rows=trace_rows,
    )


def save_contour(path, contour: ContourData) -> None:
    """Write contour nodes row-major over (kappa_ex, delta12)."""
    rows = (
        (
            contour.kappa_ex[i],
            contour.delta12[j],
            contour.delta_c[i, j],
            contour.t_fwd[i, j],
            contour.t_bwd[i, j],
            contour.contrast_db[i, j],
            bool(contour.saturated[i, j]),
        )
        for i in range(contour.kappa_ex.size)
        for j in range(contour.delta12.size)
    )
    write_table(path, CONTOUR_COLUMNS, rows)


def save_zero_trace(path, contour: ContourData) -> None:
    """Write the refined zero-T_b trace with the contour schema."""
    rows = ((*row[:6], bool(row[6])) for row in contour.zero_tb_rows)
    write_table(path, CONTOUR_COLUMNS, rows)
