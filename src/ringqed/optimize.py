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
4x4 solve at the dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import minimize, minimize_scalar

from .analytic import IsolationPoint, polariton_modes
from .errors import ContinuationError, NoDipError, SingularSystemError, ValidationError
from .model import DriveSpec, SystemParams, coupling_matrix, decay_matrix, transmission
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

    delta_c holds the per-node backward-dip detuning. zero_tb_trace is a
    polyline of (kappa_ex, delta12) points where the refined backward
    minimum falls below the ridge threshold; zero_tb_rows carries the
    full export rows for those points.
    """

    kappa_ex: np.ndarray
    delta12: np.ndarray
    delta_c: np.ndarray
    t_fwd: np.ndarray
    t_bwd: np.ndarray
    contrast_db: np.ndarray
    saturated: np.ndarray
    zero_tb_trace: np.ndarray
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


def _tb_factors(params: SystemParams) -> list[tuple[complex, complex]]:
    """Zero-pole pairs (z_k, p_k) of t_b(Delta) = i*prod (Delta - z_k)/(Delta - p_k).

    The poles are the eigenvalues of i*Gamma - N0 (damped_eigenvalues) and
    the zeros those of i*Gamma_b - N0, one stacked eigvals for both. The
    pairing is arbitrary: only the whole product is meaningful.
    """
    n0 = coupling_matrix(params)
    decay = np.stack([decay_matrix(params), _backward_decay(params)])
    poles, zeros = np.linalg.eigvals(1j * decay - n0).tolist()
    return list(zip(zeros, poles))


def _tb_rational(factors: list[tuple[complex, complex]], delta_c: float) -> float:
    """Backward transmission |prod (Delta - z_k)/(Delta - p_k)|**2 at Delta = delta_c."""
    # a numpy scalar would route every complex operation through numpy
    delta_c, ratio = float(delta_c), 1.0
    for zero, pole in factors:
        ratio *= (delta_c - zero) / (delta_c - pole)
    return abs(ratio) ** 2


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


def cavity_dip_detuning(params: SystemParams) -> float:
    """Detuning of the backward-transmission dip used for contour sweeps.

    Dips sit at the polariton eigen-detunings, so each non-positive
    eigenvalue seeds a bounded one-dimensional minimization of T_b (the
    relevant branch has negative detuning, matching the sign of the
    ideal-case operating point). T_b is read from the pole-zero form of
    the backward amplitude, factored once per call, so a search step
    costs a product of four ratios instead of a 4x4 solve, and the search
    is scipy's bounded Brent method on plain floats (_bounded_brent),
    which finds the same minimum bit for bit. Among the
    bracketed interior minima the deepest one is returned; ties fall to
    the candidate whose eigenvector has the larger photonic weight.
    Raises NoDipError when every local search escapes its bracket.
    """
    values, vectors = polariton_modes(params)
    values = values.tolist()
    weights = np.sum(abs(vectors[:2]) ** 2, axis=0).tolist()
    # the values ascend, so an end holds the largest magnitude
    tol = 1e-9 * max(1.0, abs(values[0]), abs(values[-1]))

    # runs of degenerate eigenvalues as [value sum, weight sum, count];
    # each run reports its mean eigenvalue and mean photonic weight
    runs: list[list] = []
    for idx in range(4):
        if runs and values[idx] - values[idx - 1] <= tol:
            runs[-1][0] += values[idx]
            runs[-1][1] += weights[idx]
            runs[-1][2] += 1
        else:
            runs.append([values[idx], weights[idx], 1])
    centers = [total / count for total, _, count in runs]
    candidates = [(c, w / count) for c, (_, w, count) in zip(centers, runs) if c <= tol]

    factors = _tb_factors(params)
    results = []
    for center, weight in candidates:
        width = max(params.kappa, params.gamma)
        others = [c for c in centers if c != center]
        if others:
            width = max(width, 0.5 * min(abs(center - o) for o in others))
        lo, hi = center - width, center + width
        x, tb = _bounded_brent(lambda dc: _tb_rational(factors, dc), lo, hi, 1e-8)
        edge = 1e-3 * width
        if lo + edge < x < hi - edge:
            results.append((tb, -weight, abs(x), x))
    if not results:
        raise NoDipError("no interior backward-transmission minimum found for %r" % (params,))
    results.sort()
    return results[0][3]


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


def sweep_grid(
    params_fixed: SystemParams, kappa_ex_axis, delta12_axis
) -> ContourData:
    """Contrast and transmissions over a (kappa_ex, delta12) grid.

    At each node the operating detuning is set to the backward dip and
    the contrast evaluated there. Node failures are marked NaN. The
    zero-T_b ridge is extracted per kappa_ex column by refining the
    best node's splitting, each step solving the backward system only;
    refined points below the ridge threshold form the trace polyline.
    """
    kex_axis = checked_axis(kappa_ex_axis, "kappa_ex axis")
    d12_axis = checked_axis(delta12_axis, "delta12 axis")

    def dip_bwd(kex: float, d12: float) -> tuple[SystemParams, float, float]:
        params = replace(params_fixed, kappa_ex=float(kex), delta12=float(d12))
        dc = cavity_dip_detuning(params)
        return params, dc, transmission(params, DriveSpec("backward", dc))

    def dip_tb(kex: float, d12: float) -> tuple[float, float, float]:
        params, dc, tb = dip_bwd(kex, d12)
        return tb, transmission(params, DriveSpec("forward", dc)), dc

    nk, nd = kex_axis.size, d12_axis.size
    delta_c = np.full((nk, nd), math.nan)
    t_fwd = np.full((nk, nd), math.nan)
    t_bwd = np.full((nk, nd), math.nan)
    contrast = np.full((nk, nd), math.nan)
    saturated = np.zeros((nk, nd), dtype=bool)
    for i, kex in enumerate(kex_axis):
        for j, d12 in enumerate(d12_axis):
            try:
                t_bwd[i, j], t_fwd[i, j], delta_c[i, j] = dip_tb(kex, d12)
            except (NoDipError, SingularSystemError):
                continue
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
            tb_star, tf_star, dc_star = dip_tb(kex, d12_star)
        else:
            lo = float(d12_axis[max(0, j_best - 1)])
            hi = float(d12_axis[min(nd - 1, j_best + 1)])
            lo, hi = min(lo, hi), max(lo, hi)
            try:
                res = minimize_scalar(
                    lambda d12: dip_bwd(kex, d12)[2],
                    bounds=(lo, hi),
                    method="bounded",
                    options={"xatol": 1e-6},
                )
            except (NoDipError, SingularSystemError):
                continue
            d12_star = float(res.x)
            tb_star, tf_star, dc_star = dip_tb(kex, d12_star)
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
        zero_tb_trace=trace_rows[:, :2],
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
