"""Search utilities on the zero-backward-transmission manifold.

Backward transmission vanishes along a line in (kappa_ex, delta12,
delta_c). By the matrix determinant lemma the backward amplitude is
proportional to det(Delta*I + N0(delta12) - i*Gamma_b), where Gamma_b is
the decay matrix with the backward-mode rate kappa replaced by
kappa_i - kappa_ex. At one coupling that determinant has degree 4 in the
detuning Delta and 2 in the splitting delta12, so its real zeros are the
real roots of one resultant of its real and imaginary parts, found
without seeds, for a whole stack of couplings at once. Each root is
re-evaluated through the 4x4 model; one that misses ZERO_TB_TARGET is
polished by a Nelder-Mead simplex. On that zero set this module traces
the zero line, writes the zero trace of a contour sweep, and maximizes
the isolation contrast by a bounded search over the coupling.

The same lemma gives the backward amplitude in pole-zero form,
t_b(Delta) = i*prod(Delta - z_k)/prod(Delta - p_k), with the poles the
eigenvalues of i*Gamma - N0 and the zeros those of i*Gamma_b - N0. The
backward-dip search, cavity_dip_detuning, runs over a whole
(kappa_ex, delta12) grid: one stacked eigvals for every node's poles and
zeros, and one lockstep port of scipy's bounded Brent search over every
candidate bracket, each step a product of four ratios. A contour sweep
reports the transmissions of one stacked 4x4 solve per direction at the
dips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import minimize, minimize_scalar

from .analytic import IsolationPoint, polariton_modes
from .errors import ContinuationError, NoDipError, ValidationError
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
from .tableio import checked_axis, finite, write_table

# T_b values below this are clamped for dB reporting and flagged saturated.
CONTRAST_FLOOR = 1e-12

# A fixed-splitting operating point counts as converged below this T_b.
ZERO_TB_ACCEPT = 1e-8

# Every zero found or reported re-evaluates below this backward transmission.
ZERO_TB_TARGET = 1e-10

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

# the zeros of T_b at one coupling, each with its re-evaluated T_b
_Zeros = list[tuple[IsolationPoint, float]]


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
    the export rows, in the contour schema, of every zero of backward
    transmission at a kappa_ex of the axis whose delta12 lies within the
    delta12 axis: none, one or more per kappa_ex, ordered by delta12. Its
    first two columns are the (kappa_ex, delta12) trace.
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


def _tb_rational_array(zeros: np.ndarray, poles: np.ndarray, delta_c: np.ndarray) -> np.ndarray:
    """Backward transmission |prod (Delta - z_k)/(Delta - p_k)|**2 per row at Delta = delta_c.

    zeros and poles are (n, 4), delta_c is (n,). CPython's complex
    arithmetic is repeated in real operations, which keeps every sweep's
    dips digit for digit: the quotient divides through by the larger part
    of the denominator (_Py_c_quot, unlike numpy), the product is
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


def _bounded_brent_array(func, lo, hi, xatol: float) -> tuple[np.ndarray, np.ndarray]:
    """Minima (x, f) of func on arrays of brackets [lo, hi], searched in lockstep.

    The search is scipy's bounded Brent method, minimize_scalar(
    method="bounded") (Brent 1973, ch. 5), ported with the same constants,
    steps and 500-evaluation cap, so every element returns scipy's res.x
    and res.fun bit for bit. func(x, idx) returns the objective of element
    idx[k] at x[k]; an element that has stopped is no longer evaluated.
    """
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = a + golden_mean * (b - a)
    live = np.arange(a.size)
    fx = func(xf, live)
    zero = np.zeros_like(a)
    # one row per variable of scipy's driver, one column per element
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


def cavity_dip_detuning(params_fixed: SystemParams, kappa_ex, delta12) -> np.ndarray:
    """Backward-transmission dip detuning at every node of a (kappa_ex, delta12) grid.

    Dips sit at the polariton eigen-detunings, so each non-positive
    eigenvalue seeds a bounded one-dimensional minimization of T_b (the
    relevant branch has negative detuning, matching the sign of the
    ideal-case operating point). T_b is read from the pole-zero form of
    the backward amplitude, the poles and zeros of every node one stacked
    eigvals, and one lockstep port of scipy's bounded Brent search runs
    over every candidate bracket of every node. A node's dip is its
    deepest interior minimum; ties fall to the candidate whose eigenvector
    has the larger photonic weight. The result has the shape
    (kappa_ex, delta12), NaN where every local search escapes its bracket.
    """
    kex_params = [replace(params_fixed, kappa_ex=float(k)) for k in kappa_ex]
    d12_params = [replace(params_fixed, delta12=float(d)) for d in delta12]
    runs = [_dip_runs(*polariton_modes(p)) for p in d12_params]
    n0 = np.stack([coupling_matrix(p) for p in d12_params])
    decays = np.stack([_decays(p) for p in kex_params])
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


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of the polynomials in the rows of a and b, lowest degree first."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i, None] * b
    return out


def _polyroots(c: np.ndarray) -> list[np.ndarray]:
    """P.polyroots of each row of c, as one stacked eigvals of its companion matrices.

    The companion matrices are those of P.polyroots, so each row's roots
    equal its own call's. A row whose top coefficient vanishes, or whose
    companion overflows, goes through P.polyroots, which trims it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = c[:, :-1] / c[:, -1:]
    stacked = np.isfinite(ratio).all(axis=1)
    n = c.shape[1] - 1
    companion = np.zeros((int(stacked.sum()), n, n), dtype=c.dtype)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1
    companion[:, :, -1] -= ratio[stacked]
    values = iter(np.sort(np.linalg.eigvals(companion[:, ::-1, ::-1]), axis=-1))
    return [next(values) if ok else P.polyroots(row) for ok, row in zip(stacked.tolist(), c)]


def _tb_zeros(params: SystemParams, kappa_ex) -> tuple[list[_Zeros], int]:
    """Every real zero (delta12, delta_c) of T_b at each coupling of kappa_ex.

    D(Delta, delta12) = det(Delta*I + N0(delta12) - i*Gamma_b) is
    interpolated exactly at scaled roots of unity, five in Delta and three
    in delta12, so its coefficients come from one 2-D FFT. For real
    arguments D = 0 means Re D = Im D = 0, two quadratics in delta12 whose
    resultant is a polynomial in Delta; each real root gives delta12 as
    the near-real root of D(Delta, .). Each step is stacked over the
    couplings, and gives each coupling the numbers of its own call bit
    for bit. The roots are re-evaluated by one stacked solve per
    direction; one missing ZERO_TB_TARGET is polished on its own. Returns
    per coupling its zeros, by ascending delta_c, each with its T_b, and
    the count of resultant solves plus polishing evaluations.
    """
    hardware = [replace(params, kappa_ex=float(k)) for k in kappa_ex]
    scale = np.array([max(p.g0, p.kappa, p.h, p.gamma) for p in hardware])
    gamma_b = np.stack([_backward_decay(p) for p in hardware])[:, None, None]
    s = scale[:, None, None, None, None]
    x = s * np.exp(2j * np.pi * np.arange(5) / 5)[:, None, None, None]
    y = s * np.exp(2j * np.pi * np.arange(3) / 3)[None, :, None, None]
    n0 = coupling_matrix(replace(params, delta12=0.0))
    split = coupling_matrix(replace(params, delta12=1.0)) - n0
    matrices = n0 - 1j * gamma_b + x * np.eye(4) + y * split
    # coef[m, k, j] multiplies (Delta/scale)**k * (delta12/scale)**j
    divisor = np.array([15 * v**4 for v in scale.tolist()])[:, None, None]
    coef = np.fft.fft2(np.linalg.det(matrices)) / divisor
    re, im = coef.real.transpose(0, 2, 1), coef.imag.transpose(0, 2, 1)

    def cross(i, j):
        return _polymul(re[:, i], im[:, j]) - _polymul(re[:, j], im[:, i])

    # resultant of re[2] v^2 + re[1] v + re[0] and im[2] v^2 + im[1] v + im[0]
    resultant = _polymul(cross(2, 0), cross(2, 0)) - _polymul(cross(2, 1), cross(1, 0))

    roots = _polyroots(resultant)
    real = [r[np.abs(r.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(r))].real for r in roots]
    which, u = np.repeat(np.arange(len(real)), [r.size for r in real]), np.concatenate(real)
    # D(u, .) at each real root, by Horner's rule as P.polyval
    quadratic = coef[which, -1] + u[:, None] * 0
    for k in range(2, coef.shape[1] + 1):
        quadratic = coef[which, -k] + quadratic * u[:, None]
    v = [r[np.argmin(np.abs(r.imag))].real for r in _polyroots(quadratic)]
    delta12, delta_c = scale[which] * np.array(v), scale[which] * u

    # N0(delta12) equals coupling_matrix's bit for bit: split is 0 or +-1/2
    n0 = n0 + delta12[:, None, None] * split
    decay = np.stack([decay_matrix(p) for p in hardware])[which]
    systems = _system_matrix(n0, decay, delta_c[:, None, None])
    own = _driven_amplitudes(systems, 1)
    tb = [_transmitted(hardware[m], a) for m, a in zip(which.tolist(), own)]
    hit = np.array(tb) <= ZERO_TB_TARGET
    own_fwd = iter(_driven_amplitudes(systems[hit], 0))

    zeros: list[_Zeros] = [[] for _ in hardware]
    evaluations = len(hardware)
    for m, point, t_b, ok in zip(which.tolist(), zip(delta12.tolist(), delta_c.tolist()), tb, hit):
        params_m = hardware[m]
        if not ok:
            if not t_b <= _POLISH_BELOW:
                continue
            t_b, point, spent = _minimize_tb(params_m, point)
            evaluations += spent
            if not t_b <= ZERO_TB_TARGET:
                continue
        t_f = _transmitted(params_m, next(own_fwd)) if ok else _tf(params_m, *point)
        if math.isfinite(t_f):
            zeros[m].append((IsolationPoint(params_m.kappa_ex, *point, t_f), t_b))
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

    The exact zero sets of all samples are one _tb_zeros call; each sample
    then keeps the zero nearest the previous sample's point. Samples are
    visited outward from the one nearest seed.kappa_ex, which keeps the
    zero nearest seed; without a seed they run upward from the first,
    which keeps the most transmissive zero of non-positive detuning.
    Points re-evaluate at T_b <= 1e-10. Raises ContinuationError listing
    the samples that admit no zero; the error carries the successful
    points for callers that want partial traces.
    """
    lo, hi = kappa_ex_range
    if not (finite(lo) and finite(hi)):
        raise ValidationError("kappa_ex_range ends must be finite real numbers")
    lo, hi = float(lo), float(hi)
    if not (lo <= hi):
        raise ValidationError("kappa_ex range must satisfy lo <= hi")
    if lo <= params_fixed.kappa_i:
        raise ValidationError("zero-backward tracing requires kappa_ex > kappa_i over the range")
    if isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer)):
        raise ValidationError("n_points must be an integer")
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    samples = np.linspace(lo, hi, n_points)
    start = 0 if seed is None else int(np.argmin(np.abs(samples - seed.kappa_ex)))
    zeros, _ = _tb_zeros(params_fixed, samples)

    found: dict[int, IsolationPoint] = {}
    failures: list[float] = []
    for walk in (range(start, n_points), range(start - 1, -1, -1)):
        ref = found.get(start, seed)
        for idx in walk:
            if zeros[idx]:
                ref = found[idx] = _follow([z for z, _ in zeros[idx]], ref)
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
    (kappa_i, kappa_i + 1.05*(gamma/2 + 10*max(g0, gamma))], one _tb_zeros
    call, brackets its local maxima, each is refined by a bounded
    one-dimensional search, and the best point, in the positive-splitting
    convention, is polished before it is reported. kappa_ex and delta12
    of params_fixed are ignored (they are being optimized); g0, gamma,
    kappa_i, h, p, theta are treated as fixed hardware.

    With fixed_delta12 given, a finite number, no search runs: the result
    reports the contrast at the backward dip for that splitting
    (identically 0 dB at zero splitting, where transmission is reciprocal
    by symmetry). Raises NoDipError when that splitting has no dip.
    """
    if fixed_delta12 is not None:
        if not finite(fixed_delta12):
            raise ValidationError("fixed_delta12 must be None or a finite number")
        params = replace(params_fixed, delta12=float(fixed_delta12))
        dc = cavity_dip_detuning(params, [params.kappa_ex], [params.delta12]).item()
        if math.isnan(dc):
            raise NoDipError("no interior backward-transmission minimum found for %r" % (params,))
        tf = transmission(params, DriveSpec("forward", dc))
        # transmission is exactly reciprocal at zero splitting; reuse the
        # forward value instead of resolving to keep the symmetry exact
        tb = tf if params.delta12 == 0 else transmission(params, DriveSpec("backward", dc))
        result = (params.kappa_ex, params.delta12, dc, tf, tb, contrast_db(tf, tb), 0)
        return OptimizationResult(*result, converged=bool(tb <= ZERO_TB_ACCEPT))

    if params_fixed.g0 <= 0:
        raise ValidationError("contrast maximization requires g0 > 0")
    gamma = params_fixed.gamma
    dk_hi = gamma / 2.0 + 10.0 * max(params_fixed.g0, gamma)
    # the best T_f can peak in the narrow window just above kappa_i and
    # again at large couplings, so the scan is logarithmic in kappa_ex - kappa_i
    scan = params_fixed.kappa_i + np.geomspace(1e-6 * gamma, 1.05 * dk_hi, _SCAN_POINTS)

    best: dict[float, IsolationPoint] = {}
    evaluations = 0

    def negative_tf(kappa_ex: list[float]) -> list[float]:
        nonlocal evaluations
        zeros, spent = _tb_zeros(params_fixed, kappa_ex)
        evaluations += spent
        for kex, found in zip(kappa_ex, zeros):
            if found:
                best[kex] = max((z for z, _ in found), key=lambda z: z.t_fwd_predicted)
        return [-best[kex].t_fwd_predicted if found else 0.0 for kex, found in zip(kappa_ex, zeros)]

    values = negative_tf(scan.tolist())
    if not best:
        raise ContinuationError(
            "no zero-backward-transmission point over the coupling scan; cannot maximize contrast",
            failed_kappa_ex=scan.tolist(),
        )
    for i, value in enumerate(values):
        lo, hi = max(i - 1, 0), min(i + 1, _SCAN_POINTS - 1)
        if value < 0 and value <= min(values[lo], values[hi]):
            # the result is read from best, where negative_tf records every visit
            minimize_scalar(
                lambda kex: negative_tf([float(kex)])[0],
                bounds=(scan[lo], scan[hi]),
                method="bounded",
                options={"xatol": 1e-6},
            )

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
    result = (point.kappa_ex, *sol, tf, tb, contrast_db(tf, tb), evaluations + spent)
    return OptimizationResult(*result, converged=bool(tb <= ZERO_TB_TARGET))


def sweep_grid(params_fixed: SystemParams, kappa_ex_axis, delta12_axis) -> ContourData:
    """Contrast and transmissions over a (kappa_ex, delta12) grid, and its zero trace.

    At each node the operating detuning is set to the backward dip, one
    cavity_dip_detuning call for the whole grid, and the contrast is
    evaluated there by one stacked 4x4 solve per direction. A node without
    a dip, or whose solve fails its gate, is marked NaN. The zero trace is
    the exact zero set at every kappa_ex of the axis, one _tb_zeros call:
    each zero whose delta12 lies within the delta12 axis is a row, so a
    kappa_ex has none, one or more rows, ordered by delta12.
    """
    kex_axis = checked_axis(kappa_ex_axis, "kappa_ex axis")
    d12_axis = checked_axis(delta12_axis, "delta12 axis")

    dips = cavity_dip_detuning(params_fixed, kex_axis, d12_axis)
    kex_params = [replace(params_fixed, kappa_ex=float(k)) for k in kex_axis]
    n0 = np.stack([coupling_matrix(replace(params_fixed, delta12=float(d))) for d in d12_axis])
    decay = np.stack([decay_matrix(p) for p in kex_params])
    ii, jj = np.nonzero(np.isfinite(dips))
    matrices = _system_matrix(n0[jj], decay[ii], dips[ii, jj][:, None, None])
    own_bwd, own_fwd = (_driven_amplitudes(matrices, port) for port in (1, 0))
    ok = np.isfinite(own_bwd) & np.isfinite(own_fwd)

    delta_c, t_fwd, t_bwd, contrast = (np.full(dips.shape, math.nan) for _ in range(4))
    saturated = np.zeros(dips.shape, dtype=bool)
    for i, j, bwd, fwd in zip(ii[ok].tolist(), jj[ok].tolist(), own_bwd[ok], own_fwd[ok]):
        t_bwd[i, j] = _transmitted(kex_params[i], bwd)
        t_fwd[i, j] = _transmitted(kex_params[i], fwd)
        delta_c[i, j] = dips[i, j]
        contrast[i, j] = contrast_db(t_fwd[i, j], t_bwd[i, j])
        saturated[i, j] = t_bwd[i, j] < CONTRAST_FLOOR

    d12_lo, d12_hi = sorted((float(d12_axis[0]), float(d12_axis[-1])))
    zeros, _ = _tb_zeros(params_fixed, kex_axis)
    trace_rows = [
        (z.kappa_ex, z.delta12, z.delta_c, z.t_fwd_predicted, tb)
        + (contrast_db(z.t_fwd_predicted, tb), tb < CONTRAST_FLOOR)
        for column in zeros
        for z, tb in sorted(column, key=lambda pair: pair[0].delta12)
        if d12_lo <= z.delta12 <= d12_hi
    ]
    return ContourData(
        kappa_ex=kex_axis,
        delta12=d12_axis,
        delta_c=delta_c,
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        contrast_db=contrast,
        saturated=saturated,
        zero_tb_rows=np.asarray(trace_rows, dtype=float).reshape(-1, 7),
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
    """Write the zero-T_b trace with the contour schema."""
    rows = ((*row[:6], bool(row[6])) for row in contour.zero_tb_rows)
    write_table(path, CONTOUR_COLUMNS, rows)
