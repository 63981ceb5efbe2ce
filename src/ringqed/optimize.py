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

The same lemma writes T_b(Delta) = |n/d|**2, n that determinant and d
its counterpart with Gamma, so the backward dips of a whole (kappa_ex,
delta12) grid, cavity_dip_detuning, are real roots of one polynomial per
node: no search, one stacked companion eigvals, then Newton steps. A
contour sweep reports one stacked 4x4 solve per direction at the dips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P

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

# Relative imaginary part up to which a polynomial root counts as real; the
# resultant roots of genuine zeros stayed near 1e-7 or below on random hardware.
_REAL_ROOT_TOL = 1e-6

# D(u, .) at a real resultant root u, relative to D's largest coefficient,
# below which u lies on a line of zeros; on random hardware it stayed above
# 6e-4 at every real root, and on such lines below 2e-8.
_LINE_TOL = 1e-6

# A top coefficient of W, relative to the product of A's and B's largest,
# at or below which it is rounding; where W vanishes it stayed near 1e-14.
_W_ROUNDING = 1e-12

# Relative difference up to which two dips tie in depth, weight or |delta_c|.
_TIE = 1e-9

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


def _dip_brackets(runs, kappa: np.ndarray, gamma: float) -> np.ndarray:
    """(weight, width, lo, hi) of the bracket around each candidate of runs at each kappa.

    The result is (4, len(kappa), 4), NaN past the last candidate.
    """
    centers, candidates = runs
    brackets = np.full((4, kappa.size, 4), math.nan)
    for k, (center, weight) in enumerate(candidates):
        others = [abs(center - c) for c in centers if c != center]
        width = np.maximum(kappa, max(gamma, 0.5 * min(others)) if others else gamma)
        brackets[0, :, k] = weight
        brackets[1:, :, k] = width, center - width, center + width
    return brackets


def _pick_dip(weight: np.ndarray, x: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """The deepest minimum x of each node, NaN where it has none.

    x and tb (..., brackets, roots) hold each bracket's minima and their
    T_b, inf where none; weight (..., brackets) holds each bracket's
    photonic weight. Values within a relative _TIE are equal: ties in T_b
    fall to the larger weight, then the smaller |x|, then the smaller x.
    """
    tied = np.isfinite(tb)
    for key in (tb, -np.broadcast_to(weight[..., None], x.shape), np.abs(x)):
        best = np.where(tied, key, np.inf).min(axis=(-2, -1), keepdims=True)
        tied &= key <= best + _TIE * np.abs(best)
    dip = np.where(tied, x, np.inf).min(axis=(-2, -1))
    return np.where(np.isfinite(dip), dip, math.nan)


def _tb_quotient(shifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n and d of T_b = |n/d|**2 at each node, as polynomials in Delta/scale.

    shifted (m, 2, 4, 4) stacks N0 - i*Gamma_b and N0 - i*Gamma per node;
    n and d are det(Delta*I + shifted), monic quartics, interpolated
    exactly at five roots of unity times scale, a bound on the infinity
    norm of N0 - i*Gamma and so on all their roots: one stacked det and
    one FFT. Returns scale (m,) and the coefficients (m, 2, 5) of n and d,
    lowest degree first, divided by scale**4.
    """
    scale = (np.abs(shifted[:, 1].real) + np.abs(shifted[:, 1].imag)).sum(axis=-1).max(axis=-1)
    x = scale[:, None, None] * np.exp(2j * np.pi * np.arange(5) / 5)
    values = np.linalg.det(shifted[:, :, None] + x[..., None, None] * np.eye(4))
    return scale, np.fft.fft(values) / (5.0 * scale**4)[:, None, None]


def _polish_dips(shifted: np.ndarray, coef: np.ndarray, scale: np.ndarray, x: np.ndarray):
    """The minima x after Newton steps on W/2 = Re(n'n*)|d|**2 - |n|**2 Re(d'd*), and T_b there.

    shifted, coef and scale are _tb_quotient's, one row per minimum. n and
    d come from det at x, their derivatives from coef, so W keeps the
    digits its polynomial loses where A = |n|**2 has a near-double root,
    near a zero of T_b, or where n and d share a factor. A row stops at a
    step below 1e-12 * scale, and all after eight; no step of 1e-2 * scale
    or more, or where W' <= 0, is taken.
    """
    first = coef[..., 1:] * np.arange(1, 5)
    second = first[..., 1:] * np.arange(1, 4)
    for left in range(8, -1, -1):
        nd = np.linalg.det(shifted + x[:, None, None, None] * np.eye(4)) / (scale**4)[:, None]
        nd1, nd2 = (_polyval(c, (x / scale)[:, None]) for c in (first, second))
        # (Re(n'n*), Re(d'd*)) and their derivatives against (|d|**2, |n|**2);
        # complex abs would round by the stack's length, real ops do not
        slope = (nd1 * nd.conj()).real
        curve = (nd2 * nd.conj()).real + nd1.real**2 + nd1.imag**2
        size = nd.real[:, ::-1] ** 2 + nd.imag[:, ::-1] ** 2
        w, w1 = (f[:, 0] * size[:, 0] - f[:, 1] * size[:, 1] for f in (slope, curve))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where((w1 > 0) & (np.abs(w) < 1e-2 * w1), -scale * w / w1, 0.0)
        # a row that has converged stays put, so a row's steps do not depend on its stack
        step[np.abs(step) <= 1e-12 * scale] = 0.0
        if not left or not step.any():
            return x, size[:, 1] / size[:, 0]
        x = x + step


def cavity_dip_detuning(params_fixed: SystemParams, kappa_ex, delta12) -> np.ndarray:
    """Backward-transmission dip detuning at every node of a (kappa_ex, delta12) grid.

    Dips sit near the polariton eigen-detunings, so a bracket around each
    non-positive eigenvalue holds the candidates (the relevant branch has
    negative detuning, matching the sign of the ideal-case operating
    point). With n and d from _tb_quotient, T_b = A/B for the real octics
    A = |n|**2 and B = |d|**2, whose stationary points are the real roots
    of W = A'B - AB'. Its degree-15 and degree-14 terms cancel, the second
    because n and d have the same real trace, so one stacked 13x13
    companion eigvals gives every node's. The minima are the roots where
    W' > 0; those inside a bracket, more than 1e-3 widths from its ends,
    are polished by _polish_dips, which also gives their T_b. A node's dip
    is its deepest such minimum, ties falling to the larger photonic weight
    (see _pick_dip). The result has the shape (kappa_ex, delta12), NaN
    where no bracket holds a minimum, as where T_b is constant.
    """
    kex_params = [replace(params_fixed, kappa_ex=float(k)) for k in kappa_ex]
    d12_params = [replace(params_fixed, delta12=float(d)) for d in delta12]
    runs = [_dip_runs(*polariton_modes(p)) for p in d12_params]
    n0 = np.stack([coupling_matrix(p) for p in d12_params])
    decays = np.stack([[_backward_decay(p), decay_matrix(p)] for p in kex_params])
    # one row per node, the splitting fastest
    shifted = (n0[None, :, None] - 1j * decays[:, None]).reshape(-1, 2, 4, 4)
    scale, coef = _tb_quotient(shifted)
    a, b = (_polymul(c, c.conj()).real for c in (coef[:, 0], coef[:, 1]))
    k = np.arange(1, 9)
    w = (_polymul(a[:, 1:] * k, b) - _polymul(a, b[:, 1:] * k))[:, :14]
    # top terms at rounding level are none: where they cancel, as at
    # kappa_i = 0, W keeps its true degree, and a constant T_b has no W
    kept = np.abs(w) > _W_ROUNDING * (np.abs(a).max(axis=1) * np.abs(b).max(axis=1))[:, None]
    w[np.cumsum(kept[:, ::-1], axis=1)[:, ::-1] == 0] = 0.0

    roots = np.full((len(w), 13), math.nan, dtype=complex)
    for row, r in zip(roots, _polyroots(w)):
        row[: r.size] = r
    x = np.where(_is_real(roots), roots.real, math.nan)
    x[~(_polyval(w[:, None, 1:] * np.arange(1, 14), x) > 0)] = math.nan
    x = (scale[:, None] * x).reshape(len(kex_params), len(runs), 1, 13)

    kappa = np.array([p.kappa for p in kex_params])
    brackets = [_dip_brackets(r, kappa, params_fixed.gamma) for r in runs]
    # (coupling, splitting, bracket, 1) against (coupling, splitting, 1, root)
    weight, width, lo, hi = np.stack(brackets, axis=2)[..., None]
    edge = 1e-3 * width
    i, j, r = np.nonzero(((lo + edge < x) & (x < hi - edge)).any(axis=2))
    node, depth = i * len(runs) + j, np.full(x.shape, np.inf)
    polished = _polish_dips(shifted[node], coef[node], scale[node], x[i, j, 0, r])
    x[i, j, 0, r], depth[i, j, 0, r] = polished
    tb = np.where((lo + edge < x) & (x < hi - edge), depth, np.inf)
    return _pick_dip(weight[..., 0], np.broadcast_to(x, tb.shape), tb)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Importing scipy.optimize costs more than most commands' work, so this
    module imports it only when a search runs. Both wrappers are module
    attributes, which bench/tracing.py wraps by name.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar, imported on the first call."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(*args, **kwargs)


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
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.result_type(a, b))
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


def _is_real(roots: np.ndarray) -> np.ndarray:
    """Whether each root's imaginary part is within _REAL_ROOT_TOL; NaN is not."""
    return np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots))


def _polyval(c: np.ndarray, x) -> np.ndarray:
    """P.polyval over the last axis of c by Horner's rule; x broadcasts against c[..., 0]."""
    out = c[..., -1] + x * 0
    for k in range(2, c.shape[-1] + 1):
        out = c[..., -k] + out * x
    return out


def _tb_zeros(params: SystemParams, kappa_ex) -> tuple[list[_Zeros], int]:
    """Every real zero (delta12, delta_c) of T_b at each coupling of kappa_ex.

    D(Delta, delta12) = det(Delta*I + N0(delta12) - i*Gamma_b) is
    interpolated exactly at scaled roots of unity, five in Delta and three
    in delta12, so its coefficients come from one 2-D FFT. For real
    arguments D = 0 means Re D = Im D = 0, two quadratics in delta12 whose
    resultant is a polynomial in Delta; each real root gives delta12 as
    the near-real root of D(Delta, .). Where every coefficient of
    D(Delta, .) is within a relative _LINE_TOL = 1e-6 of D's largest,
    every delta12 is a zero at that Delta: the zero set holds a line there,
    not a point, as for a critically coupled bare cavity at delta_c = 0,
    and that root gives no zero, so no arbitrary or repeated point. Each
    step is stacked over the couplings, and gives each coupling the
    numbers of its own call bit for bit. The roots are re-evaluated by one
    stacked solve per direction; one missing ZERO_TB_TARGET is polished on
    its own. Returns per coupling its zeros, by ascending delta_c, each
    with its T_b, and the count of resultant solves plus polishing
    evaluations.
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
    real = [r[_is_real(r)].real for r in roots]
    which, u = np.repeat(np.arange(len(real)), [r.size for r in real]), np.concatenate(real)
    # D(u, .) at each real root; where it vanishes, u is on a line of zeros
    quadratic = _polyval(coef[which].transpose(0, 2, 1), u[:, None])
    point = np.abs(quadratic).max(axis=1) > _LINE_TOL * np.abs(coef).max(axis=(1, 2))[which]
    which, u, quadratic = which[point], u[point], quadratic[point]
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
