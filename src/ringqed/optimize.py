"""Search utilities on the zero-backward-transmission manifold.

Backward transmission can be driven to zero along a one-dimensional line
in the space spanned by the waveguide coupling, the excited-state
splitting, and the operating detuning. This module locates the backward
dip detuning, traces the zero line, maximizes the isolation contrast
along it, and produces contour-sweep data over (kappa_ex, delta12).

All searches are derivative-free, deterministically seeded, and accept a
point only when the backward transmission re-evaluates below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .analytic import IsolationPoint, isolation_conditions, polariton_modes
from .errors import (
    ConstraintError,
    ContinuationError,
    NoDipError,
    SingularSystemError,
    ValidationError,
)
from .model import DriveSpec, SystemParams, transmission
from .tableio import checked_axis, write_table

# T_b values below this are clamped for dB reporting and flagged saturated.
CONTRAST_FLOOR = 1e-12

# A traced line point must re-evaluate below this backward transmission.
ZERO_TB_ACCEPT = 1e-8

# Internal optimizer target, two decades tighter than the acceptance.
ZERO_TB_TARGET = 1e-10

# Contour ridge extraction threshold on the refined backward minimum.
RIDGE_THRESHOLD = 1e-6

CONTOUR_COLUMNS = (
    "kappa_ex",
    "delta12",
    "delta_c",
    "t_fwd",
    "t_bwd",
    "contrast_db",
    "saturated",
)


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal operating point with achieved transmissions and contrast."""

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


def cavity_dip_detuning(params: SystemParams) -> float:
    """Detuning of the backward-transmission dip used for contour sweeps.

    Dips sit at the polariton eigen-detunings, so each non-positive
    eigenvalue seeds a bounded one-dimensional minimization of T_b (the
    relevant branch has negative detuning, matching the sign of the
    ideal-case operating point). Among the bracketed interior minima the
    deepest one is returned; ties fall to the candidate whose eigenvector
    has the larger photonic weight. Raises NoDipError when every local
    search escapes its bracket.
    """
    values, vectors = polariton_modes(params)
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-9 * scale

    # cluster degenerate eigenvalues and average their photonic weights
    clusters: list[list[int]] = []
    for idx in range(4):
        if clusters and values[idx] - values[clusters[-1][-1]] <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    centers = [float(np.mean(values[c])) for c in clusters]
    weights = [
        float(np.mean([np.sum(np.abs(vectors[:2, k]) ** 2) for k in c]))
        for c in clusters
    ]

    candidates = [
        (center, weight)
        for center, weight in zip(centers, weights)
        if center <= tol
    ]
    results = []
    for center, weight in candidates:
        width = max(params.kappa, params.gamma)
        others = [c for c in centers if c != center]
        if others:
            width = max(width, 0.5 * min(abs(center - o) for o in others))
        lo, hi = center - width, center + width
        res = minimize_scalar(
            lambda dc: _tb(params, params.delta12, dc),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-8},
        )
        edge = 1e-3 * width
        if lo + edge < res.x < hi - edge:
            results.append((float(res.fun), -weight, abs(float(res.x)), float(res.x)))
    if not results:
        raise NoDipError(
            "no interior backward-transmission minimum found for %r" % (params,)
        )
    results.sort()
    return results[0][3]


def _ideal_seeds(params: SystemParams) -> list[tuple[float, float]]:
    """Closed-form seed and its mirror image, when inside validity."""
    try:
        d12, dc = isolation_conditions(
            params.g0, params.gamma, params.kappa_i, params.kappa_ex
        )
    except ConstraintError:
        return []
    return [(d12, dc), (-d12, -dc)]


def _lattice_seeds(params: SystemParams) -> list[tuple[float, float]]:
    """Deterministic coarse seeds covering both splitting signs.

    The closed-form seed can sit far from the zero line once
    backscattering and imperfect helicity shift it, so a coupling-scaled
    lattice backs it up.
    """
    scale = max(params.g0, params.gamma)
    seeds = []
    for sign in (1.0, -1.0):
        for fd in (0.5, 1.0, 1.5, 2.25, 3.0):
            for fc in (0.3, 0.6, 1.0, 1.6):
                seeds.append((sign * fd * scale, -sign * fc * scale))
    return seeds


class _Budget:
    """Objective evaluation counter shared across one search."""

    def __init__(self):
        self.count = 0


def _minimize_tb(params, seed, budget, promising=1e-3):
    """Two-pass simplex minimization of T_b over (delta12, delta_c).

    The second, tighter pass runs only when the first lands close enough
    to zero to be worth polishing.
    """

    def objective(y):
        budget.count += 1
        return _tb(params, y[0], y[1])

    x0 = np.asarray(seed, dtype=float)
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 250},
    )
    if res.fun < promising:
        res2 = minimize(
            objective,
            res.x,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-22, "maxiter": 400},
        )
        if res2.fun < res.fun:
            res = res2
    return float(res.fun), (float(res.x[0]), float(res.x[1]))


def _refine_zero(params, seeds, budget, accept, stop_at=None):
    """Best zero candidate over a seed list, or None below acceptance.

    stop_at short-circuits the battery once a sufficiently deep zero is
    found; pass None to evaluate every seed and keep the global best.
    """
    best = None
    for seed in seeds:
        fun, point = _minimize_tb(params, seed, budget)
        if best is None or fun < best[0]:
            best = (fun, point)
        if stop_at is not None and best[0] <= stop_at:
            break
    if best is None or best[0] > accept:
        return None
    return best


def _zero_battery(params, budget, accept):
    """All distinct zeros reachable from the full seed battery."""
    zeros = []
    for seed in _ideal_seeds(params) + _lattice_seeds(params):
        fun, point = _minimize_tb(params, seed, budget)
        if fun > accept:
            continue
        if any(
            math.hypot(point[0] - z[1][0], point[1] - z[1][1]) < 0.5 * params.gamma
            for z in zeros
        ):
            continue
        zeros.append((fun, point))
    return zeros


def trace_zero_tb_line(
    params_fixed: SystemParams,
    kappa_ex_range: tuple[float, float],
    n_points: int,
    seed: IsolationPoint | None = None,
) -> list[IsolationPoint]:
    """Zero-backward-transmission line over a range of waveguide couplings.

    Each sample minimizes T_b over (delta12, delta_c), seeded by the
    solutions of neighboring samples (continuation), the closed-form
    conditions, and a deterministic lattice. Points are accepted at
    T_b <= 1e-8. Raises ContinuationError listing the samples that could
    not be driven below threshold; the error carries the successful
    points for callers that want partial traces.
    """
    lo, hi = float(kappa_ex_range[0]), float(kappa_ex_range[1])
    if not (lo <= hi):
        raise ValidationError("kappa_ex range must satisfy lo <= hi")
    if lo <= params_fixed.kappa_i:
        raise ValidationError(
            "zero-backward tracing requires kappa_ex > kappa_i over the range"
        )
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    samples = np.linspace(lo, hi, n_points)

    if seed is not None:
        start = int(np.argmin(np.abs(samples - seed.kappa_ex)))
        order = sorted(range(n_points), key=lambda i: (abs(i - start), i))
    else:
        order = list(range(n_points))

    budget = _Budget()
    solutions: dict[int, tuple[float, float]] = {}
    failures: list[float] = []
    for idx in order:
        params = replace(params_fixed, kappa_ex=float(samples[idx]))
        neighbor_seeds = [
            solutions[j]
            for j in sorted(
                (j for j in solutions if abs(j - idx) <= 2),
                key=lambda j: abs(j - idx),
            )
        ]
        seeds = list(neighbor_seeds)
        if seed is not None and not solutions:
            seeds.append((seed.delta12, seed.delta_c))
        seeds.extend(_ideal_seeds(params))
        seeds.extend(_lattice_seeds(params))
        best = _refine_zero(params, seeds, budget, ZERO_TB_ACCEPT, stop_at=ZERO_TB_TARGET)
        if best is None:
            failures.append(float(samples[idx]))
        else:
            solutions[idx] = best[1]

    points = [
        IsolationPoint(
            kappa_ex=float(samples[idx]),
            delta12=solutions[idx][0],
            delta_c=solutions[idx][1],
            t_fwd_predicted=_tf(
                replace(params_fixed, kappa_ex=float(samples[idx])),
                solutions[idx][0],
                solutions[idx][1],
            ),
        )
        for idx in sorted(solutions)
    ]
    if failures:
        raise ContinuationError(
            "backward transmission could not be driven below %.1e at "
            "kappa_ex = %s" % (ZERO_TB_ACCEPT, ", ".join("%g" % k for k in failures)),
            failed_kappa_ex=failures,
            points=points,
        )
    return points


def _continue_family(params_fixed, start_kex, start_sol, sign, kex_lo, kex_hi, budget):
    """Walk one zero family in kappa_ex until it is lost or stops paying."""
    points = []
    kex, sol = start_kex, start_sol
    best_tf = _tf(replace(params_fixed, kappa_ex=kex), sol[0], sol[1])
    decline = 0
    for _ in range(200):
        step = max(0.02 * kex, 0.01 * params_fixed.gamma)
        kex_next = kex + sign * step
        if not (kex_lo < kex_next < kex_hi):
            break
        params = replace(params_fixed, kappa_ex=float(kex_next))
        fun, point = _minimize_tb(params, sol, budget)
        if fun > ZERO_TB_TARGET:
            break
        tf = _tf(params, point[0], point[1])
        points.append((float(kex_next), point, tf))
        if tf > best_tf:
            best_tf, decline = tf, 0
        else:
            decline += 1
            if decline >= 8:
                break
        kex, sol = kex_next, point
    return points


def maximize_contrast(
    params_fixed: SystemParams, fixed_delta12: float | None = None
) -> OptimizationResult:
    """Operating point of maximal isolation contrast at zero T_b.

    Zeros of the backward transmission are collected on a logarithmic
    anchor grid of couplings, the most transmissive families are followed
    by continuation, and the best family is polished with a bounded
    one-dimensional search. kappa_ex and delta12 of params_fixed are
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
    ki = params_fixed.kappa_i
    dk_hi = gamma / 2.0 + 10.0 * max(params_fixed.g0, gamma)
    kex_lo = ki + 1e-6 * gamma
    kex_hi = ki + 1.05 * dk_hi
    anchors = ki + np.geomspace(0.05 * gamma, dk_hi, 12)

    budget = _Budget()
    candidates = []  # (tf, kappa_ex, (delta12, delta_c), family id)
    families = 0
    for kex in anchors:
        params = replace(params_fixed, kappa_ex=float(kex))
        for fun, point in _zero_battery(params, budget, ZERO_TB_TARGET):
            tf = _tf(params, point[0], point[1])
            candidates.append((tf, float(kex), point, families))
            families += 1
    if not candidates:
        raise ContinuationError(
            "no zero-backward-transmission point found over the anchor grid; "
            "cannot maximize contrast",
            failed_kappa_ex=[float(k) for k in anchors],
        )

    candidates.sort(reverse=True)
    for tf0, kex0, sol0, fam0 in list(candidates[:3]):
        for sign in (-1.0, 1.0):
            candidates.extend(
                (tf, kex, point, fam0)
                for kex, point, tf in _continue_family(
                    params_fixed, kex0, sol0, sign, kex_lo, kex_hi, budget
                )
            )

    best_tf, best_kex, best_sol, _ = max(candidates)

    # One representative per distinct zero family, best sample first. A
    # walk step can straddle a narrow peak (the forward transmission can
    # collapse within a few percent of coupling), so every family near
    # the lead gets its own bounded refinement around its best sample.
    # Families whose best sample coincides with an already chosen
    # representative (sign mirrors included) are redundant.
    reps = []
    seen = []
    seen_fams = set()
    for tf, kex, sol, fam in sorted(candidates, reverse=True):
        if tf < best_tf - 0.05 or len(reps) >= 8:
            break
        if fam in seen_fams:
            continue
        seen_fams.add(fam)
        if any(
            abs(kex - k2) <= 0.03 * max(kex, k2)
            and abs(abs(sol[0]) - abs(s2[0])) <= max(2.0 * gamma, 0.05 * abs(s2[0]))
            for k2, s2 in seen
        ):
            continue
        reps.append((tf, kex, sol))
        seen.append((kex, sol))

    for rep_tf, rep_kex, rep_sol in reps:
        local = {rep_kex: rep_sol}
        for tf, kex, sol, fam in candidates:
            near = abs(kex - rep_kex) <= 0.05 * rep_kex
            same = abs(sol[0] - rep_sol[0]) <= max(2.0 * gamma, 0.2 * abs(rep_sol[0]))
            if near and same:
                local[kex] = sol

        def objective(kex, local=local):
            params = replace(params_fixed, kappa_ex=float(kex))
            nearest = min(local, key=lambda k: abs(k - kex))
            fun, point = _minimize_tb(params, local[nearest], budget)
            if fun > ZERO_TB_TARGET:
                return 1.0
            local[float(kex)] = point
            return -_tf(params, point[0], point[1])

        step = max(0.021 * rep_kex, 0.011 * gamma)
        res = minimize_scalar(
            objective,
            bounds=(max(kex_lo, rep_kex - step), min(kex_hi, rep_kex + step)),
            method="bounded",
            options={"xatol": 1e-6},
        )
        if -res.fun > best_tf:
            kex_star = float(res.x)
            sol_star = local.get(kex_star)
            if sol_star is None:
                nearest = min(local, key=lambda k: abs(k - kex_star))
                fun, sol_star = _minimize_tb(
                    replace(params_fixed, kappa_ex=kex_star),
                    local[nearest],
                    budget,
                )
                if fun > ZERO_TB_TARGET:
                    continue
            best_tf, best_kex, best_sol = -res.fun, kex_star, sol_star

    params = replace(params_fixed, kappa_ex=best_kex)
    if best_sol[0] < 0:
        # the sign-flipped point (-delta12, -delta_c) is gauge-equivalent
        # when it is also a zero; prefer the positive-splitting convention
        mirror = (-best_sol[0], -best_sol[1])
        if _tb(params, mirror[0], mirror[1]) <= ZERO_TB_TARGET:
            best_sol = mirror
    tb = _tb(params, best_sol[0], best_sol[1])
    tf = _tf(params, best_sol[0], best_sol[1])
    return OptimizationResult(
        kappa_ex=best_kex,
        delta12=best_sol[0],
        delta_c=best_sol[1],
        t_fwd=tf,
        t_bwd=tb,
        contrast_db=contrast_db(tf, tb),
        iterations=budget.count,
        converged=bool(tb <= ZERO_TB_TARGET),
    )


def sweep_grid(
    params_fixed: SystemParams, kappa_ex_axis, delta12_axis
) -> ContourData:
    """Contrast and transmissions over a (kappa_ex, delta12) grid.

    At each node the operating detuning is set to the backward dip and
    the contrast evaluated there. Node failures are marked NaN. The
    zero-T_b ridge is extracted per kappa_ex column by refining the
    best node's splitting; refined points below the ridge threshold form
    the trace polyline.
    """
    kex_axis = checked_axis(kappa_ex_axis, "kappa_ex axis")
    d12_axis = checked_axis(delta12_axis, "delta12 axis")

    nk, nd = kex_axis.size, d12_axis.size
    delta_c = np.full((nk, nd), math.nan)
    t_fwd = np.full((nk, nd), math.nan)
    t_bwd = np.full((nk, nd), math.nan)
    contrast = np.full((nk, nd), math.nan)
    saturated = np.zeros((nk, nd), dtype=bool)
    for i, kex in enumerate(kex_axis):
        for j, d12 in enumerate(d12_axis):
            params = replace(params_fixed, kappa_ex=float(kex), delta12=float(d12))
            try:
                dc = cavity_dip_detuning(params)
            except (NoDipError, SingularSystemError):
                continue
            delta_c[i, j] = dc
            t_fwd[i, j] = transmission(params, DriveSpec("forward", dc))
            t_bwd[i, j] = transmission(params, DriveSpec("backward", dc))
            contrast[i, j] = contrast_db(t_fwd[i, j], t_bwd[i, j])
            saturated[i, j] = t_bwd[i, j] < CONTRAST_FLOOR

    def dip_tb(kex: float, d12: float) -> tuple[float, float, float]:
        params = replace(params_fixed, kappa_ex=float(kex), delta12=float(d12))
        dc = cavity_dip_detuning(params)
        return (
            transmission(params, DriveSpec("backward", dc)),
            transmission(params, DriveSpec("forward", dc)),
            dc,
        )

    trace = []
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
                    lambda d12: dip_tb(kex, d12)[0],
                    bounds=(lo, hi),
                    method="bounded",
                    options={"xatol": 1e-6},
                )
            except (NoDipError, SingularSystemError):
                continue
            d12_star = float(res.x)
            tb_star, tf_star, dc_star = dip_tb(kex, d12_star)
        if tb_star < RIDGE_THRESHOLD:
            trace.append((float(kex), d12_star))
            trace_rows.append(
                (
                    float(kex),
                    d12_star,
                    dc_star,
                    tf_star,
                    tb_star,
                    contrast_db(tf_star, tb_star),
                    tb_star < CONTRAST_FLOOR,
                )
            )

    return ContourData(
        kappa_ex=kex_axis,
        delta12=d12_axis,
        delta_c=delta_c,
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        contrast_db=contrast,
        saturated=saturated,
        zero_tb_trace=np.asarray(trace, dtype=float).reshape(-1, 2),
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
    """Write the refined zero-T_b trace with the contour schema."""
    rows = (
        (row[0], row[1], row[2], row[3], row[4], row[5], bool(row[6]))
        for row in contour.zero_tb_rows
    )
    write_table(path, CONTOUR_COLUMNS, rows)
