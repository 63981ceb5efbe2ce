"""Local helicity basis, helicity degree, and CW/CCW field decomposition.

The evanescent field of a traveling ring-resonator mode carries transverse
(rho, z) and longitudinal (phi) components a quarter cycle out of phase,
so the instantaneous field vector rotates about an axis that lies in the
cross-sectional plane. These helpers compute, per point of a gridded mode
cross-section, the rotation (helicity) axis, the degree of helicity
P in [-1, 1], and the projections onto the two circular unit vectors.
Counter-propagating partner modes carry opposite P at every point.

Vector components are ordered (rho, phi, z) throughout, in the local
right-handed cylindrical frame where rho_hat x phi_hat = z_hat.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateFieldError, GridError, ValidationError
from .tableio import checked_axis, finite, read_table, write_table

# Fields weaker than this fraction of the reference intensity have no
# well-defined helicity basis and are marked undefined on grid maps.
DEGENERACY_TOLERANCE = 1e-24

# z components of the transverse axis smaller than this are snapped to
# zero before applying the sign convention.
AXIS_SNAP_TOLERANCE = 1e-12

FIELD_GRID_COLUMNS = (
    "rho",
    "z",
    "e_rho_re",
    "e_rho_im",
    "e_phi_re",
    "e_phi_im",
    "e_z_re",
    "e_z_im",
)

HELICITY_MAP_COLUMNS = FIELD_GRID_COLUMNS + ("p", "abs_e", "axis_rho", "axis_z")


@dataclass(frozen=True)
class FieldPoint:
    """Complex electric-field components at one (rho, z) location."""

    rho: float
    z: float
    e_rho: complex
    e_phi: complex
    e_z: complex

    def __post_init__(self):
        if not finite(self.rho) or not finite(self.z):
            raise ValidationError("field point coordinates must be finite")
        if self.rho < 0:
            raise ValidationError("rho must be >= 0")
        for name in ("e_rho", "e_phi", "e_z"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValidationError("%s must be a finite complex number" % name)

    @property
    def intensity(self) -> float:
        """Squared field magnitude |E|^2."""
        return abs(self.e_rho) ** 2 + abs(self.e_phi) ** 2 + abs(self.e_z) ** 2


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Complex mode field sampled on a rectilinear (rho, z) grid.

    mode_number is the signed azimuthal index: positive for the clockwise
    (forward) propagation sense, negative for counter-clockwise. label
    tags the polarization family (for example "quasi-TE" or "quasi-TM").
    """

    rho: np.ndarray
    z: np.ndarray
    e_rho: np.ndarray
    e_phi: np.ndarray
    e_z: np.ndarray
    mode_number: int
    label: str = "quasi-TE"

    def __post_init__(self):
        rho = checked_axis(self.rho, "rho axis")
        z = checked_axis(self.z, "z axis")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "z", z)
        if np.any(rho < 0):
            raise ValidationError("rho axis values must be >= 0")
        m = self.mode_number
        if not finite(m) or int(m) != m or m == 0:
            raise ValidationError("mode_number must be a nonzero integer")
        object.__setattr__(self, "mode_number", int(m))
        shape = (rho.size, z.size)
        for name in ("e_rho", "e_phi", "e_z"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != shape:
                raise ValidationError(
                    "%s must have shape %s, got %s" % (name, shape, arr.shape)
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError("%s must be finite" % name)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rho.size, self.z.size)

    def point(self, i: int, j: int) -> FieldPoint:
        return FieldPoint(
            rho=float(self.rho[i]),
            z=float(self.z[j]),
            e_rho=complex(self.e_rho[i, j]),
            e_phi=complex(self.e_phi[i, j]),
            e_z=complex(self.e_z[i, j]),
        )

    def intensity(self) -> np.ndarray:
        """Per-point |E|^2 over the grid."""
        return (
            np.abs(self.e_rho) ** 2 + np.abs(self.e_phi) ** 2 + np.abs(self.e_z) ** 2
        )


@dataclass(frozen=True, eq=False)
class HelicityMap:
    """Helicity degree, normalized magnitude, and rotation axis per point.

    p_values lie in [-1, 1] where defined and are NaN at points whose
    field is too weak to define a basis. magnitude is |E| normalized to
    the grid maximum. The axis (phi component identically zero) is stored
    through its rho and z components.
    """

    rho: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    magnitude: np.ndarray
    axis_rho: np.ndarray
    axis_z: np.ndarray


def _transverse_axis(e_rho: complex, e_z: complex) -> tuple[float, float]:
    """Unit vector (v_rho, v_z) along the transverse polarization major axis.

    The direction maximizes |Re(exp(i*chi) * (e_rho, e_z))| over the phase
    chi; for a field with in-phase transverse components it is simply the
    transverse field direction. The sign is fixed by requiring a
    non-negative z component, falling back to a positive rho component
    when the axis is purely radial.
    """
    t_rho = complex(e_rho)
    t_z = complex(e_z)
    norm2 = abs(t_rho) ** 2 + abs(t_z) ** 2
    s = t_rho * t_rho + t_z * t_z
    if abs(s) > 1e-30 * norm2:
        phase = cmath.exp(-0.5j * cmath.phase(s))
    else:
        # circular transverse polarization: every direction is a major
        # axis, take the real part as the deterministic representative
        phase = 1.0
    v_rho = (phase * t_rho).real
    v_z = (phase * t_z).real
    norm = math.hypot(v_rho, v_z)
    if norm == 0.0:
        # can only happen for s == 0 with Re(t) == 0; rotate by 90 degrees
        v_rho = -(phase * t_rho).imag
        v_z = -(phase * t_z).imag
        norm = math.hypot(v_rho, v_z)
    v_rho /= norm
    v_z /= norm
    if abs(v_z) <= AXIS_SNAP_TOLERANCE:
        v_z = 0.0
        if v_rho < 0:
            v_rho, v_z = -v_rho, -v_z
    elif v_z < 0:
        v_rho, v_z = -v_rho, -v_z
    return v_rho, v_z


def local_basis(point: FieldPoint):
    """Per-point helicity basis (e_perp, e_plus, e_minus, e_axis).

    e_perp is the unit vector along the transverse polarization major
    axis in the rho-z plane, e_pm = (e_perp pm i*phi_hat)/sqrt(2) are the
    circular unit vectors, and e_axis = e_perp x phi_hat is the rotation
    axis. Components are ordered (rho, phi, z).
    """
    trans2 = abs(point.e_rho) ** 2 + abs(point.e_z) ** 2
    total2 = point.intensity
    if total2 == 0.0:
        raise DegenerateFieldError(
            "zero field at (rho=%g, z=%g); helicity undefined" % (point.rho, point.z)
        )
    if trans2 < DEGENERACY_TOLERANCE * total2:
        raise DegenerateFieldError(
            "transverse field vanishes at (rho=%g, z=%g); helicity basis undefined"
            % (point.rho, point.z)
        )
    v_rho, v_z = _transverse_axis(point.e_rho, point.e_z)
    e_perp = np.array([v_rho, 0.0, v_z])
    phi_hat = np.array([0.0, 1.0, 0.0])
    sqrt2 = math.sqrt(2.0)
    e_plus = (e_perp + 1j * phi_hat) / sqrt2
    e_minus = (e_perp - 1j * phi_hat) / sqrt2
    # e_perp x phi_hat in the right-handed cylindrical frame
    e_axis = np.array([-v_z, 0.0, v_rho])
    return e_perp, e_plus, e_minus, e_axis


def _projections(point: FieldPoint) -> tuple[complex, complex]:
    _, e_plus, e_minus, _ = local_basis(point)
    e = np.array([point.e_rho, point.e_phi, point.e_z])
    return complex(e @ np.conj(e_plus)), complex(e @ np.conj(e_minus))


def helicity_degree(point: FieldPoint) -> float:
    """Degree of helicity P = (|E_+|^2 - |E_-|^2) / |E|^2 in [-1, 1]."""
    c_plus, c_minus = _projections(point)
    p = (abs(c_plus) ** 2 - abs(c_minus) ** 2) / point.intensity
    return float(min(1.0, max(-1.0, p)))


def _undefined_mask(grid: FieldGrid) -> np.ndarray:
    """Points whose field is too weak relative to the grid maximum."""
    intensity = grid.intensity()
    peak = intensity.max()
    if peak == 0.0:
        return np.ones(grid.shape, dtype=bool)
    weak = intensity < DEGENERACY_TOLERANCE * peak
    trans2 = np.abs(grid.e_rho) ** 2 + np.abs(grid.e_z) ** 2
    return weak | (trans2 < DEGENERACY_TOLERANCE * intensity)


def decompose(grid: FieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-point projections (E_plus, E_minus) onto the circular basis.

    Points with an undefined basis are marked NaN rather than raising.
    """
    undefined = _undefined_mask(grid)
    e_plus = np.full(grid.shape, complex(math.nan, math.nan))
    e_minus = np.full(grid.shape, complex(math.nan, math.nan))
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            if undefined[i, j]:
                continue
            c_plus, c_minus = _projections(grid.point(i, j))
            e_plus[i, j] = c_plus
            e_minus[i, j] = c_minus
    return e_plus, e_minus


def map_helicity(grid: FieldGrid) -> HelicityMap:
    """Helicity degree, normalized |E|, and rotation axis over the grid."""
    undefined = _undefined_mask(grid)
    nr, nz = grid.shape
    p_values = np.full((nr, nz), math.nan)
    axis_rho = np.full((nr, nz), math.nan)
    axis_z = np.full((nr, nz), math.nan)
    magnitude = np.sqrt(grid.intensity())
    peak = magnitude.max()
    if peak > 0:
        magnitude = magnitude / peak
    for i in range(nr):
        for j in range(nz):
            if undefined[i, j]:
                continue
            point = grid.point(i, j)
            _, _, _, e_axis = local_basis(point)
            p_values[i, j] = helicity_degree(point)
            axis_rho[i, j] = e_axis[0]
            axis_z[i, j] = e_axis[2]
    return HelicityMap(
        rho=grid.rho.copy(),
        z=grid.z.copy(),
        p_values=p_values,
        magnitude=magnitude,
        axis_rho=axis_rho,
        axis_z=axis_z,
    )


def counter_propagating(grid: FieldGrid) -> FieldGrid:
    """Partner mode traveling the opposite way around the ring.

    Conjugating the mode cross-section reverses the field rotation sense
    at every point, so the partner's helicity degree is -P pointwise.
    """
    return FieldGrid(
        rho=grid.rho.copy(),
        z=grid.z.copy(),
        e_rho=np.conj(grid.e_rho),
        e_phi=np.conj(grid.e_phi),
        e_z=np.conj(grid.e_z),
        mode_number=-grid.mode_number,
        label=grid.label,
    )


def _field_columns(grid: FieldGrid) -> list[np.ndarray]:
    """The FIELD_GRID_COLUMNS of a grid as row-major flat arrays."""
    rho, z = np.meshgrid(grid.rho, grid.z, indexing="ij")
    columns = [rho.ravel(), z.ravel()]
    for e in (grid.e_rho, grid.e_phi, grid.e_z):
        columns += [e.real.ravel(), e.imag.ravel()]
    return columns


def save_field_grid(path, grid: FieldGrid) -> None:
    """Write a field grid row-major with re/im column pairs per component."""
    write_table(path, FIELD_GRID_COLUMNS, zip(*_field_columns(grid)))


def _check_steps(path: Path, axis: np.ndarray, stride: int, repeated: str, reversed_: str):
    """GridError unless axis is strictly monotone; value k is on file line k*stride + 2.

    The first repeated value is reported before the first step against the
    direction of the first step; each message is formatted with the value.
    """
    steps = np.diff(axis)
    against = np.sign(steps) != np.sign(steps[:1])
    for bad, message in ((steps == 0, repeated), (against, reversed_)):
        if bad.any():
            k = int(np.argmax(bad)) + 1
            raise GridError("%s: line %d: %s" % (path, k * stride + 2, message % axis[k]))


def load_field_grid(source, mode_number: int = 1, label: str = "quasi-TE") -> FieldGrid:
    """Read a row-major rectilinear field grid from a delimited file.

    The file schema carries only coordinates and field components, so the
    propagation sense and polarization family are supplied by the caller.
    Rejects duplicated grid points, non-monotone axes, and incomplete
    grids, naming the offending file line.
    """
    path = Path(source)
    data = read_table(path, required_columns=FIELD_GRID_COLUMNS)
    rho_col = data["rho"]
    z_col = data["z"]
    n = rho_col.size
    if n == 0:
        raise GridError("%s: no data rows" % path)

    # the z axis is the leading block of constant rho; row k is file line k + 2
    changes = np.flatnonzero(rho_col[1:] != rho_col[0])
    nz = int(changes[0]) + 1 if changes.size else n
    z_axis = z_col[:nz]
    _check_steps(path, z_axis, 1, "duplicated grid point (rho=%g, z=%%g)" % rho_col[0],
                 "z axis is not strictly monotone in the first block at z=%g")

    # row-major: each row repeats its block's rho and the z axis value at its offset
    rho_axis = rho_col[::nz]
    layout = (rho_col == np.repeat(rho_axis, nz)[:n]) & (z_col == np.resize(z_axis, n))
    if not layout.all():
        k = int(np.argmin(layout))
        if rho_col[k] != rho_col[k - k % nz]:
            problem = "rho changes mid-block; rows must be row-major"
        elif k and z_col[k] == z_col[k - 1] and rho_col[k] == rho_col[k - 1]:
            problem = "duplicated grid point (rho=%g, z=%g)" % (rho_col[k], z_col[k])
        else:
            problem = "z=%g does not match the grid axis value %g" % (z_col[k], z_axis[k % nz])
        raise GridError("%s: line %d: %s" % (path, k + 2, problem))
    if n % nz != 0:
        raise GridError("%s: line %d: the last rho block ends after %d of %d rows"
                        % (path, n + 1, n % nz, nz))
    _check_steps(path, rho_axis, nz, "duplicated rho block (rho=%g)",
                 "rho axis is not strictly monotone at rho=%g")

    def component(prefix: str) -> np.ndarray:
        return (data[prefix + "_re"] + 1j * data[prefix + "_im"]).reshape(-1, nz)

    return FieldGrid(
        rho=rho_axis,
        z=z_axis,
        e_rho=component("e_rho"),
        e_phi=component("e_phi"),
        e_z=component("e_z"),
        mode_number=mode_number,
        label=label,
    )


def save_helicity_map(path, grid: FieldGrid, hmap: HelicityMap) -> None:
    """Write the field grid columns plus p, abs_e, axis_rho, axis_z."""
    if hmap.p_values.shape != grid.shape:
        raise ValidationError("helicity map shape does not match the field grid")
    extra = (hmap.p_values, hmap.magnitude, hmap.axis_rho, hmap.axis_z)
    rows = zip(*_field_columns(grid), *(values.ravel() for values in extra))
    write_table(path, HELICITY_MAP_COLUMNS, rows)
