import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringqed.errors import DegenerateFieldError, GridError, ValidationError
from ringqed.helicity import (
    FieldGrid,
    FieldPoint,
    counter_propagating,
    decompose,
    helicity_degree,
    load_field_grid,
    local_basis,
    map_helicity,
    save_field_grid,
    save_helicity_map,
)

SQRT2 = math.sqrt(2.0)


def point(e_rho, e_phi, e_z, rho=1.0, z=0.0):
    return FieldPoint(rho=rho, z=z, e_rho=e_rho, e_phi=e_phi, e_z=e_z)


def small_grid(e_rho, e_phi, e_z, mode_number=1):
    """2x2 grid with the same field at every point."""
    rho = np.array([1.0, 1.1])
    z = np.array([-0.1, 0.1])
    shape = (2, 2)
    return FieldGrid(
        rho=rho,
        z=z,
        e_rho=np.full(shape, e_rho, dtype=complex),
        e_phi=np.full(shape, e_phi, dtype=complex),
        e_z=np.full(shape, e_z, dtype=complex),
        mode_number=mode_number,
    )


# --- local basis ---


def test_basis_pure_radial_field():
    e_perp, e_plus, e_minus, e_axis = local_basis(point(1.0, 0.0, 0.0))
    assert np.allclose(e_perp, [1.0, 0.0, 0.0])
    assert np.allclose(e_axis, [0.0, 0.0, 1.0])
    assert np.allclose(e_plus, np.array([1.0, 1.0j, 0.0]) / SQRT2)
    assert np.allclose(e_minus, np.array([1.0, -1.0j, 0.0]) / SQRT2)


def test_basis_pure_axial_field():
    e_perp, _, _, e_axis = local_basis(point(0.0, 0.0, 1.0))
    assert np.allclose(e_perp, [0.0, 0.0, 1.0])
    assert np.allclose(e_axis, [-1.0, 0.0, 0.0])


def test_basis_diagonal_transverse_field():
    # in-phase rho and z components of equal size: axis bisects the quadrant
    scale = 1.0 / math.sqrt(2.25)
    e_perp, _, _, _ = local_basis(point(scale, 0.5j * scale, scale))
    assert np.allclose(e_perp, [1.0 / SQRT2, 0.0, 1.0 / SQRT2])


def test_basis_sign_convention_prefers_positive_z():
    e_perp, _, _, _ = local_basis(point(-0.3, 0.0, -0.7))
    assert e_perp[2] > 0


def test_basis_snaps_tiny_axial_component_to_radial():
    e_perp, _, _, _ = local_basis(point(-1.0, 0.0, 0.0))
    assert e_perp[0] == 1.0 and e_perp[2] == 0.0


def test_basis_orthonormal_and_circular():
    for components in [(1.0, 0.0, 0.0), (0.2 - 0.1j, 0.4j, 0.9 + 0.3j)]:
        e_perp, e_plus, e_minus, e_axis = local_basis(point(*components))
        assert np.vdot(e_plus, e_plus).real == pytest.approx(1.0)
        assert np.vdot(e_minus, e_minus).real == pytest.approx(1.0)
        assert abs(np.vdot(e_plus, e_minus)) == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(e_perp) == pytest.approx(1.0)
        assert np.linalg.norm(e_axis) == pytest.approx(1.0)
        assert np.vdot(e_perp, e_axis).real == pytest.approx(0.0, abs=1e-15)


def test_basis_invariant_under_global_phase():
    base = (0.3 + 0.2j, 0.5j, 0.8 - 0.1j)
    ref = local_basis(point(*base))
    phase = np.exp(0.7j)
    rotated = local_basis(point(*(phase * np.array(base))))
    for a, b in zip(ref, rotated):
        assert np.allclose(a, b, atol=1e-12)


def test_basis_degenerate_cases():
    with pytest.raises(DegenerateFieldError):
        local_basis(point(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateFieldError):
        local_basis(point(0.0, 1.0, 0.0))  # purely azimuthal


# --- helicity degree ---


def test_degree_perfect_circular():
    assert helicity_degree(point(1.0, 1.0j, 0.0)) == pytest.approx(1.0)
    assert helicity_degree(point(1.0, -1.0j, 0.0)) == pytest.approx(-1.0)


def test_degree_linear_field_is_zero():
    assert helicity_degree(point(1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_degree_elliptical_example():
    assert helicity_degree(point(0.6, 0.8j, 0.0)) == pytest.approx(0.96)


def test_degree_bounded():
    rng = np.random.default_rng(42)
    for _ in range(50):
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = helicity_degree(point(*e))
        assert -1.0 <= p <= 1.0


def test_degree_antisymmetric_under_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = helicity_degree(point(*e))
        q = helicity_degree(point(*np.conj(e)))
        assert q == pytest.approx(-p, abs=1e-12)


# --- grid operations ---


def test_decompose_circular_components():
    plus, minus = decompose(small_grid(0.6, 0.8j, 0.0))
    assert np.allclose(np.abs(plus) ** 2, 0.98)
    assert np.allclose(np.abs(minus) ** 2, 0.02)


def test_decompose_marks_undefined_points():
    grid = small_grid(1.0, 0.0, 0.0)
    grid.e_rho[0, 0] = 0.0  # leaves a purely azimuthal-free zero point
    grid.e_phi[0, 0] = 0.0
    grid.e_z[0, 0] = 0.0
    plus, minus = decompose(grid)
    assert np.isnan(plus[0, 0].real) and np.isnan(minus[0, 0].real)
    assert not np.isnan(plus[1, 1].real)


def test_map_helicity_values_and_axis():
    hmap = map_helicity(small_grid(0.6, 0.8j, 0.0))
    assert np.allclose(hmap.p_values, 0.96)
    assert np.allclose(hmap.magnitude, 1.0)
    # e_perp = rho_hat, so the rotation axis is +z_hat
    assert np.allclose(hmap.axis_rho, 0.0)
    assert np.allclose(hmap.axis_z, 1.0)


def test_counter_propagating_flips_helicity():
    grid = small_grid(0.6, 0.8j, 0.0, mode_number=12)
    partner = counter_propagating(grid)
    assert partner.mode_number == -12
    plus, _ = decompose(partner)
    assert np.allclose(np.abs(plus), math.sqrt(0.02))
    fwd = map_helicity(grid)
    bwd = map_helicity(partner)
    assert np.array_equal(bwd.p_values, -fwd.p_values)


def test_field_grid_validation():
    rho = np.array([1.0, 1.1])
    z = np.array([0.0, 0.1])
    good = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValidationError):
        FieldGrid(rho=np.array([1.1, 1.0, 1.05]), z=z, e_rho=np.zeros((3, 2), complex),
                  e_phi=np.zeros((3, 2), complex), e_z=np.zeros((3, 2), complex),
                  mode_number=1)
    with pytest.raises(ValidationError):
        FieldGrid(rho=np.array([-0.5, 1.0]), z=z, e_rho=good, e_phi=good, e_z=good,
                  mode_number=1)
    with pytest.raises(ValidationError):
        FieldGrid(rho=rho, z=z, e_rho=np.zeros((3, 3), complex), e_phi=good,
                  e_z=good, mode_number=1)
    with pytest.raises(ValidationError):
        FieldGrid(rho=rho, z=z, e_rho=good, e_phi=good, e_z=good, mode_number=0)


# --- file round trip ---


def sample_grid():
    rho = np.linspace(1.0, 1.3, 4)
    z = np.linspace(-0.2, 0.2, 3)
    R, Z = np.meshgrid(rho, z, indexing="ij")
    e_rho = (1.0 + 0.25 * Z) * np.exp(0.3j * R)
    e_phi = 0.4j * R
    e_z = (0.8 - 0.1j) * np.cos(Z)
    return FieldGrid(rho=rho, z=z, e_rho=e_rho, e_phi=e_phi, e_z=e_z,
                     mode_number=9, label="quasi-TM")


def test_field_grid_file_round_trip(tmp_path):
    grid = sample_grid()
    path = tmp_path / "f.csv"
    save_field_grid(path, grid)
    back = load_field_grid(path, mode_number=9, label="quasi-TM")
    assert np.array_equal(back.rho, grid.rho)
    assert np.array_equal(back.z, grid.z)
    assert np.array_equal(back.e_rho, grid.e_rho)
    assert np.array_equal(back.e_phi, grid.e_phi)
    assert np.array_equal(back.e_z, grid.e_z)
    assert back.mode_number == 9 and back.label == "quasi-TM"
    # writing the loaded grid again is byte-identical
    second = tmp_path / "g.csv"
    save_field_grid(second, back)
    assert second.read_bytes() == path.read_bytes()


def test_load_field_grid_duplicate_point(tmp_path):
    grid = sample_grid()
    path = tmp_path / "f.csv"
    save_field_grid(path, grid)
    lines = path.read_text().splitlines()
    lines.insert(3, lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridError) as err:
        load_field_grid(path)
    assert "line" in str(err.value)


def test_load_field_grid_non_monotone_axis(tmp_path):
    path = tmp_path / "f.csv"
    header = "rho,z,e_rho_re,e_rho_im,e_phi_re,e_phi_im,e_z_re,e_z_im"
    rows = [
        "1,0,1,0,0,0,0,0",
        "1,0.5,1,0,0,0,0,0",
        "1,0.2,1,0,0,0,0,0",
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(GridError):
        load_field_grid(path)


def test_load_field_grid_missing_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("rho,z,e_rho_re\n1,0,1\n")
    with pytest.raises(GridError) as err:
        load_field_grid(path)
    assert "e_rho_im" in str(err.value)


@st.composite
def row_major_grids(draw, min_size=1):
    """A FieldGrid of random shape whose axes each ascend or descend."""

    def axis(lo, hi):
        n = draw(st.integers(min_size, 5))
        values = np.sort(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True)))
        return values[::-1] if draw(st.booleans()) else values

    rho, z = axis(0.0, 10.0), axis(-5.0, 5.0)
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=6 * rho.size * z.size,
                          max_size=6 * rho.size * z.size))
    re, im = np.reshape(parts, (2, 3, rho.size, z.size))
    e_rho, e_phi, e_z = re + 1j * im
    return FieldGrid(rho=rho, z=z, e_rho=e_rho, e_phi=e_phi, e_z=e_z, mode_number=1)


grid_files = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


@grid_files
@given(row_major_grids())
def test_load_field_grid_round_trips_random_grids(tmp_path, grid):
    path = tmp_path / "f.csv"
    save_field_grid(path, grid)
    back = load_field_grid(path)
    for name in ("rho", "z", "e_rho", "e_phi", "e_z"):
        assert np.array_equal(getattr(back, name), getattr(grid, name))


def corrupted_rows(data, nr, nz):
    """A one-row or one-block corruption of an nr x nz grid file: (rows, line).

    rows turns the data lines into the corrupted ones; line is the file
    line (header = 1, row k = k + 2) the loader must name.
    """
    n = nr * nz
    kind = data.draw(st.sampled_from(["duplicate", "swap", "rho", "block", "truncate"]))
    if kind == "duplicate":
        # the copy is the first row that repeats a grid point
        r = data.draw(st.integers(0, n - 1))
        return lambda rows: rows[: r + 1] + rows[r:], r + 3
    if kind == "swap":
        # row r is the first moved row; two swapped block starts look like a
        # valid block start, and row 0 or a block start moved into the first
        # block changes the inferred z axis, so neither is drawn
        r = data.draw(st.integers(1, n - 2))
        s = data.draw(st.integers(r + 1, n - 1).filter(
            lambda s: s % nz or (r % nz and r >= nz)))

        def swap(rows):
            rows = list(rows)
            rows[r], rows[s] = rows[s], rows[r]
            return rows

        # inside the first block, z stops being monotone one row later
        return swap, r + 3 if s < nz else r + 2
    if kind == "rho":
        r = data.draw(st.integers(1, n - 1).filter(lambda r: r % nz))
        offset = data.draw(st.floats(1e-3, 1.0))

        def shift(rows):
            cells = rows[r].split(",")
            cells[0] = "%.17g" % (float(cells[0]) + offset)
            return rows[:r] + [",".join(cells)] + rows[r + 1:]

        return shift, r + 2
    if kind == "block":
        # a repeated rho block is named at the first line of the copy
        b = data.draw(st.integers(0, nr - 1))
        return lambda rows: rows[: (b + 1) * nz] + rows[b * nz:], (b + 1) * nz + 2
    # the last block loses between one and nz - 1 rows; its last row is named
    t = data.draw(st.integers(1, nz - 1))
    return lambda rows: rows[:-t], n - t + 1


@grid_files
@given(row_major_grids(min_size=2), st.data())
def test_load_field_grid_names_the_corrupted_line(tmp_path, grid, data):
    path = tmp_path / "f.csv"
    save_field_grid(path, grid)
    header, *rows = path.read_text().splitlines()
    corrupt, line = corrupted_rows(data, *grid.shape)
    path.write_text("\n".join([header, *corrupt(rows)]) + "\n")
    with pytest.raises(GridError, match=r": line %d: " % line):
        load_field_grid(path)


def test_save_helicity_map_columns(tmp_path):
    grid = small_grid(0.6, 0.8j, 0.0)
    path = tmp_path / "h.csv"
    save_helicity_map(path, grid, map_helicity(grid))
    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["rho", "z"]
    for name in ("p", "abs_e", "axis_rho", "axis_z"):
        assert name in header
