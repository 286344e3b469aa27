"""Array constructors, decimation and sampling grids."""

import numpy as np
import pytest

from sfsynth.geometry import (
    MIN_CLEARANCE,
    ArrayGeometry,
    ListeningArea,
    decimate_array,
    make_circular_array,
    make_linear_array,
    sample_control_points,
    sample_listening_grid,
)

# an array well outside every area sampled below: it trims no control point
FAR_ARRAY = make_linear_array(2, 1.0, 10.0)


def test_circular_array_symmetry():
    arr = make_circular_array(4, 1.0)
    assert np.allclose(arr.angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(arr.positions,
                       [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)
    assert arr.active_count == 4


def test_circular_array_full_scale():
    arr = make_circular_array(64, 1.0)
    assert arr.total_count == 64
    gaps = np.diff(arr.angles)
    assert np.allclose(gaps, 2 * np.pi / 64)
    assert np.allclose(np.hypot(*arr.positions.T), 1.0, atol=1e-12)


def test_circular_single_loudspeaker():
    arr = make_circular_array(1, 2.0)
    assert np.allclose(arr.positions, [[2.0, 0.0]])


def test_circular_invalid_args():
    with pytest.raises(ValueError):
        make_circular_array(0, 1.0)
    with pytest.raises(ValueError):
        make_circular_array(4, 0.0)
    with pytest.raises(ValueError):
        make_circular_array(4, -1.0)


def test_linear_array_centering():
    arr = make_linear_array(3, 0.0625, 1.0)
    assert np.allclose(arr.positions[:, 1], [-0.0625, 0.0, 0.0625])
    assert np.allclose(arr.positions[:, 0], 1.0)


def test_linear_array_aperture():
    # L=64 at 0.0625 m pitch: aperture 3.9375 m, half extent 1.96875 m
    arr = make_linear_array(64, 0.0625, 1.0)
    ys = arr.positions[:, 1]
    assert ys[-1] - ys[0] == pytest.approx(3.9375)
    assert arr.y_extent == pytest.approx(1.96875)


def test_linear_two_elements():
    arr = make_linear_array(2, 1.0, 0.5)
    assert np.allclose(arr.positions[:, 1], [-0.5, 0.5])


def test_linear_invalid_args():
    with pytest.raises(ValueError):
        make_linear_array(0, 0.1, 1.0)
    with pytest.raises(ValueError):
        make_linear_array(4, 0.0, 1.0)


def test_decimation_deterministic():
    arr = make_circular_array(64, 1.0)
    d1 = decimate_array(arr, 32, seed=7)
    d2 = decimate_array(arr, 32, seed=7)
    assert d1.active_count == 32
    assert np.array_equal(d1.active_mask, d2.active_mask)
    assert np.array_equal(d1.positions, arr.positions)


def test_decimation_identity_and_full():
    arr = make_circular_array(64, 1.0)
    assert decimate_array(arr, 0, seed=0).active_count == 64
    assert decimate_array(arr, 48, seed=3).active_count == 16


def test_decimation_partitions_indices():
    arr = make_circular_array(64, 1.0)
    d = decimate_array(arr, 20, seed=5)
    removed = np.flatnonzero(~d.active_mask)
    active = d.active_indices
    union = np.union1d(removed, active)
    assert np.array_equal(union, np.arange(64))
    assert len(removed) + len(active) == 64


def test_decimation_preserves_polar():
    arr = make_circular_array(16, 1.0)
    d = decimate_array(arr, 8, seed=1)
    assert np.array_equal(d.angles, arr.angles)
    assert d.radius == arr.radius


def test_decimation_invalid():
    arr = make_circular_array(8, 1.0)
    with pytest.raises(ValueError):
        decimate_array(arr, 8, seed=0)
    with pytest.raises(ValueError):
        decimate_array(arr, -1, seed=0)


def test_listening_grid_rectangle_count():
    area = ListeningArea.rectangle(-1, 1, -1, 1, 0.02)
    grid = sample_listening_grid(area)
    assert len(grid) == 101 * 101 == 10201
    assert grid.grid_shape == (101, 101)


def test_listening_grid_disk_count_matches_brute_force():
    area = ListeningArea.disk(1.0, 0.02)
    grid = sample_listening_grid(area)
    # independent integer-lattice count of i^2 + j^2 < 50^2 (strict)
    oracle = sum(1 for i in range(-50, 51) for j in range(-50, 51)
                 if i * i + j * j < 2500)
    assert oracle == 7825
    assert len(grid) == oracle
    r = np.hypot(grid.points[:, 0], grid.points[:, 1])
    assert np.all(r < 1.0)


def test_listening_grid_tiny_rectangle():
    area = ListeningArea.rectangle(-0.02, 0.02, -0.02, 0.02, 0.02)
    assert len(sample_listening_grid(area)) == 9


def test_control_points_rectangle_aspect():
    area = ListeningArea.rectangle(-1, 1, -1, 1, 0.02)
    cp = sample_control_points(area, 660, clearance_from=FAR_ARRAY)
    # square area: floor(sqrt(660)) = 25 columns, 26 rows
    assert len(cp) == 650
    assert np.all(np.abs(cp.points) < 1.0)       # strictly inside


def test_control_points_disk():
    area = ListeningArea.disk(1.0, 0.02)
    cp = sample_control_points(area, 276, clearance_from=FAR_ARRAY)
    assert 0 < len(cp) <= 276
    # independent oracle: densest cell-centred n x n raster within target
    best = 0
    for n in range(1, 40):
        step = 2.0 / n
        offs = -1.0 + (np.arange(n) + 0.5) * step
        gx, gy = np.meshgrid(offs, offs)
        inside = int(np.sum(gx ** 2 + gy ** 2 < 1.0))
        if inside <= 276:
            best = max(best, inside)
    assert len(cp) == best


def test_control_points_single():
    area = ListeningArea.rectangle(-1, 1, -1, 1, 0.02)
    cp = sample_control_points(area, 1, clearance_from=FAR_ARRAY)
    assert len(cp) == 1
    assert np.allclose(cp.points[0], [0.0, 0.0], atol=1e-12)


def test_control_points_clearance():
    area = ListeningArea.disk(1.0, 0.02)
    arr = make_circular_array(64, 1.0)
    cp = sample_control_points(area, 276, clearance_from=arr)
    d = np.linalg.norm(cp.points[:, None, :] - arr.positions[None, :, :],
                       axis=-1)
    assert np.min(d) > MIN_CLEARANCE


def test_control_points_exceed_resolution():
    area = ListeningArea.rectangle(-1, 1, -1, 1, 0.5)
    with pytest.raises(ValueError):
        sample_control_points(area, 10000, clearance_from=FAR_ARRAY)


def test_point_set_rejects_duplicates():
    from sfsynth.geometry import PointSet
    with pytest.raises(ValueError):
        PointSet(points=np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_array_geometry_invariant_enforced():
    pos = np.array([[1.0, 0.0], [0.0, 1.1]])   # radii differ
    with pytest.raises(ValueError):
        ArrayGeometry(family="circular", positions=pos,
                      active_mask=np.ones(2, dtype=bool), radius=1.0,
                      angles=np.array([0.0, np.pi / 2]))
