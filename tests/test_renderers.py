"""Driving-signal renderers: model-based circular/linear and pressure
matching, checked against direct Green's-function evaluation."""

import numpy as np
import pytest
import scipy.linalg as sla

from sfsynth.acoustics import PlaneWaveSet, Source, green_matrix, truncation_order
from sfsynth.bessel import hankel2_sym_range
from sfsynth.evaluation import nre
from sfsynth.geometry import (
    ListeningArea,
    decimate_array,
    make_circular_array,
    make_linear_array,
    sample_control_points,
    sample_listening_grid,
)
from sfsynth.renderers import (
    linear_window,
    mr_circular_driving,
    mr_circular_filter_bank,
    mr_linear_driving,
    mr_linear_filter_bank,
    pm_driving,
    pm_operator,
    synthesize,
)

C = 343.0
OMEGA_500 = 2 * np.pi * 500


def one_direction_filter(arr, cp, theta, omega, lam):
    """Least-squares filter for the single plane-wave direction theta."""
    pw = PlaneWaveSet(directions=np.array([theta]), order=0,
                      window=(theta, theta))
    return mr_linear_filter_bank(arr, cp, pw, omega, lam, C)[:, 0]


@pytest.fixture(scope="module")
def disk_grid():
    return sample_listening_grid(ListeningArea.disk((0, 0), 0.8, 0.04))


def _gt_field(points, src, omega):
    return green_matrix(points, src.position[None, :], omega, C)[:, 0]


# -- synthesize ---------------------------------------------------------------

def test_synthesize_single_speaker_is_green(disk_grid):
    arr = make_circular_array(1, 1.5)
    field = synthesize(arr, [1.0], disk_grid, OMEGA_500, C)
    ref = green_matrix(disk_grid.points, arr.positions, OMEGA_500, C)[:, 0]
    assert np.allclose(field, ref, rtol=0, atol=0)


def test_synthesize_zero_driving(disk_grid):
    arr = make_circular_array(8, 1.0)
    field = synthesize(arr, np.zeros(8), disk_grid, OMEGA_500, C)
    assert np.all(field == 0)


def test_synthesize_superposition(disk_grid):
    arr = make_circular_array(2, 1.0)
    f_both = synthesize(arr, [1.0, 1.0], disk_grid, OMEGA_500, C)
    f_a = synthesize(arr, [1.0, 0.0], disk_grid, OMEGA_500, C)
    f_b = synthesize(arr, [0.0, 1.0], disk_grid, OMEGA_500, C)
    assert np.allclose(f_both, f_a + f_b, rtol=1e-13)


def test_synthesize_length_mismatch(disk_grid):
    arr = make_circular_array(8, 1.0)
    with pytest.raises(ValueError):
        synthesize(arr, np.ones(7), disk_grid, OMEGA_500, C)


# -- circular model-based rendering -------------------------------------------

def test_mr_circular_full_array_reproduction(disk_grid):
    # threshold pinned by the reference run: worst case -73 dB over this
    # draw, asserted at the -15 dB contract level
    arr = make_circular_array(64, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = rng.uniform(1.5, 3.5)
        th = rng.uniform(0, 2 * np.pi)
        src = Source(position=rho * np.array([np.cos(th), np.sin(th)]))
        d = mr_circular_driving(arr, [src], OMEGA_500, C,
                                listening_radius=1.0)[:, 0]
        p_hat = synthesize(arr, d, disk_grid, OMEGA_500, C)
        assert nre(p_hat, _gt_field(disk_grid.points, src, OMEGA_500)) <= -15.0


def test_mr_circular_decimation_degrades(disk_grid):
    arr = make_circular_array(64, 1.0)
    dec = decimate_array(arr, 32, seed=7)
    src = Source(position=np.array([2.0, 0.0]))
    p = _gt_field(disk_grid.points, src, OMEGA_500)
    d_full = mr_circular_driving(arr, [src], OMEGA_500, C, listening_radius=1.0)[:, 0]
    d_dec = mr_circular_driving(dec, [src], OMEGA_500, C, listening_radius=1.0)[:, 0]
    nre_full = nre(synthesize(arr, d_full, disk_grid, OMEGA_500, C), p)
    nre_dec = nre(synthesize(dec, d_dec, disk_grid, OMEGA_500, C), p)
    assert nre_dec > nre_full


def test_mr_circular_matches_bruteforce_double_loop():
    # L=1: d_1 = (1/N) sum_n phi(theta_n) * (4/j) sum_m j^m
    #   e^(j m (theta_1 - theta_n)) / H_m^(2)(k rho_1)
    arr = make_circular_array(1, 1.0)
    src = Source(position=np.array([1.7, 0.9]))
    omega = 2 * np.pi * 300
    k = omega / C
    d = mr_circular_driving(arr, [src], omega, C, listening_radius=1.0)[:, 0]
    from sfsynth.acoustics import herglotz_point_source
    M = truncation_order(omega, 1.0, C)
    N = 2 * M + 1
    H = hankel2_sym_range(M, k * 1.0)           # H[m + M] = H_m^(2)
    acc = 0.0 + 0.0j
    for n in range(N):
        theta_n = 2 * np.pi * n / N
        phi = herglotz_point_source(theta_n, omega, [src], M, C)[0, 0]
        h = 0.0 + 0.0j
        for m in range(-M, M + 1):
            h += (1j) ** m * np.exp(1j * m * (0.0 - theta_n)) / H[m + M]
        acc += phi * (4.0 / 1j) * h
    ref = acc / N
    assert d[0] == pytest.approx(ref, rel=1e-10)


def test_mr_circular_filter_bank_consistent_with_driving():
    arr = make_circular_array(16, 1.0)
    src = Source(position=np.array([0.0, 2.5]))
    omega = 2 * np.pi * 400
    M = truncation_order(omega, 1.0, C)
    pw = PlaneWaveSet.full_circle(M)
    bank = mr_circular_filter_bank(arr, pw, omega, C)
    from sfsynth.acoustics import herglotz_point_source
    phi = herglotz_point_source(pw.directions, omega, [src], M, C)[0]
    ref = (bank @ phi) / len(pw.directions)
    d = mr_circular_driving(arr, [src], omega, C, listening_radius=1.0)[:, 0]
    assert np.allclose(d, ref, rtol=1e-10)


def test_mr_circular_source_inside_rejected():
    arr = make_circular_array(16, 1.0)
    with pytest.raises(ValueError):
        mr_circular_driving(arr, [Source(position=np.array([0.5, 0.0]))],
                            OMEGA_500, C, listening_radius=1.0)


# -- linear model-based rendering ----------------------------------------------

@pytest.fixture(scope="module")
def linear_setup():
    arr = make_linear_array(64, 0.0625, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 660, clearance_from=arr)
    grid = sample_listening_grid(
        ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.04))
    return arr, rect, cp, grid


def test_linear_window_geometry():
    # x0 = 1, y0 = 1.96875: half angle arctan(1.96875) = 1.1008197...
    arr = make_linear_array(64, 0.0625, 1.0)
    t_min, t_max = linear_window(arr)
    half = np.arctan2(1.96875, 1.0)
    assert half == pytest.approx(1.1008197, abs=1e-6)
    assert t_max == pytest.approx(half)
    assert t_min == pytest.approx(-half)
    assert t_max - t_min == pytest.approx(2 * half)


def test_mr_linear_scalar_normal_equation():
    # I = 1, L = 1, lam = 0: h = conj(g) p / |g|^2
    arr = make_linear_array(1, 0.1, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 1)
    theta = 0.3
    h = one_direction_filter(arr, cp, theta, OMEGA_500, lam=0.0)
    g = green_matrix(cp.points, arr.positions, OMEGA_500, C)[0, 0]
    from sfsynth.acoustics import plane_wave_field
    p = plane_wave_field(cp.points[:1], theta, OMEGA_500, C)[0]
    assert h[0] == pytest.approx(np.conj(g) * p / abs(g) ** 2, rel=1e-12)


def test_mr_linear_large_lam_shrinks_filters(linear_setup):
    arr, rect, cp, _ = linear_setup
    h = one_direction_filter(arr, cp, 0.0, OMEGA_500, lam=1e9)
    assert np.max(np.abs(h)) < 1e-6


def test_mr_linear_fit_residual():
    # reference run: mid-window residual 0.0014 at lam=1e-6 with
    # I=196 >> L=16; asserted at the 0.05 contract level
    arr = make_linear_array(16, 0.25, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 200, clearance_from=arr)
    assert len(cp) >= 150
    t_min, t_max = linear_window(arr)
    M = truncation_order(OMEGA_500, rect.bounding_radius, C)
    pw = PlaneWaveSet.windowed(M, t_min, t_max)
    bank = mr_linear_filter_bank(arr, cp, pw, OMEGA_500, lam=1e-6, c=C)
    g = green_matrix(cp.points, arr.active_positions, OMEGA_500, C)
    mid = len(pw.directions) // 2
    from sfsynth.acoustics import plane_wave_field
    tgt = plane_wave_field(cp.points, pw.directions[mid], OMEGA_500, C)
    res = np.linalg.norm(g @ bank[:, mid] - tgt) / np.linalg.norm(tgt)
    assert res <= 0.05
    # dense-solve oracle: same normal equations through an SVD route
    u, s, vh = np.linalg.svd(g, full_matrices=False)
    h_or = vh.conj().T @ ((s / (s ** 2 + 1e-6)) * (u.conj().T @ tgt))
    assert np.allclose(bank[:, mid], h_or, rtol=1e-8)


def test_mr_linear_reproduction(linear_setup):
    # reference run: -14.8 dB for this source; contract level -10 dB
    arr, rect, cp, grid = linear_setup
    src = Source(position=np.array([2.0, 0.5]))
    d = mr_linear_driving(arr, [src], cp, OMEGA_500, lam=1e-2, c=C,
                          listening_radius=rect.bounding_radius)[:, 0]
    p_hat = synthesize(arr, d, grid, OMEGA_500, C)
    assert nre(p_hat, _gt_field(grid.points, src, OMEGA_500)) <= -10.0


def test_single_direction_weighting_collapses():
    # N = 1: d = (width / 2 pi) phi(theta_mid) h(theta_mid)
    from sfsynth.renderers import combine_plane_waves
    arr = make_linear_array(4, 0.3, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 30)
    src = Source(position=np.array([2.2, 0.1]))
    omega = 2 * np.pi * 46
    t_min, t_max = linear_window(arr)
    pw = PlaneWaveSet.windowed(0, t_min, t_max)
    assert len(pw.directions) == 1
    mid = 0.5 * (t_min + t_max)
    assert pw.directions[0] == pytest.approx(mid)
    bank = mr_linear_filter_bank(arr, cp, pw, omega, 1e-2, C)
    from sfsynth.acoustics import herglotz_point_source
    phi = herglotz_point_source(pw.directions, omega, [src], 0, C)
    d = combine_plane_waves(bank, phi, pw.width)[:, 0]
    h = one_direction_filter(arr, cp, mid, omega, 1e-2)
    ref = (t_max - t_min) / (2 * np.pi) * phi[0, 0] * h
    assert np.allclose(d, ref, rtol=1e-12)


# -- pressure matching ---------------------------------------------------------

def test_pm_exact_inverse_square_case():
    rng = np.random.default_rng(2)
    g = (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    g += 16 * np.eye(16)           # keep it well conditioned
    import sfsynth.renderers as rd
    op = rd.PMOperator(g_cp=g, c_cp=np.linalg.solve(g.conj().T @ g,
                                                    g.conj().T))
    assert np.allclose(op.c_cp @ g, np.eye(16), atol=1e-8)


def test_pm_operator_normal_equation_residual():
    arr = make_circular_array(16, 1.0)
    area = ListeningArea.disk((0, 0), 0.8, 0.04)
    cp = sample_control_points(area, 100, clearance_from=arr)
    for lam in (1e-6, 1e-2, 1.0):
        op = pm_operator(arr, cp, OMEGA_500, lam, C)
        lhs = (op.g_cp.conj().T @ op.g_cp
               + lam * np.eye(arr.active_count)) @ op.c_cp
        rhs = op.g_cp.conj().T
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_pm_large_lam_asymptotics():
    arr = make_circular_array(8, 1.0)
    area = ListeningArea.disk((0, 0), 0.8, 0.04)
    cp = sample_control_points(area, 40, clearance_from=arr)
    lam = 1e9
    op = pm_operator(arr, cp, OMEGA_500, lam, C)
    assert np.allclose(op.c_cp, op.g_cp.conj().T / lam, rtol=1e-6)


def test_pm_driving_scalar_formula():
    g = np.array([[0.3 - 0.2j]])
    lam = 0.05
    import sfsynth.renderers as rd
    op = rd.PMOperator(g_cp=g, c_cp=g.conj().T / (abs(g[0, 0]) ** 2 + lam))
    p = np.array([1.0 + 1.0j])
    d = pm_driving(op, p)
    assert d[0] == pytest.approx(np.conj(g[0, 0]) * p[0]
                                 / (abs(g[0, 0]) ** 2 + lam))


def test_pm_driving_zero_and_mismatch():
    arr = make_circular_array(8, 1.0)
    area = ListeningArea.disk((0, 0), 0.8, 0.04)
    cp = sample_control_points(area, 40, clearance_from=arr)
    op = pm_operator(arr, cp, OMEGA_500, 1e-2, C)
    assert np.all(pm_driving(op, np.zeros(op.n_control)) == 0)
    with pytest.raises(ValueError):
        pm_driving(op, np.zeros(op.n_control + 1))


def test_pm_synthetic_residuals():
    # criterion-level check: in-range targets, well-conditioned G
    rng = np.random.default_rng(5)
    g = (rng.normal(size=(100, 16)) + 1j * rng.normal(size=(100, 16)))
    g /= np.sqrt(2 * 16)
    d_true = rng.normal(size=16) + 1j * rng.normal(size=16)
    p_cp = g @ d_true
    for lam, bound in ((1e-6, 1e-3), (1e-2, 0.1)):
        d = sla.cho_solve(sla.cho_factor(g.conj().T @ g + lam * np.eye(16)),
                          g.conj().T @ p_cp)
        res = np.linalg.norm(g @ d - p_cp) / np.linalg.norm(p_cp)
        assert res <= bound


def test_pm_acoustic_control_residual():
    # reference run: 0.073 for this layout; contract level 0.1
    arr = make_circular_array(16, 1.0)
    area = ListeningArea.disk((0, 0), 0.8, 0.04)
    cp = sample_control_points(area, 100, clearance_from=arr)
    src = Source(position=np.array([2.0, 0.0]))
    op = pm_operator(arr, cp, OMEGA_500, 1e-2, C)
    p_cp = _gt_field(cp.points, src, OMEGA_500)
    d = pm_driving(op, p_cp)
    res = np.linalg.norm(op.g_cp @ d - p_cp) / np.linalg.norm(p_cp)
    assert res <= 0.1


def test_pm_exact_reproduction_when_full_rank():
    rng = np.random.default_rng(9)
    g = (rng.normal(size=(24, 8)) + 1j * rng.normal(size=(24, 8))) / 4
    d_true = rng.normal(size=8) + 1j * rng.normal(size=8)
    p = g @ d_true
    d = np.linalg.solve(g.conj().T @ g, g.conj().T @ p)
    assert np.linalg.norm(g @ d - p) / np.linalg.norm(p) <= 1e-6


# -- shared renderer properties -------------------------------------------------

def test_driving_scale_equivariance(disk_grid):
    arr = make_circular_array(16, 1.0)
    src = Source(position=np.array([2.0, 1.0]))
    s = 2.0 - 3.0j
    d1 = mr_circular_driving(arr, [src], OMEGA_500, C, listening_radius=1.0)[:, 0]
    f1 = synthesize(arr, d1, disk_grid, OMEGA_500, C)
    fs = synthesize(arr, s * d1, disk_grid, OMEGA_500, C)
    assert np.allclose(fs, s * f1, rtol=1e-12)


def test_full_array_beats_decimated_at_every_frequency(disk_grid):
    arr = make_circular_array(16, 1.0)
    dec = decimate_array(arr, 8, seed=3)
    src = Source(position=np.array([1.8, -0.6]))
    freqs = 46 + 23 * np.arange(15)
    for f in freqs:
        omega = 2 * np.pi * f
        p = _gt_field(disk_grid.points, src, omega)
        d_f = mr_circular_driving(arr, [src], omega, C, listening_radius=1.0)[:, 0]
        d_d = mr_circular_driving(dec, [src], omega, C, listening_radius=1.0)[:, 0]
        n_f = nre(synthesize(arr, d_f, disk_grid, omega, C), p)
        n_d = nre(synthesize(dec, d_d, disk_grid, omega, C), p)
        assert n_f < n_d, f"full array not better at {f} Hz"
