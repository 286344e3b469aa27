"""Driving-signal renderers: model-based circular/linear and pressure
matching, checked against direct Green's-function evaluation."""

import numpy as np
import pytest
import scipy.linalg as sla

from sfsynth.acoustics import (
    Source,
    green_matrix,
    herglotz_coefficients,
    herglotz_point_source,
    plane_wave_field,
    truncation_order,
)
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
    mr_linear_driving,
    mr_linear_filter_bank,
    pm_operator,
)

C = 343.0
OMEGA_500 = 2 * np.pi * 500


def one_direction_filter(op, cp, theta, omega):
    """Least-squares filter for the single plane-wave direction theta."""
    return mr_linear_filter_bank(op, cp, np.array([theta]), omega, C)[:, 0]


@pytest.fixture(scope="module")
def disk_grid():
    return sample_listening_grid(ListeningArea.disk(0.8, 0.04))


def _gt_field(points, src, omega):
    return green_matrix(points, src.position[None, :], omega, C)[:, 0]


def _density_by_order_sum(theta_n, omega, src, M):
    """phi(theta_n) = sum_m c_m e^(j m (theta_n - theta_z)), one order at
    a time, from the coefficients alone."""
    cm = herglotz_coefficients(omega, [src], M, C)[0]
    return sum(cm[m + M] * np.exp(1j * m * (theta_n - src.theta))
               for m in range(-M, M + 1))


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
        g = green_matrix(disk_grid.points, arr.active_positions, OMEGA_500, C)
        assert nre(g @ d, _gt_field(disk_grid.points, src, OMEGA_500)) <= -15.0


def test_mr_circular_decimation_degrades(disk_grid):
    arr = make_circular_array(64, 1.0)
    dec = decimate_array(arr, 32, seed=7)
    src = Source(position=np.array([2.0, 0.0]))
    p = _gt_field(disk_grid.points, src, OMEGA_500)
    d_full = mr_circular_driving(arr, [src], OMEGA_500, C, listening_radius=1.0)[:, 0]
    d_dec = mr_circular_driving(dec, [src], OMEGA_500, C, listening_radius=1.0)[:, 0]
    g_full = green_matrix(disk_grid.points, arr.active_positions, OMEGA_500, C)
    g_dec = green_matrix(disk_grid.points, dec.active_positions, OMEGA_500, C)
    nre_full = nre(g_full @ d_full, p)
    nre_dec = nre(g_dec @ d_dec, p)
    assert nre_dec > nre_full


def test_mr_circular_matches_bruteforce_double_loop():
    # for every active loudspeaker l of a one-element array and of a
    # 16-element array, whole and decimated by 8:
    # d_l = (1/N) sum_n phi(theta_n) * 4/(j L_active) sum_m j^m
    #   e^(j m (theta_l - theta_n)) / H_m^(2)(k rho)
    src = Source(position=np.array([1.7, 0.9]))
    omega = 2 * np.pi * 300
    k = omega / C
    M = truncation_order(omega, 1.0, C)
    N = 2 * M + 1
    H = hankel2_sym_range(M, k * 1.0)           # H[m + M] = H_m^(2)
    thetas = 2 * np.pi * np.arange(N) / N
    phi = [_density_by_order_sum(theta_n, omega, src, M) for theta_n in thetas]
    full = make_circular_array(16, 1.0)
    for arr in (make_circular_array(1, 1.0), full,
                decimate_array(full, 8, seed=3)):
        d = mr_circular_driving(arr, [src], omega, C,
                                listening_radius=1.0)[:, 0]
        scale = 4.0 / (1j * arr.active_count)
        assert len(d) == arr.active_count
        for l, theta_l in enumerate(arr.active_angles):
            acc = 0.0 + 0.0j
            for n, theta_n in enumerate(thetas):
                h = 0.0 + 0.0j
                for m in range(-M, M + 1):
                    h += ((1j) ** m * np.exp(1j * m * (theta_l - theta_n))
                          / H[m + M])
                acc += phi[n] * scale * h
            assert d[l] == pytest.approx(acc / N, rel=1e-10)


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


def test_linear_window_needs_origin_side_and_aperture():
    # x0 < 0: arctan2 would give the complement of the aperture, a window
    # of width 2 pi - 2 arctan(y0 / |x0|) pointing away from the listener
    with pytest.raises(ValueError, match="x0 must be positive"):
        linear_window(make_linear_array(16, 0.25, -1.0))
    # one loudspeaker: y0 = 0, an empty window
    with pytest.raises(ValueError, match="half aperture"):
        linear_window(make_linear_array(1, 0.25, 1.0))


def test_mr_linear_scalar_normal_equation():
    # I = 1, L = 1, lam = 0: h = conj(g) p / |g|^2
    arr = make_linear_array(1, 0.1, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 1, clearance_from=arr)
    theta = 0.3
    op = pm_operator(arr, cp, OMEGA_500, 0.0, C)
    h = one_direction_filter(op, cp, theta, OMEGA_500)
    g = green_matrix(cp.points, arr.positions, OMEGA_500, C)[0, 0]
    p = plane_wave_field(cp.points[:1], theta, OMEGA_500, C)[0]
    assert h[0] == pytest.approx(np.conj(g) * p / abs(g) ** 2, rel=1e-12)


def test_mr_linear_large_lam_shrinks_filters(linear_setup):
    arr, rect, cp, _ = linear_setup
    op = pm_operator(arr, cp, OMEGA_500, 1e9, C)
    h = one_direction_filter(op, cp, 0.0, OMEGA_500)
    assert np.max(np.abs(h)) < 1e-6


def test_mr_linear_fit_residual():
    # reference run: mid-window residual 0.0014 at lam=1e-6 with
    # I=196 >> L=16; asserted at the 0.05 contract level
    arr = make_linear_array(16, 0.25, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 200, clearance_from=arr)
    assert len(cp) >= 150
    t_min, t_max = linear_window(arr)
    n = 2 * truncation_order(OMEGA_500, rect.bounding_radius, C) + 1
    directions = t_min + (np.arange(n) + 0.5) * (t_max - t_min) / n
    op = pm_operator(arr, cp, OMEGA_500, 1e-6, C)
    bank = mr_linear_filter_bank(op, cp, directions, OMEGA_500, C)
    g = green_matrix(cp.points, arr.active_positions, OMEGA_500, C)
    mid = n // 2
    tgt = plane_wave_field(cp.points, directions[mid], OMEGA_500, C)
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
    op = pm_operator(arr, cp, OMEGA_500, 1e-2, C)
    d = mr_linear_driving(arr, [src], cp, op, OMEGA_500, C,
                          listening_radius=rect.bounding_radius)[:, 0]
    p_hat = green_matrix(grid.points, arr.active_positions, OMEGA_500, C) @ d
    assert nre(p_hat, _gt_field(grid.points, src, OMEGA_500)) <= -10.0


def test_mr_linear_matches_bruteforce_sum():
    # for every active loudspeaker of a 16-element linear array, whole and
    # decimated by 8: d = width/(2 pi N) sum_n phi(theta_n) h(theta_n) over
    # the N = 2M+1 midpoints theta_n of the window, each h from its own
    # one-direction least-squares fit
    full = make_linear_array(16, 0.25, 1.0)
    rect = ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02)
    cp = sample_control_points(rect, 200, clearance_from=full)
    src = Source(position=np.array([2.2, 0.4]))
    t_min, t_max = linear_window(full)
    width = t_max - t_min
    for f in (46.0, 300.0):
        omega = 2 * np.pi * f
        M = truncation_order(omega, rect.bounding_radius, C)
        N = 2 * M + 1
        thetas = [t_min + (n + 0.5) * width / N for n in range(N)]
        phi = [_density_by_order_sum(theta_n, omega, src, M)
               for theta_n in thetas]
        for arr in (full, decimate_array(full, 8, seed=3)):
            op = pm_operator(arr, cp, omega, 1e-2, C)
            d = mr_linear_driving(arr, [src], cp, op, omega, C,
                                  listening_radius=rect.bounding_radius)[:, 0]
            assert len(d) == arr.active_count
            acc = np.zeros(arr.active_count, dtype=complex)
            for theta_n, phi_n in zip(thetas, phi):
                acc += phi_n * one_direction_filter(op, cp, theta_n, omega)
            ref = width / (2 * np.pi * N) * acc
            for l in range(arr.active_count):
                assert d[l] == pytest.approx(ref[l], rel=1e-10), (f, l)


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
    area = ListeningArea.disk(0.8, 0.04)
    cp = sample_control_points(area, 100, clearance_from=arr)
    for lam in (1e-6, 1e-2, 1.0):
        op = pm_operator(arr, cp, OMEGA_500, lam, C)
        lhs = (op.g_cp.conj().T @ op.g_cp
               + lam * np.eye(arr.active_count)) @ op.c_cp
        rhs = op.g_cp.conj().T
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_pm_large_lam_asymptotics():
    arr = make_circular_array(8, 1.0)
    area = ListeningArea.disk(0.8, 0.04)
    cp = sample_control_points(area, 40, clearance_from=arr)
    lam = 1e9
    op = pm_operator(arr, cp, OMEGA_500, lam, C)
    assert np.allclose(op.c_cp, op.g_cp.conj().T / lam, rtol=1e-6)


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
    area = ListeningArea.disk(0.8, 0.04)
    cp = sample_control_points(area, 100, clearance_from=arr)
    src = Source(position=np.array([2.0, 0.0]))
    op = pm_operator(arr, cp, OMEGA_500, 1e-2, C)
    p_cp = _gt_field(cp.points, src, OMEGA_500)
    d = op.c_cp @ p_cp
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

def test_mr_circular_batch_equals_one_source_calls():
    # eight sources on rho = 2.5 exactly (3-4-5 triangles) share one
    # Hankel row per frequency; one more lies off that ring.  For both MR
    # renderers and the plane-wave density, each source's column of the
    # batch must be its one-source call, byte for byte
    ring = [(2.5, 0.0), (1.5, 2.0), (0.0, 2.5), (-2.0, 1.5),
            (-2.5, 0.0), (-1.5, -2.0), (0.0, -2.5), (2.0, -1.5)]
    sources = [Source(position=np.array(p)) for p in ring + [(1.8, -0.6)]]
    assert len({s.rho for s in sources[:8]}) == 1
    circ = make_circular_array(16, 1.0)
    lin = make_linear_array(16, 0.25, 1.0)
    cp = sample_control_points(
        ListeningArea.rectangle(-1.2, 0.8, -1.0, 1.0, 0.02), 200,
        clearance_from=lin)
    renderers = {
        "mr_circular_driving": lambda srcs, omega: mr_circular_driving(
            circ, srcs, omega, C, listening_radius=1.0),
        "mr_linear_driving": lambda srcs, omega: mr_linear_driving(
            lin, srcs, cp, pm_operator(lin, cp, omega, 1e-2, C), omega, C,
            listening_radius=1.0),
        "herglotz_point_source": lambda srcs, omega: herglotz_point_source(
            np.linspace(0, 2 * np.pi, 29), omega, srcs, 12, C).T,
    }
    for name, render in renderers.items():
        for f in (46.0, 368.0, 1007.0):
            omega = 2 * np.pi * f
            batch = render(sources, omega)
            alone = np.stack([render([s], omega)[:, 0] for s in sources],
                             axis=1)
            assert batch.tobytes() == alone.tobytes(), (name, f)


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
        g_f = green_matrix(disk_grid.points, arr.active_positions, omega, C)
        g_d = green_matrix(disk_grid.points, dec.active_positions, omega, C)
        n_f = nre(g_f @ d_f, p)
        n_d = nre(g_d @ d_d, p)
        assert n_f < n_d, f"full array not better at {f} Hz"
