"""Field primitives: Green's function, plane waves, the point-source
plane-wave density and its reconstruction identity."""

import warnings

import numpy as np
import pytest

from sfsynth.acoustics import (
    FrequencyGrid,
    green_matrix,
    herglotz_coefficients,
    herglotz_point_source,
    plane_wave_field,
    truncation_order,
)
from sfsynth.bessel import hankel2_orders, hankel2_zero

C = 343.0


def _green(point, source, omega, c):
    # the 2D Green's function (test_green2d_*) at one point: one entry of
    # the Green's matrix
    return green_matrix(np.asarray(point)[None, :], np.asarray(source)[None, :],
                        omega, c)[0, 0]


def test_green2d_value_at_unit_argument():
    # (omega/c) * distance == 1; frozen against the series oracle
    g = _green([1.0, 0.0], [0.0, 0.0], omega=C, c=C)
    assert g.real == pytest.approx(0.02206424105391924, rel=1e-10)
    assert g.imag == pytest.approx(0.19129942163949165, rel=1e-10)


def test_green2d_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.uniform(-2, 2, (3, 2))
        b = rng.uniform(-2, 2, (4, 2))
        omega = rng.uniform(100, 5000)
        assert np.array_equal(green_matrix(a, b, omega, C),
                              green_matrix(b, a, omega, C).T)


def test_green2d_at_first_bessel_zero():
    # (omega/c) d at the first zero of J0: value is Y0(j0_1)/4, real part
    # frozen from the independent series oracle
    d = 2.404825557695773
    g = _green([d, 0.0], [0.0, 0.0], omega=C, c=C)
    assert g.real == pytest.approx(0.12748109586211975, rel=1e-10)
    assert abs(g.imag) < 1e-16


def test_green2d_singularity():
    with pytest.raises(ValueError):
        green_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]),
                     np.array([[1.0, 1.0]]), omega=1000.0, c=C)


def test_green2d_far_field_decay():
    # |g| ~ (1/4) sqrt(2c/(pi omega d)) within 2% for (omega/c) d > 50
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega = rng.uniform(2000, 20000)
        d = rng.uniform(55, 300) * C / omega
        g = _green([d, 0.0], [0.0, 0.0], omega, C)
        ref = 0.25 * np.sqrt(2 * C / (np.pi * omega * d))
        assert abs(abs(g) - ref) / ref < 0.02


def test_plane_wave_basics():
    assert plane_wave_field(np.array([[0.0, 0.0]]), 1.234, 777.0, C) == [1.0]
    val = plane_wave_field(np.array([[1.0, 0.0]]), 0.0, np.pi * C, c=C)[0]
    assert val == pytest.approx(-1.0 + 0.0j)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (50, 2))
    mags = np.abs(plane_wave_field(pts, 0.7, 2345.0, C))
    assert np.allclose(mags, 1.0, atol=1e-14)


def test_truncation_order_values():
    assert truncation_order(2 * np.pi * 1472, 1.0, C) == 37
    assert truncation_order(2 * np.pi * 46, 1.0, C) == 2
    assert truncation_order(1e-9, 1.0, C) == 1


def test_truncation_order_invalid():
    with pytest.raises(ValueError):
        truncation_order(-1.0, 1.0, C)


def test_herglotz_order_zero_constant():
    src = np.array([2.0, 1.0])
    omega = 2 * np.pi * 300
    k = omega / C
    vals = herglotz_point_source(np.linspace(0, 2 * np.pi, 9), omega,
                                 src[None], M=0, c=C)[0]
    expected = 0.25j * hankel2_orders(0, k * np.hypot(*src))[0]
    assert np.allclose(vals, expected)


def test_herglotz_shift_invariance():
    # phi depends on theta only through theta - theta_z
    omega = 2 * np.pi * 500
    rho = 2.0
    s1 = rho * np.array([np.cos(0.3), np.sin(0.3)])
    s2 = rho * np.array([np.cos(1.1), np.sin(1.1)])
    th = np.linspace(0, 2, 7)
    v1 = herglotz_point_source(th + 0.3, omega, s1[None], M=12, c=C)[0]
    v2 = herglotz_point_source(th + 1.1, omega, s2[None], M=12, c=C)[0]
    assert np.allclose(v1, v2, rtol=1e-12)


def _reconstruct(point, omega, src, M, n_quad):
    th = 2 * np.pi * np.arange(n_quad) / n_quad
    phi = herglotz_point_source(th, omega, src[None], M, C)[0]
    pw = np.exp(1j * (omega / C) * (np.cos(th) * point[0] + np.sin(th) * point[1]))
    return np.mean(pw * phi)


def test_plane_wave_expansion_reconstructs_green():
    """Master property: averaging plane waves against the point-source
    density reproduces the free-field Green's function.

    M starts at the truncation bound for the field radius and walks up
    while the density coefficients stay below the float-noise ceiling;
    the bound is a lower bound, so any larger M satisfies it.
    """
    rng = np.random.default_rng(42)
    freqs = 46 + 23 * np.arange(63)
    worst = 0.0
    for _ in range(20):
        f = float(rng.choice(freqs))
        omega = 2 * np.pi * f
        k = omega / C
        rho_z = rng.uniform(1.5, 3.5)
        th_z = rng.uniform(0, 2 * np.pi)
        src = rho_z * np.array([np.cos(th_z), np.sin(th_z)])
        r_pt = rng.uniform(0.05, min(0.95, 0.45 * rho_z))
        th_pt = rng.uniform(0, 2 * np.pi)
        pt = r_pt * np.array([np.cos(th_pt), np.sin(th_pt)])
        M = truncation_order(omega, r_pt, C)
        while M < truncation_order(omega, r_pt, C) + 60:
            nxt = hankel2_orders(M + 1, k * rho_z)[M + 1]
            if abs(nxt) > 1e5:
                break
            M += 1
        n_quad = max(2048, 8 * M)
        p_rec = _reconstruct(pt, omega, src, M, n_quad)
        p_ref = _green(pt, src, omega, C)
        rel = abs(p_rec - p_ref) / abs(p_ref)
        worst = max(worst, rel)
    assert worst <= 1e-6, f"worst reconstruction error {worst:.3e}"


def test_frequency_grid():
    fg = FrequencyGrid.uniform(46.0, 23.0, 63, C)
    assert fg.k == 63
    assert fg.frequencies[0] == 46.0
    assert fg.frequencies[-1] == pytest.approx(1472.0)
    assert np.allclose(fg.angular, 2 * np.pi * fg.frequencies)
    assert fg.nearest_index(1007.0) == np.argmin(np.abs(fg.frequencies - 1007))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fg.nearest_index(bad)
    with pytest.raises(ValueError):
        FrequencyGrid(frequencies=np.array([100.0, 50.0]), c=C)


@pytest.mark.parametrize("build", [
    lambda: FrequencyGrid(np.array([1.0, np.inf]), c=C),
    lambda: FrequencyGrid(np.array([1.0, np.nan]), c=C),
    lambda: FrequencyGrid(np.array([1.0, 2.0]), c=float("nan")),
    lambda: FrequencyGrid(np.array([1.0, 2.0]), c=float("inf")),
    lambda: FrequencyGrid.uniform(46.0, 1e308, 15, c=C),
    lambda: FrequencyGrid.uniform(46.0, 1e307, 15, c=C),
], ids=["inf-frequency", "nan-frequency", "nan-c", "inf-c",
        "uniform-overflows", "angular-overflows"])
def test_frequency_grid_refuses_non_finite(build):
    # refused with one ValueError, and without a numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            build()


def test_green_matrix_matches_scalar():
    # reference: the 2D Green's function entry by entry, from the same
    # order-0 Hankel evaluation green_matrix uses
    pts = np.array([[0.1, 0.2], [-0.4, 0.5]])
    srcs = np.array([[2.0, 0.0], [0.0, 3.0]])
    omega = 2 * np.pi * 700
    g = green_matrix(pts, srcs, omega, C)
    for i in range(2):
        for j in range(2):
            d = np.hypot(*(pts[i] - srcs[j]))
            ref = 0.25j * hankel2_zero(np.array([(omega / C) * d]))[0]
            assert abs(g[i, j] - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("frequency", [100.0, 1472.0])
def test_green_matrix_memory_is_distances_plus_result(frequency):
    # 2^20 entries, every argument below 16 at 100 Hz and above 16 at the
    # top grid frequency: the distances (8 bytes per entry, scaled in
    # place) and the complex result (16) plus the Bessel layer's one block
    import tracemalloc
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, (1024, 2))
    srcs = rng.uniform(1.5, 3.5, (1024, 2))
    tracemalloc.start()
    try:
        g = green_matrix(pts, srcs, 2 * np.pi * frequency, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.size <= 32, f"{peak / g.size:.1f} bytes per entry"


def test_source_polar():
    # a position is read in its polar form: a source at (0, 2) has the
    # order-0 coefficient of rho = 2, and its density at theta = pi/2,
    # where theta - theta_z = 0, is the sum of its coefficients
    s = np.array([[0.0, 2.0]])
    omega = 2 * np.pi * 300
    cm = herglotz_coefficients(omega, s, 3, C)[0]
    assert cm[3] == pytest.approx(0.25j * hankel2_orders(0, 2.0 * omega / C)[0])
    assert herglotz_point_source([np.pi / 2], omega, s, 3, C)[0, 0] \
        == pytest.approx(cm.sum())
