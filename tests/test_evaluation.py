"""NRE, whole-field SSIM and the sweep aggregation."""

import numpy as np
import pytest

from sfsynth.acoustics import FrequencyGrid, Source, green_matrix
from sfsynth.evaluation import (
    MetricSeries,
    SweepContext,
    metric_samples,
    normalize_magnitude,
    nre,
    ssim_global,
    sweep,
)
from sfsynth.geometry import (
    ListeningArea,
    make_circular_array,
    sample_listening_grid,
)


def test_nre_identical_fields_clamp():
    p = np.array([1 + 1j, 2.0, 3j])
    assert nre(p, p) == -300.0


def test_nre_zero_estimate():
    p = np.array([1.0, 1j, -1.0])
    assert nre(np.zeros(3), p) == pytest.approx(0.0)


def test_nre_double_estimate():
    p = np.array([1.0, 1j, -2.0])
    assert nre(2 * p, p) == pytest.approx(0.0)


def test_nre_scale_invariant():
    rng = np.random.default_rng(0)
    p = rng.normal(size=8) + 1j * rng.normal(size=8)
    q = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = 0.3 - 2.2j
    assert nre(s * q, s * p) == pytest.approx(nre(q, p), rel=1e-12)


def test_nre_zero_truth_rejected():
    with pytest.raises(ValueError):
        nre(np.ones(3), np.zeros(3))


def test_normalize_magnitude():
    assert np.array_equal(normalize_magnitude(np.array([1.0, 3.0])), [0, 1])
    assert np.array_equal(normalize_magnitude(np.array([5.0, 5.0])), [0, 0])
    out = normalize_magnitude(np.array([0.0, 2.0, 1.0]))
    assert out[2] == pytest.approx(0.5)


def test_ssim_identical_is_one():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 50)
    assert ssim_global(x, x) == pytest.approx(1.0, abs=1e-15)


def test_ssim_constant_zero_vs_one():
    # closed form with zero variances: c1 c2 / ((1 + c1) c2) = c1/(1 + c1)
    x = np.zeros(40)
    y = np.ones(40)
    expected = 1e-4 / 1.0001
    assert ssim_global(x, y) == pytest.approx(expected, abs=1e-12)


def test_ssim_symmetric():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 30)
    y = rng.uniform(0, 1, 30)
    assert ssim_global(x, y) == pytest.approx(ssim_global(y, x), rel=1e-14)


def test_ssim_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0, 1, 25)
        y = rng.uniform(0, 1, 25)
        v = ssim_global(x, y)
        assert -1.0 <= v <= 1.0


def _small_ctx(methods=("mr",), n_sources=2):
    arr = make_circular_array(8, 1.0)
    grid = sample_listening_grid(ListeningArea.disk(0.6, 0.1))
    fg = FrequencyGrid.uniform(100.0, 100.0, 3, 343.0)
    rng = np.random.default_rng(4)
    sources = []
    for i in range(n_sources):
        rho = 1.5 + 0.5 * i
        th = rng.uniform(0, 2 * np.pi)
        sources.append(Source(position=rho * np.array([np.cos(th), np.sin(th)])))
    driving = {m: (rng.normal(size=(n_sources, 8, 3))
                   + 1j * rng.normal(size=(n_sources, 8, 3)))
               for m in methods}
    return SweepContext(array=arr, points=grid, freq_grid=fg,
                        sources=sources, driving=driving)


def _sweep(ctx, methods, axis, metric, n_radius_bins=10):
    return sweep(ctx, methods, axis, metric, fixed_frequency_index=0,
                 n_radius_bins=n_radius_bins,
                 samples=metric_samples(ctx, methods))


def test_sweep_single_source_single_method_matches_direct_nre():
    ctx = _small_ctx(n_sources=1)
    series = _sweep(ctx, ["mr"], "frequency_hz", "nre")
    assert len(series.axis_values) == 3
    ki = 1
    omega = ctx.freq_grid.angular[ki]
    p_hat = green_matrix(ctx.points.points, ctx.array.active_positions,
                         omega, ctx.freq_grid.c) @ ctx.driving["mr"][0, :, ki]
    p = green_matrix(ctx.points.points, ctx.sources[0].position[None, :],
                     omega, ctx.freq_grid.c)[:, 0]
    assert series.values["mr"][ki] == pytest.approx(nre(p_hat, p))
    assert np.all(series.counts == 1)


def test_sweep_shape_contract():
    ctx = _small_ctx(methods=("mr", "pm", "cnn"), n_sources=3)
    series = _sweep(ctx, ["mr", "pm", "cnn"], "frequency_hz", "ssim")
    for m in ("mr", "pm", "cnn"):
        assert len(series.values[m]) == ctx.freq_grid.k


def test_sweep_order_invariant():
    ctx = _small_ctx(n_sources=4)
    s1 = _sweep(ctx, ["mr"], "frequency_hz", "nre")
    perm = [2, 0, 3, 1]
    ctx2 = SweepContext(array=ctx.array, points=ctx.points,
                        freq_grid=ctx.freq_grid,
                        sources=[ctx.sources[i] for i in perm],
                        driving={"mr": ctx.driving["mr"][perm]})
    s2 = _sweep(ctx2, ["mr"], "frequency_hz", "nre")
    assert np.allclose(s1.values["mr"], s2.values["mr"], atol=1e-12)


def test_sweep_radius_bins_report_empty():
    ctx = _small_ctx(n_sources=3)
    series = _sweep(ctx, ["mr"], "radius_m", "nre", n_radius_bins=6)
    assert len(series.axis_values) == 6
    assert series.counts.sum() == 3
    empty = series.counts == 0
    assert np.any(empty)
    assert np.all(np.isnan(series.values["mr"][empty]))
    assert np.all(np.isfinite(series.values["mr"][~empty]))


def test_metric_series_validation():
    with pytest.raises(ValueError):
        MetricSeries(axis_values=np.arange(3), values={"mr": np.zeros(2)},
                     counts=np.zeros(3, int))
