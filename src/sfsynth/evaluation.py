"""Reproduction-accuracy metrics (NRE, whole-field SSIM) and the sweep
aggregation over test sources."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import FrequencyGrid, green_matrix
from .geometry import ArrayGeometry, PointSet

NRE_FLOOR_DB = -300.0
SSIM_H1 = 0.01
SSIM_H2 = 0.03


def nre(p_hat: np.ndarray, p: np.ndarray) -> float:
    """Normalized reproduction error in dB, clamped below at -300."""
    p_hat = np.asarray(p_hat).reshape(-1)
    p = np.asarray(p).reshape(-1)
    if p_hat.shape != p.shape:
        raise ValueError("field sizes differ")
    den = float(np.sum(np.abs(p) ** 2))
    if den == 0.0:
        raise ValueError("ground-truth field has zero energy")
    num = float(np.sum(np.abs(p_hat - p) ** 2))
    if num == 0.0:
        return NRE_FLOOR_DB
    return max(10.0 * np.log10(num / den), NRE_FLOOR_DB)


def normalize_magnitude(p: np.ndarray) -> np.ndarray:
    """(|p| - min)/(max - min); a constant field maps to all zeros."""
    mag = np.abs(np.asarray(p)).reshape(-1)
    if mag.size == 0:
        raise ValueError("empty field")
    lo, hi = float(mag.min()), float(mag.max())
    if hi == lo:
        return np.zeros_like(mag)
    return (mag - lo) / (hi - lo)


def ssim_global(p_hat_mag: np.ndarray, p_mag: np.ndarray) -> float:
    """Single-window SSIM with whole-grid statistics on [0, 1] data.

    Population moments; c1 = (h1 R)^2 stabilises the mean factor and
    c2 = (h2 R)^2 both the covariance and variance factors, with R = 1.
    """
    x = np.asarray(p_hat_mag, dtype=np.float64).reshape(-1)
    y = np.asarray(p_mag, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("field sizes differ")
    c1 = SSIM_H1 ** 2
    c2 = SSIM_H2 ** 2
    mx, my = x.mean(), y.mean()
    vx = x.var()
    vy = y.var()
    cxy = ((x - mx) * (y - my)).mean()
    return float(((2 * mx * my + c1) * (2 * cxy + c2))
                 / ((mx * mx + my * my + c1) * (vx + vy + c2)))


@dataclass(frozen=True)
class MetricSeries:
    """Per-method metric means along a frequency or radius axis."""

    axis_values: np.ndarray
    values: dict                     # method -> (n_axis,) mean metric
    counts: np.ndarray               # samples averaged per axis value

    def __post_init__(self):
        n = len(self.axis_values)
        if len(self.counts) != n or any(len(v) != n for v in self.values.values()):
            raise ValueError("axis, counts and value lengths differ")


@dataclass(frozen=True)
class SweepContext:
    """Everything a sweep needs: geometry, evaluation grid, sources and
    the per-method driving signals (method -> (S, L_active, K) array)."""

    array: ArrayGeometry
    points: PointSet
    freq_grid: FrequencyGrid
    sources: list                    # list[Source]
    driving: dict                    # method -> np.ndarray (S, L, K)

    def __post_init__(self):
        s = len(self.sources)
        for name, d in self.driving.items():
            if d.shape[0] != s or d.shape[1] != self.array.active_count \
                    or d.shape[2] != self.freq_grid.k:
                raise ValueError(f"driving array for {name!r} has wrong shape")


def metric_samples(ctx: SweepContext, methods) -> dict:
    """metric_samples[method][s, k] for every source and frequency.

    Evaluated frequency-major: per frequency, one Green's matrix of the
    evaluation grid to the loudspeakers and one to every test source.
    """
    s_count = len(ctx.sources)
    k_count = ctx.freq_grid.k
    out = {m: {"nre": np.empty((s_count, k_count)),
               "ssim": np.empty((s_count, k_count))} for m in methods}
    pts = ctx.points.points
    positions = np.array([s.position for s in ctx.sources]).reshape(-1, 2)
    for ki, omega in enumerate(ctx.freq_grid.angular):
        g_grid = green_matrix(pts, ctx.array.active_positions, omega,
                              ctx.freq_grid.c)
        g_src = green_matrix(pts, positions, omega, ctx.freq_grid.c)
        for si in range(s_count):
            p_true = g_src[:, si]
            true_mag = normalize_magnitude(p_true)
            for m in methods:
                p_hat = g_grid @ ctx.driving[m][si, :, ki]
                out[m]["nre"][si, ki] = nre(p_hat, p_true)
                out[m]["ssim"][si, ki] = ssim_global(
                    normalize_magnitude(p_hat), true_mag)
    return out


def sweep(ctx: SweepContext, methods, axis: str, metric: str,
          fixed_frequency_index: int, n_radius_bins: int,
          samples: dict) -> MetricSeries:
    """Aggregate a metric of `samples`, the metric_samples output for
    ctx, over the test sources.

    axis "frequency_hz": mean over sources at every grid frequency.
    axis "radius_m": sources binned by their radius into n_radius_bins,
    metric taken at fixed_frequency_index; empty bins are reported with
    count zero and a NaN mean rather than dropped.
    """
    methods = list(methods)
    if metric not in ("nre", "ssim"):
        raise ValueError(f"unknown metric {metric!r}")
    if axis == "frequency_hz":
        values = {m: samples[m][metric].mean(axis=0) for m in methods}
        counts = np.full(ctx.freq_grid.k, len(ctx.sources), dtype=int)
        return MetricSeries(axis_values=ctx.freq_grid.frequencies.copy(),
                            values=values, counts=counts)
    if axis != "radius_m":
        raise ValueError(f"unknown axis {axis!r}")
    radii = np.array([s.rho for s in ctx.sources])
    lo, hi = radii.min(), radii.max()
    if hi == lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, n_radius_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    which = np.clip(np.searchsorted(edges, radii, side="right") - 1,
                    0, n_radius_bins - 1)
    counts = np.bincount(which, minlength=n_radius_bins)
    values = {}
    for m in methods:
        col = samples[m][metric][:, fixed_frequency_index]
        sums = np.bincount(which, weights=col, minlength=n_radius_bins)
        with np.errstate(invalid="ignore"):
            values[m] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return MetricSeries(axis_values=centers, values=values, counts=counts)
