"""Driving-signal computation: model-based rendering for circular and
linear arrays, pressure matching, and field synthesis."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .acoustics import (
    DEFAULT_SPEED_OF_SOUND,
    PlaneWaveSet,
    Source,
    green_matrix,
    herglotz_point_source,
    plane_wave_field,
    truncation_order,
)
from .bessel import hankel2_sym_range
from .geometry import ArrayGeometry, PointSet


@dataclass(frozen=True)
class PMOperator:
    """Pressure-matching operator C = (G^H G + lam I)^-1 G^H for one
    frequency; independent of the target field."""

    g_cp: np.ndarray                 # (I, L_active)
    c_cp: np.ndarray                 # (L_active, I)

    @property
    def n_control(self) -> int:
        return self.g_cp.shape[0]


def synthesize(array: ArrayGeometry, d: np.ndarray, points: PointSet,
               omega: float, c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Pressure produced at `points` by driving the active loudspeakers
    with the coefficients d at angular frequency omega."""
    d = np.asarray(d, dtype=np.complex128).reshape(-1)
    if len(d) != array.active_count:
        raise ValueError("driving length must equal the active loudspeaker count")
    g = green_matrix(points.points, array.active_positions, omega, c)
    return g @ d


def mr_circular_filter_bank(array: ArrayGeometry, pw: PlaneWaveSet,
                            omega: float,
                            c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Closed-form plane-wave filters for a circular array, indexed
    (loudspeaker, direction): (L_active, N).

    h_l(theta_n) = 4/(j L) sum_m j^m exp(j m (theta_l - theta_n)) / H_m^(2)(k rho_l)

    The j^m factor is required for the modal sum to synthesize the plane
    wave exp(j k <r, k_hat(theta_n)>): matching circular-harmonic
    coefficients of the Green's function against the Jacobi-Anger
    expansion of the target introduces exactly one factor j^m.
    L is the active loudspeaker count, which keeps the amplitude scale
    stable across decimation levels.
    """
    if array.family != "circular":
        raise ValueError("circular filter bank needs a circular array")
    k = omega / c
    M = pw.order
    ms = np.arange(-M, M + 1)
    H = hankel2_sym_range(M, k * array.radius)
    w = (1j) ** ms / H
    e_l = np.exp(1j * np.outer(array.active_angles, ms))      # (L, 2M+1)
    e_n = np.exp(-1j * np.outer(pw.directions, ms))           # (N, 2M+1)
    scale = 4.0 / (1j * array.active_count)
    return scale * (e_l * w) @ e_n.T


def mr_circular_driving(array: ArrayGeometry, sources: Sequence[Source],
                        omega: float, c: float = DEFAULT_SPEED_OF_SOUND, *,
                        listening_radius: float) -> np.ndarray:
    """Model-based driving signals of S sources for a circular array at
    one frequency, (L, S).

    Chooses M from the listening radius, renders N = 2M+1 uniformly
    spaced plane waves, and averages the filters against each source's
    plane-wave density.
    """
    if array.family != "circular":
        raise ValueError("mr_circular_driving needs a circular array")
    if any(s.rho <= array.radius for s in sources):
        raise ValueError("source must lie outside the array radius")
    M = truncation_order(omega, listening_radius, c)
    pw = PlaneWaveSet.full_circle(M)
    k = omega / c
    ms = np.arange(-M, M + 1)
    H = hankel2_sym_range(M, k * array.radius)
    phi = herglotz_point_source(pw.directions, omega, sources, M, c)
    # separable evaluation of (1/N) sum_n phi(theta_n) h_l(theta_n), one
    # matrix-vector product per source
    proj = np.exp(-1j * np.outer(ms, pw.directions)) @ phi[..., None]
    e_l = np.exp(1j * np.outer(array.active_angles, ms))
    scale = 4.0 / (1j * array.active_count * len(pw.directions))
    d = scale * (e_l @ (((1j) ** ms / H)[:, None] * proj))[..., 0]
    return d.T


def _regularized_normal_factor(array: ArrayGeometry, cp: PointSet,
                               omega: float, lam: float, c: float) -> tuple:
    """Green's matrix G (I, L_active) from the active loudspeakers to the
    control points, and the Cholesky factor of G^H G + lam I shared by
    the regularized least-squares fits."""
    if len(cp) == 0:
        raise ValueError("control point set must be non-empty")
    if array.active_count < 1:
        raise ValueError("array has no active loudspeakers")
    g = green_matrix(cp.points, array.active_positions, omega, c)
    a = g.conj().T @ g + lam * np.eye(array.active_count)
    return g, sla.cho_factor(a)


def mr_linear_filter_bank(array: ArrayGeometry, cp: PointSet,
                          pw: PlaneWaveSet, omega: float, lam: float,
                          c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Plane-wave filters for a linear array, fitted in the regularized
    least-squares sense at the control points, (L_active, N)."""
    if array.family != "linear":
        raise ValueError("linear filter bank needs a linear array")
    g, cho = _regularized_normal_factor(array, cp, omega, lam, c)
    targets = np.stack(
        [plane_wave_field(cp.points, th, omega, c) for th in pw.directions],
        axis=1)                                               # (I, N)
    return sla.cho_solve(cho, g.conj().T @ targets)


def linear_window(array: ArrayGeometry) -> tuple:
    """Admissible plane-wave window [atan2(-y0, x0), atan2(y0, x0)].

    With the exp(+j k <r, k_hat>) convention these directions propagate
    toward the listening half-plane x < x0.
    """
    if array.family != "linear":
        raise ValueError("window only defined for linear arrays")
    t_min = float(np.arctan2(-array.y_extent, array.x0))
    t_max = float(np.arctan2(array.y_extent, array.x0))
    if t_max <= t_min:
        raise ValueError("array x0 must be positive for a contiguous window")
    return t_min, t_max


def combine_plane_waves(bank: np.ndarray, phi: np.ndarray,
                        window_width: float) -> np.ndarray:
    """Windowed plane-wave superposition of per-direction filters
    bank (L, N) for each of S densities phi (S, N), (L, S):
    d = width/(2 pi N) sum_n phi(theta_n) h(:, theta_n).
    """
    n = bank.shape[1]
    if np.shape(phi)[-1] != n:
        raise ValueError("density sample count must match the filter bank")
    d = (bank @ np.asarray(phi)[..., None])[..., 0]
    return window_width / (2 * np.pi * n) * d.T


def mr_linear_driving(array: ArrayGeometry, sources: Sequence[Source],
                      cp: PointSet, omega: float, lam: float,
                      c: float = DEFAULT_SPEED_OF_SOUND, *,
                      listening_radius: float) -> np.ndarray:
    """Model-based driving signals of S sources for a linear array at one
    frequency, (L, S); the sources share one filter bank."""
    t_min, t_max = linear_window(array)
    M = truncation_order(omega, listening_radius, c)
    pw = PlaneWaveSet.windowed(M, t_min, t_max)
    bank = mr_linear_filter_bank(array, cp, pw, omega, lam, c)
    phi = herglotz_point_source(pw.directions, omega, sources, M, c)
    return combine_plane_waves(bank, phi, pw.width)


def pm_operator(array: ArrayGeometry, cp: PointSet, omega: float, lam: float,
                c: float = DEFAULT_SPEED_OF_SOUND) -> PMOperator:
    """Build the pressure-matching operator for one frequency."""
    g, cho = _regularized_normal_factor(array, cp, omega, lam, c)
    return PMOperator(g_cp=g, c_cp=sla.cho_solve(cho, g.conj().T))


def pm_driving(op: PMOperator, p_cp: np.ndarray) -> np.ndarray:
    """Driving signals d = C_cp p_cp; cost O(I L) per frequency."""
    p = np.asarray(p_cp, dtype=np.complex128).reshape(-1)
    if len(p) != op.n_control:
        raise ValueError("control pressure length must equal the operator's I")
    return op.c_cp @ p
