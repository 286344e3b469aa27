"""Driving-signal computation: model-based rendering for circular and
linear arrays, and pressure matching."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .acoustics import (
    FrequencyGrid,
    Source,
    green_matrix,
    herglotz_rows,
    plane_wave_field,
    truncation_order,
)
from .bessel import hankel2_sym_rows
from .geometry import ArrayGeometry, PointSet


@dataclass(frozen=True)
class PMOperator:
    """Pressure-matching operator C = (G^H G + lam I)^-1 G^H for one
    frequency; independent of the target field."""

    g_cp: np.ndarray                 # (I, L_active)
    c_cp: np.ndarray                 # (L_active, I)


def mr_circular_driving(array: ArrayGeometry, sources: Sequence[Source],
                        omega: float | np.ndarray, c: float, *,
                        listening_radius: float) -> np.ndarray:
    """Model-based driving signals of S sources for a circular array at
    one angular frequency omega, (L, S), or at each of a 1-D array of K,
    (S, L, K) as mr_driving_matrix lays them out.

    Chooses M from the listening radius and matches the circular-harmonic
    coefficients of each source's field, orders -M..M, at the array
    radius R:

        d_l = (1/L) sum_m H_m^(2)(k rho_z) / H_m^(2)(k R) exp(j m (theta_l - theta_z)).

    This equals the plane-wave superposition d_l = (1/N) sum_n
    phi(theta_n) h_l(theta_n) at N = 2M+1 uniform directions theta_n of
    the source's plane-wave density phi and the closed-form filters
    h_l(theta) = 4/(j L) sum_m j^m exp(j m (theta_l - theta)) / H_m^(2)(k R):
    their orders m and m' meet in (1/N) sum_n exp(j (m' - m) theta_n),
    which is 1 if m = m' and 0 otherwise because |m - m'| <= 2M < N.
    L is the active loudspeaker count, which keeps the amplitude scale
    stable across decimation levels.  The Hankel rows of every frequency,
    k R among them, come from one pass (bessel.hankel2_sym_rows).
    """
    if array.family != "circular":
        raise ValueError("mr_circular_driving needs a circular array")
    if any(s.rho <= array.radius for s in sources):
        raise ValueError("source must lie outside the array radius")
    omegas = np.atleast_1d(omega)
    orders = [truncation_order(w, listening_radius, c) for w in omegas]
    k = omegas / c
    theta_z = np.array([s.theta for s in sources])
    rho_z = np.array([s.rho for s in sources])
    out = np.empty((len(sources), array.active_count, len(omegas)),
                   dtype=np.complex128)
    # each frequency's row: k rho_z of every source, then k R
    rows = hankel2_sym_rows(orders, np.column_stack(
        [np.outer(k, rho_z), k * array.radius]))
    for ki, (M, h) in enumerate(zip(orders, rows, strict=True)):
        ms = np.arange(-M, M + 1)
        coef = h[:-1]
        coef /= h[-1]
        coef *= np.exp(-1j * np.outer(theta_z, ms))
        # one matrix-vector product per source keeps each column's bits
        # independent of the batch
        e_l = np.exp(1j * np.outer(array.active_angles, ms))
        out[:, :, ki] = (e_l @ coef[..., None])[..., 0]
    out /= array.active_count
    return out[:, :, 0].T if np.ndim(omega) == 0 else out


def mr_linear_filter_bank(op: PMOperator, cp: PointSet, directions: np.ndarray,
                          omega: float, c: float) -> np.ndarray:
    """Plane-wave filters for a linear array, one column per direction
    of `directions` (N,), (L_active, N): the pressure-matching operator
    `op` of the control points `cp` applied to each plane wave's field
    there, i.e. its regularized least-squares fit."""
    return op.c_cp @ plane_wave_field(cp.points, directions, omega, c)


def linear_window(array: ArrayGeometry) -> tuple:
    """Admissible plane-wave window [atan2(-y0, x0), atan2(y0, x0)].

    With the exp(+j k <r, k_hat>) convention these directions propagate
    toward the listening half-plane x < x0.  The window is the aperture
    seen from the origin, so the origin must lie in that half-plane
    (x0 > 0) and the aperture must be open (y0 > 0).
    """
    if array.family != "linear":
        raise ValueError("window only defined for linear arrays")
    if not array.x0 > 0:
        raise ValueError("linear array x0 must be positive (the origin must "
                         f"lie on the listening side), got {array.x0!r}")
    if not array.y_extent > 0:
        raise ValueError("linear array needs a positive half aperture y0 "
                         f"(at least 2 loudspeakers), got {array.y_extent!r}")
    t_min = float(np.arctan2(-array.y_extent, array.x0))
    t_max = float(np.arctan2(array.y_extent, array.x0))
    return t_min, t_max


def mr_linear_driving(array: ArrayGeometry, sources: Sequence[Source],
                      cp: PointSet, op: PMOperator | Sequence[PMOperator],
                      omega: float | np.ndarray, c: float, *,
                      listening_radius: float) -> np.ndarray:
    """Model-based driving signals of S sources for a linear array at one
    angular frequency omega, (L, S), or at each of a 1-D array of K with
    one operator per frequency in `op`, (S, L, K) as mr_driving_matrix
    lays them out.  At each frequency the sources share one filter bank,
    built from the array's pressure-matching operator `op` at the control
    points `cp`.

    Samples N = 2M+1 directions at the midpoints of N equal parts of the
    admissible window [t_min, t_max], so a single direction would land on
    the window centre, fits one filter h(theta_n) per direction and
    superposes them against each source's plane-wave density phi:
    d = (t_max - t_min)/(2 pi N) sum_n phi(theta_n) h(theta_n).  The
    densities of every frequency come from one Hankel pass (herglotz_rows).
    """
    t_min, t_max = linear_window(array)
    omegas = np.atleast_1d(omega)
    ops = [op] if np.ndim(omega) == 0 else op
    orders = [truncation_order(w, listening_radius, c) for w in omegas]
    width = t_max - t_min
    directions = [t_min + (np.arange(2 * M + 1) + 0.5) * width / (2 * M + 1)
                  for M in orders]
    out = np.empty((len(sources), array.active_count, len(omegas)),
                   dtype=np.complex128)
    densities = herglotz_rows(omegas, sources, orders, c, directions)
    for ki, (w, op_k, theta, phi) in enumerate(zip(
            omegas, ops, directions, densities, strict=True)):
        bank = mr_linear_filter_bank(op_k, cp, theta, w, c)
        d = (bank @ phi[..., None])[..., 0]
        out[:, :, ki] = width / (2 * np.pi * len(theta)) * d
    return out[:, :, 0].T if np.ndim(omega) == 0 else out


def pm_operator(array: ArrayGeometry, cp: PointSet, omega: float, lam: float,
                c: float) -> PMOperator:
    """Build the pressure-matching operator for one frequency: Green's
    matrix G (I, L_active) from the active loudspeakers to the control
    points, and C solved from the Cholesky factor of G^H G + lam I.
    Driving signals for control pressures p_cp are C @ p_cp."""
    if len(cp) == 0:
        raise ValueError("control point set must be non-empty")
    if array.active_count < 1:
        raise ValueError("array has no active loudspeakers")
    g = green_matrix(cp.points, array.active_positions, omega, c)
    a = g.conj().T @ g + lam * np.eye(array.active_count)
    return PMOperator(g_cp=g, c_cp=sla.cho_solve(sla.cho_factor(a),
                                                 g.conj().T))


def pm_operators(array: ArrayGeometry, cp: PointSet, freq_grid: FrequencyGrid,
                 lam: float) -> list[PMOperator]:
    """`pm_operator` at every grid frequency, in grid order."""
    return [pm_operator(array, cp, omega, lam, freq_grid.c)
            for omega in freq_grid.angular]
