"""Field primitives: 2D free-field Green's function, plane waves, the
plane-wave angular density of a point source, and the modal truncation
rule that ties them together."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import hankel2_sym_rows, hankel2_zero

# points closer than this to a source are treated as coincident
_SINGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequencies and the medium speed."""

    frequencies: np.ndarray          # Hz, (K,)
    c: float                         # speed of sound, m/s

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        object.__setattr__(self, "frequencies", f)
        if f.ndim != 1 or len(f) == 0:
            raise ValueError("frequencies must be a non-empty 1D array")
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.angular).all()
        if not (finite and np.all(f > 0) and np.all(np.diff(f) > 0)):
            raise ValueError("frequencies must be positive, increasing and "
                             "finite in rad/s")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("speed of sound must be positive and finite")

    @classmethod
    def uniform(cls, start: float, step: float, count: int,
                c: float) -> "FrequencyGrid":
        # a grid past the floating-point range is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(frequencies=start + step * np.arange(count), c=c)

    @property
    def angular(self) -> np.ndarray:
        return 2 * np.pi * self.frequencies

    @property
    def k(self) -> int:
        return len(self.frequencies)

    def nearest_index(self, frequency: float) -> int:
        if not np.isfinite(frequency):
            raise ValueError(f"frequency must be finite, got {frequency}")
        return int(np.argmin(np.abs(self.frequencies - frequency)))


def source_positions(sources) -> np.ndarray:
    """The positions of S sources as an (S, 2) float64 array, one (2,)
    position being one source; ValueError for any other shape."""
    pos = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    if pos.size == 0:
        pos = pos.reshape(0, 2)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("source positions must be an (S, 2) array, got "
                         f"shape {pos.shape}")
    return pos


def green_matrix(points: np.ndarray, sources: np.ndarray, omega: float,
                 c: float) -> np.ndarray:
    """Matrix of Green's-function values, shape (n_points, n_sources).

    Needs 24 bytes per entry: the distances, scaled in place, and the
    complex result (hankel2_zero bounds its own temporaries).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    srcs = source_positions(sources)
    # distances built in place: two (n_points, n_sources) buffers at most
    d = pts[:, None, 0] - srcs[None, :, 0]
    dy = pts[:, None, 1] - srcs[None, :, 1]
    d *= d
    dy *= dy
    d += dy
    del dy
    d = np.sqrt(d, out=d).ravel()
    if np.any(d < _SINGULARITY_EPS):
        raise ValueError("a field point coincides with a source position")
    d *= omega / c
    g = hankel2_zero(d)
    g *= 0.25j
    return g.reshape(len(pts), len(srcs))


def plane_wave_field(points: np.ndarray, theta, omega: float,
                     c: float) -> np.ndarray:
    """Unit plane waves exp(j k <r, k_hat(theta)>), k_hat = [cos, sin], at
    the (P, 2) points: (P,) for a scalar theta, (P, N) for N angles."""
    pts = np.asarray(points, dtype=np.float64)
    phase = (omega / c) * (np.multiply.outer(pts[:, 0], np.cos(theta))
                           + np.multiply.outer(pts[:, 1], np.sin(theta)))
    return np.exp(1j * phase)


def truncation_order(omega: float, rho: float, c: float) -> int:
    """Smallest modal order bounding the reproduction error in a disk of
    radius rho: ceil(e * (omega/c) * rho / 2)."""
    if omega <= 0 or rho <= 0 or c <= 0:
        raise ValueError("omega, rho and c must be positive")
    return int(math.ceil(math.e * (omega / c) * rho / 2))


def herglotz_rows(omegas, sources: np.ndarray, orders, c: float,
                  thetas=None):
    """Yield, for each angular frequency omegas[i] truncated at order
    M = orders[i], the circular-harmonic coefficients c_m, m = -M..M, of
    the plane-wave density of each unit point source at the (S, 2)
    positions `sources`, (S, 2M+1):

        phi(theta) = sum_m c_m exp(j m (theta - theta_z)),
        c_m = j^(-m) * (j/4) * H_m^(2)(k rho_z);

    or, given thetas (one angle array per frequency), phi itself at the
    N angles thetas[i], (S, N).  The Hankel rows of every frequency come
    from one pass (bessel.hankel2_sym_rows).
    """
    k = np.asarray(omegas, dtype=np.float64) / c
    pos = source_positions(sources)
    rho = np.hypot(pos[:, 0], pos[:, 1])
    theta_z = np.arctan2(pos[:, 1], pos[:, 0])
    x = np.outer(k, rho)
    if np.any(x <= 0):
        raise ValueError("source must lie away from the origin")
    for i, (M, h) in enumerate(zip(orders, hankel2_sym_rows(orders, x))):
        ms = np.arange(-M, M + 1)
        cm = (1j) ** (-ms) * 0.25j * h
        if thetas is None:
            yield cm
            continue
        cm *= np.exp(-1j * np.outer(theta_z, ms))
        # the source angles ride on the coefficients, so every source shares
        # one (N, 2M+1) phase matrix; one matrix-vector product per source
        # keeps each row's bits independent of the batch
        yield (np.exp(1j * np.outer(thetas[i], ms)) @ cm[..., None])[..., 0]


def herglotz_coefficients(omega: float, sources: np.ndarray, M: int,
                          c: float) -> np.ndarray:
    """The coefficients c_m of herglotz_rows at one angular frequency,
    (S, 2M+1)."""
    return next(herglotz_rows([omega], sources, [M], c))


def herglotz_point_source(theta, omega: float, sources: np.ndarray,
                          M: int, c: float) -> np.ndarray:
    """Plane-wave angular density of each point source at the N angles
    theta, truncated at order M, (S, N): herglotz_rows at one angular
    frequency.  The value depends on theta only through theta - theta_z."""
    return next(herglotz_rows([omega], sources, [M], c, [theta]))
