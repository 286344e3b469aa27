"""Field primitives: 2D free-field Green's function, plane waves, the
plane-wave angular density of a point source, and the modal truncation
rule that ties them together."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bessel import hankel2_sym_range, hankel2_zero

DEFAULT_SPEED_OF_SOUND = 343.0

# points closer than this to a source are treated as coincident
_SINGULARITY_EPS = 1e-12
# entries per Bessel call in green_matrix: the call peaks at ~140 bytes
# per entry (long-double series temporaries), so a full-scale grid to
# every test source (~2.5e7 entries) would need ~3.5 GB in one call
GREEN_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequencies and the medium speed."""

    frequencies: np.ndarray          # Hz, (K,)
    c: float = DEFAULT_SPEED_OF_SOUND

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        object.__setattr__(self, "frequencies", f)
        if f.ndim != 1 or len(f) == 0:
            raise ValueError("frequencies must be a non-empty 1D array")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be positive and increasing")
        if self.c <= 0:
            raise ValueError("speed of sound must be positive")

    @classmethod
    def uniform(cls, start: float, step: float, count: int,
                c: float = DEFAULT_SPEED_OF_SOUND) -> "FrequencyGrid":
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


@dataclass(frozen=True)
class Source:
    """Unit-amplitude point source outside the listening region."""

    position: np.ndarray            # (2,)

    def __post_init__(self):
        p = np.asarray(self.position, dtype=np.float64).reshape(2)
        object.__setattr__(self, "position", p)

    @property
    def rho(self) -> float:
        return float(np.hypot(self.position[0], self.position[1]))

    @property
    def theta(self) -> float:
        return float(np.arctan2(self.position[1], self.position[0]))


@dataclass(frozen=True)
class PlaneWaveSet:
    """Uniformly sampled plane-wave directions over an angular window."""

    directions: np.ndarray           # theta_n, (N,)
    order: int                       # modal truncation order M
    window: tuple                    # (theta_min, theta_max)

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        object.__setattr__(self, "directions", d)
        if len(d) < 2 * self.order + 1:
            raise ValueError("need at least 2M+1 plane-wave directions")

    @classmethod
    def full_circle(cls, order: int) -> "PlaneWaveSet":
        n = 2 * order + 1
        return cls(directions=2 * np.pi * np.arange(n) / n, order=order,
                   window=(0.0, 2 * np.pi))

    @classmethod
    def windowed(cls, order: int, theta_min: float, theta_max: float) -> "PlaneWaveSet":
        """Midpoint sampling, so a single direction lands on the window centre."""
        n = 2 * order + 1
        width = theta_max - theta_min
        if width <= 0:
            raise ValueError("window must have positive width")
        d = theta_min + (np.arange(n) + 0.5) * width / n
        return cls(directions=d, order=order, window=(theta_min, theta_max))

    @property
    def width(self) -> float:
        return self.window[1] - self.window[0]


def green_matrix(points: np.ndarray, sources: np.ndarray, omega: float,
                 c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Matrix of Green's-function values, shape (n_points, n_sources).

    The Hankel function is evaluated GREEN_CHUNK_ENTRIES entries at a
    time, so memory stays bounded for any matrix size.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    srcs = np.atleast_2d(np.asarray(sources, dtype=np.float64))
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
    k = omega / c
    g = np.empty(d.size, dtype=np.complex128)
    for lo in range(0, d.size, GREEN_CHUNK_ENTRIES):
        chunk = slice(lo, lo + GREEN_CHUNK_ENTRIES)
        g[chunk] = hankel2_zero(k * d[chunk])
    g *= 0.25j
    return g.reshape(len(pts), len(srcs))


def plane_wave_field(points: np.ndarray, theta: float, omega: float,
                     c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Unit plane wave exp(j k <r, k_hat(theta)>), k_hat = [cos, sin], at
    the (N, 2) points, (N,)."""
    pts = np.asarray(points, dtype=np.float64)
    phase = (omega / c) * (pts[:, 0] * np.cos(theta) + pts[:, 1] * np.sin(theta))
    return np.exp(1j * phase)


def truncation_order(omega: float, rho: float,
                     c: float = DEFAULT_SPEED_OF_SOUND) -> int:
    """Smallest modal order bounding the reproduction error in a disk of
    radius rho: ceil(e * (omega/c) * rho / 2)."""
    if omega <= 0 or rho <= 0 or c <= 0:
        raise ValueError("omega, rho and c must be positive")
    return int(math.ceil(math.e * (omega / c) * rho / 2))


def herglotz_coefficients(omega: float, sources: Sequence[Source], M: int,
                          c: float = DEFAULT_SPEED_OF_SOUND) -> np.ndarray:
    """Circular-harmonic coefficients c_m, m = -M..M, of the plane-wave
    density of each unit point source, (S, 2M+1):

        phi(theta) = sum_m c_m exp(j m (theta - theta_z)),
        c_m = j^(-m) * (j/4) * H_m^(2)(k rho_z).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    k = omega / c
    rho = np.array([s.rho for s in sources])
    if np.any(k * rho <= 0):
        raise ValueError("source must lie away from the origin")
    ms = np.arange(-M, M + 1)
    H = hankel2_sym_range(M, k * rho)
    return (1j) ** (-ms) * 0.25j * H


def herglotz_point_source(theta, omega: float, sources: Sequence[Source],
                          M: int, c: float = DEFAULT_SPEED_OF_SOUND
                          ) -> np.ndarray:
    """Plane-wave angular density of each point source at the N angles
    theta, truncated at order M, (S, N).  The value depends on theta only
    through theta - theta_z."""
    cm = herglotz_coefficients(omega, sources, M, c)
    th = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    ms = np.arange(-M, M + 1)
    # one (N, 2M+1) phase matrix and matrix-vector product per source, so
    # memory does not grow with the number of sources
    phi = np.empty((len(sources), th.size), dtype=np.complex128)
    for i, src in enumerate(sources):
        phi[i] = np.exp(1j * np.outer(th - src.theta, ms)) @ cm[i]
    return phi
