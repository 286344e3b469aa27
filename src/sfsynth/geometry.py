"""Loudspeaker array geometries, listening-area grids and control points."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# minimum loudspeaker-to-control-point distance; keeps field evaluation
# away from the Green's-function singularity
MIN_CLEARANCE = 0.05

_TOL = 1e-12

# most points ny * nx of the listening raster a config may ask for; it
# bounds the sweep's grid arrays, e.g. the (ny * nx, L) Green's matrix of
# one frequency, 1 GiB at 64 loudspeakers.  The full presets use 101 x 101
MAX_RASTER_POINTS = 1024 * 1024


@dataclass(frozen=True)
class ArrayGeometry:
    """A circular or linear loudspeaker array with an activity mask."""

    family: str                     # "circular" | "linear"
    positions: np.ndarray           # (L_total, 2) metres
    active_mask: np.ndarray         # (L_total,) bool
    radius: float | None = None     # circular: common rho_l
    angles: np.ndarray | None = None  # circular: theta_l, increasing in [0, 2pi)
    x0: float | None = None         # linear: common x coordinate
    y_extent: float | None = None   # linear: half aperture y0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        mask = np.asarray(self.active_mask, dtype=bool)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "active_mask", mask)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must have shape (L, 2)")
        if mask.shape != (pos.shape[0],):
            raise ValueError("active_mask length must match positions")
        if self.family == "circular":
            rho = np.hypot(pos[:, 0], pos[:, 1])
            if np.any(np.abs(rho - self.radius) > _TOL):
                raise ValueError("circular array radii differ from radius")
            th = self.angles
            if th is None or np.any(np.diff(th) <= 0) or th[0] < 0 or th[-1] >= 2 * np.pi:
                raise ValueError("circular angles must be increasing in [0, 2pi)")
        elif self.family == "linear":
            if np.any(np.abs(pos[:, 0] - self.x0) > _TOL):
                raise ValueError("linear array x coordinates differ from x0")
            if np.any(np.diff(pos[:, 1]) <= 0):
                raise ValueError("linear array y coordinates must increase")
        else:
            raise ValueError(f"unknown array family {self.family!r}")

    @property
    def total_count(self) -> int:
        return self.positions.shape[0]

    @property
    def active_count(self) -> int:
        return int(self.active_mask.sum())

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active_mask)

    @property
    def active_positions(self) -> np.ndarray:
        return self.positions[self.active_mask]

    @property
    def active_angles(self) -> np.ndarray:
        if self.family != "circular":
            raise ValueError("angles only defined for circular arrays")
        return self.angles[self.active_mask]


@dataclass(frozen=True)
class PointSet:
    """Sampled 2D points with an optional raster structure for images."""

    points: np.ndarray              # (N, 2)
    grid_shape: tuple | None = None       # (ny, nx) of the generating raster
    grid_index: np.ndarray | None = None  # (N, 2) int (iy, ix) per point

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (N, 2)")
        # pairwise distinct is an invariant; a sorted lexicographic scan
        # is enough because grids never repeat coordinates
        if pts.shape[0] > 1:
            order = np.lexsort((pts[:, 1], pts[:, 0]))
            d = np.diff(pts[order], axis=0)
            if np.any(np.all(np.abs(d) < _TOL, axis=1)):
                raise ValueError("points must be pairwise distinct")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ListeningArea:
    """Origin-centred disk or axis-aligned rectangle, with a sampling
    pitch."""

    kind: str                       # "disk" | "rectangle"
    spacing: float
    radius: float = 0.0             # disk
    xmin: float = 0.0               # rectangle
    xmax: float = 0.0
    ymin: float = 0.0
    ymax: float = 0.0

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.kind == "disk":
            if self.radius <= 0:
                raise ValueError("disk radius must be positive")
        elif self.kind == "rectangle":
            if self.xmax <= self.xmin or self.ymax <= self.ymin:
                raise ValueError("rectangle must have positive extent")
        else:
            raise ValueError(f"unknown area kind {self.kind!r}")

    @classmethod
    def disk(cls, radius, spacing) -> "ListeningArea":
        return cls(kind="disk", spacing=spacing, radius=radius)

    @classmethod
    def rectangle(cls, xmin, xmax, ymin, ymax, spacing) -> "ListeningArea":
        return cls(kind="rectangle", spacing=spacing,
                   xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Which of the (N, 2) points lie inside or on the boundary."""
        pts = np.atleast_2d(points)
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= self.radius + _TOL
        inx = (pts[:, 0] >= self.xmin - _TOL) & (pts[:, 0] <= self.xmax + _TOL)
        iny = (pts[:, 1] >= self.ymin - _TOL) & (pts[:, 1] <= self.ymax + _TOL)
        return inx & iny

    @property
    def raster_shape(self) -> tuple:
        """(ny, nx) of the raster sample_listening_grid builds, from the
        extent and spacing alone; a disk's raster is centred on the
        origin."""
        s = self.spacing
        if self.kind == "rectangle":
            return (int(np.floor((self.ymax - self.ymin) / s + _TOL)) + 1,
                    int(np.floor((self.xmax - self.xmin) / s + _TOL)) + 1)
        n = 2 * int(np.floor(self.radius / s + _TOL)) + 1
        return n, n

    @property
    def bounding_radius(self) -> float:
        """Radius of the smallest origin-centred disk covering the area."""
        if self.kind == "disk":
            return float(self.radius)
        corners = np.array([[self.xmin, self.ymin], [self.xmin, self.ymax],
                            [self.xmax, self.ymin], [self.xmax, self.ymax]])
        return float(np.max(np.hypot(corners[:, 0], corners[:, 1])))


def make_circular_array(L: int, radius: float) -> ArrayGeometry:
    """Regular circular array: theta_l = 2*pi*(l-1)/L on the given radius."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = 2 * np.pi * np.arange(L) / L
    pos = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return ArrayGeometry(family="circular", positions=pos,
                         active_mask=np.ones(L, dtype=bool),
                         radius=float(radius), angles=theta)


def make_linear_array(L: int, spacing: float, x0: float) -> ArrayGeometry:
    """Regular linear array on x = x0, centred on y = 0."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    y = (np.arange(L) - (L - 1) / 2) * spacing
    pos = np.stack([np.full(L, float(x0)), y], axis=1)
    return ArrayGeometry(family="linear", positions=pos,
                         active_mask=np.ones(L, dtype=bool),
                         x0=float(x0),
                         y_extent=float((L - 1) / 2 * spacing))


def decimate_array(array: ArrayGeometry, n_remove: int, seed: int) -> ArrayGeometry:
    """Deactivate n_remove loudspeakers, drawn uniformly without
    replacement from the currently active ones; positions unchanged."""
    if not 0 <= n_remove < array.total_count:
        raise ValueError("n_remove must satisfy 0 <= n_remove < L")
    rng = np.random.default_rng(seed)
    active = array.active_indices
    if n_remove > len(active) - 1:
        raise ValueError("cannot remove more loudspeakers than remain active")
    removed = rng.choice(active, size=n_remove, replace=False)
    mask = array.active_mask.copy()
    mask[removed] = False
    return replace(array, active_mask=mask)


def sample_listening_grid(area: ListeningArea) -> PointSet:
    """Cartesian raster of the listening area at the configured spacing.

    Disk areas keep the raster points strictly inside the circle; the
    raster is centred on the origin so the centre itself is a node.
    """
    s = area.spacing
    ny, nx = area.raster_shape
    if area.kind == "rectangle":
        xs = area.xmin + s * np.arange(nx)
        ys = area.ymin + s * np.arange(ny)
    else:
        n_half = nx // 2
        xs = ys = s * np.arange(-n_half, n_half + 1)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    iy, ix = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    idx = np.stack([iy.ravel(), ix.ravel()], axis=1)
    if area.kind == "disk":
        keep = np.hypot(pts[:, 0], pts[:, 1]) < area.radius
        pts, idx = pts[keep], idx[keep]
    return PointSet(points=pts, grid_shape=(ny, nx), grid_index=idx)


def sample_control_points(area: ListeningArea, target_count: int,
                          clearance_from: ArrayGeometry) -> PointSet:
    """Coarse cell-centred grid with at most target_count points.

    Rectangle grids use an aspect-matched nx x ny layout; disk grids use
    the densest n x n layout whose inside-count stays within the target.
    Points closer than MIN_CLEARANCE to any loudspeaker of `clearance_from`
    are dropped.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")

    def _trim(pts):
        d = np.linalg.norm(
            pts[:, None, :] - clearance_from.positions[None, :, :], axis=-1)
        return pts[np.min(d, axis=1) > MIN_CLEARANCE]

    if area.kind == "rectangle":
        w = area.xmax - area.xmin
        h = area.ymax - area.ymin
        nx = max(1, int(np.floor(np.sqrt(target_count * w / h))))
        ny = max(1, target_count // nx)
        if w / nx < area.spacing or h / ny < area.spacing:
            raise ValueError(
                "target_count exceeds the listening-grid resolution")
        xs = area.xmin + (np.arange(nx) + 0.5) * w / nx
        ys = area.ymin + (np.arange(ny) + 0.5) * h / ny
        gx, gy = np.meshgrid(xs, ys)
        pts = _trim(np.stack([gx.ravel(), gy.ravel()], axis=1))
        return PointSet(points=pts)

    # disk: search the largest n x n cell-centred raster that fits
    best = None
    n = 0
    over = 0
    while over < 4:
        n += 1
        step = 2 * area.radius / n
        if step < area.spacing:
            break
        offs = -area.radius + (np.arange(n) + 0.5) * step
        gx, gy = np.meshgrid(offs, offs)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        keep = np.hypot(pts[:, 0], pts[:, 1]) < area.radius
        pts = _trim(pts[keep])
        if len(pts) == 0:
            continue
        if len(pts) <= target_count:
            if best is None or len(pts) > len(best):
                best = pts
            over = 0
        else:
            over += 1
    if best is None:
        raise ValueError("target_count exceeds the listening-grid resolution")
    return PointSet(points=best)
