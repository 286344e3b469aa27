"""Source-set generation and dataset construction: per-source packed
model-based driving tensors plus ground-truth control-point pressures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import FrequencyGrid, Source, green_matrix
from .compensator import pack_driving
from .geometry import ArrayGeometry, PointSet
from .renderers import mr_circular_driving, mr_linear_driving, pm_operator


@dataclass(frozen=True)
class SourceSplit:
    """Disjoint train/validation/test source sets."""

    train: list
    val: list
    test: list
    seed: int

    def __post_init__(self):
        seen = {}
        for name, group in (("train", self.train), ("val", self.val),
                            ("test", self.test)):
            for s in group:
                key = (float(s.position[0]), float(s.position[1]))
                if key in seen and seen[key] != name:
                    raise ValueError(
                        f"source {key} appears in both {seen[key]} and {name}")
                seen[key] = name

    @property
    def all_sources(self) -> list:
        return list(self.train) + list(self.val) + list(self.test)


@dataclass(frozen=True)
class DatasetRecord:
    """One training example: packed driving tensor and true pressures."""

    source_id: int
    source: Source
    tensor: np.ndarray               # (2 L_active, K) float64
    pressures: np.ndarray            # (I, K) complex

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.float64)
        p = np.asarray(self.pressures, dtype=np.complex128)
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "pressures", p)
        if t.ndim != 2 or t.shape[0] % 2 != 0:
            raise ValueError("tensor must be (2L, K)")
        if p.ndim != 2 or p.shape[1] != t.shape[1]:
            raise ValueError("pressures must be (I, K) with matching K")


@dataclass(frozen=True)
class Dataset:
    """Records for every split plus the provenance needed to rebuild."""

    train: list
    val: list
    test: list
    freq_grid: FrequencyGrid
    l_active: int
    n_control: int
    source_seed: int

    @property
    def all_records(self) -> list:
        return list(self.train) + list(self.val) + list(self.test)


def gen_sources_circular(n_radii: int, n_angles: int, radius_range: tuple,
                         test_shift: float, seed: int, val_count: int,
                         n_test: int | None) -> SourceSplit:
    """Sources on n_radii seeded-uniform circumferences, n_angles uniform
    angles each, val_count of them drawn for validation; the test set is
    the train+val set shifted radially outward by test_shift, subsampled
    to n_test unless n_test is None.
    """
    if test_shift <= 0:
        raise ValueError("test_shift must be positive")
    r_lo, r_hi = radius_range
    if r_hi < r_lo or r_lo <= 0:
        raise ValueError("invalid radius range")
    rng = np.random.default_rng(seed)
    radii = np.sort(rng.uniform(r_lo, r_hi, size=n_radii))
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    positions = np.array([[r * np.cos(a), r * np.sin(a)]
                          for r in radii for a in angles])
    total = len(positions)
    if not 0 < val_count < total:
        raise ValueError("val_count must split the pool in two")
    val_idx = np.sort(rng.choice(total, size=val_count, replace=False))
    val_mask = np.zeros(total, dtype=bool)
    val_mask[val_idx] = True
    train = [Source(position=p) for p in positions[~val_mask]]
    val = [Source(position=p) for p in positions[val_mask]]

    rho = np.hypot(positions[:, 0], positions[:, 1])
    shifted = positions * ((rho + test_shift) / rho)[:, None]
    if n_test is not None:
        if not 0 < n_test <= total:
            raise ValueError("n_test must be in (0, train+val count]")
        pick = np.sort(rng.choice(total, size=n_test, replace=False))
        shifted = shifted[pick]
    test = [Source(position=p) for p in shifted]
    return SourceSplit(train=train, val=val, test=test, seed=seed)


def gen_sources_linear(n_train: int, n_val: int, n_test: int,
                       region: tuple, test_shift: float, seed: int,
                       x0: float) -> SourceSplit:
    """Seeded-uniform sources in a rectangle on the far side of the
    array plane x = x0; test sources are +x-shifted copies of the first
    n_test of train+val."""
    if test_shift <= 0:
        raise ValueError("test_shift must be positive")
    xmin, xmax, ymin, ymax = region
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("invalid source region")
    if xmin <= x0:
        raise ValueError("source region must lie beyond the array plane x0")
    if n_test > n_train + n_val:
        raise ValueError("n_test cannot exceed the train+val count")
    rng = np.random.default_rng(seed)
    pos = np.stack([rng.uniform(xmin, xmax, n_train + n_val),
                    rng.uniform(ymin, ymax, n_train + n_val)], axis=1)
    train = [Source(position=p) for p in pos[:n_train]]
    val = [Source(position=p) for p in pos[n_train:]]
    test = [Source(position=p)
            for p in pos[:n_test] + np.array([test_shift, 0.0])]
    return SourceSplit(train=train, val=val, test=test, seed=seed)


def mr_driving_matrix(array: ArrayGeometry, sources, freq_grid: FrequencyGrid,
                      cp: PointSet, lam: float,
                      listening_radius: float) -> np.ndarray:
    """Model-based driving signals of every source at every grid
    frequency, (S, L_active, K); one MR call per frequency for all
    sources.  A linear array's filters come from the pressure-matching
    operator with regularization `lam`, built once per frequency."""
    out = np.empty((len(sources), array.active_count, freq_grid.k),
                   dtype=np.complex128)
    for ki, omega in enumerate(freq_grid.angular):
        if array.family == "circular":
            d = mr_circular_driving(array, sources, omega, freq_grid.c,
                                    listening_radius=listening_radius)
        else:
            op = pm_operator(array, cp, omega, lam, freq_grid.c)
            d = mr_linear_driving(array, sources, cp, op, omega, freq_grid.c,
                                  listening_radius=listening_radius)
        out[:, :, ki] = d.T
    return out


def control_pressures(sources, cp: PointSet,
                      freq_grid: FrequencyGrid) -> np.ndarray:
    """Ground-truth pressures g(r_i | r_s, w_k) of every source, (S, I, K);
    one Green's matrix per frequency for all sources."""
    positions = np.array([s.position for s in sources]).reshape(-1, 2)
    out = np.empty((len(sources), len(cp), freq_grid.k), dtype=np.complex128)
    for ki, omega in enumerate(freq_grid.angular):
        out[:, :, ki] = green_matrix(cp.points, positions, omega,
                                     freq_grid.c).T
    return out


def build_dataset(array: ArrayGeometry, split: SourceSplit, cp: PointSet,
                  freq_grid: FrequencyGrid, lam: float,
                  listening_radius: float) -> Dataset:
    """Per-source packed MR tensors and control pressures for every split.

    Evaluated frequency-major for all sources at once.  Record order
    follows the split lists, so rebuilding from the same inputs is
    byte-reproducible.
    """
    def build(sources):
        return (mr_driving_matrix(array, sources, freq_grid, cp, lam,
                                  listening_radius),
                control_pressures(sources, cp, freq_grid))

    sources = split.all_sources
    try:
        d, p = build(sources)
    except ValueError as exc:
        # a geometry error names no source: report the first that fails alone
        for i, src in enumerate(sources):
            try:
                build([src])
            except ValueError as exc_i:
                raise RuntimeError(
                    f"dataset build failed for source {i} at "
                    f"{src.position.tolist()}") from exc_i
        raise RuntimeError("dataset build failed") from exc
    recs = [DatasetRecord(source_id=i, source=src, tensor=pack_driving(d[i]),
                          pressures=p[i]) for i, src in enumerate(sources)]
    n_train, n_val = len(split.train), len(split.val)
    return Dataset(train=recs[:n_train], val=recs[n_train:n_train + n_val],
                   test=recs[n_train + n_val:], freq_grid=freq_grid,
                   l_active=array.active_count, n_control=len(cp),
                   source_seed=split.seed)
