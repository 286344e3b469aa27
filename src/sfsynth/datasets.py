"""Source-set generation and dataset construction: per-source packed
model-based driving tensors plus ground-truth control-point pressures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import FrequencyGrid, Source, green_matrix
from .compensator import pack_driving
from .geometry import ArrayGeometry, PointSet
from .renderers import mr_circular_driving, mr_linear_driving


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


def record_dtype(l_active: int, k: int, i_cp: int) -> np.dtype:
    """One dataset record, in memory and in the SFSX file, with no
    padding: source id and position, the packed (2L, K) driving tensor and
    the (I, K) control pressures, whose little-endian complex128 is the
    interleaved (re, im) float64 layout.  ValueError past 2 GiB."""
    return np.dtype([("source_id", "<u4"),
                     ("source", [("position", "<f8", (2,))]),
                     ("tensor", "<f8", (2 * l_active, k)),
                     ("pressures", "<c16", (i_cp, k))])


@dataclass(frozen=True)
class Dataset:
    """One record array in split order (train, val, test), whose splits
    are writable views, plus the provenance needed to rebuild."""

    all_records: np.recarray         # of record_dtype(L, K, I)
    n_train: int
    n_val: int
    freq_grid: FrequencyGrid
    source_seed: int

    def __post_init__(self):
        dtype = self.all_records.dtype
        try:
            ok = dtype == record_dtype(dtype["tensor"].shape[0] // 2,
                                       self.freq_grid.k,
                                       dtype["pressures"].shape[0])
        except (KeyError, IndexError):      # no such field, or a scalar one
            ok = False
        if not ok:
            raise ValueError(f"records of dtype {dtype} are not "
                             f"record_dtype(L, K, I) with K = {self.freq_grid.k}")

    @property
    def train(self) -> np.recarray:
        return self.all_records[:self.n_train]

    @property
    def val(self) -> np.recarray:
        return self.all_records[self.n_train:self.n_train + self.n_val]

    @property
    def test(self) -> np.recarray:
        return self.all_records[self.n_train + self.n_val:]

    @property
    def n_control(self) -> int:
        return self.all_records.dtype["pressures"].shape[0]


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
                      cp: PointSet, operators,
                      listening_radius: float) -> np.ndarray:
    """Model-based driving signals of every source at every grid
    frequency, (S, L_active, K), from one MR call for all sources and
    frequencies.  A linear array's filters come from `operators[ki]`, the
    pressure-matching operator of grid frequency ki (`pm_operators`)."""
    if array.family == "circular":
        return mr_circular_driving(array, sources, freq_grid.angular,
                                   freq_grid.c,
                                   listening_radius=listening_radius)
    return mr_linear_driving(array, sources, cp, operators,
                             freq_grid.angular, freq_grid.c,
                             listening_radius=listening_radius)


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
                  freq_grid: FrequencyGrid, operators,
                  listening_radius: float) -> Dataset:
    """Per-source packed MR tensors and control pressures for every split.

    Evaluated frequency-major for all sources at once, into one record
    array.  Record order follows the split lists, so rebuilding from the
    same inputs is byte-reproducible.
    """
    sources = split.all_sources
    records = np.recarray(len(sources), record_dtype(
        array.active_count, freq_grid.k, len(cp)))
    records.source_id = np.arange(len(sources))
    records.source.position = np.array([s.position for s in sources]
                                       ).reshape(-1, 2)

    def fill(sources, records):
        # the pressures one frequency at a time: no second (S, I, K) array
        for ki in range(freq_grid.k):
            one = FrequencyGrid(freq_grid.frequencies[ki:ki + 1], freq_grid.c)
            records.pressures[..., ki] = control_pressures(sources, cp,
                                                           one)[..., 0]
        d = mr_driving_matrix(array, sources, freq_grid, cp, operators,
                              listening_radius)
        # packed with the sources on the batch axis, (2L, K, S)
        records.tensor = np.moveaxis(pack_driving(np.moveaxis(d, 0, -1)),
                                     -1, 0)

    try:
        fill(sources, records)
    except ValueError as exc:
        # a geometry error names no source: report the first that fails alone
        for i, src in enumerate(sources):
            try:
                fill([src], records[i:i + 1])
            except ValueError as exc_i:
                raise RuntimeError(
                    f"dataset build failed for source {i} at "
                    f"{src.position.tolist()}") from exc_i
        raise RuntimeError("dataset build failed") from exc
    return Dataset(all_records=records, n_train=len(split.train),
                   n_val=len(split.val), freq_grid=freq_grid,
                   source_seed=split.seed)
