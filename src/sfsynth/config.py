"""Experiment configuration: defaults, desk-scale presets, JSON round
trip and validation."""

from __future__ import annotations

import hashlib
import json
import math

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .acoustics import FrequencyGrid, truncation_order
from .bessel import MAX_VERIFIED_ORDER
from .datasets import SourceSplit, gen_sources_circular, gen_sources_linear
from .geometry import (
    MAX_RASTER_POINTS,
    ArrayGeometry,
    ListeningArea,
    PointSet,
    decimate_array,
    make_circular_array,
    make_linear_array,
    sample_control_points,
    sample_listening_grid,
)
from .network import compensator_layers

SCHEMA_VERSION = 1

# the driving-signal methods a run can compare, in metric-column order
METHODS = ("mr", "pm", "cnn")

# the largest dataset a config may ask for; the full presets ask for
# ~1.6 GB (circular) and ~3.5 GB (linear)
MAX_DATASET_BYTES = 4 << 30

# the linear listening rectangle sits at this offset range behind the
# array plane and spans 2 m in both directions
LINEAR_RECT_NEAR = 0.2
LINEAR_RECT_FAR = 2.2
LINEAR_RECT_HALF_HEIGHT = 1.0
# linear source region on the far side of the array
LINEAR_SRC_NEAR = 0.2
LINEAR_SRC_FAR = 2.2
LINEAR_SRC_HALF_HEIGHT = 2.0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # json reads NaN and Infinity as floats
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _one_of(*values):
    # by type too: True == 1 and 1.0 == 1, but neither is schema version 1
    return (f"one of {list(values)}",
            lambda v: any(type(v) is type(x) and v == x for x in values))


# the domain of a config key, whatever the family: (description, test)
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
_NON_NEGATIVE = ("a non-negative finite number",
                 lambda v: _is_number(v) and v >= 0)
_AT_LEAST_1 = ("an integer of at least 1", lambda v: _is_int(v) and v >= 1)
_AT_LEAST_0 = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_NONE_OR_AT_LEAST_1 = ("null or an integer of at least 1",
                       lambda v: v is None or _is_int(v) and v >= 1)
_METHODS = (f"a non-empty list of distinct names from {list(METHODS)}",
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0
            and all(isinstance(m, str) and m in METHODS for m in v)
            and len(set(v)) == len(v))
_POINT = ("two finite numbers", lambda v: isinstance(v, (list, tuple))
          and len(v) == 2 and all(map(_is_number, v)))


def _key(default, domain):
    return field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = _key(SCHEMA_VERSION, _one_of(SCHEMA_VERSION))
    family: str = _key("circular", _one_of("circular", "linear"))
    methods: tuple[str, ...] = _key(METHODS, _METHODS)
    # seeds; --seed sets all three, and a negative one is refused by
    # 'source_seed', checked first
    source_seed: int = _key(11, _AT_LEAST_0)
    decimation_seed: int = _key(97, _AT_LEAST_0)
    train_seed: int = _key(3, _AT_LEAST_0)
    # array
    n_loudspeakers: int = _key(64, _AT_LEAST_1)
    array_radius: float = _key(1.0, _POSITIVE)        # circular
    array_spacing: float = _key(0.0625, _POSITIVE)    # linear
    array_x0: float = _key(1.0, _POSITIVE)            # linear
    n_remove: int = _key(32, _AT_LEAST_0)
    # listening / control geometry
    listening_spacing: float = _key(0.02, _POSITIVE)
    listening_radius: float = _key(1.0, _POSITIVE)    # circular disk radius
    control_target: int = _key(276, _AT_LEAST_1)
    # frequency grid
    freq_start: float = _key(46.0, _POSITIVE)
    freq_step: float = _key(23.0, _POSITIVE)
    freq_count: int = _key(63, _AT_LEAST_1)
    speed_of_sound: float = _key(343.0, _POSITIVE)
    # least-squares regularization (pressure matching and linear filters)
    lam: float = _key(1e-2, _POSITIVE)
    # sources
    test_shift: float = _key(0.05, _POSITIVE)
    n_radii: int = _key(20, _AT_LEAST_1)              # circular protocol
    n_angles: int = _key(128, _AT_LEAST_1)
    source_radius_min: float = _key(1.5, _POSITIVE)
    source_radius_max: float = _key(3.5, _POSITIVE)
    val_count: int = _key(512, _AT_LEAST_1)
    # None: shift every train+val source
    n_test: int | None = _key(None, _NONE_OR_AT_LEAST_1)
    n_train_linear: int = _key(2000, _AT_LEAST_0)     # linear protocol
    n_val_linear: int = _key(500, _AT_LEAST_0)
    n_test_linear: int = _key(2500, _AT_LEAST_1)
    # loss and training
    lambda_abs: float = _key(25.0, _NON_NEGATIVE)
    lambda_phase: float = _key(1.0, _NON_NEGATIVE)
    learning_rate: float = _key(1e-4, _POSITIVE)
    max_epochs: int = _key(5000, _AT_LEAST_1)
    patience: int = _key(100, _AT_LEAST_0)
    batch_size: int = _key(32, _AT_LEAST_1)
    # evaluation artifacts
    n_radius_bins: int = _key(10, _AT_LEAST_1)
    fig_frequency: float = _key(1007.0, _POSITIVE)
    fig_source: tuple[float, float] = _key((0.72, 1.37), _POINT)

    # -- derived objects -----------------------------------------------------

    def freq_grid(self) -> FrequencyGrid:
        return FrequencyGrid.uniform(self.freq_start, self.freq_step,
                                     self.freq_count, c=self.speed_of_sound)

    def full_array(self) -> ArrayGeometry:
        if self.family == "circular":
            return make_circular_array(self.n_loudspeakers, self.array_radius)
        return make_linear_array(self.n_loudspeakers, self.array_spacing,
                                 self.array_x0)

    def array(self) -> ArrayGeometry:
        return decimate_array(self.full_array(), self.n_remove,
                              self.decimation_seed)

    def listening_area(self) -> ListeningArea:
        if self.family == "circular":
            return ListeningArea.disk(self.listening_radius,
                                      self.listening_spacing)
        x0 = self.array_x0
        return ListeningArea.rectangle(x0 - LINEAR_RECT_FAR,
                                       x0 - LINEAR_RECT_NEAR,
                                       -LINEAR_RECT_HALF_HEIGHT,
                                       LINEAR_RECT_HALF_HEIGHT,
                                       self.listening_spacing)

    def listening_grid(self) -> PointSet:
        return sample_listening_grid(self.listening_area())

    def control_points(self) -> PointSet:
        try:
            return sample_control_points(self.listening_area(),
                                         self.control_target,
                                         clearance_from=self.full_array())
        except ValueError as exc:
            disk = (f" in the disk of 'listening_radius' = "
                    f"{self.listening_radius!r}"
                    if self.family == "circular" else "")
            raise ValueError(
                f"config keys 'control_target' = {self.control_target!r} and "
                f"'listening_spacing' = {self.listening_spacing!r} give no "
                f"control points{disk}: {exc}") from None

    def check_source(self, position, what="source position") -> np.ndarray:
        """`position` as a (2,) array; ValueError naming `what` unless a
        source there can be rendered: finite, outside the listening area
        and beyond the array: outside its radius (circular) or past its
        plane x = array_x0 (linear)."""
        pos = np.asarray(position, dtype=np.float64).reshape(2)
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"{what} {pos.tolist()} is not finite")
        if self.listening_area().contains(pos)[0]:
            raise ValueError(f"{what} lies inside the listening area")
        if self.family == "circular" and np.hypot(*pos) <= self.array_radius:
            raise ValueError(f"{what} lies inside the array radius")
        if self.family == "linear" and pos[0] <= self.array_x0:
            raise ValueError(f"{what} does not lie past the array plane "
                             f"x = array_x0 = {self.array_x0!r}")
        return pos

    def mr_listening_radius(self) -> float:
        """Radius bounding the listening area, used by the modal
        truncation rule."""
        return self.listening_area().bounding_radius

    def source_region_linear(self) -> tuple:
        x0 = self.array_x0
        return (x0 + LINEAR_SRC_NEAR, x0 + LINEAR_SRC_FAR,
                -LINEAR_SRC_HALF_HEIGHT, LINEAR_SRC_HALF_HEIGHT)

    def source_split(self) -> SourceSplit:
        if self.family == "circular":
            return gen_sources_circular(
                self.n_radii, self.n_angles,
                (self.source_radius_min, self.source_radius_max),
                self.test_shift, self.source_seed,
                val_count=self.val_count, n_test=self.n_test)
        return gen_sources_linear(
            self.n_train_linear, self.n_val_linear, self.n_test_linear,
            self.source_region_linear(), self.test_shift, self.source_seed,
            x0=self.array_x0)

    # -- validation / serialization ------------------------------------------

    def validate(self) -> None:
        for key, what, test in _DOMAINS:
            value = getattr(self, key)
            if not test(value):
                raise ValueError(
                    f"config key {key!r} must be {what}, got {value!r}")
        # the cross-key checks
        if self.family == "linear" and self.n_loudspeakers < 2:
            raise ValueError("config key 'n_loudspeakers' must be at least 2 "
                             "for a linear array, got "
                             f"{self.n_loudspeakers!r}")
        if not self.n_remove < self.n_loudspeakers:
            raise ValueError("config key 'n_remove' must be in [0, "
                             f"n_loudspeakers) = [0, {self.n_loudspeakers}), "
                             f"got {self.n_remove!r}")
        # the MR truncation order peaks at the top grid frequency, formed
        # as FrequencyGrid.uniform forms it, so that a long grid is refused
        # before it is built; the Bessel functions are verified up to
        # MAX_VERIFIED_ORDER
        try:
            top = self.freq_start + self.freq_step * (self.freq_count - 1)
        except OverflowError:        # a count past the float range
            top = math.inf
        try:
            order = truncation_order(2 * math.pi * top,
                                     self.mr_listening_radius(),
                                     self.speed_of_sound)
        except OverflowError:        # k * radius is not finite
            order = math.inf
        if order > MAX_VERIFIED_ORDER:
            raise ValueError(
                "config keys 'freq_start', 'freq_step', 'freq_count' and "
                f"'speed_of_sound' ask for modal order M = {order:.3g} at the top "
                f"grid frequency {top:.6g} Hz, past the "
                f"largest verified Bessel order {MAX_VERIFIED_ORDER}")
        l_active = self.n_loudspeakers - self.n_remove
        if "cnn" in self.methods:
            # the network's input is (2 * active loudspeakers) x freq_count
            try:
                compensator_layers(2 * l_active, self.freq_count)
            except ValueError as exc:
                short = ("config keys 'n_loudspeakers' and 'n_remove' leave "
                         f"{l_active} active loudspeakers"
                         if 2 * l_active < self.freq_count
                         else f"config key 'freq_count' is {self.freq_count}")
                raise ValueError(f"{short}, too few for method 'cnn': "
                                 f"{exc}") from None
        if self.patience > self.max_epochs:
            raise ValueError("config key 'patience' must be at most "
                             f"max_epochs = {self.max_epochs}, got "
                             f"{self.patience!r}")
        # method cnn needs linear train and validation sources, the
        # sweep's test sources come from them, and a circular pool splits
        # in two
        if self.family == "linear" and "cnn" in self.methods:
            for key in ("n_train_linear", "n_val_linear"):
                if getattr(self, key) < 1:
                    raise ValueError(
                        f"config key {key!r} must be at least 1 with method "
                        f"'cnn', got {getattr(self, key)!r}")
        if self.family == "circular":
            pool = self.n_radii * self.n_angles
            counts = (("val_count", pool - 1, "n_radii * n_angles - 1"),
                      ("n_test", pool, "n_radii * n_angles"))
            keys = ("n_radii", "n_angles", "n_test")
            records = pool + (pool if self.n_test is None else self.n_test)
        else:
            counts = (("n_test_linear",
                       self.n_train_linear + self.n_val_linear,
                       "n_train_linear + n_val_linear"),)
            keys = ("n_train_linear", "n_val_linear", "n_test_linear")
            records = sum(getattr(self, key) for key in keys)
        for key, most, formed in counts:
            value = getattr(self, key)
            if value is not None and value > most:
                raise ValueError(f"config key {key!r} must be at most "
                                 f"{formed} = {most}, got {value!r}")
        # the dataset's bytes before its sources or grid exist: 20 per record
        # and, per frequency, 16 per active loudspeaker and control point
        if records * (20 + 16 * self.freq_count * (
                l_active + self.control_target)) > MAX_DATASET_BYTES:
            raise ValueError(
                f"config keys {', '.join(map(repr, keys))}, 'freq_count', "
                "'n_loudspeakers', 'n_remove' and 'control_target' ask for a "
                f"dataset of more than {MAX_DATASET_BYTES} bytes")
        try:
            self.freq_grid()
        except ValueError as exc:
            raise ValueError("config keys 'freq_start', 'freq_step' and "
                             f"'freq_count' give no frequency grid: {exc}"
                             ) from None
        if self.family == "circular":
            for bound in ("listening_radius", "array_radius"):
                if not self.source_radius_min > getattr(self, bound):
                    raise ValueError(
                        "config key 'source_radius_min' must exceed "
                        f"{bound} = {getattr(self, bound)!r} (sources lie "
                        f"outside it), got {self.source_radius_min!r}")
            if not self.source_radius_max >= self.source_radius_min:
                raise ValueError(
                    "config key 'source_radius_max' must be at least "
                    f"source_radius_min = {self.source_radius_min!r}, got "
                    f"{self.source_radius_max!r}")
        try:
            ny, nx = self.listening_area().raster_shape
            points = ny * nx
        except OverflowError:        # extent / spacing is not finite
            points = math.inf
        if points > MAX_RASTER_POINTS:
            raise ValueError(
                f"config key 'listening_spacing' = {self.listening_spacing!r} "
                "asks for a listening raster of more than "
                f"{MAX_RASTER_POINTS} points")
        self.check_source(self.fig_source, "config key 'fig_source'")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["methods"] = list(self.methods)
        d["fig_source"] = list(self.fig_source)
        return d

    @classmethod
    def _check_json(cls, d) -> None:
        """ValueError unless d is a dict of known config keys; validate
        checks their values."""
        if not isinstance(d, dict):
            raise ValueError(
                f"config must be a JSON object, not {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cls._check_json(d)
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in d.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# (key, description, test) of every config key's domain
_DOMAINS = [(f.name, *f.metadata["domain"]) for f in fields(ExperimentConfig)]


def full_config(family: str = "circular") -> ExperimentConfig:
    """Full-scale defaults for either array family."""
    if family == "circular":
        return ExperimentConfig()
    return replace(ExperimentConfig(), family="linear", control_target=660,
                   test_shift=0.08, fig_source=(1.08, 1.10))


def desk_config(family: str = "circular") -> ExperimentConfig:
    """Small setup that runs end to end on a desktop CPU in minutes."""
    base = full_config(family)
    common = dict(
        n_loudspeakers=16, n_remove=8, freq_count=15, control_target=72,
        max_epochs=300, patience=40, n_radius_bins=8,
    )
    if family == "circular":
        return replace(base, listening_radius=0.8, listening_spacing=0.04,
                       n_radii=20, n_angles=16, val_count=64, n_test=64,
                       **common)
    return replace(base, array_spacing=0.25, listening_spacing=0.05,
                   n_train_linear=96, n_val_linear=24, n_test_linear=48,
                   **common)


def load_config(path, scale: str | None = None,
                family: str | None = None) -> ExperimentConfig:
    """Build a config from an optional JSON file over an optional preset.

    Keys present in the file override the preset; the file may be
    partial.  The preset family comes from the explicit argument or the
    file, which must agree, else circular.
    """
    overrides = {}
    if path is not None:
        with open(path) as fh:
            overrides = json.load(fh)
        ExperimentConfig._check_json(overrides)
    family = family or overrides.get("family", "circular")
    if overrides.get("family", family) != family:
        raise ValueError(f"config key 'family' is {overrides['family']!r}, "
                         f"but the family asked for is {family!r}")
    maker = desk_config if scale == "desk" else full_config
    base = maker(family)
    merged = base.to_dict()
    merged.update(overrides)
    cfg = ExperimentConfig.from_dict(merged)
    cfg.validate()
    return cfg
