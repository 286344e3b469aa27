"""Experiment configuration: defaults, desk-scale presets, JSON round
trip and validation."""

from __future__ import annotations

import hashlib
import json
import math

from dataclasses import asdict, dataclass, replace

import numpy as np

from .acoustics import FrequencyGrid, truncation_order
from .bessel import MAX_VERIFIED_ORDER
from .compensator import TrainConfig
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


# the JSON values each field annotation accepts: (description, test)
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a finite number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(
        v, (list, tuple)) and all(isinstance(x, str) for x in v)),
    "tuple[float, float]": ("two finite numbers", lambda v: isinstance(
        v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    family: str = "circular"
    methods: tuple[str, ...] = METHODS
    # array
    n_loudspeakers: int = 64
    array_radius: float = 1.0        # circular
    array_spacing: float = 0.0625    # linear
    array_x0: float = 1.0            # linear
    n_remove: int = 32
    decimation_seed: int = 97
    # listening / control geometry
    listening_spacing: float = 0.02
    listening_radius: float = 1.0    # circular disk radius
    control_target: int = 276
    # frequency grid
    freq_start: float = 46.0
    freq_step: float = 23.0
    freq_count: int = 63
    speed_of_sound: float = 343.0
    # least-squares regularization (pressure matching and linear filters)
    lam: float = 1e-2
    # sources
    source_seed: int = 11
    test_shift: float = 0.05
    n_radii: int = 20                # circular protocol
    n_angles: int = 128
    source_radius_min: float = 1.5
    source_radius_max: float = 3.5
    val_count: int = 512
    n_test: int | None = None        # None: shift every train+val source
    n_train_linear: int = 2000       # linear protocol
    n_val_linear: int = 500
    n_test_linear: int = 2500
    # loss and training
    lambda_abs: float = 25.0
    lambda_phase: float = 1.0
    learning_rate: float = 1e-4
    max_epochs: int = 5000
    patience: int = 100
    batch_size: int = 32
    train_seed: int = 3
    # evaluation artifacts
    n_radius_bins: int = 10
    fig_frequency: float = 1007.0
    fig_source: tuple[float, float] = (0.72, 1.37)

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

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate,
                           max_epochs=self.max_epochs, patience=self.patience,
                           batch_size=self.batch_size, seed=self.train_seed,
                           lambda_abs=self.lambda_abs,
                           lambda_phase=self.lambda_phase)

    # -- validation / serialization ------------------------------------------

    def validate(self) -> None:
        if self.family not in ("circular", "linear"):
            raise ValueError(f"unknown family {self.family!r}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValueError("config key 'methods' must name at least one "
                             f"method, each once, got {list(self.methods)}")
        lengths = (("array_radius", "listening_radius")
                   if self.family == "circular"
                   else ("array_spacing", "array_x0"))
        for key in ("lam", "speed_of_sound", "freq_start", "freq_step",
                    "listening_spacing", "test_shift", *lengths):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"config key {key!r} must be a positive "
                                 f"finite number, got {value!r}")
        for key in ("source_seed", "decimation_seed", "train_seed"):
            value = getattr(self, key)
            if value < 0:
                raise ValueError(f"config key {key!r} must be a non-negative "
                                 f"integer, got {value!r}")
        if self.family == "linear" and self.n_loudspeakers < 2:
            raise ValueError("config key 'n_loudspeakers' must be at least 2 "
                             "for a linear array, got "
                             f"{self.n_loudspeakers!r}")
        if not 0 <= self.n_remove < self.n_loudspeakers:
            raise ValueError("config key 'n_remove' must be in [0, "
                             f"n_loudspeakers) = [0, {self.n_loudspeakers}), "
                             f"got {self.n_remove!r}")
        if self.freq_count < 1:
            raise ValueError("config key 'freq_count' must be at least 1, "
                             f"got {self.freq_count!r}")
        try:
            grid = self.freq_grid()
        except ValueError as exc:
            raise ValueError("config keys 'freq_start', 'freq_step' and "
                             f"'freq_count' give no frequency grid: {exc}"
                             ) from None
        # the MR truncation order peaks at the top grid frequency; the
        # Bessel functions are verified up to MAX_VERIFIED_ORDER
        try:
            order = truncation_order(float(grid.angular[-1]),
                                     self.mr_listening_radius(), grid.c)
        except OverflowError:        # k * radius is not finite
            order = math.inf
        if order > MAX_VERIFIED_ORDER:
            raise ValueError(
                "config keys 'freq_start', 'freq_step', 'freq_count' and "
                f"'speed_of_sound' ask for modal order M = {order:.3g} at the top "
                f"grid frequency {grid.frequencies[-1]:.6g} Hz, past the "
                f"largest verified Bessel order {MAX_VERIFIED_ORDER}")
        for key in ("n_radius_bins", "control_target"):
            value = getattr(self, key)
            if value < 1:
                raise ValueError(f"config key {key!r} must be at least 1, "
                                 f"got {value!r}")
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
        self.train_config()
        # the source protocol's counts: (key, (least, why), (most, as
        # formed)).  The sweep needs test sources; a linear split may leave
        # train or validation empty unless method cnn needs them
        one = (1, "")
        if self.family == "circular":
            pool = self.n_radii * self.n_angles
            counts = (("n_radii", one, None), ("n_angles", one, None),
                      ("val_count", one, (pool - 1, "n_radii * n_angles - 1")),
                      ("n_test", one, (pool, "n_radii * n_angles")))
        else:
            fit = ((1, " with method 'cnn'") if "cnn" in self.methods
                   else (0, ""))
            train_val = self.n_train_linear + self.n_val_linear
            counts = (("n_train_linear", fit, None),
                      ("n_val_linear", fit, None),
                      ("n_test_linear", one,
                       (train_val, "n_train_linear + n_val_linear")))
        for key, (lo, why), hi in counts:
            value = getattr(self, key)
            if value is None:            # n_test: every train+val source
                continue
            if value < lo:
                raise ValueError(f"config key {key!r} must be at least "
                                 f"{lo}{why}, got {value!r}")
            if hi is not None and value > hi[0]:
                raise ValueError(f"config key {key!r} must be at most "
                                 f"{hi[1]} = {hi[0]}, got {value!r}")
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
        """ValueError unless d is a dict of known keys whose values have
        the JSON types of their fields; bool is neither an integer nor a
        number.  Checks only, converts nothing."""
        if not isinstance(d, dict):
            raise ValueError(
                f"config must be a JSON object, not {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in d.items():
            what, fits = _JSON_TYPES[cls.__dataclass_fields__[key].type]
            if not fits(value):
                raise ValueError(
                    f"config key {key!r} must be {what}, got {value!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cls._check_json(d)
        d = dict(d)
        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version}")
        if "methods" in d:
            d["methods"] = tuple(d["methods"])
        if "fig_source" in d:
            d["fig_source"] = tuple(d["fig_source"])
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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
    partial.  The preset family comes from the explicit argument, else
    the file, else circular.
    """
    overrides = {}
    if path is not None:
        with open(path) as fh:
            overrides = json.load(fh)
        ExperimentConfig._check_json(overrides)
    maker = desk_config if scale == "desk" else full_config
    base = maker(family or overrides.get("family", "circular"))
    merged = base.to_dict()
    merged.update(overrides)
    cfg = ExperimentConfig.from_dict(merged)
    cfg.validate()
    return cfg
