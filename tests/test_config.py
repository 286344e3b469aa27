"""Config defaults, presets, validation and the JSON round trip."""

import importlib
import inspect
import json
import pkgutil
import tracemalloc

import pytest

import sfsynth
from sfsynth.compensator import TrainConfig
from sfsynth.config import (
    ExperimentConfig,
    desk_config,
    full_config,
    load_config,
)
from sfsynth.geometry import MAX_RASTER_POINTS


def test_full_circular_defaults():
    cfg = full_config("circular")
    assert cfg.n_loudspeakers == 64
    assert cfg.array_radius == 1.0
    assert cfg.freq_count == 63
    assert cfg.freq_grid().frequencies[-1] == pytest.approx(1472.0)
    assert cfg.lam == 1e-2
    assert cfg.lambda_abs == 25.0 and cfg.lambda_phase == 1.0
    assert cfg.learning_rate == 1e-4
    assert cfg.max_epochs == 5000 and cfg.patience == 100
    cfg.validate()


def test_full_linear_defaults():
    cfg = full_config("linear")
    assert cfg.array_spacing == 0.0625
    assert cfg.control_target == 660
    assert cfg.test_shift == 0.08
    area = cfg.listening_area()
    assert area.kind == "rectangle"
    assert area.xmax - area.xmin == pytest.approx(2.0)
    assert area.ymax - area.ymin == pytest.approx(2.0)
    assert area.xmax == pytest.approx(cfg.array_x0 - 0.2)
    cfg.validate()


def test_desk_presets_validate():
    for family in ("circular", "linear"):
        cfg = desk_config(family)
        cfg.validate()
        assert cfg.n_loudspeakers == 16
        assert cfg.n_remove == 8
        assert cfg.freq_count == 15
        assert cfg.freq_grid().frequencies[-1] == pytest.approx(368.0)
        assert cfg.max_epochs <= 300


def test_desk_circular_split_sizes():
    cfg = desk_config("circular")
    split = cfg.source_split()
    assert len(split.train) == 256
    assert len(split.val) == 64
    assert len(split.test) == 64


def test_config_roundtrip():
    cfg = desk_config("circular")
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_changes_with_content():
    a = desk_config("circular")
    from dataclasses import replace
    b = replace(a, lam=2e-2)
    assert a.config_hash() != b.config_hash()


def test_partial_override_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_remove": 8, "n_loudspeakers": 16,
                             "freq_count": 15}))
    cfg = load_config(p, scale="desk")
    assert cfg.n_loudspeakers == 16
    assert cfg.listening_radius == 0.8   # desk preset retained


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"no_such_option": 1}))
    with pytest.raises(ValueError):
        load_config(p, scale="desk")


def test_validation_failures():
    from dataclasses import replace
    cfg = desk_config("circular")
    for key, value in (("n_remove", 16), ("n_remove", -1), ("freq_count", 0)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            replace(cfg, **{key: value}).validate()
    with pytest.raises(ValueError):
        replace(cfg, methods=("mr", "nope")).validate()
    # an input too small for the network is diagnosed up front, naming
    # the keys that set its short side
    for changes, key in (({"n_remove": 10}, "'n_remove'"),
                         ({"freq_count": 4}, "'freq_count'"),
                         ({"n_remove": 12, "freq_count": 10}, "'n_remove'")):
        with pytest.raises(ValueError, match=key):
            replace(cfg, **changes).validate()
    # dropping cnn lifts the network constraint
    replace(cfg, n_remove=10, methods=("mr", "pm")).validate()
    replace(cfg, freq_count=4, methods=("mr", "pm")).validate()
    with pytest.raises(ValueError):
        replace(cfg, source_radius_min=0.5).validate()
    # the training settings are checked whatever the methods
    for methods in (cfg.methods, ("mr", "pm")):
        for key, value in (("learning_rate", 0.0), ("max_epochs", 0),
                           ("batch_size", 0), ("patience", cfg.max_epochs + 1),
                           ("patience", -5), ("lambda_abs", -1.0)):
            with pytest.raises(ValueError, match=f"'{key}'"):
                replace(cfg, methods=methods, **{key: value}).validate()
    # the speed of sound and the frequency grid are checked before a run
    # writes anything, each error naming its key
    for key, value in (("speed_of_sound", 0.0), ("speed_of_sound", -343.0),
                       ("speed_of_sound", float("nan")), ("freq_start", 0.0),
                       ("freq_start", -46.0), ("freq_step", 0.0),
                       ("freq_step", -23.0)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            replace(cfg, **{key: value}).validate()
    # and so is every seed, whichever stage draws from it
    for key in ("source_seed", "decimation_seed", "train_seed"):
        with pytest.raises(ValueError, match=f"'{key}'"):
            replace(cfg, **{key: -1}).validate()
    # and so are the geometry sizes that the family reads
    lin = desk_config("linear")
    for base, key, value in ((cfg, "array_radius", 0.0),
                             (cfg, "listening_radius", -1.0),
                             (cfg, "listening_spacing", 0.0),
                             (cfg, "control_target", 0),
                             (lin, "array_spacing", 0.0),
                             (lin, "array_x0", -1.0),
                             (lin, "array_x0", 0.0),
                             (lin, "listening_spacing", -0.02),
                             (lin, "control_target", -3)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            replace(base, **{key: value}).validate()
    # a linear array of one loudspeaker has no aperture to window
    with pytest.raises(ValueError, match="'n_loudspeakers'"):
        replace(lin, n_loudspeakers=1, n_remove=0).validate()
    with pytest.raises(ValueError, match="'n_loudspeakers'"):
        replace(lin, n_loudspeakers=4, n_remove=0).validate()
    # the source protocol: counts are never negative, the sweep needs
    # test sources, the circular pool splits in two and holds the test
    # sources, and method cnn needs linear train and validation sources
    for base, changes, key in (
            (cfg, {"n_radii": 0}, "n_radii"),
            (cfg, {"n_angles": -1}, "n_angles"),
            (cfg, {"val_count": 0}, "val_count"),
            (cfg, {"val_count": 320}, "val_count"),
            (cfg, {"n_test": 0}, "n_test"),
            (cfg, {"n_test": 321}, "n_test"),
            (cfg, {"test_shift": 0.0}, "test_shift"),
            (cfg, {"source_radius_min": 0.5}, "source_radius_min"),
            (cfg, {"source_radius_min": 0.9}, "source_radius_min"),
            (cfg, {"source_radius_max": 1.4}, "source_radius_max"),
            (lin, {"test_shift": -0.08}, "test_shift"),
            (lin, {"n_train_linear": -3}, "n_train_linear"),
            (lin, {"n_train_linear": 0}, "n_train_linear"),
            (lin, {"n_val_linear": 0}, "n_val_linear"),
            (lin, {"n_val_linear": -2, "methods": ("mr", "pm")},
             "n_val_linear"),
            (lin, {"n_test_linear": 0, "methods": ("mr", "pm")},
             "n_test_linear"),
            (lin, {"n_test_linear": 121}, "n_test_linear")):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            replace(base, **changes).validate()
    # without cnn a linear split may leave validation empty
    replace(lin, n_val_linear=0, methods=("mr", "pm")).validate()
    replace(cfg, n_test=None).validate()


def test_mr_listening_radius():
    circ = desk_config("circular")
    assert circ.mr_listening_radius() == pytest.approx(0.8)
    lin = desk_config("linear")
    # bounding radius of the rectangle's corners from the origin
    assert lin.mr_listening_radius() == pytest.approx((1.2 ** 2 + 1) ** 0.5)


def test_listening_raster_budget_is_arithmetic():
    # the budget counts the raster from the area and spacing: refusing a
    # 1600001 x 1600001 raster (2.6e12 points) allocates almost nothing
    from dataclasses import replace
    cfg = full_config()
    ny, nx = cfg.listening_area().raster_shape
    assert (ny, nx) == (101, 101)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="'listening_spacing'"):
            replace(desk_config(), listening_spacing=1e-6).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the edge: 1023 x 1023 raster points pass, 1025 x 1025 do not; a
    # spacing whose ratio overflows is refused by the same key
    assert 1023 ** 2 <= MAX_RASTER_POINTS < 1025 ** 2
    replace(cfg, listening_spacing=1 / 511).validate()
    for spacing in (1 / 512, 5e-324):
        with pytest.raises(ValueError, match="'listening_spacing'"):
            replace(cfg, listening_spacing=spacing).validate()


def _package_signatures():
    """(dotted name, signature) of every function, method and dataclass
    constructor defined in an sfsynth module other than config."""
    for info in pkgutil.iter_modules(sfsynth.__path__):
        if info.name == "config":
            continue
        mod = importlib.import_module(f"sfsynth.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield (".".join(filter(None, [info.name, name, attr])),
                           inspect.signature(fn))


def test_no_default_restates_a_config_value():
    # the config owns the speed of sound and every experiment setting,
    # TrainConfig's `seed` (train_seed) included; a default elsewhere
    # could drift from the value a run actually uses
    owned = ({"c"} | set(ExperimentConfig.__dataclass_fields__)
             | set(TrainConfig.__dataclass_fields__))
    found = sorted(f"{where}({p.name}=...)"
                   for where, sig in _package_signatures()
                   for p in sig.parameters.values()
                   if p.name in owned and p.default is not p.empty)
    assert not found, found
