"""The benchmark's workloads: experiment configs derived from a seed.

The seed maps to the source, decimation and train seeds the way the
CLI's ``--seed`` does (seed, seed + 1, seed + 2).

Each workload comes in two sizes that share everything but the source
counts:

- ``traced``: the sizes of the prototype counts, run once by a traced
  run so call counts and distinct ratios compare with ROADMAP's;
- ``timed``: few sources, so one whole pipeline iteration takes 2-3 s
  and a timed run repeats it a dozen times or more.  The host's speed
  changes by 15-30 % within seconds, and the mean of many short
  iterations repeats across runs better than one long iteration.
"""

from __future__ import annotations

from dataclasses import replace

from sfsynth.config import ExperimentConfig, desk_config

DEFAULT_SEED = 0
SIZES = ("timed", "traced")


def _desk_circular() -> ExperimentConfig:
    # training capped at a fixed epoch count; patience == max_epochs
    # never triggers early stopping
    return replace(desk_config("circular"), max_epochs=2, patience=2)


def _desk_linear_classic() -> ExperimentConfig:
    return replace(desk_config("linear"), methods=("mr", "pm"))


_BASES = {
    "desk-circular": _desk_circular,
    "desk-linear-classic": _desk_linear_classic,
}

# overrides of the timed size; geometry, frequencies, network shape and
# epochs stay those of the traced size.  Circular sources sit on one
# circle of radius 2.5 m, the middle of the 1.5-3.5 m range: a source's
# cost changes by up to 20 % over that range (60 % at the full 64x63
# shape), and with a few sources on seeded radii the work would change
# from seed to seed.  The seed still picks the validation and test
# sources, the decimation and the weights.
_MID_RADIUS = dict(n_radii=1, source_radius_min=2.5, source_radius_max=2.5)
_TIMED = {
    # 12 train / 4 val / 4 test sources: one partial batch per epoch
    "desk-circular": dict(n_angles=16, val_count=4, n_test=4, **_MID_RADIUS),
    # 8 train / 2 val / 4 test sources
    "desk-linear-classic": dict(n_train_linear=8, n_val_linear=2,
                                n_test_linear=4),
}

NAMES = tuple(_BASES)


def workload_config(name: str, seed: int,
                    size: str = "timed") -> ExperimentConfig:
    """Resolved, validated config of a workload at a seed and size."""
    if name not in _BASES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    cfg = _BASES[name]()
    if size == "timed":
        cfg = replace(cfg, **_TIMED[name])
    cfg = replace(cfg, source_seed=seed, decimation_seed=seed + 1,
                  train_seed=seed + 2)
    cfg.validate()
    return cfg


def build_setup(cfg: ExperimentConfig) -> tuple:
    """Everything resolved before the first stage: array, control points,
    listening grid and source split."""
    return (cfg.array(), cfg.control_points(), cfg.listening_grid(),
            cfg.source_split())
