"""Experiment pipeline: dataset generation, training, metric sweeps and
field rendering, with a content-hashed artifact manifest."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .acoustics import FrequencyGrid, Source, green_matrix
from .compensator import compensate, train_compensator, unpack_driving
from .config import ExperimentConfig
from .datasets import Dataset, build_dataset, mr_driving_matrix
from .evaluation import (
    NRE_FLOOR_DB,
    SweepContext,
    metric_samples,
    sweep,
)
from .network import ModelParams
from .renderers import pm_operators


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage:{stage}] {cause}")
        self.stage = stage
        self.cause = cause


MANIFEST = "manifest.json"


@dataclass
class ArtifactManifest:
    config_hash: str
    files: list                      # {"path", "role", "sha256"}

    def to_json(self) -> str:
        payload = {"config_hash": self.config_hash,
                   "files": sorted(self.files, key=lambda f: f["path"])}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ArtifactManifest":
        """Parse a manifest; ValueError when the text is not one."""
        d = json.loads(text)
        if not isinstance(d, dict) or not isinstance(d.get("config_hash"), str) \
                or not isinstance(d.get("files"), list):
            raise ValueError("manifest must hold a config_hash and a files list")
        for f in d["files"]:
            if not isinstance(f, dict) or not all(
                    isinstance(f.get(key), str) for key in ("path", "role", "sha256")):
                raise ValueError("manifest file entries need path, role and sha256")
        return cls(config_hash=d["config_hash"], files=d["files"])

    @classmethod
    def read(cls, out_dir) -> "ArtifactManifest | None":
        """The manifest of `out_dir`; None when it is absent or malformed."""
        try:
            return cls.from_json((Path(out_dir) / MANIFEST).read_text())
        except (OSError, ValueError):
            return None

    def fresh(self, out_dir, role: str, paths) -> bool:
        """True when the role's recorded paths are exactly `paths` and
        every one of those files still hashes to its recorded sha256."""
        out_dir = Path(out_dir)
        entries = [f for f in self.files if f["role"] == role]
        return sorted(f["path"] for f in entries) == sorted(paths) and all(
            (out_dir / f["path"]).is_file()
            and fileio.sha256_file(out_dir / f["path"]) == f["sha256"]
            for f in entries)


CHECKPOINT = "checkpoint.sfsm"


def _metric_paths(cfg: ExperimentConfig) -> dict:
    """Path of every metric CSV of the sweep -> its (axis, metric)."""
    axes = ["frequency_hz"] + (["radius_m"] if cfg.family == "circular" else [])
    return {f"metrics_{metric}_{ax.split('_')[0]}.csv": (ax, metric)
            for ax in axes for metric in ("nre", "ssim")}


def _field_paths(freq: FrequencyGrid, methods, frequency: float) -> list:
    """Paths render_field writes, a CSV and a PGM per field: the ground
    truth, then each method's real part and error map, at the grid
    frequency nearest `frequency`."""
    tag = f"f{freq.frequencies[freq.nearest_index(frequency)]:.0f}"
    names = ["gt_real"] + [f"{m}_{kind}" for m in methods
                           for kind in ("real", "nre")]
    return [f"fields/{name}_{tag}.{ext}" for name in names
            for ext in ("csv", "pgm")]


def _test_driving(methods, dataset: Dataset, operators,
                  params: ModelParams | None) -> dict:
    """Per-method (S, L_active, K) driving arrays for the test sources;
    `operators` holds the PM operator of each grid frequency."""
    recs = dataset.test
    mr = np.stack([unpack_driving(r.tensor) for r in recs])
    out = {}
    if "mr" in methods:
        out["mr"] = mr
    if "pm" in methods:
        p = np.stack([r.pressures for r in recs])           # (S, I, K)
        # one stacked product per frequency keeps each source's bits
        out["pm"] = np.stack([(op.c_cp @ p[:, :, ki, None])[..., 0]
                              for ki, op in enumerate(operators)], axis=-1)
    if "cnn" in methods:
        out["cnn"] = compensate(mr, params)
    return out


def _pointwise_nre_db(p_hat: np.ndarray, p: np.ndarray) -> np.ndarray:
    num = np.abs(p_hat - p) ** 2
    den = np.abs(p) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 10.0 * np.log10(num / den)
    r = np.where(num == 0, NRE_FLOOR_DB, r)
    r = np.where((den == 0) & (num > 0), -NRE_FLOOR_DB, r)
    return np.clip(r, NRE_FLOOR_DB, -NRE_FLOOR_DB)


def _load_trained_checkpoint(cfg: ExperimentConfig, out_dir: Path) -> ModelParams:
    """Load <out_dir>/checkpoint.sfsm after checking that the directory's
    manifest was written for this config and still records the train
    stage's files with their current hashes."""
    ckpt = out_dir / CHECKPOINT
    if not ckpt.exists():
        raise FileNotFoundError(
            f"no checkpoint at {ckpt}; train the model first "
            f"(sfsynth train) or pass --method mr/pm")
    man_path = out_dir / MANIFEST
    manifest = ArtifactManifest.read(out_dir)
    if manifest is None:
        raise ValueError(f"no readable manifest at {man_path} to tell which "
                         f"config {ckpt} was trained for")
    chash = cfg.config_hash()
    if manifest.config_hash != chash:
        raise ValueError(f"{ckpt} was trained for another config (manifest "
                         f"config_hash {manifest.config_hash[:12]}, this "
                         f"config {chash[:12]})")
    if not manifest.fresh(out_dir, "checkpoint", [CHECKPOINT]):
        raise ValueError(f"{ckpt} is not the checkpoint {man_path} records")
    return fileio.load_checkpoint(ckpt)


def render_field(cfg: ExperimentConfig, out_dir, methods,
                 source_pos, frequency: float, operators,
                 params: ModelParams | None = None) -> list:
    """Write the ground-truth field once and, for each method, its field
    (real part) and pointwise error map, as CSV plus graymaps.  The
    ground truth, the grid Green's matrix and the MR signals are computed
    once for all methods; `operators` holds the PM operator of each grid
    frequency (`pm_operators`).  Without `params`, a cnn render loads the
    directory's checkpoint, which its manifest must record for this
    config.  Returns the relative paths written."""
    if isinstance(methods, str):
        raise ValueError(f"methods must be a list of names, not {methods!r}")
    methods = list(methods)
    out_dir = Path(out_dir)
    pos = cfg.check_source(source_pos)
    for method in methods:
        if method not in cfg.methods:
            raise ValueError(f"method {method!r} not enabled in this config")
    freq = cfg.freq_grid()
    ki = freq.nearest_index(frequency)
    omega = freq.angular[ki]
    array = cfg.array()
    cp = cfg.control_points()
    grid = cfg.listening_grid()

    if "cnn" in methods and params is None:
        params = _load_trained_checkpoint(cfg, out_dir)

    p_true = green_matrix(grid.points, pos[None, :], omega, freq.c)[:, 0]
    driving = {}
    if "pm" in methods:
        p_cp = green_matrix(cp.points, pos[None, :], omega, freq.c)[:, 0]
        driving["pm"] = operators[ki].c_cp @ p_cp
    if "mr" in methods or "cnn" in methods:
        # the CNN maps all K; MR alone needs the rendered frequency only
        freqs, ops, col = (freq, operators, ki) if "cnn" in methods else (
            FrequencyGrid(freq.frequencies[ki:ki + 1], freq.c),
            operators[ki:ki + 1], 0)
        mr = mr_driving_matrix(array, [Source(position=pos)], freqs, cp, ops,
                               cfg.mr_listening_radius())
        driving["mr"] = mr[0, :, col]
        if "cnn" in methods:
            driving["cnn"] = compensate(mr, params)[0, :, col]
    g_grid = green_matrix(grid.points, array.active_positions, omega, freq.c)

    fields = [p_true]
    for method in methods:
        p_hat = g_grid @ driving[method]
        fields += [p_hat, _pointwise_nre_db(p_hat, p_true).astype(np.complex128)]
    written = _field_paths(freq, methods, frequency)
    (out_dir / "fields").mkdir(parents=True, exist_ok=True)
    for values, csv_rel, pgm_rel in zip(fields, written[::2], written[1::2]):
        fileio.write_field_csv(out_dir / csv_rel, grid.points, values)
        fileio.write_pgm(out_dir / pgm_rel, np.real(values), grid.grid_shape,
                         grid.grid_index)
    return written


ALL_STAGES = ("dataset", "train", "sweep", "render")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   until: str = "render") -> ArtifactManifest:
    """Run dataset -> train -> sweep -> render, stopping after `until`;
    the train stage runs only when "cnn" is among the methods.

    A stage whose files the previous manifest records for this config,
    exactly and with unchanged hashes, is loaded instead of recomputed,
    unless its loader refuses a file's format (an older version).
    A stage's files are recorded only once it has finished; when a stage
    fails, the manifest of the finished stages is written and
    StageError raised.  Idempotent for a fixed config."""
    if until not in ALL_STAGES:
        raise ValueError(f"unknown stage {until!r}; expected one of "
                         f"{list(ALL_STAGES)}")
    cfg.validate()
    if until == "train" and "cnn" not in cfg.methods:
        raise ValueError("config key 'methods' must include 'cnn' to train, "
                         f"got {list(cfg.methods)}")
    stages = ALL_STAGES[:ALL_STAGES.index(until) + 1]
    # built before anything is written: a geometry or source split that
    # the config cannot give leaves no files behind.  Every stage shares
    # the per-frequency G_cp and PM operators
    array, cp, freq = cfg.array(), cfg.control_points(), cfg.freq_grid()
    split = cfg.source_split()
    operators = pm_operators(array, cp, freq, cfg.lam)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()
    # a previous manifest that is malformed or from another config counts
    # as absent: every stage recomputes
    prev = ArtifactManifest.read(out_dir)
    if prev is None or prev.config_hash != chash:
        prev = ArtifactManifest(config_hash=chash, files=[])
    manifest = ArtifactManifest(config_hash=chash, files=[])

    def reuse(compute, load):
        try:
            return load()
        except fileio.ArtifactFormatError:
            # unchanged since it was written, in a format version this
            # code no longer reads
            return compute()

    def stage(name, role, paths, compute, load=lambda: None):
        """Load a stage when `prev` still holds its `paths`, else compute
        it; record `paths` once it has finished."""
        try:
            result = (reuse(compute, load) if prev.fresh(out_dir, role, paths)
                      else compute())
            manifest.files += [{"path": rel, "role": role,
                                "sha256": fileio.sha256_file(out_dir / rel)}
                               for rel in paths]
        except Exception as exc:
            raise StageError(name, exc) from exc
        return result

    def build():
        dataset = build_dataset(array, split, cp, freq, operators,
                                cfg.mr_listening_radius())
        fileio.save_dataset(out_dir / "dataset.sfsx", dataset,
                            header_extra={"config_hash": chash})
        return dataset

    def train():
        g_stack = np.stack([op.g_cp for op in operators])
        params = train_compensator(dataset.train, dataset.val,
                                   cfg.train_config(), g_stack).params
        fileio.save_checkpoint(out_dir / CHECKPOINT, params)
        return params

    def evaluate():
        driving = _test_driving(cfg.methods, dataset, operators, params)
        ctx = SweepContext(array=array, points=cfg.listening_grid(),
                           freq_grid=freq,
                           sources=[r.source for r in dataset.test],
                           driving=driving)
        methods = list(driving)
        samples = metric_samples(ctx, methods)
        fig_ki = freq.nearest_index(cfg.fig_frequency)
        for rel, (ax, metric) in _metric_paths(cfg).items():
            fileio.write_metric_csv(out_dir / rel, sweep(
                ctx, methods, ax, metric, fixed_frequency_index=fig_ki,
                n_radius_bins=cfg.n_radius_bins, samples=samples))

    try:
        stage("dataset", "config", ["config.json"],
              lambda: fileio.write_text(out_dir / "config.json", cfg.to_json()))
        dataset = stage("dataset", "dataset", ["dataset.sfsx"], build,
                        lambda: fileio.load_dataset(out_dir / "dataset.sfsx")[0])
        params = None
        if "cnn" in cfg.methods and "train" in stages:
            params = stage("train", "checkpoint", [CHECKPOINT], train,
                           lambda: fileio.load_checkpoint(out_dir / CHECKPOINT))
        if "sweep" in stages:
            stage("sweep", "metrics", list(_metric_paths(cfg)), evaluate)
        if "render" in stages:
            stage("render", "field",
                  _field_paths(freq, cfg.methods, cfg.fig_frequency),
                  lambda: render_field(cfg, out_dir, cfg.methods,
                                       cfg.fig_source, cfg.fig_frequency,
                                       operators, params=params))
    finally:
        fileio.write_text(out_dir / MANIFEST, manifest.to_json())
    return manifest
