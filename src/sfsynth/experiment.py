"""Experiment pipeline: dataset generation, training, metric sweeps and
field rendering, with a content-hashed artifact manifest."""

from __future__ import annotations

import functools
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
from .renderers import pm_driving, pm_operator


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage:{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ArtifactManifest:
    config_hash: str
    files: list                      # {"path", "role", "sha256", "stale"}

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

    def fresh(self, out_dir, role: str) -> bool:
        """True when the role has entries and every one exists, is not
        stale and still hashes to its recorded sha256."""
        out_dir = Path(out_dir)
        entries = [f for f in self.files if f["role"] == role]
        return bool(entries) and all(
            not f.get("stale") and (out_dir / f["path"]).is_file()
            and fileio.sha256_file(out_dir / f["path"]) == f["sha256"]
            for f in entries)

    def paths_for(self, role: str) -> list:
        return [f["path"] for f in self.files if f["role"] == role]


def _record(manifest: ArtifactManifest, out_dir: Path, rel: str, role: str) -> None:
    manifest.files = [f for f in manifest.files if f["path"] != rel]
    manifest.files.append({"path": rel, "role": role,
                           "sha256": fileio.sha256_file(out_dir / rel),
                           "stale": False})


def _write_manifest(manifest: ArtifactManifest, out_dir: Path) -> None:
    fileio.write_text(out_dir / "manifest.json", manifest.to_json())


def _mark_stale(manifest: ArtifactManifest, role: str) -> None:
    for f in manifest.files:
        if f["role"] == role:
            f["stale"] = True


def _test_driving(methods, dataset: Dataset, operators,
                  params: ModelParams | None) -> dict:
    """Per-method (S, L_active, K) driving arrays for the test sources;
    operators() returns the per-frequency PM operators."""
    recs = dataset.test
    mr = np.stack([unpack_driving(r.tensor) for r in recs])
    out = {}
    if "mr" in methods:
        out["mr"] = mr
    if "pm" in methods:
        d = np.empty((len(recs), dataset.l_active, dataset.freq_grid.k),
                     dtype=np.complex128)
        for ki, op in enumerate(operators()):
            for si, rec in enumerate(recs):
                d[si, :, ki] = pm_driving(op, rec.pressures[:, ki])
        out["pm"] = d
    if "cnn" in methods:
        if params is None:
            raise ValueError("cnn requested but no trained model is available")
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


def render_field(cfg: ExperimentConfig, out_dir, methods,
                 source_pos, frequency: float,
                 params: ModelParams | None = None) -> list:
    """Write the ground-truth field once and, for each method, its field
    (real part) and pointwise error map, as CSV plus graymaps.  The
    ground truth, the grid Green's matrix and the MR signals are computed
    once for all methods.  Returns the relative paths written."""
    if isinstance(methods, str):
        raise ValueError(f"methods must be a list of names, not {methods!r}")
    methods = list(methods)
    out_dir = Path(out_dir)
    area = cfg.listening_area()
    pos = np.asarray(source_pos, dtype=np.float64).reshape(2)
    if bool(area.contains(pos[None, :], strict=False)[0]):
        raise ValueError("source position lies inside the listening area")
    for method in methods:
        if method not in cfg.methods:
            raise ValueError(f"method {method!r} not enabled in this config")
    freq = cfg.freq_grid()
    ki = freq.nearest_index(frequency)
    omega = freq.angular[ki]
    f_hz = freq.frequencies[ki]
    array = cfg.array()
    cp = cfg.control_points()
    grid = cfg.listening_grid()

    if "cnn" in methods and params is None:
        ckpt = out_dir / "checkpoint.sfsm"
        if not ckpt.exists():
            raise FileNotFoundError(
                f"no checkpoint at {ckpt}; train the model first "
                f"(sfsynth train) or pass --method mr/pm")
        params = fileio.load_checkpoint(ckpt)

    p_true = green_matrix(grid.points, pos[None, :], omega, freq.c)[:, 0]
    driving = {}
    if "pm" in methods:
        p_cp = green_matrix(cp.points, pos[None, :], omega, freq.c)[:, 0]
        driving["pm"] = pm_driving(
            pm_operator(array, cp, omega, cfg.lam, freq.c), p_cp)
    if "mr" in methods or "cnn" in methods:
        # the CNN maps all K; MR alone needs the rendered frequency only
        freqs, col = (freq, ki) if "cnn" in methods else (
            FrequencyGrid(freq.frequencies[ki:ki + 1], freq.c), 0)
        mr = mr_driving_matrix(array, [Source(position=pos)], freqs, cp,
                               cfg.lam, cfg.mr_listening_radius())
        driving["mr"] = mr[0, :, col]
        if "cnn" in methods:
            driving["cnn"] = compensate(mr, params)[0, :, col]
    g_grid = green_matrix(grid.points, array.active_positions, omega, freq.c)

    fields_dir = out_dir / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    tag = f"f{f_hz:.0f}"
    written = []

    def emit(name, values):
        csv_rel = f"fields/{name}_{tag}.csv"
        pgm_rel = f"fields/{name}_{tag}.pgm"
        fileio.write_field_csv(out_dir / csv_rel, grid.points, values)
        fileio.write_pgm(out_dir / pgm_rel, np.real(values), grid.grid_shape,
                         grid.grid_index)
        written.extend([csv_rel, pgm_rel])

    emit("gt_real", p_true)
    for method in methods:
        p_hat = g_grid @ driving[method]
        emit(f"{method}_real", p_hat)
        emit(f"{method}_nre",
             _pointwise_nre_db(p_hat, p_true).astype(np.complex128))
    return written


ALL_STAGES = ("dataset", "train", "sweep", "render")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   stages: tuple = ALL_STAGES) -> ArtifactManifest:
    """Execute dataset -> train -> sweep -> render; idempotent for a
    fixed config (stages whose artifacts exist with matching hashes are
    loaded instead of recomputed).  `stages` restricts the pipeline to a
    prefix of the chain; later stages always include their prerequisites.
    """
    unknown = set(stages) - set(ALL_STAGES)
    if unknown:
        raise ValueError(f"unknown stages {sorted(unknown)}")
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()

    # a previous manifest that is malformed or from another config counts
    # as absent: every stage recomputes
    prev = ArtifactManifest(config_hash=chash, files=[])
    man_path = out_dir / "manifest.json"
    if man_path.exists():
        try:
            candidate = ArtifactManifest.from_json(man_path.read_text())
            if candidate.config_hash == chash:
                prev = candidate
        except ValueError:
            pass
    manifest = ArtifactManifest(config_hash=chash, files=[])

    fileio.write_text(out_dir / "config.json", cfg.to_json())
    _record(manifest, out_dir, "config.json", "config")

    # -- stage: dataset -------------------------------------------------------
    try:
        array = cfg.array()
        cp = cfg.control_points()
        freq = cfg.freq_grid()
        ds_rel = "dataset.sfsx"
        if prev.fresh(out_dir, "dataset"):
            dataset, _ = fileio.load_dataset(out_dir / ds_rel)
        else:
            split = cfg.source_split()
            dataset = build_dataset(array, split, cp, freq, cfg.lam,
                                    cfg.mr_listening_radius())
            fileio.save_dataset(out_dir / ds_rel, dataset,
                                header_extra={"config_hash": chash})
        _record(manifest, out_dir, ds_rel, "dataset")
    except Exception as exc:
        _mark_stale(manifest, "dataset")
        _write_manifest(manifest, out_dir)
        raise StageError("dataset", exc) from exc

    # per-frequency G_cp and PM operators, built on first use and shared
    # by the train and sweep stages
    operators = functools.cache(lambda: [
        pm_operator(array, cp, omega, cfg.lam, freq.c)
        for omega in freq.angular])

    # -- stage: train ----------------------------------------------------------
    params = None
    try:
        if "cnn" in cfg.methods and {"train", "sweep", "render"} & set(stages):
            ck_rel = "checkpoint.sfsm"
            if prev.fresh(out_dir, "checkpoint"):
                params = fileio.load_checkpoint(out_dir / ck_rel)
            else:
                g_stack = np.stack([op.g_cp for op in operators()])
                result = train_compensator(dataset.train, dataset.val,
                                           cfg.train_config(), g_stack,
                                           cfg.loss_weights())
                params = result.params
                fileio.save_checkpoint(out_dir / ck_rel, params)
            _record(manifest, out_dir, ck_rel, "checkpoint")
            _record(manifest, out_dir, ck_rel + ".json", "checkpoint")
    except Exception as exc:
        _mark_stale(manifest, "checkpoint")
        _write_manifest(manifest, out_dir)
        raise StageError("train", exc) from exc

    # -- stage: sweep ----------------------------------------------------------
    if "sweep" in stages:
        try:
            axes = ["frequency_hz"]
            if cfg.family == "circular":
                axes.append("radius_m")
            expected = [f"metrics_{m}_{ax.split('_')[0]}.csv"
                        for ax in axes for m in ("nre", "ssim")]
            if prev.fresh(out_dir, "metrics") and \
                    set(prev.paths_for("metrics")) == set(expected):
                for rel in expected:
                    _record(manifest, out_dir, rel, "metrics")
            else:
                driving = _test_driving(cfg.methods, dataset, operators,
                                        params)
                ctx = SweepContext(array=array, points=cfg.listening_grid(),
                                   freq_grid=freq,
                                   sources=[r.source for r in dataset.test],
                                   driving=driving)
                methods = list(driving)
                samples = metric_samples(ctx, methods)
                fig_ki = freq.nearest_index(cfg.fig_frequency)
                for ax in axes:
                    for metric in ("nre", "ssim"):
                        series = sweep(ctx, methods, ax, metric,
                                       fixed_frequency_index=fig_ki,
                                       n_radius_bins=cfg.n_radius_bins,
                                       samples=samples)
                        rel = f"metrics_{metric}_{ax.split('_')[0]}.csv"
                        fileio.write_metric_csv(out_dir / rel, series)
                        _record(manifest, out_dir, rel, "metrics")
        except Exception as exc:
            _mark_stale(manifest, "metrics")
            _write_manifest(manifest, out_dir)
            raise StageError("sweep", exc) from exc

    # -- stage: render ---------------------------------------------------------
    if "render" in stages:
        try:
            if prev.fresh(out_dir, "field"):
                for rel in prev.paths_for("field"):
                    _record(manifest, out_dir, rel, "field")
            else:
                for rel in render_field(cfg, out_dir, cfg.methods,
                                        cfg.fig_source, cfg.fig_frequency,
                                        params=params):
                    _record(manifest, out_dir, rel, "field")
        except Exception as exc:
            _mark_stale(manifest, "field")
            _write_manifest(manifest, out_dir)
            raise StageError("render", exc) from exc

    _write_manifest(manifest, out_dir)
    return manifest
