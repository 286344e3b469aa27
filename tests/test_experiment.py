"""Pipeline orchestration: manifests, stage skipping, field rendering,
interrupted artifact writes."""

import builtins
import fnmatch
import json
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfsynth import experiment, fileio
from sfsynth.config import desk_config
from sfsynth.experiment import ArtifactManifest, render_field, run_experiment
from sfsynth.fileio import sha256_file
from sfsynth.network import init_params
from sfsynth.renderers import pm_operators


def _paths(manifest, role):
    return [f["path"] for f in manifest.files if f["role"] == role]


def _operators(cfg):
    return pm_operators(cfg.array(), cfg.control_points(), cfg.freq_grid(),
                        cfg.lam)


def micro_config(**overrides):
    cfg = replace(desk_config("circular"),
                  n_radii=4, n_angles=4, val_count=4, n_test=6,
                  max_epochs=3, patience=3, listening_spacing=0.08)
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def linear_micro_config():
    return replace(desk_config("linear"), n_train_linear=4, n_val_linear=2,
                   n_test_linear=6, methods=("mr", "pm"))


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = micro_config()
    manifest = run_experiment(cfg, out)
    return cfg, out, manifest


def test_manifest_contents(micro_run):
    cfg, out, manifest = micro_run
    roles = {f["role"] for f in manifest.files}
    assert {"config", "dataset", "checkpoint", "metrics", "field"} <= roles
    assert len(_paths(manifest, "metrics")) == 4
    # field images: ground truth plus real/error maps per method
    pgms = [p for p in _paths(manifest, "field") if p.endswith(".pgm")]
    assert len(pgms) >= 3
    assert all(manifest.fresh(out, role, _paths(manifest, role))
               for role in roles)


def test_manifest_hashes_match_disk(micro_run):
    cfg, out, manifest = micro_run
    for f in manifest.files:
        assert sha256_file(Path(out) / f["path"]) == f["sha256"]


def test_rerun_skips_and_reproduces(micro_run):
    cfg, out, manifest = micro_run
    before = (Path(out) / "manifest.json").read_text()
    m2 = run_experiment(cfg, out)
    after = (Path(out) / "manifest.json").read_text()
    assert before == after


def test_no_checkpoint_without_cnn(tmp_path):
    cfg = micro_config(methods=("mr", "pm"))
    manifest = run_experiment(cfg, tmp_path)
    assert _paths(manifest, "checkpoint") == []
    assert not (tmp_path / "checkpoint.sfsm").exists()


@pytest.mark.parametrize("family", ["circular", "linear"])
def test_test_driving_pm_equals_per_source_products(family):
    # the sweep's PM signals, one stacked product per frequency, are each
    # test source's own C_cp @ p_cp, byte for byte
    from sfsynth.datasets import build_dataset
    cfg = (micro_config(methods=("mr", "pm")) if family == "circular" else
           linear_micro_config())
    array, cp, freq = cfg.array(), cfg.control_points(), cfg.freq_grid()
    ops = pm_operators(array, cp, freq, cfg.lam)
    dataset = build_dataset(array, cfg.source_split(), cp, freq, ops,
                            cfg.mr_listening_radius())
    pm = experiment._test_driving(("pm",), dataset, ops, None)["pm"]
    assert pm.shape == (len(dataset.test), array.active_count, freq.k)
    for si, rec in enumerate(dataset.test):
        for ki, op in enumerate(ops):
            alone = op.c_cp @ rec.pressures[:, ki]
            assert pm[si, :, ki].tobytes() == alone.tobytes(), (si, ki)


@pytest.mark.parametrize("family", ["circular", "linear"])
def test_run_factorizes_each_frequency_once(tmp_path, monkeypatch, family):
    # a run builds the PM operator of each grid frequency once, and the
    # dataset (linear MR), training, sweep and render all share it: one
    # Cholesky factorization per grid frequency
    import scipy.linalg
    cfg = micro_config() if family == "circular" else linear_micro_config()
    assert ("cnn" in cfg.methods) == (family == "circular")
    calls = []
    real = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    run_experiment(cfg, tmp_path)
    assert len(calls) == cfg.freq_count


def test_render_field_validates_source_inside(micro_run):
    cfg, out, _ = micro_run
    with pytest.raises(ValueError):
        render_field(cfg, out, ["pm"], (0.1, 0.1), 200.0, _operators(cfg))


def test_render_field_missing_checkpoint(tmp_path):
    cfg = micro_config()
    with pytest.raises(FileNotFoundError):
        render_field(cfg, tmp_path, ["cnn"], (2.0, 0.5), 200.0,
                     _operators(cfg))


@pytest.mark.parametrize("tamper,match", [
    (lambda d: (d / "manifest.json").unlink(), "no readable manifest"),
    (lambda d: fileio.save_checkpoint(d / "checkpoint.sfsm",
                                      init_params(16, 15, seed=9)),
     "not the checkpoint"),
], ids=["no-manifest", "checkpoint-replaced"])
def test_render_field_checks_checkpoint_against_manifest(micro_run, tmp_path,
                                                        tamper, match):
    cfg, out, _ = micro_run
    for name in ("checkpoint.sfsm", "manifest.json"):
        (tmp_path / name).write_bytes((Path(out) / name).read_bytes())
    tamper(tmp_path)
    with pytest.raises(ValueError, match=match):
        render_field(cfg, tmp_path, ["cnn"], (2.0, 0.5), 200.0,
                     _operators(cfg))
    assert not (tmp_path / "fields").exists()


def test_render_field_rejects_bare_method_string(micro_run, tmp_path):
    # a string is one name, never a sequence of one-letter methods
    cfg, _, _ = micro_run
    with pytest.raises(ValueError, match="list of names"):
        render_field(cfg, tmp_path, "mr", (2.0, 0.5), 200.0, _operators(cfg))
    assert not (tmp_path / "fields").exists()


@pytest.mark.parametrize("frequency", [float("nan"), float("inf")])
def test_render_field_rejects_non_finite_frequency(micro_run, tmp_path,
                                                   frequency):
    # argmin over NaN would pick the first grid frequency
    cfg, _, _ = micro_run
    with pytest.raises(ValueError, match="finite"):
        render_field(cfg, tmp_path, ["mr"], (2.0, 0.5), frequency,
                     _operators(cfg))
    assert not (tmp_path / "fields").exists()


def test_render_all_methods_in_one_pass(micro_run, tmp_path, monkeypatch):
    # one call writes the ground truth once, and every file it writes has
    # the bytes a single-method call writes
    cfg, out, _ = micro_run
    params = fileio.load_checkpoint(Path(out) / "checkpoint.sfsm")
    ops = _operators(cfg)
    single, joint = tmp_path / "single", tmp_path / "joint"
    for method in cfg.methods:
        render_field(cfg, single, [method], cfg.fig_source, cfg.fig_frequency,
                     ops, params=params)
    names = []
    real = fileio.write_field_csv
    monkeypatch.setattr(fileio, "write_field_csv",
                        lambda path, *a: names.append(Path(path).name)
                        or real(path, *a))
    written = render_field(cfg, joint, list(cfg.methods), cfg.fig_source,
                           cfg.fig_frequency, ops, params=params)
    assert len(cfg.methods) == 3
    assert sum(name.startswith("gt_real") for name in names) == 1
    assert len(written) == len(set(written)) == 2 * (1 + 2 * 3)
    files = sorted(p.name for p in (single / "fields").iterdir())
    assert files == sorted(p.name for p in (joint / "fields").iterdir())
    for name in files:
        assert (joint / "fields" / name).read_bytes() == \
            (single / "fields" / name).read_bytes(), name


def test_render_gt_matches_direct_green(micro_run):
    # the exported ground-truth CSV is exactly the Green's-function field
    cfg, out, manifest = micro_run
    import csv
    from sfsynth.acoustics import green_matrix
    gt_csv = [p for p in _paths(manifest, "field")
              if "gt_real" in p and p.endswith(".csv")][0]
    rows = list(csv.DictReader(open(Path(out) / gt_csv)))
    pts = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    vals = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
    freq = cfg.freq_grid()
    ki = freq.nearest_index(cfg.fig_frequency)
    ref = green_matrix(pts, np.asarray(cfg.fig_source)[None, :],
                       freq.angular[ki], freq.c)[:, 0]
    assert np.array_equal(vals, ref)


def test_config_change_invalidates_skip(micro_run, tmp_path):
    cfg, out, _ = micro_run
    cfg2 = micro_config(lam=2e-2, methods=("mr", "pm"))
    manifest = run_experiment(cfg2, tmp_path)
    assert manifest.config_hash == cfg2.config_hash()
    assert manifest.config_hash != cfg.config_hash()


def test_manifest_roundtrip(micro_run):
    _, out, manifest = micro_run
    again = ArtifactManifest.from_json(manifest.to_json())
    assert again.to_json() == manifest.to_json()


def test_fresh_needs_entries_and_matching_hashes(micro_run):
    _, out, manifest = micro_run
    assert manifest.fresh(out, "dataset", ["dataset.sfsx"])
    assert not manifest.fresh(out, "no-such-role", ["dataset.sfsx"])
    entry = next(f for f in manifest.files if f["role"] == "dataset")
    altered = ArtifactManifest(config_hash=manifest.config_hash,
                               files=[dict(entry, sha256="0" * 64)])
    assert not altered.fresh(out, "dataset", ["dataset.sfsx"])
    # entries an interrupted stage left behind never make it fresh
    metrics = [f for f in manifest.files if f["role"] == "metrics"]
    partial = ArtifactManifest(config_hash=manifest.config_hash,
                               files=metrics[:2])
    assert len(metrics) == 4
    assert not partial.fresh(out, "metrics", [f["path"] for f in metrics])


@pytest.mark.parametrize("text", [
    "[]",
    '{"config_hash": "x"}',
    '{"config_hash": "x", "files": [{"path": "a", "sha256": "b"}]}',
    '{"config_hash": "x", "files": [7]}',
])
def test_manifest_from_json_rejects_wrong_shape(text):
    with pytest.raises(ValueError):
        ArtifactManifest.from_json(text)


@pytest.mark.parametrize("bad", ["list", "no_role"])
def test_malformed_manifest_counts_as_absent(tmp_path, bad):
    cfg = micro_config(methods=("mr", "pm"))
    if bad == "list":
        text = "[]"
    else:
        text = ('{"config_hash": "%s", "files": [{"path": "dataset.sfsx", '
                '"sha256": "0"}]}' % cfg.config_hash())
    (tmp_path / "manifest.json").write_text(text)
    manifest = run_experiment(cfg, tmp_path)
    assert manifest.fresh(tmp_path, "dataset", ["dataset.sfsx"])
    assert len(_paths(manifest, "metrics")) == 4
    again = ArtifactManifest.from_json((tmp_path / "manifest.json").read_text())
    assert again.to_json() == manifest.to_json()


# the functions perfbench times as stage boundaries; the runner must
# look them up by name when a stage runs
STAGE_FUNCTIONS = ("build_dataset", "train_compensator", "metric_samples",
                   "render_field")


def _count_stage_calls(monkeypatch) -> list:
    calls = []
    for name in STAGE_FUNCTIONS:
        monkeypatch.setattr(
            experiment, name,
            lambda *a, _name=name, _real=getattr(experiment, name), **k:
            calls.append(_name) or _real(*a, **k))
    return calls


def test_manifest_with_stale_keys_is_reused(micro_run, tmp_path, monkeypatch):
    # older manifests carry "stale": false on every entry; a directory
    # holding one is reused whole and its manifest rewritten without them
    cfg, out, manifest = micro_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    old = json.loads((tmp_path / "manifest.json").read_text())
    for f in old["files"]:
        f["stale"] = False
    (tmp_path / "manifest.json").write_text(json.dumps(old))
    calls = _count_stage_calls(monkeypatch)
    again = run_experiment(cfg, tmp_path)
    assert calls == []
    assert again.to_json() == manifest.to_json()


def test_two_file_checkpoint_role_retrains(micro_run, tmp_path, monkeypatch):
    # a directory written with SFSM version 1 records the checkpoint role
    # as the checkpoint and its JSON sidecar.  That is not today's one
    # path, so the run trains again; the stray sidecar is left in place
    cfg, out, _ = micro_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    sidecar = tmp_path / "checkpoint.sfsm.json"
    sidecar.write_text("{}\n")
    old = json.loads((tmp_path / "manifest.json").read_text())
    old["files"] = [f for f in old["files"] if f["path"] != sidecar.name] + [
        {"path": sidecar.name, "role": "checkpoint",
         "sha256": sha256_file(sidecar)}]
    (tmp_path / "manifest.json").write_text(json.dumps(old))
    calls = _count_stage_calls(monkeypatch)
    again = run_experiment(cfg, tmp_path)
    assert calls == ["train_compensator"]
    assert _paths(again, "checkpoint") == ["checkpoint.sfsm"]
    assert sidecar.exists()


def test_version_2_checkpoint_retrains(micro_run, tmp_path, monkeypatch):
    # SFSM version 2 wrote the same values as float64 blobs under a header
    # without its dtype key.  Such a checkpoint still matches its manifest
    # hash, but load_checkpoint refuses its version, so the run trains
    # again and writes what a fresh run writes
    cfg, out, manifest = micro_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    ckpt = tmp_path / experiment.CHECKPOINT
    fresh = {p.name: p.read_bytes()
             for p in [ckpt, *tmp_path.glob("metrics_*.csv")]}
    fileio.save_checkpoint(ckpt, fileio.load_checkpoint(ckpt).astype("<f8"))
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    del header["dtype"]
    blob = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(b"SFSM" + struct.pack("<II", 2, len(blob)) + blob
                     + raw[12 + hlen:])
    old = json.loads((tmp_path / "manifest.json").read_text())
    for f in old["files"]:
        if f["path"] == ckpt.name:
            f["sha256"] = sha256_file(ckpt)
    (tmp_path / "manifest.json").write_text(json.dumps(old))
    calls = _count_stage_calls(monkeypatch)
    again = run_experiment(cfg, tmp_path)
    assert calls == ["train_compensator"]
    assert {name: (tmp_path / name).read_bytes() for name in fresh} == fresh
    assert again.to_json() == manifest.to_json()


def test_resumed_sweep_from_checkpoint_writes_same_metrics(
        micro_run, tmp_path, monkeypatch):
    # the first run sweeps with the parameters training returned, a
    # resumed run with those loaded from the checkpoint; the two must be
    # the same numbers
    cfg, out, manifest = micro_run
    assert _paths(manifest, "checkpoint")
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    before = {p.name: p.read_bytes() for p in tmp_path.glob("metrics_*.csv")}
    assert len(before) == 4
    for name in before:
        (tmp_path / name).unlink()
    calls = _count_stage_calls(monkeypatch)
    run_experiment(cfg, tmp_path)
    assert calls == ["metric_samples"]
    assert {p.name: p.read_bytes()
            for p in tmp_path.glob("metrics_*.csv")} == before


def test_failed_sweep_records_no_metrics(tmp_path, monkeypatch):
    # the sweep fails after writing its first CSV; the manifest keeps the
    # finished stages and no entry of the failed one
    cfg = micro_config(methods=("mr", "pm"))
    real = experiment.sweep

    def fails_after_first_csv(*args, **kwargs):
        if list(tmp_path.glob("metrics_*.csv")):
            raise RuntimeError("sweep broke")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "sweep", fails_after_first_csv)
    with pytest.raises(experiment.StageError,
                       match=r"\[stage:sweep\] sweep broke"):
        run_experiment(cfg, tmp_path)
    assert (tmp_path / "metrics_nre_frequency.csv").exists()
    manifest = ArtifactManifest.read(tmp_path)
    assert _paths(manifest, "metrics") == []
    assert {f["role"] for f in manifest.files} == {"config", "dataset"}


def test_until_dataset_records_config_and_dataset(tmp_path):
    manifest = run_experiment(micro_config(), tmp_path, until="dataset")
    assert sorted((f["role"], f["path"]) for f in manifest.files) == [
        ("config", "config.json"), ("dataset", "dataset.sfsx")]
    assert not (tmp_path / "checkpoint.sfsm").exists()


@pytest.mark.parametrize("until", ["evaluate", "metrics", ""])
def test_unknown_until_rejected(tmp_path, until):
    with pytest.raises(ValueError, match="unknown stage"):
        run_experiment(micro_config(), tmp_path / "x", until=until)
    assert not (tmp_path / "x").exists()


class _TornFile:
    """File whose first write stores half of its data and then fails, as
    a crash in the middle of writing an artifact would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("simulated crash mid-write")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


# artifact (glob relative to the run directory), the stage function a
# rerun must call again, and the methods that make the run write it
INTERRUPTED = [
    ("dataset.sfsx", "build_dataset", ("mr", "pm")),
    ("checkpoint.sfsm", "train_compensator", ("mr", "cnn")),
    ("metrics_ssim_frequency.csv", "metric_samples", ("mr", "pm")),
    ("fields/gt_real_f*.pgm", "render_field", ("mr", "pm")),
    ("manifest.json", "build_dataset", ("mr", "pm")),
]


@pytest.mark.parametrize("pattern,stage_fn,methods", INTERRUPTED,
                         ids=[case[0] for case in INTERRUPTED])
def test_interrupted_write_keeps_old_file_and_rerun_recomputes(
        tmp_path, monkeypatch, pattern, stage_fn, methods):
    cfg = micro_config(methods=methods)
    run_experiment(cfg, tmp_path)
    (target,) = tmp_path.glob(pattern)
    # a malformed manifest counts as absent, so every stage runs again
    (tmp_path / "manifest.json").write_text("{}")
    before = target.read_bytes()

    def torn_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if "w" in mode and fnmatch.fnmatch(Path(path).name,
                                           f".{target.name}.part"):
            return _TornFile(fh)
        return fh

    with monkeypatch.context() as m:
        m.setattr(fileio, "open", torn_open, raising=False)
        with pytest.raises((OSError, experiment.StageError),
                           match="simulated crash mid-write"):
            run_experiment(cfg, tmp_path)
    assert target.read_bytes() == before
    assert list(tmp_path.rglob("*.part")) == []

    calls = []
    real = getattr(experiment, stage_fn)
    monkeypatch.setattr(experiment, stage_fn,
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    manifest = run_experiment(cfg, tmp_path)
    assert calls
    roles = {f["role"] for f in manifest.files}
    assert all(manifest.fresh(tmp_path, role, _paths(manifest, role))
               for role in roles)
    if target.name != "manifest.json":
        assert target.read_bytes() == before
