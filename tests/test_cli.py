"""Command-line interface: subcommands, exit codes, diagnostics."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import sfsynth

MICRO = {
    "n_radii": 4, "n_angles": 4, "val_count": 4, "n_test": 6,
    "max_epochs": 3, "patience": 3, "listening_spacing": 0.08,
}


# the child imports the package this test process imported, whether it
# came from PYTHONPATH, pytest's pythonpath setting or an installation
PACKAGE_ROOT = str(Path(sfsynth.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sfsynth.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="module")
def micro_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "micro.json"
    p.write_text(json.dumps(MICRO))
    return p


def test_help_lists_subcommands():
    out = run_cli("--help")
    assert out.returncode == 0
    for cmd in ("run", "gen-dataset", "train", "evaluate", "render", "inspect"):
        assert cmd in out.stdout


def test_run_full_pipeline(micro_cfg_file, tmp_path):
    out = run_cli("run", "--config", str(micro_cfg_file), "--scale", "desk",
                  "--out", str(tmp_path / "exp"))
    assert out.returncode == 0, out.stderr
    exp = tmp_path / "exp"
    assert (exp / "dataset.sfsx").exists()
    assert (exp / "checkpoint.sfsm").exists()
    assert (exp / "manifest.json").exists()
    assert (exp / "metrics_nre_frequency.csv").exists()


def test_gen_dataset_only(micro_cfg_file, tmp_path):
    out = run_cli("gen-dataset", "--config", str(micro_cfg_file),
                  "--scale", "desk", "--out", str(tmp_path / "ds"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["config.json", "dataset.sfsx"]
    assert (tmp_path / "ds" / "dataset.sfsx").exists()
    assert not (tmp_path / "ds" / "checkpoint.sfsm").exists()


def test_train_needs_cnn(tmp_path):
    # training never rewrites the config: without cnn among the methods
    # it stops before creating the output directory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MICRO, methods=["mr", "pm"])))
    out = run_cli("train", "--config", str(cfg), "--scale", "desk",
                  "--out", str(tmp_path / "x"))
    assert "'methods'" in _one_error_line(out)
    assert not (tmp_path / "x").exists()


def test_render_and_inspect(micro_cfg_file, tmp_path):
    exp = tmp_path / "exp"
    out = run_cli("run", "--config", str(micro_cfg_file), "--scale", "desk",
                  "--out", str(exp))
    assert out.returncode == 0, out.stderr
    out = run_cli("render", "--config", str(micro_cfg_file), "--scale",
                  "desk", "--out", str(exp), "--method", "mr",
                  "--source", "2.0,0.5", "--frequency", "200")
    assert out.returncode == 0, out.stderr
    assert "mr_real" in out.stdout

    out = run_cli("inspect", str(exp / "dataset.sfsx"))
    assert out.returncode == 0
    assert "12 train / 4 val / 6 test" in out.stdout

    out = run_cli("inspect", str(exp / "dataset.sfsx"), "--record", "0",
                  "--out", str(tmp_path / "dump"))
    assert out.returncode == 0
    assert (tmp_path / "dump" / "record0_tensor.csv").exists()

    out = run_cli("inspect", str(exp / "checkpoint.sfsm"))
    assert out.returncode == 0
    assert "7 layers" in out.stdout
    # the trained model is saved in the dtype it was trained in
    assert "float32 parameters" in out.stdout.splitlines()[0]


def test_render_inside_source_fails(micro_cfg_file, tmp_path):
    out = run_cli("render", "--config", str(micro_cfg_file), "--scale",
                  "desk", "--out", str(tmp_path), "--method", "pm",
                  "--source", "0.1,0.0", "--frequency", "200")
    assert out.returncode != 0
    assert "listening area" in out.stderr


def test_render_linear_source_on_listening_side_fails(tmp_path):
    # outside the listening rectangle but short of the array plane: MR
    # cannot render it, so it is refused before any field is written
    out = run_cli("render", "--scale", "desk", "--family", "linear",
                  "--out", str(tmp_path), "--method", "mr",
                  "--source=-2,0", "--frequency", "300")
    assert "array plane x = array_x0 = 1.0" in _one_error_line(out)
    assert not (tmp_path / "fields").exists()


@pytest.mark.parametrize("flag,value", [("--frequency", "nan"),
                                        ("--frequency", "inf"),
                                        ("--source", "nan,0.5")])
def test_render_non_finite_value_fails(micro_cfg_file, tmp_path, flag, value):
    args = {"--frequency": "200", "--source": "2.0,0.5", flag: value}
    out = run_cli("render", "--config", str(micro_cfg_file), "--scale",
                  "desk", "--out", str(tmp_path), "--method", "mr",
                  *[x for kv in args.items() for x in kv])
    assert "finite" in _one_error_line(out)
    assert not (tmp_path / "fields").exists()


def test_invalid_config_diagnosed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_remove": 99}))
    out = run_cli("run", "--config", str(bad), "--scale", "desk",
                  "--out", str(tmp_path / "x"))
    assert out.returncode != 0
    assert "error" in out.stderr.lower()


def _one_error_line(out) -> str:
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize("text,named", [
    ("[1, 2]", "JSON object"),
    ('"desk"', "JSON object"),
    ('{"n_loudspeakers": "16"}', "'n_loudspeakers'"),
    ('{"n_remove": true}', "'n_remove'"),
    ('{"lam": "small"}', "'lam'"),
    ('{"n_test": 6.5}', "'n_test'"),
    ('{"methods": "mr"}', "'methods'"),
    ('{"methods": ["mr", 3]}', "'methods'"),
    ('{"fig_source": [1.0]}', "'fig_source'"),
    ('{"family": 5}', "'family'"),
    ('{"lam": -1}', "'lam'"),
    ('{"lam": 0}', "'lam'"),
    ('{"methods": []}', "'methods'"),
    ('{"methods": ["mr", "mr", "pm"]}', "'methods'"),
    ('{"n_radius_bins": 0}', "'n_radius_bins'"),
    ('{"n_radius_bins": -2}', "'n_radius_bins'"),
    ('{"fig_source": [0.1, 0.1]}', "'fig_source'"),
    ('{"fig_source": [0.9, 0.0]}', "'fig_source'"),
    ('{"fig_source": [Infinity, 1.0]}', "'fig_source'"),
    ('{"fig_frequency": NaN}', "'fig_frequency'"),
    ('{"learning_rate": NaN}', "'learning_rate'"),
    ('{"lam": -Infinity}', "'lam'"),
    ('{"batch_size": 0}', "'batch_size'"),
    ('{"patience": -5}', "'patience'"),
    ('{"speed_of_sound": 0}', "'speed_of_sound'"),
    ('{"speed_of_sound": -343.0}', "'speed_of_sound'"),
    ('{"freq_start": 0}', "'freq_start'"),
    ('{"freq_step": -23.0}', "'freq_step'"),
    ('{"train_seed": -1}', "'train_seed'"),
    (('{}', "--seed", "-3"), "'source_seed'"),
    # geometry and sources the config cannot give are refused before the
    # output directory is made
    ('{"control_target": 0}', "'control_target'"),
    ('{"array_radius": 0}', "'array_radius'"),
    ('{"listening_spacing": 0}', "'listening_spacing'"),
    ('{"listening_radius": -1.0}', "'listening_radius'"),
    ('{"family": "linear", "array_spacing": 0}', "'array_spacing'"),
    ('{"family": "linear", "array_x0": -1.0}', "'array_x0'"),
    ('{"family": "linear", "n_loudspeakers": 1, "n_remove": 0, '
     '"methods": ["mr", "pm"]}', "'n_loudspeakers'"),
    ('{"family": "linear", "n_loudspeakers": 1, "n_remove": 0}',
     "'n_loudspeakers'"),
    ('{"n_remove": 16}', "'n_remove'"),
    ('{"n_remove": -1}', "'n_remove'"),
    ('{"freq_count": 0}', "'freq_count'"),
    ('{"n_remove": 10}', "'n_remove'"),
    ('{"family": "linear", "n_loudspeakers": 4, "n_remove": 0}',
     "'n_loudspeakers'"),
    ('{"freq_count": 4}', "'freq_count'"),
    ('{"test_shift": 0}', "'test_shift'"),
    ('{"val_count": 0}', "'val_count'"),
    ('{"n_test": 0}', "'n_test'"),
    # the source protocol's counts and radii, each refused by its key
    ('{"val_count": 320}', "'val_count'"),
    ('{"n_test": 321}', "'n_test'"),
    ('{"n_radii": 0}', "'n_radii'"),
    ('{"n_angles": 0}', "'n_angles'"),
    ('{"source_radius_min": 0.5}', "'source_radius_min'"),
    ('{"source_radius_max": 1.0}', "'source_radius_max'"),
    ('{"family": "linear", "test_shift": -0.1}', "'test_shift'"),
    ('{"family": "linear", "n_val_linear": 0}', "'n_val_linear'"),
    ('{"family": "linear", "n_val_linear": -2, "methods": ["mr", "pm"]}',
     "'n_val_linear'"),
    ('{"family": "linear", "n_train_linear": 0}', "'n_train_linear'"),
    ('{"family": "linear", "n_train_linear": -3}', "'n_train_linear'"),
    ('{"family": "linear", "n_test_linear": 0}', "'n_test_linear'"),
    ('{"family": "linear", "n_test_linear": 121}', "'n_test_linear'"),
    # control cells finer than the listening spacing, from either side
    ('{"listening_spacing": 3}',
     "'control_target' = 72 and 'listening_spacing'"),
    ('{"listening_radius": 0.001}',
     "'control_target' = 72 and 'listening_spacing'"),
    ('{"listening_radius": 0.001}', "'listening_radius' = 0.001"),
    # a listening raster past the grid budget, refused before any file
    ('{"listening_spacing": 1e-6, "methods": ["mr", "pm"]}',
     "'listening_spacing'"),
    # a dataset past config.MAX_DATASET_BYTES, refused before its sources
    ('{"n_angles": 10000000000000}', "'n_angles'"),
    (('{"n_train_linear": 10000000000000}', "--family", "linear"),
     "'n_train_linear'"),
    # a linear fig_source short of the array plane, outside the listening
    # rectangle
    ('{"family": "linear", "fig_source": [0.9, 0.0]}', "'fig_source'"),
    # MR orders past the verified Bessel orders at the top grid frequency
    ('{"freq_step": 1e6}', "'freq_step'"),
    ('{"speed_of_sound": 1e-3}', "'speed_of_sound'"),
    ('{"freq_start": 1e6}', "'freq_start'"),
    # a grid past the floating-point range, in Hz or in rad/s
    ('{"freq_step": 1e308}', "'freq_step'"),
    ('{"freq_step": 1e307}', "'freq_step'"),
    # a finite order of 300 digits, printed to three significant digits
    ('{"freq_step": 1e300}', "'freq_step'"),
    # a file family other than the one --family asks for
    (('{"family": "circular"}', "--family", "linear"), "'family'"),
], ids=["list", "string", "int-as-string", "bool-as-int", "float-as-string",
        "float-as-int", "methods-string", "methods-number", "fig-source-short",
        "family-number", "lam-negative", "lam-zero", "methods-empty",
        "methods-repeated", "radius-bins-zero", "radius-bins-negative",
        "fig-source-in-listening-area", "fig-source-in-array",
        "fig-source-infinite", "fig-frequency-nan", "learning-rate-nan",
        "lam-minus-infinity", "batch-size-zero", "patience-negative",
        "speed-of-sound-zero", "speed-of-sound-negative", "freq-start-zero",
        "freq-step-negative", "train-seed-negative", "seed-flag-negative",
        "control-target-zero", "array-radius-zero", "listening-spacing-zero",
        "listening-radius-negative", "array-spacing-zero", "array-x0-negative",
        "linear-one-loudspeaker", "linear-one-loudspeaker-cnn",
        "n-remove-all", "n-remove-negative", "freq-count-zero",
        "cnn-too-few-loudspeakers", "linear-cnn-too-few-loudspeakers",
        "cnn-too-few-frequencies", "test-shift-zero",
        "val-count-zero", "n-test-zero", "val-count-whole-pool",
        "n-test-above-pool", "n-radii-zero", "n-angles-zero",
        "source-radius-min-inside", "source-radius-max-below-min",
        "linear-test-shift-negative", "linear-val-zero-cnn",
        "linear-val-negative", "linear-train-zero-cnn",
        "linear-train-negative", "linear-test-zero",
        "linear-test-above-train-val", "control-cells-below-spacing",
        "control-cells-in-tiny-disk", "control-cells-name-disk-radius",
        "listening-raster-over-budget", "dataset-over-budget",
        "linear-dataset-over-budget", "linear-fig-source-before-array-plane",
        "freq-step-past-verified-order", "speed-of-sound-past-verified-order",
        "freq-start-past-verified-order", "freq-step-overflows-hz",
        "freq-step-overflows-rad-per-s", "freq-step-huge-order",
        "family-disagrees-with-flag"])
def test_malformed_config_one_error_line(tmp_path, text, named):
    # a tuple holds the config text and the extra command-line arguments
    text, *extra = (text,) if isinstance(text, str) else text
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = run_cli("gen-dataset", "--config", str(bad), "--scale", "desk",
                  "--out", str(tmp_path / "x"), *extra)
    line = _one_error_line(out)
    assert named in line
    # one readable line: the longest message of these cases is ~200
    # characters
    assert len(line) <= 240
    assert not (tmp_path / "x").exists()


def test_seed_override_changes_dataset(micro_cfg_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir, seed in ((a, "1"), (b, "2")):
        out = run_cli("gen-dataset", "--config", str(micro_cfg_file),
                      "--scale", "desk", "--out", str(out_dir),
                      "--seed", seed)
        assert out.returncode == 0, out.stderr
    ha = (a / "dataset.sfsx").read_bytes()
    hb = (b / "dataset.sfsx").read_bytes()
    assert ha != hb


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    import numpy as np
    from sfsynth.acoustics import FrequencyGrid
    from sfsynth.datasets import Dataset, record_dtype
    from sfsynth.fileio import save_checkpoint, save_dataset
    from sfsynth.network import init_params
    d = tmp_path_factory.mktemp("artifacts")
    save_checkpoint(d / "checkpoint.sfsm", init_params(16, 15, seed=4))
    # one record three times: a train, a val and a test record
    records = np.recarray(3, record_dtype(2, 3, 5))
    records.source_id = 0
    records.source.position = [2.0, 0.5]
    records.tensor = np.ones((4, 3))
    records.pressures = np.ones((5, 3)) * 1j
    save_dataset(d / "dataset.sfsx", Dataset(
        all_records=records, n_train=1, n_val=1,
        freq_grid=FrequencyGrid.uniform(46.0, 23.0, 3, 343.0), source_seed=0))
    return d


def _with_header(raw, edit):
    # rewrite the length-prefixed JSON header that follows magic and version
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


def _with_kind(raw):
    return _with_header(raw, lambda h: h["layers"][0].update(kind="pool"))


def _with_halved_first_layer(raw):
    # layer 0 keeps half its 128 output channels and layer 1 still expects
    # all: its out_ch, the parameter count and its kernel, bias and slope
    # blobs (after the header) shrink together, so the file size fits the
    # header and the channel chain does not
    (hlen,) = struct.unpack("<I", raw[8:12])
    at, kernel, vector = 12 + hlen, 128 * 9 * 8, 128 * 8
    blobs = [raw[at:at + kernel], raw[at + kernel:at + kernel + vector],
             raw[at + kernel + vector:at + kernel + 2 * vector]]

    def halve(header):
        header["layers"][0]["out_ch"] = 64
        header["param_count"] -= (kernel + 2 * vector) // 16

    return (_with_header(raw[:at], halve)
            + b"".join(blob[:len(blob) // 2] for blob in blobs)
            + raw[at + kernel + 2 * vector:])


@pytest.mark.parametrize("name,mangle", [
    ("checkpoint.sfsm", lambda raw: raw[:100]),
    ("checkpoint.sfsm", _with_kind),
    ("dataset.sfsx", lambda raw: raw[:len(raw) // 2]),
    ("dataset.sfsx", lambda raw: raw[:20]),
    ("checkpoint.sfsm", _with_halved_first_layer),
], ids=["truncated-checkpoint", "kind-byte", "half-dataset", "20-byte-dataset",
        "halved-channel"])
def test_inspect_malformed_artifact(artifacts, tmp_path, name, mangle):
    bad = tmp_path / name
    bad.write_bytes(mangle((artifacts / name).read_bytes()))
    out = run_cli("inspect", str(bad))
    assert str(bad) in _one_error_line(out)


def test_inspect_version_1_checkpoint(artifacts, tmp_path):
    # version 1 packed the layer table into structs; it is refused, not read
    raw = (artifacts / "checkpoint.sfsm").read_bytes()
    bad = tmp_path / "checkpoint.sfsm"
    bad.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    line = _one_error_line(run_cli("inspect", str(bad)))
    assert f"{bad}: unsupported version 1 at byte 4" in line


def test_inspect_names_the_parameter_dtype(artifacts, tmp_path):
    from sfsynth.fileio import load_checkpoint, save_checkpoint
    ckpt = artifacts / "checkpoint.sfsm"
    f32 = tmp_path / "f32.sfsm"
    save_checkpoint(f32, load_checkpoint(ckpt).astype("<f4"))
    for path, dtype in ((ckpt, "float64"), (f32, "float32")):
        out = run_cli("inspect", str(path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == (
            f"model checkpoint: input 16x15, 7 layers, 3150849 {dtype} "
            f"parameters")


def test_inspect_record_leaves_no_partial_csv(artifacts, tmp_path,
                                             monkeypatch):
    # the record dump goes through fileio's atomic writer: when the final
    # rename fails, neither a CSV nor its temporary file is left
    from sfsynth import cli

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    dump = tmp_path / "dump"
    assert cli.main(["inspect", str(artifacts / "dataset.sfsx"), "--record",
                     "0", "--out", str(dump)]) == 1
    assert list(dump.iterdir()) == []


def test_render_cnn_with_checkpoint_of_other_geometry(artifacts, tmp_path):
    # the fixture's checkpoint is trained for 8 active loudspeakers and 15
    # frequencies; this config keeps 10 of the 16 loudspeakers.  The
    # manifest records the checkpoint for this config, so only the shape
    # check can catch it
    from sfsynth.config import load_config
    from sfsynth.experiment import ArtifactManifest
    from sfsynth.fileio import sha256_file
    ckpt = tmp_path / "checkpoint.sfsm"
    ckpt.write_bytes((artifacts / ckpt.name).read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MICRO, n_remove=6)))
    (tmp_path / "manifest.json").write_text(ArtifactManifest(
        config_hash=load_config(cfg, scale="desk").config_hash(),
        files=[{"path": ckpt.name, "role": "checkpoint",
                "sha256": sha256_file(ckpt)}]).to_json())
    out = run_cli("render", "--config", str(cfg), "--scale", "desk",
                  "--out", str(tmp_path), "--method", "cnn",
                  "--source", "2.0,0.5", "--frequency", "200")
    assert "trained geometry (S, 8, 15)" in _one_error_line(out)


def test_render_cnn_refuses_version_2_checkpoint(artifacts, tmp_path):
    # version 2 had no dtype key and float64 blobs.  Even when the
    # manifest records it for this config, render refuses it; a run in
    # the directory trains again
    from sfsynth.config import load_config
    from sfsynth.experiment import ArtifactManifest
    from sfsynth.fileio import sha256_file
    ckpt = tmp_path / "checkpoint.sfsm"
    raw = _with_header((artifacts / ckpt.name).read_bytes(),
                       lambda h: h.pop("dtype"))
    ckpt.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MICRO))
    (tmp_path / "manifest.json").write_text(ArtifactManifest(
        config_hash=load_config(cfg, scale="desk").config_hash(),
        files=[{"path": ckpt.name, "role": "checkpoint",
                "sha256": sha256_file(ckpt)}]).to_json())
    out = run_cli("render", "--config", str(cfg), "--scale", "desk",
                  "--out", str(tmp_path), "--method", "cnn",
                  "--source", "2.0,0.5", "--frequency", "200")
    assert f"{ckpt}: unsupported version 2 at byte 4" in _one_error_line(out)


def test_render_cnn_refuses_checkpoint_of_other_seed(micro_cfg_file, tmp_path):
    # --seed 2 decimates the array differently from the run's --seed 1:
    # same (L, K), another set of active loudspeakers
    exp = tmp_path / "exp"
    out = run_cli("run", "--config", str(micro_cfg_file), "--scale", "desk",
                  "--out", str(exp), "--seed", "1")
    assert out.returncode == 0, out.stderr
    render = ["render", "--config", str(micro_cfg_file), "--scale", "desk",
              "--out", str(exp), "--method", "cnn", "--source", "2.0,0.5",
              "--frequency", "200"]
    assert "trained for another config" in _one_error_line(
        run_cli(*render, "--seed", "2"))
    out = run_cli(*render, "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert "cnn_real" in out.stdout
