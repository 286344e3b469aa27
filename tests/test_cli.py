"""Command-line interface: subcommands, exit codes, diagnostics."""

import json
import subprocess
import sys

import pytest

MICRO = {
    "n_radii": 4, "n_angles": 4, "val_count": 4, "n_test": 6,
    "max_epochs": 3, "patience": 3, "listening_spacing": 0.08,
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sfsynth.cli", *args],
                          capture_output=True, text=True)


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
    assert (tmp_path / "ds" / "dataset.sfsx").exists()
    assert not (tmp_path / "ds" / "checkpoint.sfsm").exists()


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


def test_render_inside_source_fails(micro_cfg_file, tmp_path):
    out = run_cli("render", "--config", str(micro_cfg_file), "--scale",
                  "desk", "--out", str(tmp_path), "--method", "pm",
                  "--source", "0.1,0.0", "--frequency", "200")
    assert out.returncode != 0
    assert "listening area" in out.stderr


def test_invalid_config_diagnosed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_remove": 99}))
    out = run_cli("run", "--config", str(bad), "--scale", "desk",
                  "--out", str(tmp_path / "x"))
    assert out.returncode != 0
    assert "error" in out.stderr.lower()


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
    from sfsynth.acoustics import FrequencyGrid, Source
    from sfsynth.datasets import Dataset, DatasetRecord
    from sfsynth.fileio import save_checkpoint, save_dataset
    from sfsynth.network import init_params
    d = tmp_path_factory.mktemp("artifacts")
    save_checkpoint(d / "checkpoint.sfsm", init_params(16, 15, seed=4))
    rec = DatasetRecord(source_id=0, source=Source(position=np.array([2.0, 0.5])),
                        tensor=np.ones((4, 3)), pressures=np.ones((5, 3)) * 1j)
    save_dataset(d / "dataset.sfsx", Dataset(
        train=[rec], val=[rec], test=[rec],
        freq_grid=FrequencyGrid.uniform(46.0, 23.0, 3), l_active=2,
        n_control=5, source_seed=0))
    return d


def _with_kind_byte(raw):
    # first layer table entry starts after magic, version, L, K, skip, count
    return raw[:28] + bytes([7]) + raw[29:]


@pytest.mark.parametrize("name,mangle", [
    ("checkpoint.sfsm", lambda raw: raw[:100]),
    ("checkpoint.sfsm", _with_kind_byte),
    ("dataset.sfsx", lambda raw: raw[:len(raw) // 2]),
    ("dataset.sfsx", lambda raw: raw[:20]),
], ids=["truncated-checkpoint", "kind-byte", "half-dataset", "20-byte-dataset"])
def test_inspect_malformed_artifact(artifacts, tmp_path, name, mangle):
    bad = tmp_path / name
    bad.write_bytes(mangle((artifacts / name).read_bytes()))
    out = run_cli("inspect", str(bad))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(bad) in lines[0]
