"""Binary formats and text/image exporters."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from sfsynth.acoustics import FrequencyGrid, Source
from sfsynth.config import desk_config
from sfsynth.datasets import Dataset, DatasetRecord, build_dataset
from sfsynth.fileio import (
    ArtifactFormatError,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    sha256_file,
    write_field_csv,
    write_metric_csv,
    write_pgm,
)
from sfsynth.network import init_params


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(16, 15, seed=5)
    path = tmp_path / "m.sfsm"
    save_checkpoint(path, params)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SFSM"
    back = load_checkpoint(path)
    assert back.rows == 16 and back.cols == 15
    assert len(back.layers) == 7
    for a, b in zip(params.flat(), back.flat()):
        assert np.array_equal(a, b)
    sidecar = json.loads((tmp_path / "m.sfsm.json").read_text())
    assert sidecar["param_count"] == params.param_count()
    assert len(sidecar["layers"]) == 7
    assert sidecar["layers"][0]["out_ch"] == 128


def test_checkpoint_bytes_pinned(tmp_path):
    # the checkpoint and sidecar bytes of a fixed initialization; a change
    # here changes every checkpoint the pipeline writes
    path = tmp_path / "m.sfsm"
    save_checkpoint(path, init_params(16, 15, seed=0))
    assert path.stat().st_size == 25_207_114
    assert sha256_file(path) == \
        "5b110a5c674b721baaaae07aeb178524c6aecfceaed2f5b2ee21fca77a6b4492"
    assert sha256_file(tmp_path / "m.sfsm.json") == \
        "5d3e0171dbcad7f7bb70c6c3cadc2cf60df056776b3776ebf2b5821329525522"


def _dataset_file(cfg, tmp_path):
    ds = build_dataset(cfg.array(), cfg.source_split(), cfg.control_points(),
                       cfg.freq_grid(), cfg.lam, cfg.mr_listening_radius())
    path = tmp_path / "d.sfsx"
    save_dataset(path, ds)
    return path


def test_dataset_bytes_pinned(tmp_path):
    # the dataset bytes of a fixed desk config (4 train, 2 val, 2 test
    # sources, 4 frequencies); a change here changes every dataset the
    # pipeline writes
    path = _dataset_file(replace(desk_config(), n_radii=2, n_angles=3,
                                 val_count=2, n_test=2, freq_count=4),
                         tmp_path)
    assert path.stat().st_size == 39_792
    assert sha256_file(path) == \
        "df7d62a76c2f23c905b66e4291540cff8b95ff851416d9a820f4e2ba54227833"


def test_linear_dataset_bytes_pinned(tmp_path):
    # the same for the linear family (4 train, 2 val, 2 test sources,
    # 4 frequencies), whose MR input is the pressure-matching operator
    # applied to plane-wave targets, superposed over the window
    path = _dataset_file(replace(desk_config("linear"), n_train_linear=4,
                                 n_val_linear=2, n_test_linear=2,
                                 freq_count=4), tmp_path)
    assert path.stat().st_size == 41_328
    assert sha256_file(path) == \
        "e0e1f10720772a14b31de813f696ec86944f06871fc8b77403a8bc134e546f89"


def test_checkpoint_forward_identical(tmp_path):
    from sfsynth.network import forward
    params = init_params(16, 15, seed=6)
    path = tmp_path / "m.sfsm"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    x = np.random.default_rng(1).normal(size=(1, 16, 15, 2))
    assert np.array_equal(forward(params, x)[0], forward(back, x)[0])


def _toy_dataset():
    rng = np.random.default_rng(2)
    fg = FrequencyGrid.uniform(46.0, 23.0, 4, 343.0)
    def rec(i):
        return DatasetRecord(
            source_id=i, source=Source(position=rng.uniform(1.5, 3, 2)),
            tensor=rng.normal(size=(6, 4)),
            pressures=rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)))
    return Dataset(train=[rec(0), rec(1)], val=[rec(2)], test=[rec(3)],
                   freq_grid=fg, l_active=3, n_control=5, source_seed=9)


def test_dataset_roundtrip(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "d.sfsx"
    save_dataset(path, ds, header_extra={"note": "roundtrip"})
    with open(path, "rb") as fh:
        assert fh.read(4) == b"SFSX"
    back, header = load_dataset(path)
    assert header["note"] == "roundtrip"
    assert header["n_train"] == 2
    assert back.freq_grid.k == 4
    assert back.freq_grid.frequencies[-1] == ds.freq_grid.frequencies[-1]
    for a, b in zip(ds.all_records, back.all_records):
        assert a.source_id == b.source_id
        assert np.array_equal(a.tensor, b.tensor)
        assert np.array_equal(a.pressures, b.pressures)
        assert np.array_equal(a.source.position, b.source.position)


def test_dataset_write_deterministic(tmp_path):
    ds = _toy_dataset()
    p1 = tmp_path / "a.sfsx"
    p2 = tmp_path / "b.sfsx"
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert sha256_file(p1) == sha256_file(p2)


def test_dataset_record_shape_checked(tmp_path):
    # a one-row pressure array would otherwise broadcast into I rows
    ds = _toy_dataset()
    rec = ds.train[0]
    ds.train[0] = DatasetRecord(source_id=rec.source_id, source=rec.source,
                                tensor=rec.tensor, pressures=rec.pressures[:1])
    with pytest.raises(ValueError, match="record 0"):
        save_dataset(tmp_path / "d.sfsx", ds)
    assert not (tmp_path / "d.sfsx").exists()


def _corrupt(src, dst, offset, data):
    raw = bytearray(src.read_bytes())
    raw[offset:offset + len(data)] = data
    dst.write_bytes(bytes(raw))
    return dst


@pytest.fixture
def saved(tmp_path):
    ckpt = tmp_path / "m.sfsm"
    save_checkpoint(ckpt, init_params(16, 15, seed=3))
    ds = tmp_path / "d.sfsx"
    save_dataset(ds, _toy_dataset())
    return ckpt, ds


@pytest.mark.parametrize("offset,data,offset_seen", [
    (0, b"NOPE", 0),                     # magic
    (4, b"\x02", 4),                     # version
    (28, b"\x07", 28),                   # first layer's kind byte
    (29, b"\x05", 28),                   # first layer's activation byte
    (16, b"\x09", 16),                   # skip source layer index
])
def test_checkpoint_header_corruption(saved, tmp_path, offset, data,
                                      offset_seen):
    bad = _corrupt(saved[0], tmp_path / "bad.sfsm", offset, data)
    with pytest.raises(ArtifactFormatError) as info:
        load_checkpoint(bad)
    assert info.value.offset == offset_seen
    assert str(bad) in str(info.value)


@pytest.mark.parametrize("offset,data,match,offset_seen", [
    (16, b"\x00", "skip layers", 16),                  # skip pair (0, 3)
    (16, b"\xff" * 8, "skip layers", 16),              # skip absent (-1, -1)
    (34, (64).to_bytes(4, "little"), "layer table", 28),   # layer 0 out_ch
    (8, (9).to_bytes(4, "little"), "layer table", 28),     # L for another table
    (62, (1).to_bytes(4, "little"), "layer table", 28),    # layer 0 oph
], ids=["skip-pair", "skip-absent", "out-channels", "input-rows",
        "output-padding"])
def test_checkpoint_layer_table_checked(saved, tmp_path, offset, data, match,
                                        offset_seen):
    # the skip pair sits at byte 16, the layer table starts at byte 28
    bad = _corrupt(saved[0], tmp_path / "bad.sfsm", offset, data)
    with pytest.raises(ArtifactFormatError, match=match) as info:
        load_checkpoint(bad)
    assert info.value.offset == offset_seen


@pytest.mark.parametrize("which,load", [(0, load_checkpoint), (1, load_dataset)],
                         ids=["checkpoint", "dataset"])
def test_trailing_bytes_rejected(saved, tmp_path, which, load):
    # every strict prefix is covered by the property tests
    bad = tmp_path / "long"
    bad.write_bytes(saved[which].read_bytes() + b"\0" * 8)
    with pytest.raises(ArtifactFormatError, match="file size"):
        load(bad)


def test_dataset_bad_header_json(saved, tmp_path):
    bad = _corrupt(saved[1], tmp_path / "bad.sfsx", 12, b"[")
    with pytest.raises(ArtifactFormatError, match="bad header") as info:
        load_dataset(bad)
    assert info.value.offset == 12


def _with_header(src, dst, edit):
    # rewrite the length-prefixed JSON header that follows magic and version
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                    + raw[12 + hlen:])
    return dst


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("source_seed"),
    lambda h: h.update(source_seed="x"),
], ids=["missing", "string"])
def test_dataset_header_source_seed_checked(saved, tmp_path, edit):
    bad = _with_header(saved[1], tmp_path / "bad.sfsx", edit)
    with pytest.raises(ArtifactFormatError, match="bad header") as info:
        load_dataset(bad)
    assert info.value.offset == 12


def test_dataset_header_record_too_large(saved, tmp_path):
    # numpy refuses a record dtype of 2 GiB or more
    bad = _with_header(saved[1], tmp_path / "bad.sfsx",
                       lambda h: h.update(l_active=2 ** 30))
    with pytest.raises(ArtifactFormatError, match="record size") as info:
        load_dataset(bad)
    assert info.value.offset == 12


def test_field_csv(tmp_path):
    p = tmp_path / "f.csv"
    write_field_csv(p, np.array([[1.0, 2.0]]), np.array([0.5 - 0.25j]))
    lines = p.read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert lines[1] == "1.0,2.0,0.5,-0.25"


def test_metric_csv(tmp_path):
    from sfsynth.evaluation import MetricSeries
    series = MetricSeries(axis_values=np.array([46.0, 69.0]),
                          values={"mr": np.array([-10.0, np.nan])},
                          counts=np.array([3, 0]))
    p = tmp_path / "m.csv"
    write_metric_csv(p, series)
    lines = p.read_text().splitlines()
    assert lines[0] == "axis_value,mr,pm,cnn,count"
    assert lines[1] == "46.0,-10.0,,,3"
    assert lines[2] == "69.0,nan,,,0"


def test_pgm_writer(tmp_path):
    vals = np.array([0.0, 0.5, 1.0])
    idx = np.array([[0, 0], [0, 1], [1, 1]])
    p = tmp_path / "img.pgm"
    write_pgm(p, vals, (2, 2), idx)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = raw.split(b"255\n", 1)[1]
    assert list(pixels) == [0, 128, 0, 255]
