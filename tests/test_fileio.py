"""Binary formats and text/image exporters."""

import hashlib
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
from sfsynth.renderers import pm_operators


def _header(raw: bytes) -> dict:
    # the length-prefixed JSON header that follows magic and version
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen])


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "m.sfsm"
    for dtype in ("<f4", "<f8"):
        params = init_params(16, 15, seed=5).astype(dtype)
        save_checkpoint(path, params)
        raw = path.read_bytes()
        assert raw[:8] == b"SFSM" + struct.pack("<I", 3)
        header = _header(raw)
        assert header["dtype"] == dtype
        assert header["param_count"] == params.param_count()
        assert len(header["layers"]) == 7
        assert header["layers"][0]["out_ch"] == 128
        # the header is the whole table: no sidecar beside the checkpoint
        assert [p.name for p in tmp_path.iterdir()] == ["m.sfsm"]
        back = load_checkpoint(path)
        assert back.rows == 16 and back.cols == 15
        assert len(back.layers) == 7
        for a, b in zip(params.flat(), back.flat()):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_checkpoint_bytes_pinned(tmp_path):
    # the checkpoint bytes of a fixed initialization, in both parameter
    # dtypes; a change here changes every checkpoint the pipeline writes.
    # The float64 blobs after the header are the bytes versions 1 and 2
    # wrote after their headers
    path = tmp_path / "m.sfsm"
    params = init_params(16, 15, seed=0)
    for p, size, digest, payload in (
            (params, 25_207_893,
             "42a37bb785bd01f00b86044b5aff3b6de11026b9078b43310156f5c8f2b3703a",
             "e87b96e988de76771ecf6bc0e46b6debf4588bdffacfcd1ee3e0ab8d35847b06"),
            (params.astype(np.float32), 12_604_497,
             "50a9363720bbdfc0efcc4388e6cb526c7fdc9531ca01b37ea567907397afd8ea",
             "314f4652d6c2f892666e1a168916739e48419aafe95e5b6d6bfd6a9f2ac86234")):
        save_checkpoint(path, p)
        raw = path.read_bytes()
        assert len(raw) == size
        assert sha256_file(path) == digest
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert hashlib.sha256(raw[12 + hlen:]).hexdigest() == payload


def test_checkpoint_of_mixed_dtypes_refused(tmp_path):
    # the header names one dtype for every blob
    params = init_params(16, 15, seed=0)
    params.biases[2] = params.biases[2].astype(np.float32)
    with pytest.raises(ValueError, match="share one dtype"):
        save_checkpoint(tmp_path / "m.sfsm", params)
    with pytest.raises(ValueError, match="share one dtype"):
        save_checkpoint(tmp_path / "m.sfsm", params.astype(np.float16))
    assert list(tmp_path.iterdir()) == []


def _dataset_file(cfg, tmp_path):
    array, cp, freq = cfg.array(), cfg.control_points(), cfg.freq_grid()
    ds = build_dataset(array, cfg.source_split(), cp, freq,
                       pm_operators(array, cp, freq, cfg.lam),
                       cfg.mr_listening_radius())
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


# the metric and field bytes of a linear mr/pm run of the config above
LINEAR_RUN_SHA256 = {
    "fields/gt_real_f115.csv":
        "bcf440ca8a0d1ab335d940fd61cf4f42707232b6947751511f4387e5f3aefe1a",
    "fields/gt_real_f115.pgm":
        "d8293852181c04e2027d1c7024a13be0b97b860e16c36e76953cb341e4681e32",
    "fields/mr_nre_f115.csv":
        "a7895f15813710f496ecb642a126a680bfcdd09de8424484e672f6cc648ef131",
    "fields/mr_nre_f115.pgm":
        "aad5f765c7c233e393e37ce76eff784497addce7b66a3745fe372a15a019c1ef",
    "fields/mr_real_f115.csv":
        "20f500e03f70571b663d308476b0440b7eed5c9ebae6e9dad7e057c8931b1ee1",
    "fields/mr_real_f115.pgm":
        "cf0ceadd71b6a4e4eac8bd02e9755a2ed3769310373d421c02a7bb54836e665c",
    "fields/pm_nre_f115.csv":
        "97a76d76c3690e8c51ebc32318a927b8c715a113292bceefbf383af6130eb1a4",
    "fields/pm_nre_f115.pgm":
        "0516346ec373f4f143d1dbb140939916509f8c2127627dcfcf2eefe024a5381c",
    "fields/pm_real_f115.csv":
        "680600533a10ddfe111e709a1cbed90dc3e03f7e49945356cfc5b8c1719a7a48",
    "fields/pm_real_f115.pgm":
        "061bc61058216987b93945b8b8957b7d559534c335e22ae7fad7d8e1cacc42d1",
    "metrics_nre_frequency.csv":
        "a150ac05dfd599774b90896d8df0a7faade0106160e701cdfbaa60be37d5ceb3",
    "metrics_ssim_frequency.csv":
        "97009f0c8775bddca3ae735bc229150c9dde487a2b8e5f27bcf92ff6184576c1",
}


def test_linear_run_metric_and_field_bytes_pinned(tmp_path):
    # the sweep and the render of that config; a change here changes the
    # metrics and fields every linear run writes
    from sfsynth.experiment import run_experiment
    cfg = replace(desk_config("linear"), n_train_linear=4, n_val_linear=2,
                  n_test_linear=2, freq_count=4, methods=("mr", "pm"))
    run_experiment(cfg, tmp_path)
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for pattern in ("metrics_*.csv", "fields/*")
                     for p in tmp_path.glob(pattern))
    assert written == sorted(LINEAR_RUN_SHA256)
    for rel, digest in LINEAR_RUN_SHA256.items():
        assert sha256_file(tmp_path / rel) == digest, rel


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
    pytest.param(4, b"\x04", 4, id="version-4"),
    # version 1 packed the layer table into structs
    pytest.param(4, b"\x01", 4, id="version-1"),
    # version 2 had no dtype key and always float64 blobs
    pytest.param(4, b"\x02", 4, id="version-2"),
    pytest.param(8, b"\xff\xff", 12, id="header-length-past-the-file"),
    pytest.param(12, b"[", 12, id="header-not-json"),
])
def test_checkpoint_header_corruption(saved, tmp_path, offset, data,
                                      offset_seen):
    bad = _corrupt(saved[0], tmp_path / "bad.sfsm", offset, data)
    with pytest.raises(ArtifactFormatError) as info:
        load_checkpoint(bad)
    assert info.value.offset == offset_seen
    assert str(bad) in str(info.value)


def _layer0(**changes):
    return lambda h: h["layers"][0].update(changes)


CHAIN = "not that of the 16x15 compensator chain"


@pytest.mark.parametrize("edit,match", [
    (lambda h: h.update(skip_src=0), CHAIN),
    (lambda h: [h.pop("skip_src"), h.pop("skip_dst")], CHAIN),
    (lambda h: h.update(skip_src=9), CHAIN),
    (_layer0(kind="pool"), CHAIN),
    (_layer0(act="linear"), CHAIN),
    # layer 0 narrower than layer 1's input; the chain derived from the
    # channel counts has layer 1 take 64
    (_layer0(out_ch=64), "16x15 compensator chain with channels \\(64, "),
    (lambda h: h.update(l_active=9), "18x15 compensator chain"),
    (_layer0(oph=1), CHAIN),
    (lambda h: h.update(l_active=1), "too small"),
    (lambda h: h.update(l_active=True), "l_active True"),
    # JSON true is not the output layer's stride 1
    (lambda h: h["layers"][6].update(sw=True), CHAIN),
    (lambda h: h["layers"][0].pop("out_ch"), "layer table"),
    (lambda h: h.update(layers="conv"), "layer table"),
    (lambda h: h["layers"].pop(), "seven channel counts"),
    (lambda h: h.update(param_count=h["param_count"] - 1), CHAIN),
    (lambda h: h.update(format="sfs-dataset"), CHAIN),
    (lambda h: h.update(version=2), CHAIN),
    (lambda h: h.pop("dtype"), "dtype None"),
    (lambda h: h.update(dtype="<f2"), "dtype '<f2'"),
    (lambda h: h.update(dtype=">f4"), "dtype '>f4'"),
    (lambda h: h.update(dtype="float32"), "dtype 'float32'"),
    (lambda h: h.update(dtype=True), "dtype True"),
], ids=["skip-pair", "skip-absent", "skip-source", "kind", "activation",
        "out-channels", "input-rows", "output-padding", "input-too-small",
        "boolean-count", "boolean-stride", "channels-absent",
        "table-not-a-list", "six-layers", "param-count", "format",
        "extra-key", "dtype-absent", "dtype-half", "dtype-big-endian",
        "dtype-name", "dtype-boolean"])
def test_checkpoint_layer_table_checked(saved, tmp_path, edit, match):
    # the header must be the one save_checkpoint writes for the chain its
    # l_active, k and channel counts derive; every fault names the header
    bad = _with_header(saved[0], tmp_path / "bad.sfsm", edit)
    with pytest.raises(ArtifactFormatError, match=match) as info:
        load_checkpoint(bad)
    assert info.value.offset == 12
    assert str(bad) in str(info.value)


def test_checkpoint_dtype_sizes_the_payload(saved, tmp_path):
    # a float32 header over the float64 blobs implies half the file
    bad = _with_header(saved[0], tmp_path / "bad.sfsm",
                       lambda h: h.update(dtype="<f4"))
    with pytest.raises(ArtifactFormatError, match="file size"):
        load_checkpoint(bad)


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
    header = _header(raw)
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


@pytest.mark.parametrize("which,load", [(0, load_checkpoint), (1, load_dataset)],
                         ids=["checkpoint", "dataset"])
def test_header_not_a_json_object(saved, tmp_path, which, load):
    raw = saved[which].read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    bad = tmp_path / "bad"
    bad.write_bytes(raw[:8] + struct.pack("<I", 2) + b"[]" + raw[12 + hlen:])
    with pytest.raises(ArtifactFormatError, match="JSON object") as info:
        load(bad)
    assert info.value.offset == 12


def test_dataset_header_boolean_counts_rejected(saved, tmp_path):
    # JSON true is not the count 1, although Python's bool is an int: the
    # toy dataset's one val and one test record would otherwise load
    bad = _with_header(saved[1], tmp_path / "bad.sfsx",
                       lambda h: h.update(n_val=True, n_test=True))
    with pytest.raises(ArtifactFormatError, match="n_val True") as info:
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
