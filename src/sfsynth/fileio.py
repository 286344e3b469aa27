"""Binary artifact formats (model checkpoints, datasets) and the CSV /
graymap exporters.

All binary layouts are little-endian.  Floats are written as IEEE 754
float64; complex matrices go row-major with interleaved (re, im).
Both loaders read through one bounded reader, so every malformed file
raises ArtifactFormatError with the path and the byte offset.  Every
writer goes through atomic_open, so a process that dies mid-write never
leaves a partial file under the artifact's name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .acoustics import FrequencyGrid, Source
from .datasets import Dataset, DatasetRecord
from .network import (
    COMPENSATOR_CHANNELS,
    SKIP_DST,
    SKIP_SRC,
    ModelParams,
    compensator_layers,
)

MAGIC_MODEL = b"SFSM"
MAGIC_DATASET = b"SFSX"
FORMAT_VERSION = 1

_KINDS = ("conv", "tconv")
_ACTS = ("prelu", "linear")
# one layer table entry; kind and act are stored as indices into _KINDS
# and _ACTS
_FIELDS = ("kind", "act", "in_ch", "out_ch", "kh", "kw", "sh", "sw", "ph",
           "pw", "oph", "opw")
_LAYER = struct.Struct("<BBIIIIIIIIII")
_N_LAYERS = len(COMPENSATOR_CHANNELS)
_DATASET_DIMS = ("l_active", "k", "i_cp", "n_train", "n_val", "n_test")


class ArtifactFormatError(ValueError):
    """A binary artifact that is not a valid file of its format."""

    def __init__(self, path, offset: int, what: str):
        super().__init__(f"{path}: {what} at byte {offset}")
        self.path = path
        self.offset = offset


class _Reader:
    """Bounded little-endian reads from an open artifact.  Checks the
    magic and version on entry; every failure raises ArtifactFormatError
    at the offset where reading stopped."""

    def __init__(self, fh, path, magic: bytes, kind: str):
        self.fh, self.path, self.offset = fh, path, 0
        self.size = os.fstat(fh.fileno()).st_size
        if self.take(4, "magic") != magic:
            self.fail(f"not a {kind} file", 0)
        (version,) = self.unpack("<I", "version")
        if version != FORMAT_VERSION:
            self.fail(f"unsupported version {version}", 4)

    def fail(self, what: str, offset: int | None = None):
        raise ArtifactFormatError(self.path,
                                  self.offset if offset is None else offset, what)

    def take(self, n: int, what: str) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            self.fail(f"short read of {what} ({len(data)} of {n} bytes)")
        self.offset += n
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        raw = self.take(8 * math.prod(shape), what)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def expect_size(self, total: int) -> None:
        if total != self.size:
            self.fail(f"file size {self.size} differs from the {total} bytes "
                      f"its header implies")


@contextmanager
def atomic_open(path, mode: str = "wb"):
    """Open a temporary file beside `path` for writing.  A clean exit
    moves it onto `path` with os.replace; an exception removes it and
    leaves whatever `path` held before.

    The file is not fsynced, so this covers a process crash, not an OS
    crash or power loss: then the rename may reach the disk before the
    data.  A file torn that way no longer matches its manifest sha256,
    so a resumed run recomputes its stage.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.part")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Atomic replacement of a text file."""
    with atomic_open(path, "w") as fh:
        fh.write(text)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- model checkpoints -------------------------------------------------------

def _table_rows(layers: list) -> list:
    """The stored layer table, one tuple of _FIELDS per layer: the
    activation is fixed by position (PReLU, linear on the last layer) and
    the output padding (oph, opw) is always zero."""
    return [(sp.kind, _ACTS[i == len(layers) - 1], sp.in_ch, sp.out_ch,
             sp.kh, sp.kw, sp.sh, sp.sw, sp.ph, sp.pw, 0, 0)
            for i, sp in enumerate(layers)]


def _table_bytes(layers: list) -> bytes:
    """Layer count followed by the packed table entries."""
    return struct.pack("<I", len(layers)) + b"".join(
        _LAYER.pack(_KINDS.index(kind), _ACTS.index(act), *rest)
        for kind, act, *rest in _table_rows(layers))


def save_checkpoint(path, params: ModelParams) -> None:
    """Binary checkpoint plus a JSON sidecar mirroring the layer table."""
    path = Path(path)
    l_active, k = params.rows // 2, params.cols
    layers = params.layers
    with atomic_open(path) as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<IIIii", FORMAT_VERSION, l_active, k,
                             SKIP_SRC, SKIP_DST))
        fh.write(_table_bytes(layers))
        for p in params.flat():
            fh.write(p.astype("<f8").tobytes())
    sidecar = {
        "format": "sfs-model", "version": FORMAT_VERSION,
        "l_active": l_active, "k": k,
        "skip_src": SKIP_SRC, "skip_dst": SKIP_DST,
        "param_count": params.param_count(),
        "layers": [dict(zip(_FIELDS, row)) for row in _table_rows(layers)],
    }
    write_text(path.with_suffix(path.suffix + ".json"),
               json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint whose layer table is the compensator chain for
    its input size, with the channel counts the table names."""
    with open(path, "rb") as fh:
        r = _Reader(fh, path, MAGIC_MODEL, "model checkpoint")
        l_active, k, *skip = r.unpack("<IIii", "header")
        if tuple(skip) != (SKIP_SRC, SKIP_DST):
            r.fail(f"skip layers {tuple(skip)} are not "
                   f"({SKIP_SRC}, {SKIP_DST})", 16)
        # the layer count is compared with the table; failures name the
        # offset of the first entry
        at, rows = r.offset + 4, 2 * l_active
        table = r.take(4 + _N_LAYERS * _LAYER.size, "layer table")
        channels = tuple(_LAYER.unpack_from(table, 4 + i * _LAYER.size)[3]
                         for i in range(_N_LAYERS - 1)) + (1,)
        try:
            layers = compensator_layers(rows, k, channels)
        except ValueError as exc:
            r.fail(f"layer table: {exc}", at)
        if table != _table_bytes(layers):
            r.fail(f"layer table is not the compensator chain for a "
                   f"{rows}x{k} input with channels {channels}", at)
        # kernel, bias and slope per layer; the linear last layer has one
        # output channel and no slope
        r.expect_size(r.offset + 8 * (sum(
            math.prod(sp.kernel_shape()) + 2 * sp.out_ch for sp in layers) - 1))
        kernels, biases, slopes = [], [], []
        for i, sp in enumerate(layers):
            kernels.append(r.floats(sp.kernel_shape(), f"layer {i} kernel"))
            biases.append(r.floats((sp.out_ch,), f"layer {i} bias"))
            slopes.append(r.floats((sp.out_ch,), f"layer {i} slope")
                          if i < _N_LAYERS - 1 else None)
    return ModelParams(rows=rows, cols=k, kernels=kernels, biases=biases,
                       slopes=slopes)


# -- datasets ----------------------------------------------------------------

def _record_dtype(l_active: int, k: int, i_cp: int) -> np.dtype:
    """One packed dataset record: source id, source position, the
    packed (2L, K) driving tensor and the (I, K) control pressures.
    Little-endian complex128 is the interleaved (re, im) float64 layout.
    ValueError when a record would not fit in 2 GiB."""
    return np.dtype([("source_id", "<u4"), ("position", "<f8", (2,)),
                     ("tensor", "<f8", (2 * l_active, k)),
                     ("pressures", "<c16", (i_cp, k))])


def save_dataset(path, ds: Dataset, header_extra: dict | None = None) -> None:
    """Length-prefixed JSON header followed by fixed-size records of
    _record_dtype in split order (train, val, test; source id
    ascending)."""
    header = {
        "format": "sfs-dataset", "version": FORMAT_VERSION,
        "l_active": ds.l_active, "k": ds.freq_grid.k, "i_cp": ds.n_control,
        "n_train": len(ds.train), "n_val": len(ds.val), "n_test": len(ds.test),
        "frequencies": [repr(float(f)) for f in ds.freq_grid.frequencies],
        "c": repr(float(ds.freq_grid.c)),
        "source_seed": ds.source_seed,
    }
    if header_extra:
        header.update(header_extra)
    blob = json.dumps(header, sort_keys=True).encode()
    rec_dtype = _record_dtype(ds.l_active, ds.freq_grid.k, ds.n_control)
    shapes = (rec_dtype["tensor"].shape, rec_dtype["pressures"].shape)
    with atomic_open(path) as fh:
        fh.write(MAGIC_DATASET)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        # one record in memory at a time
        for rec in ds.all_records:
            # numpy would broadcast a one-row array into the record
            if (rec.tensor.shape, rec.pressures.shape) != shapes:
                raise ValueError(f"record {rec.source_id} does not have the "
                                 f"dataset's (2L, K) and (I, K) shapes")
            fh.write(np.array((rec.source_id, rec.source.position, rec.tensor,
                               rec.pressures), rec_dtype).tobytes())


def load_dataset(path) -> tuple:
    """Returns (Dataset, header dict)."""
    with open(path, "rb") as fh:
        r = _Reader(fh, path, MAGIC_DATASET, "dataset")
        (hlen,) = r.unpack("<I", "header length")
        at = r.offset
        blob = r.take(hlen, "header")
        try:
            header = json.loads(blob.decode())
            l, k, i_cp, *counts = (header[key] for key in _DATASET_DIMS)
            seed = header["source_seed"]
            freq = FrequencyGrid(
                frequencies=np.array([float(f) for f in header["frequencies"]]),
                c=float(header["c"]))
        except (ValueError, KeyError, TypeError) as exc:
            r.fail(f"bad header ({exc!r})", at)
        if not all(isinstance(v, int) and v >= 0 for v in [l, k, i_cp, *counts]) \
                or freq.k != k:
            r.fail("bad header (dimensions)", at)
        if not (isinstance(seed, int) and seed >= 0):
            r.fail(f"bad header (source_seed {seed!r})", at)
        try:
            rec_dtype = _record_dtype(l, k, i_cp)
        except ValueError:
            r.fail("bad header (record size)", at)
        r.expect_size(r.offset + sum(counts) * rec_dtype.itemsize)
        data = np.fromfile(fh, rec_dtype, sum(counts))
    # the records' arrays are views into that one buffer
    recs = [DatasetRecord(source_id=int(row["source_id"]),
                          source=Source(position=row["position"]),
                          tensor=row["tensor"], pressures=row["pressures"])
            for row in data]
    n_train, n_val = counts[0], counts[1]
    ds = Dataset(train=recs[:n_train], val=recs[n_train:n_train + n_val],
                 test=recs[n_train + n_val:],
                 freq_grid=freq, l_active=l, n_control=i_cp,
                 source_seed=seed)
    return ds, header


# -- text / image exports ----------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_field_csv(path, points: np.ndarray, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.complex128).reshape(-1)
    lines = ["x,y,re,im"]
    for p, v in zip(np.atleast_2d(points), values):
        lines.append(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(v.real)},{_fmt(v.imag)}")
    write_text(path, "\n".join(lines) + "\n")


def write_metric_csv(path, series) -> None:
    lines = ["axis_value,mr,pm,cnn,count"]
    for i, ax in enumerate(series.axis_values):
        cells = [_fmt(ax)]
        for m in ("mr", "pm", "cnn"):
            if m in series.values:
                v = series.values[m][i]
                cells.append("nan" if np.isnan(v) else _fmt(v))
            else:
                cells.append("")
        cells.append(str(int(series.counts[i])))
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")


def write_pgm(path, values: np.ndarray, grid_shape: tuple,
              grid_index: np.ndarray) -> None:
    """8-bit binary graymap; per-image min/max normalisation.  Raster
    cells not covered by the point set stay black."""
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    ny, nx = grid_shape
    img = np.zeros((ny, nx), dtype=np.uint8)
    lo, hi = float(vals.min()), float(vals.max())
    if hi > lo:
        scaled = np.round(255 * (vals - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(len(vals), dtype=np.uint8)
    img[grid_index[:, 0], grid_index[:, 1]] = scaled
    with atomic_open(path) as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode())
        fh.write(img.tobytes())
