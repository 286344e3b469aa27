"""Binary artifact formats (model checkpoints, datasets) and the CSV /
graymap exporters.

Both binaries are little-endian: magic, version, a length-prefixed JSON
header, then the payload.  Dataset floats are IEEE 754 float64; complex
matrices go row-major with interleaved (re, im).  Checkpoint parameters
keep their own dtype, float32 or float64, which the header names.
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
from .config import METHODS
from .datasets import Dataset, DatasetRecord
from .network import SKIP_DST, SKIP_SRC, ModelParams, compensator_layers

MAGIC_MODEL = b"SFSM"
MAGIC_DATASET = b"SFSX"
MODEL_VERSION = 3
DATASET_VERSION = 1
# the parameter dtypes a checkpoint may hold, as numpy spells them
PARAM_DTYPES = ("<f4", "<f8")


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

    def __init__(self, fh, path, magic: bytes, version: int, kind: str):
        self.fh, self.path, self.offset = fh, path, 0
        self.size = os.fstat(fh.fileno()).st_size
        if self.take(4, "magic") != magic:
            self.fail(f"not a {kind} file", 0)
        (found,) = self.unpack("<I", "version")
        if found != version:
            self.fail(f"unsupported version {found}", 4)

    def fail(self, what: str, offset: int | None = None):
        raise ArtifactFormatError(self.path,
                                  self.offset if offset is None else offset, what)

    def take(self, n: int, what: str) -> bytes:
        data = self.fh.read(n)
        self.advance(len(data), n, what)
        return data

    def advance(self, got: int, n: int, what: str) -> None:
        if got != n:
            self.fail(f"short read of {what} ({got} of {n} bytes)")
        self.offset += n

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def header(self) -> dict:
        """The length-prefixed JSON object whose offset bad_header names."""
        (hlen,) = self.unpack("<I", "header length")
        self.header_at = self.offset
        blob = self.take(hlen, "header")
        try:
            header = json.loads(blob.decode())
        except ValueError as exc:         # includes UnicodeDecodeError
            self.bad_header(repr(exc))
        if not isinstance(header, dict):
            self.bad_header("not a JSON object")
        return header

    def bad_header(self, what: str):
        self.fail(f"bad header ({what})", self.header_at)

    def count(self, value, what: str) -> int:
        """`value` if it is a non-negative integer, which a bool is not."""
        if type(value) is not int or value < 0:
            self.bad_header(f"{what} {value!r} is not a non-negative integer")
        return value

    def floats(self, shape: tuple, dtype: str, what: str) -> np.ndarray:
        """An array read straight into its own buffer."""
        out = np.empty(shape, dtype)
        self.advance(self.fh.readinto(memoryview(out).cast("B")), out.nbytes,
                     what)
        return out

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


def _dumps(header: dict) -> str:
    return json.dumps(header, sort_keys=True)


def _write_header(fh, magic: bytes, version: int, header: dict) -> None:
    """Magic, version and the length-prefixed JSON header."""
    blob = _dumps(header).encode()
    fh.write(magic)
    fh.write(struct.pack("<II", version, len(blob)))
    fh.write(blob)


# -- model checkpoints -------------------------------------------------------

def _model_header(rows: int, cols: int, layers: list, dtype: str) -> dict:
    """The SFSM header of the compensator chain `layers` for a (rows, cols)
    input, with parameters of `dtype`.  Only the last layer is linear and
    has no slope; no layer has output padding."""
    last = len(layers) - 1
    return {
        "format": "sfs-model", "dtype": dtype, "l_active": rows // 2, "k": cols,
        "skip_src": SKIP_SRC, "skip_dst": SKIP_DST,
        "param_count": sum(math.prod(sp.kernel_shape()) + 2 * sp.out_ch
                           for sp in layers) - layers[last].out_ch,
        "layers": [{"kind": sp.kind, "act": "linear" if i == last else "prelu",
                    "in_ch": sp.in_ch, "out_ch": sp.out_ch,
                    "kh": sp.kh, "kw": sp.kw, "sh": sp.sh, "sw": sp.sw,
                    "ph": sp.ph, "pw": sp.pw, "oph": 0, "opw": 0}
                   for i, sp in enumerate(layers)],
    }


def save_checkpoint(path, params: ModelParams) -> None:
    """The _model_header, then the parameter blobs in declaration order,
    each written from its array's own buffer.  ValueError unless every
    array has one of PARAM_DTYPES."""
    dtype = params.dtype.str
    flat = params.flat()
    if dtype not in PARAM_DTYPES or any(p.dtype != params.dtype for p in flat):
        raise ValueError(f"checkpoint parameters must share one dtype of "
                         f"{PARAM_DTYPES}")
    with atomic_open(path) as fh:
        _write_header(fh, MAGIC_MODEL, MODEL_VERSION, _model_header(
            params.rows, params.cols, params.layers, dtype))
        for p in flat:
            fh.write(np.ascontiguousarray(p).data)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint whose header is the _model_header of the
    compensator chain for its input size and channel counts."""
    with open(path, "rb") as fh:
        r = _Reader(fh, path, MAGIC_MODEL, MODEL_VERSION, "model checkpoint")
        header = r.header()
        l_active, k = (r.count(header.get(key), key) for key in ("l_active", "k"))
        dtype = header.get("dtype")
        if dtype not in PARAM_DTYPES:
            r.bad_header(f"dtype {dtype!r} is not one of {PARAM_DTYPES}")
        try:
            out_ch = [layer["out_ch"] for layer in header["layers"][:-1]]
        except (KeyError, TypeError) as exc:
            r.bad_header(f"layer table {exc!r}")
        # the output layer's one channel is checked with the whole header
        channels = tuple(r.count(c, "out_ch") for c in out_ch) + (1,)
        rows = 2 * l_active
        try:
            layers = compensator_layers(rows, k, channels)
        except ValueError as exc:
            r.bad_header(str(exc))
        # compared as JSON text, in which true is not 1
        want = _model_header(rows, k, layers, dtype)
        if _dumps(header) != _dumps(want):
            r.bad_header(f"not that of the {rows}x{k} compensator chain with "
                         f"channels {channels}")
        r.expect_size(r.offset + np.dtype(dtype).itemsize * want["param_count"])
        kernels, biases, slopes = [], [], []
        for i, sp in enumerate(layers):
            kernels.append(r.floats(sp.kernel_shape(), dtype,
                                    f"layer {i} kernel"))
            biases.append(r.floats((sp.out_ch,), dtype, f"layer {i} bias"))
            slopes.append(r.floats((sp.out_ch,), dtype, f"layer {i} slope")
                          if i < len(layers) - 1 else None)
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
        "format": "sfs-dataset", "version": DATASET_VERSION,
        "l_active": ds.l_active, "k": ds.freq_grid.k, "i_cp": ds.n_control,
        "n_train": len(ds.train), "n_val": len(ds.val), "n_test": len(ds.test),
        "frequencies": [repr(float(f)) for f in ds.freq_grid.frequencies],
        "c": repr(float(ds.freq_grid.c)),
        "source_seed": ds.source_seed,
    }
    if header_extra:
        header.update(header_extra)
    rec_dtype = _record_dtype(ds.l_active, ds.freq_grid.k, ds.n_control)
    shapes = (rec_dtype["tensor"].shape, rec_dtype["pressures"].shape)
    with atomic_open(path) as fh:
        _write_header(fh, MAGIC_DATASET, DATASET_VERSION, header)
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
        r = _Reader(fh, path, MAGIC_DATASET, DATASET_VERSION, "dataset")
        header = r.header()
        l, k, i_cp, *counts, seed = (r.count(header.get(key), key) for key in (
            "l_active", "k", "i_cp", "n_train", "n_val", "n_test", "source_seed"))
        try:
            freq = FrequencyGrid(
                frequencies=np.array([float(f) for f in header["frequencies"]]),
                c=float(header["c"]))
        except (ValueError, KeyError, TypeError) as exc:
            r.bad_header(repr(exc))
        if freq.k != k:
            r.bad_header(f"{freq.k} frequencies for k {k}")
        try:
            rec_dtype = _record_dtype(l, k, i_cp)
        except ValueError:
            r.bad_header("record size")
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
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    # Python floats from tolist() print as _fmt prints them
    columns = (points[:, 0].tolist(), points[:, 1].tolist(),
               values.real.tolist(), values.imag.tolist())
    lines = ["x,y,re,im"]
    lines += [f"{x!r},{y!r},{re!r},{im!r}" for x, y, re, im in zip(*columns)]
    write_text(path, "\n".join(lines) + "\n")


def write_metric_csv(path, series) -> None:
    lines = [",".join(["axis_value", *METHODS, "count"])]
    for i, ax in enumerate(series.axis_values):
        cells = [_fmt(ax)]
        for m in METHODS:
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
