"""Property-based checks: packing and propagation over random shapes,
batched Bessel calls against per-argument calls, the binary formats'
round trips and truncation handling, and the config JSON round trip."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfsynth.acoustics import FrequencyGrid
from sfsynth.bessel import (
    bessel_j_orders,
    bessel_y_orders,
    hankel2_orders,
    hankel2_sym_range,
    hankel2_zero,
    jy01,
)
from sfsynth.compensator import pack_driving, predict_control_pressure, unpack_driving
from sfsynth.config import METHODS, ExperimentConfig, desk_config
from sfsynth.datasets import Dataset, record_dtype
from sfsynth.fileio import (
    ArtifactFormatError,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from sfsynth.network import init_params

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
FAST = settings(max_examples=30, deadline=None)

# (L, K) or (L, K, B)
driving_shapes = st.tuples(st.integers(1, 6), st.integers(1, 6)) | \
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))


@st.composite
def complex_arrays(draw, shape):
    re = draw(arrays(np.float64, shape, elements=FINITE))
    im = draw(arrays(np.float64, shape, elements=FINITE))
    return re + 1j * im


@FAST
@given(st.data(), driving_shapes)
def test_pack_unpack_roundtrip(data, shape):
    d = data.draw(complex_arrays(shape))
    t = pack_driving(d)
    assert t.shape == (2 * shape[0],) + shape[1:]
    assert np.array_equal(unpack_driving(t), d)


@FAST
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 4))
def test_batched_propagation_matches_per_sample(data, l, k, i, b):
    g = data.draw(complex_arrays((k, i, l)))
    d = data.draw(complex_arrays((l, k, b)))
    p = predict_control_pressure(d, g)
    assert p.shape == (i, k, b)
    for j in range(b):
        assert np.allclose(p[:, :, j], predict_control_pressure(d[:, :, j], g),
                           rtol=1e-12, atol=1e-6)


# the oracle's range: orders up to 60, arguments in [1e-3, 100]
bessel_arguments = st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=8)


@FAST
@given(st.integers(0, 60), bessel_arguments, st.data())
def test_batched_bessel_rows_equal_scalar_calls(m_max, xs, data):
    x = np.array(xs)
    rows = {f: f(m_max, x) for f in (bessel_j_orders, bessel_y_orders,
                                     hankel2_sym_range)}
    columns = jy01(x)
    for i, xi in enumerate(xs):
        for f, got in rows.items():
            assert np.array_equal(got[i], f(m_max, xi)), (f.__name__, xi)
        for got, want in zip(columns, jy01(np.array([xi]))):
            assert np.array_equal(got[i:i + 1], want), xi
    # an order per argument: each row holds the one-argument call at its
    # own order bit for bit, then zeros up to the highest order
    orders = np.array(data.draw(st.lists(st.integers(0, 60), min_size=len(xs),
                                         max_size=len(xs))))
    for f in (bessel_j_orders, bessel_y_orders, hankel2_orders):
        got = f(orders, x)
        assert got.shape == (len(xs), orders.max() + 1)
        for i, (xi, mi) in enumerate(zip(xs, orders)):
            want = f(int(mi), xi)
            assert got[i, :mi + 1].tobytes() == want.tobytes(), (f.__name__,
                                                                 xi, mi)
            assert not got[i, mi + 1:].any()


def test_overflow_checked_at_each_rows_own_order():
    # Y_70(1e-3) leaves the double range; Y_5(1e-3) beside a row at order
    # 60 does not, and nothing past its own order is checked
    y = bessel_y_orders(np.array([5, 60]), np.array([1e-3, 50.0]))
    assert np.isfinite(y).all() and not y[0, 6:].any()
    with pytest.raises(OverflowError, match=r"Y_\d+\(0.001\)"):
        bessel_y_orders(np.array([70, 60]), np.array([1e-3, 50.0]))
    with pytest.raises(OverflowError):
        hankel2_orders(np.array([60, 70]), np.array([50.0, 1e-3]))


@FAST
@given(st.lists(st.floats(1e-3, 16.0), min_size=1, max_size=8),
       st.lists(st.floats(16.0, 100.0, exclude_min=True), max_size=8),
       st.randoms(use_true_random=False))
def test_order_zero_path_equals_jy01_bits(series_xs, asymptotic_xs, rnd):
    # arguments on both sides of the cutoff, in any order, in one batch
    xs = series_xs + asymptotic_xs
    rnd.shuffle(xs)
    x = np.array(xs)
    j0, y0, _, _ = jy01(x)
    assert hankel2_zero(x).tobytes() == (j0 - 1j * y0).tobytes()


@FAST
@given(st.lists(st.floats(1e-3, 16.0), min_size=1, max_size=6),
       st.lists(st.floats(16.0, 100.0, exclude_min=True), max_size=6),
       st.lists(st.integers(0, 11), max_size=24), st.integers(0, 60),
       st.randoms(use_true_random=False))
def test_repeated_arguments_get_their_distinct_batch_bits(
        series_xs, asymptotic_xs, repeats, m_max, rnd):
    # every distinct value at least once, then repeats, shuffled
    distinct = np.unique(series_xs + asymptotic_xs)
    pick = list(range(len(distinct))) + [r % len(distinct) for r in repeats]
    rnd.shuffle(pick)
    x = distinct[pick]
    assert hankel2_zero(x).tobytes() == hankel2_zero(distinct)[pick].tobytes()
    for got, want in zip(jy01(x), jy01(distinct)):
        assert got.tobytes() == want[pick].tobytes()
    assert (hankel2_sym_range(m_max, x).tobytes()
            == hankel2_sym_range(m_max, distinct)[pick].tobytes())


@st.composite
def small_models(draw):
    # float32 as training returns them, float64 as init_params draws them
    rows = 2 * draw(st.integers(8, 11))
    cols = draw(st.integers(15, 20))
    channels = tuple(draw(st.integers(1, 3)) for _ in range(6)) + (1,)
    return init_params(rows, cols, seed=draw(st.integers(0, 2 ** 16)),
                       channels=channels).astype(
                           draw(st.sampled_from(["<f4", "<f8"])))


@st.composite
def small_datasets(draw):
    l = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    i_cp = draw(st.integers(1, 4))
    counts = [draw(st.integers(1, 2)) for _ in range(3)]
    records = np.recarray(sum(counts), record_dtype(l, k, i_cp))
    for sid, rec in enumerate(records):
        rec.source_id = sid
        rec.source.position = draw(arrays(np.float64, 2, elements=FINITE))
        rec.tensor = draw(arrays(np.float64, (2 * l, k), elements=FINITE))
        rec.pressures = draw(complex_arrays((i_cp, k)))
    return Dataset(all_records=records, n_train=counts[0], n_val=counts[1],
                   freq_grid=FrequencyGrid.uniform(46.0, 23.0, k, 343.0),
                   source_seed=draw(st.integers(0, 100)))


def _saved_bytes(save, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        save(path, obj)
        return path.read_bytes()


def _load_bytes(load, raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        path.write_bytes(raw)
        return load(path)


@FAST
@given(small_models())
def test_checkpoint_roundtrip_random_shapes(params):
    back = _load_bytes(load_checkpoint,
                       _saved_bytes(save_checkpoint, params))
    assert (back.rows, back.cols) == (params.rows, params.cols)
    assert back.layers == params.layers
    for a, b in zip(params.flat(), back.flat()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@FAST
@given(small_datasets())
def test_dataset_roundtrip_random_shapes(ds):
    back, header = _load_bytes(load_dataset, _saved_bytes(save_dataset, ds))
    assert header["source_seed"] == ds.source_seed
    assert [len(g) for g in (back.train, back.val, back.test)] == \
        [len(g) for g in (ds.train, ds.val, ds.test)]
    assert np.array_equal(back.freq_grid.frequencies, ds.freq_grid.frequencies)
    for a, b in zip(ds.all_records, back.all_records):
        assert a.source_id == b.source_id
        assert np.array_equal(a.source.position, b.source.position)
        assert np.array_equal(a.tensor, b.tensor)
        assert np.array_equal(a.pressures, b.pressures)


@pytest.mark.parametrize("save,load,strategy", [
    (save_checkpoint, load_checkpoint, small_models()),
    (save_dataset, load_dataset, small_datasets()),
], ids=["checkpoint", "dataset"])
def test_every_strict_prefix_is_rejected(save, load, strategy):
    @FAST
    @given(st.data())
    def check(data):
        raw = _saved_bytes(save, data.draw(strategy))
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ArtifactFormatError):
            _load_bytes(load, raw[:cut])

    check()


# any value of each JSON field type a config holds; schema_version and the
# string family are fixed values, not ranges
FINITE_ANY = st.floats(allow_nan=False, allow_infinity=False)
_FIELD_VALUES = {
    "int": st.integers(),
    "int | None": st.none() | st.integers(),
    "float": FINITE_ANY,
    "tuple[str, ...]": st.lists(st.sampled_from(METHODS), min_size=1,
                                unique=True).map(tuple),
    "tuple[float, float]": st.tuples(FINITE_ANY, FINITE_ANY),
}
config_values = st.fixed_dictionaries({
    name: _FIELD_VALUES[f.type]
    for name, f in ExperimentConfig.__dataclass_fields__.items()
    if name != "schema_version" and f.type in _FIELD_VALUES})


@FAST
@given(config_values)
def test_config_json_roundtrip(values):
    cfg = replace(desk_config(), **values)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
