"""Source-set protocols and dataset construction."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sfsynth.acoustics import (
    FrequencyGrid,
    green_matrix,
    herglotz_coefficients,
    herglotz_point_source,
    herglotz_rows,
)
from sfsynth.compensator import pack_driving
from sfsynth.config import desk_config
from sfsynth.datasets import (
    SourceSplit,
    build_dataset,
    control_pressures,
    gen_sources_circular,
    gen_sources_linear,
    mr_driving_matrix,
)
from sfsynth.evaluation import SweepContext
from sfsynth.geometry import (
    ListeningArea,
    decimate_array,
    make_circular_array,
    sample_control_points,
)
from sfsynth.renderers import (
    mr_circular_driving,
    mr_linear_driving,
    pm_operator,
    pm_operators,
)


def test_circular_full_scale_counts():
    split = gen_sources_circular(20, 128, (1.5, 3.5), 0.05, seed=0,
                                 val_count=512, n_test=None)
    assert len(split.train) == 2048
    assert len(split.val) == 512
    assert len(split.test) == 2560


def test_circular_degenerate_range():
    split = gen_sources_circular(1, 4, (2.0, 2.0), 0.1, seed=1, val_count=1, n_test=None)
    pool = np.concatenate([split.train, split.val])
    assert len(pool) == 4
    for s in pool:
        assert np.hypot(*s) == pytest.approx(2.0)
    for s in split.test:
        assert np.hypot(*s) == pytest.approx(2.1)


def test_circular_deterministic():
    a = gen_sources_circular(3, 8, (1.5, 3.5), 0.05, seed=7, val_count=4, n_test=None)
    b = gen_sources_circular(3, 8, (1.5, 3.5), 0.05, seed=7, val_count=4, n_test=None)
    for sa, sb in zip(a.all_sources, b.all_sources):
        assert np.array_equal(sa, sb)


def test_circular_test_subsample():
    split = gen_sources_circular(4, 8, (1.5, 3.5), 0.05, seed=2,
                                 val_count=8, n_test=10)
    assert len(split.test) == 10


def test_circular_shift_is_radial():
    split = gen_sources_circular(2, 4, (2.0, 3.0), 0.05, seed=3, val_count=2, n_test=None)
    pool = {round(np.arctan2(s[1], s[0]), 12)
            for s in np.concatenate([split.train, split.val])}
    for t in split.test:
        assert round(np.arctan2(t[1], t[0]), 12) in pool


def test_split_disjointness():
    split = gen_sources_circular(5, 16, (1.5, 3.5), 0.05, seed=4,
                                 val_count=16, n_test=None)
    seen = set()
    for s in split.all_sources:
        key = (float(s[0]), float(s[1]))
        assert key not in seen
        seen.add(key)


def test_split_rejects_shared_source():
    # catches a test shift that lands on a train or validation source
    src = np.array([2.0, 0.5])
    with pytest.raises(ValueError, match="both train and test"):
        SourceSplit(train=src[None], val=[], test=src[None], seed=0)


def test_linear_counts_and_region():
    region = (1.2, 3.2, -2.0, 2.0)
    split = gen_sources_linear(20, 5, 25, region, 0.08, seed=5, x0=1.0)
    assert (len(split.train), len(split.val), len(split.test)) == (20, 5, 25)
    pool = np.concatenate([split.train, split.val])
    for s in pool:
        assert region[0] <= s[0] <= region[1]
        assert region[2] <= s[1] <= region[3]
    # test sources are +x shifts
    pool_y = sorted(round(float(s[1]), 12) for s in pool)
    for t in split.test:
        assert round(float(t[1]), 12) in pool_y


def test_linear_tiny_counts():
    split = gen_sources_linear(1, 1, 2, (1.2, 3.2, -2, 2), 0.08, seed=6,
                               x0=1.0)
    assert len(split.all_sources) == 4
    keys = {tuple(s) for s in split.all_sources}
    assert len(keys) == 4


@pytest.mark.parametrize("bad", [np.full((3, 3), 2.0),
                                 np.full((2, 2, 2), 2.0)],
                         ids=["S-by-3", "three-axes"])
def test_every_source_taker_refuses_other_shapes(bad):
    # one position form: anything but (S, 2) (or one (2,) position) is a
    # ValueError, wherever sources go in
    circ = make_circular_array(16, 1.0)
    cfg = desk_config("linear")
    lin, cp = cfg.array(), cfg.control_points()
    fg = FrequencyGrid.uniform(100.0, 100.0, 2, 343.0)
    ops = pm_operators(lin, cp, fg, 1e-2)
    omega, good = fg.angular[0], np.array([[2.0, 0.5]])
    takers = {
        "herglotz_rows": lambda: next(herglotz_rows([omega], bad, [3],
                                                    fg.c)),
        "herglotz_coefficients": lambda: herglotz_coefficients(
            omega, bad, 3, fg.c),
        "herglotz_point_source": lambda: herglotz_point_source(
            np.linspace(0, 1, 5), omega, bad, 3, fg.c),
        "mr_circular_driving": lambda: mr_circular_driving(
            circ, bad, omega, fg.c, listening_radius=0.8),
        "mr_linear_driving": lambda: mr_linear_driving(
            lin, bad, cp, ops[0], omega, fg.c, listening_radius=0.8),
        "mr_driving_matrix circular": lambda: mr_driving_matrix(
            circ, bad, fg, cp, ops, 0.8),
        "mr_driving_matrix linear": lambda: mr_driving_matrix(
            lin, bad, fg, cp, ops, 0.8),
        "control_pressures": lambda: control_pressures(bad, cp, fg),
        "SourceSplit": lambda: SourceSplit(train=bad, val=good,
                                           test=good + 1.0, seed=0),
        "SweepContext": lambda: SweepContext(array=circ, points=cp,
                                             freq_grid=fg, sources=bad,
                                             driving={}),
    }
    for take in takers.values():
        with pytest.raises(ValueError, match=r"\(S, 2\)"):
            take()


def test_linear_region_validation():
    with pytest.raises(ValueError):
        gen_sources_linear(2, 1, 1, (0.5, 3.0, -2, 2), 0.08, seed=0, x0=1.0)
    with pytest.raises(ValueError):
        gen_sources_linear(2, 1, 5, (1.2, 3.2, -2, 2), 0.08, seed=0, x0=1.0)


@pytest.fixture(scope="module")
def small_dataset():
    arr = decimate_array(make_circular_array(16, 1.0), 8, seed=97)
    cp = sample_control_points(ListeningArea.disk(0.8, 0.04), 20,
                               clearance_from=arr)
    fg = FrequencyGrid.uniform(46.0, 23.0, 15, 343.0)
    split = gen_sources_circular(2, 3, (1.6, 2.4), 0.05, seed=8, val_count=2, n_test=None)
    ds = build_dataset(arr, split, cp, fg, pm_operators(arr, cp, fg, 1e-2),
                       listening_radius=0.8)
    return arr, cp, fg, split, ds


def test_dataset_shapes(small_dataset):
    arr, cp, fg, split, ds = small_dataset
    rec = ds.train[0]
    assert rec.tensor.shape == (2 * arr.active_count, fg.k)
    assert rec.pressures.shape == (len(cp), fg.k)
    assert len(ds.all_records) == len(split.all_sources)
    ids = [r.source_id for r in ds.all_records]
    assert ids == sorted(ids)


def test_dataset_pressures_match_unit_monopole(small_dataset):
    # the stored ground truth equals the field of a unit monopole placed
    # at the record's position
    arr, cp, fg, split, ds = small_dataset
    rec = ds.val[0]
    for ki, omega in enumerate(fg.angular):
        ref = green_matrix(cp.points, rec.source.position[None, :], omega,
                           fg.c)[:, 0]
        assert np.allclose(rec.pressures[:, ki], ref, rtol=1e-12)


def test_dataset_rebuild_identical(small_dataset):
    arr, cp, fg, split, ds = small_dataset
    ds2 = build_dataset(arr, split, cp, fg, pm_operators(arr, cp, fg, 1e-2),
                        listening_radius=0.8)
    for a, b in zip(ds.all_records, ds2.all_records):
        assert np.array_equal(a.tensor, b.tensor)
        assert np.array_equal(a.pressures, b.pressures)


def _reference_records(array, sources, cp, fg, lam, radius):
    """Source-major reference: one MR call and one Green's vector per
    (source, frequency), as (packed tensor, pressures) per source."""
    out = []
    for src in sources:
        d = np.empty((array.active_count, fg.k), dtype=np.complex128)
        p = np.empty((len(cp), fg.k), dtype=np.complex128)
        for ki, omega in enumerate(fg.angular):
            if array.family == "circular":
                d[:, ki] = mr_circular_driving(array, src[None], omega, fg.c,
                                               listening_radius=radius)[:, 0]
            else:
                op = pm_operator(array, cp, omega, lam, fg.c)
                d[:, ki] = mr_linear_driving(array, src[None], cp, op, omega,
                                             fg.c,
                                             listening_radius=radius)[:, 0]
            p[:, ki] = green_matrix(cp.points, src[None, :],
                                    omega, fg.c)[:, 0]
        out.append((pack_driving(d), p))
    return out


def _assert_matches_reference(array, split, cp, fg, lam, radius):
    ds = build_dataset(array, split, cp, fg,
                       pm_operators(array, cp, fg, lam), radius)
    ref = _reference_records(array, split.all_sources, cp, fg, lam, radius)
    assert len(ds.all_records) == len(ref)
    for rec, (tensor, pressures) in zip(ds.all_records, ref):
        assert rec.tensor.tobytes() == tensor.tobytes()
        assert rec.pressures.tobytes() == pressures.tobytes()


def test_build_matches_per_source_loop_circular(small_dataset):
    arr, cp, fg, split, _ = small_dataset
    _assert_matches_reference(arr, split, cp, fg, 1e-2, 0.8)


def test_build_matches_per_source_loop_linear():
    cfg = replace(desk_config("linear"), n_train_linear=4, n_val_linear=2,
                  n_test_linear=2)
    _assert_matches_reference(cfg.array(), cfg.source_split(),
                              cfg.control_points(), cfg.freq_grid(), cfg.lam,
                              cfg.mr_listening_radius())


def _bessel_calls(monkeypatch):
    """Argument count of every bessel_j_orders and bessel_y_orders call."""
    from sfsynth import bessel
    sizes = {"j": [], "y": []}
    for key, name in (("j", "bessel_j_orders"), ("y", "bessel_y_orders")):
        def counted(m_max, x, _f=getattr(bessel, name), _key=key):
            sizes[_key].append(np.size(x))
            return _f(m_max, x)
        monkeypatch.setattr(bessel, name, counted)
    return sizes


@pytest.mark.parametrize("family", ["circular", "linear"])
def test_mr_hankel_rows_of_every_frequency_in_one_pass(monkeypatch, family):
    # the MR driving of every source and frequency takes its Hankel rows
    # from one Bessel call, not one or two per frequency; with a small
    # block, no call sees more than a block and the bits stay the same
    from sfsynth import bessel
    cfg = desk_config(family)
    arr, cp, fg = cfg.array(), cfg.control_points(), cfg.freq_grid()
    ops = pm_operators(arr, cp, fg, cfg.lam)
    sources = cfg.source_split().all_sources

    def drive():
        return mr_driving_matrix(arr, sources, fg, cp, ops,
                                 cfg.mr_listening_radius())

    sizes = _bessel_calls(monkeypatch)
    whole = drive()
    assert len(sizes["j"]) == len(sizes["y"]) <= 2
    monkeypatch.setattr(bessel, "_BLOCK", 64)
    sizes["j"].clear()
    sizes["y"].clear()
    blocked = drive()
    assert len(sizes["j"]) > 2
    assert max(sizes["j"] + sizes["y"]) <= 64
    assert blocked.tobytes() == whole.tobytes()


def test_build_holds_no_second_pressure_array():
    # the control pressures go into the records one frequency at a time.
    # Here the records are ~90 % pressures, and the build peaks at 1.33
    # times their bytes; a copy of all K pressures beside them peaks at 2.17
    cfg = replace(desk_config(), n_angles=64)
    array, cp, freq = cfg.array(), cfg.control_points(), cfg.freq_grid()
    split, ops = cfg.source_split(), pm_operators(array, cp, freq, cfg.lam)
    tracemalloc.start()
    try:
        ds = build_dataset(array, split, cp, freq, ops,
                           cfg.mr_listening_radius())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.all_records.nbytes > 20e6
    assert peak < 1.75 * ds.all_records.nbytes


def test_source_inside_array_names_the_source(small_dataset):
    arr, cp, fg, split, _ = small_dataset
    inside = np.array([0.0, 0.9])
    split = SourceSplit(train=split.train,
                        val=np.concatenate([inside[None], split.val[1:]]),
                        test=split.test, seed=split.seed)
    sid = len(split.train)
    with pytest.raises(RuntimeError,
                       match=rf"^dataset build failed for source {sid} at "
                             rf"\[0\.0, 0\.9\]$") as info:
        build_dataset(arr, split, cp, fg, pm_operators(arr, cp, fg, 1e-2),
                      listening_radius=0.8)
    assert isinstance(info.value.__cause__, ValueError)


def test_non_geometry_error_propagates_without_retry(small_dataset,
                                                     monkeypatch):
    import sfsynth.datasets as datasets
    arr, cp, fg, split, _ = small_dataset
    calls = []

    def no_memory(sources, *args):
        calls.append(len(sources))
        raise MemoryError

    monkeypatch.setattr(datasets, "control_pressures", no_memory)
    with pytest.raises(MemoryError):
        build_dataset(arr, split, cp, fg, pm_operators(arr, cp, fg, 1e-2),
                      listening_radius=0.8)
    assert calls == [len(split.all_sources)]
