"""Special-function checks against the independent series oracle."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsynth.bessel import (
    MAX_VERIFIED_ORDER,
    bessel_j_orders,
    bessel_y_orders,
    hankel2_orders,
    hankel2_sym_range,
    hankel2_zero,
    jy01,
)

FIXTURE = Path(__file__).parent / "fixtures" / "bessel_oracle.csv"


def load_oracle():
    rows = []
    with open(FIXTURE) as fh:
        for row in csv.DictReader(fh):
            rows.append((int(row["m"]), float(row["x"]),
                         float(row["J"]), float(row["Y"])))
    return rows


ORACLE = load_oracle()


def test_fixture_size():
    assert len(ORACLE) >= 500


def test_oracle_reaches_the_verified_order():
    # MAX_VERIFIED_ORDER, the bound configs are held to, is the largest
    # order the oracle samples
    assert max(m for m, *_ in ORACLE) == MAX_VERIFIED_ORDER


def test_hankel2_matches_oracle_complex_relative():
    worst = 0.0
    for m, x, j, y in ORACLE:
        h_ref = j - 1j * y
        h = hankel2_orders(m, x)[m]
        worst = max(worst, abs(h - h_ref) / abs(h_ref))
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"


def test_known_values():
    h = hankel2_orders(0, 1.0)[0]
    assert h.real == pytest.approx(0.7651976865579666, rel=1e-10)
    assert h.imag == pytest.approx(-0.08825696421567696, rel=1e-9)
    h = hankel2_orders(1, 2.0)[1]
    assert h.real == pytest.approx(0.5767248077568734, rel=1e-10)
    assert h.imag == pytest.approx(0.10703243154093754, rel=1e-9)


def test_negative_order_parity():
    # H_(-m) = (-1)^m H_m; hankel2_sym_range holds m = -M..M at m + M
    for m in (1, 2, 5, 17):
        h = hankel2_sym_range(m, 2.0)
        assert h[0] == pytest.approx(((-1) ** m) * h[2 * m])


def test_wronskian_invariant():
    # J_m Y_{m+1} - J_{m+1} Y_m = -2/(pi x)
    rng = np.random.default_rng(1)
    for _ in range(150):
        m = int(rng.integers(0, 41))
        x = float(rng.uniform(0.1, 50.0))
        j = bessel_j_orders(m + 1, x)
        y = bessel_y_orders(m + 1, x)
        lhs = j[m] * y[m + 1] - j[m + 1] * y[m]
        ref = -2.0 / (np.pi * x)
        assert abs(lhs - ref) / abs(ref) <= 1e-9


def test_recurrence_invariant():
    # H_{m-1} + H_{m+1} = (2m/x) H_m
    rng = np.random.default_rng(2)
    for _ in range(150):
        m = int(rng.integers(1, 40))
        x = float(rng.uniform(0.1, 50.0))
        h = hankel2_orders(m + 1, x)
        lhs = h[m - 1] + h[m + 1]
        rhs = (2 * m / x) * h[m]
        assert abs(lhs - rhs) / abs(rhs) <= 1e-9


def test_vectorized_zero_order_matches_scalar():
    # the order-0 path (tables/asymptotics) and the order rows (J from
    # Miller) are different algorithms; they must agree to near machine
    # precision
    xs = np.array([1e-3, 0.5, 2.0, 15.9, 16.1, 60.0, 99.0])
    vec = hankel2_zero(xs)
    for xv, hv in zip(xs, vec):
        ref = hankel2_orders(0, float(xv))[0]
        assert abs(hv - ref) / abs(ref) < 1e-12


def test_series_asymptotic_seam_continuity():
    # both branches must agree near the switch point: the Wronskian
    # J1 Y0 - J0 Y1 = 2/(pi x) holds on either side, and the order-0
    # path gives jy01's bits on either side
    for x in (15.999, 16.0, 16.001):
        j0, y0, j1, y1 = jy01(np.array([x]))
        assert abs(j1[0] * y0[0] - j0[0] * y1[0] - 2 / (np.pi * x)) < 1e-14
        assert (hankel2_zero(np.array([x])).tobytes()
                == (j0 - 1j * y0).tobytes())


bessel_series_args = st.lists(st.floats(1e-3, 16.0), min_size=1, max_size=8)
bessel_asymptotic_args = st.lists(st.floats(16.0, 100.0, exclude_min=True),
                                  max_size=8)


@settings(max_examples=40, deadline=None)
@given(bessel_series_args, bessel_asymptotic_args,
       st.lists(st.integers(0, 15), max_size=24),
       st.randoms(use_true_random=False))
def test_each_value_depends_on_its_argument_alone(series_xs, asymptotic_xs,
                                                  repeats, rnd):
    # an argument gets the bits of a call on it alone, whatever batch it
    # sits in: permuted, repeated, or mixed with arguments above 16
    xs = series_xs + asymptotic_xs
    xs += [xs[r % len(xs)] for r in repeats]
    rnd.shuffle(xs)
    x = np.array(xs)
    h = hankel2_zero(x)
    columns = jy01(x)
    for i, xi in enumerate(xs):
        alone = np.array([xi])
        assert h[i:i + 1].tobytes() == hankel2_zero(alone).tobytes(), xi
        for got, want in zip(columns, jy01(alone)):
            assert got[i:i + 1].tobytes() == want.tobytes(), xi


def test_batches_longer_than_a_block_keep_the_bits():
    # orders 0 and 1 run a block of arguments at a time, the tables and
    # the expansion alike; a batch of several blocks, on both sides of
    # the cutoff, gives the bits of short calls on its pieces
    from sfsynth.bessel import _BLOCK
    x = np.random.default_rng(4).uniform(1e-3, 100.0, 3 * _BLOCK + 5)
    assert 0.1 < np.mean(x <= 16.0) < 0.9
    pieces = np.array_split(x, 37)
    assert hankel2_zero(x).tobytes() == b"".join(
        hankel2_zero(p).tobytes() for p in pieces)
    for got, *want in zip(jy01(x), *(jy01(p) for p in pieces)):
        assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("low,high", [(1e-3, 16.0), (16.001, 100.0)],
                         ids=["tables", "expansion"])
def test_order_zero_memory_is_the_result_plus_one_block(low, high):
    # 2^20 arguments on one side of the cutoff: the peak is the 16-byte
    # result per argument and one block's temporaries, not temporaries
    # per argument
    import tracemalloc
    x = np.random.default_rng(6).uniform(low, high, 1 << 20)
    tracemalloc.start()
    try:
        hankel2_zero(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(x) <= 24, f"{peak / len(x):.1f} bytes per argument"


def test_tables_match_long_double_series():
    # 200 arguments in every table interval against the long-double
    # series the tables are fitted to, as complex H0 and H1.  Up to 10
    # the series keeps about 15 digits and the bound is a few ulps;
    # above, it loses 0.43*x digits to cancellation (~12 left at 16),
    # so there the bound is 1e-12
    from sfsynth import bessel
    width = bessel.TABLE_WIDTH
    intervals = round(bessel.SERIES_CUTOFF / width)
    rng = np.random.default_rng(3)
    x = (np.arange(intervals)[:, None] + rng.uniform(0, 1, (intervals, 200)))
    x = np.maximum(x.ravel() * width, 1e-3)
    j0, s0, j1, s1 = bessel._series(x)
    xl = x.astype(np.longdouble)
    ln_g = np.log(xl / 2) + bessel._EULER_GAMMA
    y0 = 2 / bessel._PI * (ln_g * j0 - s0)
    y1 = 2 / bessel._PI * (ln_g * j1 - 1 / xl - s1 / 2)
    refs = [(j - 1j * y.astype(np.float64)).astype(np.complex128)
            for j, y in ((j0, y0), (j1, y1))]
    tj0, ty0, tj1, ty1 = jy01(x)
    bound = np.where(x <= 10, 2e-15, 1e-12)
    for got, ref in zip((tj0 - 1j * ty0, tj1 - 1j * ty1), refs):
        rel = np.abs(got - ref) / np.abs(ref)
        assert (rel <= bound).all(), (x[rel > bound], rel[rel > bound])


def test_each_distinct_argument_evaluated_once(monkeypatch):
    # repeated arguments reach the Miller recurrence once, and every row
    # gets the bits of the one-argument call
    from sfsynth import bessel
    j_rows, j_args = [], []
    j_orders = bessel.bessel_j_orders
    monkeypatch.setattr(bessel, "bessel_j_orders", lambda m_max, x: (
        j_rows.append(np.size(x)) or j_args.append(np.array(x))
        or j_orders(m_max, x)))
    rows = hankel2_sym_range(5, np.full(64, 3.0))
    assert j_rows == [1]
    assert rows.shape == (64, 11)
    assert (rows == hankel2_sym_range(5, 3.0)).all()
    # with an order per argument, each distinct (argument, order) pair
    # reaches it once, in ascending argument order
    j_rows.clear()
    orders = np.array([5, 7, 5, 2, 7, 5, 2])
    x = np.array([3.0, 3.0, 3.0, 9.0, 3.0, 1.5, 9.0])
    h = hankel2_orders(orders, x)
    assert j_rows == [4]
    assert j_args[-1].tolist() == [1.5, 3.0, 3.0, 9.0]
    assert h.shape == (7, 8)
    for row, m, xi in zip(h, orders, x):
        assert row[:m + 1].tobytes() == hankel2_orders(int(m), xi).tobytes()
        assert not row[m + 1:].any()


def test_domain_errors():
    with pytest.raises(ValueError):
        hankel2_orders(0, 0.0)
    with pytest.raises(ValueError):
        hankel2_orders(0, -1.0)
    with pytest.raises(ValueError):
        jy01(np.array([1.0, np.nan]))


@pytest.mark.parametrize("orders", [bessel_j_orders, bessel_y_orders,
                                    hankel2_orders, hankel2_sym_range])
def test_negative_order_refused(orders):
    for x in (1.0, np.array([0.5, 20.0]), np.array([])):
        with pytest.raises(ValueError, match="m_max must be >= 0"):
            orders(-1, x)


def test_overflow_reported_not_inf():
    # Y_70(1e-3) is beyond the double range; Y_60(1e-3) ~ -5e277 still fits
    with pytest.raises(OverflowError):
        bessel_y_orders(70, 1e-3)
    assert np.isfinite(bessel_y_orders(60, 1e-3)[60])


def test_empty_argument_array():
    assert bessel_j_orders(3, np.array([])).shape == (0, 4)
    assert bessel_y_orders(3, np.array([])).shape == (0, 4)
    assert hankel2_sym_range(3, np.array([])).shape == (0, 7)


def test_sym_range_layout():
    m = 4
    h = hankel2_sym_range(m, 3.0)
    assert len(h) == 2 * m + 1
    # rows of another m_max recurse from a different Miller start order,
    # so match to near machine precision rather than bit-for-bit
    for off, order in ((m, 0), (m + 2, 2), (m - 3, -3)):
        sign = (-1.0) ** order if order < 0 else 1.0
        ref = sign * hankel2_orders(abs(order), 3.0)[abs(order)]
        assert abs(h[off] - ref) / abs(ref) < 1e-13


def test_sym_range_order_zero_is_order_row():
    # with m_max = 0 the symmetric range is the single order-0 column
    for x in (3.0, np.array([0.5, 3.0, 17.0, 40.0])):
        h = hankel2_sym_range(0, x)
        ref = hankel2_orders(0, x)
        assert h.shape == ref.shape and h.dtype == ref.dtype
        assert h.tobytes() == ref.tobytes()


def test_tiny_order_value_underflow_zone():
    # J_60(1e-3) ~ 1e-280 must come back with full relative accuracy
    row = None
    for m, x, j, y in ORACLE:
        if m >= 55 and x < 5e-3:
            row = (m, x, j, y)
            break
    if row is None:
        pytest.skip("fixture draw contains no deep-underflow pair")
    m, x, j, y = row
    jv, yv = bessel_j_orders(m, x)[m], bessel_y_orders(m, x)[m]
    assert jv == pytest.approx(j, rel=1e-9)
    assert yv == pytest.approx(y, rel=1e-9)
