"""Special-function checks against the independent series oracle."""

import csv
from pathlib import Path

import numpy as np
import pytest

from sfsynth.bessel import (
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
    # the order-0 path (series/asymptotics) and the order rows (J from
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


def test_order_zero_stop_follows_largest_series_argument():
    # the series stops on the term of the largest argument <= 16; where
    # that argument sits in the batch must not change a bit, and it gets
    # the bits of a call on it alone, whose stop it sets too
    small = [1e-3, 0.7, 2.4045, 5.5, 9.1]
    largest = 15.3
    big = [20.0, 57.5]
    alone = hankel2_zero(np.array([largest])).tobytes()
    values = []
    for batch in ([largest] + small + big,
                  small[:3] + big[:1] + [largest] + small[3:] + big[1:],
                  small + big + [largest]):
        x = np.array(batch)
        h = hankel2_zero(x)
        j0, y0, _, _ = jy01(x)
        assert h.tobytes() == (j0 - 1j * y0).tobytes()
        assert h[batch.index(largest)].tobytes() == alone
        values.append(h[np.argsort(x)].tobytes())
    assert values[0] == values[1] == values[2]


def test_each_distinct_argument_evaluated_once(monkeypatch):
    # repeated arguments reach the long-double series and the Miller
    # recurrence once each, and get the bits of their distinct batch
    from sfsynth import bessel
    series_sizes, j_rows = [], []
    series, j_orders = bessel._series, bessel.bessel_j_orders
    monkeypatch.setattr(bessel, "_series", lambda x, order1: (
        series_sizes.append(len(x)) or series(x, order1)))
    monkeypatch.setattr(bessel, "bessel_j_orders", lambda m_max, x: (
        j_rows.append(np.size(x)) or j_orders(m_max, x)))
    distinct = np.linspace(0.5, 15.5, 10)
    pick = np.random.default_rng(0).permutation(np.arange(1000) % 10)
    h = hankel2_zero(distinct[pick])
    assert series_sizes == [10]
    assert h.tobytes() == hankel2_zero(distinct)[pick].tobytes()
    series_sizes.clear()
    rows = hankel2_sym_range(5, np.full(64, 3.0))
    assert j_rows == [1] and series_sizes == [1]
    assert rows.shape == (64, 11)
    assert (rows == hankel2_sym_range(5, 3.0)).all()


def test_domain_errors():
    with pytest.raises(ValueError):
        hankel2_orders(0, 0.0)
    with pytest.raises(ValueError):
        hankel2_orders(0, -1.0)
    with pytest.raises(ValueError):
        jy01(np.array([1.0, np.nan]))


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
