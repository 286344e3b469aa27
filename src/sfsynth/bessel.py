"""Cylinder Bessel functions J_m, Y_m and the Hankel function of the
second kind, H_m^(2) = J_m - j Y_m, for integer orders.

No external special-function library is used.  The evaluation scheme:

* orders 0 and 1, x <= 16: Chebyshev tables of the four entire
  functions J0, S0, J1 and S1 whose sums _series accumulates (Y0 and Y1
  follow from them by its log formulas).  TABLE_WIDTH-wide intervals
  cover (0, 16]; on each, every function is a degree-TABLE_DEGREE
  expansion fitted at import (~17 ms) by the discrete cosine transform
  of the series at TABLE_NODES Chebyshev points.  The series is summed
  in long double (80-bit) because it loses about 0.43*x decimal digits
  to cancellation.  Clenshaw's recurrence sums the tables in float64.
  Against the series, the complex H0 and H1 agree to ~1e-15 relative
  below x = 10 and to 3e-13 near 16, where the series itself keeps
  about 12 digits; there the fit, which averages the series' rounding
  over its nodes, is the closer of the two to the true value.
* orders 0 and 1, x > 16: Hankel's large-argument expansion, whose
  smallest term is ~exp(-2x) < 1.3e-14.
* Orders 0 and 1 run _BLOCK arguments at a time, each value from its
  argument alone; hankel2_zero (the Green's function, order 0) needs its
  16-byte result per argument and <= 4.5 MB a block; jy01 adds order 1.
* J_m for m >= 2: Miller's downward recurrence normalised with
  J_0 + 2*sum J_2k = 1 (stable for every m, x in range).
* Y_m for m >= 2: upward recurrence from Y_0, Y_1 (Y is the dominant
  solution, so upward is stable).
* The order functions take m_max as an int or as one order per
  argument; a row's columns past its own order are zero.
  hankel2_orders computes one J row and one Y row per distinct
  (argument, order) pair, _BLOCK pairs per call, and gathers them back
  to the batch; hankel2_sym_rows runs it once per run of rows holding
  at most _BLOCK arguments.

Accuracy target is 1e-10 relative on the complex Hankel value for
m <= MAX_VERIFIED_ORDER (60), 1e-3 <= x <= 100; the test fixtures pin
this against an independent high-precision series oracle, whose worst
case here is 5.2e-14.
"""

from __future__ import annotations

import numpy as np

# the largest order the series oracle of the test fixtures verifies
MAX_VERIFIED_ORDER = 60
# switch point between the Chebyshev tables and the asymptotic expansion
SERIES_CUTOFF = 16.0
# arguments per block of orders 0 and 1, and distinct (argument, order)
# pairs per J and Y call of hankel2_orders; a block of orders 0 and 1 costs
# ~180 numpy calls, so the desk-linear sweep ran 14 % slower at 2048, 2 % at
# 8192, none at 16384
_BLOCK = 16384
# the tables: interval width, degree of each interval's expansion, and
# the Chebyshev points per interval at which the series is sampled
# (more points than coefficients average the series' rounding)
TABLE_WIDTH = 0.25
TABLE_DEGREE = 8
TABLE_NODES = 100
# |Y| beyond this is treated as overflow (order far above argument)
OVERFLOW_LIMIT = 1e280
# Miller start margin: the downward recurrence starts about
# sqrt(MILLER_ACC * n) orders above n = max(m_max, ceil(x))
MILLER_ACC = 250

_EULER_GAMMA = np.longdouble("0.577215664901532860606512090082402431")
_PI = np.longdouble("3.141592653589793238462643383279502884")
_GAMMA_MINUS_LN2 = float(_EULER_GAMMA - np.log(np.longdouble(2)))
# series terms: at x = 16 the 50th is ~2e-39, far below the long-double
# rounding of the largest (~2e5)
_SERIES_TERMS = 50


def _series(x: np.ndarray) -> list:
    """[J0, S0, J1, S1] in long double by the ascending series, where

        Y0 = (2/pi) ((ln(x/2) + gamma) J0 - S0),
        Y1 = (2/pi) ((ln(x/2) + gamma) J1 - 1/x - S1/2),
        S0 = sum_k (-1)^k H_k q^k / (k!)^2,
        S1 = sum_k (-1)^k (H_k + H_{k+1}) (x/2)^(2k+1) / (k! (k+1)!),

    q = x^2/4 and H_k the k-th harmonic number.  The source of the
    tables, and their reference in the tests."""
    x = np.asarray(x).astype(np.longdouble)
    half = x / 2
    q = half * half
    one = np.longdouble(1)
    j0, s0, term0 = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    j1, s1, term1 = half.copy(), half.copy(), half.copy()
    hk = np.longdouble(0)
    for k in range(1, _SERIES_TERMS + 1):
        term0 = term0 * q / -(k * k)
        term1 = term1 * q / -(k * (k + 1))
        hk = hk + one / k
        j0 += term0
        s0 += term0 * hk
        j1 += term1
        s1 += term1 * (2 * hk + one / (k + 1))
    return [j0, s0, j1, s1]


def _chebyshev_tables() -> np.ndarray:
    """Chebyshev coefficients of J0, S0, J1, S1 on each interval of
    (0, SERIES_CUTOFF], shape (TABLE_DEGREE + 1, intervals, 4), with
    the constant term halved.  Fitted in long double by the discrete
    cosine transform of _series at TABLE_NODES Chebyshev points."""
    intervals = round(SERIES_CUTOFF / TABLE_WIDTH)
    theta = _PI * (np.arange(TABLE_NODES) + np.longdouble(0.5)) / TABLE_NODES
    left = np.arange(intervals, dtype=np.longdouble) * TABLE_WIDTH
    nodes = left[:, None] + TABLE_WIDTH / 2 * (1 + np.cos(theta))
    values = np.stack(_series(nodes), axis=-1)      # (intervals, nodes, 4)
    cosines = np.cos(np.arange(TABLE_DEGREE + 1)[:, None] * theta)
    coef = np.einsum("kn,inf->kif", cosines, values)
    coef *= 2 / np.longdouble(TABLE_NODES)
    coef[0] /= 2
    return coef.astype(np.float64)


# built once at import, laid out (degree + 1, intervals, functions);
# order 0 reads J0 and S0 from a contiguous copy
_TABLE = _chebyshev_tables()
_TABLE_ORDER0 = np.ascontiguousarray(_TABLE[..., :2])


def _tables(x: np.ndarray, order1: bool) -> list:
    """[J0, Y0] (and J1, Y1 when order1) from the tables for arguments in
    (0, SERIES_CUTOFF]; each value depends on its argument alone."""
    table = _TABLE if order1 else _TABLE_ORDER0
    sums = _clenshaw(table, x)
    # ln(x/2) + gamma without forming x/2, which underflows for the
    # smallest subnormal argument
    ln_g = np.log(x)
    ln_g += _GAMMA_MINUS_LN2
    two_over_pi = 2 / np.pi
    j0, s0 = sums[:, 0], sums[:, 1]
    out = [j0, two_over_pi * (ln_g * j0 - s0)]
    if order1:
        j1, s1 = sums[:, 2], sums[:, 3]
        out += [j1, two_over_pi * (ln_g * j1 - 1 / x - 0.5 * s1)]
    return out


def _clenshaw(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every function of the table at x, (len(x), functions), by
    Clenshaw's recurrence b_k = c_k + 2t b_(k+1) - b_(k+2), k = n..1,
    then f = c_0 + t b_1 - b_2 (c_0 holds half the constant term)."""
    # each argument's interval and local variable t in [-1, 1]
    s = x * (2 / TABLE_WIDTH)
    i = np.minimum((0.5 * s).astype(np.intp), table.shape[1] - 1)
    t2 = np.empty((len(x), table.shape[2]))
    t2[:] = (s - (2 * i + 1))[:, None]
    t2 += t2
    c = np.take(table, i, axis=1)
    # b_(k+1) and b_(k+2) rotate through c's top row and one buffer
    b1 = c[-1]
    b2 = np.zeros_like(t2)
    tmp = np.empty_like(t2)
    for k in range(len(table) - 2, 0, -1):
        np.multiply(t2, b1, out=tmp)
        np.subtract(c[k], b2, out=b2)
        b2 += tmp
        b1, b2 = b2, b1
    out = t2 * b1
    out *= 0.5
    out -= b2
    out += c[0]
    return out


def _asymptotic(x: np.ndarray, order1: bool) -> list:
    """[J0, Y0] (and J1, Y1 when order1) by Hankel's expansion; x above
    SERIES_CUTOFF."""
    amp = np.sqrt(2.0 / (np.pi * x))
    res = []
    for n in ((0, 1) if order1 else (0,)):
        mu = 4.0 * n * n
        p = np.ones_like(x)
        q = np.zeros_like(x)
        term = np.ones_like(x)
        # 30 terms for every argument, with no early exit: the terms still
        # shrink (k < 2x), and no value depends on the other arguments
        for k in range(1, 31):
            term *= mu - (2 * k - 1) ** 2
            term /= k * 8.0 * x
            # odd terms go to q, even ones to p; signs +, -, -, + from k = 1
            acc = q if k % 2 == 1 else p
            if k % 4 < 2:
                acc += term
            else:
                acc -= term
        chi = x - (0.5 * n + 0.25) * np.pi
        c, s = np.cos(chi), np.sin(chi)
        res += [amp * (p * c - q * s), amp * (p * s + q * c)]
    return res


def _blocks(x: np.ndarray, order1: bool):
    """Yield (slice, [J0, Y0] (and J1, Y1 when order1)) for each _BLOCK
    of the validated arguments, the tables at or below SERIES_CUTOFF and
    the expansion above it."""
    for lo in range(0, len(x), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        xb = x[block]
        out = [np.empty_like(xb) for _ in range(4 if order1 else 2)]
        low = xb <= SERIES_CUTOFF
        for part, evaluate in ((low, _tables), (~low, _asymptotic)):
            if part.any():
                for dst, src in zip(out, evaluate(xb[part], order1)):
                    dst[part] = src
        yield block, out


def jy01(x) -> tuple:
    """Vectorized (J0, Y0, J1, Y1) for x > 0, by the scheme and to the
    accuracy of the module docstring; a batch gives the bits of the calls
    on its arguments one by one.

    Raises ValueError on non-positive arguments (Y has a log singularity
    at zero).
    """
    x = _arguments(x)
    out = np.empty((4, len(x)))
    for block, values in _blocks(x, order1=True):
        out[:, block] = values
    return tuple(out)


def hankel2_zero(x) -> np.ndarray:
    """Vectorized H_0^(2)(x) = J_0(x) - j Y_0(x) for arrays of x > 0.

    Evaluates order 0 only, with the same operations as jy01, so the
    result has the bits of jy01's J0 - j Y0 and the same accuracy; each
    value depends on its argument alone.
    """
    x = _arguments(x)
    h = np.empty(len(x), dtype=np.complex128)
    for block, (j0, y0) in _blocks(x, order1=False):
        h[block] = j0 - 1j * y0
    return h


def _arguments(x) -> np.ndarray:
    """x as a 1-D float64 array of positive finite arguments."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise ValueError("Bessel arguments must be a scalar or a 1-D array")
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("Bessel argument must be positive and finite")
    return x


def _orders(m_max, n: int) -> tuple:
    """The highest order of each of n arguments, from an int for all of
    them or one int per argument, each >= 0; and the result's highest
    column, m_max itself for an int."""
    orders = np.asarray(m_max)
    if orders.dtype.kind not in "iu":
        raise ValueError("m_max must be an int or one int per argument")
    if np.any(orders < 0):
        raise ValueError("m_max must be >= 0")
    if orders.ndim == 0:
        return np.full(n, orders, dtype=np.int64), int(orders)
    if orders.shape != (n,):
        raise ValueError(f"m_max holds {orders.size} orders for {n} arguments")
    return orders.astype(np.int64), int(orders.max(initial=0))


def bessel_j_orders(m_max, x) -> np.ndarray:
    """J_0(x) .. J_m_max(x) via Miller's downward recurrence with
    on-the-fly renormalisation.

    x is a scalar (result (m_max + 1,)) or a 1-D array (one row per
    argument).  m_max is an int or one order per argument; a row's
    columns past its own order are zero.  Each argument keeps its own
    start order, from its own order, and its own renormalisations, so
    every row equals the scalar call at its order bit for bit.
    """
    scalar = np.ndim(x) == 0
    x = _arguments(x)
    orders, top = _orders(m_max, len(x))
    base = np.maximum(orders, np.ceil(x).astype(np.int64))
    start = base + 1 + np.ceil(np.sqrt(MILLER_ACC * (base + 1))).astype(np.int64)
    start += start % 2
    out = np.zeros((len(x), top + 1))
    # an argument's recurrence holds (0, 0) until m reaches its start,
    # where it is seeded with (0, 1e-305)
    jp = np.zeros(len(x))
    jc = np.zeros(len(x))
    ssum = np.zeros(len(x))  # J~_0 + 2 sum_k J~_2k, fed by the recurrence
    tox = 2.0 / x
    for m in range(int(start.max(initial=0)), 0, -1):
        jc[start == m] = 1e-305
        jm = m * tox * jc - jp
        jp = jc
        jc = jm
        if m - 1 <= top:
            out[:, m - 1] = jc
        if (m - 1) % 2 == 0 and m - 1 > 0:
            ssum += 2.0 * jc
        big = np.abs(jc) > 1e250
        if big.any():
            jc[big] *= 1e-250
            jp[big] *= 1e-250
            ssum[big] *= 1e-250
            out[big] *= 1e-250
    out /= (ssum + jc)[:, None]
    out[orders[:, None] < np.arange(top + 1)] = 0.0
    return out[0] if scalar else out


def bessel_y_orders(m_max, x) -> np.ndarray:
    """Y_0(x) .. Y_m_max(x) by upward recurrence; x is a scalar or a
    1-D array (one row per argument), and m_max an int or one order per
    argument, a row's columns past its own order being zero.  A row
    equals the scalar call at its order bit for bit.

    Raises OverflowError when the order so far exceeds the argument that
    Y leaves the double range (the value is astronomically large, not
    infinite, so it is reported as an error instead); only a row's own
    orders are checked.  The message names the first argument, in batch
    order, whose Y overflows at the lowest order where any does;
    hankel2_orders passes its distinct arguments in ascending order, so
    through it that is the smallest of them.
    """
    scalar = np.ndim(x) == 0
    x = _arguments(x)
    orders, top = _orders(m_max, len(x))
    _, y0, _, y1 = jy01(x)
    out = np.empty((len(x), top + 1))
    out[:, 0] = y0
    if top >= 1:
        out[:, 1] = y1
    tox = 2.0 / x
    # past its own order a row may overflow; those values are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, top):
            nxt = m * tox * out[:, m] - out[:, m - 1]
            over = (np.abs(nxt) > OVERFLOW_LIMIT) & (orders > m)
            if over.any():
                raise OverflowError(
                    f"Y_{m + 1}({x[over][0]:g}) exceeds the floating-point "
                    f"range (order too large for the argument)")
            out[:, m + 1] = nxt
    out[orders[:, None] < np.arange(top + 1)] = 0.0
    return out[0] if scalar else out


def hankel2_orders(m_max, x) -> np.ndarray:
    """H_0^(2)(x) .. H_m_max^(2)(x); x is a scalar or a 1-D array (one
    row per argument), and m_max an int or one order per argument, a
    row's columns past its own order being zero.  Each distinct
    (argument, order) pair is evaluated once, in ascending argument
    order, _BLOCK pairs per J and Y call."""
    scalar = np.ndim(x) == 0
    x = _arguments(x)
    orders, top = _orders(m_max, len(x))
    pairs, where = np.unique(np.column_stack([x, orders]), axis=0,
                             return_inverse=True)
    h = np.zeros((len(pairs), top + 1), dtype=np.complex128)
    for lo in range(0, len(pairs), _BLOCK):
        xb = pairs[lo:lo + _BLOCK, 0]
        mb = pairs[lo:lo + _BLOCK, 1].astype(np.int64)
        # J - 1j * Y, written into h rather than formed as a block copy
        hb = h[lo:lo + _BLOCK, :mb.max() + 1]
        hb.real = bessel_j_orders(mb, xb)
        hb -= 1j * bessel_y_orders(mb, xb)
    return h[where[0]] if scalar else h[where]


def hankel2_sym_rows(orders, x):
    """Yield, for each row i of the 2-D argument array x, H_m^(2)(x[i])
    for m = -orders[i] .. orders[i] along the last axis, (x.shape[1],
    2 orders[i] + 1): the rows of hankel2_sym_range(orders[i], x[i]) bit
    for bit.  Consecutive rows holding at most _BLOCK arguments (at least
    one row) share one hankel2_orders call, so one pass serves every row
    and memory stays bounded by the block."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("hankel2_sym_rows takes a 2-D argument array")
    orders, _ = _orders(orders, len(x))
    n = x.shape[1]
    per = max(1, _BLOCK // max(n, 1))
    for lo in range(0, len(x), per):
        run = orders[lo:lo + per]
        h = hankel2_orders(np.repeat(run, n), x[lo:lo + per].ravel())
        for i, m in enumerate(run):
            # reshaped, since an empty row (n = 0) has no columns to slice
            pos = h[i * n:(i + 1) * n, :m + 1].reshape(n, m + 1)
            # H_(-m) = (-1)^m H_m
            signs = (-1.0) ** np.arange(m, 0, -1)
            yield np.concatenate([signs * pos[:, m:0:-1], pos], axis=-1)


def hankel2_sym_range(m_max: int, x) -> np.ndarray:
    """H_m^(2)(x) for m = -m_max .. m_max along the last axis (index
    m + m_max); x is a scalar or a 1-D array (one row per argument)."""
    scalar = np.ndim(x) == 0
    rows = next(hankel2_sym_rows([m_max], _arguments(x)[None]))
    return rows[0] if scalar else rows
