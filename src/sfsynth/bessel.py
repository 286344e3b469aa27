"""Cylinder Bessel functions J_m, Y_m and the Hankel function of the
second kind, H_m^(2) = J_m - j Y_m, for integer orders.

No external special-function library is used.  The evaluation scheme:

* orders 0 and 1: ascending power series for x <= 16, accumulated in
  extended precision (80-bit long double) because the series loses about
  0.43*x decimal digits to cancellation; Hankel's large-argument
  expansion above 16, where its smallest term is ~exp(-2x) < 1.3e-14.
  The series runs once per distinct argument of a batch and stops when
  the term of the batch's largest argument <= 16 falls below 1e-26.
  hankel2_zero (the Green's function) evaluates order 0 alone; jy01
  adds order 1 for the Y recurrence.
* J_m for m >= 2: Miller's downward recurrence normalised with
  J_0 + 2*sum J_2k = 1 (stable for every m, x in range).
* Y_m for m >= 2: upward recurrence from Y_0, Y_1 (Y is the dominant
  solution, so upward is stable).
* hankel2_orders and hankel2_sym_range compute one J row and one Y row
  per distinct argument and gather them back to the batch.

Accuracy target is 1e-10 relative on the complex Hankel value for
m <= 60, 1e-3 <= x <= 100; the test fixtures pin this against an
independent high-precision series oracle.
"""

from __future__ import annotations

import numpy as np

# switch point between the ascending series and the asymptotic expansion
SERIES_CUTOFF = 16.0
# |Y| beyond this is treated as overflow (order far above argument)
OVERFLOW_LIMIT = 1e280
# Miller start margin: the downward recurrence starts about
# sqrt(MILLER_ACC * n) orders above n = max(m_max, ceil(x))
MILLER_ACC = 250

_EULER_GAMMA = float(np.longdouble("0.577215664901532860606512090082402431"))


def _series(x: np.ndarray, order1: bool) -> list:
    """[J0, Y0] (and J1, Y1 when order1) by ascending series,
    long-double accumulation."""
    x = x.astype(np.longdouble)
    half = x / 2
    q = half * half
    one = np.longdouble(1)

    j0 = np.ones_like(x)
    s0 = np.zeros_like(x)   # sum (-1)^k H_k q^k / (k!)^2
    term0 = np.ones_like(x)
    scratch = np.empty_like(x)
    if order1:
        j1 = half.copy()
        s1 = np.zeros_like(x)   # sum (-1)^k (H_k + H_{k+1}) half^(2k+1) / (k!(k+1)!)
        term1 = half.copy()
    hk = np.longdouble(0)
    i_max = int(np.argmax(x))
    x_max = float(x[i_max])
    kmax = 40 + int(3.2 * x_max)
    for k in range(1, kmax + 1):
        # the sign flip rides on the divisor: rounding is symmetric in
        # sign, so t*q/(-k^2) has the bits of (-t)*q/k^2
        term0 *= q
        term0 /= -(k * k)
        hk = hk + one / k
        j0 += term0
        s0 += np.multiply(term0, hk, out=scratch)
        if order1:
            term1 *= q
            term1 /= -(k * (k + 1))
            j1 += term1
            s1 += np.multiply(term1, 2 * hk + one / (k + 1), out=scratch)
        # |term0| is q^k / (k!)^2 built by correctly rounded (hence
        # monotone) products and quotients, and q grows with x, so the
        # computed |term0| never decreases with x: the entry of the
        # largest argument is below the bound exactly when every entry is
        if k > x_max and abs(term0[i_max]) < 1e-26:
            break
    ln_g = np.log(half) + np.longdouble(_EULER_GAMMA)
    two_over_pi = np.longdouble(2) / np.longdouble(np.pi)
    out = [j0, two_over_pi * (ln_g * j0 - s0)]
    if order1:
        out += [j1, two_over_pi * (ln_g * j1 - one / x - (s1 + half) / 2)]
    return [v.astype(np.float64) for v in out]


def _asymptotic(x: np.ndarray, order1: bool) -> list:
    """[J0, Y0] (and J1, Y1 when order1) by Hankel's expansion; x above
    SERIES_CUTOFF."""
    amp = np.sqrt(2.0 / (np.pi * x))
    scratch = np.empty_like(x)
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
            term /= np.multiply(k * 8.0, x, out=scratch)
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


def _jy(x: np.ndarray, order1: bool) -> list:
    """[J0, Y0] (and J1, Y1 when order1) for validated arguments, the
    series at or below SERIES_CUTOFF and the expansion above it."""
    out = [np.empty_like(x) for _ in range(4 if order1 else 2)]
    lo = x <= SERIES_CUTOFF
    if np.any(lo):
        # the series runs once per distinct argument; they have the
        # batch's largest argument <= 16, so the stop lands on the same k
        distinct, where = np.unique(x[lo], return_inverse=True)
        for dst, src in zip(out, _series(distinct, order1)):
            dst[lo] = src[where]
    hi = ~lo
    if np.any(hi):
        for dst, src in zip(out, _asymptotic(x[hi], order1)):
            dst[hi] = src
    return out


def jy01(x) -> tuple:
    """Vectorized (J0, Y0, J1, Y1) for x > 0.

    Arguments above SERIES_CUTOFF give the same bits in any batch.  The
    series runs once per distinct argument at or below the cutoff and
    stops when the term of the batch's largest one falls below 1e-26
    (the same test as every term falling below it, since the terms grow
    with the argument), so an argument at or below the cutoff can change
    in its last bits with that largest argument, but not with how often
    any argument repeats.  This was seen only within ~2e-10 of a zero of
    J0 or J1, where that value moved by less than 1e-26.

    Raises ValueError on non-positive arguments (Y has a log singularity
    at zero).
    """
    return tuple(_jy(_arguments(x), order1=True))


def hankel2_zero(x) -> np.ndarray:
    """Vectorized H_0^(2)(x) = J_0(x) - j Y_0(x) for arrays of x > 0.

    Evaluates order 0 only, with the same operations as jy01, so the
    result has the bits of jy01's J0 - j Y0 for the same batch.  Each
    distinct argument at or below SERIES_CUTOFF goes through the series
    once, and the series still stops on the batch's largest such one.
    """
    j0, y0 = _jy(_arguments(x), order1=False)
    return j0 - 1j * y0


def _arguments(x) -> np.ndarray:
    """x as a 1-D float64 array of positive finite arguments."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise ValueError("Bessel arguments must be a scalar or a 1-D array")
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("Bessel argument must be positive and finite")
    return x


def bessel_j_orders(m_max: int, x) -> np.ndarray:
    """J_0(x) .. J_m_max(x) via Miller's downward recurrence with
    on-the-fly renormalisation.

    x is a scalar (result (m_max + 1,)) or a 1-D array (one row per
    argument).  Each argument keeps its own start order and its own
    renormalisations, so every row equals the scalar call bit for bit.
    Y and H rows start from jy01 and share its batch caveat.
    """
    scalar = np.ndim(x) == 0
    x = _arguments(x)
    base = np.maximum(m_max, np.ceil(x).astype(np.int64))
    start = base + 1 + np.ceil(np.sqrt(MILLER_ACC * (base + 1))).astype(np.int64)
    start += start % 2
    out = np.zeros((len(x), m_max + 1))
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
        if m - 1 <= m_max:
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
    return out[0] if scalar else out


def bessel_y_orders(m_max: int, x) -> np.ndarray:
    """Y_0(x) .. Y_m_max(x) by upward recurrence; x is a scalar or a
    1-D array (one row per argument).  A row equals the scalar call bit
    for bit except as jy01 notes for arguments <= SERIES_CUTOFF, whose
    series runs once per distinct argument.

    Raises OverflowError when the order so far exceeds the argument that
    Y leaves the double range (the value is astronomically large, not
    infinite, so it is reported as an error instead).  The message names
    the first argument, in batch order, whose Y overflows at the lowest
    order where any does; hankel2_orders passes its distinct arguments
    in ascending order, so through it that is the smallest of them.
    """
    scalar = np.ndim(x) == 0
    x = _arguments(x)
    _, y0, _, y1 = jy01(x)
    out = np.empty((len(x), m_max + 1))
    out[:, 0] = y0
    if m_max >= 1:
        out[:, 1] = y1
    tox = 2.0 / x
    for m in range(1, m_max):
        nxt = m * tox * out[:, m] - out[:, m - 1]
        over = np.abs(nxt) > OVERFLOW_LIMIT
        if over.any():
            raise OverflowError(
                f"Y_{m + 1}({x[over][0]:g}) exceeds the floating-point range "
                f"(order too large for the argument)")
        out[:, m + 1] = nxt
    return out[0] if scalar else out


def hankel2_orders(m_max: int, x) -> np.ndarray:
    """H_0^(2)(x) .. H_m_max^(2)(x); x is a scalar or a 1-D array (one
    row per argument, each distinct argument evaluated once)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    scalar = np.ndim(x) == 0
    # one J row and one Y row per distinct argument, gathered back
    distinct, where = np.unique(_arguments(x), return_inverse=True)
    h = bessel_j_orders(m_max, distinct) - 1j * bessel_y_orders(m_max, distinct)
    return h[where[0]] if scalar else h[where]


def hankel2_sym_range(m_max: int, x) -> np.ndarray:
    """H_m^(2)(x) for m = -m_max .. m_max along the last axis (index
    m + m_max); x is a scalar or a 1-D array (one row per argument)."""
    pos = hankel2_orders(m_max, x)
    signs = (-1.0) ** np.arange(m_max, 0, -1)
    return np.concatenate([signs * pos[..., m_max:0:-1], pos], axis=-1)
