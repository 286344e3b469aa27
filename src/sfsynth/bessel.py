"""Cylinder Bessel functions J_m, Y_m and the Hankel function of the
second kind, H_m^(2) = J_m - j Y_m, for integer orders.

No external special-function library is used.  The evaluation scheme:

* orders 0 and 1: ascending power series for x <= 16, accumulated in
  extended precision (80-bit long double) because the series loses about
  0.43*x decimal digits to cancellation; Hankel's large-argument
  expansion above 16, where its smallest term is ~exp(-2x) < 1.3e-14.
* J_m for m >= 2: Miller's downward recurrence normalised with
  J_0 + 2*sum J_2k = 1 (stable for every m, x in range).
* Y_m for m >= 2: upward recurrence from Y_0, Y_1 (Y is the dominant
  solution, so upward is stable).

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


def _jy01_series(x: np.ndarray):
    """Orders 0 and 1 by ascending series, long-double accumulation."""
    x = x.astype(np.longdouble)
    half = x / 2
    q = half * half
    one = np.longdouble(1)

    j0 = np.ones_like(x)
    j1 = half.copy()
    s0 = np.zeros_like(x)   # sum (-1)^k H_k q^k / (k!)^2
    s1 = np.zeros_like(x)   # sum (-1)^k (H_k + H_{k+1}) half^(2k+1) / (k!(k+1)!)
    term0 = np.ones_like(x)
    term1 = half.copy()
    hk = np.longdouble(0)
    x_max = float(np.max(x, initial=0.0))
    kmax = 40 + int(3.2 * x_max)
    for k in range(1, kmax + 1):
        term0 = -term0 * q / (k * k)
        term1 = -term1 * q / (k * (k + 1))
        hk = hk + one / k
        j0 += term0
        j1 += term1
        s0 += term0 * hk
        s1 += term1 * (2 * hk + one / (k + 1))
        if k > x_max and np.all(np.abs(term0) < 1e-26):
            break
    ln_g = np.log(half) + np.longdouble(_EULER_GAMMA)
    two_over_pi = np.longdouble(2) / np.longdouble(np.pi)
    y0 = two_over_pi * (ln_g * j0 - s0)
    y1 = two_over_pi * (ln_g * j1 - one / x - (s1 + half) / 2)
    f64 = np.float64
    return j0.astype(f64), y0.astype(f64), j1.astype(f64), y1.astype(f64)


def _jy01_asymptotic(x: np.ndarray):
    """Orders 0 and 1 by Hankel's expansion; x above SERIES_CUTOFF."""
    amp = np.sqrt(2.0 / (np.pi * x))
    res = []
    for n in (0, 1):
        mu = 4.0 * n * n
        p = np.ones_like(x)
        q = np.zeros_like(x)
        term = np.ones_like(x)
        sign_p, sign_q = -1.0, 1.0
        # 30 terms for every argument, with no early exit: the terms still
        # shrink (k < 2x), and no value depends on the other arguments
        for k in range(1, 31):
            term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
            if k % 2 == 1:
                q = q + sign_q * term
                sign_q = -sign_q
            else:
                p = p + sign_p * term
                sign_p = -sign_p
        chi = x - (0.5 * n + 0.25) * np.pi
        c, s = np.cos(chi), np.sin(chi)
        res.append((amp * (p * c - q * s), amp * (p * s + q * c)))
    (j0, y0), (j1, y1) = res
    return j0, y0, j1, y1


def jy01(x) -> tuple:
    """Vectorized (J0, Y0, J1, Y1) for x > 0.

    Arguments above SERIES_CUTOFF give the same bits in any batch.  The
    series stops on a test over the whole batch, so an argument at or
    below the cutoff can change in its last bits with the batch's largest
    argument.  This was seen only within ~2e-10 of a zero of J0 or J1,
    where that value moved by less than 1e-26.

    Raises ValueError on non-positive arguments (Y has a log singularity
    at zero).
    """
    x = _arguments(x)
    j0 = np.empty_like(x)
    y0 = np.empty_like(x)
    j1 = np.empty_like(x)
    y1 = np.empty_like(x)
    lo = x <= SERIES_CUTOFF
    if np.any(lo):
        j0[lo], y0[lo], j1[lo], y1[lo] = _jy01_series(x[lo])
    hi = ~lo
    if np.any(hi):
        j0[hi], y0[hi], j1[hi], y1[hi] = _jy01_asymptotic(x[hi])
    return j0, y0, j1, y1


def hankel2_zero(x) -> np.ndarray:
    """Vectorized H_0^(2)(x) = J_0(x) - j Y_0(x) for arrays of x > 0."""
    j0, y0, _, _ = jy01(x)
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
    for bit except as jy01 notes for arguments <= SERIES_CUTOFF.

    Raises OverflowError when the order so far exceeds the argument that
    Y leaves the double range (the value is astronomically large, not
    infinite, so it is reported as an error instead).
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
    row per argument)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    j = bessel_j_orders(m_max, x)
    y = bessel_y_orders(m_max, x)
    return j - 1j * y


def hankel2_sym_range(m_max: int, x) -> np.ndarray:
    """H_m^(2)(x) for m = -m_max .. m_max along the last axis (index
    m + m_max); x is a scalar or a 1-D array (one row per argument)."""
    pos = hankel2_orders(m_max, x)
    if m_max == 0:
        return pos
    signs = (-1.0) ** np.arange(m_max, 0, -1)
    return np.concatenate([signs * pos[..., m_max:0:-1], pos], axis=-1)
