r"""Stable evaluation of Bessel and Hankel functions of integer order.

Everything the solver needs reduces to :math:`J_n(z)` and :math:`Y_n(z)` for
real :math:`z > 0` and orders up to about a thousand.

:math:`J_0, J_1, Y_0, Y_1` come from one kernel behind ``hankel01``, whose
work per point is sized to the arguments of each chunk of points:

* :math:`z \ge 25`: Hankel's asymptotic expansion (DLMF 10.17.3),
  :math:`H_\nu^{(1)}(z) = \sqrt{2/(\pi z)}\, e^{i(z - \nu\pi/2 - \pi/4)}
  \sum_{k<K} i^k a_k(\nu) z^{-k}`, summed by Horner's rule in
  :math:`1/z^2`.  K is the fewest terms whose first omitted term is below
  1e-18 at the chunk's smallest z, at most 22 (reached at z = 25), 8 at
  z = 250 and 6 at z = 1000; for real z that term bounds the remainder.
  The phase uses :math:`\cos z` and :math:`\sin z` of the argument itself.
* :math:`z < 25`: Miller's downward recurrence, normalized with
  :math:`J_0 + 2\sum_{k\ge 1} J_{2k} = 1` and started 4 orders above the
  smallest m with :math:`(z/2)^m/m! < 10^{-17}` at the chunk's largest z,
  a bound on :math:`J_m(z)` (DLMF 10.14.4): 27 steps at z = pi, 66 just
  below 25.  Only two consecutive orders are stored; the normalization sum
  and Neumann's series :math:`Y_0 = \tfrac{2}{\pi}[(\ln(z/2)+\gamma)J_0
  + 2\sum_k (-1)^{k+1} J_{2k}/k]` and its derivative for :math:`Y_1`
  accumulate as the recurrence descends, so the series run to its start
  order.

Against ``scipy.special.hankel1`` the relative error of :math:`H_0` and
:math:`H_1` is at most 3.1e-15 over :math:`z \in [10^{-10}, 2\cdot 10^3]`,
both for one call on the whole range and for calls on narrow windows of
it, where each window gets its own start and term count.

Orders 0..n_max at one argument come from a single ladder, built afresh on
every call (results never depend on earlier calls):

* :math:`J_n` by Miller's downward recurrence, started above both n_max
  and the turning point (``_miller_start``);
* :math:`Y_n` by the (upward-stable) forward recurrence from the ``hankel01``
  seeds :math:`Y_0, Y_1`, carried as a mantissa/log-scale pair so that
  orders far beyond the overflow point of a plain double remain usable in
  ratios.

``bessel_jy`` returns the ladder as float arrays.  ``mode_scalar_arrays``
forms :math:`H_n'(z)/H_n(z)` for every requested order from one ladder per
wavenumber, and ``hankel_ratio_gap`` forms :math:`H_n(z_1)/H_n(z_2)`, both
directly from the scaled representation, which is what keeps the
scattering scalars finite at mode numbers where :math:`|Y_n|` alone would
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMode, InvalidParameter, NonPositiveArgument,
                     OrderCapExceeded, OverflowRegime)

EULER_GAMMA = 0.5772156649015328606065120900824024310421

_MAX_ORDER = 1024
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_LOG_MAX = math.log(np.finfo(np.float64).max)
# _jy01_into: Hankel's expansion from _ASYMPTOTIC_SWITCH on, with at most
# _ASYMPTOTIC_TERMS terms and a first omitted term below _ASYMPTOTIC_TOL;
# Miller's recurrence below it, started where (z/2)^m / m! < _MILLER_TOL,
# _MILLER_MARGIN orders higher; points go through in chunks of _CHUNK
_ASYMPTOTIC_SWITCH = 25.0
_ASYMPTOTIC_TERMS = 22
_ASYMPTOTIC_TOL = 1e-18
_MILLER_TOL = 1e-17
_MILLER_MARGIN = 4
_CHUNK = 1 << 16

@dataclass(frozen=True)
class ModeScalars:
    """Scattering scalars of a single Fourier mode.

    alpha_j is kappa_j H_n'(kappa_j r) / H_n(kappa_j r) and
    lambda_n = (n/r)^2 - alpha_1 alpha_2.  All three depend on |n| only.
    """

    n: int
    kappa1: float
    kappa2: float
    radius: float
    alpha1: complex
    alpha2: complex
    lambda_n: complex


def _miller_start(n_hi: int, z: float) -> int:
    """Start order of Miller's recurrence for J_0..J_{n_hi} at argument z.

    The start order sits above both the requested order and the turning
    point |z|; below the turning point the backward recurrence no longer
    separates J from Y and the classical start rule based on the order
    alone returns garbage.
    """
    top = max(n_hi, 1, int(math.ceil(z)) + 44)
    return top + int(math.ceil(10.0 + 2.0 * math.sqrt(top)))


def _miller_j(n_hi: int, z: float) -> np.ndarray:
    """J_0..J_{n_hi} by downward recurrence with sum normalization."""
    start = _miller_start(n_hi, z)
    f = np.zeros(start + 2)
    f[start] = 1e-300
    for n in range(start, 0, -1):
        f[n - 1] = (2.0 * n / z) * f[n] - f[n + 1]
        if abs(f[n - 1]) > _RESCALE:
            f *= 1.0 / _RESCALE
    s = f[0] + 2.0 * f[2::2].sum()
    return f[: n_hi + 1] / s


def _ladder(n_max: int, z: float):
    """(J, Y-mantissa, Y-logscale) arrays for orders 0..n_max at argument z."""
    if not math.isfinite(z):
        raise InvalidParameter(f"argument must be finite, got z={z}")
    if not z > 0.0:
        raise NonPositiveArgument(f"argument must be positive, got z={z}")
    if n_max > _MAX_ORDER:
        raise OrderCapExceeded(
            f"order {n_max} exceeds the supported maximum {_MAX_ORDER}"
        )
    J = _miller_j(n_max, z)
    y0, y1 = (float(h[0].imag) for h in hankel01(np.array([z])))
    mant = np.zeros(n_max + 1)
    slog = np.zeros(n_max + 1)
    mant[0] = y0
    if n_max >= 1:
        mant[1] = y1
    a, b = y0, y1
    cur = 0.0
    for n in range(1, n_max):
        c = (2.0 * n / z) * b - a
        if abs(c) > _RESCALE:
            a *= 1.0 / _RESCALE
            b *= 1.0 / _RESCALE
            c *= 1.0 / _RESCALE
            cur += _LOG_RESCALE
        a, b = b, c
        mant[n + 1] = c
        slog[n + 1] = cur
    return J, mant, slog


def bessel_jy(n_max: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate J_n(z) and Y_n(z) for n = 0..n_max.

    Parameters
    ----------
    n_max : int
        Highest order, 0 <= n_max <= 1024.
    z : float
        Argument, 0 < z < inf.

    Returns
    -------
    (J, Y) : two float arrays of length n_max + 1, order n at index n

    Raises
    ------
    NonPositiveArgument
        If z <= 0.
    InvalidParameter
        If n_max < 0 or z is not finite.
    OverflowRegime
        If |Y_n(z)| exceeds the largest finite double before n_max is
        reached.  The caller must lower the requested order.
    """
    if n_max < 0:
        raise InvalidParameter("n_max must be nonnegative")
    J, mant, slog = _ladder(n_max, z)
    with np.errstate(over="ignore"):
        total = slog + np.log(np.maximum(np.abs(mant), 1e-320))
    if np.any(total > _LOG_MAX):
        n_bad = int(np.argmax(total > _LOG_MAX))
        raise OverflowRegime(
            f"|Y_{n_bad}({z})| is not representable as a double; "
            f"reduce the order (requested n_max={n_max})"
        )
    return J, mant * np.exp(slog)


def _alphas(m_max: int, kappa: float, radius: float) -> np.ndarray:
    """alpha_m = kappa H_m'(kappa r) / H_m(kappa r) for m = 0..m_max from one
    ladder: H_0' = -H_1, and H_m'/H_m = H_{m-1}/H_m - m/z for m >= 1, with
    both values scaled by the log-scale of Y_m (J damped, the Y_{m-1}
    mantissa shifted), so the ratio stays finite past the overflow of Y_m."""
    z = kappa * radius
    J, mant, slog = _ladder(max(m_max, 1), z)
    damp = np.exp(-slog[1:])  # underflows to 0 beyond the first rescale
    shift = np.exp(np.minimum(slog[:-1] - slog[1:], 0.0))
    num = J[:-1] * damp + 1j * (mant[:-1] * shift)  # H_{m-1}, num[0] = H_0
    den = J[1:] * damp + 1j * mant[1:]  # H_m, den[0] = H_1
    ratio = np.concatenate([-den[:1] / num[:1], num / den - np.arange(1, J.size) / z])
    return kappa * ratio[: m_max + 1]


def _orders(ms) -> np.ndarray:
    ms = np.asarray(ms)
    if ms.dtype.kind not in "iu" or ms.ndim != 1 or ms.size == 0 or ms.min() < 0:
        raise InvalidParameter("orders must be a nonempty 1-d array of integers >= 0")
    return ms


def mode_scalar_arrays(ms, kappa1: float, kappa2: float, radius: float):
    """alpha_1, alpha_2 and Lambda at the integer orders ms = |n| >= 0 (a 1-d
    array), from one ladder per wavenumber.  Raises InvalidParameter for an
    empty, non-integer or negative order, OrderCapExceeded above order 1024,
    and DegenerateMode if any |Lambda| < 1e-14 (that mode matrix would be
    singular; an exceptional frequency/radius pair)."""
    if not (0.0 < kappa1 < kappa2):
        raise InvalidParameter("wavenumbers must satisfy 0 < kappa1 < kappa2")
    if not radius > 0.0:
        raise NonPositiveArgument("radius must be positive")
    ms = _orders(ms)
    a1 = _alphas(int(ms.max()), kappa1, radius)[ms]
    a2 = _alphas(int(ms.max()), kappa2, radius)[ms]
    lam = (ms / radius) ** 2 - a1 * a2
    bad = np.flatnonzero(np.abs(lam) < 1e-14)
    if bad.size:
        k = bad[0]
        raise DegenerateMode(f"Lambda_{ms[k]} = {complex(lam[k])} is numerically "
                             f"singular at radius {radius}")
    return a1, a2, lam


def hankel_ratio_gap(ns, kappa1: float, kappa2: float, R_hat: float, R: float) -> np.ndarray:
    """|H_n(k1 R)/H_n(k1 Rh) - H_n(k2 R)/H_n(k2 Rh)| at the integer orders
    ns >= 0 (a 1-d array, validated as in mode_scalar_arrays), from one
    ladder per argument.

    Property-test quantity only: its decay in n is what makes the DtN
    truncation error exponentially small.
    """
    if not (0.0 < R_hat < R):
        raise InvalidParameter("radii must satisfy 0 < R_hat < R")
    ns = _orders(ns)
    if kappa1 == kappa2:
        return np.zeros(ns.size)
    top = int(ns.max())
    ratios = []
    for kappa in (kappa1, kappa2):
        # H_n(kappa R) / H_n(kappa Rh) through the scaled ladders: both
        # values are scaled by the log-scale of Y_n(kappa Rh)
        Jn, mn, sn = (a[ns] for a in _ladder(top, kappa * R))
        Jd, md, sd = (a[ns] for a in _ladder(top, kappa * R_hat))
        damp = np.exp(-sd)  # underflows to 0 beyond the first rescale
        shift = np.exp(np.minimum(sn - sd, 700.0))
        ratios.append((Jn * damp + 1j * (mn * shift)) / (Jd * damp + 1j * md))
    return np.abs(ratios[0] - ratios[1])


def _hankel_series(nu: int) -> np.ndarray:
    """The coefficients of P + iQ = sum_k i^k a_k(nu) z^-k (DLMF 10.17.3)
    for k = 0.._ASYMPTOTIC_TERMS, one beyond the cap for the omitted-term
    test, as reals: P sums the even k and z Q the odd k, the signs of
    i^k folded in as +, +, -, -, ..."""
    a = [1.0]
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return np.where(np.arange(len(a)) // 2 % 2, -1.0, 1.0) * a


# row nu: the signed coefficients of P_nu + iQ_nu, lowest order first
_HANKEL_COEFS = np.array([_hankel_series(0), _hankel_series(1)])
_LOG_HANKEL_ABS = np.log(np.abs(_HANKEL_COEFS).max(axis=0))


def _hankel_terms(z_min: float) -> int:
    """Terms of Hankel's expansion summed for arguments >= z_min: the
    fewest whose first omitted term, max over nu = 0, 1 of |a_k(nu)| z^-k,
    is below _ASYMPTOTIC_TOL at z_min, at least 2 and at most
    _ASYMPTOTIC_TERMS.  For real z the remainder of P and Q is bounded
    by the first omitted term (DLMF 10.17.iii)."""
    k = np.arange(_LOG_HANKEL_ABS.size)
    small = _LOG_HANKEL_ABS - k * math.log(z_min) < math.log(_ASYMPTOTIC_TOL)
    return int(np.clip(np.argmax(small) if small.any() else k[-1], 2, _ASYMPTOTIC_TERMS))


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] x^i for 1-D x, in place on one array."""
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _jy01_asymptotic(z: np.ndarray):
    """Hankel's expansion (DLMF 10.17.3) for z >= 25, Horner in 1/z^2 with
    the term count of _hankel_terms(min z).

    The phase e^{i(z - nu pi/2 - pi/4)} is split into e^{iz}, from cos z
    and sin z of the argument itself, and a constant factor, so no digits
    of z are lost to a shifted argument.
    """
    terms = _hankel_terms(float(z.min()))
    w = 1.0 / z
    w2 = w * w
    (p0, q0), (p1, q1) = (
        (_horner(c[0:terms:2], w2), w * _horner(c[1:terms:2], w2)) for c in _HANKEL_COEFS
    )
    c, s = np.cos(z), np.sin(z)
    amp = 1.0 / np.sqrt(math.pi * z)
    # e^{-i pi/4} (P0 + iQ0) = (A0 + iB0) / sqrt 2, e^{-3i pi/4} (P1 + iQ1) likewise
    a0, b0 = p0 + q0, q0 - p0
    a1, b1 = q1 - p1, -(p1 + q1)
    return (
        amp * (c * a0 - s * b0),
        amp * (c * a1 - s * b1),
        amp * (s * a0 + c * b0),
        amp * (s * a1 + c * b1),
    )


def _jy01_start(z_max: float) -> int:
    """Start order of _jy01_miller: the smallest m with
    (z_max/2)^m / m! < _MILLER_TOL, a bound on J_m(z) for every z <= z_max
    (DLMF 10.14.4), plus _MILLER_MARGIN.  It gives 27 at z = pi and 66
    just below 25."""
    log_half_z, log_tol = math.log(0.5 * z_max), math.log(_MILLER_TOL)
    m = 1
    while m * log_half_z - math.lgamma(m + 1) >= log_tol:
        m += 1
    return m + _MILLER_MARGIN


def _jy01_miller(z: np.ndarray):
    """Miller's recurrence without a table, for z < 25.

    It starts at _jy01_start(max z).  Only F_n and F_{n+1} are kept; the
    normalization sum_k F_{2k} and the Neumann series of Y_0 and Y_1
    accumulate as the recurrence descends, so the series run to the start
    order.
    """
    start = _jy01_start(float(z.max()))
    seed = 1e-300
    # |F_{n-1}| <= (1 + 2n/z) max(|F_n|, |F_{n+1}|): where the product of
    # these factors keeps the seed below _RESCALE, no step can rescale
    growth = np.log1p(2.0 * np.arange(1, start + 1) / z.min()).sum()
    may_rescale = math.log(seed) + growth > _LOG_RESCALE
    two_over_z = 2.0 / z
    f_hi = np.zeros_like(z)
    f = np.full_like(z, seed)
    even = np.zeros_like(z)  # sum_{k>=1} F_{2k}
    y0s = np.zeros_like(z)  # sum_{k>=1} (-1)^{k+1} F_{2k} / k
    y1s = np.zeros_like(z)  # sum_{k>=1} (-1)^k (2k+1) / (k(k+1)) F_{2k+1}
    for n in range(start, 0, -1):
        f_hi, f = f, (n * two_over_z) * f - f_hi  # F_{n-1}
        k, odd = divmod(n - 1, 2)
        if k and not odd:
            even += f
            y0s += ((1.0 if k % 2 else -1.0) / k) * f
        elif k:
            y1s += ((-1.0 if k % 2 else 1.0) * (2 * k + 1) / (k * (k + 1))) * f
        if may_rescale:
            big = np.abs(f) > _RESCALE
            if big.any():
                for arr in (f, f_hi, even, y0s, y1s):
                    arr[big] *= 1.0 / _RESCALE
    norm = f + 2.0 * even
    j0, j1 = f / norm, f_hi / norm
    L = np.log(0.5 * z) + EULER_GAMMA
    y0 = (2.0 / math.pi) * (L * j0 + 2.0 * y0s / norm)
    # Y_1 = -Y_0' with J_{2k}' = (J_{2k-1} - J_{2k+1}) / 2
    y1 = (2.0 / math.pi) * ((L - 1.0) * j1 - j0 / z - y1s / norm)
    return j0, j1, y0, y1


def _jy01_into(z: np.ndarray, rows) -> None:
    """J_0, J_1, Y_0, Y_1 of the 1-D arguments z into the four writable
    1-D arrays rows, in chunks of _CHUNK points.  Each point comes from the
    regime of its argument; a chunk in one regime is not split."""
    for lo in range(0, z.size, _CHUNK):
        part = z[lo : lo + _CHUNK]
        dest = [r[lo : lo + _CHUNK] for r in rows]
        big = part >= _ASYMPTOTIC_SWITCH
        if big.all() or not big.any():
            kernel = _jy01_asymptotic if big[0] else _jy01_miller
            for d, v in zip(dest, kernel(part)):
                d[...] = v
            continue
        for mask, kernel in ((big, _jy01_asymptotic), (~big, _jy01_miller)):
            for d, v in zip(dest, kernel(part[mask])):
                d[mask] = v


def _arguments(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all((z > 0.0) & (z < np.inf)):  # NaN fails both
        if np.any(z <= 0.0):
            raise NonPositiveArgument("arguments must be positive")
        raise InvalidParameter("arguments must be finite")
    return z


def hankel01(z):
    """Vectorized (H_0, H_1) of the first kind, shaped like z.

    The workhorse for field evaluation on point clouds.  Callers that
    need derivatives form them from H_0' = -H_1 and H_1' = H_0 - H_1/z.
    Points go through in chunks of 2^16, so memory stays O(chunk).  The
    order ladder takes its Y_0, Y_1 seeds from the imaginary parts.
    """
    z = _arguments(z)
    flat = z.ravel()
    h0 = np.empty(flat.size, dtype=np.complex128)
    h1 = np.empty(flat.size, dtype=np.complex128)
    _jy01_into(flat, (h0.real, h1.real, h0.imag, h1.imag))
    return h0.reshape(z.shape), h1.reshape(z.shape)
