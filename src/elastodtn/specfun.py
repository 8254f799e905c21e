r"""Stable evaluation of Bessel and Hankel functions of integer order.

Everything the solver needs reduces to :math:`J_n(z)` and :math:`Y_n(z)` for
real :math:`z > 0` and orders up to about a thousand.

:math:`J_0, J_1, Y_0, Y_1` come from one kernel, ``jy01``, whose cost per
point does not grow with :math:`z`:

* :math:`z \ge 25`: Hankel's asymptotic expansion (DLMF 10.17.3),
  :math:`H_\nu^{(1)}(z) = \sqrt{2/(\pi z)}\, e^{i(z - \nu\pi/2 - \pi/4)}
  \sum_{k<22} i^k a_k(\nu) z^{-k}`, summed by Horner's rule in
  :math:`1/z^2`.  The first omitted term is below 1e-18 at :math:`z = 25`.
  The phase uses :math:`\cos z` and :math:`\sin z` of the argument itself.
* :math:`z < 25`: Miller's downward recurrence from above the turning
  point, normalized with :math:`J_0 + 2\sum_{k\ge 1} J_{2k} = 1`.  Only
  two consecutive orders are stored; the normalization sum and Neumann's
  series :math:`Y_0 = \tfrac{2}{\pi}[(\ln(z/2)+\gamma)J_0
  + 2\sum_k (-1)^{k+1} J_{2k}/k]` and its derivative for :math:`Y_1`
  accumulate as the recurrence descends, so the series run to its start
  order.

Against ``scipy.special.hankel1`` the relative error of :math:`H_0` and
:math:`H_1` is at most 3.4e-15 over :math:`z \in [10^{-3}, 2\cdot 10^3]`.

Orders 0..n_max at one argument come from a single ladder, built afresh on
every call (results never depend on earlier calls):

* :math:`J_n` by Miller's downward recurrence with the same start rule;
* :math:`Y_n` by the (upward-stable) forward recurrence from the ``jy01``
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
# jy01: Hankel's expansion with this many terms from this argument on,
# Miller's recurrence below it; points go through in chunks of _CHUNK
_ASYMPTOTIC_SWITCH = 25.0
_ASYMPTOTIC_TERMS = 22
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
    _, _, y0, y1 = (float(v[0]) for v in _jy01_chunk(np.array([z])))
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
    ms = np.asarray(ms)
    if ms.dtype.kind not in "iu" or ms.ndim != 1 or ms.size == 0 or ms.min() < 0:
        raise InvalidParameter("orders must be a nonempty 1-d array of integers >= 0")
    a1 = _alphas(int(ms.max()), kappa1, radius)[ms]
    a2 = _alphas(int(ms.max()), kappa2, radius)[ms]
    lam = (ms / radius) ** 2 - a1 * a2
    bad = np.flatnonzero(np.abs(lam) < 1e-14)
    if bad.size:
        k = bad[0]
        raise DegenerateMode(f"Lambda_{ms[k]} = {complex(lam[k])} is numerically "
                             f"singular at radius {radius}")
    return a1, a2, lam


def _hankel_arg_ratio(m: int, kappa: float, r_num: float, r_den: float) -> complex:
    """H_m(kappa r_num) / H_m(kappa r_den) through the scaled ladders."""
    Jn, mn, sn = _ladder(m, kappa * r_num)
    Jd, md, sd = _ladder(m, kappa * r_den)
    damp = math.exp(-sd[m]) if sd[m] < 700.0 else 0.0
    shift = math.exp(min(sn[m] - sd[m], 700.0))
    num = complex(Jn[m] * damp, mn[m] * shift)
    den = complex(Jd[m] * damp, md[m])
    return num / den


def hankel_ratio_gap(
    n: int, kappa1: float, kappa2: float, R_hat: float, R: float
) -> float:
    """|H_n(k1 R)/H_n(k1 Rh) - H_n(k2 R)/H_n(k2 Rh)|.

    Property-test quantity only: its decay in n is what makes the DtN
    truncation error exponentially small.
    """
    if not (0.0 < R_hat < R):
        raise InvalidParameter("radii must satisfy 0 < R_hat < R")
    if kappa1 == kappa2:
        return 0.0
    m = abs(n)
    r1 = _hankel_arg_ratio(m, kappa1, R, R_hat)
    r2 = _hankel_arg_ratio(m, kappa2, R, R_hat)
    return abs(r1 - r2)


def _hankel_series(nu: int) -> np.ndarray:
    """Coefficients of P_nu and Q_nu in powers of 1/z^2, lowest first.

    H_nu(z) = sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} (P + iQ) with
    P + iQ = sum_k i^k a_k(nu) z^{-k}: P sums the even k and z Q the odd
    k, both with alternating signs.
    """
    a = [1.0]
    for k in range(1, _ASYMPTOTIC_TERMS):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    signs = (-1.0) ** np.arange(_ASYMPTOTIC_TERMS // 2)
    return np.array([signs * a[0::2], signs * a[1::2]])


# axis 0: powers of 1/z^2, highest first (for Horner); axis 1: P_0, Q_0, P_1, Q_1
_HANKEL_PQ = np.concatenate([_hankel_series(0), _hankel_series(1)]).T[::-1, :, None]


def _jy01_asymptotic(z: np.ndarray):
    """Hankel's expansion (DLMF 10.17.3) for z >= 25, Horner in 1/z^2.

    The phase e^{i(z - nu pi/2 - pi/4)} is split into e^{iz}, from cos z
    and sin z of the argument itself, and a constant factor, so no digits
    of z are lost to a shifted argument.
    """
    w = 1.0 / z
    w2 = w * w
    pq = _HANKEL_PQ[0] * np.ones_like(z)
    for c in _HANKEL_PQ[1:]:
        pq = pq * w2 + c
    p0, q0, p1, q1 = pq[0], w * pq[1], pq[2], w * pq[3]
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


def _jy01_miller(z: np.ndarray):
    """Miller's recurrence without a table, for z < 25.

    Only F_n and F_{n+1} are kept; the normalization sum_k F_{2k} and the
    Neumann series of Y_0 and Y_1 accumulate as the recurrence descends,
    so the series run to the start order.
    """
    start = _miller_start(1, float(z.max()))
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


def _jy01_chunk(z: np.ndarray) -> np.ndarray:
    """Rows J_0, J_1, Y_0, Y_1, each point from the regime of its argument."""
    big = z >= _ASYMPTOTIC_SWITCH
    out = np.empty((4, z.size))
    if big.any():
        out[:, big] = _jy01_asymptotic(z[big])
    if not big.all():
        out[:, ~big] = _jy01_miller(z[~big])
    return out


def jy01(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (J_0, J_1, Y_0, Y_1) over an array of positive arguments.

    Arguments z >= 25 use Hankel's asymptotic expansion with 22 terms;
    smaller ones use Miller's recurrence with the Neumann series for Y_0
    and Y_1 summed on the way down.  The cost per point does not grow with
    z, and points go through in chunks of 2^16, so memory stays O(chunk).
    Against ``scipy.special.hankel1`` the relative error of H_0 and H_1
    is at most 3.4e-15 over z in [1e-3, 2e3].  The order ladder seeds its
    Y recurrence from the same kernel.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all((z > 0.0) & (z < np.inf)):  # NaN fails both
        if np.any(z <= 0.0):
            raise NonPositiveArgument("arguments must be positive")
        raise InvalidParameter("arguments must be finite")
    flat = z.ravel()
    out = np.empty((4, flat.size))
    for lo in range(0, flat.size, _CHUNK):
        out[:, lo : lo + _CHUNK] = _jy01_chunk(flat[lo : lo + _CHUNK])
    return tuple(o.reshape(z.shape) for o in out)


def hankel01(z):
    """Vectorized (H_0, H_1, H_0', H_1') of the first kind.

    H_0' = -H_1 and H_1' = H_0 - H_1/z; this is the workhorse for field
    evaluation on point clouds.
    """
    j0, j1, y0, y1 = jy01(z)
    h0 = j0 + 1j * y0
    h1 = j1 + 1j * y1
    return h0, h1, -h1, h0 - h1 / np.asarray(z, dtype=np.float64)
