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
  order.  Each step works in place: the two orders trade buffers and one
  scratch array takes the products, so a step allocates nothing.

A chunk whose points all lie in one regime goes to its kernel as it is;
a chunk that straddles z = 25 is split by a mask, each regime sized to
its own points.  The kernels only read their arguments.  The keyword-only
switch ``hankel01(z, h1_only=True)`` skips every :math:`H_0` term (the
:math:`Y_0` series and formula, the :math:`\nu = 0` expansion) and returns
``(None, H_1)``, :math:`H_1` the same to the bit.  Its one caller is
``assembly.incident_field``, which reads :math:`H_1` alone.

Against ``scipy.special.hankel1`` the relative error of :math:`H_0` and
:math:`H_1` is at most 3.1e-15 over :math:`z \in [10^{-10}, 2\cdot 10^3]`,
both for one call on the whole range and for calls on narrow windows of
it, where each window gets its own start and term count.

Higher orders at one argument are computed afresh on every call (results
never depend on earlier calls), seeded by ``hankel01``:

* ``bessel_jy``: :math:`J_n` by Miller's downward recurrence, started
  above both n_max and the turning point (``_miller_start``), and
  :math:`Y_n` by the (upward-stable) forward recurrence from
  :math:`Y_0, Y_1`, which raises ``OverflowRegime`` at the first order
  whose :math:`|Y_n|` is not a finite double.
* ``mode_scalar_arrays`` and ``hankel_ratio_gap``: the ratios
  :math:`\rho_m = H_{m-1}(z)/H_m(z)` by their own forward recurrence
  :math:`\rho_{m+1} = 1/(2m/z - \rho_m)`, which is stable because
  :math:`|H_m(z)|` grows with m (Gautschi, SIAM Review 9, 1967).  Only
  ratios enter, so the scattering scalars stay finite at mode numbers
  where :math:`|Y_n|` alone would overflow, and :math:`\Lambda_n` is
  formed from them without the cancellation of
  :math:`(n/R)^2 - \alpha_1\alpha_2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMode, InvalidParameter, NonPositiveArgument,
                     OrderCapExceeded, OverflowRegime)

EULER_GAMMA = 0.5772156649015328606065120900824024310421

MAX_ORDER = 1024
_RESCALE = 1e250
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
# hankel01's domain, which keeps the kernels' 2n/z (n <= 66) and pi z far
# from overflow
_Z_MIN, _Z_MAX = 1e-300, 1e300
_TINY = np.finfo(np.float64).tiny

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
    # a step grows |f| at most 1 + 2 start / z times, so one that ends
    # below limit cannot overflow in the next
    limit = _RESCALE / (1.0 + 2.0 * start / z)
    for n in range(start, 0, -1):
        f[n - 1] = (2.0 * n / z) * f[n] - f[n + 1]
        if abs(f[n - 1]) > limit:
            f *= 2.0 ** -math.frexp(f[n - 1])[1]
    s = f[0] + 2.0 * f[2::2].sum()
    return f[: n_hi + 1] / s


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
    OrderCapExceeded
        If n_max > 1024.
    OverflowRegime
        If |Y_n(z)| exceeds the largest finite double before n_max is
        reached.  The caller must lower the requested order.
    """
    if n_max < 0:
        raise InvalidParameter("n_max must be nonnegative")
    _check_cap(n_max)
    h0, h1 = hankel01(np.array([z]))
    Y = [float(h0[0].imag), float(h1[0].imag)][: n_max + 1]
    for n in range(1, n_max):
        y = (2.0 * n / z) * Y[n] - Y[n - 1]
        if not math.isfinite(y):
            raise OverflowRegime(
                f"|Y_{n + 1}({z})| is not representable as a double; "
                f"reduce the order (requested n_max={n_max})"
            )
        Y.append(y)
    return _miller_j(n_max, z), np.array(Y)


def _hankel_ratios(m_max: int, z: float) -> np.ndarray:
    """rho_m = H_{m-1}(z) / H_m(z) for m = 0..m_max, with H_{-1} = -H_1.

    The seed rho_0 = -H_1/H_0 comes from hankel01; the recurrence
    H_{m+1} = (2m/z) H_m - H_{m-1} gives rho_{m+1} = 1 / (2m/z - rho_m).
    |H_m(z)| grows with m (Nicholson's formula, DLMF 10.9.30), so
    |rho_m| <= 1 from m = 1 on, and an error in rho_m reaches rho_{m+1}
    multiplied by rho_{m+1}^2: it never grows.
    """
    h0, h1 = (complex(h[0]) for h in hankel01(np.array([z])))
    rho = [-h1 / h0]
    for m in range(m_max):
        rho.append(1.0 / (2.0 * m / z - rho[m]))
    return np.array(rho)


def _check_cap(n: int) -> None:
    if n > MAX_ORDER:
        raise OrderCapExceeded(f"order {n} exceeds the supported maximum {MAX_ORDER}")


def _orders(ms) -> np.ndarray:
    ms = np.asarray(ms)
    if ms.dtype.kind not in "iu" or ms.ndim != 1 or ms.size == 0 or ms.min() < 0:
        raise InvalidParameter("orders must be a nonempty 1-d array of integers >= 0")
    _check_cap(int(ms.max()))
    return ms


def mode_scalar_arrays(ms, kappa1: float, kappa2: float, radius: float):
    """alpha_1, alpha_2 and Lambda at the integer orders ms = |n| >= 0 (a 1-d
    array), from one ratio recurrence per wavenumber.

    With beta_j = kappa_j H_{m-1}(kappa_j r) / H_m(kappa_j r), alpha_j =
    beta_j - m/r and Lambda = (m/r)(beta_1 + beta_2) - beta_1 beta_2, which
    does not cancel where (m/r)^2 - alpha_1 alpha_2 would (m >> kappa r).
    Raises InvalidParameter for an empty, non-integer or negative order,
    OrderCapExceeded above order 1024, OverflowRegime if a beta_j or
    Lambda is not a normal double (none is zero, so a subnormal, zero or
    non-finite value has lost its digits), and DegenerateMode if any
    |Lambda| is below 1e-14 times the sum of its two terms' moduli (that
    mode matrix would be singular; an exceptional frequency/radius pair)."""
    if not (0.0 < kappa1 < kappa2):
        raise InvalidParameter("wavenumbers must satisfy 0 < kappa1 < kappa2")
    if not radius > 0.0:
        raise NonPositiveArgument("radius must be positive")
    ms = _orders(ms)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        b1, b2 = (k * _hankel_ratios(int(ms.max()), k * radius)[ms] for k in (kappa1, kappa2))
        angular = ms / radius
        cross, product = angular * (b1 + b2), b1 * b2
        lam = cross - product
        bad = np.flatnonzero(np.abs(lam) < 1e-14 * (np.abs(cross) + np.abs(product)))
        if bad.size:
            k = bad[0]
            raise DegenerateMode(f"Lambda_{ms[k]} = {complex(lam[k])} is numerically "
                                 f"singular at radius {radius}")
        size = np.abs(np.stack([b1, b2, lam]))
    bad = np.flatnonzero(~((size >= _TINY) & (size < np.inf)).all(axis=0))  # NaN fails both
    if bad.size:
        raise OverflowRegime(
            f"the scattering scalars of order {ms[bad[0]]} are not normal doubles "
            f"at kappa1 = {kappa1:g}, kappa2 = {kappa2:g}, radius = {radius:g}")
    return b1 - angular, b2 - angular, lam


def hankel_ratio_gap(ns, kappa1: float, kappa2: float, R_hat: float, R: float) -> np.ndarray:
    """|H_n(k1 R)/H_n(k1 Rh) - H_n(k2 R)/H_n(k2 Rh)| at the integer orders
    ns >= 0 (a 1-d array, validated as in mode_scalar_arrays), from one
    ratio recurrence per argument.

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
        # H_n(a)/H_n(b) = [H_0(a)/H_0(b)] prod_{m=1..n} rho_m(b)/rho_m(a)
        a, b = kappa * R, kappa * R_hat
        h0 = hankel01(np.array([a, b]))[0]
        steps = _hankel_ratios(top, b)[1:] / _hankel_ratios(top, a)[1:]
        ratios.append((h0[0] / h0[1]) * np.concatenate([[1.0], np.cumprod(steps)])[ns])
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


def _jy01_asymptotic(z: np.ndarray, with_h0: bool):
    """Hankel's expansion (DLMF 10.17.3) for z >= 25, Horner in 1/z^2 with
    the term count of _hankel_terms(min z): J_nu and Y_nu for nu = 0, 1, or
    for nu = 1 alone when with_h0 is false.

    The phase e^{i(z - nu pi/2 - pi/4)} is split into e^{iz}, from cos z
    and sin z of the argument itself, and a constant factor, so no digits
    of z are lost to a shifted argument.
    """
    terms = _hankel_terms(float(z.min()))
    w = 1.0 / z
    w2 = w * w
    c, s = np.cos(z), np.sin(z)
    amp = 1.0 / np.sqrt(math.pi * z)
    out = []
    for nu in (0, 1) if with_h0 else (1,):
        coefs = _HANKEL_COEFS[nu]
        p, q = _horner(coefs[0:terms:2], w2), w * _horner(coefs[1:terms:2], w2)
        # e^{-i pi/4} (P0 + iQ0) = (A0 + iB0) / sqrt 2, e^{-3i pi/4} (P1 + iQ1) likewise
        a, b = (p + q, q - p) if nu == 0 else (q - p, -(p + q))
        out += [amp * (c * a - s * b), amp * (s * a + c * b)]
    return out


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


def _jy01_miller(z: np.ndarray, with_h0: bool):
    """Miller's recurrence without a table, for z < 25: J_nu and Y_nu for
    nu = 0, 1, or for nu = 1 alone when with_h0 is false.

    It starts at _jy01_start(max z).  Only F_n and F_{n+1} are kept, in two
    buffers that trade places at each step; the normalization sum_k F_{2k}
    and the Neumann series of Y_0 (when with_h0) and Y_1 accumulate in place
    as the recurrence descends, so the series run to the start order.  z is
    only read.
    """
    start = _jy01_start(float(z.max()))
    seed = 1e-300
    # |F_{n-1}| <= (1 + 2n/z) max(|F_n|, |F_{n+1}|): where the product of
    # these factors keeps the seed below _RESCALE, no step can rescale;
    # elsewhere a point whose |F_{n-1}| passes limit, from which no step
    # can overflow, is scaled by a power of two, exactly, to [0.5, 1)
    growth = np.log1p(2.0 * np.arange(1, start + 1) / z.min()).sum()
    may_rescale = math.log(seed) + growth > math.log(_RESCALE)
    limit = _RESCALE / (1.0 + 2.0 * start / z.min())
    two_over_z = 2.0 / z
    f_hi = np.zeros_like(z)
    f = np.full_like(z, seed)
    even = np.zeros_like(z)  # sum_{k>=1} F_{2k}
    y0s = np.zeros_like(z) if with_h0 else None  # sum_{k>=1} (-1)^{k+1} F_{2k} / k
    y1s = np.zeros_like(z)  # sum_{k>=1} (-1)^k (2k+1) / (k(k+1)) F_{2k+1}
    scaled = [a for a in (f, f_hi, even, y0s, y1s) if a is not None]
    step = np.empty_like(z)
    for n in range(start, 0, -1):
        # F_{n-1} = (2n/z) F_n - F_{n+1}, written over F_{n+1}
        np.multiply(two_over_z, n, out=step)
        step *= f
        np.subtract(step, f_hi, out=f_hi)
        f_hi, f = f, f_hi
        k, odd = divmod(n - 1, 2)
        if k and not odd:
            even += f
            if with_h0:
                y0s += np.multiply(f, (1.0 if k % 2 else -1.0) / k, out=step)
        elif k:
            y1s += np.multiply(f, (-1.0 if k % 2 else 1.0) * (2 * k + 1) / (k * (k + 1)),
                               out=step)
        if may_rescale:
            big = np.abs(f, out=step) > limit
            if big.any():
                shift = -np.frexp(f[big])[1]
                for arr in scaled:
                    arr[big] = np.ldexp(arr[big], shift)
    norm = f + 2.0 * even
    j0, j1 = f / norm, f_hi / norm
    L = np.log(0.5 * z) + EULER_GAMMA
    # Y_1 = -Y_0' with J_{2k}' = (J_{2k-1} - J_{2k+1}) / 2
    y1 = (2.0 / math.pi) * ((L - 1.0) * j1 - j0 / z - y1s / norm)
    if not with_h0:
        return j1, y1
    y0 = (2.0 / math.pi) * (L * j0 + 2.0 * y0s / norm)
    return j0, y0, j1, y1


def _jy01_into(z: np.ndarray, rows, with_h0: bool) -> None:
    """J_nu and Y_nu of the 1-D arguments z, for nu = 0, 1 or for nu = 1
    alone, into the writable 1-D arrays rows (in that order), in chunks of
    _CHUNK points.  Each point comes from the regime of its argument; a
    chunk whose points share one regime goes to its kernel as it is."""
    for lo in range(0, z.size, _CHUNK):
        part = z[lo : lo + _CHUNK]
        dest = [r[lo : lo + _CHUNK] for r in rows]
        big = part >= _ASYMPTOTIC_SWITCH
        n_big = np.count_nonzero(big)
        if n_big in (0, part.size):  # no gather or scatter
            runs = [(slice(None), _jy01_asymptotic if n_big else _jy01_miller)]
        else:  # the kernels read min(z) and max(z), so each regime goes apart
            runs = [(big, _jy01_asymptotic), (~big, _jy01_miller)]
        for sel, kernel in runs:
            for d, v in zip(dest, kernel(part[sel], with_h0)):
                d[sel] = v


def _arguments(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all((z >= _Z_MIN) & (z <= _Z_MAX)):  # NaN fails both
        if np.any(z <= 0.0):
            raise NonPositiveArgument("arguments must be positive")
        raise InvalidParameter(f"arguments must be finite and lie in [{_Z_MIN:g}, "
                               f"{_Z_MAX:g}], got {z.min():g} to {z.max():g}")
    return z


def hankel01(z, *, h1_only: bool = False):
    """Vectorized (H_0, H_1) of the first kind, shaped like z.

    The workhorse for field evaluation on point clouds.  Callers that
    need derivatives form them from H_0' = -H_1 and H_1' = H_0 - H_1/z.
    Points go through in chunks of 2^16, so memory stays O(chunk).
    bessel_jy and the Hankel ratio recurrence take their seeds from it.

    With the keyword ``h1_only`` the kernels skip every H_0 term, and the
    first value returned is None; ``assembly.incident_field``, which reads
    H_1 alone, sets it.  H_1 is the same to the bit either way.
    """
    z = _arguments(z)
    flat = z.ravel()
    h1 = np.empty(flat.size, dtype=np.complex128)
    if h1_only:
        _jy01_into(flat, (h1.real, h1.imag), False)
        return None, h1.reshape(z.shape)
    h0 = np.empty(flat.size, dtype=np.complex128)
    _jy01_into(flat, (h0.real, h0.imag, h1.real, h1.imag), True)
    return h0.reshape(z.shape), h1.reshape(z.shape)
