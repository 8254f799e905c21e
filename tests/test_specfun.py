"""Bessel/Hankel evaluation against independent oracles.

Oracles: the defining power series for J_0, the Wronskian identity,
centered finite differences for derivatives, the classical large-order
asymptotics, scipy.special (AMOS) and, when installed, mpmath.  None of
them reuse the recurrence path.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special as sc

from elastodtn import example1_config, specfun
from elastodtn.dtn import build_spectrum
from elastodtn.errors import (ElastoDtnError, InvalidParameter, NonPositiveArgument,
                              OrderCapExceeded, OverflowRegime)
from elastodtn.specfun import bessel_jy, hankel_ratio_gap, hankel01, mode_scalar_arrays

K1 = math.pi / 2
K2 = math.pi


def j0_series(z):
    """Defining power series, summed to machine precision."""
    total, term, k = 0.0, 1.0, 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term
        k += 1
        term *= -((z / 2) ** 2) / k**2
    return total


def max_feasible_order(z, cap=256):
    """Largest n <= cap with Y_n(z) still representable (bessel_jy(n, z)
    raises OverflowRegime from the first such order on), by bisection on
    mpmath's log|Y_n(z)|; |Y_n| grows with n past the turning point."""
    mpmath = pytest.importorskip("mpmath")
    log_max = math.log(np.finfo(np.float64).max)
    with mpmath.workdps(30):
        def over(n):
            return mpmath.log(abs(mpmath.bessely(n, z))) > log_max

        if not over(cap):
            return cap
        lo, hi = 0, cap  # Y_lo representable, Y_hi not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if over(mid) else (mid, hi)
    return lo


class TestBesselJy:
    def test_j0_against_power_series(self):
        got = bessel_jy(0, 2.0)[0][0]
        assert got == pytest.approx(j0_series(2.0), rel=1e-14)

    @pytest.mark.parametrize("z", [0.7, 2.0, 5.5, 11.0])
    def test_j0_series_various_arguments(self, z):
        assert bessel_jy(0, z)[0][0] == pytest.approx(j0_series(z), rel=1e-12)

    def test_wronskian_n5_z3(self):
        J, Y = bessel_jy(6, 3.0)
        target = 2.0 / (math.pi * 3.0)
        for n in range(5):
            w = J[n + 1] * Y[n] - J[n] * Y[n + 1]
            assert w == pytest.approx(target, rel=1e-10)

    def test_large_order_product_asymptotic(self):
        # J_n(z) Y_n(z) -> -1/(pi n): check n |J Y| within 2% at n = 100
        J, Y = bessel_jy(100, math.pi)
        prod = abs(J[100] * Y[100])
        assert 100 * prod == pytest.approx(1.0 / math.pi, rel=0.02)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_nonpositive_argument(self, z):
        with pytest.raises(NonPositiveArgument):
            bessel_jy(3, z)

    def test_order_cap(self):
        bessel_jy(1024, 1000.0)
        with pytest.raises(OrderCapExceeded, match="1025"):
            bessel_jy(1025, 1000.0)
        with pytest.raises(ValueError):  # still a ValueError for old callers
            bessel_jy(1025, 1000.0)

    def test_overflow_regime_small_argument(self):
        with pytest.raises(OverflowRegime):
            bessel_jy(256, 0.5)

    @pytest.mark.parametrize("z", [0.5, 1.0, math.pi, 10.0, 19.0])
    def test_wronskian_suite(self, z):
        """Wronskian to 1e-10 for every representable order up to 256."""
        n_max = max_feasible_order(z)
        assert n_max >= 100  # the usable range is wide even at z = 0.5
        J, Y = bessel_jy(n_max, z)
        if n_max < 256:
            with pytest.raises(OverflowRegime):
                bessel_jy(n_max + 1, z)
        target = 2.0 / (math.pi * z)
        worst = max(abs(J[n + 1] * Y[n] - J[n] * Y[n + 1] - target) for n in range(n_max))
        assert worst <= 1e-10 * target

    def test_vectorized_matches_scalar(self, rng):
        z = rng.uniform(0.5, 19.0, size=40)
        h0, h1 = hankel01(z)
        j0, j1, y0, y1 = h0.real, h1.real, h0.imag, h1.imag
        for i in range(len(z)):
            J, Y = bessel_jy(1, float(z[i]))
            assert j0[i] == pytest.approx(J[0], rel=1e-13, abs=1e-15)
            assert j1[i] == pytest.approx(J[1], rel=1e-13, abs=1e-15)
            assert y0[i] == pytest.approx(Y[0], rel=1e-13, abs=1e-15)
            assert y1[i] == pytest.approx(Y[1], rel=1e-13, abs=1e-15)


def scalars_at(ns, k1=K1, k2=K2, radius=1.0):
    """(alpha1, alpha2, Lambda) at the orders ns, from one array call."""
    return mode_scalar_arrays(np.asarray(ns), k1, k2, radius)


class TestModeScalars:
    def test_n0_kills_angular_term(self):
        a1, a2, lam = scalars_at([0])
        assert lam[0] == pytest.approx(-a1[0] * a2[0], rel=1e-14)

    def test_lambda_asymptotic_n200(self):
        target = (K1**2 + K2**2) / 2.0
        lam = scalars_at([200])[2]
        assert abs(lam[0] - target) <= 10.0 / 200

    def test_parity_in_n(self):
        """M_n and M_{-n} read the same scalars of |n|."""
        spec = build_spectrum(example1_config(N=17))
        a = spec.scalars[17]
        b = spec.scalars[-17]
        assert a.alpha1 == b.alpha1
        assert a.alpha2 == b.alpha2
        assert a.lambda_n == b.lambda_n

    def test_asymptotic_trend_windowed(self):
        """n |Lambda_n - (k1^2+k2^2)/2| bounded, windowed max non-increasing."""
        target = (K1**2 + K2**2) / 2.0
        ns = np.arange(64, 513)
        gaps = ns * np.abs(scalars_at(ns)[2] - target)
        assert gaps.max() <= 10.0
        windows = [gaps[(ns >= a) & (ns < b)].max() for a, b in [(64, 128), (128, 256), (256, 513)]]
        assert windows[0] + 1e-9 >= windows[1] >= windows[2] - 1e-9
        assert windows[1] + 1e-9 >= windows[2]

    def test_wavenumber_ordering_enforced(self):
        with pytest.raises(ValueError):
            scalars_at([3], K2, K1)

    def test_degenerate_mode_not_triggered_normally(self):
        # the benchmark material sits far from any exceptional pair
        scalars_at(np.arange(50))

    @pytest.mark.parametrize(
        "ns, error",
        [([5, -2], InvalidParameter), ([-3], InvalidParameter), ([2.5], InvalidParameter),
         ([], InvalidParameter), (3, InvalidParameter), ([3, 1025], OrderCapExceeded)],
    )
    def test_invalid_orders_raise(self, ns, error):
        """-2 must not wrap around to the order at index -2, nor 2.5 fail
        as a bare IndexError."""
        with pytest.raises(error):
            scalars_at(ns)

    @pytest.mark.parametrize("omega", [math.pi, 2.7])
    def test_results_do_not_depend_on_earlier_calls(self, omega):
        """Each call runs its own recurrences: longer ones at kappa_j R,
        even one that ends in OverflowRegime, leave the spectrum at those
        arguments bit for bit as it was.  No other test uses omega = 2.7,
        so that case holds whatever ran before it."""
        cfg = example1_config(omega=omega)
        before = build_spectrum(cfg)
        mode_scalar_arrays(np.arange(201), cfg.kappa1, cfg.kappa2, cfg.R)
        with pytest.raises(OverflowRegime):  # |Y_n(kappa2 R)| overflows below n = 200
            bessel_jy(200, cfg.kappa2 * cfg.R)
        after = build_spectrum(cfg)
        for name in ("matrices", "alpha1", "alpha2", "lambda_n"):
            assert np.array_equal(getattr(before, name), getattr(after, name)), name


class TestHankelRatioGap:
    def test_equal_wavenumbers_give_zero(self):
        assert np.all(hankel_ratio_gap(np.array([0, 10]), K2, K2, 0.5, 1.0) == 0.0)

    def test_bound_at_n60(self):
        g = hankel_ratio_gap(np.array([60]), K1, K2, 0.5, 1.0)[0]
        bound = K2 * (K2 - K1) * (1.0 - 0.25) * 0.5**60 / 59
        assert g <= bound

    @pytest.mark.parametrize("n", list(range(30, 121, 5)))
    def test_bound_over_range(self, n):
        g = hankel_ratio_gap(np.array([n]), K1, K2, 0.5, 1.0)[0]
        bound = K2 * (K2 - K1) * (1.0 - 0.25) * 0.5**n / (n - 1)
        assert g <= bound

    def test_exponential_rate_dominates(self):
        g30, g40 = hankel_ratio_gap(np.array([30, 40]), K1, K2, 0.5, 1.0)
        assert g40 / g30 <= 0.5**10 * (29.0 / 39.0) * 4.0

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            hankel_ratio_gap(np.array([10]), K1, K2, 1.0, 0.5)

    def test_array_matches_single_orders(self):
        """The ratio recurrences up to the top order serve every lower order,
        with the values of a call for that order alone to within 1e-12."""
        ns = np.arange(30, 121)
        together = hankel_ratio_gap(ns, K1, K2, 0.5, 1.0)
        alone = np.array([hankel_ratio_gap(ns[i : i + 1], K1, K2, 0.5, 1.0)[0]
                          for i in range(ns.size)])
        assert np.max(np.abs(together - alone) / alone) <= 1e-12

    def test_mpmath_spot_values(self):
        mpmath = pytest.importorskip("mpmath")
        ns = np.array([30, 75, 120])
        got = hankel_ratio_gap(ns, K1, K2, 0.5, 1.0)
        with mpmath.workdps(40):
            for n, g in zip(ns.tolist(), got):
                r1, r2 = (mpmath.hankel1(n, k) / mpmath.hankel1(n, 0.5 * k) for k in (K1, K2))
                want = float(abs(r1 - r2))
                assert abs(g - want) <= 1e-12 * want


def _relerr(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestJy01Oracles:
    """The vectorized kernel against scipy and mpmath over z in [1e-3, 2e3]."""

    # 25 is where Hankel's expansion takes over from Miller's recurrence
    Z = np.concatenate(
        [np.geomspace(1e-3, 2e3, 200_001), 25.0 + np.array([-1e-9, 0.0, 1e-9])]
    )

    def test_hankel01_against_scipy(self):
        h0, h1 = hankel01(self.Z)
        assert _relerr(h0, sc.hankel1(0, self.Z)) <= 1e-14
        assert _relerr(h1, sc.hankel1(1, self.Z)) <= 1e-14

    def test_small_arguments_that_rescale(self):
        """Down to z = 1e-10 the recurrence passes 1e250 and rescales;
        above z = 1e-3 it never does."""
        z = np.geomspace(1e-10, 24.0, 1001)
        h0, h1 = hankel01(z)
        assert _relerr(h0, sc.hankel1(0, z)) <= 1e-14
        assert _relerr(h1, sc.hankel1(1, z)) <= 1e-14

    def test_tiny_arguments_against_scipy(self):
        """Down to z = 1e-300 one recurrence step grows |F| up to 1e302
        times, so a point is rescaled before the step that would overflow,
        whether it comes alone or with the whole range.  scipy's real part
        of H_1 is wrong there (3.9e138 at z = 1e-155, where J_1 = z/2), so
        the error is taken in modulus, as everywhere in this class."""
        z = np.geomspace(1e-300, 1e-10, 2001)
        want0, want1 = sc.hankel1(0, z), sc.hankel1(1, z)
        h0, h1 = hankel01(z)
        assert _relerr(h0, want0) <= 1e-14 and _relerr(h1, want1) <= 1e-14
        for k in range(0, z.size, 20):
            h0, h1 = hankel01(z[k])
            assert _relerr(h0, want0[k]) <= 1e-14 and _relerr(h1, want1[k]) <= 1e-14
        J = np.array([bessel_jy(1, x)[0] for x in z[::20]])
        assert _relerr(J[:, 1], z[::20] / 2) <= 1e-14 and np.all(J[:, 0] == 1.0)

    @pytest.mark.parametrize("z", [1e-301, 1e301, 5e-324])
    def test_arguments_outside_the_domain_raise(self, z):
        with pytest.raises(InvalidParameter, match=re.escape(f"{z:g}")):
            hankel01(np.array([1.0, z]))

    def test_shape_is_kept(self):
        z = np.linspace(1.0, 60.0, 12).reshape(3, 4)
        assert all(a.shape == (3, 4) for a in hankel01(z))

    @pytest.mark.parametrize("z", [1e-3, 0.7, 24.999999999, 25.0, 137.5, 1000.0, 2000.0])
    def test_mpmath_spot_values(self, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = [complex(mpmath.hankel1(nu, z)) for nu in (0, 1)]
        h0, h1 = hankel01(np.array([z]))
        assert abs(h0[0] - want[0]) <= 1e-14 * abs(want[0])
        assert abs(h1[0] - want[1]) <= 1e-14 * abs(want[1])

    @pytest.mark.parametrize("z", [3.0, 24.0, 30.0, 289.4, 1000.0])
    def test_scalar_ladder_shares_the_y_seeds(self, z):
        h0, h1 = hankel01(np.array([z]))
        y0, y1 = h0.imag, h1.imag
        _, Y = bessel_jy(1, z)
        assert Y[0] == y0[0]
        assert Y[1] == y1[0]

    def test_memory_does_not_grow_with_argument(self):
        z = np.full(20_000, 1000.0)
        tracemalloc.start()
        try:
            hankel01(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestJy01FittedRules:
    """The Miller start follows the largest argument of a call and the
    expansion length the smallest, so each is checked on narrow windows:
    one hankel01 call per window [a, 1.05 a], 200 points each, the windows
    overlapping from 1e-10 to 2e3."""

    STARTS = np.geomspace(1e-10, 2e3 / 1.05, 640)

    def test_every_window_against_scipy(self):
        worst = 0.0
        for a in self.STARTS:
            z = np.geomspace(a, 1.05 * a, 200)
            h0, h1 = hankel01(z)
            worst = max(worst, _relerr(h0, sc.hankel1(0, z)), _relerr(h1, sc.hankel1(1, z)))
        assert worst <= 1e-14

    def test_counts_shrink_with_the_argument(self):
        assert specfun._jy01_start(math.pi) <= 30
        assert specfun._hankel_terms(250.0) <= 12
        assert specfun._hankel_terms(specfun._ASYMPTOTIC_SWITCH) == specfun._ASYMPTOTIC_TERMS


class TestScalarsAgainstMpmath:
    """alpha_1, alpha_2, Lambda_n and M_n of build_spectrum (lam = 2, mu = 1,
    R = 1, N = 1024) against the defining formulas in 30-digit mpmath:
    alpha_j = kappa_j H_n'(kappa_j R) / H_n(kappa_j R) with
    H_n' = H_{n-1} - (n/z) H_n, Lambda_n = (n/R)^2 - alpha_1 alpha_2 and
    M_n from the entry formulas of the dtn module.  At n >> kappa R the
    subtraction in Lambda_n cancels in double precision, not in mpmath."""

    OMEGAS = [1e-3, 1e-2, 0.1, 1.0, math.pi, 30.0]
    NS = [0, 1, 2, 3, 7, 40, 100, 200, 500, 1024]

    @staticmethod
    def reference(mpmath, omega, n):
        w = mpmath.mpf(omega)
        alphas = []
        for k in (w / 2, w):  # kappa_1 = omega / sqrt(lam + 2 mu), kappa_2 = omega
            h = mpmath.hankel1(n, k)
            alphas.append(k * (mpmath.hankel1(n - 1, k) - (n / k) * h) / h)
        a1, a2 = alphas
        lam = n * n - a1 * a2
        n12 = 1j * n * (w * w - lam)
        M = [[-lam + a2 * w * w, n12], [-n12, -lam + a1 * w * w]]
        return complex(a1), complex(a2), complex(lam), np.array(
            [[complex(x / lam) for x in row] for row in M])

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_scalars_and_matrices(self, omega):
        mpmath = pytest.importorskip("mpmath")
        spec = build_spectrum(example1_config(omega=omega, N=1024))
        for n in self.NS:
            with mpmath.workdps(30):
                a1, a2, lam, M = self.reference(mpmath, omega, n)
            for got, want in ((spec.alpha1[n], a1), (spec.alpha2[n], a2),
                              (spec.lambda_n[n], lam)):
                assert abs(got - want) <= 1e-14 * abs(want), n
            err = np.abs(spec.matrices[1024 + n] - M).max()
            assert err <= 1e-14 * np.abs(M).max(), n


class TestModeScalarsHighFrequency:
    """alpha_jn against scipy's h1vp/hankel1 up to the order cap."""

    @pytest.mark.parametrize("k2", [289.4, 1000.0])
    def test_alpha_against_scipy(self, k2):
        """The arrays build_spectrum makes at N = 1024 (lam = 2, mu = 1 give
        kappa1 = omega / 2), every order from one mode_scalar_arrays call."""
        k1 = k2 / 2.0
        ns = np.arange(1025)
        spec = build_spectrum(example1_config(omega=k2, N=1024))
        got = np.stack([spec.alpha1, spec.alpha2], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.stack(
                [k * sc.h1vp(ns, k) / sc.hankel1(ns, k) for k in (k1, k2)], axis=1
            )
        ok = np.isfinite(want)
        assert ok[: int(k2) + 100].all()  # scipy is finite well past the turning point
        assert _relerr(got[ok], want[ok]) <= 1e-10

    def test_mpmath_alpha_spot_values(self):
        mpmath = pytest.importorskip("mpmath")
        z = 1000.0
        ns = [0, 1, 500, 990]
        alpha2 = scalars_at(ns, z / 2.0, z)[1]
        for n, got in zip(ns, alpha2):
            with mpmath.workdps(30):
                h = mpmath.hankel1(n, z)
                hp = (mpmath.hankel1(n - 1, z) - mpmath.hankel1(n + 1, z)) / 2
                want = complex(z * hp / h)
            assert abs(got - want) <= 1e-12 * abs(want)


class TestSpectrumRange:
    """build_spectrum(example1_config(omega=10^k, N=35)) for k = -300..306:
    finite mode matrices, or a library error that names omega, and never a
    RuntimeWarning (tier-1 turns those into errors).  Below the range a
    scattering scalar leaves the normal doubles (or z = kappa R leaves
    hankel01's domain); above it an entry of M overflows."""

    ACCEPTED = range(-152, 103)

    def test_sweep(self):
        accepted = []
        for k in range(-300, 307):
            omega = 10.0**k
            try:
                spec = build_spectrum(example1_config(omega=omega, N=35))
            except ElastoDtnError as exc:
                assert f"omega = {omega:g}" in str(exc)
                continue
            assert np.isfinite(spec.matrices).all()
            accepted.append(k)
        assert accepted == list(self.ACCEPTED)

    @pytest.mark.parametrize("k, dps, ns", [
        (ACCEPTED[0], 30, [0, 1, 2, 35]),
        (ACCEPTED[-1], 140, [35]),  # mpmath needs the digits of z to reduce it
    ])
    def test_ends_against_mpmath(self, k, dps, ns):
        """M_n at the two ends of the range against 30 significant digits,
        with Lambda from beta_j = kappa_j H_{n-1}/H_n, which does not cancel
        as n^2 - alpha_1 alpha_2 does at small kappa."""
        mpmath = pytest.importorskip("mpmath")
        spec = build_spectrum(example1_config(omega=10.0**k, N=35))
        with mpmath.workdps(dps):
            w = mpmath.mpf(10.0**k)
            for n in ns:
                b1, b2 = (kap * mpmath.hankel1(n - 1, kap) / mpmath.hankel1(n, kap)
                          for kap in (w / 2, w))
                lam = n * (b1 + b2) - b1 * b2
                n12 = 1j * n * (w * w - lam)
                M = np.array([[complex(x / lam) for x in row] for row in
                              [[-lam + (b2 - n) * w * w, n12], [-n12, -lam + (b1 - n) * w * w]]])
                err = np.abs(spec.matrices[35 + n] - M).max()
                assert err <= 1e-14 * np.abs(M).max(), n
