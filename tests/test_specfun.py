"""Bessel/Hankel evaluation against independent oracles.

Oracles: the defining power series for J_0, the Wronskian identity,
centered finite differences for derivatives, the classical large-order
asymptotics, scipy.special (AMOS) and, when installed, mpmath.  None of
them reuse the recurrence path.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sc

from elastodtn import example1_config
from elastodtn.dtn import build_spectrum
from elastodtn.errors import NonPositiveArgument, OrderCapExceeded, OverflowRegime
from elastodtn.specfun import (
    bessel_jy,
    hankel1,
    hankel_ratio_gap,
    hankel01,
    jy01,
    mode_scalars,
)

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
    """Largest n <= cap with Y_n(z) still representable."""
    lo = 0
    for n in range(cap, -1, -1):
        try:
            bessel_jy(n, z)
            lo = n
            break
        except OverflowRegime:
            continue
    return lo


class TestBesselJy:
    def test_j0_against_power_series(self):
        got = bessel_jy(0, 2.0)[0].j
        assert got == pytest.approx(j0_series(2.0), rel=1e-14)

    @pytest.mark.parametrize("z", [0.7, 2.0, 5.5, 11.0])
    def test_j0_series_various_arguments(self, z):
        assert bessel_jy(0, z)[0].j == pytest.approx(j0_series(z), rel=1e-12)

    def test_wronskian_n5_z3(self):
        pairs = bessel_jy(6, 3.0)
        target = 2.0 / (math.pi * 3.0)
        for n in range(5):
            w = pairs[n + 1].j * pairs[n].y - pairs[n].j * pairs[n + 1].y
            assert w == pytest.approx(target, rel=1e-10)

    def test_large_order_product_asymptotic(self):
        # J_n(z) Y_n(z) -> -1/(pi n): check n |J Y| within 2% at n = 100
        pairs = bessel_jy(100, math.pi)
        prod = abs(pairs[100].j * pairs[100].y)
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
        pairs = bessel_jy(n_max, z)
        target = 2.0 / (math.pi * z)
        worst = max(
            abs(pairs[n + 1].j * pairs[n].y - pairs[n].j * pairs[n + 1].y - target)
            for n in range(n_max)
        )
        assert worst <= 1e-10 * target

    def test_vectorized_matches_scalar(self, rng):
        z = rng.uniform(0.5, 19.0, size=40)
        j0, j1, y0, y1 = jy01(z)
        for i in range(len(z)):
            pairs = bessel_jy(1, float(z[i]))
            assert j0[i] == pytest.approx(pairs[0].j, rel=1e-13, abs=1e-15)
            assert j1[i] == pytest.approx(pairs[1].j, rel=1e-13, abs=1e-15)
            assert y0[i] == pytest.approx(pairs[0].y, rel=1e-13, abs=1e-15)
            assert y1[i] == pytest.approx(pairs[1].y, rel=1e-13, abs=1e-15)


class TestHankel1:
    def test_negative_order_symmetry(self):
        assert hankel1(-3, 2.5).h == pytest.approx(-hankel1(3, 2.5).h, rel=1e-14)

    def test_derivative_identity_at_zero_order(self):
        assert hankel1(0, 1.0).h_prime == pytest.approx(-hankel1(1, 1.0).h, rel=1e-14)

    def test_h_is_j_plus_iy(self):
        pair = bessel_jy(4, 3.3)[4]
        assert hankel1(4, 3.3).h == pytest.approx(complex(pair.j, pair.y), rel=1e-14)

    def test_derivative_against_finite_difference(self):
        delta = 1e-6
        got = hankel1(7, 4.0).h_prime
        fd = (hankel1(7, 4.0 + delta).h - hankel1(7, 4.0 - delta).h) / (2 * delta)
        assert got == pytest.approx(fd, rel=1e-7)

    def test_derivative_fd_random_grid(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 65))
            z = float(rng.uniform(0.5, 20.0))
            delta = 1e-6
            got = hankel1(n, z).h_prime
            fd = (hankel1(n, z + delta).h - hankel1(n, z - delta).h) / (2 * delta)
            assert abs(got - fd) <= 1e-7 * abs(got)


class TestModeScalars:
    def test_n0_kills_angular_term(self):
        ms = mode_scalars(0, K1, K2, 1.0)
        assert ms.lambda_n == pytest.approx(-ms.alpha1 * ms.alpha2, rel=1e-14)

    def test_lambda_asymptotic_n200(self):
        target = (K1**2 + K2**2) / 2.0
        ms = mode_scalars(200, K1, K2, 1.0)
        assert abs(ms.lambda_n - target) <= 10.0 / 200

    def test_parity_in_n(self):
        a = mode_scalars(17, K1, K2, 1.0)
        b = mode_scalars(-17, K1, K2, 1.0)
        assert a.alpha1 == b.alpha1
        assert a.alpha2 == b.alpha2
        assert a.lambda_n == b.lambda_n

    def test_asymptotic_trend_windowed(self):
        """n |Lambda_n - (k1^2+k2^2)/2| bounded, windowed max non-increasing."""
        target = (K1**2 + K2**2) / 2.0
        ns = np.arange(64, 513)
        gaps = np.array(
            [n * abs(mode_scalars(int(n), K1, K2, 1.0).lambda_n - target) for n in ns]
        )
        assert gaps.max() <= 10.0
        windows = [gaps[(ns >= a) & (ns < b)].max() for a, b in [(64, 128), (128, 256), (256, 513)]]
        assert windows[0] + 1e-9 >= windows[1] >= windows[2] - 1e-9
        assert windows[1] + 1e-9 >= windows[2]

    def test_wavenumber_ordering_enforced(self):
        with pytest.raises(ValueError):
            mode_scalars(3, K2, K1, 1.0)

    def test_degenerate_mode_not_triggered_normally(self):
        # the benchmark material sits far from any exceptional pair
        for n in range(0, 50):
            mode_scalars(n, K1, K2, 1.0)


class TestHankelRatioGap:
    def test_equal_wavenumbers_give_zero(self):
        assert hankel_ratio_gap(10, K2, K2, 0.5, 1.0) == 0.0

    def test_bound_at_n60(self):
        g = hankel_ratio_gap(60, K1, K2, 0.5, 1.0)
        bound = K2 * (K2 - K1) * (1.0 - 0.25) * 0.5**60 / 59
        assert g <= bound

    @pytest.mark.parametrize("n", list(range(30, 121, 5)))
    def test_bound_over_range(self, n):
        g = hankel_ratio_gap(n, K1, K2, 0.5, 1.0)
        bound = K2 * (K2 - K1) * (1.0 - 0.25) * 0.5**n / (n - 1)
        assert g <= bound

    def test_exponential_rate_dominates(self):
        g30 = hankel_ratio_gap(30, K1, K2, 0.5, 1.0)
        g40 = hankel_ratio_gap(40, K1, K2, 0.5, 1.0)
        assert g40 / g30 <= 0.5**10 * (29.0 / 39.0) * 4.0

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            hankel_ratio_gap(10, K1, K2, 1.0, 0.5)


def _relerr(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestJy01Oracles:
    """The vectorized kernel against scipy and mpmath over z in [1e-3, 2e3]."""

    # 25 is where Hankel's expansion takes over from Miller's recurrence
    Z = np.concatenate(
        [np.geomspace(1e-3, 2e3, 200_001), 25.0 + np.array([-1e-9, 0.0, 1e-9])]
    )

    def test_hankel01_against_scipy(self):
        h0, h1, _, _ = hankel01(self.Z)
        assert _relerr(h0, sc.hankel1(0, self.Z)) <= 1e-14
        assert _relerr(h1, sc.hankel1(1, self.Z)) <= 1e-14

    def test_small_arguments_that_rescale(self):
        """Down to z = 1e-10 the recurrence passes 1e250 and rescales;
        above z = 1e-3 it never does."""
        z = np.geomspace(1e-10, 24.0, 1001)
        h0, h1, _, _ = hankel01(z)
        assert _relerr(h0, sc.hankel1(0, z)) <= 1e-14
        assert _relerr(h1, sc.hankel1(1, z)) <= 1e-14

    def test_shape_is_kept(self):
        z = np.linspace(1.0, 60.0, 12).reshape(3, 4)
        assert all(a.shape == (3, 4) for a in jy01(z))

    @pytest.mark.parametrize("z", [1e-3, 0.7, 24.999999999, 25.0, 137.5, 1000.0, 2000.0])
    def test_mpmath_spot_values(self, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = [complex(mpmath.hankel1(nu, z)) for nu in (0, 1)]
        h0, h1, _, _ = hankel01(np.array([z]))
        assert abs(h0[0] - want[0]) <= 1e-14 * abs(want[0])
        assert abs(h1[0] - want[1]) <= 1e-14 * abs(want[1])

    @pytest.mark.parametrize("z", [3.0, 24.0, 30.0, 289.4, 1000.0])
    def test_scalar_ladder_shares_the_y_seeds(self, z):
        _, _, y0, y1 = jy01(np.array([z]))
        pairs = bessel_jy(1, z)
        assert pairs[0].y == y0[0]
        assert pairs[1].y == y1[0]

    def test_memory_does_not_grow_with_argument(self):
        z = np.full(20_000, 1000.0)
        tracemalloc.start()
        try:
            jy01(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestModeScalarsHighFrequency:
    """alpha_jn against scipy's h1vp/hankel1 up to the order cap."""

    @pytest.mark.parametrize("k2", [289.4, 1000.0])
    def test_alpha_against_scipy(self, k2):
        """Both inputs: mode_scalars one order at a time, and the arrays
        build_spectrum makes (lam = 2, mu = 1 give kappa1 = omega / 2)."""
        k1 = k2 / 2.0
        ns = np.arange(1025)
        single = np.array(
            [[s.alpha1, s.alpha2] for s in (mode_scalars(int(n), k1, k2, 1.0) for n in ns)]
        )
        spec = build_spectrum(example1_config(omega=k2, N=1024))
        arrays = np.stack([spec.alpha1, spec.alpha2], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.stack(
                [k * sc.h1vp(ns, k) / sc.hankel1(ns, k) for k in (k1, k2)], axis=1
            )
        ok = np.isfinite(want)
        assert ok[: int(k2) + 100].all()  # scipy is finite well past the turning point
        for got in (single, arrays):
            assert _relerr(got[ok], want[ok]) <= 1e-10

    def test_mpmath_alpha_spot_values(self):
        mpmath = pytest.importorskip("mpmath")
        z = 1000.0
        for n in (0, 1, 500, 990):
            with mpmath.workdps(30):
                h = mpmath.hankel1(n, z)
                hp = (mpmath.hankel1(n - 1, z) - mpmath.hankel1(n + 1, z)) / 2
                want = complex(z * hp / h)
            got = mode_scalars(n, z / 2.0, z, 1.0).alpha2
            assert abs(got - want) <= 1e-12 * abs(want)
