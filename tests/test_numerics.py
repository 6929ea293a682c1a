import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2prop import numerics as nm

# Frozen reference values, computed with the mpmath oracles below at 40 dps.
J1_AT_1 = 0.44005058574493352
J0_AT_1 = 0.76519768655796655
J1_AT_2 = 0.57672480775687339
I_HALF_AT_1 = 0.93767488824548765
GAMMA_HALF = 1.7724538509055160
SQRT_PI_OVER_2 = 0.88622692545275801


def series_j_oracle(n, x, terms=30):
    """High-precision ascending series, independent of the implementation."""
    with mp.workdps(40):
        s = mp.mpf(0)
        for k in range(terms):
            s += (-1) ** k * (mp.mpf(x) / 2) ** (2 * k) / (
                mp.factorial(k) * mp.gamma(n + k + 1)
            )
        return float((mp.mpf(x) / 2) ** n * s)


class TestBesselJ:
    def test_at_origin(self):
        assert nm.bessel_j(0, 0.0) == 1.0
        assert nm.bessel_j(1, 0.0) == 0.0
        assert nm.bessel_j(0.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, exact at x = pi/2
        assert nm.bessel_j(0.5, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_order_one_against_series_oracle(self):
        assert series_j_oracle(1, 1) == pytest.approx(J1_AT_1, rel=1e-15)
        assert nm.bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)

    def test_matches_oracle_on_grid(self):
        # The alternating series loses ~5 digits to cancellation by x ~ 12,
        # so the comparison floor sits at the documented 1e-12 scale.
        xs = np.linspace(0.1, 11.5, 23)
        for n in (0.0, 1.0, 2.5, 3.7):
            for x in xs:
                ref = series_j_oracle(n, float(x), terms=60)
                assert nm.bessel_j(n, float(x)) == pytest.approx(ref, abs=2e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nm.bessel_j(1.0, -0.5)
        with pytest.raises(ValueError):
            nm.bessel_j(-1.0, 0.5)

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.5])
    def test_recurrence_residual(self, n):
        x = 0.537 + 0.631 * np.arange(40)
        lhs = nm.bessel_j(n - 1, x) + nm.bessel_j(n + 1, x)
        rhs = (2 * n / x) * nm.bessel_j(n, x)
        scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.full_like(x, 1e-2)])
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-8

    def test_vectorized_matches_scalar(self):
        x = np.array([0.3, 5.0, 20.0])
        vec = nm.bessel_j(2.5, x)
        assert vec.shape == (3,)
        for xi, vi in zip(x, vec):
            assert nm.bessel_j(2.5, float(xi)) == vi


class TestBesselI:
    def test_at_origin(self):
        assert nm.bessel_i_complex(0, 0.0) == 1.0 + 0.0j
        assert nm.bessel_i_complex(2.0, 0.0) == 0.0 + 0.0j

    def test_half_order_real(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
        v = nm.bessel_i_complex(0.5, 1.0)
        assert v.real == pytest.approx(I_HALF_AT_1, rel=1e-14)
        assert v.imag == 0.0

    def test_imaginary_axis_example(self):
        v = nm.bessel_i_complex(1.0, 2j)
        assert v == pytest.approx(1j * J1_AT_2, rel=1e-13)

    @pytest.mark.parametrize("n", [0.0, 1.0, 2.5])
    def test_imaginary_axis_connection(self, n):
        y = np.linspace(0.05, 50.0, 211)
        lhs = nm.bessel_i_complex(n, 1j * y)
        rhs = np.exp(1j * n * np.pi / 2) * nm.bessel_j(n, y)
        assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) <= 1e-10

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.5, 3.0])
    def test_scaled_unscaled_consistency(self, n):
        rng = np.random.default_rng(7)
        z = rng.uniform(-30, 30, 50) + 1j * rng.uniform(-30, 30, 50)
        unscaled = nm.bessel_i_complex(n, z)
        scaled = nm.bessel_i_complex(n, z, scaled=True)
        assert np.allclose(unscaled, scaled * np.exp(np.abs(z.real)), rtol=1e-12)

    def test_scaled_finite_where_unscaled_overflows(self):
        z = 800.0 + 3.0j
        with pytest.raises(OverflowError):
            nm.bessel_i_complex(2.0, z)
        s = nm.bessel_i_complex(2.0, z, scaled=True)
        assert np.isfinite(s.real) and np.isfinite(s.imag)


# Orders drawn from the whole range, with the integer and half-integer
# orders that have their own scipy routines drawn as well.
ORDERS = st.one_of(
    st.floats(0.0, 50.0),
    st.integers(0, 50).map(float),
    st.integers(0, 49).map(lambda k: k + 0.5),
)


class TestBesselAgainstMpmath:
    """The public functions against mpmath across orders and arguments,
    including the |z| = 12 band where an order-blind large-argument
    expansion goes wrong once n^2 is comparable to |z|."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=ORDERS, x=st.floats(0.0, 200.0))
    def test_j_matches_mpmath(self, n, x):
        ref = float(mp.besselj(n, x))
        assert abs(nm.bessel_j(n, x) - ref) <= 1e-13 + 1e-10 * abs(ref)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.one_of(st.floats(1.0, 50.0), st.integers(1, 50).map(float)),
           x=st.floats(0.01, 200.0))
    def test_j_recurrence(self, n, x):
        lhs = nm.bessel_j(n - 1, x) + nm.bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * nm.bessel_j(n, x)
        scale = abs(nm.bessel_j(n - 1, x)) + abs(nm.bessel_j(n + 1, x)) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=ORDERS, r=st.floats(0.0, 40.0), theta=st.floats(-math.pi, math.pi))
    def test_i_off_the_imaginary_axis_matches_mpmath(self, n, r, theta):
        z = complex(r * math.cos(theta), r * math.sin(theta))
        ref = complex(mp.besseli(n, mp.mpc(z.real, z.imag)) * mp.exp(-abs(z.real)))
        # Values below the smallest normal float carry no relative accuracy.
        err = abs(nm.bessel_i_complex(n, z, scaled=True) - ref)
        assert err <= 1e-12 * abs(ref) + np.finfo(float).tiny

    @pytest.mark.parametrize("n", [0.0, 0.03125, 0.3, 1.0, 2.3, 3.5])
    @pytest.mark.parametrize("x", [5e-324, 1e-310, 2e-308, 1e-305, 1e-200])
    def test_tiny_arguments_match_mpmath(self, n, x):
        # scipy's jv and ive return 0 below about 2e-305, spherical_jn NaN
        # at subnormal x.  A complex power of a subnormal z keeps about 13
        # digits, which the 1e-12 bound on I allows for.
        ref = mp.besselj(n, x)
        assert abs(nm.bessel_j(n, x) - ref) <= 1e-14 * abs(ref) + 1e-320
        ref = mp.besseli(n, mp.mpc(x, x))
        assert abs(nm.bessel_i_complex(n, complex(x, x)) - ref) <= 1e-12 * abs(ref) + 1e-320

    @pytest.mark.parametrize("n", [20.0, 30.0])
    def test_large_order_at_the_old_crossover(self, n):
        ref = float(mp.besselj(n, 12.0))
        assert nm.bessel_j(n, 12.0) == pytest.approx(ref, rel=1e-12)

    def test_non_finite_result_is_refused(self):
        # AMOS gives up on |z| beyond about 1e9 and returns NaN.
        with pytest.raises(ValueError, match="non-finite"):
            nm.bessel_i_complex(2.5, 1.1e9 + 1j)

    def test_non_finite_result_of_j_is_refused(self, monkeypatch):
        monkeypatch.setattr(nm.special, "jv", lambda n, x: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            nm.bessel_j(2.3, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            nm.bessel_i_complex(2.3, 2j)


class TestGamma:
    def test_values(self):
        assert nm.gamma_real(1.0) == 1.0
        assert nm.gamma_real(0.5) == pytest.approx(GAMMA_HALF, rel=1e-15)
        assert nm.gamma_real(5.0) == 24.0

    def test_domain(self):
        with pytest.raises(ValueError):
            nm.gamma_real(0.0)
        with pytest.raises(ValueError):
            nm.gamma_real(-1.3)


class TestIntegrateOscillatory:
    def test_gaussian_sanity(self):
        spec = nm.QuadratureSpec(panel_count=16, k_max=12.0, eps_schedule=(0.0,))
        res = nm.integrate_oscillatory(lambda k, eps: np.exp(-(k**2)), spec)
        assert res.value.real == pytest.approx(SQRT_PI_OVER_2, abs=1e-12)
        assert res.error_estimate < 1e-10

    def test_damped_fresnel_extrapolates(self):
        # integral of k e^{-i k^2 (1 - i eps)/2} over (0, k_max] equals
        # 1/(i (1 - i eps)) up to the truncated tail; the extrapolated value
        # must approach the undamped limit -i far better than any single
        # damping level does.
        spec = nm.QuadratureSpec(panel_count=600, k_max=80.0,
                                 eps_schedule=(0.04, 0.02, 0.01))

        def f(k, eps):
            tc = 1.0 - 1j * eps
            return k * np.exp(-1j * k**2 * tc / 2.0)

        res = nm.integrate_oscillatory(f, spec)
        raw = nm.integrate_oscillatory(f, replace(spec, eps_schedule=(0.04,)))
        assert res.value == pytest.approx(-1j, abs=5e-5)
        assert abs(res.value + 1j) < abs(raw.value + 1j) / 100.0

    def test_truncation_failure_raised(self):
        spec = nm.QuadratureSpec(panel_count=8, k_max=5.0, eps_schedule=(0.0,))
        with pytest.raises(nm.NonConvergenceError) as exc:
            nm.integrate_oscillatory(lambda k, eps: 1.0 / (1.0 + k**2), spec,
                                     tolerance=1e-6)
        assert exc.value.error_estimate > 1e-6

    def test_default_schedule(self):
        spec = nm.QuadratureSpec(panel_count=4, k_max=1.0)
        assert spec.eps_schedule == (1e-2, 5e-3, 2.5e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nm.QuadratureSpec(panel_count=0, k_max=1.0)
        with pytest.raises(ValueError):
            nm.QuadratureSpec(panel_count=4, k_max=-1.0)
        with pytest.raises(ValueError):
            nm.QuadratureSpec(panel_count=4, k_max=1.0, eps_schedule=(1.5,))
        for bad in [(1e-2, 1e-2), (1e-3, 1e-2), ()]:  # duplicate, increasing, empty
            with pytest.raises(ValueError):
                nm.QuadratureSpec(panel_count=4, k_max=1.0, eps_schedule=bad)

    def test_one_integrand_call_per_level_plus_the_coarse_pass(self):
        spec = nm.QuadratureSpec(panel_count=4, k_max=6.0, eps_schedule=(0.1, 0.05, 0.02))
        calls = []

        def f(k, eps):
            calls.append(eps)
            return np.exp(-(k**2) * (1.0 + eps))

        nm.integrate_oscillatory(f, spec)
        assert len(calls) == len(spec.eps_schedule) + 1
