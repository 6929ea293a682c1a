import math

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

    def test_a_non_finite_order_is_refused_by_name(self):
        # J_inf(1) read 0.0 and e^{-|Re z|} I_inf(i) nan + nanj.
        for bessel, z in ((nm.bessel_j, 1.0), (nm.bessel_j, 1.0 + 0j),
                          (nm.bessel_i_complex, 1j), (nm.bessel_i_complex, 1.0)):
            with pytest.raises(ValueError, match="Bessel order must be finite, got n=inf"):
                bessel(math.inf, z)

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.5])
    def test_recurrence_residual(self, n):
        x = 0.537 + 0.631 * np.arange(40)
        lhs = nm.bessel_j(n - 1, x) + nm.bessel_j(n + 1, x)
        rhs = (2 * n / x) * nm.bessel_j(n, x)
        scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.full_like(x, 1e-2)])
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-8

    def test_complex_argument_takes_amos_at_every_order(self, monkeypatch):
        # Complex dtype, even on the real axis, never reaches the Cephes and
        # spherical routines that real arguments take at n = 0, 1/2 and 1.
        z = np.array([0.3 - 0.2j, 2.0 + 0.0j, 7.5 - 3.0j, 40.0 + 6.0j])
        want = {n: [complex(mp.besselj(n, mp.mpc(v.real, v.imag))) for v in z]
                for n in (0.0, 0.5, 1.0, 2.3)}

        def refuse(*args):
            raise AssertionError("a complex argument reached a real-axis routine")

        for name in ("j0", "j1", "spherical_jn"):
            monkeypatch.setattr(nm.special, name, refuse)
        for n, ref in want.items():
            out = nm.bessel_j(n, z)
            assert out.dtype == complex
            assert np.allclose(out, ref, rtol=1e-13, atol=0.0)
        assert type(nm.bessel_j(1.0, 2.0 + 0.0j)) is complex

    def test_complex_domain_errors(self):
        with pytest.raises(ValueError, match="Re x >= 0"):
            nm.bessel_j(1.0, -0.5 + 1.0j)
        with pytest.raises(ValueError, match="phase"):
            nm.bessel_j(1.0, np.array([1.0 + 0.0j, 1e15 + 1e15j]))

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
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, scaled by e^{-|Re z|}
        v = nm.bessel_i_complex(0.5, 1.0)
        assert v.real == pytest.approx(I_HALF_AT_1 * math.exp(-1.0), rel=1e-14)
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

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.3, 20.0])
    def test_mixed_array_equals_scalar_calls(self, n):
        # On-axis (both signs), off-axis, zero, real and tiny arguments in one
        # array take the same path per element as one at a time.
        z = np.array([2.5j, -2.5j, 3.0 + 1.0j, -1.5 - 0.5j, 0.0, 1.7, -4.0j,
                      1e-200j, -1e-200j, 0.2 - 7.0j, -6.0])
        vec = nm.bessel_i_complex(n, z)
        assert np.array_equal(vec, [nm.bessel_i_complex(n, v) for v in z])

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.3, 20.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_side_of_the_axis_equals_scalar_calls(self, n, sign, monkeypatch):
        y = [1e-200, 3e-160, 1e-151, 0.3, 1.0, 2.5, 17.0, 99.5]
        if n in (0.0, 1.0):
            y += [2e6, 7.3e9]
        z = sign * 1j * np.array(y)
        want = [nm.bessel_i_complex(n, v) for v in z]

        def no_amos(*args):
            raise AssertionError("an array on one side of the axis reached ive")

        monkeypatch.setattr(nm.special, "ive", no_amos)
        vec = nm.bessel_i_complex(n, z)
        assert vec.dtype == complex
        assert np.array_equal(vec, want)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.3, 20.0])
    @pytest.mark.parametrize("z", [
        [2.5j, 1e-200j, -4.0j, 17.0j],  # both signs
        [2.5j, 1e-200j, 4.0j, 0.5 + 17.0j],  # one point off the axis
        [-2.5j, -4.0j, 1e-300 - 1.0j],  # one point just off the axis
        [2.5j, 0.0, 4.0j],  # the origin
    ], ids=["both-signs", "off-axis", "just-off-axis", "origin"])
    def test_arrays_across_or_off_the_axis_equal_scalar_calls(self, n, z):
        z = np.array(z)
        vec = nm.bessel_i_complex(n, z)
        assert np.array_equal(vec, [nm.bessel_i_complex(n, v) for v in z])

    def test_scaled_finite_where_unscaled_overflows(self):
        # I_2(800 + 3i) is about e^800, beyond the largest float.
        z = 800.0 + 3.0j
        s = nm.bessel_i_complex(2.0, z)
        ref = complex(mp.besseli(2, mp.mpc(z.real, z.imag)) * mp.exp(-abs(z.real)))
        assert np.isfinite(s.real) and np.isfinite(s.imag)
        assert abs(s - ref) <= 1e-12 * abs(ref)


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
    @given(n=ORDERS, r=st.floats(0.0, 60.0), theta=st.floats(-math.pi / 2, math.pi / 2))
    def test_j_in_the_right_half_plane_matches_mpmath(self, n, r, theta):
        z = complex(r * math.cos(theta), r * math.sin(theta))
        ref = complex(mp.besselj(n, mp.mpc(z.real, z.imag)))
        # J_n has zeros on the real axis only; there the absolute floor,
        # scaled by the growth e^{|Im z|} off it, takes over.
        err = abs(nm.bessel_j(n, z) - ref)
        assert err <= 1e-12 * abs(ref) + 1e-16 * math.exp(abs(z.imag))

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
        err = abs(nm.bessel_i_complex(n, z) - ref)
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

    # Both sides of the j0/j1 -> jv hand-over at 1e6 and of the refusal
    # above 1e15, as a fraction of the envelope sqrt(2 / pi x).  Cephes j0
    # and j1 err by 3e-11 of it just below 1e6 and by 2e-3 at 1e14; jv
    # stays within 2e-16 up to 1e15 and is wrong by order one at 1e16.
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 1.3, 2.5])
    @pytest.mark.parametrize("x,bound", [(9.9e5, 1e-10), (1.01e6, 1e-14), (1e8, 1e-14),
                                         (1e14, 1e-14), (1e15, 1e-14)])
    def test_large_arguments_keep_their_phase(self, n, x, bound):
        with mp.workdps(40):
            ref = float(mp.besselj(n, mp.mpf(x)))
        envelope = math.sqrt(2.0 / (math.pi * x))
        assert abs(nm.bessel_j(n, x) - ref) <= bound * envelope
        assert abs(nm.bessel_j(n, np.array([1.0, x]))[1] - ref) <= bound * envelope

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 1.3, 2.5])
    def test_arguments_beyond_1e15_are_refused(self, n):
        with pytest.raises(ValueError, match="phase"):
            nm.bessel_j(n, 1.01e15)
        with pytest.raises(ValueError, match="phase"):
            nm.bessel_j(n, np.array([1.0, 1e16]))
        with pytest.raises(ValueError, match="phase"):
            nm.bessel_i_complex(n, 2e15j)

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


class TestIntegrateOscillatory:
    def test_gaussian_sanity(self):
        spec = nm.QuadratureSpec(panel_count=16, k_max=12.0)
        res = nm.integrate_oscillatory(lambda k: np.exp(-(k**2)), spec)
        assert res.value.real == pytest.approx(SQRT_PI_OVER_2, abs=1e-12)
        assert res.quad_err + res.tail_err < 1e-10

    def test_graded_first_panel_integrates_a_power_at_the_origin(self):
        # A spectral integrand behaves like k^{2n+1} at k = 0; at n = 0.024
        # the plain first panel misses the integral of k^0.048 over (0, 1]
        # by 8e-6, the graded one by 6e-15.
        exact = 1.0 / 1.048
        res = nm.integrate_oscillatory(lambda k: k**0.048, nm.QuadratureSpec(4, 1.0))
        assert res.value == pytest.approx(exact, abs=1e-13)
        k, w = nm.gauss_legendre_panels(np.linspace(0.0, 1.0, 5))
        assert abs(np.sum(w * k**0.048) - exact) > 1e-6

    def test_truncation_failure_raised(self):
        # Truncating 1/(1 + k²) at k_max = 5 shows as an error estimate above the bound.
        spec = nm.QuadratureSpec(panel_count=8, k_max=5.0)
        res = nm.integrate_oscillatory(lambda k: 1.0 / (1.0 + k**2), spec)
        assert res.quad_err + res.tail_err > 1e-6

    def test_nonconvergence_surfaces_estimate(self):
        # The damped chirp k e^{-(i + 0.05) k^2/2} integrates to 1/(i + 0.05);
        # four panels for its 450 rad on (0, 30] resolve nothing, and the
        # node-halving term says so.  Sixty panels resolve it, down to the
        # e^{-22.5} tail.
        def chirp(k):
            return k * np.exp(-(1j + 0.05) * k**2 / 2.0)

        exact = 1.0 / (1j + 0.05)
        coarse = nm.integrate_oscillatory(chirp, nm.QuadratureSpec(4, 30.0))
        assert abs(coarse.value - exact) > 1e-2
        assert coarse.quad_err > abs(coarse.value - exact)
        fine = nm.integrate_oscillatory(chirp, nm.QuadratureSpec(60, 30.0))
        assert abs(fine.value - exact) < 1e-9
        assert abs(fine.value - exact) < fine.quad_err + fine.tail_err < 1e-8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nm.QuadratureSpec(panel_count=0, k_max=1.0)
        with pytest.raises(ValueError):
            nm.QuadratureSpec(panel_count=4, k_max=-1.0)

    @pytest.mark.parametrize("k_max", [math.inf, math.nan])
    def test_a_non_finite_k_max_is_refused_by_name(self, k_max):
        # An infinite k_max gave nan + 0j and NaN error terms.
        with pytest.raises(ValueError, match="k_max must be finite and > 0"):
            nm.QuadratureSpec(panel_count=4, k_max=k_max)

    def test_a_plain_spec_takes_equal_panels(self):
        # No graded pieces: 4 panels of 24 fine and 12 coarse nodes.
        calls = []

        def integrand(k):
            calls.append(k)
            return np.exp(-(k**2))

        res = nm.integrate_oscillatory(integrand, nm.QuadratureSpec(4, 6.0, graded=False))
        assert [k.size for k in calls] == [4 * 24, 4 * 12]
        k, _ = nm.gauss_legendre_panels(np.linspace(0.0, 6.0, 5))
        assert np.array_equal(calls[0], k)
        assert res.value.real == pytest.approx(SQRT_PI_OVER_2, abs=1e-12)

    def test_one_integrand_call_on_the_fine_and_one_on_the_coarse_nodes(self):
        # The first panel is graded into 16 pieces, so 4 panels are 19 pieces,
        # each of 24 fine and 12 coarse nodes.
        spec = nm.QuadratureSpec(panel_count=4, k_max=6.0)
        calls = []

        def integrand(k):
            calls.append(k.size)
            return np.exp(-(k**2))

        nm.integrate_oscillatory(integrand, spec)
        assert calls == [19 * 24, 19 * 12]

    def test_the_graded_first_panel_is_16_pieces_that_shrink_by_4(self):
        # One density for every piece: at q = 4 the rule converges like 3^-2N,
        # so the node-halving estimate stays at roundoff too.
        edges = nm._panel_edges(nm.QuadratureSpec(4, 1.0))
        h = 0.25  # the first panel
        assert np.array_equal(edges, np.r_[0.0, h / 4.0 ** np.arange(15, 0, -1),
                                           np.linspace(h, 1.0, 4)])
        with mp.workdps(30):
            exact = complex(mp.quad(lambda k: k ** mp.mpf("0.048") * mp.exp(3j * k), [0, 1]))
        res = nm.integrate_oscillatory(lambda k: k**0.048 * np.exp(3j * k),
                                       nm.QuadratureSpec(4, 1.0))
        assert abs(res.value - exact) < 1e-13 * abs(exact)
        assert res.quad_err < 1e-13 * abs(exact)

    def test_integrand_sees_at_most_one_block_of_nodes(self):
        panels = 2 * nm._BLOCK_PANELS + 3
        spec = nm.QuadratureSpec(panel_count=panels, k_max=6.0)
        calls = []

        def integrand(k):
            calls.append(k.size)
            return np.exp(-(k**2))

        nm.integrate_oscillatory(integrand, spec)
        assert max(calls) == nm._BLOCK_PANELS * 24
        assert sum(calls) == (panels + 15) * (24 + 12)

    def test_batch_matches_one_integrand_at_a_time(self):
        # Every term of the result, elementwise over a (2, 3) batch, against
        # the scalar integrals; the block walk spans three blocks.
        spec = nm.QuadratureSpec(panel_count=2 * nm._BLOCK_PANELS + 5, k_max=12.0)
        a = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])[..., None]

        def one(a):
            return lambda k: np.cos(a * k) * np.exp(-(1j + 0.3) * k**2 / 2.0)

        res = nm.integrate_oscillatory(one(a), spec)
        assert res.value.shape == res.quad_err.shape == res.tail_err.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = nm.integrate_oscillatory(one(a[idx]), spec)
            assert isinstance(single.value, complex) and isinstance(single.quad_err, float)
            assert res.value[idx] == pytest.approx(single.value, rel=1e-13, abs=1e-15)
            for term in ("quad_err", "tail_err"):
                assert getattr(res, term)[idx] == pytest.approx(getattr(single, term),
                                                                rel=1e-6, abs=1e-15)
