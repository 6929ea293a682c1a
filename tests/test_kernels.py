import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2prop import kernels as kn
from sl2prop import numerics as nm
from sl2prop.sl2rep import IDENTITY_IDS, PhysParams

P_LINE = PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)
P_FREE = PhysParams(hbar=1.0, m=1.0, omega=0.0, n=0.5)

# sqrt(1/(2 pi)) e^{-i pi/4}, the coincident-point free kernel at t = 1
FREE_COINCIDENT = 0.28209479177387814 - 0.28209479177387814j
# (1/i) I_0(-i) e^{i}: the order-0 half-line kernel at x1 = x2 = t = 1
H0_N0_REF = 0.64389165088065622 - 0.41343807449223535j


# The one evaluator of the closed forms, under a short name.
kv = kn.kernel_values


class TestFreeKernel:
    def test_coincident_point(self):
        v = kv("free", 1.3, 1.3, 1.0, P_FREE)
        assert v == pytest.approx(FREE_COINCIDENT, rel=1e-14)

    def test_modulus_independent_of_separation(self):
        want = math.sqrt(1.0 / (2.0 * math.pi))
        for dx_sep in (0.0, 0.7, 3.1):
            v = kv("free", 1.0 + dx_sep, 1.0, 1.0, P_FREE)
            assert abs(v) == pytest.approx(want, rel=1e-14)

    def test_time_reversal_conjugates(self):
        a = kv("free", 0.4, 1.9, 0.7, P_FREE)
        b = kv("free", 0.4, 1.9, -0.7, P_FREE)
        assert b == np.conj(a)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            kv("free", 1.0, 1.0, 0.0, P_FREE)


class TestReturnContract:
    # A Python complex at scalar positions, an ndarray of the broadcast shape
    # at array positions, for every kernel at real t.
    @pytest.mark.parametrize("t", [0.7, -0.7])
    @pytest.mark.parametrize("n", [0.5, 1.5])
    @pytest.mark.parametrize("name", kn.KERNEL_NAMES)
    def test_scalar_and_array_positions(self, name, n, t):
        params = PhysParams(n=n)
        assert type(kv(name, 1.1, 0.8, t, params)) is complex
        assert type(kv(name, np.float64(1.1), np.array(0.8), t, params)) is complex
        x1 = np.linspace(0.5, 2.0, 4)[:, None]
        x2 = np.array([0.6, 1.3, 2.1])
        for a, b, shape in ((x1, x2, (4, 3)), (1.1, x2, (3,)), (x1, 0.8, (4, 1))):
            v = kv(name, a, b, t, params)
            assert isinstance(v, np.ndarray)
            assert v.shape == shape and v.dtype == complex

    @pytest.mark.parametrize("n", [0.5, 1.5])
    @pytest.mark.parametrize("name", kn.KERNEL_NAMES)
    def test_kernel_apply_to_an_empty_vector(self, name, n):
        # The FFT path (the line kernels, and the half line at n = 1/2)
        # asked for a transform length of 3 * 0 - 2 and never returned.
        out = kn.kernel_apply(name, 0.5, 0.1, np.zeros(0), 0.7, PhysParams(n=n))
        assert out.shape == (0,) and out.dtype == complex


class TestApplyTransformLength:
    """The FFT apply against the dense matrix where 2N - 1, the least
    circular length that keeps the valid part, falls on either side of a
    power of two, and at ``evolve``'s default column counts."""

    FFT_KERNELS = ["sho", "free", "radial_sho", "radial_h0"]  # at n = 1/2

    @staticmethod
    def check(name, cols, x0, dx, t):
        params = kn.kernel_kind(name).hamiltonian(PhysParams(n=0.5, omega=1.0))
        rng = np.random.default_rng(cols)
        v = rng.normal(size=(cols, 2)) @ np.array([1.0, 1j])
        x = x0 + dx * np.arange(cols)
        want = kv(name, x[:, None], x[None, :], t, params) @ v
        got = kn.kernel_apply(name, x0, dx, v, t, params)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [0.7, -0.4])
    @pytest.mark.parametrize("x0", [0.25, 0.2963], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65])
    @pytest.mark.parametrize("name", FFT_KERNELS)
    def test_small_sizes(self, name, cols, x0, t):
        self.check(name, cols, x0, 0.125, t)

    @pytest.mark.parametrize("name", FFT_KERNELS)
    def test_evolve_default_columns(self, name):
        # 2001 nodes on [-14, 14]; 2000 on (0, 14], the wall node dropped.
        if kn.kernel_kind(name).halfline:
            self.check(name, 2000, 0.007, 0.007, 0.7)
        else:
            self.check(name, 2001, -14.0, 0.014, 0.7)


# Each entry point that goes through the kernel's checks refuses a NaN or
# infinite argument rather than returning NaN values.
@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteArguments:
    @staticmethod
    def point(which, bad):
        args = {"x1": np.array([0.8, 1.2]), "x2": 1.1, "t": 0.7}
        args[which] = np.array([0.8, bad]) if which == "x1" else bad
        return args["x1"], args["x2"], args["t"]

    @pytest.mark.parametrize("which", ["t", "x1", "x2"])
    @pytest.mark.parametrize("name", kn.KERNEL_NAMES)
    def test_kernel_values(self, name, which, bad):
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            kn.kernel_values(name, *self.point(which, bad), PhysParams(n=1.5))

    @pytest.mark.parametrize("which", ["t", "x1", "x2"])
    def test_route_factors(self, which, bad):
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            kn.route_factors("MAIN", *self.point(which, bad), PhysParams(n=1.5))

    @pytest.mark.parametrize("name", ["sho", "radial_sho"])
    def test_kernel_apply(self, name, bad):
        # The nodes x0 + j dx are both positions.
        params = PhysParams(n=1.5)
        with pytest.raises(ValueError, match="x1 must be finite"):
            kn.kernel_apply(name, bad, 0.1, np.ones(8), 0.7, params)
        with pytest.raises(ValueError, match="t must be finite"):
            kn.kernel_apply(name, 0.5, 0.1, np.ones(8), bad, params)


class TestShoKernel:
    def test_quarter_period_value(self):
        v = kv("sho", 1.0, 1.0, math.pi / 2, P_LINE)
        assert abs(v) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-13)
        assert np.angle(v) == pytest.approx(-math.pi / 4 - 1.0, abs=1e-13)

    def test_small_frequency_approaches_free(self):
        p = PhysParams(hbar=1.0, m=1.0, omega=1e-4, n=0.5)
        a = kv("sho", 1.0, 0.5, 1.0, p)
        b = kv("free", 1.0, 0.5, 1.0, p)
        assert abs(a - b) / abs(b) < 1e-8

    def test_caustic_refusal_reports_nearest(self):
        with pytest.raises(kn.CausticSingularity) as exc:
            kv("sho", 1.0, 1.0, math.pi - 1e-12, P_LINE)
        assert exc.value.nearest_caustic_time == pytest.approx(math.pi)

    def test_zero_frequency_is_the_free_limit(self):
        # w alone switches the oscillator on: at w = 0 sho and radial_sho are
        # free and radial_h0 bit for bit, at a point, on arrays and applied.
        x1, x2 = np.array([[0.4], [1.1], [2.3]]), np.array([0.6, 1.7])
        v = np.random.default_rng(7).standard_normal((40, 2)) @ [1.0, 1j]
        for osc, free, n in (("sho", "free", 0.5), ("radial_sho", "radial_h0", 0.5),
                             ("radial_sho", "radial_h0", 1.0),
                             ("radial_sho", "radial_h0", 2.5)):
            p = PhysParams(omega=0.0, n=n)
            for t in (0.7, -1.3, 0.4 - 0.2j):
                assert np.array_equal(kv(osc, x1, x2, t, p), kv(free, x1, x2, t, p))
                assert kv(osc, 1.1, 0.6, t, p) == kv(free, 1.1, 0.6, t, p)
            for t in (0.7, -1.3):
                assert np.array_equal(kn.kernel_apply(osc, 0.3, 0.05, v, t, p),
                                      kn.kernel_apply(free, 0.3, 0.05, v, t, p))

    def test_symmetry_and_time_reversal(self):
        a = kv("sho", 0.3, 1.7, 0.9, P_LINE)
        assert kv("sho", 1.7, 0.3, 0.9, P_LINE) == a
        assert kv("sho", 0.3, 1.7, -0.9, P_LINE) == np.conj(a)


class TestRadialH0Kernel:
    def test_bessel_route_reproduces_image_formula(self):
        # 50 samples; the generic order-n machinery at n = 1/2 must collapse
        # to the free-kernel difference.
        x1s = (0.5, 0.9, 1.3, 1.8, 2.4)
        x2s = (0.6, 1.0, 1.45, 1.9, 2.2)
        for x1 in x1s:
            for x2 in x2s:
                for t in (0.7, 1.9):
                    gen = kv("radial_h0", x1, x2, t, P_FREE)
                    img = kv("free", x1, x2, t, P_FREE) \
                        - kv("free", x1, -x2, t, P_FREE)
                    assert abs(gen - img) / abs(img) < 1e-12

    def test_order_zero_value(self):
        p = PhysParams(hbar=1.0, m=1.0, omega=0.0, n=0.0)
        v = kv("radial_h0", 1.0, 1.0, 1.0, p)
        assert v == pytest.approx(H0_N0_REF, rel=1e-13)

    def test_hermitian_symmetry_exact(self):
        p = PhysParams(n=2.5, omega=0.0)
        x = np.linspace(0.4, 2.6, 9)
        mat = kv("radial_h0", x[:, None], x[None, :], 0.8, p)
        assert np.array_equal(mat, mat.T)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kv("radial_h0", 0.0, 1.0, 0.5, P_FREE)
        with pytest.raises(ValueError):
            kv("radial_h0", 1.0, -1.0, 0.5, P_FREE)
        with pytest.raises(ValueError):
            kv("radial_h0", 1.0, 1.0, 0.0, P_FREE)


class TestRadialShoKernel:
    def test_small_frequency_approaches_h0(self):
        p = PhysParams(hbar=1.0, m=1.0, omega=1e-4, n=2.5)
        a = kv("radial_sho", 0.9, 1.2, 0.8, p)
        b = kv("radial_h0", 0.9, 1.2, 0.8, p)
        assert abs(a - b) / abs(b) < 1e-8

    def test_short_time_ratio_to_free(self):
        # Pointwise on the real-time axis the reflected saddle keeps unit
        # modulus, so the free-kernel limit is read off in the damped
        # half-plane, where the deviation is O(t) and halves with t.
        p = PhysParams(n=1.5, omega=1.0)
        eps = 0.35
        devs = []
        for t in [0.2 / 2**j for j in range(5)]:
            tc = t * (1.0 - 1j * eps)
            ratio = kv("radial_sho", 1.5, 1.5, tc, p) \
                / kv("free", 1.5, 1.5, tc, p)
            devs.append(abs(ratio - 1.0))
        for a, b in zip(devs, devs[1:]):
            assert 1.5 < a / b < 2.5

    def test_half_order_matches_oscillator_image(self):
        # generic Bessel machinery at n = 1/2, wt = pi/4 against the
        # oscillator image combination
        t = math.pi / 4
        for x1, x2 in [(1.0, 1.0), (0.7, 1.6), (2.1, 0.9)]:
            gen = kv("radial_sho", x1, x2, t, P_LINE)
            img = kv("sho", x1, x2, t, P_LINE) - kv("sho", x1, -x2, t, P_LINE)
            assert abs(gen - img) / abs(img) < 1e-12

    def test_re_timed_wrapping(self):
        # oscillator kernel = quadratic phases around the w = 0 kernel at
        # t_eff = sin(wt)/w, the package's central re-parameterization
        p = PhysParams(n=2.5, omega=1.0)
        t = 0.9
        te = np.sin(p.omega * t) / p.omega
        assert te == pytest.approx(math.sin(0.9), rel=1e-15)
        alpha = 0.5 * math.tan(t / 2)
        for x1, x2 in [(0.8, 1.1), (1.9, 0.6)]:
            wrapped = (
                np.exp(-1j * alpha * x1**2)
                * kv("radial_h0", x1, x2, te, p)
                * np.exp(-1j * alpha * x2**2)
            )
            direct = kv("radial_sho", x1, x2, t, p)
            assert abs(wrapped - direct) / abs(direct) < 1e-13

    def test_caustic_and_domain(self):
        p = PhysParams(n=1.5, omega=1.0)
        with pytest.raises(kn.CausticSingularity):
            kv("radial_sho", 1.0, 1.0, math.pi, p)
        with pytest.raises(ValueError):
            kv("radial_sho", -1.0, 1.0, 0.5, p)

    def test_symmetry_and_time_reversal(self):
        p = PhysParams(n=2.5, omega=1.0)
        a = kv("radial_sho", 1.2, 0.7, 0.9, p)
        assert kv("radial_sho", 0.7, 1.2, 0.9, p) == a
        assert kv("radial_sho", 1.2, 0.7, -0.9, p) == np.conj(a)


def mp_radial_kernel(n, x1, x2, t, omega):
    """(sqrt(x1 x2)/(i T)) I_n(x1 x2/(i T)) e^{i c (x1^2+x2^2)/2T} in mpmath
    (hbar = m = 1), with T = sin(wt)/w and c = cos(wt), or T = t, c = 1."""
    with mp.workdps(30):
        x1, x2, t = mp.mpf(x1), mp.mpf(x2), mp.mpf(t)
        T, c = (mp.sin(omega * t) / omega, mp.cos(omega * t)) if omega else (t, 1)
        return complex(mp.sqrt(x1 * x2) / (1j * T) * mp.besseli(n, x1 * x2 / (1j * T))
                       * mp.exp(1j * c * (x1**2 + x2**2) / (2 * T)))


class TestLargeOrder:
    @pytest.mark.parametrize("n, x1, x2, t, omega", [
        (30.0, 4.0, 4.0, 1.0, 0.0),
        (20.0, 2.0, 2.0, 0.3, 1.0),
        (20.0, 2.0, 2.5, 0.4, 1.0),
        # Near the wall, where the image difference of two chirps cancels.
        (0.5, 1e-3, 2e-3, 1.0, 0.0),
        (0.5, 1e-4, 2e-4, 1.0, 0.0),
        (0.5, 1e-6, 2e-6, 1.0, 0.0),
        (0.5, 4e-6, 3e-6, 0.38, 1.0),
        (0.5, 1e-7, 1e-2, 2.5, 1.0),
    ])
    def test_matches_mpmath(self, n, x1, x2, t, omega):
        name = "radial_sho" if omega else "radial_h0"
        v = kv(name, x1, x2, t, PhysParams(omega=omega, n=n))
        ref = mp_radial_kernel(n, x1, x2, t, omega)
        assert abs(v - ref) <= 1e-12 * abs(ref)


def mp_line_kernel(x1, x2, t, omega):
    """sqrt(1/(2 pi i T)) e^{i (c (x1^2+x2^2) - 2 x1 x2)/2T} in mpmath (hbar = m = 1),
    with T = sin(wt)/w and c = cos(wt), or T = t, c = 1."""
    with mp.workdps(30):
        x1, x2, t = mp.mpf(x1), mp.mpf(x2), mp.mpf(t)
        T, c = (mp.sin(omega * t) / omega, mp.cos(omega * t)) if omega else (t, 1)
        return complex(mp.exp(1j * (c * (x1**2 + x2**2) - 2 * x1 * x2) / (2 * T))
                       / mp.sqrt(2 * mp.pi * 1j * T))


class TestLineCoreExponent:
    # Far out and at short times the exponent's terms of size x^2/t cancel
    # down to (x1 - x2)^2/2t; split as (c - 1)(x1^2 + x2^2) + (x1 - x2)^2,
    # the value keeps its digits.
    @pytest.mark.parametrize("name, x1, x2, t", [
        ("free", 1e3, 1e3 + 0.3, 1e-3),
        ("free", 3.3, 3.3 + 0.3, 1e-3),
        ("sho", 1e3, 1e3 + 0.3, 1e-3),
    ])
    def test_matches_mpmath(self, name, x1, x2, t):
        omega = 1.0 if name == "sho" else 0.0
        v = kv(name, x1, x2, t, PhysParams(omega=omega))
        ref = mp_line_kernel(x1, x2, t, omega)
        assert abs(v - ref) <= 1e-14 * abs(ref)

    def test_the_factored_apply_keeps_its_digits_far_out(self):
        # kernel_apply's diagonal phase takes the same split rate: with the
        # cancelling c - 1 it missed the dense sum by 1.4e-9 here.
        x0, dx, points, t = 1e3, 5e-4, 2001, 0.01
        x = x0 + dx * np.arange(points)
        v = np.exp(-(((x - 1000.5) / 0.1) ** 2) + 3j * x)
        want = kv("sho", x[:, None], x[None, :], t, P_LINE) @ v
        got = kn.kernel_apply("sho", x0, dx, v, t, P_LINE)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestConditioning:
    """The contract of the kernels docstring: relative error <= 4 eps kappa,
    kappa = 1 + the magnitudes of the exponent's terms, against 30-digit
    mpmath at hbar = m = w = 1 (w = 0 for free), x2 = x1 + 0.3.  The worst case reads
    1.65 eps kappa (radial_sho, n = 1, x1 = 1e4, t = 2.5)."""

    @pytest.mark.parametrize("name, n, positions", [
        ("free", 0.5, (1e2, 1e4, 1e6)),
        ("sho", 0.5, (1e2, 1e4, 1e6)),
        *(("radial_sho", n, (1.0, 1e2, 1e4)) for n in (0.5, 1.0, 2.5)),
    ])
    def test_relative_error_within_the_conditioning_bound(self, name, n, positions):
        omega = 0.0 if name == "free" else 1.0
        params = PhysParams(omega=omega, n=n)
        halfline = kn.kernel_kind(name).halfline
        for x1 in positions:
            x2 = x1 + 0.3
            for t in (1e-3, 0.5, 2.5):
                T, c = (math.sin(t), math.cos(t)) if omega else (t, 1.0)
                if halfline:
                    kappa = 1.0 + abs(c) * (x1**2 + x2**2) / (2.0 * abs(T)) + x1 * x2 / abs(T)
                    ref = mp_radial_kernel(n, x1, x2, t, omega)
                else:
                    kappa = 1.0 + ((abs(c - 1.0) * (x1**2 + x2**2) + (x1 - x2) ** 2)
                                   / (2.0 * abs(T)))
                    ref = mp_line_kernel(x1, x2, t, omega)
                err = abs(kv(name, x1, x2, t, params) - ref) / abs(ref)
                assert err <= 4.0 * np.finfo(float).eps * kappa, (x1, t, err, kappa)


class TestRouteFactors:
    """Every identity's factors around the w = 0 kernel, on the route grids
    of both domains, against the closed form."""

    # At hbar, m, w = 0.7, 3, 2 the positions scale by the oscillator
    # length sqrt(hbar/(m w)) and the times by 1/w, so every point sits
    # where it does in units hbar = m = w = 1.
    @pytest.mark.parametrize("identity", IDENTITY_IDS)
    @pytest.mark.parametrize("halfline", [True, False])
    def test_every_identity_matches_the_closed_form(self, identity, halfline):
        for hbar, m, omega in ((1.0, 1.0, 1.0), (0.7, 3.0, 2.0)):
            length = math.sqrt(hbar / (m * omega))
            if halfline:
                p, free, closed = PhysParams(hbar, m, omega, n=2.5), "radial_h0", "radial_sho"
                x1s, x2s = np.linspace(0.5, 2.5, 5), np.linspace(0.4, 2.2, 5)
            else:
                p, free, closed = PhysParams(hbar, m, omega, n=0.5), "free", "sho"
                x1s, x2s = np.linspace(-2.0, 2.0, 5), np.linspace(-1.8, 2.2, 5)
            x1s, x2s = x1s[:, None] * length, x2s[None, :] * length
            for wt in np.linspace(-1.4, 1.4, 7):
                if abs(wt) < 0.05:
                    continue  # t = 0 is the delta limit, not a kernel value
                outer, y1, y2, te = kn.route_factors(identity, x1s, x2s, wt / omega, p)
                r = outer * kv(free, y1, y2, te, p)
                d = kv(closed, x1s, x2s, wt / omega, p)
                assert np.max(np.abs(r - d) / np.abs(d)) < 1e-10, (hbar, m, omega, wt)

    def test_a_phase_rate_that_overflows_is_refused_by_name(self):
        # hbar alpha = (m w / 2) tan(w t / 2) is finite; alpha = hbar alpha / hbar is not.
        p = PhysParams(hbar=1e-300, m=1e10, omega=1e10, n=1.0)
        with pytest.raises(ValueError, match="alpha is not finite"):
            kn.route_factors("MAIN", 1.0, 1.5, 0.5, p)

    @pytest.mark.parametrize("identity", IDENTITY_IDS)
    def test_at_zero_frequency_the_factors_are_trivial(self, identity):
        x1, x2 = np.array([0.3, 1.7]), np.array([[0.9], [2.4]])
        outer, y1, y2, te = kn.route_factors(identity, x1, x2, 0.7, P_FREE)
        assert np.all(outer == 1) and te == 0.7
        assert np.array_equal(y1, x1) and np.array_equal(y2, x2)

    def test_a_route_is_not_an_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            kn.route_factors("ELEMENT", 1.0, 1.0, 0.5, P_LINE)


def via_route(identity, w0_kernel, x1, x2, t, params):
    """One identity's factors around the w = 0 kernel, assembled."""
    outer, y1, y2, te = kn.route_factors(identity, x1, x2, t, params)
    return outer * kv(w0_kernel, y1, y2, te, params)


class TestRoutes:
    def test_main_reproduces_oscillator_closed_form(self):
        # the cot(2 theta) = -tan(theta) + 1/sin(2 theta) recombination,
        # numerically: phases x free(t_eff) equals the single closed form
        for x1, x2, wt in [(1.0, 1.0, 0.8), (-0.7, 1.4, 0.45), (2.0, -1.1, 1.2)]:
            r = via_route("MAIN", "free", x1, x2, wt, P_LINE)
            d = kv("sho", x1, x2, wt, P_LINE)
            assert abs(r - d) / abs(d) < 1e-12

    def test_a1a_coupling_free(self):
        r = via_route("A1a", "free", 1.1, 0.6, 0.4, P_LINE)
        d = kv("sho", 1.1, 0.6, 0.4, P_LINE)
        assert abs(r - d) / abs(d) < 1e-12

    def test_main_halfline_order_three_halves(self):
        p = PhysParams(n=1.5, omega=1.0)
        r = via_route("MAIN", "radial_h0", 1.3, 0.9, 0.6, p)
        d = kv("radial_sho", 1.3, 0.9, 0.6, p)
        assert abs(r - d) / abs(d) < 1e-10

    def test_route_validity_windows(self):
        p = PhysParams(n=2.5, omega=1.0)
        with pytest.raises(ValueError):
            kn.route_factors("A1a", 1.0, 1.0, 0.6 * math.pi, p)
        with pytest.raises(kn.CausticSingularity):
            kn.route_factors("MAIN", 1.0, 1.0, math.pi, p)
        with pytest.raises(ValueError):
            kn.route_factors("B9", 1.0, 1.0, 0.5, p)

    # At t = 2 pi the effective time is a rounding residue (-2.4e-16) and
    # the assembled kernel a large finite number where the propagator is a
    # delta: every identity is refused at the caustics, as the kernels are.
    @pytest.mark.parametrize("identity", IDENTITY_IDS)
    @pytest.mark.parametrize("t", [math.pi, 2.0 * math.pi, -2.0 * math.pi])
    def test_every_identity_is_refused_at_a_caustic(self, identity, t):
        with pytest.raises(kn.CausticSingularity):
            kn.route_factors(identity, 0.01, 0.02, t, P_LINE)

    def test_a_complex_time_is_refused_by_name(self):
        with pytest.raises(ValueError, match="route_factors takes a real t"):
            kn.route_factors("MAIN", 1.0, 1.0, 0.7 - 0.1j, P_LINE)


class TestSemigroup:
    """Composition law at damped complex time, where the half-line integral
    converges absolutely; the damped evolution obeys the same semigroup."""

    def test_radial_sho(self):
        p = PhysParams(n=1.5, omega=1.0)
        eps = 0.12
        t1, t2 = 0.35, 0.45
        y = np.linspace(1e-9, 25.0, 4000)
        w = np.full(y.size, y[1] - y[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        lhs = np.sum(
            w
            * kv("radial_sho", 1.3, y, t1 * (1 - 1j * eps), p)
            * kv("radial_sho", y, 0.9, t2 * (1 - 1j * eps), p)
        )
        rhs = kv("radial_sho", 1.3, 0.9, (t1 + t2) * (1 - 1j * eps), p)
        assert abs(lhs - rhs) / abs(rhs) < 1e-6

    def test_free_full_line(self):
        eps = 0.12
        t1, t2 = 0.35, 0.45
        y = np.linspace(-30.0, 30.0, 6000)
        w = np.full(y.size, y[1] - y[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        lhs = np.sum(
            w
            * kv("free", 1.3, y, t1 * (1 - 1j * eps), P_FREE)
            * kv("free", y, 0.9, t2 * (1 - 1j * eps), P_FREE)
        )
        rhs = kv("free", 1.3, 0.9, (t1 + t2) * (1 - 1j * eps), P_FREE)
        assert abs(lhs - rhs) / abs(rhs) < 1e-6


class TestComplexTimeCaustic:
    # A complex t near the real axis falls in the caustic window; the
    # refusal names the nearest caustic from the real part of w t.
    @pytest.mark.parametrize("t,caustic", [(-1e-9j, 0.0), (math.pi - 1e-9j, math.pi),
                                           (-math.pi + 2e-9 + 1e-9j, -math.pi)])
    @pytest.mark.parametrize("name", ["sho", "radial_sho"])
    def test_refused_as_a_caustic(self, name, t, caustic):
        with pytest.raises(kn.CausticSingularity) as exc:
            kn.kernel_values(name, 1.0, 1.0, t, PhysParams(n=1, omega=1))
        assert exc.value.nearest_caustic_time == pytest.approx(caustic, abs=1e-15)
        assert exc.value.t == t


class TestCausticPosition:
    """The one test of where t lies among the caustics."""

    @pytest.mark.parametrize("t,index,nearest", [
        (0.0, 0, 0.0), (-1e-300, -1, 0.0), (1.4, 0, 0.0), (1.7, 0, math.pi),
        (math.pi, 1, math.pi), (-3.5, -2, -math.pi), (3.5 - 20.0j, 1, math.pi)])
    def test_index_and_nearest_caustic(self, t, index, nearest):
        got, near, _ = kn.caustic_position(t, P_LINE)
        assert (got, near) == (index, nearest)

    @pytest.mark.parametrize("t,inside", [(math.pi, True), (math.pi + 2e-8, False),
                                          (-1e-9j, True), (-1e-7j, False),
                                          (1.0 - 800.0j, False)])
    def test_window(self, t, inside):
        # Far from the real axis the window is decided without a sine that
        # overflows, so no RuntimeWarning is raised.
        assert kn.caustic_position(t, P_LINE)[2] == inside

    @pytest.mark.parametrize("t,index,inside", [(0.0, 0, True), (1e-300, 0, False),
                                                (-1e-300, -1, False), (-2.0 - 1.0j, -1, False),
                                                (-1.0j, 0, False)])
    def test_at_zero_omega_only_the_delta_limit_is_singular(self, t, index, inside):
        assert kn.caustic_position(t, P_FREE) == (index, 0.0, inside)

    def test_a_non_finite_omega_t_is_refused_by_name(self):
        with pytest.raises(ValueError, match="w t is not finite"):
            kn.caustic_position(1e308, PhysParams(omega=10.0))


class TestImaginaryTime:
    """At t = -i tau (w = hbar = m = 1) the kernel is the heat kernel
    e^{-tau H}, and its trace is the partition function sum_k e^{-tau E_k},
    a Bessel-free target: e^{-tau (n+1)}/(1 - e^{-2 tau}) on the half line,
    where E_k = 2k + n + 1, and 1/(2 sinh(tau/2)) for sho, where
    E_k = k + 1/2.  The diagonal goes like x^{2n+1} e^{-x^2 tanh(tau/2)},
    so the window [0, sqrt((2n + 82)/tanh(tau/2))] leaves out a part far
    below 1e-12 of it, and 8 panels of 200 Gauss-Legendre nodes resolve it.  On the half
    line the nodes are taken in u = sqrt(x), where the wall's x^{2n+1}
    becomes u^{4n+3}: in x itself the rule reads 1e-10 at n = 0.1."""

    @staticmethod
    def trace(name, params, tau, lo, hi, squared=False):
        x, w = nm.gauss_legendre_panels(np.linspace(lo, hi, 9), 200)
        if squared:
            x, w = x * x, 2.0 * x * w
        return np.sum(w * kv(name, x, x, -1j * tau, params))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(n=st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, 0.5, 1.0, 2.5, 50.0])),
           tau=st.floats(0.2, 3.0))
    def test_half_line_trace_is_the_partition_function(self, n, tau):
        edge = math.sqrt((2.0 * n + 82.0) / math.tanh(tau / 2.0))
        z = math.exp(-tau * (n + 1.0)) / -math.expm1(-2.0 * tau)
        got = self.trace("radial_sho", PhysParams(n=n), tau, 0.0, math.sqrt(edge), True)
        assert abs(got - z) <= 1e-12 * z

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(tau=st.floats(0.2, 3.0))
    def test_sho_trace_is_the_partition_function(self, tau):
        edge = math.sqrt(82.0 / math.tanh(tau / 2.0))
        z = 1.0 / (2.0 * math.sinh(tau / 2.0))
        got = self.trace("sho", P_LINE, tau, -edge, edge)
        assert abs(got - z) <= 1e-12 * z

    @pytest.mark.parametrize("n", [0.5, 1.0, 7.3])
    def test_far_out_point_matches_mpmath(self, n):
        # I_n(225/sinh 0.3) is about e^739, beyond the largest float, while
        # the kernel, about e^{-225 tanh 0.15}, is representable.
        v = kv("radial_sho", 15.0, 15.0, -0.3j, PhysParams(n=n))
        with mp.workdps(30):
            t = mp.mpc(0, -0.3)
            T, c = mp.sin(t), mp.cos(t)
            ref = complex(15 / (1j * T) * mp.besseli(n, 225 / (1j * T))
                          * mp.exp(1j * c * 225 / T))
        assert abs(v - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("t", [0.3j, 0.7 + 1e-3j, -2.0 + 0.5j])
    @pytest.mark.parametrize("name", kn.KERNEL_NAMES)
    def test_the_growing_half_plane_is_refused_by_name(self, name, t):
        with pytest.raises(ValueError, match=r"Im t > 0 is refused"):
            kv(name, 1.0, 1.5, t, PhysParams(n=1.0))

    @pytest.mark.parametrize("name", kn.KERNEL_NAMES)
    def test_kernel_apply_refuses_a_complex_time(self, name):
        # Its tiles cannot fold the damped kernel's e^{x1 x2 |Re A|}.
        with pytest.raises(ValueError, match="kernel_apply takes a real t"):
            kn.kernel_apply(name, 0.5, 0.1, np.ones(8), 0.7 - 0.1j, PhysParams(n=1.0))


class TestOverflowRefusals:
    # Each would otherwise warn, or give NaN values, or both.
    @pytest.mark.parametrize("t", [1e308, np.float64(1e308), 1e308 - 1j])
    @pytest.mark.parametrize("name", ["sho", "radial_sho"])
    def test_a_non_finite_wt_is_refused_by_name(self, name, t):
        params = PhysParams(n=1.0, omega=10.0)
        with pytest.raises(ValueError, match="w t is not finite at w=10"):
            kv(name, 1.0, 1.5, t, params)
        if not np.iscomplexobj(t):
            with pytest.raises(ValueError, match="w t is not finite at w=10"):
                kn.kernel_apply(name, 0.5, 0.1, np.ones(8), t, params)

    @pytest.mark.parametrize("name", ["free", "sho"])
    def test_a_value_that_overflows_is_refused_by_name(self, name):
        # x^2 overflows at x = 1e200, and the line core's exponent is NaN.
        x1 = np.array([0.5, 1e200])
        with pytest.raises(ValueError, match=f"kernel '{name}' is not finite at "
                                             r"x1=9.9999999999999997e\+199, x2=1.5"):
            kv(name, x1, 1.5, 0.2, PhysParams())

    @pytest.mark.parametrize("name", ["sho", "radial_sho"])
    def test_a_far_damped_time_is_refused_by_name(self, name):
        # sin(w t) overflows at t = 1 - 800i, and c/sigma is inf/inf.
        with pytest.raises(ValueError, match=f"kernel '{name}' is not finite at x1=1, x2=1.5"):
            kv(name, 1.0, 1.5, 1.0 - 800j, PhysParams(n=1.0))


class TestScalarPositions:
    # A point gives the same bits alone as inside an array, so a caller that
    # batches its points writes what a caller point by point would.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(name=st.sampled_from(kn.KERNEL_NAMES),
           n=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 50.0)),
           t=st.floats(0.05, 3.0), backward=st.booleans(), damped=st.booleans(),
           xs=st.lists(st.floats(0.05, 6.0), min_size=1, max_size=5))
    def test_a_scalar_point_equals_its_array_element(self, name, n, t, backward, damped, xs):
        t = (-t if backward else t) - (0.3j * t if damped else 0.0)
        params = PhysParams(n=n)
        x = np.array(xs)
        try:
            mat = kv(name, x[:, None], x[None, :], t, params)
        except kn.CausticSingularity:
            assume(False)
        alone = np.array([[kv(name, a, b, t, params) for b in xs] for a in xs])
        assert np.array_equal(alone.view(np.uint64), mat.view(np.uint64))


# The closed forms take the principal branch past the first caustic, where
# the propagator has turned its phase; ROADMAP item 6 keeps the fix.
PAST_CAUSTIC = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 6: principal-branch phase past the first caustic")


class TestPastTheFirstCaustic:
    """Propagator identities across the caustic at t = pi/w, from t in
    (0, pi/w): the full-line oscillator is antiperiodic, U(2 pi/w) = -1,
    and the half-line one has U(pi/w) = e^{-i pi (n+1)}, from its levels
    hbar w (2k + n + 1).  The kernels repeat with the phase e^{+i pi (n+1)}
    instead, which is right only at integer n."""

    POINTS = ((1.1, 0.8), (0.6, 1.9))
    TIMES = (0.7, 2.0)

    @PAST_CAUSTIC
    def test_sho_is_antiperiodic(self):
        for x1, x2 in self.POINTS:
            for t in self.TIMES:
                ratio = kv("sho", x1, x2, t + 2.0 * math.pi, P_LINE) / kv("sho", x1, x2, t, P_LINE)
                assert abs(ratio + 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0.0, 1.0, 2.0, *(pytest.param(n, marks=PAST_CAUSTIC)
                                                    for n in (0.5, 1.3, 2.5))])
    def test_radial_sho_half_period_phase(self, n):
        p = PhysParams(n=n, omega=1.0)
        want = np.exp(-1j * math.pi * (n + 1.0))
        for x1, x2 in self.POINTS:
            for t in self.TIMES:
                ratio = kv("radial_sho", x1, x2, t + math.pi, p) / kv("radial_sho", x1, x2, t, p)
                assert abs(ratio - want) < 1e-12

    # At fixed damping the kernel is analytic in Re t, so it must be
    # continuous across the caustic at w Re t = pi; the check needs no
    # oracle.  The principal branch jumps by 2 |K| there, except at integer n.
    @pytest.mark.parametrize("name, n", [
        pytest.param("sho", 0.5, marks=PAST_CAUSTIC),
        *(pytest.param("radial_sho", n, marks=PAST_CAUSTIC) for n in (0.5, 2.5)),
        ("radial_sho", 1.0),
        ("radial_sho", 0.0),
    ])
    def test_continuous_across_the_caustic_at_fixed_damping(self, name, n):
        p = PhysParams(n=n, omega=1.0)
        before, after = (kv(name, 1.1, 1.7, math.pi + d - 0.3j, p) for d in (-1e-4, 1e-4))
        assert abs(after - before) <= 1e-2 * abs(before)


# hbar and m away from 1, where they would drop out of the arithmetic.
AWAY_FROM_ONE = st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0))


class TestSymmetry:
    # K(x1, x2, t) = K(x2, x1, t) bit for bit on a shared grid (signed zeros
    # included): the kernel table evaluates the upper triangle and mirrors it.
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(name=st.sampled_from(kn.KERNEL_NAMES),
           n=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 50.0)),
           omega=st.floats(0.0, 3.0, exclude_min=True), hbar=AWAY_FROM_ONE, m=AWAY_FROM_ONE,
           t=st.floats(0.01, 3.0), backward=st.booleans(),
           lo=st.floats(-6.0, 6.0), hi=st.floats(-6.0, 6.0), size=st.integers(1, 24))
    def test_the_kernel_equals_its_transpose(self, name, n, omega, hbar, m, t, backward,
                                             lo, hi, size):
        kind = kn.kernel_kind(name)
        if kind.halfline:
            lo, hi = abs(lo) + 0.05, abs(hi) + 0.05
        params = kind.hamiltonian(PhysParams(hbar=hbar, m=m, omega=omega, n=n))
        xs = np.linspace(lo, hi, size)
        try:
            mat = kn.kernel_values(name, xs[:, None], xs[None, :], -t if backward else t,
                                   params)
        except kn.CausticSingularity:
            assume(False)
        bits = mat.view(np.uint64)
        assert np.array_equal(bits, np.ascontiguousarray(mat.T).view(np.uint64))
