import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2prop import kernels as kn
from sl2prop.sl2rep import PhysParams

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
    def test_kernel_via_route(self, which, bad):
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            kn.kernel_via_route("ELEMENT", *self.point(which, bad), PhysParams(n=1.5))

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

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            kv("sho", 1.0, 1.0, 0.5, P_FREE)

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


class TestRoutes:
    def test_element_reproduces_oscillator_closed_form(self):
        # the cot(2 theta) = -tan(theta) + 1/sin(2 theta) recombination,
        # numerically: phases x free(t_eff) equals the single closed form
        for x1, x2, wt in [(1.0, 1.0, 0.8), (-0.7, 1.4, 0.45), (2.0, -1.1, 1.2)]:
            r = kn.kernel_via_route("ELEMENT", x1, x2, wt, P_LINE, halfline=False)
            d = kv("sho", x1, x2, wt, P_LINE)
            assert abs(r - d) / abs(d) < 1e-12

    def test_a1a_coupling_free(self):
        r = kn.kernel_via_route("A1a", 1.1, 0.6, 0.4, P_LINE, halfline=False)
        d = kv("sho", 1.1, 0.6, 0.4, P_LINE)
        assert abs(r - d) / abs(d) < 1e-12

    def test_element_halfline_order_three_halves(self):
        p = PhysParams(n=1.5, omega=1.0)
        r = kn.kernel_via_route("ELEMENT", 1.3, 0.9, 0.6, p)
        d = kv("radial_sho", 1.3, 0.9, 0.6, p)
        assert abs(r - d) / abs(d) < 1e-10

    @pytest.mark.parametrize("route", ["ELEMENT", "A1a", "A2a", "A3a"])
    def test_route_equivalence_grid_halfline(self, route):
        # 5 x 5 x 7 grid in (x1, x2, wt), order 5/2
        p = PhysParams(n=2.5, omega=1.0)
        x1s = np.linspace(0.5, 2.5, 5)
        x2s = np.linspace(0.4, 2.2, 5)
        wts = np.linspace(-1.4, 1.4, 7)
        for wt in wts:
            if abs(wt) < 0.05:
                continue  # t = 0 is the delta limit, not a kernel value
            pt = (x1s[:, None], x2s[None, :], float(wt))
            r = kn.kernel_via_route(route, *pt, p)
            d = kv("radial_sho", *pt, p)
            assert np.max(np.abs(r - d) / np.abs(d)) < 1e-10

    @pytest.mark.parametrize("route", ["ELEMENT", "A1a", "A2a", "A3a"])
    def test_route_equivalence_grid_line(self, route):
        x1s = np.linspace(-2.0, 2.0, 5)
        x2s = np.linspace(-1.8, 2.2, 5)
        wts = np.linspace(-1.4, 1.4, 7)
        for wt in wts:
            if abs(wt) < 0.05:
                continue
            pt = (x1s[:, None], x2s[None, :], float(wt))
            r = kn.kernel_via_route(route, *pt, P_LINE, halfline=False)
            d = kv("sho", *pt, P_LINE)
            assert np.max(np.abs(r - d) / np.abs(d)) < 1e-10

    def test_route_validity_windows(self):
        p = PhysParams(n=2.5, omega=1.0)
        with pytest.raises(ValueError):
            kn.kernel_via_route("A1a", 1.0, 1.0, 0.6 * math.pi, p)
        with pytest.raises(kn.CausticSingularity):
            kn.kernel_via_route("ELEMENT", 1.0, 1.0, math.pi, p)
        with pytest.raises(ValueError):
            kn.kernel_via_route("ELEMENT", 1.0, 1.0, 0.5, p, halfline=False)  # needs lam = 0
        with pytest.raises(ValueError):
            kn.kernel_via_route("B9", 1.0, 1.0, 0.5, p)


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
