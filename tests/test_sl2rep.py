import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2prop import sl2rep as sr

P = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)


class TestPhysParams:
    def test_coupling_is_derived(self):
        p = sr.PhysParams(hbar=2.0, m=1.0, omega=0.5, n=1.5)
        assert p.lam == pytest.approx(4.0 * (2.25 - 0.25))

    def test_from_coupling_roundtrip(self):
        p = sr.PhysParams.from_coupling(2.0, hbar=1.0)
        assert p.n == pytest.approx(1.5)
        assert p.lam == pytest.approx(2.0)

    def test_coupling_floor(self):
        sr.PhysParams.from_coupling(-0.25)  # boundary case n = 0
        with pytest.raises(ValueError):
            sr.PhysParams.from_coupling(-0.26)

    def test_validation(self):
        with pytest.raises(ValueError):
            sr.PhysParams(hbar=-1.0)
        with pytest.raises(ValueError):
            sr.PhysParams(m=0.0)
        with pytest.raises(ValueError):
            sr.PhysParams(omega=-0.1)
        with pytest.raises(ValueError):
            sr.PhysParams(n=-0.5)

    @pytest.mark.parametrize("field", ["hbar", "m", "omega", "n"])
    def test_refuses_an_infinite_constant(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            sr.PhysParams(**{field: math.inf})

    def test_from_coupling_refuses_an_infinite_input(self):
        with pytest.raises(ValueError, match="n must be finite"):
            sr.PhysParams.from_coupling(math.inf)
        with pytest.raises(ValueError, match="omega must be finite"):
            sr.PhysParams.from_coupling(1.0, omega=math.inf)


class TestGeneratorMatrices:
    def test_matrix_entries(self):
        assert np.array_equal(sr.generator_matrix("X2", P),
                              np.array([[0, 2.0], [0, 0]], dtype=complex))
        assert np.array_equal(sr.generator_matrix("D", P),
                              np.array([[-2j, 0], [0, 2j]]))
        assert np.array_equal(sr.generator_matrix("P2L", P),
                              np.array([[0, 0], [2.0, 0]], dtype=complex))

    @pytest.mark.parametrize("params", [
        P,
        sr.PhysParams(hbar=0.7, m=3.0, omega=2.0, n=2.5),
        sr.PhysParams(hbar=2.0, m=0.5, omega=0.0, n=0.0),
    ])
    def test_commutator_table(self, params):
        h = params.hbar
        x2 = sr.generator_matrix("X2", params)
        p2l = sr.generator_matrix("P2L", params)
        d = sr.generator_matrix("D", params)
        assert np.max(np.abs((x2 @ p2l - p2l @ x2) - 2j * h * d)) <= 1e-14
        assert np.max(np.abs((x2 @ d - d @ x2) - 4j * h * x2)) <= 1e-14
        assert np.max(np.abs((p2l @ d - d @ p2l) + 4j * h * p2l)) <= 1e-14

    def test_independent_of_coupling(self):
        strong = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=4.5)
        for gen in sr.GENERATOR_IDS:
            assert np.array_equal(sr.generator_matrix(gen, P),
                                  sr.generator_matrix(gen, strong))


class TestExpTraceless:
    def test_zero_matrix(self):
        assert np.array_equal(sr.exp_traceless(np.zeros((2, 2))), np.eye(2))

    def test_oscillator_exponential(self):
        for t in (0.3, 1.0, 2.7):
            m = -1j * t * (sr.generator_matrix("P2L", P) / 2
                           + sr.generator_matrix("X2", P) / 2)
            got = sr.exp_traceless(m)
            want = np.array([[np.cos(t), -1j * np.sin(t)],
                             [-1j * np.sin(t), np.cos(t)]])
            assert np.max(np.abs(got - want)) < 1e-14

    def test_quarter_period_value(self):
        m = -1j * (np.pi / 2) * (sr.generator_matrix("P2L", P) / 2
                                 + sr.generator_matrix("X2", P) / 2)
        got = sr.exp_traceless(m)
        want = np.array([[0, -1j], [-1j, 0]])
        assert np.max(np.abs(got - want)) < 1e-15

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            sr.exp_traceless(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_unit_determinant_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            m = np.array([[a, b], [c, -a]])
            m *= 10.0 / max(1.0, np.max(np.abs(m)))
            e = sr.exp_traceless(m)
            det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            assert abs(det - 1.0) < 1e-12 * max(1.0, np.max(np.abs(e)) ** 2)

    def test_small_s_limit(self):
        m = np.array([[1e-7, 2e-7], [3e-7, -1e-7]], dtype=complex)
        e = sr.exp_traceless(m)
        assert np.max(np.abs(e - np.eye(2) - m)) < 1e-13

    def test_a_stack_equals_its_matrices_one_at_a_time(self):
        # Zero, series (|s| < 1e-4), oscillating and growing matrices in one
        # (3, 4) stack: each takes the arithmetic it takes alone.
        rng = np.random.default_rng(7)
        a, b, c = rng.uniform(-1, 1, (3, 12)) + 1j * rng.uniform(-1, 1, (3, 12))
        stack = np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)
        stack *= np.array([0.0, 1e-7, 1e-5, 0.5, 1.0, 3.0, 10.0, 30.0, 1e-3, 2.0, 5.0, 0.1])[
            :, None, None]
        stack = stack.reshape(3, 4, 2, 2)
        got = sr.exp_traceless(stack)
        assert got.shape == (3, 4, 2, 2)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(got[idx], sr.exp_traceless(stack[idx]))

    def test_a_stack_holding_one_traced_matrix_is_refused(self):
        stack = np.zeros((5, 2, 2), dtype=complex)
        stack[:, 0, 1] = 1.0
        stack[3] = [[1.0, 0.0], [0.0, 0.5]]
        with pytest.raises(ValueError, match="not traceless"):
            sr.exp_traceless(stack)

    def test_a_non_square_shape_is_refused(self):
        for shape in ((2,), (3, 3), (4, 2, 3)):
            with pytest.raises(ValueError, match="2x2"):
                sr.exp_traceless(np.zeros(shape))


class TestFactorCoeffs:
    def test_symmetric_split_at_quarter_period(self):
        c = sr.factor_coeffs("MAIN", math.pi / 2, P)
        assert c.alpha == pytest.approx(0.5, rel=1e-14)
        assert c.beta == pytest.approx(0.5, rel=1e-14)
        assert c.gamma == 0.0

    @pytest.mark.parametrize("ident", sr.IDENTITY_IDS)
    def test_zero_time(self, ident):
        c = sr.factor_coeffs(ident, 0.0, P)
        assert c.alpha == 0.0 and c.beta == 0.0 and c.gamma == 0.0

    def test_a3a_values(self):
        c = sr.factor_coeffs("A3a", math.pi / 3, P)
        assert c.gamma == pytest.approx(math.log(0.5) / 2, rel=1e-14)
        assert c.alpha == pytest.approx(0.5 * math.tan(math.pi / 3), rel=1e-14)
        assert c.beta == pytest.approx(
            math.sin(math.pi / 3) * math.cos(math.pi / 3) / 2, rel=1e-14)

    def test_divergence_is_named(self):
        with pytest.raises(ValueError, match="alpha"):
            sr.factor_coeffs("MAIN", math.pi, P)
        with pytest.raises(ValueError, match="gamma"):
            sr.factor_coeffs("A1a", 0.6 * math.pi, P)

    def test_zero_frequency_limit(self):
        p0 = sr.PhysParams(hbar=1.0, m=2.0, omega=0.0, n=0.5)
        for ident in sr.IDENTITY_IDS:
            c = sr.factor_coeffs(ident, 0.8, p0)
            assert c.alpha == 0.0 and c.gamma == 0.0
            assert c.beta == pytest.approx(0.8 / 4.0)
        # small omega approaches the omega = 0 values
        psmall = sr.PhysParams(hbar=1.0, m=2.0, omega=1e-6, n=0.5)
        c = sr.factor_coeffs("A2a", 0.8, psmall)
        assert c.beta == pytest.approx(0.2, rel=1e-9)

    def test_conjugation_pairing(self):
        # alpha and beta are odd in t, the gamma defining equation is even,
        # and each 'b' identity at -t carries the negated coefficient set of
        # its 'a' partner (the adjoint factorization).
        for pair_a, pair_b in (("A1a", "A1b"), ("A2a", "A2b"), ("A3a", "A3b")):
            for t in (0.2, 0.7, 1.1):
                ca = sr.factor_coeffs(pair_a, t, P)
                ca_neg = sr.factor_coeffs(pair_a, -t, P)
                assert ca_neg.alpha == pytest.approx(-ca.alpha, rel=1e-13)
                assert ca_neg.beta == pytest.approx(-ca.beta, rel=1e-13)
                assert ca_neg.gamma == pytest.approx(ca.gamma, rel=1e-13)
                cb_neg = sr.factor_coeffs(pair_b, -t, P)
                assert cb_neg.alpha == pytest.approx(-ca.alpha, rel=1e-13)
                assert cb_neg.beta == pytest.approx(-ca.beta, rel=1e-13)
                assert cb_neg.gamma == pytest.approx(-ca.gamma, rel=1e-13)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            sr.factor_coeffs("A4x", 0.1, P)


class TestIdentityResidual:
    def test_generic_time(self):
        assert sr.identity_residual("MAIN", 0.7, P) < 1e-12

    @pytest.mark.parametrize("ident", sr.IDENTITY_IDS)
    def test_exact_at_zero_time(self, ident):
        assert sr.identity_residual(ident, 0.0, P) == 0.0

    @pytest.mark.parametrize("ident", sr.IDENTITY_IDS)
    def test_sweep(self, ident):
        for wt in np.linspace(-0.45 * math.pi, 0.45 * math.pi, 25):
            assert sr.identity_residual(ident, float(wt), P) < 1e-12

    def test_paired_residuals_agree(self):
        for t in (0.3, 0.9):
            ra = sr.identity_residual("A1a", t, P)
            rb = sr.identity_residual("A1b", t, P)
            assert abs(ra - rb) < 1e-12

    def test_bitwise_coupling_independence(self):
        other = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=3.2)
        for ident in sr.IDENTITY_IDS:
            for t in (0.0, 0.4, -0.9):
                assert sr.identity_residual(ident, t, P) == \
                    sr.identity_residual(ident, t, other)

    def test_window_errors_propagate(self):
        with pytest.raises(ValueError):
            sr.identity_residual("A2a", 0.75 * math.pi, P)
        with pytest.raises(ValueError):
            sr.identity_residual("A2a", np.array([0.1, 0.75 * math.pi]), P)

    # An array of times gives, bit for bit, the residuals of its times one
    # at a time, inside each identity's validity window: |w t| < pi for
    # MAIN, |w t| < pi/2 for the appendix identities, any t at w = 0.
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ident=st.sampled_from(sr.IDENTITY_IDS),
           hbar=st.one_of(st.just(1.0), st.floats(0.2, 5.0)),
           m=st.one_of(st.just(1.0), st.floats(0.2, 5.0)),
           omega=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
           n=st.floats(0.0, 20.0),
           fractions=st.lists(st.one_of(st.just(0.0), st.floats(-0.97, 0.97)),
                              min_size=1, max_size=30))
    def test_an_array_of_times_equals_its_times_one_at_a_time(
            self, ident, hbar, m, omega, n, fractions):
        params = sr.PhysParams(hbar=hbar, m=m, omega=omega, n=n)
        span = 3.0 if omega == 0.0 else (math.pi if ident == "MAIN" else math.pi / 2) / omega
        ts = np.array(fractions) * span
        got = sr.identity_residual(ident, ts, params)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        one_at_a_time = [sr.identity_residual(ident, t, params) for t in ts.tolist()]
        assert all(isinstance(r, float) for r in one_at_a_time)
        assert got.tolist() == one_at_a_time
        assert all(r == 0.0 for r, t in zip(got.tolist(), ts.tolist()) if t == 0.0)

    def test_a_time_array_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            sr.identity_residual("MAIN", np.zeros((2, 2)), P)
