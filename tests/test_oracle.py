import math
import warnings

import numpy as np
import pytest

from sl2prop import kernels as kn
from sl2prop import numerics as nm
from sl2prop import oracle as orc
from sl2prop.sl2rep import PhysParams

P_FREE = PhysParams(hbar=1.0, m=1.0, omega=0.0, n=0.5)


def analytic_free_gaussian(x, t, center, width, momentum, params):
    """Closed-form free evolution of the normalized Gaussian packet.

    Gaussian-times-Fresnel integral: psi(x,t) = pref sqrt(pi/A) e^{B^2/4A + C}
    with A, B, C read off the combined quadratic exponent.
    """
    h, m = params.hbar, params.m
    norm = (2.0 * np.pi * width**2) ** -0.25
    a = 1.0 / (4.0 * width**2) - 1j * m / (2.0 * h * t)
    b = -1j * m * x / (h * t) + center / (2.0 * width**2) + 1j * momentum / h
    c = 1j * m * x**2 / (2.0 * h * t) - center**2 / (4.0 * width**2)
    pref = np.sqrt(m / (2.0 * np.pi * 1j * h * t))
    return pref * norm * np.sqrt(np.pi / a) * np.exp(b**2 / (4.0 * a) + c)


class TestHankelOracle:
    def test_half_order_matches_image_formula(self):
        res = orc.hankel_kernel_oracle(1.0, 2.0, 0.5, 0.5, P_FREE)
        img = kn.kernel_values("free", 1.0, 2.0, 0.5, P_FREE) \
            - kn.kernel_values("free", 1.0, -2.0, 0.5, P_FREE)
        assert abs(res.value - img) / abs(img) < 1e-6

    def test_order_zero_closed_form(self):
        p = PhysParams(omega=0.0, n=0.0)
        res = orc.hankel_kernel_oracle(1.0, 1.0, 1.0, 0.0, p)
        closed = kn.kernel_values("radial_h0", 1.0, 1.0, 1.0, p)
        assert abs(res.value - closed) / abs(closed) < 1e-6
        assert abs(res.value - closed) < max(1e-6, 10.0 * res.error_estimate)

    def test_fixed_damping_is_smooth(self):
        # single damping level, no extrapolation: absolutely convergent tail
        p = PhysParams(omega=0.0, n=1.0)
        spec = orc.default_hankel_spec(1.0, 1.5, 0.8, p, eps_schedule=(0.01,))
        res = orc.hankel_kernel_oracle(1.0, 1.5, 0.8, 1.0, p, spec=spec)
        assert np.isfinite(res.value.real) and np.isfinite(res.value.imag)
        assert res.error_estimate < 1e-8

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.5])
    def test_contract_against_closed_form(self, n):
        p = PhysParams(omega=0.0, n=max(n, 0.0))
        for (x1, x2, t) in [(0.7, 1.6, 0.7), (1.3, 0.9, 2.0)]:
            res = orc.hankel_kernel_oracle(x1, x2, t, n, p)
            closed = kn.kernel_values("radial_h0", x1, x2, t, p, core="bessel")
            assert abs(res.value - closed) / abs(closed) < 1e-6

    def test_negative_time(self):
        p = PhysParams(omega=0.0, n=1.0)
        res = orc.hankel_kernel_oracle(1.0, 1.2, -0.8, 1.0, p)
        closed = kn.kernel_values("radial_h0", 1.0, 1.2, -0.8, p)
        assert abs(res.value - closed) / abs(closed) < 1e-6

    def test_truncation_follows_the_schedule(self):
        # The truncation point must follow the weakest damping of the
        # schedule actually used, not that of the default one.
        p = PhysParams(omega=0.0, n=1.0)
        schedule = [1e-2, 1e-3, 1e-4]
        spec = orc.default_hankel_spec(0.7, 0.9, 0.7, p, eps_schedule=schedule)
        res = orc.hankel_kernel_oracle(0.7, 0.9, 0.7, 1.0, p, spec=spec)
        closed = kn.kernel_values("radial_h0", 0.7, 0.9, 0.7, p)
        assert abs(res.value - closed) / abs(closed) < 1e-7

    def test_nonconvergence_surfaces_estimate(self):
        bad = nm.QuadratureSpec(panel_count=16, k_max=8.0,
                                eps_schedule=(1e-2, 5e-3, 2.5e-3))
        res = orc.hankel_kernel_oracle(1.0, 1.0, 1.0, 0.0, P_FREE, spec=bad)
        assert res.error_estimate > 1e-8

    # Batch against scalar calls on one spec: orders with each scipy route
    # (j0, spherical_jn, j1, AMOS jv at 1.3), the oscillator's effective
    # time (negative at t = 3.5) and the free one, a non-halving schedule
    # and m, hbar away from 1.  A coarse schedule keeps the node sets small
    # (504-522 panels, two to three blocks).  Tolerances: 1e-13 relative on
    # the values, 1e-6 on the error estimates (a difference of near-equal
    # sums); the measured maximum of both is 0.
    @pytest.mark.parametrize("omega,t", [(0.0, 0.7), (1.0, 0.7), (1.0, 3.5)])
    def test_batch_matches_scalar_calls(self, omega, t):
        params = PhysParams(hbar=0.7, m=2.0, omega=omega)
        orders = np.array([0.0, 0.5, 1.0, 1.3, 2.5])
        x1 = np.array([0.7, 1.3])[:, None]
        x2 = np.array([0.9, 1.6, 2.2])
        phase, te = kn.main_wrap(x1, x2, t, params)
        assert (te < 0) == (t == 3.5)
        spec = orc.default_hankel_spec(x1, x2, te, params, eps_schedule=(0.08, 0.03, 0.01))
        assert spec.panel_count > nm._BLOCK_PANELS
        res = orc.hankel_kernel_oracle(x1, x2, te, orders, params, spec=spec)
        assert res.value.shape == res.extrap_err.shape == (5, 2, 3)
        for a, n in enumerate(orders):
            for i in range(2):
                for j in range(3):
                    one = orc.hankel_kernel_oracle(
                        float(x1[i, 0]), float(x2[j]), te, n, params, spec)
                    assert isinstance(one.value, complex)
                    assert res.value[a, i, j] == pytest.approx(one.value, rel=1e-13)
                    assert res.error_estimate[a, i, j] == pytest.approx(
                        one.error_estimate, rel=1e-6)

    def test_extrapolation_term_dominates_a_non_halving_schedule(self):
        # n = 1, w = 1, t = 0.3 with levels ten apart: the last Neville
        # correction is 1e-4 while the quadrature and tail terms are 1e-13.
        params = PhysParams(omega=1.0, n=1.0)
        x1, x2 = np.meshgrid((0.7, 1.3), (0.9, 1.6), indexing="ij")
        _, te = kn.main_wrap(x1, x2, 0.3, params)
        spec = orc.default_hankel_spec(x1, x2, te, params, eps_schedule=(1e-2, 1e-3, 1e-4))
        res = orc.hankel_kernel_oracle(x1, x2, te, 1.0, params, spec=spec)
        assert np.all(res.extrap_err > 1e6 * (res.quad_err + res.tail_err))
        assert np.array_equal(res.error_estimate,
                              res.quad_err + res.tail_err + res.extrap_err)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle(0.0, 1.0, 1.0, 0.5, P_FREE)
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle([1.0, 0.0], 1.0, 1.0, [0.5, 1.0], P_FREE)
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle(1.0, 1.0, [0.5, 1.0], 0.5, P_FREE)
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle(1.0, 1.0, 0.0, 0.5, P_FREE)


class TestGridSpecAndWavefunction:
    def test_spacing(self):
        g = orc.GridSpec(x_max=10.0, points=100, dt=1e-3)
        assert g.dx == pytest.approx(0.1)
        assert g.nodes()[0] == 0.0 and g.nodes()[-1] == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            orc.GridSpec(x_max=0.0, points=100, dt=1e-3)
        with pytest.raises(ValueError):
            orc.GridSpec(x_max=1.0, points=4, dt=1e-3)
        with pytest.raises(ValueError):
            orc.GridSpec(x_max=1.0, points=100, dt=0.0)

    def test_wall_value_pinned(self):
        g = orc.GridSpec(x_max=5.0, points=50, dt=1e-3)
        psi = orc.GridWavefunction(np.ones(51, dtype=complex), g)
        assert psi.samples[0] == 0.0

    def test_caller_array_is_not_modified(self):
        g = orc.GridSpec(x_max=5.0, points=16, dt=1e-3)
        a = np.ones(17, dtype=complex)
        psi = orc.GridWavefunction(a, g)
        assert psi.samples[0] == 0.0
        assert np.all(a == 1.0)
        assert psi.copy().samples is not psi.samples

    def test_full_line_not_pinned(self):
        g = orc.GridSpec(x_max=5.0, points=50, dt=1e-3, x_min=-5.0)
        psi = orc.GridWavefunction(np.ones(51, dtype=complex), g)
        assert psi.samples[0] == 1.0


class TestGridEvolve:
    def test_zero_state_stays_zero(self):
        g = orc.GridSpec(x_max=10.0, points=200, dt=1e-3)
        psi = orc.GridWavefunction(np.zeros(201, dtype=complex), g)
        out = orc.grid_evolve(psi, 0.1, PhysParams(n=1.5))
        assert np.all(out.samples == 0.0)
        assert not orc.edge_contaminated(out)

    def test_norm_preserved_over_thousand_steps(self):
        g = orc.GridSpec(x_max=16.0, points=800, dt=1e-3)
        x = g.nodes()
        packet = np.exp(-((x - 5.0) ** 2)) * np.exp(2j * x)
        psi = orc.GridWavefunction(packet, g)
        n0 = psi.norm()
        out = orc.grid_evolve(psi, 1.0, PhysParams(n=1.5, omega=1.0))
        assert abs(out.norm() - n0) < 1e-8
        assert not orc.edge_contaminated(out)

    def test_matches_analytic_image_evolution(self):
        # free half-line packet vs the image-method closed form
        p = PhysParams(n=0.5, omega=0.0)
        g = orc.GridSpec(x_max=16.0, points=3200, dt=2.5e-4)
        x = g.nodes()
        center, width, momentum = 6.0, 0.6, 0.5
        norm = (2.0 * np.pi * width**2) ** -0.25
        packet = norm * np.exp(-((x - center) ** 2) / (4 * width**2)
                               + 1j * momentum * x)
        psi = orc.GridWavefunction(packet, g)
        out = orc.grid_evolve(psi, 0.5, p)
        ref = analytic_free_gaussian(x, 0.5, center, width, momentum, p) \
            - analytic_free_gaussian(-x, 0.5, center, width, momentum, p)
        err = np.sqrt(np.trapezoid(np.abs(out.samples - ref) ** 2, dx=g.dx))
        assert err < 1e-3
        assert not orc.edge_contaminated(out)

    def test_boundary_contamination_is_detected_without_a_warning(self):
        # The evolver does not warn; edge_contaminated is the one test.
        g = orc.GridSpec(x_max=10.0, points=400, dt=1e-3)
        x = g.nodes()
        packet = np.exp(-((x - 8.5) ** 2))
        psi = orc.GridWavefunction(packet, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = orc.grid_evolve(psi, 0.3, PhysParams(n=1.5))
        assert orc.edge_contaminated(out)

    def test_requires_wall_regular_order(self):
        g = orc.GridSpec(x_max=10.0, points=200, dt=1e-3)
        psi = orc.GridWavefunction(np.zeros(201, dtype=complex), g)
        with pytest.raises(ValueError):
            orc.grid_evolve(psi, 0.1, PhysParams(n=0.4))

    def test_zero_time_is_identity(self):
        g = orc.GridSpec(x_max=10.0, points=200, dt=1e-3)
        x = g.nodes()
        psi = orc.GridWavefunction(np.exp(-((x - 5.0) ** 2)), g)
        out = orc.grid_evolve(psi, 0.0, PhysParams(n=1.5))
        assert np.array_equal(out.samples, psi.samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orc.grid_evolve(psi, 0.0, PhysParams(n=1.5))
