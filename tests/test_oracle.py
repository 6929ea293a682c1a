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
        pt = kn.KernelPoint(1.0, 2.0, 0.5)
        res = orc.hankel_kernel_oracle(pt, 0.5, P_FREE)
        img = kn._free_value(1.0, 2.0, 0.5, P_FREE) \
            - kn._free_value(1.0, -2.0, 0.5, P_FREE)
        assert abs(res.value - img) / abs(img) < 1e-6

    def test_order_zero_closed_form(self):
        p = PhysParams(omega=0.0, n=0.0)
        pt = kn.KernelPoint(1.0, 1.0, 1.0)
        res = orc.hankel_kernel_oracle(pt, 0.0, p)
        closed = kn.radial_h0_kernel(pt, p).value
        assert abs(res.value - closed) / abs(closed) < 1e-6
        assert abs(res.value - closed) < max(1e-6, 10.0 * res.error_estimate)

    def test_fixed_damping_is_smooth(self):
        # single damping level, no extrapolation: absolutely convergent tail
        pt = kn.KernelPoint(1.0, 1.5, 0.8)
        p = PhysParams(omega=0.0, n=1.0)
        spec = orc.default_hankel_spec(pt, p, eps_schedule=(0.01,))
        res = orc.hankel_kernel_oracle(pt, 1.0, p, spec=spec)
        assert np.isfinite(res.value.real) and np.isfinite(res.value.imag)
        assert res.error_estimate < 1e-8

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.5])
    def test_contract_against_closed_form(self, n):
        p = PhysParams(omega=0.0, n=max(n, 0.0))
        for (x1, x2, t) in [(0.7, 1.6, 0.7), (1.3, 0.9, 2.0)]:
            pt = kn.KernelPoint(x1, x2, t)
            res = orc.hankel_kernel_oracle(pt, n, p)
            closed = kn._radial_h0_bessel_value(x1, x2, t, p)
            assert abs(res.value - closed) / abs(closed) < 1e-6

    def test_negative_time(self):
        p = PhysParams(omega=0.0, n=1.0)
        pt = kn.KernelPoint(1.0, 1.2, -0.8)
        res = orc.hankel_kernel_oracle(pt, 1.0, p)
        closed = kn._radial_h0_bessel_value(1.0, 1.2, -0.8, p)
        assert abs(res.value - closed) / abs(closed) < 1e-6

    def test_truncation_follows_the_schedule(self):
        # The truncation point must follow the weakest damping of the
        # schedule actually used, not that of the default one.
        p = PhysParams(omega=0.0, n=1.0)
        pt = kn.KernelPoint(0.7, 0.9, 0.7)
        schedule = [1e-2, 1e-3, 1e-4]
        spec = orc.default_hankel_spec(pt, p, eps_schedule=schedule)
        res = orc.hankel_kernel_oracle(pt, 1.0, p, spec=spec)
        closed = kn._radial_h0_bessel_value(0.7, 0.9, 0.7, p)
        assert abs(res.value - closed) / abs(closed) < 1e-7

    def test_nonconvergence_surfaces_estimate(self):
        pt = kn.KernelPoint(1.0, 1.0, 1.0)
        bad = nm.QuadratureSpec(panel_count=16, k_max=8.0,
                                eps_schedule=(1e-2, 5e-3, 2.5e-3))
        with pytest.raises(nm.NonConvergenceError) as exc:
            orc.hankel_kernel_oracle(pt, 0.0, P_FREE, spec=bad, tolerance=1e-8)
        assert exc.value.error_estimate > 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle(kn.KernelPoint(0.0, 1.0, 1.0), 0.5, P_FREE)
        with pytest.raises(ValueError):
            orc.hankel_kernel_oracle(kn.KernelPoint(1.0, 1.0, 0.0), 0.5, P_FREE)


class TestOrthogonality:
    def test_smeared_delta_recovers_weight(self):
        # integrate the truncated overlap against a narrow Gaussian in k;
        # completeness turns it into the weight's value at the probe point
        k0, sigma, x_max, order = 2.0, 0.05, 150.0, 1.0
        nodes, wts = np.polynomial.legendre.leggauss(48)
        kk = k0 + 5.0 * sigma * nodes
        ww = 5.0 * sigma * wts
        weight = np.exp(-((kk - k0) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        smeared = sum(
            w * g * orc.orthogonality_check(k0, float(k2), order, x_max).real
            for w, g, k2 in zip(ww, weight, kk)
        )
        target = 1.0 / (sigma * np.sqrt(2 * np.pi))
        assert abs(smeared - target) / target < 0.02

    def test_distinct_wavenumbers_average_out(self):
        vals = [orc.orthogonality_check(1.0, 3.0, 0.0, float(xm)).real
                for xm in np.linspace(40.0, 200.0, 33)]
        assert abs(np.mean(vals)) < 0.02
        assert np.max(np.abs(vals)) > 0.05  # oscillation, not smallness

    def test_half_order_reduces_to_sine_integral(self):
        # (2/pi) sin(k1 x) sin(k2 x) integrates in closed form
        k1, k2, x_max = 1.3, 2.1, 37.0
        got = orc.orthogonality_check(k1, k2, 0.5, x_max).real
        want = (1.0 / np.pi) * (
            np.sin((k1 - k2) * x_max) / (k1 - k2)
            - np.sin((k1 + k2) * x_max) / (k1 + k2)
        )
        assert got == pytest.approx(want, abs=1e-10)

    def test_wavenumber_validation(self):
        with pytest.raises(ValueError):
            orc.orthogonality_check(0.0, 1.0, 0.5, 10.0)


class TestEigenfunctionResidual:
    def test_half_order_sine(self):
        grid = orc.GridSpec(x_max=20.0, points=2000, dt=1e-3)
        r = orc.eigenfunction_residual(1.0, 0.5, PhysParams(n=0.5), grid)
        assert r < 1e-4

    def test_second_order_convergence(self):
        coarse = orc.GridSpec(x_max=20.0, points=2000, dt=1e-3)
        fine = orc.GridSpec(x_max=20.0, points=4000, dt=1e-3)
        p = PhysParams(n=0.5)
        ratio = orc.eigenfunction_residual(1.0, 0.5, p, coarse) \
            / orc.eigenfunction_residual(1.0, 0.5, p, fine)
        assert 3.5 < ratio < 4.5

    def test_order_zero_needs_wall_exclusion(self):
        # the x^{1/2} behavior at the origin defeats the stencil; excluding
        # the first ~0.3 length units restores the bulk accuracy
        grid = orc.GridSpec(x_max=20.0, points=2000, dt=1e-3)
        p = PhysParams(n=0.0)
        assert orc.eigenfunction_residual(2.0, 0.0, p, grid, skip_near_origin=30) < 1e-3
        assert orc.eigenfunction_residual(2.0, 0.0, p, grid, skip_near_origin=3) > 1e-2

    def test_wavenumber_validation(self):
        grid = orc.GridSpec(x_max=10.0, points=100, dt=1e-3)
        with pytest.raises(ValueError):
            orc.eigenfunction_residual(-1.0, 0.5, PhysParams(n=0.5), grid)


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

    def test_norm_preserved_over_thousand_steps(self):
        g = orc.GridSpec(x_max=16.0, points=800, dt=1e-3)
        x = g.nodes()
        packet = np.exp(-((x - 5.0) ** 2)) * np.exp(2j * x)
        psi = orc.GridWavefunction(packet, g)
        n0 = psi.norm()
        out = orc.grid_evolve(psi, 1.0, PhysParams(n=1.5, omega=1.0))
        assert abs(out.norm() - n0) < 1e-8

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

    def test_boundary_contamination_warns(self):
        g = orc.GridSpec(x_max=10.0, points=400, dt=1e-3)
        x = g.nodes()
        packet = np.exp(-((x - 8.5) ** 2))
        psi = orc.GridWavefunction(packet, g)
        with pytest.warns(orc.BoundaryContaminationWarning):
            orc.grid_evolve(psi, 0.3, PhysParams(n=1.5))

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
