import math
import warnings

import numpy as np
import pytest

from sl2prop import evolve as ev
from sl2prop import kernels as kn
from sl2prop import oracle as orc
from sl2prop.sl2rep import PhysParams

P_LINE = PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)


def analytic_gaussian(x, t, center, width, momentum, params):
    """Exact oscillator evolution of the normalized Gaussian packet.

    The Gaussian integral over y of sqrt(m/(2 pi i hbar T))
    e^{i m (c x^2 - 2 x y + c y^2)/(2 hbar T)} psi0(y), with T = sin(wt)/w
    and c = cos(wt): pref sqrt(pi/A) e^{B^2/4A + C}.
    """
    h, m, w = params.hbar, params.m, params.omega
    T, c = math.sin(w * t) / w, math.cos(w * t)
    norm = (2.0 * np.pi * width**2) ** -0.25
    a = 1.0 / (4.0 * width**2) - 1j * m * c / (2.0 * h * T)
    b = -1j * m * x / (h * T) + center / (2.0 * width**2) + 1j * momentum / h
    cc = 1j * m * c * x**2 / (2.0 * h * T) - center**2 / (4.0 * width**2)
    pref = np.sqrt(m / (2.0 * np.pi * 1j * h * T))
    return pref * norm * np.sqrt(np.pi / a) * np.exp(b**2 / (4.0 * a) + cc)


class TestPropagate:
    def test_sho_matches_analytic_gaussian(self):
        grid = orc.GridSpec(x_max=10.0, points=1000, dt=1e-3, x_min=-10.0)
        packet = ev.TestFunction(center=2.0, width=0.5, momentum=1.5)
        out = ev.propagate(packet, 0.9, "sho", P_LINE, grid=grid)
        want = analytic_gaussian(grid.nodes(), 0.9, 2.0, 0.5, 1.5, P_LINE)
        assert np.max(np.abs(out.samples - want)) < 1e-13 * np.max(np.abs(want))

    def test_half_order_halfline_matches_gaussian_and_its_image(self):
        # The packet runs into the wall, so the mirror packet (centre and
        # momentum reflected) carries a large share of the state.
        grid = orc.GridSpec(x_max=10.0, points=1000, dt=1e-3)
        packet = ev.TestFunction(center=3.0, width=0.3, momentum=-4.0)
        out = ev.propagate(packet, 0.5, "radial_sho", P_LINE, grid=grid)
        x = grid.nodes()
        direct = analytic_gaussian(x, 0.5, 3.0, 0.3, -4.0, P_LINE)
        image = analytic_gaussian(x, 0.5, -3.0, 0.3, 4.0, P_LINE)
        want = direct - image
        peak = np.max(np.abs(want))
        assert np.max(np.abs(image)) > 0.3 * peak
        assert out.samples[0] == 0.0
        # the packet is cut off at the wall, where it is ~2e-11 of its peak
        assert np.max(np.abs(out.samples - want)) < 1e-11 * peak

    def test_rejects_unknown_kernel_and_full_line_grid(self):
        packet = ev.TestFunction(center=3.0, width=0.3)
        with pytest.raises(ValueError):
            ev.propagate(packet, 0.5, "coulomb", P_LINE,
                         grid=orc.GridSpec(x_max=8.0, points=400, dt=1e-3))
        with pytest.raises(ValueError):
            ev.propagate(packet, 0.5, "radial_sho", P_LINE,
                         grid=orc.GridSpec(x_max=8.0, points=400, dt=1e-3, x_min=-8.0))


class TestL2Distance:
    def test_shifted_gaussians(self):
        grid = orc.GridSpec(x_max=8.0, points=1600, dt=1e-3, x_min=-8.0)
        a = ev.as_gridfunction(ev.TestFunction(center=1.0, width=0.5), P_LINE, grid, False)
        b = ev.as_gridfunction(ev.TestFunction(center=1.5, width=0.5), P_LINE, grid, False)
        # overlap of two unit Gaussians a distance d apart: e^{-d^2 / 8 w^2}
        want = math.sqrt(2.0 - 2.0 * math.exp(-(0.5**2) / (8.0 * 0.5**2)))
        assert ev.l2_distance(a, b) == pytest.approx(want, rel=1e-12)
        assert ev.l2_distance(a, a) == 0.0

    def test_rejects_different_grids(self):
        g1 = orc.GridSpec(x_max=8.0, points=400, dt=1e-3)
        g2 = orc.GridSpec(x_max=8.0, points=401, dt=1e-3)
        packet = ev.TestFunction(center=4.0, width=0.5)
        with pytest.raises(ValueError):
            ev.l2_distance(ev.as_gridfunction(packet, P_LINE, g1, True),
                           ev.as_gridfunction(packet, P_LINE, g2, True))


class TestSchrodingerResidual:
    @pytest.mark.parametrize("kernel,params", [
        ("radial_sho", PhysParams(n=2.5, omega=1.0)),
        ("sho", P_LINE),
        ("radial_h0", PhysParams(n=1.0, omega=0.0)),
    ])
    def test_second_order_in_dx(self, kernel, params):
        pt = kn.KernelPoint(1.2, 0.8, 0.7)
        res = [ev.schrodinger_residual(kernel, pt, params, dx, 1e-4)
               for dx in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(res, res[1:]):
            assert 3.5 < coarse / fine < 4.5


class TestGridEvolveFullLine:
    def test_node_at_origin_raises_no_warning(self):
        grid = orc.GridSpec(x_max=8.0, points=800, dt=1e-3, x_min=-8.0)
        assert np.any(grid.nodes() == 0.0)
        psi = ev.as_gridfunction(ev.TestFunction(center=0.5, width=0.5), P_LINE, grid, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = orc.grid_evolve(psi, 0.2, P_LINE)
        assert out.norm() == pytest.approx(psi.norm(), rel=1e-12)
