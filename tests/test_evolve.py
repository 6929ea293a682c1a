import math

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
        grid = orc.GridSpec(x_max=10.0, points=1000, x_min=-10.0)
        packet = ev.TestFunction(center=2.0, width=0.5, momentum=1.5)
        out = ev.propagate(packet.sample(grid, P_LINE, False), 0.9, "sho", P_LINE)
        want = analytic_gaussian(grid.nodes(), 0.9, 2.0, 0.5, 1.5, P_LINE)
        assert np.max(np.abs(out.samples - want)) < 1e-13 * np.max(np.abs(want))

    def test_half_order_halfline_matches_gaussian_and_its_image(self):
        # The packet runs into the wall, so the mirror packet (centre and
        # momentum reflected) carries a large share of the state.
        grid = orc.GridSpec(x_max=10.0, points=1000)
        packet = ev.TestFunction(center=3.0, width=0.3, momentum=-4.0)
        out = ev.propagate(packet.sample(grid, P_LINE, True), 0.5, "radial_sho", P_LINE)
        x = grid.nodes()
        direct = analytic_gaussian(x, 0.5, 3.0, 0.3, -4.0, P_LINE)
        image = analytic_gaussian(x, 0.5, -3.0, 0.3, 4.0, P_LINE)
        want = direct - image
        peak = np.max(np.abs(want))
        assert np.max(np.abs(image)) > 0.3 * peak
        assert out.samples[0] == 0.0
        # the packet is cut off at the wall, where it is ~2e-11 of its peak
        assert np.max(np.abs(out.samples - want)) < 1e-11 * peak

    def test_half_line_kernels_pin_the_wall(self):
        # The grid does not pin psi(0); a half-line kernel drops the wall
        # sample from its quadrature and returns 0 there.
        grid = orc.GridSpec(x_max=10.0, points=200)
        state = orc.GridWavefunction(np.ones(201), grid)
        assert state.samples[0] == 1.0
        for kernel in ("radial_sho", "radial_h0"):
            params = kn.kernel_kind(kernel).hamiltonian(P_LINE)
            out = ev.propagate(state, 0.5, kernel, params)
            assert out.samples[0] == 0.0 and np.all(out.samples[1:] != 0.0)

    def test_rejects_unknown_kernel_and_full_line_grid(self):
        packet = ev.TestFunction(center=3.0, width=0.3)
        half = packet.sample(orc.GridSpec(x_max=8.0, points=400), P_LINE, True)
        line = packet.sample(orc.GridSpec(x_max=8.0, points=400, x_min=-8.0),
                             P_LINE, False)
        with pytest.raises(ValueError):
            ev.propagate(half, 0.5, "coulomb", P_LINE)
        with pytest.raises(ValueError):
            ev.propagate(line, 0.5, "radial_sho", P_LINE)


class TestFactoredApply:
    """``propagate`` against the dense reference: the kernel matrix on the
    quadrature columns times the trapezoid-weighted samples."""

    HALF = orc.GridSpec(x_max=10.0, points=301)
    LINE = orc.GridSpec(x_max=17.0, points=400, x_min=-3.0)

    @staticmethod
    def dense(state, t, kernel, params):
        halfline = kn.kernel_kind(kernel).halfline
        cols, weighted = ev._columns(state.samples, state.grid, halfline)
        out = np.zeros(state.grid.points + 1, dtype=complex)
        out[out.size - cols.size:] = kn.kernel_values(
            kernel, cols[:, None], cols[None, :], t, params) @ weighted
        return out

    def states(self, kernel, params):
        halfline = kn.kernel_kind(kernel).halfline
        grid = self.HALF if halfline else self.LINE
        packet = ev.TestFunction(center=4.5, width=0.5, momentum=1.5)
        rng = np.random.default_rng(11)
        noise = rng.normal(size=(grid.points + 1, 2)) @ np.array([1.0, 1j])
        return (packet.sample(grid, params, halfline),
                orc.GridWavefunction(noise, grid))

    @pytest.mark.parametrize("kernel,n", [
        *[(k, n) for k in ("radial_sho", "radial_h0") for n in (0.0, 0.5, 1.0, 2.5)],
        ("sho", 0.5), ("free", 0.5),
    ])
    @pytest.mark.parametrize("t", [0.7, 2.4, -0.4])
    def test_matches_the_dense_kernel_matrix(self, kernel, n, t):
        params = kn.kernel_kind(kernel).hamiltonian(PhysParams(n=n, omega=1.0))
        for state in self.states(kernel, params):
            want = self.dense(state, t, kernel, params)
            got = ev.propagate(state, t, kernel, params).samples
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kernel", ["sho", "radial_sho"])
    def test_refuses_the_caustic_and_zero_time(self, kernel):
        state = self.states(kernel, P_LINE)[0]
        with pytest.raises(kn.CausticSingularity):
            ev.propagate(state, math.pi, kernel, P_LINE)
        with pytest.raises(ValueError, match="t = 0"):
            ev.propagate(state, 0.0, kernel, P_LINE)


class TestTiledBesselCore:
    """The Bessel core on upper-triangle tiles: every tile layout against
    the dense matrix, and half the Bessel evaluations of the full square."""

    @staticmethod
    def state(cols):
        grid = orc.GridSpec(x_max=10.0, points=cols)
        rng = np.random.default_rng(cols)
        noise = rng.normal(size=(grid.points + 1, 2)) @ np.array([1.0, 1j])
        return orc.GridWavefunction(noise, grid)

    @pytest.mark.parametrize("cols", [kn._CHUNK - 1, kn._CHUNK, kn._CHUNK + 1,
                                      2 * kn._CHUNK + 37])
    @pytest.mark.parametrize("kernel,n", [("radial_sho", 1.0), ("radial_sho", 2.5),
                                          ("radial_h0", 1.0)])
    @pytest.mark.parametrize("t", [0.7, -0.4])
    def test_matches_the_dense_kernel_matrix(self, kernel, n, t, cols):
        params = kn.kernel_kind(kernel).hamiltonian(PhysParams(n=n, omega=1.0))
        state = self.state(cols)
        want = TestFactoredApply.dense(state, t, kernel, params)
        got = ev.propagate(state, t, kernel, params).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cols", [2 * kn._CHUNK + 37, 3 * kn._CHUNK])
    def test_evaluates_the_upper_triangle_only(self, cols, monkeypatch):
        points = []
        bessel_i_complex = kn.bessel_i_complex

        def counting(n, z):
            points.append(np.size(z))
            return bessel_i_complex(n, z)

        monkeypatch.setattr(kn, "bessel_i_complex", counting)
        ev.propagate(self.state(cols), 0.7, "radial_sho", PhysParams(n=1.0, omega=1.0))
        assert 0 < sum(points) <= cols * (cols + 1) // 2 + cols * kn._CHUNK // 2

    @pytest.mark.parametrize("kernel,n", [("radial_sho", 1.0), ("radial_h0", 2.5)])
    def test_no_bessel_call_sees_more_than_one_tile(self, kernel, n, monkeypatch):
        # The memory bound per worker that lets evolve propagate its frames
        # concurrently without raising the peak memory.
        points = []
        bessel_i_complex = kn.bessel_i_complex

        def counting(n, z):
            points.append(np.size(z))
            return bessel_i_complex(n, z)

        monkeypatch.setattr(kn, "bessel_i_complex", counting)
        params = kn.kernel_kind(kernel).hamiltonian(PhysParams(n=n, omega=1.0))
        ev.propagate(self.state(3 * kn._CHUNK + 5), 0.7, kernel, params)
        assert len(points) == 10 and max(points) <= kn._CHUNK ** 2


class TestL2Distance:
    def test_shifted_gaussians(self):
        grid = orc.GridSpec(x_max=8.0, points=1600, x_min=-8.0)
        a = ev.TestFunction(center=1.0, width=0.5).sample(grid, P_LINE, False)
        b = ev.TestFunction(center=1.5, width=0.5).sample(grid, P_LINE, False)
        # overlap of two unit Gaussians a distance d apart: e^{-d^2 / 8 w^2}
        want = math.sqrt(2.0 - 2.0 * math.exp(-(0.5**2) / (8.0 * 0.5**2)))
        assert ev.l2_distance(a, b) == pytest.approx(want, rel=1e-12)
        assert ev.l2_distance(a, a) == 0.0

    def test_rejects_different_grids(self):
        g1 = orc.GridSpec(x_max=8.0, points=400)
        g2 = orc.GridSpec(x_max=8.0, points=401)
        packet = ev.TestFunction(center=4.0, width=0.5)
        with pytest.raises(ValueError):
            ev.l2_distance(packet.sample(g1, P_LINE, True), packet.sample(g2, P_LINE, True))


class TestSchrodingerResidual:
    @pytest.mark.parametrize("kernel,params", [
        ("radial_sho", PhysParams(n=2.5, omega=1.0)),
        ("sho", P_LINE),
        ("radial_h0", PhysParams(n=1.0, omega=0.0)),
    ])
    def test_second_order_in_dx(self, kernel, params):
        res = [ev.schrodinger_residual(kernel, 1.2, 0.8, 0.7, params, dx, 1e-4)
               for dx in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(res, res[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_stencil_refusals(self):
        params = PhysParams(n=2.5, omega=1.0)
        # A point at the wall: the kernel refuses x1 - dx = 0.
        with pytest.raises(ValueError, match="strictly positive"):
            ev.schrodinger_residual("radial_sho", 0.01, 0.8, 0.7, params, 0.01, 1e-4)
        # t - dt lies 5e-9 past the caustic at pi: no straddle, but the
        # kernel refuses that point.
        with pytest.raises(kn.CausticSingularity):
            ev.schrodinger_residual("radial_sho", 1.2, 0.8, math.pi + 1e-3 + 5e-9,
                                    params, 0.01, 1e-3)
        # Every point is valid, but the stencil spans the caustic at pi.
        with pytest.raises(ValueError, match="straddles a caustic"):
            ev.schrodinger_residual("radial_sho", 1.2, 0.8, math.pi - 1e-4, params, 0.01, 1e-3)

    @pytest.mark.parametrize("kernel,params", [
        ("free", PhysParams(n=1.0, omega=0.0)),
        ("radial_h0", PhysParams(n=1.0, omega=0.0)),
        ("radial_sho", PhysParams(n=1.0, omega=0.0)),
        ("radial_sho", PhysParams(n=1.0, omega=1.0)),
    ])
    def test_a_stencil_across_t_zero_is_refused(self, kernel, params):
        # t - dt < 0 < t + dt: at w = 0 the delta limit is the caustic.
        with pytest.raises(ValueError, match="straddles a caustic"):
            ev.schrodinger_residual(kernel, 1.2, 0.8, 5e-5, params, 0.01, 1e-4)

    @pytest.mark.parametrize("t", [0.7 - 0.3j, 2.0 - 0.5j, -1j])
    @pytest.mark.parametrize("kernel,params", [
        ("radial_sho", PhysParams(n=2.5, omega=1.0)),
        ("sho", P_LINE),
        ("radial_h0", PhysParams(n=1.0, omega=0.0)),
    ])
    def test_second_order_in_dx_at_a_damped_time(self, kernel, params, t):
        # Off the real axis sin(w t) has no zeros: the stencil at -i crosses
        # Re t = 0, the caustic line, and is not refused.
        res = [ev.schrodinger_residual(kernel, 1.2, 0.8, t, params, dx, 1e-4)
               for dx in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(res, res[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_a_growing_time_is_refused_by_the_kernel(self):
        with pytest.raises(ValueError, match="Im t > 0 is refused"):
            ev.schrodinger_residual("sho", 1.2, 0.8, 0.7 + 0.3j, P_LINE, 0.01, 1e-4)

    def test_a_stencil_across_a_caustic_near_the_real_axis_is_refused(self):
        with pytest.raises(ValueError, match="straddles a caustic"):
            ev.schrodinger_residual("sho", 1.2, 0.8, math.pi - 1e-9j, P_LINE, 0.01, 1e-4)


class TestDeltaLimitCheck:
    TIMES = [0.04, 0.02, 0.01, 0.005]

    @pytest.mark.parametrize("kernel", ["sho", "radial_sho"])
    def test_smearing_error_is_linear_in_t(self, kernel):
        # At n = 1/2 radial_sho is the half-line (image) kernel.
        x_min = 0.0 if kernel == "radial_sho" else -8.0
        grid = orc.GridSpec(x_max=8.0, points=4000, x_min=x_min)
        packet = ev.TestFunction(center=3.0, width=0.5, momentum=1.0)
        err = ev.delta_limit_check(packet, 3.2, self.TIMES, kernel, P_LINE, grid)
        assert np.all(np.abs(err[:-1] / err[1:] - 2.0) < 0.1)

    @pytest.mark.parametrize("times", [[0.01, 0.02], [0.02, 0.02], [0.02, 0.0]])
    def test_refuses_a_sequence_that_is_not_decreasing_and_positive(self, times):
        grid = orc.GridSpec(x_max=8.0, points=400, x_min=-8.0)
        packet = ev.TestFunction(center=1.0, width=0.5)
        with pytest.raises(ValueError, match="strictly decreasing"):
            ev.delta_limit_check(packet, 1.0, times, "sho", P_LINE, grid)
