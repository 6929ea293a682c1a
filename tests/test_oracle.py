import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evolve import analytic_gaussian

from sl2prop import evolve as ev
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
        assert abs(res.value - img) / abs(img) < 1e-10

    def test_order_zero_closed_form(self):
        p = PhysParams(omega=0.0, n=0.0)
        res = orc.hankel_kernel_oracle(1.0, 1.0, 1.0, 0.0, p)
        closed = kn.kernel_values("radial_h0", 1.0, 1.0, 1.0, p)
        assert abs(res.value - closed) / abs(closed) < 1e-10
        assert abs(res.value - closed) < max(1e-12, 10.0 * (res.quad_err + res.tail_err))

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.5])
    def test_contract_against_closed_form(self, n):
        p = PhysParams(omega=0.0, n=max(n, 0.0))
        for (x1, x2, t) in [(0.7, 1.6, 0.7), (1.3, 0.9, 2.0)]:
            res = orc.hankel_kernel_oracle(x1, x2, t, n, p)
            closed = kn.kernel_values("radial_h0", x1, x2, t, p)
            assert abs(res.value - closed) / abs(closed) < 1e-10

    def test_negative_time(self):
        p = PhysParams(omega=0.0, n=1.0)
        res = orc.hankel_kernel_oracle(1.0, 1.2, -0.8, 1.0, p)
        closed = kn.kernel_values("radial_h0", 1.0, 1.2, -0.8, p)
        assert abs(res.value - closed) / abs(closed) < 1e-10

    # Against the w = 0 closed form over the orders, positions and times the
    # contour is sized for, on both sides of t = 0.  The kernel's modulus is
    # of order sqrt(x1 x2)/|t| (up to the Bessel factor), which scales the
    # bound; 400 random points and the corners of the range read at most
    # 9.0e-13 of it.
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.one_of(st.floats(0.0, 20.0), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
           x1=st.floats(0.1, 5.0), x2=st.floats(0.1, 5.0), t=st.floats(0.01, 10.0),
           backward=st.booleans())
    def test_matches_the_closed_form_across_the_sizing_range(self, n, x1, x2, t, backward):
        p = PhysParams(omega=0.0, n=n)
        t = -t if backward else t
        res = orc.hankel_kernel_oracle(x1, x2, t, n, p)
        closed = kn.kernel_values("radial_h0", x1, x2, t, p)
        assert abs(res.value - closed) <= 1e-9 * math.sqrt(x1 * x2) / abs(t)

    def test_shares_no_bessel_routine_with_the_closed_form(self, monkeypatch):
        # At n = 0, 1/2 and 1 the closed form takes Cephes j0, j1 and
        # spherical_jn; the oracle must reach its values without them.
        p = PhysParams(omega=0.0)
        points = [(0.7, 1.6, 0.7), (1.3, 0.9, -2.0)]
        closed = {(n, pt): kn.kernel_values("radial_h0", *pt, replace(p, n=n))
                  for n in (0.0, 0.5, 1.0) for pt in points}

        def refuse(*args):
            raise AssertionError("the oracle reached a routine of the closed form")

        for name in ("j0", "j1", "spherical_jn"):
            monkeypatch.setattr(nm.special, name, refuse)
        for (n, pt), want in closed.items():
            res = orc.hankel_kernel_oracle(*pt, n, replace(p, n=n))
            assert abs(res.value - want) / abs(want) < 1e-10

    # Batch against scalar calls: orders with each scipy route (j0,
    # spherical_jn, j1, AMOS jv at 1.3), the oscillator's effective time
    # (negative at t = 3.5) and the free one, with m and hbar away from 1.
    # The batch sizes its contour from its largest x1 + x2, so the pair
    # holding it shares the scalar call's nodes (1e-13 on the value, 1e-6 on
    # the estimate, a difference of near-equal sums); every other pair is
    # integrated on a longer ray and agrees to the quadrature's accuracy.
    @pytest.mark.parametrize("omega,t", [(0.0, 0.7), (1.0, 0.7), (1.0, 3.5)])
    def test_batch_matches_scalar_calls(self, omega, t):
        params = PhysParams(hbar=0.7, m=2.0, omega=omega)
        orders = np.array([0.0, 0.5, 1.0, 1.3, 2.5])
        x1 = np.array([0.7, 1.3])[:, None]
        x2 = np.array([0.9, 1.6, 2.2])
        *_, te = kn.route_factors("MAIN", x1, x2, t, params)
        assert (te < 0) == (t == 3.5)
        res = orc.hankel_kernel_oracle(x1, x2, te, orders, params)
        assert res.value.shape == res.quad_err.shape == res.tail_err.shape == (5, 2, 3)
        for a, n in enumerate(orders):
            for i in range(2):
                for j in range(3):
                    one = orc.hankel_kernel_oracle(float(x1[i, 0]), float(x2[j]), te, n, params)
                    assert isinstance(one.value, complex)
                    if (i, j) == (1, 2):
                        assert res.value[a, i, j] == pytest.approx(one.value, rel=1e-13)
                        assert (res.quad_err + res.tail_err)[a, i, j] == pytest.approx(
                            one.quad_err + one.tail_err, rel=1e-6)
                    else:
                        assert res.value[a, i, j] == pytest.approx(one.value, rel=1e-10)

    # The oracle-compare points and orders at w = 0 and at the oscillator's
    # effective times, negative at t = 3.5.
    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_default_rows_take_eight_panels_and_run_back_as_their_conjugates(
            self, omega, monkeypatch):
        params = PhysParams(omega=omega)
        x1, x2 = np.meshgrid((0.7, 1.3), (0.9, 1.6), indexing="ij")
        orders = np.array([0.0, 0.5, 1.0, 2.5])
        specs = []
        integrate = orc.integrate_oscillatory

        def spy(integrand, spec):
            specs.append(spec)
            return integrate(integrand, spec)

        monkeypatch.setattr(orc, "integrate_oscillatory", spy)
        for t in (0.3, 0.7, 1.2, 2.0, 3.5):
            *_, te = kn.route_factors("MAIN", x1, x2, t, params)
            forward = orc.hankel_kernel_oracle(x1, x2, te, orders, params)
            backward = orc.hankel_kernel_oracle(x1, x2, -te, orders, params)
            assert np.array_equal(backward.value, forward.value.conj())
            assert np.all(forward.quad_err + forward.tail_err < 1e-11)
        assert [s.panel_count for s in specs] == [8] * 10

    def test_a_small_order_takes_the_graded_first_panel(self):
        # The integrand behaves like r^{2n+1} = r^1.048 at the origin; a plain
        # first panel misses this point by 1.8e-7, the graded one by 3.4e-12.
        p = PhysParams(omega=0.0, n=0.024)
        res = orc.hankel_kernel_oracle(0.16, 2.5, 0.23, 0.024, p)
        closed = kn.kernel_values("radial_h0", 0.16, 2.5, 0.23, p)
        assert abs(res.value - closed) / abs(closed) <= 1e-11

    @pytest.mark.parametrize("orders, nodes", [
        # Every 2n an integer: eight plain panels, 8 * 24 fine nodes.
        ([0.0, 0.5, 1.0, 2.5], [192, 96]),
        # One non-integer 2n grades the first panel for the whole batch:
        # 16 pieces and 7 panels of 24 fine nodes.
        ([0.0, 0.5, 1.0, 2.5, 0.024], [552, 276]),
    ], ids=["integer-2n", "graded"])
    def test_fine_and_coarse_nodes_per_call_of_the_default_rows(
            self, orders, nodes, monkeypatch):
        # Half as many coarse nodes as fine ones, one integrand call on each.
        params = PhysParams(omega=1.0)
        x1, x2 = np.meshgrid((0.7, 1.3), (0.9, 1.6), indexing="ij")
        seen = []
        integrate = orc.integrate_oscillatory

        def spy(integrand, spec):
            def counted(r):
                seen.append(r.size)
                return integrand(r)
            return integrate(counted, spec)

        monkeypatch.setattr(orc, "integrate_oscillatory", spy)
        for t in (0.3, 0.7, 1.2, 2.0, 3.5):
            *_, te = kn.route_factors("MAIN", x1, x2, t, params)
            orc.hankel_kernel_oracle(x1, x2, te, np.array(orders), params)
        assert seen == nodes * 5

    def test_a_plain_first_panel_agrees_with_the_graded_one_at_integer_2n(self):
        # The integrand is analytic at r = 0 where 2n is an integer, so the
        # plain first panel must give the graded value, which the same batch
        # takes once a non-integer order joins it.
        params = PhysParams(omega=1.0)
        x1, x2 = np.meshgrid((0.7, 1.3), (0.9, 1.6), indexing="ij")
        orders = [0.0, 0.5, 1.0, 2.5, 20.0]
        for t in (0.3, 0.7, 1.2, 2.0, 3.5):
            *_, te = kn.route_factors("MAIN", x1, x2, t, params)
            plain = orc.hankel_kernel_oracle(x1, x2, te, np.array(orders), params).value
            graded = orc.hankel_kernel_oracle(x1, x2, te, np.array(orders + [0.024]),
                                              params).value[:-1]
            assert np.all(np.abs(plain - graded) <= 1e-11 * np.abs(graded))

    @pytest.mark.parametrize("order", [math.inf, [0.5, math.inf], -1.0, math.nan])
    def test_an_order_that_is_negative_or_not_finite_is_refused_by_name(self, order):
        with pytest.raises(ValueError, match="Bessel order must"):
            orc.hankel_kernel_oracle(1.0, 1.0, 1.0, order, PhysParams(omega=0.0))

    @pytest.mark.parametrize("x1, x2, t", [
        (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf),
        (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, [2.0, math.nan], 1.0),
    ], ids=["t-nan", "t-inf", "t-minus-inf", "x1-nan", "x1-inf", "x2-array-nan"])
    def test_a_t_or_x_that_is_not_finite_is_refused_by_name(self, x1, x2, t):
        # These passed the x <= 0 and t = 0 checks and were refused as
        # needing "nan panels".
        with pytest.raises(ValueError, match="requires finite t, x1 and x2"):
            orc.hankel_kernel_oracle(x1, x2, t, 0.5, P_FREE)

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
        g = orc.GridSpec(x_max=10.0, points=100)
        assert g.dx == pytest.approx(0.1)
        assert g.nodes()[0] == 0.0 and g.nodes()[-1] == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            orc.GridSpec(x_max=0.0, points=100)
        with pytest.raises(ValueError):
            orc.GridSpec(x_max=1.0, points=4)
        with pytest.raises(ValueError, match="must be finite"):
            orc.GridSpec(x_max=math.inf, points=100)

    def test_half_line_sample_pins_the_wall(self):
        g = orc.GridSpec(x_max=5.0, points=50)
        packet = ev.TestFunction(center=2.5, width=0.6)
        assert packet.evaluate(0.0, P_FREE) > 1e-3
        assert packet.sample(g, P_FREE, halfline=True).samples[0] == 0.0
        with pytest.raises(ValueError, match="half-line grid"):
            packet.sample(orc.GridSpec(x_max=5.0, points=50, x_min=-5.0), P_FREE, True)

    def test_half_line_sample_refuses_support_at_the_wall(self):
        g = orc.GridSpec(x_max=5.0, points=50)
        for center in (2.4, 1.0):  # center - 4 width = 0, < 0
            packet = ev.TestFunction(center=center, width=0.6)
            with pytest.raises(ValueError, match="need center - 4 width > 0"):
                packet.sample(g, P_FREE, halfline=True)
        # The full line has no wall.
        assert packet.sample(g, P_FREE, halfline=False).samples[0] != 0.0

    def test_wavefunction_refuses_samples_of_the_wrong_shape(self):
        g = orc.GridSpec(x_max=5.0, points=16)
        for shape in ((16,), (18,), (17, 1), ()):
            with pytest.raises(ValueError, match=r"expected 17 samples, got \("):
                orc.GridWavefunction(np.ones(shape), g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_wavefunction_refuses_non_finite_samples(self, bad):
        samples = np.ones(17, dtype=complex)
        samples[5] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            orc.GridWavefunction(samples, orc.GridSpec(x_max=5.0, points=16))

    def test_caller_array_is_not_modified(self):
        g = orc.GridSpec(x_max=5.0, points=16)
        a = np.ones(17, dtype=complex)
        psi = orc.GridWavefunction(a, g)
        psi.samples[0] = 0.0
        assert np.all(a == 1.0)

    def test_no_grid_pins_the_wall(self):
        for x_min in (0.0, -5.0):
            g = orc.GridSpec(x_max=5.0, points=50, x_min=x_min)
            assert orc.GridWavefunction(np.ones(51, dtype=complex), g).samples[0] == 1.0

    def test_full_line_packet_keeps_its_value_at_the_origin(self):
        # The wall belongs to the half-line kernels: a full-line packet on a
        # grid that starts at 0 keeps psi(0).
        g = orc.GridSpec(x_max=8.0, points=800)
        psi = ev.TestFunction(center=0.5, width=0.5).sample(g, P_FREE, halfline=False)
        assert psi.samples[0] == pytest.approx(0.696, abs=5e-4)
        assert psi.samples[0] == pytest.approx((0.5 * math.pi) ** -0.25 * math.exp(-0.25),
                                               rel=1e-15)


# The default evolve grid, 2000 intervals on [0, 14] mirrored for the full
# line, and the default packet.
HALF = orc.GridSpec(x_max=14.0, points=2000)
LINE = orc.GridSpec(x_max=14.0, points=2000, x_min=-14.0)
PACKET = ev.TestFunction(center=6.0, width=0.6)
# A coarser grid for the kernel frames, whose n = 20 Bessel core costs
# seconds per frame on the default one; it still resolves the kernel at
# t = 0.25, and the packet is 2e-9 of its peak at x = 1.
FRAME_GRIDS = (orc.GridSpec(x_max=10.0, points=700),
               orc.GridSpec(x_max=10.0, points=1400, x_min=-10.0))


class TestEdgeContaminated:
    # The outer 5% of 100 intervals is the last 5 nodes (and the first 5 on
    # the full line); a peak of 1 sits in the middle.
    @staticmethod
    def _psi(grid, at):
        samples = np.zeros(grid.points + 1)
        samples[grid.points // 2] = 1.0
        samples[list(at)] = list(at.values())
        return orc.GridWavefunction(samples, grid)

    def test_a_half_line_tail_above_1e_8_of_the_peak_is_read(self):
        grid = orc.GridSpec(x_max=1.0, points=100)
        assert orc.edge_contaminated(self._psi(grid, {96: 1.01e-8}))
        assert orc.edge_contaminated(self._psi(grid, {100: 1.01e-8}))
        assert not orc.edge_contaminated(self._psi(grid, {96: 1e-8}))
        assert not orc.edge_contaminated(self._psi(grid, {95: 1.0}))

    def test_the_wall_end_of_a_half_line_grid_is_not_read(self):
        grid = orc.GridSpec(x_max=1.0, points=100)
        assert not orc.edge_contaminated(self._psi(grid, {0: 1.0, 4: 1.0}))

    def test_both_ends_of_a_full_line_grid_are_read(self):
        grid = orc.GridSpec(x_max=1.0, points=100, x_min=-1.0)
        assert orc.edge_contaminated(self._psi(grid, {0: 1.01e-8}))
        assert orc.edge_contaminated(self._psi(grid, {4: 1.01e-8}))
        assert orc.edge_contaminated(self._psi(grid, {100: 1.01e-8}))
        assert not orc.edge_contaminated(self._psi(grid, {5: 1.0, 95: 1.0}))

    def test_the_zero_state_is_never_contaminated(self):
        for grid in (HALF, LINE):
            assert not orc.edge_contaminated(
                orc.GridWavefunction(np.zeros(grid.points + 1), grid))

    def test_a_16_interval_grid_reads_one_node_per_end(self):
        half = orc.GridSpec(x_max=1.0, points=16)
        line = orc.GridSpec(x_max=1.0, points=16, x_min=-1.0)
        assert orc.edge_contaminated(self._psi(half, {16: 1e-7}))
        assert not orc.edge_contaminated(self._psi(half, {15: 1.0}))
        assert orc.edge_contaminated(self._psi(line, {0: 1e-7}))
        assert not orc.edge_contaminated(self._psi(line, {1: 1.0, 15: 1.0}))


def _state(kernel, n, packet=PACKET, grids=(HALF, LINE)):
    kind = kn.kernel_kind(kernel)
    params = kind.hamiltonian(PhysParams(n=n, omega=1.0))
    grid = grids[0] if kind.halfline else grids[1]
    return packet.sample(grid, params, kind.halfline), params, kind.halfline


class TestEigenEvolve:
    """The eigenbasis oracle on its own: against the closed-form Gaussian
    packets, against the kernel frames, and under time reversal."""

    @pytest.mark.parametrize("t", [0.9, -0.6, 3.0])
    @pytest.mark.parametrize("momentum", [0.0, 2.0])
    def test_sho_matches_the_analytic_packet(self, t, momentum):
        packet = ev.TestFunction(center=2.0, width=0.5, momentum=momentum)
        psi, params, _ = _state("sho", 0.5, packet=packet)
        out = orc.eigen_evolve(psi, t, params, halfline=False)
        want = analytic_gaussian(LINE.nodes(), t, 2.0, 0.5, momentum, params)
        assert np.max(np.abs(out.samples - want)) <= 1e-12 * np.max(np.abs(want))

    # t = 0.05 takes the lens frequency from the grid, not from 1/(2|t|).
    @pytest.mark.parametrize("t", [1.0, -1.0, 0.25, 0.05, 3.0])
    def test_free_matches_the_analytic_packet(self, t):
        packet = ev.TestFunction(center=2.0, width=0.5, momentum=1.5)
        psi, params, _ = _state("free", 0.5, packet=packet)
        out = orc.eigen_evolve(psi, t, params, halfline=False)
        want = analytic_free_gaussian(LINE.nodes(), t, 2.0, 0.5, 1.5, params)
        assert np.max(np.abs(out.samples - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("omega,gauss", [(1.3, analytic_gaussian),
                                             (0.0, analytic_free_gaussian)])
    def test_hbar_and_mass_enter_the_basis_and_the_energies(self, omega, gauss):
        params = PhysParams(hbar=0.7, m=2.0, omega=omega)
        psi = ev.TestFunction(center=2.0, width=0.5, momentum=1.5).sample(LINE, params, False)
        for t in (0.9, -0.4):
            out = orc.eigen_evolve(psi, t, params, halfline=False)
            want = gauss(LINE.nodes(), t, 2.0, 0.5, 1.5, params)
            assert np.max(np.abs(out.samples - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kernel,t", [("radial_sho", 0.5), ("radial_sho", 2.0),
                                          ("radial_h0", 0.5), ("radial_h0", 0.8)])
    def test_half_order_matches_the_image_pair(self, kernel, t):
        # The packet runs into the wall, so its mirror image carries a
        # large share of the state; at the wall it is 1e-11 of its peak.
        packet = ev.TestFunction(center=3.0, width=0.3, momentum=-4.0)
        psi, params, halfline = _state(kernel, 0.5, packet=packet)
        out = orc.eigen_evolve(psi, t, params, halfline)
        gauss = analytic_gaussian if params.omega > 0 else analytic_free_gaussian
        x = HALF.nodes()
        want = gauss(x, t, 3.0, 0.3, -4.0, params) - gauss(-x, t, 3.0, 0.3, -4.0, params)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(gauss(-x, t, 3.0, 0.3, -4.0, params))) > 0.1 * peak
        assert out.samples[0] == 0.0
        assert np.max(np.abs(out.samples - want)) <= 1e-12 * peak

    @pytest.mark.parametrize("t", [1.0, -1.0, 0.25, 3.0])
    @pytest.mark.parametrize("kernel,n", [
        *[(k, n) for k in ("radial_sho", "radial_h0")
          for n in (0.0, 0.3, 0.5, 1.0, 2.5, 7.3, 20.0)],
        ("sho", 0.5), ("free", 0.5),
    ])
    def test_matches_the_kernel_frames(self, kernel, n, t):
        # The bound of the evolve cross-check; the worst reading is 5.5e-11.
        psi, params, halfline = _state(kernel, n, ev.TestFunction(center=5.5, width=0.5),
                                       FRAME_GRIDS)
        frame = ev.propagate(psi, t, kernel, params)
        assert ev.l2_distance(frame, orc.eigen_evolve(psi, t, params, halfline)) <= 1e-9

    @pytest.mark.parametrize("kernel,n", [("sho", 0.5), ("free", 0.5), ("radial_sho", 0.0),
                                          ("radial_sho", 2.5), ("radial_h0", 1.0)])
    def test_a_real_packet_runs_back_as_its_conjugate(self, kernel, n):
        psi, params, halfline = _state(kernel, n)
        forward = orc.eigen_evolve(psi, 0.7, params, halfline).samples
        backward = orc.eigen_evolve(psi, -0.7, params, halfline).samples
        assert np.array_equal(backward, forward.conj())

    @pytest.mark.parametrize("kernel,n", [("sho", 0.5), ("free", 0.5), ("radial_sho", 2.5),
                                          ("radial_h0", 1.0)])
    def test_each_call_makes_the_eigenbasis_once(self, kernel, n, monkeypatch):
        # Projection, phase and sum share one pass over the modes, at w > 0
        # and through the lens transform at w = 0.
        starts = []
        eigenfunctions = orc._eigenfunctions

        def counted(*args):
            starts.append(args)
            return eigenfunctions(*args)

        monkeypatch.setattr(orc, "_eigenfunctions", counted)
        psi, params, halfline = _state(kernel, n)
        for t in (0.7, -2.0):
            before = len(starts)
            orc.eigen_evolve(psi, t, params, halfline)
            assert len(starts) == before + 1

    def test_zero_time_is_the_identity(self):
        psi, params, halfline = _state("radial_sho", 1.0)
        out = orc.eigen_evolve(psi, 0.0, params, halfline)
        assert np.array_equal(out.samples, psi.samples) and out.samples is not psi.samples

    def test_refusals(self):
        psi, params, _ = _state("sho", 0.5)
        with pytest.raises(ValueError, match="half-line grid"):
            orc.eigen_evolve(psi, 0.5, params, halfline=True)
        with pytest.raises(ValueError, match="n must be 1/2"):
            orc.eigen_evolve(psi, 0.5, PhysParams(n=1.0), halfline=False)

    def test_a_non_finite_wt_is_refused_by_name(self):
        # 10 x 1e308 overflows; the phases e^{-i E_k t} would warn on it.
        psi, _, halfline = _state("radial_sho", 1.0)
        with pytest.raises(ValueError, match="w t is not finite at w=10"):
            orc.eigen_evolve(psi, 1e308, PhysParams(n=1.0, omega=10.0), halfline)

    def test_a_grid_too_wide_for_the_lens_transform_is_refused_by_name(self):
        # w' falls like 1/L^2, and L^2 overflows at L = 1e200.
        grid = orc.GridSpec(x_max=1e200, points=16, x_min=-1e200)
        psi = orc.GridWavefunction(np.ones(17), grid)
        with pytest.raises(ValueError, match=r"frequency underflows to 0 on a grid "
                                             r"reaching \|x\| = 1e\+200"):
            orc.eigen_evolve(psi, 1.0, P_FREE, halfline=False)


class TestShortTimeRefusal:
    # The ray needs about S^2/c panels: 2840 at x1 = x2 = 5, t = 0.01, the
    # corner of the sizing range, and 28M at t = 1e-6.
    def test_refuses_by_name_before_any_node(self, monkeypatch):
        def refuse(integrand, spec):
            raise AssertionError("the oracle integrated")

        monkeypatch.setattr(orc, "integrate_oscillatory", refuse)
        p = PhysParams(omega=0.0, n=0.0)
        for t in (1e-6, -1e-4, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=rf"t={t:.17g} needs .* panels, more than "
                                                 rf"its cap of {orc._MAX_PANELS}"):
                orc.hankel_kernel_oracle(5.0, 5.0, t, 0.0, p)
        with pytest.raises(ValueError, match="t=9.9999999999999995e-07 needs 2.84e"):
            orc.hankel_kernel_oracle(5.0, 5.0, 1e-6, 0.0, p)

    def test_the_sizing_range_stays_under_the_cap(self, monkeypatch):
        specs = []
        monkeypatch.setattr(orc, "integrate_oscillatory", lambda f, spec: specs.append(spec))
        p = PhysParams(omega=0.0, n=0.0)
        for t in (0.01, -0.01, 1e-3):
            orc.hankel_kernel_oracle(5.0, 5.0, t, 0.0, p)
        assert [s.panel_count for s in specs] == [2840, 2840, 28398]
        assert 28398 < orc._MAX_PANELS
