import numpy as np
import pytest

from sl2prop import kernels as kn
from sl2prop.sl2rep import PhysParams

P_HALF = PhysParams(n=0.5, omega=1.0)


@pytest.mark.parametrize("route", ["ELEMENT", "A1a", "A2a", "A3a"])
def test_half_order_routes_agree_with_direct(route):
    # At n = 1/2 DIRECT is the image difference of oscillator kernels, while
    # the routes wrap the image difference of free kernels at the re-timed
    # argument: two different evaluations that must agree.
    x = np.linspace(0.3, 2.7, 9)
    for wt in np.linspace(-1.4, 1.4, 8):
        pt = kn.KernelPoint(x[:, None], x[None, :], float(wt))
        d = kn.kernel_via_route("DIRECT", pt, P_HALF).value
        r = kn.kernel_via_route(route, pt, P_HALF).value
        assert np.max(np.abs(r - d) / np.abs(d)) < 1e-12
        assert not np.array_equal(r, d)


@pytest.mark.parametrize("name", ["radial_h0", "radial_sho"])
def test_forced_bessel_core_matches_the_image_difference(name):
    x = np.linspace(0.3, 2.7, 9)
    img = kn.kernel_values(name, x[:, None], x[None, :], 0.8, P_HALF)
    gen = kn.kernel_values(name, x[:, None], x[None, :], 0.8, P_HALF, core="bessel")
    assert np.max(np.abs(gen - img) / np.abs(img)) < 1e-12


def test_forced_core_must_apply_to_the_kernel():
    with pytest.raises(ValueError):
        kn.kernel_values("sho", 1.0, 1.0, 0.5, P_HALF, core="bessel")
    with pytest.raises(ValueError):
        kn.kernel_values("radial_sho", 1.0, 1.0, 0.5, PhysParams(n=2.5), core="image")
