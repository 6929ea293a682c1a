import numpy as np
import pytest

from sl2prop import kernels as kn
from sl2prop.sl2rep import PhysParams

P_HALF = PhysParams(n=0.5, omega=1.0)


@pytest.mark.parametrize("route", ["ELEMENT", "A1a", "A2a", "A3a"])
def test_half_order_routes_agree_with_direct(route):
    # At n = 1/2 the closed form is the Bessel core of the oscillator, while
    # the routes wrap the Bessel core of the w = 0 kernel at the re-timed
    # argument in their phases: two different evaluations that must agree.
    x = np.linspace(0.3, 2.7, 9)
    for wt in np.linspace(-1.4, 1.4, 8):
        pt = (x[:, None], x[None, :], float(wt))
        d = kn.kernel_values("radial_sho", *pt, P_HALF)
        r = kn.kernel_via_route(route, *pt, P_HALF)
        assert np.max(np.abs(r - d) / np.abs(d)) < 1e-12
        assert not np.array_equal(r, d)
