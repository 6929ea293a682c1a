import numpy as np
import pytest

from sl2prop import kernels as kn
from sl2prop.sl2rep import IDENTITY_IDS, PhysParams

P_HALF = PhysParams(n=0.5, omega=1.0)


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_half_order_routes_agree_with_direct(identity):
    # At n = 1/2 the closed form is the Bessel core of the oscillator, while
    # the routes wrap the Bessel core of the w = 0 kernel at the re-timed
    # argument in their phases: two different evaluations that must agree.
    x = np.linspace(0.3, 2.7, 9)
    for wt in np.linspace(-1.4, 1.4, 8):
        pt = (x[:, None], x[None, :], float(wt))
        d = kn.kernel_values("radial_sho", *pt, P_HALF)
        outer, y1, y2, te = kn.route_factors(identity, *pt, P_HALF)
        r = outer * kn.kernel_values("radial_h0", y1, y2, te, P_HALF)
        assert np.max(np.abs(r - d) / np.abs(d)) < 1e-12
        assert not np.array_equal(r, d)
