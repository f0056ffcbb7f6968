"""Whole-chart accuracy of the stored h(r) for Schwarzschild n = 3.

With s = m (1 + t) the arc length from the horizon has the closed form

    F(s) = m (sqrt(t (1 + t)) + asinh(sqrt(t))),

which is sqrt(s (s - m)) + m ln((sqrt(s) + sqrt(s - m)) / sqrt(m)) written
without the cancellation in s - m.  The lookup r -> s must invert it over
the whole default chart [m (1 + 1e-12), 10 m], for masses over four decades.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import make_model

# t = s/m - 1 from just above the horizon to the default chart edge s = 10 m
T_GRID = np.concatenate(([1e-12], np.geomspace(1e-12, 9.0, 2001)[1:]))


def closed_form_distance(m, t):
    return m * (np.sqrt(t * (1.0 + t)) + np.arcsinh(np.sqrt(t)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(log_m=st.floats(min_value=-2.0, max_value=2.0))
@example(log_m=-2.0)
@example(log_m=2.0)
def test_area_radius_of_distance_inverts_closed_form(log_m):
    m = 10.0**log_m
    w = make_model("schwarzschild", 3, m=m)
    s = m * (1.0 + T_GRID)
    r = closed_form_distance(m, T_GRID)
    assert w.profile.s_max == s[-1]
    assert abs(w.r_bar / r[-1] - 1.0) < 2e-10
    # the quadrature may end a hair short of the closed form at the edge
    lookup = w.area_radius_of_distance(np.minimum(r, w.r_bar))
    assert np.max(np.abs(lookup / s - 1.0)) < 2e-10
