"""Whole-chart accuracy of the stored h(r) for the three horizon families.

Schwarzschild n = 3: with s = m (1 + t) the arc length from the horizon has
the closed form

    F(s) = m (sqrt(t (1 + t)) + asinh(sqrt(t))),

which is sqrt(s (s - m)) + m ln((sqrt(s) + sqrt(s - m)) / sqrt(m)) written
without the cancellation in s - m.  The lookup r -> s must invert it over
the whole default chart [m (1 + 1e-12), 10 m], for masses over four decades.

Reissner-Nordstrom and deSitter-Schwarzschild have no closed form; the
reference is scipy's adaptive ``quad``, substituting s = s_floor + xi^2
below the midpoint between the horizons and s = s_upper - eta^2 above it,
so that it reaches the cosmological end of a kappa > 0 chart, and taking
omega from the mean of omega' next to each root.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

from warpcmc import make_model
from conftest import kappa_max

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


def test_omega_table_chart_matches_closed_form(tmp_path):
    """An omega table of Schwarzschild n = 3, m = 1 on [1, 10] gives its closed-form chart.

    The table's omega next to the horizon is a plain difference of spline
    values, mostly roundoff there, so the knot quadrature must keep its
    nodes off the horizon as well as reach roundoff on each panel.
    """
    s = np.linspace(1.0, 10.0, 2000)
    path = tmp_path / "omega.txt"
    np.savetxt(path, np.column_stack([s, 1.0 - 1.0 / s]))
    w = make_model("omega-table", 3, path=str(path))
    t = np.concatenate(([1e-6], np.geomspace(1e-6, 9.0, 2001)[1:]))
    r = closed_form_distance(1.0, t)
    assert abs(w.r_bar / r[-1] - 1.0) < 2e-12
    lookup = w.area_radius_of_distance(np.minimum(r, w.r_bar))
    assert np.max(np.abs(lookup - (1.0 + t))) < 1e-11


# Gauss-Legendre rule on [0, 1] for the mean slope of omega
TAU, TAU_WEIGHTS = roots_legendre(40)
TAU, TAU_WEIGHTS = 0.5 * (TAU + 1.0), 0.5 * TAU_WEIGHTS


def _quad_from_root(profile, root, sign, a, b):
    """Arc length between root + sign a^2 and root + sign b^2, in x = sqrt(|s - root|).

    Within root/2 of the root, omega(root + d) = d * (mean of omega' over
    [root, root + d]) with d = sign x^2, so the integrand 2 x / sqrt(omega)
    is 2 / sqrt(sign * mean slope): no difference of omega values, whose
    roundoff next to a root would swamp the reference.  Farther out the
    difference omega(root + d) - omega(root) is accurate.
    """
    w_root = float(profile.omega(np.asarray(root))[0])

    def integrand(x):
        d = sign * x * x
        if abs(d) < 0.5 * root:
            return 2.0 / math.sqrt(sign * (profile.omega(root + d * TAU)[1] @ TAU_WEIGHTS))
        return 2.0 * x / math.sqrt(float(profile.omega(np.asarray(root + d))[0]) - w_root)

    return sign * quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def two_sided_reference(profile, s):
    """F(s) by quad, from the horizon below the midpoint and from s_upper above it."""
    s_floor, s_upper = profile.s_floor, profile.s_upper
    mid = math.inf if s_upper is None else 0.5 * (s_floor + s_upper)
    out = _quad_from_root(profile, s_floor, 1.0, 0.0, math.sqrt(min(s, mid) - s_floor))
    if s > mid:
        eta_mid, eta = math.sqrt(s_upper - mid), math.sqrt(s_upper - s)
        out += _quad_from_root(profile, s_upper, -1.0, eta_mid, eta)
    return out


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["reissner-nordstrom", "desitter-schwarzschild"]),
    n=st.integers(min_value=3, max_value=5),
    log_m=st.floats(min_value=-2.0, max_value=2.0),
    frac=st.floats(min_value=-1.0, max_value=0.99),
)
@example(family="desitter-schwarzschild", n=3, log_m=0.0, frac=0.99)
@example(family="desitter-schwarzschild", n=5, log_m=2.0, frac=0.99)
@example(family="desitter-schwarzschild", n=4, log_m=-2.0, frac=0.5)
@example(family="reissner-nordstrom", n=3, log_m=0.0, frac=0.99)
def test_chart_matches_two_sided_quadrature(family, n, log_m, frac):
    """r_bar, the arc-length oracle and the lookup against quad, up to the cosmological end.

    frac sets q = 0.49 |frac| m for Reissner-Nordstrom and kappa =
    frac kappa_max for deSitter-Schwarzschild (kappa < 0 scales the same way).
    """
    m = 10.0**log_m
    if family == "reissner-nordstrom":
        w = make_model(family, n, m=m, q=max(0.49 * abs(frac), 0.01) * m)
    else:
        w = make_model(family, n, m=m, kappa=frac * kappa_max(n, m))
    prof = w.profile
    assert (prof.s_upper is not None) == (family == "desitter-schwarzschild" and frac > 0)
    span = prof.s_max - prof.s_floor
    frac_of_span = np.concatenate(([1e-12], np.linspace(0.0, 1.0, 25)[1:-1], [1.0 - 1e-9, 1.0]))
    s = prof.s_floor + span * frac_of_span
    s[-1] = prof.s_max
    reference = np.array([two_sided_reference(prof, x) for x in s])
    assert abs(w.r_bar / reference[-1] - 1.0) < 1e-10
    assert np.max(np.abs(w.distance_of_area_radius(s) / reference - 1.0)) < 1e-10
    lookup = w.area_radius_of_distance(np.minimum(reference, w.r_bar))
    assert np.max(np.abs(lookup / s - 1.0)) < 2e-10
