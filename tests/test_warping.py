"""Warping profiles and the structure-condition suite.

Oracles: space forms are Einstein with eigenvalue (n-1) times the
sectional curvature; the monotonicity quantity vanishes identically on
Schwarzschild and equals -(n-2) q^2 s^{2-2n} on Reissner-Nordstrom;
the tangential static-tensor eigenvalue equals h/2 times the
monotonicity slope by direct expansion of both formulas.
"""

import math

import numpy as np
import pytest

from warpcmc import (
    DomainError,
    HypothesisError,
    NotApplicableError,
    ParameterError,
    WarpingFunction,
    check_conditions,
    chebyshev_radii,
    euclidean_warping,
    hyperbolic_warping,
    make_model,
    monotonicity_quantity,
    potential_and_field,
    potential_monotone_radius,
    ricci_eigenvalues,
    ricci_gap_margin,
    scalar_curvature,
    scan_monotonicity_extrema,
    sphere_volume,
    spherical_warping,
    static_tensor,
    tabulated_warping,
)
from warpcmc.errors import WarpcmcError
from warpcmc.warping import find_root
from conftest import bump_quantity


def test_sphere_volume_closed_forms():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_space_forms_are_einstein(n, c):
    rng = np.random.default_rng(3)
    sph = spherical_warping(n, curvature=c)
    hyp = hyperbolic_warping(n, curvature=c, r_bar=3.0)
    r_s = rng.uniform(0.05, 0.95, 40) * sph.r_bar
    r_h = rng.uniform(0.05, 0.95, 40) * hyp.r_bar
    for w, radii, sign in ((sph, r_s, 1.0), (hyp, r_h, -1.0)):
        rad, tan = ricci_eigenvalues(w, radii)
        assert np.max(np.abs(rad - sign * (n - 1) * c)) < 1e-10
        assert np.max(np.abs(tan - sign * (n - 1) * c)) < 1e-10
        assert np.max(np.abs(scalar_curvature(w, radii) - sign * n * (n - 1) * c)) < 1e-9


def test_euclidean_is_flat():
    w = euclidean_warping(4)
    radii = np.linspace(0.3, 9.0, 25)
    rad, tan = ricci_eigenvalues(w, radii)
    assert np.max(np.abs(rad)) == 0.0
    assert np.max(np.abs(tan)) == 0.0


@pytest.mark.parametrize(
    "factory",
    [
        lambda: euclidean_warping(3),
        lambda: spherical_warping(3, curvature=2.0),
        lambda: hyperbolic_warping(5, curvature=0.7, r_bar=2.0),
    ],
)
def test_space_form_gap_margin_vanishes(factory):
    # the stable defect route cancels to a rounding or two of h''/h, far
    # below any discretization scale; unit curvature cancels to the bit
    w = factory()
    radii = chebyshev_radii(0.0, w.r_bar, 200)
    assert np.max(np.abs(ricci_gap_margin(w, radii))) < 1e-12
    assert np.max(np.abs(ricci_gap_margin(euclidean_warping(3), radii))) == 0.0


def test_schwarzschild_quantity_vanishes(schw3):
    radii = np.linspace(1e-3, schw3.r_bar * 0.999, 60)
    value, slope = monotonicity_quantity(schw3, radii)
    assert np.max(np.abs(value)) < 1e-12
    assert np.max(np.abs(slope)) < 1e-12


def test_reissner_nordstrom_quantity_closed_form(rn3):
    n = rn3.dim
    q = rn3.params["q"]
    radii = np.linspace(1e-3, rn3.r_bar * 0.999, 60)
    s = rn3.jet(radii)[0]
    value, _ = monotonicity_quantity(rn3, radii)
    oracle = -(n - 2) * q * q * s ** (2 - 2 * n)
    assert np.max(np.abs(value - oracle)) < 1e-13


def test_static_tensor_radial_cancels_and_tangential_matches_slope(
    schw3, rn3, cosine_boundary
):
    for w in (schw3, rn3, cosine_boundary, hyperbolic_warping(4, curvature=1.3, r_bar=2.0)):
        radii = np.linspace(1e-3, w.r_bar * 0.98, 50)
        rad, tan = static_tensor(w, radii)
        assert np.max(np.abs(rad)) < 1e-11
        h = w.jet(radii)[0]
        _, slope = monotonicity_quantity(w, radii)
        assert np.max(np.abs(tan - 0.5 * h * slope)) < 1e-10


def test_schwarzschild_static_tensor_vanishes(schw3):
    radii = np.linspace(1e-3, schw3.r_bar * 0.999, 60)
    rad, tan = static_tensor(schw3, radii)
    assert np.max(np.abs(rad)) < 1e-11
    assert np.max(np.abs(tan)) < 1e-11


def test_reissner_nordstrom_static_tensor_positive(rn3):
    radii = np.linspace(1e-3, rn3.r_bar * 0.999, 60)
    _, tan = static_tensor(rn3, radii)
    assert np.min(tan) > 0.0


@pytest.mark.parametrize(
    "factory, conclusion",
    [
        (lambda: euclidean_warping(3), "umbilic-only"),
        (lambda: spherical_warping(3), "umbilic-only"),
        (lambda: hyperbolic_warping(3, r_bar=2.5), "umbilic-only"),
    ],
)
def test_space_form_conditions_degenerate_gap(factory, conclusion):
    report = check_conditions(factory())
    assert report.required_pass
    assert report.status["ricci_gap"] == "degenerate"
    assert report.conclusion == conclusion


def test_schwarzschild_conditions_strict_gap(schw3):
    report = check_conditions(schw3)
    assert report.required_pass
    assert all(
        report.status[k] == "pass"
        for k in ("regularity", "monotonicity", "scalar_monotonicity")
    )
    assert report.status["ricci_gap"] == "pass"
    assert report.conclusion == "slice-rigidity"


def test_sphere_past_equator_fails_monotonicity():
    w = spherical_warping(3, curvature=1.0, r_bar=2.5)
    report = check_conditions(w)
    assert report.status["monotonicity"] == "fail"
    assert not report.required_pass
    # worst radius sits in the contracting half of the chart
    assert report.worst_radius["monotonicity"] > 0.5 * math.pi


def test_regularity_rejects_mismatched_ball_table():
    radii = np.linspace(0.0, 1.0, 64)
    w = tabulated_warping("offset", 3, radii, radii + 0.1, "ball")
    report = check_conditions(w)
    assert report.status["regularity"] == "fail"
    assert not report.required_pass


def test_bump_table_matches_manufactured_quantity(bump_table):
    radii = np.linspace(0.05, 1.15, 120)
    value, _ = monotonicity_quantity(bump_table, radii)
    assert np.max(np.abs(value - bump_quantity(radii))) < 1e-6


def test_bump_table_extremum_scan(bump_table):
    records = scan_monotonicity_extrema(bump_table, slope_floor=1e-3)
    assert len(records) == 1
    rec = records[0]
    assert rec.kind == "max"
    assert abs(rec.radius - 0.6) < 1e-5
    assert rec.ricci_distinct
    assert abs(rec.value - 0.4) < 1e-6


def test_potential_monotone_radius_cosine_oracle(cosine_boundary):
    # h'' = cos(pi r / 1.4) crosses zero exactly at 0.7
    assert abs(potential_monotone_radius(cosine_boundary) - 0.7) < 1e-6


def test_potential_monotone_radius_schwarzschild_full_chart(schw3):
    assert potential_monotone_radius(schw3) == schw3.r_bar


def test_potential_monotone_radius_needs_boundary():
    with pytest.raises(NotApplicableError):
        potential_monotone_radius(euclidean_warping(3))


def test_potential_and_field_is_jet_slice(schw3):
    f, x = potential_and_field(schw3, 0.5)
    h, hp, _, _ = schw3.jet(0.5)
    assert f == hp and x == h


def test_chebyshev_radii_are_interior_and_sorted():
    radii = chebyshev_radii(0.0, 2.0, 33)
    assert radii.shape == (33,)
    assert np.all(np.diff(radii) > 0)
    assert radii[0] > 0.0 and radii[-1] < 2.0


def test_jet_domain_guard(schw3):
    with pytest.raises(DomainError):
        schw3.jet(schw3.r_bar * 1.01)
    with pytest.raises(DomainError):
        schw3.jet(-0.1)


def _chart_ambient(kind, n, tmp_path):
    """An ambient of each kind of jet: built-in family, omega table or spline."""
    if kind == "omega-table":
        s = np.linspace(1.0, 10.0, 400)
        path = tmp_path / "omega.txt"
        np.savetxt(path, np.column_stack([s, 1.0 - 1.0 / s]))
        return make_model(kind, n, path=str(path))
    if kind == "tabulated":
        radii = np.linspace(0.0, 2.0, 41)
        return tabulated_warping("sinh", n, radii, np.sinh(radii), "ball")
    params = {"desitter-schwarzschild": {"kappa": 0.01}, "reissner-nordstrom": {"q": 0.3}}
    return make_model(kind, n, **params.get(kind, {}))


@pytest.mark.parametrize(
    "kind, n",
    [
        (family, n)
        for family in ("schwarzschild", "desitter-schwarzschild", "reissner-nordstrom")
        for n in (3, 5)
    ]
    + [(kind, 3) for kind in ("euclidean", "sphere", "hyperbolic", "omega-table", "tabulated")],
)
def test_jet_of_an_in_chart_array_leaves_it_alone(kind, n, tmp_path):
    # the chart check hands an array already in [0, r_bar] to the jet uncopied
    w = _chart_ambient(kind, n, tmp_path)
    r = np.linspace(0.0, w.r_bar, 17)
    before = r.copy()
    out = w.jet(r) + (w.curvature_defect(r[1:]),)
    assert not any(o is r for o in out)
    assert np.array_equal(r, before)
    # inside the 1e-12 overshoot a radius is still clipped to r_bar
    over = r.copy()
    over[-1] = w.r_bar * (1.0 + 5e-13)
    for got, want in zip(w.jet(over), w.jet(r)):
        assert np.array_equal(got, want)
    assert over[-1] > w.r_bar  # clipped in a copy, not in place
    with pytest.raises(DomainError):
        w.jet(np.array([0.5 * w.r_bar, w.r_bar * (1.0 + 1e-11)]))



@pytest.mark.parametrize(
    "kind, n",
    [
        (family, n)
        for family in ("schwarzschild", "desitter-schwarzschild", "reissner-nordstrom")
        for n in (3, 5)
    ]
    + [(kind, 3) for kind in ("euclidean", "sphere", "hyperbolic", "omega-table", "tabulated")],
)
@pytest.mark.filterwarnings("error")
def test_nan_radius_is_outside_the_chart(kind, n, tmp_path):
    # a NaN compares false with both bounds, so the chart check must ask
    # whether a radius is inside, not whether it is outside
    w = _chart_ambient(kind, n, tmp_path)
    for r in (math.nan, np.float64(math.nan), np.array([math.nan]), np.array([0.5 * w.r_bar, math.nan])):
        with pytest.raises(DomainError):
            w.jet(r)
        with pytest.raises(DomainError):
            w.curvature_defect(r)

def test_constructor_guards():
    with pytest.raises(ParameterError):
        euclidean_warping(2)
    with pytest.raises(ParameterError):
        spherical_warping(3, curvature=-1.0)
    with pytest.raises(ParameterError):
        WarpingFunction("x", 3, 1.0, 1.0, "weird", "closed-form", lambda r: r)
    with pytest.raises(ParameterError):
        tabulated_warping("short", 3, [0.0, 1.0], [0.0, 1.0], "ball")


def test_tabulated_requires_zero_start():
    radii = np.linspace(0.1, 1.0, 64)
    with pytest.raises(ParameterError):
        tabulated_warping("late", 3, radii, radii, "ball")


@pytest.mark.parametrize(
    "fun, a, b, root",
    [
        (lambda x: x**3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.exp(x) - 1e5, 0.0, 20.0, math.log(1e5)),
        (lambda x: math.tanh(100.0 * (x - 0.3)), -1.0, 1.0, 0.3),
        (lambda x: 1.0 - x * x, -1.0, 0.5, -1.0),
    ],
)
def test_find_root_accuracy(fun, a, b, root):
    assert find_root(fun, a, b) == pytest.approx(root, rel=2e-15)
    assert find_root(fun, b, a) == pytest.approx(root, rel=2e-15)


def test_find_root_honours_xtol():
    calls = []

    def fun(x):
        calls.append(x)
        return math.cos(x) - x

    loose = find_root(fun, 0.0, 1.0, xtol=1e-3)
    loose_calls = len(calls)
    tight = find_root(fun, 0.0, 1.0)
    assert abs(loose - tight) < 1e-3
    assert loose_calls < len(calls) - loose_calls


def test_find_root_needs_a_sign_change():
    with pytest.raises(HypothesisError, match="no sign change") as info:
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)
    assert isinstance(info.value, WarpcmcError)
