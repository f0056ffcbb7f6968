"""Warping profiles and the structure-condition suite.

Oracles: space forms are Einstein with eigenvalue (n-1) times the
sectional curvature; the monotonicity quantity vanishes identically on
Schwarzschild and equals -(n-2) q^2 s^{2-2n} on Reissner-Nordstrom;
the tangential static-tensor eigenvalue equals h/2 times the
monotonicity slope by direct expansion of both formulas.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import (
    MODEL_FAMILIES,
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
from warpcmc import models
from warpcmc.errors import WarpcmcError
from warpcmc.warping import _curvature, find_root
from conftest import bump_quantity


def test_sphere_volume_closed_forms():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    # Gamma((k + 1)/2) overflows a float from k = 343
    assert sphere_volume(342) > 0.0
    with pytest.raises(ParameterError, match="S\\^343"):
        sphere_volume(343)


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
    # the closed forms make the gap an exact 0; the jet route without them
    # cancels to a rounding or two of h''/h, far below any discretization scale
    w = factory()
    radii = chebyshev_radii(0.0, w.r_bar, 200)
    assert np.max(np.abs(ricci_gap_margin(w, radii))) == 0.0
    jet_route = dataclasses.replace(w, _closed_forms=None)
    assert np.max(np.abs(ricci_gap_margin(jet_route, radii[radii > 0.1 * w.r_bar]))) < 1e-12


def _space_form(family, log_lam):
    """Sectional curvature and model parameters of a space form scaled by lam = 10^log_lam.

    The homothety takes curvature c to c / lam^2 and r_bar to lam r_bar; the
    sphere's default chart, up to the equator, scales by itself.
    """
    curvature, lam = 10.0 ** (-2.0 * log_lam), 10.0**log_lam
    return {
        "euclidean": (0.0, {"r_bar": 10.0 * lam}),
        "sphere": (curvature, {"curvature": curvature}),
        "hyperbolic": (-curvature, {"curvature": curvature, "r_bar": 5.0 * lam}),
    }[family]


@pytest.mark.parametrize("family", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("log_lam", [-0.3, 2.0])
def test_space_form_closed_forms_are_exact(family, n, log_lam):
    # defect c, gap 0, W = -n c and a W slope of 0 at every radius, to the bit,
    # on arrays and on floats; the jet route of the same ambient agrees to its
    # roundoff away from the center, where its defect cancels
    c, params = _space_form(family, log_lam)
    w = make_model(family, n, **params)
    radii = chebyshev_radii(0.0, w.r_bar, 200)
    for r in (radii, float(radii[7])):
        record = _curvature(w, r)
        assert np.all(record.defect == c) and np.all(w.curvature_defect(r) == c)
        assert np.all(record.gap == 0.0) and np.all(ricci_gap_margin(w, r) == 0.0)
        value, slope = monotonicity_quantity(w, r)
        assert np.all(value == -n * c) and np.all(slope == 0.0)
        assert np.all(scalar_curvature(w, r) == -(n - 1) * (-n * c))
    outer = radii[radii > 0.1 * w.r_bar]
    jet_route = _curvature(dataclasses.replace(w, _closed_forms=None), outer)
    closed = _curvature(w, outer)
    scale = abs(c) + 1e-300
    for name in ("defect", "radial", "tangential", "gap", "value"):
        assert np.max(np.abs(getattr(jet_route, name) - getattr(closed, name))) < 1e-12 * scale, name
    assert np.max(np.abs(jet_route.slope)) < 1e-12 * scale / w.r_bar


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["euclidean", "sphere", "hyperbolic"]),
    n=st.sampled_from([3, 4, 5, 7]),
    log_lam=st.floats(min_value=-4.0, max_value=4.0),
)
# `check --model sphere --n 5 --curvature 100`, `--n 3 --curvature 1000` and
# `check --model hyperbolic --n 5 --curvature 1e4 --r-bar 0.05`: the jet
# route's W slope read -1.9e-9, -7.5e-9 and -1.9e-6 there, and "none"
@example("sphere", 5, -1.0)
@example("sphere", 3, -1.5)
@example("hyperbolic", 5, -2.0)
def test_space_forms_keep_their_verdict_at_every_scale(family, n, log_lam):
    # a homothety changes no verdict: the closed forms make the gap and the
    # slope exact zeros at every scale
    _, params = _space_form(family, log_lam)
    report = check_conditions(make_model(family, n, **params))
    assert report.conclusion == "umbilic-only"
    assert report.min_margin["ricci_gap"] == 0.0
    assert report.min_margin["scalar_monotonicity"] == 0.0


def test_schwarzschild_quantity_vanishes(schw3):
    radii = np.linspace(1e-3, schw3.r_bar * 0.999, 60)
    value, slope = monotonicity_quantity(schw3, radii)
    assert np.max(np.abs(value)) < 1e-12
    assert np.max(np.abs(slope)) < 1e-12


def test_reissner_nordstrom_quantity_closed_form(rn3):
    n = rn3.dim
    q = rn3.profile.params["q"]
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


def test_static_tensor_is_half_h_times_the_monotonicity_slope_in_every_family(tmp_path):
    # radial eigenvalue 0, tangential (h/2) dW/dr: sub-staticity is exactly the
    # monotonicity condition H2, to 1e-12 of each ambient's curvature scale
    s = np.linspace(1.0, 10.0, 2000)
    np.savetxt(tmp_path / "omega.txt", np.column_stack([s, 1.0 - 1.0 / s]))
    ambients = [
        make_model("euclidean", 3),
        make_model("sphere", 4),
        make_model("hyperbolic", 5, curvature=1.3, r_bar=2.0),
        make_model("schwarzschild", 5, m=0.01),
        make_model("reissner-nordstrom", 4, q=0.3),
        make_model("desitter-schwarzschild", 3, kappa=0.1),
        make_model("desitter-schwarzschild", 4, kappa=-0.5),
        make_model("omega-table", 3, path=str(tmp_path / "omega.txt")),
    ]
    assert sorted({w.name for w in ambients}) == sorted(MODEL_FAMILIES)
    for w in ambients:
        radii = np.linspace(0.01, 0.99, 97) * w.r_bar
        rad, tan = static_tensor(w, radii)
        _, slope = monotonicity_quantity(w, radii)
        tol = 1e-12 * w.curvature_scale
        assert np.max(np.abs(rad)) <= tol, w.name
        assert np.max(np.abs(tan - 0.5 * w.jet(radii)[0] * slope)) <= tol, w.name


def test_hyperbolic_chart_past_the_sinh_overflow_is_refused():
    # sinh(x) overflows past x ~ 710.48; a chart reaching there is refused up front
    for curvature, r_bar in ((1.0, 800.0), (1.0, 710.5), (4.0, 355.3), (1.0, math.inf)):
        with pytest.raises(ParameterError, match="overflows"):
            hyperbolic_warping(3, curvature=curvature, r_bar=r_bar)
    assert check_conditions(hyperbolic_warping(3, r_bar=709.0)).conclusion == "umbilic-only"


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


def _scan_by_interval(w, slope_floor):
    """The extrema scan as a loop over the grid intervals on the jet-route slope: the oracle."""
    def slope_at(r):
        return monotonicity_quantity(w, r)[1]

    radii = chebyshev_radii(0.005 * w.r_bar if w.variant == "ball" else 0.0, w.r_bar, 256)
    slope = slope_at(radii)
    records = []
    for i in range(len(radii) - 1):
        sa, sb = slope[i], slope[i + 1]
        if sa == 0.0 or np.sign(sa) * np.sign(sb) >= 0.0 or max(abs(sa), abs(sb)) <= slope_floor:
            continue
        root = find_root(slope_at, radii[i], radii[i + 1], xtol=1e-8 * w.r_bar)
        radial, tangential = ricci_eigenvalues(w, root)
        kind = "max" if sa > 0 else "min"
        records.append((root, kind, monotonicity_quantity(w, root)[0], abs(radial - tangential) > 1e-9))
    return records


@pytest.mark.parametrize("ambient, slope_floor, count", [
    ("bump_table", 1e-3, 1), ("bump_table", 0.0, 1), ("wavy", None, 3), ("cosine_boundary", None, 0),
    ("schw3", None, 0), ("rn3", None, 0),
])
def test_extremum_scan_is_the_interval_loop(ambient, slope_floor, count, request):
    # one record per sign change of the jet-route slope beyond the floor, bit for bit;
    # a horizon family's exact slope is one-signed or 0 and has no sign change
    if ambient == "wavy":
        r = np.linspace(0.0, 2.0, 201)  # sinh with a bump: three extrema of W
        w = tabulated_warping("wavy", 3, r, np.sinh(r) + 0.05 * np.exp(-((r - 1.0) / 0.2) ** 2) * r**3, "ball")
    else:
        w = request.getfixturevalue(ambient)
    floor = 1e-7 * w.curvature_scale / w.r_bar if slope_floor is None else slope_floor
    got = [dataclasses.astuple(rec) for rec in scan_monotonicity_extrema(w, slope_floor)]
    assert got == _scan_by_interval(w, floor)
    assert len(got) == count


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
        WarpingFunction("x", 3, 1.0, "weird", lambda r: r)
    with pytest.raises(ParameterError):
        tabulated_warping("short", 3, [0.0, 1.0], [0.0, 1.0], "ball")
    radii = np.linspace(0.0, 1.0, 16)
    for bad in (np.nan, np.inf):
        values = radii.copy()
        values[5] = bad
        with pytest.raises(ParameterError, match="'holey'"):
            tabulated_warping("holey", 3, radii, values, "ball")


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


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_find_root_at_the_ends_of_the_float_range(scalar):
    # at x ~ 1e300 the interpolation denominator underflows to 0: the step
    # bisects instead of dividing by zero, and numpy scalars warn of nothing
    fun = lambda x: scalar(1.0) - scalar(1e300) / x
    root = find_root(fun, scalar(1e299), scalar(1e302))
    assert type(root) is float
    assert root == pytest.approx(1e300, rel=2e-15)


def test_find_root_needs_a_sign_change():
    with pytest.raises(HypothesisError, match="no sign change") as info:
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)
    assert isinstance(info.value, WarpcmcError)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
def test_ambient_constants_equal_what_their_call_sites_computed(family, n, tmp_path):
    params = {}
    if family == "omega-table":
        s = np.linspace(1.0, 10.0, 400)
        np.savetxt(tmp_path / "omega.txt", np.column_stack((s, 1.0 - s ** (2.0 - n))))
        params = {"path": str(tmp_path / "omega.txt")}
    w = make_model(family, n, **params)
    assert w.inner_jet == w.jet(0.0)
    # the slope floor's scale, as scan_monotonicity_extrema used to build it
    radii = chebyshev_radii(0.005 * w.r_bar if w.variant == "ball" else 0.0, w.r_bar, 256)
    h, _, hpp, _ = w.jet(radii)
    scale = np.max(2.0 * np.abs(hpp / h) + (w.dim - 2) * np.abs(w.curvature_defect(radii)))
    assert w.curvature_scale == float(scale)
    # one curvature path: the defect is the curvature jet's, bit for bit
    for r in (0.5 * w.r_bar, radii):
        got, want = w.curvature_defect(r), _curvature(w, r).defect
        assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()
    if family == "euclidean":
        assert w.curvature_scale == 0.0
    if w.variant == "boundary":
        assert w.monotone_radius == potential_monotone_radius(w)
    else:
        with pytest.raises(NotApplicableError):
            w.monotone_radius


def test_ambient_constants_are_taken_once(cosine_boundary):
    # h'' crosses zero inside this chart, so the monotone radius takes the root search
    calls = []

    def counting(r):
        calls.append(np.shape(r))
        return cosine_boundary._jet(r)

    w = dataclasses.replace(cosine_boundary, _jet=counting)
    first = (w.inner_jet, w.curvature_scale, w.monotone_radius)
    assert calls
    calls.clear()
    assert (w.inner_jet, w.curvature_scale, w.monotone_radius) == first
    scan_monotonicity_extrema(w)
    # one jet gives the slope and its generic curvature defect; the floor reads the kept scale
    assert calls == [(256,)]
    calls.clear()
    # the three margins and the regularity check take one jet between them
    assert check_conditions(w).min_margin == check_conditions(cosine_boundary).min_margin
    assert calls == [(256,)]
    assert first[2] == potential_monotone_radius(cosine_boundary)


CURVATURE_QUANTITIES = [
    ricci_gap_margin, monotonicity_quantity, ricci_eigenvalues, static_tensor, scalar_curvature
]


def test_each_curvature_quantity_looks_h_up_once(schw3, monkeypatch):
    # one curvature record per call: one warp jet, whose h the closed forms
    # read once, with no second lookup
    calls, forms = [], []
    lookup = models.HermiteTable.__call__

    def counting(table, r):
        calls.append(np.ndim(r))
        return lookup(table, r)

    def counting_forms(h):
        forms.append(np.ndim(h))
        return schw3._closed_forms(h)

    monkeypatch.setattr(models.HermiteTable, "__call__", counting)
    w = dataclasses.replace(schw3, _closed_forms=counting_forms)
    for quantity in CURVATURE_QUANTITIES + [lambda w, r: w.curvature_defect(r)]:
        for r in (0.5, np.linspace(0.1, 1.0, 5)):
            calls.clear()
            forms.clear()
            quantity(w, r)
            assert calls == forms == [np.ndim(r)], quantity.__name__
    # the slope grid alone: the exact slope of Schwarzschild is 0, so no sign
    # changes and the curvature scale is never read
    calls.clear()
    forms.clear()
    assert scan_monotonicity_extrema(w) == []
    assert calls == forms == [1]
    calls.clear()
    forms.clear()
    check_conditions(w)  # and h(0) once, for the regularity check
    assert calls == [0, 1] and forms == [1]


@pytest.mark.parametrize(
    "quantity", CURVATURE_QUANTITIES + [lambda w, r: w.curvature_defect(r)]
)
def test_a_scalar_at_a_ball_center_is_the_array_value(quantity):
    # no closed-form defect, and h(0) = 0: a scalar divides by zero as an array does
    radii = np.linspace(0.0, 2.0, 41)
    w = tabulated_warping("sinh", 3, radii, np.sinh(radii), "ball")
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar, array = quantity(w, 0.0), quantity(w, np.array([0.0]))
    scalar = scalar if isinstance(scalar, tuple) else (scalar,)
    assert all(type(v) is float for v in scalar)
    assert not np.isfinite(scalar).all()
    assert np.array_equal(scalar, np.ravel(array), equal_nan=True)
