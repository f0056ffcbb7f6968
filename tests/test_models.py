"""Horizon families and the area-radius chart change.

Closed-form oracles: the Schwarzschild horizon is m^{1/(n-2)}; the
Reissner-Nordstrom horizon solves q^2 u^2 - m u + 1 = 0 in u = s^{2-n};
the n=3, m=1 arc length from the horizon to s = 2 is
sqrt(2) + log(1 + sqrt(2)).
"""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import (
    DomainError,
    OmegaProfile,
    ParameterError,
    admissibility,
    check_conditions,
    load_omega_table,
    make_model,
    monotonicity_quantity,
    omega_condition_margins,
    omega_to_warping,
    potential_and_field,
    ricci_gap_margin,
    scalar_curvature,
)
import warpcmc
from warpcmc.models import _horizons, _monomial_forms, _omega_jet, _root_difference, _terms

from conftest import kappa_max

KAPPA_SMALL = 0.02


def horizon(family, n, **params):
    """s_floor of the profile make_model stores; few knots, since only the horizon is read."""
    return make_model(family, n, knots=64, **params).profile.s_floor


@pytest.mark.parametrize(
    "family, profile",
    [
        ("schwarzschild", "schwarzschild_profile"),
        ("desitter-schwarzschild", "desitter_schwarzschild_profile"),
        ("reissner-nordstrom", "reissner_nordstrom_profile"),
    ],
)
def test_missing_parameters_take_the_family_defaults(family, profile):
    # make_model and admissibility read one set of defaults; the family's
    # profile builder is gone, so no copy of them is left
    assert admissibility(family, 3, {}) == (True, "admissible")
    s_floor = make_model(family, 3).profile.s_floor
    assert horizon(family, 3) == s_floor
    assert horizon(family, 3, m=1.0) == s_floor
    assert not hasattr(warpcmc, profile)


def test_schwarzschild_horizon_radius():
    assert horizon("schwarzschild", 3, m=1.0) == pytest.approx(1.0, abs=1e-12)
    assert horizon("schwarzschild", 3, m=2.0) == pytest.approx(2.0, abs=1e-12)
    assert horizon("schwarzschild", 4, m=4.0) == pytest.approx(2.0, abs=1e-12)


def test_reissner_nordstrom_horizon_is_outer_root():
    m, q = 1.0, 0.25
    s_h = horizon("reissner-nordstrom", 3, m=m, q=q)
    # the outer root of 1 - m/s + q^2/s^2
    disc = math.sqrt(m * m - 4.0 * q * q)
    assert s_h == pytest.approx(2.0 * q * q / (m - disc), rel=1e-12)
    assert 1.0 - m / s_h + q * q / s_h**2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("kappa", [-1e10, -1e3, -0.5, 0.0])
def test_desitter_horizon_for_any_nonpositive_kappa(n, kappa):
    # admissibility accepts every kappa <= 0; the bracket widens from the
    # Schwarzschild radius until omega changes sign.  The root search itself:
    # at kappa = -1e10, n = 5 the profile refuses omega(s_floor) ~ 2e-10
    s = _horizons(_terms(n, {"m": 1.0, "kappa": kappa}))[0]
    assert 0.0 < s <= 1.0
    omega = 1.0 - s ** (2 - n) - kappa * s * s
    assert abs(omega) < 1e-12 * max(1.0, abs(kappa) * s * s)


def test_admissibility_messages():
    ok, msg = admissibility("reissner-nordstrom", 3, {"m": 1.0, "q": 0.6})
    assert not ok
    assert "m > 2q > 0" in msg
    ok, _ = admissibility("desitter-schwarzschild", 3, {"m": 1.0, "kappa": 0.2})
    assert not ok
    ok, _ = admissibility("desitter-schwarzschild", 3, {"m": 1.0, "kappa": KAPPA_SMALL})
    assert ok
    ok, _ = admissibility("desitter-schwarzschild", 3, {"m": 1.0, "kappa": -0.1})
    assert ok
    ok, _ = admissibility("schwarzschild", 3, {"m": -1.0})
    assert not ok
    # n^n passes the float range from n = 144; omega at its peak does not
    assert admissibility("desitter-schwarzschild", 150, {"m": 1.0, "kappa": 0.1})[0]
    ok, msg = admissibility("desitter-schwarzschild", 150, {"m": 1.0, "kappa": 0.95})
    assert not ok
    assert "merge or vanish" in msg


@pytest.mark.parametrize("n", [3, 4, 7, 50])
def test_positive_kappa_is_admissible_where_omega_peaks_above_zero(n):
    # one test decides both horizons: omega at s_peak, the point that brackets
    # them, so every kappa admissibility accepts has both roots
    m = 7.3
    for frac in 1.0 + np.linspace(-1e-12, 1e-12, 21):
        kappa = frac * kappa_max(n, m)
        s_peak = ((n - 2) * m / (2.0 * kappa)) ** (1.0 / n)
        peak = 1.0 - m * s_peak ** (2 - n) - kappa * s_peak**2
        ok, msg = admissibility("desitter-schwarzschild", n, {"m": m, "kappa": kappa})
        assert ok == (peak > 0.0)
        if ok:
            # the root search itself, and the profile built on it
            lower = _horizons(_terms(n, {"m": m, "kappa": kappa}))[0]
            assert 0.0 < lower < s_peak
            w = make_model("desitter-schwarzschild", n, m=m, kappa=kappa, knots=64)
            assert check_conditions(w).conclusion == "slice-rigidity"
        else:
            assert "merge or vanish" in msg


@pytest.mark.parametrize("n, m, kappa", [(3, 7.3, 0.002780036557480453), (5, 1.0, -1e10)])
def test_profile_checks_read_no_roundoff_of_omega_next_to_the_horizon(n, m, kappa):
    # kappa_max (1 - 1e-13), where plain omega reads 0.0 or -5.6e-17 just above
    # the horizon, and a deep negative kappa, where omega(s_floor) is 2.3e-10
    # against two terms of 1e6
    w = make_model("desitter-schwarzschild", n, m=m, kappa=kappa)
    assert check_conditions(w).conclusion == "slice-rigidity"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=3, max_value=5),
    log_m=st.floats(min_value=-2.0, max_value=2.0),
    u=st.floats(min_value=-15.0, max_value=-2.0),
)
@example(n=3, log_m=0.0, u=-15.0)
@example(n=4, log_m=0.0, u=-15.0)
@example(n=5, log_m=2.0, u=-13.0)
def test_near_merged_horizons_build_with_slice_rigidity(n, log_m, u):
    """kappa = kappa_max (1 - 10^u): omega peaks at 3e-16 to 3e-5 between its two horizons.

    The profile declares its float horizon s_floor a root of omega and probes
    omega(s) - omega(s_floor).  Every draw builds and concludes slice-rigidity,
    unless that difference is not positive in 60 digits at the top of the chart,
    s_upper (1 - 1e-9): next to a double root the float horizons sit up to ~1e-9
    off, as far as that margin, and the probe is right to refuse (u < -13.5 here).
    """
    m = 10.0**log_m
    kappa = kappa_max(n, m) * (1.0 - 10.0**u)
    try:
        w = make_model("desitter-schwarzschild", n, m=m, kappa=kappa, knots=256)
    except ParameterError as exc:
        terms = _terms(n, {"m": m, "kappa": kappa})
        lower, upper = _horizons(terms)
        with mpmath.workdps(60):
            omega = [1 - sum(mpmath.mpf(c) * mpmath.mpf(s) ** a for c, a in terms)
                     for s in (lower, upper * (1.0 - 1e-9))]
        assert "stay positive" in str(exc) and omega[1] - omega[0] <= 0, str(exc)
        return
    assert check_conditions(w).conclusion == "slice-rigidity"


def test_omega_tables_are_admissible_and_have_no_closed_form_horizon(tmp_path):
    # make_model builds the family; the table runs its own checks when loaded
    assert admissibility("omega-table", 3, {}) == (True, "admissible")
    assert admissibility("omega-table", 5, {"path": "omega.txt"}) == (True, "admissible")
    assert not admissibility("omega-table", 2, {})[0]
    # a table has no terms, so no closed forms: its curvature comes from the jet
    s = np.linspace(1.0, 10.0, 40)
    np.savetxt(tmp_path / "omega.txt", np.column_stack((s, 1.0 - 1.0 / s)))
    table = make_model("omega-table", 3, path=str(tmp_path / "omega.txt"), knots=64)
    assert table.profile.terms == ()
    assert table._closed_forms is None and table.profile._closed_forms is None


def _full_polynomial(n, mass, kappa, charge2):
    """omega, the closed forms and the omega difference with all three terms written out."""
    p, q = 2 - n, 4 - 2 * n

    def omega(s):
        return (
            1.0 - mass * s**p - kappa * s**2 + charge2 * s**q,
            -mass * p * s ** (p - 1) - 2.0 * kappa * s + charge2 * q * s ** (q - 1),
            -mass * p * (p - 1) * s ** (p - 2) - 2.0 * kappa + charge2 * q * (q - 1) * s ** (q - 2),
        )

    def closed_forms(s):
        # (1 - omega)/s^2, the Ricci gap, W and dW/ds; kappa has no gap or slope
        # term, the mass no W or slope term
        return (
            mass * s ** (p - 2) + kappa * s**0 - charge2 * s ** (q - 2),
            mass * (1 - p / 2) * s ** (p - 2) - charge2 * (1 - q / 2) * s ** (q - 2),
            -kappa * n * s**0 - charge2 * (n - 2) * s ** (q - 2),
            charge2 * (2 * (n - 1) * (n - 2)) * s ** (q - 3),
        )

    def difference(r, d):
        grow = np.log1p(d / r)
        return (
            charge2 * r**q * np.expm1(q * grow)
            - mass * r**p * np.expm1(p * grow)
            - kappa * d * (2.0 * r + d)
        )

    return omega, closed_forms, difference


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.01])
@pytest.mark.parametrize("charge2", [0.0, 0.04])
def test_omega_evaluators_match_the_full_polynomial_bit_for_bit(n, kappa, charge2):
    # the term list leaves out the terms whose coefficient is 0, which would
    # only add an exact 0.0: the numbers must be the same, on arrays and on floats
    mass = 0.7
    omega, closed_forms, difference = _full_polynomial(n, mass, kappa, charge2)
    terms = tuple((c, a) for c, a in ((mass, 2 - n), (kappa, 2), (-charge2, 4 - 2 * n)) if c)
    s = np.linspace(0.6, 4.0, 97)
    d = np.linspace(-0.3, 2.0, 97)
    for got, want in zip(_omega_jet(terms)(s), omega(s)):
        assert np.array_equal(got, want)
    for got, want in zip(_monomial_forms(terms, n)(s), closed_forms(s)):
        assert np.array_equal(got, want)
    assert np.array_equal(_root_difference(terms, 0.9, d), difference(0.9, d))
    for x, y in zip(s.tolist(), d.tolist()):
        assert _omega_jet(terms)(x) == omega(x)
        assert _monomial_forms(terms, n)(x) == closed_forms(x)
        assert _root_difference(terms, 0.9, y) == difference(0.9, y)


def test_profile_checks_the_horizon_with_one_omega_call():
    # omega(s_floor) and omega'(s_floor) come from one evaluation
    omega, points = make_model("schwarzschild", 3, knots=64).profile.omega, []

    def counting(s):
        points.append(np.ndim(s))
        return omega(s)

    OmegaProfile("schwarzschild", 3, 1.0, 10.0, counting)
    assert points.count(0) == 1

def test_make_model_rejects_unknown_family():
    with pytest.raises(ParameterError):
        make_model("kerr", 3)


def test_make_model_rejects_inadmissible():
    with pytest.raises(ParameterError, match="m > 2q > 0"):
        make_model("reissner-nordstrom", 3, m=1.0, q=0.6)


def test_omega_jets_follow_chain_rule(schw3):
    # h(r) = s, h'(r) = sqrt(omega), h'' = omega'/2 along the chart change
    prof = schw3.profile
    for s in (1.3, 2.0, 3.5):
        r = schw3.distance_of_area_radius(s)
        h, hp, hpp, _ = schw3.jet(r)
        om, om1, _ = prof.omega(np.asarray(s))
        assert h == pytest.approx(s, rel=5e-10)
        assert hp == pytest.approx(math.sqrt(om), rel=5e-10)
        assert hpp == pytest.approx(0.5 * om1, rel=5e-10)


def test_arc_length_oracle(schw3):
    oracle = math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))
    assert abs(schw3.distance_of_area_radius(2.0) - oracle) < 1e-10


def test_arc_length_oracle_next_to_the_horizon(schw3):
    # omega(s_floor + xi^2) - omega(s_floor) comes from the profile's
    # cancellation-free difference, so F matches its leading term up to the
    # O(xi^2) = 1e-12 curvature correction; as a plain difference of omega
    # values it would be mostly roundoff here and the sum 1.5e-3 off.
    prof = schw3.profile
    s = prof.s_floor * (1.0 + 1e-12)
    xi = math.sqrt(s - prof.s_floor)
    limit = 2.0 * xi / math.sqrt(float(prof.omega(np.asarray(prof.s_floor))[1]))
    r = schw3.distance_of_area_radius(s)
    assert math.isfinite(r)
    assert r == pytest.approx(limit, rel=1e-10)


def test_area_radius_roundtrip(schw3):
    for s in np.linspace(1.05, 5.5, 17):
        r = schw3.distance_of_area_radius(s)
        assert schw3.area_radius_of_distance(r) == pytest.approx(s, rel=5e-10)


def test_table_lookup_gives_the_same_bits_for_scalars_and_arrays(schw3):
    r = np.concatenate(([0.0], np.linspace(0.0, schw3.r_bar, 203)[1:-1], [schw3.r_bar]))
    batch = schw3.area_radius_of_distance(r)
    assert [schw3.area_radius_of_distance(x) for x in r] == batch.tolist()
    assert batch[0] == schw3.profile.s_floor
    assert batch[-1] == pytest.approx(schw3.profile.s_max, rel=1e-15)
    # omega itself may round differently on floats and on arrays
    jets = schw3.jet(r.reshape(7, 29))
    for k, x in enumerate(r):
        expected = [part.ravel()[k] for part in jets]
        assert schw3.jet(x) == pytest.approx(expected, rel=1e-15, abs=1e-300)


def test_horizon_jet_is_regular(schw3, rn3):
    for w in (schw3, rn3):
        h, hp, hpp, _ = w.jet(0.0)
        assert h == pytest.approx(w.profile.s_floor, rel=1e-12)
        assert hp == 0.0
        assert hpp > 0.0


HORIZON_FAMILIES = ["schwarzschild", "reissner-nordstrom", "desitter-schwarzschild"]


@pytest.mark.parametrize("family", HORIZON_FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_horizon_jet_is_regular_across_parameters(family, n):
    # omega rounds differently on floats and on arrays; h'(0) must be exactly
    # 0 either way, or the regularity condition fails (it did for the
    # Reissner-Nordstrom n = 5 case m = 0.028.., q = 0.0126.. below)
    masses = list(np.geomspace(1e-3, 1e3, 7))
    cases = [{"m": m} for m in masses]
    if family == "reissner-nordstrom":
        cases = [{"m": m, "q": 0.3 * m} for m in masses]
        cases.append({"m": 0.028031790039348786, "q": 0.012646814740033126})
    if family == "desitter-schwarzschild":
        cases = [{"m": m, "kappa": k * m ** (-2.0 / (n - 2))} for m in masses for k in (-0.3, 0.1)]
    for params in cases:
        w = make_model(family, n, **params)
        assert w.jet(0.0)[1] == 0.0
        assert not np.any(w.jet(np.zeros(3))[1])
        assert check_conditions(w).status["regularity"] == "pass"


def test_omega_form_margins_match_warp_form(schw3, rn3):
    # the omega form reads the closed forms; the reference is the warp form's
    # jet route, the same ambient without them
    for w in (schw3, rn3, make_model("desitter-schwarzschild", 3, m=1.0, kappa=KAPPA_SMALL)):
        prof = w.profile
        s = np.linspace(prof.s_floor * 1.05, prof.s_max * 0.8, 40)
        margins = omega_condition_margins(prof, s)
        r = np.array([w.distance_of_area_radius(x) for x in s])
        jet_route = dataclasses.replace(w, _closed_forms=None)
        f, _ = potential_and_field(jet_route, r)
        value, slope = monotonicity_quantity(jet_route, r)
        gap = ricci_gap_margin(jet_route, r)
        assert np.max(np.abs(margins["potential"] - f)) < 1e-7
        assert np.max(np.abs(margins["monotonicity_quantity"] - value)) < 1e-7
        assert np.max(np.abs(margins["monotonicity_slope"] - slope)) < 1e-7
        assert np.max(np.abs(margins["ricci_gap_margin"] - gap)) < 1e-7


EXACT_CASES = [
    ("schwarzschild", {"m": 1.0}),
    ("schwarzschild", {"m": 1e-3}),
    ("desitter-schwarzschild", {"m": 1.0, "kappa": -0.1}),
    ("desitter-schwarzschild", {"m": 2e-3, "kappa": -0.5}),
    ("desitter-schwarzschild", {"m": 1.0, "kappa": KAPPA_SMALL}),
    ("reissner-nordstrom", {"m": 1.0, "q": 0.25}),
    ("reissner-nordstrom", {"m": 1.0, "q": 0.45}),
]


@pytest.mark.parametrize("family, params", EXACT_CASES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_horizon_margins_are_the_closed_forms(family, params, n):
    # gap = (n/2) m s^-n - (n-1) q^2 s^(2-2n), W = -n kappa - (n-2) q^2 s^(2-2n)
    # and dW/dr = 2 (n-1)(n-2) q^2 s^(1-2n) sqrt(omega): the mass drops out of
    # W and its slope, kappa out of the gap and the slope
    prof = make_model(family, n, knots=64, **params).profile
    m, kappa, q2 = params["m"], params.get("kappa", 0.0), params.get("q", 0.0) ** 2
    s = np.geomspace(prof.s_floor, prof.s_max, 97)
    margins = omega_condition_margins(prof, s)
    root = np.sqrt(np.maximum(prof.omega(s)[0], 0.0))
    closed = {
        "ricci_gap_margin": (n / 2) * m * s ** (-n) - (n - 1) * q2 * s ** (2 - 2 * n),
        "monotonicity_quantity": -n * kappa - (n - 2) * q2 * s ** (2 - 2 * n),
        "monotonicity_slope": 2 * (n - 1) * (n - 2) * q2 * s ** (1 - 2 * n) * root,
        "potential": root,
    }
    for name, want in closed.items():
        assert np.all(np.abs(margins[name] - want) <= 1e-15 * np.abs(want)), name


@pytest.mark.parametrize("family, params", EXACT_CASES[:5])
def test_uncharged_scalar_monotonicity_slope_is_exactly_zero(family, params):
    # the small-mass cases m = 1e-3 and (m, kappa) = (2e-3, -0.5) read -1.2e-7 and
    # -7.5e-9 by the jet route, past TOL_CONDITION, and concluded "none"
    report = check_conditions(make_model(family, 3, **params))
    slope = report.margins["scalar_monotonicity"]
    assert slope.shape == (256,)
    assert np.all(slope == 0.0)
    assert report.conclusion == "slice-rigidity"


@pytest.mark.parametrize("family, params", EXACT_CASES)
def test_check_reads_the_exact_margins_of_the_jet_route_quantities(family, params):
    # the exact gap and slope are the jet route's quantities, those of the
    # same ambient without its closed forms, at every check radius, to the
    # jet route's roundoff relative to the curvature scale
    w = make_model(family, 3, **params)
    report = check_conditions(w)
    jet_route = dataclasses.replace(w, _closed_forms=None)
    _, slope = monotonicity_quantity(jet_route, report.radii)
    gap = ricci_gap_margin(jet_route, report.radii)
    tol = 1e-7 * w.curvature_scale
    assert np.max(np.abs(report.margins["ricci_gap"] - gap)) < tol
    assert np.max(np.abs(report.margins["scalar_monotonicity"] - slope)) < tol / w.r_bar


def test_schwarzschild_gap_margin_value(schw3):
    # omega = 1 - 1/s gives gap = omega'/(2s) + (1-omega)/s^2 = 3/(16) at s = 2
    r = schw3.distance_of_area_radius(2.0)
    assert ricci_gap_margin(schw3, r) == pytest.approx(3.0 / 16.0, rel=1e-9)


def test_desitter_schwarzschild_scalar_curvature():
    n = 3
    for kappa in (-0.1, KAPPA_SMALL):
        w = make_model("desitter-schwarzschild", n, m=1.0, kappa=kappa)
        rng = np.random.default_rng(11)
        radii = rng.uniform(0.02, 0.98, 50) * w.r_bar
        R = scalar_curvature(w, radii)
        assert np.max(np.abs(R - n * (n - 1) * kappa)) < 1e-9


def test_schwarzschild_scalar_flat(schw3):
    radii = np.linspace(1e-3, schw3.r_bar * 0.999, 50)
    assert np.max(np.abs(scalar_curvature(schw3, radii))) < 1e-11


def test_horizon_families_pass_conditions(schw3, rn3):
    for w in (schw3, rn3, make_model("desitter-schwarzschild", 3, m=1.0, kappa=KAPPA_SMALL)):
        report = check_conditions(w)
        assert report.required_pass
        assert report.status["ricci_gap"] == "pass"
        assert report.conclusion == "slice-rigidity"


def test_tabulated_omega_roundtrip(tmp_path, schw3):
    prof = schw3.profile
    s = np.linspace(1.0, 6.0, 400)
    om = prof.omega(s)[0]
    path = tmp_path / "omega.txt"
    np.savetxt(path, np.column_stack([s, om]), header="s omega")
    loaded = load_omega_table(path, 3)
    w = omega_to_warping(loaded)
    radii = np.linspace(0.2, 0.9 * min(w.r_bar, schw3.r_bar), 25)
    value_t, _ = monotonicity_quantity(w, radii)
    value_a, _ = monotonicity_quantity(schw3, radii)
    assert np.max(np.abs(value_t - value_a)) < 1e-6
    gap_t = ricci_gap_margin(w, radii)
    gap_a = ricci_gap_margin(schw3, radii)
    assert np.max(np.abs(gap_t - gap_a)) < 1e-6


def test_load_omega_table_guards(tmp_path):
    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.linspace(1, 2, 20))
    with pytest.raises(ParameterError):
        load_omega_table(bad, 3)
    off = tmp_path / "off.txt"
    s = np.linspace(1.0, 4.0, 40)
    np.savetxt(off, np.column_stack([s, 0.5 + 0.1 * s]))
    with pytest.raises(ParameterError, match="horizon"):
        load_omega_table(off, 3)
    for bad in (np.nan, np.inf):
        holey = tmp_path / "holey.txt"
        s = np.linspace(1.0, 10.0, 40)
        om = 1.0 - 1.0 / s
        om[5] = bad
        np.savetxt(holey, np.column_stack([s, om]))
        with pytest.raises(ParameterError, match="holey.txt"):
            load_omega_table(holey, 3)


def test_knot_count_is_checked_before_allocating():
    # a build takes about 224 bytes per knot: 10^9 knots would ask for 200 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="budget"):
            make_model("schwarzschild", 3, knots=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_positive_kappa_window_stops_at_upper_horizon():
    # the cosmological horizon caps the window no matter what is requested
    prof = make_model("desitter-schwarzschild", 3, m=1.0, kappa=KAPPA_SMALL, s_max=50.0).profile
    assert prof.s_max < 1.0 / math.sqrt(KAPPA_SMALL)
    s = np.linspace(prof.s_floor * 1.001, prof.s_max, 200)
    assert np.min(prof.omega(s)[0]) > 0.0


def test_distance_of_area_radius_domain(schw3):
    with pytest.raises(DomainError):
        schw3.distance_of_area_radius(0.5)


@pytest.mark.filterwarnings("error")
def test_nan_is_outside_both_chart_directions(schw3):
    # a NaN compares false with every bound, so each check asks whether the
    # input is inside; the lookup shares the chart rule of jet
    for x in (math.nan, np.array([math.nan]), np.array([2.0, math.nan])):
        with pytest.raises(DomainError):
            schw3.area_radius_of_distance(x)
        with pytest.raises(DomainError):
            schw3.distance_of_area_radius(x)
    with pytest.raises(DomainError):
        schw3.area_radius_of_distance(-2e-15)
    assert schw3.area_radius_of_distance(-1e-15) == schw3.profile.s_floor


def test_desitter_at_zero_kappa_is_schwarzschild_bit_for_bit():
    # kappa = 0 takes the closed-form horizon, so the two builds share every
    # number; here a Brent root once landed 1 ulp off m^(1/(n-2))
    m = 0.02673489347411424
    ds = make_model("desitter-schwarzschild", 4, m=m)
    schw = make_model("schwarzschild", 4, m=m)
    assert ds.profile.s_floor == schw.profile.s_floor == m ** 0.5
    assert ds.profile.s_max == schw.profile.s_max
    assert ds.r_bar == schw.r_bar
    r = np.linspace(0.0, schw.r_bar, 101)
    for got, want in zip(ds.jet(r), schw.jet(r)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "family, profile, params",
    [
        ("schwarzschild", "schwarzschild_profile", {"m": 0.8}),
        ("desitter-schwarzschild", "desitter_schwarzschild_profile", {"m": 0.8, "kappa": 0.0}),
        ("desitter-schwarzschild", "desitter_schwarzschild_profile", {"m": 0.8, "kappa": -0.2}),
        ("desitter-schwarzschild", "desitter_schwarzschild_profile", {"m": 0.8, "kappa": 0.05}),
        ("reissner-nordstrom", "reissner_nordstrom_profile", {"m": 0.8, "q": 0.3}),
    ],
)
@pytest.mark.parametrize("s_max", [None, 3.5])
def test_public_profile_is_the_profile_make_model_stores(family, profile, params, s_max):
    # the family's profile builder is gone: make_model's profile is the one
    # public profile, and it keeps the parameters it was given and their terms
    assert not hasattr(warpcmc, profile)
    built = make_model(family, 4, s_max=s_max, knots=64, **params).profile
    assert built.params == params
    q = params.get("q", 0.0)
    terms = ((0.8, -2), (params.get("kappa", 0.0), 2), (-q * q, -4))
    assert built.terms == tuple((c, a) for c, a in terms if c)
    if built.s_upper is not None:
        ceiling = built.s_upper * (1.0 - 1e-9)
        assert built.s_max == (ceiling if s_max is None else min(s_max, ceiling))
    else:
        assert built.s_max == (10.0 * built.s_floor if s_max is None else s_max)


@pytest.mark.parametrize("family", ["schwarzschild", "euclidean", "sphere"])
def test_curvature_defect_has_the_domain_of_jet(family):
    w = make_model(family, 3)
    for r in (-5.0, 1.01 * w.r_bar):
        with pytest.raises(DomainError):
            w.jet(r)
        with pytest.raises(DomainError):
            w.curvature_defect(r)
        with pytest.raises(DomainError):
            w.curvature_defect(np.array([0.5 * w.r_bar, r]))


def test_curvature_defect_domain_on_the_generic_route(cosine_boundary):
    # no closed-form defect evaluator: the defect is assembled from the jet
    with pytest.raises(DomainError):
        cosine_boundary.curvature_defect(-1.0)


def test_listed_parameters_are_exactly_those_make_model_reads(tmp_path):
    from warpcmc import MODEL_FAMILIES
    from warpcmc.cli import MODEL_PARAM_KEYS

    def omega_file(name, m):
        s = np.linspace(m, 12.0 * m, 400)
        path = tmp_path / name
        np.savetxt(path, np.column_stack([s, 1.0 - m / s]))
        return str(path)

    base_path = omega_file("base.txt", 1.0)
    changed = {
        "m": 1.5,
        "q": 0.3,
        "kappa": -0.1,
        "curvature": 2.0,
        "r_bar": 1.0,
        "s_max": 7.0,
        "knots": 512,
        "path": omega_file("other.txt", 1.2),
    }

    def fingerprint(family, **params):
        if family == "omega-table":
            params.setdefault("path", base_path)
        w = make_model(family, 3, **params)
        radii = np.linspace(0.05, 0.5, 7)
        return w.r_bar, np.concatenate(w.jet(radii))

    for family, spec in MODEL_FAMILIES.items():
        assert set(spec["params"]) <= set(MODEL_PARAM_KEYS)
        r_bar0, jet0 = fingerprint(family)
        for key in MODEL_PARAM_KEYS:
            r_bar1, jet1 = fingerprint(family, **{key: changed[key]})
            same = r_bar1 == r_bar0 and np.array_equal(jet1, jet0)
            assert same != (key in spec["params"]), (family, key)
