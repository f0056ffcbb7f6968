"""Horizon families and the area-radius chart change.

Closed-form oracles: the Schwarzschild horizon is m^{1/(n-2)}; the
Reissner-Nordstrom horizon solves q^2 u^2 - m u + 1 = 0 in u = s^{2-n};
the n=3, m=1 arc length from the horizon to s = 2 is
sqrt(2) + log(1 + sqrt(2)).
"""

import math

import numpy as np
import pytest

from warpcmc import (
    DomainError,
    ParameterError,
    admissibility,
    check_conditions,
    desitter_schwarzschild_profile,
    horizon_radius,
    load_omega_table,
    make_model,
    monotonicity_quantity,
    omega_condition_margins,
    omega_to_warping,
    potential_and_field,
    ricci_gap_margin,
    scalar_curvature,
    schwarzschild_profile,
)

KAPPA_SMALL = 0.02


def test_schwarzschild_horizon_radius():
    assert horizon_radius("schwarzschild", 3, {"m": 1.0}) == pytest.approx(1.0, abs=1e-12)
    assert horizon_radius("schwarzschild", 3, {"m": 2.0}) == pytest.approx(2.0, abs=1e-12)
    assert horizon_radius("schwarzschild", 4, {"m": 4.0}) == pytest.approx(2.0, abs=1e-12)


def test_reissner_nordstrom_horizon_is_outer_root():
    m, q = 1.0, 0.25
    s_h = horizon_radius("reissner-nordstrom", 3, {"m": m, "q": q})
    # the outer root of 1 - m/s + q^2/s^2
    disc = math.sqrt(m * m - 4.0 * q * q)
    assert s_h == pytest.approx(2.0 * q * q / (m - disc), rel=1e-12)
    assert 1.0 - m / s_h + q * q / s_h**2 == pytest.approx(0.0, abs=1e-12)


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


def test_make_model_rejects_unknown_family():
    with pytest.raises(ParameterError):
        make_model("kerr", 3)


def test_make_model_rejects_inadmissible():
    with pytest.raises(ParameterError, match="m > 2q > 0"):
        make_model("reissner-nordstrom", 3, m=1.0, q=0.6)


def test_omega_jets_follow_chain_rule(schw3):
    # h(r) = s, h'(r) = sqrt(omega), h'' = omega'/2 along the chart change
    prof = schwarzschild_profile(3, m=1.0)
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
    # s_floor + xi^2 rounds to s_floor at the innermost Gauss nodes; there
    # the integrand takes its horizon limit 2 / sqrt(omega'(s_floor)).  At
    # the other inner nodes the omega difference is mostly roundoff (the sum
    # is off by 1.5e-3 here), so the match is to 1e-2, not to the 1e-12
    # curvature correction.
    prof = schw3.profile
    s = prof.s_floor * (1.0 + 1e-12)
    xi = math.sqrt(s - prof.s_floor)
    limit = 2.0 * xi / math.sqrt(float(prof.omega(np.asarray(prof.s_floor))[1]))
    r = schw3.distance_of_area_radius(s)
    assert math.isfinite(r)
    assert r == pytest.approx(limit, rel=1e-2)


def test_area_radius_roundtrip(schw3):
    for s in np.linspace(1.05, 5.5, 17):
        r = schw3.distance_of_area_radius(s)
        assert schw3.area_radius_of_distance(r) == pytest.approx(s, rel=5e-10)


def test_horizon_jet_is_regular(schw3, rn3):
    for w in (schw3, rn3):
        h, hp, hpp, _ = w.jet(0.0)
        assert h == pytest.approx(w.profile.s_floor, rel=1e-12)
        assert hp == 0.0
        assert hpp > 0.0


def test_omega_form_margins_match_warp_form(schw3, rn3):
    cases = [
        (schw3, schwarzschild_profile(3, m=1.0)),
        (rn3, None),
        (
            make_model("desitter-schwarzschild", 3, m=1.0, kappa=KAPPA_SMALL),
            desitter_schwarzschild_profile(3, m=1.0, kappa=KAPPA_SMALL),
        ),
    ]
    for w, prof in cases:
        prof = prof if prof is not None else w.profile
        s = np.linspace(prof.s_floor * 1.05, prof.s_max * 0.8, 40)
        margins = omega_condition_margins(prof, s)
        r = np.array([w.distance_of_area_radius(x) for x in s])
        f, _ = potential_and_field(w, r)
        value, slope = monotonicity_quantity(w, r)
        gap = ricci_gap_margin(w, r)
        assert np.max(np.abs(margins["potential"] - f)) < 1e-7
        assert np.max(np.abs(margins["monotonicity_quantity"] - value)) < 1e-7
        assert np.max(np.abs(margins["monotonicity_slope"] - slope)) < 1e-7
        assert np.max(np.abs(margins["ricci_gap_margin"] - gap)) < 1e-7


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
    prof = schwarzschild_profile(3, m=1.0)
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


def test_positive_kappa_window_stops_at_upper_horizon():
    # the cosmological horizon caps the window no matter what is requested
    prof = desitter_schwarzschild_profile(3, m=1.0, kappa=KAPPA_SMALL, s_max=50.0)
    assert prof.s_max < 1.0 / math.sqrt(KAPPA_SMALL)
    s = np.linspace(prof.s_floor * 1.001, prof.s_max, 200)
    assert np.min(prof.omega(s)[0]) > 0.0


def test_distance_of_area_radius_domain(schw3):
    with pytest.raises(DomainError):
        schw3.distance_of_area_radius(0.5)
