"""Conformal geodesic flow and its monotone-quantity audits.

Flat-ambient oracle: starting from the radius-1 slice, every node
moves as r(t) = 1 - t, so Q(t) = 4 pi (1-t)^3 and the swept weighted
volume equals Q(0) - Q(t) exactly.  On any slice start the trajectory
solves dr/dt = -h'(r), which an independent stiff integrator pins to
high accuracy.  The rescaled-metric speed is conserved bit-for-bit by
construction and audited here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from warpcmc import (
    FlowExhausted,
    HypothesisError,
    NotApplicableError,
    ParameterError,
    WarpcmcError,
    area_floor_check,
    axisym_grid,
    euclidean_warping,
    full_sphere_grid,
    init_flow,
    monotonicity_audit,
    perturb_slice,
    radial_alignment,
    run_flow,
    slice_surface,
    step,
)
from warpcmc import flow
from warpcmc.flow import TOL_FLOOR, _clipped_jet, _speed_ratio


@pytest.fixture(scope="module")
def euclid_slice_flow():
    w = euclidean_warping(3, r_bar=3.0)
    surface = slice_surface(w, axisym_grid(3, 32), 1.0)
    return run_flow(surface, 0.5)


def test_flat_slice_q_oracle(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    oracle = 4.0 * math.pi * (1.0 - trace.times) ** 3
    assert np.max(np.abs(trace.q_values - oracle)) < 1e-6 * 4.0 * math.pi
    # the recorded grid must include both endpoints
    assert trace.times[0] == 0.0
    assert trace.times[-1] == 0.5


def test_flat_slice_swept_equality(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    drop = trace.q_values[0] - trace.q_values
    assert np.max(np.abs(drop - trace.swept_weighted_volume)) < 1e-9 * trace.q_values[0]


def test_flat_slice_audit_passes(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    audit = monotonicity_audit(trace, trace.swept_weighted_volume)
    assert [row.check for row in audit.rows] == [
        "q_decreasing", "swept_dominated", "riccati_bound", "area_decreasing"
    ]
    assert all(row.ok for row in audit.rows)
    assert audit.passed


def _failed(audit):
    return [row.check for row in audit.rows if not row.ok]


def test_rising_q_fails_only_q_decreasing(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    q = trace.q_values.copy()
    q[-1] = q[-2] + 1e-3 * q[0]
    # the swept volume that Q's drop equals exactly keeps swept_dominated at 0
    audit = monotonicity_audit(replace(trace, q_values=q), q[0] - q)
    assert _failed(audit) == ["q_decreasing"]
    assert audit.passed is False


def test_rising_area_fails_only_area_decreasing(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    areas = trace.areas.copy()
    areas[-1] = areas[-2] + 1e-3 * areas[0]
    audit = monotonicity_audit(replace(trace, areas=areas), trace.swept_weighted_volume)
    assert _failed(audit) == ["area_decreasing"]
    assert audit.passed is False


def test_flat_slice_area_oracle(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    oracle = 4.0 * math.pi * (1.0 - trace.times) ** 2
    assert np.max(np.abs(trace.areas - oracle)) < 1e-8 * 4.0 * math.pi


def test_slice_flow_follows_radial_ode(schw3):
    surface = slice_surface(schw3, axisym_grid(3, 24), 2.0)
    t_end = 0.8
    trace, final = run_flow(surface, t_end)
    sol = solve_ivp(
        lambda t, r: [-schw3.jet(float(r[0]))[1]],
        (0.0, t_end),
        [2.0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    oracle = sol.sol(trace.times)[0]
    spread = np.nanmax(final.points[..., 0]) - np.nanmin(final.points[..., 0])
    assert spread < 1e-10
    sampled = np.nanmean(
        np.where(np.isfinite(trace.per_node_f), 1.0, np.nan), axis=1
    )
    assert np.all(np.isfinite(sampled))
    r_hist = []
    for k in range(trace.times.size):
        f_row = trace.per_node_f[k]
        r_hist.append(float(np.nanmean(f_row)))
    # f = h'(r) on a slice, so compare the potential histories
    f_oracle = np.array([schw3.jet(float(r))[1] for r in oracle])
    assert np.max(np.abs(np.array(r_hist) - f_oracle)) < 1e-8


def test_speed_is_conserved(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 32), 2.0, [(2, 0, 0.1)])
    state = init_flow(surface)
    s0 = _speed(state)
    assert np.max(np.abs(s0 - 1.0)) < 1e-13
    for _ in range(20):
        state = step(state, 0.01)
    s1 = _speed(state)
    assert np.max(np.abs(s1[state.active] - 1.0)) < 5e-10


def _speed(state):
    # speed in the rescaled metric f^{-2} g: exactly 1 along the flow
    w = state.warping
    r = state.points[..., 0]
    h, hp = w.jet(np.clip(r, 0.0, w.r_bar))[:2]
    vr = state.velocities[..., 0]
    if state.points.shape[-1] == 2:
        vy = state.velocities[..., 1]
        return np.sqrt(vr * vr + h * h * vy * vy) / hp
    vy = state.velocities[..., 1:]
    yy = np.sum(vy * vy, axis=-1)
    return np.sqrt(vr * vr + h * h * yy) / hp


def test_perturbed_flow_audit_axisym(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 48), 2.0, [(2, 0, 0.15)])
    trace, final = run_flow(surface, 1.0)
    audit = monotonicity_audit(trace, trace.swept_weighted_volume)
    assert audit.passed
    assert np.all(np.diff(trace.q_values) < 0.0)


def test_perturbed_flow_audit_full(schw3):
    surface = perturb_slice(
        schw3, full_sphere_grid(24), 2.0, [(2, 1, 0.1), (3, -1, 0.06)]
    )
    trace, final = run_flow(surface, 0.6, dt_max=2e-3 * schw3.r_bar)
    audit = monotonicity_audit(trace, trace.swept_weighted_volume)
    assert audit.passed
    assert int(np.sum(final.active)) == final.active.size


def test_swept_dominates_on_perturbed_flow(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 48), 2.0, [(3, 0, 0.12)])
    trace, _ = run_flow(surface, 0.8)
    drop = trace.q_values[0] - trace.q_values
    gap = drop - trace.swept_weighted_volume
    assert np.min(gap) > -1e-6 * trace.q_values[0]
    # strictly positive once the surface has tilted
    assert gap[-1] > 1e-4


def test_alignment_on_slices_is_exact(schw3):
    surface = slice_surface(schw3, axisym_grid(3, 24), 1.5)
    trace, final = run_flow(surface, 0.5)
    assert np.max(np.abs(trace.min_alignment - 1.0)) < 1e-12
    assert radial_alignment(final) == pytest.approx(1.0, abs=1e-12)


def test_alignment_needs_boundary():
    w = euclidean_warping(3, r_bar=3.0)
    state = init_flow(slice_surface(w, axisym_grid(3, 16), 1.0))
    with pytest.raises(NotApplicableError):
        radial_alignment(state)
    with pytest.raises(NotApplicableError):
        area_floor_check(state)


def test_area_floor_on_boundary_flow(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 32), 1.2, [(2, 0, 0.08)])
    _, final = run_flow(surface, 1.0)
    floor = area_floor_check(final)
    assert floor.passed
    h0 = schw3.jet(0.0)[0]
    area_slack = {row.check: row.slack for row in floor.rows}["area_floor"]
    assert final.report.area - area_slack == pytest.approx(h0**2 * 4.0 * math.pi, rel=1e-12)
    assert area_slack >= -1e-6


@pytest.fixture(scope="module")
def schw_boundary_final(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 24), 1.2, [(2, 0, 0.08)])
    return run_flow(surface, 0.3)[1]


def test_zero_q_fails_only_q_floor(schw_boundary_final):
    floor = area_floor_check(replace(schw_boundary_final, q_value=0.0))
    assert _failed(floor) == ["q_floor"]
    assert floor.passed is False


def test_floor_rows_carry_the_applied_tolerance(schw_boundary_final):
    t = TOL_FLOOR
    floor = area_floor_check(schw_boundary_final)
    area = schw_boundary_final.report.area
    assert [(row.check, row.tol) for row in floor.rows] == [
        ("area_floor", t), ("weighted_minkowski", t * max(area, 1.0)), ("q_floor", t)
    ]


def test_flow_exhaustion_is_clean():
    # flowing the unit flat slice past t = 1 collapses every node
    w = euclidean_warping(3, r_bar=3.0)
    surface = slice_surface(w, axisym_grid(3, 16), 1.0)
    trace, final = run_flow(surface, 1.5)
    assert not bool(np.any(final.active))
    assert trace.times[-1] < 1.5
    assert trace.active_counts[-1] == 0
    with pytest.raises(FlowExhausted):
        step(final, 1e-3)


def test_trace_masks_inactive_nodes():
    w = euclidean_warping(3, r_bar=3.0)
    surface = slice_surface(w, axisym_grid(3, 16), 1.0)
    trace, _ = run_flow(surface, 1.5)
    assert np.all(np.isfinite(trace.per_node_fH[0]))
    assert np.all(~np.isfinite(trace.per_node_fH[-1]))


def test_step_guards(schw3):
    state = init_flow(slice_surface(schw3, axisym_grid(3, 16), 1.5))
    with pytest.raises(ParameterError):
        step(state, 0.0)
    with pytest.raises(ParameterError):
        step(state, 1e-3, jacobian_cut=0.0)
    with pytest.raises(ParameterError):
        run_flow(state, state.t)
    with pytest.raises(ParameterError):
        run_flow(state, 1.0, record_every=0)
    with pytest.raises(ParameterError):
        run_flow(state, 1.0, dt_max=-1e-3)


def test_init_flow_needs_mean_convexity():
    w = euclidean_warping(3)
    surface = perturb_slice(w, axisym_grid(3, 64), 1.0, [(5, 0, 0.25)])
    with pytest.raises(HypothesisError):
        init_flow(surface)


def test_monotonicity_audit_shape_guard(euclid_slice_flow):
    trace, _ = euclid_slice_flow
    with pytest.raises(ParameterError):
        monotonicity_audit(trace, trace.swept_weighted_volume[:-1])


@pytest.mark.parametrize("mode", ["full", "axisym"])
def test_init_flow_report_is_the_graph_geometry(schw3, mode):
    if mode == "full":
        engine, modes = full_sphere_grid(24), [(2, 1, 0.1), (3, -2, 0.05)]
    else:
        engine, modes = axisym_grid(3, 48), [(2, 0, 0.1), (3, 0, 0.05)]
    surface = perturb_slice(schw3, engine, 2.0, modes)
    flowed, graph = init_flow(surface).report, surface.geometry()
    assert flowed.area == graph.area
    for name in (
        "radii",
        "warp",
        "potential",
        "mean_curvature",
        "shape_deficit",
        "nu_radial",
        "support",
        "area_density",
    ):
        assert np.array_equal(getattr(flowed, name), getattr(graph, name)), name


@pytest.mark.parametrize("mode", ["full", "axisym"])
def test_carried_speed_ratio_is_the_ratio_at_the_current_points(schw3, mode):
    full = mode == "full"
    engine = full_sphere_grid(16) if full else axisym_grid(3, 32)
    state = init_flow(perturb_slice(schw3, engine, 2.0, [(2, 1 if full else 0, 0.1)]))
    # nodes frozen in place keep their points; their carried ratio is never read
    frozen = np.zeros_like(state.frozen)
    frozen[:3] = True
    state = replace(state, frozen=frozen)
    held = state.points[frozen]
    for k in range(6):
        fresh = _speed_ratio(_clipped_jet(schw3, state.points), state.velocities)
        assert np.array_equal(state.speed_ratio[~frozen], fresh[~frozen])
        # the carried warp jet, which the next step's first RK4 stage reads, is
        # the jet at the current points at every node, frozen ones included
        for carried, at_points in zip(state.warp_jet, _clipped_jet(schw3, state.points)):
            assert np.array_equal(carried, at_points)
        if k < 5:
            state = step(state, 0.01)
    assert np.array_equal(state.points[frozen], held)
    assert np.any(state.active)


def test_step_halves_the_substep_until_the_drift_fits(schw3, monkeypatch):
    # at dt = 0.1 one RK4 pass over this surface misses the drift budget
    state = init_flow(perturb_slice(schw3, axisym_grid(3, 16), 2.0, [(2, 0, 0.1)]))
    substeps = []
    integrate = flow._integrate

    def spy(state, dt, nsub):
        substeps.append(nsub)
        return integrate(state, dt, nsub)

    monkeypatch.setattr(flow, "_integrate", spy)
    new = step(state, 0.1)
    assert len(substeps) > 1
    assert substeps == [2**k for k in range(len(substeps))]
    assert not np.any(new.frozen)
    drift = np.abs(new.speed_ratio - state.speed_ratio)[state.active]
    assert np.max(drift) <= flow.SPEED_DRIFT_STEP
    # the carried warp jet is the jet at the accepted points, bit for bit
    for carried, at_points in zip(new.warp_jet, _clipped_jet(schw3, new.points)):
        assert np.array_equal(carried, at_points)


@pytest.mark.parametrize("mode", ["full", "axisym"])
def test_four_grid_warp_jets_per_step(schw3, mode, monkeypatch):
    # an accepted RK4 substep takes a jet at each of its three later stages (the
    # first reads the carried jet) and one at the new points, which the step
    # carries and its geometry reuses: the report's radii are the node radii
    calls = []

    def counting(r):
        calls.append(np.ndim(r) > 0)
        return schw3._jet(r)

    if mode == "full":
        engine, modes = full_sphere_grid(16), [(2, 1, 0.1), (3, -2, 0.05)]
    else:
        engine, modes = axisym_grid(3, 32), [(2, 0, 0.1), (3, 0, 0.05)]
    state = init_flow(perturb_slice(replace(schw3, _jet=counting), engine, 2.0, modes))
    substeps = []
    integrate = flow._integrate

    def spy(state, dt, nsub):
        substeps.append(nsub)
        return integrate(state, dt, nsub)

    monkeypatch.setattr(flow, "_integrate", spy)
    calls.clear()
    new = step(state, 0.01)
    assert substeps == [1]
    assert calls == [True] * 4
    report = new.report
    assert np.array_equal(report.radii, new.points[..., 0])
    carried = (report.warp, report.potential, report.potential_slope, report.potential_curvature)
    for got, want in zip(carried, new.warp_jet):
        assert np.array_equal(got, want)


def test_uncontrollable_drift_stops_past_4096_substeps(schw3, monkeypatch):
    # no step meets a negative budget.  The integrator is stubbed out: the
    # 8191 real RK4 substeps take seconds, and the doubling loop is the test
    state = init_flow(slice_surface(schw3, axisym_grid(3, 16), 2.0))
    substeps = []

    def standing(state, dt, nsub):
        substeps.append(nsub)
        return state.points, state.velocities

    monkeypatch.setattr(flow, "SPEED_DRIFT_STEP", -1.0)
    monkeypatch.setattr(flow, "_integrate", standing)
    with pytest.raises(WarpcmcError, match="not controllable"):
        step(state, 0.01)
    assert substeps == [2**k for k in range(13)]
