"""Unit-speed conformal flow of hypersurfaces toward the inner boundary.

Rescaling the ambient metric g by the inverse square of the potential
f = h' turns the inward normal flow with speed f into a flow by
unit-speed geodesics of the rescaled metric.  Each surface node
therefore obeys a fixed second-order ODE in the ambient coordinates;
no normal vector has to be rebuilt between steps.  The surface is the
parametrization (r, y) that the nodes transport, and its geometry comes
from the same kernel as a graph's (``surface.parametrized_geometry``):
one frame jet of the radius and the sphere map, starting from the
identity map of the graph the flow begins on.

The payoff is a family of audited monotone quantities: the weighted
curvature integral Q = (n-1) int f/H, the swept weighted volume it
dominates, the per-node Riccati bound on f/H, and the plain area; on a
boundary-type ambient, the horizon floors of the final state.  The two
audits return seven ``AuditRow(check, slack, tol, ok)`` rows in all:
q_decreasing, swept_dominated, riccati_bound and area_decreasing, then
area_floor, weighted_minkowski and q_floor.  A slack is the worst signed
margin.  swept_dominated, area_floor and q_floor bound from below and
hold when slack >= -tol; the other four hold when slack <= tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    HypothesisError,
    NotApplicableError,
    ParameterError,
    WarpcmcError,
)
from .surface import GeometryReport, GraphSurface, graph_geometry, parametrized_geometry
from .warping import WarpingFunction

__all__ = [
    "FLOW_JACOBIAN_CUT",
    "AuditRow",
    "FlowExhausted",
    "FlowState",
    "FlowTrace",
    "MonotonicityAudit",
    "FloorReport",
    "init_flow",
    "step",
    "run_flow",
    "monotonicity_audit",
    "radial_alignment",
    "area_floor_check",
]

# nodes whose area element has collapsed below this fraction of its
# initial value are past the reach of the smooth flow (cut locus)
FLOW_JACOBIAN_CUT = 1e-4

# per-step budget for the growth of | |v|_g/f - 1 |; a step that adds
# more than this is retried with half the substep until it complies
SPEED_DRIFT_STEP = 1e-11

# the absolute tolerances of the riccati_bound row and of the floor rows
TOL_RICCATI = 1e-5
TOL_FLOOR = 1e-6


class FlowExhausted(WarpcmcError):
    """Every node has left the smooth regime; the flow ended normally."""


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow at one parameter time.

    ``points`` and ``velocities`` hold the node coordinates and their
    time derivatives, components stacked along the last axis: (r, y)
    with y the unit sphere position in full mode, (r, beta) with beta
    the polar angle in axisymmetric mode.  ``report`` is the geometry
    of the current surface and ``active`` the mask of nodes still
    inside the smooth regime.  Deactivation is permanent; integral
    quantities only ever sum over active nodes.
    ``speed_ratio`` is the rescaled-metric speed |v|_g / f at the current
    points, except at frozen nodes, where it is never read.  ``warp_jet``
    is the clipped warp jet at the current points; the next step starts from it.
    """

    warping: WarpingFunction
    engine: object
    t: float
    points: np.ndarray
    velocities: np.ndarray
    report: GeometryReport
    q_value: float
    active: np.ndarray
    frozen: np.ndarray
    initial_density: np.ndarray
    speed_ratio: np.ndarray
    warp_jet: tuple

    @property
    def dim(self) -> int:
        return self.warping.dim


@dataclass(frozen=True)
class FlowTrace:
    """Sampled history of one flow run.

    ``per_node_fH`` and ``per_node_f`` carry one row per record with
    inactive nodes masked as NaN; they feed the node-wise Riccati
    audit.  ``swept_weighted_volume`` accumulates n int f^2 dmu by the
    trapezoid rule over every internal step, not just the records.
    """

    dim: int
    times: np.ndarray
    q_values: np.ndarray
    areas: np.ndarray
    min_alignment: np.ndarray
    active_counts: np.ndarray
    swept_weighted_volume: np.ndarray
    per_node_fH: np.ndarray
    per_node_f: np.ndarray


# ---------------------------------------------------------------------------
# transported-parametrization geometry


def _transported_geometry(engine, points, velocities, warp_jet):
    """Geometry of the flowed surface; its velocity orients the normal.

    One frame jet of the stack (r, y) in full mode or (r, cos beta) in
    axisymmetric mode feeds the surface kernel; r enters at the node radii,
    with ``warp_jet`` there.  beta itself is not smooth across the poles
    in the polynomial basis, but cos(beta) is, and the meridian data
    recover from it exactly.
    """
    fields = np.moveaxis(points, -1, 0)
    if engine.kind == "full":
        jet = engine.on_frame_jet(fields)
        sphere_jet = tuple(out[1:] for out in jet)
    else:
        jet = engine.on_frame_jet(np.stack([fields[0], np.cos(fields[1])]))
        cc, c1, c11 = (out[1] for out in jet)
        cc = np.clip(cc, -1.0, 1.0)
        sin_b = np.sqrt(np.maximum(1.0 - cc * cc, 1e-300))
        b1 = -c1 / sin_b
        sphere_jet = (cc / sin_b, sin_b / engine.sin_theta, b1, -(c11 + cc * b1 * b1) / sin_b)
    radius_jet = (fields[0],) + tuple(out[0] for out in jet[1:])
    velocity = np.moveaxis(velocities, -1, 0)
    return parametrized_geometry(engine, warp_jet, radius_jet, sphere_jet, velocity)[0]


def _masked_sum(engine, values, mask) -> float:
    w = engine.area_weights
    return float(np.sum(np.where(mask, values, 0.0) * w))


# ---------------------------------------------------------------------------
# flow construction and stepping


def init_flow(surface: GraphSurface) -> FlowState:
    """Start the conformal flow from a graph surface.

    The initial velocity is -f nu, the inward normal scaled by the
    potential; in the rescaled metric this is a unit vector, and the
    flow preserves that normalization exactly.
    """
    warping = surface.warping
    engine = surface.engine
    report, nu_sphere = graph_geometry(warping, engine, surface.radii)
    if float(np.min(report.mean_curvature)) <= 0.0:
        raise HypothesisError(
            "conformal flow needs strictly positive mean curvature at the start"
        )
    # the sphere coordinates of the identity map: y in full mode, beta = theta
    sphere = engine.identity_jet[0] if engine.kind == "full" else engine.theta[None]
    f = report.potential
    points = np.moveaxis(np.concatenate([surface.radii[None], sphere]), 0, -1)
    vel = np.concatenate([(-f * report.nu_radial)[None], np.reshape(-f * nu_sphere, sphere.shape)])
    vel = np.moveaxis(vel, 0, -1)

    active = np.ones(report.radii.shape, dtype=bool)
    frozen = np.zeros_like(active)
    jet = _clipped_jet(warping, points)
    fh = report.potential / report.mean_curvature
    q0 = (warping.dim - 1) * _masked_sum(engine, fh * report.area_density, active)
    return FlowState(
        warping=warping,
        engine=engine,
        t=0.0,
        points=points,
        velocities=vel,
        report=report,
        q_value=q0,
        active=active,
        frozen=frozen,
        initial_density=report.area_density,
        speed_ratio=_speed_ratio(jet, vel),
        warp_jet=jet,
    )


def _clipped_jet(warping, points):
    """Warp jet at the node radii, clipped into the open chart.

    Clipping keeps intermediate integrator stages of runaway nodes
    finite; runaway nodes themselves are frozen by the caller right
    after the step.
    """
    return warping.jet(np.clip(points[..., 0], 1e-4 * warping.r_bar, warping.r_bar * (1.0 - 1e-15)))


def _rhs(warping, points, velocities, full: bool, jet=None):
    """Geodesic right-hand side of the rescaled metric, from the clipped warp jet if given."""
    h, hp, hpp, _ = _clipped_jet(warping, points) if jet is None else jet
    hp_safe = np.where(np.abs(hp) > 1e-300, hp, 1e-300)
    psi = -hpp / hp_safe
    vr, vy = velocities[..., 0], velocities[..., 1:]
    yy = np.einsum("...c,...c->...", vy, vy)
    ar = h * hp * yy + psi * (h * h * yy - vr * vr)
    ay = -(2.0 * (hp / h + psi) * vr)[..., None] * vy
    if full:
        # the acceleration that keeps y on the unit sphere
        ay = ay - yy[..., None] * points[..., 1:]
    return velocities, np.concatenate([ar[..., None], ay], axis=-1)


def _rk4_sum(x, hdt, k1, k2, k3, k4):
    """x + (hdt / 6) (k1 + 2 k2 + 2 k3 + k4), summed in place into k2 and k3."""
    k2 *= 2.0
    k2 += k1
    k2 += np.multiply(k3, 2.0, out=k3)
    k2 += k4
    k2 *= hdt / 6.0
    return np.add(x, k2, out=k2)


def _integrate(state: FlowState, dt, nsub):
    """RK4 from the state over dt in nsub substeps, the first stage on the carried jet."""
    warping, full = state.warping, state.engine.kind == "full"
    p, v, jet = state.points, state.velocities, state.warp_jet
    hdt = dt / nsub
    for _ in range(nsub):
        k1p, k1v = _rhs(warping, p, v, full, jet)
        jet = None
        k2p, k2v = _rhs(warping, p + 0.5 * hdt * k1p, v + 0.5 * hdt * k1v, full)
        k3p, k3v = _rhs(warping, p + 0.5 * hdt * k2p, v + 0.5 * hdt * k2v, full)
        k4p, k4v = _rhs(warping, p + hdt * k3p, v + hdt * k3v, full)
        p = _rk4_sum(p, hdt, k1p, k2p, k3p, k4p)
        v = _rk4_sum(v, hdt, k1v, k2v, k3v, k4v)
        if full:
            y = p[..., 1:4]
            y /= np.linalg.norm(y, axis=-1, keepdims=True)
            vy = v[..., 1:4]
            vy -= np.einsum("...c,...c->...", vy, y)[..., None] * y
    return p, v


def _speed_ratio(jet, velocities):
    """|v|_g / f per node from the clipped warp jet at its points; 1 up to integration error."""
    h, hp, _, _ = jet
    vr = velocities[..., 0]
    yy = np.einsum("...c,...c->...", velocities[..., 1:], velocities[..., 1:])
    return np.sqrt(vr * vr + h * h * yy) / np.where(hp > 1e-300, hp, 1e-300)


def step(state: FlowState, dt: float, jacobian_cut: float = FLOW_JACOBIAN_CUT) -> FlowState:
    """Advance the flow by dt with a classical RK4 geodesic step.

    The substep is halved until the rescaled-metric speed of every
    active node stays within its per-step drift budget.  After the
    move the surface geometry is recomputed, nodes whose area element
    fell below the jacobian cut or whose mean curvature left the
    positive cone are deactivated for good, and nodes that escaped
    the coordinate chart are frozen in place.
    """
    if not (dt > 0.0):
        raise ParameterError(f"flow step must be positive, got {dt}")
    if not (jacobian_cut > 0.0):
        raise ParameterError("jacobian_cut must be positive")
    if not bool(np.any(state.active)):
        raise FlowExhausted("every node is inactive; the flow has ended")

    warping, engine = state.warping, state.engine
    move = ~state.frozen

    nsub = 1
    while True:
        p_new, v_new = _integrate(state, dt, nsub)
        jet_new = _clipped_jet(warping, p_new)
        ratio1 = _speed_ratio(jet_new, v_new)
        drift = np.abs(ratio1 - state.speed_ratio)[state.active & move]
        if drift.size == 0 or float(np.max(drift)) <= SPEED_DRIFT_STEP:
            break
        nsub *= 2
        if nsub > 4096:
            raise WarpcmcError("speed drift not controllable by substepping")

    bad = ~np.isfinite(p_new).all(axis=-1) | ~np.isfinite(v_new).all(axis=-1)
    r_new = p_new[..., 0]
    escaped = (r_new < 5e-4 * warping.r_bar) | (r_new > warping.r_bar * (1.0 - 1e-9))
    frozen = state.frozen | (move & (escaped | bad))
    points, velocities, warp_jet = p_new, v_new, jet_new
    if np.any(frozen):
        points = np.where(frozen[..., None], state.points, p_new)
        velocities = np.where(frozen[..., None], state.velocities, v_new)
        # frozen nodes keep their points, and with them the jet the step began from
        warp_jet = tuple(np.where(frozen, old, new) for old, new in zip(state.warp_jet, jet_new))

    report = _transported_geometry(engine, points, velocities, warp_jet)
    jac = report.area_density / state.initial_density
    active = (
        state.active
        & ~frozen
        & (report.mean_curvature > 0.0)
        & (jac > jacobian_cut)
    )
    fh = np.where(active, report.potential / np.where(active, report.mean_curvature, 1.0), 0.0)
    q = (warping.dim - 1) * _masked_sum(engine, fh * report.area_density, active)
    return replace(
        state,
        t=state.t + dt,
        points=points,
        velocities=velocities,
        report=replace(report, area=_masked_sum(engine, report.area_density, active)),
        q_value=q,
        active=active,
        frozen=frozen,
        speed_ratio=ratio1,
        warp_jet=warp_jet,
    )


# ---------------------------------------------------------------------------
# driver, trace, audits


def _swept_integrand(state: FlowState) -> float:
    rep = state.report
    return state.dim * _masked_sum(
        state.engine, rep.potential**2 * rep.area_density, state.active
    )


def _cumulative_swept(samples: np.ndarray, dt: float, record_steps) -> np.ndarray:
    """Cumulative time integral of the swept-volume rate at the records.

    Composite trapezoid over every step, sharpened by the endpoint
    derivative correction -dt^2/12 (I'(t_k) - I'(0)); with second-order
    difference estimates of I' this is exact for quadratic rates and
    fourth-order accurate in general, so the audit tolerance is not
    eaten by the accumulation itself.
    """
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (samples[1:] + samples[:-1]) * dt)])
    if samples.size < 3:
        return cum[np.asarray(record_steps)]
    deriv = np.empty_like(samples)
    deriv[1:-1] = (samples[2:] - samples[:-2]) / (2.0 * dt)
    deriv[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * dt)
    deriv[-1] = (3.0 * samples[-1] - 4.0 * samples[-2] + samples[-3]) / (2.0 * dt)
    idx = np.asarray(record_steps)
    out = cum[idx] - dt * dt / 12.0 * (deriv[idx] - deriv[0])
    out[idx == 0] = 0.0
    return out


def _record(state: FlowState, index: int):
    """(index, t, Q, area, min alignment, active count, f/H row, f row) after step ``index``."""
    rep = state.report
    active = state.active
    fh = np.where(active, rep.potential / np.where(active, rep.mean_curvature, 1.0), np.nan)
    f = np.where(active, rep.potential, np.nan)
    if np.any(active):
        align = float(np.min(rep.nu_radial[active]))
    else:
        align = np.nan
    count = int(np.count_nonzero(active))
    return index, state.t, state.q_value, rep.area, align, count, fh.ravel(), f.ravel()


def run_flow(
    start,
    t_end: float,
    dt_max: float | None = None,
    record_every: int = 1,
    jacobian_cut: float = FLOW_JACOBIAN_CUT,
):
    """Run the conformal flow to t_end and sample its history.

    ``start`` is a graph surface or an existing flow state.  The step
    is uniform, chosen as the largest value not exceeding ``dt_max``
    (default 1e-3 r_bar) that lands on t_end exactly; records are
    taken every ``record_every`` steps plus the endpoints.  The run
    ends early, normally, if every node deactivates.

    Returns (trace, final_state).
    """
    state = init_flow(start) if isinstance(start, GraphSurface) else start
    if not (t_end > state.t):
        raise ParameterError("t_end must exceed the current flow time")
    if record_every < 1:
        raise ParameterError("record_every must be at least 1")
    if dt_max is None:
        dt_max = 1e-3 * state.warping.r_bar
    if not (dt_max > 0.0):
        raise ParameterError("dt_max must be positive")

    span = t_end - state.t
    nsteps = max(1, int(math.ceil(span / dt_max - 1e-12)))
    dt = span / nsteps
    t0 = state.t

    records = [_record(state, 0)]
    samples = [_swept_integrand(state)]
    for k in range(nsteps):
        try:
            state = step(state, dt, jacobian_cut=jacobian_cut)
        except FlowExhausted:
            break
        # rebase the clock on the exact uniform grid; accumulating dt
        # drifts by an ulp per step and the endpoint must land exactly
        state = replace(state, t=t0 + span * ((k + 1) / nsteps))
        samples.append(_swept_integrand(state))
        if (k + 1) % record_every == 0 or k == nsteps - 1 or not np.any(state.active):
            records.append(_record(state, k + 1))
        if not np.any(state.active):
            break

    steps, times, qs, areas, aligns, counts, fh_rows, f_rows = map(np.asarray, zip(*records))
    swept = _cumulative_swept(np.asarray(samples), dt, steps)
    trace = FlowTrace(
        dim=state.dim,
        times=times,
        q_values=qs,
        areas=areas,
        min_alignment=aligns,
        active_counts=counts,
        swept_weighted_volume=np.asarray(swept),
        per_node_fH=fh_rows,
        per_node_f=f_rows,
    )
    return trace, state


class AuditRow(NamedTuple):
    """One audited inequality: its worst signed slack, the tolerance applied, the verdict."""

    check: str
    slack: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class MonotonicityAudit:
    """Audit rows of a flow; it passes when every row is ok."""

    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


class FloorReport(MonotonicityAudit):
    """Audit rows of the horizon floors of one flow state."""


def monotonicity_audit(trace: FlowTrace, weighted_volumes) -> MonotonicityAudit:
    """Audit the monotone quantities sampled by a flow trace.

    Rows, in order: q_decreasing, the largest rise of Q between records
    (tol 1e-7 |Q(0)|); swept_dominated, the least of Q(0) - Q minus the
    swept weighted volume (tol 1e-6 |Q(0)|); riccati_bound, the largest
    node-wise excess of d/dt (f/H) over -f^2/(n-1) (tol ``TOL_RICCATI``);
    area_decreasing, the largest rise of the area (tol 1e-7 area(0)).
    """
    wv = np.asarray(weighted_volumes, dtype=float)
    if wv.shape != trace.times.shape:
        raise ParameterError("weighted_volumes must align with the trace times")
    q0 = float(trace.q_values[0])
    scale = max(abs(q0), 1e-300)

    dq = np.diff(trace.q_values)
    q_slack = float(np.max(dq)) if dq.size else 0.0
    q_tol = 1e-7 * scale

    swept_slack = float(np.min(q0 - trace.q_values - wv))
    swept_tol = 1e-6 * scale

    n = trace.dim
    worst = -np.inf
    for k in range(len(trace.times) - 1):
        dt = trace.times[k + 1] - trace.times[k]
        a, b = trace.per_node_fH[k], trace.per_node_fH[k + 1]
        fa, fb = trace.per_node_f[k], trace.per_node_f[k + 1]
        both = np.isfinite(a) & np.isfinite(b)
        if not np.any(both):
            continue
        rate = (b[both] - a[both]) / dt
        fbar = 0.5 * (fa[both] + fb[both])
        worst = max(worst, float(np.max(rate + fbar * fbar / (n - 1))))
    riccati_slack = worst if np.isfinite(worst) else 0.0

    da = np.diff(trace.areas)
    area_slack = float(np.max(da)) if da.size else 0.0
    area_tol = 1e-7 * max(float(trace.areas[0]), 1e-300)

    return MonotonicityAudit(
        (
            AuditRow("q_decreasing", q_slack, q_tol, q_slack <= q_tol),
            AuditRow("swept_dominated", swept_slack, swept_tol, swept_slack >= -swept_tol),
            AuditRow("riccati_bound", riccati_slack, TOL_RICCATI, riccati_slack <= TOL_RICCATI),
            AuditRow("area_decreasing", area_slack, area_tol, area_slack <= area_tol),
        )
    )


def radial_alignment(state: FlowState) -> float:
    """Minimum of <d/dr, nu> over active nodes.

    Only meaningful when the chart has an inner boundary slice for the
    flow to align with; ball-type ambients have no such boundary.
    """
    if state.warping.variant != "boundary":
        raise NotApplicableError("radial alignment needs a boundary-type ambient")
    if not bool(np.any(state.active)):
        raise FlowExhausted("every node is inactive; the flow has ended")
    return float(np.min(state.report.nu_radial[state.active]))


def area_floor_check(state: FlowState) -> FloorReport:
    """Check the boundary area floor and its companion bounds.

    Rows, in order: area_floor, the area of the active surface less the
    inner boundary area h(0)^{n-1} vol(N) (tol ``TOL_FLOOR``);
    weighted_minkowski, int (H/f) <X, nu> less (n-1) area
    (tol ``TOL_FLOOR`` max(area, 1)); q_floor, Q less the boundary volume
    term h(0)^n vol(N) scaled by the worst radial alignment (tol ``TOL_FLOOR``).
    """
    if state.warping.variant != "boundary":
        raise NotApplicableError("the area floor concerns boundary-type ambients")
    align = radial_alignment(state)
    w, rep, active = state.warping, state.report, state.active
    n, h0, base = w.dim, w.inner_jet[0], w.base_volume
    area = rep.area
    floor = h0 ** (n - 1) * base
    ratio = np.where(active, rep.mean_curvature / np.where(active, rep.potential, 1.0), 0.0)
    lhs = _masked_sum(state.engine, ratio * rep.support * rep.area_density, active)
    bound = (n - 1) * area
    mink_tol = TOL_FLOOR * max(area, 1.0)
    q, q_floor = state.q_value, align * h0**n * base
    return FloorReport(
        (
            AuditRow("area_floor", area - floor, TOL_FLOOR, area >= floor - TOL_FLOOR),
            AuditRow("weighted_minkowski", lhs - bound, mink_tol, lhs <= bound + mink_tol),
            AuditRow("q_floor", q - q_floor, TOL_FLOOR, q >= q_floor - TOL_FLOOR),
        )
    )
