"""End-to-end acceptance suite.

One test per acceptance criterion.  Each prints a single verdict line
(PASS with its headline numbers, FAIL before the traceback) and
enforces a wall-clock budget.  Tolerances here are contractual; they
are not to be loosened.  Run with -s to see the verdict lines.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from warpcmc import (
    area_floor_check,
    axisym_grid,
    check_conditions,
    chebyshev_radii,
    euclidean_warping,
    find_cmc,
    full_sphere_grid,
    hk_check,
    hyperbolic_warping,
    make_model,
    minkowski_check,
    monotonicity_audit,
    monotonicity_quantity,
    omega_condition_margins,
    perturb_slice,
    potential_and_field,
    ricci_eigenvalues,
    ricci_gap_margin,
    run_flow,
    scalar_curvature,
    slice_surface,
    spherical_warping,
    static_tensor,
    umbilicity_verdict,
)
from warpcmc.cli import main as cli_main

KAPPA_MAX_N3_M1 = 4.0 / 27.0

HORIZON_GRID = (
    [("schwarzschild", n, dict(m=m)) for n in (3, 4, 5) for m in (0.5, 1.0, 2.0)]
    + [
        ("desitter-schwarzschild", 3, dict(m=1.0, kappa=k))
        for k in (-0.1, 0.0, 0.2 * KAPPA_MAX_N3_M1)
    ]
    + [("reissner-nordstrom", 3, dict(m=1.0, q=q)) for q in (0.1, 0.25, 0.45)]
)

_MODELS = {}


def _model(family, n, **params):
    key = (family, n, tuple(sorted(params.items())))
    if key not in _MODELS:
        _MODELS[key] = make_model(family, n, **params)
    return _MODELS[key]


def _space_forms():
    return [
        ("euclidean", euclidean_warping(3)),
        ("sphere", spherical_warping(3)),
        ("hyperbolic", hyperbolic_warping(3, r_bar=3.0)),
    ]


@contextmanager
def _verdict(index, budget):
    detail = []
    t0 = time.perf_counter()
    try:
        yield detail
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"criterion {index} exceeded {budget}s ({elapsed:.1f}s)"
    except BaseException:
        print(f"criterion {index}: FAIL")
        raise
    print(f"criterion {index}: PASS ({'; '.join(detail)}; {elapsed:.2f}s)")


def test_criterion_1_condition_suite():
    with _verdict(1, 5.0) as detail:
        residue = 0.0
        for name, w in _space_forms():
            report = check_conditions(w)
            assert report.required_pass, name
            assert report.status["ricci_gap"] == "degenerate", name
            assert report.conclusion == "umbilic-only", name
            residue = max(residue, float(np.max(np.abs(report.margins["ricci_gap"]))))
        assert residue < 1e-12
        for family, n, params in HORIZON_GRID:
            report = check_conditions(_model(family, n, **params))
            assert report.required_pass, (family, n, params)
            assert report.status["ricci_gap"] == "pass", (family, n, params)
            assert report.conclusion == "slice-rigidity", (family, n, params)
        detail.append(f"{3 + len(HORIZON_GRID)} ambients admitted")
        detail.append(f"space-form gap residue {residue:.1e}")


def test_criterion_2_scalar_curvature_and_trace():
    with _verdict(2, 2.0) as detail:
        rng = np.random.default_rng(20)
        worst = 0.0
        for kappa in (-0.1, 0.0, 0.2 * KAPPA_MAX_N3_M1):
            w = _model("desitter-schwarzschild", 3, m=1.0, kappa=kappa)
            radii = rng.uniform(0.01, 0.99, 200) * w.r_bar
            worst = max(worst, float(np.max(np.abs(scalar_curvature(w, radii) - 6.0 * kappa))))
        for n, m in ((3, 1.0), (4, 1.0), (5, 2.0)):
            w = _model("schwarzschild", n, m=m)
            radii = rng.uniform(0.01, 0.99, 200) * w.r_bar
            worst = max(worst, float(np.max(np.abs(scalar_curvature(w, radii)))))
        assert worst < 1e-9
        trace_worst = 0.0
        for family, n, params in HORIZON_GRID:
            w = _model(family, n, **params)
            radii = rng.uniform(0.01, 0.99, 64) * w.r_bar
            rad, tan = ricci_eigenvalues(w, radii)
            R = scalar_curvature(w, radii)
            err = np.abs(rad + (n - 1) * tan - R) / np.maximum(1.0, np.abs(R))
            trace_worst = max(trace_worst, float(np.max(err)))
        assert trace_worst < 1e-10
        detail.append(f"scalar residue {worst:.1e}")
        detail.append(f"Ricci trace residue {trace_worst:.1e}")


def _fd_static_tensor(w, r, delta=1e-4):
    """(lap f) g - D^2 f + f Ric assembled from jet samples.

    The third derivative of h comes from a central difference of h'',
    the curvature eigenvalues from their defining expressions in the
    jet, so the assembly shares no algebra with static_tensor.
    """
    n = w.dim
    h, hp, hpp = w.jet(r)[:3]
    hppp = (w.jet(r + delta)[2] - w.jet(r - delta)[2]) / (2.0 * delta)
    lap_f = hppp + (n - 1) * (hp / h) * hpp
    ric_rad = -(n - 1) * hpp / h
    ric_tan = (n - 2) * (1.0 - hp * hp) / (h * h) - hpp / h
    radial = lap_f - hppp + hp * ric_rad
    tangential = lap_f - (hp / h) * hpp + hp * ric_tan
    return radial, tangential


def test_criterion_3_static_tensor():
    with _verdict(3, 5.0) as detail:
        margin_min = np.inf
        fd_worst = 0.0
        ambients = [w for _, w in _space_forms()]
        ambients += [_model(f, n, **p) for f, n, p in HORIZON_GRID]
        for w in ambients:
            radii = chebyshev_radii(1e-3 * w.r_bar, 0.999 * w.r_bar, 256)
            h = w.jet(radii)[0]
            _, slope = monotonicity_quantity(w, radii)
            margin = 0.5 * h * slope
            margin_min = min(margin_min, float(np.min(margin)))
            assert float(np.min(margin)) >= -1e-9, w.name
            # difference quotients need interior stencils; families whose
            # chart is clamped just below a second horizon flatten so hard
            # near r_bar that the inverse map loses the digits FD divides by
            inner = radii[(radii > 0.002 * w.r_bar) & (radii < 0.88 * w.r_bar)]
            probe = inner[::16]
            rad, tan = static_tensor(w, probe)
            fd_rad, fd_tan = _fd_static_tensor(w, probe)
            scale = np.maximum(1.0, np.abs(tan))
            fd_worst = max(fd_worst, float(np.max(np.abs(rad - fd_rad) / scale)))
            fd_worst = max(fd_worst, float(np.max(np.abs(tan - fd_tan) / scale)))
        assert fd_worst < 1e-6
        detail.append(f"min slope margin {margin_min:.1e}")
        detail.append(f"FD assembly mismatch {fd_worst:.1e}")


def test_criterion_4_area_radius_chart():
    with _verdict(4, 5.0) as detail:
        worst = 0.0
        for family, n, params in [
            ("schwarzschild", 3, dict(m=1.0)),
            ("schwarzschild", 5, dict(m=2.0)),
            ("desitter-schwarzschild", 3, dict(m=1.0, kappa=-0.1)),
            ("reissner-nordstrom", 3, dict(m=1.0, q=0.25)),
        ]:
            w = _model(family, n, **params)
            prof = w.profile
            s = np.linspace(prof.s_floor * 1.05, prof.s_max * 0.8, 40)
            margins = omega_condition_margins(prof, s)
            r = np.array([w.distance_of_area_radius(x) for x in s])
            # the reference is the warp form's jet route: no closed forms
            jet_route = dataclasses.replace(w, _closed_forms=None)
            f, _ = potential_and_field(jet_route, r)
            value, slope = monotonicity_quantity(jet_route, r)
            gap = ricci_gap_margin(jet_route, r)
            for got, ref in (
                (margins["potential"], f),
                (margins["monotonicity_quantity"], value),
                (margins["monotonicity_slope"], slope),
                (margins["ricci_gap_margin"], gap),
            ):
                worst = max(worst, float(np.max(np.abs(got - ref))))
        assert worst < 1e-7
        arc = _model("schwarzschild", 3, m=1.0).distance_of_area_radius(2.0)
        oracle = math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))
        assert abs(arc - oracle) < 1e-10
        detail.append(f"chart-change mismatch {worst:.1e}")
        detail.append(f"arc-length residue {abs(arc - oracle):.1e}")


def _survey_models():
    return [
        euclidean_warping(3),
        spherical_warping(3),
        hyperbolic_warping(3, r_bar=3.0),
        _model("schwarzschild", 3, m=1.0),
        _model("desitter-schwarzschild", 3, m=1.0, kappa=-0.1),
        _model("reissner-nordstrom", 3, m=1.0, q=0.25),
    ]


def test_criterion_5_minkowski():
    with _verdict(5, 30.0) as detail:
        engine = axisym_grid(3, 48)
        slice_worst = 0.0
        for w in _survey_models():
            for radius in np.linspace(0.05, 0.95, 20) * w.r_bar:
                rep = minkowski_check(slice_surface(w, engine, float(radius)))
                scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
                slice_worst = max(slice_worst, abs(rep.residual) / scale)
        assert slice_worst < 1e-12
        schw = _model("schwarzschild", 3, m=1.0)
        fine = full_sphere_grid(64)
        rng = np.random.default_rng(2026)
        perturbed_worst = 0.0
        for _ in range(10):
            modes = []
            for _ in range(int(rng.integers(1, 4))):
                l = int(rng.integers(1, 9))
                m = int(rng.integers(-l, l + 1))
                modes.append((l, m, float(rng.uniform(-0.1, 0.1))))
            rep = minkowski_check(perturb_slice(schw, fine, 2.0, modes))
            scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
            perturbed_worst = max(perturbed_worst, abs(rep.residual) / scale)
        assert perturbed_worst < 1e-8
        heavy = [(2, 1, 0.175), (9, -4, 0.11), (12, 7, 0.09)]
        coarse = minkowski_check(perturb_slice(schw, full_sphere_grid(32), 2.2, heavy))
        refined = minkowski_check(perturb_slice(schw, fine, 2.2, heavy))
        ratio = abs(coarse.residual) / max(abs(refined.residual), 1e-16)
        assert ratio >= 100.0
        detail.append(f"slice residue {slice_worst:.1e}")
        detail.append(f"perturbed residue {perturbed_worst:.1e}")
        detail.append(f"refinement ratio {ratio:.0f}")


def test_criterion_6_heintze_karcher():
    with _verdict(6, 60.0) as detail:
        engine = axisym_grid(3, 64)
        slice_worst = 0.0
        checked = 0
        for w in _survey_models():
            for radius in np.linspace(0.1, 0.9, 8) * w.r_bar:
                if w.jet(float(radius))[1] <= 1e-6:
                    continue  # mean curvature changes sign past the equator
                rep = hk_check(slice_surface(w, engine, float(radius)))
                assert rep.verdict == "equality"
                slice_worst = max(
                    slice_worst, abs(rep.residual) / max(abs(rep.lhs), abs(rep.rhs))
                )
                checked += 1
        assert checked >= 40
        assert slice_worst < 1e-9
        schw = _model("schwarzschild", 3, m=1.0)
        r2 = schw.distance_of_area_radius(2.0)
        rep = hk_check(slice_surface(schw, engine, r2))
        assert rep.lhs == pytest.approx(32.0 * math.pi, rel=1e-9)
        assert rep.rhs == pytest.approx(32.0 * math.pi, rel=1e-9)
        residuals = []
        for amp in (0.02, 0.05, 0.1):
            rep = hk_check(perturb_slice(schw, engine, r2, [(2, 0, amp)]))
            assert rep.residual > 0.0
            residuals.append(rep.residual)
        assert residuals[0] < residuals[1] < residuals[2]
        detail.append(f"{checked} slices, equality residue {slice_worst:.1e}")
        detail.append("32pi endpoint pinned")
        detail.append("deficit chain " + " < ".join(f"{x:.2e}" for x in residuals))


def test_criterion_7_flat_flow():
    with _verdict(7, 300.0) as detail:
        w = euclidean_warping(3, r_bar=3.0)
        engine = axisym_grid(3, 48)
        trace, final = run_flow(slice_surface(w, engine, 1.0), 0.5, dt_max=0.0025)
        q0 = 4.0 * math.pi
        q_worst = 0.0
        for t_probe in (0.25, 0.5):
            k = int(np.argmin(np.abs(trace.times - t_probe)))
            assert trace.times[k] == t_probe
            q_worst = max(q_worst, abs(trace.q_values[k] - q0 * (1.0 - t_probe) ** 3))
        assert q_worst < 1e-6 * q0
        audit = monotonicity_audit(trace, trace.swept_weighted_volume)
        assert audit.passed
        slack = {row.check: row.slack for row in audit.rows}
        assert slack["swept_dominated"] >= -1e-6 * q0
        assert slack["riccati_bound"] <= 1e-5
        assert np.all(np.diff(trace.areas) < 0.0)
        sol = solve_ivp(
            lambda t, r: [-w.jet(float(r[0]))[1]],
            (0.0, 0.5),
            [1.0],
            rtol=1e-12,
            atol=1e-14,
        )
        ode_err = float(np.max(np.abs(final.points[0] - sol.y[0, -1])))
        assert ode_err < 1e-8
        pert = perturb_slice(w, engine, 1.0, [(2, 0, 0.08), (4, 0, 0.04)])
        trace_p, _ = run_flow(pert, 0.5)
        assert monotonicity_audit(trace_p, trace_p.swept_weighted_volume).passed
        detail.append(f"shrinking-sphere residue {q_worst:.1e}")
        detail.append(f"slice ODE error {ode_err:.1e}")
        detail.append("perturbed audit clean")


def test_criterion_8_boundary_flow():
    with _verdict(8, 300.0) as detail:
        schw = _model("schwarzschild", 3, m=1.0)
        engine = axisym_grid(3, 48)
        floor = schw.jet(0.0)[0] ** 2 * 4.0 * math.pi
        starts = [
            slice_surface(schw, engine, schw.distance_of_area_radius(2.0)),
            perturb_slice(schw, engine, 2.0, [(2, 0, 0.1)]),
            perturb_slice(schw, engine, 1.2, [(3, 0, 0.06), (1, 0, 0.05)]),
        ]
        floor_gap = np.inf
        for surface in starts:
            trace, final = run_flow(surface, 3.0)
            floor_gap = min(floor_gap, float(np.min(trace.areas)) - floor)
            assert np.all(trace.areas >= floor - 1e-6)
            assert monotonicity_audit(trace, trace.swept_weighted_volume).passed
            fl = area_floor_check(final)
            slack = {row.check: row.slack for row in fl.rows}
            assert slack["weighted_minkowski"] <= 1e-6 * max(final.report.area, 1.0)
            assert fl.passed
            half = trace.times >= 0.5 * trace.times[-1]
            diffs = np.diff(trace.min_alignment[half])
            assert np.all(diffs >= -1e-12)
        detail.append("3 flows to t=3")
        detail.append(f"area stayed {floor_gap:.2e} above the floor")
        detail.append("late-time alignment monotone")


def test_criterion_9_cmc_corpus():
    with _verdict(9, 900.0) as detail:
        engine = axisym_grid(3, 48)
        ambients = [
            _model("schwarzschild", 3, m=0.5),
            _model("schwarzschild", 3, m=1.0),
            _model("schwarzschild", 3, m=2.0),
            _model("desitter-schwarzschild", 3, m=1.0, kappa=-0.1),
            _model("desitter-schwarzschild", 3, m=1.0, kappa=0.2 * KAPPA_MAX_N3_M1),
            _model("reissner-nordstrom", 3, m=1.0, q=0.1),
            _model("reissner-nordstrom", 3, m=1.0, q=0.45),
        ]
        rng = np.random.default_rng(909)
        solves = 0
        alarms = 0
        worst_resid = 0.0
        worst_deficit = 0.0
        most_iterations = 0
        for w in ambients:
            for _ in range(3):
                radius = float(rng.uniform(0.35, 0.7)) * w.r_bar
                modes = []
                for _ in range(int(rng.integers(1, 4))):
                    l = int(rng.integers(1, 5))
                    amp = float(rng.uniform(-1.0, 1.0)) * 0.02 * radius
                    modes.append((l, 0, amp))
                result = find_cmc(perturb_slice(w, engine, radius, modes))
                assert result.converged, (w.name, radius, modes)
                assert result.cmc_residual < 1e-7
                assert result.umbilicity_deficit < 1e-5
                assert result.is_slice, (w.name, radius, modes)
                alarms += int(umbilicity_verdict(result, w).alarm)
                worst_resid = max(worst_resid, result.cmc_residual)
                worst_deficit = max(worst_deficit, result.umbilicity_deficit)
                most_iterations = max(most_iterations, result.iterations)
                solves += 1
        flat = euclidean_warping(3, r_bar=5.0)
        for modes in ([(1, 0, 0.04), (2, 0, 0.05)], [(2, 0, 0.06), (3, 0, 0.02)]):
            result = find_cmc(perturb_slice(flat, engine, 1.0, modes))
            assert result.converged
            assert result.umbilicity_deficit < 1e-5
            alarms += int(umbilicity_verdict(result, flat).alarm)
            most_iterations = max(most_iterations, result.iterations)
            solves += 1
        assert solves >= 20
        assert alarms == 0
        assert most_iterations <= 10
        detail.append(f"{solves} solves converged")
        detail.append(f"worst residual {worst_resid:.1e}")
        detail.append(f"worst deficit {worst_deficit:.1e}")
        detail.append(f"at most {most_iterations} iterations")
        detail.append("no alarms")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with _verdict(10, 60.0) as detail:
        args = [
            "flow", "--model", "schwarzschild", "--m", "1", "--s", "2",
            "--modes", "2,0,0.08", "--t-end", "0.4", "--grid-size", "32",
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        stems = ("flow_trace_schwarzschild.csv", "flow_audit_schwarzschild.csv")
        for stem in stems:
            a = (tmp_path / "a" / stem).read_bytes()
            b = (tmp_path / "b" / stem).read_bytes()
            assert a == b
            assert a.startswith(b"# warpcmc ")
        detail.append(f"{len(stems)} output files byte-identical across runs")
