"""Volume-preserving Newton CMC solves and the rigidity verdict.

In the flat ambient every CMC sphere is round but need not be
centered, so the solver must reach machine-level umbilicity while
conserving the enclosed volume; in a horizon ambient with a strict
eigenvalue gap the converged surface must be a coordinate slice.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import (
    ParameterError,
    axisym_grid,
    euclidean_warping,
    find_cmc,
    full_sphere_grid,
    make_model,
    perturb_slice,
    slice_surface,
    umbilicity_verdict,
)


@pytest.fixture(scope="module")
def euclid_solve():
    w = euclidean_warping(3, r_bar=5.0)
    surface = perturb_slice(w, axisym_grid(3, 48), 1.0, [(2, 0, 0.05), (1, 0, 0.03)])
    return w, surface, find_cmc(surface)


@pytest.fixture(scope="module")
def schw_solve(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 48), 2.0, [(2, 0, 0.05)])
    return surface, find_cmc(surface)


def test_flat_solve_reaches_cmc(euclid_solve):
    _, _, result = euclid_solve
    assert result.converged
    assert result.reason == "converged"
    assert result.cmc_residual < 1e-7
    assert result.umbilicity_deficit < 1e-5


def test_flat_solve_conserves_volume(euclid_solve):
    _, start, result = euclid_solve
    v0 = start.enclosed_weighted_volume()
    v1 = result.surface.enclosed_weighted_volume()
    assert abs(v1 - v0) < 1e-12 * abs(v0)


def test_flat_verdict_is_degenerate_not_alarm(euclid_solve):
    w, _, result = euclid_solve
    verdict = umbilicity_verdict(result, w)
    assert not verdict.alarm
    assert verdict.conclusion == "umbilic-degenerate-gap"
    # the degree-1 seed walks the center off the origin, so the round
    # solution need not be a coordinate slice
    assert verdict.gap_margin == pytest.approx(0.0, abs=1e-12)


def test_schwarzschild_solve_is_slice(schw_solve, schw3):
    _, result = schw_solve
    assert result.converged
    assert result.cmc_residual < 1e-7
    assert result.umbilicity_deficit < 1e-5
    assert result.is_slice
    verdict = umbilicity_verdict(result, schw3)
    assert not verdict.alarm
    assert verdict.conclusion == "slice-rigidity-confirmed"
    assert verdict.gap_margin > 0.0


def test_schwarzschild_volume_conserved(schw_solve):
    start, result = schw_solve
    v0 = start.enclosed_weighted_volume()
    assert result.surface.enclosed_weighted_volume() == pytest.approx(v0, rel=1e-12)


def test_residual_history_decreases(schw_solve):
    _, result = schw_solve
    hist = np.asarray(result.residual_history)
    assert hist.size == result.iterations
    # geometric decay towards the fixed point over the tail
    tail = hist[-10:]
    assert np.all(np.diff(tail) < 0.0)
    assert hist[-1] < 1e-7


def test_full_mode_solve(schw3):
    surface = perturb_slice(
        schw3, full_sphere_grid(24), 2.0, [(2, 1, 0.05), (3, -2, 0.03)]
    )
    result = find_cmc(surface)
    assert result.converged
    assert result.umbilicity_deficit < 1e-5
    assert result.is_slice
    v0 = surface.enclosed_weighted_volume()
    assert result.surface.enclosed_weighted_volume() == pytest.approx(v0, rel=1e-12)


def test_slice_start_converges_immediately(schw3):
    surface = slice_surface(schw3, axisym_grid(3, 32), 1.5)
    result = find_cmc(surface)
    assert result.converged
    assert result.iterations <= 1
    assert result.is_slice


def test_max_iter_zero_reports_unconverged(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 32), 2.0, [(2, 0, 0.05)])
    result = find_cmc(surface, max_iter=0)
    assert not result.converged
    assert result.reason == "max_iter"
    assert result.iterations == 0


@pytest.mark.parametrize("cmc_tol", [0.0, -1e-9, float("nan")])
def test_tolerance_must_be_positive(schw3, cmc_tol):
    surface = slice_surface(schw3, axisym_grid(3, 32), 1.5)
    with pytest.raises(ParameterError, match="cmc_tol"):
        find_cmc(surface, cmc_tol=cmc_tol)


def test_verdict_requires_convergence(schw3):
    surface = perturb_slice(schw3, axisym_grid(3, 32), 2.0, [(2, 0, 0.05)])
    result = find_cmc(surface, max_iter=0)
    with pytest.raises(ParameterError):
        umbilicity_verdict(result, schw3)


def test_synthetic_alarm_record(schw_solve, schw3):
    # forge a converged non-slice umbilic record in a strict-gap ambient;
    # the verdict must refuse to certify it
    _, result = schw_solve
    forged = dataclasses.replace(result, is_slice=False)
    verdict = umbilicity_verdict(forged, schw3)
    assert verdict.alarm
    assert verdict.conclusion == "alarm"


def test_degree_one_gap_mode_converges_in_few_iterations(schw3):
    # a pure l = 1 offset is the mode whose Jacobi eigenvalue is (n-1) h^2
    # times the Ricci gap margin, the slowest one for a Laplacian-only step
    surface = perturb_slice(schw3, axisym_grid(3, 48), 2.0, [(1, 0, 0.05)])
    result = find_cmc(surface)
    assert result.converged
    assert result.iterations <= 10
    assert result.is_slice
    # the slice enclosing the same weighted volume, at area radius s
    n = schw3.dim
    volume = surface.enclosed_weighted_volume()
    sphere = float(np.sum(surface.engine.area_weights))
    s = (schw3.jet(0.0)[0] ** n + n * volume / sphere) ** (1.0 / n)
    omega = float(schw3.profile.omega(np.asarray(s))[0])
    assert result.mean_H == pytest.approx((n - 1) * np.sqrt(omega) / s, rel=1e-9)


def test_unreachable_volume_stops_the_solve(schw3):
    # a target above the weighted volume of the whole chart: the volume row
    # of the first step shifts the graph out of the chart
    surface = perturb_slice(schw3, axisym_grid(3, 32), 2.0, [(2, 0, 0.05)])
    n = schw3.dim
    h0, h_top = schw3.jet(0.0)[0], schw3.jet(schw3.r_bar)[0]
    chart_volume = float(np.sum(surface.engine.area_weights)) * (h_top**n - h0**n) / n
    surface.enclosed_weighted_volume = lambda: 2.0 * chart_volume
    result = find_cmc(surface)
    assert not result.converged
    assert result.reason == "graph left the chart"
    assert result.iterations == 1
    assert result.surface is surface


def test_one_grid_warp_jet_per_iteration(schw3):
    # the geometry report of each iterate carries h and h'; the solve makes
    # no other jet call on the grid.  Off the grid it takes h(0) once, and
    # one scalar jet and one call of the closed forms per step at the mean
    # radius; the verdict takes one of each.  The ambient keeps h(0): a
    # second solve on it takes no jet at r = 0
    calls, forms, inner = [], [], []

    def counting(r):
        calls.append(np.ndim(r) > 0)
        inner.append(np.ndim(r) == 0 and r == 0.0)
        return schw3._jet(r)

    def counting_forms(h):
        forms.append(np.ndim(h))
        return schw3._closed_forms(h)

    w = dataclasses.replace(schw3, _jet=counting, _closed_forms=counting_forms)
    surface = perturb_slice(w, axisym_grid(3, 48), 2.0, [(2, 0, 0.05), (1, 0, 0.03)])
    result = find_cmc(surface)
    assert result.converged
    grid = sum(calls)
    assert grid <= result.iterations + 1
    assert len(calls) - grid <= result.iterations + 1
    assert sum(inner) == 1
    # one scalar record per step: every scalar jet off r = 0 reads the closed forms once
    assert forms == [0] * (len(calls) - grid - 1)

    calls.clear()
    forms.clear()
    umbilicity_verdict(result, w)
    assert calls == [False]
    assert forms == [0]

    inner.clear()
    again = find_cmc(perturb_slice(w, axisym_grid(3, 48), 2.0, [(1, 0, 0.02)]))
    assert again.converged
    assert inner and not any(inner)


@functools.cache
def _horizon_ambient(family, n):
    params = {"desitter-schwarzschild": {"kappa": 0.05}, "reissner-nordstrom": {"q": 0.3}}
    return make_model(family, n, **params.get(family, {})), axisym_grid(n, 48)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["schwarzschild", "desitter-schwarzschild", "reissner-nordstrom"]),
    n=st.sampled_from([3, 4, 5]),
    degree=st.integers(min_value=1, max_value=4),
    amplitude=st.floats(min_value=-0.05, max_value=0.05),
    position=st.floats(min_value=0.05, max_value=1.0),
)
# two solves whose residual lands just under cmc_tol; with the volume row
# only to second order each takes one more iteration for the volume
@example("reissner-nordstrom", 4, 1, -0.016202031408212907, 0.4586707684431828)
@example("schwarzschild", 4, 1, -0.016818456868144364, 0.5430245640490439)
def test_solve_stops_at_its_first_iterate_below_the_tolerance(
    family, n, degree, amplitude, position
):
    # the cubic volume row lands the volume with the step that brings the
    # residual under cmc_tol, so no iteration is spent on the volume alone.
    # Radii run over the band of the benchmark corpus, s_floor to
    # min(s_max, 3 s_floor), from 5% in: right at the horizon the volume
    # rate h^(n-1) h' vanishes and the row can still miss by more
    w, engine = _horizon_ambient(family, n)
    top = min(w.profile.s_max, 3.0 * w.profile.s_floor)
    radius = float(w.distance_of_area_radius(w.profile.s_floor + position * (top - w.profile.s_floor)))
    peak = float(np.max(np.abs(engine.mode(degree, 0))))
    surface = perturb_slice(w, engine, radius, [(degree, 0, amplitude * radius / peak)])
    result = find_cmc(surface)
    assert result.converged
    volume = surface.enclosed_weighted_volume()
    assert abs(result.surface.enclosed_weighted_volume() - volume) <= 1e-13 * max(abs(volume), 1.0)
    history = result.residual_history
    assert history[-1] < 1e-7
    assert np.all(history[:-1] >= 1e-7)
