"""Integral identity and inequality checks.

The flux identity holds for every closed graph, so its residual is a
pure measure of spectral assembly error and must fall fast under grid
refinement.  The weighted flux and volumetric bounds reach equality
exactly on slices; on the s = 2 Schwarzschild slice both sides of the
volumetric identity equal 32 pi.
"""

import dataclasses
import math

import numpy as np
import pytest

from warpcmc import (
    HypothesisError,
    axisym_grid,
    euclidean_warping,
    full_sphere_grid,
    hk_check,
    minkowski_check,
    minkowski_weighted_check,
    perturb_slice,
    slice_surface,
)
from warpcmc.identities import _report


def test_minkowski_identity_on_slices(schw3):
    engine = axisym_grid(3, 48)
    for radius in (0.4, 1.1, 2.0):
        rep = minkowski_check(slice_surface(schw3, engine, radius))
        assert rep.verdict == "equality"
        assert abs(rep.residual) < 1e-10 * max(abs(rep.lhs), 1.0)


def test_minkowski_identity_on_perturbed_graphs(schw3):
    engine = full_sphere_grid(48)
    surface = perturb_slice(schw3, engine, 2.0, [(2, 1, 0.08), (3, -2, 0.05)])
    rep = minkowski_check(surface)
    assert rep.verdict == "equality"


def test_minkowski_residual_converges(schw3):
    # amplitudes big enough that the nonlinear harmonic cascade is still
    # unresolved at 32 latitudes; refinement must then pay off fast
    modes = [(2, 1, 0.175), (9, -4, 0.11), (12, 7, 0.09)]
    residuals = []
    for size in (32, 64):
        surface = perturb_slice(schw3, full_sphere_grid(size), 2.2, modes)
        residuals.append(abs(minkowski_check(surface).residual))
    assert residuals[1] < 1e-8 * max(1.0, 8.0 * math.pi)
    assert residuals[0] / max(residuals[1], 1e-16) > 100.0


def test_weighted_minkowski_slice_equality(schw3):
    engine = axisym_grid(3, 48)
    rep = minkowski_weighted_check(slice_surface(schw3, engine, 1.5))
    assert rep.verdict == "equality"


def test_weighted_minkowski_strict_on_tilted_graphs(schw3):
    engine = axisym_grid(3, 64)
    surface = perturb_slice(schw3, engine, 1.5, [(2, 0, 0.12)])
    rep = minkowski_weighted_check(surface)
    assert rep.verdict == "inequality-satisfied"
    assert rep.residual < 0.0
    # the deficit is exactly the tilt integral carried in the detail
    assert rep.residual == pytest.approx(-rep.detail["slack"], rel=1e-6)


def test_weighted_minkowski_takes_no_grid_jet(schw3):
    # h'' comes from the geometry report; the check's own jets are the
    # monotone-range scan's, none of them on the surface grid
    shapes = []

    def counting(r):
        shapes.append(np.shape(r))
        return schw3._jet(r)

    w = dataclasses.replace(schw3, _jet=counting)
    engine = axisym_grid(3, 64)
    surface = perturb_slice(w, engine, 1.5, [(2, 0, 0.12)])
    surface.geometry()
    shapes.clear()
    rep = minkowski_weighted_check(surface)
    assert rep.verdict == "inequality-satisfied"
    assert engine.grid_shape not in shapes

def test_weighted_minkowski_needs_boundary():
    w = euclidean_warping(3)
    engine = axisym_grid(3, 32)
    with pytest.raises(HypothesisError):
        minkowski_weighted_check(slice_surface(w, engine, 1.0))


def test_weighted_minkowski_monotone_range_guard(cosine_boundary):
    # the cosine ambient potential turns over at 0.7; a surface beyond
    # that radius is outside the inequality's hypotheses
    engine = axisym_grid(3, 32)
    with pytest.raises(HypothesisError, match="monotone"):
        minkowski_weighted_check(slice_surface(cosine_boundary, engine, 0.9))


def test_hk_slice_value_schwarzschild(schw3):
    engine = axisym_grid(3, 48)
    radius = schw3.distance_of_area_radius(2.0)
    rep = hk_check(slice_surface(schw3, engine, radius))
    assert rep.verdict == "equality"
    assert rep.lhs == pytest.approx(32.0 * math.pi, rel=1e-9)
    assert rep.rhs == pytest.approx(32.0 * math.pi, rel=1e-9)


def test_hk_slice_equality_ball():
    w = euclidean_warping(3)
    engine = axisym_grid(3, 48)
    rep = hk_check(slice_surface(w, engine, 1.2))
    assert rep.verdict == "equality"
    assert rep.lhs == pytest.approx(4.0 * math.pi * 1.2**3, rel=1e-11)


def test_hk_strict_on_non_umbilic(schw3):
    engine = axisym_grid(3, 64)
    surface = perturb_slice(schw3, engine, 2.0, [(2, 0, 0.1)])
    rep = hk_check(surface)
    assert rep.verdict == "inequality-satisfied"
    assert rep.residual > 0.0


def test_hk_residual_grows_with_amplitude(schw3):
    engine = axisym_grid(3, 64)
    residuals = []
    for amp in (0.02, 0.05, 0.1):
        rep = hk_check(perturb_slice(schw3, engine, 2.0, [(2, 0, amp)]))
        residuals.append(rep.residual)
    assert residuals[0] > 0.0
    assert residuals[1] > residuals[0]
    assert residuals[2] > residuals[1]


def test_hk_rejects_negative_mean_curvature():
    w = euclidean_warping(3)
    engine = axisym_grid(3, 64)
    surface = perturb_slice(w, engine, 1.0, [(5, 0, 0.25)])
    with pytest.raises(HypothesisError, match="mean curvature"):
        hk_check(surface)


@pytest.mark.parametrize("sign", [0, -1, 1])
@pytest.mark.parametrize("lhs, rhs", [(2.0, 1.0), (1.0, 2.0), (-2.0, -1.0)])
def test_verdict_rule_at_the_tolerance_edge(sign, lhs, rhs):
    # |lhs - rhs| = 1 is exactly tol * scale at tol 0.5, and one ulp outside
    # it at the next float below 0.5: only then does the sign decide
    at = _report("edge", lhs, rhs, 0.5, sign, {})
    assert (at.verdict, at.residual, at.tol) == ("equality", lhs - rhs, 0.5)
    outside = _report("edge", lhs, rhs, math.nextafter(0.5, 0.0), sign, {})
    assert outside.verdict == ("inequality-satisfied" if sign * (lhs - rhs) > 0 else "violated")


@pytest.mark.parametrize("sign", [0, -1, 1])
def test_verdict_rule_nan_and_zero(sign):
    assert _report("nan", math.nan, 1.0, 1e-8, sign, {}).verdict == "violated"
    assert _report("nan", 1.0, math.nan, 1e-8, sign, {}).verdict == "violated"
    assert _report("zero", 0.0, 0.0, 1e-8, sign, {}).verdict == "equality"
    # the 1e-300 floor of the scale makes a subnormal residual an equality
    assert _report("tiny", 1e-310, 0.0, 1e-8, sign, {}).verdict == "equality"
