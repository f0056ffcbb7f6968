"""Integral identities and inequalities for closed graph surfaces.

Three checks, each returning a small report instead of a bare boolean:
the flux identity that balances mean curvature against the potential,
its weighted variant (an inequality once the potential stops being
constant), and the volumetric inequality comparing the inverse mean
curvature integral with the enclosed weighted volume.  One rule decides
every verdict: "equality" when |lhs - rhs| <= tol max(|lhs|, |rhs|,
1e-300), else "inequality-satisfied" when sign (lhs - rhs) > 0 with sign
0, -1 and +1 for the three checks, else "violated" (so is a NaN residual).
Only the weighted check carries a detail, its ``slack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .surface import GraphSurface

__all__ = [
    "IdentityReport",
    "minkowski_check",
    "minkowski_weighted_check",
    "hk_check",
]

TOL_MINKOWSKI = 1e-8
TOL_HEINTZE_KARCHER = 1e-6


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one integral check.

    ``residual`` is lhs - rhs; the meaning of a positive residual
    depends on the check and is folded into ``verdict``.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    verdict: str
    detail: dict = field(default_factory=dict)


def _report(name: str, lhs: float, rhs: float, tol: float, sign: int, detail: dict) -> IdentityReport:
    """The report of a check whose inequality reads sign (lhs - rhs) > 0 (module docstring)."""
    resid = lhs - rhs
    if abs(resid) <= tol * max(abs(lhs), abs(rhs), 1e-300):
        verdict = "equality"
    elif sign * resid > 0.0:
        verdict = "inequality-satisfied"
    else:
        verdict = "violated"
    return IdentityReport(name, lhs, rhs, resid, tol, verdict, detail)


def minkowski_check(surface: GraphSurface) -> IdentityReport:
    """Flux identity: integral of H <X, nu> equals (n-1) integral of f.

    Holds exactly on every closed hypersurface of these ambients;
    failures beyond TOL_MINKOWSKI (relative) indicate discretization
    error, not geometry.
    """
    rep = surface.geometry()
    n = surface.warping.dim
    lhs = surface.integrate(rep.mean_curvature * rep.support)
    rhs = (n - 1.0) * surface.integrate(rep.potential)
    return _report("minkowski", lhs, rhs, TOL_MINKOWSKI, 0, {})


def minkowski_weighted_check(surface: GraphSurface) -> IdentityReport:
    """Weighted flux inequality: integral of (H/f) <X, nu> at most (n-1) area.

    Needs a boundary-variant ambient whose potential is still strictly
    increasing across the radial range of the surface; equality holds
    exactly on slices.  The deviation equals the integral of
    f^{-2} h h'' (1 - nu_r^2), which the report carries as ``slack``.
    """
    w = surface.warping
    rep = surface.geometry()
    if w.variant != "boundary":
        raise HypothesisError("weighted flux check needs a boundary-variant ambient")
    r1 = w.monotone_radius
    rho_max = float(np.max(rep.radii))
    if rho_max >= r1:
        raise HypothesisError(
            f"surface reaches radius {rho_max:.6g}, beyond the monotone range {r1:.6g}"
        )
    if np.min(rep.potential) <= 0.0:
        raise HypothesisError("potential must stay positive on the surface")
    lhs = surface.integrate(rep.mean_curvature * rep.support / rep.potential)
    rhs = (w.dim - 1.0) * rep.area
    slack = surface.integrate(
        rep.warp * rep.potential_slope * (1.0 - rep.nu_radial**2) / rep.potential**2
    )
    return _report("minkowski-weighted", lhs, rhs, TOL_MINKOWSKI, -1, {"slack": slack})


def hk_check(surface: GraphSurface) -> IdentityReport:
    """Volumetric inequality for mean-convex surfaces.

    (n-1) times the integral of f/H must not fall below n times the
    enclosed weighted volume plus the inner-boundary term h(0)^n vol(N);
    slices achieve equality.  Needs H > 0 everywhere.
    """
    w = surface.warping
    rep = surface.geometry()
    h_min = float(np.min(rep.mean_curvature))
    if h_min <= 0.0:
        raise HypothesisError(f"mean curvature must be positive, min H = {h_min:.6g}")
    n = w.dim
    lhs = (n - 1.0) * surface.integrate(rep.potential / rep.mean_curvature)
    rhs = n * surface.enclosed_weighted_volume() + w.inner_jet[0] ** n * w.base_volume
    return _report("hk", lhs, rhs, TOL_HEINTZE_KARCHER, 1, {})
