"""Integral identities and inequalities for closed graph surfaces.

Three checks, each returning a small report instead of a bare boolean:
the flux identity that balances mean curvature against the potential,
its weighted variant (an inequality once the potential stops being
constant), and the volumetric inequality comparing the inverse mean
curvature integral with the enclosed weighted volume.  Verdicts record
whether the computed sides agree to tolerance, satisfy the inequality
with room, or violate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .surface import GraphSurface
from .warping import potential_monotone_radius

__all__ = [
    "IdentityReport",
    "minkowski_check",
    "minkowski_weighted_check",
    "hk_check",
]


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


def _scale(lhs: float, rhs: float) -> float:
    return max(abs(lhs), abs(rhs), 1e-300)


def minkowski_check(surface: GraphSurface, tol: float = 1e-8) -> IdentityReport:
    """Flux identity: integral of H <X, nu> equals (n-1) integral of f.

    Holds exactly on every closed hypersurface of these ambients;
    failures beyond tolerance indicate discretization error, not
    geometry.
    """
    rep = surface.geometry()
    n = surface.warping.dim
    lhs = surface.integrate(rep.mean_curvature * rep.support)
    rhs = (n - 1.0) * surface.integrate(rep.potential)
    resid = lhs - rhs
    verdict = "equality" if abs(resid) <= tol * _scale(lhs, rhs) else "violated"
    return IdentityReport(
        name="minkowski",
        lhs=lhs,
        rhs=rhs,
        residual=resid,
        tol=tol,
        verdict=verdict,
        detail={"area": rep.area},
    )


def minkowski_weighted_check(surface: GraphSurface, tol: float = 1e-8) -> IdentityReport:
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
    r1 = potential_monotone_radius(w)
    rho_max = float(np.max(rep.radii))
    if rho_max >= r1:
        raise HypothesisError(
            f"surface reaches radius {rho_max:.6g}, beyond the monotone range {r1:.6g}"
        )
    if np.min(rep.potential) <= 0.0:
        raise HypothesisError("potential must stay positive on the surface")
    lhs = surface.integrate(rep.mean_curvature * rep.support / rep.potential)
    rhs = (w.dim - 1.0) * rep.area
    resid = lhs - rhs
    slack = surface.integrate(
        rep.warp * rep.potential_slope * (1.0 - rep.nu_radial**2) / rep.potential**2
    )
    scale = _scale(lhs, rhs)
    if abs(resid) <= tol * scale:
        verdict = "equality"
    elif resid < 0.0:
        verdict = "inequality-satisfied"
    else:
        verdict = "violated"
    return IdentityReport(
        name="minkowski-weighted",
        lhs=lhs,
        rhs=rhs,
        residual=resid,
        tol=tol,
        verdict=verdict,
        detail={"slack": slack, "monotone_radius": r1, "max_radius": rho_max},
    )


def hk_check(surface: GraphSurface, tol: float = 1e-6) -> IdentityReport:
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
    h0 = w.jet(0.0)[0]
    boundary_term = h0**n * w.base_volume
    rhs = n * surface.enclosed_weighted_volume() + boundary_term
    resid = lhs - rhs
    scale = _scale(lhs, rhs)
    if abs(resid) <= tol * scale:
        verdict = "equality"
    elif resid > 0.0:
        verdict = "inequality-satisfied"
    else:
        verdict = "violated"
    return IdentityReport(
        name="hk",
        lhs=lhs,
        rhs=rhs,
        residual=resid,
        tol=tol,
        verdict=verdict,
        detail={
            "min_mean_curvature": h_min,
            "boundary_term": boundary_term,
            "weighted_volume": rhs / n - boundary_term / n,
        },
    )
