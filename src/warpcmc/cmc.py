"""Constant mean curvature surfaces at fixed enclosed weighted volume.

The solver moves a radial graph by a Newton step on H = H_bar, with the
area-weighted mean H_bar as the Lagrange multiplier of the volume
constraint.  Its Jacobian is the Jacobi operator of the slice at the
current mean radius, which is diagonal in spherical degree:

    h^2 lambda_l = l(l+n-2) - (n-1) h'^2 + (n-1) h h''
                 = l(l+n-2) - (n-1) + (n-1) h^2 ricci_gap_margin.

Degree 0 comes from the border row, the volume constraint to third
order: with V = h^n / n and D = delta + c, one Newton step from the
linear row's uniform shift c makes the integral of V'D + V''D^2/2 +
V'''D^3/6 meet the volume still missing.  It misses by O(D^4), so one
Newton loop solves for the graph, H_bar and the volume together.
Degree 1 carries (n-1) h^2 times the Ricci gap margin, the quantity of
the paper's rigidity argument; where that dimensionless gap vanishes
(the translations of a space form) the step leaves degree 1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .surface import GraphSurface, _enclosed_volume
from .warping import WarpingFunction, _curvature

__all__ = [
    "CmcResult",
    "RigidityVerdict",
    "find_cmc",
    "umbilicity_verdict",
]

CMC_TOL = 1e-7
CMC_MAX_ITER = 2000
SLICE_TOL_FACTOR = 1e-5
# a converged solve whose umbilicity deficit is below this is umbilic
DEFICIT_TOL = 1e-5
# a dimensionless Ricci gap h^2 * ricci_gap_margin at or below this is
# degenerate: the slice Jacobi operator has the degree-1 kernel of the
# space-form translations, and no umbilic solve certifies a slice
GAP_TOL = 1e-9


@dataclass(frozen=True)
class CmcResult:
    """Outcome of one CMC solve.

    ``cmc_residual`` is the sup norm of H - H_bar in curvature units;
    ``umbilicity_deficit`` the sup norm of the trace-free shape
    operator on the final surface; ``is_slice`` whether the graph is
    radially constant to within 1e-5 r_bar.  ``converged`` implies the
    residual beat the tolerance and the volume met its target;
    otherwise ``reason`` says what stopped the run.
    ``residual_history`` records the residual after every iteration.
    """

    surface: GraphSurface
    mean_H: float
    cmc_residual: float
    umbilicity_deficit: float
    is_slice: bool
    iterations: int
    converged: bool
    reason: str
    residual_history: np.ndarray


def _mean_radius(engine, radii) -> float:
    """Area-weighted mean of graph radii over the engine's sphere."""
    return float(np.sum(engine.area_weights * radii)) / engine.sphere_area


def _scaled_gap(warping, r):
    """h(r) and the dimensionless Ricci gap h(r)^2 ricci_gap_margin(r).

    h^2 times the gap of the one curvature record at r (``_curvature``): the
    ambient's closed form where it has one, so it is exactly 0 in a space form.
    """
    curvature = _curvature(warping, r)
    h = curvature.jet[0]
    return h, h * h * curvature.gap


def find_cmc(
    surface: GraphSurface,
    cmc_tol: float = CMC_TOL,
    max_iter: int = CMC_MAX_ITER,
) -> CmcResult:
    """Solve for a CMC graph enclosing the same weighted volume as ``surface``.

    Each iteration reads H and h to h''' from one geometry report, takes
    the Newton step delta_l = h^2 (H_bar - H)_l / mu_l with the slice
    Jacobi eigenvalues mu_l at the area-weighted mean radius (module
    docstring), degrees 0 and (for a degenerate gap) 1 excluded, and
    adds the uniform shift of the cubic volume row.  Stops when
    sup|H - H_bar| < cmc_tol and the volume misses its target by at
    most 1e-13 max(|target|, 1), or after max_iter iterations; a graph
    that leaves the chart or a non-finite update ends the run with
    converged = False and the reason recorded.
    """
    if not cmc_tol > 0.0:
        raise ParameterError("cmc_tol must be positive")
    if max_iter < 0:
        raise ParameterError("max_iter must be non-negative")

    warping = surface.warping
    engine = surface.engine
    n = warping.dim
    target = surface.enclosed_weighted_volume()
    volume_tol = 1e-13 * max(abs(target), 1.0)
    inner = warping.inner_jet[0] ** n  # h^n at the inner boundary

    current = surface
    history = []
    reason = "max_iter"
    iterations = 0

    degrees = np.arange(engine.lmax + 1, dtype=float)
    laplace = degrees * (degrees + n - 2)

    while True:
        rep = current.geometry()
        h_bar = float(engine.integrate(rep.mean_curvature * rep.area_density) / rep.area)
        residual = float(np.abs(rep.mean_curvature - h_bar).max())
        if iterations == max_iter:
            break
        iterations += 1
        history.append(residual)
        missing = target - _enclosed_volume(engine, rep.warp, n, inner)
        if residual < cmc_tol and abs(missing) <= volume_tol:
            reason = "converged"
            break

        h, gap = _scaled_gap(warping, _mean_radius(engine, rep.radii))
        mu = laplace - (n - 1) * (1.0 - gap)
        # degree 0 is the volume row's; degree 1 is left alone where a
        # degenerate gap makes it the kernel of translations
        factor = np.zeros(mu.shape)
        first = 1 if abs(gap) > GAP_TOL else 2
        factor[first:] = h * h / mu[first:]
        hn1 = rep.warp ** (n - 1)
        # graph speed of a surface moving with normal speed H_bar - H
        w_factor = rep.area_density / hn1
        delta = engine.filter_degrees((h_bar - rep.mean_curvature) * w_factor, factor)
        # the cubic volume row (module docstring); rate, v2 and v3 are V', V'' and V'''
        f, fp, fh = rep.potential, rep.potential_slope, rep.potential / rep.warp
        rate, ffh = hn1 * f, f * fh
        step = delta + (missing - engine.integrate(rate * delta)) / engine.integrate(rate)
        v2 = hn1 * ((n - 1) * ffh + fp)
        v3 = hn1 * (fh * ((n - 1) * (n - 2) * ffh + 3 * (n - 1) * fp) + rep.potential_curvature)
        miss, slope = step * step * (v2 / 2 + v3 * step / 6), rate + step * (v2 + v3 * step / 2)
        step -= engine.integrate(miss) / engine.integrate(slope)
        rho = rep.radii + step
        if not np.isfinite(rho).all():
            reason = "update diverged"
            break
        try:
            current = GraphSurface(warping, engine, rho)
        except DomainError:
            reason = "graph left the chart"
            break

    spread = np.max(np.abs(rep.radii - _mean_radius(engine, rep.radii)))
    is_slice = bool(spread < SLICE_TOL_FACTOR * warping.r_bar)
    return CmcResult(
        surface=current,
        mean_H=h_bar,
        cmc_residual=residual,
        umbilicity_deficit=float(np.max(rep.shape_deficit)),
        is_slice=is_slice,
        iterations=iterations,
        converged=reason == "converged",
        reason=reason,
        residual_history=np.asarray(history),
    )


@dataclass(frozen=True)
class RigidityVerdict:
    """Cross-check of a converged CMC solve against the rigidity chain.

    Where the Ricci eigenvalue gap at the mean radius is positive, an
    umbilic CMC surface must be a slice; a converged, umbilic, non-slice
    solve there raises ``alarm``.  The verdict keeps no eigenvalue:
    ``ricci_eigenvalues(ambient, mean_radius)`` gives them.
    """

    mean_radius: float
    gap_margin: float
    alarm: bool
    conclusion: str


def umbilicity_verdict(result: CmcResult, ambient: WarpingFunction) -> RigidityVerdict:
    """Classify a converged CMC solve by the eigenvalue-gap dichotomy.

    The solve is umbilic when its deficit is below DEFICIT_TOL.  The gap
    is judged scale-free, by h^2 ricci_gap_margin at the mean radius
    against GAP_TOL; ``gap_margin`` reports the raw margin.
    """
    if not result.converged:
        raise ParameterError("the rigidity verdict needs a converged result")
    mean_r = _mean_radius(result.surface.engine, result.surface.geometry().radii)
    h, gap = _scaled_gap(ambient, mean_r)
    effective = gap if ambient.variant == "boundary" else abs(gap)

    umbilic = result.umbilicity_deficit < DEFICIT_TOL
    alarm = bool(effective > GAP_TOL and umbilic and not result.is_slice)
    if alarm:
        conclusion = "alarm"
    elif not umbilic:
        conclusion = "inconclusive"
    elif effective > GAP_TOL:
        conclusion = "slice-rigidity-confirmed"
    else:
        conclusion = "umbilic-degenerate-gap"
    return RigidityVerdict(
        mean_radius=mean_r,
        gap_margin=float(gap / (h * h)),
        alarm=alarm,
        conclusion=conclusion,
    )
