"""Hypersurfaces of a warped ambient and their pointwise geometry.

One kernel, ``parametrized_geometry``, serves every surface: it takes
the frame jet of the radius, the warp jet at its radii and the jet of
the sphere map of a parametrized surface and returns mean
curvature, umbilicity deficit, support function and area measure,
plus the sphere part of the unit normal.  A radial graph rho(y) is the
parametrization whose sphere map is the identity, a constant jet each
engine keeps; the conformal flow feeds the kernel the sphere map it
transports.  Derivatives are spectral; no finite differences anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, WarpcmcError
from .spectral import get_engine
from .warping import WarpingFunction

__all__ = [
    "GeometryReport",
    "GraphSurface",
    "parametrized_geometry",
    "full_sphere_grid",
    "axisym_grid",
    "slice_surface",
    "perturb_slice",
]


def full_sphere_grid(nlat: int = 64):
    """Spectral grid resolving the whole parameter sphere (dimension 3)."""
    return get_engine("full", 3, nlat)


def axisym_grid(dim: int, points: int = 256):
    """Spectral grid for surfaces symmetric about the polar axis."""
    return get_engine("axisym", dim, points)


@dataclass(frozen=True)
class GeometryReport:
    """Pointwise geometry of a surface on the parameter grid.

    Every array has the engine's grid shape.  ``radii``, ``warp``,
    ``potential``, ``potential_slope`` and ``potential_curvature`` are r,
    h(r), f = h'(r), f' = h''(r) and f'' = h'''(r) at each node;
    ``nu_radial`` is the radial component of the unit normal and
    ``support`` = h nu_radial the support function g(h d/dr, nu).
    ``area_density`` is the surface measure against the round one, and
    ``area`` integrates it against the grid weights; ``shape_deficit``
    is the Frobenius norm of the trace-free shape operator, the
    pointwise umbilicity defect.
    """

    area: float
    radii: np.ndarray
    warp: np.ndarray
    potential: np.ndarray
    potential_slope: np.ndarray
    potential_curvature: np.ndarray
    mean_curvature: np.ndarray
    shape_deficit: np.ndarray
    nu_radial: np.ndarray
    support: np.ndarray
    area_density: np.ndarray


def shape_trace_deficit(metric, second_form):
    """Trace and umbilicity deficit of the shape operator of a 2-surface.

    ``metric`` and ``second_form`` are the (11, 12, 22) components in any
    parametrization.  The shape operator is taken to an orthonormal frame of
    the induced metric through the Cholesky factor of the 2x2 metric; the
    deficit is the Frobenius norm of its trace-free part.
    """
    g11, g12, g22 = metric
    ii11, ii12, ii22 = second_form
    l11 = np.sqrt(g11)
    l21 = g12 / l11
    l22 = np.sqrt(g22 - l21 * l21)
    ratio = l21 / l11
    a11 = ii11 / l11
    a12 = ii12 / l11
    b11 = (ii12 - l21 * a11) / l22
    b12 = (ii22 - l21 * a12) / l22
    s11 = a11 / l11
    s12 = (a12 - a11 * ratio) / l22
    s21 = b11 / l11
    s22 = (b12 - b11 * ratio) / l22
    s12 = 0.5 * (s12 + s21)
    return s11 + s22, np.sqrt(2.0 * (0.25 * (s11 - s22) ** 2 + s12 * s12))


def _dot(a, b):
    """Euclidean inner product of 3-vector fields stacked on the leading axis."""
    return np.einsum("c...,c...->...", a, b)


def _cross(a, b):
    """Cross product of 3-vector fields stacked on the leading axis."""
    return np.stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _sphere_products(y, y1, y2):
    """(y1.y1, y1.y2, y2.y2) and the triple product <y, y1 x y2> of a full-mode sphere jet."""
    return _dot(y1, y1), _dot(y1, y2), _dot(y2, y2), _dot(y, _cross(y1, y2))


@functools.cache
def _identity_products(engine):
    """``_sphere_products`` of the engine's identity map, computed once per engine."""
    return _sphere_products(*engine.identity_jet[:3])


def parametrized_geometry(engine, warp_jet, radius_jet, sphere_jet, orient=None):
    """Geometry of a surface p -> (r(p), y(p)) over the parameter sphere.

    ``radius_jet`` is the engine's frame jet of r, and ``warp_jet`` is
    (h, h', h'', h''') at its radii ``radius_jet[0]``.  ``sphere_jet`` is,
    in full mode, the frame jet (y, y1, y2, y11, y12, y22) of the sphere map
    with 3-vectors on the leading axis; in axisymmetric mode it is the
    meridian data (cot beta, sin beta / sin theta, beta', beta'') of the
    polar angle beta(theta).  The identity map (``engine.identity_jet``)
    makes the surface a radial graph, whose normal points outward.
    ``orient`` optionally supplies the flow velocity with its components
    on the leading axis; the normal then points against it, which keeps
    the orientation once the surface is no longer a graph.

    Returns the report and the sphere part of the unit normal in the
    coordinates of the sphere map: a 3-vector field in full mode, the
    beta component in axisymmetric mode.
    """
    h, hp, hpp, hppp = warp_jet
    hh = h * h
    full = engine.kind == "full"
    if full:
        rr, r1, r2, dr11, dr12, dr22 = radius_jet
        y, y1, y2, d11, d12, d22 = sphere_jet
        identity = sphere_jet is engine.identity_jet
        products = _identity_products(engine) if identity else _sphere_products(y, y1, y2)
        g_y11, g_y12, g_y22, triple = products
        gam11 = r1 * r1 + hh * g_y11
        gam12 = r1 * r2 + hh * g_y12
        gam22 = r2 * r2 + hh * g_y22
        det = gam11 * gam22 - gam12 * gam12
        if np.min(det) <= 0.0:
            raise WarpcmcError("degenerate parametrization: induced metric not positive")

        # in the orthonormal (d/dr, T_y S^2) frame the cross product of the
        # tangent vectors (r_a, h y_a) is h (h <y, y1 x y2>, y x (r1 y2 - r2 y1));
        # any component of y_a along y drops out
        nu_sphere = _cross(y, r1 * y2 - r2 * y1)
        norm = np.sqrt(hh * triple * triple + _dot(nu_sphere, nu_sphere))
        n_r = h * triple / norm
        nu_sphere = nu_sphere / (h * norm)

        hhp, hp2_h = h * hp, 2.0 * hp / h

        # the normal is orthogonal to (r_a, h y_a): h^2 <y_a, nu_sphere> = -r_a n_r
        def second(dab, rab, gab, rr):
            return -(n_r * (rab - hhp * gab - hp2_h * rr) + hh * _dot(nu_sphere, dab))

        ii11 = second(d11, dr11, g_y11, r1 * r1)
        ii12 = second(d12, dr12, g_y12, r1 * r2)
        ii22 = second(d22, dr22, g_y22, r2 * r2)
        mean, deficit = shape_trace_deficit((gam11, gam12, gam22), (ii11, ii12, ii22))
        density = np.sqrt(det)
    else:
        n = engine.dim
        rr, r1, r11 = radius_jet
        cot_b, sin_ratio, b1, b11 = sphere_jet
        hb = h * b1
        r1sq = r1 * r1
        gam11 = r1sq + hb * hb
        if np.min(gam11) <= 0.0:
            raise WarpcmcError("degenerate parametrization: induced metric not positive")
        sq = np.sqrt(gam11)
        n_r = hb / sq
        nu_sphere = -r1 / (h * sq)
        # meridian and transverse principal curvatures
        hpb1 = hp * b1
        s_m = (hpb1 * (gam11 + r1sq) - h * (b1 * r11 - r1 * b11)) / (sq * gam11)
        s_t = hpb1 / sq + cot_b * nu_sphere
        mean = s_m + (n - 2) * s_t
        deficit = math.sqrt((n - 2) / (n - 1)) * np.abs(s_m - s_t)
        density = sq * (h * sin_ratio) ** (n - 2)
    if orient is not None:
        # the flow moves along -f nu, so g(nu, v) must come out negative
        sphere_part = _dot(nu_sphere, orient[1:]) if full else nu_sphere * orient[1]
        sign = np.where(n_r * orient[0] + hh * sphere_part > 0.0, -1.0, 1.0)
        n_r, nu_sphere, mean = sign * n_r, sign * nu_sphere, sign * mean
    report = GeometryReport(
        area=engine.integrate(density),
        radii=rr,
        warp=h,
        potential=hp,
        potential_slope=hpp,
        potential_curvature=hppp,
        mean_curvature=mean,
        shape_deficit=deficit,
        nu_radial=n_r,
        support=h * n_r,
        area_density=density,
    )
    return report, nu_sphere


def graph_geometry(warping, engine, radii):
    """``parametrized_geometry`` of the radial graph of ``radii``, at the synthesized radii."""
    jet = engine.on_frame_jet(radii)
    return parametrized_geometry(engine, warping.jet(jet[0]), jet, engine.identity_jet)


class GraphSurface:
    """Radial graph rho over the parameter sphere of a warped ambient."""

    def __init__(self, warping: WarpingFunction, engine, radii):
        radii = np.asarray(radii, dtype=float)
        if radii.shape != engine.grid_shape:
            raise ParameterError(f"radius grid must have shape {engine.grid_shape}")
        if engine.kind == "full" and warping.dim != 3:
            raise ParameterError("full mode needs ambient dimension 3")
        if engine.kind == "axisym" and getattr(engine, "dim", warping.dim) != warping.dim:
            raise ParameterError("engine dimension must match the ambient")
        if radii.min() <= 0.0 or radii.max() >= warping.r_bar:
            raise DomainError(
                f"graph must stay strictly inside (0, {warping.r_bar}); "
                f"range [{radii.min()}, {radii.max()}]"
            )
        self.warping = warping
        self.engine = engine
        self.radii = radii
        self._report = None

    def geometry(self) -> GeometryReport:
        """Assemble and cache the curvature report."""
        if self._report is None:
            self._report, _ = graph_geometry(self.warping, self.engine, self.radii)
        return self._report

    # -- integrals -------------------------------------------------------

    def integrate(self, values) -> float:
        """Integral of a grid function against the surface measure."""
        rep = self.geometry()
        return self.engine.integrate(np.asarray(values) * rep.area_density)

    def enclosed_weighted_volume(self) -> float:
        """Integral of the potential inside the surface the engine represents."""
        w = self.warping
        return _enclosed_volume(self.engine, self.geometry().warp, w.dim, w.inner_jet[0] ** w.dim)


def _enclosed_volume(engine, h, n, inner) -> float:
    """Weighted volume inside a radial graph whose warp values are ``h``.

    The region runs from the inner boundary of the chart, where h^n is
    ``inner``, out to the graph; radially the potential integrates in
    closed form, since h' h^{n-1} is the exact derivative of h^n / n.
    """
    return engine.integrate((h**n - inner) / n)


def slice_surface(warping: WarpingFunction, engine, radius: float) -> GraphSurface:
    """The coordinate slice at constant radius."""
    if not (0.0 < radius < warping.r_bar):
        raise DomainError(f"slice radius must lie in (0, {warping.r_bar})")
    return GraphSurface(warping, engine, np.full(engine.grid_shape, radius))


def perturb_slice(
    warping: WarpingFunction,
    engine,
    radius: float,
    modes,
) -> GraphSurface:
    """Slice plus a sum of unit-norm real harmonics.

    ``modes`` is an iterable of (degree, order, amplitude); orders must
    be zero in axisymmetric mode and degrees must be resolved by the
    grid.  The perturbed graph must stay strictly inside the chart.
    """
    if not (0.0 < radius < warping.r_bar):
        raise DomainError(f"slice radius must lie in (0, {warping.r_bar})")
    rho = np.full(engine.grid_shape, radius)
    for l, m, amp in modes:
        rho = rho + engine.mode(int(l), int(m), float(amp))
    return GraphSurface(warping, engine, rho)
