"""Hypersurfaces written as radial graphs over the parameter sphere.

A graph assigns a radius rho(y) to every direction y; the induced
metric, second fundamental form, and the scalars every check needs
(mean curvature, umbilicity deficit, support function, area measure)
all come out of the warp jet at rho together with spectral derivatives
of rho on the round sphere.  No finite differences anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .spectral import get_engine
from .warping import WarpingFunction

__all__ = [
    "GeometryReport",
    "GraphSurface",
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
    """Pointwise geometry of a graph surface.

    ``metric`` and ``second_form`` hold the independent components in
    the orthonormal frame of the round sphere: (11, 12, 22) in full
    mode, (meridian, transverse) in axisymmetric mode, the transverse
    entry carrying multiplicity n-2.  ``area`` integrates the measure
    density against the grid weights; ``shape_deficit`` is the
    Frobenius norm of the trace-free shape operator, the pointwise
    umbilicity defect.
    """

    mode: str
    area: float
    radii: np.ndarray
    warp: np.ndarray
    potential: np.ndarray
    mean_curvature: np.ndarray
    shape_deficit: np.ndarray
    nu_radial: np.ndarray
    support: np.ndarray
    area_density: np.ndarray
    metric: tuple
    second_form: tuple


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


class GraphSurface:
    """Radial graph rho over the parameter sphere of a warped ambient."""

    def __init__(self, warping: WarpingFunction, engine, radii):
        radii = np.asarray(radii, dtype=float)
        expected = (
            (engine.nlat, engine.nlon) if engine.kind == "full" else (engine.npoints,)
        )
        if radii.shape != expected:
            raise ParameterError(f"radius grid must have shape {expected}")
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

    @property
    def mode(self) -> str:
        return self.engine.kind

    def geometry(self) -> GeometryReport:
        """Assemble and cache the curvature report."""
        if self._report is None:
            self._report = (
                self._geometry_full() if self.mode == "full" else self._geometry_axisym()
            )
        return self._report

    def _geometry_full(self) -> GeometryReport:
        eng = self.engine
        rho, r1, r2, d11, d12, d22 = eng.on_frame_jet(self.radii)
        h, hp, _, _ = self.warping.jet(rho)
        grad2 = r1 * r1 + r2 * r2
        w = np.sqrt(1.0 + grad2 / (h * h))
        two = 2.0 * hp / h
        ii11 = (-d11 + two * r1 * r1 + h * hp) / w
        ii12 = (-d12 + two * r1 * r2) / w
        ii22 = (-d22 + two * r2 * r2 + h * hp) / w
        g11 = r1 * r1 + h * h
        g12 = r1 * r2
        g22 = r2 * r2 + h * h
        mean, deficit = shape_trace_deficit((g11, g12, g22), (ii11, ii12, ii22))
        density = h * h * w
        return GeometryReport(
            mode="full",
            area=eng.integrate(density),
            radii=rho,
            warp=h,
            potential=hp,
            mean_curvature=mean,
            shape_deficit=deficit,
            nu_radial=1.0 / w,
            support=h / w,
            area_density=density,
            metric=(g11, g12, g22),
            second_form=(ii11, ii12, ii22),
        )

    def _geometry_axisym(self) -> GeometryReport:
        eng = self.engine
        n = self.warping.dim
        rho, r1, d11, dtr = eng.on_frame_jet(self.radii)
        h, hp, _, _ = self.warping.jet(rho)
        w = np.sqrt(1.0 + (r1 * r1) / (h * h))
        ii_m = (-d11 + (2.0 * hp / h) * r1 * r1 + h * hp) / w
        ii_t = (-dtr + h * hp) / w
        g_m = r1 * r1 + h * h
        g_t = h * h
        s_m = ii_m / g_m
        s_t = ii_t / g_t
        mean = s_m + (n - 2) * s_t
        deficit = np.sqrt((n - 2.0) / (n - 1.0)) * np.abs(s_m - s_t)
        density = h ** (n - 1) * w
        return GeometryReport(
            mode="axisym",
            area=eng.integrate(density),
            radii=rho,
            warp=h,
            potential=hp,
            mean_curvature=mean,
            shape_deficit=deficit,
            nu_radial=1.0 / w,
            support=h / w,
            area_density=density,
            metric=(g_m, g_t),
            second_form=(ii_m, ii_t),
        )

    # -- integrals -------------------------------------------------------

    def integrate(self, values) -> float:
        """Integral of a grid function against the surface measure."""
        rep = self.geometry()
        return self.engine.integrate(np.asarray(values) * rep.area_density)

    def enclosed_weighted_volume(self) -> float:
        """Integral of the potential over the enclosed region.

        The region runs from the inner boundary of the chart out to the
        graph; radially the potential integrates in closed form, since
        h' h^{n-1} is the exact derivative of h^n / n.
        """
        n = self.warping.dim
        h0 = self.warping.jet(0.0)[0]
        h = self.warping.jet(self.radii)[0]
        return self.engine.integrate((h**n - h0**n) / n)


def slice_surface(warping: WarpingFunction, engine, radius: float) -> GraphSurface:
    """The coordinate slice at constant radius."""
    if not (0.0 < radius < warping.r_bar):
        raise DomainError(f"slice radius must lie in (0, {warping.r_bar})")
    shape = (engine.nlat, engine.nlon) if engine.kind == "full" else (engine.npoints,)
    return GraphSurface(warping, engine, np.full(shape, radius))


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
    shape = (engine.nlat, engine.nlon) if engine.kind == "full" else (engine.npoints,)
    rho = np.full(shape, radius)
    for l, m, amp in modes:
        rho = rho + engine.mode(int(l), int(m), float(amp))
    return GraphSurface(warping, engine, rho)
