"""Rotationally symmetric warped ambients.

An ambient here is a manifold (0, r_bar) x S^{n-1} carrying the metric

    g = dr (x) dr + h(r)^2 g_S,

where g_S is the round metric of curvature rho on the sphere factor.  All
curvature data of g reduces to the scalar jet (h, h', h'', h''') of the
warping profile, and every operation in this module is a closed formula in
that jet.  Two boundary behaviours are supported:

* ``boundary``: h(0) > 0, h'(0) = 0, h''(0) > 0, the inner boundary is a
  minimal hypersurface (a horizon).
* ``ball``: h(0) = 0, h'(0) = 1, the chart closes up smoothly at a center
  point and the ambient is a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, HypothesisError, NotApplicableError, ParameterError

__all__ = [
    "WarpingFunction",
    "ConditionReport",
    "ExtremumRecord",
    "TOL_CONDITION",
    "sphere_volume",
    "euclidean_warping",
    "spherical_warping",
    "hyperbolic_warping",
    "tabulated_warping",
    "potential_and_field",
    "ricci_eigenvalues",
    "scalar_curvature",
    "monotonicity_quantity",
    "ricci_gap_margin",
    "static_tensor",
    "check_conditions",
    "scan_monotonicity_extrema",
    "potential_monotone_radius",
    "chebyshev_radii",
    "find_root",
]

TOL_CONDITION = 1e-9

CONDITION_NAMES = ("regularity", "monotonicity", "scalar_monotonicity", "ricci_gap")


def sphere_volume(k: int) -> float:
    """Volume of the unit round sphere S^k."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def find_root(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-300) -> float:
    """Root of the scalar function f in [a, b] by Brent's method.

    Inverse quadratic interpolation, secant steps and bisection as in
    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4;
    the root is located to xtol + 1e-15 |root|.  f(a) and f(b) must differ
    in sign, otherwise ``HypothesisError`` is raised.
    """
    fpre, fcur = f(a), f(b)
    if fpre == 0.0 or fcur == 0.0:
        return a if fpre == 0.0 else b
    if (fpre < 0.0) == (fcur < 0.0):
        raise HypothesisError(f"no sign change on [{a!r}, {b!r}]: f = {fpre!r}, {fcur!r}")
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + 1e-15 * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:  # the step does not shrink fast enough: bisect
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise HypothesisError(f"root search on [{a!r}, {b!r}] did not converge")


@dataclass(frozen=True)
class WarpingFunction:
    """Warping profile of a rotationally symmetric ambient.

    Parameters
    ----------
    name : str
        Family label used in reports.
    dim : int
        Ambient dimension n (the sphere factor is S^{n-1}).
    r_bar : float
        Outer radius of the working chart; the domain is [0, r_bar).
    rho : float
        Curvature of the sphere-factor metric g_S (1 for the unit sphere).
    variant : str
        Either ``boundary`` or ``ball``.
    kind : str
        ``closed-form`` when the jet comes from analytic expressions,
        ``tabulated`` when it comes from a spline of sampled data.
    params : dict
        Family parameters, recorded in output headers.
    """

    name: str
    dim: int
    r_bar: float
    rho: float
    variant: str
    kind: str
    _jet: Callable[[np.ndarray], tuple]
    params: dict = field(default_factory=dict)
    # optional stable evaluator for (rho - h'^2)/h^2; the generic jet route
    # cancels catastrophically near a ball center, where rho - h'^2 = O(r^2)
    _defect: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 3:
            raise ParameterError(f"ambient dimension must be >= 3, got {self.dim}")
        if self.variant not in ("boundary", "ball"):
            raise ParameterError(f"unknown variant {self.variant!r}")
        if not (self.r_bar > 0.0):
            raise ParameterError("r_bar must be positive")

    @property
    def base_volume(self) -> float:
        """Volume of the sphere factor with its unit round metric."""
        return sphere_volume(self.dim - 1)

    def _in_chart(self, r):
        """Radii r as an array clipped to [0, r_bar]; DomainError outside [0, r_bar).

        A tiny relative overshoot of the outer bound is tolerated to absorb
        roundoff in radius constructions; a NaN radius is outside.  A scalar
        is checked and clipped in plain float arithmetic, with np.clip's bits
        as np.float64; an array inside [0, r_bar] comes back uncopied, so a
        jet must neither return nor write into its argument.
        """
        arr = np.asarray(r, dtype=float)
        if arr.ndim == 0:
            lo = hi = float(arr)
        elif arr.size:
            lo, hi = arr.min(), arr.max()
        else:
            return arr
        if not (lo >= -1e-15 and hi <= self.r_bar * (1.0 + 1e-12)):
            raise DomainError(f"radius outside [0, {self.r_bar}): range [{lo}, {hi}]")
        if arr.ndim == 0:
            return np.float64(min(max(lo, 0.0), self.r_bar))
        return arr if lo >= 0.0 and hi <= self.r_bar else np.clip(arr, 0.0, self.r_bar)

    def jet(self, r):
        """Evaluate (h, h', h'', h''') at radius r (scalar or array) in [0, r_bar)."""
        h, hp, hpp, hppp = self._jet(self._in_chart(r))
        if np.ndim(r) == 0:
            return float(h), float(hp), float(hpp), float(hppp)
        return h, hp, hpp, hppp

    def curvature_defect(self, r):
        """Evaluate (rho - h'(r)^2)/h(r)^2, the sphere-factor curvature excess.

        Families with a closed form supply a cancellation-free evaluator;
        otherwise the quantity is assembled from the jet.  The domain is
        that of ``jet``.
        """
        arr = self._in_chart(r)
        if self._defect is not None:
            out = np.asarray(self._defect(arr), dtype=float)
        else:
            h, hp, _, _ = self._jet(arr)
            out = (self.rho - hp * hp) / (h * h)
        if np.ndim(r) == 0:
            return float(out)
        return out


# ---------------------------------------------------------------------------
# constructors


def euclidean_warping(n: int, r_bar: float = 10.0) -> WarpingFunction:
    """Flat ball ambient, h(r) = r."""

    def jet(r):
        one = np.ones_like(r)
        zero = np.zeros_like(r)
        return r.copy(), one, zero, zero.copy()

    return WarpingFunction(
        "euclidean", n, r_bar, 1.0, "ball", "closed-form", jet,
        _defect=lambda r: np.zeros_like(r),
    )


def spherical_warping(n: int, curvature: float = 1.0, r_bar: float | None = None) -> WarpingFunction:
    """Round-sphere ambient of sectional curvature c > 0, h(r) = sin(sqrt(c) r)/sqrt(c).

    The default chart stops at the equator, where the warp stops increasing.
    """
    if curvature <= 0:
        raise ParameterError("spherical ambient needs curvature > 0")
    sc = math.sqrt(curvature)
    if r_bar is None:
        r_bar = 0.5 * math.pi / sc

    def jet(r):
        return (
            np.sin(sc * r) / sc,
            np.cos(sc * r),
            -sc * np.sin(sc * r),
            -sc * sc * np.cos(sc * r),
        )

    return WarpingFunction(
        "sphere", n, r_bar, 1.0, "ball", "closed-form", jet, {"curvature": curvature},
        # rho - h'^2 = 1 - cos^2 = c h^2 identically
        _defect=lambda r: np.full_like(r, curvature),
    )


def hyperbolic_warping(n: int, curvature: float = 1.0, r_bar: float = 10.0) -> WarpingFunction:
    """Hyperbolic ambient of sectional curvature -c, h(r) = sinh(sqrt(c) r)/sqrt(c)."""
    if curvature <= 0:
        raise ParameterError("hyperbolic ambient needs curvature > 0")
    sc = math.sqrt(curvature)

    def jet(r):
        return (
            np.sinh(sc * r) / sc,
            np.cosh(sc * r),
            sc * np.sinh(sc * r),
            sc * sc * np.cosh(sc * r),
        )

    return WarpingFunction(
        "hyperbolic", n, r_bar, 1.0, "ball", "closed-form", jet, {"curvature": curvature},
        # rho - h'^2 = 1 - cosh^2 = -c h^2 identically
        _defect=lambda r: np.full_like(r, -curvature),
    )


def _quintic_spline(x, y, derivatives: int):
    """Quintic interpolating spline of samples (x, y), with its first ``derivatives`` derivatives.

    Returns a callable mapping points to the tuple (y, y', ...).  The spline
    is scipy's ``make_interp_spline``, imported on first use.
    """
    from scipy.interpolate import make_interp_spline

    spline = make_interp_spline(x, y, k=5)
    parts = [spline] + [spline.derivative(k) for k in range(1, derivatives + 1)]
    return lambda s: tuple(part(s) for part in parts)


def tabulated_warping(
    name: str,
    n: int,
    radii: Sequence[float],
    values: Sequence[float],
    variant: str,
    rho: float = 1.0,
) -> WarpingFunction:
    """Warping profile from sampled (r, h) data via a quintic spline.

    The spline is C^4 between knots, so third derivatives stay continuous;
    that is what the curvature-monotonicity slope needs (``_quintic_spline``).
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 8:
        raise ParameterError("need matching 1-d arrays with at least 8 samples")
    if not np.all(np.diff(radii) > 0):
        raise ParameterError("radii must be strictly increasing")
    if radii[0] > 1e-12 * radii[-1]:
        raise ParameterError("table must start at r = 0")
    jet = _quintic_spline(radii, values, 3)
    return WarpingFunction(name, n, float(radii[-1]), rho, variant, "tabulated", jet)


# ---------------------------------------------------------------------------
# pointwise curvature data


def potential_and_field(w: WarpingFunction, r):
    """Static potential f = h'(r) and the radial field coefficient h(r).

    The vector field h(r) d/dr is conformal with D_i X_j = f g_ij, and f
    solves the static equation together with the ambient metric.
    """
    h, hp, _, _ = w.jet(r)
    return hp, h


def ricci_eigenvalues(w: WarpingFunction, r):
    """Eigenvalues of Ric with respect to g at radius r.

    Returns (radial, tangential); radial has multiplicity 1 along d/dr and
    tangential has multiplicity n-1 on the sphere directions.
    """
    n = w.dim
    h, hp, hpp, _ = w.jet(r)
    radial = -(n - 1) * hpp / h
    tangential = (n - 2) * w.curvature_defect(r) - hpp / h
    return radial, tangential


def monotonicity_quantity(w: WarpingFunction, r):
    """Scalar-curvature monotonicity quantity and its radial slope.

    The quantity is 2h''/h - (n-2)(rho - h'^2)/h^2, which equals
    -R/(n-1) for these ambients; the theorems need it non-decreasing.
    """
    n = w.dim
    h, hp, hpp, hppp = w.jet(r)
    defect = w.curvature_defect(r)
    value = 2.0 * hpp / h - (n - 2) * defect
    slope = 2.0 * (h * hppp + (n - 3) * hp * hpp) / (h * h) + 2.0 * (n - 2) * (hp / h) * defect
    return value, slope


def scalar_curvature(w: WarpingFunction, r):
    """Scalar curvature of the ambient at radius r."""
    value, _ = monotonicity_quantity(w, r)
    return -(w.dim - 1) * value


def ricci_gap_margin(w: WarpingFunction, r):
    """Margin of the Ricci eigenvalue gap condition.

    Equals (tangential - radial)/(n-2); strict positivity makes d/dr the
    unique smallest Ricci direction, which upgrades umbilic conclusions to
    genuine slice rigidity.
    """
    h, _, hpp, _ = w.jet(r)
    return hpp / h + w.curvature_defect(r)


def static_tensor(w: WarpingFunction, r):
    """Eigenvalues of (lap f) g - D^2 f + f Ric at radius r.

    Returns (radial, tangential) with respect to g.  The radial eigenvalue
    cancels identically; it is assembled numerically rather than returned as
    a literal zero so the cancellation itself is exercised.
    """
    n = w.dim
    h, hp, hpp, hppp = w.jet(r)
    lap_f = hppp + (n - 1) * hpp * hp / h
    radial = lap_f - hppp + hp * (-(n - 1) * hpp / h)
    _, tang_ric = ricci_eigenvalues(w, r)
    tangential = lap_f - hp * hpp / h + hp * tang_ric
    return radial, tangential


# ---------------------------------------------------------------------------
# condition suite


def chebyshev_radii(r_lo: float, r_hi: float, count: int) -> np.ndarray:
    """Chebyshev-spaced interior nodes of (r_lo, r_hi), ascending."""
    k = np.arange(count)
    x = np.cos(math.pi * (2 * k + 1) / (2 * count))
    return 0.5 * (r_lo + r_hi) + 0.5 * (r_hi - r_lo) * x[::-1]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structure-condition suite on one ambient.

    ``status`` maps each condition to ``pass``, ``fail``, or (for the gap
    condition only) ``degenerate``.  ``required_pass`` covers the conditions
    every theorem needs; the gap condition only selects between the two
    conclusion tiers recorded in ``conclusion``.
    """

    ambient: str
    variant: str
    dim: int
    tol: float
    radii: np.ndarray
    margins: dict
    min_margin: dict
    worst_radius: dict
    status: dict
    required_pass: bool
    conclusion: str


def check_conditions(w: WarpingFunction, grid_size: int = 256, tol: float = TOL_CONDITION) -> ConditionReport:
    """Evaluate the structure conditions of the rigidity theorems on a grid.

    Conditions checked, with their margin functions:

    * ``regularity``: jet behaviour at r = 0 appropriate to the variant
      (boundary: h'(0) = 0 and h''(0) > 0; ball: h(0) = 0, h'(0) = 1,
      h''(0) = 0).
    * ``monotonicity``: h' > 0 on the open chart, margin h'(r).
    * ``scalar_monotonicity``: the monotonicity quantity is non-decreasing,
      margin = its slope.
    * ``ricci_gap``: margin h''/h + (rho - h'^2)/h^2.  Boundary variant needs
      it strictly positive; ball variant needs it bounded away from zero in
      absolute value.  An identically vanishing margin (space forms) is
      reported as ``degenerate``: the strict hypothesis fails but every
      weaker conclusion survives.

    Pass/fail for the first three uses a -tol slack on the minimum margin;
    the gap condition requires min margin > +tol to count as strict.
    """
    if grid_size < 8:
        raise ParameterError("grid_size must be at least 8")
    radii = chebyshev_radii(0.0, w.r_bar, grid_size)
    h0, hp0, hpp0, _ = w.jet(0.0)

    if w.variant == "boundary":
        reg_margin = min(-abs(hp0), hpp0)
    else:
        reg_margin = -max(abs(h0), abs(hp0 - 1.0), abs(hpp0))

    hp = w.jet(radii)[1]
    _, slope = monotonicity_quantity(w, radii)
    gap = ricci_gap_margin(w, radii)
    gap_signed = gap if w.variant == "boundary" else np.abs(gap)

    margins = {
        "monotonicity": hp,
        "scalar_monotonicity": slope,
        "ricci_gap": gap_signed,
    }
    min_margin = {"regularity": reg_margin}
    worst_radius = {"regularity": 0.0}
    for name, values in margins.items():
        i = int(np.argmin(values))
        min_margin[name] = float(values[i])
        worst_radius[name] = float(radii[i])

    status = {
        "regularity": "pass" if reg_margin > -tol else "fail",
        "monotonicity": "pass" if min_margin["monotonicity"] > -tol else "fail",
        "scalar_monotonicity": "pass" if min_margin["scalar_monotonicity"] > -tol else "fail",
    }
    gap_min = min_margin["ricci_gap"]
    if gap_min > tol:
        status["ricci_gap"] = "pass"
    elif gap_min > -tol or w.variant == "ball":
        # ball margins are absolute values, so a small minimum can only mean
        # the margin touches zero, never that it goes negative
        status["ricci_gap"] = "degenerate"
    else:
        status["ricci_gap"] = "fail"

    required_pass = all(
        status[name] == "pass"
        for name in ("regularity", "monotonicity", "scalar_monotonicity")
    )
    if not required_pass:
        conclusion = "none"
    elif status["ricci_gap"] == "pass":
        conclusion = "slice-rigidity"
    else:
        conclusion = "umbilic-only"

    return ConditionReport(
        ambient=w.name,
        variant=w.variant,
        dim=w.dim,
        tol=tol,
        radii=radii,
        margins=margins,
        min_margin=min_margin,
        worst_radius=worst_radius,
        status=status,
        required_pass=required_pass,
        conclusion=conclusion,
    )


@dataclass(frozen=True)
class ExtremumRecord:
    """A strict interior extremum of the monotonicity quantity."""

    radius: float
    kind: str
    value: float
    ricci_distinct: bool


def scan_monotonicity_extrema(
    w: WarpingFunction,
    grid_size: int = 256,
    tol_distinct: float = 1e-9,
    slope_floor: float | None = None,
) -> list[ExtremumRecord]:
    """Locate strict interior extrema of the monotonicity quantity.

    Sign changes of the slope on a scan grid are refined by bisection to
    1e-8 * r_bar.  At each extremum the record notes whether the two Ricci
    eigenvalues are distinct there; an extremum with distinct eigenvalues is
    the seed datum for non-slice constant-mean-curvature spheres, so such
    radii are flagged for downstream experiments.

    Ambients with constant (often zero) monotonicity quantity produce slope
    values at roundoff level that cross zero spuriously; sign changes whose
    flanking slopes both fall below ``slope_floor`` are discarded as noise.
    The default floor is 1e-7 of the ambient curvature scale divided by
    r_bar, which suits closed-form profiles; tabulated profiles inherit the
    noise of their samples through three spline derivatives, so callers who
    know that noise level should raise the floor accordingly.

    For ball ambients the innermost half-percent of the chart is excluded:
    the curvature quotients there are 0/0 limits of the warp, and sampled
    profiles cannot resolve them.
    """
    if grid_size < 64:
        raise ParameterError("scan grid must have at least 64 points")
    lo = 0.005 * w.r_bar if w.variant == "ball" else 0.0
    radii = chebyshev_radii(lo, w.r_bar, grid_size)
    slope = monotonicity_quantity(w, radii)[1]
    if slope_floor is None:
        h, _, hpp, _ = w.jet(radii)
        curv_scale = float(
            np.max(2.0 * np.abs(hpp / h) + (w.dim - 2) * np.abs(w.curvature_defect(radii)))
        )
        slope_floor = 1e-7 * curv_scale / w.r_bar
    records = []
    for i in range(len(radii) - 1):
        a, b = radii[i], radii[i + 1]
        sa, sb = slope[i], slope[i + 1]
        if sa == 0.0 or sa * sb >= 0.0:
            continue
        if max(abs(sa), abs(sb)) <= slope_floor:
            continue
        fun = lambda r: monotonicity_quantity(w, r)[1]
        root = find_root(fun, a, b, xtol=1e-8 * w.r_bar)
        kind = "max" if sa > 0 else "min"
        value = monotonicity_quantity(w, root)[0]
        radial, tangential = ricci_eigenvalues(w, root)
        records.append(
            ExtremumRecord(
                radius=float(root),
                kind=kind,
                value=float(value),
                ricci_distinct=bool(abs(radial - tangential) > tol_distinct),
            )
        )
    return records


def potential_monotone_radius(w: WarpingFunction, grid_size: int = 2048) -> float:
    """Largest radius below which the potential f = h' keeps increasing.

    Returns the first zero of h'' (located by bisection), or r_bar when h''
    stays positive across the working chart.  Only meaningful for boundary
    ambients, where h''(0) > 0 starts the potential growing.
    """
    if w.variant != "boundary":
        raise NotApplicableError("potential_monotone_radius needs a boundary-variant ambient")
    hpp0 = w.jet(0.0)[2]
    if hpp0 <= 0:
        raise HypothesisError("potential is not increasing at the inner boundary")
    radii = np.linspace(0.0, w.r_bar * (1.0 - 1e-12), grid_size)
    hpp = w.jet(radii)[2]
    negative = np.nonzero(hpp <= 0.0)[0]
    if negative.size == 0:
        return w.r_bar
    j = negative[0]
    if j == 0:
        return 0.0
    fun = lambda r: w.jet(r)[2]
    root = find_root(fun, radii[j - 1], radii[j], xtol=1e-12 * w.r_bar)
    return float(root)
