"""Rotationally symmetric warped ambients.

An ambient here is a manifold (0, r_bar) x S^{n-1} carrying the metric

    g = dr (x) dr + h(r)^2 g_S,

where g_S is the unit round metric on the sphere factor; a factor of
curvature rho is the unit one with h/sqrt(rho) in place of h.  All curvature
data of g reduces to the scalar jet (h, h', h'', h''') of the warping
profile, and every operation in this module is a closed formula in that
jet.  Two boundary behaviours are supported:

* ``boundary``: h(0) > 0, h'(0) = 0, h''(0) > 0, the inner boundary is a
  minimal hypersurface (a horizon).
* ``ball``: h(0) = 0, h'(0) = 1, the chart closes up smoothly at a center
  point and the ambient is a ball.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
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
CONDITION_GRID_SIZE = 256

CONDITION_NAMES = ("regularity", "monotonicity", "scalar_monotonicity", "ricci_gap")


def sphere_volume(k: int) -> float:
    """Volume of the unit round sphere S^k; ParameterError from k = 343, where Gamma overflows."""
    try:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)
    except OverflowError:
        raise ParameterError(f"dimension too large: the volume of S^{k} overflows") from None


def find_root(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-300) -> float:
    """Root of the scalar function f in [a, b] by Brent's method, in Python floats.

    Inverse quadratic interpolation, secant steps and bisection as in
    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    bisecting over a 0 denominator; the root is located to xtol + 1e-15 |root|.
    f(a) and f(b) must differ in sign, otherwise ``HypothesisError`` is raised.
    """
    fpre, fcur = float(f(a)), float(f(b))
    if fpre == 0.0 or fcur == 0.0:
        return a if fpre == 0.0 else b
    if (fpre < 0.0) == (fcur < 0.0):
        raise HypothesisError(f"no sign change on [{a!r}, {b!r}]: f = {fpre!r}, {fcur!r}")
    xpre, xcur = float(a), float(b)
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
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:  # the step does not shrink fast enough: bisect
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = float(f(xcur))
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
    variant : str
        Either ``boundary`` or ``ball``.

    The optional ``_closed_forms`` maps h to (curvature defect, Ricci gap, W,
    dW/dh) in closed form: the space forms and the horizon families have them.
    Every curvature quantity reads them (``_curvature``); the jet route they
    replace cancels near a ball center, where 1 - h'^2 = O(r^2), and leaves
    roundoff in the slope of W wherever W is constant.
    """

    name: str
    dim: int
    r_bar: float
    variant: str
    _jet: Callable[[np.ndarray], tuple]
    _closed_forms: Callable[[np.ndarray], tuple] | None = None

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

    @cached_property
    def inner_jet(self) -> tuple:
        """(h, h', h'', h''') at r = 0, the inner boundary or the center; taken once."""
        return self.jet(0.0)

    @cached_property
    def curvature_scale(self) -> float:
        """Largest 2|h''/h| + (n-2)|curvature_defect| on the extrema scan's grid; taken once.

        It is exactly 0.0 for the Euclidean ball, so a tolerance relative to it
        needs a floor in flat space: a bare ``margin > -tol * curvature_scale /
        r_bar`` compares an exact 0.0 margin with -0.0 and fails.
        """
        curvature = _curvature(self, _scan_radii(self))
        h, _, hpp, _ = curvature.jet
        return float(np.max(2.0 * np.abs(hpp / h) + (self.dim - 2) * np.abs(curvature.defect)))

    @cached_property
    def monotone_radius(self) -> float:
        """``potential_monotone_radius`` of this ambient, taken once."""
        return potential_monotone_radius(self)

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
        x = self._in_chart(r)
        h, hp, hpp, hppp = self._jet(x)
        if x.ndim == 0:  # np.ndim of a Python float costs a conversion to an array
            return float(h), float(hp), float(hpp), float(hppp)
        return h, hp, hpp, hppp

    def curvature_defect(self, r):
        """Evaluate (1 - h'(r)^2)/h(r)^2, the sphere-factor curvature excess.

        The ambient's closed form where it has one, otherwise assembled from
        the jet (``_curvature``).  The domain is that of ``jet``.
        """
        return _curvature(self, r).defect


# ---------------------------------------------------------------------------
# constructors


def _constant_curvature(n: int, c: float):
    """Closed forms where 1 - h'^2 = c h^2 (curvature c): defect c, gap 0, W = -n c, dW/dh = 0."""
    return lambda h: (np.full_like(h, c), np.zeros_like(h), np.full_like(h, -n * c), np.zeros_like(h))


def euclidean_warping(n: int, r_bar: float = 10.0) -> WarpingFunction:
    """Flat ball ambient, h(r) = r."""

    def jet(r):
        one = np.ones_like(r)
        zero = np.zeros_like(r)
        return r.copy(), one, zero, zero.copy()

    return WarpingFunction("euclidean", n, r_bar, "ball", jet, _constant_curvature(n, 0.0))


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

    return WarpingFunction("sphere", n, r_bar, "ball", jet, _constant_curvature(n, curvature))


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

    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(jet(r_bar))):
            raise ParameterError(f"hyperbolic warp jet overflows at sqrt(curvature) r_bar = {sc * r_bar:g}")
    return WarpingFunction("hyperbolic", n, r_bar, "ball", jet, _constant_curvature(n, -curvature))


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
) -> WarpingFunction:
    """Warping profile from sampled (r, h) data via a quintic spline.

    The spline is C^4 between knots, so third derivatives stay continuous;
    that is what the curvature-monotonicity slope needs (``_quintic_spline``).
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 8:
        raise ParameterError("need matching 1-d arrays with at least 8 samples")
    if not (np.isfinite(radii).all() and np.isfinite(values).all()):
        raise ParameterError(f"table {name!r}: every sample must be finite")
    if not np.all(np.diff(radii) > 0):
        raise ParameterError("radii must be strictly increasing")
    if radii[0] > 1e-12 * radii[-1]:
        raise ParameterError("table must start at r = 0")
    jet = _quintic_spline(radii, values, 3)
    return WarpingFunction(name, n, float(radii[-1]), variant, jet)


# ---------------------------------------------------------------------------
# pointwise curvature data


# the curvature record of one warp jet: the jet (h, h', h'', h'''), the curvature
# defect (1 - h'^2)/h^2, the Ricci eigenvalues (radial, tangential), the Ricci gap
# margin, the monotonicity quantity W and its radial slope
_Curvature = namedtuple("_Curvature", "jet defect radial tangential gap value slope")


def _curvature(w: WarpingFunction, r) -> _Curvature:
    """The curvature record of the one warp jet at r.

    The ambient's closed forms (``_closed_forms``) give the defect, the gap,
    W and dW/dh where it has them; otherwise they come from the jet, where
    the sphere factor's curvature 1 enters once, in the defect.  A scalar r
    gives floats, computed from a numpy h so that a scalar at a ball's center
    divides by zero as an array does, to inf or nan.
    """
    jet = w.jet(r)
    _, hp, hpp, hppp = jet
    scalar = isinstance(jet[0], float)  # the jet of a scalar r is floats
    h = np.float64(jet[0]) if scalar else jet[0]
    n = w.dim
    if w._closed_forms is None:
        defect = (1.0 - hp * hp) / (h * h)
        gap = hpp / h + defect
        value = 2.0 * hpp / h - (n - 2) * defect
        slope = 2.0 * (h * hppp + (n - 3) * hp * hpp) / (h * h) + 2.0 * (n - 2) * (hp / h) * defect
    else:
        defect, gap, value, slope_h = w._closed_forms(h)
        slope = slope_h * hp
    values = (defect, -(n - 1) * hpp / h, (n - 2) * defect - hpp / h, gap, value, slope)
    return _Curvature(jet, *(map(float, values) if scalar else values))


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
    curvature = _curvature(w, r)
    return curvature.radial, curvature.tangential


def monotonicity_quantity(w: WarpingFunction, r):
    """Scalar-curvature monotonicity quantity and its radial slope.

    The quantity is 2h''/h - (n-2)(1 - h'^2)/h^2, which equals
    -R/(n-1) for these ambients; the theorems need it non-decreasing.
    """
    curvature = _curvature(w, r)
    return curvature.value, curvature.slope


def scalar_curvature(w: WarpingFunction, r):
    """Scalar curvature of the ambient at radius r."""
    return -(w.dim - 1) * _curvature(w, r).value


def ricci_gap_margin(w: WarpingFunction, r):
    """Margin of the Ricci eigenvalue gap condition.

    Equals (tangential - radial)/(n-2); strict positivity makes d/dr the
    unique smallest Ricci direction, which upgrades umbilic conclusions to
    genuine slice rigidity.
    """
    return _curvature(w, r).gap


def static_tensor(w: WarpingFunction, r):
    """Eigenvalues of (lap f) g - D^2 f + f Ric at radius r.

    Returns (radial, tangential) with respect to g.  The radial eigenvalue
    cancels identically; it is assembled numerically rather than returned as
    a literal zero so the cancellation itself is exercised.
    """
    n = w.dim
    curvature = _curvature(w, r)
    _, hp, _, hppp = curvature.jet
    hess = -hp * curvature.radial / (n - 1)  # h' h''/h, D^2 f on the sphere directions
    lap_f = hppp + (n - 1) * hess
    return lap_f - hppp + hp * curvature.radial, lap_f - hess + hp * curvature.tangential


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

    radii: np.ndarray
    margins: dict
    min_margin: dict
    worst_radius: dict
    status: dict
    required_pass: bool
    conclusion: str


def check_conditions(w: WarpingFunction) -> ConditionReport:
    """Evaluate the structure conditions on CONDITION_GRID_SIZE Chebyshev radii.

    Conditions checked, with their margin functions:

    * ``regularity``: jet behaviour at r = 0 appropriate to the variant
      (boundary: h'(0) = 0 and h''(0) > 0; ball: h(0) = 0, h'(0) = 1,
      h''(0) = 0).
    * ``monotonicity``: h' > 0 on the open chart, margin h'(r).
    * ``scalar_monotonicity``: the monotonicity quantity is non-decreasing,
      margin = its slope.
    * ``ricci_gap``: margin h''/h + (1 - h'^2)/h^2.  Boundary variant needs
      it strictly positive; ball variant needs it bounded away from zero in
      absolute value.  An identically vanishing margin (space forms) is
      reported as ``degenerate``: the strict hypothesis fails but every
      weaker conclusion survives.

    The gap and the slope are the curvature record's (``_curvature``): the
    ambient's closed forms where it has them.

    Pass/fail for the first three uses a -TOL_CONDITION slack on the minimum
    margin; the gap condition requires min margin > +TOL_CONDITION to count
    as strict.
    """
    radii = chebyshev_radii(0.0, w.r_bar, CONDITION_GRID_SIZE)
    h0, hp0, hpp0, _ = w.inner_jet

    if w.variant == "boundary":
        reg_margin = min(-abs(hp0), hpp0)
    else:
        reg_margin = -max(abs(h0), abs(hp0 - 1.0), abs(hpp0))

    curvature = _curvature(w, radii)
    gap = curvature.gap if w.variant == "boundary" else np.abs(curvature.gap)
    margins = {"monotonicity": curvature.jet[1], "scalar_monotonicity": curvature.slope,
               "ricci_gap": gap}
    min_margin = {"regularity": reg_margin}
    worst_radius = {"regularity": 0.0}
    for name, values in margins.items():
        i = int(np.argmin(values))
        min_margin[name] = float(values[i])
        worst_radius[name] = float(radii[i])

    required = CONDITION_NAMES[:3]  # every theorem needs these; the gap selects the tier
    status = {name: "pass" if min_margin[name] > -TOL_CONDITION else "fail" for name in required}
    gap_min = min_margin["ricci_gap"]
    if gap_min > TOL_CONDITION:
        status["ricci_gap"] = "pass"
    elif gap_min > -TOL_CONDITION or w.variant == "ball":
        # ball margins are absolute values, so a small minimum can only mean
        # the margin touches zero, never that it goes negative
        status["ricci_gap"] = "degenerate"
    else:
        status["ricci_gap"] = "fail"

    required_pass = all(status[name] == "pass" for name in required)
    if not required_pass:
        conclusion = "none"
    elif status["ricci_gap"] == "pass":
        conclusion = "slice-rigidity"
    else:
        conclusion = "umbilic-only"

    return ConditionReport(
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


def _scan_radii(w: WarpingFunction) -> np.ndarray:
    """The extrema scan's 256-point Chebyshev grid, without a ball's innermost half-percent."""
    lo = 0.005 * w.r_bar if w.variant == "ball" else 0.0
    return chebyshev_radii(lo, w.r_bar, 256)


def scan_monotonicity_extrema(
    w: WarpingFunction, slope_floor: float | None = None
) -> list[ExtremumRecord]:
    """Locate strict interior extrema of the monotonicity quantity.

    Sign changes of the slope ``check_conditions`` reads (``_curvature``)
    on a 256-point Chebyshev grid are refined on it by Brent's method
    (``find_root``) to 1e-8 * r_bar.  At each extremum the record notes
    whether the two Ricci eigenvalues differ by more than 1e-9 there; an
    extremum with distinct eigenvalues is the seed datum for non-slice
    constant-mean-curvature spheres, so such radii are flagged for
    downstream experiments.

    The space forms and the horizon families have closed forms, whose slope
    is exactly 0 where W is constant.  Only tables and raw jet callables
    take the slope from the jet, with values at roundoff level that cross
    zero spuriously where W is constant; sign changes whose flanking slopes
    both fall below ``slope_floor`` are discarded as noise.  The default
    floor is 1e-7 of the ambient's ``curvature_scale`` divided by r_bar;
    tabulated profiles inherit the noise of their samples through three
    spline derivatives, so callers who know that noise level should raise
    the floor accordingly.

    For ball ambients the innermost half-percent of the chart is excluded:
    the curvature quotients there are 0/0 limits of the warp, and sampled
    profiles cannot resolve them.
    """
    radii = _scan_radii(w)
    slope = _curvature(w, radii).slope
    change = np.flatnonzero(np.sign(slope[:-1]) * np.sign(slope[1:]) < 0.0)  # slope products may overflow
    if change.size == 0:  # no sign change: the curvature scale is not needed
        return []
    if slope_floor is None:
        slope_floor = 1e-7 * w.curvature_scale / w.r_bar
    records = []
    for i in change[np.maximum(np.abs(slope[change]), np.abs(slope[change + 1])) > slope_floor]:
        root = find_root(lambda r: _curvature(w, r).slope, radii[i], radii[i + 1], xtol=1e-8 * w.r_bar)
        kind = "max" if slope[i] > 0 else "min"
        at = _curvature(w, root)
        distinct = abs(at.radial - at.tangential) > 1e-9
        records.append(ExtremumRecord(float(root), kind, at.value, distinct))
    return records


def potential_monotone_radius(w: WarpingFunction) -> float:
    """Largest radius below which the potential f = h' keeps increasing.

    Returns the first zero of h'' (bracketed on a 2048-point grid and
    located by Brent's method, ``find_root``), or r_bar when h'' stays
    positive across the working chart.  Only meaningful for boundary
    ambients, where h''(0) > 0 starts the potential growing.  The ambient
    keeps it once as ``monotone_radius``.
    """
    if w.variant != "boundary":
        raise NotApplicableError("potential_monotone_radius needs a boundary-variant ambient")
    if w.inner_jet[2] <= 0:
        raise HypothesisError("potential is not increasing at the inner boundary")
    radii = np.linspace(0.0, w.r_bar * (1.0 - 1e-12), 2048)
    hpp = w.jet(radii)[2]
    negative = np.nonzero(hpp <= 0.0)[0]
    if negative.size == 0:
        return w.r_bar
    j = negative[0]
    if j == 0:
        return 0.0
    return float(find_root(lambda r: w.jet(r)[2], radii[j - 1], radii[j], xtol=1e-12 * w.r_bar))
