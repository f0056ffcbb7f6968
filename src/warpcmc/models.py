"""Model ambients given by a horizon profile omega(s).

A static rotationally symmetric metric is often written in the area radius s,

    omega(s)^{-1} ds (x) ds + s^2 g_{S^{n-1}},

with omega vanishing at the horizon radius s_floor.  Substituting the arc
length r = F(s), F'(s) = omega^{-1/2}, F(s_floor) = 0, turns this into the
warped form dr^2 + h(r)^2 g_S with h = F^{-1}, and the whole warp jet follows
from omega by the chain rule:

    h(r) = s,   h' = sqrt(omega),   h'' = omega'/2,   h''' = omega'' sqrt(omega)/2.

F has a square-root singularity at the horizon; the substitution
s = s_floor + xi^2 removes it, leaving the smooth integrand
2 xi / sqrt(omega(s_floor + xi^2)).

F is tabulated once, at knots equally spaced in xi, and h is stored as a
single quintic spline through the samples (F(xi_k), s_floor + xi_k^2).  That
spline is the only representation of h: the jet evaluates it for s and takes
the derivatives from omega.  ``distance_of_area_radius`` integrates F afresh
and serves as an independent check of the spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .errors import DomainError, ParameterError
from .warping import (
    WarpingFunction,
    euclidean_warping,
    hyperbolic_warping,
    spherical_warping,
)

__all__ = [
    "OmegaProfile",
    "OmegaBackedWarping",
    "MODEL_FAMILIES",
    "admissibility",
    "horizon_radius",
    "make_model",
    "omega_to_warping",
    "load_omega_table",
    "schwarzschild_profile",
    "desitter_schwarzschild_profile",
    "reissner_nordstrom_profile",
    "omega_condition_margins",
]


@dataclass(frozen=True)
class OmegaProfile:
    """Horizon profile omega on [s_floor, s_max].

    ``omega`` maps s (scalar or array) to the triple (omega, omega',
    omega'').  The second derivative is carried because the warp jet needs
    h''' analytically.
    """

    name: str
    dim: int
    s_floor: float
    s_max: float
    omega: Callable[[np.ndarray], tuple]
    kind: str = "closed-form"
    params: dict = field(default_factory=dict)
    # optional direct evaluator of 1 - omega; evaluating it as a difference
    # cancels wherever omega is close to 1, and (1 - omega)/s^2 feeds the
    # curvature-defect quantity that several margins need to high accuracy
    one_minus_omega: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (self.s_max > self.s_floor > 0.0):
            raise ParameterError("need 0 < s_floor < s_max")
        w0 = float(np.asarray(self.omega(np.asarray(self.s_floor))[0]))
        if abs(w0) > 1e-10 * max(1.0, abs(self.s_floor)):
            raise ParameterError(f"omega(s_floor) = {w0}, expected 0")
        w0p = float(np.asarray(self.omega(np.asarray(self.s_floor))[1]))
        if w0p <= 0.0:
            raise ParameterError("omega must have positive slope at the horizon")
        probe = np.linspace(self.s_floor, self.s_max, 4097)[1:]
        if np.min(self.omega(probe)[0]) <= 0.0:
            raise ParameterError("omega must stay positive above the horizon")


# ---------------------------------------------------------------------------
# built-in families


def _poly_omega(dim, mass, kappa, charge2):
    """omega(s) = 1 - mass s^{2-n} - kappa s^2 + charge2 s^{4-2n} and derivatives."""
    p = 2 - dim
    q = 4 - 2 * dim

    def omega(s):
        w = 1.0 - mass * s**p - kappa * s**2 + charge2 * s**q
        w1 = -mass * p * s ** (p - 1) - 2.0 * kappa * s + charge2 * q * s ** (q - 1)
        w2 = -mass * p * (p - 1) * s ** (p - 2) - 2.0 * kappa + charge2 * q * (q - 1) * s ** (q - 2)
        return w, w1, w2

    return omega


def _poly_one_minus_omega(dim, mass, kappa, charge2):
    p = 2 - dim
    q = 4 - 2 * dim
    return lambda s: mass * s**p + kappa * s**2 - charge2 * s**q


def admissibility(family: str, n: int, params: dict) -> tuple[bool, str]:
    """Check whether family parameters give a regular horizon profile.

    Returns (ok, message); the message explains the first failed constraint.
    """
    if n < 3:
        return False, f"ambient dimension must be >= 3, got {n}"
    if family == "schwarzschild":
        m = params.get("m", 1.0)
        if m <= 0:
            return False, f"mass must be positive, got m = {m}"
        return True, "admissible"
    if family == "desitter-schwarzschild":
        m = params.get("m", 1.0)
        kappa = params.get("kappa", 0.0)
        if m <= 0:
            return False, f"mass must be positive, got m = {m}"
        if kappa > 0:
            bound = n**n / (4.0 * (n - 2) ** (n - 2)) * m**2 * kappa ** (n - 2)
            if bound >= 1.0:
                return False, (
                    f"n^n/(4(n-2)^(n-2)) m^2 kappa^(n-2) = {bound:.6g} >= 1; "
                    "the two horizons merge or vanish"
                )
        return True, "admissible"
    if family == "reissner-nordstrom":
        m = params.get("m", 1.0)
        q = params.get("q", 0.0)
        if not (m > 2.0 * q > 0.0):
            return False, f"need m > 2q > 0, got m = {m}, q = {q}"
        return True, "admissible"
    if family in ("euclidean", "sphere", "hyperbolic"):
        return True, "admissible"
    return False, f"unknown family {family!r}"


def horizon_radius(family: str, n: int, params: dict) -> float:
    """Largest root of omega for a built-in family, to 1e-12 relative."""
    ok, msg = admissibility(family, n, params)
    if not ok:
        raise ParameterError(msg)
    m = params.get("m", 1.0)
    if family == "schwarzschild":
        return m ** (1.0 / (n - 2))
    if family == "reissner-nordstrom":
        q = params["q"]
        # roots in u = s^{2-n} of q^2 u^2 - m u + 1; the larger s is the
        # smaller u, and the stable expression avoids cancellation
        disc = math.sqrt(m * m - 4.0 * q * q)
        u_small = 2.0 / (m + disc)
        return u_small ** (-1.0 / (n - 2))
    if family == "desitter-schwarzschild":
        kappa = params.get("kappa", 0.0)
        omega = _poly_omega(n, m, kappa, 0.0)
        f = lambda s: float(omega(np.asarray(s))[0])
        s_guess = m ** (1.0 / (n - 2))
        if kappa <= 0:
            lo, hi = s_guess * 1e-3, s_guess
            while f(hi) <= 0:
                hi *= 2.0
        else:
            s_peak = ((n - 2) * m / (2.0 * kappa)) ** (1.0 / n)
            if f(s_peak) <= 0:
                raise ParameterError("omega never becomes positive")
            lo, hi = s_peak * 1e-6, s_peak
        root = brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)
        return float(root)
    raise ParameterError(f"family {family!r} has no horizon")


def _upper_horizon(omega_fn, s_floor) -> float | None:
    """Root of omega above the positive bulk, if any (cosmological horizon)."""
    f = lambda s: float(omega_fn(np.asarray(s))[0])
    s = s_floor
    step = s_floor
    for _ in range(200):
        nxt = s + step
        if f(nxt) <= 0.0:
            return float(brentq(f, s, nxt, xtol=1e-300, rtol=1e-15))
        s = nxt
        step *= 1.5
    return None


def schwarzschild_profile(n: int, m: float = 1.0, s_max: float | None = None) -> OmegaProfile:
    ok, msg = admissibility("schwarzschild", n, {"m": m})
    if not ok:
        raise ParameterError(msg)
    s_floor = horizon_radius("schwarzschild", n, {"m": m})
    if s_max is None:
        s_max = 10.0 * s_floor
    return OmegaProfile(
        "schwarzschild", n, s_floor, s_max, _poly_omega(n, m, 0.0, 0.0),
        params={"m": m}, one_minus_omega=_poly_one_minus_omega(n, m, 0.0, 0.0),
    )


def desitter_schwarzschild_profile(
    n: int, m: float = 1.0, kappa: float = 0.0, s_max: float | None = None
) -> OmegaProfile:
    ok, msg = admissibility("desitter-schwarzschild", n, {"m": m, "kappa": kappa})
    if not ok:
        raise ParameterError(msg)
    omega = _poly_omega(n, m, kappa, 0.0)
    s_floor = horizon_radius("desitter-schwarzschild", n, {"m": m, "kappa": kappa})
    if kappa > 0:
        upper = _upper_horizon(omega, s_floor)
        ceiling = upper * (1.0 - 1e-9)
        s_max = ceiling if s_max is None else min(s_max, ceiling)
    elif s_max is None:
        s_max = 10.0 * s_floor
    return OmegaProfile(
        "desitter-schwarzschild", n, s_floor, s_max, omega,
        params={"m": m, "kappa": kappa},
        one_minus_omega=_poly_one_minus_omega(n, m, kappa, 0.0),
    )


def reissner_nordstrom_profile(
    n: int, m: float = 1.0, q: float = 0.25, s_max: float | None = None
) -> OmegaProfile:
    ok, msg = admissibility("reissner-nordstrom", n, {"m": m, "q": q})
    if not ok:
        raise ParameterError(msg)
    s_floor = horizon_radius("reissner-nordstrom", n, {"m": m, "q": q})
    if s_max is None:
        s_max = 10.0 * s_floor
    return OmegaProfile(
        "reissner-nordstrom",
        n,
        s_floor,
        s_max,
        _poly_omega(n, m, 0.0, q * q),
        params={"m": m, "q": q},
        one_minus_omega=_poly_one_minus_omega(n, m, 0.0, q * q),
    )


def load_omega_table(path, n: int, s_max: float | None = None) -> OmegaProfile:
    """Read a two-column (s, omega) text table into a profile.

    Lines starting with '#' are comments.  The first row must be the horizon,
    omega = 0; s must be strictly increasing.  Derivatives come from a
    quintic spline of the samples.
    """
    data = np.loadtxt(path, comments="#", dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ParameterError(f"{path}: expected two columns (s, omega)")
    s, om = data[:, 0], data[:, 1]
    if s.size < 8:
        raise ParameterError(f"{path}: need at least 8 samples")
    if not np.all(np.diff(s) > 0):
        raise ParameterError(f"{path}: s must be strictly increasing")
    if abs(om[0]) > 1e-10 * max(1.0, s[0]):
        raise ParameterError(f"{path}: first row must sit on the horizon (omega = 0)")
    spline = make_interp_spline(s, om, k=5)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    def omega(x):
        return spline(x), d1(x), d2(x)

    ceiling = float(s[-1]) if s_max is None else min(float(s[-1]), s_max)
    return OmegaProfile("omega-table", n, float(s[0]), ceiling, omega, kind="tabulated")


# ---------------------------------------------------------------------------
# omega -> warping transformation


# Gauss-Legendre points per arc-length panel
PANEL_POINTS = 32
# knot intervals per omega call while F is tabulated; bounds the size of the
# temporaries a single omega evaluation allocates
PANEL_BLOCK = 64


def _panel_nodes(edges):
    """Gauss-Legendre nodes/weights between consecutive edges, one row per panel."""
    x, wts = roots_legendre(PANEL_POINTS)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * x, half[:, None] * wts


def _xi_integrand(profile: OmegaProfile, xi):
    """Integrand 2 xi / sqrt(omega(s_floor + xi^2)) of F in the variable xi.

    The stored floor is declared to be the horizon; subtracting the roundoff
    residual of omega there keeps the square root from going through zero a
    hair early or late.  At xi = 0, and wherever s_floor + xi^2 rounds so
    close to s_floor that the shifted omega is 0, the integrand takes its
    limit 2 / sqrt(omega'(s_floor)).
    """
    w0, w1, _ = profile.omega(np.asarray(profile.s_floor))
    xi = np.asarray(xi, dtype=float)
    om = np.maximum(profile.omega(profile.s_floor + xi * xi)[0] - float(w0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * xi / np.sqrt(om)
    return np.where(om > 0.0, out, 2.0 / math.sqrt(float(w1)))


@dataclass(frozen=True)
class OmegaBackedWarping(WarpingFunction):
    """Warping profile obtained from a horizon profile by arc-length change.

    Adds the two directions of the coordinate change: ``distance_of_area_radius``
    is the arc-length integral F by direct quadrature, independent of the
    stored spline, and ``area_radius_of_distance`` is the stored quintic
    spline of s = h(r), the same lookup ``jet`` makes.
    """

    profile: OmegaProfile = None
    _h_spline: Callable[[np.ndarray], np.ndarray] = None

    def distance_of_area_radius(self, s):
        """F(s): arc length from the horizon to area radius s, by direct quadrature."""
        prof = self.profile
        arr = np.asarray(s, dtype=float)
        if arr.size and (arr.min() < prof.s_floor * (1 - 1e-12) or arr.max() > prof.s_max * (1 + 1e-12)):
            raise DomainError("area radius outside [s_floor, s_max]")
        xi_panel = max(math.sqrt(prof.s_max - prof.s_floor) / 256.0, 1e-12)
        out = np.zeros(arr.shape, dtype=float)
        res = out.ravel()
        for i, si in enumerate(arr.ravel()):
            xi = math.sqrt(max(si - prof.s_floor, 0.0))
            if xi > 0.0:
                panels = max(4, int(math.ceil(xi / xi_panel)))
                nodes, weights = _panel_nodes(np.linspace(0.0, xi, panels + 1))
                res[i] = np.sum(weights * _xi_integrand(prof, nodes))
        return float(out) if np.ndim(s) == 0 else out

    def area_radius_of_distance(self, r):
        """Inverse of F: the stored spline of s = h(r)."""
        arr = np.asarray(r, dtype=float)
        if arr.size and (arr.min() < -1e-14 or arr.max() > self.r_bar * (1 + 1e-12)):
            raise DomainError(f"distance outside [0, {self.r_bar}]")
        s = self._h_spline(np.clip(arr, 0.0, self.r_bar))
        return float(s) if np.ndim(r) == 0 else s


def omega_to_warping(profile: OmegaProfile, knots: int = 2048) -> OmegaBackedWarping:
    """Build the warped-form profile h from a horizon profile omega.

    The arc length F is tabulated on ``knots`` points equally spaced in the
    desingularized variable xi = sqrt(s - s_floor), one composite
    Gauss-Legendre panel per knot interval.  The pairs (F(xi_k), s_floor +
    xi_k^2) are samples of s = h(r), and a quintic spline through them is the
    one stored representation of h.  Jets then come from the exact
    chain-rule relations, so the spline only ever enters through the r -> s
    lookup.
    """
    if knots < 64:
        raise ParameterError("need at least 64 knots")
    xi_knots = np.linspace(0.0, math.sqrt(profile.s_max - profile.s_floor), knots)
    panel_sums = []
    for lo in range(0, knots - 1, PANEL_BLOCK):
        nodes, weights = _panel_nodes(xi_knots[lo : lo + PANEL_BLOCK + 1])
        panel_sums.append(np.sum(weights * _xi_integrand(profile, nodes), axis=1))
    f_vals = np.concatenate(([0.0], np.cumsum(np.concatenate(panel_sums))))
    h_spline = make_interp_spline(f_vals, profile.s_floor + xi_knots * xi_knots, k=5)
    # roundoff residual of omega at the declared horizon; absorbing it makes
    # h'(0) exactly zero instead of sqrt(residual) ~ 1e-8
    omega_shift = float(np.asarray(profile.omega(np.asarray(profile.s_floor))[0]))

    def jet(r):
        s = h_spline(r)
        om, om1, om2 = profile.omega(s)
        sq = np.sqrt(np.maximum(om - omega_shift, 0.0))
        return s, sq, 0.5 * om1, 0.5 * om2 * sq

    defect = None
    if profile.one_minus_omega is not None:

        def defect(r):
            s = h_spline(r)
            return profile.one_minus_omega(s) / (s * s)

    return OmegaBackedWarping(
        name=profile.name,
        dim=profile.dim,
        r_bar=float(f_vals[-1]),
        rho=1.0,
        variant="boundary",
        kind=profile.kind,
        _jet=jet,
        params=dict(profile.params),
        _defect=defect,
        profile=profile,
        _h_spline=h_spline,
    )


# ---------------------------------------------------------------------------
# catalog

MODEL_FAMILIES = {
    "euclidean": {
        "params": {"r_bar": 10.0},
        "variant": "ball",
        "notes": "flat ball, h = r",
    },
    "sphere": {
        "params": {"curvature": 1.0},
        "variant": "ball",
        "notes": "round sphere up to the equator, h = sin(sqrt(c) r)/sqrt(c)",
    },
    "hyperbolic": {
        "params": {"curvature": 1.0, "r_bar": 10.0},
        "variant": "ball",
        "notes": "hyperbolic ball, h = sinh(sqrt(c) r)/sqrt(c)",
    },
    "schwarzschild": {
        "params": {"m": 1.0, "s_max": None},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n); scalar-flat exterior",
    },
    "desitter-schwarzschild": {
        "params": {"m": 1.0, "kappa": 0.0, "s_max": None},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n) - kappa s^2; constant scalar curvature n(n-1) kappa",
    },
    "reissner-nordstrom": {
        "params": {"m": 1.0, "q": 0.25, "s_max": None},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n) + q^2 s^(4-2n); needs m > 2q > 0",
    },
    "omega-table": {
        "params": {"path": None, "s_max": None},
        "variant": "boundary",
        "notes": "two-column (s, omega) text table, '#' comments, horizon on the first row",
    },
}


def make_model(family: str, n: int, **params) -> WarpingFunction:
    """Construct a built-in ambient by family name.

    Space-form families return closed-form warpings directly; horizon
    families go through the omega -> warping transformation.
    """
    if family == "euclidean":
        return euclidean_warping(n, r_bar=params.get("r_bar", 10.0))
    if family == "sphere":
        return spherical_warping(
            n, curvature=params.get("curvature", 1.0), r_bar=params.get("r_bar")
        )
    if family == "hyperbolic":
        return hyperbolic_warping(
            n, curvature=params.get("curvature", 1.0), r_bar=params.get("r_bar", 10.0)
        )
    knots = params.get("knots", 2048)
    if family == "schwarzschild":
        prof = schwarzschild_profile(n, m=params.get("m", 1.0), s_max=params.get("s_max"))
    elif family == "desitter-schwarzschild":
        prof = desitter_schwarzschild_profile(
            n, m=params.get("m", 1.0), kappa=params.get("kappa", 0.0), s_max=params.get("s_max")
        )
    elif family == "reissner-nordstrom":
        prof = reissner_nordstrom_profile(
            n, m=params.get("m", 1.0), q=params.get("q", 0.25), s_max=params.get("s_max")
        )
    elif family == "omega-table":
        if not params.get("path"):
            raise ParameterError("omega-table needs path=<file>")
        prof = load_omega_table(params["path"], n, s_max=params.get("s_max"))
    else:
        raise ParameterError(f"unknown model family {family!r}")
    return omega_to_warping(prof, knots=knots)


def omega_condition_margins(profile: OmegaProfile, s):
    """Condition margins evaluated directly in the area-radius chart.

    Returns a dict with the same quantities the warp-form evaluators
    produce at r = F(s): the potential sqrt(omega), the monotonicity
    quantity and its slope with respect to arc length, and the Ricci
    gap margin.  Everything is assembled from omega jets alone, so a
    disagreement with the warp-form route would expose an error in the
    change of variables.
    """
    arr = np.asarray(s, dtype=float)
    om, omp, ompp = profile.omega(arr)
    if profile.one_minus_omega is not None:
        one_minus = profile.one_minus_omega(arr)
    else:
        one_minus = 1.0 - om
    n = profile.dim
    defect = one_minus / (arr * arr)
    quantity = omp / arr - (n - 2) * defect
    slope_s = (
        ompp / arr
        - omp / (arr * arr)
        + (n - 2) * (omp / (arr * arr) + 2.0 * one_minus / arr**3)
    )
    out = {
        "potential": np.sqrt(np.maximum(om, 0.0)),
        "monotonicity_quantity": quantity,
        "monotonicity_slope": slope_s * np.sqrt(np.maximum(om, 0.0)),
        "ricci_gap_margin": omp / (2.0 * arr) + defect,
    }
    if np.ndim(s) == 0:
        return {k: float(v) for k, v in out.items()}
    return out
