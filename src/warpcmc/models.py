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
2 xi / sqrt(omega(s_floor + xi^2)).  When omega has a second root s_upper
just above the chart (deSitter-Schwarzschild with kappa > 0), the part of
the chart above the midpoint substitutes s = s_upper - eta^2 the same way.
The built-in families evaluate omega(root + d) - omega(root) without
cancellation, so the integrand keeps full precision next to either root.

F is tabulated once, by one 8-point Gauss-Legendre panel between consecutive
knots equally spaced in xi (and eta).  A quintic Hermite interpolant through
the knots (F(s_k), s_k), with the exact h' and h'' there, is resampled on a
uniform r grid, and that ``HermiteTable`` is the only representation of h:
a lookup is one index floor(r/dr) and Horner's rule, and the jet takes the
derivatives from omega.  ``distance_of_area_radius`` integrates F afresh with
32-point panels of its own and serves as an independent check of the table.

The module needs numpy alone; only ``load_omega_table`` needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, ParameterError
from .spectral import TABLE_BUDGET_BYTES
from .warping import (
    WarpingFunction,
    euclidean_warping,
    find_root,
    hyperbolic_warping,
    _quintic_spline,
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
    params: dict = field(default_factory=dict)
    # optional direct evaluator of 1 - omega; evaluating it as a difference
    # cancels wherever omega is close to 1, and (1 - omega)/s^2 feeds the
    # curvature-defect quantity that several margins need to high accuracy
    one_minus_omega: Callable[[np.ndarray], np.ndarray] | None = None
    # optional evaluator of omega(root + d) - omega(root) for a root of omega;
    # next to a root the plain difference is mostly roundoff, and the
    # arc-length integrand divides by its square root
    omega_difference: Callable[[float, np.ndarray], np.ndarray] | None = None
    # second root of omega above s_max (a cosmological horizon), if any; the
    # arc length is then integrated from it on the upper half of the chart
    s_upper: float | None = None

    def __post_init__(self):
        if not (self.s_max > self.s_floor > 0.0):
            raise ParameterError("need 0 < s_floor < s_max")
        if self.s_upper is not None and not self.s_upper > self.s_max:
            raise ParameterError("need s_max < s_upper")
        w0, w0p = (float(np.asarray(v)) for v in self.omega(np.asarray(self.s_floor))[:2])
        if abs(w0) > 1e-10 * max(1.0, abs(self.s_floor)):
            raise ParameterError(f"omega(s_floor) = {w0}, expected 0")
        if w0p <= 0.0:
            raise ParameterError("omega must have positive slope at the horizon")
        probe = np.linspace(self.s_floor, self.s_max, 4097)[1:]
        if np.min(self.omega(probe)[0]) <= 0.0:
            raise ParameterError("omega must stay positive above the horizon")


# ---------------------------------------------------------------------------
# built-in families


# The evaluators skip a kappa or charge2 term whose coefficient is 0 and keep the
# order of the full polynomial: a skipped term adds an exact 0.0, so no bit moves.
def _poly_evaluators(dim, mass, kappa, charge2):
    """Evaluators of omega(s) = 1 - mass s^{2-n} - kappa s^2 + charge2 s^{4-2n}.

    Returns (omega, one_minus_omega, difference): omega with its first two
    derivatives, 1 - omega, and difference(r, d) = omega(r + d) - omega(r)
    with each power difference as r^p expm1(p log1p(d/r)).
    """
    p = 2 - dim
    q = 4 - 2 * dim

    def omega(s):
        w = 1.0 - mass * s**p
        w1 = -mass * p * s ** (p - 1)
        w2 = -mass * p * (p - 1) * s ** (p - 2)
        if kappa:
            w = w - kappa * s**2
            w1 = w1 - 2.0 * kappa * s
            w2 = w2 - 2.0 * kappa
        if charge2:
            w = w + charge2 * s**q
            w1 = w1 + charge2 * q * s ** (q - 1)
            w2 = w2 + charge2 * q * (q - 1) * s ** (q - 2)
        return w, w1, w2

    def one_minus_omega(s):
        out = mass * s**p
        if kappa:
            out = out + kappa * s**2
        if charge2:
            out = out - charge2 * s**q
        return out

    def difference(r, d):
        grow = np.log1p(d / r)
        out = -mass * r**p * np.expm1(p * grow)
        if charge2:
            out = charge2 * r**q * np.expm1(q * grow) + out
        if kappa:
            out = out - kappa * d * (2.0 * r + d)
        return out

    return omega, one_minus_omega, difference


def _family_params(family: str, params: dict) -> dict:
    """The parameters ``family`` reads: ``params`` over its MODEL_FAMILIES defaults."""
    defaults = MODEL_FAMILIES[family]["params"]
    return {key: params.get(key, value) for key, value in defaults.items()}


def _coefficients(params: dict) -> tuple:
    """(mass, kappa, charge2) of omega for a horizon family's parameters."""
    q = params.get("q", 0.0)
    return params["m"], params.get("kappa", 0.0), q * q


def admissibility(family: str, n: int, params: dict) -> tuple[bool, str]:
    """Check whether family parameters give a regular horizon profile.

    Missing parameters take the family's defaults from ``MODEL_FAMILIES``.
    Returns (ok, message); the message explains the first failed constraint.
    """
    if n < 3:
        return False, f"ambient dimension must be >= 3, got {n}"
    # an omega table runs its own checks when it is loaded
    if family in ("euclidean", "sphere", "hyperbolic", "omega-table"):
        return True, "admissible"
    if family not in _HORIZON_FAMILIES:
        return False, f"unknown family {family!r}"
    p = _family_params(family, params)
    m = p["m"]
    if family == "reissner-nordstrom":
        if not (m > 2.0 * p["q"] > 0.0):
            return False, f"need m > 2q > 0, got m = {m}, q = {p['q']}"
    elif m <= 0:
        return False, f"mass must be positive, got m = {m}"
    elif family == "desitter-schwarzschild" and p["kappa"] > 0:
        # both horizons exist when omega is positive at its peak (see _horizons)
        s_peak = ((n - 2) * m / (2.0 * p["kappa"])) ** (1.0 / n)
        peak = float(_poly_evaluators(n, m, p["kappa"], 0.0)[0](s_peak)[0])
        if not peak > 0.0:
            return False, f"omega = {peak:.6g} <= 0 at its peak; the two horizons merge or vanish"
    return True, "admissible"


def horizon_radius(family: str, n: int, params: dict) -> float:
    """Largest root of omega for a built-in family, to 1e-12 relative.

    Missing parameters take the family's defaults from ``MODEL_FAMILIES``.
    For deSitter-Schwarzschild with kappa > 0 this is the lower of the two
    roots (see ``_horizons``).
    """
    ok, msg = admissibility(family, n, params)
    if not ok:
        raise ParameterError(msg)
    if family not in _HORIZON_FAMILIES:
        raise ParameterError(f"family {family!r} has no horizon")
    return _horizons(n, *_coefficients(_family_params(family, params)))[0]


def _horizons(n, mass, kappa, charge2):
    """Horizon s_floor of an admissible omega and its cosmological horizon s_upper, or None.

    No family has both kappa and charge2.  kappa > 0: omega peaks at
    s_peak = ((n-2) m / (2 kappa))^(1/n), where it is positive for every
    admissible kappa, so each root is bracketed on its own side: omega <
    1 - m s^(2-n) <= -1 at half the Schwarzschild radius below, and omega <
    1 - kappa s^2 = -3 at s = 2 kappa^(-1/2) above.  kappa < 0: omega
    increases with s and the mass term makes it negative for small s, so the
    bracket widens from the Schwarzschild radius both ways.
    """
    if charge2:
        # roots in u = s^{2-n} of q^2 u^2 - m u + 1; the larger s is the
        # smaller u, and the stable expression avoids cancellation
        disc = math.sqrt(mass * mass - 4.0 * charge2)
        return (2.0 / (mass + disc)) ** (-1.0 / (n - 2)), None
    schwarzschild = mass ** (1.0 / (n - 2))
    if not kappa:
        return schwarzschild, None
    omega = _poly_evaluators(n, mass, kappa, 0.0)[0]
    f = lambda s: float(omega(s)[0])
    if kappa > 0:
        s_peak = ((n - 2) * mass / (2.0 * kappa)) ** (1.0 / n)
        lower = find_root(f, 0.5 * schwarzschild, s_peak)
        return float(lower), float(find_root(f, s_peak, 2.0 / math.sqrt(kappa)))
    lo = hi = schwarzschild
    while f(lo) >= 0:
        lo *= 0.5
    while f(hi) <= 0:
        hi *= 2.0
    return float(find_root(f, lo, hi)), None


def _horizon_profile(family: str, n: int, params: dict) -> OmegaProfile:
    """Profile of a closed-form horizon family; ``params`` holds its parameters and s_max.

    s_max None takes 10 s_floor; a cosmological horizon caps it at
    s_upper (1 - 1e-9).
    """
    ok, msg = admissibility(family, n, params)
    if not ok:
        raise ParameterError(msg)
    params = dict(params)
    s_max = params.pop("s_max")
    mass, kappa, charge2 = _coefficients(params)
    s_floor, s_upper = _horizons(n, mass, kappa, charge2)
    if s_upper is not None:
        ceiling = s_upper * (1.0 - 1e-9)
        s_max = ceiling if s_max is None else min(s_max, ceiling)
    elif s_max is None:
        s_max = 10.0 * s_floor
    omega, one_minus_omega, difference = _poly_evaluators(n, mass, kappa, charge2)
    return OmegaProfile(
        family, n, s_floor, s_max, omega, params=params,
        one_minus_omega=one_minus_omega, omega_difference=difference, s_upper=s_upper,
    )


def schwarzschild_profile(n: int, m: float, s_max: float | None = None) -> OmegaProfile:
    return _horizon_profile("schwarzschild", n, {"m": m, "s_max": s_max})


def desitter_schwarzschild_profile(
    n: int, m: float, kappa: float, s_max: float | None = None
) -> OmegaProfile:
    return _horizon_profile("desitter-schwarzschild", n, {"m": m, "kappa": kappa, "s_max": s_max})


def reissner_nordstrom_profile(
    n: int, m: float, q: float, s_max: float | None = None
) -> OmegaProfile:
    return _horizon_profile("reissner-nordstrom", n, {"m": m, "q": q, "s_max": s_max})


def load_omega_table(path, n: int, s_max: float | None = None) -> OmegaProfile:
    """Read a two-column (s, omega) text table into a profile.

    Lines starting with '#' are comments.  The first row must be the horizon,
    omega = 0; s must be strictly increasing.  Derivatives come from a
    quintic spline of the samples (``warping._quintic_spline``).
    """
    try:
        data = np.loadtxt(path, comments="#", dtype=float)
    except OSError as exc:
        raise ParameterError(f"cannot read the omega table: {exc}") from exc
    except ValueError as exc:  # a non-numeric entry or a ragged row
        raise ParameterError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ParameterError(f"{path}: expected two columns (s, omega)")
    if not np.isfinite(data).all():
        raise ParameterError(f"{path}: every sample must be finite")
    s, om = data[:, 0], data[:, 1]
    if s.size < 8:
        raise ParameterError(f"{path}: need at least 8 samples")
    if not np.all(np.diff(s) > 0):
        raise ParameterError(f"{path}: s must be strictly increasing")
    if abs(om[0]) > 1e-10 * max(1.0, s[0]):
        raise ParameterError(f"{path}: first row must sit on the horizon (omega = 0)")
    omega = _quintic_spline(s, om, 2)
    ceiling = float(s[-1]) if s_max is None else min(float(s[-1]), s_max)
    return OmegaProfile("omega-table", n, float(s[0]), ceiling, omega)


# ---------------------------------------------------------------------------
# omega -> warping transformation


# Gauss-Legendre rules on [-1, 1].  A knot interval is about 1/2047 of the chart
# in xi (or eta) and the integrand is analytic far beyond it, so 8 points reach
# roundoff; the oracle keeps 32 points, sharing neither panels nor rule.
_KNOT_RULE = leggauss(8)
_ORACLE_RULE = leggauss(32)
# knot intervals per omega call while F is tabulated: 256 x 8 = 2048 nodes
# bounds the size of the temporaries a single omega evaluation allocates
PANEL_BLOCK = 256
# a build peaks at 224 bytes per knot plus about 0.1 MB (tracemalloc, 1e4 to 1e6
# knots, each kind of profile); the extra byte per knot covers that 0.1 MB
BUILD_BYTES_PER_KNOT = 225


def _panel_nodes(edges, x, w):
    """Nodes/weights of the rule (x, w) on [-1, 1] between consecutive edges, one row per panel."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def _root_integrand(profile: OmegaProfile, root, sign, x, at_root):
    """Integrand 2 x / sqrt(omega(root + sign x^2)) of F in x = sqrt(|s - root|).

    ``root`` is the horizon s_floor (sign +1) or the cosmological horizon
    s_upper (sign -1); the substitution removes the square-root singularity
    of 1/sqrt(omega) there.  The stored root is declared to be a zero of
    omega, so the integrand takes omega(root + sign x^2) - omega(root):
    from the profile's ``omega_difference`` when it has one, otherwise as a
    difference, which keeps the square root from going through zero a hair
    early or late.  At x = 0, and wherever that difference is 0, the
    integrand takes its limit 2 / sqrt(|omega'(root)|).  ``at_root`` is
    ``profile.omega`` at the root, evaluated once per pass by the caller.
    """
    w0, w1, _ = at_root
    x = np.asarray(x, dtype=float)
    if profile.omega_difference is not None:
        om = profile.omega_difference(root, sign * x * x)
    else:
        om = profile.omega(root + sign * x * x)[0] - float(w0)
    om = np.maximum(om, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * x / np.sqrt(om)
    return np.where(om > 0.0, out, 2.0 / math.sqrt(sign * float(w1)))


def _split_radius(profile: OmegaProfile):
    """Midpoint (s_floor + s_upper)/2 when the chart reaches past it, else None.

    Above it F is integrated from the upper root s_upper in eta = sqrt(s_upper - s).
    """
    if profile.s_upper is None:
        return None
    mid = 0.5 * (profile.s_floor + profile.s_upper)
    return mid if profile.s_max > mid else None


def _cumulative_arc_length(profile: OmegaProfile, root, sign, x):
    """F(root + sign x_k^2) - F(root + sign x_0^2) for every k, an 8-point panel per interval."""
    panel_sums = []
    at_root = profile.omega(np.asarray(root))
    for lo in range(0, x.size - 1, PANEL_BLOCK):
        nodes, weights = _panel_nodes(x[lo : lo + PANEL_BLOCK + 1], *_KNOT_RULE)
        integrand = _root_integrand(profile, root, sign, nodes, at_root)
        panel_sums.append(np.sum(weights * integrand, axis=1))
    return sign * np.concatenate(([0.0], np.cumsum(np.concatenate(panel_sums))))


def _arc_length_knots(profile: OmegaProfile, knots: int):
    """Samples (F(s_k), s_k) of s = h(r), ``knots`` of them from s_floor to s_max.

    The s_k are equally spaced in xi = sqrt(s - s_floor).  When the chart
    reaches past the midpoint toward an upper root, the knots above the
    midpoint are equally spaced in eta = sqrt(s_upper - s) instead, and F
    there is integrated in eta, so neither root leaves a singular integrand.
    """
    s_floor, s_max = profile.s_floor, profile.s_max
    split = _split_radius(profile)
    if split is None:
        xi = np.linspace(0.0, math.sqrt(s_max - s_floor), knots)
        return _cumulative_arc_length(profile, s_floor, 1.0, xi), s_floor + xi * xi
    lower = (knots + 1) // 2
    xi = np.linspace(0.0, math.sqrt(split - s_floor), lower)
    s_upper = profile.s_upper
    eta = np.linspace(math.sqrt(s_upper - split), math.sqrt(s_upper - s_max), knots - lower + 1)
    f_lower = _cumulative_arc_length(profile, s_floor, 1.0, xi)
    f_upper = f_lower[-1] + _cumulative_arc_length(profile, s_upper, -1.0, eta)
    s = np.concatenate((s_floor + xi * xi, s_upper - eta[1:] * eta[1:]))
    s[-1] = s_max
    return np.concatenate((f_lower, f_upper[1:])), s


def _panel_integral(profile: OmegaProfile, root, sign, a, b, width):
    """F(root + sign b^2) - F(root + sign a^2) on at least 4 panels no wider than width."""
    if a == b:
        return 0.0
    panels = max(4, int(math.ceil(abs(b - a) / width)))
    nodes, weights = _panel_nodes(np.linspace(a, b, panels + 1), *_ORACLE_RULE)
    at_root = profile.omega(np.asarray(root))
    return sign * np.sum(weights * _root_integrand(profile, root, sign, nodes, at_root))


def _quintic_hermite(dx, y, dy, d2y):
    """Power-basis coefficients of the quintic Hermite interpolant, one column per interval.

    Column k holds, from degree 0 to 5, the polynomial in t = (x - x_k)/dx_k,
    t in [0, 1], that matches y, y' and y'' at both ends of [x_k, x_k + dx_k].
    """
    a0, a1, a2 = y[:-1], dx * dy[:-1], 0.5 * dx * dx * d2y[:-1]
    A = y[1:] - a0 - a1 - a2
    B = dx * dy[1:] - a1 - 2.0 * a2
    C = dx * dx * d2y[1:] - 2.0 * a2
    a3 = 10.0 * A - 4.0 * B + 0.5 * C
    a4 = 7.0 * B - 15.0 * A - C
    a5 = 6.0 * A - 3.0 * B + 0.5 * C
    return np.stack((a0, a1, a2, a3, a4, a5))


def _horner(coef, t):
    """Evaluate power-basis coefficients (leading axis, degree 0 to 5) at t, one set per point."""
    s = coef[5] * t
    for k in (4, 3, 2, 1):
        s += coef[k]
        s *= t
    s += coef[0]
    return s


class HermiteTable:
    """s = h(r) as a quintic Hermite table on the uniform grid r_j = j dr.

    Column j < N holds the power-basis coefficients of the interpolant on
    [r_j, r_j + dr] in t = r/dr - j, and column N the Taylor polynomial at
    r_N = r_bar, so j = floor(r/dr) needs no clamp inside the chart; each
    degree is one contiguous row, and a lookup gathers six of them and runs
    Horner's rule: no search.  Indices outside [0, N] are clipped to it.  A
    scalar runs the same operations in plain Python and returns the same
    bits as inside an array.
    """

    def __init__(self, dr, s, ds, d2s):
        self.inv_dr = 1.0 / dr
        self.last = s.size - 1
        tail = [[s[-1]], [dr * ds[-1]], [0.5 * dr * dr * d2s[-1]], [0.0], [0.0], [0.0]]
        self.coef = np.hstack((_quintic_hermite(dr, s, ds, d2s), tail))

    def __call__(self, r):
        if np.ndim(r) == 0:
            u = float(r) * self.inv_dr
            j = int(u)
            t = u - j
            c0, c1, c2, c3, c4, c5 = self.coef[:, min(max(j, 0), self.last)].tolist()
            return ((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0
        u = r * self.inv_dr
        j = u.astype(np.intp)
        return _horner(self.coef.take(j, axis=1, mode="clip"), u - j)


@dataclass(frozen=True)
class OmegaBackedWarping(WarpingFunction):
    """Warping profile obtained from a horizon profile by arc-length change.

    Adds the two directions of the coordinate change: ``distance_of_area_radius``
    is the arc-length integral F by direct quadrature, independent of the
    stored table, and ``area_radius_of_distance`` is the stored table of
    s = h(r), the same lookup ``jet`` makes.
    """

    profile: OmegaProfile = None
    _h_table: HermiteTable = None

    def distance_of_area_radius(self, s):
        """F(s): arc length from the horizon to area radius s, by direct quadrature.

        32-point Gauss-Legendre panels no wider than sqrt(s_max - s_floor)/256,
        at least 4, in xi = sqrt(s - s_floor); above the midpoint toward an
        upper root the part past the midpoint is integrated in eta =
        sqrt(s_upper - s).
        """
        prof = self.profile
        arr = np.asarray(s, dtype=float)
        lo, hi = prof.s_floor * (1 - 1e-12), prof.s_max * (1 + 1e-12)
        if arr.size and not (arr.min() >= lo and arr.max() <= hi):
            raise DomainError("area radius outside [s_floor, s_max]")
        width = max(math.sqrt(prof.s_max - prof.s_floor) / 256.0, 1e-12)
        split = _split_radius(prof)
        out = np.zeros(arr.shape, dtype=float)
        res = out.ravel()
        for i, si in enumerate(arr.ravel()):
            top = si if split is None else min(si, split)
            xi = math.sqrt(max(top - prof.s_floor, 0.0))
            res[i] = _panel_integral(prof, prof.s_floor, 1.0, 0.0, xi, width)
            if top < si:
                eta_split = math.sqrt(prof.s_upper - split)
                eta = math.sqrt(max(prof.s_upper - si, 0.0))
                res[i] += _panel_integral(prof, prof.s_upper, -1.0, eta_split, eta, width)
        return float(out) if np.ndim(s) == 0 else out

    def area_radius_of_distance(self, r):
        """Inverse of F: the stored table of s = h(r), on the chart of ``jet``."""
        s = self._h_table(self._in_chart(r))
        return float(s) if np.ndim(r) == 0 else s


def omega_to_warping(profile: OmegaProfile, knots: int = 2048) -> OmegaBackedWarping:
    """Build the warped-form profile h from a horizon profile omega.

    The arc length F is tabulated at ``knots`` area radii s_k, one 8-point
    Gauss-Legendre panel per knot interval in a variable that removes the
    square-root singularity at the nearer root of omega
    (``_arc_length_knots``); the oracle ``distance_of_area_radius`` uses
    32-point panels instead.  A quintic Hermite interpolant through
    (F(s_k), s_k) with the exact h' = sqrt(omega) and h'' = omega'/2 is
    resampled on a uniform r grid of knots - 1 intervals, and the
    ``HermiteTable`` on that grid is the one stored representation of h.
    Jets then come from the exact chain-rule relations, so the table only
    ever enters through the r -> s lookup.  A knot count whose build would
    take more than ``TABLE_BUDGET_BYTES`` is refused before anything is built.
    """
    if knots < 64:
        raise ParameterError("need at least 64 knots")
    if knots * BUILD_BYTES_PER_KNOT > TABLE_BUDGET_BYTES:
        raise ParameterError(f"{knots} knots exceed the {TABLE_BUDGET_BYTES >> 20} MiB build budget")
    f_knots, s_knots = _arc_length_knots(profile, knots)
    # roundoff residual of omega at the declared horizon; absorbing it makes
    # h'(0) exactly zero instead of sqrt(residual) ~ 1e-8.  omega may round
    # differently on a float than on an array (Python's pow is not numpy's),
    # so scalar lookups, which return floats, subtract a float's residual
    omega_shift = float(np.asarray(profile.omega(np.asarray(profile.s_floor))[0]))
    float_shift = float(np.asarray(profile.omega(float(profile.s_floor))[0]))

    def slopes(s):
        om, om1, _ = profile.omega(s)
        return np.sqrt(np.maximum(om - omega_shift, 0.0)), 0.5 * om1

    knot_dr = np.diff(f_knots)
    knot_coef = _quintic_hermite(knot_dr, s_knots, *slopes(s_knots))
    r_bar = float(f_knots[-1])
    dr = r_bar / (knots - 1)
    r = np.arange(knots) * dr
    k = np.clip(np.searchsorted(f_knots, r, side="right") - 1, 0, knots - 2)
    s = _horner(knot_coef[:, k], (r - f_knots[k]) / knot_dr[k])
    s[0], s[-1] = profile.s_floor, profile.s_max
    table = HermiteTable(dr, s, *slopes(s))

    def jet(r):
        s = table(r)
        om, om1, om2 = profile.omega(s)
        if isinstance(s, float):
            sq = math.sqrt(max(0.0, om - float_shift))  # np.maximum's bits, -0.0 -> 0.0
        else:
            sq = np.sqrt(np.maximum(om - omega_shift, 0.0))
        return s, sq, 0.5 * om1, 0.5 * om2 * sq

    one_minus_omega = profile.one_minus_omega
    return OmegaBackedWarping(
        name=profile.name,
        dim=profile.dim,
        r_bar=r_bar,
        variant="boundary",
        _jet=jet,
        _defect=None if one_minus_omega is None else lambda s: one_minus_omega(s) / (s * s),
        profile=profile,
        _h_table=table,
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
        "params": {"curvature": 1.0, "r_bar": None},
        "variant": "ball",
        "notes": "round sphere up to the equator, h = sin(sqrt(c) r)/sqrt(c)",
    },
    "hyperbolic": {
        "params": {"curvature": 1.0, "r_bar": 10.0},
        "variant": "ball",
        "notes": "hyperbolic ball, h = sinh(sqrt(c) r)/sqrt(c)",
    },
    "schwarzschild": {
        "params": {"m": 1.0, "s_max": None, "knots": 2048},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n); scalar-flat exterior",
    },
    "desitter-schwarzschild": {
        "params": {"m": 1.0, "kappa": 0.0, "s_max": None, "knots": 2048},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n) - kappa s^2; constant scalar curvature n(n-1) kappa",
    },
    "reissner-nordstrom": {
        "params": {"m": 1.0, "q": 0.25, "s_max": None, "knots": 2048},
        "variant": "boundary",
        "notes": "omega = 1 - m s^(2-n) + q^2 s^(4-2n); needs m > 2q > 0",
    },
    "omega-table": {
        "params": {"path": None, "s_max": None, "knots": 2048},
        "variant": "boundary",
        "notes": "two-column (s, omega) text table, '#' comments, horizon on the first row",
    },
}

# closed-form horizon families: omega is one polynomial in (m, kappa, q^2)
_HORIZON_FAMILIES = ("schwarzschild", "desitter-schwarzschild", "reissner-nordstrom")


def make_model(family: str, n: int, **params) -> WarpingFunction:
    """Construct a built-in ambient by family name.

    Missing parameters take the family's defaults from ``MODEL_FAMILIES``,
    and parameters the family does not read are ignored.  Space-form
    families return closed-form warpings directly; horizon families go
    through the omega -> warping transformation.
    """
    if family not in MODEL_FAMILIES:
        raise ParameterError(f"unknown model family {family!r}")
    p = _family_params(family, params)
    if family == "euclidean":
        return euclidean_warping(n, **p)
    if family == "sphere":
        return spherical_warping(n, **p)
    if family == "hyperbolic":
        return hyperbolic_warping(n, **p)
    knots = p.pop("knots")
    if family == "omega-table":
        if not p["path"]:
            raise ParameterError("omega-table needs path=<file>")
        prof = load_omega_table(n=n, **p)
    else:
        prof = _horizon_profile(family, n, p)
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
