"""Shared fixtures.

Expensive ambients (horizon families go through an arc-length spline
build) are session scoped; everything downstream treats them as
immutable, which the frozen dataclasses enforce.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from warpcmc import WarpingFunction, make_model, tabulated_warping


def kappa_max(n, m):
    """Upper end of the admissible positive kappa for deSitter-Schwarzschild."""
    return (4.0 * (n - 2) ** (n - 2) / (n**n * m * m)) ** (1.0 / (n - 2))


def bump_quantity(r):
    """Monotonicity-quantity profile used to manufacture a tabulated ambient."""
    return 0.4 * np.exp(-(((r - 0.6) / 0.18) ** 2))


@pytest.fixture(scope="session")
def bump_table():
    """Tabulated n=3 ball ambient whose monotonicity quantity is a known bump.

    The warp solves 2h''/h - (1 - h'^2)/h^2 = W(r) with ball data at the
    center, so W is known exactly and the tabulated ingestion can be
    checked against it. W has a single interior maximum at r = 0.6.
    """

    def rhs(r, y):
        h, hp = y
        return [hp, 0.5 * (h * bump_quantity(r) + (1.0 - hp * hp) / h)]

    r0 = 1e-6
    sol = solve_ivp(
        rhs,
        (r0, 1.2),
        [r0, 1.0],
        rtol=1e-12,
        atol=1e-14,
        max_step=1e-3,
        dense_output=True,
    )
    assert sol.success
    radii = np.linspace(r0, 1.2, 1201)
    values = sol.sol(radii)[0]
    radii = np.concatenate(([0.0], radii))
    values = np.concatenate(([0.0], values))
    return tabulated_warping("bump", 3, radii, values, "ball")


@pytest.fixture(scope="session")
def cosine_boundary():
    """Closed-form boundary ambient outside the built-in families.

    h = 1 + (L/pi)^2 (1 - cos(pi r / L)) with L = 1.4 has h(0) = 1,
    h'(0) = 0, h''(0) = 1 and h' > 0 on (0, L); h'' crosses zero exactly
    at L/2, a clean oracle for the potential-monotone radius. No stable
    defect evaluator is attached, so the generic jet route is exercised.
    """
    L = 1.4
    a = (L / math.pi) ** 2

    def jet(r):
        t = np.pi * r / L
        return (
            1.0 + a * (1.0 - np.cos(t)),
            (L / math.pi) * np.sin(t),
            np.cos(t),
            -(math.pi / L) * np.sin(t),
        )

    return WarpingFunction("cosine", 3, L, "boundary", jet)


@pytest.fixture(scope="session")
def schw3():
    return make_model("schwarzschild", 3, m=1.0)


@pytest.fixture(scope="session")
def rn3():
    return make_model("reissner-nordstrom", 3, m=1.0, q=0.25)
