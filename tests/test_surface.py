"""Graph surfaces: first and second fundamental form assembly.

Strong oracles: coordinate slices have H = (n-1) h'/h, vanishing
trace-free shape operator, and area h^{n-1} vol(S^{n-1}); an off-center
round sphere in the flat ambient has H = (n-1)/a exactly; the full and
axisymmetric engines assemble the same zonal surface through disjoint
code paths and must agree.  The full-mode normal is checked against a
reference that builds it in an explicit tangent frame of the sphere.
"""

import math

import numpy as np
import pytest

from warpcmc import (
    DomainError,
    ParameterError,
    axisym_grid,
    euclidean_warping,
    full_sphere_grid,
    hyperbolic_warping,
    init_flow,
    parametrized_geometry,
    perturb_slice,
    slice_surface,
    sphere_volume,
    step,
)
from warpcmc.surface import GraphSurface, shape_trace_deficit


@pytest.mark.parametrize("mode", ["full", "axisym"])
def test_slice_geometry_closed_form(schw3, mode):
    engine = full_sphere_grid(24) if mode == "full" else axisym_grid(3, 48)
    r0 = 0.6 * schw3.r_bar
    surface = slice_surface(schw3, engine, r0)
    rep = surface.geometry()
    h, hp, _, _ = schw3.jet(r0)
    assert rep.area == pytest.approx(h**2 * sphere_volume(2), rel=1e-12)
    assert np.max(np.abs(rep.mean_curvature - 2.0 * hp / h)) < 1e-11
    assert np.max(rep.shape_deficit) < 1e-11
    assert np.max(np.abs(rep.nu_radial - 1.0)) < 1e-12
    assert np.max(np.abs(rep.support - h)) < 1e-12
    assert np.max(np.abs(rep.potential - hp)) < 1e-12


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_slice_area_higher_dim(dim):
    w = hyperbolic_warping(dim, curvature=0.8, r_bar=3.0)
    engine = axisym_grid(dim, 32)
    surface = slice_surface(w, engine, 1.1)
    h, hp, _, _ = w.jet(1.1)
    rep = surface.geometry()
    assert rep.area == pytest.approx(h ** (dim - 1) * sphere_volume(dim - 1), rel=1e-12)
    assert np.max(np.abs(rep.mean_curvature - (dim - 1) * hp / h)) < 1e-11


def test_off_center_sphere_is_umbilic():
    # polar graph of the unit-ish sphere centered at distance d on the axis
    w = euclidean_warping(3)
    engine = axisym_grid(3, 96)
    d, a = 0.3, 1.0
    c = np.cos(engine.theta)
    rho = d * c + np.sqrt(a * a - d * d * (1.0 - c * c))
    surface = GraphSurface(w, engine, rho)
    rep = surface.geometry()
    assert np.max(np.abs(rep.mean_curvature - 2.0 / a)) < 1e-8
    assert np.max(rep.shape_deficit) < 1e-8
    assert rep.area == pytest.approx(4.0 * math.pi * a * a, rel=1e-10)


def test_off_center_sphere_full_engine():
    w = euclidean_warping(3)
    engine = full_sphere_grid(48)
    d, a = 0.25, 0.9
    c = np.cos(engine.theta)[:, None] * np.ones(engine.nlon)[None, :]
    rho = d * c + np.sqrt(a * a - d * d * (1.0 - c * c))
    rep = GraphSurface(w, engine, rho).geometry()
    assert np.max(np.abs(rep.mean_curvature - 2.0 / a)) < 1e-7
    assert np.max(rep.shape_deficit) < 1e-7
    assert rep.area == pytest.approx(4.0 * math.pi * a * a, rel=1e-9)


def test_full_and_axisym_agree_on_zonal_surface(schw3):
    r0 = 0.5 * schw3.r_bar
    amp = 0.04 * schw3.r_bar
    axi = axisym_grid(3, 64)
    full = full_sphere_grid(64)
    s_axi = perturb_slice(schw3, axi, r0, [(2, 0, amp)])
    s_full = perturb_slice(schw3, full, r0, [(2, 0, amp)])
    ra, rf = s_axi.geometry(), s_full.geometry()
    assert rf.area == pytest.approx(ra.area, rel=1e-10)
    # compare along a meridian: the full grid shares the axisym latitudes
    # only by interpolation, so compare integrated quantities instead
    assert s_full.integrate(rf.mean_curvature) == pytest.approx(
        s_axi.integrate(ra.mean_curvature), rel=1e-9
    )
    assert s_full.integrate(rf.support) == pytest.approx(
        s_axi.integrate(ra.support), rel=1e-9
    )
    assert s_full.enclosed_weighted_volume() == pytest.approx(
        s_axi.enclosed_weighted_volume(), rel=1e-9
    )
    assert np.max(rf.shape_deficit) == pytest.approx(
        np.max(ra.shape_deficit), rel=1e-6
    )


def test_enclosed_weighted_volume_flat_ball():
    # f = 1 in the flat ambient, so the weighted volume is the ball volume
    w = euclidean_warping(3)
    engine = axisym_grid(3, 48)
    surface = slice_surface(w, engine, 1.5)
    vol = surface.enclosed_weighted_volume()
    assert vol == pytest.approx(4.0 / 3.0 * math.pi * 1.5**3, rel=1e-11)


def test_integrate_constant_is_area(schw3):
    engine = axisym_grid(3, 48)
    surface = perturb_slice(schw3, engine, 2.0, [(3, 0, 0.05)])
    rep = surface.geometry()
    ones = np.ones_like(surface.radii)
    assert surface.integrate(ones) == pytest.approx(rep.area, rel=1e-13)


def test_geometry_is_cached(schw3):
    engine = axisym_grid(3, 32)
    surface = slice_surface(schw3, engine, 1.0)
    assert surface.geometry() is surface.geometry()


def test_perturb_slice_guards(schw3):
    axi = axisym_grid(3, 32)
    with pytest.raises(ParameterError):
        perturb_slice(schw3, axi, 1.0, [(2, 1, 0.05)])
    with pytest.raises(ParameterError):
        perturb_slice(schw3, axi, 1.0, [(axi.lmax + 1, 0, 0.05)])
    with pytest.raises(DomainError):
        perturb_slice(schw3, axi, 1.0, [(2, 0, 10.0 * schw3.r_bar)])
    with pytest.raises(DomainError):
        slice_surface(schw3, axi, -1.0)
    with pytest.raises(DomainError):
        slice_surface(schw3, axi, schw3.r_bar * 1.5)


def test_graph_surface_shape_guard(schw3):
    axi = axisym_grid(3, 32)
    with pytest.raises(ParameterError):
        GraphSurface(schw3, axi, np.ones(7))


@pytest.mark.parametrize("kind, n", [("full", 4), ("axisym", 4), ("axisym", 5)])
def test_graph_surface_needs_the_engine_of_its_dimension(kind, n):
    # one check for both engines: the full engine's dimension is 3
    engine = full_sphere_grid(8) if kind == "full" else axisym_grid(3, 16)
    assert engine.dim == 3
    with pytest.raises(ParameterError, match=f"{kind} engine of dimension 3 .* dimension {n}$"):
        GraphSurface(euclidean_warping(n), engine, np.ones(engine.grid_shape))


def test_graph_out_of_chart_raises(schw3):
    axi = axisym_grid(3, 32)
    radii = np.full(axi.npoints, schw3.r_bar * 0.9)
    radii[0] = schw3.r_bar * 1.2
    with pytest.raises(DomainError):
        GraphSurface(schw3, axi, radii).geometry()


def test_full_identity_jet_is_the_frame_jet_of_the_coordinates():
    engine = full_sphere_grid(24)
    identity = engine.identity_jet
    jet = engine.on_frame_jet(identity[0])
    for expected, got in zip(identity, jet):
        assert got.shape == (3, engine.nlat, engine.nlon)
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("dim", [3, 5])
def test_axisym_identity_jet_is_the_meridian_data_of_cos_theta(dim):
    # the meridian data of beta = theta, recovered from the jet of cos(beta);
    # the recovery divides by sin(theta) up to twice, so its error is weighted
    # by sin^2(theta), which is below 1e-2 at the polar nodes
    engine = axisym_grid(dim, 48)
    cc, c1, c11 = engine.on_frame_jet(np.cos(engine.theta))
    sin_b = np.sqrt(1.0 - cc * cc)
    b1 = -c1 / sin_b
    derived = (cc / sin_b, sin_b / engine.sin_theta, b1, -(c11 + cc * b1 * b1) / sin_b)
    for expected, got in zip(engine.identity_jet, derived):
        assert np.max(np.abs(got - expected) * engine.sin_theta**2) < 1e-12


def _argmin_frame_geometry(warping, radius_jet, sphere_jet):
    """Full-mode (mean, deficit, nu_radial, area density), normal from an explicit frame.

    The reference builds an orthonormal frame (u, v = y x u) of T_y S^2,
    seeded at each node by the coordinate axis least aligned with y, takes
    the ambient orthonormal components of the two tangent vectors in
    (d/dr, u, v) and crosses them.
    """

    def dot(a, b):
        return np.einsum("c...,c...->...", a, b)

    h, hp, _, _ = warping.jet(radius_jet[0])
    hh, hhp = h * h, h * hp
    _, r1, r2, dr11, dr12, dr22 = radius_jet
    y, y1, y2, d11, d12, d22 = sphere_jet
    axis = (np.argmin(np.abs(y), axis=0) == np.arange(3)[:, None, None]) * 1.0
    u = axis - dot(axis, y) * y
    u = u / np.linalg.norm(u, axis=0)
    v = np.stack([y[1] * u[2] - y[2] * u[1], y[2] * u[0] - y[0] * u[2], y[0] * u[1] - y[1] * u[0]])
    t1 = (r1, h * dot(u, y1), h * dot(v, y1))
    t2 = (r2, h * dot(u, y2), h * dot(v, y2))
    n_r = t1[1] * t2[2] - t1[2] * t2[1]
    n_u = t1[2] * t2[0] - t1[0] * t2[2]
    n_v = t1[0] * t2[1] - t1[1] * t2[0]
    norm = np.sqrt(n_r * n_r + n_u * n_u + n_v * n_v)
    n_r = n_r / norm
    nu_sphere = ((n_u / norm) * u + (n_v / norm) * v) / h
    p1, p2 = dot(y1, nu_sphere), dot(y2, nu_sphere)
    g11, g12, g22 = dot(y1, y1), dot(y1, y2), dot(y2, y2)
    metric = (r1 * r1 + hh * g11, r1 * r2 + hh * g12, r2 * r2 + hh * g22)
    second = tuple(
        -(n_r * (rab - hhp * gab) + hh * dot(nu_sphere, dab) + hhp * mix)
        for dab, rab, gab, mix in (
            (d11, dr11, g11, 2.0 * r1 * p1),
            (d12, dr12, g12, r1 * p2 + r2 * p1),
            (d22, dr22, g22, 2.0 * r2 * p2),
        )
    )
    mean, deficit = shape_trace_deficit(metric, second)
    density = np.sqrt(metric[0] * metric[2] - metric[1] * metric[1])
    return mean, deficit, n_r, density


def test_full_normal_matches_the_tangent_frame_reference(schw3):
    engine = full_sphere_grid(24)
    surface = perturb_slice(schw3, engine, 2.0, [(2, 1, 0.1), (3, -2, 0.05), (4, 3, 0.03)])
    graph = (engine.on_frame_jet(surface.radii), engine.identity_jet)
    # a flowed surface: its sphere map is no longer the identity, the spectral
    # jets of y carry components along y, and the synthesized y is a unit
    # vector only to the truncation error (~1e-11 here).  The reference frame
    # is orthonormal only at unit y, so it gets y / |y|; the kernel's normal
    # depends on y only through its direction and takes the jet as it is.
    state = init_flow(surface)
    for _ in range(5):
        state = step(state, 0.02)
    (y0, e), phi = state.circle, state.points[1]
    jet = engine.on_frame_jet(np.concatenate([state.points[:1], np.cos(phi) * y0 + np.sin(phi) * e]))
    flowed = (tuple(out[0] for out in jet), tuple(out[1:] for out in jet))
    y = flowed[1][0]
    unit_y = (y / np.sqrt(np.sum(y * y, axis=0)),) + flowed[1][1:]
    for radius_jet, sphere_jet, reference_jet in ((*graph, graph[1]), (*flowed, unit_y)):
        report, _ = parametrized_geometry(engine, schw3.jet(radius_jet[0]), radius_jet, sphere_jet)
        expected = _argmin_frame_geometry(schw3, radius_jet, reference_jet)
        got = (report.mean_curvature, report.shape_deficit, report.nu_radial, report.area_density)
        for value, reference in zip(got, expected):
            assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("mode", ["full", "axisym"])
def test_report_carries_the_warp_jet_bit_for_bit(schw3, mode):
    engine = full_sphere_grid(24) if mode == "full" else axisym_grid(3, 48)
    report = perturb_slice(schw3, engine, 2.0, [(2, 0, 0.1), (3, 0, 0.05)]).geometry()
    h, hp, hpp, hppp = schw3.jet(report.radii)
    for got, want in zip(
        (report.warp, report.potential, report.potential_slope, report.potential_curvature),
        (h, hp, hpp, hppp),
    ):
        assert got.shape == engine.grid_shape
        assert np.array_equal(got, want)
