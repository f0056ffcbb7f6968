"""Spectral engines: quadrature, orthonormality, frame derivatives.

Degree-1 harmonics satisfy D^2 f = -f g on the unit sphere, which
pins every entry of the frame jet in closed form; degree-2 pins the
Laplacian through the eigenvalue -l(l+n-2).  Tesseral modes of order 3
and 4 pin the phi-derivative outputs against closed-form Legendre
functions, and a random band-limited field pins the full Laplacian.
The full engine's frame jet synthesizes the whole band's floored
coefficients bit for bit; it and the synthesis sum the orders up to the
last kept one over longitude by one real product, which matches a
whole-band inverse-FFT reference to 1e-13 of each output's peak,
non-finite values included.
The axisymmetric quadrature keeps its basis orthonormal to roundoff in
every dimension the CLI admits.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import ParameterError, get_engine, sphere_volume
from warpcmc.spectral import (
    COEFFICIENT_FLOOR,
    AxisymEngine,
    SphericalHarmonicEngine,
    _floor_coefficients,
)


@pytest.fixture(scope="module")
def full():
    return get_engine("full", 3, 32)


@pytest.fixture(scope="module", params=[3, 4, 5])
def axi(request):
    return get_engine("axisym", request.param, 64)


def test_full_quadrature_total_area(full):
    ones = np.ones((full.nlat, full.nlon))
    assert full.integrate(ones) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_axisym_quadrature_total_area(axi):
    ones = np.ones(axi.npoints)
    assert axi.integrate(ones) == pytest.approx(sphere_volume(axi.dim - 1), rel=1e-13)


def test_full_mode_orthonormality(full):
    cases = [(0, 0), (1, -1), (1, 0), (2, 1), (3, -2), (5, 4)]
    for i, (l1, m1) in enumerate(cases):
        y1 = full.mode(l1, m1)
        for l2, m2 in cases[i:]:
            y2 = full.mode(l2, m2)
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert full.integrate(y1 * y2) == pytest.approx(expected, abs=1e-12)


def test_axisym_mode_orthonormality(axi):
    for l1 in range(5):
        y1 = axi.mode(l1)
        for l2 in range(l1, 5):
            expected = 1.0 if l1 == l2 else 0.0
            assert axi.integrate(y1 * axi.mode(l2)) == pytest.approx(expected, abs=1e-12)


def test_full_roundtrip_band_limited(full):
    rng = np.random.default_rng(5)
    field = np.zeros((full.nlat, full.nlon))
    for l, m in ((0, 0), (1, 1), (3, -2), (7, 5), (12, 0)):
        field = field + rng.normal() * full.mode(l, m)
    back = full.synthesize(full.analyze(field))
    assert np.max(np.abs(back - field)) < 1e-11 * max(1.0, np.max(np.abs(field)))


def test_axisym_roundtrip_band_limited(axi):
    rng = np.random.default_rng(6)
    field = np.zeros(axi.npoints)
    for l in (0, 1, 4, 9):
        field = field + rng.normal() * axi.mode(l)
    back = axi.synthesize(axi.analyze(field))
    assert np.max(np.abs(back - field)) < 1e-11 * max(1.0, np.max(np.abs(field)))


def test_full_frame_jet_degree_one(full):
    # f = cos(theta): gradient (-sin, 0), hessian -f delta
    f = np.cos(full.theta)[:, None] * np.ones(full.nlon)[None, :]
    _, f1, f2, h11, h12, h22 = full.on_frame_jet(f)
    s = np.sin(full.theta)[:, None]
    assert np.max(np.abs(f1 + s)) < 1e-11
    assert np.max(np.abs(f2)) < 1e-11
    for h in (h11, h22):
        assert np.max(np.abs(h + f)) < 1e-10
    assert np.max(np.abs(h12)) < 1e-10


def test_full_frame_jet_equatorial_degree_one(full):
    # f = sin(theta) cos(phi) exercises the azimuthal leg of the frame
    f = np.sin(full.theta)[:, None] * np.cos(full.phi)[None, :]
    _, f1, f2, h11, h12, h22 = full.on_frame_jet(f)
    c = np.cos(full.theta)[:, None]
    assert np.max(np.abs(f1 - c * np.cos(full.phi)[None, :])) < 1e-11
    assert np.max(np.abs(f2 + np.sin(full.phi)[None, :])) < 1e-11
    assert np.max(np.abs(h11 + f)) < 1e-10
    assert np.max(np.abs(h22 + f)) < 1e-10
    assert np.max(np.abs(h12)) < 1e-10


def test_full_frame_jet_degree_two_laplacian(full):
    f = full.mode(2, 1)
    out = full.on_frame_jet(f)
    lap = out[3] + out[5]
    assert np.max(np.abs(lap + 6.0 * f)) < 1e-9


# Unnormalized associated Legendre functions without the Condon-Shortley
# phase, as sin(theta)^m q(cos theta): P_5^3 and P_7^4.
TESSERAL = {
    (5, 3): (3, np.polynomial.Polynomial([-52.5, 0.0, 472.5])),
    (7, 4): (4, np.polynomial.Polynomial([0.0, -5197.5, 0.0, 22522.5])),
}


def _tesseral_closed_form(engine, l, m):
    """f = sqrt(2) N P_l^|m|(cos theta) cos(m phi) (sin(|m| phi) for m < 0) and its frame jet.

    Returns (f, fp/s, h12, h22) from P and dP/dtheta in closed form, with
    N the orthonormalizing factor of the engine's basis.
    """
    k, q = TESSERAL[(l, abs(m))]
    x, s = engine.x[:, None], engine.sin_theta[:, None]
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l - k) / math.factorial(l + k))
    p = math.sqrt(2.0) * norm * s**k * q(x)
    dp = math.sqrt(2.0) * norm * (k * s ** (k - 1) * x * q(x) - s ** (k + 1) * q.deriv()(x))
    if m > 0:
        phase, dphase = np.cos(k * engine.phi), -k * np.sin(k * engine.phi)
    else:
        phase, dphase = np.sin(k * engine.phi), k * np.cos(k * engine.phi)
    cot = x / s
    return (
        p * phase,
        p * dphase / s,
        (dp - cot * p) * dphase / s,
        (cot * dp - k * k * p / (s * s)) * phase,
    )


@pytest.mark.parametrize("l, m", [(5, 3), (7, -4)])
def test_full_frame_jet_tesseral_closed_forms(full, l, m):
    f, f2, h12, h22 = _tesseral_closed_form(full, l, m)
    assert np.max(np.abs(full.mode(l, m) - f)) < 1e-12 * np.max(np.abs(f))
    _, _, got_f2, _, got_h12, got_h22 = full.on_frame_jet(f)
    for got, expected in ((got_f2, f2), (got_h12, h12), (got_h22, h22)):
        assert np.max(np.abs(got - expected)) < 1e-11 * np.max(np.abs(expected))


def test_full_frame_jet_laplacian_of_a_band_limited_field(full):
    rng = np.random.default_rng(44)
    L = full.lmax + 1
    alm = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
    alm[:, 0] = alm[:, 0].real
    alm *= (np.arange(L)[:, None] >= np.arange(L)) & (np.arange(L)[:, None] <= 20)
    f = full.synthesize(alm)
    out = full.on_frame_jet(f)
    degree = np.arange(L)
    lap = full.filter_degrees(f, -degree * (degree + 1.0))
    assert np.max(np.abs(out[3] + out[5] - lap)) < 1e-11 * np.max(np.abs(lap))


def test_axisym_frame_jet_degree_one(axi):
    f = np.cos(axi.theta)
    _, ft, ftt = axi.on_frame_jet(f)
    assert np.max(np.abs(ft + np.sin(axi.theta))) < 1e-11
    assert np.max(np.abs(ftt + f)) < 1e-10


def test_axisym_frame_jet_laplacian_eigenvalue(axi):
    n = axi.dim
    f = axi.mode(3)
    _, ft, ftt = axi.on_frame_jet(f)
    lap = ftt + (n - 2) * axi.cot_theta * ft
    eig = 3.0 * (3.0 + n - 2.0)
    assert np.max(np.abs(lap + eig * f)) < 1e-8 * max(1.0, np.max(np.abs(f)))


def test_filter_degrees_kills_selected_band(full):
    field = full.mode(2, 0) + 0.5 * full.mode(4, 1)
    factor = np.ones(full.lmax + 1)
    factor[4] = 0.0
    filtered = full.filter_degrees(field, factor)
    assert np.max(np.abs(filtered - full.mode(2, 0))) < 1e-11


def test_filter_degrees_axisym(axi):
    field = axi.mode(1) + axi.mode(3)
    factor = np.ones(axi.lmax + 1)
    factor[3] = 0.0
    filtered = axi.filter_degrees(field, factor)
    assert np.max(np.abs(filtered - axi.mode(1))) < 1e-11


def test_get_engine_caches():
    a = get_engine("axisym", 4, 48)
    b = get_engine("axisym", 4, 48)
    assert a is b
    assert get_engine("axisym", 5, 48) is not a


def test_engine_guards():
    with pytest.raises(ParameterError):
        get_engine("full", 4, 32)
    with pytest.raises(ParameterError):
        get_engine("fourier", 3, 32)
    full = get_engine("full", 3, 16)
    with pytest.raises(ParameterError):
        full.mode(full.lmax + 1, 0)
    with pytest.raises(ParameterError):
        full.mode(2, 3)
    axi = get_engine("axisym", 3, 16)
    with pytest.raises(ParameterError):
        axi.mode(2, 1)
    with pytest.raises(ParameterError):
        SphericalHarmonicEngine(4)
    with pytest.raises(ParameterError):
        AxisymEngine(2, 64)


def test_analyze_shape_guard(full):
    with pytest.raises(ParameterError):
        full.analyze(np.ones(full.nlat))


# Magnitudes 1e-6 .. 1e6 on one stack: a coefficient floor taken over the
# whole stack instead of per field would wipe out the small fields.
STACK_SCALES = np.logspace(-6.0, 6.0, 5)


def _assert_stack_matches_single_fields(engine, fields):
    stacked = engine.on_frame_jet(fields)
    for k, field in enumerate(fields):
        for many, one in zip(stacked, engine.on_frame_jet(field)):
            assert many[k].shape == one.shape
            assert np.max(np.abs(many[k] - one)) <= 1e-13 * np.max(np.abs(one))


def test_full_stacked_frame_jet_matches_single_fields(full):
    rng = np.random.default_rng(41)
    modes = ((0, 0), (2, 1), (5, -3), (9, 4), (14, -7))
    fields = np.array([
        scale * sum(rng.normal() * full.mode(l, m) for l, m in modes) for scale in STACK_SCALES
    ])
    _assert_stack_matches_single_fields(full, fields)


def test_axisym_stacked_frame_jet_matches_single_fields(axi):
    rng = np.random.default_rng(42)
    fields = np.array([
        scale * sum(rng.normal() * axi.mode(l) for l in (0, 2, 5, 11, 19)) for scale in STACK_SCALES
    ])
    _assert_stack_matches_single_fields(axi, fields)


def test_stacked_transforms_keep_the_stack_axis(full, axi):
    rng = np.random.default_rng(43)
    grids = rng.normal(size=(3, full.nlat, full.nlon))
    alm = full.analyze(grids)
    assert alm.shape == (3, full.lmax + 1, full.lmax + 1)
    for k in range(3):
        one = full.analyze(grids[k])
        assert np.max(np.abs(alm[k] - one)) <= 1e-13 * np.max(np.abs(one))
    assert full.synthesize(alm).shape == grids.shape
    nodes = rng.normal(size=(2, axi.npoints))
    coeff = axi.analyze(nodes)
    assert coeff.shape == (2, axi.lmax + 1)
    assert axi.synthesize(coeff).shape == nodes.shape


def test_table_budget_refuses_before_allocating(monkeypatch):
    import warpcmc.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("tables were allocated")

    monkeypatch.setattr(spectral, "SphericalHarmonicEngine", refuse)
    monkeypatch.setattr(spectral, "AxisymEngine", refuse)
    # full: three tables of 3 N^3 doubles and the 2N x 2N Fourier table; axisymmetric:
    # three tables and the node solve's Jacobi matrix, 4 N^2 doubles
    for kind, dim, size, need in (
        ("full", 3, 512, (3 * 512**3 + 4 * 512**2) * 8),
        ("full", 3, 282, (3 * 282**3 + 4 * 282**2) * 8),
        ("axisym", 3, 8192, 4 * 8192**2 * 8),
    ):
        assert need > spectral.TABLE_BUDGET_BYTES
        with pytest.raises(ParameterError, match=str(need)):
            get_engine(kind, dim, size)
    # the largest CLI grid needs exactly the budget and is admitted, and so is
    # the largest full grid, 281 latitudes
    assert 4 * 4096**2 * 8 == spectral.TABLE_BUDGET_BYTES
    assert (3 * 281**3 + 4 * 281**2) * 8 <= spectral.TABLE_BUDGET_BYTES
    monkeypatch.setattr(spectral, "_ENGINES", {})
    monkeypatch.setattr(spectral, "AxisymEngine", lambda dim, size: (dim, size))
    monkeypatch.setattr(spectral, "SphericalHarmonicEngine", lambda size: size)
    assert get_engine("axisym", 3, 4096) == (3, 4096)
    assert get_engine("full", 3, 281) == 281


@pytest.mark.parametrize("count", [8, 48, 64, 129])
def test_quadrature_rules_match_scipy(count):
    """Engine nodes and weights against scipy's Gauss-Legendre/Jacobi rules.

    Nodes to 1e-14, weights to 1e-14 of their sum (the measure of [-1, 1]).
    """
    from scipy.special import roots_jacobi, roots_legendre

    x, w = roots_legendre(count)
    engine = SphericalHarmonicEngine(count)
    assert np.max(np.abs(engine.x[::-1] - x)) < 1e-14
    assert np.max(np.abs(engine.w[::-1] - w)) < 1e-14 * w.sum()
    for dim in range(3, 8):
        alpha = 0.5 * (dim - 3)
        x, w = roots_jacobi(count, alpha, alpha)
        engine = AxisymEngine(dim, count)
        assert np.max(np.abs(engine.x[::-1] - x)) < 1e-14
        assert np.max(np.abs(engine.w[::-1] - w)) < 1e-14 * w.sum()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dim=st.integers(min_value=3, max_value=343), points=st.integers(min_value=8, max_value=512))
@example(dim=240, points=128)
@example(dim=343, points=512)
def test_axisym_basis_is_orthonormal_in_every_dimension(dim, points):
    """The quadrature's Gram matrix of the basis is the identity to 100 N eps,
    and the constant's frame jet is exact, for every dimension the CLI admits."""
    engine = AxisymEngine(dim, points)
    gram = engine.analyze(engine.synthesize(np.eye(points)))
    assert np.max(np.abs(gram - np.eye(points))) <= 100 * points * np.finfo(float).eps
    f, f1, h11 = engine.on_frame_jet(np.ones(points))
    assert np.max(np.abs(f - 1.0)) < 1e-12
    assert np.max(np.abs(f1)) < 1e-12
    assert np.max(np.abs(h11)) < 1e-12


# -- the band of orders ---------------------------------------------------
# The reference runs every order: the public analysis, the floor, and the
# Legendre sums, spectra, output arithmetic and inverse FFTs over all of
# them, with the whole tables.  The engine sums over longitude by a matrix
# product instead of an FFT, a different summation, so its grid values
# match the reference to roundoff, not bit for bit; the coefficients it
# synthesizes from are the reference's bit for bit.


def _whole_band_spectra(engine, alm, tables):
    """Per-order spectra of every order, one per table."""
    L = engine.lmax + 1
    stack = np.asarray(alm, dtype=complex).reshape(-1, L, L)
    B = np.ascontiguousarray(np.concatenate([stack.real, stack.imag]).transpose(2, 1, 0))
    sums = np.matmul(np.swapaxes(tables, -1, -2), B)
    sums *= engine.nlon
    K = stack.shape[0]
    spectra = []
    for table_sums in sums:
        spec = table_sums[..., :K].T.astype(complex, order="C")
        spec.imag = table_sums[..., K:].T
        spectra.append(spec)
    return spectra


def _whole_band_synthesis(engine, alm):
    (spec,) = _whole_band_spectra(engine, alm, engine._tables[:1])
    grid = np.fft.irfft(spec, n=engine.nlon, axis=-1)
    return grid.reshape(np.shape(alm)[:-2] + grid.shape[1:])


def _whole_band_frame_jet(engine, values):
    alm = _floor_coefficients(engine.analyze(values), (-2, -1))
    g, gt, gtt = _whole_band_spectra(engine, alm, engine._tables)
    im_s = 1j * np.arange(engine.lmax + 1) / engine.sin_theta[:, None]
    cot = engine.cot_theta[:, None]
    outputs = (g, gt, g * im_s, gtt, (gt - cot * g) * im_s, cot * gt + im_s * (im_s * g))
    return tuple(np.fft.irfft(out, n=engine.nlon, axis=-1).reshape(np.shape(values)) for out in outputs)


def _same_bits(got, want):
    """Equal values, NaN where NaN, and the same sign bits, so -0.0 is not 0.0."""
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


def _assert_matches_reference(got, want):
    """Within 1e-13 of each field's peak of the reference, non-finite exactly where it is."""
    finite = np.isfinite(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), finite)
    got, want = np.where(finite, got, 0.0), np.where(finite, want, 0.0)
    peak = np.abs(want).max(axis=(-2, -1))
    assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * peak)


def _assert_banded_equals_whole_band(engine, values):
    """The frame jet synthesizes the floored coefficients of ``analyze`` on every order, bit for
    bit, sums them over longitude up to one past the last order that keeps a coefficient, and
    every output and the synthesis of those coefficients match the whole-band reference."""
    with (
        mock.patch.object(engine, "_spectra", wraps=engine._spectra) as spectra,
        mock.patch.object(engine, "_fourier_sum", wraps=engine._fourier_sum) as fourier_sum,
    ):
        got = engine.on_frame_jet(values)
    synthesized = spectra.call_args.args[0]  # (m, l, field)
    floored = _floor_coefficients(engine.analyze(values), (-2, -1))
    whole = np.reshape(floored, (-1,) + floored.shape[-2:]).T
    assert all(_same_bits(part(synthesized), part(whole)) for part in (np.real, np.imag))
    band = fourier_sum.call_args.args[0].shape[-3]  # spectra (output, M, latitude, field)
    assert band == np.flatnonzero(whole.any(axis=(1, 2))).max(initial=0) + 1
    want = _whole_band_frame_jet(engine, values)
    assert len(got) == len(want) == 6
    for output, reference in zip(got, want):
        _assert_matches_reference(output, reference)
    _assert_matches_reference(engine.synthesize(floored), _whole_band_synthesis(engine, floored))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nlat=st.sampled_from([8, 16, 48, 96]),
    fields=st.lists(
        st.tuples(
            st.floats(min_value=-6.0, max_value=6.0),  # log10 of the scale
            st.floats(min_value=0.0, max_value=1.0),  # top degree, a fraction of lmax
            st.floats(min_value=0.0, max_value=2.0),  # decay rate per degree
        ),
        min_size=1,
        max_size=4,
    ),
    log_noise=st.floats(min_value=-17.0, max_value=-13.0),
    stacked=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_banded_transforms_equal_the_whole_band(nlat, fields, log_noise, stacked, seed):
    # band-limited fields with decaying spectra, each with its own band and
    # a scale from 1e-6 to 1e6 on one stack, plus noise at roundoff level
    # that the floor may or may not drop
    engine = get_engine("full", 3, nlat)
    rng = np.random.default_rng(seed)
    L = engine.lmax + 1
    degree, order = np.arange(L)[:, None], np.arange(L)
    alm = rng.normal(size=(len(fields), L, L)) + 1j * rng.normal(size=(len(fields), L, L))
    alm[..., 0] = alm[..., 0].real
    for k, (log_scale, band, decay) in enumerate(fields):
        kept = (degree >= order) & (degree <= round(band * engine.lmax))
        alm[k] *= 10.0**log_scale * kept * np.exp(-decay * degree)
    if not stacked:
        alm = alm[0]
    clean = engine.synthesize(alm)
    _assert_matches_reference(clean, _whole_band_synthesis(engine, alm))
    peak = np.abs(clean).max(axis=(-2, -1), keepdims=True)
    _assert_banded_equals_whole_band(engine, clean + 10.0**log_noise * peak * rng.normal(size=clean.shape))


@pytest.mark.parametrize("nlat", [16, 48])
@pytest.mark.parametrize("ratio", [1.01, 0.99])
def test_top_order_coefficient_at_the_floor(nlat, ratio):
    engine = get_engine("full", 3, nlat)
    L = engine.lmax
    # a[L, L] is ratio times the floor of the peak a[0, 0] = 1
    field = engine.mode(0, 0) + engine.mode(L, L, math.sqrt(2.0) * ratio * COEFFICIENT_FLOOR)
    kept = _floor_coefficients(engine.analyze(field), (-2, -1))[L, L]
    assert (kept != 0.0) == (ratio > 1.0)
    _assert_banded_equals_whole_band(engine, field)
    _assert_banded_equals_whole_band(engine, np.stack([engine.mode(1, 1), field]))


def test_each_field_is_banded_against_its_own_peak(full):
    # the second field sits 1e16 below the first, under the first's floor
    values = np.stack([1e8 * full.mode(0, 0), 1e-8 * full.mode(full.lmax, full.lmax)])
    _assert_banded_equals_whole_band(full, values)
    assert np.max(np.abs(full.on_frame_jet(values)[0][1])) > 1e-9


def test_zero_and_constant_fields(full):
    zero, constant = np.zeros(full.grid_shape), np.full(full.grid_shape, 2.5)
    for values in (zero, constant, np.stack([zero, constant, full.mode(5, -3)])):
        _assert_banded_equals_whole_band(full, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_node_keeps_every_order(full, bad):
    field = full.mode(2, 1) + 3.0
    broken = field.copy()
    broken[3, 5] = bad
    with np.errstate(invalid="ignore"):
        _assert_banded_equals_whole_band(full, broken)
        _assert_banded_equals_whole_band(full, np.stack([broken, field]))
