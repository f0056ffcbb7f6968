"""Spectral engines on the parameter sphere.

Two engines cover the two symmetry modes.  The full engine works on
S^2 (ambient dimension 3) with a Gauss-Legendre latitude grid, uniform
longitudes, and normalized associated Legendre tables; the axisymmetric
engine works in any dimension on functions of the polar angle alone.
One three-term recurrence of orthonormal polynomials builds both: its
values and their first two x-derivatives are the tables (one row for the
weight (1 - x^2)^((n-3)/2), or one with exponent m for each order m of
the full engine), the eigenvalues of its Jacobi matrix are the nodes and
its Christoffel numbers the weights.

Both expose the same small surface: analysis and synthesis, quadrature
that integrates over the whole round sphere, per-degree spectral
filtering, and the orthonormal-frame jet (values, first derivatives,
covariant Hessian) that the surface geometry assembles curvature from.
Each engine keeps one real table of the basis functions and their first
two theta-derivatives, and every transform takes a stack of fields on a
leading axis, so a frame jet of several fields is one real matrix
product per order m (full) or per field (axisymmetric).  The full
engine holds each spectrum as a C-ordered complex (order m, latitude or
degree, field) array that real products read as (re, im) pairs.  It
analyses every order, floors, synthesizes the orders up to the last kept
one and assembles each frame-jet output per order m; one product with a
table of c_m cos(m phi) and -c_m sin(m phi) rows sums them over phi.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .warping import sphere_volume

__all__ = [
    "SphericalHarmonicEngine",
    "AxisymEngine",
    "get_engine",
    "COEFFICIENT_FLOOR",
    "TABLE_BUDGET_BYTES",
]

# Analysis coefficients below this fraction of the spectral peak are
# quadrature roundoff, not signal.  The second-derivative tables grow like
# degree^4 near the poles and would amplify that roundoff by up to 1e6, so
# the frame-jet transforms drop such coefficients before synthesis.  Each
# field of a stack is floored against its own peak.
COEFFICIENT_FLOOR = 1e-12

# get_engine refuses larger tables before allocating: this admits the
# axisymmetric engine at every CLI grid size, the full one to 277 latitudes.
TABLE_BUDGET_BYTES = 512 * 2**20


def _recurrence_coefficients(a2, degrees: int) -> np.ndarray:
    """b[m, l] = b_{l-m} of the polynomials G_k orthonormal for the weight (1 - x^2)^(a2[m] / 2),
    x G_k = b_{k+1} G_{k+1} + b_k G_{k-1}, and 0 for l <= m."""
    k = np.arange(degrees) - np.arange(len(a2))[:, None] + 0.0
    a2 = np.asarray(a2, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k > 0, np.sqrt(k * (k + a2) / ((2.0 * k + a2 + 1.0) * (2.0 * k + a2 - 1.0))), 0.0)


def _recurrence(x: np.ndarray, a2, start: np.ndarray) -> np.ndarray:
    """T[k, m, l, i]: k-th x-derivative of row m's degree-l value at node i: 0 below degree m,
    ``start[m]`` at it, and above it the recurrence of the weight (1 - x^2)^(a2[m] / 2)."""
    b = _recurrence_coefficients(a2, x.size)
    T = np.zeros((3,) + b.shape + x.shape)
    m = np.arange(len(b))
    T[0, m, m] = start
    by_degree = T.swapaxes(1, 2)
    chain = np.array([1.0, 2.0])[:, None, None]  # (x G)' = x G' + G, (x G)'' = x G'' + 2 G'
    for l in range(1, x.size):
        # b[m, m] = 0 times row m's zero degree m - 1 (at l = 1 the last, not yet written)
        r = min(l, len(b))
        prev = by_degree[:, l - 1, :r]
        new = x * prev
        new[1:] += chain * prev[:2]
        new -= b[:r, l - 1, None] * by_degree[:, l - 2, :r]
        new /= b[:r, l, None]
        by_degree[:, l, :r] = new
    return T


def _jacobi_nodes(a2: float, count: int) -> np.ndarray:
    """Gauss nodes of the weight (1 - x^2)^(a2 / 2): the eigenvalues of its recurrence's
    Jacobi matrix, symmetrized about 0 and in descending order."""
    offdiag = _recurrence_coefficients([a2], count)[0, 1:]
    jacobi = np.zeros((count, count))
    i = np.arange(1, count)
    jacobi[i, i - 1] = jacobi[i - 1, i] = offdiag
    x = np.linalg.eigvalsh(jacobi)
    return 0.5 * (x[::-1] - x)


def _floor_coefficients(coeff: np.ndarray, axes) -> np.ndarray:
    """Zero in place each field's coefficients below COEFFICIENT_FLOOR of its own peak over ``axes``."""
    magnitude = np.abs(coeff)
    if axes == (0, 1):  # the full engine's (m, l, field): rows of a (field, m l) copy max faster
        peak = np.ascontiguousarray(magnitude.reshape(-1, magnitude.shape[-1]).T).max(axis=1)
    else:
        peak = magnitude.max(axis=axes, keepdims=True)
    np.putmask(coeff, magnitude < COEFFICIENT_FLOOR * peak, 0.0)
    return coeff


class SphericalHarmonicEngine:
    """Scalar spherical-harmonic transform on a Gauss-Legendre grid.

    The grid has ``nlat`` latitudes at Gauss-Legendre nodes x = cos(theta)
    and ``2 nlat`` uniform longitudes; degrees up to lmax = nlat - 1 are
    resolved exactly.  Basis functions are orthonormal over the sphere (no
    Condon-Shortley phase), P_l^m = sin^m(theta) G_{l-m}(x) with G orthonormal
    for the weight (1 - x^2)^m; the tables carry first and second
    theta-derivatives so covariant Hessians need no finite differencing.

    Grids are (nlat, nlon) and coefficients a[l, m] (lmax+1, lmax+1),
    or stacks of them on one leading axis.
    """

    kind = "full"
    dim = 3

    def __init__(self, nlat: int):
        if nlat < 8:
            raise ParameterError("need at least 8 latitudes")
        self.nlat = int(nlat)
        self.nlon = 2 * self.nlat
        self.lmax = self.nlat - 1
        # the Gauss-Legendre nodes, theta ascending from the north pole
        self.x = _jacobi_nodes(0.0, self.nlat)
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x * self.x)
        self.cot_theta = self.x / self.sin_theta
        self.phi = 2.0 * math.pi * np.arange(self.nlon) / self.nlon
        self.grid_shape = (self.nlat, self.nlon)
        self._build_tables()
        P0 = self._tables[0, 0]  # Christoffel numbers of G_l = sqrt(2 pi) P_l^0
        self.w = 1.0 / (2.0 * math.pi * np.einsum("li,li->i", P0, P0))
        # quadrature weights over the whole sphere, shape (nlat, 1)
        self.area_weights = (self.w * (2.0 * math.pi / self.nlon))[:, None]
        self.sphere_area = float(np.sum(self.area_weights * np.ones(self.grid_shape)))
        # rows 2m and 2m + 1 are c_m cos(m phi) and -c_m sin(m phi), c_0 = 1 / nlon and c_m =
        # 2 / nlon: the first 2M rows take (re, im) pairs of orders m < M to the inverse rFFT
        m = np.arange(self.nlat)[:, None, None]
        angle = (2.0 * math.pi / self.nlon) * (m * np.arange(self.nlon) % self.nlon)
        rows = np.concatenate([np.cos(angle), -np.sin(angle)], 1) * np.where(m, 2.0, 1.0)
        self._fourier = (rows / self.nlon).reshape(-1, self.nlon)
        # frame jet of the identity map y: S^2 -> R^3, components on the leading
        # axis: (y, e_theta, e_phi) and the covariant Hessians (-y, 0, -y), -y held once
        sin_t, cos_t = self.sin_theta[:, None], self.x[:, None]
        cos_p, sin_p = np.cos(self.phi), np.sin(self.phi)
        y = np.stack(np.broadcast_arrays(sin_t * cos_p, sin_t * sin_p, cos_t))
        e_theta = np.stack(np.broadcast_arrays(cos_t * cos_p, cos_t * sin_p, -sin_t))
        e_phi = np.stack(np.broadcast_arrays(-sin_p, cos_p, 0.0 * sin_t))
        neg_y = -y
        self.identity_jet = (y, e_theta, e_phi, neg_y, np.zeros_like(y), neg_y)

    def _build_tables(self):
        """T[k, m, l, i]: k-th theta-derivative of P_l^m at latitude i (0 for l < m).

        Row m of the recurrence, a2 = 2m, runs on P_l^m = sin^m(theta) G_{l-m}(x) from P_m^m =
        sqrt((2m + 1) / 2m) sin(theta) P_{m-1}^{m-1}, P_0^0 = 1 / sqrt(4 pi).
        """
        x, s, cot, m = self.x, self.sin_theta, self.cot_theta, np.arange(1, self.nlat)[:, None]
        steps = np.sqrt((2 * m + 1) / (2.0 * m)) * s
        start = np.cumprod(np.vstack([np.full(self.nlat, math.sqrt(1.0 / (4.0 * math.pi))), steps]), 0)
        T = P, dP, d2P = _recurrence(x, 2.0 * np.arange(self.nlat), start)
        for m in range(self.nlat):
            # product rule on the rows sin^m G, G', G'': d/dtheta (sin^m G) = m cot P - sin sin^m G'
            first = m * cot * P[m, m:] - s * dP[m, m:]
            d2P[m, m:] = s * s * d2P[m, m:] - (m + 1) * x * dP[m, m:] - m * P[m, m:] / (s * s) + m * cot * first
            dP[m, m:] = first
        self._tables = T

    # -- transforms ----------------------------------------------------

    def _weighted_fourier(self, values: np.ndarray) -> np.ndarray:
        """w_i F_im as a C-ordered complex array (m, latitude, field)."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.nlat, self.nlon):
            raise ParameterError(f"grid shape must be {(self.nlat, self.nlon)} or a stack of it")
        stack = values.reshape(-1, self.nlat, self.nlon)
        fm = self.w[:, None] * np.fft.rfft(stack, axis=-1)[..., : self.lmax + 1]
        return np.ascontiguousarray(fm.transpose(2, 1, 0))

    def _coefficients(self, fm: np.ndarray) -> np.ndarray:
        """a[l, m] as (m, l, field) of ``_weighted_fourier``: one product over every order."""
        a = np.matmul(self._tables[0], fm.view(float))
        a *= 2.0 * math.pi / self.nlon
        return a.view(complex)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Expansion coefficients a[l, m] of a real grid function or a stack of them."""
        alm = self._coefficients(self._weighted_fourier(values)).T
        return alm.reshape(np.shape(values)[:-2] + alm.shape[1:])

    def _spectra(self, alm: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Per-order spectra (..., M, latitude, field) of coefficients (m, l, field) per table:
        nlon sum_l T[m, l, i] a[l, m] over the orders m < M, M one past the last occupied."""
        M = np.flatnonzero(alm.any(axis=(1, 2))).max(initial=0) + 1
        B = np.ascontiguousarray(alm[:M]).view(float)
        g = np.matmul(np.swapaxes(tables[..., :M, :, :], -1, -2), B)
        g *= self.nlon
        return g.view(complex)

    def _fourier_sum(self, spec: np.ndarray) -> np.ndarray:
        """Grid rows (-1, nlon) of spectra (..., M, latitude, field): one product of their (re, im)
        pairs, copied to (..., field, latitude, M), with the first 2M rows of the Fourier table."""
        pairs = np.ascontiguousarray(np.swapaxes(spec, -3, -1)).view(float)
        return pairs.reshape(-1, pairs.shape[-1]) @ self._fourier[: pairs.shape[-1]]

    def synthesize(self, alm: np.ndarray) -> np.ndarray:
        """Grid values of sum a_lm Y_lm, summed over the orders up to the last occupied one."""
        stack = np.asarray(alm, dtype=complex).reshape(-1, self.lmax + 1, np.shape(alm)[-1])
        grid = self._fourier_sum(self._spectra(stack.T, self._tables[0]))
        return grid.reshape(np.shape(alm)[:-2] + self.grid_shape)

    def filter_degrees(self, values: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """Apply a per-degree multiplier in coefficient space."""
        return self.synthesize(self.analyze(values) * np.asarray(factor, dtype=float)[:, None])

    def mode(self, l: int, m: int, amplitude: float = 1.0) -> np.ndarray:
        """Grid values of one real orthonormal harmonic.

        m = 0 is the zonal mode; m > 0 the cosine and m < 0 the sine
        sectoral/tesseral modes, all with unit square integral.
        """
        if not (0 <= l <= self.lmax):
            raise ParameterError(f"degree {l} outside [0, {self.lmax}]")
        if abs(m) > l:
            raise ParameterError(f"order |{m}| exceeds degree {l}")
        alm = np.zeros((self.lmax + 1, self.lmax + 1), dtype=complex)
        if m == 0:
            alm[l, 0] = amplitude
        elif m > 0:
            alm[l, m] = amplitude / math.sqrt(2.0)
        else:
            alm[l, -m] = -1j * amplitude / math.sqrt(2.0)
        return self.synthesize(alm)

    # -- geometry helpers ----------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a grid function over the round sphere."""
        return float(np.sum(np.asarray(values) * self.area_weights))

    def on_frame_jet(self, values: np.ndarray):
        """Value, orthonormal-frame gradient, and covariant Hessian.

        Returns (f, f1, f2, h11, h12, h22) where the frame is the unit
        theta and phi directions and h is the covariant Hessian of the
        round metric in that frame.  ``values`` is one grid (nlat, nlon)
        or a stack (K, nlat, nlon) on a leading axis, and each output has
        its shape.  Each field drops the coefficients below the floor of
        its own peak (see COEFFICIENT_FLOOR), and only the orders up to the
        last one that keeps a coefficient are synthesized.  One product
        covers the three theta tables; each output is assembled per order
        m, where a phi derivative is a factor i m, and one product with the
        Fourier table sums all six outputs over those orders.
        """
        alm = _floor_coefficients(self._coefficients(self._weighted_fourier(values)), (0, 1))
        g, gt, gtt = self._spectra(alm, self._tables)
        im_s = 1j * np.arange(len(g))[:, None, None] / self.sin_theta[:, None]  # d/dphi / sin(theta)
        cot = self.cot_theta[:, None]
        outputs = (g, gt, g * im_s, gtt, (gt - cot * g) * im_s, cot * gt + im_s * (im_s * g))
        return tuple(self._fourier_sum(np.stack(outputs)).reshape((6,) + np.shape(values)))


class AxisymEngine:
    """Transform for axisymmetric functions on S^{n-1}.

    Functions depend on the polar angle alone.  The basis is the
    polynomials G_l in x = cos(theta) orthonormal for the weight
    (1 - x^2)^{(n-3)/2} on [-1, 1], the transverse sphere volume factor,
    built by their three-term recurrence x G_l = b_{l+1} G_{l+1} +
    b_l G_{l-1} (Gegenbauer polynomials, normalized as they are made).
    The nodes are the eigenvalues of the Jacobi matrix of that
    recurrence and the weights the Christoffel numbers 1 / sum_l G_l(x_i)^2
    (Golub & Welsch, Math. Comp. 23, 1969), so quadrature sums are exact
    against the full round measure.  Coefficients are taken against G_l;
    ``mode`` scales G_l to unit norm on the round S^{n-1}, where in ambient
    dimension 3 it is the zonal spherical harmonic.

    Grids are (npoints,) and coefficients (lmax + 1,), or stacks of
    them on one leading axis.
    """

    kind = "axisym"

    def __init__(self, dim: int, points: int):
        if dim < 3:
            raise ParameterError(f"ambient dimension must be >= 3, got {dim}")
        if points < 8:
            raise ParameterError("need at least 8 nodes")
        self.dim = int(dim)
        self.npoints = int(points)
        self.grid_shape = (self.npoints,)
        self.lmax = self.npoints - 1
        # one row, a2 = n - 3 twice the weight's exponent
        self.x = _jacobi_nodes(dim - 3.0, self.npoints)
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x * self.x)
        self.cot_theta = self.x / self.sin_theta
        self.transverse_volume = sphere_volume(dim - 2)
        # T[k, l, i]: k-th x-derivative of G_l at node i; G_0 is the constant of
        # unit norm, the weight integrating to |S^{n-1}| / |S^{n-2}|
        g0 = math.sqrt(self.transverse_volume / sphere_volume(self.dim - 1))
        self._tables = _recurrence(self.x, [dim - 3.0], np.full((1, self.npoints), g0))[:, 0]
        # Gauss-Jacobi weights, which sum to the weight's integral
        self.w = 1.0 / np.einsum("li,li->i", self._tables[0], self._tables[0])
        self.area_weights = self.transverse_volume * self.w
        self.sphere_area = float(np.sum(self.area_weights * np.ones(self.grid_shape)))
        # meridian data of the identity map beta = theta: cot(beta),
        # sin(beta)/sin(theta), beta' and beta''
        self.identity_jet = (self.cot_theta, 1.0, 1.0, 0.0)

    # -- transforms ----------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.npoints:
            raise ParameterError(f"grid shape must be {(self.npoints,)} or a stack of it")
        return np.matmul(self._tables[0], (self.w * values)[..., None])[..., 0]

    def _theta_jet(self, coeff: np.ndarray, order: int) -> list:
        """f and its theta-derivatives up to ``order`` from one product with the table.

        Each field is its own vector-matrix product, so it gives the same
        bits alone as inside a stack.
        """
        coeff = np.asarray(coeff, dtype=float)
        sums = np.matmul(coeff[..., None, None, :], self._tables[: order + 1])
        sums = sums[..., 0, :].swapaxes(0, -2)  # (derivative, [field,] node)
        jet = [sums[0]]
        if order >= 1:
            jet.append(-self.sin_theta * sums[1])
        if order >= 2:
            jet.append(-self.x * sums[1] + self.sin_theta**2 * sums[2])
        return jet

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        """Grid values of sum c_l G_l(cos theta)."""
        return self._theta_jet(coeff, 0)[0]

    def filter_degrees(self, values: np.ndarray, factor: np.ndarray) -> np.ndarray:
        return self.synthesize(self.analyze(values) * np.asarray(factor, dtype=float))

    def mode(self, l: int, m: int = 0, amplitude: float = 1.0) -> np.ndarray:
        """Grid values of the degree-l zonal basis function, of unit norm on S^{n-1}."""
        if m != 0:
            raise ParameterError("axisymmetric mode carries no azimuthal order")
        if not (0 <= l <= self.lmax):
            raise ParameterError(f"degree {l} outside [0, {self.lmax}]")
        coeff = np.zeros(self.lmax + 1)
        coeff[l] = amplitude / math.sqrt(self.transverse_volume)
        return self.synthesize(coeff)

    # -- geometry helpers ----------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.area_weights, np.asarray(values)))

    def on_frame_jet(self, values: np.ndarray):
        """Value, polar derivative, covariant Hessian components.

        Returns (f, f1, h11) where f1 = df/dtheta and h11 is the meridian
        Hessian component; the common transverse component is
        cot(theta) f1.  ``values`` is one grid (npoints,)
        or a stack (K, npoints) on a leading axis, and each output has
        its shape.  Each field drops the coefficients below the floor of
        its own peak (see COEFFICIENT_FLOOR).
        """
        coeff = _floor_coefficients(self.analyze(values), -1)
        return tuple(self._theta_jet(coeff, 2))


_ENGINES: dict = {}


def get_engine(kind: str, dim: int, size: int):
    """Shared engine cache; tables are reused across surfaces.

    The full engine holds 3 size^3 doubles of tables, the 4 size^2 of the
    Fourier table and the 30 size^2 of the identity map's frame jet (five
    distinct (3, size, 2 size) arrays); the axisymmetric engine holds 3 size^2
    of tables.  Both add the size^2 of the node solve's Jacobi matrix:
    3 size^3 + 35 size^2 doubles in all (full), 4 size^2 (axisym).  Sizes
    over TABLE_BUDGET_BYTES are refused before anything is allocated.
    """
    key = (kind, int(dim), int(size))
    if key not in _ENGINES:
        if kind not in ("full", "axisym"):
            raise ParameterError(f"unknown engine kind {kind!r}")
        if kind == "full" and dim != 3:
            raise ParameterError("the full engine is implemented for ambient dimension 3")
        need = (3 * int(size) ** 3 + 35 * int(size) ** 2 if kind == "full" else 4 * int(size) ** 2) * 8
        if need > TABLE_BUDGET_BYTES:
            raise ParameterError(
                f"{kind} engine of size {size} needs {need} bytes "
                f"({need / 2**20:.0f} MiB), over the {TABLE_BUDGET_BYTES // 2**20} MiB budget"
            )
        if kind == "full":
            _ENGINES[key] = SphericalHarmonicEngine(size)
        else:
            _ENGINES[key] = AxisymEngine(dim, size)
    return _ENGINES[key]
