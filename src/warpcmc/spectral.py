"""Spectral engines on the parameter sphere.

Two engines cover the two symmetry modes.  The full engine works on
S^2 (ambient dimension 3) with a Gauss-Legendre latitude grid, uniform
longitudes, and normalized associated Legendre tables; the axisymmetric
engine works in any dimension on functions of the polar angle alone.
The Gauss-Legendre rule is numpy's ``leggauss``.  The axisymmetric
engine builds everything from one orthonormal three-term recurrence for
the weight (1 - x^2)^((n-3)/2): its values and their first two
x-derivatives are the tables, the eigenvalues of its Jacobi matrix are
the nodes, and the Christoffel numbers read from the value table are
the weights.

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
from numpy.polynomial.legendre import leggauss

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
# axisymmetric engine at every CLI grid size, the full one to ~280 latitudes.
TABLE_BUDGET_BYTES = 512 * 2**20


def _jacobi_nodes(offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrix with zero diagonal and
    this off-diagonal, symmetrized about 0 and in descending order."""
    count = offdiag.size + 1
    jacobi = np.zeros((count, count))
    i = np.arange(1, count)
    jacobi[i, i - 1] = jacobi[i - 1, i] = offdiag
    x = np.linalg.eigvalsh(jacobi)
    return 0.5 * (x[::-1] - x)


def _floor_coefficients(coeff: np.ndarray, axes) -> np.ndarray:
    """Zero each field's coefficients below COEFFICIENT_FLOOR of its own peak."""
    magnitude = np.abs(coeff)
    peak = magnitude.max(axis=axes, keepdims=True)
    return np.where(magnitude < COEFFICIENT_FLOOR * peak, 0.0, coeff)


class SphericalHarmonicEngine:
    """Scalar spherical-harmonic transform on a Gauss-Legendre grid.

    The grid has ``nlat`` latitudes at Legendre nodes x = cos(theta) and
    ``2 nlat`` uniform longitudes; degrees up to lmax = nlat - 1 are
    resolved exactly.  Basis functions are orthonormal over the sphere
    (no Condon-Shortley phase), and the associated Legendre tables carry
    first and second theta-derivatives so covariant Hessians need no
    finite differencing.

    Grids are (nlat, nlon) and coefficients a[l, m] (lmax+1, lmax+1),
    or stacks of them on one leading axis.
    """

    kind = "full"

    def __init__(self, nlat: int):
        if nlat < 8:
            raise ParameterError("need at least 8 latitudes")
        self.nlat = int(nlat)
        self.nlon = 2 * self.nlat
        self.lmax = self.nlat - 1
        x, w = leggauss(self.nlat)
        order = np.argsort(-x)  # theta ascending from the north pole
        self.x = x[order]
        self.w = w[order]
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x * self.x)
        self.cot_theta = self.x / self.sin_theta
        self.phi = 2.0 * math.pi * np.arange(self.nlon) / self.nlon
        self.grid_shape = (self.nlat, self.nlon)
        # quadrature weights over the whole sphere, shape (nlat, 1)
        self.area_weights = (self.w * (2.0 * math.pi / self.nlon))[:, None]
        self.sphere_area = float(np.sum(self.area_weights * np.ones(self.grid_shape)))
        self._build_tables()
        # rows 2m and 2m + 1 are c_m cos(m phi) and -c_m sin(m phi), c_0 = 1 / nlon and c_m =
        # 2 / nlon: the first 2M rows take (re, im) pairs of orders m < M to the inverse rFFT
        m = np.arange(self.nlat)[:, None, None]
        angle = (2.0 * math.pi / self.nlon) * (m * np.arange(self.nlon) % self.nlon)
        rows = np.concatenate([np.cos(angle), -np.sin(angle)], 1) * np.where(m, 2.0, 1.0)
        self._fourier = (rows / self.nlon).reshape(-1, self.nlon)
        # frame jet of the identity map y: S^2 -> R^3, components on the leading
        # axis: (y, e_theta, e_phi) and the covariant Hessians (-y, 0, -y)
        sin_t, cos_t = self.sin_theta[:, None], self.x[:, None]
        cos_p, sin_p = np.cos(self.phi), np.sin(self.phi)
        y = np.stack(np.broadcast_arrays(sin_t * cos_p, sin_t * sin_p, cos_t))
        e_theta = np.stack(np.broadcast_arrays(cos_t * cos_p, cos_t * sin_p, -sin_t))
        e_phi = np.stack(np.broadcast_arrays(-sin_p, cos_p, 0.0 * sin_t))
        self.identity_jet = (y, e_theta, e_phi, -y, np.zeros_like(y), -y)

    def _build_tables(self):
        """T[k, m, l, i]: k-th theta-derivative of P_l^m at latitude i (0 for l < m)."""
        L = self.lmax
        x, s = self.x, self.sin_theta
        T = np.zeros((3, L + 1, L + 1, self.nlat))
        l = np.arange(L + 1)
        pmm = np.full(self.nlat, math.sqrt(1.0 / (4.0 * math.pi)))
        for m in range(L + 1):
            P, dP, d2P = T[:, m]
            if m > 0:
                pmm = math.sqrt((2 * m + 1) / (2.0 * m)) * s * pmm
            P[m] = pmm
            if m + 1 <= L:
                P[m + 1] = math.sqrt(2 * m + 3) * x * P[m]
            for k in range(m + 2, L + 1):
                a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
                b = (2.0 * k + 1.0) / (2.0 * k - 3.0) * ((k - 1.0) ** 2 - m * m)
                b = math.sqrt(b / (k * k - m * m))
                P[k] = a * x * P[k - 1] - b * P[k - 2]
            lm = l[m:, None]
            c = np.sqrt((2.0 * lm + 1.0) * (lm * lm - m * m) / (2.0 * lm - 1.0))
            below = np.vstack([np.zeros(self.nlat), P[m:L]])  # P_{l-1}^m, zero at l = m
            dP[m:] = (lm * x * P[m:] - c * below) / s
            # second derivative from the defining ODE
            d2P[m:] = -self.cot_theta * dP[m:] - (lm * (lm + 1.0) - m * m / (s * s)) * P[m:]
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
        # b_1 .. b_{N-1}, the recurrence's coefficients and its Jacobi matrix's
        # off-diagonal, with a2 = n - 3 twice the weight's exponent
        a2 = float(dim - 3)
        k = np.arange(1.0, self.npoints)
        b = np.sqrt(k * (k + a2) / ((2.0 * k + a2 + 1.0) * (2.0 * k + a2 - 1.0)))
        self.x = _jacobi_nodes(b)
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x * self.x)
        self.cot_theta = self.x / self.sin_theta
        self.transverse_volume = sphere_volume(dim - 2)
        self._build_tables(b)
        # Gauss-Jacobi weights, which sum to the weight's integral
        self.w = 1.0 / np.einsum("li,li->i", self._tables[0], self._tables[0])
        self.area_weights = self.transverse_volume * self.w
        self.sphere_area = float(np.sum(self.area_weights * np.ones(self.grid_shape)))
        # meridian data of the identity map beta = theta: cot(beta),
        # sin(beta)/sin(theta), beta' and beta''
        self.identity_jet = (self.cot_theta, 1.0, 1.0, 0.0)

    def _build_tables(self, b: np.ndarray):
        """T[k, l, i]: k-th derivative in x = cos(theta) of G_l at node i.

        The recurrence, with coefficients b_1 .. b_{N-1}, runs on the values and, differentiated once and
        twice, on the derivatives.  G_0 is the constant of unit norm: the
        weight integrates to |S^{n-1}| / |S^{n-2}|.
        """
        x = self.x
        T = np.zeros((3, self.npoints, self.npoints))
        G, dG, d2G = T
        G[0] = math.sqrt(self.transverse_volume / sphere_volume(self.dim - 1))
        G[1] = x * G[0] / b[0]
        dG[1] = G[0] / b[0]
        for l in range(1, self.lmax):
            G[l + 1] = (x * G[l] - b[l - 1] * G[l - 1]) / b[l]
            dG[l + 1] = (x * dG[l] + G[l] - b[l - 1] * dG[l - 1]) / b[l]
            d2G[l + 1] = (x * d2G[l] + 2.0 * dG[l] - b[l - 1] * d2G[l - 1]) / b[l]
        self._tables = T

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

    Tables take 3 size^3 doubles plus the 4 size^2 of the Fourier table
    (full), or 3 size^2 plus the size^2 of the node solve's Jacobi matrix
    (axisym); sizes over TABLE_BUDGET_BYTES are refused before anything
    is allocated.
    """
    key = (kind, int(dim), int(size))
    if key not in _ENGINES:
        if kind not in ("full", "axisym"):
            raise ParameterError(f"unknown engine kind {kind!r}")
        if kind == "full" and dim != 3:
            raise ParameterError("the full engine is implemented for ambient dimension 3")
        need = (4 * int(size) ** 2 + (3 * int(size) ** 3 if kind == "full" else 0)) * 8
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
