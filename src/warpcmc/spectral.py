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
engine assembles each frame-jet output per order m before its inverse
FFT, and analyses, floors and sums only the orders m that can keep a
coefficient above the floor.  Each order is its own product over the
whole degree axis and the floor zeroes every order left out, so every
output is the whole band's bit for bit.
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
        # |a_lm| <= c_m max_i |w_i F_im| with c_m = (2 pi / nlon) max_l sum_i |P_l^m(x_i)|,
        # doubled here against roundoff
        self._order_bound = 4.0 * math.pi / self.nlon * np.abs(self._tables[0]).sum(-1).max(-1)
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
        """w_i F_im as (re of every field then im of every field, latitude, m)."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.nlat, self.nlon):
            raise ParameterError(f"grid shape must be {(self.nlat, self.nlon)} or a stack of it")
        stack = values.reshape(-1, self.nlat, self.nlon)
        fm = self.w[:, None] * np.fft.rfft(stack, axis=-1)[..., : self.lmax + 1]
        return np.concatenate([fm.real, fm.imag])

    def _coefficients(self, fm: np.ndarray, orders) -> np.ndarray:
        """a[l, m] (K, lmax + 1, len(orders)) of the given orders of ``_weighted_fourier``."""
        X = np.ascontiguousarray(fm[..., orders].transpose(2, 1, 0))
        a = (2.0 * math.pi / self.nlon) * np.matmul(self._tables[0][orders], X)
        K = X.shape[-1] // 2
        return (a[..., :K] + 1j * a[..., K:]).transpose(2, 1, 0)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Expansion coefficients a[l, m] of a real grid function or a stack of them."""
        alm = self._coefficients(self._weighted_fourier(values), slice(None))
        return alm.reshape(np.shape(values)[:-2] + alm.shape[1:])

    def _legendre_sums(self, alm: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """nlon * sum_l T[m, l, i] a[l, m] per table and occupied order, as (..., m, i, re | im)."""
        stack = np.asarray(alm, dtype=complex).reshape(-1, self.lmax + 1, np.shape(alm)[-1])
        stack = stack[..., : np.flatnonzero(stack.any(axis=(0, 1))).max(initial=0) + 1]
        B = np.ascontiguousarray(np.concatenate([stack.real, stack.imag]).transpose(2, 1, 0))
        g = np.matmul(np.swapaxes(tables[..., : B.shape[0], :, :], -1, -2), B)
        g *= self.nlon
        return g

    def _spectrum(self, sums: np.ndarray) -> np.ndarray:
        """Per-order spectra (K, nlat, orders) of one table's Legendre sums."""
        K = sums.shape[-1] // 2
        spec = sums[..., :K].T.astype(complex, order="C")
        spec.imag = sums[..., K:].T
        return spec

    def _grid(self, spec: np.ndarray) -> np.ndarray:
        """Grid values (K, nlat, nlon) of per-order spectra, zero-padded to order nlat."""
        return np.fft.irfft(spec, n=self.nlon, axis=-1)

    def synthesize(self, alm: np.ndarray) -> np.ndarray:
        """Grid values of sum a_lm Y_lm, summed over the occupied orders (``_legendre_sums``)."""
        grid = self._grid(self._spectrum(self._legendre_sums(alm, self._tables[0])))
        return grid.reshape(np.shape(alm)[:-2] + grid.shape[1:])

    def filter_degrees(self, values: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """Apply a per-degree multiplier in coefficient space."""
        alm = self.analyze(values)
        return self.synthesize(alm * np.asarray(factor, dtype=float)[:, None])

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

    def _floor_prefix(self, fm: np.ndarray) -> int:
        """Count of leading orders that can keep a coefficient, or all if a bound is not finite;
        the orders with the largest ``_order_bound`` give a lower bound on each field's peak."""
        bound = self._order_bound * np.hypot(*np.split(np.abs(fm).max(axis=1), 2))
        provisional = sorted(set(np.argmax(bound, axis=1).tolist()))
        peak = np.abs(self._coefficients(fm, provisional)).max(axis=(1, 2))
        if not (np.isfinite(bound).all() and np.isfinite(peak).all()):
            return self.lmax + 1
        reach = (bound >= COEFFICIENT_FLOOR * peak[:, None]) & (bound > 0.0)
        return int(np.flatnonzero(reach.any(axis=0)).max(initial=0)) + 1

    def on_frame_jet(self, values: np.ndarray):
        """Value, orthonormal-frame gradient, and covariant Hessian.

        Returns (f, f1, f2, h11, h12, h22) where the frame is the unit
        theta and phi directions and h is the covariant Hessian of the
        round metric in that frame.  ``values`` is one grid (nlat, nlon)
        or a stack (K, nlat, nlon) on a leading axis, and each output has
        its shape.  Each field drops the coefficients below the floor of
        its own peak (see COEFFICIENT_FLOOR); only the orders that can keep
        a coefficient are transformed.  One product covers the three theta
        tables; each output is assembled per order m, where a phi
        derivative is a factor i m, and takes one inverse FFT.
        """
        fm = self._weighted_fourier(values)
        alm = _floor_coefficients(self._coefficients(fm, slice(self._floor_prefix(fm))), (-2, -1))
        g, gt, gtt = (self._spectrum(sums) for sums in self._legendre_sums(alm, self._tables))
        im_s = 1j * np.arange(g.shape[-1]) / self.sin_theta[:, None]  # d/dphi / sin(theta)
        cot = self.cot_theta[:, None]
        shape = np.shape(values)
        return (
            self._grid(g).reshape(shape),
            self._grid(gt).reshape(shape),
            self._grid(g * im_s).reshape(shape),
            self._grid(gtt).reshape(shape),
            self._grid((gt - cot * g) * im_s).reshape(shape),
            self._grid(cot * gt + im_s * (im_s * g)).reshape(shape),
        )


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

    Tables take 3 size^3 (full) doubles, or 3 size^2 (axisym) plus the
    size^2 of the node solve's Jacobi matrix; sizes over
    TABLE_BUDGET_BYTES are refused before anything is allocated.
    """
    key = (kind, int(dim), int(size))
    if key not in _ENGINES:
        if kind not in ("full", "axisym"):
            raise ParameterError(f"unknown engine kind {kind!r}")
        if kind == "full" and dim != 3:
            raise ParameterError("the full engine is implemented for ambient dimension 3")
        need = (3 * int(size) ** 3 if kind == "full" else 4 * int(size) ** 2) * 8
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
