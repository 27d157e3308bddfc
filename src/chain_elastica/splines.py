"""Piecewise polynomials in pp-form and the B-splines, kernels, bond weights
and periodic interpolants built on them.

Every kernel, field and interpolant here is a `PiecewisePoly`: monomial
coefficients on unit cells, evaluated by a cell lookup plus Horner's rule
(de Boor, A Practical Guide to Splines, ch. VII), with derivatives and
antiderivatives as exact coefficient maps. The pieces of the centered
cardinal B-spline B_d are exact, from its truncated-power form; a kernel
sum_j taps[j] B_d(x - j) shifts and adds them, and a periodic field
sum_j c_j zeta(x - j) convolves c with the kernel's cells.
"""

import functools
from math import comb, factorial, perm

import numpy as np

__all__ = [
    "PiecewisePoly", "bspline", "bspline_kernel", "reproducing_kernel",
    "SplineKernel", "localization_weight", "measurement_interpolant",
    "KernelField",
    "periodic_spline_coefficients", "periodic_spline_values",
    "periodic_spline_subdivision", "INTERP_KINDS",
]


class PiecewisePoly:
    """sum_i coeffs[k, i] (x - left - k)^i on the cell [left + k, left + k + 1).

    Cells are half-open, so every function is right-continuous at its
    breakpoints. A periodic pp repeats its len(coeffs) cells with that
    period. Otherwise it is 0 left of its cells and the constant `right`
    right of them (nonzero only for an antiderivative).
    """

    def __init__(self, coeffs, left, periodic=False, right=0.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.left = float(left)
        self.periodic = periodic
        self.right = float(right)
        self._tables = {}

    def _table(self, deriv):
        """Coefficients of the deriv-th derivative, one row per power; when
        not periodic, with the outer cells -1 (zero) and n (`right`) added."""
        if deriv not in self._tables:
            c = self.coeffs
            if not self.periodic:
                outer = np.zeros((2, c.shape[1]))
                outer[1, 0] = self.right
                c = np.concatenate([outer[:1], c, outer[1:]])
            fall = [perm(i, deriv) for i in range(deriv, c.shape[1])]
            self._tables[deriv] = np.ascontiguousarray(
                (c[:, deriv:] * np.array(fall, dtype=float)).T)
        return self._tables[deriv]

    def eval(self, x, deriv=0):
        x = np.asarray(x, dtype=float)
        if deriv >= self.coeffs.shape[1]:
            return np.zeros_like(x)
        n = len(self.coeffs)
        s = x - self.left
        if self.periodic:
            s = s % n
            cell = np.minimum(np.floor(s), n - 1)   # s % n can round up to n
            row = cell.astype(np.intp)
        else:
            cell = np.clip(np.floor(s), -1, n)
            row = cell.astype(np.intp) + 1
        t = s - cell
        table = self._table(deriv)
        # at t == 0 this returns the stored constant term bit-exactly
        acc = table[-1][row]
        for col in table[-2::-1]:
            acc = acc * t + col[row]
        return acc

    def antiderivative(self):
        """The integral from -infinity: coefficients c_i / (i + 1) one power
        up, plus each cell's running total."""
        if self.periodic or self.right:
            raise ValueError("antiderivative needs a compactly supported pp")
        c = self.coeffs
        integ = np.zeros((len(c), c.shape[1] + 1))
        integ[:, 1:] = c / np.arange(1, c.shape[1] + 1)
        ends = np.cumsum(integ.sum(axis=1))
        integ[1:, 0] = ends[:-1]
        return PiecewisePoly(integ, self.left, right=ends[-1])


@functools.lru_cache(maxsize=None)
def _bspline_pp(degree):
    """B_degree on its degree + 1 cells from -(degree + 1)/2. With
    y = x + (d + 1)/2 on cell m, y = m + t and
    d! B_d = sum_{k <= m} (-1)^k C(d+1, k) (m - k + t)^d: integer sums,
    rounded once."""
    d = degree
    coeffs = [[sum((-1) ** k * comb(d + 1, k) * comb(d, p) * (m - k) ** (d - p)
                   for k in range(m + 1)) / factorial(d)
               for p in range(d + 1)]
              for m in range(d + 1)]
    return PiecewisePoly(coeffs, -0.5 * (d + 1))


def bspline(degree, x, deriv=0):
    """Centered cardinal B-spline B_d and its derivatives, vectorized in x.

    B_0 is the indicator of [-1/2, 1/2); B_d = B_{d-1} * B_0, support
    (-(d+1)/2, (d+1)/2), unit integral. Derivatives past the degree are 0.
    """
    if deriv < 0 or degree < 0:
        raise ValueError("degree and deriv must be nonnegative")
    return _bspline_pp(degree).eval(x, deriv)


class SplineKernel:
    """A compactly supported kernel sum_j taps[j] * B_degree(x - j)."""

    def __init__(self, degree, taps, name=""):
        self.degree = degree
        self.taps = dict(taps)
        self.name = name or f"combo{degree}"
        lo, hi = min(self.taps), max(self.taps)
        self.support_radius = 0.5 * (degree + 1) + max(abs(lo), abs(hi))
        # highest polynomial degree p with sum_xi p(xi) zeta(x-xi) = p(x);
        # plain B-splines only reproduce linears, prefiltered kernels more.
        self.reproduction_degree = 1
        pieces = _bspline_pp(degree).coeffs
        table = np.zeros((hi - lo + degree + 1, degree + 1))
        for j, c in self.taps.items():
            table[j - lo:j - lo + degree + 1] += c * pieces
        self.pp = PiecewisePoly(table, lo - 0.5 * (degree + 1))

    @functools.cached_property
    def integral(self):
        """The antiderivative of the kernel, built on first use: only the
        bond weights read it."""
        return self.pp.antiderivative()

    def __call__(self, x, deriv=0):
        if not 0 <= deriv <= self.degree:
            raise ValueError(f"derivative order {deriv} unsupported for a "
                             f"degree-{self.degree} kernel")
        return self.pp.eval(x, deriv)

    def antiderivative(self, x):
        return self.integral.eval(x)

    def convolve(self, other):
        """Exact convolution, using B_a * B_b = B_{a+b+1}."""
        taps = {}
        for j1, c1 in self.taps.items():
            for j2, c2 in other.taps.items():
                taps[j1 + j2] = taps.get(j1 + j2, 0.0) + c1 * c2
        k = SplineKernel(self.degree + other.degree + 1, taps,
                         name=f"({self.name}*{other.name})")
        k.reproduction_degree = min(self.reproduction_degree, other.reproduction_degree)
        return k

    @functools.cached_property
    def segment_kernel(self):
        """K = zeta_check * B_0 with zeta_check(s) = zeta(-s), one degree up:
        the weight of the unit segment [eta, eta + 1] is
        chi_{eta,1}(x) = int_0^1 zeta(eta + t - x) dt = K(x - eta - 1/2)."""
        mirrored = SplineKernel(self.degree,
                                {-j: c for j, c in self.taps.items()})
        return mirrored.convolve(bspline_kernel(0))


@functools.lru_cache(maxsize=None)
def bspline_kernel(degree):
    """The plain centered cardinal B-spline as a kernel; one per degree,
    shared."""
    return SplineKernel(degree, {0: 1.0}, name=f"bspline{degree}")


# Prefilter taps making the nodal series sum_xi v(xi) zeta(x - xi) reproduce
# polynomials up to the B-spline degree (plain B-splines only manage degree 1:
# the cubic one has sum_xi xi^2 B3(x-xi) = x^2 + 1/3). Derived from the exact
# centered moments of B_d; verified to machine precision in the test suite.
_REPRO_TAPS = {
    3: {-1: -1.0 / 6.0, 0: 4.0 / 3.0, 1: -1.0 / 6.0},
    5: {-2: 13.0 / 240.0, -1: -7.0 / 15.0, 0: 73.0 / 40.0,
        1: -7.0 / 15.0, 2: 13.0 / 240.0},
}


@functools.lru_cache(maxsize=None)
def reproducing_kernel(degree):
    """Kernel of the given B-spline degree whose nodal series reproduces
    polynomials of that degree (needed for the bond-weight moment
    identities); one per degree, shared."""
    if degree not in _REPRO_TAPS:
        raise ValueError(f"no reproducing kernel tabulated for degree {degree}")
    k = SplineKernel(degree, _REPRO_TAPS[degree], name=f"repro{degree}")
    k.reproduction_degree = degree
    return k


def localization_weight(kernel, xi, rho, x):
    """Bond weight chi_{xi,rho}(x) = int_0^1 zeta(xi + t*rho - x) dt.

    Evaluated exactly through the closed-form antiderivative:
    chi = [Z(xi - x + rho) - Z(xi - x)] / rho.
    """
    if rho == 0:
        raise ValueError("bond index rho must be nonzero")
    x = np.asarray(x, dtype=float)
    return (kernel.antiderivative(xi - x + rho) - kernel.antiderivative(xi - x)) / rho


class KernelField:
    """Periodic field sum_j coeffs[j] * kernel(x - j), period 2N.

    Its pp-form on the kernel's breakpoints, `pp`, is built on first use:
    cells start at -N for odd degrees and at -N + 1/2 for even ones.
    eval(x, deriv) gives any derivative order; past the kernel's degree it
    is 0.
    """

    def __init__(self, coeffs, kernel, N):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.kernel = kernel
        self.N = N
        if self.coeffs.shape != (2 * N,):
            raise ValueError("need one coefficient per site in [-N, N)")

    @functools.cached_property
    def pp(self):
        kpp, N = self.kernel.pp, self.N
        left = kpp.left % 1.0 - N
        # field cell k lies in kernel cell m of site j = left - kpp.left + k - m
        shift = round(left - kpp.left) + N
        n, c = 2 * N, self.coeffs[:, None]
        table = np.zeros((n, kpp.coeffs.shape[1]))
        for m, piece in enumerate(kpp.coeffs):
            s = (m - shift) % n
            table[s:] += c[:n - s] * piece
            table[:s] += c[n - s:] * piece
        return PiecewisePoly(table, left, periodic=True)

    def eval(self, x, deriv=0):
        return self.pp.eval(x, deriv)


@functools.lru_cache(maxsize=None)
def _integer_taps(degree):
    """(off, B_degree(off)) for the integers off where B_degree is nonzero,
    in increasing off."""
    rad = (degree + 1) // 2
    offsets = np.arange(-rad, rad + 1)
    return tuple((int(off), float(b)) for off, b in
                 zip(offsets, bspline(degree, offsets.astype(float)))
                 if b != 0.0)


def _interpolation_symbol(n, degree):
    """sum_off B_degree(off) cos(2 pi off j / n), j = 0..n//2: the DFT of
    the circulant collocation matrix on n periodic sites at the modes of an
    rfft. As cos is even, each tap reads one table of
    cos(2 pi k / n), k <= max|off|·(n//2), at k = |off|·j: a strided
    slice."""
    taps, h = _integer_taps(degree), n // 2
    cos = np.cos(2 * np.pi / n * np.arange(taps[-1][0] * h + 1))
    symbol = np.zeros(h + 1)
    for off, b in taps:
        symbol += b * cos[:abs(off) * h + 1:abs(off)] if off else b
    # uniform periodic odd/even-degree spline collocation is never singular
    assert np.all(np.abs(symbol) > 1e-12), "singular interpolation system"
    return symbol


def periodic_spline_coefficients(values, degree):
    """Coefficients c with sum_j c_j B_degree(xi - j) = values[xi] on the
    periodic grid, via the circulant symbol in Fourier space, built in O(n)
    per call."""
    values = np.asarray(values, dtype=float)
    n = values.size
    return np.fft.irfft(np.fft.rfft(values) / _interpolation_symbol(n, degree),
                        n)


def periodic_spline_values(coeffs, degree):
    """The values at the sites of the periodic spline
    sum_j c_j B_degree(xi - j), the inverse of
    `periodic_spline_coefficients`: the periodic convolution
    sum_off B_degree(off) c[xi - off] over the nonzero integer taps of
    B_degree (de Boor, A Practical Guide to Splines, ch. IX), which wraps
    more than once on fewer sites than taps."""
    c = np.asarray(coeffs, dtype=float)
    n, taps = c.size, _integer_taps(degree)
    rad = taps[-1][0]
    ext = np.take(c, np.arange(-rad, n + rad), mode="wrap")
    values = np.zeros(n)
    for off, b in taps:
        values += b * ext[rad - off:rad - off + n]
    return values


def periodic_spline_subdivision(coeffs, degree):
    """Coefficients d on 2n sites with sum_l d_l B_degree(x - l) =
    sum_j c_j B_degree(x/2 - j), for the coefficients c of a periodic spline
    on n sites (the last axis of `coeffs`) and an odd degree: the same
    function on a mesh twice as fine, site j moving to site 2j. From the
    refinement relation B_d(x/2) = sum_|k|<=h C(d+1, k+h) / 2^d B_d(x - k),
    h = (d+1)/2, d is c upsampled by 2 and convolved with that mask (Lane &
    Riesenfeld, IEEE Trans. PAMI 2, 1980): d[2i + k] += C(d+1, k+h) / 2^d
    · c[i]."""
    if degree % 2 == 0:
        raise ValueError("dyadic subdivision keeps only odd-degree centered "
                         "B-splines on the integers")
    c = np.asarray(coeffs, dtype=float)
    n, half = c.shape[-1], (degree + 1) // 2
    pad = half // 2 + 1
    ext = np.concatenate([c[..., n - pad:], c, c[..., :pad]], axis=-1)
    fine = np.zeros(c.shape[:-1] + (2 * n,))
    for k in range(-half, half + 1):
        # d[2i + k % 2] takes c[i - s]: the entries of ext from pad - s
        s = (k - k % 2) // 2
        fine[..., k % 2::2] += comb(degree + 1, k + half) / 2.0 ** degree \
            * ext[..., pad - s:pad - s + n]
    return fine


INTERP_KINDS = ("pi", "cubic", "quartic")


def measurement_interpolant(v, kind):
    """Smooth interpolant I v used to measure atomistic solutions.

    kind: 'pi' (the degree-9 Hermite operator), 'cubic' or 'quartic'
    (periodic spline interpolation at the sites).
    """
    if kind == "pi":
        from .lattice import hermite_interpolant
        return hermite_interpolant(v)
    if kind == "cubic":
        degree = 3
    elif kind == "quartic":
        degree = 4
    else:
        raise ValueError(f"unknown interpolant kind {kind!r}")
    coeffs = periodic_spline_coefficients(v.values, degree)
    return KernelField(coeffs, bspline_kernel(degree), v.N)
