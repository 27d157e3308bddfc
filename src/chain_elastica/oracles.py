"""Reference oracles that no command runs: the closed forms and dense checks
the tests and demos compare the library with. Neither the package's
`__init__` nor any command module imports this one: an oracle must not be
built on the path it checks, and a command should not load what it never
runs."""

import numpy as np

from .continuum import gradients
from .lattice import PeriodicLatticeField
from .quadrature import composite_integral
from .splines import KernelField, localization_weight

__all__ = [
    "hessian_dft_eigenvalues", "dft_solve", "SumField", "continuum_energy",
    "first_variation_pairing", "stress_pairing", "external_work_gap",
    "fourier_cos_amplitude", "gradient_check", "band_toarray", "band_solve",
    "moment_sum", "nodal_interpolant", "convolution_interpolant",
]


def hessian_dft_eigenvalues(system):
    """Eigenvalues of the homogeneous-state circulant Hessian, k = 0..2N-1:
    sum_rho 4 phi_rho''(0) sin^2(pi k rho / 2N), each sine taken at
    pi m / 2N with m = min(k rho mod 2N, 2N - k rho mod 2N) in [0, pi/2]
    (sin^2 is even with period 2N in m), where it keeps its relative
    accuracy. A closed form from the potential alone, not from the assembled
    band: the tests check `PeriodicBand.eigenvalues` against it."""
    n = 2 * system.N
    k = np.arange(n)
    lam = np.zeros(n)
    for rho, phi2 in system.stiffness0.items():
        m = k * rho % n
        lam += 4.0 * phi2 * np.sin(np.pi * np.minimum(m, n - m) / n) ** 2
    return lam


def dft_solve(system):
    """Exact mean-zero solution of the linearized (harmonic) problem
    H u = f via the circulant diagonalization of `hessian_dft_eigenvalues`.
    Like that oracle, it checks the solver's spectral path and so must not
    be built on it."""
    lam = hessian_dft_eigenvalues(system)
    fhat = np.fft.fft(system.force)
    uhat = np.zeros_like(fhat)
    uhat[1:] = fhat[1:] / lam[1:]
    u = np.real(np.fft.ifft(uhat))
    return PeriodicLatticeField(u - u.mean(), system.N)


class SumField:
    def __init__(self, *fields):
        self.fields = fields

    def eval(self, x, deriv=0):
        return sum(f.eval(x, deriv) for f in self.fields)


def continuum_energy(model, u, N, npoints=5):
    """Integral of the density along the smooth field u over [-N, N], less
    the homogeneous density: the offset is removed pointwise, which keeps
    the small energy differences well conditioned."""
    w0 = model.density0()

    def f(x):
        return model.density(gradients(u, x)) - w0

    return composite_integral(f, N, npoints)


def first_variation_pairing(model, u, v, N, npoints=8):
    """<delta E(u), v> = int sum_m dW/dg_m grad^m v dx: the exact Gateaux
    derivative of the density energy."""
    def f(x):
        dw = model.density_grad(gradients(u, x))
        out = np.zeros_like(x)
        for i, j in enumerate(model.density_orders):
            out += dw[i] * v.eval(x, j)
        return out

    return composite_integral(f, N, npoints)


def stress_pairing(model, u, v, N, npoints=8):
    """int S(u; x) grad v dx."""
    return composite_integral(
        lambda x: model.stress(gradients(u, x)) * v.eval(x, 1), N, npoints)


def external_work_gap(f, v, kernel, npoints=10):
    """|<f, v_tilde>_lattice - <f, v_hat>_continuum| for a mean-zero force:
    the discrete pairing samples the quasi-interpolant at the sites, the
    continuum pairing integrates against the nodal interpolant."""
    N = v.N
    sites = np.arange(-N, N).astype(float)
    vt = convolution_interpolant(v, kernel)
    vh = nodal_interpolant(v, kernel)
    discrete = float(np.dot(f(sites), vt.eval(sites)))
    integral = composite_integral(lambda x: f(x) * vh.eval(x), N, npoints)
    return abs(discrete - integral)


def fourier_cos_amplitude(field, wavenumber, N, npoints=5):
    """Coefficient of cos(k x) in the field over [-N, N]."""
    val = composite_integral(lambda x: field.eval(x) * np.cos(wavenumber * x),
                             N, npoints)
    return val / N


def gradient_check(problem, x, h=1e-6):
    """Max relative error between the analytic gradient and central
    differences of the objective along the coordinate directions, or 12
    random unit directions when x has more than 24 entries, for a problem
    that is a stack of one, at the vector x."""
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x[None])[0]
    scale = float(np.max(np.abs(g))) + 1e-30
    if x.size <= 24:
        dirs = np.eye(x.size)
    else:
        dirs = [d / np.linalg.norm(d) for d in
                np.random.default_rng(0).standard_normal((12, x.size))]
    worst = 0.0
    for d in dirs:
        fd = (problem.objective((x + h * d)[None])[0]
              - problem.objective((x - h * d)[None])[0]) / (2 * h)
        worst = max(worst, abs(fd - float(np.dot(g, d))) / scale)
    return worst


def band_toarray(band):
    """The dense matrix of a `PeriodicBand`, its aliased offsets summed."""
    rows = np.broadcast_to(np.arange(band.n), band.diags.shape)
    cols = (rows + np.arange(-band.b, band.b + 1)[:, None]) % band.n
    H = np.zeros((band.n, band.n))
    np.add.at(H, (rows, cols), band.diags)
    return H


def band_solve(band, rhs):
    """H x = rhs solved by the last of `PeriodicBand.factor`'s passes."""
    *_, x = band.factor()(rhs)
    return x


def moment_sum(kernel, rho, x, k):
    """sum_xi chi_{xi,rho}(x) (xi - x)^k, which equals (-rho)^k / (k+1)
    whenever the kernel reproduces polynomials of degree >= k. Returns
    (value, guaranteed); guaranteed is False past the kernel's reproduction
    degree, where no identity is claimed."""
    x = float(x)
    rad = kernel.support_radius + abs(rho) + 1
    lo = int(np.floor(x - rad)) - 1
    hi = int(np.ceil(x + rad)) + 1
    xis = np.arange(lo, hi + 1)
    w = localization_weight(kernel, xis, rho, np.full(xis.shape, x))
    value = float(np.sum(w * (xis - x) ** k))
    return value, k <= kernel.reproduction_degree


def nodal_interpolant(v, kernel):
    """v_hat(x) = sum_xi v(xi) zeta(x - xi), periodic. With a reproducing
    kernel this preserves polynomials up to the kernel's reproduction degree
    on windows where periodicity does not interfere; it is a
    quasi-interpolant, not an interpolant, for plain B-spline kernels."""
    return KernelField(v.values, kernel, v.N)


def convolution_interpolant(v, kernel):
    """v_tilde = zeta * v_hat = sum_xi v(xi) (zeta*zeta)(x - xi)."""
    return KernelField(v.values, kernel.convolve(kernel), v.N)
