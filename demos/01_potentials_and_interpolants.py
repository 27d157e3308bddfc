"""A tour of the building blocks: pair potentials, the two spline kernels,
bond weights, and the three lattice interpolants.

Run:  python demos/01_potentials_and_interpolants.py
"""

import numpy as np

from chain_elastica import (PeriodicLatticeField, bspline, hermite_interpolant,
                            make_potential, reproducing_kernel)
from chain_elastica.oracles import moment_sum, nodal_interpolant

print("== pair potentials (lattice units, rest length 1) ==")
for kind in ("harmonic", "lj", "morse"):
    p = make_potential(kind)
    print(f"  {kind:9s} phi(1) = {p.derivative(0, 1.0):+.4f}   "
          f"phi'(1) = {p.derivative(1, 1.0):+.1e}   "
          f"phi''(1) = {p.derivative(2, 1.0):+.4f}")

print("\n== kernels ==")
print(f"  plain cubic B-spline at 0:        {bspline(3, np.array([0.0]))[0]:.6f}  (= 2/3)")
z3 = reproducing_kernel(3)
z30 = z3(np.array([0.0]))[0]
print(f"  cubic reproducing kernel at 0:    {z30:.6f}  "
      "(= 5/6; dips negative off-center to buy cubic reproduction)")

# the plain B-spline series shifts parabolas upward; the prefiltered kernel
# reproduces cubics exactly, which is what the bond-weight moments need
x0 = 0.37
plain = sum(k * k * bspline(3, np.array([x0 - k]))[0] for k in range(-8, 9))
repro = sum(k * k * z3(np.array([x0 - k]))[0] for k in range(-8, 9))
print(f"  sum xi^2 * basis(x-xi) at x={x0}: plain {plain:.6f} "
      f"(x^2 + 1/3), reproducing {repro:.6f} (x^2 = {x0 ** 2:.6f})")

print("\n== bond-weight moments:  sum_xi chi(xi-x)^k = (-rho)^k/(k+1) ==")
for rho in (1, 2):
    vals = [moment_sum(z3, rho, 0.71, k)[0] for k in range(4)]
    print(f"  rho={rho}: " + "  ".join(f"k={k}: {v:+.6f}" for k, v in enumerate(vals)))

print("\n== interpolating a lattice sine, N = 16 ==")
N = 16
xi = np.arange(-N, N)
v = PeriodicLatticeField(np.sin(np.pi * xi / N), N)
x = np.linspace(-N, N, 2000, endpoint=False)
exact = (np.pi / N) * np.cos(np.pi * x / N)
H = hermite_interpolant(v)
vh = nodal_interpolant(v, z3)
print(f"  max |grad (Hermite) - exact|   = {np.max(np.abs(H.eval(x, 1) - exact)):.2e}")
print(f"  max |grad (nodal)   - exact|   = {np.max(np.abs(vh.eval(x, 1) - exact)):.2e}")
print("  (the Hermite operator carries fourth-order derivative data; the "
      "nodal series is the analysis tool)")
