"""Solve the forced periodic chain and inspect the solution.

Run:  python demos/02_atomistic_chain.py
"""

import numpy as np

from chain_elastica import AtomisticSystem, make_potential
from chain_elastica.oracles import dft_solve

N = 64
eps = 1.0 / N
xi = np.arange(-N, N)
force = eps * np.cos(np.pi * eps * xi)

for kind in ("harmonic", "lj"):
    sys_ = AtomisticSystem(N, make_potential(kind), bonds=(1, 2), force=force)
    sol = sys_.solve()
    print(f"{kind}: converged={sol.converged} iters={sol.iterations} "
          f"|grad|_inf={sol.grad_norm:.1e} admissible={sol.admissible}")
    print(f"   max |u| = {np.max(np.abs(sol.displacement.values)):.4e}, "
          f"energy above homogeneous = {sol.energy_above_homogeneous:.6e}")
    if kind == "harmonic":
        ref = dft_solve(sys_)
        err = np.max(np.abs(sol.displacement.values - ref.values))
        print(f"   vs circulant DFT solve: {err:.2e}")
