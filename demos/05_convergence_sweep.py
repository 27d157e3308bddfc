"""The headline refinement study: modeling error of the continuum variants
against the atomistic chain, in scaled units, with log-log slope fits.

Reproduces the fourth-order rate of the strain-gradient model and the
second-order rate of Cauchy-Born, the sensitivity to the measurement
interpolant, and the energy-gap rates.

Run:  python demos/05_convergence_sweep.py       (about a second)
"""

import numpy as np

from chain_elastica.harness import StudyConfig, fit_models, run_sweep

EPS = tuple(2.0 ** -k for k in range(3, 9))

print("== harmonic potential, quartic-spline measurement ==")
cfg = StudyConfig(potential="harmonic", models=("cb", "hoc4"),
                  eps_list=EPS, interp="quartic")
records, fits = run_sweep(cfg)
print(f"{'model':6s}{'eps':>10s}{'grad error':>14s}{'energy gap':>14s}")
for r in records:
    print(f"{r.model:6s}{r.eps:10.5f}{r.grad_error:14.3e}{r.energy_gap:14.3e}")
for f in fits:
    print(f"grad-error slope {f.model}: {f.slope:.3f}  (r2 = {f.r2:.6f})")
for f in fit_models(cfg, records, "energy_gap"):
    print(f"energy-gap slope {f.model}: {f.slope:.3f}")

print("\n== the measurement interpolant matters ==")
for interp in ("quartic", "pi", "cubic"):
    cfg = StudyConfig(potential="harmonic", models=("hoc4",),
                      eps_list=EPS, interp=interp)
    _, fits = run_sweep(cfg)
    print(f"  {interp:8s} I: fourth-order model measures slope "
          f"{fits[0].slope:.3f}")

print("\n== Lennard-Jones ==")
cfg = StudyConfig(potential="lj", models=("cb", "hoc4"),
                  eps_list=EPS, interp="quartic")
records, fits = run_sweep(cfg)
for f in fits:
    print(f"grad-error slope {f.model}: {f.slope:.3f}  (r2 = {f.r2:.6f})")
for f in fit_models(cfg, records, "energy_gap"):
    print(f"energy-gap slope {f.model}: {f.slope:.3f}")
