"""1D periodic atomistic chains, their strain-gradient continuum limits, and
the numerical machinery to measure the modeling error between them. The
reference oracles the tests check it against are in `chain_elastica.oracles`,
which this package does not import."""

from .potentials import PairPotential, ShiftedPotential, make_potential, \
    shifted, decay_moment
from .splines import bspline, bspline_kernel, reproducing_kernel, \
    SplineKernel, localization_weight, measurement_interpolant, KernelField, \
    PiecewisePoly, stencil_derivatives, hermite_interpolant
from .optimize import MinimizeProblem, MinimizeResult, newton_minimize
from .atomistic import AtomisticSystem, AtomisticSolution, \
    atomistic_stress, check_admissible
from .continuum import SineField, continuum_model, MODEL_KEYS, \
    consistency_residual
from .fem import PeriodicSplineSpace, FemField, assemble, solve_continuum, \
    grad_l2_distance, energy_gap, IndefiniteHessianError
from .analysis import atomistic_symbol, cb_symbol, hoc_taylor_symbol, \
    direct_symbol, stability_constants, find_negative_mode
from .harness import StudyConfig, run_sweep, run_consistency, run_stability, \
    solve_cell, fit_slope, load_config

__version__ = "0.1.0"
