"""Rigid-body dynamics with metriplectic, delayed, and fractional memory.

A numpy-based library plus a small CLI (``rigidmem.cli``).  The classical
Euler equations, their energy-conserving/norm-dissipating revision,
distributed-delay variants (uniform, exponential, Erlang, Dirac kernels)
and Caputo-fractional versions are integrated with dense trajectory
output, and the stability theory of their equilibria (sector conditions
in the lambda^order plane, delay characteristic functions, critical-delay
bounds and crossings) is evaluated numerically.  The Mittag-Leffler
function is the closed-form reference for linear Caputo equations.

``rigidmem.__all__`` is the union of the ``__all__`` lists of the library
modules: errors, fraccalc, integrators, kernels, models and stability.
"""

from .errors import ConfigError, DivergenceError, HistoryCoverageError
from .fraccalc import mittag_leffler
from .integrators import (DIVERGENCE_NORM, FracConfig, HistorySpec,
                          Trajectory, integrate_chain, integrate_dde,
                          integrate_frac_abm, integrate_frac_dde,
                          integrate_rk4, write_trajectory_csv)
from .kernels import (ChainSpec, DelayKernel, DiracKernel, ErlangKernel,
                      ExponentialKernel, UniformKernel, chain_reduce,
                      convolve_history, density, effective_support, laplace)
from .models import (InertiaSetup, RigidBodyParams, casimir,
                     find_equilibria, hamiltonian, jacobian, rhs_classical,
                     rhs_delayed, rhs_ep_delayed, rhs_revised,
                     rhs_revised_delayed)
from .stability import (MARGINAL, STABLE, UNSTABLE, CharQuadratic,
                        StabilityReport, char_ep_eval,
                        char_frac_equilibrium, count_rhp_roots,
                        critical_delay_scan, ep_delayed_check,
                        frac_delay_char_eval, matignon_classify,
                        planar_frac_delay_check, scalar_frac_delay_check,
                        tau_c_formula)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DivergenceError", "HistoryCoverageError",
    "mittag_leffler",
    "DIVERGENCE_NORM", "FracConfig", "HistorySpec", "Trajectory",
    "integrate_chain", "integrate_dde", "integrate_frac_abm",
    "integrate_frac_dde", "integrate_rk4", "write_trajectory_csv",
    "ChainSpec", "DelayKernel", "DiracKernel", "ErlangKernel",
    "ExponentialKernel", "UniformKernel", "chain_reduce",
    "convolve_history", "density", "effective_support", "laplace",
    "InertiaSetup", "RigidBodyParams", "casimir",
    "find_equilibria", "hamiltonian", "jacobian", "rhs_classical",
    "rhs_delayed", "rhs_ep_delayed", "rhs_revised", "rhs_revised_delayed",
    "MARGINAL", "STABLE", "UNSTABLE", "CharQuadratic", "StabilityReport",
    "char_ep_eval", "char_frac_equilibrium", "count_rhp_roots",
    "critical_delay_scan", "ep_delayed_check", "frac_delay_char_eval",
    "matignon_classify",
    "planar_frac_delay_check", "scalar_frac_delay_check", "tau_c_formula",
]
