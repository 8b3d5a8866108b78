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
Each public name is listed once, in its own module.
"""

from . import errors, fraccalc, integrators, kernels, models, stability

__version__ = "0.1.0"

__all__ = []
for _module in (errors, fraccalc, integrators, kernels, models, stability):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name))
                     for name in _module.__all__)
del _module
