"""Delay kernels: densities, Laplace transforms, and history convolution.

Four weighting densities for the past state are supported: uniform on a
shifted window, exponential, Erlang (stage-2 gamma), and Dirac (a sharp
lag).  The Dirac kernel is always handled exactly as a sample extraction,
never as a narrow bump, so its transform exp(-lag*lambda) holds to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "UniformKernel",
    "ExponentialKernel",
    "ErlangKernel",
    "DiracKernel",
    "DelayKernel",
    "ChainSpec",
    "density",
    "laplace",
    "chain_reduce",
    "convolve_history",
    "effective_support",
]

#: kernel mass allowed beyond the truncated quadrature support
_TAIL_MASS = 1e-12

#: |width * lambda| below which the uniform transform switches to a series
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class UniformKernel:
    """Constant density 1/width on [offset, offset + width]."""

    offset: float
    width: float

    def __post_init__(self):
        if not (self.offset >= 0 and math.isfinite(self.offset)):
            raise ValueError("uniform kernel offset must be >= 0")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError("uniform kernel width must be > 0")


@dataclass(frozen=True)
class ExponentialKernel:
    """Density rate * exp(-rate * s) on [0, inf)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("exponential kernel rate must be > 0")


@dataclass(frozen=True)
class ErlangKernel:
    """Stage-2 gamma density rate^2 * s * exp(-rate * s) on [0, inf)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("Erlang kernel rate must be > 0")


@dataclass(frozen=True)
class DiracKernel:
    """Point mass at s = lag; lag = 0 degenerates to no delay."""

    lag: float

    def __post_init__(self):
        if not (self.lag >= 0 and math.isfinite(self.lag)):
            raise ValueError("Dirac kernel lag must be >= 0")


DelayKernel = Union[UniformKernel, ExponentialKernel, ErlangKernel, DiracKernel]


@dataclass(frozen=True)
class ChainSpec:
    """Auxiliary-stage count and rate for the exact ODE chain reduction."""

    stages: int
    rate: float

    def __post_init__(self):
        if self.stages not in (1, 2):
            raise ValueError("chain reduction supports 1 or 2 stages")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("chain rate must be > 0")


def density(kernel: DelayKernel, s):
    """Pointwise density k(s) for s >= 0; vectorized over ``s``.

    The Dirac kernel has no pointwise value and rejects evaluation; use
    :func:`laplace` or :func:`convolve_history` instead.
    """
    if isinstance(kernel, DiracKernel):
        raise ValueError("Dirac kernel has no pointwise density; "
                         "use laplace() or convolve_history()")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("density is defined for s >= 0")
    if isinstance(kernel, UniformKernel):
        lo, hi = kernel.offset, kernel.offset + kernel.width
        out = np.where((arr >= lo) & (arr <= hi), 1.0 / kernel.width, 0.0)
    elif isinstance(kernel, ExponentialKernel):
        out = kernel.rate * np.exp(-kernel.rate * arr)
    elif isinstance(kernel, ErlangKernel):
        u = kernel.rate * arr  # rate * u exp(-u) stays finite at any rate
        out = kernel.rate * (u * np.exp(-u))
    else:
        raise TypeError(f"unknown kernel type {type(kernel).__name__}")
    return out if out.ndim else float(out)


def _lambda_array(lam):
    """``lam`` as an at least 1-d complex array, and whether it was a
    scalar; a scalar takes the array path, so it gets an element's bits."""
    arr = np.asarray(lam, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


def laplace(kernel: DelayKernel, lam):
    """Transform k1(lambda) = integral of k(s) exp(-lambda s) over [0, inf).

    ``lam`` is a scalar (the result is a Python complex) or an array (the
    result is a complex array of its shape).  For the exponential and
    Erlang kernels the integral only converges for Re(lambda) > -rate; a
    ValueError is raised if any lambda lies outside that half-plane.  The
    uniform transform switches to a 4-term series near lambda = 0 to avoid
    cancellation.
    """
    lam, scalar = _lambda_array(lam)
    if isinstance(kernel, DiracKernel):
        out = np.exp(-kernel.lag * lam)
    elif isinstance(kernel, UniformKernel):
        z = kernel.width * lam
        small = np.abs(z) < _SERIES_CUTOFF
        series = 1.0 - z / 2.0 + z * z / 6.0 - z * z * z / 24.0
        z = np.where(small, 1.0, z)
        base = np.where(small, series, (1.0 - np.exp(-z)) / z)
        out = np.exp(-kernel.offset * lam) * base
    elif isinstance(kernel, (ExponentialKernel, ErlangKernel)):
        if np.any(lam.real <= -kernel.rate):
            raise ValueError(
                f"transform diverges for Re(lambda) <= -rate = {-kernel.rate}")
        if isinstance(kernel, ExponentialKernel):
            out = kernel.rate / (kernel.rate + lam)
        else:
            out = (kernel.rate / (kernel.rate + lam)) ** 2
    else:
        raise TypeError(f"unknown kernel type {type(kernel).__name__}")
    return complex(out[0]) if scalar else out


def chain_reduce(kernel: DelayKernel) -> ChainSpec | None:
    """ODE chain equivalent of the kernel, or None when no finite chain exists."""
    if isinstance(kernel, ExponentialKernel):
        return ChainSpec(1, kernel.rate)
    if isinstance(kernel, ErlangKernel):
        return ChainSpec(2, kernel.rate)
    return None


def effective_support(kernel: DelayKernel) -> tuple[float, float]:
    """Quadrature interval [lo, hi] carrying all but _TAIL_MASS of the kernel."""
    if isinstance(kernel, UniformKernel):
        return kernel.offset, kernel.offset + kernel.width
    if isinstance(kernel, DiracKernel):
        return kernel.lag, kernel.lag
    log_tail = -math.log(_TAIL_MASS)
    if isinstance(kernel, ExponentialKernel):
        return 0.0, log_tail / kernel.rate
    if isinstance(kernel, ErlangKernel):
        # tail mass (1 + u) exp(-u) = _TAIL_MASS, fixed point in u = rate * s
        u = log_tail
        for _ in range(8):
            u = log_tail + math.log1p(u)
        return 0.0, u / kernel.rate
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def _eval_history(history, times: np.ndarray) -> np.ndarray:
    """Evaluate a dense history at an array of times, as an (m, dim) array."""
    if hasattr(history, "eval_many"):
        return np.asarray(history.eval_many(times), dtype=float)
    return np.stack([np.atleast_1d(np.asarray(history(t), dtype=float))
                     for t in times])


def simpson_rule(lo: float, hi: float, step: float):
    """Composite Simpson nodes on [lo, hi], step at most ``step`` and an
    even number (>= 2) of intervals, and their weights."""
    n = max(2, int(math.ceil((hi - lo) / step)))
    if n % 2:
        n += 1
    s = np.linspace(lo, hi, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (hi - lo) / n / 3.0
    return s, weights


def quadrature_rule(kernel: DelayKernel, quad_step: float):
    """Composite Simpson nodes ``s``, step at most ``quad_step``, on the
    effective support, and weights ``wd`` with the density folded in: the
    kernel average of a history x is ``wd @ x(t - s)``."""
    if not (quad_step > 0):
        raise ValueError("quad_step must be > 0")
    s, weights = simpson_rule(*effective_support(kernel), quad_step)
    return s, weights * density(kernel, s)


def convolve_history(kernel: DelayKernel, history, t: float,
                     quad_step: float) -> np.ndarray:
    """Kernel-weighted past average integral of k(s) x(t - s) ds.

    ``history`` must be dense-evaluable at every time the kernel support
    reaches: either a callable of one time argument or an object exposing
    ``eval_many``.  Composite Simpson quadrature with step ``quad_step`` is
    used on the effective support; the Dirac kernel samples exactly.
    """
    if isinstance(kernel, DiracKernel):
        return _eval_history(history, np.array([t - kernel.lag]))[0]
    s, wd = quadrature_rule(kernel, quad_step)
    return wd @ _eval_history(history, t - s)
