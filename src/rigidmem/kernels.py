"""Delay kernels: densities, Laplace transforms, and history convolution.

Three kinds of weighting density for the past state are supported: uniform
on a shifted window, gamma of shape 1 or 2 (the weak, or exponential, and
the strong, or Erlang, kernel; MacDonald, Time Lags in Biological Models,
1978), and Dirac (a sharp lag).  A gamma kernel is its own ODE chain of
``shape`` stages relaxing at ``rate``.  The Dirac kernel is always handled
exactly as a sample extraction, never as a narrow bump, so its transform
exp(-lag*lambda) holds to machine precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "UniformKernel",
    "GammaKernel",
    "DiracKernel",
    "DelayKernel",
    "density",
    "laplace",
    "convolve_history",
    "effective_support",
]

#: kernel mass allowed beyond the truncated quadrature support
_TAIL_MASS = 1e-12

#: |width * lambda| below which the uniform transform switches to a series
_SERIES_CUTOFF = 1e-4

#: most quadrature nodes that convolve_history evaluates at once
_QUAD_PIECE = 1 << 15


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
class GammaKernel:
    """Gamma density rate^shape * s^(shape-1) * exp(-rate * s) on [0, inf),
    shape 1 (exponential) or 2 (Erlang): the exact ODE chain of ``shape``
    stages at ``rate``."""

    rate: float
    shape: int

    def __post_init__(self):
        if not (isinstance(self.shape, int) and self.shape in (1, 2)):
            raise ValueError("gamma kernel shape must be the int 1 or 2")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            name = "exponential" if self.shape == 1 else "Erlang"
            raise ValueError(f"{name} kernel rate must be > 0")


@dataclass(frozen=True)
class DiracKernel:
    """Point mass at s = lag; lag = 0 degenerates to no delay."""

    lag: float

    def __post_init__(self):
        if not (self.lag >= 0 and math.isfinite(self.lag)):
            raise ValueError("Dirac kernel lag must be >= 0")


DelayKernel = Union[UniformKernel, GammaKernel, DiracKernel]


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
    elif isinstance(kernel, GammaKernel):
        u = kernel.rate * arr  # rate * u exp(-u) stays finite at any rate
        out = kernel.rate * (np.exp(-u) if kernel.shape == 1
                             else u * np.exp(-u))
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
    result is a complex array of its shape).  For a gamma kernel the
    transform is (rate/(rate + lambda))^shape, and the integral only
    converges for Re(lambda) > -rate; a ValueError is raised if any lambda
    lies outside that half-plane.  The uniform transform switches to a
    4-term series near lambda = 0 to avoid cancellation.
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
    elif isinstance(kernel, GammaKernel):
        if np.any(lam.real <= -kernel.rate):
            raise ValueError(
                f"transform diverges for Re(lambda) <= -rate = {-kernel.rate}")
        out = (kernel.rate / (kernel.rate + lam)) ** kernel.shape
    else:
        raise TypeError(f"unknown kernel type {type(kernel).__name__}")
    return complex(out[0]) if scalar else out


def effective_support(kernel: DelayKernel) -> tuple[float, float]:
    """Quadrature interval [lo, hi] carrying all but _TAIL_MASS of the kernel."""
    if isinstance(kernel, UniformKernel):
        return kernel.offset, kernel.offset + kernel.width
    if isinstance(kernel, DiracKernel):
        return kernel.lag, kernel.lag
    if isinstance(kernel, GammaKernel):
        # tail mass exp(-u), or (1 + u) exp(-u) at shape 2, = _TAIL_MASS;
        # the latter a fixed point in u = rate * s
        u = log_tail = -math.log(_TAIL_MASS)
        if kernel.shape == 2:
            for _ in range(8):
                u = log_tail + math.log1p(u)
        return 0.0, u / kernel.rate
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def _eval_history(history, times: np.ndarray) -> np.ndarray:
    """Evaluate a dense history at an array of times, as a C-contiguous
    (m, dim) array: a broadcast (stride-0) table would take numpy's
    non-BLAS product in the quadrature and round differently."""
    if hasattr(history, "eval_many"):
        return np.ascontiguousarray(history.eval_many(times), dtype=float)
    return np.stack([np.atleast_1d(np.asarray(history(t), dtype=float))
                     for t in times])


def simpson_pieces(lo: float, hi: float, step: float, size: int):
    """Composite Simpson nodes on [lo, hi], step at most ``step`` and an
    even number n (>= 2) of intervals, and their weights, in consecutive
    pieces of at most ``size`` nodes.  Node j is j (hi - lo)/n + lo, as
    ``np.linspace`` places it, and node n is hi."""
    n = max(2, int(math.ceil((hi - lo) / step)))
    n += n % 2
    width = (hi - lo) / n
    for first in range(0, n + 1, size):
        j = np.arange(first, min(first + size, n + 1))
        s = j * width + lo
        weights = np.where(j % 2, 4.0, 2.0)
        if first == 0:
            weights[0] = 1.0
        if j[-1] == n:
            s[-1], weights[-1] = hi, 1.0
        weights *= width / 3.0
        yield s, weights


def simpson_rule(lo: float, hi: float, step: float):
    """:func:`simpson_pieces` as one piece: all nodes and weights."""
    [(s, weights)] = simpson_pieces(lo, hi, step, sys.maxsize)
    return s, weights


def convolve_history(kernel: DelayKernel, history, t: float,
                     quad_step: float) -> np.ndarray:
    """Kernel-weighted past average integral of k(s) x(t - s) ds.

    ``history`` must be dense-evaluable at every time the kernel support
    reaches: either a callable of one time argument or an object exposing
    ``eval_many``.  Composite Simpson quadrature with step ``quad_step`` is
    used on the effective support, summed over pieces of _QUAD_PIECE nodes
    (one piece, one dot product, when they fit), so that a long support
    does not scale the memory; the Dirac kernel samples exactly.
    """
    if isinstance(kernel, DiracKernel):
        return _eval_history(history, np.array([t - kernel.lag]))[0]
    if not (quad_step > 0):
        raise ValueError("quad_step must be > 0")
    total = None
    for s, weights in simpson_pieces(*effective_support(kernel), quad_step,
                                     _QUAD_PIECE):
        part = (weights * density(kernel, s)) @ _eval_history(history, t - s)
        total = part if total is None else total + part
    return total
