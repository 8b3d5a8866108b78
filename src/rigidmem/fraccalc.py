"""The Mittag-Leffler function, closed form of linear Caputo equations.

D^order y = lam * y with y(0) = 1 is solved by y(t) = E_order(lam * t^order);
the tests check the fractional Adams-Bashforth-Moulton stepper of
:mod:`rigidmem.integrators` against it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mittag_leffler"]

#: Mittag-Leffler series domain, and the point below which an order in
#: (0, 1) is evaluated on the Hankel contour instead
_ML_MAX_ABS = 50.0
_ML_CONTOUR_BELOW = -1.0
_ML_TERM_RATIO = 1e-16
#: the largest term of a series over its sum: beyond it more than half of
#: the digits cancel
_ML_MAX_CANCELLATION = 1e8
#: nodes of the parabolic Hankel contour
_ML_CONTOUR_NODES = 32


def _contour_value(order: float, z: float) -> float:
    """E_order(z) for order in (0, 1) and z < 0 as the inverse Laplace
    transform of s^(order-1) / (s^order - z) at t = 1.

    The integral (1/2 pi i) of e^s s^(order-1) / (s^order - z) over the
    parabola s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta), by the
    midpoint rule at N = 32 nodes of [-pi, pi] (Weideman & Trefethen,
    Math. Comp. 76, 2007; Garrappa, SIAM J. Numer. Anal. 53(3), 2015).  For
    z < 0 and order < 1, s^order = z has no root on the principal sheet, so
    the integrand's only singularity is the cut along the negative axis,
    which the parabola leaves on its left.  The error is about 1e-16 of
    the integral's scale, so relative to E it grows as E falls: below
    4e-13 for order <= 0.95 and z >= -1000.
    """
    n = _ML_CONTOUR_NODES
    theta = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    s = n * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    ds = n * (-0.2388 * theta + 0.25j)
    power = s**order
    # the sum divided by 2 pi i, times the node spacing 2 pi / n
    return float((np.exp(s) * power / s / (power - z) * ds).sum().imag / n)


def mittag_leffler(order: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_order(z) for real z.

    An order in (0, 1) at z < -1 is evaluated on the Hankel contour of
    :func:`_contour_value`, to about 1e-13 relative for order <= 0.95, at
    any z < -1; order 1 is ``math.exp``.  Every other value is the series
    with compensated summation and term-ratio stopping, for |z| <= 50:
    values whose series overflows raise OverflowError, and a series whose
    largest term exceeds its sum by more than 1e8 (more than half of the
    digits cancel, as for an order above 1 at large negative z) raises
    ArithmeticError.
    """
    if not order > 0:
        raise ValueError("order must be > 0")
    if order == 1.0:
        return math.exp(z)
    if z < _ML_CONTOUR_BELOW and order < 1.0:
        return _contour_value(order, z)
    if abs(z) > _ML_MAX_ABS:
        raise OverflowError(f"|z| = {abs(z)} outside the supported domain "
                            f"(<= {_ML_MAX_ABS})")
    if z == 0.0:
        return 1.0
    log_abs_z = math.log(abs(z))
    total = 0.0
    comp = 0.0
    largest = 0.0
    tiny_streak = 0
    for k in range(100_000):
        log_term = k * log_abs_z - math.lgamma(order * k + 1.0)
        if log_term > 700.0:
            raise OverflowError(
                f"Mittag-Leffler series overflows for order={order}, z={z}")
        term = math.exp(log_term)
        largest = max(largest, term)
        if z < 0 and k % 2:
            term = -term
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= _ML_TERM_RATIO * max(abs(total), 1.0):
            tiny_streak += 1
            if tiny_streak >= 2:
                break
        else:
            tiny_streak = 0
    if largest > _ML_MAX_CANCELLATION * abs(total):
        raise ArithmeticError(
            f"Mittag-Leffler series cancels for order={order}, z={z}: its "
            f"largest term is {largest:.3g}, its sum {total:.3g}")
    return total
