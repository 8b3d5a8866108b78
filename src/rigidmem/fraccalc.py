"""The Mittag-Leffler function, closed form of linear Caputo equations.

D^order y = lam * y with y(0) = 1 is solved by y(t) = E_order(lam * t^order);
the tests check the fractional Adams-Bashforth-Moulton stepper of
:mod:`rigidmem.integrators` against it.
"""

from __future__ import annotations

import math

__all__ = ["mittag_leffler"]

#: Mittag-Leffler series domain and the switch point to the asymptotic tail
_ML_MAX_ABS = 50.0
_ML_ASYMPTOTIC_BELOW = -5.0
_ML_TERM_RATIO = 1e-16


def _reciprocal_gamma(z: float) -> float:
    """1 / Gamma(z), with the poles at nonpositive integers mapped to 0."""
    if z <= 0 and z == round(z):
        return 0.0
    return 1.0 / math.gamma(z)


def mittag_leffler(order: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_order(z) for real z.

    Series with compensated summation and term-ratio stopping; for
    z < -5 the leading algebraic tail -1 / (z * Gamma(1-order)) is used
    instead, which is accurate only to a few percent near the switch
    point.  Values whose series overflows raise OverflowError.
    """
    if not order > 0:
        raise ValueError("order must be > 0")
    if abs(z) > _ML_MAX_ABS:
        raise OverflowError(f"|z| = {abs(z)} outside the supported domain "
                            f"(<= {_ML_MAX_ABS})")
    if z == 0.0:
        return 1.0
    if z < _ML_ASYMPTOTIC_BELOW:
        return -_reciprocal_gamma(1.0 - order) / z
    log_abs_z = math.log(abs(z))
    total = 0.0
    comp = 0.0
    tiny_streak = 0
    for k in range(100_000):
        log_term = k * log_abs_z - math.lgamma(order * k + 1.0)
        if log_term > 700.0:
            raise OverflowError(
                f"Mittag-Leffler series overflows for order={order}, z={z}")
        term = math.exp(log_term)
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
    return total
