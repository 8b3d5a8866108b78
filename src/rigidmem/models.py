"""State types and vector fields for a quadratic-energy rigid body.

Three families of dynamics share the types in this module: the classical
Euler equations generated by an antisymmetric structure tensor and a
quadratic energy, a revised (dissipative) extension built from a metric
tensor that damps the squared-norm invariant while conserving the energy,
and delayed variants in which selected factors are replaced by a weighted
average of the past state.

Each field is written once, componentwise, as a closure over its parameter
coefficients: ``classical_field(p)`` and the other ``*_field`` binders
compute the parameter-only products (``a2 - a3``, ``a2 * (a1 - a2)``, ...)
once and return the field, which gives its components as a tuple: floats
on the integrators' float lists, complex numbers on the complex-step lists
of :func:`jacobian`.  A run binds its field once and its loop calls it
directly.  The ``rhs_*(p, x[, xd])`` wrappers bind on every call and return
the components in the kind of container the state came in: a tuple for a
list or tuple of numbers, an array for an ndarray, one state of shape (3,)
or a (3, B) table of B states; the bits are the same in every container.
Fields and wrappers are pure functions of immutable inputs, so they can be
handed to any integrator and shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RigidBodyParams",
    "InertiaSetup",
    "hamiltonian",
    "casimir",
    "classical_field",
    "revised_field",
    "delayed_field",
    "revised_delayed_field",
    "ep_delayed_field",
    "rhs_classical",
    "rhs_revised",
    "rhs_delayed",
    "rhs_revised_delayed",
    "rhs_ep_delayed",
    "find_equilibria",
    "jacobian",
]


@dataclass(frozen=True)
class RigidBodyParams:
    """Quadratic-energy coefficients, strictly ordered a1 > a2 > a3 > 0."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        vals = (self.a1, self.a2, self.a3)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("energy coefficients must be finite")
        if not (self.a1 > self.a2 > self.a3 > 0):
            raise ValueError(f"require a1 > a2 > a3 > 0, got {vals}")

    @classmethod
    def unchecked(cls, a1, a2, a3) -> "RigidBodyParams":
        """Build without the ordering check (degenerate test setups only)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "a1", float(a1))
        object.__setattr__(obj, "a2", float(a2))
        object.__setattr__(obj, "a3", float(a3))
        return obj


@dataclass(frozen=True)
class InertiaSetup:
    """Principal moments I1 > I2 > I3 > 0 plus the delayed-torque data.

    ``coupling`` scales the delayed torque term and ``m`` is the nonzero
    angular-momentum magnitude that selects the axis equilibria.
    """

    I1: float
    I2: float
    I3: float
    coupling: float
    m: float

    def __post_init__(self):
        vals = (self.I1, self.I2, self.I3, self.coupling, self.m)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("inertia parameters must be finite")
        if not (self.I1 > self.I2 > self.I3 > 0):
            raise ValueError(
                f"require I1 > I2 > I3 > 0, got ({self.I1}, {self.I2}, {self.I3})"
            )
        if self.m == 0:
            raise ValueError("equilibrium magnitude m must be nonzero")

    @classmethod
    def unchecked(cls, I1, I2, I3, coupling, m) -> "InertiaSetup":
        """Build without the ordering check (degenerate test setups only)."""
        obj = object.__new__(cls)
        for name, value in zip(("I1", "I2", "I3", "coupling", "m"),
                               (I1, I2, I3, coupling, m)):
            object.__setattr__(obj, name, float(value))
        return obj


def _like(x, comps):
    """``comps`` as an array when the state ``x`` is one, else as a tuple."""
    return np.array(comps) if isinstance(x, np.ndarray) else comps


def hamiltonian(p: RigidBodyParams, x) -> float | np.ndarray:
    """Energy h(x) = (a1*x1^2 + a2*x2^2 + a3*x3^2) / 2.

    ``x`` is one state, giving a scalar, or the (3, M) component-major
    state table, giving the (M,) array of energies.
    """
    x1, x2, x3 = x
    return 0.5 * (p.a1 * x1 * x1 + p.a2 * x2 * x2 + p.a3 * x3 * x3)


def casimir(x) -> float | np.ndarray:
    """Squared-norm invariant c(x) = |x|^2 / 2 of the structure tensor.

    ``x`` is one state, giving a scalar, or the (3, M) component-major
    state table, giving the (M,) array of values.
    """
    x1, x2, x3 = x
    return 0.5 * (x1 * x1 + x2 * x2 + x3 * x3)


def classical_field(p: RigidBodyParams):
    """Classical Euler field P(x) grad_h(x), bound to ``p``: x -> dx/dt.

    P(x) is the antisymmetric structure tensor, with P(x) x = 0.
    """
    c1, c2, c3 = p.a2 - p.a3, p.a3 - p.a1, p.a1 - p.a2

    def field(x):
        x1, x2, x3 = x
        return (c1 * x2 * x3, c2 * x1 * x3, c3 * x1 * x2)

    return field


def revised_field(p: RigidBodyParams):
    """Revised field P grad_h + g grad_c, bound to ``p``: x -> dx/dt.

    With the metric g = grad_h grad_h^T - |grad_h|^2 Id it conserves the
    energy h exactly (g grad_h = 0) while the squared-norm invariant c is
    non-increasing along solutions.
    """
    a1, a2, a3 = p.a1, p.a2, p.a3
    c1, c2, c3 = a2 - a3, a3 - a1, a1 - a2
    k12, k13 = a2 * (a1 - a2), a3 * (a1 - a3)
    k23, k21 = a3 * (a2 - a3), a1 * (a2 - a1)
    k31, k32 = a1 * (a3 - a1), a2 * (a3 - a2)

    def field(x):
        x1, x2, x3 = x
        return (c1 * x2 * x3 + k12 * x1 * x2 * x2 + k13 * x1 * x3 * x3,
                c2 * x1 * x3 + k23 * x2 * x3 * x3 + k21 * x2 * x1 * x1,
                c3 * x1 * x2 + k31 * x3 * x1 * x1 + k32 * x3 * x2 * x2)

    return field


def delayed_field(p: RigidBodyParams):
    """Delayed Euler field, bound to ``p``: (x, xd) -> dx/dt, where ``xd``
    is the kernel-averaged past state.

    When ``xd`` equals ``x`` the classical field is returned directly, so
    the identity delayed(x, x) == classical(x) is exact in floating point.
    """
    a1, a2, a3 = p.a1, p.a2, p.a3
    classical = classical_field(p)

    def field(x, xd):
        x1, x2, x3 = x
        xd1, xd2, xd3 = xd
        if xd1 == x1 and xd2 == x2 and xd3 == x3:
            return classical(x)
        return (a2 * xd2 * x3 - a3 * xd2 * xd3,
                a3 * x1 * xd3 - a1 * xd1 * x3,
                a1 * xd1 * xd2 - a2 * x1 * xd2)

    return field


def revised_delayed_field(p: RigidBodyParams):
    """Revised delayed field, bound to ``p``: (x, xd) -> dx/dt, term for
    term.

    Unlike the plain delayed field this one does not collapse to the
    undelayed revised field at ``xd == x``; the cubic corrections carry a
    different mix of delayed factors by construction.
    """
    a1, a2, a3 = p.a1, p.a2, p.a3
    a11, a12, a23, a33 = a1 * a1, a1 * a2, a2 * a3, a3 * a3

    def field(x, xd):
        x1, x2, x3 = x
        xd1, xd2, xd3 = xd
        return (a2 * xd2 * x3 - a3 * xd2 * xd3 + a12 * xd1 * x2 * x2,
                a3 * x1 * xd3 - a1 * xd1 * x3 - a11 * x1 * xd1 * x2
                - a33 * x2 * x3 * xd3,
                a1 * xd1 * x2 - a2 * x1 * xd2 + a23 * xd2 * x2 * x3)

    return field


def ep_delayed_field(s: InertiaSetup):
    """Euler-Poincare field with a delayed torque, resolved for omega and
    bound to ``s``: (omega, omegad) -> domega/dt.

    Computes I^-1 [ (I omega) x omega + coupling * (I omega) x
    ((I omegad) x omegad) ] with I = diag(I1, I2, I3).  The torque is
    orthogonal to the angular momentum M = I omega, so |M| is conserved
    exactly along solutions.
    """
    I1, I2, I3, k = s.I1, s.I2, s.I3, s.coupling

    def field(omega, omegad):
        w1, w2, w3 = omega
        v1, v2, v3 = omegad
        m1, m2, m3 = I1 * w1, I2 * w2, I3 * w3
        d1, d2, d3 = I1 * v1, I2 * v2, I3 * v3
        e1, e2, e3 = d2 * v3 - d3 * v2, d3 * v1 - d1 * v3, d1 * v2 - d2 * v1
        return ((m2 * w3 - m3 * w2 + k * (m2 * e3 - m3 * e2)) / I1,
                (m3 * w1 - m1 * w3 + k * (m3 * e1 - m1 * e3)) / I2,
                (m1 * w2 - m2 * w1 + k * (m1 * e2 - m2 * e1)) / I3)

    return field


def rhs_classical(p: RigidBodyParams, x) -> tuple | np.ndarray:
    """:func:`classical_field` of ``p`` at ``x``, in the container of ``x``."""
    return _like(x, classical_field(p)(x))


def rhs_revised(p: RigidBodyParams, x) -> tuple | np.ndarray:
    """:func:`revised_field` of ``p`` at ``x``, in the container of ``x``."""
    return _like(x, revised_field(p)(x))


def rhs_delayed(p: RigidBodyParams, x, xd) -> tuple | np.ndarray:
    """:func:`delayed_field` of ``p`` at ``(x, xd)``, in the container of
    ``x``; a (3, B) table takes the ``xd == x`` reduction column by column.
    """
    field = delayed_field(p)
    if isinstance(x, np.ndarray) and x.ndim == 2:
        cols = [field(*col) for col in zip(x.T, xd.T)]
        return np.array(cols).reshape(-1, 3).T
    return _like(x, field(x, xd))


def rhs_revised_delayed(p: RigidBodyParams, x, xd) -> tuple | np.ndarray:
    """:func:`revised_delayed_field` of ``p`` at ``(x, xd)``, in the
    container of ``x``."""
    return _like(x, revised_delayed_field(p)(x, xd))


def rhs_ep_delayed(s: InertiaSetup, omega, omegad) -> tuple | np.ndarray:
    """:func:`ep_delayed_field` of ``s`` at ``(omega, omegad)``, in the
    container of ``omega``."""
    return _like(omega, ep_delayed_field(s)(omega, omegad))


def find_equilibria(params, m: float) -> list[np.ndarray]:
    """Coordinate-axis equilibria of the system that ``params`` describes.

    For :class:`RigidBodyParams` these are (m,0,0), (0,m,0), (0,0,m); for
    the Euler-Poincare delayed system (:class:`InertiaSetup`) the angular
    velocities (m/I1,0,0), (0,m/I2,0), (0,0,m/I3).
    """
    if m == 0:
        raise ValueError("equilibrium magnitude m must be nonzero")
    if isinstance(params, RigidBodyParams):
        return list(m * np.eye(3))
    if isinstance(params, InertiaSetup):
        inertia = np.array([params.I1, params.I2, params.I3])
        return list((m / inertia)[:, None] * np.eye(3))
    raise TypeError(f"no axis equilibria for {type(params).__name__}")


def jacobian(f, x) -> np.ndarray:
    """Jacobian of the field ``f`` at the real point ``x``: column j is
    Im f(x + i e_j), the complex step (Squire & Trapp, SIAM Review 40(1),
    1998).  The unit step is exact to rounding for a field at most
    quadratic in each component, as every field here is, and cannot
    underflow a small derivative to zero as a tiny step can.  ``f`` gets
    a list of Python numbers, so its arithmetic stays scalar.
    """
    x = [float(v) for v in x]
    return np.imag([f(x[:j] + [x[j] + 1j] + x[j + 1:])
                    for j in range(len(x))]).T
