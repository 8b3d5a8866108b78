"""State types and vector fields for a quadratic-energy rigid body.

Three families of dynamics share the types in this module: the classical
Euler equations generated by an antisymmetric structure tensor and a
quadratic energy, a revised (dissipative) extension built from a metric
tensor that damps the squared-norm invariant while conserving the energy,
and delayed variants in which selected factors are replaced by a weighted
average of the past state.

All right-hand sides are pure functions of immutable inputs, so they can be
handed to any integrator and shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RigidBodyParams",
    "InertiaSetup",
    "hamiltonian",
    "grad_hamiltonian",
    "casimir",
    "poisson_tensor",
    "metric_tensor",
    "rhs_classical",
    "rhs_revised",
    "rhs_delayed",
    "rhs_revised_delayed",
    "rhs_ep_delayed",
    "find_equilibria",
    "linearize_ep_delayed",
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


def hamiltonian(p: RigidBodyParams, x) -> float:
    """Energy h(x) = (a1*x1^2 + a2*x2^2 + a3*x3^2) / 2."""
    x1, x2, x3 = x
    return 0.5 * (p.a1 * x1 * x1 + p.a2 * x2 * x2 + p.a3 * x3 * x3)


def grad_hamiltonian(p: RigidBodyParams, x) -> np.ndarray:
    """Gradient of the energy, (a1*x1, a2*x2, a3*x3)."""
    return np.array([p.a1 * x[0], p.a2 * x[1], p.a3 * x[2]])


def casimir(x) -> float:
    """Squared-norm invariant c(x) = |x|^2 / 2 of the structure tensor."""
    x1, x2, x3 = x
    return 0.5 * (x1 * x1 + x2 * x2 + x3 * x3)


def poisson_tensor(x) -> np.ndarray:
    """Antisymmetric structure tensor P(x); satisfies P(x) @ x = 0."""
    x1, x2, x3 = x
    return np.array([
        [0.0, x3, -x2],
        [-x3, 0.0, x1],
        [x2, -x1, 0.0],
    ])


def metric_tensor(p: RigidBodyParams, x) -> np.ndarray:
    """Dissipative metric g = grad_h grad_h^T - |grad_h|^2 * Id.

    Symmetric and negative semidefinite, with g @ grad_h = 0, so the flow
    it generates leaves the energy level sets invariant.
    """
    grad = grad_hamiltonian(p, x)
    return np.outer(grad, grad) - np.dot(grad, grad) * np.eye(3)


def rhs_classical(p: RigidBodyParams, x) -> np.ndarray:
    """Classical Euler field P(x) grad_h(x), written componentwise."""
    x1, x2, x3 = x
    return np.array([
        (p.a2 - p.a3) * x2 * x3,
        (p.a3 - p.a1) * x1 * x3,
        (p.a1 - p.a2) * x1 * x2,
    ])


def rhs_revised(p: RigidBodyParams, x) -> np.ndarray:
    """Revised field P grad_h + g grad_c, written componentwise.

    Conserves the energy h exactly (g grad_h = 0) while the squared-norm
    invariant c is non-increasing along solutions.
    """
    x1, x2, x3 = x
    a1, a2, a3 = p.a1, p.a2, p.a3
    return np.array([
        (a2 - a3) * x2 * x3 + a2 * (a1 - a2) * x1 * x2 * x2
        + a3 * (a1 - a3) * x1 * x3 * x3,
        (a3 - a1) * x1 * x3 + a3 * (a2 - a3) * x2 * x3 * x3
        + a1 * (a2 - a1) * x2 * x1 * x1,
        (a1 - a2) * x1 * x2 + a1 * (a3 - a1) * x3 * x1 * x1
        + a2 * (a3 - a2) * x3 * x2 * x2,
    ])


def rhs_delayed(p: RigidBodyParams, x, xd) -> np.ndarray:
    """Delayed Euler field; ``xd`` is the kernel-averaged past state.

    When ``xd`` equals ``x`` the classical reduction is returned directly,
    so the identity rhs_delayed(p, x, x) == rhs_classical(p, x) is exact in
    floating point.
    """
    x1, x3 = x[0], x[2]
    xd1, xd2, xd3 = xd
    if xd1 == x1 and xd2 == x[1] and xd3 == x3:
        return rhs_classical(p, x)
    return np.array([
        p.a2 * xd2 * x3 - p.a3 * xd2 * xd3,
        p.a3 * x1 * xd3 - p.a1 * xd1 * x3,
        p.a1 * xd1 * xd2 - p.a2 * x1 * xd2,
    ])


def rhs_revised_delayed(p: RigidBodyParams, x, xd) -> np.ndarray:
    """Revised delayed field, implemented term for term.

    Unlike the plain delayed field this one does not collapse to the
    undelayed revised field at ``xd == x``; the cubic corrections carry a
    different mix of delayed factors by construction.
    """
    x1, x2, x3 = x
    xd1, xd2, xd3 = xd
    a1, a2, a3 = p.a1, p.a2, p.a3
    return np.array([
        a2 * xd2 * x3 - a3 * xd2 * xd3 + a1 * a2 * xd1 * x2 * x2,
        a3 * x1 * xd3 - a1 * xd1 * x3 - a1 * a1 * x1 * xd1 * x2
        - a3 * a3 * x2 * x3 * xd3,
        a1 * xd1 * x2 - a2 * x1 * xd2 + a2 * a3 * xd2 * x2 * x3,
    ])


def _cross(a, b) -> np.ndarray:
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def rhs_ep_delayed(s: InertiaSetup, omega, omegad) -> np.ndarray:
    """Euler-Poincare field with a delayed torque, resolved for omega.

    Computes I^-1 [ (I omega) x omega + coupling * (I omega) x
    ((I omegad) x omegad) ] with I = diag(I1, I2, I3).  The torque is
    orthogonal to the angular momentum M = I omega, so |M| is conserved
    exactly along solutions.
    """
    inertia = np.array([s.I1, s.I2, s.I3])
    m_now = inertia * np.asarray(omega, dtype=float)
    m_del = inertia * np.asarray(omegad, dtype=float)
    torque = _cross(m_now, omega) + s.coupling * _cross(m_now, _cross(m_del, omegad))
    return torque / inertia


def find_equilibria(params, m: float) -> list[np.ndarray]:
    """Coordinate-axis equilibria of the system that ``params`` describes.

    For :class:`RigidBodyParams` these are (m,0,0), (0,m,0), (0,0,m); for
    the Euler-Poincare delayed system (:class:`InertiaSetup`) the angular
    velocities (m/I1,0,0), (0,m/I2,0), (0,0,m/I3).
    """
    if m == 0:
        raise ValueError("equilibrium magnitude m must be nonzero")
    if isinstance(params, RigidBodyParams):
        return [m * np.eye(3)[i] for i in range(3)]
    if isinstance(params, InertiaSetup):
        inertia = (params.I1, params.I2, params.I3)
        return [m / inertia[i] * np.eye(3)[i] for i in range(3)]
    raise TypeError(f"no axis equilibria for {type(params).__name__}")


def linearize_ep_delayed(s: InertiaSetup) -> tuple[np.ndarray, np.ndarray]:
    """Linearization (A, B) of the delayed Euler-Poincare field at omega_1.

    The evolution of a perturbation u is du/dt = A u + coupling * B ud,
    where ud is the kernel-averaged past perturbation.  The first row and
    column vanish: the component along the equilibrium axis is neutral.
    """
    I1, I2, I3, m = s.I1, s.I2, s.I3, s.m
    A = np.zeros((3, 3))
    A[1, 2] = (I3 - I1) * m / (I1 * I2)
    A[2, 1] = (I1 - I2) * m / (I1 * I3)
    B = np.zeros((3, 3))
    B[1, 1] = (I2 - I1) * m * m / (I1 * I2)
    B[2, 2] = (I3 - I1) * m * m / (I1 * I3)
    return A, B
