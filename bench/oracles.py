"""Reference mathematics the benchmark checks the program against.

Nothing here imports ``rigidmem``: every verdict and reference value is
derived again from the paper's definitions, so a defect in the program
cannot hide in its own check.

* rigid-body fields from their structural form (grad h x x, metric term,
  Euler-Poincare torque), with Jacobians by central differences;
* the fractional sector test on the roots of a quadratic (``numpy.roots``);
* closed-form verdicts for the scalar (eq. 18) and planar (eq. 19)
  fractional-delay benchmarks;
* a pseudospectral (Chebyshev collocation) discretisation of the linear
  DDE generator for the delayed Euler-Poincare equilibrium (Breda, Maset
  & Vermiglio, SIAM J. Sci. Comput. 27(2), 2005), and the exact set of
  imaginary-axis crossing delays of its characteristic bracket;
* a plain RK4 reference for ordinary and chain-augmented systems, and the
  Adams-Bashforth-Moulton PECE reference of Diethelm, Ford & Freed
  (Nonlinear Dyn. 29, 2002) for Caputo systems.
"""

from __future__ import annotations

import math

import numpy as np

STABLE = "asymptotically-stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"

#: sector margins within this distance of zero are classed as marginal
SECTOR_EPS = 1e-9


# --- vector fields -------------------------------------------------------

def field_classical(a, x):
    """Euler field P(x) grad h = grad h x x with h = sum(a_i x_i^2) / 2."""
    return np.cross(a * x, x)


def field_revised(a, x):
    """Classical field plus the metric term (grad h grad h^T - |grad h|^2) x."""
    g = a * x
    return np.cross(g, x) + g * np.dot(g, x) - np.dot(g, g) * x


def field_delayed(a, x, xd):
    """Delayed Euler field: grad h at the past state crossed with
    (x1, xd2, x3); at xd = x it is the classical field."""
    return np.cross(a * xd, np.array([x[0], xd[1], x[2]]))


def field_ep(inertia, coupling, w, wd):
    """I^-1 [(I w) x w + coupling (I w) x ((I wd) x wd)]."""
    mom = inertia * w
    torque = np.cross(mom, w) + coupling * np.cross(
        mom, np.cross(inertia * wd, wd))
    return torque / inertia


def jacobian(fun, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        cols.append((fun(x + dx) - fun(x - dx)) / (2 * eps))
    return np.array(cols).T


# --- fractional sector test ------------------------------------------------

def sector_verdict(roots, order: float) -> tuple[str, float]:
    """Verdict and worst margin |arg w| - order*pi/2 over the roots."""
    half = order * math.pi / 2
    margins = [(abs(np.angle(w)) if w != 0 else 0.0) - half for w in roots]
    worst = min(margins)
    if worst > SECTOR_EPS:
        return STABLE, worst
    if worst < -SECTOR_EPS:
        return UNSTABLE, worst
    return MARGINAL, worst


def axis_quadratic(a, equilibrium: str, m: float, revised: bool):
    """Coefficients (1, c1, c0) of det(w I - J) / w at m * e_axis.

    J is the Jacobian of the (revised) rigid-body field; the axis direction
    is neutral, so one factor w is divided out.
    """
    a = np.asarray(a, dtype=float)
    axis = {"M1": 0, "M2": 1, "M3": 2}[equilibrium]
    x = np.zeros(3)
    x[axis] = m
    field = field_revised if revised else field_classical
    cubic = np.poly(jacobian(lambda y: field(a, y), x))
    scale = max(1.0, float(np.max(np.abs(cubic))))
    if abs(cubic[3]) > 1e-7 * scale:
        raise ValueError("axis equilibrium lost its neutral direction")
    return cubic[:3].real


# --- scalar and planar fractional-delay benchmarks ---------------------------

def scalar_verdict(a: float, order: float, tau: float) -> tuple[str, float]:
    """D^order x = a x(t - tau): verdict and relative distance to the boundary.

    a > 0 gives the real root a^(1/order). For a < 0 the only crossing
    frequency is |a|^(1/order); roots first reach the imaginary axis at
    tau* = (1 - order/2) pi / |a|^(1/order), and every later crossing has
    the same direction, so the equation is stable exactly for tau < tau*.
    """
    if a > 0:
        return UNSTABLE, math.inf
    tau_star = (1 - order / 2) * math.pi / (-a) ** (1 / order)
    if tau == 0:
        return STABLE, math.inf
    gap = abs(tau - tau_star) / tau_star
    return (STABLE if tau < tau_star else UNSTABLE), gap


def planar_verdict(k1: float, k2: float) -> tuple[str, float]:
    """det = (w + k1)(w + k1 + k2) - exp(-lambda tau), w = lambda^order.

    On Re lambda >= 0 the product has modulus >= k1 (k1 + k2) while the
    exponential has modulus <= 1, and for k1 (k1 + k2) < 1 the real axis
    carries a root; the verdict is delay- and order-independent.
    """
    prod = k1 * (k1 + k2)
    return (STABLE if prod > 1 else UNSTABLE), abs(prod - 1)


# --- delayed Euler-Poincare equilibrium -------------------------------------

def ep_linearization(inertia, coupling: float, m: float):
    """Reduced (A0, A1) of u' = A0 u + A1 u(t - tau) at w* = (m / I1, 0, 0).

    The axis component is neutral (zero first row and column) and dropped.
    """
    inertia = np.asarray(inertia, dtype=float)
    w_eq = np.array([m / inertia[0], 0.0, 0.0])
    a0 = jacobian(lambda w: field_ep(inertia, coupling, w, w_eq), w_eq)
    a1 = jacobian(lambda w: field_ep(inertia, coupling, w_eq, w), w_eq)
    for mat in (a0, a1):
        if np.max(np.abs(mat[0])) + np.max(np.abs(mat[:, 0])) > 1e-6 * (
                1 + np.max(np.abs(mat))):
            raise ValueError("axis direction is not neutral")
    return a0[1:, 1:], a1[1:, 1:]


def _cheb(n: int):
    """Trefethen's Chebyshev differentiation matrix on nodes cos(j pi / n)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d


def dde_rightmost(a0, a1, tau: float, nodes: int = 48) -> float:
    """Largest real part among the characteristic roots of u' = A0 u + A1 u(t-tau).

    Pseudospectral collocation of the solution operator's generator on
    [-tau, 0]; the rightmost eigenvalues converge spectrally in ``nodes``.
    """
    d = a0.shape[0]
    if tau == 0:
        return float(np.max(np.linalg.eigvals(a0 + a1).real))
    diff = _cheb(nodes) * (2.0 / tau)
    gen = np.kron(diff, np.eye(d))
    gen[:d, :] = 0.0
    gen[:d, :d] = a0
    gen[:d, -d:] = a1
    return float(np.max(np.linalg.eigvals(gen).real))


def ep_verdict(a0, a1, tau: float) -> tuple[str, float]:
    """Verdict from the rightmost root; the second value is its real part."""
    top = dde_rightmost(a0, a1, tau)
    if abs(top) < 1e-7:
        return MARGINAL, top
    return (UNSTABLE if top > 0 else STABLE), top


def ep_crossings(a0, a1) -> list[tuple[float, float]]:
    """Every (tau, omega) with tau in [0, 2 pi / omega) that puts a root on
    i*omega, sorted by tau.

    With z = exp(-i omega tau) the bracket det(i omega - A0 - z A1) is a
    quadratic in z; |z| = 1 forces omega onto the real roots of the
    resultant of that quadratic and its unit-circle reflection, which
    factors into closed form.
    """
    q1 = np.trace(a1)
    q2 = np.linalg.det(a1)
    q0 = -np.linalg.det(a0)
    # the bracket is lambda^2 - q1 lambda z + q2 z^2 - q0 only when A0 has
    # a zero diagonal and A1 is diagonal, as at the axis equilibrium
    if np.max(np.abs(np.diag(a0))) + abs(a1[0, 1]) + abs(a1[1, 0]) > 1e-9 * (
            1 + np.max(np.abs(a0)) + np.max(np.abs(a1))):
        raise ValueError("unexpected linearization structure")
    omegas = []
    if q2 - q0 > 0:
        omegas.append(math.sqrt(q2 - q0))
    disc = q1 * q1 - 4 * (q2 + q0)
    if disc >= 0:
        for sign in (1.0, -1.0):
            for root in (sign * q1 + math.sqrt(disc)) / 2, \
                        (sign * q1 - math.sqrt(disc)) / 2:
                if root > 0:
                    omegas.append(root)
    found = []
    for omega in omegas:
        for z in np.roots([q2, -1j * q1 * omega, -(omega * omega + q0)]):
            if abs(abs(z) - 1) < 1e-8:
                found.append(((-np.angle(z)) % (2 * math.pi) / omega, omega))
    return sorted(found)


def ep_crossing_delays(a0, a1) -> list[float]:
    """The delays of :func:`ep_crossings`, smallest first."""
    return [tau for tau, _ in ep_crossings(a0, a1)]


# --- ordinary reference integration -----------------------------------------

def rk4(fun, x0, h: float, n: int) -> np.ndarray:
    """States at t = k h, k = 0..n, by classical RK4."""
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((n + 1, x.size))
    out[0] = x
    for k in range(n):
        k1 = fun(x)
        k2 = fun(x + 0.5 * h * k1)
        k3 = fun(x + 0.5 * h * k2)
        k4 = fun(x + h * k3)
        x = x + h / 6 * (k1 + 2 * (k2 + k3) + k4)
        out[k + 1] = x
    return out


def abm(fun, x0, order: float, h: float, n: int) -> np.ndarray:
    """States at t = k h, k = 0..n, of D^order x = fun(x), x(0) = x0.

    Product-rectangle predictor and one product-trapezoid corrector
    (PECE) with full memory, written from the published weights.
    """
    x0 = np.asarray(x0, dtype=float)
    xs = np.empty((n + 1, x0.size))
    fs = np.empty_like(xs)
    xs[0] = x0
    fs[0] = fun(x0)
    c_pred = h ** order / math.gamma(order + 1)
    c_corr = h ** order / math.gamma(order + 2)
    a1 = order + 1
    for k in range(n):
        j = np.arange(k + 1, dtype=float)
        b = (k + 1 - j) ** order - (k - j) ** order
        pred = x0 + c_pred * (b @ fs[:k + 1])
        a = (k - j + 2) ** a1 + (k - j) ** a1 - 2 * (k - j + 1) ** a1
        a[0] = k ** a1 - (k - order) * (k + 1) ** order
        xs[k + 1] = x0 + c_corr * (fun(pred) + a @ fs[:k + 1])
        fs[k + 1] = fun(xs[k + 1])
    return xs
