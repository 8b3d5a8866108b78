"""State types and vector fields for a quadratic-energy rigid body.

Three families of dynamics share the types in this module: the classical
Euler equations generated by an antisymmetric structure tensor and a
quadratic energy, a revised (dissipative) extension built from a metric
tensor that damps the squared-norm invariant while conserving the energy,
and delayed variants in which selected factors are replaced by a weighted
average of the past state.

Each field is written once, as a :class:`FieldDescription`: its
components as source lines over the names ``x1 .. x3`` (and ``xd1 ..
xd3``), in a fixed order of operations, and the bind-time lines that
compute its parameter-only products (``a2 - a3``, ``a2 * (a1 - a2)``,
...).  ``classical_field(p)`` and the other ``*_field`` binders return the
closure generated from that description (compiled on first use and kept
per description), with the products as its cells; it gives its components
as a tuple: floats on the integrators' float lists, complex numbers on the
complex-step lists of :func:`jacobian`.  The closure carries its
description and arguments (``field.binding``), from which the RK4 and
ABM integrators generate a whole-run loop with the field's arithmetic
inlined.
A run binds its field once.  The ``rhs_*(p, x[, xd])`` wrappers call the
cached binder on every call, with no ``binding`` attribute set, and return
the components in the kind of container the state came in: a tuple for
a list or tuple of numbers, an array for an ndarray, one state of shape
(3,) or a (3, B) table of B states; the bits are the same in every
container.  Fields and wrappers are pure functions of immutable inputs,
so they can be handed to any integrator and shared freely across threads.
"""

from __future__ import annotations

import functools
import keyword
import re
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


class FieldDescription:
    """A vector field written once, as source text.

    The field takes the state ``x``, with components ``x1 .. x<dim>``, and
    when ``delayed`` also the delayed argument ``xd`` (``xd1 .. xd<dim>``).
    ``lines`` are the statements of its body and ``out`` its components,
    one expression each, or one starred expression for all of them.
    ``params`` name the binder's arguments and ``setup`` holds the
    bind-time lines over them (``"c1 = a2 - a3"``): the parameter-only
    products, computed once per binding.  Every name other than the inputs
    is a parameter, a setup name or a local of the body, and the text
    calls no builtin, so that any name may be renamed (:meth:`renamed`;
    the integrators inline the field into their whole-run loops that way).
    A description is not changed after it is made, and is its own key in
    the caches of what is generated from it.
    """

    __slots__ = ("name", "dim", "delayed", "params", "setup", "lines", "out")

    def __init__(self, name: str, dim: int, delayed: bool, params, setup,
                 lines, out):
        self.name, self.dim, self.delayed = name, dim, delayed
        self.params, self.setup = tuple(params), tuple(setup)
        self.lines, self.out = tuple(lines), tuple(out)

    def bind(self, *args):
        """The field as a closure over ``args`` (one per ``params``), its
        setup names closure cells; the closure's ``binding`` attribute is
        ``(self, args)``, from which the integrators inline it."""
        field = _binder(self)(*args)
        field.binding = (self, args)
        return field

    def renamed(self, names: dict, prefix: str) -> "FieldDescription":
        """The description with each name in ``names`` replaced by its value
        and every other name but Python's keywords prefixed with
        ``prefix``: text for a site with its own names, where no name of
        the field can meet one of the site's that lacks the prefix."""
        def rename(text):
            return _NAME.sub(lambda m: m[0] if keyword.iskeyword(m[0])
                             else names.get(m[0], prefix + m[0]), text)

        return FieldDescription(
            self.name, self.dim, self.delayed,
            *(map(rename, part)
              for part in (self.params, self.setup, self.lines, self.out)))


#: a name in a description's text (not an attribute, not inside a number)
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


@functools.cache
def _binder(desc: FieldDescription):
    """``desc``'s binder, compiled on first use and kept per description:
    ``bind(*params)`` runs the setup and returns ``field(x[, xd])``, which
    gives its components as a tuple.  The description's own names are
    prefixed, so none of them meets ``field``, ``x`` or ``xd``."""
    inputs = ["x", "xd"] if desc.delayed else ["x"]
    units = {v: [f"{v}{i + 1}" for i in range(desc.dim)] for v in inputs}
    text = desc.renamed({u: u for us in units.values() for u in us}, "d_")
    lines = [f"def bind({', '.join(text.params)}):",
             *(f"    {line}" for line in text.setup),
             f"    def field({', '.join(inputs)}):",
             *(f"        [{', '.join(us)}] = {v}" for v, us in units.items()),
             *(f"        {line}" for line in text.lines),
             f"        return ({', '.join(text.out)},)",
             "    return field"]
    return _generated(lines, f"<field: {desc.name}>")


def _generated(lines: list, tag: str, **env):
    """The function that the source ``lines`` define, compiled as ``tag``
    with the globals ``env``."""
    namespace = dict(env)
    exec(compile("\n".join(lines), tag, "exec"), namespace)
    return namespace[lines[0][4: lines[0].index("(")]]


_RIGID = ("a1", "a2", "a3")
_STRUCTURE = ("c1 = a2 - a3", "c2 = a3 - a1", "c3 = a1 - a2")

_CLASSICAL = FieldDescription(
    "classical", 3, False, _RIGID, _STRUCTURE, (),
    ("c1 * x2 * x3", "c2 * x1 * x3", "c3 * x1 * x2"))

_REVISED = FieldDescription(
    "revised", 3, False, _RIGID,
    _STRUCTURE + ("k12 = a2 * (a1 - a2)", "k13 = a3 * (a1 - a3)",
                  "k23 = a3 * (a2 - a3)", "k21 = a1 * (a2 - a1)",
                  "k31 = a1 * (a3 - a1)", "k32 = a2 * (a3 - a2)"),
    (),
    ("c1 * x2 * x3 + k12 * x1 * x2 * x2 + k13 * x1 * x3 * x3",
     "c2 * x1 * x3 + k23 * x2 * x3 * x3 + k21 * x2 * x1 * x1",
     "c3 * x1 * x2 + k31 * x3 * x1 * x1 + k32 * x3 * x2 * x2"))

#: at xd == x the delayed field takes the classical components themselves
_DELAYED = FieldDescription(
    "delayed", 3, True, _RIGID, _STRUCTURE,
    ("if xd1 == x1 and xd2 == x2 and xd3 == x3:",
     *(f"    f{i} = {e}" for i, e in enumerate(_CLASSICAL.out, 1)),
     "else:",
     "    f1 = a2 * xd2 * x3 - a3 * xd2 * xd3",
     "    f2 = a3 * x1 * xd3 - a1 * xd1 * x3",
     "    f3 = a1 * xd1 * xd2 - a2 * x1 * xd2"),
    ("f1", "f2", "f3"))

_REVISED_DELAYED = FieldDescription(
    "revised-delayed", 3, True, _RIGID,
    ("a11 = a1 * a1", "a12 = a1 * a2", "a23 = a2 * a3", "a33 = a3 * a3"),
    (),
    ("a2 * xd2 * x3 - a3 * xd2 * xd3 + a12 * xd1 * x2 * x2",
     "a3 * x1 * xd3 - a1 * xd1 * x3 - a11 * x1 * xd1 * x2"
     " - a33 * x2 * x3 * xd3",
     "a1 * xd1 * x2 - a2 * x1 * xd2 + a23 * xd2 * x2 * x3"))

_EP_DELAYED = FieldDescription(
    "ep-delayed", 3, True, ("I1", "I2", "I3", "k"), (),
    ("m1 = I1 * x1", "m2 = I2 * x2", "m3 = I3 * x3",
     "d1 = I1 * xd1", "d2 = I2 * xd2", "d3 = I3 * xd3",
     "e1 = d2 * xd3 - d3 * xd2", "e2 = d3 * xd1 - d1 * xd3",
     "e3 = d1 * xd2 - d2 * xd1"),
    ("(m2 * x3 - m3 * x2 + k * (m2 * e3 - m3 * e2)) / I1",
     "(m3 * x1 - m1 * x3 + k * (m3 * e1 - m1 * e3)) / I2",
     "(m1 * x2 - m2 * x1 + k * (m1 * e2 - m2 * e1)) / I3"))


def classical_field(p: RigidBodyParams):
    """Classical Euler field P(x) grad_h(x), bound to ``p``: x -> dx/dt.

    P(x) is the antisymmetric structure tensor, with P(x) x = 0.
    """
    return _CLASSICAL.bind(p.a1, p.a2, p.a3)


def revised_field(p: RigidBodyParams):
    """Revised field P grad_h + g grad_c, bound to ``p``: x -> dx/dt.

    With the metric g = grad_h grad_h^T - |grad_h|^2 Id it conserves the
    energy h exactly (g grad_h = 0) while the squared-norm invariant c is
    non-increasing along solutions.
    """
    return _REVISED.bind(p.a1, p.a2, p.a3)


def delayed_field(p: RigidBodyParams):
    """Delayed Euler field, bound to ``p``: (x, xd) -> dx/dt, where ``xd``
    is the kernel-averaged past state.

    When ``xd`` equals ``x`` the classical components are returned, so the
    identity delayed(x, x) == classical(x) is exact in floating point.
    """
    return _DELAYED.bind(p.a1, p.a2, p.a3)


def revised_delayed_field(p: RigidBodyParams):
    """Revised delayed field, bound to ``p``: (x, xd) -> dx/dt, term for
    term.

    Unlike the plain delayed field this one does not collapse to the
    undelayed revised field at ``xd == x``; the cubic corrections carry a
    different mix of delayed factors by construction.
    """
    return _REVISED_DELAYED.bind(p.a1, p.a2, p.a3)


def ep_delayed_field(s: InertiaSetup):
    """Euler-Poincare field with a delayed torque, resolved for omega and
    bound to ``s``: (omega, omegad) -> domega/dt.

    Computes I^-1 [ (I omega) x omega + coupling * (I omega) x
    ((I omegad) x omegad) ] with I = diag(I1, I2, I3).  The torque is
    orthogonal to the angular momentum M = I omega, so |M| is conserved
    exactly along solutions.
    """
    return _EP_DELAYED.bind(s.I1, s.I2, s.I3, s.coupling)


def rhs_classical(p: RigidBodyParams, x) -> tuple | np.ndarray:
    """:func:`classical_field` of ``p`` at ``x``, in the container of ``x``."""
    return _like(x, _binder(_CLASSICAL)(p.a1, p.a2, p.a3)(x))


def rhs_revised(p: RigidBodyParams, x) -> tuple | np.ndarray:
    """:func:`revised_field` of ``p`` at ``x``, in the container of ``x``."""
    return _like(x, _binder(_REVISED)(p.a1, p.a2, p.a3)(x))


def rhs_delayed(p: RigidBodyParams, x, xd) -> tuple | np.ndarray:
    """:func:`delayed_field` of ``p`` at ``(x, xd)``, in the container of
    ``x``; a (3, B) table takes the ``xd == x`` reduction column by column.
    """
    field = _binder(_DELAYED)(p.a1, p.a2, p.a3)
    if isinstance(x, np.ndarray) and x.ndim == 2:
        cols = [field(*col) for col in zip(x.T, xd.T)]
        return np.array(cols).reshape(-1, 3).T
    return _like(x, field(x, xd))


def rhs_revised_delayed(p: RigidBodyParams, x, xd) -> tuple | np.ndarray:
    """:func:`revised_delayed_field` of ``p`` at ``(x, xd)``, in the
    container of ``x``."""
    return _like(x, _binder(_REVISED_DELAYED)(p.a1, p.a2, p.a3)(x, xd))


def rhs_ep_delayed(s: InertiaSetup, omega, omegad) -> tuple | np.ndarray:
    """:func:`ep_delayed_field` of ``s`` at ``(omega, omegad)``, in the
    container of ``omega``."""
    field = _binder(_EP_DELAYED)(s.I1, s.I2, s.I3, s.coupling)
    return _like(omega, field(omega, omegad))


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
