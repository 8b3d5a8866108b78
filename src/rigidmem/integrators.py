"""Time-stepping engines with dense trajectory output and diagnostics.

Four integration paths are provided:

* classical fixed-step RK4 for ordinary systems,
* method-of-steps RK4 for Dirac and uniform kernels, where the delayed
  argument is read from the stored trajectory (cubic Hermite dense
  output) and the initial function: a uniform kernel's average as the
  exact running integral of that interpolant, a Dirac lag as its sample,
  both in batches where they read finished nodes only, each batch kept
  for the later lookups it covers,
* an exact ODE chain augmentation for gamma (weak and strong) kernels,
* the fractional Adams-Bashforth-Moulton predictor-corrector for Caputo
  systems, with and without a delayed argument.

Every path steps over Python floats: a field gets the state, and a delayed
field also the delayed argument, as a list of floats, and may return any
length-dim sequence.  Each path runs one whole-run loop generated per
field description (:func:`_rk4_run`, :func:`_abm_run`): a model field
bound once per run (``rigidmem.models.classical_field(p)`` and its
siblings) carries its description, whose text the loop inlines with the
state, stages, sums and slopes held in locals, and a plain callable is
called once per evaluation from a loop of the same form.  The chain
reduction composes the model field's description with its relaxation
stages into one field, and a zero Dirac lag, which is no delay, takes the
pair's text at xd = x; a delayed field keeps its lookup as a call inside
the loop.  The RK4 stage and combination arithmetic, the ABM predictor
and corrector and the squared divergence norm come from fixed templates,
written out per component in the order of operations of the array form;
every result is bitwise that of the array loops.  Both loops test the
squared norm against the largest double whose sqrt is DIVERGENCE_NORM or
below, the decision of the norm test for every double.  The ABM loop is
generated per description and corrector count, with its corrector
iterations written out; it reads each block's far memory sums as one
list once its FFT square is added, and keeps each step's near sum one
BLAS product into a buffer of the run, whose two rows the predictor and
corrector add in their own expressions.

Every integrator emits a :class:`Trajectory`: uniformly spaced samples with
a derivative estimate per node and per-sample diagnostics recomputed from
the states (never accumulated).  A diagnostic maps the (dim, M)
component-major state table to M values, so that ``x1, x2, x3 = x`` works
for one state and for a table; each runs once per trajectory.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kern
from .errors import DivergenceError, HistoryCoverageError
from .models import FieldDescription, _generated

__all__ = [
    "DIVERGENCE_NORM",
    "Trajectory",
    "HistorySpec",
    "FracConfig",
    "integrate_rk4",
    "integrate_dde",
    "integrate_chain",
    "integrate_frac_abm",
    "integrate_frac_dde",
    "write_trajectory_csv",
]

#: states with a larger norm abort the run with a DivergenceError
DIVERGENCE_NORM = 1e8

#: RK4's stability interval on the negative real axis is [-bound, 0]: at
#: z = -bound, the real root of 1 + z/2 + z^2/6 + z^3/24, the amplification
#: 1 + z + z^2/2 + z^3/6 + z^4/24 is 1 again, and beyond it above 1
_RK4_REAL_BOUND = 2.785293563405282

#: relative tolerance for snapping dense queries onto grid nodes
_NODE_SNAP = 1e-9


def _whole_steps(span: float, h: float) -> int | None:
    """span / h when ``span`` is a whole number (>= 1) of steps, else None."""
    n = int(round(span / h))
    if n >= 1 and abs(n * h - span) <= 1e-9 * max(span, 1.0):
        return n
    return None


def _n_steps(span: float, h: float) -> int:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step h must be > 0")
    if not (span > 0 and math.isfinite(span)):
        raise ValueError("t_end must be > 0")
    n = _whole_steps(span, h)
    if n is None:
        raise ValueError("t_end must be a whole number of steps")
    return n


def _diverged(t: float) -> DivergenceError:
    """The error of a state whose norm is not <= DIVERGENCE_NORM.

    The loops test the squared norm, ``not squares(x) <= bound``
    (:func:`_divergence_test`): NaN fails the comparison and an
    overflowing square gives inf, so non-finite and overflowing states
    are rejected too.
    """
    return DivergenceError(f"state diverged; last valid time t = {t:.6g}",
                           t_last=t)


#: Templates of the componentwise step kernels (see _componentwise), each
#: written like a lambda: the scalar ``s`` and the lists it takes, then the
#: value of one component.
_STAGE = "s, a, b: a + s * b"
_COMBINE = "s, a, b, c, d, e: a + s * (b + 2.0 * (c + d) + e)"
#: the corrector, and the predictor with its near sum folded in
_CORRECT = "s, a, b, c: a + s * (b + c)"
#: the corrector with its near sum folded in
_CORRECT_NEAR = "s, a, b, c, d: a + s * (b + (c + d))"
_SQUARES = "a: sum(a * a)"
#: the running integral of a uniform kernel (see _uniform_average): one
#: cell's integral, a partial cell's, the prefix sum and its rounding
#: error (Knuth's two-sum: c = a + b rounded, the error carried in d), and
#: the window average
_CELL = "s1, s2, a, b, c, d: s1 * (a + c) + s2 * (b - d)"
_PARTIAL = "s0, s1, s2, s3, a, b, c, d: s0 * a + s1 * b + s2 * c + s3 * d"
_SUM = "a, b: a + b"
_CARRY = "a, b, c, d: d + ((a - (c - (c - a))) + (b - (c - a)))"
_WINDOW = "s, a, b, c, d, e, f, g: (g + (((a - b) + (c - d)) + (e - f))) / s"


def _terms(expr: str, dim: int, names=None) -> list:
    """The ``dim`` component expressions of the template ``expr`` (the
    terms of a ``sum(...)`` template), each in the template's order of
    operations.  A scalar parameter p is written ``names[p]`` and a list
    parameter ``names[p]`` followed by the component index; both are p
    itself by default."""
    params, body = expr.split(": ")
    if body.startswith("sum("):
        body = body[4:-1]
    names = names or {}
    param = re.compile(r"\b(%s)\b" % params.replace(", ", "|"))

    def term(i):
        return param.sub(lambda m: names.get(m[1], m[1])
                         + ("" if m[1].startswith("s") else str(i)), body)

    return [term(i) for i in range(dim)]


@functools.cache
def _componentwise(expr: str, dim: int):
    """The template ``expr`` as straight-line code for ``dim`` components.

    ``expr`` is one of the module templates above and ``dim`` an int;
    nothing else reaches ``exec``.  Parameters named ``s...`` are scalars,
    all others lists.  The function unpacks each list
    argument once (a list of another length raises ValueError), writes
    one line per component and returns the list of the components, or for
    a ``sum(...)`` template their sum in index order (0.0 at dim 0).  Every
    component keeps the template's order of operations, so it is bitwise
    the value of the ``zip`` comprehension over the lists.  Built on the
    first run of a dimension and cached per (expr, dim), as
    :func:`collections.namedtuple` builds its methods.
    """
    params, body = expr.split(": ")
    lists = [p for p in params.split(", ") if not p.startswith("s")]
    terms = _terms(expr, dim)
    if body.startswith("sum("):
        result = " + ".join(terms) or "0.0"
    else:
        result = "[" + ", ".join(terms) + "]"
    lines = [f"def kernel({params}):"]
    lines += [f"    [{', '.join(f'{v}{i}' for i in range(dim))}] = {v}"
              for v in lists]
    lines.append(f"    return {result}")
    return _generated(lines, f"<componentwise {expr!r}, {dim}>")


@functools.cache
def _on_tables(expr: str):
    """The template ``expr`` (one of the module templates) as its own
    lambda, run on whole (m, dim) tables: each list argument one table and
    each scalar a number or an (m, 1) column, returning the result table.
    Every element keeps the template's order of operations, so it is
    bitwise the value of the :func:`_componentwise` kernel on its row."""
    return eval(f"lambda {expr}")


@functools.cache
def _call(dim: int, delayed: bool) -> FieldDescription:
    """A plain callable ``field`` as a description: one call on the state
    (and the delayed argument) as lists, its result any length-dim
    sequence."""
    args = [f"[{', '.join(f'{v}{i + 1}' for i in range(dim))}]"
            for v in (["x", "xd"] if delayed else ["x"])]
    return FieldDescription("callable", dim, delayed, ("field",), (), (),
                            (f"*field({', '.join(args)})",))


def _binding(field, dim: int, delayed: bool):
    """``(description, args)`` of ``field``: its own when a description
    bound it, else the :func:`_call` of it."""
    return getattr(field, "binding", None) or (_call(dim, delayed), (field,))


@functools.cache
def _chain_description(pair: FieldDescription, stages: int):
    """The augmented field of a ``stages``-stage chain over the delayed
    field ``pair``, as one description of y = (x, eta1[, eta2]).

    ``pair``'s text is taken whole, with x the first ``dim`` components of
    y and xd the last stage, and its own names prefixed ``p_``; component
    dim + i is then ``rate * (y[i] - y[i + dim])``: stage j relaxes towards
    the one before it.  It binds as ``(*pair_args, rate)``.  With no stages
    it is the pair at xd = x, the zero lag: its own name, bound as
    ``pair_args``.
    """
    dim = pair.dim
    last = dim * stages
    names = {f"x{i + 1}": f"x{i + 1}" for i in range(dim)}
    names |= {f"xd{i + 1}": f"x{last + i + 1}" for i in range(dim)}
    inner = pair.renamed(names, "p_")
    relax = [f"rate * (x{i + 1} - x{i + dim + 1})" for i in range(last)]
    name, rate = ((f"chain({pair.name}, {stages})", ("rate",)) if stages
                  else (pair.name, ()))
    return FieldDescription(name, last + dim, False, inner.params + rate,
                            inner.setup, inner.lines,
                            inner.out + tuple(relax))


def _names(prefix: str, dim: int) -> list:
    return [f"{prefix}{i}" for i in range(dim)]


def _listed(values) -> str:
    return f"[{', '.join(values)}]"


def _assign(targets, expr: str, **names) -> list:
    """Lines that set the locals ``targets`` to the template ``expr``'s
    components, its parameters named as in :func:`_terms`."""
    return [f"{t} = {e}" for t, e in
            zip(targets, _terms(expr, len(targets), names))]


def _write(view: str, values) -> list:
    """Lines that write ``values`` into the flat ``view`` from index j."""
    return [f"{view}[j + {i}] = {v}" if i else f"{view}[j] = {v}"
            for i, v in enumerate(values)]


def _divergence_test(prefix: str, dim: int, t: str) -> list:
    """Lines that raise :func:`_diverged` at time ``t`` unless the squared
    norm of the locals ``prefix0 ..`` is <= the largest double whose sqrt
    is <= DIVERGENCE_NORM.  sqrt is correctly rounded, hence monotone, so
    this is the decision of ``sqrt(squares) <= DIVERGENCE_NORM`` for every
    double, NaN and inf included, without the sqrt."""
    bound = DIVERGENCE_NORM * DIVERGENCE_NORM
    assert (math.sqrt(bound) <= DIVERGENCE_NORM
            < math.sqrt(math.nextafter(bound, math.inf)))
    squares = " + ".join(_terms(_SQUARES, dim, {"a": prefix})) or "0.0"
    return [f"if not {squares} <= {bound!r}:", f"    raise diverged({t})"]


def _field_lines(desc: FieldDescription, state, slope, at=None) -> list:
    """Lines that evaluate ``desc`` at the locals ``state`` into the locals
    ``slope``: its text inlined with its own names prefixed ``d_``, or one
    unpacked call for a starred component.  A delayed field first reads
    the lookup ``delayed(at)`` into the locals ``w0 ..``, its xd; with no
    ``at`` it takes the ``w0 ..`` of the last lookup."""
    site = {f"x{i + 1}": v for i, v in enumerate(state)}
    w = _names("w", desc.dim) if desc.delayed else []
    site |= {f"xd{i + 1}": v for i, v in enumerate(w)}
    inlined = desc.renamed(site, "d_")
    read = desc.delayed and at is not None
    lines = [f"{_listed(w)} = delayed({at})"] if read else []
    lines += inlined.lines
    out = inlined.out
    if any(e.startswith("*") for e in out):
        whole = out[0][1:] if len(out) == 1 else f"({', '.join(out)},)"
        return lines + [f"{_listed(slope)} = {whole}"]
    return lines + [f"{s} = {e}" for s, e in zip(slope, out)]


def _whole_run(kind: str, desc: FieldDescription, params: str, body: list,
               **env):
    """The loop ``run(<params>, *args)`` of ``desc``: its setup over the
    binding ``args``, then the lines ``body``, compiled as ``<kind run:
    name, dim>`` (``name with lookup`` for a delayed field).  The field's
    own names are prefixed ``d_`` and no local of the loop is, so none of
    them can meet."""
    text = desc.renamed({}, "d_")
    lines = [f"def run({', '.join([params, *text.params])}):",
             *(f"    {line}" for line in (*text.setup, *body))]
    lookup = " with lookup" if desc.delayed else ""
    return _generated(lines, f"<{kind} run: {desc.name}{lookup}, {desc.dim}>",
                      diverged=_diverged, **env)


@functools.cache
def _rk4_run(desc: FieldDescription):
    """The whole-run RK4 loop of the field ``desc`` (:func:`_whole_run`),
    generated once per description.

    ``run(states, derivs, grid, delayed, x, f, n, h, *args)`` takes node 0
    and its slope ``f`` as written, steps 0..n-1 and writes each node into
    the flat views ``states`` and ``derivs`` of the grid's rows.  State,
    stages and slopes are locals, and the field's text (bound by ``args``)
    is inlined at each of its four calls per step, as are the stage,
    combination and divergence templates: every value is the one the
    closure and the componentwise kernels give, bit for bit.  A delayed
    field's call first reads ``delayed(i)`` as in :func:`_rk4_loop`,
    apart from k3's, which takes k2's value: nothing writes the grid
    between them.  The grid's ``count`` moves with the k4 write of each
    node.
    """
    dim, lookup = desc.dim, desc.delayed
    x, y = _names("x", dim), _names("y", dim)
    k1, k2, k3, k4 = (_names(f"k{j}_", dim) for j in range(1, 5))
    step = [*(["i = 2 * k + 1"] if lookup else []),
            *_assign(y, _STAGE, s="half", a="x", b="k1_"),
            *_field_lines(desc, y, k2, "i"),
            *_assign(y, _STAGE, s="half", a="x", b="k2_"),
            *_field_lines(desc, y, k3),
            *_assign(y, _STAGE, s="h", a="x", b="k3_"),
            *_field_lines(desc, y, k4, "i + 1"),
            *_assign(x, _COMBINE, s="sixth", a="x", b="k1_", c="k2_",
                     d="k3_", e="k4_"),
            *_divergence_test("x", dim, "k * h"),
            f"j += {dim}"]
    if lookup:
        step += [*_write("states", x), *_write("derivs", k4),
                 "grid.count = k + 2",
                 *_field_lines(desc, x, k1, "i + 1"), *_write("derivs", k1)]
    else:
        step += [*_field_lines(desc, x, k1), *_write("states", x),
                 *_write("derivs", k1)]
    return _whole_run("rk4", desc, "states, derivs, grid, delayed, x, f, n, h",
                      ["half = 0.5 * h", "sixth = h / 6.0",
                       f"{_listed(x)} = x", f"{_listed(k1)} = f", "j = 0",
                       "for k in range(n):",
                       *(f"    {line}" for line in step)])


def _hermite_eval(t0, h, states, derivs, count, ts, slack=0.0):
    """Cubic Hermite evaluation on the first ``count`` grid nodes.

    ``slack`` extends the admissible range past the last node (used for
    stage-level extrapolation inside a step).  Queries within _NODE_SNAP of
    a node return the stored sample exactly.
    """
    ts = np.asarray(ts, dtype=float)
    t_last = t0 + (count - 1) * h
    tol = _NODE_SNAP * h
    if np.any(ts < t0 - tol) or np.any(ts > t_last + slack + tol):
        raise HistoryCoverageError(
            f"dense evaluation outside [{t0}, {t_last + slack}]")
    if count == 1:
        return states[0] + np.outer(ts - t0, derivs[0])
    pos = (ts - t0) / h
    idx = np.clip(np.floor(pos).astype(int), 0, count - 2)
    theta = pos - idx
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    out = (h00[:, None] * states[idx] + (h * h10)[:, None] * derivs[idx]
           + h01[:, None] * states[idx + 1] + (h * h11)[:, None] * derivs[idx + 1])
    near = np.rint(pos)
    snap = (np.abs(pos - near) < _NODE_SNAP) & (near >= 0) & (near <= count - 1)
    if np.any(snap):
        out[snap] = states[near[snap].astype(int)]
    return out


@dataclass
class Trajectory:
    """Uniformly sampled solution with nodewise derivatives and diagnostics.

    ``states`` and ``derivs`` have shape (N+1, dim); sample k lives at time
    t0 + k*h.  ``core_dim`` marks how many leading components form the
    model state when auxiliary chain stages are appended.  Diagnostics are
    (N+1,) arrays recomputed from the states: a diagnostic maps the
    (dim, M) component-major state table to M values, so that
    ``x1, x2, x3 = x`` works for one state and for a table.
    """

    t0: float
    h: float
    states: np.ndarray
    derivs: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    core_dim: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.states.shape != self.derivs.shape or self.states.ndim != 2:
            raise ValueError("states and derivs must share shape (N+1, dim)")
        if self.core_dim is None:
            self.core_dim = self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.h

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_samples)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def eval_many(self, ts) -> np.ndarray:
        return _hermite_eval(self.t0, self.h, self.states, self.derivs,
                             self.n_samples, ts)

    def eval(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation at time ``t`` (exact at nodes).

        A ``t`` outside [t0, t_end] raises :class:`HistoryCoverageError`.
        """
        return self.eval_many(np.array([float(t)]))[0]


class HistorySpec:
    """Initial function phi on (-inf, 0].

    ``eval_many(ss)`` returns phi at the times ``ss`` as a (len(ss), dim)
    array; :meth:`constant` builds it for a constant phi.  A recorded
    segment serves as ``HistorySpec(traj.eval_many, dim)``.
    """

    def __init__(self, eval_many, dim: int, is_constant: bool = False):
        self.eval_many = eval_many
        self.dim = dim
        self.is_constant = is_constant

    @classmethod
    def constant(cls, value) -> "HistorySpec":
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(lambda ss: np.broadcast_to(arr, (np.size(ss), arr.size)),
                   arr.size, is_constant=True)

    def __call__(self, s: float) -> np.ndarray:
        return self.eval_many(np.array([float(s)]))[0]


class _RunningGrid:
    """Partially built trajectory spliced with phi, for delayed lookups.

    Evaluation below t0 defers to phi; within the written nodes it uses
    cubic Hermite; up to one step past the last node it extrapolates the
    final cubic piece (stage evaluations during the current step).
    """

    def __init__(self, phi: HistorySpec | None, t0: float, h: float,
                 n_steps: int, dim: int):
        self.phi = phi
        self.t0 = t0
        self.h = h
        self.states = np.empty((n_steps + 1, dim))
        self.derivs = np.zeros((n_steps + 1, dim))
        self.count = 0

    def put(self, k: int, x, f=None) -> None:
        """Write node ``k``: the next node, or the newest node again.

        Without a slope ``f`` the slopes are finite differences: one-sided
        at node k and centred at node k - 1 (node 0 copies node 1's).
        """
        states, derivs = self.states, self.derivs
        states[k] = x
        self.count = k + 1
        if f is not None:
            derivs[k] = f
        elif k >= 1:
            derivs[k] = (states[k] - states[k - 1]) / self.h
            if k == 1:
                derivs[0] = derivs[1]
            else:
                derivs[k - 1] = (states[k] - states[k - 2]) / (2 * self.h)

    def cell(self, j: int):
        """States and slopes of nodes j and j + 1, as lists of floats."""
        return self.states[j: j + 2].tolist(), self.derivs[j: j + 2].tolist()

    def cells(self, js):
        """States and slopes of nodes js and js + 1 for an int array ``js``,
        as the (len(js), dim) tables xa, fa, xb, fb."""
        states, derivs = self.states, self.derivs
        return states[js], derivs[js], states[js + 1], derivs[js + 1]

    def eval_point(self, u: float) -> list:
        """The grid at one time ``u`` > t0 as a list of floats: bitwise
        :meth:`eval_many`'s value, in :func:`_hermite_eval`'s order of
        operations, with its node snap and coverage error."""
        t0, h, count = self.t0, self.h, self.count
        t_last = t0 + (count - 1) * h
        slack = h * (1 + 1e-9)
        tol = _NODE_SNAP * h
        if u < t0 - tol or u > t_last + slack + tol:
            raise HistoryCoverageError(
                f"dense evaluation outside [{t0}, {t_last + slack}]")
        if count == 1:
            return [x + (u - t0) * f for x, f in
                    zip(self.states[0].tolist(), self.derivs[0].tolist())]
        pos = (u - t0) / h
        near = round(pos)
        if abs(pos - near) < _NODE_SNAP and 0 <= near <= count - 1:
            return self.states[near].tolist()
        j = min(max(math.floor(pos), 0), count - 2)
        theta = pos - j
        t2 = theta * theta
        t3 = t2 * theta
        h00 = 2 * t3 - 3 * t2 + 1
        h10 = h * (t3 - 2 * t2 + theta)
        h01 = -2 * t3 + 3 * t2
        h11 = h * (t3 - t2)
        (xa, xb), (fa, fb) = self.cell(j)
        return [h00 * a + h10 * c + h01 * b + h11 * d
                for a, c, b, d in zip(xa, fa, xb, fb)]

    def eval_many(self, us) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        past = us <= self.t0
        if np.all(past):
            return self.phi.eval_many(us)
        out = np.empty((us.size, self.states.shape[1]))
        if np.any(past):
            out[past] = self.phi.eval_many(us[past])
        here = ~past
        out[here] = _hermite_eval(self.t0, self.h, self.states, self.derivs,
                                  self.count, us[here],
                                  slack=self.h * (1 + 1e-9))
        return out


def _compute_diagnostics(states, core_dim, diagnostics):
    """Each diagnostic called once on the (core_dim, N+1) state table."""
    table = states[:, :core_dim].T
    out = {}
    for name, fn in (diagnostics or {}).items():
        series = np.array(fn(table), dtype=float)
        if series.shape != (states.shape[0],):
            raise ValueError(
                f"diagnostic {name!r} gave shape {series.shape} for "
                f"{states.shape[0]} states: it must map the (dim, M) state "
                "table to M values")
        out[name] = series
    return out


def _rk4_loop(field, delayed, grid: _RunningGrid, x0: list, n: int,
              h: float) -> None:
    """Node 0 and classical RK4 steps 0..n-1 for dx/dt = field(x), or with
    a lookup ``delayed`` for dx/dt = field(x, delayed(i)).

    ``x0`` and every state ``field`` gets are lists of floats; ``i``
    numbers the lookups as :func:`_rk4_lookups` lists them.  Node 0's
    slope is ``field``'s own value, written with the node by
    :meth:`_RunningGrid.put` (a slope of another width raises there), and
    the steps run in the loop that :func:`_rk4_run` generates from the
    field's description, or from the call of a plain callable.  Without a
    lookup (a zero lag among them) nothing reads the grid while it runs,
    and each new node is written once with its own slope; with one it is
    written with its k4 slope first, so that a lookup at the new node sees
    the finished step, and its own slope then replaces k4.
    """
    desc, args = _binding(field, len(x0), delayed is not None)
    f = field(x0) if delayed is None else field(x0, delayed(0))
    grid.put(0, x0, f)
    _rk4_run(desc)(grid.states.reshape(-1).data, grid.derivs.reshape(-1).data,
                   grid, delayed, x0, f, n, h, *args)


def _rk4_lookups(n: int, h: float):
    """Times of the field calls ``i`` of an RK4 run, and the last final node
    at each: none at 0 (node 0's slope), node k at 2k + 1 (k2, k3 at
    k*h + h/2) and 2k + 2 (k4, then the new node's slope, at k*h + h)."""
    t = np.arange(n) * h
    times = np.column_stack([t + 0.5 * h, t + h]).ravel()
    return np.r_[0.0, times], (np.arange(2 * n + 1) - 1) // 2


def integrate_rk4(rhs, x0, t_end, h, *, diagnostics=None,
                  core_dim=None) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta for dx/dt = rhs(x).

    ``rhs`` maps a state, given as a list of floats on every call, to its
    derivative as any length-dim sequence (a tuple of floats is fastest).
    Aborts with :class:`DivergenceError` when the state leaves the finite
    trust region.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.  The table
    holds the first ``core_dim`` components (all by default).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = _n_steps(t_end, h)
    grid = _RunningGrid(None, 0.0, h, n, x0.size)
    _rk4_loop(rhs, None, grid, x0.tolist(), n, h)
    core = x0.size if core_dim is None else core_dim
    diag = _compute_diagnostics(grid.states, core, diagnostics)
    return Trajectory(0.0, h, grid.states, grid.derivs, diag, core_dim=core)


#: most lookups one batch evaluates, so that a long lag or offset does not
#: scale the lookahead's memory
_LOOKAHEAD_POINTS = 1 << 12


def _delayed_argument(kernel, grid: _RunningGrid, times, final):
    """The delayed argument xd(i) over ``grid``, chosen once.

    Lookup i is at time ``times[i]`` (nondecreasing), when nodes up to
    ``final[i]`` hold their final state and slope.  A uniform kernel takes
    the exact window average of :func:`_uniform_average`, a Dirac kernel
    the lagged sample of :func:`_dirac_sample` (a zero lag never comes
    here: :func:`_lagged` runs it undelayed).  Any other kernel raises
    TypeError.  Values are lists of floats.  Both routes read the lookups
    that read final nodes only in batches, by one test
    (:func:`_final_reads`), and every other lookup alone on Python floats.

    A route's ``values(i)`` gives the values of lookups i, i + 1, ... and
    whether they read final nodes only.  Those of a batch are kept for
    the later lookups they cover.  A lone value is not: no loop reads a
    lookup again before the grid changes (RK4's k3 takes k2's value, RK4
    writes the new node before its k1 repeats k4's lookup, and the
    fractional loop writes before every lookup).
    """
    if isinstance(kernel, _kern.UniformKernel):
        values = _uniform_average(kernel, grid, times, final)
    elif not isinstance(kernel, _kern.DiracKernel):
        raise TypeError(f"no delayed-argument route for {type(kernel)}")
    else:
        values = _dirac_sample(kernel.lag, grid, times, final)
    # kept[j] is the value of lookup first + j, from the last batch
    first, kept = 0, []

    def lookup(i):
        nonlocal first, kept
        if 0 <= i - first < len(kept):
            return kept[i - first]
        batch, final_only = values(i)
        if final_only:
            first, kept = i, batch
        return batch[0]

    return lookup


def _lagged(pair, kernel, grid: _RunningGrid, times, final):
    """``(field, delayed)`` for the delayed field ``pair`` under a Dirac or
    uniform ``kernel``: ``pair`` and the :func:`_delayed_argument` lookup,
    or at a zero Dirac lag, which is no delay, the pair at xd = x (its
    :func:`_chain_description` with no stages) and no lookup."""
    if isinstance(kernel, _kern.DiracKernel) and kernel.lag == 0.0:
        desc, args = _binding(pair, grid.states.shape[1], True)
        return _chain_description(desc, 0).bind(*args), None
    return pair, _delayed_argument(kernel, grid, times, final)


def _final_reads(grid: _RunningGrid, times, final, shift: float):
    """The batches of both routes, for lookups that read the grid up to
    t - ``shift`` (a Dirac lag, or a uniform window's offset), as
    ``(us, ready)``: the times t - shift as an array, and per lookup i the
    number of lookups from i on whose position (t - shift - t0)/h is at
    most lookup i's last final node ``max(final[i], 0)``, at most
    _LOOKAHEAD_POINTS.  They read final nodes only, now and later, so one
    batch serves them.  ``ready[i]`` is 0 when lookup i is read alone: its
    position lies past that node, or a shift below h puts it past t0,
    where its batch would hold no other.  Positions never decrease, so
    each count is one binary search.
    """
    us = times - shift
    pos = (us - grid.t0) / grid.h
    last = np.maximum(final, 0)
    ready = np.minimum(np.searchsorted(pos, last, side="right")
                       - np.arange(pos.size), _LOOKAHEAD_POINTS)
    ready[(us > grid.t0) & ((shift < grid.h) | ~(pos <= last))] = 0
    return us, ready


def _dirac_sample(lag: float, grid: _RunningGrid, times, final):
    """The values of a Dirac kernel's lookups: the grid at t - ``lag``.

    A batch of :func:`_final_reads` is evaluated at once (Hermite
    evaluation is elementwise, so each value is bitwise that of a lone
    lookup); a lone lookup, on the unfinished last piece or at a lag below
    h, on Python floats (:meth:`_RunningGrid.eval_point`).
    """
    us, ready = _final_reads(grid, times, final, lag)
    # lookup by lookup, as Python numbers
    at, ready = us.data, ready.data

    def values(i):
        n = ready[i]
        if not n:
            return [grid.eval_point(at[i])], False
        return grid.eval_many(us[i: i + n]).tolist(), True

    return values


def _simpson(phi: HistorySpec, a: float, b: float, step: float) -> list:
    """Composite Simpson integral of phi over [a, b], step at most ``step``,
    on phi's values as a C-contiguous table, whatever its layout."""
    s, weights = _kern.simpson_rule(a, b, step)
    return (weights @ _kern._eval_history(phi, s)).tolist()


def _uniform_average(kernel, grid: _RunningGrid, times, final):
    """The delayed argument of a uniform kernel: the exact average of the
    history over the window [t - offset - width, t - offset].

    On the grid it is the integral of the cubic Hermite interpolant, taken
    as the difference of its antiderivative A(u) over [t0, u] at the two
    ends.  A(u) is a prefix sum over whole cells, each
    h/2 (x_k + x_k+1) + h^2/12 (f_k - f_k+1), plus the closed-form
    integral of the partial cell at u (past the last node, of the extended
    last piece, as the grid extrapolates).  A cell enters the prefix once
    both its nodes are final, as they finish; the prefix carries its
    rounding error (two-sum), so the error of a window does not grow with
    t.  Before t0 the integral is c times the length for a constant phi,
    exactly, and composite Simpson with step at most min(h, width/16)
    otherwise.  Every lookup costs O(1) on the grid.

    A window that ends at or before a final node reads final nodes only,
    and is computed with the rest of its :func:`_final_reads` batch on
    (m, dim) tables: the cells by fancy indexing, the prefix extended over
    the cells that have become final in one pass, and the partial cells
    and averages from the same templates (:func:`_on_tables`), so every
    value keeps its order of operations and is bitwise that of a lone
    lookup.  A lookup that reads an unfinished node (at an offset below
    h, or in the first steps), or whose window reaches into a phi that is
    not constant (the Simpson part), is computed alone on Python floats,
    from the same prefix table.  ``values(i)`` gives the values and
    whether they read final nodes only.
    """
    t0, h, phi = grid.t0, grid.h, grid.phi
    offset, width = kernel.offset, kernel.width
    simpson_step = min(h, width / 16.0)
    const = (phi.eval_many(np.array([t0]))[0].tolist() if phi.is_constant
             else None)
    dim = grid.states.shape[1]
    cell_sum = _componentwise(_CELL, dim)
    partial = _componentwise(_PARTIAL, dim)
    add = _componentwise(_SUM, dim)
    carry = _componentwise(_CARRY, dim)
    window = _componentwise(_WINDOW, dim)
    cell_rows, partial_rows, carry_rows, window_rows = map(
        _on_tables, (_CELL, _PARTIAL, _CARRY, _WINDOW))
    hh = h * h
    half, twelfth = 0.5 * h, hh / 12.0
    zero = [0.0] * dim
    # pre[k] = (hi, lo): the integral over [t0, t_k] is hi + lo; hi and lo
    # are also the newest row, pre[done], which flat holds from done*row
    pre = np.zeros((grid.states.shape[0], 2, dim))
    flat, row = pre.reshape(-1), 2 * dim
    done, hi, lo = 0, zero, zero
    us, ready = _final_reads(grid, times, final, offset)
    # lookup by lookup, as Python numbers
    at, ready, lasts = us.data, ready.data, np.maximum(final, 0).data

    def whole_cell(j):
        (xa, xb), (fa, fb) = grid.cell(j)
        return cell_sum(half, twelfth, xa, fa, xb, fb)

    def extend(last):
        nonlocal done, hi, lo
        while done < last:
            c = whole_cell(done)
            total = add(hi, c)
            lo = carry(hi, c, total, lo)
            hi = total
            done += 1
            flat[done * row: done * row + row] = hi + lo

    def extend_all(last):
        # extend's loop over the cells done .. last - 1 at once:
        # np.add.accumulate adds row after row, so each sum is the loop's
        # double.  An error e enters as 0.0 + e, which is e but for
        # e = -0.0; lo starts at 0.0 and a sum is -0.0 only of two -0.0,
        # so lo is never -0.0 and lo + e is the loop's value either way
        nonlocal done, hi, lo
        rows = pre[done: last + 1]
        cells = cell_rows(half, twelfth, *grid.cells(np.arange(done, last)))
        rows[1:, 0] = cells
        sums = np.add.accumulate(rows[:, 0], out=rows[:, 0])
        rows[1:, 1] = carry_rows(sums[:-1], cells, sums[1:], 0.0)
        np.add.accumulate(rows[:, 1], out=rows[:, 1])
        done = last
        hi, lo = rows[-1].tolist()

    def integral_to(pos, last):
        """A(t0 + pos*h) for pos > 0 as (hi, lo, rest): the prefix to a
        node m <= last, and the rest of the way."""
        count = grid.count
        if count == 1:
            # node 0 alone: the grid extends it along its slope
            x0, f0 = grid.states[0].tolist(), grid.derivs[0].tolist()
            return zero, zero, partial(h * pos, 0.5 * hh * pos * pos,
                                       0.0, 0.0, x0, f0, x0, f0)
        # a node is the end of the cell before it, so that a window ending
        # at a final node reads final nodes only
        j = min(math.ceil(pos) - 1, count - 2)
        (xa, xb), (fa, fb) = grid.cell(j)
        # h times the antiderivatives of the Hermite basis over [0, theta]
        # (theta past 1 extends the piece):  H00 = theta - theta^3 +
        # theta^4/2, H10 = theta^2/2 - 2 theta^3/3 + theta^4/4,
        # H01 = theta^3 - theta^4/2, H11 = theta^4/4 - theta^3/3; the
        # slope weights take h once more
        t1 = pos - j
        t2 = t1 * t1
        t3 = t2 * t1
        t4 = t2 * t2
        rest = partial(h * (t1 - t3 + 0.5 * t4),
                       hh * (0.5 * t2 - 2.0 / 3.0 * t3 + 0.25 * t4),
                       h * (t3 - 0.5 * t4), hh * (0.25 * t4 - t3 / 3.0),
                       xa, fa, xb, fb)
        if j < last:
            return (*pre[j].tolist(), rest)
        # the prefix ends at node last (== done); whole cells after it are
        # not final and are added as they stand
        for k in range(last, j):
            rest = add(rest, whole_cell(k))
        return hi, lo, rest

    def batch(bs):
        # windows wholly before t0, then reaching into it (a constant phi
        # only), then on the grid.  Both ends of the last two are read in
        # one pass, as integral_to reads one, after the prefix is extended
        # to the last end's cell; the starts' parts are 0.0 where a lone
        # lookup takes zero
        n_past = int(np.count_nonzero(bs <= t0))
        b = bs[n_past:]
        a = b - width
        m, n_cut = b.size, int(np.count_nonzero(a <= t0))
        pos = np.concatenate(((b - t0) / h, (a[n_cut:] - t0) / h))
        j = np.ceil(pos).astype(np.intp) - 1
        if m and done < j[m - 1]:
            extend_all(int(j[m - 1]))
        t1 = (pos - j)[:, None]
        t2 = t1 * t1
        t3 = t2 * t1
        t4 = t2 * t2
        rest = partial_rows(h * (t1 - t3 + 0.5 * t4),
                            hh * (0.5 * t2 - 2.0 / 3.0 * t3 + 0.25 * t4),
                            h * (t3 - 0.5 * t4), hh * (0.25 * t4 - t3 / 3.0),
                            *grid.cells(j))
        ends = pre[j]
        starts = np.zeros((4, m, dim))
        starts[:2, n_cut:] = ends[m:].transpose(1, 0, 2)
        starts[2, n_cut:] = rest[m:]
        if n_cut:
            starts[3, :n_cut] = np.multiply.outer(t0 - a[:n_cut], const)
        a_hi, a_lo, a_rest, past = starts
        value = window_rows(width, ends[:m, 0], a_hi, ends[:m, 1], a_lo,
                            rest[:m], a_rest, past)
        return [const] * n_past + value.tolist()

    def values(i):
        n = ready[i]
        b = at[i]
        if n and (const is not None or b - width > t0):
            return batch(us[i: i + n]), True
        a = b - width
        last = lasts[i]
        if done < last:
            extend(last)
        pos_b = (b - t0) / h
        if b <= t0:
            value = (const if const is not None else
                     [v / width for v in _simpson(phi, a, b, simpson_step)])
        else:
            b_hi, b_lo, b_rest = integral_to(pos_b, last)
            if a > t0:
                a_hi, a_lo, a_rest = integral_to((a - t0) / h, last)
                past = zero
            else:
                a_hi = a_lo = a_rest = zero
                past = ([v * (t0 - a) for v in const] if const is not None
                        else _simpson(phi, a, t0, simpson_step))
            value = window(width, b_hi, a_hi, b_lo, a_lo, b_rest, a_rest,
                           past)
        return [value], pos_b <= last

    return values


def integrate_dde(rhs_pair, kernel, phi: HistorySpec, t_end, h, *,
                  diagnostics=None) -> Trajectory:
    """Method-of-steps RK4 for dx/dt = rhs_pair(x, xd) with delayed xd.

    ``rhs_pair`` gets the state x and the delayed argument xd as lists of
    floats on every call and returns the derivative as any length-dim
    sequence.

    At every stage the delayed argument xd is the kernel-weighted average
    of the stored trajectory (cubic Hermite, the last piece extended
    within a step) and phi.  A uniform kernel averages exactly: the
    integral of the interpolant over its window, from a running prefix
    sum over finished cells, costs O(1) per stage at any offset and
    width; the window's part before 0 is exact for a constant phi and
    composite Simpson with step min(h, width/16) otherwise.  Dirac
    kernels sample the lagged time exactly.  With a lag or offset >= h,
    the stages of the next lag/h or offset/h steps read finished nodes
    only and are read in one batch (a uniform window reaching into a phi
    that is not constant alone); a shorter one reads each stage alone on
    Python floats.  Every value is bitwise that of a lone lookup.  A zero
    lag is no delay: the pair at xd = x runs the undelayed loop, bitwise
    the :func:`integrate_rk4` run of that field.  A gamma kernel goes to
    :func:`integrate_chain`, whose trajectory is returned as it is: stage
    columns after the model state, ``core_dim`` marking the model part.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.
    """
    if isinstance(kernel, _kern.GammaKernel):
        return integrate_chain(rhs_pair, kernel, phi, t_end, h,
                               diagnostics=diagnostics)
    x0 = phi(0.0)
    n = _n_steps(t_end, h)
    grid = _RunningGrid(phi, 0.0, h, n, x0.size)
    field, delayed = _lagged(rhs_pair, kernel, grid, *_rk4_lookups(n, h))
    _rk4_loop(field, delayed, grid, x0.tolist(), n, h)
    diag = _compute_diagnostics(grid.states, x0.size, diagnostics)
    return Trajectory(0.0, h, grid.states, grid.derivs, diag)


def integrate_chain(rhs_pair, kernel: _kern.GammaKernel, phi: HistorySpec,
                    t_end, h, *, diagnostics=None) -> Trajectory:
    """Exact chain augmentation for a system delayed by a gamma kernel.

    The kernel's ``shape`` auxiliary stages obey eta1' = rate*(x - eta1),
    eta2' = rate*(eta1 - eta2); the delayed argument is the last stage.
    Stage j starts from the average of phi under GammaKernel(rate, j):
    phi itself if constant, else Simpson with step min(h, support/16) on
    that kernel's effective support (support/h nodes, once per run, read
    in pieces by :func:`~rigidmem.kernels.convolve_history`).
    ``rhs_pair`` gets x and the last stage as lists of floats and returns
    the derivative as any length-dim sequence; the augmented field around
    it is one description (:func:`_chain_description`), bound once per
    run, whose RK4 loop inlines a bound model field's text and calls a
    plain callable.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.  The table
    holds the model components only, never the stages.  Each stage
    relaxes at -rate, so when h * rate is above _RK4_REAL_BOUND the stages
    grow under RK4 whatever the field; a run that then diverges says so
    in its DivergenceError, which keeps its ``t_last``.
    """
    if not isinstance(kernel, _kern.GammaKernel):
        raise TypeError(f"integrate_chain takes a GammaKernel, not {kernel}")
    x0 = phi(0.0)
    dim = x0.size
    rate, stages = kernel.rate, kernel.shape
    if phi.is_constant:
        stage0 = [x0.copy() for _ in range(stages)]
    else:
        stage_kernels = [_kern.GammaKernel(rate, j)
                         for j in range(1, stages + 1)]
        stage0 = [_kern.convolve_history(
            kern, phi, 0.0, min(h, _kern.effective_support(kern)[1] / 16.0))
            for kern in stage_kernels]
    y0 = np.concatenate([x0] + stage0)
    pair, args = _binding(rhs_pair, dim, True)
    field = _chain_description(pair, stages).bind(*args, rate)
    try:
        return integrate_rk4(field, y0, t_end, h,
                             diagnostics=diagnostics, core_dim=dim)
    except DivergenceError as exc:
        if not h * rate > _RK4_REAL_BOUND:
            raise
        raise DivergenceError(
            f"{exc}: step * rate = {h * rate:.6g} is above "
            f"{_RK4_REAL_BOUND:.4g}, where RK4 is unstable on the chain "
            "stages; lower [run] step or [kernel] rate",
            t_last=exc.t_last) from exc


@dataclass(frozen=True)
class FracConfig:
    """Settings for the fractional predictor-corrector.

    ``order`` is the Caputo order in (0, 1] (1 recovers the classical
    limit); ``memory_window`` of None keeps the full history, otherwise
    only the newest ``memory_window`` nodes enter the memory sums and the
    induced bound on the dropped contribution is reported in the
    trajectory metadata.
    """

    order: float
    h: float
    corrector_iters: int = 1
    memory_window: int | None = None

    def __post_init__(self):
        if not 0 < self.order <= 1:
            raise ValueError("order must lie in (0, 1]")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("step h must be > 0")
        if not 1 <= self.corrector_iters <= 5:
            raise ValueError("corrector_iters must lie in 1..5")
        if self.memory_window is not None:
            if self.memory_window < 1:
                raise ValueError("memory_window must be >= 1")
            if self.memory_window * self.h < 1.0:
                raise ValueError("truncated memory must span >= 1 time unit")


def _abm_weights(alpha: float, n_steps: int):
    """Product-quadrature weight tables for the Adams scheme.

    beta[k] and c[k] are the rectangle (predictor) and interior trapezoid
    (corrector) weights at lag k = 0..n_steps-1, a0[n] the left-endpoint
    corrector weight for step n = 0..n_steps-1, and pow_a[k] = k^alpha.
    From k = 16 on, beta, c and a0, differences of powers that cancel to
    about k^(alpha-1), come from their binomial series in 1/(k+1), all
    terms positive, times (k+1)^alpha/(k+1), which keeps beta 1 at order 1.
    """
    k = np.arange(n_steps + 2, dtype=float)
    pow_a = k**alpha
    pow_a1 = k ** (alpha + 1)
    beta = np.diff(pow_a[:-1])
    c = pow_a1[2:] + pow_a1[:-2] - 2.0 * pow_a1[1:-1]
    a0 = pow_a1[:-2] - (k[:-2] - alpha) * pow_a[1:-1]
    binom = np.cumprod([alpha * (alpha + 1) / 2,
                        *((j - 1 - alpha) / (j + 1) for j in range(2, 24))])
    series = np.cumprod([alpha,
                         *((j - alpha) / (j + 1) for j in range(1, 12))])
    x = k[17:-1]
    beta[16:] = pow_a[17:-1] / x * np.polyval(series[::-1], 1 / x)
    c[16:] = 2.0 * pow_a[17:-1] / x * np.polyval(binom[22::-2], 1 / (x * x))
    a0[16:] = pow_a[17:-1] / x * np.polyval(binom[11::-1], 1 / x)
    return pow_a, beta, c, a0


#: nodes per diagonal block of the memory sums (a power of two); pairs of
#: nodes within one block are summed directly, all others by FFT squares
_MEMORY_BLOCK = 64


def _add_square(far, gs, spectra, scratch, s: int) -> None:
    """Add the lag sums of the inputs [s - L, s) to the outputs [s, s + L).

    ``s`` is a multiple of the block size and L = lowbit(s), so every pair
    of an input and a later output in another block falls in exactly one
    square, and a square's inputs are complete when its first output is
    due (Hairer, Lubich & Schlichte 1985).  Its lags lie in [1, 2L), so a
    circular convolution of length 2L with the lag weights 0..2L-1, whose
    spectra ``spectra[L]`` holds as (L + 1, 1) columns, leaves them
    unaliased at L..2L-1.  The (2, n, dim) ``far``'s columns share the
    forward transform, and all go into the run's scratch, allocating none.
    """
    width = s & -s
    m = min(width, far.shape[1] - s)
    g_hat, prod, conv = scratch[:, : width + 1]
    conv = conv.view(float).reshape(-1, g_hat.shape[1])[: 2 * width]
    np.fft.rfft(gs[s - width: s], 2 * width, axis=0, out=g_hat)
    for column, spectrum in zip(far, spectra[width]):
        np.multiply(spectrum, g_hat, out=prod)
        np.fft.irfft(prod, 2 * width, axis=0, out=conv)
        column[s: s + m] += conv[width: width + m]


@functools.cache
def _abm_run(desc: FieldDescription, iters: int):
    """The whole-run PECE loop of the Caputo field ``desc`` with ``iters``
    corrector iterations (:func:`_whole_run`), generated once per
    description and count.

    ``run(states, gs, table, far, near, spectra, scratch, near_sum, grid,
    delayed, x, n, h, pred_scale, corr_scale, *args)`` takes node 0 and
    its slope as written, steps 0..n-1 and writes each node and its slope
    into the flat views ``states`` and ``gs`` (``table`` is ``gs``'s
    array).  Each block of the memory sums first adds its FFT square to
    ``far`` (:func:`_add_square`), after which the block's rows of its
    two columns are final and are read as one list; each step adds its
    near sum, the product ``near[r] @ table[s: k]`` of the run's weights,
    written by ``np.dot`` into the run's (2, dim) buffer ``near_sum``
    (bitwise ``@``), to its row inside the predictor and corrector
    templates.  State, sums and slopes are locals, and the field's text
    (bound by ``args``) is inlined at each of the ``iters`` corrector
    evaluations, written out one after another, and at the accepted
    evaluation, as are the predictor, corrector and divergence templates:
    every value is the one the componentwise kernels give, bit for bit.
    A delayed field's evaluation of node k first writes the iterate as the
    grid's node k, ``grid.put(k, [state])``, and reads ``delayed(k)``; the
    grid's rows are then ``states``, written by ``put`` alone.
    """
    dim, lookup = desc.dim, desc.delayed
    x, y, g, p, c, u, v = (_names(name, dim) for name in "xygpcuv")
    evaluate = [*([f"grid.put(k, {_listed(y)})"] if lookup else []),
                *_field_lines(desc, y, g, "k")]
    correct = [*evaluate, *_assign(y, _CORRECT_NEAR, s="corr_scale", a="x",
                                   b="g", c="c", d="v")] * iters
    step = ["k = s + r + 1",
            "dot(near[r], table[s: k], near_sum)",
            f"{_listed(u + v)} = near_flat.tolist()",
            *_assign(y, _CORRECT, s="pred_scale", a="x", b="p", c="u"),
            *correct,
            *_divergence_test("y", dim, "(k - 1) * h"),
            f"j += {dim}",
            *([] if lookup else _write("states", y)),
            *evaluate,
            *_write("gs", g)]
    block = _MEMORY_BLOCK
    return _whole_run(
        "abm", desc, "states, gs, table, far, near, spectra, scratch, "
        "near_sum, grid, delayed, x, n, h, pred_scale, corr_scale",
        [f"{_listed(x)} = x", "near_flat = near_sum.reshape(-1)", "j = 0",
         f"for s in range(0, n, {block}):",
         "    if s:",
         "        add_square(far, table, spectra, scratch, s)",
         f"    m = min({block}, n - s)",
         "    sums = far[:, s: s + m].swapaxes(0, 1).reshape(m, -1).tolist()",
         f"    for r, {_listed(p + c)} in enumerate(sums):",
         *(f"        {line}" for line in step)],
        add_square=_add_square, dot=np.dot)


def _frac_loop(cfg: FracConfig, x0: np.ndarray, n: int, field,
               delayed=None, grid: _RunningGrid | None = None):
    """PECE loop over nodes 0..n for D^alpha x = field(x), or with a
    lookup ``delayed`` for D^alpha x = field(x, delayed(k)) over ``grid``.
    A given ``grid``'s state table is the run's.

    ``field`` gets the states as lists of floats and returns any length-dim
    sequence.  Node 0's slope is the field's own value (a slope of another
    width raises at its row write), and the steps run in the loop that
    :func:`_abm_run` generates from the field's description, or from the
    call of a plain callable: each node's predicted and corrected iterates
    and its accepted value are evaluated as node k, written into the grid
    first when a lookup reads it.

    Step s needs the lag sums sum_j w[s - j] g_j over j <= s of the
    predictor and corrector weights (zero at lags >= memory_window).
    ``far[:, s]`` collects the terms from blocks before the block of s,
    added by :func:`_add_square` at each block start, so the run costs
    O(n log^2 n); the terms within the block are summed directly.  The
    corrector's left-endpoint weight a0 replaces c at j = 0, which
    ``far[1]`` carries from the start as (a0[s] - c[s]) * g_0.  The loop
    reads the near weights by in-block offset, the spectra by square width
    L, each (2, L + 1, 1), and ``far``, (2, n, dim); the weight tables die
    before it (a windowed run keeps pow_a for its truncation bound), and
    only the states and slopes outlive it.
    """
    h = cfg.h
    alpha = cfg.order
    pred_scale = h**alpha / math.gamma(alpha + 1.0)
    corr_scale = h**alpha / math.gamma(alpha + 2.0)
    window = cfg.memory_window
    dim = x0.size
    desc, args = _binding(field, dim, delayed is not None)
    states = np.empty((n + 1, dim)) if grid is None else grid.states
    gs = np.empty((n + 1, dim))
    x0 = states[0] = x0.tolist()
    if delayed is not None:
        grid.put(0, x0)
    gs[0] = field(x0) if delayed is None else field(x0, delayed(0))
    block = _MEMORY_BLOCK
    pow_a, beta, c, a0 = _abm_weights(alpha, max(n, block))
    lag_w = np.stack([beta, c])
    g0_weight = a0[:n] - c[:n]
    if window is not None:
        lag_w[:, window:] = 0.0
        g0_weight[window:] = 0.0
    near_w = lag_w[:, block - 1:: -1].copy()
    near = [near_w[:, block - 1 - r:] for r in range(block)]
    spectra = {w: np.fft.rfft(lag_w[:, : 2 * w], 2 * w)[:, :, None]
               for w in (block << i for i in range(n.bit_length())) if w < n}
    far = np.zeros((2, n, dim))
    far[1] = g0_weight[:, None] * gs[0]
    del beta, c, a0, lag_w, g0_weight
    if window is None:
        del pow_a
    _abm_run(desc, cfg.corrector_iters)(
        states.reshape(-1).data, gs.reshape(-1).data, gs, far, near, spectra,
        np.empty((3, max(spectra, default=0) + 1, dim), complex),
        np.empty((2, dim)), grid, delayed, x0, n, h, pred_scale, corr_scale,
        *args)
    del far, spectra
    derivs = np.gradient(states, h, axis=0)
    meta = {"order": alpha, "scheme": "abm-pece",
            "corrector_iters": cfg.corrector_iters}
    if window is not None:
        meta["memory_window"] = window
        meta["memory_truncation_bound"] = _truncation_bound(
            gs, pred_scale, pow_a, window)
    return states, derivs, meta


def _truncation_bound(gs, pred_scale, pow_a, window: int) -> float:
    """max over nodes k > window of pred_scale*(k^alpha - window^alpha)
    times the largest |g_j| over j <= k: the weight mass a windowed
    predictor drops, times the largest slope it could have met.

    Both factors grow with k, so the maximum is at the last node, with the
    largest norm of all.  Each norm takes the dot of a stored row as
    ``g @ g`` does, which the stacked matmul repeats bit for bit (BLAS
    fuses its multiply-adds, so another sum of squares can differ in the
    last bit).
    """
    n = len(gs) - 1
    if n <= window:
        return 0.0
    largest = math.sqrt((gs[:, None, :] @ gs[:, :, None]).max())
    return float(pred_scale * (pow_a[n] - pow_a[window]) * largest)


def integrate_frac_abm(rhs, cfg: FracConfig, x0, t_end, *,
                       diagnostics=None) -> Trajectory:
    """Adams-Bashforth-Moulton predictor-corrector for D^alpha x = rhs(x).

    ``rhs`` maps a state, given as a list of floats on every call, to its
    Caputo derivative as any length-dim sequence.
    Product-rectangle predictor, product-trapezoid corrector, applied
    ``cfg.corrector_iters`` times (PECE by default), full memory unless a
    window is configured.  Node derivatives in the returned trajectory are
    finite-difference estimates: for fractional orders the classical slope
    is not directly available from the right-hand side.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = _n_steps(t_end, cfg.h)
    states, derivs, meta = _frac_loop(cfg, x0, n, rhs)
    diag = _compute_diagnostics(states, x0.size, diagnostics)
    return Trajectory(0.0, cfg.h, states, derivs, diag, meta=meta)


def integrate_frac_dde(rhs_pair, cfg: FracConfig, kernel, phi: HistorySpec,
                       t_end, *, diagnostics=None) -> Trajectory:
    """Fractional predictor-corrector with a Dirac or uniform delay.

    ``rhs_pair`` gets the state x and the delayed argument xd as lists of
    floats on every call and returns the Caputo derivative as any
    length-dim sequence.  The delayed argument at each node is the kernel
    average over the grid (Hermite-interpolated, finite-difference slopes)
    and phi, read as in :func:`integrate_dde`: a uniform kernel's exactly,
    at O(1) per node.  The current step's provisional value participates
    so short-range kernels see a consistent sliver.  A zero lag is no
    delay: the pair at xd = x runs the undelayed loop, bitwise the
    :func:`integrate_frac_abm` run of that field.  A gamma kernel raises
    ValueError: a Caputo state under integer-order chain stages is a
    mixed-order system that this scheme does not solve.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.
    """
    if isinstance(kernel, _kern.GammaKernel):
        raise ValueError(f"integrate_frac_dde takes no {kernel}: its chain "
                         "stages are of integer order")
    x0 = phi(0.0)
    n = _n_steps(t_end, cfg.h)
    grid = _RunningGrid(phi, 0.0, cfg.h, n, x0.size)
    # node k - 1's slope moves with each iterate of node k
    nodes = np.arange(n + 1)
    field, delayed = _lagged(rhs_pair, kernel, grid, nodes * cfg.h,
                             nodes - 2)
    states, derivs, meta = _frac_loop(cfg, x0, n, field, delayed, grid)
    diag = _compute_diagnostics(states, x0.size, diagnostics)
    return Trajectory(0.0, cfg.h, states, derivs, diag, meta=meta)


def trajectory_columns(core: int, diag_names, extra: int) -> list[str]:
    """Column labels of the CSV export.

    t, the ``core`` state components, the diagnostics, then ``extra``
    auxiliary components: chain stages eta<s>_<i> when they come in whole
    multiples of ``core`` (> 0), aux<i> otherwise.
    """
    cols = ["t"] + [f"x{i + 1}" for i in range(core)] + list(diag_names)
    if core and extra % core == 0:
        return cols + [f"eta{s + 1}_{i + 1}"
                       for s in range(extra // core) for i in range(core)]
    return cols + [f"aux{i + 1}" for i in range(extra)]


#: rows formatted per call of the formatter: the arrays of one chunk are
#: all the writer holds beyond the trajectory
_CSV_CHUNK = 256


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``traj`` as CSV, each float exactly as ``"%.17g" % x`` gives it.

    Columns: t, the core state components, the diagnostics, then any
    auxiliary chain stages.  An existing file is written over in place
    and cut at the end (``rigidmem._csvformat.rewritten``).  Each chunk of rows is gathered from the
    column sources and formatted in array passes (``rigidmem._csvformat``,
    imported on the first call).  A value's 17 digits are the nearest
    integer to P = |x|·10^(16-e), which the formatter carries as
    ph + pt: 10^q is the double-double hi + lo with relative error below
    2^-106, ph + err is the Dekker two-product |x|·hi without error, and
    pt, the rounded sum of err and the rounded |x|·lo, errs by at most
    2^-53 of each of these sizes, which stay below 20.  With P < 1e17 the
    total error is below 1e-14 of a unit in the 17th digit, so ph plus
    the nearest integer to pt is P's rounding unless P lies within that
    error of a half-integer: values whose pt lies within 1e-6 of one, all
    exact ties among them, are formatted by ``%`` one at a time, as are
    NaN, ±inf and |x| outside [1e-250, 1e250] (subnormals included).
    """
    from ._csvformat import RowFormatter, rewritten

    core = traj.core_dim
    cols = trajectory_columns(core, traj.diagnostics,
                              traj.states.shape[1] - core)
    sources = [traj.states[:, :core], *traj.diagnostics.values(),
               traj.states[:, core:]]
    fmt = RowFormatter(len(cols), _CSV_CHUNK)
    with rewritten(path) as fh:
        fh.write((",".join(cols) + "\n").encode())
        for lo in range(0, traj.n_samples, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, traj.n_samples)
            times = traj.t0 + traj.h * np.arange(lo, hi)
            fh.write(fmt(np.column_stack(
                [times, *(col[lo: hi] for col in sources)])))
