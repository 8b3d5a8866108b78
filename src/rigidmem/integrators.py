"""Time-stepping engines with dense trajectory output and diagnostics.

Four integration paths are provided:

* classical fixed-step RK4 for ordinary systems,
* method-of-steps RK4 for distributed-delay systems, where the delayed
  argument is read in batches from the stored trajectory (cubic Hermite
  dense output) and the initial function,
* an exact ODE chain augmentation for exponential and Erlang kernels,
* the fractional Adams-Bashforth-Moulton predictor-corrector for Caputo
  systems, with and without a delayed argument.

Every path steps over Python floats: a field gets the state, and a delayed
field also the delayed argument, as a list of floats, and may return any
length-dim sequence.

Every integrator emits a :class:`Trajectory`: uniformly spaced samples with
a derivative estimate per node and per-sample diagnostics recomputed from
the states (never accumulated).  A diagnostic maps the (dim, M)
component-major state table to M values, so that ``x1, x2, x3 = x`` works
for one state and for a table; each runs once per trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kern
from .errors import DivergenceError, HistoryCoverageError

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


def _check_state(x, t: float) -> None:
    # NaN fails the comparison and an overflowing square gives inf, so this
    # also rejects non-finite and overflowing states
    if not math.sqrt(sum(v * v for v in x)) <= DIVERGENCE_NORM:
        raise DivergenceError(
            f"state diverged; last valid time t = {t:.6g}", t_last=t)


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


def _rk4_loop(field, grid: _RunningGrid, x0: list, n: int, h: float) -> None:
    """Node 0 and classical RK4 steps 0..n-1 for dx/dt = field(i, x).

    ``x0`` and every state ``field`` gets are lists of floats; the
    stages are formed componentwise in the order of the array form, so the
    result is the same to the bit.  ``i`` numbers the field's times as
    :func:`_rk4_lookups` lists them.  Each new node is put with its k4
    slope, so that a delayed lookup inside ``field`` at the new node sees
    the finished step; its own slope then replaces k4.
    """
    half = 0.5 * h
    sixth = h / 6.0
    put, derivs = grid.put, grid.derivs
    x = x0
    k1 = field(0, x)
    put(0, x, k1)
    for k in range(n):
        k2 = field(2 * k + 1, [a + half * b for a, b in zip(x, k1)])
        k3 = field(2 * k + 1, [a + half * b for a, b in zip(x, k2)])
        k4 = field(2 * k + 2, [a + h * b for a, b in zip(x, k3)])
        x = [a + sixth * (b + 2.0 * (c + d) + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        _check_state(x, k * h)
        put(k + 1, x, k4)
        k1 = derivs[k + 1] = field(2 * k + 2, x)


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
    _rk4_loop(lambda i, x: rhs(x), grid, x0.tolist(), n, h)
    core = x0.size if core_dim is None else core_dim
    diag = _compute_diagnostics(grid.states, core, diagnostics)
    return Trajectory(0.0, h, grid.states, grid.derivs, diag, core_dim=core)


#: most history points one batched lookup evaluates, so that a long lag or
#: a wide kernel does not scale the lookahead's memory
_LOOKAHEAD_POINTS = 1 << 12


def _stage_state(i, x):
    """The delayed argument of a zero-lag Dirac kernel: the stage state."""
    return x


def _delayed_argument(kernel, grid: _RunningGrid, quad_step, times, final):
    """The delayed argument xd(i, stage_state) over ``grid``, chosen once.

    Lookup i is at time ``times[i]`` (nondecreasing), when nodes up to
    ``final[i]`` hold their final state and slope.  A zero-lag Dirac kernel
    returns the stage state itself, so the run reduces bitwise to the
    delay-free scheme; a Dirac kernel samples the lagged time; any other
    kernel averages the history by quadrature with ``quad_step`` (by default
    h, at most 1/16 of the support).  A lookup that reads only final nodes
    is evaluated in one batch with the next such lookups and served from
    it; any other alone.  Hermite evaluation is elementwise, so each value
    is bitwise that of a lone lookup.  Values are lists of floats.
    """
    if isinstance(kernel, _kern.DiracKernel):
        if kernel.lag == 0.0:
            return _stage_state
        lags, wd = np.array([kernel.lag]), None
    else:
        if quad_step is None:
            lo, hi = _kern.effective_support(kernel)
            quad_step = min(grid.h, (hi - lo) / 16.0) if hi > lo else grid.h
        lags, wd = _kern.quadrature_rule(kernel, quad_step)
    span = max(1, _LOOKAHEAD_POINTS // lags.size)
    first, block = 0, []

    def lookup(i, x):
        nonlocal first, block
        if 0 <= i - first < len(block):
            return block[i - first]
        ts = times[i: i + span]
        ready = int(np.count_nonzero(
            ts - lags[0] <= grid.t0 + max(final[i], 0) * grid.h))
        us = ts[: max(ready, 1), None] - lags
        # lookups wholly in the past get phi's own layout (a constant's has
        # stride 0): it sets the summation order of the matrix product
        n_past = int(np.count_nonzero(us[:, 0] <= grid.t0))
        values = []
        for part in (us[:n_past], us[n_past:]):
            if part.size:
                rows = grid.eval_many(part.ravel()).reshape(*part.shape, -1)
                values += (rows[:, 0].tolist() if wd is None
                           else [(wd @ r).tolist() for r in rows])
        first, block = i, values[:ready]
        return values[0]

    return lookup


def integrate_dde(rhs_pair, kernel, phi: HistorySpec, t_end, h, *,
                  quad_step=None, diagnostics=None) -> Trajectory:
    """Method-of-steps RK4 for dx/dt = rhs_pair(x, xd) with delayed xd.

    ``rhs_pair`` gets the state x and the delayed argument xd as lists of
    floats on every call (xd is x itself at zero lag) and returns the
    derivative as any length-dim sequence.

    At every stage the delayed argument xd is the kernel-weighted average
    of the stored trajectory and phi; Dirac kernels sample the lagged time
    exactly, and a zero-lag Dirac kernel substitutes the stage state itself
    so the run reduces bitwise to the ordinary RK4 path.  With support from
    lag >= h, the stages of the next lag/h steps are read in one batch.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.
    """
    x0 = phi(0.0)
    n = _n_steps(t_end, h)
    grid = _RunningGrid(phi, 0.0, h, n, x0.size)
    delayed = _delayed_argument(kernel, grid, quad_step, *_rk4_lookups(n, h))

    def field(i, x):
        return rhs_pair(x, delayed(i, x))

    _rk4_loop(field, grid, x0.tolist(), n, h)
    diag = _compute_diagnostics(grid.states, x0.size, diagnostics)
    return Trajectory(0.0, h, grid.states, grid.derivs, diag)


def integrate_chain(rhs_pair, chain: _kern.ChainSpec, phi: HistorySpec,
                    t_end, h, *, quad_step=None,
                    diagnostics=None) -> Trajectory:
    """Exact chain augmentation for exponential/Erlang delayed systems.

    Auxiliary stages obey eta1' = rate*(x - eta1), eta2' = rate*(eta1 -
    eta2); the delayed argument is the last stage.  Initial stage values
    are the kernel-weighted averages of phi.  ``rhs_pair`` gets x and the
    last stage as lists of floats and returns the derivative as any
    length-dim sequence.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.  The table
    holds the model components only, never the stages.
    """
    if not isinstance(chain, _kern.ChainSpec):
        raise TypeError("chain must come from chain_reduce()")
    x0 = phi(0.0)
    dim = x0.size
    rate = chain.rate
    if phi.is_constant:
        stage0 = [x0.copy() for _ in range(chain.stages)]
    else:
        stage_kernels = [_kern.ExponentialKernel(rate),
                         _kern.ErlangKernel(rate)][:chain.stages]
        qs = quad_step
        if qs is None:
            qs = _kern.effective_support(stage_kernels[-1])[1] / 256.0
        stage0 = [_kern.convolve_history(kern, phi, 0.0, qs)
                  for kern in stage_kernels]
    y0 = np.concatenate([x0] + stage0)

    # y = (x, eta1[, eta2]): stage s relaxes towards the one before it
    def aug_rhs(y):
        return (*rhs_pair(y[:dim], y[-dim:]),
                *[rate * (a - b) for a, b in zip(y[:-dim], y[dim:])])

    return integrate_rk4(aug_rhs, y0, t_end, h,
                         diagnostics=diagnostics, core_dim=dim)


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
    """
    k = np.arange(n_steps + 2, dtype=float)
    pow_a = k**alpha
    pow_a1 = k ** (alpha + 1)
    beta = np.diff(pow_a[:-1])
    c = pow_a1[2:] + pow_a1[:-2] - 2.0 * pow_a1[1:-1]
    a0 = pow_a1[:-2] - (k[:-2] - alpha) * pow_a[1:-1]
    return pow_a, beta, c, a0


#: nodes per diagonal block of the memory sums (a power of two); pairs of
#: nodes within one block are summed directly, all others by FFT squares
_MEMORY_BLOCK = 64


def _add_square(far, gs, spectra, s: int) -> None:
    """Add the lag sums of the inputs [s - L, s) to the outputs [s, s + L).

    ``s`` is a multiple of the block size and L = lowbit(s), so every pair
    of an input and a later output in another block falls in exactly one
    square, and a square's inputs are complete when its first output is
    due (Hairer, Lubich & Schlichte 1985).  Its lags lie in [1, 2L), so a
    circular convolution of length 2L with the lag weights 0..2L-1, whose
    spectra ``spectra[L]`` holds, leaves them unaliased at L..2L-1.  One
    forward transform serves both weight columns.
    """
    width = s & -s
    m = min(width, far.shape[0] - s)
    g_hat = np.fft.rfft(gs[s - width: s], 2 * width, axis=0)
    conv = np.fft.irfft(spectra[width][:, :, None] * g_hat[:, None, :],
                        2 * width, axis=0)
    far[s: s + m] += conv[width: width + m]


def _frac_loop(cfg: FracConfig, x0: np.ndarray, n: int, eval_g):
    """Shared PECE loop over nodes 0..n.

    eval_g(k, x) returns the Caputo right-hand side at ``x`` taken as the
    value of node k: node 0, then for each new node its predicted and
    corrected iterates and finally its accepted value.  ``x`` is a list of
    floats and the result any length-dim sequence; the predictor and
    corrector are formed componentwise in the order of the array form, so
    the result is the same to the bit.

    Step s needs the lag sums sum_j w[s - j] g_j over j <= s of the
    predictor and corrector weights (zero at lags >= memory_window).
    ``far[s]`` collects the terms from blocks before the block of s, added
    by :func:`_add_square` at each block start, so the run costs
    O(n log^2 n); the terms within the block are summed directly.  The
    corrector's left-endpoint weight a0 replaces c at j = 0, which
    ``far`` carries from the start as (a0[s] - c[s]) * g_0.
    """
    h = cfg.h
    alpha = cfg.order
    block = _MEMORY_BLOCK
    pow_a, beta, c, a0 = _abm_weights(alpha, max(n, block))
    pred_scale = h**alpha / math.gamma(alpha + 1.0)
    corr_scale = h**alpha / math.gamma(alpha + 2.0)
    window = cfg.memory_window
    lag_w = np.stack([beta, c], axis=1)
    g0_weight = a0[:n] - c[:n]
    if window is not None:
        lag_w[window:] = 0.0
        g0_weight[window:] = 0.0
    near_w = lag_w[block - 1:: -1].T.copy()
    spectra = {}
    width = block
    while width < n:
        spectra[width] = np.fft.rfft(lag_w[: 2 * width], 2 * width, axis=0)
        width *= 2
    dim = x0.size
    states = np.empty((n + 1, dim))
    gs = np.empty((n + 1, dim))
    x0 = states[0] = x0.tolist()
    gs[0] = eval_g(0, x0)
    far = np.zeros((n, 2, dim))
    far[:, 1] = g0_weight[:, None] * gs[0]
    trunc_bound = 0.0
    # the norms take numpy's dot of the stored row: BLAS fuses its
    # multiply-adds, so a sum of Python float squares can differ in the
    # last bit
    max_g_norm = math.sqrt(float(gs[0] @ gs[0]))
    for step in range(n):
        r = step % block
        if r == 0 and step:
            _add_square(far, gs, spectra, step)
        pred, hist = (far[step] + near_w[:, block - 1 - r:]
                      @ gs[step - r: step + 1]).tolist()
        xc = [a + pred_scale * b for a, b in zip(x0, pred)]
        for _ in range(cfg.corrector_iters):
            xc = [a + corr_scale * (b + c)
                  for a, b, c in zip(x0, eval_g(step + 1, xc), hist)]
        _check_state(xc, step * h)
        states[step + 1] = xc
        gs[step + 1] = eval_g(step + 1, xc)
        if window is not None:
            g = gs[step + 1]
            max_g_norm = max(max_g_norm, math.sqrt(float(g @ g)))
            if step + 1 > window:
                dropped_mass = pred_scale * (pow_a[step + 1] - pow_a[window])
                trunc_bound = max(trunc_bound, dropped_mass * max_g_norm)
    derivs = np.gradient(states, h, axis=0)
    meta = {"order": alpha, "scheme": "abm-pece",
            "corrector_iters": cfg.corrector_iters}
    if window is not None:
        meta["memory_window"] = window
        meta["memory_truncation_bound"] = trunc_bound
    return states, derivs, meta


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
    states, derivs, meta = _frac_loop(cfg, x0, n, lambda k, x: rhs(x))
    diag = _compute_diagnostics(states, x0.size, diagnostics)
    return Trajectory(0.0, cfg.h, states, derivs, diag, meta=meta)


def integrate_frac_dde(rhs_pair, cfg: FracConfig, kernel, phi: HistorySpec,
                       t_end, *, quad_step=None,
                       diagnostics=None) -> Trajectory:
    """Fractional predictor-corrector with a distributed-delay argument.

    ``rhs_pair`` gets the state x and the delayed argument xd as lists of
    floats on every call and returns the Caputo derivative as any
    length-dim sequence.  The delayed argument at each node is the kernel
    average over the grid (Hermite-interpolated, finite-difference slopes)
    and phi; the current step's provisional value participates so
    short-range kernels see a consistent sliver.  A zero-lag Dirac kernel
    passes x itself as xd, which reduces the scheme bitwise to
    :func:`integrate_frac_abm`.
    ``diagnostics`` maps names to functions called once on the whole run: a
    diagnostic maps the (dim, M) component-major state table to M values;
    ``x1, x2, x3 = x`` works for one state and for a table.
    """
    x0 = phi(0.0)
    n = _n_steps(t_end, cfg.h)
    grid = _RunningGrid(phi, 0.0, cfg.h, n, x0.size)
    # node k - 1's slope moves with each iterate of node k
    nodes = np.arange(n + 1)
    delayed = _delayed_argument(kernel, grid, quad_step, nodes * cfg.h,
                                nodes - 2)

    if delayed is _stage_state:
        # zero lag: no lookup reads the grid, so it is never written
        def eval_g(k, x):
            return rhs_pair(x, x)
    else:
        def eval_g(k, x):
            grid.put(k, x)
            return rhs_pair(x, delayed(k, x))

    states, derivs, meta = _frac_loop(cfg, x0, n, eval_g)
    diag = _compute_diagnostics(states, x0.size, diagnostics)
    return Trajectory(0.0, cfg.h, states, derivs, diag, meta=meta)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def trajectory_columns(core: int, diag_names, extra: int) -> list[str]:
    """Column labels of the CSV export.

    t, the ``core`` state components, the diagnostics, then ``extra``
    auxiliary components: chain stages eta<s>_<i> when they come in whole
    multiples of ``core``, aux<i> otherwise.
    """
    cols = ["t"] + [f"x{i + 1}" for i in range(core)] + list(diag_names)
    if extra % core == 0:
        return cols + [f"eta{s + 1}_{i + 1}"
                       for s in range(extra // core) for i in range(core)]
    return cols + [f"aux{i + 1}" for i in range(extra)]


#: rows formatted per write: beyond one float table, the Python floats and
#: strings of one chunk are all the writer holds (larger chunks are no
#: faster)
_CSV_CHUNK = 256


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``traj`` as CSV with 17-significant-digit decimal floats.

    Columns: t, the core state components, the diagnostics, then any
    auxiliary chain stages.  Output is byte-deterministic for identical
    trajectories.
    """
    core = traj.core_dim
    cols = trajectory_columns(core, traj.diagnostics,
                              traj.states.shape[1] - core)
    table = np.column_stack([traj.times, traj.states[:, :core],
                             *traj.diagnostics.values(),
                             traj.states[:, core:]])
    row_fmt = ",".join(["%.17g"] * len(cols))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, len(table), _CSV_CHUNK):
            rows = table[lo: lo + _CSV_CHUNK].tolist()
            fh.write("\n".join([row_fmt % tuple(row) for row in rows]) + "\n")
