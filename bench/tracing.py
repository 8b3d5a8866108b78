"""Spans around rigidmem's public functions, installed from outside.

The tracer replaces module attributes (``rigidmem.models.rhs_classical``,
``rigidmem.cli.integrate_rk4``, ...) with wrappers that record one span
per call: name, start, end, parent span and job id, plus a work count
where the boundary knows one (integrator steps, CSV rows, quadrature
nodes, contour evaluations).  Spans live in flat arrays in memory and are
written out once, at the end of the run.  ``uninstall`` puts every
original function back, so untraced passes run the unmodified program.

``rigidmem.fraccalc`` and ``rigidmem.errors`` are on no CLI path and are
not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from array import array

import numpy as np

OK, DIVERGED, RUNTIME_ERROR, OTHER_ERROR = 0, 1, 2, 3

#: layer -> wrapped public names; "integrators" names are the ones cli calls
TRACED = {
    "cli": ("_build_parser", "parse_config", "cmd_simulate", "cmd_stability",
            "cmd_scan"),
    "models": ("rhs_classical", "rhs_revised", "rhs_delayed",
               "rhs_revised_delayed", "rhs_ep_delayed", "hamiltonian",
               "casimir"),
    "integrators": ("integrate_rk4", "integrate_dde", "integrate_chain",
                    "integrate_frac_abm", "integrate_frac_dde",
                    "write_trajectory_csv"),
    "kernels": ("convolve_history", "laplace"),
    "stability": ("count_rhp_roots", "critical_delay_scan", "char_ep_eval",
                  "frac_delay_char_eval", "matignon_classify",
                  "char_frac_equilibrium", "scalar_frac_delay_check",
                  "planar_frac_delay_check", "tau_c_formula"),
}

JOB = "bench.job"


class Tracer:
    """One pass worth of spans."""

    def __init__(self, rigidmem_modules: dict):
        self.mods = rigidmem_modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.status = array("b")
        self.extra: dict[int, dict] = {}
        self._stack = [-1]
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.work.append(0.0)
        self.status.append(OK)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, status: int = OK) -> None:
        self.end[idx] = time.perf_counter()
        self.status[idx] = status
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) under a root span tagged with ``job_id``."""
        self._job = job_id
        idx = self.open(self._name_id(JOB))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- installation -----------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, probe=None, arg_hook=None):
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        diverged = self.mods["errors"].DivergenceError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            if arg_hook is not None:
                args = arg_hook(self, idx, args)
            result, status, exc = None, OK, None
            try:
                result = fn(*args, **kwargs)
                return result
            except diverged as err:
                status, exc = DIVERGED, err
                raise
            except RuntimeError as err:
                status, exc = RUNTIME_ERROR, err
                raise
            except Exception as err:
                status, exc = OTHER_ERROR, err
                raise
            finally:
                self.close(idx, status)
                if probe is not None:
                    probe(self, idx, args, kwargs, result, exc)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def install(self) -> None:
        m = self.mods
        probes = {"integrate_rk4": _steps_probe(3),
                  "integrate_dde": _steps_probe(4),
                  "integrate_chain": _steps_probe(4),
                  "integrate_frac_abm": _abm_probe(lambda a: np.size(a[2])),
                  "integrate_frac_dde": _abm_probe(lambda a: a[3].dim),
                  "write_trajectory_csv": _csv_probe,
                  "convolve_history": _quad_probe(m["kernels"]),
                  "count_rhp_roots": _contour_probe(m["stability"])}
        hooks = {"count_rhp_roots": _count_evals}
        for layer, attrs in TRACED.items():
            owner = m["cli"] if layer == "integrators" else m[layer]
            for attr in attrs:
                self._wrap(owner, attr, f"{layer}.{attr.lstrip('_')}",
                           probes.get(attr), hooks.get(attr))
        # integrate_chain reaches RK4 through the integrators module itself
        self._wrap(m["integrators"], "integrate_rk4",
                   "integrators.integrate_rk4", probes["integrate_rk4"])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "work": np.frombuffer(self.work),
                "status": np.frombuffer(self.status, dtype=np.int8)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


# --- work probes -------------------------------------------------------------

def _completed_steps(result, exc, h) -> int:
    if result is not None:
        return result.n_samples - 1
    if exc is not None and getattr(exc, "t_last", None) is not None:
        return int(round(exc.t_last / h))
    return 0


def _steps_probe(h_index: int):
    def probe(tr, idx, args, kwargs, result, exc):
        tr.work[idx] = _completed_steps(result, exc, args[h_index])
    return probe


def _abm_probe(dim_of):
    def probe(tr, idx, args, kwargs, result, exc):
        cfg = args[1]
        steps = _completed_steps(result, exc, cfg.h)
        tr.work[idx] = steps
        tr.extra[idx] = {"n": steps, "dim": int(dim_of(args)),
                         "window": cfg.memory_window}
    return probe


def _csv_probe(tr, idx, args, kwargs, result, exc):
    tr.work[idx] = args[0].n_samples
    tr.extra[idx] = {"bytes": os.path.getsize(args[1])}


def _quad_probe(kernels):
    def probe(tr, idx, args, kwargs, result, exc):
        kernel, _, _, quad_step = args
        if isinstance(kernel, kernels.DiracKernel):
            tr.work[idx] = 1
            return
        lo, hi = kernels.effective_support(kernel)
        n = max(2, int(math.ceil((hi - lo) / quad_step)))
        tr.work[idx] = n + 1 + n % 2
    return probe


def _count_evals(tr, idx, args):
    f = args[0]

    def counted(z):
        tr.work[idx] += 1
        return f(z)

    return (counted,) + tuple(args[1:])


def _contour_probe(stability):
    default = inspect.signature(stability.count_rhp_roots).parameters[
        "samples_per_edge"].default

    def probe(tr, idx, args, kwargs, result, exc):
        tr.extra[idx] = {"samples_per_edge":
                         kwargs.get("samples_per_edge", default)}
    return probe


# --- per-layer metrics -------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.parse_s", "s"),
    ("models.rhs_calls", "count"), ("models.rhs_s", "s"),
    ("models.rhs_us_per_call", "us"),
    ("models.diag_calls", "count"), ("models.diag_s", "s"),
    ("integrators.rk4_self_s", "s"), ("integrators.rk4_steps", "count"),
    ("integrators.rk4_us_per_step", "us"),
    ("integrators.dde_self_s", "s"), ("integrators.dde_steps", "count"),
    ("integrators.dde_lookups", "count"),
    ("integrators.dde_us_per_lookup", "us"),
    ("integrators.abm_self_s", "s"), ("integrators.abm_steps", "count"),
    ("integrators.abm_memory_macs", "count"),
    ("integrators.abm_memory_bytes", "B"),
    ("integrators.abm_cost_exponent", "1"),
    ("integrators.csv_s", "s"), ("integrators.csv_rows", "count"),
    ("integrators.csv_bytes", "B"), ("integrators.csv_mb_per_s", "MB/s"),
    ("integrators.divergences", "count"),
    ("kernels.convolve_calls", "count"), ("kernels.convolve_s", "s"),
    ("kernels.quad_nodes", "count"), ("kernels.laplace_calls", "count"),
    ("stability.contour_calls", "count"),
    ("stability.contour_f_evals", "count"),
    ("stability.contour_refinements", "count"),
    ("stability.contour_s", "s"), ("stability.contour_failures", "count"),
    ("stability.crossing_scan_calls", "count"),
    ("stability.crossing_scan_s", "s"),
    ("stability.char_evals", "count"), ("stability.sector_s", "s"),
    ("trace.overhead_s", "s"),
)

#: delayed-argument evaluations per method-of-steps RK4 step (k2, k3, k4
#: and the accepted node's slope)
DDE_STAGES = 4

#: bytes the ABM memory sums read per multiply-add: one float64 weight and
#: one float64 history value (computed, not measured)
ABM_BYTES_PER_MAC = 16

#: share of a job's traced wall time its top-level spans must cover, and
#: the absolute slack allowed on top (argument parsing and file reads of
#: the CLI are not wrapped)
COVERAGE_SHARE = 0.9
COVERAGE_SLACK_S = 0.002


def abm_macs(n: int, dim: int, window) -> int:
    """Multiply-adds of the predictor and corrector memory sums over n steps,
    following the ABM loop's summation ranges."""
    total = 0
    for step in range(n):
        j0 = 0 if window is None else max(0, step + 1 - window)
        jc = 1 if j0 == 0 else j0
        total += (step + 1 - j0) + max(0, step - jc + 1)
    return total * dim


def per_layer(tr: Tracer) -> tuple[dict, dict]:
    """Per-layer metric values and the facts behind the computed ones."""
    a = tr.arrays()
    names = list(a["names"])
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = dur.size
    child = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
    self_t = dur - child
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def mask(*wanted):
        return np.isin(name, ids(*wanted))

    rhs_ids = ids(*(f"models.{r}" for r in TRACED["models"]
                    if r.startswith("rhs_")))
    rhs = np.isin(name, rhs_ids) & ~np.isin(parent_name, rhs_ids)
    rk4 = mask("integrators.integrate_rk4")
    dde = mask("integrators.integrate_dde")
    abm = mask("integrators.integrate_frac_abm", "integrators.integrate_frac_dde")
    csv = mask("integrators.write_trajectory_csv")
    integ_ids = ids(*(f"integrators.{i}" for i in TRACED["integrators"]
                      if i.startswith("integrate_")))
    integ_top = np.isin(name, integ_ids) & ~np.isin(parent_name, integ_ids)
    conv = mask("kernels.convolve_history")
    contour = mask("stability.count_rhp_roots")
    crossing = mask("stability.critical_delay_scan")

    abm_runs = [tr.extra[i] for i in np.flatnonzero(abm)]
    macs = sum(abm_macs(r["n"], r["dim"], r["window"]) for r in abm_runs)
    csv_bytes = sum(tr.extra[i]["bytes"] for i in np.flatnonzero(csv))
    initial = sum(4 * (tr.extra[i]["samples_per_edge"] + 1)
                  for i in np.flatnonzero(contour))
    fit = _cost_fit(tr, np.flatnonzero(mask("integrators.integrate_frac_abm")),
                    self_t, a["status"])

    def ratio(num, den, scale=1.0):
        return float(num) / float(den) * scale if den else 0.0

    m = {
        "cli.parse_s": dur[mask("cli.parse_config")].sum(),
        "models.rhs_calls": int(rhs.sum()),
        "models.rhs_s": dur[rhs].sum(),
        "models.diag_calls": int(mask("models.hamiltonian",
                                      "models.casimir").sum()),
        "models.diag_s": dur[mask("models.hamiltonian",
                                  "models.casimir")].sum(),
        "integrators.rk4_self_s": self_t[rk4].sum(),
        "integrators.rk4_steps": int(a["work"][rk4].sum()),
        "integrators.dde_self_s": self_t[dde].sum(),
        "integrators.dde_steps": int(a["work"][dde].sum()),
        "integrators.abm_self_s": self_t[abm].sum(),
        "integrators.abm_steps": int(a["work"][abm].sum()),
        "integrators.abm_memory_macs": macs,
        "integrators.abm_memory_bytes": macs * ABM_BYTES_PER_MAC,
        "integrators.abm_cost_exponent": fit.get("exponent", 0.0),
        "integrators.csv_s": dur[csv].sum(),
        "integrators.csv_rows": int(a["work"][csv].sum()),
        "integrators.csv_bytes": csv_bytes,
        "integrators.divergences": int(
            (integ_top & (a["status"] == DIVERGED)).sum()),
        "kernels.convolve_calls": int(conv.sum()),
        "kernels.convolve_s": dur[conv].sum(),
        "kernels.quad_nodes": int(a["work"][conv].sum()),
        "kernels.laplace_calls": int(mask("kernels.laplace").sum()),
        "stability.contour_calls": int(contour.sum()),
        "stability.contour_f_evals": int(a["work"][contour].sum()),
        "stability.contour_refinements": int(a["work"][contour].sum())
        - initial,
        "stability.contour_s": dur[contour].sum(),
        "stability.contour_failures": int(
            (contour & (a["status"] == RUNTIME_ERROR)).sum()),
        "stability.crossing_scan_calls": int(crossing.sum()),
        "stability.crossing_scan_s": dur[crossing].sum(),
        "stability.char_evals": int(mask("stability.char_ep_eval",
                                         "stability.frac_delay_char_eval")
                                    .sum()),
        "stability.sector_s": dur[mask("stability.matignon_classify",
                                       "stability.char_frac_equilibrium")]
        .sum(),
    }
    m["models.rhs_us_per_call"] = ratio(m["models.rhs_s"],
                                        m["models.rhs_calls"], 1e6)
    m["integrators.rk4_us_per_step"] = ratio(m["integrators.rk4_self_s"],
                                             m["integrators.rk4_steps"], 1e6)
    m["integrators.dde_lookups"] = DDE_STAGES * m["integrators.dde_steps"]
    m["integrators.dde_us_per_lookup"] = ratio(
        m["integrators.dde_self_s"], m["integrators.dde_lookups"], 1e6)
    m["integrators.csv_mb_per_s"] = ratio(m["integrators.csv_bytes"],
                                          m["integrators.csv_s"], 1e-6)
    m = {k: (float(v) if isinstance(v, (float, np.floating)) else int(v))
         for k, v in m.items()}
    facts = {"abm_cost_fit": fit, "coverage": _coverage(a, dur, child),
             "spans": int(n)}
    return m, facts


def _cost_fit(tr: Tracer, idx, self_t, status) -> dict:
    """Least-squares slope of log(ABM self time) against log(N), full memory."""
    points = [(tr.extra[i]["n"], float(self_t[i])) for i in idx
              if tr.extra[i]["window"] is None and status[i] == OK]
    sizes = sorted({n for n, _ in points})
    if len(sizes) < 3:
        return {"points": points, "note": "fewer than 3 history lengths"}
    x = np.log([n for n, _ in points])
    y = np.log([t for _, t in points])
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    r2 = 1 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    return {"exponent": float(slope), "intercept": float(icpt), "r2": r2,
            "points": [{"n": n, "self_s": t} for n, t in points],
            "model": "log(self_s) = exponent * log(N) + intercept"}


def _coverage(a: dict, dur, child) -> dict:
    """Per job: how much of the root span its top-level spans account for."""
    names = list(a["names"])
    roots = np.flatnonzero(a["name"] == names.index(JOB)) if JOB in names \
        else np.array([], dtype=int)
    uncovered = dur[roots] - child[roots]
    allowed = (1 - COVERAGE_SHARE) * dur[roots] + COVERAGE_SLACK_S
    bad = sorted(int(a["job"][r]) for r, u, lim in zip(roots, uncovered,
                                                        allowed) if u > lim)
    return {"rule": f"uncovered <= {1 - COVERAGE_SHARE:.2f} * job wall + "
                    f"{COVERAGE_SLACK_S} s",
            "jobs": int(roots.size),
            "covered_share": float(child[roots].sum() / dur[roots].sum())
            if roots.size else 0.0,
            "worst_uncovered_s": float(uncovered.max()) if roots.size else 0.0,
            "violating_jobs": bad}
