"""Command-line front end: simulate, stability, scan.

Configs are line-oriented ``key = value`` files grouped into ``[section]``
blocks (full-line ``#`` comments allowed).  Sections:

``[system]``
    ``kind`` plus its parameters.  Rigid-body kinds (``classical``,
    ``revised``, ``delayed``, ``revised-delayed``, ``fractional``,
    ``fractional-revised``) take ``a1 > a2 > a3 > 0``; ``ep-delayed``
    takes ``I1 > I2 > I3 > 0``, ``coupling`` and ``m``; ``scalar-18``
    takes ``a``; ``planar-19`` takes ``k1`` and ``k2``.
``[kernel]``
    Required for the delayed kinds: ``kind`` one of ``uniform`` (``offset``,
    ``width``), ``exponential`` (``rate``), ``erlang`` (``rate``), ``dirac``
    (``lag``).  The scalar/planar benchmarks require ``dirac``.
``[fractional]``
    Required for the fractional kinds: ``order``; optional
    ``corrector_iterations`` (1..5) and ``memory`` (``full`` or a window
    length in nodes).
``[run]``
    ``x0`` (comma-separated components, also the constant history),
    ``t_end`` (0 or a whole number of steps), ``step``; optional
    ``quad_step`` (> 0), which is validated and has no effect.
``[output]``
    Optional ``path`` (the ``--out`` flag wins).
``[stability]``
    Optional ``equilibrium`` (``M1``/``M2``/``M3``) and ``m`` for the
    rigid-body kinds without a delay (``classical`` and ``revised`` are
    classified at order 1); not allowed for any other kind.
``[scan]``
    ``axis`` (``tau``/``alpha``/``m``), ``min``, ``max``, ``steps``; only
    for a kind with a stability report.

Every number must be finite.  Values can be overridden with ``--set
section.key=value``.  Summaries go to standard output; data goes only to
files.  Exit codes: 0 success, 2 validation error, 3 integrator
divergence.  Every config message names where its value came from:
``line N``, or ``--set`` for an override (``config`` when the whole
section is absent).

A system kind is defined by its ``_KINDS`` entry alone: parse, simulate,
stability and scan read everything they know about a kind from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels as _kern
from . import models as _models
from . import stability as _stab
from .errors import ConfigError, DivergenceError
from .integrators import (FracConfig, HistorySpec, _whole_steps,
                          integrate_chain, integrate_dde, integrate_frac_abm,
                          integrate_frac_dde, integrate_rk4,
                          trajectory_columns, write_trajectory_csv)

__all__ = ["RunConfig", "ScanSpec", "parse_config", "cmd_simulate",
           "cmd_stability", "cmd_scan", "main"]

_KNOWN_SECTIONS = ("system", "kernel", "fractional", "run", "output",
                   "stability", "scan")


@dataclass(frozen=True)
class ScanSpec:
    axis: str
    lo: float
    hi: float
    steps: int


@dataclass(frozen=True)
class RunConfig:
    kind: str
    params: object  # built by the kind's ``_Kind.params``
    kernel: object | None
    frac: FracConfig | None
    x0: np.ndarray
    t_end: float
    step: float
    out: str | None
    equilibrium: str
    eq_m: float
    scan: ScanSpec | None


@dataclass(frozen=True)
class _Kind:
    """Everything the CLI knows about one system kind.

    ``params(*values)`` builds the parameters from the ``[system]`` values
    of ``keys``.  A kind has either ``rhs(params)``, a field x -> dx/dt (or
    the Caputo derivative when ``fractional``), or ``pair(params)``, a
    delayed field (x, xd) -> dx/dt.  A kind with a ``pair`` needs a
    ``[kernel]``, a dirac one if it is also fractional, and a kind with an
    ``rhs`` reads ``[stability]``.  ``report(cfg)`` gives the stability
    report, and a kind without one cannot scan; ``set_m(cfg, m)`` moves
    the scan's m axis.  ``diagnostics(params)`` names the CSV's
    invariant columns: a diagnostic maps the (dim, M) component-major
    state table to M values; ``x1, x2, x3 = x`` works for one state and
    for a table.
    """

    keys: tuple[str, ...]
    params: Callable
    rhs: Callable | None = None
    pair: Callable | None = None
    fractional: bool = False
    dim: int = 3
    diagnostics: Callable = lambda params: {}
    report: Callable | None = None
    set_m: Callable | None = None


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _rigid_diagnostics(p):
    return {"h": lambda x: _models.hamiltonian(p, x), "c": _models.casimir}


def _inertia_diagnostics(s):
    inertia = np.array([s.I1, s.I2, s.I3])[:, None]

    def dot(u, v):
        # one length-3 dot per column: a stacked matmul sums each like
        # np.dot on one state, bit for bit (a plain sum(axis=0) does not)
        return (u.T[:, None, :] @ v.T[:, :, None])[:, 0, 0]

    def energy(x):
        return 0.5 * dot(inertia * x, x)

    def momentum_c(x):
        m = inertia * x
        return 0.5 * dot(m, m)

    return {"h": energy, "c": momentum_c}


#: the delayed Caputo benchmarks: x' = a xd, and a planar system whose
#: lagged term crosses from x1 into x2
_SCALAR_18 = _models.FieldDescription("scalar-18", 1, True, ("a",), (), (),
                                      ("a * xd1",))
_PLANAR_19 = _models.FieldDescription(
    "planar-19", 2, True, ("k1", "k2"), ("k12 = -(k1 + k2)",), (),
    ("x2 - k1 * x1", "k12 * x2 + xd1"))


def _lagged_cross_pair(k):
    return _PLANAR_19.bind(*k)


def _sector_report(cfg: RunConfig, revised: bool) -> _stab.StabilityReport:
    q = _stab.char_frac_equilibrium(cfg.params, cfg.equilibrium, cfg.eq_m,
                                    revised=revised)
    rep = _stab.matignon_classify(q, cfg.frac.order if cfg.frac else 1.0)
    rep.metadata["char_poly"] = f"w^2 + ({_fmt(q.c1)})*w + ({_fmt(q.c0)})"
    rep.metadata["equilibrium"] = cfg.equilibrium
    return rep


def _rigid(**fields) -> _Kind:
    return _Kind(keys=("a1", "a2", "a3"), params=_models.RigidBodyParams,
                 diagnostics=_rigid_diagnostics, **fields)


def _sector_kind(rhs, revised: bool, fractional: bool) -> _Kind:
    """An undelayed rigid-body kind: its report classifies the
    ``[stability]`` equilibrium, whose m the scan's m axis moves."""
    return _rigid(rhs=rhs, fractional=fractional,
                  report=lambda cfg: _sector_report(cfg, revised),
                  set_m=lambda cfg, m: dataclasses.replace(cfg, eq_m=m))


_KINDS = {
    "classical": _sector_kind(_models.classical_field, False, False),
    "revised": _sector_kind(_models.revised_field, True, False),
    "delayed": _rigid(pair=_models.delayed_field),
    "revised-delayed": _rigid(pair=_models.revised_delayed_field),
    "fractional": _sector_kind(_models.classical_field, False, True),
    "fractional-revised": _sector_kind(_models.revised_field, True, True),
    "ep-delayed": _Kind(
        keys=("I1", "I2", "I3", "coupling", "m"),
        params=_models.InertiaSetup,
        pair=_models.ep_delayed_field,
        diagnostics=_inertia_diagnostics,
        report=lambda cfg: _stab.ep_delayed_check(cfg.params, cfg.kernel),
        set_m=lambda cfg, m: dataclasses.replace(
            cfg, params=dataclasses.replace(cfg.params, m=m))),
    "scalar-18": _Kind(
        keys=("a",), params=float, pair=_SCALAR_18.bind,
        fractional=True, dim=1,
        report=lambda cfg: _stab.scalar_frac_delay_check(
            cfg.params, cfg.frac.order, cfg.kernel.lag)),
    "planar-19": _Kind(
        keys=("k1", "k2"), params=lambda k1, k2: (k1, k2),
        pair=_lagged_cross_pair, fractional=True, dim=2,
        report=lambda cfg: _stab.planar_frac_delay_check(
            *cfg.params, cfg.frac.order, cfg.kernel.lag)),
}

#: [kernel] kind -> (constructor, its keys as (name, default)); a key
#: without a default is required
_KERNELS = {
    "uniform": (_kern.UniformKernel, (("offset", 0.0), ("width", None))),
    "exponential": (functools.partial(_kern.GammaKernel, shape=1),
                    (("rate", None),)),
    "erlang": (functools.partial(_kern.GammaKernel, shape=2),
               (("rate", None),)),
    "dirac": (_kern.DiracKernel, (("lag", None),)),
}


def _parse_raw(text: str, overrides=()):
    """Split config text, then the ``--set`` items, into
    {section: {key: (value, location)}}, {section: location} and errors;
    a location is ``line N`` or ``--set``."""
    sections: dict[str, dict[str, tuple[str, str]]] = {}
    section_at: dict[str, str] = {}
    errors: list[str] = []
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            sections.setdefault(current, {})
            section_at.setdefault(current, f"line {lineno}")
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value' "
                          f"or '[section]', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside of any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            errors.append(f"line {lineno}: duplicate key '{key}' "
                          f"in [{current}]")
        sections[current][key] = (value, f"line {lineno}")
    for item in overrides:
        head, eq, value = item.partition("=")
        if not eq or "." not in head:
            errors.append(f"--set {item!r}: expected section.key=value")
            continue
        section, _, key = head.partition(".")
        section = section.strip()
        sections.setdefault(section, {})[key.strip()] = (value.strip(),
                                                         "--set")
        section_at.setdefault(section, "--set")
    return sections, section_at, errors


class _Getter:
    """Typed access into the raw sections with error accumulation."""

    def __init__(self, sections, section_at, errors):
        self.sections = sections
        self.section_at = section_at
        self.errors = errors
        self.consumed: set[tuple[str, str]] = set()

    def at(self, section, key=None) -> str:
        """Where ``key`` came from, or its section when the key is absent;
        ``config`` when the section is absent too."""
        sec = self.sections.get(section)
        if sec is None:
            return "config"
        if key in sec:
            return sec[key][1]
        return self.section_at[section]

    def get(self, section, key, conv=float, required=False, default=None,
            lower=None):
        """``key`` by ``conv``, ``default`` when absent or unconverted, and
        None for a float (or float list component) that is not finite or
        a number outside ``lower`` (``">= 0"``/``"> 0"``): an error."""
        self.consumed.add((section, key))
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                self.errors.append(f"{self.at(section)}: [{section}] "
                                   f"missing required key '{key}'")
            return default
        value, loc = sec[key]
        try:
            out = conv(value)
        except (TypeError, ValueError):
            self.errors.append(f"{loc}: [{section}] {key} = {value!r}: "
                               f"cannot convert to {conv.__name__}")
            return default
        if not (all(map(math.isfinite, out)) if isinstance(out, list) else
                not isinstance(out, float) or math.isfinite(out)):
            problem = "must be finite"
        elif lower and not (out > 0 or out == 0 and lower == ">= 0"):
            problem = f"must be {lower}"
        else:
            return out
        self.errors.append(f"{loc}: [{section}] {key} {problem}")
        return None

    def sweep_unknown(self, unchecked=()):
        """Report unknown sections, and the keys no ``get`` consumed in
        the known sections other than ``unchecked``."""
        for section, entries in self.sections.items():
            if section not in _KNOWN_SECTIONS:
                self.errors.append(
                    f"{self.at(section)}: unknown section [{section}]")
                continue
            if section in unchecked:
                continue
            for key, (_, loc) in entries.items():
                if (section, key) not in self.consumed:
                    self.errors.append(
                        f"{loc}: unknown key '{key}' in [{section}]")


def _floats_csv(value: str) -> list[float]:
    return [float(tok) for tok in value.split(",")]


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and fully cross-validate a config; raises ConfigError."""
    g = _Getter(*_parse_raw(text, overrides))
    errors = g.errors

    kind = g.get("system", "kind", conv=str, required=True)
    spec = _KINDS.get(kind)
    if kind is not None and spec is None:
        errors.append(f"{g.at('system', 'kind')}: [system] kind = {kind!r}: "
                      f"must be one of {', '.join(_KINDS)}")
    delayed = spec is not None and spec.pair is not None
    fractional = spec is not None and spec.fractional
    # [stability] picks the axis equilibrium of the sector kinds: the
    # rigid-body kinds without a delay
    sector = spec is not None and not delayed

    params = None
    if spec is not None:
        vals = [g.get("system", key, required=True) for key in spec.keys]
        if None not in vals:
            try:
                params = spec.params(*vals)
            except ValueError as exc:
                errors.append(f"{g.at('system', spec.keys[0])}: "
                              f"[system] {exc}")
        for section, allowed, required in (
                ("kernel", delayed, delayed),
                ("fractional", fractional, fractional),
                ("stability", sector, False)):
            if required and section not in g.sections:
                errors.append(f"{g.at('system', 'kind')}: kind = {kind} "
                              f"requires a [{section}] section")
            elif not allowed and section in g.sections:
                errors.append(f"{g.at(section)}: [{section}] section is not "
                              f"allowed for kind = {kind}")

    kernel = None
    if delayed and "kernel" in g.sections:
        kkind = g.get("kernel", "kind", conv=str, required=True)
        kernel_at = g.at("kernel", "kind")
        if kkind in _KERNELS:
            cls, keys = _KERNELS[kkind]
            vals = [g.get("kernel", key, required=dflt is None, default=dflt)
                    for key, dflt in keys]
            if None not in vals:
                try:
                    kernel = cls(*vals)
                except ValueError as exc:
                    errors.append(f"{kernel_at}: [kernel] {exc}")
        elif kkind is not None:
            errors.append(f"{kernel_at}: [kernel] kind = {kkind!r}: "
                          f"must be uniform, exponential, erlang or dirac")
        if fractional and kkind not in (None, "dirac"):
            errors.append(f"{kernel_at}: kind = {kind} requires a dirac "
                          f"kernel")

    t_end = g.get("run", "t_end", required=True, lower=">= 0")
    step = g.get("run", "step", required=True, lower="> 0")
    # no effect, but checked: bench/jobs.py's uniform jobs still write it
    g.get("run", "quad_step", lower="> 0")
    if t_end and step and _whole_steps(t_end, step) is None:
        errors.append(f"{g.at('run', 't_end')}: "
                      f"[run] t_end must be a whole number of steps")

    frac = None
    if fractional and "fractional" in g.sections:
        order = g.get("fractional", "order", required=True)
        iters = g.get("fractional", "corrector_iterations", conv=int,
                      default=1)
        memory = g.get("fractional", "memory", conv=str, default="full")
        window = None
        if memory != "full":
            try:
                window = int(memory)
            except ValueError:
                errors.append(f"{g.at('fractional', 'memory')}: [fractional] "
                              f"memory must be 'full' or an integer window")
        if order is not None and step is not None:
            try:
                frac = FracConfig(order=order, h=step,
                                  corrector_iters=iters,
                                  memory_window=window)
            except ValueError as exc:
                errors.append(f"{g.at('fractional', 'order')}: "
                              f"[fractional] {exc}")

    x0 = g.get("run", "x0", conv=_floats_csv, required=True)
    if x0 is not None and spec is not None and len(x0) != spec.dim:
        errors.append(f"{g.at('run', 'x0')}: [run] x0 needs {spec.dim} "
                      f"components for kind = {kind}, got {len(x0)}")

    out = g.get("output", "path", conv=str)
    equilibrium, eq_m = "M1", 1.0
    if sector:
        equilibrium = g.get("stability", "equilibrium", conv=str,
                            default="M1")
        if equilibrium not in ("M1", "M2", "M3"):
            errors.append(f"{g.at('stability', 'equilibrium')}: "
                          f"[stability] equilibrium must be M1, M2 or M3")
        eq_m = g.get("stability", "m", default=1.0)

    scan = None
    if "scan" in g.sections:
        axis = g.get("scan", "axis", conv=str, required=True)
        lo = g.get("scan", "min", required=True)
        hi = g.get("scan", "max", required=True)
        steps = g.get("scan", "steps", conv=int, required=True,
                      lower=">= 0")
        axis_at = g.at("scan", "axis")
        if axis is not None and axis not in ("tau", "alpha", "m"):
            errors.append(f"{axis_at}: [scan] axis must be tau, alpha or m")
        elif spec is not None and axis is not None:
            # a kind without a report scans no axis, nor m without set_m
            if (spec.set_m if axis == "m" else spec.report) is None:
                errors.append(f"{axis_at}: [scan] axis = {axis} is not "
                              f"defined for kind = {kind}")
            elif axis == "tau" and not isinstance(kernel, _kern.DiracKernel):
                errors.append(f"{axis_at}: [scan] axis = tau requires "
                              f"a dirac kernel")
            elif axis == "alpha" and not fractional:
                errors.append(f"{axis_at}: [scan] axis = alpha requires "
                              f"a fractional kind")
        if lo is not None and hi is not None and not math.isfinite(hi - lo):
            errors.append(f"{g.at('scan', 'max')}: [scan] max - min must be "
                          f"finite")
        if None not in (axis, lo, hi, steps):
            scan = ScanSpec(axis, lo, hi, steps)

    # without a kind nothing says which keys these sections may hold, so
    # the kind's own error is the only one they give
    g.sweep_unknown(() if spec is not None else
                    ("system", "kernel", "fractional", "stability"))
    if errors:
        raise ConfigError(errors)
    return RunConfig(kind=kind, params=params, kernel=kernel, frac=frac,
                     x0=np.array(x0), t_end=t_end, step=step, out=out,
                     equilibrium=equilibrium, eq_m=eq_m, scan=scan)


def _run_simulation(cfg: RunConfig):
    kind = _KINDS[cfg.kind]
    diag = kind.diagnostics(cfg.params)
    if kind.rhs is not None:
        rhs = kind.rhs(cfg.params)
        if kind.fractional:
            return integrate_frac_abm(rhs, cfg.frac, cfg.x0, cfg.t_end,
                                      diagnostics=diag)
        return integrate_rk4(rhs, cfg.x0, cfg.t_end, cfg.step,
                             diagnostics=diag)
    pair = kind.pair(cfg.params)
    phi = HistorySpec.constant(cfg.x0)
    if kind.fractional:
        return integrate_frac_dde(pair, cfg.frac, cfg.kernel, phi, cfg.t_end,
                                  diagnostics=diag)
    if isinstance(cfg.kernel, _kern.GammaKernel):
        return integrate_chain(pair, cfg.kernel, phi, cfg.t_end, cfg.step,
                               diagnostics=diag)
    return integrate_dde(pair, cfg.kernel, phi, cfg.t_end, cfg.step,
                         diagnostics=diag)


def _rel_drift(series: np.ndarray) -> float:
    ref = max(abs(float(series[0])), 1e-300)
    return float(np.max(np.abs(series - series[0]))) / ref


def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    """Run the configured system and write the trajectory CSV."""
    if cfg.t_end == 0:
        stages = (cfg.kernel.shape
                  if isinstance(cfg.kernel, _kern.GammaKernel) else 0)
        dim = cfg.x0.size
        cols = trajectory_columns(dim, _KINDS[cfg.kind].diagnostics(
            cfg.params), stages * dim)
        with open(out_path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
        print(f"kind = {cfg.kind}")
        print("samples = 0")
        print(f"wrote = {out_path}")
        return 0
    start = time.perf_counter()
    traj = _run_simulation(cfg)
    runtime = time.perf_counter() - start
    write_trajectory_csv(traj, out_path)
    end_state = traj.final_state[: traj.core_dim]
    print(f"kind = {cfg.kind}")
    print(f"samples = {traj.n_samples}")
    print(f"step = {_fmt(traj.h)}")
    print(f"endpoint_t = {_fmt(traj.t_end)}")
    print("endpoint_x = " + ", ".join(_fmt(v) for v in end_state))
    for name, series in traj.diagnostics.items():
        print(f"{name}_drift_rel = {_rel_drift(series):.3e}")
    print(f"runtime_s = {runtime:.3f}")
    print(f"wrote = {out_path}")
    return 0


def _report(cfg: RunConfig) -> _stab.StabilityReport:
    report = _KINDS[cfg.kind].report
    if report is None:
        raise ConfigError([f"stability analysis is not defined for "
                           f"kind = {cfg.kind}"])
    return report(cfg)


def _report_row(param: float, rep: _stab.StabilityReport) -> str:
    root = rep.dominant_root
    re = root.real if root is not None else float("nan")
    im = root.imag if root is not None else float("nan")
    margin = rep.min_margin if rep.min_margin is not None else float("nan")
    return ",".join([_fmt(param), _fmt(re), _fmt(im), _fmt(margin),
                     rep.verdict])


_SCAN_HEADER = "param,root_re,root_im,margin,verdict"

#: what an invalid stability input raises: a bad value, or arithmetic that
#: leaves the float range (a bracket coefficient that underflows to 0)
_REPORT_ERRORS = (ValueError, ArithmeticError)


def cmd_stability(cfg: RunConfig, out_path: str) -> int:
    """Analyze the configured equilibrium; write a text block plus CSV rows."""
    try:
        rep = _report(cfg)
    except _REPORT_ERRORS as exc:
        raise ConfigError([str(exc)]) from exc
    text = f"kind = {cfg.kind}\n" + rep.to_text()
    with open(out_path, "w", newline="") as fh:
        fh.write(text)
    param = (cfg.frac.order if cfg.frac else cfg.kernel.lag
             if isinstance(cfg.kernel, _kern.DiracKernel) else float("nan"))
    rows_path = out_path + ".rows.csv"
    with open(rows_path, "w", newline="") as fh:
        fh.write(_SCAN_HEADER + "\n")
        fh.write(_report_row(param, rep) + "\n")
    print(f"kind = {cfg.kind}")
    print(f"verdict = {rep.verdict}")
    if rep.critical_delay is not None:
        print(f"critical_delay = {rep.critical_delay!r}")
    print(f"wrote = {out_path}")
    print(f"wrote = {rows_path}")
    return 0


def _cfg_with_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "tau":
        return dataclasses.replace(cfg, kernel=_kern.DiracKernel(value))
    if axis == "alpha":
        return dataclasses.replace(
            cfg, frac=dataclasses.replace(cfg.frac, order=value))
    return _KINDS[cfg.kind].set_m(cfg, value)


def cmd_scan(cfg: RunConfig, out_path: str) -> int:
    """Sweep one parameter axis; one verdict row per grid point."""
    if cfg.scan is None:
        raise ConfigError(["scan requires a [scan] section "
                           "(axis, min, max, steps)"])
    sweep = cfg.scan
    grid = np.linspace(sweep.lo, sweep.hi, sweep.steps) if sweep.steps else []
    rows = []
    for value in grid:
        try:
            point = _cfg_with_axis(cfg, sweep.axis, float(value))
            rep = _report(point)
            rows.append(_report_row(float(value), rep))
        except _REPORT_ERRORS as exc:  # an invalid point: record, continue
            msg = str(exc).replace(",", ";").replace("\n", " ")
            rows.append(",".join([_fmt(value), "nan", "nan", "nan",
                                  f"error: {msg}"]))
    with open(out_path, "w", newline="") as fh:
        fh.write(_SCAN_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"kind = {cfg.kind}")
    print(f"axis = {sweep.axis}")
    print(f"rows = {len(rows)}")
    print(f"wrote = {out_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once: a parser is cyclic garbage, and ``append`` copies its
    default list before it appends."""
    parser = argparse.ArgumentParser(
        prog="rigidmem",
        description="Simulate and analyze rigid-body dynamics with "
                    "delay and fractional memory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "integrate the configured system, write CSV"),
            ("stability", "analyze the configured equilibrium"),
            ("scan", "sweep a parameter axis from the [scan] section")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True,
                        help="path to the config file")
        sp.add_argument("--out", default=None,
                        help="output artifact path (wins over [output] path)")
        sp.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override a config value")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, overrides=args.overrides)
        out = args.out or cfg.out
        if out is None:
            raise ConfigError(["no output path: pass --out or set "
                               "[output] path"])
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "stability":
            return cmd_stability(cfg, out)
        return cmd_scan(cfg, out)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
