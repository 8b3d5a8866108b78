"""Correctness checks for one job, read from its ``--out`` artifacts.

Standard output is never parsed.  A diverging run has no artifact, so its
exit code and the ``t_last`` in its standard-error message are checked.
Every expected value comes from :mod:`oracles` or from invariants the
paper guarantees:

* classical runs and order-1 fractional runs: relative drift of h and c
  below 1e-4;
* revised runs: h held to 1e-4 and c non-increasing;
* fractional runs (and scalar-18 at zero lag): the first 2000 steps, or
  the first memory-window steps, match an independent full-memory ABM
  reference; with full memory and order < 1, c is strictly contracted
  (a truncated memory is an approximation that need not contract);
* ep-delayed runs: |I w| held to 1e-6 relative;
* delayed and revised-delayed runs: on [0, lag] (Dirac) or [0, offset]
  (uniform) the history is the constant x0, so the run must match an
  RK4 reference of x' = f(x, x0); chain-reduced runs must match an RK4
  reference of the augmented system over their first 2000 steps;
* scalar-18 with a < 0 and zero lag: x0 E_order(a t^order) is positive
  and non-increasing;
* verdicts and scan rows: the oracle verdict, with either verdict
  accepted within 2 % of a stability boundary.

``check`` returns the failure reasons (empty when the job passed) and the
work it certified: integrator steps for ``simulate`` and verdicts for
``stability`` / ``scan``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from jobs import Job, expected_steps, read_config

#: relative distance to a stability boundary inside which any verdict passes
BOUNDARY_BAND = 0.02

_T_LAST = re.compile(r"last valid time t = ([-+0-9.eE]+)")
_CHAR_POLY = re.compile(r"w\^2 \+ \((.+)\)\*w \+ \((.+)\)")
#: report values are reprs; under numpy 2 a float may read np.float64(x)
_NUMBER = re.compile(r"(?:np\.float64\()?([^()]+)\)?")


@dataclass
class Outcome:
    """What one CLI call left behind."""

    rc: int | None
    stderr: str
    out: Path
    error: str = ""  # an exception that escaped cli.main


def _floats(value: str) -> list[float]:
    return [float(v) for v in value.split(",")]


def _number(text: str) -> float:
    return float(_NUMBER.fullmatch(text).group(1))


def _report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def check(job: Job, outcome: Outcome, models) -> tuple[list[str], int]:
    """Failure reasons and certified work of one job; ``models`` is
    rigidmem.models, used only for the revised delayed field."""
    if outcome.error:
        return [f"unexpected exception: {outcome.error}"], 0
    cfg = read_config(job.config)
    try:
        if job.command == "simulate":
            return _check_simulate(job, cfg, outcome, models)
        if job.command == "stability":
            return _check_stability(cfg, outcome)
        return _check_scan(cfg, outcome)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"], 0


# --- simulate ----------------------------------------------------------------

def _drift(series) -> float:
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


def _check_simulate(job, cfg, outcome, models):
    kind = cfg[("system", "kind")]
    n = expected_steps(cfg)
    step = float(cfg[("run", "step")])
    if job.expect_divergence:
        match = _T_LAST.search(outcome.stderr)
        if outcome.rc != 3 or match is None:
            return [f"expected divergence exit 3 with t_last, got rc "
                    f"{outcome.rc}"], 0
        t_last = float(match.group(1))
        if not 0 < t_last < n * step:
            return [f"t_last {t_last} outside (0, t_end)"], 0
        return [], int(round(t_last / step))
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"], 0
    with outcome.out.open() as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    x0 = np.array(_floats(cfg[("run", "x0")]))
    dim = x0.size
    cols = {name: data[:, i] for i, name in enumerate(header)}
    states = data[:, 1:1 + dim]
    fails = []
    if header[:1 + dim] != ["t"] + [f"x{i + 1}" for i in range(dim)]:
        return [f"unexpected CSV header {header}"], 0
    if data.shape[0] != n + 1:
        return [f"{data.shape[0]} rows, expected {n + 1}"], 0
    if not np.all(np.isfinite(data)):
        fails.append("non-finite values")
    if not np.allclose(data[:, 0], step * np.arange(n + 1), rtol=1e-12,
                       atol=1e-12 * step):
        fails.append("time column is not k * step")
    if not np.array_equal(states[0], x0):
        fails.append("first row differs from x0")
    fails += _invariants(kind, cfg, states, cols)
    if kind in ("delayed", "revised-delayed", "ep-delayed"):
        fails += _delay_reference(kind, cfg, data, header, x0, models)
    if ("fractional", "order") in cfg and kind != "planar-19":
        fails += _frac_reference(kind, cfg, states, x0)
    return fails, (n if not fails else 0)


def _frac_reference(kind, cfg, states, x0):
    if kind == "scalar-18":
        if float(cfg[("kernel", "lag")]) != 0.0:
            return []
        a = float(cfg[("system", "a")])

        def field(x):
            return a * x
    else:
        a = np.array([float(cfg[("system", k)]) for k in ("a1", "a2", "a3")])
        revised = kind == "fractional-revised"

        def field(x):
            return (oracles.field_revised if revised
                    else oracles.field_classical)(a, x)
    memory = cfg.get(("fractional", "memory"), "full")
    n = min(2000, states.shape[0] - 1,
            10 ** 9 if memory == "full" else int(memory))
    ref = oracles.abm(field, x0, float(cfg[("fractional", "order")]),
                      float(cfg[("run", "step")]), n)
    err = float(np.max(np.abs(states[:n + 1] - ref)))
    if err > 1e-9 * max(1.0, float(np.max(np.abs(ref)))):
        return [f"ABM reference over {n} steps: max deviation {err:.2e}"]
    return []


def _invariants(kind, cfg, states, cols):
    fails = []
    if kind == "scalar-18":
        x = states[:, 0]
        if (float(cfg[("system", "a")]) < 0 and
                float(cfg[("kernel", "lag")]) == 0 and x[0] > 0 and
                (np.min(x) <= 0 or np.max(np.diff(x)) > 1e-12 * x[0])):
            fails.append("x0 E(a t^order) must stay positive and "
                         "non-increasing")
        return fails
    if kind == "ep-delayed":
        moments = np.array([float(cfg[("system", k)])
                            for k in ("I1", "I2", "I3")])
        mom = np.linalg.norm(states * moments, axis=1)
        if _drift(mom) > 1e-6:
            fails.append(f"|I w| drift {_drift(mom):.2e} > 1e-6")
        h = 0.5 * np.sum(moments * states * states, axis=1)
        c = 0.5 * np.sum((moments * states) ** 2, axis=1)
    else:
        a = np.array([float(cfg[("system", k)]) for k in ("a1", "a2", "a3")])
        h = 0.5 * np.sum(a * states * states, axis=1)
        c = 0.5 * np.sum(states * states, axis=1)
    for name, mine in (("h", h), ("c", c)):
        if name not in cols or not np.allclose(cols[name], mine, rtol=1e-12,
                                               atol=1e-14):
            fails.append(f"diagnostic column {name} does not match the state")
    order = float(cfg.get(("fractional", "order"), 1.0))
    revised = kind in ("revised", "fractional-revised")
    if kind in ("classical", "fractional") and order == 1.0:
        for name, series in (("h", h), ("c", c)):
            if _drift(series) > 1e-4:
                fails.append(f"{name} drift {_drift(series):.2e} > 1e-4")
    elif revised and order == 1.0:
        if _drift(h) > 1e-4:
            fails.append(f"h drift {_drift(h):.2e} > 1e-4")
        if np.max(np.diff(c)) > 1e-12:
            fails.append(f"c increased by {np.max(np.diff(c)):.2e}")
    elif (kind.startswith("fractional") and
          cfg.get(("fractional", "memory"), "full") == "full" and
          not c[-1] < c[0] * (1 - 1e-6)):
        fails.append(f"c not contracted: {c[0]} -> {c[-1]}")
    return fails


def _delay_reference(kind, cfg, data, header, x0, models):
    step = float(cfg[("run", "step")])
    kernel = cfg[("kernel", "kind")]
    dim = x0.size
    if kind == "ep-delayed":
        moments = np.array([float(cfg[("system", k)])
                            for k in ("I1", "I2", "I3")])
        coupling = float(cfg[("system", "coupling")])

        def field(x, xd):
            return oracles.field_ep(moments, coupling, x, xd)
    else:
        a = np.array([float(cfg[("system", k)]) for k in ("a1", "a2", "a3")])
        if kind == "delayed":
            def field(x, xd):
                return oracles.field_delayed(a, x, xd)
        else:
            # the revised delayed field has no second form to compare
            # with; this reference tests the integrator, not the field
            params = models.RigidBodyParams(*a)

            def field(x, xd):
                return models.rhs_revised_delayed(params, x, xd)
    if kernel in ("exponential", "erlang"):
        rate = float(cfg[("kernel", "rate")])
        stages = 1 if kernel == "exponential" else 2
        n = min(2000, data.shape[0] - 1)

        def aug(y):
            parts = [y[i * dim:(i + 1) * dim] for i in range(stages + 1)]
            out = [field(parts[0], parts[-1])]
            out += [rate * (parts[i] - parts[i + 1]) for i in range(stages)]
            return np.concatenate(out)

        ref = oracles.rk4(aug, np.tile(x0, stages + 1), step, n)
        eta = [header.index(f"eta{s + 1}_{i + 1}")
               for s in range(stages) for i in range(dim)]
        got = np.hstack([data[:n + 1, 1:1 + dim], data[:n + 1, eta]])
        what = f"chain reference over {n} steps"
    else:
        span = float(cfg[("kernel", "lag" if kernel == "dirac" else "offset")])
        n = min(int(math.floor(span / step - 1e-9)), data.shape[0] - 1)
        ref = oracles.rk4(lambda x: field(x, x0), x0, step, n)
        got = data[:n + 1, 1:1 + dim]
        what = f"constant-history reference on [0, {span}]"
    err = float(np.max(np.abs(got - ref)))
    if err > 1e-9 * max(1.0, float(np.max(np.abs(ref)))):
        return [f"{what}: max deviation {err:.2e}"]
    return []


# --- verdicts ----------------------------------------------------------------

def expected_verdict(kind: str, p: dict) -> tuple[str, bool]:
    """Oracle verdict for one parameter point, and whether it lies within
    BOUNDARY_BAND of a stability boundary."""
    if kind in ("fractional", "fractional-revised"):
        q = oracles.axis_quadratic(p["a"], p["equilibrium"], p["m"],
                                   kind == "fractional-revised")
        verdict, margin = oracles.sector_verdict(np.roots(q), p["order"])
        return verdict, abs(margin) < 1e-6
    if kind == "scalar-18":
        verdict, gap = oracles.scalar_verdict(p["a"], p["order"], p["lag"])
        return verdict, gap < BOUNDARY_BAND
    if kind == "planar-19":
        verdict, gap = oracles.planar_verdict(p["k1"], p["k2"])
        return verdict, gap < BOUNDARY_BAND
    a0, a1 = oracles.ep_linearization(p["I"], p["coupling"], p["m"])
    verdict, _ = oracles.ep_verdict(a0, a1, p["lag"])
    near = any(abs(p["lag"] - tau) <= BOUNDARY_BAND * tau
               for tau in oracles.ep_crossing_delays(a0, a1))
    return verdict, near


def _params(cfg: dict) -> tuple[str, dict]:
    kind = cfg[("system", "kind")]
    get = lambda sec, key: float(cfg[(sec, key)])  # noqa: E731
    p = {}
    if kind in ("fractional", "fractional-revised"):
        p = {"a": [get("system", k) for k in ("a1", "a2", "a3")],
             "equilibrium": cfg.get(("stability", "equilibrium"), "M1"),
             "m": float(cfg.get(("stability", "m"), 1.0))}
    elif kind == "scalar-18":
        p = {"a": get("system", "a")}
    elif kind == "planar-19":
        p = {"k1": get("system", "k1"), "k2": get("system", "k2")}
    elif kind == "ep-delayed":
        p = {"I": [get("system", k) for k in ("I1", "I2", "I3")],
             "coupling": get("system", "coupling"), "m": get("system", "m")}
    if ("fractional", "order") in cfg:
        p["order"] = get("fractional", "order")
    if ("kernel", "lag") in cfg:
        p["lag"] = get("kernel", "lag")
    return kind, p


def _verdict_ok(got: str, expected: tuple[str, bool]) -> bool:
    verdict, near = expected
    if near:
        return got in (oracles.STABLE, oracles.MARGINAL, oracles.UNSTABLE)
    return got == verdict


def _check_stability(cfg, outcome):
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"], 0
    kind, p = _params(cfg)
    rep = _report(outcome.out)
    fails = []
    got = rep.get("verdict")
    if kind in ("fractional", "fractional-revised"):
        match = _CHAR_POLY.fullmatch(rep.get("char_poly", ""))
        if match is None:
            return ["no char_poly in the report"], 0
        printed = [1.0, float(match.group(1)), float(match.group(2))]
        mine = oracles.axis_quadratic(p["a"], p["equilibrium"], p["m"],
                                      kind == "fractional-revised")
        if not np.allclose(printed, mine, rtol=1e-6,
                           atol=1e-9 * float(np.max(np.abs(mine)))):
            fails.append(f"char_poly {printed} differs from {list(mine)}")
        verdict, margin = oracles.sector_verdict(np.roots(printed),
                                                 p["order"])
        expected = (verdict, abs(margin) < 1e-6)
    else:
        expected = expected_verdict(kind, p)
    if not _verdict_ok(got, expected):
        fails.append(f"verdict {got}, expected {expected[0]}")
    if kind == "ep-delayed":
        a0, a1 = oracles.ep_linearization(p["I"], p["coupling"], p["m"])
        taus = oracles.ep_crossing_delays(a0, a1)
        printed = rep.get("critical_delay")
        if taus and printed is None:
            fails.append(f"no critical_delay, expected {taus[0]:.6g}")
        elif taus and not math.isclose(_number(printed), taus[0],
                                       rel_tol=1e-6):
            fails.append(f"critical_delay {printed}, expected {taus[0]!r}")
        elif not taus and printed is not None:
            fails.append(f"critical_delay {printed}, expected none")
    rows = (outcome.out.parent / (outcome.out.name + ".rows.csv")).read_text()
    if rows.splitlines()[1].rsplit(",", 1)[1] != got:
        fails.append("rows CSV verdict differs from the report")
    return fails, (1 if not fails else 0)


_AXIS_KEY = {"tau": "lag", "alpha": "order", "m": "m"}


def _check_scan(cfg, outcome):
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"], 0
    kind, p = _params(cfg)
    axis = cfg[("scan", "axis")]
    grid = np.linspace(float(cfg[("scan", "min")]), float(cfg[("scan", "max")]),
                       int(cfg[("scan", "steps")]))
    lines = outcome.out.read_text().splitlines()
    if lines[0] != "param,root_re,root_im,margin,verdict":
        return [f"unexpected scan header {lines[0]!r}"], 0
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != grid.size:
        return [f"{len(rows)} scan rows, expected {grid.size}"], 0
    fails, good = [], 0
    for value, row in zip(grid, rows):
        if not math.isclose(float(row[0]), value, rel_tol=1e-12,
                            abs_tol=1e-15):
            fails.append(f"row param {row[0]} is not grid value {value!r}")
            continue
        point = dict(p, **{_AXIS_KEY[axis]: float(value)})
        expected = expected_verdict(kind, point)
        if _verdict_ok(row[4], expected):
            good += 1
        else:
            fails.append(f"{axis} = {value:.6g}: verdict {row[4]}, "
                         f"expected {expected[0]}")
    return fails, good
