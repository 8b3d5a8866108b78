"""Seeded job lists for the four benchmark workloads.

A job is one ``rigidmem`` CLI call (``simulate``, ``stability`` or
``scan``) on a generated config file.  The seed draws every parameter
inside the ranges written below; the program only ever sees the generated
text.  Step sizes and history lengths N are fixed per job slot, so the
work a job does is the same for every seed.  Multi-parameter draws use
Latin hypercube sampling, so each seed covers every range evenly and the
cost of a pass varies little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracles

#: time step of every simulate job
STEP = 0.001

#: (a1, a2, a3) ranges; sorted draws keep a1 > a2 > a3 > 0
A_RANGE = (0.5, 4.0)


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: str
    expect_divergence: bool = False
    #: ROADMAP item this job is a known-wrong input of ("" if none)
    known_defect: str = ""


def num(v: float) -> float:
    """Round to six significant digits, the precision written to configs."""
    return float(f"{v:.6g}")


def render(**sections) -> str:
    lines = []
    for section, entries in sections.items():
        if entries is None:
            continue
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, (tuple, list)):
                value = ", ".join(repr(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def read_config(text: str) -> dict:
    """{(section, key): value-string}, for the checks (no rigidmem import)."""
    out, section = {}, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
        else:
            key, _, value = line.partition("=")
            out[(section, key.strip())] = value.strip()
    return out


def lhs(rng: random.Random, n: int, ranges) -> list[tuple]:
    """n Latin-hypercube points over the given (lo, hi) ranges."""
    cols = []
    for lo, hi in ranges:
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([num(lo + (s + rng.random()) / n * (hi - lo))
                     for s in strata])
    return list(zip(*cols))


def coeffs(rng: random.Random) -> dict:
    a = sorted((num(rng.uniform(*A_RANGE)) for _ in range(3)), reverse=True)
    while not a[0] > a[1] > a[2]:
        a = sorted((num(rng.uniform(*A_RANGE)) for _ in range(3)),
                   reverse=True)
    return {"a1": a[0], "a2": a[1], "a3": a[2]}


def inertia(rng: random.Random, coupling: float, m: float) -> dict:
    moments = coeffs(rng)
    return {"I1": moments["a1"], "I2": moments["a2"], "I3": moments["a3"],
            "coupling": coupling, "m": m}


def state(rng: random.Random, lo: float, hi: float) -> tuple:
    """Three components with magnitudes in [lo, hi] and random signs."""
    return tuple(num(rng.uniform(lo, hi) * rng.choice((-1, 1)))
                 for _ in range(3))


def run(x0, n_steps: int) -> dict:
    return {"x0": x0, "t_end": num(n_steps * STEP), "step": STEP}


def idle_run(dim: int) -> dict:
    """The [run] section every config carries; stability jobs ignore it."""
    return {"x0": (1.0,) + (0.0,) * (dim - 1), "t_end": 1.0, "step": 0.01}


# --- frac-memory -------------------------------------------------------------

def frac_memory(rng: random.Random, root: Path) -> list[Job]:
    """Full-memory ABM with order in [0.75, 0.95] at N = 7.5k (fractional)
    and 5k, 10k (fractional-revised), plus the bundled config at N = 30k;
    one run with a 2000-node memory window at N = 20k; and
    integrate_frac_dde through scalar-18 with a zero lag (decaying, a in
    [-2, -0.5]; diverging, a in [20, 40])."""
    bundled = root / "configs" / "frac_order_082.cfg"
    jobs = [Job("frac_order_082-n30000", "simulate", bundled.read_text())]
    for kind, sizes in (("fractional", (7500,)),
                        ("fractional-revised", (5000, 10000))):
        for n in sizes:
            jobs.append(Job(f"{kind}-n{n}", "simulate", render(
                system={"kind": kind, **coeffs(rng)},
                fractional={"order": num(rng.uniform(0.75, 0.95))},
                run=run(state(rng, 0.5, 1.5), n))))
    jobs.append(Job("fractional-window2000-n20000", "simulate", render(
        system={"kind": "fractional", **coeffs(rng)},
        fractional={"order": num(rng.uniform(0.75, 0.95)), "memory": 2000},
        run=run(state(rng, 0.5, 1.5), 20000))))
    for name, a_range, order_range, n, diverges in (
            ("scalar-18-decay-n5000", (-2.0, -0.5), (0.6, 0.95), 5000, False),
            ("scalar-18-diverge", (20.0, 40.0), (0.8, 0.95), 5000, True)):
        jobs.append(Job(name, "simulate", render(
            system={"kind": "scalar-18", "a": num(rng.uniform(*a_range))},
            kernel={"kind": "dirac", "lag": 0.0},
            fractional={"order": num(rng.uniform(*order_range))},
            run=run((num(rng.uniform(0.5, 2.0)),), n)),
            expect_divergence=diverges))
    return jobs


# --- delay-history -----------------------------------------------------------

def delay_history(rng: random.Random, root: Path) -> list[Job]:
    """Dirac lags in [0.05, 0.2] (N = 2k) and uniform kernels with offset
    in [0.05, 0.1], support ending at 0.4 and a fixed 250 quadrature
    intervals (N = 600) for delayed, revised-delayed and ep-delayed; the
    fixed support end keeps the share of history-only lookups, and so the
    cost, nearly the same for every seed.  States
    of the rigid-body kinds stay within [0.2, 0.5], which keeps the delayed
    Euler field bounded over the run; ep-delayed conserves |I w| exactly."""
    jobs = []
    for kernel_kind, sizes in (("dirac", (2000, 2000, 2000)),
                               ("uniform", (600, 600, 600))):
        for kind, n in zip(("delayed", "revised-delayed", "ep-delayed"),
                           sizes):
            if kind == "ep-delayed":
                system = inertia(rng, num(rng.uniform(0.1, 1.0)), 1.0)
                run_sec = run(state(rng, 0.5, 1.5), n)
            else:
                system = coeffs(rng)
                run_sec = run(state(rng, 0.2, 0.5), n)
            if kernel_kind == "dirac":
                kernel = {"kind": "dirac",
                          "lag": num(rng.uniform(0.05, 0.2))}
            else:
                offset = num(rng.uniform(0.05, 0.1))
                width = num(0.4 - offset)
                kernel = {"kind": "uniform", "offset": offset,
                          "width": width}
                run_sec["quad_step"] = num(width / 250)
            jobs.append(Job(f"{kind}-{kernel_kind}-n{n}", "simulate",
                            render(system={"kind": kind, **system},
                                   kernel=kernel, run=run_sec)))
    return jobs


# --- ode-chain ---------------------------------------------------------------

def ode_chain(rng: random.Random, root: Path) -> list[Job]:
    """classical (N = 15k) and revised (N = 20k) RK4 with states in
    [0.5, 1.5]; delayed with exponential and Erlang kernels, rate in
    [20, 50], states in [0.2, 0.5], N = 10k (exact chain reduction)."""
    jobs = []
    for kind, n in (("classical", 15000), ("revised", 20000)):
        jobs.append(Job(f"{kind}-n{n}", "simulate", render(
            system={"kind": kind, **coeffs(rng)},
            run=run(state(rng, 0.5, 1.5), n))))
    for kernel_kind in ("exponential", "erlang"):
        jobs.append(Job(f"delayed-{kernel_kind}-n10000", "simulate", render(
            system={"kind": "delayed", **coeffs(rng)},
            kernel={"kind": kernel_kind, "rate": num(rng.uniform(20, 50))},
            run=run(state(rng, 0.2, 0.5), 10000))))
    return jobs


# --- stability-scan ----------------------------------------------------------

#: known-wrong inputs of ROADMAP item 2; their verdicts come from oracles
KNOWN_DEFECTS = (
    ("known-scalar18-a100", render(
        system={"kind": "scalar-18", "a": 100.0},
        kernel={"kind": "dirac", "lag": 0.0},
        fractional={"order": 0.8},
        run=idle_run(1)),
     "ROADMAP item 2: real root 100^1.25 lies outside the fixed contour"),
    ("known-ep-m30-lag0.01", render(
        system={"kind": "ep-delayed", "I1": 3.0, "I2": 2.0, "I3": 1.0,
                "coupling": 1.0, "m": 30.0},
        kernel={"kind": "dirac", "lag": 0.01},
        run=idle_run(3)),
     "ROADMAP item 2: lag 0.01 exceeds tau* = 0.002617, verdict must be "
     "unstable"),
    ("known-ep-m30-critical-delay", render(
        system={"kind": "ep-delayed", "I1": 3.0, "I2": 2.0, "I3": 1.0,
                "coupling": 1.0, "m": 30.0},
        kernel={"kind": "dirac", "lag": 0.001},
        run=idle_run(3)),
     "ROADMAP item 2: default-window critical_delay_scan misses "
     "tau* = 0.002617"),
    ("known-ep-low-frequency-crossing", render(
        system={"kind": "ep-delayed", "I1": 3.80266, "I2": 3.51153,
                "I3": 3.03757, "coupling": 0.328573, "m": 0.514721},
        kernel={"kind": "dirac", "lag": 10.0},
        run=idle_run(3)),
     "ROADMAP item 2: crossings near omega = 0.016 and 0.023 fall in one "
     "cell of the fixed 4000-point omega grid, so tau* = 66.88 is missed"),
)

#: first-crossing frequencies that the fixed omega grid of the crossing
#: scan (4000 points up to 50) resolves; seeded ep-delayed systems are
#: redrawn until their first crossing lies inside and at least EP_OMEGA_GAP
#: from every other crossing frequency.  That the grid is fixed at all is
#: ROADMAP item 2, shown by the known-defect jobs.
EP_OMEGA_RANGE = (0.05, 25.0)
EP_OMEGA_GAP = 0.05


def _ep_crossings(system: dict, m: float):
    a0, a1 = oracles.ep_linearization(
        (system["I1"], system["I2"], system["I3"]), system["coupling"], m)
    return oracles.ep_crossings(a0, a1)


def _resolvable(crossings) -> bool:
    if not crossings:
        return True
    lo, hi = EP_OMEGA_RANGE
    first = crossings[0][1]
    return lo <= first <= hi and all(
        abs(w - first) >= EP_OMEGA_GAP or abs(w - first) < 1e-9
        for _, w in crossings)


def ep_system(rng: random.Random, coupling: float, m: float,
              also_m=()) -> dict:
    """Moments drawn until the first crossing at m (and at each of
    ``also_m``) is one the crossing scan resolves."""
    for _ in range(10_000):
        system = inertia(rng, coupling, m)
        if all(_resolvable(_ep_crossings(system, mm)) for mm in (m, *also_m)):
            return system
    raise RuntimeError("no ep-delayed system with resolvable crossings")


def _ep_first_crossing(system: dict) -> float | None:
    crossings = _ep_crossings(system, system["m"])
    return crossings[0][0] if crossings else None


def stability_scan(rng: random.Random, root: Path) -> list[Job]:
    """Single verdicts: 60 fractional and 60 fractional-revised (order in
    [0.3, 0.99], m in [0.5, 2], equilibria M1..M3 in turn); 40 scalar-18
    (|a| in [0.3, 3], either sign, order in [0.5, 0.95], lag in [0, 2]);
    40 planar-19 (k1, k2 in [0.1, 2], order in [0.5, 1], lag in [0.05, 2]);
    30 ep-delayed (coupling in [0.3, 1.5], m in [0.5, 2], lag in
    [0, 2 tau*], crossing frequencies inside EP_OMEGA_RANGE).  Scans:
    alpha and m for both fractional kinds, tau and m for ep-delayed, tau
    and alpha for scalar-18 and planar-19.  Plus the fixed known-wrong
    inputs of ROADMAP item 2."""
    jobs = []
    for kind in ("fractional", "fractional-revised"):
        for i, (order, m) in enumerate(lhs(rng, 60, ((0.3, 0.99),
                                                     (0.5, 2.0)))):
            jobs.append(Job(f"{kind}-verdict-{i}", "stability", render(
                system={"kind": kind, **coeffs(rng)},
                fractional={"order": order}, run=idle_run(3),
                stability={"equilibrium": f"M{i % 3 + 1}", "m": m})))
    for i, (mag, order, lag) in enumerate(lhs(rng, 40, ((0.3, 3.0),
                                                        (0.5, 0.95),
                                                        (0.0, 2.0)))):
        jobs.append(Job(f"scalar-18-verdict-{i}", "stability", render(
            system={"kind": "scalar-18", "a": mag * (-1) ** i},
            kernel={"kind": "dirac", "lag": lag},
            fractional={"order": order},
            run=idle_run(1))))
    for i, (k1, k2, order, lag) in enumerate(lhs(rng, 40, ((0.1, 2.0),
                                                           (0.1, 2.0),
                                                           (0.5, 1.0),
                                                           (0.05, 2.0)))):
        jobs.append(Job(f"planar-19-verdict-{i}", "stability", render(
            system={"kind": "planar-19", "k1": k1, "k2": k2},
            kernel={"kind": "dirac", "lag": lag},
            fractional={"order": order},
            run=idle_run(2))))
    for i, (coupling, m, share) in enumerate(lhs(rng, 30, ((0.3, 1.5),
                                                           (0.5, 2.0),
                                                           (0.0, 2.0)))):
        system = ep_system(rng, coupling, m)
        tau_star = _ep_first_crossing(system)
        lag = num(share * tau_star) if tau_star else num(share * 1.5)
        jobs.append(Job(f"ep-delayed-verdict-{i}", "stability", render(
            system={"kind": "ep-delayed", **system},
            kernel={"kind": "dirac", "lag": lag},
            run=idle_run(3))))
    jobs += _scans(rng)
    jobs += [Job(name, "stability", text, known_defect=why)
             for name, text, why in KNOWN_DEFECTS]
    return jobs


def _scans(rng: random.Random) -> list[Job]:
    jobs = []
    for kind in ("fractional", "fractional-revised"):
        for axis, lo, hi, steps in (("alpha", 0.2, 1.0, 60),
                                    ("m", 0.25, 3.0, 60)):
            jobs.append(Job(f"{kind}-scan-{axis}", "scan", render(
                system={"kind": kind, **coeffs(rng)},
                fractional={"order": num(rng.uniform(0.3, 0.99))},
                run=idle_run(3),
                stability={"equilibrium": rng.choice(("M1", "M2", "M3")),
                           "m": num(rng.uniform(0.5, 2.0))},
                scan={"axis": axis, "min": lo, "max": hi, "steps": steps})))
    ep = ep_system(rng, num(rng.uniform(0.3, 1.5)),
                   num(rng.uniform(0.5, 2.0)), also_m=(0.5, 2.0))
    tau_star = _ep_first_crossing(ep) or 1.5
    for axis, lo, hi, lag in (("tau", 0.0, num(2 * tau_star), 0.0),
                              ("m", 0.5, 2.0, num(0.8 * tau_star))):
        jobs.append(Job(f"ep-delayed-scan-{axis}", "scan", render(
            system={"kind": "ep-delayed", **ep},
            kernel={"kind": "dirac", "lag": lag},
            run=idle_run(3),
            scan={"axis": axis, "min": lo, "max": hi, "steps": 40})))
    scalar_a = num(-rng.uniform(0.3, 3.0))
    for axis, lo, hi, lag, order in (
            ("tau", 0.0, 2.0, 0.0, num(rng.uniform(0.5, 0.95))),
            ("alpha", 0.3, 0.95, num(rng.uniform(0.1, 1.0)), 0.5)):
        jobs.append(Job(f"scalar-18-scan-{axis}", "scan", render(
            system={"kind": "scalar-18", "a": scalar_a},
            kernel={"kind": "dirac", "lag": lag},
            fractional={"order": order},
            run=idle_run(1),
            scan={"axis": axis, "min": lo, "max": hi, "steps": 40})))
    k1, k2 = num(rng.uniform(0.1, 2.0)), num(rng.uniform(0.1, 2.0))
    for axis, lo, hi, lag, order in (
            ("tau", 0.05, 2.0, 0.5, num(rng.uniform(0.5, 1.0))),
            ("alpha", 0.3, 1.0, num(rng.uniform(0.05, 2.0)), 0.5)):
        jobs.append(Job(f"planar-19-scan-{axis}", "scan", render(
            system={"kind": "planar-19", "k1": k1, "k2": k2},
            kernel={"kind": "dirac", "lag": lag},
            fractional={"order": order},
            run=idle_run(2),
            scan={"axis": axis, "min": lo, "max": hi, "steps": 30})))
    return jobs


GENERATORS = {
    "frac-memory": frac_memory,
    "delay-history": delay_history,
    "ode-chain": ode_chain,
    "stability-scan": stability_scan,
}


WORKLOADS = tuple(GENERATORS)


def make_jobs(workload: str, seed: int, root: Path) -> list[Job]:
    """The job list of ``workload`` for ``seed``; same seed, same list."""
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, root)


def expected_steps(cfg: dict) -> int:
    """History length N of a simulate job, as the integrators round it."""
    t_end, step = float(cfg[("run", "t_end")]), float(cfg[("run", "step")])
    n = int(round(t_end / step))
    if n >= 1 and abs(n * step - t_end) <= 1e-9 * max(t_end, 1.0):
        return n
    return max(1, int(math.ceil(t_end / step - 1e-12)))
