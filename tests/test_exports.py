"""The package namespace is the union of the library modules' exports."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rigidmem

REPO = Path(__file__).resolve().parents[1]

#: every module of the package except the CLI
LIBRARY = ("errors", "fraccalc", "integrators", "kernels", "models",
           "stability")


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rigidmem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_module_union():
    union = set()
    for name in LIBRARY:
        union |= set(importlib.import_module(f"rigidmem.{name}").__all__)
    assert len(set(rigidmem.__all__)) == len(rigidmem.__all__)
    assert set(rigidmem.__all__) == union
    assert all(hasattr(rigidmem, n) for n in rigidmem.__all__)


def _tracing():
    """``bench/tracing.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # bench/tracing.py wraps these names in place, the integrators ones on
    # the CLI module that calls them; a missing name breaks every traced
    # benchmark run
    tracing = _tracing()
    for layer, names in tracing.TRACED.items():
        owner = "cli" if layer == "integrators" else layer
        module = importlib.import_module(f"rigidmem.{owner}")
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (owner, missing)


_RIGID = "[system]\nkind = {}\na1 = 3\na2 = 2\na3 = 1\n"
_EP = ("[system]\nkind = ep-delayed\nI1 = 3\nI2 = 2\nI3 = 1\n"
       "coupling = 1\nm = 1\n")
_KERNEL = "[kernel]\nkind = {}\n{}\n"
_ORDER = "[fractional]\norder = 0.82\n"
_RUN = "[run]\nx0 = {}\nt_end = 0.5\nstep = 0.01\n"
_RUN_3D = _RUN.format("0.3333333333333333, 0.01, 0.01")

_SIM = {"integrators.csv_rows": 51}
_NO_RHS = {"models.rhs_calls": 0}

#: one tiny CLI job per traced route: (command, config, exit code, the
#: per-layer metrics it must report); the stability linearizations call
#: bound fields, never the rhs_* wrappers
_ROUTE_JOBS = {
    "classical-rk4": ("simulate", _RIGID.format("classical") + _RUN_3D, 0,
                      {"integrators.rk4_steps": 50, **_SIM}),
    "dirac-dde": ("simulate", _EP + _KERNEL.format("dirac", "lag = 0.1")
                  + _RUN_3D, 0, {"integrators.dde_steps": 50, **_SIM}),
    # steps before a divergence come from its t_last and the step h
    "dirac-dde-diverged": ("simulate", _EP
                           + _KERNEL.format("dirac", "lag = 0.1")
                           + _RUN.format("10, 5, 2.5"), 3,
                           {"integrators.dde_steps": 24,
                            "integrators.divergences": 1}),
    "erlang-chain": ("simulate", _EP + _KERNEL.format("erlang", "rate = 2")
                     + _RUN_3D, 0, {"integrators.rk4_steps": 50, **_SIM}),
    "fractional-abm": ("simulate", _RIGID.format("fractional") + _ORDER
                       + _RUN_3D, 0, {"integrators.abm_steps": 50, **_SIM}),
    "scalar-18-frac-dde": ("simulate", "[system]\nkind = scalar-18\na = -1\n"
                           + _KERNEL.format("dirac", "lag = 0.1") + _ORDER
                           + _RUN.format("1"), 0,
                           {"integrators.abm_steps": 50, **_SIM}),
    "ep-stability": ("stability", _EP + _KERNEL.format("dirac", "lag = 0.5")
                     + _RUN_3D, 0, _NO_RHS),
    "fractional-stability": ("stability", _RIGID.format("fractional")
                             + _ORDER + _RUN_3D
                             + "[stability]\nequilibrium = M1\nm = 1\n",
                             0, _NO_RHS),
}


@pytest.mark.parametrize("route", _ROUTE_JOBS)
def test_tracer_measures_every_route(route, tmp_path):
    # the tracer's probes read the step h by position and count_rhp_roots's
    # signature, so a change there breaks every traced benchmark run; here
    # one job per route runs under it, as the benchmark does
    tracing = _tracing()
    command, config, code, want = _ROUTE_JOBS[route]
    cfg_path, out_path = tmp_path / "run.cfg", tmp_path / "out"
    cfg_path.write_text(config)
    mods = {name: importlib.import_module(f"rigidmem.{name}")
            for name in ("cli", "models", "integrators", "kernels",
                         "stability", "errors")}
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        rc = tracer.run_job(0, mods["cli"].main, [
            command, "--config", str(cfg_path), "--out", str(out_path)])
    finally:
        tracer.uninstall()
    assert rc == code and f"cli.cmd_{command}" in tracer.names
    layers, _ = tracing.per_layer(tracer)
    assert {name: layers[name] for name in want} == want
