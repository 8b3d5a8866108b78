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


def test_traced_names_resolve():
    # bench/tracing.py wraps these names in place, the integrators ones on
    # the CLI module that calls them; a missing name breaks every traced
    # benchmark run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        owner = "cli" if layer == "integrators" else layer
        module = importlib.import_module(f"rigidmem.{owner}")
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (owner, missing)
