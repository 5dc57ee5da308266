"""The public surface: the functions an outside timing wrapper patches by
name, the package's export list, and the module attributes that the README
and the docstrings name.

The benchmark's ``--trace 1`` mode wraps these functions as attributes of
their modules and of every catgate module that imported them.  A refactor that
renames or moves one of them silently zeroes its per-layer metrics, so the
list is pinned here.  It is a copy, so the benchmark may change its own list
without touching this test.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import catgate
from catgate import states
from catgate.states import CubicPhaseResource, FockResource

TRACED = {
    "numerics": ("oscillatory_fourier_factor", "hermite_values", "hermite_function",
                 "fourier_transform", "overlap"),
    "states": ("make_vacuum", "make_fock", "make_cubic_phase", "make_cat"),
    "semiclassical": ("linearize", "reference_cat"),
    "gate": ("collapse", "probability_density", "probability_scan"),
    "analysis": ("wigner", "fidelity", "fidelity_coh", "fidelity_cat", "fidelity_mix"),
    "cubic": ("squeezing_scan",),
    "matching": ("odd_cat_ladder", "fit_squeezing", "compare_gates"),
    "cli": ("main",),
}


@pytest.mark.parametrize("module, name", [(m, f) for m, names in TRACED.items() for f in names],
                         ids=lambda v: v)
def test_traced_function_is_public(module, name):
    assert callable(getattr(importlib.import_module(f"catgate.{module}"), name, None))


def test_export_list_is_what_the_package_imports():
    # __all__ names exactly the names __init__.py imports, once each
    tree = ast.parse(open(catgate.__file__).read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(catgate.__all__)) == len(catgate.__all__)
    assert set(catgate.__all__) == imported


def test_every_export_resolves():
    namespace = {}
    exec("from catgate import *", namespace)
    for name in catgate.__all__:
        assert namespace[name] is getattr(catgate, name)


PACKAGE = pathlib.Path(catgate.__file__).parent
MODULES = {info.name for info in pkgutil.iter_modules([str(PACKAGE)])}
# a backticked `module.name` or ``catgate.module.name``; a file name such as
# `gate.py` is not one
NAMED = re.compile(r"`(?:catgate\.)?(\w+)\.(\w+)")


def test_every_named_module_attribute_resolves():
    """The README and the docstrings name no function or class that is gone."""
    texts = [pathlib.Path(__file__).parents[1] / "README.md", *sorted(PACKAGE.glob("*.py"))]
    named = {(module, name) for path in texts
             for module, name in NAMED.findall(path.read_text(encoding="utf-8"))
             if module in MODULES and name != "py"}
    assert len(named) > 5
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"catgate.{module}"), name)]
    assert missing == []


@pytest.mark.parametrize("resource, kernel", [
    (FockResource(3), "hermite_values"),
    (CubicPhaseResource(0.3, 0.5), "oscillatory_fourier_factor"),
])
def test_resource_closed_forms_call_kernels_by_module_name(monkeypatch, resource, kernel):
    """A wrapper put on the name in ``states`` sees the resource's calls."""
    calls = []
    original = getattr(states, kernel)
    monkeypatch.setattr(states, kernel, lambda *a: calls.append(a) or original(*a))
    resource.momentum_factor(np.linspace(-2.0, 2.0, 5))
    assert len(calls) == 1
