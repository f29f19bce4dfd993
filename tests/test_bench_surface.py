"""What the benchmark needs from snnkit.

perfbench/spans.py imports every module in LAYERS and replaces the
functions and methods it names by dotted path, and perfbench/workloads.py
calls snnkit by name and unpacks what it returns, so deleting or renaming
one of them, or changing a return shape, would first show in a benchmark
run.  These checks load both files without changing them and fail here
instead.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import snnkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while the file runs
    spec.loader.exec_module(mod)
    return mod


spans = _load("spans")
workloads = _load("workloads")


def _resolve(dotted: str):
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"snnkit.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("layer", spans.LAYERS)
def test_every_traced_layer_imports(layer):
    importlib.import_module(f"snnkit.{layer}")


@pytest.mark.parametrize("name", sorted(spans.HOOKS)
                         + [".".join(m) for m in spans.METHODS]
                         + [spans.MEM_SPAN, "core.cost", "core.cost_points"])
def test_every_hooked_or_wrapped_name_is_a_snnkit_function(name):
    fn = _resolve(name)
    assert inspect.isfunction(fn)
    assert fn.__module__.startswith("snnkit.")


@pytest.mark.parametrize("name", snnkit.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(snnkit, name) is not None


class _NoTracer:
    def untraced(self):
        return contextlib.nullcontext()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs_a_smoke_pass(name):
    wl = workloads.make(name, "smoke")
    res = wl.run_pass(wl.setup(42), _NoTracer())
    assert res.solves
    assert [s.failure for s in res.solves if s.failure] == []
