"""What the benchmark's tracer needs from snnkit.

perfbench/spans.py imports every module in LAYERS and replaces the
functions and methods it names by dotted path, so deleting or renaming one
of them would first show in a traced benchmark run.  These checks read its
tables and fail here instead.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import snnkit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


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
