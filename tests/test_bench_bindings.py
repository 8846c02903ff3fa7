"""The benchmark's span tracer binds package names; each must still resolve.

bench/spans.py rebinds functions and one method of the package by name
while a traced run is in progress. A rename or removal in the package
would otherwise show only when the production-size benchmark runs. The
module is loaded from its file, so the benchmark directory stays as it
is.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import femupdate

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("layer", spans.LAYERS)
def test_every_traced_layer_is_a_module_of_the_package(layer):
    assert inspect.ismodule(getattr(femupdate, layer, None))


@pytest.mark.parametrize("layer, attr", spans.TRACED_FUNCTIONS,
                         ids=[".".join(pair) for pair in spans.TRACED_FUNCTIONS])
def test_every_traced_function_resolves(layer, attr):
    assert inspect.isfunction(getattr(getattr(femupdate, layer), attr, None))


@pytest.mark.parametrize("layer, cls_name, attr", spans.TRACED_METHODS,
                         ids=[".".join(t) for t in spans.TRACED_METHODS])
def test_every_traced_method_is_defined_on_its_class(layer, cls_name, attr):
    # the tracer reads the class's own namespace, not an inherited attribute
    cls = getattr(getattr(femupdate, layer), cls_name)
    assert inspect.isfunction(vars(cls).get(attr))
