"""Every target the benchmark's layer trace wraps still exists in loopsing.

The tracer skips a function the program no longer has, and its metrics then
read zero, so a rename would otherwise go unnoticed.  Methods and counted
constructors are read from the class's own namespace (`vars(cls)`), so each
class must define them itself, not inherit them.
"""

from __future__ import annotations

import importlib

import pytest

from conftest import bench_module

tracer = bench_module("tracer")


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_function_target_resolves(span):
    module, attribute = tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), attribute, None))


def _class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("span", sorted(tracer.METHODS))
def test_method_target_is_defined_on_its_class(span):
    # The tracer wraps vars(cls)[method], so an inherited method would not do.
    module, cls_name, method = tracer.METHODS[span]
    assert callable(vars(_class(module, cls_name)).get(method))


@pytest.mark.parametrize("counter", sorted(tracer.CONSTRUCTORS))
def test_constructor_target_defines_its_own_init(counter):
    module, cls_name = tracer.CONSTRUCTORS[counter]
    assert callable(vars(_class(module, cls_name)).get("__init__"))


def test_installed_tracer_counts_constructions_and_spans():
    from loopsing.cli import RunConfig, run

    trace = tracer.Tracer()
    trace.install()
    try:
        run(RunConfig(function_source="x^3 + y^3", checks=("lambda", "milnor"))).to_json()
    finally:
        trace.uninstall()
    for counter in tracer.CONSTRUCTORS:
        assert trace.counts[counter] > 0, counter
    assert {"loopfun.jet", "grobner.buchberger", "cli.render"} <= set(trace.names)
