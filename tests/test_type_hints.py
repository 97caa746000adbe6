"""Every annotation in loopsing names something its module defines or imports.

Under `from __future__ import annotations` an annotation is a string that
nothing evaluates until a caller asks for it, so a name the module never
imports would go unnoticed; `typing.get_type_hints` evaluates each one.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing
from collections.abc import Iterator

import pytest

import loopsing

# `loopsing.cli.__main__` only calls `main`; it defines nothing.
MODULES = ["loopsing"] + sorted(
    info.name
    for info in pkgutil.walk_packages(loopsing.__path__, "loopsing.")
    if not info.name.endswith(".__main__")
)


def _defined_in(namespace: dict, module: str) -> Iterator[typing.Callable]:
    """The functions and methods in a module's or class's namespace that the
    module defines, those of its classes included."""
    for value in namespace.values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if inspect.isfunction(f))
        elif inspect.isfunction(value) and value.__module__ == module:
            yield value
        elif inspect.isclass(value) and value.__module__ == module:
            yield from _defined_in(vars(value), module)


def test_every_module_is_found():
    assert {"loopsing.cohom", "loopsing.grobner", "loopsing.loopfun", "loopsing.cli.main"} <= set(
        MODULES
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    functions = list(_defined_in(vars(module), name))
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{function.__qualname__}: {exc}")
    assert unresolved == []
