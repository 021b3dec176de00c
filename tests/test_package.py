"""The public API is declared once: each module's ``__all__``."""

import importlib
import inspect

import hierpart

_REEXPORTED = ("errors", "graph", "hierarchy", "kway", "mesh", "nodes")


def test_every_public_name_is_defined_in_its_module():
    # perfbench's tracer times only functions whose __module__ is the module
    # that lists them, so a re-exported name would go untimed.
    for short in _REEXPORTED + ("cli",):
        mod = importlib.import_module(f"hierpart.{short}")
        for name in mod.__all__:
            assert getattr(mod, name).__module__ == mod.__name__, f"{short}.{name}"


def test_hierpart_exposes_exactly_the_modules_lists():
    listed = set()
    for short in _REEXPORTED:
        listed |= set(importlib.import_module(f"hierpart.{short}").__all__)
    public = {
        name
        for name, value in vars(hierpart).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == listed
