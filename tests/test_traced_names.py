"""The benchmark's tracer wraps opg functions by name; every name it lists must exist."""

import ast
import importlib
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _traced() -> dict[str, tuple[str, ...]]:
    """``TRACED`` from the tracer's source, read without importing it."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


TRACED = [(layer, name) for layer, names in _traced().items() for name in names]


def test_the_tracer_lists_names():
    assert len(TRACED) > 0


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_each_traced_name_is_a_function_of_its_module(layer, name):
    module = importlib.import_module(f"opg.{layer}")
    assert inspect.isfunction(getattr(module, name, None)), f"opg.{layer}.{name}"
