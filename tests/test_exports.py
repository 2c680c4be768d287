"""Every name a module of the package exports is defined there, so trimming the
API cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import opg

MODULES = ["opg"] + [f"opg.{info.name}" for info in pkgutil.iter_modules(opg.__path__)]


def test_every_module_is_listed():
    assert {"opg.scoremodels", "opg.synth", "opg.experiments"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_each_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names: {missing}"
