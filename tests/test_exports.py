"""Every name a module of the package exports is defined there, so trimming the
API cannot leave a dangling export behind."""

import glob
import importlib
import inspect
import os
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


def test_strict_pairs_are_enumerated_in_one_place():
    """``data._strict_pairs`` alone lists a weak ranking's strict pairs, for the score models and
    the permutation-noise estimators alike; a second enumeration fails here."""
    package = os.path.dirname(opg.__file__)
    uses = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            count = fh.read().count("triu_indices")
        if count:
            uses[os.path.basename(path)] = count
    assert uses == {"data.py": 1}
    assert "triu_indices" in inspect.getsource(opg.data._strict_pairs)


def test_only_plain_thur_draws():
    """No Mallows fit draws, and of the score models only plain ``thur``'s SVRG steps do: a seeded
    generator anywhere else in the two modules fails here."""
    package = os.path.dirname(opg.__file__)
    for name in ("mallows.py", "scoremodels.py"):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        if name == "scoremodels.py":
            svrg = inspect.getsource(opg.scoremodels._svrg_scores)
            assert "np.random" in svrg and "default_rng" in svrg
            source = source.replace(svrg, "")
        assert "np.random" not in source and "default_rng" not in source, name
