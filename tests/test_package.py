"""The package exposes its modules and nothing else: `nlslab.<module>`."""

import sys
import types

import pytest

import nlslab
import nlslab.evolve as ev

MODULES = ("evolve", "fixedpoint", "grid", "ground_state", "linearized", "modulation",
           "soliton")


def test_submodule_import_binds_the_module():
    assert ev is sys.modules["nlslab.evolve"]
    assert ev.EvolveConfig(dt=0.01).dt == 0.01


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_module(name):
    assert getattr(nlslab, name) is sys.modules[f"nlslab.{name}"]


def test_package_reexports_no_names():
    public = {k: v for k, v in vars(nlslab).items() if not k.startswith("_")}
    assert set(MODULES) <= set(public)
    for name, value in public.items():   # `cli` too, once something imported it
        assert isinstance(value, types.ModuleType)
        assert value.__name__ == f"nlslab.{name}"
    assert isinstance(nlslab.__version__, str)
