"""The package exposes its modules and nothing else: `nlslab.<module>`."""

import ast
import sys
import types
from pathlib import Path

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


# how a worker process is forked, spoken to and shares pages is known to
# `evolve` alone
_WORKER_CALLS = {("os", "fork"), ("os", "pipe"), ("os", "fdopen")}
_WORKER_MODULES = {"pickle", "struct", "fcntl", "mmap"}


def _worker_plumbing(path):
    """The os.fork/os.pipe/os.fdopen calls and the pickle, struct, fcntl and
    mmap imports in the source file at path, as (line, name)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and (owner.id, node.func.attr) in _WORKER_CALLS:
                found.append((node.lineno, f"{owner.id}.{node.func.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            found += [(node.lineno, n) for n in names if n.split(".")[0] in _WORKER_MODULES]
    return found


def test_only_evolve_forks_and_pipes():
    src = Path(nlslab.__file__).parent
    assert {"os.fork", "os.pipe", "os.fdopen", "pickle", "struct", "mmap"} <= {
        name for _, name in _worker_plumbing(src / "evolve.py")}
    for path in sorted(src.glob("*.py")):
        if path.name != "evolve.py":
            assert _worker_plumbing(path) == [], path.name
