"""The benchmark's hooks into the package still exist.

`bench/tracer.py` wraps functions by name, and `bench/workloads.py` calls
some with arguments nothing in `src/` passes; a rename or deletion in `src/`
would only surface as a failed benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer,modname,attr,where", [t[:4] for t in tracer.TARGETS])
def test_tracer_target_resolves(layer, modname, attr, where):
    module = importlib.import_module(f"nlslab.{modname}")
    if where == "class":
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("modname,attr", [("grid", "NormConfig"),
                                          ("fixedpoint", "picard"),
                                          ("evolve", "EvolveConfig"),
                                          ("modulation", "ModulationContext"),
                                          ("modulation", "ShootConfig"),
                                          ("ground_state", "solve_ground_state"),
                                          ("linearized", "solve_unstable_pair")])
def test_workload_calls_bind(modname, attr):
    # every call `<x>.<attr>(...)` in the workloads, bound with its own
    # argument count and keywords
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == attr]
    assert calls
    sig = inspect.signature(getattr(importlib.import_module(f"nlslab.{modname}"), attr))
    for call in calls:
        sig.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
