"""The benchmark tracer's wrap targets still exist in the package.

`bench/tracer.py` wraps functions by name; a rename or deletion in `src/`
would only surface as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
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
