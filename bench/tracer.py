"""Outside-in tracer: spans around the public functions of each nlslab layer.

A function is wrapped where its caller looks it up.  A module function is
replaced on every ``nlslab`` module that binds it (``fixedpoint`` imported
``soliton_field`` and ``h2_norm`` by name, so patching only the defining
module would miss those calls); a method is replaced on its class.  Modules
are fetched through ``importlib``, because ``import nlslab.evolve as ev``
binds the re-exported *function* ``evolve``.

Spans stay in memory while the program runs.  Each is (layer, parent span,
start, end); a layer's self time is its span durations minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


# after-hooks: (tracer, call arguments, return value)
def _sum_newton(tr, args, out):
    tr.counts["modulation.newton_iters"] += out.newton_iters


def _count_reached(tr, args, out):
    tr.counts["modulation.shoots_reached"] += out.exit_reason == "reached_T0"


def _count_picard_iters(tr, args, out):
    tr.counts["fixedpoint.picard_iters"] += len(out[0].iterate_norms)


def _count_bytes(tr, args, out):
    # write_summary returns the path it wrote; write_csv and save_field take it
    tr.counts["cli.bytes_written"] += os.path.getsize(out if out is not None else args[0])


# (layer, module, attribute, where, after-hook)
#   where = "package": every nlslab module binding the same function object
#   where = "module":  only that module's binding (its callers' lookup)
#   where = "class":   attribute is "Class.method", replaced on the class
TARGETS = (
    ("fixedpoint.picard", "fixedpoint", "picard", "package", _count_picard_iters),
    ("fixedpoint.duhamel", "fixedpoint", "duhamel_apply", "package", None),
    ("fixedpoint.sources", "fixedpoint", "SourceSet.total_active", "class", None),
    ("fixedpoint.sources", "fixedpoint", "SourceSet.a0", "class", None),
    ("fixedpoint.e_norm", "fixedpoint", "e_norm", "package", None),
    ("grid.norms", "grid", "l2_norm", "package", None),
    ("grid.norms", "grid", "h1_norm", "package", None),
    ("grid.norms", "grid", "h2_norm", "package", None),
    ("grid.field_new", "grid", "Field.__init__", "class", None),
    ("modulation.shoot", "modulation", "backward_shoot", "package", _count_reached),
    ("modulation.decompose", "modulation", "decompose", "package", _sum_newton),
    ("modulation.final_data", "modulation", "solve_modulated_final_data",
     "package", None),
    ("modulation.tilde_lyapunov", "modulation", "tilde_lyapunov", "package", None),
    ("linearized.mode_eval", "linearized", "evaluate_mode_parts", "package", None),
    ("linearized.eigensolve", "linearized", "solve_unstable_pair", "package", None),
    ("linearized.certificate", "linearized", "coercivity_certificate", "package",
     None),
    ("linearized.scaling", "linearized", "measure_scaling_exponent", "package",
     None),
    ("ground_state.solve", "ground_state", "solve_ground_state", "package", None),
    ("ground_state.shots", "ground_state", "solve_ivp", "module", None),
    ("ground_state.spline_eval", "ground_state", "GroundState.__call__", "class",
     None),
    ("ground_state.spline_eval", "ground_state", "GroundState.derivative", "class",
     None),
    ("soliton.field", "soliton", "soliton_field", "package", None),
    ("soliton.functionals", "soliton", "functionals", "package", None),
    ("evolve.cn_solve", "evolve", "CrankNicolsonStepper.linear_step", "class", None),
    ("evolve.cn_factor", "evolve", "CrankNicolsonStepper.__init__", "class", None),
    ("evolve.step", "evolve", "step", "package", None),
    ("evolve.nls_residual", "evolve", "nls_residual", "package", None),
    ("cli.run", "cli", "run", "module", None),
    ("cli.write", "cli", "write_csv", "module", _count_bytes),
    ("cli.write", "cli", "write_summary", "module", _count_bytes),
    ("cli.write", "cli", "save_field", "module", _count_bytes),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTS = {"fixedpoint.picard_iters": "count", "modulation.newton_iters": "count",
          "cli.bytes_written": "B"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlslab" or name.startswith("nlslab."))]


class Tracer:
    """Installs the wrappers; use as a context manager to restore them."""

    def __init__(self):
        self.spans = []            # (layer, parent index or -1, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []           # [span index, time covered by children]
        self._patches = []         # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------
    def span(self, layer, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given layer."""
        return self._call(layer, None, fn, args, kwargs)

    def _call(self, layer, after, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.spans[idx] = (layer, parent, start, end)
            self.calls[layer] += 1
            self.self_s[layer] += dur - frame[1]
        if after is not None:
            after(self, args, out)
        return out

    def _wrap(self, layer, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, after, fn, args, kwargs)

        return wrapper

    # -- install / restore -----------------------------------------------------
    def install(self):
        for layer, modname, attr, where, after in TARGETS:
            module = importlib.import_module(f"nlslab.{modname}")
            if where == "class":
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, cls.__dict__[meth], layer, after)
                continue
            original = getattr(module, attr)
            owners = [module] if where == "module" else [
                m for m in _package_modules() if vars(m).get(attr) is original]
            for owner in owners:
                self._patch(owner, attr, original, layer, after)
        return self

    def _patch(self, owner, attr, original, layer, after):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """{metric: (value, unit)} for every layer and counter."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name, unit in COUNTS.items():
            out[name] = (int(self.counts[name]), unit)
        shoots = self.calls["modulation.shoot"]
        reached = self.counts["modulation.shoots_reached"]
        out["modulation.shoot_yield"] = (reached / shoots if shoots else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as JSON: layer names once, then [layer, parent, start, end] in µs."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[ids[n], parent, round((a - t0) * 1e6), round((b - t0) * 1e6)]
                for n, parent, a, b in self.spans]
        path.write_text(json.dumps({"layers": names, "spans": rows},
                                   separators=(",", ":")))
