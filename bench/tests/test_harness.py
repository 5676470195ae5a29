"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

The count test runs one traced set-up and solve of every workload twice
(about a minute and a half on a 2-core machine).
"""

import importlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import nlslab  # noqa: E402,F401
from run import OUT, Runner  # noqa: E402
from tracer import TARGETS, Tracer, _package_modules  # noqa: E402
from workloads import WORKLOADS, phase_from_seed  # noqa: E402


def _bindings():
    """Every attribute of every nlslab module and traced class, by identity."""
    for _, modname, *_ in TARGETS:  # load them all before the first snapshot
        importlib.import_module(f"nlslab.{modname}")
    snap = {}
    for m in _package_modules():
        for k, v in vars(m).items():
            snap[(m.__name__, k)] = v
    for _, modname, attr, where, _ in TARGETS:
        if where == "class":
            cls_name = attr.split(".")[0]
            cls = getattr(sys.modules[f"nlslab.{modname}"], cls_name)
            for k, v in vars(cls).items():
                snap[(f"{modname}.{cls_name}", k)] = v
    return snap


def _changed(before, after):
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def test_wrappers_restore_the_originals():
    before = _bindings()
    with Tracer():
        during = _bindings()
        ev = sys.modules["nlslab.evolve"]
        assert ev.CrankNicolsonStepper.linear_step.__wrapped__ is \
            before[("evolve.CrankNicolsonStepper", "linear_step")]
        # imported by name into fixedpoint, so wrapped there too
        assert sys.modules["nlslab.fixedpoint"].soliton_field is not \
            before[("nlslab.fixedpoint", "soliton_field")]
        assert sys.modules["nlslab.modulation"].evaluate_mode_parts is not \
            before[("nlslab.modulation", "evaluate_mode_parts")]
    assert _changed(before, during)
    assert _changed(before, _bindings()) == []


def test_wrappers_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _changed(before, _bindings()) == []


def test_self_time_excludes_children():
    tr = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tr.span("inner", inner)
        tr.span("inner", inner)

    tr.span("outer", outer)
    (_, p_in1, a1, b1), (_, p_in2, a2, b2) = tr.spans[1], tr.spans[2]
    name, parent, start, end = tr.spans[0]
    assert (name, parent, p_in1, p_in2) == ("outer", -1, 0, 0)
    assert tr.calls == {"outer": 1, "inner": 2}
    assert tr.self_s["inner"] == pytest.approx((b1 - a1) + (b2 - a2))
    assert tr.self_s["outer"] == pytest.approx((end - start) - (b1 - a1) - (b2 - a2))
    assert 0.005 < tr.self_s["outer"] < tr.self_s["inner"]


def test_seed_sets_only_the_phase():
    assert phase_from_seed(4) == phase_from_seed(4)
    assert phase_from_seed(4) != phase_from_seed(5)
    a, b = WORKLOADS["desk_cli"](4, None), WORKLOADS["desk_cli"](5, None)
    assert (a.seed, b.seed) == (4, 5) and a.theta0 != b.theta0


def _traced_counts(name, seed):
    wl = WORKLOADS[name](seed, OUT / f"selftest-{name}")
    runner = Runner(wl)
    tracer = Tracer()
    with tracer:
        tracer.span("bench.setup", wl.setup)
        tracer.span("bench.solve", runner.solve)
    assert runner.failures == []
    return {k: v for k, (v, unit) in tracer.layer_metrics().items()
            if unit in ("count", "B", "ratio")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    first, second = _traced_counts(name, 7), _traced_counts(name, 7)
    assert first == second
    busy = {"picard_v8": "evolve.cn_solve.calls",
            "shoot_search_p7": "modulation.shoot.calls",
            "desk_cli": "cli.run.calls"}[name]
    assert first[busy] > 0


def test_refuses_to_run_without_the_program():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "picard_v8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
