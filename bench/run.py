"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload picard_v8 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up is repeated SETUP_REPS times; then the solve phase is repeated while
another solve still fits in ``--seconds`` (at least once).  Every solve's
outputs are checked against the references in ``workloads.py``, outside
the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics: setup_s,
solve_s and peak_rss_mb.  With ``--trace 1`` the same untraced solves run
first, then one traced set-up and solve, and the last line reports the
per-layer metrics of the traced run plus the tracing overhead.  The lines
before it say the same in words, with sample counts, the failure ratio and
the environment.  Full results go to ``bench/out/``.
"""

import time

_PROCESS_T0 = time.perf_counter()  # first, so that setup_s covers every import

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3


def import_program():
    """Import nlslab from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import nlslab

    if not Path(nlslab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"nlslab imported from {nlslab.__file__}, not {src}")
    return nlslab


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_env": {k: os.environ[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be read."""
    import ctypes

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Runner:
    """Times set-ups and solves of one workload and tallies its operations."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []

    def setup(self):
        t = time.perf_counter()
        self.wl.setup()
        return time.perf_counter() - t

    def solve(self):
        """One timed solve phase, then the untimed output checks."""
        results = []
        t = time.perf_counter()
        for name, fn in self.wl.operations():
            try:
                results.append((name, fn(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((name, None, exc))
        elapsed = time.perf_counter() - t
        for name, out, exc in results:
            self.attempted += 1
            if exc is None:
                try:
                    msgs = self.wl.check(name, out)
                except Exception as check_exc:
                    msgs = [f"check raised {check_exc!r}"]
            else:
                msgs = ["".join(traceback.format_exception_only(exc)).strip()]
            if msgs:
                self.failures.append((name, msgs))
        return elapsed


def fmt(values):
    return ", ".join(f"{v:.4g}" for v in values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_T0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT / args.workload)
    runner = Runner(wl)

    setup_times = [runner.setup() for _ in range(SETUP_REPS)]
    solve_times = []
    reserve = 2 if args.trace else 1   # room for the traced solve
    t_measure = time.perf_counter()
    while True:
        solve_times.append(runner.solve())
        elapsed = time.perf_counter() - t_measure
        if elapsed + reserve * statistics.median(solve_times) > args.seconds:
            break
    solve_s = statistics.median(solve_times)

    lines = [f"workload {wl.name}  seed {wl.seed}  theta0 {wl.theta0:.6f}"]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            tracer.span("bench.setup", wl.setup)
            traced_s = tracer.span("bench.solve", runner.solve)
        overhead = traced_s - solve_s
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / solve_s, "ratio")
        tracer.write_spans(OUT / f"{wl.name}-spans.json")
        lines.append(f"traced solve {traced_s:.4g} s against untraced median "
                     f"{solve_s:.4g} s of {len(solve_times)}: overhead "
                     f"{overhead:.4g} s ({100 * overhead / solve_s:.1f}%)")
        lines += [f"  {name:36s} {value:.6g} {unit}"
                  for name, (value, unit) in metrics.items()]
    else:
        setup_s = import_s + statistics.median(setup_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "solve_s": (solve_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        lines += [
            f"setup_s      {setup_s:.4g} s  (import {import_s:.4g} s + median of "
            f"{len(setup_times)} set-ups: {fmt(setup_times)})",
            f"solve_s      {solve_s:.4g} s  (median of {len(solve_times)} solves: "
            f"{fmt(solve_times)})",
            f"peak_rss_mb  {rss_mb:.4g} MB",
        ]
    failed = len(runner.failures)
    lines.append(f"fail_ratio   {failed}/{runner.attempted} = "
                 f"{failed / runner.attempted:.4g}")
    env = environment()
    lines.append("environment  " + json.dumps(env, sort_keys=True))
    for name, msgs in runner.failures:
        print(f"FAILED {name}: " + "; ".join(msgs), file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps({
        **result, "workload": wl.name, "seed": wl.seed, "environment": env,
        "import_s": import_s, "setup_times_s": setup_times,
        "solve_times_s": solve_times, "failures": runner.failures,
    }, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
