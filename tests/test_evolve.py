import fcntl
import importlib
import os
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab.grid import Field, Obstacle, build_grid, h1_norm, l2_norm, to_active
from nlslab.ground_state import solve_ground_state
from nlslab.evolve import (
    BlowUpError,
    CrankNicolsonStepper,
    EvolveConfig,
    EvolveError,
    EvolveInputError,
    LinearSolveError,
    MAX_STEPS,
    Trajectory,
    evolve,
    march,
    march_ahead,
    step_count,
    _phase_half_step,
    _rotate,
    nls_residual,
    step,
)
from nlslab.soliton import SolitonParams, galilean_boost, soliton_field


@pytest.fixture(scope="module")
def gs():
    return solve_ground_state(3, 1.0, 1)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 20.0, 511)


PARAMS = SolitonParams(omega=1.0, v=(1.0,), p=3.0)


def test_zero_field_stays_zero(grid):
    u = step(Field.zeros(grid), 0.01, 3.0)
    assert l2_norm(u) == 0.0


def test_linear_step_is_isometry(grid):
    rng = np.random.default_rng(0)
    u = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    # p-term disabled: p=1 makes the phase rotation a global constant
    v = step(u, 0.01, 1.0)
    assert l2_norm(v) == pytest.approx(l2_norm(u), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_step_rejects_nonfinite_input(grid, bad):
    stepper = CrankNicolsonStepper(grid, -0.01)
    vec = np.zeros(grid.n_active, dtype=complex)
    poisoned = vec.copy()
    poisoned[grid.n_active // 2] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(LinearSolveError):
            stepper.linear_step(poisoned)
        with pytest.raises(LinearSolveError):
            stepper.linear_step(vec, poisoned)


def test_evolve_overflow_raises_evolve_error():
    g = build_grid(1, 10.0, 255)
    u0 = Field(g, 2e51 * np.exp(-g.coordinate(0) ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvolveError, match="non-finite"):
            evolve(u0, EvolveConfig(dt=0.002, t1=0.01), 7.0)


def test_evolve_nonfinite_state_raises_evolve_error(grid, monkeypatch):
    # a state that turns non-finite after the last CN solve (in the trailing
    # half step) is raised as a numerical failure, not a Field validation error
    u0 = Field(grid, np.exp(-grid.coordinate(0) ** 2))
    calls = []

    def half_step(vals, dt, p):
        calls.append(dt)
        return vals * np.nan if len(calls) == 2 else vals

    monkeypatch.setattr(importlib.import_module("nlslab.evolve"), "_phase_half_step",
                        half_step)
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvolveError, match="non-finite state"):
            evolve(u0, EvolveConfig(dt=0.01, t1=0.01), 3.0)


def test_nonlinear_substep_preserves_modulus(grid):
    from nlslab.evolve import _phase_half_step

    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    out = _phase_half_step(vals, 0.05, 3.0)
    assert np.max(np.abs(np.abs(out) - np.abs(vals))) < 1e-14


@pytest.mark.parametrize("p", [3.0, 3.5, 7.0, 9.0])
@pytest.mark.parametrize("dt", [0.002, -0.002, 0.01, -0.001])
def test_rotation_is_the_exponential_bit_for_bit(p, dt):
    # cos + i sin of the same angle, not (|u|^2)^((p-1)/2), which moves bits;
    # the second set of magnitudes puts the angle on both sides of 2^-27
    rng = np.random.default_rng(int(10 * p) + int(1e4 * dt))
    mags = np.concatenate([
        np.logspace(-3, np.log10(30.0), 200),
        (np.geomspace(2.0**-30, 2.0**-24, 200) / abs(0.5 * dt)) ** (1.0 / (p - 1.0))])
    vals = mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, mags.size))
    half = vals * np.exp(0.5j * dt * np.abs(vals) ** (p - 1.0))
    full = vals * np.exp(1j * dt * np.abs(vals) ** (p - 1.0))
    assert _phase_half_step(vals, dt, p).tobytes() == half.tobytes()
    assert _rotate(vals, dt, p).tobytes() == full.tobytes()


def _march_states(every, n_steps, forcing=None):
    g = build_grid(1, 20.0, 511, Obstacle("ball", 1.0))
    u0 = soliton_field(SolitonParams(omega=1.0, v=(1.0,), p=7.0, x0=(5.0,)),
                       solve_ground_state(7, 1.0, 1), 0.0, g)
    stepper = CrankNicolsonStepper(g, -0.002)
    return [(k, vec.copy()) for k, vec in
            march(stepper, to_active(u0), n_steps, 7.0, forcing, every=every)]


@pytest.mark.parametrize("every", [3, 10, 60])
def test_march_every_yields_the_same_steps(every):
    # merged half rotations move a state by roundoff only: 1e-12 relative
    n_steps = 50
    plain = _march_states(1, n_steps)
    merged = _march_states(every, n_steps)
    want = [k for k, _ in plain if k % every == 0 or k == n_steps]
    assert [k for k, _ in merged] == want
    ref = dict(plain)
    assert np.array_equal(merged[0][1], ref[0])
    for k, vec in merged:
        assert np.max(np.abs(vec - ref[k])) <= 1e-12 * np.max(np.abs(ref[k]))


def test_march_every_calls_forcing_at_every_step():
    calls = []

    def forcing(k):
        calls.append(k)
        return np.zeros(1, dtype=complex)

    assert [k for k, _ in _march_states(4, 9, forcing)] == [0, 4, 8, 9]
    assert calls == list(range(10))


@pytest.fixture(scope="module")
def march_start():
    """p -> (stepper, active start vector) of a soliton beside an obstacle."""
    g = build_grid(1, 20.0, 511, Obstacle("ball", 1.0))
    out = {}
    for p in (3.0, 7.0):
        pa = SolitonParams(omega=1.0, v=(1.0,), p=p, x0=(5.0,))
        u0 = soliton_field(pa, solve_ground_state(p, 1.0, 1), 0.0, g)
        out[p] = CrankNicolsonStepper(g, -0.002), to_active(u0)
    return out


def _states(gen):
    return [(k, vec.tobytes()) for k, vec in gen]


def _forks(monkeypatch):
    """Record the pids os.fork returns in this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _two_cores():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("march_ahead forks only with two usable cores")


@pytest.mark.parametrize("p", [3.0, 7.0])
@pytest.mark.parametrize("every", [1, 3, 10])
def test_march_ahead_yields_what_march_yields(monkeypatch, march_start, p, every):
    # 25 steps: not a multiple of 3 or 10, so the last state is off the grid
    _two_cores()
    stepper, vec = march_start[p]
    pids = _forks(monkeypatch)
    ahead = _states(march_ahead(stepper, vec, 25, p, every))
    assert len(pids) == 1
    assert ahead == _states(march(stepper, vec, 25, p, every=every))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closing_march_ahead_leaves_no_child(monkeypatch, march_start):
    _two_cores()
    stepper, vec = march_start[7.0]
    pids = _forks(monkeypatch)
    gen = march_ahead(stepper, vec, 1000, 7.0)
    assert [k for (k, _), _ in zip(gen, range(2))] == [0, 1]
    gen.close()
    with pytest.raises(KeyboardInterrupt):
        with closing(march_ahead(stepper, vec, 1000, 7.0)) as states:
            for k, _ in states:
                if k == 2:
                    raise KeyboardInterrupt
    assert len(pids) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _nan_at(call):
    """A _rotate that returns NaN at its call-th call (from 1)."""
    calls = []

    def rotate(vals, h, p):
        calls.append(h)
        out = _rotate(vals, h, p)
        return out * np.nan if len(calls) == call else out

    return rotate


def _until_error(gen):
    states = []
    with pytest.raises(LinearSolveError) as exc:
        for k, vec in gen:
            states.append((k, vec.tobytes()))
    return states, type(exc.value), str(exc.value)


# with every=3 a block of three steps makes four rotations: a half, two full
# and the trailing half, whose NaN is yielded before the next solve fails
@pytest.mark.parametrize("call, n_states", [(1, 1), (7, 2), (8, 3), (26, 7)])
def test_march_ahead_raises_the_worker_error_after_its_states(monkeypatch, march_start,
                                                               call, n_states):
    stepper, vec = march_start[7.0]
    evolve_mod = importlib.import_module("nlslab.evolve")
    with np.errstate(invalid="ignore"):
        monkeypatch.setattr(evolve_mod, "_rotate", _nan_at(call))
        serial = _until_error(march(stepper, vec, 40, 7.0, every=3))
        monkeypatch.setattr(evolve_mod, "_rotate", _nan_at(call))
        ahead = _until_error(march_ahead(stepper, vec, 40, 7.0, 3))
    assert ahead == serial
    assert serial[1] is LinearSolveError and "non-finite" in serial[2]
    assert len(serial[0]) == n_states
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_march_ahead_reports_a_worker_that_ends_early(monkeypatch, march_start):
    _two_cores()
    stepper, vec = march_start[7.0]

    class Unpicklable(Exception):   # a local class: the worker cannot send it
        pass

    def rotate(vals, h, p):
        raise Unpicklable("x")

    monkeypatch.setattr(importlib.import_module("nlslab.evolve"), "_rotate", rotate)
    states = []
    with pytest.raises(EvolveError, match="march worker ended before step 10"):
        for k, _ in march_ahead(stepper, vec, 10, 7.0):
            states.append(k)
    assert states == [0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_march_ahead_on_one_core_forks_nothing(monkeypatch, march_start):
    stepper, vec = march_start[7.0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pids = _forks(monkeypatch)
    ahead = _states(march_ahead(stepper, vec, 25, 7.0, 10))
    assert pids == []
    assert ahead == _states(march(stepper, vec, 25, 7.0, every=10))


def test_march_ahead_reports_a_worker_that_ends_inside_a_state(monkeypatch, march_start):
    _two_cores()
    stepper, vec = march_start[7.0]
    evolve_mod = importlib.import_module("nlslab.evolve")

    def half_a_state(out, args):
        os.write(out, evolve_mod._HEADER.pack(0, 0) + bytes(8 * vec.size))
        os._exit(0)

    monkeypatch.setattr(evolve_mod, "_march_worker", half_a_state)
    with pytest.raises(EvolveError, match="march worker ended before step 10"):
        next(march_ahead(stepper, vec, 10, 7.0))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dim", [1, 2])
def test_march_ahead_streams_a_state_larger_than_the_pipe(gs, dim):
    _two_cores()
    if dim == 1:
        g = build_grid(1, 20.0, 8191, Obstacle("ball", 1.0))
        pa = SolitonParams(omega=1.0, v=(1.0,), p=3.0, x0=(5.0,))
        u0 = soliton_field(pa, gs, 0.0, g)
    else:
        g = build_grid(2, 16.0, 127, Obstacle("ball", 0.9))
        pa = SolitonParams(omega=1.0, v=(0.5, 0.0), p=3.0, x0=(4.0, 0.0))
        u0 = soliton_field(pa, solve_ground_state(3, 1.0, 2), 0.0, g)
    stepper, vec = CrankNicolsonStepper(g, -0.002), to_active(u0)
    r, w = os.pipe()
    pipe_size = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ)
    os.close(r)
    os.close(w)
    assert vec.nbytes > pipe_size
    assert (_states(march_ahead(stepper, vec, 5, 3.0, 2))
            == _states(march(stepper, vec, 5, 3.0, every=2)))


# A consumer that takes two states of a long march and exits without closing
# the generator; it writes the worker's pid to the file named in argv[1].
_DYING_CONSUMER = """
import os, sys
import numpy as np
from nlslab.evolve import CrankNicolsonStepper, march_ahead
from nlslab.grid import build_grid

fork = os.fork

def forked():
    pid = fork()
    if pid:
        with open(sys.argv[1], "w") as f:
            f.write(str(pid))
    return pid

os.fork = forked
grid = build_grid(1, 20.0, 511)
states = march_ahead(CrankNicolsonStepper(grid, -0.002),
                     np.full(grid.n_active, 0.5 + 0j), 10**6, 3.0)
next(states), next(states)
os._exit(0)
"""


def test_a_consumer_that_dies_leaves_no_live_worker(tmp_path):
    _two_cores()
    pid_file = tmp_path / "worker.pid"
    env = {**os.environ, "PYTHONPATH": str(Path(nlslab.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", _DYING_CONSUMER, str(pid_file)],
                   env=env, timeout=60, check=True)
    status = Path(f"/proc/{int(pid_file.read_text())}/status")
    deadline = time.monotonic() + 5.0
    while status.exists() and "State:\tZ" not in status.read_text():
        assert time.monotonic() < deadline, "the march worker outlived its consumer"
        time.sleep(0.05)


def test_traveling_soliton_order_two(gs):
    errs = []
    for n, dt in [(511, 0.01), (1023, 0.005)]:
        g = build_grid(1, 20.0, n)
        u0 = soliton_field(PARAMS, gs, 0.0, g)
        traj = evolve(u0, EvolveConfig(dt=dt, t0=0.0, t1=2.0, snapshot_every=100), 3.0, PARAMS)
        errs.append(l2_norm(traj.snapshots[-1] - soliton_field(PARAMS, gs, 2.0, g)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_mass_drift_tiny(gs):
    g = build_grid(1, 20.0, 1023)
    u0 = soliton_field(PARAMS, gs, 0.0, g)
    traj = evolve(u0, EvolveConfig(dt=0.002, t0=0.0, t1=2.0, snapshot_every=100), 3.0, PARAMS)
    cons = traj.conservation_array()
    assert np.max(np.abs(cons[:, 1] - cons[0, 1])) / cons[0, 1] < 1e-8


def test_energy_and_lyapunov_drift_regression(gs):
    # reference resolution n=4095, dt=2e-3 over 10^3 steps; measured energy
    # baseline was 5.1e-8 relative.  the free-space lyapunov combination is a
    # fixed linear combination of M, E, P and drifts at the same scale.
    g = build_grid(1, 20.0, 4095)
    u0 = soliton_field(PARAMS, gs, 0.0, g)
    traj = evolve(u0, EvolveConfig(dt=0.002, t0=0.0, t1=2.0, snapshot_every=200), 3.0, PARAMS)
    cons = traj.conservation_array()
    e_drift = np.max(np.abs(cons[:, 2] - cons[0, 2])) / abs(cons[0, 2])
    l_drift = np.max(np.abs(cons[:, 3] - cons[0, 3])) / abs(cons[0, 3])
    assert e_drift < 1e-6
    assert l_drift < 1e-6


def test_forward_backward_reversal(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    fw = evolve(u0, EvolveConfig(dt=0.01, t0=0.0, t1=1.0), 3.0, PARAMS)
    bw = evolve(fw.snapshots[-1], EvolveConfig(dt=0.01, t0=1.0, t1=0.0), 3.0, PARAMS)
    assert l2_norm(bw.snapshots[-1] - u0) < 1e-6


def test_gauge_covariance(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    cfg = EvolveConfig(dt=0.01, t0=0.0, t1=0.5)
    a = evolve(Field(grid, np.exp(0.7j) * u0.values), cfg, 3.0, PARAMS)
    b = evolve(u0, cfg, 3.0, PARAMS)
    diff = a.snapshots[-1].values - np.exp(0.7j) * b.snapshots[-1].values
    assert np.max(np.abs(diff)) < 1e-12


def test_boost_then_evolve_matches_moving_soliton(gs):
    # boosting the rest state and evolving reproduces the traveling solution
    g = build_grid(1, 20.0, 1023)
    rest = SolitonParams(omega=1.0, v=(0.0,), p=3.0)
    u0 = galilean_boost(soliton_field(rest, gs, 0.0, g), (1.0,), 0.0)
    traj = evolve(u0, EvolveConfig(dt=0.005, t0=0.0, t1=1.0), 3.0, PARAMS)
    exact = soliton_field(SolitonParams(omega=1.0, v=(1.0,), p=3.0), gs, 1.0, g)
    assert l2_norm(traj.snapshots[-1] - exact) < 5e-3


def test_dirichlet_invariant_with_obstacle(gs):
    g = build_grid(1, 20.0, 1023, Obstacle("ball", 1.0))
    pa = SolitonParams(omega=1.0, v=(1.0,), p=3.0, x0=(5.0,))
    u0 = soliton_field(pa, gs, 0.0, g)
    traj = evolve(u0, EvolveConfig(dt=0.005, t0=0.0, t1=0.5, snapshot_every=20), 3.0, pa)
    for snap in traj.snapshots:
        assert np.all(snap.values[~g.mask] == 0.0)


def test_disk_obstacle_2d_smoke(gs):
    # dimension-general path: a ring state outside a disk keeps mass and the
    # Dirichlet zeros over a short run
    from nlslab.ground_state import solve_ground_state

    gs2 = solve_ground_state(3, 1.0, 2)
    g = build_grid(2, 16.0, 127, Obstacle("ball", 0.9))
    pa = SolitonParams(omega=1.0, v=(0.5, 0.0), p=3.0, x0=(4.0, 0.0))
    u0 = soliton_field(pa, gs2, 0.0, g)
    traj = evolve(u0, EvolveConfig(dt=0.005, t0=0.0, t1=0.1, snapshot_every=5),
                  3.0, pa)
    cons = traj.conservation_array()
    assert abs(cons[-1, 1] - cons[0, 1]) / cons[0, 1] < 1e-10
    assert np.all(traj.snapshots[-1].values[~g.mask] == 0.0)


def test_blowup_guard_raises(monkeypatch, gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    monkeypatch.setattr(importlib.import_module("nlslab.evolve"), "BLOWUP_FACTOR",
                        1.0 - 1e-9)
    cfg = EvolveConfig(dt=0.01, t0=0.0, t1=1.0)
    with pytest.raises(BlowUpError):
        evolve(u0, cfg, 3.0, PARAMS)


def _reference_snapshots(u0, cfg, p):
    """evolve's snapshots from a loop of public `step` calls, and from a loop
    that rotates the phase on the whole lattice (masked points included)."""
    n = max(1, int(round(abs(cfg.t1 - cfg.t0) / cfg.dt)))
    dt = (cfg.t1 - cfg.t0) / n
    grid = u0.grid
    stepper = CrankNicolsonStepper(grid, dt)
    by_step, full = [u0], [u0]
    u, vals = u0, u0.values
    for k in range(1, n + 1):
        u = step(u, dt, p, stepper)
        vals = _phase_half_step(vals, dt, p)
        vals[grid.mask] = stepper.linear_step(vals[grid.mask])
        vals = _phase_half_step(vals, dt, p)
        if k % cfg.snapshot_every == 0 or k == n:
            by_step.append(u)
            full.append(Field(grid, vals))
    return by_step, full


@pytest.mark.parametrize("dim, t0, t1", [(1, 0.0, 0.3), (1, 0.3, 0.0),
                                         (2, 0.0, 0.05), (2, 0.05, 0.0)])
def test_evolve_equals_a_loop_of_steps(gs, dim, t0, t1):
    if dim == 1:
        g = build_grid(1, 20.0, 1023, Obstacle("ball", 1.0))
        pa = SolitonParams(omega=1.0, v=(1.0,), p=3.0, x0=(5.0,))
        u0 = soliton_field(pa, gs, 0.0, g)
    else:
        g = build_grid(2, 16.0, 63, Obstacle("ball", 0.9))
        pa = SolitonParams(omega=1.0, v=(0.5, 0.2), p=3.0, x0=(4.0, 0.0))
        u0 = soliton_field(pa, solve_ground_state(3, 1.0, 2), 0.0, g)
    cfg = EvolveConfig(dt=0.005, t0=t0, t1=t1, snapshot_every=4)
    traj = evolve(u0, cfg, 3.0, pa)
    by_step, full = _reference_snapshots(u0, cfg, 3.0)
    assert len(traj) == len(by_step) == len(full)
    for snap, ref, ref_full in zip(traj.snapshots, by_step, full):
        assert np.array_equal(snap.values, ref.values)
        assert np.array_equal(snap.values, ref_full.values)
        assert np.all(snap.values[~g.mask] == 0.0)


def test_blowup_guard_fires_at_the_first_snapshot_past_it(monkeypatch, gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    monkeypatch.setattr(importlib.import_module("nlslab.evolve"), "BLOWUP_FACTOR",
                        1.0 - 1e-9)
    cfg = EvolveConfig(dt=0.01, t0=0.0, t1=1.0, snapshot_every=7)
    with pytest.raises(BlowUpError) as exc:
        evolve(u0, cfg, 3.0, PARAMS)
    guard = (1.0 - 1e-9) * h1_norm(u0)
    by_step, _ = _reference_snapshots(u0, cfg, 3.0)
    k = next(k for k, u in enumerate(by_step) if k and h1_norm(u) > guard)
    assert exc.value.t == 0.0 + min(7 * k, 100) * 0.01
    assert exc.value.norm == h1_norm(by_step[k])


def test_step_count():
    assert step_count(0.0, 0.1) == 1
    assert step_count(-0.3, 0.1) == 3
    assert step_count(1.0, 1e-8) == MAX_STEPS
    for span, dt in [(1.0, 0.99e-8), (1e300, 1.0), (np.inf, 1.0), (1.0, 1e-300)]:
        with pytest.raises(EvolveInputError, match="MAX_STEPS"):
            step_count(span, dt)


def test_dt_accuracy_bound(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    with pytest.raises(EvolveError):
        evolve(u0, EvolveConfig(dt=10.0, t0=0.0, t1=20.0), 3.0, PARAMS)


# -------------------------------------------------------------- nls_residual

def test_residual_of_exact_soliton_refines(gs):
    norms = []
    for n, dts in [(511, 0.01), (1023, 0.005)]:
        g = build_grid(1, 20.0, n)
        ts = np.arange(0.0, 0.5 + dts / 2, dts)
        snaps = [soliton_field(PARAMS, gs, t, g) for t in ts]
        traj = Trajectory(times=ts, snapshots=snaps, conservation=[], p=3.0)
        norms.append(np.max(nls_residual(traj)))
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)


def test_residual_zero_field(grid):
    ts = np.array([0.0, 0.1, 0.2])
    traj = Trajectory(times=ts, snapshots=[Field.zeros(grid)] * 3, conservation=[], p=3.0)
    assert np.all(nls_residual(traj) == 0.0)


def test_residual_needs_three_snapshots(grid):
    traj = Trajectory(times=np.array([0.0, 0.1]),
                      snapshots=[Field.zeros(grid)] * 2, conservation=[], p=3.0)
    with pytest.raises(EvolveError):
        nls_residual(traj)
