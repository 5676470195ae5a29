import numpy as np
import pytest

from nlslab.grid import Field, Obstacle, build_grid, h1_norm, l2_norm
from nlslab.ground_state import solve_ground_state
from nlslab.evolve import (
    BlowUpError,
    CrankNicolsonStepper,
    EvolveConfig,
    EvolveError,
    LinearSolveError,
    Trajectory,
    evolve,
    _phase_half_step,
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


def test_nonlinear_substep_preserves_modulus(grid):
    from nlslab.evolve import _phase_half_step

    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    out = _phase_half_step(vals, 0.05, 3.0)
    assert np.max(np.abs(np.abs(out) - np.abs(vals))) < 1e-14


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


def test_blowup_guard_raises(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    cfg = EvolveConfig(dt=0.01, t0=0.0, t1=1.0, blowup_factor=1.0 - 1e-9)
    with pytest.raises(BlowUpError):
        evolve(u0, cfg, 3.0, PARAMS)


def _reference_snapshots(u0, cfg, p):
    """evolve's snapshots from a loop of public `step` calls, and from a loop
    that rotates the phase on the whole lattice (masked points included)."""
    n = max(1, int(round(abs(cfg.t1 - cfg.t0) / cfg.dt)))
    dt = (cfg.t1 - cfg.t0) / n
    grid = u0.grid
    stepper = CrankNicolsonStepper(grid, dt, cfg.lin_tol)
    by_step, full = [u0], [u0]
    u, vals = u0, u0.values
    for k in range(1, n + 1):
        u = step(u, dt, p, cfg, stepper)
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


def test_blowup_guard_fires_at_the_first_snapshot_past_it(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    cfg = EvolveConfig(dt=0.01, t0=0.0, t1=1.0, snapshot_every=7,
                       blowup_factor=1.0 - 1e-9)
    with pytest.raises(BlowUpError) as exc:
        evolve(u0, cfg, 3.0, PARAMS)
    guard = cfg.blowup_factor * h1_norm(u0)
    by_step, _ = _reference_snapshots(u0, cfg, 3.0)
    k = next(k for k, u in enumerate(by_step) if k and h1_norm(u) > guard)
    assert exc.value.t == 0.0 + min(7 * k, 100) * 0.01
    assert exc.value.norm == h1_norm(by_step[k])


def test_dt_accuracy_bound(gs, grid):
    u0 = soliton_field(PARAMS, gs, 0.0, grid)
    with pytest.raises(EvolveError):
        evolve(u0, EvolveConfig(dt=10.0, t0=0.0, t1=20.0, c_stab=1.0), 3.0, PARAMS)


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
