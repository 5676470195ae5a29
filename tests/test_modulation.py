import inspect
import os

import numpy as np
import pytest

import nlslab.evolve as evolve
import nlslab.modulation as modulation
from nlslab.evolve import EvolveError
from nlslab.fixedpoint import make_sources
from nlslab.grid import Field, Obstacle, PreconditionError, build_cutoff, build_grid, l2_norm
from nlslab.ground_state import sample_on_grid, solve_ground_state
from nlslab.modulation import (
    ModulationContext,
    ModulationError,
    ModulationInputError,
    ShootConfig,
    alpha_minus_monitor,
    backward_shoot,
    coercivity_along_trajectory,
    decompose,
    final_data,
    growth_rate_fit,
    lyapunov_drift_fit,
    shoot_search,
    solve_modulated_final_data,
    tilde_lyapunov,
    uniform_distance_fit,
)
from nlslab.modulation import _final_data_map, _jacobian, _orthogonality
from nlslab.soliton import SolitonParams, ansatz, eigenmode_field, soliton_field

T_REF = 6.0


def make_state(ctx, t, y, mu, extra=None):
    a = ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi, np.atleast_1d(y), mu)
    vals = a.qpsi * a.ph
    if extra is not None:
        vals = vals + extra
    return Field(ctx.grid, vals)


# --------------------------------------------------- one ansatz evaluator

@pytest.mark.parametrize("t", [1.1, T_REF, 8.0])
def test_every_ansatz_copy_agrees_bit_for_bit(shoot_ctx, t):
    # t = 1.1 puts the profile on the cutoff's ramp, next to the obstacle
    ctx = shoot_ctx
    R = soliton_field(ctx.params, ctx.gs, t, ctx.grid, ctx.psi).values
    src = make_sources(ctx.params, ctx.gs, ctx.psi, ctx.grid)
    a = ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi, 0, 0)
    assert np.array_equal(Field(ctx.grid, src._ansatz(t)).values, R)
    assert np.array_equal(Field(ctx.grid, a.qpsi * a.ph).values, R)
    data = inspect.getclosurevars(_final_data_map(ctx, t)).nonlocals
    assert np.array_equal(Field(ctx.grid, data["R"]).values, R)
    for sign, key in ((+1, "yp"), (-1, "ym")):
        y = eigenmode_field(ctx.params, ctx.modes, t, ctx.grid, ctx.psi, sign)
        assert np.array_equal(Field(ctx.grid, data[key]).values, y.values)


# ----------------------------------------------------------------- decompose

def test_recover_known_modulation(shoot_ctx):
    u = make_state(shoot_ctx, T_REF, 0.05, -0.06)
    st = decompose(shoot_ctx, u, T_REF)
    assert st.y[0] == pytest.approx(0.05, abs=1e-9)
    assert st.mu == pytest.approx(-0.06, abs=1e-9)
    assert l2_norm(st.r) < 1e-10


def test_exact_soliton_decomposes_to_zero(shoot_ctx):
    u = soliton_field(shoot_ctx.params, shoot_ctx.gs, T_REF, shoot_ctx.grid,
                      shoot_ctx.psi)
    st = decompose(shoot_ctx, u, T_REF)
    assert np.max(np.abs(st.y)) < 1e-12
    assert abs(st.mu) < 1e-12
    assert l2_norm(st.r) < 1e-14
    assert st.alpha_plus == st.alpha_minus == 0.0


def test_orthogonality_residuals_hold(shoot_ctx):
    rng = np.random.default_rng(3)
    x = shoot_ctx.grid.axes[0]
    bump = 0.02 * np.exp(-((x - 12.2) ** 2)) * (1.0 + 0.5j)
    u = make_state(shoot_ctx, T_REF, 0.01, 0.02, extra=bump)
    st = decompose(shoot_ctx, u, T_REF)
    res, scales, _, _ = _orthogonality(shoot_ctx, u, T_REF, st.y, st.mu)
    assert np.all(np.abs(res) <= 1e-10 * scales)


def central_difference_jacobian(ctx, u, t, z, step=1e-6):
    d = len(z) - 1
    cols = []
    for j in range(d + 1):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        rp = _orthogonality(ctx, u, t, zp[:d], zp[d])[0]
        rm = _orthogonality(ctx, u, t, zm[:d], zm[d])[0]
        cols.append((rp - rm) / (2.0 * step))
    return np.column_stack(cols)


def assert_exact_jacobian(ctx, u, t, z):
    d = len(z) - 1
    _, _, r_vals, pieces = _orthogonality(ctx, u, t, z[:d], z[d])
    exact = _jacobian(ctx, r_vals, pieces)
    fd = central_difference_jacobian(ctx, u, t, z)
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))
    assert np.all(np.abs(np.diag(exact) - np.diag(fd)) <= 1e-6 * np.abs(np.diag(fd)))


def test_exact_jacobian_matches_finite_differences(shoot_ctx):
    x = shoot_ctx.grid.axes[0]
    bump = 0.02 * np.exp(-((x - 12.2) ** 2)) * (1.0 + 0.5j)
    u = make_state(shoot_ctx, T_REF, 0.05, -0.06, extra=bump)
    assert_exact_jacobian(shoot_ctx, u, T_REF, np.array([0.02, -0.03]))


def test_exact_jacobian_matches_finite_differences_2d():
    gs = solve_ground_state(3, 1.0, 2)
    grid = build_grid(2, 8.0, 95, Obstacle("ball", 1.0))
    psi = build_cutoff(grid, 1.5, 3.0)
    params = SolitonParams(omega=1.0, v=(1.0, 0.5), p=3.0)
    ctx = ModulationContext(params=params, gs=gs, modes=None, psi=psi, grid=grid)
    t = 2.4  # centre (2.4, 1.2): the profile overlaps the cutoff's slope
    a = ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi, np.array([0.04, -0.03]),
               0.05)
    xx, yy = grid.coordinate(0), grid.coordinate(1)
    bump = 0.02 * np.exp(-((xx - 3.0) ** 2 + (yy - 0.5) ** 2)) * (1.0 - 0.7j)
    u = Field(grid, a.qpsi * a.ph + bump)
    assert_exact_jacobian(ctx, u, t, np.array([0.01, 0.02, -0.01]))


def test_newton_iters_counts_residual_checks(shoot_ctx, monkeypatch):
    calls = []
    original = modulation._orthogonality

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(modulation, "_orthogonality", counting)
    u = make_state(shoot_ctx, T_REF, 0.05, -0.06)
    st = decompose(shoot_ctx, u, T_REF)
    assert st.newton_iters == len(calls)
    # the finite-difference Jacobian took 6 residual checks on this state
    assert st.newton_iters <= 6


def test_decompose_idempotent_on_orthogonal_remainder(shoot_ctx):
    u = make_state(shoot_ctx, T_REF, 0.03, -0.01)
    st = decompose(shoot_ctx, u, T_REF)
    u2 = Field(shoot_ctx.grid, u.values + 0.0 * st.r.values)
    st2 = decompose(shoot_ctx, u2, T_REF, guess=np.array([st.y[0], st.mu]))
    assert st2.y[0] == pytest.approx(st.y[0], abs=1e-10)
    assert st2.mu == pytest.approx(st.mu, abs=1e-10)


def test_small_perturbation_bound(shoot_ctx):
    # |r| + |y| + |mu| <= C |u - R| on random small perturbations
    rng = np.random.default_rng(11)
    x = shoot_ctx.grid.axes[0]
    R = soliton_field(shoot_ctx.params, shoot_ctx.gs, T_REF, shoot_ctx.grid,
                      shoot_ctx.psi)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(10.0, 14.0)
        w = rng.uniform(0.5, 2.0)
        amp = rng.uniform(0.005, 0.02) * (rng.standard_normal()
                                          + 1j * rng.standard_normal())
        u = Field(shoot_ctx.grid, R.values + amp * np.exp(-((x - c) / w) ** 2))
        st = decompose(shoot_ctx, u, T_REF)
        dist = l2_norm(u - R)
        worst = max(worst, (l2_norm(st.r) + np.abs(st.y).sum() + abs(st.mu)) / dist)
    assert worst < 5.0  # fitted constant, reported via the assertion bound


def test_too_far_from_soliton_rejected(shoot_ctx):
    u = make_state(shoot_ctx, T_REF, 1.5, 0.0)
    with pytest.raises(ModulationError, match="too far"):
        decompose(shoot_ctx, u, T_REF)
    with pytest.raises(ModulationError, match="too far"):
        decompose(shoot_ctx, u, T_REF, guess=np.array([0.02, -0.01]))
    # with a guess the distance is taken to R~(guess), the first iterate
    st = decompose(shoot_ctx, u, T_REF, guess=np.array([1.5, 0.0]))
    assert st.y[0] == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("dim, half_width, n", [(1, 30.0, 3071), (2, 10.0, 127),
                                               (3, 8.0, 63)])
def test_eps_mod_is_a_tenth_of_the_profile_norm(dim, half_width, n):
    # the radial mass carries the measure |S^(d-1)| r^(d-1); the lattice norm
    # of the sampled profile is an independent quadrature of the same integral
    gs = solve_ground_state(3, 1.0, dim)
    grid = build_grid(dim, half_width, n)
    params = SolitonParams(omega=1.0, v=(1.0,) * dim, p=3.0)
    ctx = ModulationContext(params=params, gs=gs, modes=None, psi=None, grid=grid)
    assert (ctx.eps_mod / 0.1) ** 2 == pytest.approx(
        l2_norm(sample_on_grid(gs, grid)) ** 2, rel=1e-4)


def test_decompose_one_profile_pass_per_iterate(shoot_ctx, monkeypatch):
    u = make_state(shoot_ctx, T_REF, 0.05, -0.06)
    calls = []
    real = modulation.ansatz

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(modulation, "ansatz", counting)
    st = decompose(shoot_ctx, u, T_REF)
    assert st.newton_iters > 1
    assert len(calls) == st.newton_iters


# ---------------------------------------------------------------- final data

def test_final_data_zero_amplitude(shoot_ctx, shoot_cfg):
    u = final_data(shoot_ctx, shoot_cfg.Tn, (0.0, 0.0))
    ref = soliton_field(shoot_ctx.params, shoot_ctx.gs, shoot_cfg.Tn,
                        shoot_ctx.grid, shoot_ctx.psi)
    assert np.max(np.abs(u.values - ref.values)) == 0.0
    st = decompose(shoot_ctx, u, shoot_cfg.Tn)
    assert st.alpha_plus == st.alpha_minus == 0.0


def test_final_data_scales_linearly(shoot_ctx, shoot_cfg):
    ref = soliton_field(shoot_ctx.params, shoot_ctx.gs, shoot_cfg.Tn,
                        shoot_ctx.grid, shoot_ctx.psi)
    lam = np.array([3e-4, -2e-4])
    d1 = l2_norm(final_data(shoot_ctx, shoot_cfg.Tn, lam) - ref)
    d2 = l2_norm(final_data(shoot_ctx, shoot_cfg.Tn, 2 * lam) - ref)
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_modulated_final_data_round_trip(shoot_ctx, shoot_cfg):
    target = 2.5e-4
    lam = solve_modulated_final_data(shoot_ctx, shoot_cfg.Tn, target)
    st = decompose(shoot_ctx, final_data(shoot_ctx, shoot_cfg.Tn, lam),
                   shoot_cfg.Tn)
    assert st.alpha_plus == pytest.approx(target, abs=1e-8)
    assert abs(st.alpha_minus) < 1e-8


def test_zero_target_gives_zero_amplitude(shoot_ctx, shoot_cfg):
    lam = solve_modulated_final_data(shoot_ctx, shoot_cfg.Tn, 0.0)
    assert np.max(np.abs(lam)) < 1e-14


def test_amplitude_ratio_bounded_under_halving(shoot_ctx, shoot_cfg):
    target = 4e-4
    ratios = []
    for _ in range(4):
        lam = solve_modulated_final_data(shoot_ctx, shoot_cfg.Tn, target)
        ratios.append(np.linalg.norm(lam) / abs(target))
        target /= 2.0
    assert max(ratios) / min(ratios) < 1.5
    assert max(ratios) < 10.0


# ------------------------------------------------------------ backward_shoot

@pytest.mark.parametrize("kwargs, message", [
    (dict(T0=8.0, Tn=4.0), "need Tn > T0 > 0"),
    (dict(T0=4.0, Tn=8.0, log_every=0), "log_every must be >= 1"),
])
def test_shoot_config_argument_errors_are_preconditions(kwargs, message):
    with pytest.raises(ModulationInputError, match=message) as exc:
        ShootConfig(**kwargs)
    assert isinstance(exc.value, PreconditionError)


def test_short_horizon_zero_alpha_reaches_T0(shoot_ctx, evolve_cfg):
    cfg = ShootConfig(T0=7.3, Tn=8.0, delta=0.4, log_every=10)
    log = backward_shoot(shoot_ctx, 0.0, cfg, evolve_cfg)
    assert log.exit_reason == "reached_T0"
    bound = log.M * np.exp(-log.rate * log.t)
    assert np.all(log.r_h1 <= bound)


def test_shoot_builds_final_data_and_h1_once(shoot_ctx, evolve_cfg, monkeypatch):
    calls = {"_final_data_map": 0, "h1_norm": 0}

    def counting(name):
        original = getattr(modulation, name)

        def wrapped(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(modulation, name, wrapped)

    for name in calls:
        counting(name)
    cfg = ShootConfig(T0=7.5, Tn=8.0, delta=0.4, log_every=10)
    log = backward_shoot(shoot_ctx, 0.0, cfg, evolve_cfg)
    assert calls == {"_final_data_map": 1, "h1_norm": len(log.t)}
    # the shot starts from the final-data Newton's own u(Tn)
    u_final = final_data(shoot_ctx, cfg.Tn, log.lam)
    assert np.array_equal(log.snapshots[0][1].values, u_final.values)


def test_winning_run_respects_all_bounds(winning_search):
    log = winning_search.log
    assert log.exit_reason == "reached_T0"
    bound = np.exp(-log.rate * log.t)
    assert np.all(np.abs(log.alpha_plus) <= bound)
    assert np.all(np.abs(log.alpha_minus) <= bound)
    assert np.all(log.r_h1 <= log.M * bound)
    assert np.all(np.abs(log.y[:, 0]) <= log.Mprime * bound)
    assert np.all(np.abs(log.mu) <= log.Mprime * bound)


def test_uniform_estimate_constant(shoot_ctx, winning_search):
    c_fit, vals = uniform_distance_fit(shoot_ctx, winning_search.log)
    assert np.isfinite(c_fit)
    assert c_fit < 20.0


def test_last_nn_increment_positive_at_alpha_exit(shoot_ctx, shoot_cfg,
                                                  evolve_cfg, winning_search):
    # at an alpha-bound exit, N grows backward in time on the last increment
    pert = winning_search.alpha_star + 10 * winning_search.bracket_width
    log = backward_shoot(shoot_ctx, pert, shoot_cfg, evolve_cfg)
    assert log.exit_reason == "alpha_bound"
    assert log.nn[-1] > log.nn[-2]


def test_mistuned_growth_rate_matches_e0(shoot_ctx, shoot_cfg, evolve_cfg,
                                         winning_search, modes7):
    for sgn in (+1, -1):
        pert = winning_search.alpha_star + sgn * 10 * winning_search.bracket_width
        log = backward_shoot(shoot_ctx, pert, shoot_cfg, evolve_cfg)
        assert log.exit_reason == "alpha_bound"
        rate = growth_rate_fit(log)
        assert abs(rate - modes7.e0) / modes7.e0 < 0.2


def test_exit_time_monotone_in_mistuning(shoot_ctx, shoot_cfg, evolve_cfg,
                                         winning_search):
    widths = winning_search.bracket_width
    t10 = backward_shoot(shoot_ctx, winning_search.alpha_star + 10 * widths,
                         shoot_cfg, evolve_cfg).exit_time
    t100 = backward_shoot(shoot_ctx, winning_search.alpha_star + 100 * widths,
                          shoot_cfg, evolve_cfg).exit_time
    assert t100 > t10 > shoot_cfg.T0


def test_warm_start_continuity(winning_search):
    # consecutive modulation parameters move by O(dt log_every) per row
    log = winning_search.log
    dmu = np.abs(np.diff(log.mu)) / np.abs(np.diff(log.t))
    bound = log.Mprime * np.exp(-log.rate * log.t[1:])
    assert np.all(dmu <= np.maximum(bound, 1e-6) * 10)


# ---------------------------------------------------------------- the search

def test_search_finds_T0_run(winning_search):
    assert winning_search.found
    assert winning_search.log.exit_reason == "reached_T0"
    amp = np.exp(-winning_search.log.rate * winning_search.log.t[0])
    assert abs(winning_search.alpha_star) <= amp


def test_search_history_has_both_signs(winning_search):
    signs = {np.sign(row[3]) for row in winning_search.history[:2]}
    assert signs == {-1.0, 1.0}


# The conftest search (theta0 = 0) as recorded with a complete Strang step
# between logged states.  The shoot now merges the half rotations between
# them: each shot's alpha, exit time and exit reason stay exact, alpha+ at
# exit moves by roundoff that the unstable growth amplifies (3.7e-8 relative
# at most, hence 1e-7), and the winning log's alpha+ column by at most 2e-10
# (hence 1e-9).
SEARCH_RECORDED = [
    (-0.001661557273173934, 7.98, "alpha_bound", -0.0017400864834699581),
    (0.001661557273173934, 7.98, "alpha_bound", 0.0017818312793174652),
    (0.0, 7.2, "alpha_bound", 0.003237742727174333),
    (-0.000830778636586967, 7.48, "alpha_bound", -0.0025269054412908887),
    (-0.0004153893182934835, 6.48, "alpha_bound", -0.005796757294625611),
    (-0.00020769465914674174, 6.78, "alpha_bound", 0.004587011080312048),
    (-0.0003115419887201126, 6.18, "alpha_bound", 0.007160226068547672),
    (-0.00036346565350679804, 5.74, "alpha_bound", -0.01048711312626045),
    (-0.0003375038211134553, 5.62, "alpha_bound", 0.011418091048405464),
    (-0.00035048473731012666, 4.66, "alpha_bound", -0.024850381222157422),
    (-0.000343994279211791, 5.22, "alpha_bound", 0.01601734430654282),
    (-0.0003472395082609588, 4.72, "alpha_bound", 0.023821450149385782),
    (-0.0003488621227855427, 4.0, "reached_T0", 0.005407781418303751),
]
# (row, t, alpha+) of the winning log
WINNING_LOG_RECORDED = [
    (0, 8.0, -0.0003488621227855599),
    (50, 7.0, -0.0003480544518744478),
    (100, 6.0, -0.0003319376845415041),
    (150, 5.0, -3.728145467656858e-05),
    (200, 4.0, 0.005407781418303751),
]


def test_search_matches_recorded_shots(winning_search):
    assert winning_search.alpha_star == SEARCH_RECORDED[-1][0]
    assert len(winning_search.history) == len(SEARCH_RECORDED)
    for got, (alpha, t_exit, reason, alpha_exit) in zip(winning_search.history,
                                                        SEARCH_RECORDED):
        assert got[:3] == (alpha, t_exit, reason)
        assert got[3] == pytest.approx(alpha_exit, rel=1e-7)
    log = winning_search.log
    assert len(log.t) == 201
    for row, t, alpha_plus in WINNING_LOG_RECORDED:
        assert log.t[row] == t
        assert log.alpha_plus[row] == pytest.approx(alpha_plus, rel=0, abs=1e-9)


def _search_bytes(result):
    return (repr(result.history), repr(result.alpha_star), result.log.rows().tobytes(),
            [(t, u.values.tobytes()) for t, u in result.log.snapshots])


def test_search_is_the_same_with_and_without_the_march_worker(shoot_ctx, evolve_cfg,
                                                              monkeypatch):
    # a short horizon: five shots, the last one reaching T0
    cfg = ShootConfig(T0=7.0, Tn=8.0, delta=0.4, log_every=10)
    forked = shoot_search(shoot_ctx, cfg, evolve_cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = shoot_search(shoot_ctx, cfg, evolve_cfg)
    assert serial.found and len(serial.history) > 2
    assert _search_bytes(forked) == _search_bytes(serial)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "serial"])
def test_shoot_names_the_time_of_a_non_finite_state(shoot_ctx, evolve_cfg, monkeypatch,
                                                    forked):
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    half_step, calls = evolve._phase_half_step, []

    def poisoned(vals, dt, p):
        calls.append(None)
        # the second half step is the trailing half of the first logged state
        return half_step(vals, dt, p) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(evolve, "_phase_half_step", poisoned)
    cfg = ShootConfig(T0=7.9, Tn=8.0, delta=0.4, log_every=10)
    with pytest.raises(EvolveError) as exc:
        backward_shoot(shoot_ctx, 0.0, cfg, evolve_cfg)
    assert str(exc.value) == f"non-finite state at t={cfg.Tn + 10 * ((cfg.T0 - cfg.Tn) / 50)}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_subcritical_configuration_refused(gs3):
    # p=3 in d=1 has no unstable pair, so the machinery is unreachable
    from nlslab.grid import build_grid
    from nlslab.linearized import SpectrallyStableError, assemble, solve_unstable_pair

    with pytest.raises(SpectrallyStableError):
        solve_unstable_pair(assemble(gs3, build_grid(1, 20.0, 1023)))


# ----------------------------------------------------------------- monitors

def test_alpha_minus_bound(winning_search):
    assert alpha_minus_monitor(winning_search.log) <= 1.0


def test_alpha_minus_zero_at_final_time(winning_search):
    assert abs(winning_search.log.alpha_minus[0]) < 1e-8


def test_logged_tilde_lyapunov_is_tilde_lyapunov(shoot_ctx, winning_search):
    log = winning_search.log
    for k, (t, y) in enumerate(zip(log.t, log.y)):
        assert tilde_lyapunov(shoot_ctx, t, y) == log.tilde_lyapunov[k]


def test_lyapunov_drift_exponential(gs7, winning_search):
    rate2 = 2.0 * gs7.delta_fit * np.sqrt(1.0) * 2.0
    c1, r2, rows = lyapunov_drift_fit(winning_search.log, rate2)
    assert c1 > 0
    assert r2 > 0.9
    assert rows >= 20


def test_coercivity_constants_stable(shoot_ctx, winning_search):
    arr = coercivity_along_trajectory(shoot_ctx, winning_search.log)
    cs = arr[:, 3]
    assert np.all(np.isfinite(cs))
    assert np.all(cs > 0)
    half = len(cs) // 2
    c_early, c_late = np.max(cs[:half]), np.max(cs[half:])
    mean = 0.5 * (c_early + c_late)
    assert abs(c_early - mean) <= 0.5 * mean
    assert abs(c_late - mean) <= 0.5 * mean


def test_dropping_alpha_breaks_inequality(shoot_ctx, shoot_cfg, evolve_cfg,
                                          winning_search):
    # with a large unstable component the bound needs the alpha terms: using
    # the winning fit constant without them leaves a negative margin
    arr_win = coercivity_along_trajectory(shoot_ctx, winning_search.log)
    c_fit = np.max(arr_win[:, 3])
    pert = winning_search.alpha_star + 100 * winning_search.bracket_width
    log = backward_shoot(shoot_ctx, pert, shoot_cfg, evolve_cfg)
    arr = coercivity_along_trajectory(shoot_ctx, log, drop_alpha=True)
    h1sq, denom_form = arr[-1, 1], arr[-1, 2]
    margin = c_fit * (denom_form + log.M**2 * np.exp(-4 * log.rate * arr[-1, 0])) - h1sq
    assert margin < 0


def test_zero_state_coercivity_trivial(shoot_ctx, winning_search):
    arr = coercivity_along_trajectory(shoot_ctx, winning_search.log)
    # h = 0 would make both sides vanish; verified via the smallest logged h
    assert np.min(arr[:, 1]) >= 0.0
