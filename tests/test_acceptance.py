"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Desk scale is d=1 throughout; the heavyweight shooting run is
shared with the module tests through the session fixtures.
"""

import json
import time

import numpy as np
import pytest

from nlslab.grid import (
    NormConfig,
    Obstacle,
    build_cutoff,
    build_grid,
    l2_norm,
)
from nlslab.ground_state import ode_residual, rescale, solve_ground_state
from nlslab.linearized import (
    assemble,
    coercivity_certificate,
    kernel_residuals,
    measure_scaling_exponent,
    solve_unstable_pair,
)
from nlslab.soliton import (
    SolitonParams,
    ansatz_functionals,
    critical_exponent,
    soliton_field,
)
from nlslab.evolve import EvolveConfig, evolve
from nlslab.fixedpoint import make_sources, picard, remainder_decay_rate
from nlslab.modulation import (
    alpha_minus_monitor,
    backward_shoot,
    growth_rate_fit,
    lyapunov_drift_fit,
    uniform_distance_fit,
)
from nlslab.cli import default_config, run

from test_linearized import E0_BLOCK_ORACLE_P7, ORACLE_GRID


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def sech_profile(p, x):
    return ((p + 1) / 2.0) ** (1.0 / (p - 1)) * np.cosh((p - 1) * x / 2.0) ** (-2.0 / (p - 1))


def test_criterion_01_ground_state_exactness():
    t0 = time.perf_counter()
    errs, deltas = [], []
    for p in (3, 7):
        gs = solve_ground_state(p, 1.0, 1)
        errs.append(np.max(np.abs(gs.q_samples - sech_profile(p, gs.r_samples))))
        deltas.append(gs.delta_fit)
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-6 for e in errs) and \
        all(abs(d - 1.0) <= 0.02 for d in deltas) and elapsed < 1.0
    report(1, ok, f"sup errors {errs[0]:.2e}/{errs[1]:.2e}, "
                  f"delta {deltas[0]:.4f}/{deltas[1]:.4f}, {elapsed:.2f}s")


def test_criterion_02_scaling_identity(gs3):
    residuals = {om: ode_residual(rescale(gs3, om)) for om in (0.5, 2.0, 4.0)}
    ok = all(r < 1e-6 for r in residuals.values())
    report(2, ok, "rescaled ODE residuals " +
           ", ".join(f"omega={om}: {r:.2e}" for om, r in residuals.items()))


def test_criterion_03_kernels_and_eigenpair(gs7, modes7):
    fine = assemble(gs7, build_grid(1, 30.0, 262143))
    res = kernel_residuals(fine)
    pair_oracle = assemble(gs7, build_grid(1, **ORACLE_GRID))
    e0_main = solve_unstable_pair(pair_oracle).e0
    rel = abs(e0_main - E0_BLOCK_ORACLE_P7) / E0_BLOCK_ORACLE_P7
    ok = (res["lminus_q"] < 1e-6 and res["lplus_dq"] < 1e-4
          and modes7.residuals["plus"] < 1e-6
          and modes7.residuals["minus"] < 1e-6
          and rel < 1e-4)
    report(3, ok, f"|L-Q|={res['lminus_q']:.2e}, |L+dQ|={res['lplus_dq']:.2e}, "
                  f"relations {modes7.residuals['plus']:.1e}/"
                  f"{modes7.residuals['minus']:.1e}, e0 vs oracle {rel:.2e}")


def test_criterion_04_coercivity_certificate(gs7):
    t0 = time.perf_counter()
    pair = assemble(gs7, build_grid(1, 15.0, 1023))
    modes = solve_unstable_pair(pair)
    rep = coercivity_certificate(pair, modes, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (rep.lambda_min > 0 and rep.unconstrained_lplus_min < 0
          and rep.probe_min >= rep.lambda_min - 1e-8 and elapsed < 60.0)
    report(4, ok, f"lambda_min={rep.lambda_min:.4f}, unconstrained "
                  f"{rep.unconstrained_lplus_min:.2f}, probe floor "
                  f"{rep.probe_min:.4f}, {elapsed:.1f}s")


def test_criterion_05_scaling_exponent(gs7, spectral_pair7):
    kappa, residual, es = measure_scaling_exponent(gs7, spectral_pair7.grid,
                                                   (1.0, 2.0, 4.0))
    ok = residual < 0.01
    report(5, ok, f"measured kappa={kappa:.4f} (fit residual {residual:.2e}); "
                  f"claimed exponent 3/2; rates {np.round(es, 5).tolist()}")


def test_criterion_06_evolution_correctness(gs3):
    t0 = time.perf_counter()
    params = SolitonParams(omega=1.0, v=(1.0,), p=3.0)
    errs = []
    drifts = []
    for n, dt in ((511, 0.01), (1023, 0.005)):
        g = build_grid(1, 20.0, n)
        u0 = soliton_field(params, gs3, 0.0, g)
        traj = evolve(u0, EvolveConfig(dt=dt, t0=0.0, t1=2.0, snapshot_every=100),
                      3.0, params)
        errs.append(l2_norm(traj.snapshot(-1) - soliton_field(params, gs3, 2.0, g)))
        cons = traj.conservation_array()
        drifts.append(np.max(np.abs(cons[:, 1] - cons[0, 1])) / cons[0, 1])
    ratio = errs[0] / errs[1]
    g = build_grid(1, 20.0, 511)
    u0 = soliton_field(params, gs3, 0.0, g)
    fw = evolve(u0, EvolveConfig(dt=0.01, t0=0.0, t1=1.0), 3.0, params)
    bw = evolve(fw.snapshot(-1), EvolveConfig(dt=0.01, t0=1.0, t1=0.0), 3.0, params)
    reversal = l2_norm(bw.snapshot(-1) - u0)
    elapsed = time.perf_counter() - t0
    ok = (3.5 < ratio < 4.5 and max(drifts) < 1e-8 and reversal < 1e-6
          and elapsed < 120.0)
    report(6, ok, f"order ratio {ratio:.2f}, mass drift {max(drifts):.1e}, "
                  f"reversal {reversal:.1e}, {elapsed:.1f}s")


def test_criterion_07_energy_identity(gs3):
    grid = build_grid(1, 30.0, 2047)
    rest = ansatz_functionals(SolitonParams(1.0, (0.0,), 3.0), gs3, 0.0, grid)
    gaps = {}
    for v in (0.0, 1.0, 2.0):
        f = ansatz_functionals(SolitonParams(1.0, (v,), 3.0), gs3, 0.0, grid)
        gaps[v] = abs(f.energy - (v**2 / 8.0 * rest.mass + rest.energy))
    ok = all(gap < 1e-8 for gap in gaps.values()) and \
        rest.mass == pytest.approx(4.0, rel=1e-8) and \
        rest.energy == pytest.approx(-2.0 / 3.0, abs=1e-7)
    report(7, ok, "identity gaps " +
           ", ".join(f"v={v}: {gap:.1e}" for v, gap in gaps.items()) +
           f"; M(Q)={rest.mass:.9f}, E(Q)={rest.energy:.9f}")


def test_criterion_08_threshold_formulas():
    # p = 7/3 is itself half-an-ulp off as a double, so "exact" there means
    # exact for the representable input: within one epsilon of 0
    vals = {p: critical_exponent(p) for p in (7.0 / 3.0, 3.0, 5.0)}
    ok = (abs(vals[7.0 / 3.0]) <= 1e-15 and vals[3.0] == 0.5
          and vals[5.0] == 1.0)
    report(8, ok, f"s(7/3)={vals[7/3]}, s(3)={vals[3.0]}, s(5)={vals[5.0]}")


DELTA_FP = 0.8


def _picard_run(gs3, v, n, dt, horizon, iters=5, j_diag=False):
    grid = build_grid(1, 40.0, n, Obstacle("ball", 1.0))
    psi = build_cutoff(grid, 1.5, 3.0)
    params = SolitonParams(omega=1.0, v=(v,), p=3.0)
    src = make_sources(params, gs3, psi, grid, 3.0)
    t0 = 0.5
    tmax = t0 + horizon / (DELTA_FP * v)
    cfg = NormConfig("Eweighted", delta=DELTA_FP, omega=1.0, v=(v,), T0=t0)
    return picard(src, t0, tmax, cfg, iters, EvolveConfig(dt=dt),
                  j_diagnostics=j_diag)


def test_criterion_09_fixed_point_construction(gs3):
    t0 = time.perf_counter()
    v = 8.0
    rep, traj = _picard_run(gs3, v, 2047, 0.002, 14.0)
    ratio = rep.contraction_ratios[-1]
    decay = remainder_decay_rate(traj)
    rep_half, _ = _picard_run(gs3, v, 4095, 0.001, 14.0, iters=4)
    refine = rep.final_residual / rep_half.final_residual
    rep_short, _ = _picard_run(gs3, v, 2047, 0.002, 7.0, iters=4)
    rep_long, _ = _picard_run(gs3, v, 2047, 0.002, 14.0, iters=4)
    tail_change = abs(rep_short.iterate_norms[-1] - rep_long.iterate_norms[-1]) \
        / rep_long.iterate_norms[-1]
    rep_slow, _ = _picard_run(gs3, 2.0, 2047, 0.002, 6.0, iters=6)
    elapsed = time.perf_counter() - t0
    ok = (rep.converged and ratio < 0.5
          and decay >= 0.9 * DELTA_FP * v
          and 2.5 < refine < 6.0
          and tail_change < 0.01
          and rep_slow.non_contracting
          and rep_slow.contraction_ratios[-1] > 1.0
          and elapsed < 600.0)
    report(9, ok, f"ratio(v=8)={ratio:.3f}, decay {decay:.2f} "
                  f"(>= {0.9 * DELTA_FP * v:.2f}), residual refinement x{refine:.2f}, "
                  f"Tmax doubling {tail_change:.2e}, small-v ratio "
                  f"{rep_slow.contraction_ratios[-1]:.2f} (non-contracting), "
                  f"{elapsed:.0f}s")


def test_criterion_10_shooting_construction(shoot_ctx, shoot_cfg, evolve_cfg,
                                            winning_search, modes7):
    t0 = time.perf_counter()
    win = winning_search.log
    c_fit, _ = uniform_distance_fit(shoot_ctx, win)
    rates = []
    for sgn in (+1, -1):
        pert = winning_search.alpha_star + sgn * 10 * winning_search.bracket_width
        log = backward_shoot(shoot_ctx, pert, shoot_cfg, evolve_cfg)
        assert log.exit_reason == "alpha_bound"
        rates.append(growth_rate_fit(log))
    devs = [abs(r - modes7.e0) / modes7.e0 for r in rates]
    aminus = alpha_minus_monitor(win)
    elapsed = time.perf_counter() - t0
    ok = (winning_search.found and win.exit_reason == "reached_T0"
          and np.isfinite(c_fit)
          and all(d < 0.2 for d in devs)
          and aminus <= 1.0
          and elapsed < 900.0)
    report(10, ok, f"alpha*={winning_search.alpha_star:.3e} reached T0, "
                   f"fitted C={c_fit:.3f}, mistuned growth {rates[0]:.2f}/"
                   f"{rates[1]:.2f} vs e0={modes7.e0:.2f} "
                   f"(dev {max(devs) * 100:.0f}%), alpha- ratio {aminus:.2f}, "
                   f"{elapsed:.0f}s")


def test_criterion_11_lyapunov_drift(gs7, winning_search):
    rate2 = 2.0 * gs7.delta_fit * np.sqrt(1.0) * 2.0  # true decay, omega=1, |v|=2
    c1, r2, rows = lyapunov_drift_fit(winning_search.log, rate2)
    ok = c1 > 0 and r2 > 0.9
    report(11, ok, f"C1={c1:.3e} > 0, R^2={r2:.3f} over {rows} rows "
                   f"at rate {rate2:.1f}")


def test_criterion_12_determinism(tmp_path):
    pairs = []
    cfg = default_config()
    cfg["p"] = 7.0
    for sub, extra in (("ground-state", {}),
                       ("spectrum", {"L": 15.0, "n": 1023, "omegas": ()})):
        c = {**cfg, **extra}
        run(sub, c, tmp_path / f"{sub}-a")
        run(sub, c, tmp_path / f"{sub}-b")
        a = (tmp_path / f"{sub}-a" / "summary.json").read_bytes()
        b = (tmp_path / f"{sub}-b" / "summary.json").read_bytes()
        pairs.append(a == b)
    ok = all(pairs)
    report(12, ok, f"byte-identical summaries: ground-state={pairs[0]}, "
                   f"spectrum={pairs[1]}")
