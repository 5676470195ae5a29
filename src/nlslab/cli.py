"""Experiment drivers with flat key=value configs and bit-stable outputs.

Every tunable lives in one typed registry; configs round-trip losslessly,
unknown keys are rejected, and solver tolerances are module constants.  Runs
are deterministic given (config, seed): all randomness flows from the seed,
JSON is emitted with sorted keys, and every CSV carries the config hash in a
comment line.  Exit codes: 0 success, 2 for any `PreconditionError`, 3 for any
other exception (a numerical failure, recorded in failure.json).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import fixedpoint as fp
from . import ground_state as gsmod
from . import linearized as lin
from . import modulation as mod
from .evolve import EvolveConfig, nls_residual, step_count
from .evolve import evolve as evolve_run
from .grid import (
    NormConfig,
    Obstacle,
    PreconditionError,
    build_cutoff,
    build_grid,
    from_active,
    h2_norm,
    l2_norm,
    load_field,
    physical_memory,
    save_field,
)
from .soliton import SolitonParams, functionals, threshold_report


class ConfigError(ValueError, PreconditionError):
    pass


def _floats(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok != "")


# key -> (parser, default); None defaults mean "derive at run time"
CONFIG_KEYS = {
    "p": (float, 3.0),
    "omega": (float, 1.0),
    "dim": (int, 1),
    "v": (_floats, (2.0,)),
    "L": (float, 40.0),
    "n": (int, 2047),
    "a": (float, 0.0),
    "R1": (float, None),
    "R2": (float, None),
    "dt": (float, 0.002),
    "t0": (float, 0.0),
    "t1": (float, 1.0),
    "T0": (float, 0.5),
    "Tn": (float, 8.0),
    "Tmax": (float, None),
    "delta": (float, None),
    "iters": (int, 6),
    "seed": (int, 0),
    "snapshot_every": (int, 10),
    "log_every": (int, 10),
    "alpha_plus": (float, None),
    "search": (int, 0),
    "omegas": (_floats, (1.0, 2.0, 4.0)),
}


def default_config() -> dict:
    return {k: d for k, (_, d) in CONFIG_KEYS.items()}


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = CONFIG_KEYS[key]
        if val.lower() == "none":
            out[key] = None
        else:
            try:
                out[key] = parser(val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    return out


def config_text(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, tuple):
            val = ",".join(repr(float(x)) for x in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()[:12]


def load_config(path) -> dict:
    cfg = default_config()
    cfg.update(parse_config_text(Path(path).read_text()))
    return cfg


def write_summary(out_dir: Path, summary: dict) -> Path:
    path = out_dir / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def write_csv(path: Path, header, rows, cfg_hash: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config={cfg_hash}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else repr(float(x))
                             for x in row])


def write_search_history(path: Path, history, cfg_hash: str) -> None:
    """One row per shot of the alpha+ search, in the order they were run."""
    write_csv(path, ("shot", "alpha", "exit_time", "exit_reason", "alpha_plus_exit"),
              [(str(k), *shot) for k, shot in enumerate(history)], cfg_hash)


def _remove_numbered(directory: Path, stem: str) -> None:
    """Remove the numbered files stem{k:05d}.bin an earlier run wrote here, so
    that a rerun with a larger stride leaves only its own."""
    name = re.compile(re.escape(stem) + r"[0-9]{5,}\.bin")
    for path in directory.glob(f"{stem}*.bin"):
        if name.fullmatch(path.name):
            path.unlink()


def _grid_from(cfg):
    """The lattice outside the ball of radius a, and its cutoff Psi."""
    grid = build_grid(cfg["dim"], cfg["L"], cfg["n"], Obstacle("ball", cfg["a"]))
    r1 = cfg["R1"] if cfg["R1"] is not None else 1.5 * cfg["a"]
    r2 = cfg["R2"] if cfg["R2"] is not None else 3.0 * cfg["a"]
    return grid, build_cutoff(grid, r1, r2)


def _params_from(cfg) -> SolitonParams:
    v = cfg["v"]
    if len(v) != cfg["dim"]:
        raise ConfigError(f"v has {len(v)} components for dim={cfg['dim']}")
    return SolitonParams(omega=cfg["omega"], v=v, p=cfg["p"])


# ------------------------------------------------------------- subcommands

def run_ground_state(cfg, out: Path) -> dict:
    gs = gsmod.solve_ground_state(cfg["p"], cfg["omega"], cfg["dim"])
    write_csv(out / "profile.csv", ("r", "Q", "Qprime"),
              zip(gs.r_samples, gs.q_samples, gs.qprime_samples),
              config_hash(cfg))
    return {
        "q0": gs.q0,
        "delta_fit": gs.delta_fit,
        "residual": gsmod.ode_residual(gs),
        "p": cfg["p"],
        "omega": cfg["omega"],
        "dim": cfg["dim"],
    }


def run_spectrum(cfg, out: Path) -> dict:
    omegas = cfg["omegas"]
    if not all(np.isfinite(om) and om > 0 for om in omegas) \
            or len(set(omegas)) != len(omegas):
        raise ConfigError(f"omegas must be distinct, finite and > 0, got {omegas}")
    if cfg["seed"] < 0:   # numpy's generators take no negative seed
        raise ConfigError(f"need seed >= 0, got {cfg['seed']}")
    grid = build_grid(cfg["dim"], cfg["L"], cfg["n"])
    # the sparse LU factors of the eigensolve and the certificate peaked at
    # about 6 kB per point in 2d: 379 MB on 255^2 points, 1.57 GB on 511^2
    need = 6e3 * grid.n_active
    if need > physical_memory():
        raise ConfigError(f"factoring the spectrum's operators on {grid.n_active} points "
                          f"needs about {need / 1e9:.3g} GB, above physical memory")
    gs = gsmod.solve_ground_state(cfg["p"], 1.0, cfg["dim"])
    # every frequency's lattice, before the first eigensolve
    for om in [cfg["omega"], *(omegas if len(omegas) >= 2 else ())]:
        q, _ = gsmod.rescale(gs, om).evaluate(grid.radius())
        if lin.potential_jump(q, gs.p) > lin.MAX_POTENTIAL_JUMP:
            raise ConfigError(f"{lin.COARSE_FOR_THE_POTENTIAL} at omega={om}")
    gs_w = gsmod.rescale(gs, cfg["omega"])
    pair = lin.assemble(gs_w, grid)
    modes = lin.solve_unstable_pair(pair)
    summary = {
        "e0": modes.e0,
        "pairing": modes.pairing,
        "kernel_residuals": lin.kernel_residuals(pair),
        "eigen_residuals": modes.residuals,
    }
    rep = lin.coercivity_certificate(pair, modes, seed=cfg["seed"])
    summary["lambda_min"] = rep.lambda_min
    summary["unconstrained_lplus_min"] = rep.unconstrained_lplus_min
    if len(cfg["omegas"]) >= 2:
        kappa, resid, es = lin.measure_scaling_exponent(gs, grid, cfg["omegas"],
                                                        solved=modes)
        summary["scaling_exponent"] = kappa
        summary["scaling_fit_residual"] = resid
        summary["scaling_rates"] = list(es)
        summary["scaling_exponent_claimed"] = 1.5
    save_field(out / "y1.bin", from_active(grid, modes.y1))
    save_field(out / "y2.bin", from_active(grid, modes.y2))
    return summary


def run_functionals(cfg, out: Path, u) -> dict:
    f = functionals(u, _params_from({**cfg, "dim": u.grid.dim}))
    gs = gsmod.solve_ground_state(cfg["p"], cfg["omega"], u.grid.dim)
    rep = threshold_report(u, cfg["p"], gs)
    return {
        "M": f.mass,
        "E": f.energy,
        "P": list(f.momentum),
        "lyapunov": f.lyapunov,
        "s": rep.s,
        "thresholds": {
            "grad_quantity": rep.grad_quantity,
            "mass_energy_quantity": rep.mass_energy_quantity,
            "grad_threshold": rep.grad_threshold,
            "mass_energy_threshold": rep.mass_energy_threshold,
            "p_in_range": rep.in_range,
        },
    }


def run_evolve(cfg, out: Path, u0) -> dict:
    snap_dir = out / "snapshots"
    _remove_numbered(snap_dir, "snap")
    params = _params_from({**cfg, "dim": u0.grid.dim})
    config = EvolveConfig(dt=cfg["dt"], t0=cfg["t0"], t1=cfg["t1"],
                          snapshot_every=cfg["snapshot_every"])
    traj = evolve_run(u0, config, cfg["p"], params)
    snap_dir.mkdir(exist_ok=True)
    for k in range(len(traj)):
        save_field(snap_dir / f"snap{k:05d}.bin", traj.snapshot(k))
    write_csv(out / "conservation.csv", ("t", "M", "E", "lyapunov", "H1norm"),
              traj.conservation, config_hash(cfg))
    res = nls_residual(traj) if len(traj) >= 3 else []
    return {
        "steps": step_count(cfg["t1"] - cfg["t0"], cfg["dt"]),
        "snapshots": len(traj),
        "mass_drift": abs(traj.conservation[-1][1] - traj.conservation[0][1]),
        "energy_drift": abs(traj.conservation[-1][2] - traj.conservation[0][2]),
        "max_residual": float(np.max(res)) if len(res) else None,
    }


def run_fixed_point(cfg, out: Path) -> dict:
    _remove_numbered(out, "r")
    params = _params_from(cfg)
    speed = params.speed()
    if speed <= 0:
        raise ConfigError("fixed-point needs |v| > 0")
    t0, tmax, delta = cfg["T0"], cfg["Tmax"], cfg["delta"]
    if delta is not None and not (np.isfinite(delta) and delta > 0):
        raise ConfigError(f"need a finite delta > 0, got {delta}")
    if not np.isfinite(t0) or (tmax is not None and not (np.isfinite(tmax) and tmax > t0)):
        raise ConfigError(f"need finite T0 < Tmax, got T0={t0}, Tmax={tmax}")
    ecfg = EvolveConfig(dt=cfg["dt"], snapshot_every=cfg["snapshot_every"])
    if tmax is not None:
        step_count(tmax - t0, ecfg.dt)
    if not cfg["a"] > 0:   # without one the remainder is identically zero
        raise ConfigError("fixed-point needs an obstacle (a > 0)")
    grid, psi = _grid_from(cfg)
    gs1 = gsmod.solve_ground_state(cfg["p"], 1.0, cfg["dim"])
    gs = gsmod.rescale(gs1, cfg["omega"])
    if delta is None:
        delta = 0.8 * gs.delta_fit
    if tmax is None:
        tmax = t0 + 14.0 / (delta * np.sqrt(cfg["omega"]) * speed)
    if not np.isfinite(tmax):
        raise ConfigError(f"the derived Tmax {tmax} is not finite")
    src = fp.make_sources(params, gs, psi, grid, cfg["p"])
    norm_cfg = NormConfig(delta=delta, omega=cfg["omega"], v=params.v)
    report, traj = fp.picard(src, t0, tmax, norm_cfg, cfg["iters"], ecfg)
    rows = []
    for k in range(0, len(traj), ecfg.snapshot_every):
        u = traj.snapshot(k)
        rows.append((traj.times[k], l2_norm(u), h2_norm(u)))
        save_field(out / f"r{k:05d}.bin", u, psi)
    write_csv(out / "remainder_norms.csv", ("t", "L2", "H2"), rows,
              config_hash(cfg))
    nan = float("nan")
    write_csv(out / "picard_iterations.csv",
              ("iteration", "iterate_norm", "diff_norm", "ratio"),
              [(it, norm,
                report.diff_norms[it - 1] if it >= 1 else nan,
                report.contraction_ratios[it - 2] if it >= 2 else nan)
               for it, norm in enumerate(report.iterate_norms)],
              config_hash(cfg))
    summary = {
        "converged": report.converged,
        "non_contracting": report.non_contracting,
        "iterate_norms": report.iterate_norms,
        "contraction_ratios": report.contraction_ratios,
        "j_norms": report.j_norms,
        "final_residual": report.final_residual,
        "tail_criterion": report.tail_criterion,
        "delta": delta,
        "Tmax": tmax,
    }
    if report.converged:
        summary["decay_rate"] = fp.remainder_decay_rate(traj)
        summary["decay_rate_target"] = 0.9 * delta * np.sqrt(cfg["omega"]) * speed
    return summary


def run_shoot(cfg, out: Path) -> dict:
    params = _params_from(cfg)
    shoot_cfg = mod.ShootConfig(T0=cfg["T0"], Tn=cfg["Tn"], delta=cfg["delta"],
                                log_every=cfg["log_every"])
    if params.speed() <= 0:
        raise ConfigError("shoot needs |v| > 0")
    if shoot_cfg.delta is not None:     # a default delta is known after the ground state
        mod.shoot_rate(params, shoot_cfg.delta, shoot_cfg.Tn)     # refuses, or is the rate
    ecfg = EvolveConfig(dt=cfg["dt"])
    step_count(shoot_cfg.T0 - shoot_cfg.Tn, ecfg.dt)
    if not cfg["a"] > 0:
        raise ConfigError("shoot needs an obstacle (a > 0)")
    if cfg["dim"] != 1:
        raise ConfigError(f"shoot runs in 1d only (its spectral grid has 4095 points "
                          f"per axis), got dim={cfg['dim']}")
    grid, psi = _grid_from(cfg)
    gs1 = gsmod.solve_ground_state(cfg["p"], 1.0, cfg["dim"])
    gs = gsmod.rescale(gs1, cfg["omega"])
    spectral = build_grid(cfg["dim"], 30.0 / np.sqrt(cfg["omega"]), 4095)
    modes = lin.solve_unstable_pair(lin.assemble(gs, spectral))
    ctx = mod.ModulationContext(params=params, gs=gs, modes=modes, psi=psi,
                                grid=grid)
    summary = {"e0": modes.e0}
    if cfg["search"]:
        result = mod.shoot_search(ctx, shoot_cfg, ecfg)
        log = result.log
        summary["alpha_star"] = result.alpha_star
        summary["bracket_width"] = result.bracket_width
        summary["found"] = result.found
        summary["shoots"] = len(result.history)
        write_search_history(out / "search_history.csv", result.history,
                             config_hash(cfg))
        if result.found:
            c_fit, _ = mod.uniform_distance_fit(ctx, log)
            summary["fitted_C"] = c_fit
            rate2 = 2.0 * ctx.gs.delta_fit * np.sqrt(cfg["omega"]) * ctx.params.speed()
            c1, r2, rows = mod.lyapunov_drift_fit(log, rate2)
            summary["lyapunov_fit"] = {"C1": c1, "R2": r2, "rows": rows}
            summary["alpha_minus_max_ratio"] = mod.alpha_minus_monitor(log)
    else:
        alpha = cfg["alpha_plus"] if cfg["alpha_plus"] is not None else 0.0
        log = mod.backward_shoot(ctx, alpha, shoot_cfg, ecfg)
        if log.exit_reason == "alpha_bound":
            try:
                summary["fitted_growth_rate"] = mod.growth_rate_fit(log)
            except mod.ModulationError:
                summary["fitted_growth_rate"] = None
    summary.update(exit_time=log.exit_time, exit_reason=log.exit_reason, M=log.M,
                   Mprime=log.Mprime, delta=log.delta)
    write_csv(out / "shoot_log.csv",
              ("t", "r_L2", "r_H1", "abs_y", "abs_mu", "alpha_plus",
               "alpha_minus", "lyapunov", "N", "tilde_lyapunov"),
              log.rows(), config_hash(cfg))
    return summary


RUNNERS = {
    "ground-state": run_ground_state,
    "spectrum": run_spectrum,
    "functionals": run_functionals,
    "evolve": run_evolve,
    "fixed-point": run_fixed_point,
    "shoot": run_shoot,
}

NEEDS_INPUT = {"functionals", "evolve"}


def run(subcommand: str, cfg: dict, out_dir, in_path=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in ("summary.json", "failure.json"):   # an earlier run's status
        (out / stale).unlink(missing_ok=True)
    try:
        if subcommand in NEEDS_INPUT and in_path is None:
            raise ConfigError(f"{subcommand} needs --in FIELD.bin")
        inputs = (load_field(in_path)[0],) if subcommand in NEEDS_INPUT else ()
        summary = RUNNERS[subcommand](cfg, out, *inputs)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        (out / "failure.json").write_text(json.dumps(
            {"error": str(exc), "type": type(exc).__name__}, sort_keys=True,
            indent=2) + "\n")
        return 3
    summary["config_hash"] = config_hash(cfg)
    write_summary(out, summary)
    return 0


def _sweep_worker(args):
    sub, cfg, out_dir, in_path = args
    code = run(sub, cfg, out_dir, in_path)
    summary_path = Path(out_dir) / "summary.json"
    summary = summary_path.read_text() if summary_path.exists() else "{}"
    return code, summary


def run_sweep(sub: str, base_cfg: dict, param: str, values, out_dir,
              in_path=None) -> int:
    """One row per run; failures get a status, never dropped."""
    try:
        if param not in CONFIG_KEYS:
            raise ConfigError(f"unknown sweep parameter {param!r}")
        if not values:
            raise ConfigError("empty sweep grid")
        parsed = [parse_config_text(f"{param}={val}")[param] for val in values]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for val, parsed_val in zip(values, parsed):
        cfg = dict(base_cfg)
        cfg[param] = parsed_val
        jobs.append((sub, cfg, out / f"{param}_{val}", in_path))
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    rows = []
    for val, (code, summary) in zip(values, results):
        status = {0: "ok", 2: "precondition_error", 3: "numerical_failure"}[code]
        rows.append((str(val), status, json.dumps(json.loads(summary), sort_keys=True)))
    write_csv(out / "aggregate.csv", (param, "status", "summary"), rows,
              config_hash(base_cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlslab",
        description="solitary waves of the focusing equation outside an obstacle",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    common_flags = sorted(CONFIG_KEYS)
    for name in list(RUNNERS) + ["sweep"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--in", dest="in_path", type=str, default=None)
        for key in common_flags:
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                           type=str, default=None)
        if name == "sweep":
            p.add_argument("--sub", required=True, choices=sorted(RUNNERS))
            p.add_argument("--param", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or f"runs/{args.cmd}"
    try:
        cfg = load_config(args.config) if args.config else default_config()
        for key in CONFIG_KEYS:
            flag = getattr(args, f"cfg_{key}", None)
            if flag is not None:
                cfg.update(parse_config_text(f"{key}={flag}"))
        Path(out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd == "sweep":
        return run_sweep(args.sub, cfg, args.param, args.values.split(","),
                         out, args.in_path)
    return run(args.cmd, cfg, out, args.in_path)


if __name__ == "__main__":
    sys.exit(main())
