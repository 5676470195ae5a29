"""The three benchmark workloads: inputs from a seed, set-up, solve, checks.

Every call into the program goes through a module attribute
(``self.fp.picard``, ``self.cli.run``, ...), so that the tracer's wrappers,
installed on those same attributes, see it.

The seed only chooses the soliton's global phase ``theta0`` and the
certificate probe seed.  Gauge invariance leaves every checked quantity
unchanged up to roundoff, so one reference per workload serves every seed.
Each reference below carries its tolerance next to it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import shutil

import numpy as np


def phase_from_seed(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


def _mod(name):
    return importlib.import_module(f"nlslab.{name}")


def _compare(failures, label, value, ref, rel_tol):
    # written so that NaN fails too
    if value is None or not abs(value - ref) <= rel_tol * abs(ref):
        failures.append(f"{label}={value}, reference {ref!r} (rel tol {rel_tol:g})")


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, out_dir):
        self.seed = int(seed)
        self.theta0 = phase_from_seed(seed)
        self.out_dir = out_dir

    def setup(self):
        """Build the objects every solve shares."""
        raise NotImplementedError

    def operations(self):
        """[(name, callable)]: the solve phase, one operation each."""
        raise NotImplementedError

    def check(self, name, output) -> list:
        """Failure messages for one operation's output (empty when correct)."""
        raise NotImplementedError


class PicardV8(Workload):
    """Criterion 9's main run: Picard iteration at |v| = 8."""

    name = "picard_v8"
    why = ("fixedpoint sources, weighted norms and forced backward CN sweeps do "
           "almost all the work; modulation and linearized are absent, so it is "
           "their no-change control")

    P, V, L, N, A, R1, R2 = 3.0, 8.0, 40.0, 2047, 1.0, 1.5, 3.0
    DT, T0, DELTA, HORIZON, ITERS = 0.002, 0.5, 0.8, 14.0, 5

    # Recorded at the commit that introduced the benchmark.  Gauge changes
    # move them by ~1e-12 relative; 1e-9 leaves room for reordered sums.
    REF_ITERATE_NORMS = [
        7.860363662379364, 7.868538643618348, 7.868005843285529,
        7.867997213348721, 7.867998482536007,
    ]
    ITERATE_NORMS_REL_TOL = 1e-9
    # A centered time difference of R + r amplifies roundoff by 1/dt.
    REF_FINAL_RESIDUAL = 0.0847414643094078
    FINAL_RESIDUAL_REL_TOL = 1e-6

    def setup(self):
        gsmod, grid, sol, fp, ev = (_mod(m) for m in
                                    ("ground_state", "grid", "soliton",
                                     "fixedpoint", "evolve"))
        self.fp = fp
        gs = gsmod.solve_ground_state(self.P, 1.0, 1)
        g = grid.build_grid(1, self.L, self.N, grid.Obstacle("ball", self.A))
        psi = grid.build_cutoff(g, self.R1, self.R2)
        params = sol.SolitonParams(omega=1.0, v=(self.V,), p=self.P,
                                   theta0=self.theta0)
        self.sources = fp.make_sources(params, gs, psi, g, self.P)
        self.norm_cfg = grid.NormConfig("Eweighted", delta=self.DELTA, omega=1.0,
                                        v=(self.V,), T0=self.T0)
        self.evolve_cfg = ev.EvolveConfig(dt=self.DT)
        self.tmax = self.T0 + self.HORIZON / (self.DELTA * self.V)

    def _construct(self):
        report, traj = self.fp.picard(self.sources, self.T0, self.tmax,
                                      self.norm_cfg, self.ITERS, self.evolve_cfg,
                                      j_diagnostics=False)
        return report, self.fp.remainder_decay_rate(traj)

    def operations(self):
        return [("picard", self._construct)]

    def check(self, name, output):
        report, decay = output
        fails = []
        if not report.converged:
            fails.append("picard did not converge")
        if not report.contraction_ratios or not report.contraction_ratios[-1] < 0.5:
            fails.append(f"last contraction ratio {report.contraction_ratios} not < 0.5")
        target = 0.9 * self.DELTA * self.V
        if not decay >= target:
            fails.append(f"decay rate {decay} < 0.9 delta |v| = {target}")
        if len(report.iterate_norms) != len(self.REF_ITERATE_NORMS):
            fails.append(f"{len(report.iterate_norms)} iterates, reference "
                         f"{len(self.REF_ITERATE_NORMS)}")
        else:
            for k, (val, ref) in enumerate(zip(report.iterate_norms,
                                               self.REF_ITERATE_NORMS)):
                _compare(fails, f"iterate_norms[{k}]", val, ref,
                         self.ITERATE_NORMS_REL_TOL)
        _compare(fails, "final_residual", report.final_residual,
                 self.REF_FINAL_RESIDUAL, self.FINAL_RESIDUAL_REL_TOL)
        return fails


class ShootSearchP7(Workload):
    """The desk shooting search of the README and the test fixtures."""

    name = "shoot_search_p7"
    why = ("modulation.decompose, mode interpolation and the unforced nonlinear "
           "backward march dominate; fixedpoint is absent")

    P, V, L, N, A, R1, R2 = 7.0, 2.0, 30.0, 3071, 1.0, 1.5, 3.0
    T0, TN, DELTA, DT, LOG_EVERY = 4.0, 8.0, 0.4, 0.002, 10
    SPECTRAL_L, SPECTRAL_N = 30.0, 4095

    # Bisection midpoints are fixed fractions of the bracket, so the found
    # alpha is exact unless a sign decision flips; 1e-9 relative allows
    # roundoff only.  The shoot count is exact.
    REF_ALPHA_STAR = -0.0003488621227855427
    ALPHA_STAR_REL_TOL = 1e-9
    REF_SHOOTS = 13

    def setup(self):
        gsmod, grid, sol, lin, ev, mod = (_mod(m) for m in
                                          ("ground_state", "grid", "soliton",
                                           "linearized", "evolve", "modulation"))
        self.mod = mod
        gs = gsmod.solve_ground_state(self.P, 1.0, 1)
        spectral = grid.build_grid(1, self.SPECTRAL_L, self.SPECTRAL_N)
        modes = lin.solve_unstable_pair(lin.assemble(gs, spectral))
        g = grid.build_grid(1, self.L, self.N, grid.Obstacle("ball", self.A))
        psi = grid.build_cutoff(g, self.R1, self.R2)
        params = sol.SolitonParams(omega=1.0, v=(self.V,), p=self.P,
                                   theta0=self.theta0)
        self.ctx = mod.ModulationContext(params=params, gs=gs, modes=modes,
                                         psi=psi, grid=g)
        self.shoot_cfg = mod.ShootConfig(T0=self.T0, Tn=self.TN, delta=self.DELTA,
                                         log_every=self.LOG_EVERY)
        self.evolve_cfg = ev.EvolveConfig(dt=self.DT)

    def operations(self):
        return [("shoot_search", lambda: self.mod.shoot_search(
            self.ctx, self.shoot_cfg, self.evolve_cfg))]

    def check(self, name, result):
        fails = []
        if not result.found:
            fails.append("search did not find a shot reaching T0")
        if result.log.exit_reason != "reached_T0":
            fails.append(f"exit_reason {result.log.exit_reason!r}")
        _compare(fails, "alpha_star", result.alpha_star, self.REF_ALPHA_STAR,
                 self.ALPHA_STAR_REL_TOL)
        if len(result.history) != self.REF_SHOOTS:
            fails.append(f"{len(result.history)} shoots, reference {self.REF_SHOOTS}")
        return fails


class DeskCli(Workload):
    """The small CLI subcommands, each one operation."""

    name = "desk_cli"
    why = ("ground-state shooting (also in 3d), dense linearized solves, forward "
           "stepping with conservation logging and cli file output dominate")

    # input field: boosted sqrt(2) sech (the p=3 soliton), made here
    FIELD_L, FIELD_N, X0, V = 40.0, 2047, -10.0, 1.0
    GROUND_STATES = ((3.0, 1), (7.0, 1), (3.0, 3))
    SPECTRUM = dict(p=7.0, L=18.0, n=1535, omegas=(1.0, 2.0, 4.0))
    EVOLVE = dict(p=3.0, v=(V,), dt=0.002, t0=0.0, t1=20.0, snapshot_every=100)
    FUNCTIONALS = dict(p=3.0, v=(V,))

    # q0 from bisection to 4e-15: 1e-10 relative.
    REF_Q0 = {"ground-state-p3-d1": 1.4142135623730976,
              "ground-state-p7-d1": 1.2599210498948796,
              "ground-state-p3-d3": 4.33738767997702}
    Q0_REL_TOL = 1e-10
    # Eigenvalue and dense certificate minimum: 1e-8 relative.
    REF_E0 = 2.9070668401357853
    REF_LAMBDA_MIN = 0.18770459396170064
    SPECTRUM_REL_TOL = 1e-8
    # CN conserves mass exactly; the drift is roundoff of 10000 steps
    # (1.0e-11 recorded), so 1e-9 still checks conservation to 2.5e-10.
    MASS_DRIFT_MAX = 1e-9
    # Mass and energy of the stored field.  The field is stored as complex64,
    # whose rounding depends on the phase: across seeds M moves by ~1e-8 and
    # E by ~1e-7 relative, hence 1e-6 and 1e-5.
    REF_MASS = 3.999999963869625
    MASS_REL_TOL = 1e-6
    REF_ENERGY = -0.16771284118488983
    ENERGY_REL_TOL = 1e-5

    def setup(self):
        grid = _mod("grid")
        self.cli = _mod("cli")
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        g = grid.build_grid(1, self.FIELD_L, self.FIELD_N)
        x = g.coordinate(0)
        vals = (math.sqrt(2.0) / np.cosh(x - self.X0)
                * np.exp(1j * (0.5 * self.V * x + self.theta0)))
        self.in_path = self.out_dir / "u0.bin"
        grid.save_field(self.in_path, grid.Field(g, vals))

    def _run(self, name, sub, overrides, in_path):
        # A rerun overwrites every output file; a failed run shows in its code.
        cfg = self.cli.default_config()
        cfg.update(overrides, seed=self.seed)
        out = self.out_dir / name
        return self.cli.run(sub, cfg, out, in_path), out

    def operations(self):
        cmds = [(f"ground-state-p{p:g}-d{dim}", "ground-state", dict(p=p, dim=dim),
                 None) for p, dim in self.GROUND_STATES]
        cmds += [("spectrum", "spectrum", self.SPECTRUM, None),
                 ("evolve", "evolve", self.EVOLVE, self.in_path),
                 ("functionals", "functionals", self.FUNCTIONALS, self.in_path)]
        return [(name, functools.partial(self._run, name, *rest))
                for name, *rest in cmds]

    def check(self, name, output):
        code, out = output
        if code != 0:
            return [f"exit code {code}"]
        summary = json.loads((out / "summary.json").read_text())
        fails = []
        if name in self.REF_Q0:
            _compare(fails, "q0", summary["q0"], self.REF_Q0[name], self.Q0_REL_TOL)
        elif name == "spectrum":
            _compare(fails, "e0", summary["e0"], self.REF_E0, self.SPECTRUM_REL_TOL)
            _compare(fails, "lambda_min", summary["lambda_min"],
                     self.REF_LAMBDA_MIN, self.SPECTRUM_REL_TOL)
        elif name == "evolve":
            if not summary["mass_drift"] <= self.MASS_DRIFT_MAX:
                fails.append(f"mass drift {summary['mass_drift']} > "
                             f"{self.MASS_DRIFT_MAX}")
        elif name == "functionals":
            _compare(fails, "M", summary["M"], self.REF_MASS, self.MASS_REL_TOL)
            _compare(fails, "E", summary["E"], self.REF_ENERGY, self.ENERGY_REL_TOL)
        return fails


WORKLOADS = {w.name: w for w in (PicardV8, ShootSearchP7, DeskCli)}
