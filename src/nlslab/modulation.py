"""Modulation decomposition and the backward-shooting construction.

A state u close to the traveling wave is split as u = R~(y, mu) + r where
the translation y and phase mu solve the d+1 orthogonality conditions

    Re int r  dQ~_j Psi conj(phase) = 0,      Im int r conj(R~) = 0,

by Newton iteration.  Each iterate makes one pass over the profile: the
exact Jacobian is built from the same Q, Q' and phase as the residual.
The unstable/stable spectral coefficients are alpha+- = Im int Y~_(-+) conj(r).

Shooting integrates backward from modulated final data R(Tn) + i lambda.Y(Tn)
whose lambda is tuned so alpha+(Tn) is prescribed and alpha-(Tn) = 0, and
watches the bootstrap bounds; the one unstable direction is controlled by
bisection on alpha+, the one-dimensional shadow of the degree argument.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .evolve import (CrankNicolsonStepper, EvolveConfig, check_finite, march_ahead,
                     step_count)
from .grid import (Field, Grid, PreconditionError, from_active, h1_norm, l2_norm,
                   real_inner, to_active)
from .ground_state import GroundState
from .linearized import EigenModes
from .linearized import evaluate_mode_parts  # noqa: F401  (bench/tests reads this binding)
from .soliton import (Ansatz, SolitonError, SolitonParams, _check_center, ansatz,
                      functionals, mode_pair, soliton_field)

NEWTON_TOL = 1e-11       # modulation Newton residuals, relative to their scales
MAX_NEWTON = 50
FINAL_DATA_TOL = 1e-10   # final-data Newton residual, relative to the alpha+ target
MAX_SHOOTS = 60          # bisection shots of the alpha+ search after its two ends
GROWTH_FACTOR = 3.0      # growth_rate_fit's rows: |alpha+| past this x its final value


class ModulationError(RuntimeError):
    pass


class ModulationInputError(ModulationError, PreconditionError):
    pass


class ModulationFailure(ModulationError):
    """Newton did not land on the orthogonality conditions."""


@dataclass(eq=False)
class ModulationContext:
    params: SolitonParams
    gs: GroundState
    modes: EigenModes
    psi: object
    grid: Grid
    eps_mod: float = field(init=False)   # decompose's reach: a tenth of |Q|_L2

    def __post_init__(self):
        if not np.isclose(self.gs.omega, self.params.omega):
            raise SolitonError("ground state frequency does not match parameters")
        r, d = self.gs.r_samples, self.gs.dim
        # |Q|_L2^2 = |S^(d-1)| int Q^2 r^(d-1) dr; r**0 is exactly 1
        sphere = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
        mass = sphere * np.trapezoid(self.gs(r) ** 2 * r ** (d - 1), r)
        self.eps_mod = 0.1 * float(np.sqrt(mass))

    def rate(self, delta: float) -> float:
        return delta * np.sqrt(self.params.omega) * self.params.speed()


@dataclass(eq=False)
class ModulationState:
    y: np.ndarray
    mu: float
    r: Field
    alpha_plus: float
    alpha_minus: float
    t: float
    newton_iters: int = 0    # residual checks made, the last one converged
    _ansatz: Ansatz = field(default=None, repr=False)


def _orthogonality(ctx: ModulationContext, u: Field, t: float, y, mu):
    """Residuals of the d+1 conditions and the pieces needed around them."""
    a = ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi, y, mu)
    r_vals = u.values - a.values()
    w = ctx.grid.cell_volume()
    h = r_vals * np.conj(a.ph)
    res = [float(np.sum(h.real * dqf)) * w for dqf in a.dq_fields]
    res.append(float(np.sum(h.imag * a.qpsi)) * w)
    scales = [float(np.sum(dqf**2)) * w for dqf in a.dq_fields]
    scales.append(float(np.sum(a.qpsi**2)) * w)
    return np.asarray(res), np.asarray(scales), r_vals, a


def _jacobian(ctx: ModulationContext, r_vals: np.ndarray, a: Ansatz) -> np.ndarray:
    """Exact Jacobian of the orthogonality residuals in (y, mu).

    With h = e^{-i phase~} r:  dh/dy_k = Psi d_k Q~,  dh/dmu = -i (h + Q~ Psi),
    and d(Psi d_j Q~)/dy_k = -Psi d_j d_k Q~.  The Hessian of the radial
    profile needs Q'', taken from the profile equation
    Q'' = omega Q - Q^p - (d-1) Q'/rho, with Q'/rho -> Q''(0) at the centre.
    """
    gs, grid = ctx.gs, ctx.grid
    d, w = grid.dim, grid.cell_volume()
    h = r_vals * np.conj(a.ph)
    source = gs.omega * a.q - a.q**gs.p
    at_centre = a.rr <= 0
    q_rho = np.where(at_centre, source / gs.dim,
                     a.dq / np.where(at_centre, 1.0, a.rr))
    q2 = source - (gs.dim - 1) * q_rho
    hr_psi = h.real * a.pvals
    jac = np.empty((d + 1, d + 1))
    for j in range(d):
        for k in range(d):
            ee = a.units[j] * a.units[k]
            hess = q2 * ee + q_rho * (float(j == k) - ee)
            jac[j, k] = float(np.sum(a.dq_fields[j] * a.dq_fields[k]
                                     - hr_psi * hess)) * w
        jac[j, d] = float(np.sum(h.imag * a.dq_fields[j])) * w
        jac[d, j] = -jac[j, d]
    jac[d, d] = -float(np.sum((h.real + a.qpsi) * a.qpsi)) * w
    return jac


def decompose(ctx: ModulationContext, u: Field, t: float,
              guess=None) -> ModulationState:
    """Newton on (y, mu) for the orthogonality conditions at time t.

    The state must lie within eps_mod of the first iterate's ansatz: of
    R~(t) = R~(t; 0, 0) without a guess, of R~(t; guess) with one.
    """
    grid = ctx.grid
    d = grid.dim
    _check_center(ctx.params, ctx.gs, t, grid)
    z = np.zeros(d + 1) if guess is None else np.asarray(guess, dtype=float).copy()

    res, scales, r_vals, a = _orthogonality(ctx, u, t, z[:d], z[d])
    diff = np.where(grid.mask, r_vals, 0.0)
    dist = float(np.sqrt(np.sum(np.abs(diff) ** 2)) * np.sqrt(grid.cell_volume()))
    if dist > ctx.eps_mod:
        raise ModulationError(
            f"state too far from the soliton for modulation: |u-R| = {dist:.3e} "
            f"> eps = {ctx.eps_mod:.3e}"
        )
    iters = 0
    for iters in range(1, MAX_NEWTON + 1):
        if np.all(np.abs(res) <= NEWTON_TOL * scales):
            break
        try:
            dz = np.linalg.solve(_jacobian(ctx, r_vals, a), res)
        except np.linalg.LinAlgError as exc:
            raise ModulationFailure(f"singular modulation Jacobian at t={t}") from exc
        z = z - dz
        res, scales, r_vals, a = _orthogonality(ctx, u, t, z[:d], z[d])
    else:
        raise ModulationFailure(
            f"modulation Newton did not converge at t={t}: residuals {res}"
        )

    y_plus, y_minus = mode_pair(ctx.modes, grid, a.c, a.pvals, a.ph)
    w = grid.cell_volume()
    alpha_plus = float(np.sum(y_minus * np.conj(r_vals)).imag) * w
    alpha_minus = float(np.sum(y_plus * np.conj(r_vals)).imag) * w
    return ModulationState(y=z[:d], mu=float(z[d]), r=Field(grid, r_vals),
                           alpha_plus=alpha_plus, alpha_minus=alpha_minus, t=t,
                           newton_iters=iters, _ansatz=a)


def _final_data_map(ctx: ModulationContext, Tn: float):
    """lam -> u(Tn), with R(Tn) and Y+-(Tn) built once (u is affine in lam)."""
    _check_center(ctx.params, ctx.gs, Tn, ctx.grid)
    a = ansatz(ctx.params, ctx.gs, Tn, ctx.grid, ctx.psi)
    R = a.values()
    yp, ym = mode_pair(ctx.modes, ctx.grid, a.c, a.pvals, a.ph)

    def at(lam) -> Field:
        lam = np.asarray(lam, dtype=float)
        return Field(ctx.grid, R + 1j * (lam[0] * yp + lam[1] * ym))

    return at


def final_data(ctx: ModulationContext, Tn: float, lam) -> Field:
    """u(Tn) = R(Tn) + i (lam+ Y+(Tn) + lam- Y-(Tn))."""
    return _final_data_map(ctx, Tn)(lam)


def _tune_final_data(ctx: ModulationContext, Tn: float, alpha_plus_target: float):
    """Newton on lam so that alpha+(Tn) hits the target and alpha-(Tn) = 0.

    Returns lam with u(Tn) and its decomposition, from the last evaluation.
    """
    lam = np.zeros(2)
    target = np.array([alpha_plus_target, 0.0])
    data = _final_data_map(ctx, Tn)

    def at(lv):
        u = data(lv)
        st = decompose(ctx, u, Tn)
        return np.array([st.alpha_plus, st.alpha_minus]) - target, u, st

    scale = max(abs(alpha_plus_target), 1e-12)
    res, u, st = at(lam)
    for _ in range(30):
        if np.max(np.abs(res)) <= FINAL_DATA_TOL * scale:
            return lam, u, st
        jac = np.empty((2, 2))
        step = max(1e-8, 1e-3 * scale)
        for j in range(2):
            lp = lam.copy()
            lp[j] += step
            jac[:, j] = (at(lp)[0] - res) / step
        lam = lam - np.linalg.solve(jac, res)
        res, u, st = at(lam)
    raise ModulationError(
        f"final-data Newton stalled: residual {res} for target {target}"
    )


def solve_modulated_final_data(ctx: ModulationContext, Tn: float,
                               alpha_plus_target: float) -> np.ndarray:
    """Newton on lam so that alpha+(Tn) hits the target and alpha-(Tn) = 0."""
    return _tune_final_data(ctx, Tn, alpha_plus_target)[0]


@dataclass(frozen=True)
class ShootConfig:
    T0: float
    Tn: float
    delta: float = None          # default: 0.7 * fitted ground-state rate
    log_every: int = 10

    def __post_init__(self):
        if not self.Tn > self.T0 > 0:
            raise ModulationInputError("need Tn > T0 > 0")
        if self.log_every < 1:
            raise ModulationInputError("log_every must be >= 1")


@dataclass(eq=False)
class ShootLog:
    t: np.ndarray
    r_l2: np.ndarray
    r_h1: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    lyapunov: np.ndarray
    nn: np.ndarray
    tilde_lyapunov: np.ndarray
    exit_time: float
    exit_reason: str
    alpha_target: float
    lam: np.ndarray
    M: float
    Mprime: float
    delta: float
    rate: float
    snapshots: list = field(default_factory=list)

    def rows(self):
        cols = (self.t, self.r_l2, self.r_h1, np.abs(self.y), np.abs(self.mu),
                self.alpha_plus, self.alpha_minus, self.lyapunov, self.nn,
                self.tilde_lyapunov)
        return np.column_stack(cols)


def _shoot_delta(ctx: ModulationContext, cfg: ShootConfig) -> float:
    return cfg.delta if cfg.delta is not None else 0.7 * ctx.gs.delta_fit


def _ansatz_lyapunov(ctx: ModulationContext, a: Ansatz) -> float:
    w = ctx.grid.cell_volume()
    kin = 0.0
    for slope in a.slopes():
        kin += float(np.sum(slope**2)) * w
    mass = float(np.sum(a.qpsi**2)) * w
    pot = float(np.sum(a.qpsi ** (ctx.params.p + 1.0))) * w
    return 0.5 * kin - pot / (ctx.params.p + 1.0) + 0.5 * ctx.params.omega * mass


def tilde_lyapunov(ctx: ModulationContext, t: float, y) -> float:
    """The conserved combination of the modulated ansatz R~(t).

    The velocity terms cancel algebraically, leaving
    1/2 |grad(Q~ Psi)|^2 - 1/(p+1) |Q~ Psi|^(p+1) + omega/2 |Q~ Psi|^2
    evaluated with exact derivatives; its time drift is pure cutoff overlap.
    backward_shoot logs the same value from the pieces of the converged
    Newton iterate instead of evaluating the profile again.
    """
    return _ansatz_lyapunov(ctx, ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi,
                                        np.asarray(y)))


def backward_shoot(ctx: ModulationContext, alpha_plus: float, cfg: ShootConfig,
                   evolve_cfg: EvolveConfig) -> ShootLog:
    """Integrate backward from tuned final data, logging the bootstrap bounds.

    The bounds are |alpha+-| <= e^{-rate t}, |r|_H1 <= M e^{-rate t} and
    |y|, |mu| <= M' e^{-rate t}, with M = 10 max(|r(Tn)|_H1 e^{rate Tn}, 1)
    and M' = M^2.  Stops at T0 or at the first violated bound; a modulation
    breakdown ends the log early.  A non-finite state raises EvolveError.
    """
    if not np.isfinite(alpha_plus):
        raise ModulationInputError(f"need a finite alpha+, got {alpha_plus}")
    grid = ctx.grid
    delta = _shoot_delta(ctx, cfg)
    rate = ctx.rate(delta)
    lam, u, state = _tune_final_data(ctx, cfg.Tn, alpha_plus)
    if np.any(np.abs(lam) > 10.0 * np.exp(-rate * cfg.Tn)):
        raise ModulationError(f"final-data amplitude {lam} out of admissible range")
    r_h1 = h1_norm(state.r)
    M = 10.0 * max(r_h1 * np.exp(rate * cfg.Tn), 1.0)
    Mp = M**2

    n_steps = step_count(cfg.T0 - cfg.Tn, evolve_cfg.dt)
    dt = (cfg.T0 - cfg.Tn) / n_steps
    stepper = CrankNicolsonStepper(grid, dt)

    rows = []
    snaps = []
    guess = np.concatenate([state.y, [state.mu]])
    exit_reason, exit_time = "reached_T0", cfg.T0

    def log_row(t, st, u_here, r_h1):
        f = functionals(u_here, ctx.params)
        nn = (np.exp(rate * t) * st.alpha_plus) ** 2
        rows.append((t, l2_norm(st.r), r_h1, st.y.copy(), st.mu,
                     st.alpha_plus, st.alpha_minus, f.lyapunov, nn,
                     _ansatz_lyapunov(ctx, st._ansatz)))
        snaps.append((t, u_here))

    def violated(t, st, r_h1):
        bound = np.exp(-rate * t)
        slack = 1.0 + 1e-9
        if abs(st.alpha_plus) > bound * slack or abs(st.alpha_minus) > bound * slack:
            return "alpha_bound"
        if r_h1 > M * bound * slack:
            return "r_bound"
        if np.max(np.abs(st.y)) > Mp * bound * slack or abs(st.mu) > Mp * bound * slack:
            return "y_mu_bound"
        return None

    log_row(cfg.Tn, state, u, r_h1)
    with closing(march_ahead(stepper, to_active(u), n_steps, ctx.params.p,
                             every=cfg.log_every)) as states:
        for k, vec in states:
            if k == 0:
                continue
            t = cfg.Tn + k * dt
            check_finite(vec, t)
            u_here = from_active(grid, vec)
            try:
                state = decompose(ctx, u_here, t, guess)
            except ModulationError:
                exit_reason, exit_time = "modulation_failure", t
                break
            guess = np.concatenate([state.y, [state.mu]])
            r_h1 = h1_norm(state.r)
            log_row(t, state, u_here, r_h1)
            reason = violated(t, state, r_h1)
            if reason is not None:
                exit_reason, exit_time = reason, t
                break

    # a row holds ShootLog's first ten fields, in order
    return ShootLog(*map(np.asarray, zip(*rows)), exit_time=exit_time,
                    exit_reason=exit_reason, alpha_target=alpha_plus, lam=lam, M=M,
                    Mprime=Mp, delta=delta, rate=rate, snapshots=snaps)


class ShootSearchError(ModulationError):
    pass


@dataclass(eq=False)
class SearchResult:
    alpha_star: float
    log: ShootLog
    history: list
    bracket_width: float
    found: bool


def shoot_search(ctx: ModulationContext, cfg: ShootConfig,
                 evolve_cfg: EvolveConfig) -> SearchResult:
    """Bisection over alpha+ inside the admissible bracket.

    Both endpoints must exit through the alpha bound with opposite signs of
    alpha+(exit); the sign change brackets the stable shot, realizing the
    one-dimensional shadow of the degree argument.
    """
    amp = np.exp(-ctx.rate(_shoot_delta(ctx, cfg)) * cfg.Tn)
    history = []

    def run(a):
        log = backward_shoot(ctx, a, cfg, evolve_cfg)
        history.append((a, log.exit_time, log.exit_reason,
                        float(log.alpha_plus[-1])))
        return log

    lo, hi = -amp, amp
    log_lo, log_hi = run(lo), run(hi)
    for a, log in ((lo, log_lo), (hi, log_hi)):
        if log.exit_reason != "alpha_bound":
            raise ShootSearchError(
                f"no unstable crossing detected: endpoint {a} exited via "
                f"{log.exit_reason}; check delta, p or the horizon"
            )
    s_lo, s_hi = np.sign(log_lo.alpha_plus[-1]), np.sign(log_hi.alpha_plus[-1])
    if s_lo == s_hi:
        raise ShootSearchError(
            "no unstable crossing detected: both endpoints exit with the "
            f"same sign {s_lo}"
        )
    best = log_lo if log_lo.exit_time < log_hi.exit_time else log_hi
    best_alpha = lo if best is log_lo else hi
    for _ in range(MAX_SHOOTS):
        if hi - lo < 1e-14 * amp:
            break
        mid = 0.5 * (lo + hi)
        log = run(mid)
        if log.exit_reason == "reached_T0":
            return SearchResult(mid, log, history, hi - lo, True)
        if log.exit_time < best.exit_time:
            best, best_alpha = log, mid
        if np.sign(log.alpha_plus[-1]) == s_lo:
            lo = mid
        else:
            hi = mid
    return SearchResult(best_alpha, best, history, hi - lo, False)


def alpha_minus_monitor(log: ShootLog) -> float:
    """Max over rows of |alpha-| against half the alpha bound."""
    bound = 0.5 * np.exp(-log.rate * log.t)
    ratios = np.abs(log.alpha_minus) / bound
    if not np.all(np.isfinite(ratios)):
        raise ModulationError("non-finite alpha- ratio")
    return float(np.max(ratios))


def growth_rate_fit(log: ShootLog) -> float:
    """Backward growth rate of |alpha+| once it tops its final-data value.

    A mistuned shot has |alpha+| ~ |mistuning| e^{e (Tn - t)} on top of the
    tuned trajectory; rows where the total has grown a few-fold past the
    final-data value are dominated by that exponential.
    """
    a = np.abs(log.alpha_plus)
    base = max(abs(a[0]), 1e-300)
    sel = a > GROWTH_FACTOR * base
    if sel.sum() < 4:
        raise ModulationError("not enough growth range to fit a rate")
    slope = np.polyfit(log.t[sel], np.log(a[sel]), 1)[0]
    return float(-slope)  # grows backward in time


def lyapunov_drift_fit(log: ShootLog, rate2: float):
    """Fit |d lyapunov / dt| to C1 exp(-rate2 t); returns (C1, R^2, rows used).

    The fit reads the modulated-ansatz combination, whose drift is pure
    cutoff overlap; the evolved state's combination sits at the
    scheme-noise floor at desk resolution.  rate2 should be twice the
    fitted profile decay rate times sqrt(omega) |v|, the rate the obstacle
    flux actually decays at.  Rows below the noise floor are excluded.
    """
    t_mid = 0.5 * (log.t[1:] + log.t[:-1])
    dt = np.diff(log.t)
    drift = np.abs(np.diff(log.tilde_lyapunov) / dt)
    order = np.argsort(t_mid)
    t_mid, drift = t_mid[order], drift[order]
    peak = np.max(drift) if len(drift) else 0.0
    sel = drift > max(1e-11 * peak, 1e-300)
    if sel.sum() < 5:
        raise ModulationError("lyapunov drift entirely below the noise floor")
    ts, ds = t_mid[sel], np.log(drift[sel])
    model = -rate2 * ts
    logc1 = float(np.mean(ds - model))
    ss_res = float(np.sum((ds - model - logc1) ** 2))
    ss_tot = float(np.sum((ds - np.mean(ds)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(logc1)), r2, int(sel.sum())


def uniform_distance_fit(ctx: ModulationContext, log: ShootLog):
    """Fitted constant C in |u(t) - R(t)|_H1 <= C exp(-rate t) over the log."""
    if not log.snapshots:
        raise ModulationError("need retained snapshots")
    vals = []
    for t, u in log.snapshots:
        ref = soliton_field(ctx.params, ctx.gs, t, ctx.grid, ctx.psi)
        vals.append(h1_norm(u - ref) * np.exp(log.rate * t))
    return float(np.max(vals)), np.asarray(vals)


def coercivity_along_trajectory(ctx: ModulationContext, log: ShootLog,
                                drop_alpha: bool = False):
    """Fitted constants of the translated coercivity bound along a shoot.

    Evaluates the quadratic form of the operators recentered at tv + y(t) on
    h = e^{-i phase~} r and returns per-row constants
    C_t = |h|_H1^2 / (form + (alpha+-)^2 + M^2 e^{-4 rate t}).
    """
    if not log.snapshots:
        raise ModulationError("need retained snapshots")
    from .grid import laplacian_dirichlet

    grid = ctx.grid
    w = grid.cell_volume()
    out = []
    for (t, u), y, mu, ap, am in zip(log.snapshots, log.y, log.mu,
                                     log.alpha_plus, log.alpha_minus):
        a = ansatz(ctx.params, ctx.gs, t, ctx.grid, ctx.psi, y, mu)
        h_vals = (u.values - a.values()) * np.conj(a.ph)
        pot = a.q ** (ctx.params.p - 1.0)
        form = 0.0
        for part, coef in ((h_vals.real, ctx.params.p), (h_vals.imag, 1.0)):
            f = Field(grid, part.astype(complex))
            lap = laplacian_dirichlet(f)
            kin = -real_inner(lap, f)
            mass = float(np.sum(part**2)) * w
            potterm = float(np.sum(pot * part**2)) * w
            form += kin + ctx.params.omega * mass - coef * potterm
        hf = Field(grid, h_vals)
        h1sq = h1_norm(hf) ** 2
        alpha_term = 0.0 if drop_alpha else ap**2 + am**2
        denom = form + alpha_term + log.M**2 * np.exp(-4.0 * log.rate * t)
        out.append((t, h1sq, form, h1sq / denom if denom > 0 else np.inf))
    arr = np.asarray(out)
    return arr
