"""High-velocity construction: sources, backward Duhamel sweeps, Picard loop.

The remainder r of u = R + r satisfies (exactly, by expanding the cubic)

    i r_t + lap r = A0(t) + A1(r) + A2(r) + A3(r)

with A0 the pure-ansatz forcing supported where the cutoff varies and A1..A3
the linear/quadratic/cubic feedback terms.  The Duhamel map is realized by
solving this linear inhomogeneous equation backward from a zero final state
with the Crank-Nicolson stepper; iterating it from r = 0 is the Picard loop,
and the contraction is measured rather than assumed.

For p other than 3 the nonlinearity is Taylor-split into the same A0, the
exact linear part, and a single exact remainder (slot A2, with A3 empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    TWO_PI,
    Field,
    Grid,
    NormConfig,
    PreconditionError,
    cis,
    from_active,
    l2_norm,
    laplacian_dirichlet,
    to_active,
)
from .ground_state import GroundState
from .evolve import (
    CrankNicolsonStepper,
    EvolveConfig,
    EvolveError,
    Trajectory,
    march,
    residual_l2,
    step_count,
)
from .soliton import SolitonError, SolitonParams, _check_center, ansatz
from .soliton import soliton_field  # noqa: F401  (bench/tests reads this binding)


class FixedPointError(RuntimeError):
    pass


class FixedPointInputError(FixedPointError, PreconditionError):
    pass


def _a1(R, r, p):
    if p == 3.0:
        return -(R**2) * np.conj(r) - 2.0 * np.abs(R) ** 2 * r
    mod = np.abs(R)
    phase2 = np.where(mod > 0, (R / np.where(mod > 0, mod, 1.0)) ** 2, 0.0)
    return -(0.5 * (p + 1.0) * mod ** (p - 1.0) * r
             + 0.5 * (p - 1.0) * mod ** (p - 1.0) * phase2 * np.conj(r))


def _a2(R, r, p):
    if p == 3.0:
        return -np.conj(R) * r**2 - 2.0 * R * np.abs(r) ** 2
    full = np.abs(R + r) ** (p - 1.0) * (R + r)
    base = np.abs(R) ** (p - 1.0) * R
    return -(full - base) - _a1(R, r, p)


def _a3(R, r, p):
    if p == 3.0:
        return -np.abs(r) ** 2 * r
    return np.zeros_like(r)


# feedback terms of the ansatz R and the remainder r, any array shape
_FEEDBACK = {"a1": _a1, "a2": _a2, "a3": _a3}
_ALL_SOURCES = ("a0", "a1", "a2", "a3")


class SourceSet:
    """Forcing terms of the remainder equation, sharing per-time geometry.

    a0 only lives where the cutoff varies, so it is evaluated on that window;
    the feedback terms a1..a3 are the `_FEEDBACK` formulas on the ansatz R(t).
    """

    def __init__(self, params: SolitonParams, gs: GroundState, psi, grid: Grid,
                 p: float):
        self.params = params
        self.gs = gs
        self.psi = psi
        self.grid = grid
        self.p = float(p)
        if psi is not None:
            self._window = grid.radius() <= psi.R2 * 1.0001
            self._w0 = (psi.psi * (1.0 - psi.psi ** (self.p - 1.0)))[self._window]
            self._grad_psi = [c[self._window] for c in psi.grad_psi]
            self._lap_psi = psi.lap_psi[self._window]
            self._wcoords = [grid.coordinate(k)[self._window] for k in range(grid.dim)]
            self._wphase = grid.boost_phase(params.v)[self._window]

    def _ansatz(self, t):
        if np.any(np.abs(self.params.center(t)) >= self.grid.half_width):
            raise FixedPointError(f"soliton left the box at t={t}")
        return ansatz(self.params, self.gs, t, self.grid, self.psi).values()

    def a0(self, t) -> Field:
        if self.psi is None:
            return Field.zeros(self.grid)
        params, gs = self.params, self.gs
        c = params.center(t)
        r = np.sqrt(sum((xc - ck) ** 2 for xc, ck in zip(self._wcoords, c)))
        q, dq = gs.evaluate(r)
        safe = np.where(r > 0, r, 1.0)
        # this scalar order, not phase_factor's, is what the Picard numbers pin
        phi = self._wphase - 0.25 * params.speed() ** 2 * t + params.omega * t \
            + params.theta0
        ph = cis(np.mod(phi, TWO_PI))
        h = q * ph
        vals = self._w0 * np.abs(h) ** (self.p - 1.0) * h - self._lap_psi * h
        for k in range(self.grid.dim):
            gh = (dq * (self._wcoords[k] - c[k]) / safe + 0.5j * params.v[k] * q) * ph
            vals = vals - 2.0 * self._grad_psi[k] * gh
        full = np.zeros((self.grid.n,) * self.grid.dim, dtype=complex)
        full[self._window] = vals
        return Field(self.grid, full)

    def total_active(self, r: Field | None, t, which) -> np.ndarray:
        """The selected sources at t on r (None: r = 0), as an active vector:
        the Picard loop's `_MeshSources` on the one-point mesh (t,)."""
        rows = None if r is None else to_active(r)[None]
        mesh = _MeshSources(self, (t,), "a0" in which,
                            ansatz=rows is not None and any(a in which for a in _FEEDBACK))
        return mesh.source(which, rows)(0)


def make_sources(params: SolitonParams, gs: GroundState, psi, grid: Grid,
                 p: float | None = None) -> SourceSet:
    return SourceSet(params, gs, psi, grid, p if p is not None else params.p)


def _time_mesh(T0: float, Tmax: float, dt: float):
    n = step_count(Tmax - T0, dt)
    try:
        return T0 + (Tmax - T0) / n * np.arange(n + 1), (Tmax - T0) / n
    except ValueError as exc:   # numpy refuses the size
        raise FixedPointInputError(f"time mesh of {n:.3g} steps: {exc}") from exc


class _MeshSources:
    """A SourceSet evaluated once on a time mesh, as active vectors.

    a0(t_k) is kept on its support (the cutoff window); the ansatz R(t_k),
    which the feedback terms need, is one (nt, n_active) array, built only
    when ``ansatz`` is set.
    """

    def __init__(self, sources: SourceSet, ts, with_a0: bool, ansatz: bool):
        mask = sources.grid.mask
        self.p = sources.p
        self.n_active = sources.grid.n_active
        self.a0 = []
        if with_a0:
            for t in ts:
                vals = sources.a0(t).values[mask]
                idx = np.flatnonzero(vals)
                self.a0.append((idx, vals[idx]))
        self.R = None
        if ansatz:
            self.R = np.empty((len(ts), self.n_active), dtype=complex)
            for k, t in enumerate(ts):
                self.R[k] = sources._ansatz(t)[mask]

    def source(self, which, rows):
        """k -> the selected sources at t_k on rows[k] (rows may be None)."""
        terms = [_FEEDBACK[name] for name in ("a1", "a2", "a3") if name in which]
        if rows is None:
            terms = []     # the feedback of r = 0 vanishes
        with_a0 = "a0" in which

        def at(k):
            if terms:
                f = terms[0](self.R[k], rows[k], self.p)
            else:
                f = np.zeros(self.n_active, dtype=complex)
            if with_a0:
                idx, vals = self.a0[k]
                f[idx] += vals
            for term in terms[1:]:
                f += term(self.R[k], rows[k], self.p)
            return f

        return at


def _sweep(stepper: CrankNicolsonStepper, nt: int, source, out=None, on_row=None):
    """Solve i w_t + lap w = F backward from w(t_{nt-1}) = 0 on active vectors.

    source(k) gives F(t_k); it is called once per k, in decreasing k, before
    row k of ``out`` is written, so it may read the previous iterate from
    ``out`` itself.  on_row(k, w_k) sees each new row before it is stored.
    """
    start = np.zeros(stepper.grid.n_active, dtype=complex)
    for j, vec in march(stepper, start, nt - 1, forcing=lambda i: source(nt - 1 - i)):
        k = nt - 1 - j
        if on_row is not None:
            on_row(k, vec)
        if out is not None:
            out[k] = vec


def _trajectory(sources: SourceSet, ts, rows) -> Trajectory:
    snaps = [from_active(sources.grid, row) for row in rows]
    return Trajectory(times=ts, snapshots=snaps, conservation=[], p=sources.p,
                      params=sources.params)


def duhamel_apply(sources: SourceSet, r_traj: Trajectory | None, T0: float,
                  Tmax: float, evolve_config: EvolveConfig,
                  which=_ALL_SOURCES) -> Trajectory:
    """Solve i w_t + lap w = F(t), w(Tmax) = 0, backward on [T0, Tmax].

    F is the selected sources evaluated on r_traj (which must sit on the same
    time mesh); the result is the truncated Duhamel integral of F.
    """
    grid = sources.grid
    ts, dt = _time_mesh(T0, Tmax, evolve_config.dt)
    nt = len(ts)
    rows = None
    if r_traj is not None:
        if len(r_traj) != nt or abs(r_traj.times[0] - T0) > 1e-12:
            raise FixedPointInputError("input trajectory not on the duhamel time mesh")
        rows = np.array([to_active(u) for u in r_traj.snapshots])
    mesh = _MeshSources(sources, ts, "a0" in which,
                        ansatz=rows is not None and any(a in which for a in _FEEDBACK))
    out = rows if rows is not None else np.zeros((nt, grid.n_active), dtype=complex)
    _sweep(CrankNicolsonStepper(grid, -dt), nt,
           mesh.source(which, rows), out)
    return _trajectory(sources, ts, out)


class _ENorm:
    """exp(delta sqrt(omega) |v| t) (|v|^-3 H2 + L2) of active vectors.

    Agrees bit for bit with the same formula on `h2_norm` and `l2_norm`, and
    raises on a non-finite value instead of letting a sup drop it.
    """

    def __init__(self, grid: Grid, cfg: NormConfig):
        s = cfg.speed()
        if s <= 0:
            raise FixedPointInputError("the weighted norm needs |v| > 0")
        self._stencil = grid.stencil
        self.rate = cfg.delta * np.sqrt(cfg.omega) * s
        self._s3 = s**3

    def weight(self, t) -> float:
        return np.exp(self.rate * t)

    def __call__(self, w, vecs) -> np.ndarray:
        """Weighted norms of the rows of vecs, all at the time of weight w."""
        h2, l2 = self._stencil.h2_l2(vecs)
        vals = w * (h2 / self._s3 + l2)
        if not np.all(np.isfinite(vals)):
            raise FixedPointError(f"non-finite weighted norm {vals} (weight {w})")
        return vals


def e_norm(traj: Trajectory, cfg: NormConfig) -> float:
    """sup over snapshots of exp(delta sqrt(omega) |v| t) (|v|^-3 H2 + L2)."""
    if cfg.speed() <= 0:
        raise FixedPointInputError("the weighted norm needs |v| > 0")
    best = 0.0
    if len(traj):
        norm = _ENorm(traj.snapshots[0].grid, cfg)
        for t, u in zip(traj.times, traj.snapshots):
            best = max(best, norm(norm.weight(t), to_active(u)[None])[0])
    return best


@dataclass
class PicardReport:
    iterate_norms: list
    contraction_ratios: list
    j_norms: dict
    converged: bool
    non_contracting: bool
    final_residual: float | None = None
    tail_criterion: float | None = None
    # diff_norms[i] = E-norm of iterate i+1 minus iterate i
    diff_norms: list = field(default_factory=list)


def picard(sources: SourceSet, T0: float, Tmax: float, enorm_cfg: NormConfig,
           n_iters: int, evolve_config: EvolveConfig, j_diagnostics: bool = True):
    """Iterate the Duhamel map from r = 0 and measure everything.

    The sources that do not depend on the iterate (a0 and the ansatz) are
    evaluated once on the time mesh.  The iterate is one (nt, n_active)
    array that each backward sweep overwrites in place; the weighted norms
    of the iterate and of its change are taken as each row is produced.

    Returns the report and the last trajectory; a growing tail of iterate
    norms is reported as non-contraction, not raised.
    """
    if n_iters < 3:
        raise FixedPointInputError("need at least 3 iterations")
    if sources.params.speed() <= 0:
        raise FixedPointInputError("the construction needs |v| > 0")
    grid = sources.grid
    ts, dt = _time_mesh(T0, Tmax, evolve_config.dt)
    nt = len(ts)
    norm = _ENorm(grid, enorm_cfg)
    weights = [norm.weight(t) for t in ts]
    mesh = _MeshSources(sources, ts, with_a0=True, ansatz=True)
    stepper = CrankNicolsonStepper(grid, -dt)
    rows = np.zeros((nt, grid.n_active), dtype=complex)

    sup = [0.0, 0.0]   # iterate, difference

    def iterate_norm(k, vec):
        sup[0] = max(sup[0], norm(weights[k], vec[None])[0])

    def both_norms(k, vec):
        it, d = norm(weights[k], np.stack([vec, vec - rows[k]]))
        sup[0], sup[1] = max(sup[0], it), max(sup[1], d)

    _sweep(stepper, nt, mesh.source(_ALL_SOURCES, None), rows, iterate_norm)
    norms = [sup[0]]
    j0_norm = norms[0]
    diffs = []
    ratios = []
    grow = 0
    non_contracting = False
    for it in range(1, n_iters):
        sup[:] = [0.0, 0.0]
        _sweep(stepper, nt, mesh.source(_ALL_SOURCES, rows), rows, both_norms)
        norms.append(sup[0])
        d = sup[1]
        diffs.append(d)
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        grow = grow + 1 if (len(norms) >= 2 and norms[-1] > norms[-2]) else 0
        if grow >= 3:
            non_contracting = True
            break
        if d < 1e-14 * max(norms[-1], 1.0):
            break

    rnorm = max(norms[-1], 1e-300)
    j = {"J0": j0_norm}
    if j_diagnostics:
        for name, sel in (("J1", "a1"), ("J2", "a2"), ("J3", "a3")):
            sup[0] = 0.0
            _sweep(stepper, nt, mesh.source((sel,), rows), on_row=iterate_norm)
            j[name] = sup[0]
        j["J1_over_r"] = _over_power(j["J1"], rnorm, 1)
        j["J2_over_r2"] = _over_power(j["J2"], rnorm, 2)
        j["J3_over_r3"] = _over_power(j["J3"], rnorm, 3)

    final_residual = None
    if not non_contracting:
        final_residual = _residual(sources, mesh.R, rows, ts)
    mesh = None    # free the ansatz before the Fields are built
    traj = _trajectory(sources, ts, rows)

    report = PicardReport(
        iterate_norms=norms,
        contraction_ratios=ratios,
        j_norms=j,
        converged=not non_contracting,
        non_contracting=non_contracting,
        final_residual=final_residual,
        tail_criterion=float(np.exp(-norm.rate * (Tmax - T0))),
        diff_norms=diffs,
    )
    return report, traj


def _over_power(jk: float, r: float, k: int) -> float:
    """jk / r^k, the least C with jk <= C r^k.

    The feedback of a zero iterate vanishes, so its ratio is 0.  Where r^k
    underflows, r is divided out one factor at a time.
    """
    if jk == 0.0:
        return 0.0
    scale = r**k
    if scale > 0.0:
        return jk / scale
    for _ in range(k):
        jk /= r
    return jk


def _residual(sources: SourceSet, ansatz, rows, ts) -> float:
    """max over interior times of the `nls_residual` of u = R + r.

    Streams over three consecutive rows of R + r instead of building the
    `soliton_field` + r snapshots, keeping their check of the soliton's
    distance from the box edge.
    """
    params, gs, grid, p = sources.params, sources.gs, sources.grid, sources.p
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    if len(ts) < 3:
        raise EvolveError("need at least 3 snapshots for a time derivative")
    stencil = grid.stencil

    def u_at(k):
        _check_center(params, gs, ts[k], grid)
        vec = ansatz[k] + rows[k]
        return vec, stencil.full(vec[None])[0]

    window = [u_at(0), u_at(1)]
    worst = []
    for k in range(1, len(ts) - 1):
        window.append(u_at(k + 1))
        (_, u_lo), (vec, u), (_, u_hi) = window
        worst.append(residual_l2(u_lo, u, u_hi, ts[k + 1] - ts[k - 1],
                                 stencil.laplacian(vec[None])[0], p, grid))
        window.pop(0)
    return max(worst)


def remainder_decay_rate(traj: Trajectory) -> float:
    """Fitted exponential rate of |r(t)|_L2 over the trajectory."""
    ts, vals = [], []
    for t, u in zip(traj.times, traj.snapshots):
        n = l2_norm(u)
        if n > 0:
            ts.append(t)
            vals.append(n)
    if not vals:
        raise FixedPointError("the remainder is identically zero: no rate to fit")
    ts, vals = np.asarray(ts), np.asarray(vals)
    keep = vals > 1e-13 * vals.max()
    if keep.sum() < 5:
        raise FixedPointError("trajectory too short to fit a decay rate")
    return float(-np.polyfit(ts[keep], np.log(vals[keep]), 1)[0])


def interpolation_check(f: Field) -> tuple[bool, float, float]:
    """Discrete |grad f| <= |lap f|^(1/2) |f|^(1/2) via the Dirichlet form.

    With |grad f|^2 := (-lap f, f) this is Cauchy-Schwarz in the spectral
    measure of the symmetric Laplacian, with equality on eigenvectors.
    """
    lap = laplacian_dirichlet(f)
    from .grid import real_inner

    lhs = np.sqrt(max(real_inner(-1.0 * lap, f), 0.0))
    rhs = np.sqrt(l2_norm(lap) * l2_norm(f))
    return bool(lhs <= rhs * (1.0 + 1e-12) + 1e-15), float(lhs), float(rhs)
