"""Strang-split Crank-Nicolson stepping for the focusing equation.

Every time march in the package is `march` over the active lattice points;
its caller logs, checks and stops it.  A step is a half phase rotation by the
nonlinearity, a Crank-Nicolson solve for the free flow (forced, with the
trapezoid rule, in the Duhamel sweeps), and another half rotation.  The CN
matrix is fixed for a given (grid, dt), so it is LU-factorized once and the
factorization reused for every step; the solve is then exact to roundoff and
the lin_tol contract is enforced as a verified residual bound instead of an
iteration target.  Negative dt steps backward; the scheme is exactly time
reversible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (Field, Grid, PreconditionError, from_active, h1_norm,
                   laplacian_dirichlet, laplacian_matrix, to_active)
from .soliton import SolitonParams, functionals


class EvolveError(RuntimeError):
    pass


class EvolveInputError(EvolveError, PreconditionError):
    pass


class BlowUpError(EvolveError):
    def __init__(self, t, norm):
        super().__init__(
            f"H1 norm {norm:.3e} exceeded the blow-up guard at t={t} "
            "(finite-time blow-up suspected)"
        )
        self.t = t
        self.norm = norm


class LinearSolveError(EvolveError):
    pass


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t0: float = 0.0
    t1: float = 1.0
    lin_tol: float = 1e-10
    snapshot_every: int = 1
    c_stab: float = 200.0
    blowup_factor: float = 1e3

    def __post_init__(self):
        if not self.dt > 0:
            raise EvolveInputError("dt is a positive magnitude; direction comes from t0, t1")
        if self.snapshot_every < 1:
            raise EvolveInputError("snapshot_every must be >= 1")


class CrankNicolsonStepper:
    """Holds the factorized CN matrices for one (grid, signed dt)."""

    def __init__(self, grid: Grid, dt: float, lin_tol: float = 1e-10):
        self.grid = grid
        self.dt = float(dt)
        self.lin_tol = lin_tol
        lap = laplacian_matrix(grid)
        alpha = 0.5j * self.dt
        eye = sp.identity(grid.n_active, format="csc", dtype=complex)
        self._minus = (eye - alpha * lap).tocsc()
        self._plus = (eye + alpha * lap).tocsr()
        self._solver = spla.splu(self._minus)

    def linear_step(self, vec: np.ndarray, forcing: np.ndarray | None = None) -> np.ndarray:
        """One CN step of i u_t + lap u = F over signed dt (F held fixed)."""
        rhs = self._plus @ vec
        if forcing is not None:
            rhs = rhs - 1j * self.dt * forcing
        out = self._solver.solve(rhs)
        scale = np.linalg.norm(rhs)
        if not np.isfinite(scale):
            raise LinearSolveError(f"non-finite CN right-hand side (norm {scale})")
        if scale > 0:
            resid = np.linalg.norm(self._minus @ out - rhs) / scale
            if not resid <= self.lin_tol:   # NaN fails too
                raise LinearSolveError(
                    f"CN solve residual {resid:.2e} above lin_tol={self.lin_tol}"
                )
        return out


def _phase_half_step(vals: np.ndarray, dt: float, p: float) -> np.ndarray:
    return vals * np.exp(0.5j * dt * np.abs(vals) ** (p - 1.0))


def march(stepper: CrankNicolsonStepper, vec: np.ndarray, n_steps: int,
          p: float | None = None, forcing=None):
    """Advance an active vector n_steps steps of the stepper's signed dt.

    Yields (k, vec) for k = 0 (the start, as given) to n_steps; each later
    vec is a new array.  With p, every step is Strang split around the CN
    solve.  With forcing, forcing(k) is F at the start time plus k dt: it is
    called once per k, in increasing k, before (k, vec) is yielded, and step
    k solves with the trapezoid average of forcing(k - 1) and forcing(k).
    """
    f = forcing(0) if forcing is not None else None
    yield 0, vec
    for k in range(1, n_steps + 1):
        if p is not None:
            vec = _phase_half_step(vec, stepper.dt, p)
        if forcing is not None:
            f_prev, f = f, forcing(k)
        vec = stepper.linear_step(vec, None if forcing is None else 0.5 * (f + f_prev))
        if p is not None:
            vec = _phase_half_step(vec, stepper.dt, p)
        yield k, vec


def step(u: Field, dt: float, p: float, config: EvolveConfig | None = None,
         stepper: CrankNicolsonStepper | None = None) -> Field:
    """One Strang step over signed dt."""
    lin_tol = config.lin_tol if config else 1e-10
    if stepper is None or stepper.dt != dt or stepper.grid != u.grid:
        stepper = CrankNicolsonStepper(u.grid, dt, lin_tol)
    *_, (_, vec) = march(stepper, to_active(u), 1, p)
    return from_active(u.grid, vec)


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    snapshots: list
    conservation: list
    p: float
    params: SolitonParams | None = None

    def conservation_array(self) -> np.ndarray:
        return np.asarray(self.conservation)

    def __len__(self):
        return len(self.snapshots)


def evolve(u0: Field, config: EvolveConfig, p: float,
           params: SolitonParams | None = None) -> Trajectory:
    """March from t0 to t1 (either direction), logging conserved quantities.

    The lyapunov column uses `params`; without them it degenerates to the
    plain energy (omega = 0, v = 0).
    """
    grid = u0.grid
    if config.dt > config.c_stab * grid.spacing**2:
        raise EvolveError(
            f"dt={config.dt} violates the accuracy bound c_stab*h^2="
            f"{config.c_stab * grid.spacing**2:.3e}"
        )
    span = config.t1 - config.t0
    n_steps = max(1, int(round(abs(span) / config.dt)))
    dt = span / n_steps
    stepper = CrankNicolsonStepper(grid, dt, config.lin_tol)
    fparams = params or SolitonParams(omega=1e-30, v=(0.0,) * grid.dim, p=p)

    guard = config.blowup_factor * max(h1_norm(u0), 1e-300)
    times, snapshots, rows = [], [], []
    for k, vec in march(stepper, to_active(u0), n_steps, p):
        if k % config.snapshot_every and k != n_steps:
            continue
        t = config.t0 + k * dt
        u = from_active(grid, vec)
        hn = h1_norm(u)
        if k and hn > guard:
            raise BlowUpError(t, hn)
        f = functionals(u, fparams)
        times.append(t)
        snapshots.append(u)
        rows.append((t, f.mass, f.energy, f.lyapunov, hn))
    return Trajectory(times=np.asarray(times), snapshots=snapshots,
                      conservation=rows, p=p, params=params)


def residual_l2(u_lo: np.ndarray, u: np.ndarray, u_hi: np.ndarray, dt2: float,
                lap: np.ndarray, p: float, grid: Grid) -> float:
    """L2 norm of i u_t + lap u + |u|^(p-1) u at the middle of three lattice
    arrays, with u_t the centered difference over the time span dt2."""
    res = 1j * ((u_hi - u_lo) / dt2) + lap + np.abs(u) ** (p - 1.0) * u
    res[~grid.mask] = 0.0
    out = float(np.sqrt(np.sum(np.abs(res) ** 2)) * np.sqrt(grid.cell_volume()))
    if not np.isfinite(out):
        raise EvolveError(f"non-finite equation residual {out}")
    return out


def nls_residual(traj: Trajectory) -> np.ndarray:
    """Centered-difference residual of the equation on interior snapshots."""
    if len(traj) < 3:
        raise EvolveError("need at least 3 snapshots for a time derivative")
    out = []
    for k in range(1, len(traj) - 1):
        u = traj.snapshots[k]
        out.append(residual_l2(traj.snapshots[k - 1].values, u.values,
                               traj.snapshots[k + 1].values,
                               traj.times[k + 1] - traj.times[k - 1],
                               laplacian_dirichlet(u).values, traj.p, u.grid))
    return np.asarray(out)
