"""Strang-split Crank-Nicolson stepping for the focusing equation.

One step is a half phase rotation by the nonlinearity, a Crank-Nicolson solve
for the free flow, and another half rotation.  The CN matrix is fixed for a
given (grid, dt), so it is LU-factorized once and the factorization reused
for every step; the solve is then exact to roundoff and the lin_tol contract
is enforced as a verified residual bound instead of an iteration target.
Negative dt steps backward; the scheme is exactly time reversible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Field, Grid, h1_norm, laplacian_dirichlet, laplacian_matrix
from .soliton import SolitonParams, functionals


class EvolveError(RuntimeError):
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
    scheme: str = "strang_cn"
    lin_tol: float = 1e-10
    snapshot_every: int = 1
    c_stab: float = 200.0
    blowup_factor: float = 1e3

    def __post_init__(self):
        if self.dt <= 0:
            raise EvolveError("dt is a positive magnitude; direction comes from t0, t1")
        if self.scheme != "strang_cn":
            raise EvolveError(f"unknown scheme {self.scheme!r}")
        if self.snapshot_every < 1:
            raise EvolveError("snapshot_every must be >= 1")


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


def step(u: Field, dt: float, p: float, config: EvolveConfig | None = None,
         stepper: CrankNicolsonStepper | None = None) -> Field:
    """One Strang step over signed dt."""
    lin_tol = config.lin_tol if config else 1e-10
    if stepper is None or stepper.dt != dt or stepper.grid != u.grid:
        stepper = CrankNicolsonStepper(u.grid, dt, lin_tol)
    vals = _phase_half_step(u.values, dt, p)
    vec = stepper.linear_step(vals[u.grid.mask])
    vals = np.zeros_like(vals)
    vals[u.grid.mask] = vec
    vals = _phase_half_step(vals, dt, p)
    return Field(u.grid, vals)


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
    times = [config.t0]
    snapshots = [u0]
    rows = []

    def log(t, u):
        f = functionals(u, fparams)
        rows.append((t, f.mass, f.energy, f.lyapunov, h1_norm(u)))

    log(config.t0, u0)
    u = u0
    for k in range(1, n_steps + 1):
        u = step(u, dt, p, config, stepper)
        t = config.t0 + k * dt
        if k % config.snapshot_every == 0 or k == n_steps:
            hn = h1_norm(u)
            if hn > guard:
                raise BlowUpError(t, hn)
            times.append(t)
            snapshots.append(u)
            log(t, u)
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
