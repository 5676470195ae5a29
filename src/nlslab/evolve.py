"""Strang-split Crank-Nicolson stepping for the focusing equation.

Every time march in the package is `march` over the active lattice points;
its caller logs, checks and stops it.  A step is a half phase rotation by the
nonlinearity, a Crank-Nicolson solve for the free flow (forced, with the
trapezoid rule, in the Duhamel sweeps), and another half rotation.  The CN
matrix is fixed for a given (grid, dt), so it is LU-factorized once and the
factorization reused for every step; the solve is then exact to roundoff,
and every step verifies its relative residual against `LIN_TOL` instead of
iterating to it.  Negative dt steps backward; the scheme is exactly time
reversible.

A rotation is u (cos theta + i sin theta), bit for bit u exp(i theta) and
cheaper, the more so as cos and sin are taken only where theta is not below
`_SMALL_ANGLE`.  It keeps |u|, so the trailing half rotation of one step
and the leading half of the next are one rotation over the full dt
(Strang's "first same as last").  `march(every=k)` merges them between the
states it yields and completes the half step only on those; the backward
shoot asks for every log_every-th state.  With every=1, as in `evolve` and
the Picard sweeps, each step is the plain Strang step.

`march_ahead` runs `march` in a forked worker process on the second core;
the backward shoot uses it, so the march of one shot hides behind its
decompositions and log rows.  The worker writes each state down a pipe (a
header, then its bytes), and the consumer reads it into a new array.  The
pipe is the flow control: a full pipe blocks the worker, an empty one the
consumer, and neither spins.  The generator's `finally` kills and reaps the
worker on every path out of the consumer's loop; if the consumer's process
dies first, the worker's next write fails and it exits.  An exception in
the worker is re-raised after its last good state with its type and
message, as with `march`.  With one usable core it is `march` itself.  Each
process runs the serial arithmetic, so every state keeps its bits.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (Field, Grid, PreconditionError, cis, from_active, h1_norm,
                   laplacian_dirichlet, laplacian_matrix, to_active)
from .soliton import SolitonParams, functionals

LIN_TOL = 1e-10        # bound on each CN solve's relative residual
C_STAB = 200.0         # accuracy bound of `evolve`: dt <= C_STAB h^2
BLOWUP_FACTOR = 1e3    # `evolve` raises BlowUpError past this multiple of the start H1 norm
# The cheapest step (1d, n = 16) takes over 40 us on a 2-core machine, so
# 10^8 steps take over an hour: a longer march is a mistyped dt or span.
MAX_STEPS = 10**8


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
    snapshot_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise EvolveInputError("dt is a positive magnitude; direction comes from t0, t1")
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise EvolveInputError(f"need finite t0, t1, got {self.t0}, {self.t1}")
        if self.snapshot_every < 1:
            raise EvolveInputError("snapshot_every must be >= 1")


def step_count(span: float, dt: float) -> int:
    """Steps of about dt over a time span of either sign: at least one."""
    ratio = abs(span) / dt
    if not ratio <= MAX_STEPS:     # NaN and inf fail too
        raise EvolveInputError(f"{ratio:.3g} steps of dt={dt} exceed MAX_STEPS={MAX_STEPS}")
    return max(1, int(round(ratio)))


class CrankNicolsonStepper:
    """Holds the factorized CN matrices for one (grid, signed dt)."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = float(dt)
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
            if not resid <= LIN_TOL:   # NaN fails too
                raise LinearSolveError(
                    f"CN solve residual {resid:.2e} above LIN_TOL={LIN_TOL}"
                )
        return out


# below this |theta|, cos theta rounds to 1 and sin theta to theta
_SMALL_ANGLE = 2.0**-27


def _rotate(vals: np.ndarray, h: float, p: float) -> np.ndarray:
    """The nonlinear flow over time h: vals exp(i h |vals|^(p-1)).

    Away from the soliton the angle is below `_SMALL_ANGLE`, where cos and
    sin round to exactly 1 and theta; only the other points (and NaN) take
    cos and sin.
    """
    theta = h * np.abs(vals) ** (p - 1.0)
    rot = np.empty(theta.shape, dtype=complex)
    rot.real = 1.0
    rot.imag = theta
    big = ~(np.abs(theta) < _SMALL_ANGLE)
    rot[big] = cis(theta[big])
    return vals * rot


def _phase_half_step(vals: np.ndarray, dt: float, p: float) -> np.ndarray:
    return _rotate(vals, 0.5 * dt, p)


def march(stepper: CrankNicolsonStepper, vec: np.ndarray, n_steps: int,
          p: float | None = None, forcing=None, every: int = 1):
    """Advance an active vector n_steps steps of the stepper's signed dt.

    Yields (k, vec) for k = 0 (the start, as given), every `every`-th k and
    n_steps; each later vec is a new array.  With p, every step is Strang
    split around the CN solve, except that between yields the trailing half
    rotation of a step and the leading one of the next are one rotation over
    dt.  With forcing, forcing(k) is F at the start time plus k dt: it is
    called once per k, in increasing k, before step k's state is yielded,
    and step k solves with the trapezoid average of forcing(k - 1) and
    forcing(k).
    """
    f = forcing(0) if forcing is not None else None
    yield 0, vec
    complete = True     # the last state had its trailing half rotation
    for k in range(1, n_steps + 1):
        if p is not None:
            vec = (_phase_half_step(vec, stepper.dt, p) if complete
                   else _rotate(vec, stepper.dt, p))
        if forcing is not None:
            f_prev, f = f, forcing(k)
        vec = stepper.linear_step(vec, None if forcing is None else 0.5 * (f + f_prev))
        complete = k % every == 0 or k == n_steps
        if complete:
            if p is not None:
                vec = _phase_half_step(vec, stepper.dt, p)
            yield k, vec


_HEADER = struct.Struct("qq")  # (k, 0): state k's 16 n bytes follow;
                               # (-1, n): an n-byte pickled exception follows


def _march_worker(out: int, args) -> None:
    """The forked side of `march_ahead`: march into the pipe, end the process.

    A write blocks while the pipe is full and fails once the consumer has
    gone.  SIGINT is ignored: an interrupt reaches the consumer, whose
    `finally` ends the worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        stream = os.fdopen(out, "wb")
        try:
            for k, vec in march(*args):
                stream.write(_HEADER.pack(k, 0))
                stream.write(np.ascontiguousarray(vec, complex))
                stream.flush()
        except Exception as exc:
            payload = pickle.dumps(exc)
            stream.write(_HEADER.pack(-1, len(payload)) + payload)
            stream.flush()
    finally:
        os._exit(0)     # the consumer reads no exit status


def march_ahead(stepper: CrankNicolsonStepper, vec: np.ndarray, n_steps: int,
                p: float | None = None, every: int = 1):
    """`march(stepper, vec, n_steps, p, every=every)` marched by a worker.

    Yields the same (k, vec), bit for bit; every vec, the first included, is
    a new complex array.  With at least two usable cores the march runs in
    a forked process, as far ahead of the caller as the pipe between them
    holds; the caller must close the generator (or exhaust it) to stop the
    worker.  An exception in the march is raised after the last state it let
    through, with its type and message; one that does not pickle, or a
    worker that dies, is an EvolveError there.
    """
    if len(os.sched_getaffinity(0)) < 2:
        yield from march(stepper, vec, n_steps, p, every=every)
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _march_worker(w, (stepper, vec, n_steps, p, None, every))
    os.close(w)
    stream = os.fdopen(r, "rb")
    ended = f"the march worker ended before step {n_steps}"
    try:
        while True:
            head = stream.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise EvolveError(ended)
            k, size = _HEADER.unpack(head)
            if k < 0:
                raise pickle.loads(stream.read(size))
            state = np.empty(vec.size, complex)
            if stream.readinto(state) < state.nbytes:
                raise EvolveError(ended)
            yield k, state
            if k == n_steps:
                return
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        stream.close()


def step(u: Field, dt: float, p: float,
         stepper: CrankNicolsonStepper | None = None) -> Field:
    """One Strang step over signed dt."""
    if stepper is None or stepper.dt != dt or stepper.grid != u.grid:
        stepper = CrankNicolsonStepper(u.grid, dt)
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
    plain energy (omega = 0, v = 0).  A non-finite logged state or conserved
    quantity raises EvolveError.
    """
    if not 1 < p < np.inf:
        raise EvolveInputError(f"need a finite exponent p > 1, got {p}")
    grid = u0.grid
    if config.dt > C_STAB * grid.spacing**2:
        raise EvolveError(
            f"dt={config.dt} violates the accuracy bound C_STAB*h^2="
            f"{C_STAB * grid.spacing**2:.3e}"
        )
    span = config.t1 - config.t0
    n_steps = step_count(span, config.dt)
    dt = span / n_steps
    stepper = CrankNicolsonStepper(grid, dt)
    fparams = params or SolitonParams(omega=1e-30, v=(0.0,) * grid.dim, p=p)

    guard = BLOWUP_FACTOR * max(h1_norm(u0), 1e-300)
    times, snapshots, rows = [], [], []
    for k, vec in march(stepper, to_active(u0), n_steps, p):
        if k % config.snapshot_every and k != n_steps:
            continue
        t = config.t0 + k * dt
        if not np.all(np.isfinite(vec)):
            raise EvolveError(f"non-finite state at t={t}")
        u = from_active(grid, vec)
        hn = h1_norm(u)
        if k and hn > guard:
            raise BlowUpError(t, hn)
        f = functionals(u, fparams)
        row = (t, f.mass, f.energy, f.lyapunov, hn)
        if not np.all(np.isfinite(row)):
            raise EvolveError(f"non-finite conserved quantities at t={t}: "
                              f"(M, E, lyapunov, H1) = {row[1:]}")
        times.append(t)
        snapshots.append(u)
        rows.append(row)
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
