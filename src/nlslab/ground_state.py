"""Radial ground-state profiles by shooting with bisection on the central value.

The profile solves  Q'' + (d-1)/r Q' - omega Q + Q^p = 0,  Q'(0) = 0, with the
decaying separatrix singled out by bisection between central values whose
trajectories cross zero (too large) and those that turn back up (too small).
Past the point where the shot trajectory has decayed six orders of magnitude
the profile is continued with the exact decaying solution of the linearized
far-field equation, so the stored tail is clean down to 1e-12 of the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.special import k0, k1

from .grid import Field, Grid, PreconditionError

GRAFT_LEVEL = 1e-6   # switch to the analytic tail once Q drops below this * q0
TAIL_LEVEL = 1e-12   # last stored abscissa has Q ~ this * q0


class GroundStateError(RuntimeError):
    pass


class GroundStateInputError(GroundStateError, PreconditionError):
    pass


@dataclass(eq=False)
class GroundState:
    """Sampled radial profile of the positive decaying solution.

    Evaluation goes through a quintic spline of the even extension through
    r = 0.  Cubic interpolation would be enough for values, but its second
    derivative carries an O(dr^2) error that would dominate every discrete
    residual built from the profile (kernel checks of the linearized
    operators in particular); the quintic keeps the curvature error at the
    same order as the values.
    """

    p: float
    omega: float
    dim: int
    r_samples: np.ndarray
    q_samples: np.ndarray
    qprime_samples: np.ndarray
    q0: float
    delta_fit: float = 0.0
    _spline: object = field(default=None, repr=False)
    _dspline: object = field(default=None, repr=False)

    def __post_init__(self):
        if self._spline is None:
            r = np.concatenate([-self.r_samples[:0:-1], self.r_samples])
            q = np.concatenate([self.q_samples[:0:-1], self.q_samples])
            self._spline = make_interp_spline(r, q, k=5)
            self._dspline = self._spline.derivative()

    @property
    def r_end(self) -> float:
        return float(self.r_samples[-1])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.r_end, self._spline(np.minimum(r, self.r_end)), 0.0)
        return np.where(out > 0.0, out, 0.0)

    def derivative(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        d = self._dspline(np.minimum(r, self.r_end))
        return np.where(r <= self.r_end, d, 0.0)


def _rhs(p: float, omega: float, dim: int):
    def fun(r, y):
        q, dq = y
        return [dq, -(dim - 1) / r * dq + omega * q - np.sign(q) * np.abs(q) ** p]

    return fun


def _events(q0: float, deep_level: float | None):
    def cross(r, y):
        return y[0]

    cross.terminal = True
    cross.direction = -1

    def turn(r, y):
        return y[1]

    turn.terminal = True
    turn.direction = 1

    evts = [cross, turn]
    if deep_level is not None:

        def deep(r, y):
            return y[0] - deep_level * q0

        deep.terminal = True
        deep.direction = -1
        evts.append(deep)
    return evts


def _integrate(p, omega, dim, q0, r_stop, rtol, deep_level=None, dense=False):
    r0 = 1e-8 / np.sqrt(omega)
    q2 = (omega * q0 - q0**p) / dim  # series value of Q''(0)
    y0 = [q0 + 0.5 * q2 * r0**2, q2 * r0]
    return solve_ivp(
        _rhs(p, omega, dim),
        (r0, r_stop),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-3 * q0,
        events=_events(q0, deep_level),
        dense_output=dense,
    )


def _classify(p, omega, dim, q0, rtol):
    """Which side of the separatrix a shot from q0 lands on.

    Integrates only to r = 10/sqrt(omega).  If the trajectory crosses zero or
    its derivative turns positive before that, the side is decided by the
    event.  Otherwise the branches are told apart by comparing the logarithmic
    derivative against the exact decaying rate -sqrt(omega) - (d-1)/(2r): the
    sign-crossing branch plunges below it, the turning branch floats above.
    """
    r_match = 10.0 / np.sqrt(omega)
    sol = _integrate(p, omega, dim, q0, r_match, rtol)
    if sol.t_events[0].size:
        return "cross"
    if sol.t_events[1].size:
        return "turn"
    q, dq = sol.y[0, -1], sol.y[1, -1]
    target = -np.sqrt(omega) - (dim - 1) / (2.0 * r_match)
    return "turn" if dq / q > target else "cross"


def _tail_form(dim: int, omega: float):
    """Exact decaying solution of  f'' + (d-1)/r f' - omega f = 0."""
    s = np.sqrt(omega)
    if dim == 1:
        return (lambda r: np.exp(-s * r), lambda r: -s * np.exp(-s * r))
    if dim == 2:
        return (lambda r: k0(s * r), lambda r: -s * k1(s * r))
    return (
        lambda r: np.exp(-s * r) / r,
        lambda r: -np.exp(-s * r) * (s * r + 1.0) / r**2,
    )


FINE_RTOL = 1e-13


def solve_ground_state(p: float, omega: float, dim: int, tol: float = 4e-15,
                       dr: float | None = None) -> GroundState:
    if not p > 1:
        raise GroundStateInputError("need p > 1")
    if not omega > 0:
        raise GroundStateInputError("need omega > 0")
    if dr is None:
        dr = 0.01 / np.sqrt(omega)

    lo = omega ** (1.0 / (p - 1.0))
    hi = 3.0 * dim * lo
    tries = 0
    while _classify(p, omega, dim, hi, 1e-9) != "cross":
        hi *= 2.0
        tries += 1
        if tries > 8:
            raise GroundStateError(
                f"could not bracket separatrix: upper shot at q0={hi} never crosses"
            )

    floor = max(tol, 8.0 * np.finfo(float).eps)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # coarse integrations while the bracket is wide, tight ones at the end
        rtol = 1e-9 if (hi - lo) > 1e-6 * hi else FINE_RTOL
        if _classify(p, omega, dim, mid, rtol) == "cross":
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= floor * hi:
            break
    else:
        raise GroundStateError(
            f"bisection failed to converge, bracket [{lo}, {hi}] after 200 steps"
        )

    q0 = 0.5 * (lo + hi)
    sol = _integrate(p, omega, dim, q0, 40.0 / np.sqrt(omega), FINE_RTOL,
                     deep_level=GRAFT_LEVEL, dense=True)
    r_graft = float(sol.t[-1])
    if not sol.t_events[2].size:
        raise GroundStateError(
            f"separatrix shot left the decaying branch near r={r_graft}; "
            f"bracket was [{lo}, {hi}]"
        )

    form, dform = _tail_form(dim, omega)
    q_graft = float(sol.y[0, -1])
    amp = q_graft / form(r_graft)
    r_end = r_graft + np.log(GRAFT_LEVEL / TAIL_LEVEL) / np.sqrt(omega)

    r = np.arange(0.0, r_end + 0.5 * dr, dr)
    core = r <= r_graft
    q = np.empty_like(r)
    dq = np.empty_like(r)
    rc = np.maximum(r[core], sol.t[0])
    ys = sol.sol(rc)
    q[core], dq[core] = ys[0], ys[1]
    q[0], dq[0] = q0, 0.0
    q[~core] = amp * form(r[~core])
    dq[~core] = amp * dform(r[~core])

    gs = GroundState(p=p, omega=omega, dim=dim, r_samples=r, q_samples=q,
                     qprime_samples=dq, q0=q0)
    gs.delta_fit = fit_decay(gs)
    return gs


def ode_residual(gs: GroundState) -> float:
    """Relative l2 residual of the radial equation on the stored mesh.

    Q'' and Q' are recomputed with 4th-order central differences, so the check
    is independent of the integrator that produced the samples.
    """
    r, q = gs.r_samples, gs.q_samples
    dr = r[1] - r[0]
    i = slice(2, -2)
    d1 = (-q[4:] + 8 * q[3:-1] - 8 * q[1:-3] + q[:-4]) / (12 * dr)
    d2 = (-q[4:] - q[:-4] + 16 * (q[3:-1] + q[1:-3]) - 30 * q[2:-2]) / (12 * dr**2)
    res = d2 + (gs.dim - 1) / r[i] * d1 - gs.omega * q[i] + q[i] ** gs.p
    src = q[i] ** gs.p
    return float(np.linalg.norm(res) / np.linalg.norm(src))


def fit_decay(gs: GroundState) -> float:
    """Least-squares decay rate of log Q against sqrt(omega) r on the tail third."""
    r, q = gs.r_samples, gs.q_samples
    sel = (r >= (2.0 / 3.0) * r[-1]) & (q > 0)
    if sel.sum() < 10:
        raise GroundStateError("tail too short to fit a decay rate")
    if q[sel][0] > 1e-6 * gs.q0:
        raise GroundStateError("profile not resolved deep enough for a decay fit")
    x = np.sqrt(gs.omega) * r[sel]
    slope = np.polyfit(x, np.log(q[sel]), 1)[0]
    return float(-slope)


def rescale(gs: GroundState, omega: float) -> GroundState:
    """Frequency scaling  Q_omega(x) = omega^{1/(p-1)} Q(sqrt(omega) x)."""
    if not np.isclose(gs.omega, 1.0):
        raise GroundStateInputError("rescale starts from the omega = 1 profile")
    if not omega > 0:
        raise GroundStateInputError("need omega > 0")
    s = np.sqrt(omega)
    amp = omega ** (1.0 / (gs.p - 1.0))
    out = GroundState(
        p=gs.p,
        omega=float(omega),
        dim=gs.dim,
        r_samples=gs.r_samples / s,
        q_samples=amp * gs.q_samples,
        qprime_samples=amp * s * gs.qprime_samples,
        q0=amp * gs.q0,
    )
    out.delta_fit = fit_decay(out)
    return out


def sample_on_grid(gs: GroundState, grid: Grid, center=None) -> Field:
    """Cubic radial interpolation of the profile at |x - center|."""
    if center is None:
        center = np.zeros(grid.dim)
    center = np.asarray(center, dtype=float)
    if np.any(np.abs(center) >= grid.half_width):
        raise GroundStateInputError("center outside box")
    vals = gs(grid.radius(center))
    return Field(grid, vals.astype(np.complex128))


def sample_gradient_on_grid(gs: GroundState, grid: Grid, center=None):
    """Components of grad Q_omega(x - center) from the radial derivative."""
    if center is None:
        center = np.zeros(grid.dim)
    center = np.asarray(center, dtype=float)
    r = grid.radius(center)
    safe = np.where(r > 0, r, 1.0)
    dq = gs.derivative(r)
    return tuple(
        Field(grid, (dq * (grid.coordinate(k) - center[k]) / safe).astype(np.complex128))
        for k in range(grid.dim)
    )
