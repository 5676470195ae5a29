"""Radial ground-state profiles by shooting on the central value.

The profile solves  Q'' + (d-1)/r Q' - omega Q + Q^p = 0,  Q'(0) = 0,  for
d = 1, 2, 3, with p below the energy-critical exponent 5 in d = 3 (no ground
state exists from there on).  Its central value q0 is the separatrix between
central values whose trajectories cross zero (too large) and those that turn
back up (too small).  It is the answer of a bisection down to 4e-15
relative, about 50 steps, of which only the last half-dozen or so are shot:

- Estimate.  Each classification shot also returns a signed gap: from the
  event radius while the shot ends in an event, from the log-derivative
  mismatch at the matching radius once it does not.  A secant on the gap
  estimates the separatrix to ~2e-15 relative in 8-16 shots.
- Replay.  The bisection walks its own midpoints and tolerances.  A midpoint
  further than a safety margin from the estimate goes to the estimate's side
  without a shot; the others, the last levels among them, are shot.
- Check.  An end of the final bracket that no shot decided is shot at the
  tolerance the bisection used there.  If it disagrees, the estimate was
  wrong, and the plain bisection runs from the start.

The sides are monotone in q0 away from their noise floor, so q0 is the plain
bisection's bit for bit, from 15-25 classification shots instead of 50-51.
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


SPLINE_DEGREE = 5


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
    _knots: np.ndarray = field(init=False, repr=False)
    _coef: np.ndarray = field(init=False, repr=False)   # B-spline coefficients of Q
    _dcoef: np.ndarray = field(init=False, repr=False)  # and of Q' (knots _knots[1:-1])

    def __post_init__(self):
        r = np.concatenate([-self.r_samples[:0:-1], self.r_samples])
        q = np.concatenate([self.q_samples[:0:-1], self.q_samples])
        spline = make_interp_spline(r, q, k=SPLINE_DEGREE)
        self._knots, self._coef = spline.t, spline.c
        self._dcoef = spline.derivative().c

    @property
    def r_end(self) -> float:
        return float(self.r_samples[-1])

    def evaluate(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Q(r) and Q'(r), computed only where r <= r_end.

        Both are exactly 0 beyond r_end, and Q is clipped at 0 from below.
        One interval lookup feeds one Cox-de Boor recursion: its
        degree-(k-1) stage gives Q' from the derivative spline's
        coefficients, its last stage gives Q.  The operations are those of
        the B-spline evaluation itself, in the same order, so both equal the
        spline's values bit for bit; a Horner pass on the piecewise-
        polynomial form differs in the last bits, which moves the Picard
        contraction ratios by ~1e-11 relative.
        """
        k = SPLINE_DEGREE
        r = np.asarray(r, dtype=float)
        q = np.zeros(r.shape)
        dq = np.zeros(r.shape)
        inside = r <= self.r_end
        x = r[inside]
        ell = np.searchsorted(self._knots, x, side="right") - 1
        np.clip(ell, k, len(self._knots) - k - 2, out=ell)  # t[ell] <= x < t[ell+1]
        idx = ell + np.arange(-k, k + 1)[:, None]
        knots = self._knots[idx[1:]]        # t[ell-k+1 .. ell+k]
        coef, dcoef = self._coef[idx[:k + 1]], self._dcoef[idx[:k]]
        right = knots[k:] - x         # t[ell+m] - x,    m = 1..k
        left = x - knots[:k]          # x - t[ell+1-m],  m = k..1
        basis = np.ones((1, x.size))
        for j in range(1, k + 1):
            if j == k:
                lower = basis
            w = basis / (knots[k:k + j] - knots[k - j:k])
            basis = np.empty((j + 1, x.size))
            np.multiply(w, right[:j], out=basis[:j])
            w *= left[k - j:]
            basis[j] = w[-1]
            basis[1:j] += w[:-1]
        # row by row, in the order the spline's own evaluation sums them
        val = np.add.reduce(coef * basis, axis=0)
        der = np.add.reduce(dcoef * lower, axis=0)
        q[inside] = np.where(val > 0.0, val, 0.0)
        dq[inside] = der
        return q, dq

    def __call__(self, r) -> np.ndarray:
        return self.evaluate(r)[0]

    def derivative(self, r) -> np.ndarray:
        return self.evaluate(r)[1]


def _rhs(p: float, omega: float, dim: int):
    # Python floats: numpy scalar arithmetic cost more than the integration
    # step itself.  The same IEEE operations as np.sign(q) * np.abs(q) ** p.
    def fun(r, y):
        q, dq = y.tolist()
        sign = (q > 0.0) - (q < 0.0)
        return [dq, -(dim - 1) / r * dq + omega * q - sign * abs(q) ** p]

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
    try:
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
    except OverflowError as exc:
        raise GroundStateError(f"the shot from q0={q0!r} at rtol={rtol} overflowed") from exc


def _classify(p, omega, dim, q0, rtol):
    """Which side of the separatrix a shot from q0 lands on, and how far.

    Integrates only to r_match = 10/sqrt(omega).  If the trajectory crosses
    zero or its derivative turns positive before that, the side is decided by
    the event.  Otherwise the branches are told apart by comparing the
    logarithmic derivative against the exact decaying rate
    -sqrt(omega) - (d-1)/(2r): the sign-crossing branch plunges below it, the
    turning branch floats above.

    The gap returned with the side (and whether an event ended the shot) is
    positive on the crossing side and nearly proportional to q0 - q*, q* the
    separatrix value.  The growing solution that parts the shot from Q ends
    it at the event radius r_e, where it has grown to Q's size, so the gap
    is exp(-2 sqrt(omega) r_e).  Without an event the same growth shows in
    the log-derivative mismatch at r_match: with y = mismatch / (2
    sqrt(omega)), the growing part is x = y / (1 + y) of Q there (exactly in
    the 1d far field, where x = +-1 at the events), and the gap is
    x exp(-2 sqrt(omega) r_match), which continues the event gap and is
    linear in q0 - q* to its last digits.
    """
    s = np.sqrt(omega)
    r_match = 10.0 / s
    sol = _integrate(p, omega, dim, q0, r_match, rtol)
    if sol.t_events[0].size:
        return "cross", np.exp(-2.0 * s * sol.t_events[0][0]), True
    if sol.t_events[1].size:
        return "turn", -np.exp(-2.0 * s * sol.t_events[1][0]), True
    q, dq = sol.y[0, -1], sol.y[1, -1]
    target = -s - (dim - 1) / (2.0 * r_match)
    y = (target - dq / q) / (2.0 * s)
    gap = y / (1.0 + y) * np.exp(-2.0 * s * r_match)
    return ("turn" if dq / q > target else "cross"), gap, False


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


COARSE_RTOL = 1e-9
FINE_RTOL = 1e-13
BISECTION_TOL = 4e-15   # final q0 bracket width, relative (8 eps = 1.8e-15 floor)
# The replay shoots a midpoint that lies within this distance (relative) of
# the estimate.  The margin is twenty times the largest offset seen between
# the estimate and the point where a shot's side flips at the coarse rtol
# (5e-11), and fifty times the estimate's largest error at the fine one
# (2e-15, near the fine shots' own noise floor).
REPLAY_MARGIN = {COARSE_RTOL: 1e-9, FINE_RTOL: 1e-13}
ESTIMATE_SHOTS = 20


def _estimate_separatrix(p, omega, dim, lo, hi, hi_shot):
    """Secant estimate of the separatrix value q* from the gaps of a few shots.

    Starts from the bracket's crossing end `hi`, whose shot `hi_shot` the
    caller has made, and steps at the coarse rtol; once a step is below 1e-9
    relative it goes on at the fine rtol, where the gap is linear in q0 - q*
    to its last digits, and stops after a step below 1e-12 between two fine
    shots.  An event shot is paired with the latest event shot on its own
    side where there is one, because away from d = 1 the event gap's slope
    differs between the sides; any other shot with the latest shot at its
    rtol.  A pair too noisy for a positive slope keeps the last slope, and a
    point outside the bracket the shots have built is replaced by the
    bracket's midpoint.  The estimate only steers the replay in
    `solve_ground_state`, which checks it.
    """
    ends = {"turn": lo, "cross": hi}
    latest = {}  # newest shot at each rtol, and newest event shot on each side
    q, rtol, slope = hi, COARSE_RTOL, None
    for n in range(ESTIMATE_SHOTS + 1):
        side, f, event = hi_shot if n == 0 else _classify(p, omega, dim, q, rtol)
        ends[side] = q
        partner = (event and latest.get((rtol, side))) or latest.get(rtol)
        latest[rtol] = (q, f)
        if event:
            latest[rtol, side] = (q, f)
        if partner:
            secant = (f - partner[1]) / (q - partner[0])
            slope = secant if secant > 0 else slope
        a, b = sorted(ends.values())
        nxt = q - f / slope if slope else 0.5 * (a + b)
        if not a <= nxt <= b:
            nxt = 0.5 * (a + b)
        step = abs(nxt - q)
        if rtol == FINE_RTOL and partner and step <= 1e-12 * q:
            return nxt
        if rtol == COARSE_RTOL and step <= 1e-9 * q:
            # the coarse shots' sides are unreliable this close to q*
            rtol, ends = FINE_RTOL, {"turn": lo, "cross": hi}
        q = nxt
    return q


def _bisect(lo, hi, side_of):
    """The bisection of [lo, hi], a turning shot at lo and a crossing one at hi.

    Halves the bracket at its midpoint until it is at most `BISECTION_TOL`
    wide relative to hi; side_of(mid, rtol) names the side of each midpoint.
    Returns lo, hi and the rtol at which each was set (None for an end that
    is still an input).
    """
    made = [None, None]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # coarse integrations while the bracket is wide, tight ones at the end
        rtol = COARSE_RTOL if (hi - lo) > 1e-6 * hi else FINE_RTOL
        if side_of(mid, rtol) == "cross":
            hi, made[1] = mid, rtol
        else:
            lo, made[0] = mid, rtol
        if (hi - lo) <= BISECTION_TOL * hi:
            return lo, hi, made
    raise GroundStateError(
        f"bisection failed to converge, bracket [{lo}, {hi}] after 200 steps"
    )


def solve_ground_state(p: float, omega: float, dim: int, *,
                       dr: float | None = None) -> GroundState:
    if not 1 < p < np.inf:
        raise GroundStateInputError(f"need p > 1 and finite, got {p}")
    if not 0 < omega < np.inf:
        raise GroundStateInputError(f"need omega > 0 and finite, got {omega}")
    if dim not in (1, 2, 3):
        raise GroundStateInputError(f"need dim 1, 2 or 3, got {dim}")
    if dim == 3 and not p < 5:
        raise GroundStateInputError(
            f"no ground state for p={p} in d=3: need p below the energy-critical "
            "exponent 5"
        )
    if dr is None:
        dr = 0.01 / np.sqrt(omega)

    lo = omega ** (1.0 / (p - 1.0))
    hi = 3.0 * dim * lo
    tries = 0
    while (hi_shot := _classify(p, omega, dim, hi, COARSE_RTOL))[0] != "cross":
        hi *= 2.0
        tries += 1
        if tries > 8:
            raise GroundStateError(
                f"could not bracket separatrix: upper shot at q0={hi} never crosses"
            )

    def shoot(q, rtol):
        return _classify(p, omega, dim, q, rtol)[0]

    est = _estimate_separatrix(p, omega, dim, lo, hi, hi_shot)

    def near(q, rtol):
        return abs(q - est) <= REPLAY_MARGIN[rtol] * est

    def replay(mid, rtol):
        if near(mid, rtol):
            return shoot(mid, rtol)
        return "cross" if mid > est else "turn"

    # The replay shoots only the midpoints near the estimate and sends the
    # others to the estimate's side.  The sides are monotone in q0 away from
    # their noise floor, so once each end of the final bracket is known to be
    # on its side (a real shot, or a check at the rtol the bisection used
    # there), every skipped midpoint went where the bisection would have sent
    # it, and the bracket is the bisection's bit for bit.  A failed check
    # means a bad estimate: then bisect from the start.
    a, b, made = _bisect(lo, hi, replay)
    if all(rtol is None or near(end, rtol) or shoot(end, rtol) == side
           for end, rtol, side in ((a, made[0], "turn"), (b, made[1], "cross"))):
        lo, hi = a, b
    else:
        lo, hi, _ = _bisect(lo, hi, shoot)

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
    """Frequency scaling  Q_omega(x) = omega^{1/(p-1)} Q(sqrt(omega) x).

    An omega within `np.isclose` of 1 returns ``gs`` itself.
    """
    if not np.isclose(gs.omega, 1.0):
        raise GroundStateInputError("rescale starts from the omega = 1 profile")
    if not 0 < omega < np.inf:
        raise GroundStateInputError(f"need omega > 0 and finite, got {omega}")
    if np.isclose(omega, 1.0):
        return gs
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
    """The profile at |x - center|, from the quintic spline of `evaluate`."""
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
