"""Boosted solitary-wave fields and the conserved functionals.

The traveling ansatz is Q_omega(x - x0 - t v) Psi(x) exp(i phi) with
phi = x.v/2 - |v|^2 t/4 + omega t + theta0; with Psi = 1 it solves the free
equation exactly.  Long horizons make t*omega large, so the phase is reduced
mod 2 pi before exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import TWO_PI, Field, Grid, Obstacle, PreconditionError, cis, to_active
from .ground_state import GroundState, sample_on_grid
from .linearized import EigenModes, evaluate_mode_parts


class SolitonError(ValueError, PreconditionError):
    pass


@dataclass(frozen=True)
class SolitonParams:
    omega: float
    v: tuple
    p: float
    theta0: float = 0.0
    x0: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        if not (0 < self.omega < np.inf and sum(c * c for c in self.v) < np.inf):
            raise SolitonError(f"need finite omega > 0, |v|^2: {self.omega}, {self.v}")
        if not 1 < self.p < np.inf:
            raise SolitonError(f"need a finite exponent p > 1, got {self.p}")
        x0 = self.x0 if self.x0 is not None else (0.0,) * len(self.v)
        object.__setattr__(self, "x0", tuple(float(c) for c in x0))

    def speed(self) -> float:
        return float(np.linalg.norm(self.v))

    def center(self, t: float) -> np.ndarray:
        return np.asarray(self.x0) + t * np.asarray(self.v)


def phase_factor(params: SolitonParams, t: float, grid: Grid,
                 extra: float = 0.0) -> np.ndarray:
    """exp(i (x.v/2 - |v|^2 t/4 + omega t + theta0 + extra)), phase mod 2 pi."""
    scalar = -0.25 * params.speed() ** 2 * t + params.omega * t + params.theta0 + extra
    return cis(np.mod(grid.boost_phase(params.v) + scalar, TWO_PI))


def _check_center(params: SolitonParams, gs: GroundState, t: float, grid: Grid):
    c = params.center(t)
    margin = 10.0 / (max(gs.delta_fit, 0.1) * np.sqrt(params.omega))
    if np.any(np.abs(c) + margin > grid.half_width):
        raise SolitonError(
            f"soliton center {c} too close to the box edge at t={t} "
            f"(need margin {margin:.2f} inside L={grid.half_width})"
        )
    return c


class Ansatz(NamedTuple):
    """Q~ Psi and its phase at one modulation (t, y, mu), on the whole lattice."""

    psi: object            # the cutoff, or None for Psi = 1
    pvals: object          # Psi, or 1.0
    c: np.ndarray          # modulated centre c(t) + y
    rr: np.ndarray         # |x - c|
    q: np.ndarray          # Q(|x - c|)
    dq: np.ndarray         # Q'(|x - c|)
    units: list            # (x_k - c_k) / |x - c|, 0 at the centre
    qpsi: np.ndarray       # Q~ Psi
    dq_fields: list        # Psi d_k Q~
    ph: np.ndarray         # the boosted phase with mu added

    def values(self) -> np.ndarray:
        """R~ = Q~ Psi e^{i phase}."""
        return self.qpsi * self.ph

    def slopes(self) -> list:
        """The exact gradient of Q~ Psi: Psi d_k Q~ + Q~ d_k Psi."""
        if self.psi is None:
            return self.dq_fields
        return [dqf + self.q * g for dqf, g in zip(self.dq_fields, self.psi.grad_psi)]


def ansatz(params: SolitonParams, gs: GroundState, t: float, grid: Grid,
           psi=None, y=0.0, mu=0.0) -> Ansatz:
    """R~(t) centred at x0 + t v + y with mu added to the phase, from one pass
    over the profile.  Only `fixedpoint.SourceSet.a0` evaluates the ansatz on
    its own, in the order the Picard numbers are pinned to.  No checks."""
    c = params.center(t) + y
    rr = grid.radius(c)
    q, dq = gs.evaluate(rr)
    safe = np.where(rr > 0, rr, 1.0)
    units = [(grid.coordinate(k) - c[k]) / safe for k in range(grid.dim)]
    pvals = psi.psi if psi is not None else 1.0
    return Ansatz(psi, pvals, c, rr, q, dq, units, q * pvals,
                  [dq * e * pvals for e in units],
                  phase_factor(params, t, grid, extra=mu))


def mode_pair(modes: EigenModes, grid: Grid, c, pvals, ph):
    """Y+- = (y1 +- i y2)(x - c) Psi e^{i phase} as lattice arrays."""
    y1, y2 = evaluate_mode_parts(modes, grid, c)
    return (y1 + 1j * y2) * pvals * ph, (y1 - 1j * y2) * pvals * ph


def soliton_field(params: SolitonParams, gs: GroundState, t: float, grid: Grid,
                  psi=None) -> Field:
    """The cutoff traveling wave R(t); psi=None means Psi identically 1."""
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    _check_center(params, gs, t, grid)
    return Field(grid, ansatz(params, gs, t, grid, psi).values())


def eigenmode_field(params: SolitonParams, modes: EigenModes, t: float,
                    grid: Grid, psi=None, sign: int = +1) -> Field:
    """The boosted, cutoff eigenmode Y_sign(t) with the soliton's phase."""
    if not np.isclose(modes.omega, params.omega):
        raise SolitonError("modes frequency does not match parameters")
    c = params.center(t)
    if np.any(np.abs(c) > grid.half_width):
        raise SolitonError(f"mode center {c} outside box at t={t}")
    pvals = psi.psi if psi is not None else 1.0
    y_plus, y_minus = mode_pair(modes, grid, c, pvals, phase_factor(params, t, grid))
    return Field(grid, y_plus if sign > 0 else y_minus)


@dataclass(frozen=True)
class Functionals:
    mass: float
    energy: float
    momentum: tuple
    lyapunov: float
    kinetic: float      # int |grad u|^2


def _conserved(params: SolitonParams, mass: float, kinetic: float, potential: float,
               momentum: tuple) -> Functionals:
    """The energy and the conserved combination from the integrals."""
    energy = 0.5 * kinetic - potential / (params.p + 1.0)
    lyap = energy + (params.omega / 2.0 + params.speed() ** 2 / 8.0) * mass \
        - 0.5 * sum(vk * pk for vk, pk in zip(params.v, momentum))
    return Functionals(mass=mass, energy=energy, momentum=momentum, lyapunov=lyap,
                       kinetic=kinetic)


def functionals(u: Field, params: SolitonParams) -> Functionals:
    """Mass, energy, momentum and their conserved combination."""
    g = u.grid
    w = g.cell_volume()
    mass = float(np.sum(np.abs(u.values) ** 2)) * w
    # zero on the masked points, as the values are
    grads = g.stencil.gradient(to_active(u)[None])[:, 0]
    kinetic = sum(float(np.sum(np.abs(c) ** 2)) for c in grads) * w
    potential = float(np.sum(np.abs(u.values) ** (params.p + 1))) * w
    momentum = tuple(float(np.sum(c * np.conj(u.values)).imag) * w for c in grads)
    return _conserved(params, mass, kinetic, potential, momentum)


def ansatz_functionals(params: SolitonParams, gs: GroundState, t: float,
                       grid: Grid) -> Functionals:
    """Functionals of the traveling ansatz with the gradient taken exactly.

    The lattice gradient carries an O(h^2 |v|^4) error on the boosted phase
    that swamps fine identities like E(H) = |v|^2/8 M(Q) + E(Q); here the
    derivative of the ansatz (profile slope, phase twist) is evaluated
    pointwise in closed form, so only quadrature error remains.
    """
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    w = grid.cell_volume()
    a = ansatz(params, gs, t, grid)
    mass = float(np.sum(a.qpsi**2)) * w
    kinetic = 0.0
    for vk, slope in zip(params.v, a.slopes()):
        # |grad H|_k^2 = slope^2 + (v_k/2)^2 amp^2, cross term is imaginary
        kinetic += float(np.sum(slope**2 + (0.5 * vk * a.qpsi) ** 2)) * w
    potential = float(np.sum(a.qpsi ** (params.p + 1))) * w
    return _conserved(params, mass, kinetic, potential,
                      tuple(0.5 * vk * mass for vk in params.v))


@dataclass(frozen=True)
class ThresholdReport:
    s: float
    grad_quantity: float
    mass_energy_quantity: float
    grad_threshold: float = None
    mass_energy_threshold: float = None
    in_range: bool = True


def critical_exponent(p: float, dim: int = 3) -> float:
    """s_c = d/2 - 2/(p - 1), the scale-invariant Sobolev exponent in R^d."""
    return dim / 2.0 - 2.0 / (p - 1.0)


def _signed_power(value: float, s: float) -> float:
    # energies can be negative away from d=3; keep the sign, power the size
    if s == 0.0:
        return 1.0
    return float(np.sign(value) * np.abs(value) ** s)


def threshold_report(u: Field, p: float, gs: GroundState | None = None) -> ThresholdReport:
    """The threshold quantities of u at s_c of its own dimension d, against
    Q's on the obstacle-free lattice of the same L and n; p is in range when
    1 + 4/d < p < 1 + 4/(d - 2), with no upper end when d <= 2."""
    d = u.grid.dim
    s = critical_exponent(p, d)
    params = SolitonParams(omega=gs.omega if gs else 1.0,
                           v=(0.0,) * u.grid.dim, p=p)
    f = functionals(u, params)
    grad = np.sqrt(f.kinetic)
    mass = np.sqrt(f.mass)
    gq = mass ** (1.0 - s) * grad**s if mass > 0 else 0.0
    me = _signed_power(f.mass, 1.0 - s) * _signed_power(f.energy, s)
    gt = mt = None
    if gs is not None:
        free = Grid(d, u.grid.half_width, u.grid.n, Obstacle())
        fq = functionals(sample_on_grid(gs, free), params)
        gt = np.sqrt(fq.mass) ** (1.0 - s) * np.sqrt(fq.kinetic) ** s
        mt = _signed_power(fq.mass, 1.0 - s) * _signed_power(fq.energy, s)
    return ThresholdReport(
        s=s,
        grad_quantity=float(gq),
        mass_energy_quantity=float(me),
        grad_threshold=gt,
        mass_energy_threshold=mt,
        in_range=bool((d + 4.0) / d < p and (d <= 2 or p < (d + 2.0) / (d - 2.0))),
    )


def galilean_boost(u: Field, v, t: float) -> Field:
    """Shift by the lattice-nearest displacement t v and twist the phase.

    The shift drops nothing for compactly supported fields; if a noticeable
    tail would fall off the box the boost refuses.
    """
    g = u.grid
    v = np.asarray(v, dtype=float)
    vals = u.values
    for ax in range(g.dim):
        steps = int(round(v[ax] * t / g.spacing))
        if steps == 0:
            continue
        if abs(steps) >= g.n:
            raise SolitonError("boost displacement exceeds the box")
        dropped = np.take(vals, range(-steps, 0) if steps > 0 else range(-steps),
                          axis=ax)
        total = np.sum(np.abs(vals) ** 2)
        if total > 0 and np.sum(np.abs(dropped) ** 2) > 1e-14 * total:
            raise SolitonError("boost would push mass off the box edge")
        keep = [slice(None)] * g.dim
        dest = [slice(None)] * g.dim
        if steps > 0:
            keep[ax], dest[ax] = slice(None, -steps), slice(steps, None)
        else:
            keep[ax], dest[ax] = slice(-steps, None), slice(None, steps)
        out = np.zeros_like(vals)
        out[tuple(dest)] = vals[tuple(keep)]
        vals = out
    phi = g.boost_phase(v) - 0.25 * float(v @ v) * t
    return Field(g, vals * cis(np.mod(phi, TWO_PI)))
