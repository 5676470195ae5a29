"""Boosted solitary-wave fields and the conserved functionals.

The traveling ansatz is Q_omega(x - x0 - t v) Psi(x) exp(i phi) with
phi = x.v/2 - |v|^2 t/4 + omega t + theta0; with Psi = 1 it solves the free
equation exactly.  Long horizons make t*omega large, so the phase is reduced
mod 2 pi before exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TWO_PI, Field, Grid, gradient, l2_norm
from .ground_state import GroundState, sample_on_grid
from .linearized import EigenModes, evaluate_mode_parts


class SolitonError(ValueError):
    pass


@dataclass(frozen=True)
class SolitonParams:
    omega: float
    v: tuple
    p: float
    theta0: float = 0.0
    x0: tuple = None

    def __post_init__(self):
        if not self.omega > 0:
            raise SolitonError("need omega > 0")
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        x0 = self.x0 if self.x0 is not None else (0.0,) * len(self.v)
        object.__setattr__(self, "x0", tuple(float(c) for c in x0))

    @property
    def dim(self) -> int:
        return len(self.v)

    def speed(self) -> float:
        return float(np.linalg.norm(self.v))

    def center(self, t: float) -> np.ndarray:
        return np.asarray(self.x0) + t * np.asarray(self.v)


def phase_factor(params: SolitonParams, t: float, grid: Grid,
                 extra: float = 0.0) -> np.ndarray:
    """exp(i (x.v/2 - |v|^2 t/4 + omega t + theta0 + extra)), phase mod 2 pi."""
    phi = np.zeros((grid.n,) * grid.dim)
    for k in range(grid.dim):
        phi = phi + 0.5 * params.v[k] * grid.coordinate(k)
    scalar = -0.25 * params.speed() ** 2 * t + params.omega * t + params.theta0 + extra
    return np.exp(1j * np.mod(phi + scalar, TWO_PI))


def _check_center(params: SolitonParams, gs: GroundState, t: float, grid: Grid):
    c = params.center(t)
    margin = 10.0 / (max(gs.delta_fit, 0.1) * np.sqrt(params.omega))
    if np.any(np.abs(c) + margin > grid.half_width):
        raise SolitonError(
            f"soliton center {c} too close to the box edge at t={t} "
            f"(need margin {margin:.2f} inside L={grid.half_width})"
        )
    return c


def soliton_field(params: SolitonParams, gs: GroundState, t: float, grid: Grid,
                  psi=None) -> Field:
    """The cutoff traveling wave R(t); psi=None means Psi identically 1."""
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    c = _check_center(params, gs, t, grid)
    vals = sample_on_grid(gs, grid, c).values.real
    if psi is not None:
        vals = vals * psi.psi
    return Field(grid, vals * phase_factor(params, t, grid))


def eigenmode_field(params: SolitonParams, modes: EigenModes, t: float,
                    grid: Grid, psi=None, sign: int = +1) -> Field:
    """The boosted, cutoff eigenmode Y_sign(t) with the soliton's phase."""
    if not np.isclose(modes.omega, params.omega):
        raise SolitonError("modes frequency does not match parameters")
    c = params.center(t)
    if np.any(np.abs(c) > grid.half_width):
        raise SolitonError(f"mode center {c} outside box at t={t}")
    y1c, y2c = evaluate_mode_parts(modes, grid, c)
    vals = y1c.values.real + 1j * sign * y2c.values.real
    if psi is not None:
        vals = vals * psi.psi
    return Field(grid, vals * phase_factor(params, t, grid))


@dataclass(frozen=True)
class Functionals:
    mass: float
    energy: float
    momentum: tuple
    lyapunov: float


def functionals(u: Field, params: SolitonParams) -> Functionals:
    """Mass, energy, momentum and their conserved combination."""
    g = u.grid
    w = g.cell_volume()
    mass = float(np.sum(np.abs(u.values) ** 2)) * w
    grads = gradient(u)
    kinetic = sum(float(np.sum(np.abs(c.values) ** 2)) for c in grads) * w
    potential = float(np.sum(np.abs(u.values) ** (params.p + 1))) * w
    energy = 0.5 * kinetic - potential / (params.p + 1.0)
    momentum = tuple(
        float(np.sum(c.values * np.conj(u.values)).imag) * w for c in grads
    )
    lyap = energy + (params.omega / 2.0 + params.speed() ** 2 / 8.0) * mass \
        - 0.5 * sum(vk * pk for vk, pk in zip(params.v, momentum))
    return Functionals(mass=mass, energy=energy, momentum=momentum, lyapunov=lyap)


def ansatz_functionals(params: SolitonParams, gs: GroundState, t: float,
                       grid: Grid, psi=None) -> Functionals:
    """Functionals of the traveling ansatz with the gradient taken exactly.

    The lattice gradient carries an O(h^2 |v|^4) error on the boosted phase
    that swamps fine identities like E(H) = |v|^2/8 M(Q) + E(Q); here the
    derivative of the ansatz (profile slope, phase twist, cutoff slope) is
    evaluated pointwise in closed form, so only quadrature error remains.
    """
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    g = grid
    w = g.cell_volume()
    c = params.center(t)
    r = g.radius(c)
    q, dq = gs.evaluate(r)
    pvals = psi.psi if psi is not None else 1.0
    amp = q * pvals
    mass = float(np.sum(amp**2)) * w
    safe = np.where(r > 0, r, 1.0)
    kinetic = 0.0
    for k in range(g.dim):
        slope = dq * (g.coordinate(k) - c[k]) / safe * pvals
        if psi is not None:
            slope = slope + q * psi.grad_psi[k]
        # |grad H|_k^2 = slope^2 + (v_k/2)^2 amp^2, cross term is imaginary
        kinetic += float(np.sum(slope**2 + (0.5 * params.v[k] * amp) ** 2)) * w
    potential = float(np.sum(amp ** (params.p + 1))) * w
    energy = 0.5 * kinetic - potential / (params.p + 1.0)
    momentum = tuple(0.5 * vk * mass for vk in params.v)
    lyap = energy + (params.omega / 2.0 + params.speed() ** 2 / 8.0) * mass \
        - 0.5 * sum(vk * pk for vk, pk in zip(params.v, momentum))
    return Functionals(mass=mass, energy=energy, momentum=momentum, lyapunov=lyap)


@dataclass(frozen=True)
class ThresholdReport:
    s: float
    grad_quantity: float
    mass_energy_quantity: float
    grad_threshold: float = None
    mass_energy_threshold: float = None
    in_range: bool = True


def critical_exponent(p: float) -> float:
    return 1.5 - 2.0 / (p - 1.0)


def _signed_power(value: float, s: float) -> float:
    # energies can be negative away from d=3; keep the sign, power the size
    if s == 0.0:
        return 1.0
    return float(np.sign(value) * np.abs(value) ** s)


def threshold_report(u: Field, p: float, gs: GroundState | None = None) -> ThresholdReport:
    s = critical_exponent(p)
    params = SolitonParams(omega=gs.omega if gs else 1.0,
                           v=(0.0,) * u.grid.dim, p=p)
    f = functionals(u, params)
    grad = np.sqrt(sum(l2_norm(c) ** 2 for c in gradient(u)))
    mass = np.sqrt(f.mass)
    gq = mass ** (1.0 - s) * grad**s if mass > 0 else 0.0
    me = _signed_power(f.mass, 1.0 - s) * _signed_power(f.energy, s)
    gt = mt = None
    if gs is not None:
        qf = sample_on_grid(gs, u.grid)
        fq = functionals(qf, params)
        gradq = np.sqrt(sum(l2_norm(c) ** 2 for c in gradient(qf)))
        gt = np.sqrt(fq.mass) ** (1.0 - s) * gradq**s
        mt = _signed_power(fq.mass, 1.0 - s) * _signed_power(fq.energy, s)
    return ThresholdReport(
        s=s,
        grad_quantity=float(gq),
        mass_energy_quantity=float(me),
        grad_threshold=gt,
        mass_energy_threshold=mt,
        in_range=bool(7.0 / 3.0 < p < 5.0),
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
    phi = np.zeros((g.n,) * g.dim)
    for k in range(g.dim):
        phi = phi + 0.5 * v[k] * g.coordinate(k)
    phi = phi - 0.25 * float(v @ v) * t
    return Field(g, vals * np.exp(1j * np.mod(phi, TWO_PI)))
