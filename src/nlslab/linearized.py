"""Linearization around the ground state: operators, unstable pair, coercivity.

The real and imaginary parts of a perturbation see the two self-adjoint
operators

    l_plus  h = -lap h + omega h - p Q^(p-1) h
    l_minus h = -lap h + omega h -   Q^(p-1) h

In the mass-supercritical regime (p > 1 + 4/d) the composed operator
-l_minus l_plus has a single positive eigenvalue e0^2.  With y1 that
eigenvector and y2 = l_plus y1 / e0 the relations are

    l_plus y1 = e0 y2,      l_minus y2 = -e0 y1,

so the complex mode y1 + i y2 is an exact eigenvector of the block operator
(0, -l_minus; l_plus, 0) with eigenvalue +e0: it decays forward in time under
the linearized flow and grows backward, which is the direction the shooting
construction has to tune.  The symplectic pairing -2 (y1, y2) is positive for
this sign convention and is normalized to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .grid import (Field, Grid, PreconditionError, from_active, laplacian_matrix,
                   real_inner, to_active)
from .ground_state import GroundState, rescale

EIGEN_TOL = 1e-12   # target residual / max(1, e0^2); solves stall above it first
                    # and are accepted below 1e-7 (1.8e-9 at L=30, n=4095, p=7)
MAX_POTENTIAL_JUMP = 0.2    # of Q^(p-1)'s peak between lattice neighbours
COARSE_FOR_THE_POTENTIAL = ("grid too coarse for the potential: "
                            "Q^(p-1) varies more than 20% per cell")
N_PROBES = 100      # random feasible directions the certificate checks from above


class SpectralError(RuntimeError):
    pass


class SpectrallyStableError(SpectralError):
    """No real unstable eigenvalue: the configuration is mass-subcritical."""


class SubcriticalError(SpectrallyStableError, PreconditionError):
    """p is not above the mass-critical exponent: refused before any solve."""


@dataclass(eq=False)
class LinearizedPair:
    ground: GroundState
    grid: Grid
    l_plus: sp.csr_matrix
    l_minus: sp.csr_matrix
    q: np.ndarray       # Q and the components of grad Q, real on the active points
    dq: tuple


@dataclass(eq=False)
class EigenModes:
    e0: float
    grid: Grid
    y1: np.ndarray      # real on the active points of grid
    y2: np.ndarray
    omega: float
    pairing: float
    p: float
    residuals: dict = field(default_factory=dict)
    _pair: LinearizedPair = None
    _interp: object = field(default=None, repr=False)

    def mode(self, sign: int) -> Field:
        """The complex eigenmode y1 + i sign y2 (sign=+1 decays forward)."""
        return from_active(self.grid, self.y1 + 1j * sign * self.y2)


def _build_pair(gs: GroundState, grid: Grid) -> LinearizedPair:
    """The pair, Q and grad Q on `grid` from one pass over the profile."""
    r = grid.radius()
    q, dq = gs.evaluate(r)
    safe = np.where(r > 0, r, 1.0)
    dqs = tuple((dq * grid.coordinate(k) / safe)[grid.mask] for k in range(grid.dim))
    q = q[grid.mask]
    pot = q ** (gs.p - 1.0)
    base = -laplacian_matrix(grid) + gs.omega * sp.identity(grid.n_active, format="csr")
    l_plus = (base - gs.p * sp.diags(pot)).tocsr()
    l_minus = (base - sp.diags(pot)).tocsr()
    return LinearizedPair(gs, grid, l_plus, l_minus, q, dqs)


def potential_jump(q: np.ndarray, p: float) -> float:
    """The largest change of Q^(p-1) between lattice neighbours, over its
    peak, from the samples q of Q on a lattice."""
    pot = q ** (p - 1.0)
    jump = max(float(np.max(np.abs(np.diff(pot, axis=ax)))) for ax in range(q.ndim))
    return jump / np.max(pot)


def assemble(gs: GroundState, grid: Grid) -> LinearizedPair:
    """Build l_plus / l_minus on the (obstacle-free) spectral grid, refusing
    one on which Q^(p-1) changes between neighbours by more than
    MAX_POTENTIAL_JUMP of its peak."""
    pair = _build_pair(gs, grid)
    q = np.zeros(grid.mask.shape)
    q[grid.mask] = pair.q
    if potential_jump(q, gs.p) > MAX_POTENTIAL_JUMP:
        raise SpectralError(COARSE_FOR_THE_POTENTIAL)
    return pair


def kernel_residuals(pair: LinearizedPair) -> dict:
    """How well Q and its gradient sit in the kernels of l_minus / l_plus."""
    sw = np.sqrt(pair.grid.cell_volume())
    h1 = pair.grid.stencil.h1_l2(np.array([pair.q, *pair.dq]))[0]
    out = {"lminus_q": float(np.linalg.norm(pair.l_minus @ pair.q)) * sw / float(h1[0])}
    worst = 0.0
    for dq, norm in zip(pair.dq, h1[1:]):
        worst = max(worst, float(np.linalg.norm(pair.l_plus @ dq)) * sw / float(norm))
    out["lplus_dq"] = worst
    return out


def _radial_growth_estimate(gs: GroundState) -> float:
    """Estimate e0^2 from the radial (l = 0) sector of the pair, in any d.

    Q is radial, and the positive eigenvalue of -l_minus l_plus is simple with
    a radial eigenfunction (Weinstein 1985; Schlag 2009).  The radial
    operators are built on 200 cell-centred cells over (0, R) with
    R = min(20 / sqrt(omega), r_end), which holds Q, decaying like
    exp(-sqrt(omega) r), and the mode: the cells carry their exact shell
    volumes, no flux crosses r = 0 and the value is 0 at r = R.
    l_minus is positive semidefinite, so -l_minus l_plus is similar to the
    symmetric matrix -sqrt(l_minus) l_plus sqrt(l_minus), whose top
    eigenvalue a dense symmetric solve finds.
    """
    cells, d = 200, gs.dim
    h = min(20.0 / np.sqrt(gs.omega), gs.r_end) / cells
    faces = h * np.arange(cells + 1)
    flux = faces[1:] ** (d - 1) / h       # through each cell's outer face
    flux[-1] *= 2.0
    stiff = sp.diags([-flux[:-1], flux + np.r_[0.0, flux[:-1]], -flux[:-1]],
                     [-1, 0, 1]).toarray()
    scale = 1.0 / np.sqrt(np.diff(faces ** d) / d)
    pot = gs.evaluate(faces[:-1] + 0.5 * h)[0] ** (gs.p - 1.0)
    base = scale[:, None] * stiff * scale + gs.omega * np.identity(cells)
    vals, vecs = sla.eigh(base - np.diag(pot))
    root = vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T)
    sym = -root @ (base - gs.p * np.diag(pot)) @ root
    top = float(sla.eigh(sym, eigvals_only=True, subset_by_index=[cells - 1] * 2)[0])
    if top <= 1e-8 * gs.omega**2:
        raise SpectrallyStableError(
            f"no positive real eigenvalue of the composed operator (top = {top}): "
            "spectrally stable configuration"
        )
    return top


def solve_unstable_pair(pair: LinearizedPair) -> EigenModes:
    """Unstable eigenvalue e0 and mode from the composed operator -l_minus l_plus.

    The radial estimate of e0^2 sets the shift of a shift-inverted inverse
    iteration, which pins the lattice value and is immune to the huge
    negative branch of the composed spectrum.  The estimate need not be
    accurate: l_minus >= 0 and l_plus has one negative direction, so every
    other eigenvalue is <= 0 and any shift s > e0^2 / 2 converges to e0^2.
    That is checked afterwards; a shift that did not hold e0^2 is a
    SpectralError, not stability.  Kernels need no deflation here because the
    shift sits next to e0^2, far from zero.  Everything is deterministic: no
    randomized starts.
    """
    gs = pair.ground
    if not gs.p > 1.0 + 4.0 / gs.dim:
        raise SubcriticalError(
            f"p={gs.p} is not mass-supercritical in d={gs.dim} (need p > "
            f"{1.0 + 4.0 / gs.dim}): no real unstable eigenvalue exists"
        )
    lp, lm = pair.l_plus, pair.l_minus
    lam_est = _radial_growth_estimate(gs)

    composed = (-(lm @ lp)).tocsc()
    n = pair.grid.n_active
    y1 = pair.q ** 2
    y1 /= np.linalg.norm(y1)
    lam = lam_est
    shift = first_shift = lam_est * 1.05 + 1e-3
    done = False
    for refine in range(3):
        solver = spla.splu(composed - shift * sp.identity(n, format="csc"))
        best, stall = np.inf, 0
        for _ in range(60):
            y1 = solver.solve(y1)
            y1 /= np.linalg.norm(y1)
            lam = float(y1 @ (composed @ y1))
            resid = float(np.linalg.norm(composed @ y1 - lam * y1))
            if resid < EIGEN_TOL * max(1.0, abs(lam)):
                break
            # the reachable floor is eps |composed| / gap, well above eps on
            # fine grids; stop once the residual stops improving
            stall = stall + 1 if resid >= 0.9 * best else 0
            best = min(best, resid)
            if stall >= 3:
                break
        if resid < 1e-7 * max(1.0, abs(lam)):
            done = True
            break
        shift = lam + 1e-6  # Rayleigh-refined shift for another round
    if not done:
        raise SpectralError(
            f"inverse iteration did not converge (lam={lam}, resid={resid})"
        )
    # the shift must sit nearer lam than 0, the nearest nonpositive eigenvalue
    if not 1e-8 * gs.omega**2 < lam < 2.0 * first_shift:
        raise SpectralError(
            f"the shift {first_shift} from the radial estimate e0^2 ~ {lam_est} is "
            f"not nearer the eigenvalue {lam} that inverse iteration reached than 0"
        )
    e0 = float(np.sqrt(lam))
    if y1[np.argmax(np.abs(y1))] < 0:
        y1 = -y1
    y2 = (lp @ y1) / e0

    w = pair.grid.cell_volume()
    zeta = -2.0 * float(y1 @ y2) * w
    if zeta <= 0:
        raise SpectralError(f"symplectic pairing came out non-positive ({zeta})")
    c = 1.0 / np.sqrt(zeta)
    y1 *= c
    y2 *= c
    return _eigen_modes(pair, e0, y1, y2, gs.omega)


def _eigen_modes(pair: LinearizedPair, e: float, y1: np.ndarray, y2: np.ndarray,
                 omega: float) -> EigenModes:
    """The modes of the real active vectors y1, y2 at rate e, with the
    residuals of l_plus y1 = e y2 and l_minus y2 = -e y1 relative to the
    modes' norm, and the pairing -2 (y1, y2)."""
    w = pair.grid.cell_volume()
    scale = np.sqrt(float(y1 @ y1 + y2 @ y2) * w)
    res_plus = float(np.linalg.norm(pair.l_plus @ y1 - e * y2)) * np.sqrt(w) / scale
    res_minus = float(np.linalg.norm(pair.l_minus @ y2 + e * y1)) * np.sqrt(w) / scale
    return EigenModes(e0=e, grid=pair.grid, y1=y1, y2=y2, omega=omega,
                      pairing=-2.0 * float(y1 @ y2) * w, p=pair.ground.p,
                      residuals={"plus": res_plus, "minus": res_minus}, _pair=pair)


def _interpolator(modes: EigenModes):
    """One interpolant of (y1, y2) over the last axis, built on first use and
    kept on the modes; zero outside the box."""
    if modes._interp is not None:
        return modes._interp
    grid = modes.grid
    both = np.zeros(grid.mask.shape + (2,))
    both[grid.mask] = np.column_stack([modes.y1, modes.y2])
    if grid.dim == 1:
        x = grid.axes[0]
        spline = CubicSpline(x, both)

        def interp(pts):
            pts = pts[..., 0]
            inside = (pts >= x[0]) & (pts <= x[-1])
            out = np.zeros(pts.shape + (2,))
            out[inside] = spline(pts[inside])
            return out

        modes._interp = interp
    else:
        modes._interp = RegularGridInterpolator(grid.axes, both, bounds_error=False,
                                                fill_value=0.0)
    return modes._interp


def evaluate_mode_parts(modes: EigenModes, grid: Grid, center):
    """y1(x - center), y2(x - center) sampled onto another grid, as two real
    lattice arrays that are zero off its mask."""
    center = np.asarray(center, dtype=float)
    pts = np.stack([grid.coordinate(k) - center[k] for k in range(grid.dim)], axis=-1)
    both = _interpolator(modes)(pts)
    both[~grid.mask] = 0.0
    return both[..., 0], both[..., 1]


def rescale_modes(modes: EigenModes, omega: float) -> EigenModes:
    """Frequency-scaled modes omega^(1/4) y(sqrt(omega) x).

    The scaling is realized as an exact lattice dilation: the mode values are
    carried over unchanged (up to the amplitude factor) onto a grid whose
    spacing is divided by sqrt(omega), under which the discrete operators
    transform exactly.  The scaled rate is recomputed by Rayleigh quotients
    against the freshly assembled omega-operators rather than trusted from
    any scaling law.
    """
    if not np.isclose(modes.omega, 1.0):
        raise SpectralError("rescale_modes starts from the omega = 1 modes")
    if not omega > 0:
        raise SpectralError("need omega > 0")
    src = modes.grid
    if src.obstacle.kind != "none":
        raise SpectralError("rescale_modes dilates the modes of an obstacle-free grid")
    grid = Grid(src.dim, src.half_width / np.sqrt(omega), src.n, src.obstacle)
    pair_w = _build_pair(rescale(modes._pair.ground, omega), grid)
    v1, v2 = omega**0.25 * modes.y1, omega**0.25 * modes.y2
    e_plus = float(v2 @ (pair_w.l_plus @ v1)) / float(v2 @ v2)
    e_minus = -float(v1 @ (pair_w.l_minus @ v2)) / float(v1 @ v1)
    # rescale returns the omega = 1 profile for any omega close to 1
    return _eigen_modes(pair_w, 0.5 * (e_plus + e_minus), v1, v2, float(omega))


def measure_scaling_exponent(gs1: GroundState, grid: Grid, omegas=(1.0, 2.0, 4.0),
                             solved: EigenModes | None = None):
    """Fit e_omega = omega^kappa e0 from independent eigensolves at each omega.

    `solved` may carry modes the caller already solved on `grid` for `gs1`
    rescaled to one of the omegas; that frequency takes its e0 instead of
    solving the same operators again.
    """
    es = []
    for om in omegas:
        gs = rescale(gs1, om)
        if solved is not None and (solved.grid, solved.p, solved.omega) \
                == (grid, gs.p, gs.omega):
            es.append(solved.e0)
        else:
            es.append(solve_unstable_pair(assemble(gs, grid)).e0)
    es = np.asarray(es)
    logw = np.log(np.asarray(omegas, dtype=float))
    kappa, logc = np.polyfit(logw, np.log(es), 1)
    fitted = np.exp(logc) * np.asarray(omegas) ** kappa
    residual = float(np.max(np.abs(es - fitted) / es))
    return float(kappa), residual, es


# ----------------------------------------------------------- coercivity part

@dataclass
class CoercivityReport:
    lambda_min: float
    ok: bool
    unconstrained_lplus_min: float
    probe_min: float | None = None
    violating_direction: np.ndarray | None = None


def _constraint_columns(pair: LinearizedPair, modes: EigenModes) -> np.ndarray:
    n = pair.grid.n_active
    cols = []
    for dq in pair.dq:  # (h1, dQ_j) = 0
        c = np.zeros(2 * n)
        c[:n] = dq
        cols.append(c)
    c = np.zeros(2 * n)  # (h2, Q) = 0
    c[n:] = pair.q
    cols.append(c)
    c = np.zeros(2 * n)  # Im int conj(h) (y1 + i y2) = 0
    c[:n], c[n:] = modes.y2, -modes.y1
    cols.append(c)
    c = np.zeros(2 * n)  # Im int conj(h) (y1 - i y2) = 0
    c[:n], c[n:] = modes.y2, modes.y1
    cols.append(c)
    return np.column_stack(cols)


def _eigsh_lowest(a, sigma: float, **kwargs):
    """Shift-invert eigsh: the eigenpair of a (or of the pencil (a, M)) nearest
    sigma, which is the lowest one when sigma lies below the spectrum."""
    # ARPACK's default start vector comes from a seed that advances from call
    # to call, so repeated certificates would differ in the last bits; a
    # reflection-symmetric start would miss odd eigenvectors, hence a fixed
    # generic one
    v0 = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        return spla.eigsh(a, k=1, sigma=sigma, which="LM", tol=0, v0=v0, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise SpectralError(f"certificate eigensolve did not converge: {exc}") from exc


def _constrained_minimum(a, b, cmat: np.ndarray, sigma: float):
    """Lowest eigenpair of the pencil (a, b) restricted to cmat^T h = 0.

    The bordered matrix K = [[a - sigma b, C], [C^T, 0]] is factored once.  The
    map x -> (K^-1 [x; 0])[:2n] is b-self-adjoint, sends every vector into the
    constraint space, and its nonzero eigenvalues are 1/(lam - sigma) for the
    constrained eigenvalues lam; with a - sigma b positive definite the
    dominant one is the minimum.  The returned value is the Rayleigh quotient
    of the returned vector: its error is second order in the vector's, about
    1e-13 relative against a dense reduction where the shift-inverted
    eigenvalue itself is good to about 1e-11.
    """
    size, m = cmat.shape
    c = sp.csc_matrix(cmat)
    lu = spla.splu(sp.bmat([[a - sigma * b, c], [c.T, None]], format="csc"))
    pad = np.zeros(m)
    opinv = spla.LinearOperator(
        (size, size), dtype=float,
        matvec=lambda x: lu.solve(np.concatenate([np.ravel(x), pad]))[:size])
    _, vecs = _eigsh_lowest(a, sigma, M=b, OPinv=opinv)
    h = vecs[:, 0]
    return float(h @ (a @ h)) / float(h @ (b @ h)), h


def coercivity_certificate(pair: LinearizedPair, modes: EigenModes,
                           seed: int = 0) -> CoercivityReport:
    """Constrained minimum of (l_plus h1, h1) + (l_minus h2, h2) over unit-H1 h.

    The H1 norm here is the operator-compatible quadratic form
    (h, (1 - lap) h).  Both eigenvalues come from sparse shift-invert Lanczos
    (`_constrained_minimum`, and eigsh on l_plus for the unconstrained
    minimum).  With floor = omega - p max Q^(p-1), the shifts min(1, floor) - 1
    and floor - 1 are rigorous lower bounds: -lap >= 0 and
    0 <= Q^(p-1) <= p Q^(p-1) make a - shift b >= 1 on both blocks, and
    l_plus - shift >= 1, so the eigenvalue nearest each shift is the lowest.
    The random probes are an independent check from above.
    """
    n = pair.grid.n_active
    gs = pair.ground
    lap = laplacian_matrix(pair.grid)
    a = sp.block_diag([pair.l_plus, pair.l_minus]).tocsr()
    b = sp.block_diag([sp.identity(n) - lap, sp.identity(n) - lap]).tocsr()
    floor = gs.omega - gs.p * float(np.max(pair.q)) ** (gs.p - 1.0)

    cmat = _constraint_columns(pair, modes)
    lam, hmin = _constrained_minimum(a, b, cmat, min(1.0, floor) - 1.0)
    unc = float(_eigsh_lowest(pair.l_plus, floor - 1.0,
                                   return_eigenvectors=False)[0])

    qc, _ = np.linalg.qr(cmat)
    rng = np.random.default_rng(seed)
    probe_min = np.inf
    for _ in range(N_PROBES):
        hvec = rng.standard_normal(2 * n)
        hvec -= qc @ (qc.T @ hvec)
        hvec /= np.sqrt(hvec @ (b @ hvec))
        probe_min = min(probe_min, float(hvec @ (a @ hvec)))
    ok = lam > 0
    return CoercivityReport(
        lambda_min=lam,
        ok=ok,
        unconstrained_lplus_min=unc,
        probe_min=probe_min,
        violating_direction=None if ok else hmin,
    )


def quadratic_form(pair: LinearizedPair, h1: Field, h2: Field) -> float:
    """(l_plus h1, h1) + (l_minus h2, h2) with the grid quadrature weight."""
    v1, v2 = to_active(h1).real, to_active(h2).real
    w = pair.grid.cell_volume()
    return (float(v1 @ (pair.l_plus @ v1)) + float(v2 @ (pair.l_minus @ v2))) * w


# ------------------------------------------------------- biorthogonal family

class DegenerateFamilyError(SpectralError):
    pass


@dataclass(eq=False)
class BiorthogonalFamily:
    phi: list
    mu: list
    zeta: np.ndarray
    labels: list

    def pairing_matrix(self) -> np.ndarray:
        m = len(self.phi)
        out = np.empty((m, m))
        for j in range(m):
            for k in range(m):
                out[j, k] = real_inner(self.phi[j], self.mu[k])
        return out


def biorthogonal_family(pair: LinearizedPair, modes: EigenModes) -> BiorthogonalFamily:
    """The spectral dual family: modes, translation kernel, phase kernel.

    Two departures from the naive continuum recipe keep the family exactly
    biorthogonal on the lattice.  The phase dual is Gram-Schmidt corrected
    against the mode duals with 1/zeta factors (the bare formula silently
    assumes both mode pairings are +1, which no normalization can arrange
    since they have opposite signs).  And the mode duals are projected
    against the phase member: in the continuum (Q, y1) = 0 follows from
    l_minus Q = 0, but discretely it only vanishes at O(h^2).
    """
    grid = pair.grid
    y_plus = modes.mode(+1)
    y_minus = modes.mode(-1)
    iq = from_active(grid, 1j * pair.q)

    phi = [y_plus, y_minus]
    mu = [Field(grid, 1j * y_minus.values), Field(grid, 1j * y_plus.values)]
    labels = ["mode+", "mode-"]
    for k, dq in enumerate(pair.dq):
        dqf = from_active(grid, dq)
        phi.append(dqf)
        mu.append(dqf)
        labels.append(f"translate{k}")
    z1 = real_inner(phi[0], mu[0])
    z2 = real_inner(phi[1], mu[1])
    if min(abs(z1), abs(z2)) < 1e-10:
        raise DegenerateFamilyError(f"mode pairings degenerate: {z1}, {z2}")
    mu_phase = iq - (real_inner(phi[0], iq) / z1) * mu[0] \
                  - (real_inner(phi[1], iq) / z2) * mu[1]
    phi.append(iq)
    mu.append(mu_phase)
    labels.append("phase")

    z6 = real_inner(phi[-1], mu[-1])
    if abs(z6) < 1e-10:
        raise DegenerateFamilyError(f"phase pairing degenerate: {z6}")
    for j in (0, 1):
        mu[j] = mu[j] - (real_inner(phi[-1], mu[j]) / z6) * mu[-1]

    zeta = np.array([real_inner(f, m) for f, m in zip(phi, mu)])
    if np.min(np.abs(zeta)) < 1e-10:
        raise DegenerateFamilyError(f"degenerate family, pairings {zeta}")
    return BiorthogonalFamily(phi=phi, mu=mu, zeta=zeta, labels=labels)
