import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.interpolate import CubicSpline, RegularGridInterpolator

import nlslab.linearized as linearized

from nlslab.grid import (Field, Obstacle, build_grid, from_active, l2_norm, real_inner,
                         to_active)
from nlslab.ground_state import rescale, sample_on_grid, solve_ground_state
from nlslab.linearized import (
    EigenModes,
    SpectralError,
    SpectrallyStableError,
    assemble,
    biorthogonal_family,
    coercivity_certificate,
    evaluate_mode_parts,
    kernel_residuals,
    measure_scaling_exponent,
    quadratic_form,
    rescale_modes,
    solve_unstable_pair,
)

# Frozen before the main build: dense eigensolve of the 2N x 2N block
# operator [[0, -l_minus], [l_plus, 0]] for p=7, omega=1, d=1 on the coarse
# grid (L=12, n=512); the largest real eigenvalue.  The oracle code is
# dense_block_e0 below.
E0_BLOCK_ORACLE_P7 = 2.913029822168136
ORACLE_GRID = dict(half_width=12.0, n=512)


def dense_block_e0(pair):
    n = pair.grid.n_active
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = -pair.l_minus.toarray()
    block[n:, :n] = pair.l_plus.toarray()
    vals = sla.eigvals(block)
    return float(np.max(vals[np.abs(vals.imag) < 1e-9].real))


@pytest.fixture(scope="module")
def gs7():
    return solve_ground_state(7, 1.0, 1)


@pytest.fixture(scope="module")
def work(gs7):
    grid = build_grid(1, 30.0, 4095)
    pair = assemble(gs7, grid)
    return pair, solve_unstable_pair(pair)


@pytest.fixture(scope="module")
def cert(gs7):
    grid = build_grid(1, 15.0, 1023)
    pair = assemble(gs7, grid)
    modes = solve_unstable_pair(pair)
    return pair, modes, coercivity_certificate(pair, modes)


# ------------------------------------------------------------------ assemble

def test_kernel_residuals_on_fine_grid(gs7):
    # second-order discretization: the continuum kernel identities only
    # emerge at the h^2 rate, so the tight thresholds need a fine 1d grid
    pair = assemble(gs7, build_grid(1, 30.0, 262143))
    res = kernel_residuals(pair)
    assert res["lminus_q"] < 1e-6
    assert res["lplus_dq"] < 1e-4


def test_zero_potential_operator_floor():
    # with the potential off, both operators reduce to -lap + omega
    import scipy.sparse as sp

    gs = solve_ground_state(3, 1.0, 1)
    grid = build_grid(1, 10.0, 255)
    pair = assemble(gs, grid)
    base = pair.l_plus + 3.0 * sp.diags(pair.q ** 2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.n_active)
    quad = float(v @ (base @ v)) / float(v @ v)
    assert quad >= 1.0 - 1e-9  # spectrum of -lap + omega sits above omega


def test_symmetry(work):
    pair, _ = work
    rng = np.random.default_rng(4)
    u = rng.standard_normal(pair.grid.n_active)
    w = rng.standard_normal(pair.grid.n_active)
    for op in (pair.l_plus, pair.l_minus):
        a, b = float((op @ u) @ w), float(u @ (op @ w))
        assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


@pytest.mark.parametrize("p, dim, half_width, n", [(7.0, 1, 30.0, 4095), (3.0, 3, 6.0, 31)])
def test_pair_samples_equal_the_separate_passes(p, dim, half_width, n):
    # the reference: Q through the profile's value pass, then each component
    # of grad Q from a second pass for Q'
    gs = solve_ground_state(p, 1.0, dim)
    grid = build_grid(dim, half_width, n)
    pair = linearized._build_pair(gs, grid)
    real_active = lambda u: np.ascontiguousarray(to_active(u).real).tobytes()
    assert pair.q.tobytes() == real_active(sample_on_grid(gs, grid))
    r = grid.radius(np.zeros(dim))
    safe = np.where(r > 0, r, 1.0)
    dq = gs.derivative(r)
    for k, dqk in enumerate(pair.dq):
        ref = Field(grid, (dq * (grid.coordinate(k) - 0.0) / safe).astype(np.complex128))
        assert dqk.tobytes() == real_active(ref)


def test_coarse_grid_rejected(gs7):
    with pytest.raises(SpectralError):
        assemble(gs7, build_grid(1, 30.0, 127))


# -------------------------------------------------------- solve_unstable_pair

def test_subcritical_refused():
    gs = solve_ground_state(3, 1.0, 1)
    with pytest.raises(SpectrallyStableError):
        solve_unstable_pair(assemble(gs, build_grid(1, 20.0, 1023)))


def test_matches_dense_block_oracle(gs7):
    pair = assemble(gs7, build_grid(1, **ORACLE_GRID))
    modes = solve_unstable_pair(pair)
    assert modes.e0 == pytest.approx(E0_BLOCK_ORACLE_P7, rel=1e-4)


def test_eigen_relation_residuals(work):
    _, modes = work
    assert modes.residuals["plus"] < 1e-6
    assert modes.residuals["minus"] < 1e-6
    assert modes.pairing == pytest.approx(1.0, abs=1e-12)


def test_mode_decay_rate(work):
    # |mode| decays exponentially; fit the tail of log|y1 + i y2|
    _, modes = work
    x = modes.grid.axes[0]
    amp = np.abs(modes.y1 + 1j * modes.y2)
    sel = (x > 8.0) & (x < 20.0)
    slope = np.polyfit(x[sel], np.log(amp[sel]), 1)[0]
    assert -slope > 0.3


# -------------------------------------------------------------- rescale_modes

def test_rescale_identity(work):
    _, modes = work
    m = rescale_modes(modes, 1.0)
    assert np.allclose(m.y1, modes.y1, atol=1e-14)
    assert m.e0 == pytest.approx(modes.e0, rel=1e-9)


def test_rescale_exact_lattice_residual(work):
    _, modes = work
    m2 = rescale_modes(modes, 2.0)
    assert m2.residuals["plus"] < 1e-5
    assert m2.residuals["minus"] < 1e-5
    assert m2.pairing == pytest.approx(1.0, abs=1e-6)


def _finisher_formulas(pair, e, y1, y2):
    """The residuals and pairing as `solve_unstable_pair` and `rescale_modes`
    each computed them before they shared a finisher."""
    w = pair.grid.cell_volume()
    scale = np.sqrt(float(y1 @ y1 + y2 @ y2) * w)
    res_plus = float(np.linalg.norm(pair.l_plus @ y1 - e * y2)) * np.sqrt(w) / scale
    res_minus = float(np.linalg.norm(pair.l_minus @ y2 + e * y1)) * np.sqrt(w) / scale
    return {"plus": res_plus, "minus": res_minus}, -2.0 * float(y1 @ y2) * w


def test_solved_and_rescaled_modes_share_one_finisher(work):
    pair, modes = work
    assert (modes.residuals, modes.pairing) == _finisher_formulas(pair, modes.e0,
                                                                  modes.y1, modes.y2)
    # the rescaling on the amplified vectors
    m2 = rescale_modes(modes, 2.0)
    v1, v2 = 2.0**0.25 * modes.y1, 2.0**0.25 * modes.y2
    assert (m2.residuals, m2.pairing) == _finisher_formulas(m2._pair, m2.e0, v1, v2)
    assert np.array_equal(m2.y1, v1) and np.array_equal(m2.y2, v2)
    # the profile of any omega close to 1 is the omega = 1 one; the modes keep omega
    assert rescale_modes(modes, 1.0 + 1e-10).omega == 1.0 + 1e-10


def test_measured_scaling_exponent(gs7, work):
    pair, _ = work
    kappa, residual, es = measure_scaling_exponent(gs7, pair.grid, (1.0, 2.0, 4.0))
    assert residual < 0.01
    # the measured law is e_omega = omega * e0; the omega^(3/2) claim is not
    # reproduced by the operator scaling (see the scaling-report docs)
    assert kappa == pytest.approx(1.0, abs=0.01)


def test_scaling_takes_e0_from_solved_modes(gs7, monkeypatch):
    grid = build_grid(1, 12.0, 511)
    modes = solve_unstable_pair(assemble(gs7, grid))
    solved = []
    real = linearized.solve_unstable_pair

    def counting(pair, *args, **kwargs):
        solved.append(pair.ground.omega)
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(linearized, "solve_unstable_pair", counting)
    fresh = measure_scaling_exponent(gs7, grid, (1.0, 2.0))
    reused = measure_scaling_exponent(gs7, grid, (1.0, 2.0), solved=modes)
    assert solved == [1.0, 2.0, 2.0]
    assert fresh[:2] == reused[:2] and np.array_equal(fresh[2], reused[2])
    # modes from another grid are not this grid's e0
    measure_scaling_exponent(gs7, build_grid(1, 12.0, 1023), (1.0, 2.0),
                             solved=modes)
    assert solved[3:] == [1.0, 2.0]


def test_rate_at_large_omega_is_the_dilated_rate(gs7):
    # the omega=4 pair on L=40/n=2047 is the omega=1 pair on L=40/n=1023
    # dilated by 2, so its rate is 4 e0 of that grid
    modes4 = solve_unstable_pair(assemble(rescale(gs7, 4.0), build_grid(1, 40.0, 2047)))
    modes1 = solve_unstable_pair(assemble(gs7, build_grid(1, 40.0, 1023)))
    assert modes4.e0 == pytest.approx(4.0 * modes1.e0, rel=1e-10)


@pytest.mark.parametrize("p, dim, half_width, n", [(7.0, 1, 30.0, 4095), (4.0, 2, 6.0, 127)])
def test_radial_estimate_holds_the_lattice_rate(p, dim, half_width, n):
    # the shift converges to e0^2 whenever it is above e0^2 / 2
    gs = solve_ground_state(p, 1.0, dim)
    e2 = solve_unstable_pair(assemble(gs, build_grid(dim, half_width, n))).e0 ** 2
    est = linearized._radial_growth_estimate(gs)
    assert est > 0.5 * e2
    assert est == pytest.approx(e2, rel=0.1)


def test_shift_below_half_the_rate_is_a_spectral_error(cert, monkeypatch):
    # a shift nearer 0 than e0^2 pulls inverse iteration off the positive
    # eigenvalue: a bad estimate, not stability
    pair, modes, _ = cert
    monkeypatch.setattr(linearized, "_radial_growth_estimate",
                        lambda gs: 0.4 * modes.e0**2)
    with pytest.raises(SpectralError, match="from the radial estimate") as err:
        solve_unstable_pair(pair)
    assert not isinstance(err.value, SpectrallyStableError)


def test_radial_estimate_of_a_subcritical_profile_is_stable(gs3):
    with pytest.raises(SpectrallyStableError, match="spectrally stable"):
        linearized._radial_growth_estimate(gs3)


def test_mode_interpolants_built_once(work, monkeypatch):
    _, modes = work
    built = []

    class CountingSpline(linearized.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linearized, "CubicSpline", CountingSpline)
    grid = build_grid(1, 20.0, 1023)
    fresh = dataclasses.replace(modes, _interp=None)
    evaluate_mode_parts(fresh, grid, [0.3])
    second = evaluate_mode_parts(fresh, grid, [-1.7])
    assert len(built) == 1  # one spline for (y1, y2), once
    reference = evaluate_mode_parts(dataclasses.replace(modes, _interp=None),
                                    grid, [-1.7])
    assert len(built) == 2
    for got, ref in zip(second, reference):
        assert np.array_equal(got, ref)


def separate_interpolants(modes, grid, center):
    """y1 and y2 at x - center, each through an interpolant of its own."""
    src = modes.grid
    pts = np.stack([grid.coordinate(k) - center[k] for k in range(grid.dim)], axis=-1)
    out = []
    for y in (from_active(src, modes.y1).values.real, from_active(src, modes.y2).values.real):
        if grid.dim == 1:
            x, at = src.axes[0], pts[..., 0]
            inside = (at >= x[0]) & (at <= x[-1])
            vals = np.zeros(at.shape)
            vals[inside] = CubicSpline(x, y)(at[inside])
        else:
            vals = RegularGridInterpolator(src.axes, y, bounds_error=False,
                                           fill_value=0.0)(pts)
        out.append(vals)
    return out


def synthetic_modes(dim):
    grid = build_grid(dim, 10.0, {2: 127, 3: 47}[dim])
    r = grid.radius([0.2] * dim)
    y1 = np.exp(-r**2 / 4.0) * np.cos(grid.coordinate(0))
    y2 = np.exp(-r / 2.0) / np.cosh(grid.coordinate(dim - 1))
    return EigenModes(e0=1.0, grid=grid, y1=y1.ravel(), y2=y2.ravel(), omega=1.0,
                      pairing=1.0, p=3.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mode_parts_equal_separate_interpolants(work, dim):
    # one interpolant over both columns: the same bits in 1d and 3d; in 2d
    # SciPy evaluates a stacked table on another path, off by roundoff.  The
    # target box reaches past the modes' box, where both read zero.
    modes = work[1] if dim == 1 else synthetic_modes(dim)
    grid = build_grid(dim, 32.0 if dim == 1 else 12.0, {1: 3071, 2: 95, 3: 39}[dim])
    center = [0.31] * dim
    got = evaluate_mode_parts(modes, grid, center)
    for vals, ref in zip(got, separate_interpolants(modes, grid, center)):
        assert vals.dtype == np.float64
        if dim == 2:
            assert np.max(np.abs(vals - ref)) <= 1e-15 * np.max(np.abs(ref))
        else:
            assert np.ascontiguousarray(vals).tobytes() == ref.tobytes()


def test_mode_parts_are_zero_off_the_mask(work):
    # centred beside the obstacle, the modes reach into it before the mask
    _, modes = work
    grid = build_grid(1, 30.0, 3071, Obstacle("ball", 1.0))
    y1, y2 = evaluate_mode_parts(modes, grid, [0.5])
    assert not y1[~grid.mask].any() and not y2[~grid.mask].any()
    assert np.abs(y1[grid.mask]).max() > 0.1 and np.abs(y2[grid.mask]).max() > 0.1


def test_rescale_rejects_bad_args(work):
    _, modes = work
    m2 = rescale_modes(modes, 2.0)
    with pytest.raises(SpectralError):
        rescale_modes(m2, 2.0)
    with pytest.raises(SpectralError):
        rescale_modes(modes, -1.0)
    blocked = build_grid(1, 30.0, 4095, Obstacle("ball", 1.0))
    with pytest.raises(SpectralError, match="obstacle-free"):
        rescale_modes(dataclasses.replace(modes, grid=blocked), 2.0)


# ------------------------------------------------------ coercivity_certificate

def test_unconstrained_minimum_negative(cert):
    _, _, rep = cert
    assert rep.unconstrained_lplus_min < 0


def test_constrained_minimum_positive(cert):
    _, _, rep = cert
    assert rep.ok
    assert rep.lambda_min > 0
    # regression baseline for (d=1, p=7, omega=1) on L=15, n=1023
    assert rep.lambda_min == pytest.approx(0.1876, abs=0.02)


def test_kernel_direction_outside_constraints(cert):
    pair, _, _ = cert
    # h = (0, Q) makes the quadratic form vanish (at the O(h^2) rate of the
    # discrete kernel identity) but violates the (h2, Q) = 0 constraint
    q = from_active(pair.grid, pair.q)
    val = quadratic_form(pair, 0.0 * q, q)
    assert abs(val) < 1e-3 * l2_norm(q) ** 2
    assert real_inner(q, q) > 0.1


def test_random_probes_respect_certificate(cert):
    _, _, rep = cert
    assert rep.probe_min >= rep.lambda_min - 1e-8


def dense_certificate(a, b, cmat, l_plus):
    """The reference reduction: explicit constraint null space, then dense
    generalized and standard eigensolves."""
    z = sla.null_space(cmat.T)
    vals = sla.eigh(z.T @ (a @ z), z.T @ (b @ z), eigvals_only=True,
                    subset_by_index=[0, 0])
    unc = sla.eigh(l_plus.toarray(), eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0]), float(unc[0])


def test_sparse_certificate_matches_dense_reduction(gs7, monkeypatch):
    pair = assemble(gs7, build_grid(1, 15.0, 511))
    modes = solve_unstable_pair(pair)
    seen = []
    constrained_minimum = linearized._constrained_minimum

    def recording(a, b, cmat, sigma):
        lam, h = constrained_minimum(a, b, cmat, sigma)
        seen.append((a, b, cmat, lam, h))
        return lam, h

    monkeypatch.setattr(linearized, "_constrained_minimum", recording)
    rep = coercivity_certificate(pair, modes)
    (a, b, cmat, lam, h), = seen
    dense_lam, dense_unc = dense_certificate(a, b, cmat, pair.l_plus)
    assert rep.lambda_min == lam
    assert rep.lambda_min == pytest.approx(dense_lam, rel=1e-9)
    assert rep.unconstrained_lplus_min == pytest.approx(dense_unc, rel=1e-9)
    # the minimizer satisfies the constraints ...
    cosines = (cmat.T @ h) / (np.linalg.norm(cmat, axis=0) * np.linalg.norm(h))
    assert np.max(np.abs(cosines)) < 1e-10
    # ... its a/b Rayleigh quotient is the certified value ...
    quotient = float(h @ (a @ h)) / float(h @ (b @ h))
    assert quotient == pytest.approx(rep.lambda_min, rel=1e-12)
    # ... and it is a constrained eigenvector: (a - lam b) h lies in span(C)
    resid = a @ h - rep.lambda_min * (b @ h)
    coef, *_ = np.linalg.lstsq(cmat, resid, rcond=None)
    assert np.linalg.norm(resid - cmat @ coef) < 1e-9 * np.linalg.norm(a @ h)


def test_certificate_repeats_bit_for_bit(cert):
    pair, modes, rep = cert
    again = coercivity_certificate(pair, modes)
    assert (again.lambda_min, again.unconstrained_lplus_min, again.probe_min) == \
        (rep.lambda_min, rep.unconstrained_lplus_min, rep.probe_min)


def test_certificate_on_fine_grid(work):
    # 2n = 8190 unknowns, beyond any dense reduction
    pair, modes = work
    rep = coercivity_certificate(pair, modes)
    assert rep.ok
    assert rep.lambda_min == pytest.approx(0.1876, abs=0.02)


@pytest.mark.parametrize("failing", ["constrained", "unconstrained"])
def test_certificate_no_convergence_is_spectral_error(cert, monkeypatch, failing):
    pair, modes, _ = cert
    eigsh = linearized.spla.eigsh

    def stalling(a, **kwargs):
        if ("M" in kwargs) == (failing == "constrained"):
            raise linearized.spla.ArpackNoConvergence("stalled", [], [])
        return eigsh(a, **kwargs)

    monkeypatch.setattr(linearized.spla, "eigsh", stalling)
    with pytest.raises(SpectralError, match="did not converge"):
        coercivity_certificate(pair, modes)


# -------------------------------------------------------- biorthogonal_family

def test_family_biorthogonal(work):
    pair, modes = work
    fam = biorthogonal_family(pair, modes)
    mat = fam.pairing_matrix()
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-8 * np.min(np.abs(fam.zeta))
    assert np.min(np.abs(fam.zeta)) > 1e-10


def test_mode_pairing_two_routes(work):
    # zeta_1 = (mode+, i mode-) via the complex pairing must equal
    # 2 int y1 y2 computed from the real parts
    pair, modes = work
    fam = biorthogonal_family(pair, modes)
    route2 = 2.0 * float(modes.y1 @ modes.y2) * pair.grid.cell_volume()
    assert abs(fam.zeta[0] - route2) < 1e-10


def test_translation_self_pairing(work):
    pair, modes = work
    fam = biorthogonal_family(pair, modes)
    j = fam.labels.index("translate0")
    assert fam.zeta[j] == pytest.approx(float(pair.dq[0] @ pair.dq[0]) * pair.grid.cell_volume(),
                                        rel=1e-10)
    assert fam.zeta[j] > 0
