import numpy as np
import pytest

from nlslab.grid import Field, Obstacle, build_cutoff, build_grid, gradient, l2_dot, l2_norm
from nlslab.ground_state import sample_on_grid, solve_ground_state
from nlslab.linearized import assemble, solve_unstable_pair
from nlslab.soliton import (
    SolitonError,
    SolitonParams,
    critical_exponent,
    eigenmode_field,
    functionals,
    galilean_boost,
    phase_factor,
    soliton_field,
    threshold_report,
)


@pytest.fixture(scope="module")
def gs():
    return solve_ground_state(3, 1.0, 1)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 30.0, 2047)


@pytest.fixture(scope="module")
def modes7():
    gs7 = solve_ground_state(7, 1.0, 1)
    spectral = build_grid(1, 30.0, 4095)
    return solve_unstable_pair(assemble(gs7, spectral))


# ------------------------------------------------------------- soliton_field

def test_rest_soliton_is_real_profile(gs, grid):
    params = SolitonParams(omega=1.0, v=(0.0,), p=3.0)
    u = soliton_field(params, gs, 0.0, grid)
    ref = sample_on_grid(gs, grid)
    assert np.max(np.abs(u.values - ref.values)) < 1e-13
    assert np.max(np.abs(u.values.imag)) < 1e-13


def test_modulus_independent_of_phase_parameters(gs, grid):
    pa = SolitonParams(omega=1.0, v=(2.0,), p=3.0, theta0=0.7)
    t = 1.5
    u = soliton_field(pa, gs, t, grid)
    expected = gs(np.abs(grid.axes[0] - pa.center(t)[0]))
    assert np.max(np.abs(np.abs(u.values) - expected)) < 1e-12


def test_mass_independent_of_boost(gs, grid):
    m0 = functionals(soliton_field(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid),
                     SolitonParams(1.0, (0.0,), 3.0)).mass
    for v, t in [((1.0,), 2.0), ((3.0,), 1.0)]:
        pa = SolitonParams(1.0, v, 3.0)
        m = functionals(soliton_field(pa, gs, t, grid), pa).mass
        assert m == pytest.approx(m0, abs=1e-10)


def test_center_margin_enforced(gs, grid):
    pa = SolitonParams(omega=1.0, v=(10.0,), p=3.0)
    with pytest.raises(SolitonError):
        soliton_field(pa, gs, 2.5, grid)


# ----------------------------------------------------------- eigenmode_field

def test_eigenmode_rest_matches_modes(modes7):
    grid = modes7.grid
    pa = SolitonParams(omega=1.0, v=(0.0,), p=7.0)
    y = eigenmode_field(pa, modes7, 0.0, grid, psi=None, sign=+1)
    exact = modes7.mode(+1).values
    assert np.max(np.abs(y.values - exact)) < 1e-9


def test_eigenmode_conjugate_signs(modes7):
    grid = modes7.grid
    pa = SolitonParams(omega=1.0, v=(0.0,), p=7.0)
    yp = eigenmode_field(pa, modes7, 0.0, grid, psi=None, sign=+1)
    ym = eigenmode_field(pa, modes7, 0.0, grid, psi=None, sign=-1)
    assert np.max(np.abs(np.conj(yp.values) - ym.values)) < 1e-13


def test_eigenmode_pairing_with_cutoff(modes7):
    # Im int Y- conj(Y+) reproduces the normalized pairing; the cutoff only
    # removes an exponentially small correction once the center is far out.
    grid = build_grid(1, 30.0, 4095, Obstacle("ball", 1.0))
    psi = build_cutoff(grid, 1.5, 3.0)
    pa = SolitonParams(omega=1.0, v=(2.0,), p=7.0)
    t = 6.0  # center at 12, far from the cutoff region
    yp = eigenmode_field(pa, modes7, t, grid, psi=psi, sign=+1)
    ym = eigenmode_field(pa, modes7, t, grid, psi=psi, sign=-1)
    pairing = -l2_dot(yp, ym).imag
    assert pairing == pytest.approx(modes7.pairing, abs=1e-4)


# --------------------------------------------------------------- functionals

def test_zero_field_functionals(grid):
    pa = SolitonParams(1.0, (1.0,), 3.0)
    f = functionals(Field.zeros(grid), pa)
    assert f.mass == f.energy == f.lyapunov == 0.0
    assert f.momentum == (0.0,)


def test_sech_integrals(gs, grid):
    from nlslab.soliton import ansatz_functionals

    pa = SolitonParams(1.0, (0.0,), 3.0)
    f = ansatz_functionals(pa, gs, 0.0, grid)
    assert f.mass == pytest.approx(4.0, rel=1e-8)
    assert f.energy == pytest.approx(-2.0 / 3.0, abs=1e-7)
    # the lattice-gradient route agrees at its O(h^2) accuracy
    fd = functionals(soliton_field(pa, gs, 0.0, grid), pa)
    assert fd.energy == pytest.approx(-2.0 / 3.0, abs=5e-4)


@pytest.mark.parametrize("v", [0.0, 1.0, 2.0])
def test_energy_identity_free_soliton(gs, grid, v):
    # E(H) = |v|^2/8 M(Q) + E(Q) with M(Q)=4, E(Q)=-2/3 for p=3, omega=1
    from nlslab.soliton import ansatz_functionals

    pa = SolitonParams(1.0, (v,), 3.0)
    rest = ansatz_functionals(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid)
    f = ansatz_functionals(pa, gs, 0.0, grid)
    assert abs(f.energy - (v**2 / 8.0 * rest.mass + rest.energy)) < 1e-8


def test_lyapunov_combination_matches_definition(gs, grid):
    pa = SolitonParams(1.0, (2.0,), 3.0)
    f = functionals(soliton_field(pa, gs, 1.0, grid), pa)
    expect = f.energy + (pa.omega / 2 + pa.speed() ** 2 / 8) * f.mass \
        - 0.5 * pa.v[0] * f.momentum[0]
    assert f.lyapunov == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------- threshold_report

@pytest.mark.parametrize("p,dim,s", [(7.0 / 3.0, 3, 0.0), (3.0, 3, 0.5), (5.0, 3, 1.0),
                                     (3.0, 2, 0.0), (5.0, 1, 0.0), (7.0, 1, 1.0 / 6.0)])
def test_critical_exponent_values(p, dim, s):
    assert critical_exponent(p, dim) == pytest.approx(s, abs=1e-15)


def test_threshold_report_fields(gs, grid):
    # in 1d, p = 3 is mass-subcritical and p = 6 lies above 1 + 4/d = 5
    u = soliton_field(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid)
    rep = threshold_report(u, 3.0, gs)
    assert rep.s == -0.5
    assert not rep.in_range
    assert rep.grad_quantity == pytest.approx(rep.grad_threshold, rel=1e-6)
    rep2 = threshold_report(u, 6.0)
    assert rep2.in_range


@pytest.mark.parametrize("dim, p, in_range", [
    (1, 5.0, False), (1, 7.0, True), (2, 3.0, False), (2, 9.0, True),
    (3, 7.0 / 3.0, False), (3, 3.0, True), (3, 5.0, False),
])
def test_threshold_exponent_and_range_are_the_fields_own(dim, p, in_range):
    # 1 + 4/d < p < 1 + 4/(d - 2), with no upper end when d <= 2
    g = build_grid(dim, 6.0, 16)
    rep = threshold_report(Field(g, np.exp(-g.radius() ** 2)), p)
    assert rep.s == critical_exponent(p, dim)
    assert rep.in_range is in_range


def test_thresholds_sample_q_without_the_obstacle(gs):
    blocked = build_grid(1, 30.0, 2047, Obstacle("ball", 1.0))
    u = soliton_field(SolitonParams(1.0, (2.0,), 3.0, x0=(8.0,)), gs, 0.0, blocked)
    rep = threshold_report(u, 3.0, gs)
    q = threshold_report(sample_on_grid(gs, build_grid(1, 30.0, 2047)), 3.0)
    assert (rep.grad_threshold, rep.mass_energy_threshold) == \
        (q.grad_quantity, q.mass_energy_quantity)


def test_one_gradient_gives_kinetic_and_threshold(gs):
    # next to the obstacle, where the stencil goes one-sided and masks points
    grid = build_grid(1, 30.0, 2047, Obstacle("ball", 1.0))
    pa = SolitonParams(1.0, (2.0,), 3.0, x0=(2.0,))
    u = soliton_field(pa, gs, 0.0, grid)
    f = functionals(u, pa)
    kinetic = sum(l2_norm(c) ** 2 for c in gradient(u))
    assert f.kinetic == pytest.approx(kinetic, rel=1e-14)
    rep = threshold_report(u, 3.0)
    s = rep.s
    assert rep.grad_quantity == pytest.approx(f.mass ** ((1 - s) / 2) * kinetic ** (s / 2),
                                              rel=1e-14)


def test_cutoff_mass_deficit(gs):
    # the cutoff removes exponentially little mass once the soliton is far out
    grid = build_grid(1, 30.0, 2047, Obstacle("ball", 1.0))
    psi = build_cutoff(grid, 1.5, 3.0)
    pa = SolitonParams(1.0, (2.0,), 3.0)
    t = 5.0
    full = functionals(soliton_field(pa, gs, t, grid), pa).mass
    cut = functionals(soliton_field(pa, gs, t, grid, psi), pa).mass
    assert cut <= full
    assert full - cut < np.exp(-2.0 * (pa.speed() * t - psi.R2)) * 10.0


# -------------------------------------------------------------- boost phase

def _reference_boost_phase(grid, v):
    phi = np.zeros((grid.n,) * grid.dim)
    for k in range(grid.dim):
        phi = phi + 0.5 * v[k] * grid.coordinate(k)
    return phi


@pytest.mark.parametrize("dim, v", [(1, (2.0,)), (1, (-8.0,)), (2, (0.5, -0.2))])
def test_boost_phase_is_cached_and_read_only(dim, v):
    g = build_grid(dim, 10.0, 63, Obstacle("ball", 1.0))
    phi = g.boost_phase(v)
    assert g.boost_phase(np.asarray(v)) is phi
    assert phi.tobytes() == _reference_boost_phase(g, v).tobytes()
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[(0,) * dim] = 1.0
    assert build_grid(dim, 10.0, 63, Obstacle("ball", 1.0)).boost_phase(v) is not phi


@pytest.mark.parametrize("dim, v", [(1, (2.0,)), (2, (0.5, -0.2))])
def test_phase_factor_is_the_reference_loop_bit_for_bit(dim, v):
    g = build_grid(dim, 10.0, 63)
    params = SolitonParams(omega=1.3, v=v, p=3.0, theta0=4.0)
    for t, extra in ((0.0, 0.0), (2.7, -0.4), (-9.1, 1e-3), (1e4, 0.0)):
        scalar = (-0.25 * params.speed() ** 2 * t + params.omega * t
                  + params.theta0 + extra)
        ref = np.exp(1j * np.mod(_reference_boost_phase(g, v) + scalar, 2.0 * np.pi))
        assert phase_factor(params, t, g, extra).tobytes() == ref.tobytes()


def test_boost_is_the_reference_loop_bit_for_bit(gs, grid):
    u = soliton_field(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid)
    v, t = np.array([1.5]), 3.0
    b = galilean_boost(u, v, t)
    steps = int(round(v[0] * t / grid.spacing))
    shifted = np.zeros_like(u.values)
    shifted[steps:] = u.values[:-steps]
    phi = _reference_boost_phase(grid, v) - 0.25 * float(v @ v) * t
    assert b.values.tobytes() == (shifted * np.exp(1j * np.mod(phi, 2.0 * np.pi))).tobytes()


# ------------------------------------------------------------ galilean_boost

def test_boost_identity(gs, grid):
    u = soliton_field(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid)
    b = galilean_boost(u, (0.0,), 1.0)
    assert np.max(np.abs(b.values - u.values)) < 1e-13


def test_boost_preserves_mass_exactly(gs, grid):
    pa = SolitonParams(1.0, (0.0,), 3.0)
    u = soliton_field(pa, gs, 0.0, grid)
    b = galilean_boost(u, (1.0,), 3.0)
    assert np.sum(np.abs(b.values) ** 2) == pytest.approx(
        np.sum(np.abs(u.values) ** 2), rel=1e-14)


def test_boost_rejects_box_exit(gs, grid):
    u = soliton_field(SolitonParams(1.0, (0.0,), 3.0), gs, 0.0, grid)
    with pytest.raises(SolitonError):
        galilean_boost(u, (1.0,), 40.0)
