import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

import nlslab.ground_state as gsmod
from nlslab.grid import build_grid
from nlslab.ground_state import (
    GroundState,
    GroundStateError,
    fit_decay,
    ode_residual,
    rescale,
    sample_on_grid,
    solve_ground_state,
)

# Independent oracle for (p=3, omega=1, d=3), frozen before the build: a
# separate high-order shooting run (DOP853, rtol 1e-13) at 10x the default
# radial resolution gave the same central value to 12 digits.
Q0_CUBIC_3D = 4.33738767997702


def sech_profile(p, x):
    return ((p + 1) / 2.0) ** (1.0 / (p - 1)) * np.cosh((p - 1) * x / 2.0) ** (-2.0 / (p - 1))


@pytest.fixture(scope="module")
def gs_cubic():
    return solve_ground_state(3, 1.0, 1)


@pytest.fixture(scope="module")
def gs_septic():
    return solve_ground_state(7, 1.0, 1)


def test_closed_form_p3(gs_cubic):
    assert gs_cubic.q0 == pytest.approx(np.sqrt(2.0), abs=1e-12)
    exact = sech_profile(3, gs_cubic.r_samples)
    assert np.max(np.abs(gs_cubic.q_samples - exact)) < 1e-8


def test_closed_form_p7(gs_septic):
    assert gs_septic.q0 == pytest.approx(4.0 ** (1.0 / 6.0), abs=1e-12)
    exact = sech_profile(7, gs_septic.r_samples)
    assert np.max(np.abs(gs_septic.q_samples - exact)) < 1e-8


def test_3d_matches_frozen_oracle():
    gs = solve_ground_state(3, 1.0, 3)
    assert gs.q0 == pytest.approx(Q0_CUBIC_3D, abs=1e-9)


@pytest.mark.parametrize("p, dim, omega", [(3, 1, 1.0), (7, 1, 1.0), (3, 3, 1.0),
                                           (3, 1, 4.0)])
def test_evaluator_matches_quintic_spline(p, dim, omega):
    gs = solve_ground_state(p, 1.0, dim)
    if omega != 1.0:
        gs = rescale(gs, omega)
    r = np.concatenate([-gs.r_samples[:0:-1], gs.r_samples])
    spline = make_interp_spline(
        r, np.concatenate([gs.q_samples[:0:-1], gs.q_samples]), k=5)
    x = np.concatenate([np.linspace(0.0, gs.r_end, 20001), gs.r_samples,
                        np.random.default_rng(5).uniform(0.0, gs.r_end, 20000)])
    q, dq = gs.evaluate(x)
    assert np.max(np.abs(q - np.maximum(spline(x), 0.0))) <= 1e-14 * gs.q0
    assert np.max(np.abs(dq - spline.derivative()(x))) <= 1e-14 * gs.q0
    assert np.array_equal(gs(x), q) and np.array_equal(gs.derivative(x), dq)
    assert np.all(q >= 0.0)
    beyond = gs.r_end * np.array([1.0 + 1e-12, 1.01, 2.0, 1e3])
    q_out, dq_out = gs.evaluate(beyond)
    assert np.all(q_out == 0.0) and np.all(dq_out == 0.0)


def test_evaluator_clips_negative_values(gs_cubic):
    # a tail sample pushed below zero makes the spline negative around it
    q_samples = gs_cubic.q_samples.copy()
    q_samples[-40] = -1e-3 * gs_cubic.q0
    gs = GroundState(p=3.0, omega=1.0, dim=1, r_samples=gs_cubic.r_samples,
                     q_samples=q_samples, qprime_samples=gs_cubic.qprime_samples,
                     q0=gs_cubic.q0)
    x = gs.r_samples[-60:-20]
    r = np.concatenate([-gs.r_samples[:0:-1], gs.r_samples])
    spline = make_interp_spline(r, np.concatenate([q_samples[:0:-1], q_samples]),
                                k=5)
    q, dq = gs.evaluate(x)
    assert spline(x[20]) < 0.0
    assert q[20] == 0.0
    assert np.array_equal(q, np.where(spline(x) > 0.0, spline(x), 0.0))
    assert np.array_equal(dq, spline.derivative()(x))  # only Q is clipped


@pytest.mark.parametrize("p, omega, dim", [(3.0, 1.0, 1), (7.0, 2.0, 1), (2.5, 0.7, 3)])
def test_shooting_rhs_matches_numpy_formula(p, omega, dim):
    # the right-hand side works on Python floats; it must round exactly as
    # the array formula does, including at q = 0 and q < 0
    from nlslab.ground_state import _rhs

    fun = _rhs(p, omega, dim)
    rng = np.random.default_rng(3)
    for q, dq in [(0.0, -0.3), (-0.0, 0.2), *rng.normal(0.0, 1.5, (50, 2))]:
        r = float(rng.uniform(1e-8, 12.0))
        y = np.array([q, dq])
        ref = -(dim - 1) / r * y[1] + omega * y[0] - np.sign(y[0]) * np.abs(y[0]) ** p
        got = fun(r, y)
        assert got[0] == y[1]
        assert np.array_equal(np.float64(got[1]), ref) and \
            np.signbit(got[1]) == np.signbit(ref)


# ------------------------------------------------------- replayed bisection

def _counted_solve(monkeypatch, *args):
    """solve_ground_state(*args) and its shots: dense_output marks the graft."""
    shots = []
    real = gsmod.solve_ivp

    def counting(*a, **kw):
        shots.append(kw["dense_output"])
        return real(*a, **kw)

    monkeypatch.setattr(gsmod, "solve_ivp", counting)
    return solve_ground_state(*args), shots


def _through_fallback(monkeypatch, estimate, *args):
    """solve_ground_state(*args) with the given estimate, checking that the
    replay's end check fails and the plain bisection runs from the start."""
    runs = []
    real = gsmod._bisect

    def spy(*a):
        runs.append(a)
        return real(*a)

    monkeypatch.setattr(gsmod, "_estimate_separatrix", estimate)
    monkeypatch.setattr(gsmod, "_bisect", spy)
    gs = solve_ground_state(*args)
    assert len(runs) == 2, "the estimate passed the end check"
    return gs


def _same_bytes(a, b):
    for name in ("q0", "delta_fit", "r_samples", "q_samples", "qprime_samples"):
        assert np.asarray(getattr(a, name)).tobytes() == \
            np.asarray(getattr(b, name)).tobytes(), name


@pytest.mark.parametrize("p, omega, dim, most", [
    (3, 1.0, 1, 24), (7, 1.0, 1, 24), (3, 1.0, 2, 35), (3, 1.0, 3, 35),
    (7, 4.0, 1, 24)])
def test_replay_is_the_bisection_at_fewer_shots(monkeypatch, p, omega, dim, most):
    gs, shots = _counted_solve(monkeypatch, p, omega, dim)
    assert shots.count(True) == 1 and shots.count(False) <= most
    # an estimate at the crossing end sends the replay's last turning end
    # to the wrong side, so the reference is the plain bisection itself
    full = _through_fallback(
        monkeypatch, lambda p, omega, dim, lo, hi, hi_shot: hi, p, omega, dim)
    _same_bytes(gs, full)
    if (p, omega, dim) == (7, 1.0, 1):
        _same_bytes(rescale(gs, 4.0), rescale(full, 4.0))


@pytest.mark.parametrize("factor", [1 + 1e-12, 1 - 1e-11])
def test_wrong_estimate_falls_back_to_same_q0(monkeypatch, gs_cubic, factor):
    estimate = gsmod._estimate_separatrix
    gs = _through_fallback(monkeypatch, lambda *a: factor * estimate(*a),
                           3, 1.0, 1)
    assert gs.q0 == gs_cubic.q0


def test_profile_shape_invariants(gs_cubic):
    q = gs_cubic.q_samples
    assert np.all(q > 0)
    assert np.all(np.diff(q) < 0)
    assert q[-1] < 1e-8 * gs_cubic.q0
    assert ode_residual(gs_cubic) < 1e-6


def test_bad_arguments():
    with pytest.raises(GroundStateError):
        solve_ground_state(0.5, 1.0, 1)
    with pytest.raises(GroundStateError):
        solve_ground_state(3.0, -1.0, 1)
    for p, omega in ((np.inf, 1.0), (np.nan, 1.0), (3.0, np.inf), (3.0, np.nan)):
        with pytest.raises(GroundStateError, match="finite"):
            solve_ground_state(p, omega, 1)
    for dim in (0, 4):
        with pytest.raises(GroundStateError, match="dim"):
            solve_ground_state(3.0, 1.0, dim)


# ----------------------------------------------------------------- rescaling

def test_rescale_identity(gs_cubic):
    g = rescale(gs_cubic, 1.0)
    assert np.array_equal(g.q_samples, gs_cubic.q_samples)


def test_rescale_central_value(gs_cubic):
    g = rescale(gs_cubic, 4.0)
    assert g.q0 == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("omega", [0.5, 2.0, 4.0])
def test_rescale_residual(gs_cubic, omega):
    assert ode_residual(rescale(gs_cubic, omega)) < 1e-6


def test_rescale_requires_unit_frequency(gs_cubic):
    g4 = rescale(gs_cubic, 4.0)
    with pytest.raises(GroundStateError):
        rescale(g4, 2.0)
    with pytest.raises(GroundStateError):
        rescale(gs_cubic, -3.0)


# ----------------------------------------------------------------- fit_decay

def test_decay_rate_is_one(gs_cubic, gs_septic):
    assert gs_cubic.delta_fit == pytest.approx(1.0, rel=0.02)
    assert gs_septic.delta_fit == pytest.approx(1.0, rel=0.02)


def test_decay_commutes_with_rescale(gs_cubic):
    # the fit runs in the sqrt(omega) x variable, so the rate is unchanged;
    # in the raw variable it doubles at omega = 4
    g4 = rescale(gs_cubic, 4.0)
    assert fit_decay(g4) == pytest.approx(gs_cubic.delta_fit, rel=1e-6)


def test_resolution_doubling_invariance():
    a = solve_ground_state(3, 1.0, 1, dr=0.02)
    b = solve_ground_state(3, 1.0, 1, dr=0.01)
    rr = np.linspace(0.0, 12.0, 701)
    assert np.max(np.abs(a(rr) - b(rr))) < 1e-8


# ------------------------------------------------------------ sample_on_grid

@pytest.fixture(scope="module")
def grid_1d():
    return build_grid(1, 40.0, 4095)


def test_sample_center_value(gs_cubic, grid_1d):
    f = sample_on_grid(gs_cubic, grid_1d, [0.0])
    i = np.argmin(np.abs(grid_1d.axes[0]))
    assert f.values[i].real == pytest.approx(gs_cubic(abs(grid_1d.axes[0][i])), abs=1e-10)
    assert np.all(f.values.imag == 0.0)


def test_sample_mass_matches_radial_quadrature(gs_cubic, grid_1d):
    f = sample_on_grid(gs_cubic, grid_1d, [0.0])
    mass_grid = np.sum(np.abs(f.values) ** 2) * grid_1d.spacing
    r = gs_cubic.r_samples
    mass_radial = 2.0 * np.trapezoid(gs_cubic.q_samples**2, r)
    assert mass_grid == pytest.approx(mass_radial, rel=1e-4)


def test_sample_translation_equivariance(gs_cubic, grid_1d):
    h = grid_1d.spacing
    f0 = sample_on_grid(gs_cubic, grid_1d, [0.0])
    f1 = sample_on_grid(gs_cubic, grid_1d, [h])
    assert np.allclose(f1.values[1:], f0.values[:-1], atol=1e-13)


def test_sample_outside_box_rejected(gs_cubic, grid_1d):
    with pytest.raises(GroundStateError):
        sample_on_grid(gs_cubic, grid_1d, [41.0])


def test_energy_matches_sech_integrals(gs_cubic):
    # for p=3: |Q|_2^2 = 4, |Q'|_2^2 = 4/3, int Q^4 = 16/3, E(Q) = -2/3
    r, q, dq = gs_cubic.r_samples, gs_cubic.q_samples, gs_cubic.qprime_samples
    mass = 2 * np.trapezoid(q**2, r)
    kin = 2 * np.trapezoid(dq**2, r)
    quart = 2 * np.trapezoid(q**4, r)
    energy = 0.5 * kin - 0.25 * quart
    assert mass == pytest.approx(4.0, rel=1e-8)
    assert kin == pytest.approx(4.0 / 3.0, rel=1e-7)
    assert quart == pytest.approx(16.0 / 3.0, rel=1e-8)
    assert energy == pytest.approx(-2.0 / 3.0, abs=1e-7)
