import numpy as np
import pytest

from nlslab.grid import (Field, NormConfig, Obstacle, build_cutoff, build_grid, h2_norm,
                         l2_norm, to_active)
from nlslab.evolve import EvolveConfig, LinearSolveError, Trajectory, nls_residual
from nlslab.fixedpoint import (
    FixedPointError,
    FixedPointInputError,
    _time_mesh,
    _over_power,
    duhamel_apply,
    e_norm,
    interpolation_check,
    make_sources,
    picard,
    remainder_decay_rate,
)
from nlslab.soliton import SolitonError, SolitonParams, _check_center, soliton_field

DELTA = 0.8  # 0.8 x fitted decay rate (= 1) of the cubic ground state


@pytest.fixture(scope="module")
def box(gs3):
    grid = build_grid(1, 40.0, 1023, Obstacle("ball", 1.0))
    psi = build_cutoff(grid, 1.5, 3.0)
    return grid, psi


def sources_at(gs3, box, v):
    grid, psi = box
    params = SolitonParams(omega=1.0, v=(v,), p=3.0)
    return make_sources(params, gs3, psi, grid, 3.0), params


def run_picard(gs3, box, v, n_iters=6, dt=0.004, horizon=14.0, t0=0.5,
               j_diag=False):
    src, params = sources_at(gs3, box, v)
    tmax = t0 + horizon / (DELTA * v)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(v,), T0=t0)
    rep, traj = picard(src, t0, tmax, cfg, n_iters, EvolveConfig(dt=dt),
                       j_diagnostics=j_diag)
    return rep, traj, cfg


@pytest.fixture(scope="module")
def picard_v8(gs3, box):
    return run_picard(gs3, box, 8.0, j_diag=True)


# ------------------------------------------------------------------- sources

def test_a0_vanishes_without_cutoff(gs3, box):
    grid, _ = box
    params = SolitonParams(omega=1.0, v=(2.0,), p=3.0)
    src = make_sources(params, gs3, None, grid, 3.0)
    for t in (0.5, 1.0, 3.0):
        assert l2_norm(src.a0(t)) == 0.0


def test_a0_supported_inside_cutoff(gs3, box):
    grid, psi = box
    src, _ = sources_at(gs3, box, 2.0)
    vals = src.a0(0.8).values
    outside = grid.radius() > psi.R2
    assert np.all(vals[outside] == 0.0)


def _reference_a0(src, t):
    """a0 as first written: the phase summed over the window's coordinates
    and rotated by the complex exponential."""
    grid, psi, params = src.grid, src.psi, src.params
    window = grid.radius() <= psi.R2 * 1.0001
    xs = [grid.coordinate(k)[window] for k in range(grid.dim)]
    c = params.center(t)
    r = np.sqrt(sum((xc - ck) ** 2 for xc, ck in zip(xs, c)))
    q, dq = src.gs.evaluate(r)
    safe = np.where(r > 0, r, 1.0)
    phi = sum(0.5 * params.v[k] * xs[k] for k in range(grid.dim))
    phi = phi - 0.25 * params.speed() ** 2 * t + params.omega * t + params.theta0
    h = q * np.exp(1j * np.mod(phi, 2.0 * np.pi))
    vals = (psi.psi * (1.0 - psi.psi ** (src.p - 1.0)))[window] \
        * np.abs(h) ** (src.p - 1.0) * h - psi.lap_psi[window] * h
    for k in range(grid.dim):
        gh = (dq * (xs[k] - c[k]) / safe + 0.5j * params.v[k] * q) \
            * np.exp(1j * np.mod(phi, 2.0 * np.pi))
        vals = vals - 2.0 * psi.grad_psi[k][window] * gh
    full = np.zeros(grid.n, dtype=complex)
    full[window] = vals
    return full


def test_a0_is_the_reference_formula_bit_for_bit(gs3, box):
    grid, psi = box
    params = SolitonParams(omega=1.0, v=(8.0,), p=3.0, theta0=2.5)
    src = make_sources(params, gs3, psi, grid, 3.0)
    for t in (0.5, 0.8, 1.7):
        assert src.a0(t).values.tobytes() == _reference_a0(src, t).tobytes()


def test_a0_decay_rate(gs3, box):
    # fit once the soliton has cleared the cutoff annulus
    src, params = sources_at(gs3, box, 2.0)
    ts = np.linspace(2.5, 5.5, 15)
    norms = np.array([l2_norm(src.a0(t)) for t in ts])
    slope = -np.polyfit(ts, np.log(norms), 1)[0]
    assert slope >= DELTA * params.speed() - 0.1


def test_source_homogeneity(gs3, box):
    grid, _ = box
    src, _ = sources_at(gs3, box, 4.0)
    x = grid.axes[0]
    r = Field(grid, (0.1 + 0.2j) * np.exp(-((x - 3.0) ** 2)))
    t = 0.7
    for name, k in (("a1", 1), ("a2", 2), ("a3", 3)):
        one = src.total_active(r, t, (name,))
        two = src.total_active(2.0 * r, t, (name,))
        assert np.max(np.abs(two - 2.0**k * one)) < 1e-12 * np.max(np.abs(two))


def test_a3_is_cubic_term(gs3, box):
    grid, _ = box
    src, _ = sources_at(gs3, box, 4.0)
    x = grid.axes[0]
    r = Field(grid, np.exp(-((x - 5.0) ** 2)) * (1.0 - 0.4j))
    out = src.total_active(r, 1.0, ("a3",))
    vals = to_active(r)
    assert np.max(np.abs(out + np.abs(vals) ** 2 * vals)) == 0.0


def test_general_p_taylor_split_consistent(gs3, box):
    # A1 + A2 for general p must reproduce the exact nonlinearity mismatch
    grid, psi = box
    params = SolitonParams(omega=1.0, v=(4.0,), p=3.0)
    src3 = make_sources(params, gs3, psi, grid, 3.0)
    srcg = make_sources(params, gs3, psi, grid, 3.0 + 1e-14)  # general-p path
    x = grid.axes[0]
    r = Field(grid, 0.05 * np.exp(-((x - 4.0) ** 2)) * (1.0 + 0.3j))
    t = 0.9
    total3 = src3.total_active(r, t, ("a1", "a2", "a3"))
    totalg = srcg.total_active(r, t, ("a1", "a2", "a3"))
    assert np.max(np.abs(total3 - totalg)) < 1e-10


# ------------------------------------------------------------- duhamel_apply

def test_duhamel_zero_sources(gs3, box):
    grid, _ = box
    params = SolitonParams(omega=1.0, v=(2.0,), p=3.0)
    src = make_sources(params, gs3, None, grid, 3.0)
    traj = duhamel_apply(src, None, 0.0, 1.0, EvolveConfig(dt=0.01), which=("a0",))
    assert all(l2_norm(u) == 0.0 for u in traj.snapshots)


def test_duhamel_single_mode_closed_form(gs3):
    # constant-in-time discrete-eigenvector source: the component obeys
    # i c' + lam c = F, c(Tmax) = 0, giving c(t) = F (1 - e^{i lam (t-Tmax)})/lam
    grid = build_grid(1, 20.0, 511)
    L, h = 20.0, grid.spacing
    x = grid.axes[0]
    lam = -(4.0 / h**2) * np.sin(np.pi * h / (4 * L)) ** 2
    mode = np.sin(np.pi * (x + L) / (2 * L)).astype(complex)
    fhat = 0.37 - 0.21j
    params = SolitonParams(omega=1.0, v=(1.0,), p=3.0)
    src = make_sources(params, gs3, None, grid, 3.0)
    src.a0 = lambda t: Field(grid, fhat * mode)
    traj = duhamel_apply(src, None, 0.0, 2.0, EvolveConfig(dt=0.005), which=("a0",))
    k = 100
    t = traj.times[k]
    exact = fhat * (1.0 - np.exp(1j * lam * (t - 2.0))) / lam * mode
    assert np.max(np.abs(traj.snapshots[k].values - exact)) < 1e-8


def test_duhamel_linearity(gs3):
    grid = build_grid(1, 20.0, 255)
    x = grid.axes[0]
    params = SolitonParams(omega=1.0, v=(1.0,), p=3.0)
    f1 = np.exp(-(x**2)).astype(complex)
    f2 = (np.sin(x / 3.0) * np.exp(-((x - 2) ** 2) / 4.0)).astype(complex)
    cfg = EvolveConfig(dt=0.01)

    def solve(f):
        src = make_sources(params, gs3, None, grid, 3.0)
        src.a0 = lambda t: Field(grid, f)
        return duhamel_apply(src, None, 0.0, 1.0, cfg, which=("a0",))

    a, b, ab = solve(f1), solve(f2), solve(f1 + f2)
    diff = ab.snapshots[0].values - a.snapshots[0].values - b.snapshots[0].values
    assert np.max(np.abs(diff)) < 1e-11


def test_picard_iterates_the_duhamel_map(gs3, box):
    # one more Duhamel application to the third iterate is the fourth iterate
    horizon = 2.0
    _, traj3, _ = run_picard(gs3, box, 8.0, n_iters=3, horizon=horizon)
    _, traj4, _ = run_picard(gs3, box, 8.0, n_iters=4, horizon=horizon)
    assert not np.array_equal(traj3.snapshots[0].values, traj4.snapshots[0].values)
    src, _ = sources_at(gs3, box, 8.0)
    step = duhamel_apply(src, traj3, 0.5, 0.5 + horizon / (DELTA * 8.0),
                         EvolveConfig(dt=0.004))
    assert np.array_equal(step.times, traj4.times)
    for got, want in zip(step.snapshots, traj4.snapshots):
        assert np.array_equal(got.values, want.values)


# -------------------------------------------------------------------- e_norm

def test_enorm_zero(box):
    grid, _ = box
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(2.0,), T0=0.0)
    ts = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(times=ts, snapshots=[Field.zeros(grid)] * 3,
                      conservation=[], p=3.0)
    assert e_norm(traj, cfg) == 0.0


def test_enorm_single_snapshot_formula(box):
    grid, _ = box
    rng = np.random.default_rng(0)
    u = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    u = (1.0 / l2_norm(u)) * u
    speed = h2_norm(u) ** (1.0 / 3.0)  # makes |u|_H2 = |v|^3
    t0 = 0.7
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(speed,), T0=t0)
    traj = Trajectory(times=np.array([t0]), snapshots=[u], conservation=[], p=3.0)
    expect = np.exp(DELTA * speed * t0) * 2.0
    assert e_norm(traj, cfg) == pytest.approx(expect, rel=1e-12)


def test_enorm_monotone_in_delta(gs3, box):
    _, traj, _ = run_picard(gs3, box, 8.0, n_iters=3, horizon=6.0)
    vals = []
    for d in (0.4, 0.8):
        cfg = NormConfig("Eweighted", delta=d, omega=1.0, v=(8.0,), T0=0.5)
        vals.append(e_norm(traj, cfg))
    assert vals[0] <= vals[1]


# -------------------------------------------------------------------- picard

def test_contraction_at_high_velocity(picard_v8):
    rep, _, _ = picard_v8
    assert rep.converged
    assert rep.contraction_ratios[-1] < 0.5


def test_j_diagnostics_scalings(picard_v8):
    rep, _, _ = picard_v8
    assert rep.j_norms["J0"] > 0
    assert rep.j_norms["J1_over_r"] < 0.5
    assert rep.j_norms["J2"] < rep.j_norms["J1"]


def test_j0_velocity_probe_asymptotic(gs3, box):
    # |v| |J0|_E stays bounded across a doubling in the high-velocity regime
    vals = {}
    for v in (8.0, 16.0):
        rep, _, _ = run_picard(gs3, box, v, n_iters=3)
        vals[v] = v * rep.j_norms["J0"]
    assert vals[16.0] <= 1.25 * vals[8.0]


def test_contraction_monotone_in_velocity(gs3, box):
    # the measured ratio decreases (or stays flat) as the speed doubles,
    # crossing 1 somewhere between v=2 and v=4: the empirical threshold
    finals = []
    for v in (2.0, 4.0, 8.0, 16.0):
        rep, _, _ = run_picard(gs3, box, v, n_iters=4, horizon=6.0)
        finals.append(rep.contraction_ratios[-1])
    assert all(a >= b for a, b in zip(finals, finals[1:]))
    assert finals[0] > 1.0 > finals[1]


def test_noncontraction_reported_at_small_velocity(gs3, box):
    src, params = sources_at(gs3, box, 2.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(2.0,), T0=0.5)
    rep, _ = picard(src, 0.5, 4.5, cfg, 6, EvolveConfig(dt=0.004),
                    j_diagnostics=False)
    assert rep.non_contracting
    assert rep.contraction_ratios[-1] > 1.0


def test_zero_cutoff_fixed_point_is_zero(gs3):
    grid = build_grid(1, 40.0, 1023)
    params = SolitonParams(omega=1.0, v=(8.0,), p=3.0)
    src = make_sources(params, gs3, None, grid, 3.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    rep, traj = picard(src, 0.5, 2.0, cfg, 3, EvolveConfig(dt=0.004),
                       j_diagnostics=False)
    assert rep.iterate_norms[-1] == 0.0


def test_zero_iterate_ratios_and_rate(gs3):
    # the feedback of a zero iterate vanishes: J_k / r^k is 0, not 0 / 0
    grid = build_grid(1, 20.0, 255)
    src = make_sources(SolitonParams(omega=1.0, v=(2.0,), p=3.0), gs3, None, grid, 3.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(2.0,), T0=0.5)
    rep, traj = picard(src, 0.5, 0.6, cfg, 3, EvolveConfig(dt=0.002))
    assert rep.iterate_norms[-1] == 0.0
    assert [rep.j_norms[k] for k in ("J1_over_r", "J2_over_r2", "J3_over_r3")] == [0.0] * 3
    with pytest.raises(FixedPointError, match="identically zero"):
        remainder_decay_rate(traj)


@pytest.mark.parametrize("jk, r, k, want", [
    (0.0, 1e-300, 3, 0.0), (0.5, 2.0, 2, 0.125), (1e-300, 1e-110, 3, 1e30)])
def test_over_power(jk, r, k, want):
    # r^3 = 1e-330 underflows; dividing r out factor by factor does not
    assert _over_power(jk, r, k) == pytest.approx(want, rel=1e-12)


def test_remainder_decay_rate(gs3, box, picard_v8):
    _, traj, _ = picard_v8
    assert remainder_decay_rate(traj) >= 0.9 * DELTA * 8.0


def test_tmax_doubling_insensitive(gs3, box):
    rep1, _, _ = run_picard(gs3, box, 8.0, n_iters=4, horizon=7.0)
    rep2, _, _ = run_picard(gs3, box, 8.0, n_iters=4, horizon=14.0)
    a, b = rep1.iterate_norms[-1], rep2.iterate_norms[-1]
    assert abs(a - b) / a < 0.01


# Recorded from the Picard loop that kept every snapshot as a Field and
# re-evaluated the sources in each sweep; the active-vector sweep reproduces
# them bit for bit, and 1e-12 relative leaves room only for roundoff.
PICARD_V8_RECORDED = {
    "iterate_norms": [7.897458862670558, 7.905534979774593, 7.905047475453346,
                      7.905041186844821, 7.905042133094933, 7.905042184027972],
    "contraction_ratios": [0.07829348016007805, 0.12949679872361083,
                           0.10554388725577907, 0.0875186609199155],
    "diff_norms": [0.09479482123559625, 0.0074218164556873,
                   0.000961101471725721, 0.00010143838537318283,
                   8.877751653739305e-06],
    "final_residual": 0.3352979299223377,
    "J1": 0.0661161891991686,
    "J2": 0.025480718273379895,
    "J3": 0.02372169521320122,
}


def test_picard_v8_matches_recorded_values(picard_v8):
    rep, _, _ = picard_v8
    got = {
        "iterate_norms": rep.iterate_norms,
        "contraction_ratios": rep.contraction_ratios,
        "diff_norms": rep.diff_norms,
        "final_residual": rep.final_residual,
        "J1": rep.j_norms["J1"],
        "J2": rep.j_norms["J2"],
        "J3": rep.j_norms["J3"],
    }
    for key, ref in PICARD_V8_RECORDED.items():
        assert np.asarray(got[key]) == pytest.approx(np.asarray(ref), rel=1e-12), key


def test_final_residual_is_the_nls_residual_of_ansatz_plus_remainder(gs3, box, picard_v8):
    rep, traj, _ = picard_v8
    grid, psi = box
    params = SolitonParams(omega=1.0, v=(8.0,), p=3.0)
    snaps = [soliton_field(params, gs3, t, grid, psi) + r
             for t, r in zip(traj.times, traj.snapshots)]
    full = Trajectory(times=traj.times, snapshots=snaps, conservation=[], p=3.0)
    assert rep.final_residual == max(nls_residual(full))


def test_in_sweep_norm_equals_e_norm(picard_v8):
    rep, traj, cfg = picard_v8
    assert e_norm(traj, cfg) == rep.iterate_norms[-1]


def test_diff_norms_give_the_ratios(picard_v8):
    rep, _, _ = picard_v8
    d = rep.diff_norms
    assert len(d) == len(rep.iterate_norms) - 1
    assert rep.contraction_ratios == [b / a for a, b in zip(d, d[1:])]


def test_nonfinite_source_in_sweep_raises(gs3, box):
    # a NaN in the ansatz at one mesh time poisons the feedback source there;
    # the sweep must stop on it rather than let max() drop a NaN norm
    src, _ = sources_at(gs3, box, 8.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    ansatz = src._ansatz
    src._ansatz = lambda t: ansatz(t) * (np.nan if abs(t - 1.0) < 1e-9 else 1.0)
    with pytest.raises(LinearSolveError):
        picard(src, 0.5, 2.0, cfg, 3, EvolveConfig(dt=0.004), j_diagnostics=False)


def test_enorm_raises_instead_of_dropping_nan(box):
    # an overflowing H2 norm under an underflowing weight makes 0 * inf = NaN
    grid, _ = box
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(2.0,), T0=0.0)
    huge = Field(grid, np.full(grid.n, 1e300, dtype=complex))
    traj = Trajectory(times=np.array([-1e4]), snapshots=[huge], conservation=[],
                      p=3.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FixedPointError):
        e_norm(traj, cfg)


def test_picard_preconditions(gs3, box):
    src, _ = sources_at(gs3, box, 8.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    with pytest.raises(FixedPointError):
        picard(src, 0.5, 2.0, cfg, 2, EvolveConfig(dt=0.004))


def _no_mesh(*args, **kwargs):
    raise AssertionError("a precondition must be checked before the mesh sources")


@pytest.mark.parametrize("omega, tmax, error, match", [
    (1.0, 5.0, SolitonError, "too close to the box edge"),
    (2.0, 2.0, SolitonError, "frequency does not match"),
    (1.0, 0.501, FixedPointInputError, "at least 3 mesh times")],
    ids=["edge", "frequency", "one-step"])
def test_picard_refuses_before_the_mesh_sources(gs3, box, monkeypatch, omega, tmax,
                                                error, match):
    grid, psi = box
    src = make_sources(SolitonParams(omega=omega, v=(8.0,), p=3.0), gs3, psi, grid, 3.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=omega, v=(8.0,), T0=0.5)
    monkeypatch.setattr("nlslab.fixedpoint._MeshSources", _no_mesh)
    with pytest.raises(error, match=match):
        picard(src, 0.5, tmax, cfg, 3, EvolveConfig(dt=0.004))


def test_centre_checks_at_the_mesh_ends_refuse_what_every_row_would(gs3):
    # each coordinate of x0 + t v is monotone in t, so |c| peaks at an end
    grid = build_grid(2, 20.0, 31)
    rng = np.random.default_rng(11)

    def refused(params, times):
        try:
            for t in times:
                _check_center(params, gs3, t, grid)
        except SolitonError:
            return True
        return False

    seen = set()
    for _ in range(300):
        params = SolitonParams(omega=1.0, v=tuple(rng.uniform(-6.0, 6.0, 2)), p=3.0,
                               x0=tuple(rng.uniform(-12.0, 12.0, 2)))
        ts, _ = _time_mesh(rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0), 0.01)
        every_row = refused(params, ts)
        assert refused(params, ts[[0, -1]]) == every_row
        seen.add(every_row)
    assert seen == {True, False}


# -------------------------------------------------------- interpolation_check

def test_interpolation_random_fields_hold_with_slack(box):
    grid, _ = box
    rng = np.random.default_rng(5)
    x = grid.axes[0]
    for _ in range(10):
        c, w = rng.uniform(-10, 10), rng.uniform(0.5, 3.0)
        f = Field(grid, np.exp(-((x - c) / w) ** 2) * (1 + 0.3j))
        ok, lhs, rhs = interpolation_check(f)
        assert ok
        assert lhs < rhs


def test_interpolation_saturates_on_eigenvector():
    grid = build_grid(1, 10.0, 255)
    x = grid.axes[0]
    f = Field(grid, np.sin(3 * np.pi * (x + 10.0) / 20.0).astype(complex))
    ok, lhs, rhs = interpolation_check(f)
    assert ok
    assert abs(lhs - rhs) < 1e-12 * rhs


def test_interpolation_zero_field(box):
    grid, _ = box
    ok, lhs, rhs = interpolation_check(Field.zeros(grid))
    assert ok and lhs == 0.0 and rhs == 0.0
