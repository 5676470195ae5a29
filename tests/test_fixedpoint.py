import fcntl
import os
import signal
import time

import numpy as np
import pytest

import nlslab.fixedpoint as fp_mod
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


def test_a0_at_a_block_of_times_is_a0_at_each_bit_for_bit(gs3, box, monkeypatch):
    # passes of 3 times each: 100 times cross 33 chunk edges
    grid, psi = box
    params = SolitonParams(omega=1.0, v=(8.0,), p=3.0, theta0=2.5)
    src = make_sources(params, gs3, psi, grid, 3.0)
    monkeypatch.setattr(fp_mod, "_A0_POINTS", 3 * src._w0.size)
    ts = np.linspace(0.5, 2.0, 100)
    for t, (idx, vals) in zip(ts, src.a0_active(ts)):
        vec = src.a0(t).values[grid.mask]
        assert np.array_equal(idx, np.flatnonzero(vec))
        assert vals.tobytes() == vec[idx].tobytes()


@pytest.mark.parametrize("lo", [0, 20])
def test_forcing_in_blocks_is_the_row_by_row_forcing_bit_for_bit(gs3, box, lo):
    # 51 mesh times: the band's rows come in blocks of 8 and a shorter last
    src, _ = sources_at(gs3, box, 8.0)
    ts = _time_mesh(0.5, 0.7, 0.004)[0]
    mesh = fp_mod._MeshSources(src, ts, True, True, lo, len(ts))
    rng = np.random.default_rng(7)
    shape = (len(ts), src.grid.n_active)
    rows = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    at = mesh.source(fp_mod._ALL_SOURCES, rows)
    for k in range(len(ts) - 1, lo - 1, -1):
        R, r = mesh.R[k - lo], rows[k]
        f = fp_mod._a1(R, r, 3.0)
        idx, vals = mesh.a0[k - lo]
        f[idx] += vals
        f += fp_mod._a2(R, r, 3.0)
        f += fp_mod._a3(R, r, 3.0)
        assert at(k).tobytes() == f.tobytes()


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
    assert all(l2_norm(u) == 0.0 for u in map(traj.snapshot, range(len(traj))))


def _constant_a0(src, f):
    """Make the lattice array f the a0 of src at every time."""
    vec = f[src.grid.mask]
    idx = np.flatnonzero(vec)
    src.a0_active = lambda ts: [(idx, vec[idx])] * len(ts)


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
    _constant_a0(src, fhat * mode)
    traj = duhamel_apply(src, None, 0.0, 2.0, EvolveConfig(dt=0.005), which=("a0",))
    k = 100
    t = traj.times[k]
    exact = fhat * (1.0 - np.exp(1j * lam * (t - 2.0))) / lam * mode
    assert np.max(np.abs(traj.snapshot(k).values - exact)) < 1e-8


def test_duhamel_linearity(gs3):
    grid = build_grid(1, 20.0, 255)
    x = grid.axes[0]
    params = SolitonParams(omega=1.0, v=(1.0,), p=3.0)
    f1 = np.exp(-(x**2)).astype(complex)
    f2 = (np.sin(x / 3.0) * np.exp(-((x - 2) ** 2) / 4.0)).astype(complex)
    cfg = EvolveConfig(dt=0.01)

    def solve(f):
        src = make_sources(params, gs3, None, grid, 3.0)
        _constant_a0(src, f)
        return duhamel_apply(src, None, 0.0, 1.0, cfg, which=("a0",))

    a, b, ab = solve(f1), solve(f2), solve(f1 + f2)
    diff = ab.snapshot(0).values - a.snapshot(0).values - b.snapshot(0).values
    assert np.max(np.abs(diff)) < 1e-11


def test_picard_iterates_the_duhamel_map(gs3, box):
    # one more Duhamel application to the third iterate is the fourth iterate
    horizon = 2.0
    _, traj3, _ = run_picard(gs3, box, 8.0, n_iters=3, horizon=horizon)
    _, traj4, _ = run_picard(gs3, box, 8.0, n_iters=4, horizon=horizon)
    assert not np.array_equal(traj3.snapshot(0).values, traj4.snapshot(0).values)
    src, _ = sources_at(gs3, box, 8.0)
    before = traj3.rows.tobytes()
    step = duhamel_apply(src, traj3, 0.5, 0.5 + horizon / (DELTA * 8.0),
                         EvolveConfig(dt=0.004))
    assert traj3.rows.tobytes() == before   # the sweep wrote into a copy
    assert np.array_equal(step.times, traj4.times)
    for got, want in zip(map(step.snapshot, range(len(step))),
                         map(traj4.snapshot, range(len(traj4)))):
        assert np.array_equal(got.values, want.values)


def test_sweeps_norms_and_residual_build_no_field(gs3, box, monkeypatch):
    # a trajectory keeps active vectors; only its snapshot(k) makes a Field
    made, init = [], Field.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Field, "__init__", counted)
    _one_core(monkeypatch)     # both bands in this process, where the count is
    _, traj, cfg = run_picard(gs3, box, 8.0, n_iters=3, horizon=1.0)
    src, _ = sources_at(gs3, box, 8.0)
    step = duhamel_apply(src, traj, 0.5, 0.5 + 1.0 / (DELTA * 8.0), EvolveConfig(dt=0.004))
    e_norm(step, cfg)
    nls_residual(step)
    assert made == []
    traj.snapshot(0)
    assert made == [1]


# -------------------------------------------------------------------- e_norm

def test_enorm_zero(box):
    grid, _ = box
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(2.0,), T0=0.0)
    ts = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(grid=grid, times=ts, rows=[to_active(Field.zeros(grid))] * 3,
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
    traj = Trajectory(grid=grid, times=np.array([t0]), rows=[to_active(u)], conservation=[],
                      p=3.0)
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
             for t, r in zip(traj.times, map(traj.snapshot, range(len(traj))))]
    full = Trajectory(grid=grid, times=traj.times, rows=[to_active(u) for u in snaps],
                      conservation=[], p=3.0)
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
    traj = Trajectory(grid=grid, times=np.array([-1e4]), rows=[to_active(huge)],
                      conservation=[], p=3.0)
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


# ------------------------------------------------------------ two processes

def _forks(monkeypatch):
    """Record the pids os.fork returns in this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _one_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _two_cores():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("picard forks its worker only with two usable cores")


def _one_page_pipes(monkeypatch):
    """Every os.pipe made from here on holds one 4 kB page."""
    pipe = os.pipe

    def small():
        r, w = pipe()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 12)
        return r, w

    monkeypatch.setattr(os, "pipe", small)


def _picard_bytes(rep, traj):
    """Every number of the report (repr keeps the float types) and every
    snapshot, as bytes."""
    numbers = (rep.iterate_norms, rep.diff_norms, rep.contraction_ratios,
               sorted(rep.j_norms.items()), rep.final_residual, rep.tail_criterion,
               rep.converged, rep.non_contracting)
    return repr(numbers), traj.times.tobytes(), [traj.snapshot(k).values.tobytes() for k in range(len(traj))]


def _feedback_rows(monkeypatch):
    """Record the mesh rows at which this process evaluates a forcing with
    feedback (the first sweep's is a0 alone)."""
    rows, source = [], fp_mod._MeshSources.source

    def recorded(mesh, which, iterate):
        at = source(mesh, which, iterate)

        def at_k(k):
            if iterate is not None:
                rows.append(k)
            return at(k)

        return at_k

    monkeypatch.setattr(fp_mod._MeshSources, "source", recorded)
    return rows


@pytest.mark.parametrize("v, horizon, j_diag", [(8.0, 4.0, True), (8.0, 4.0, False),
                                               (2.0, 3.0, False)],
                         ids=["contracting-J", "contracting", "non-contracting"])
def test_picard_on_two_cores_is_the_one_core_picard_bit_for_bit(gs3, box, monkeypatch,
                                                               v, horizon, j_diag):
    # on two cores the caller evaluates the forcing at its own rows only,
    # the upper band: the worker puts its band's into the shared iterate
    _two_cores()
    pids = _forks(monkeypatch)
    here = _feedback_rows(monkeypatch)
    rep, traj, _ = run_picard(gs3, box, v, n_iters=5, horizon=horizon, j_diag=j_diag)
    assert len(pids) == 1
    lo = fp_mod._lower_rows(len(traj))
    assert here and min(here) == lo
    here.clear()
    _one_core(monkeypatch)
    rep1, traj1, _ = run_picard(gs3, box, v, n_iters=5, horizon=horizon, j_diag=j_diag)
    assert len(pids) == 1
    assert min(here) == 0
    assert rep.non_contracting == (v == 2.0)
    assert _picard_bytes(rep, traj) == _picard_bytes(rep1, traj1)


def test_picard_on_one_core_forks_nothing(gs3, box, monkeypatch):
    _one_core(monkeypatch)
    pids = _forks(monkeypatch)
    run_picard(gs3, box, 8.0, n_iters=3, horizon=1.0)
    assert pids == []


def _short_picard(gs3, box):
    """picard at v = 8 on 376 mesh times, 0.5 <= t <= 2; the mesh's times."""
    src, _ = sources_at(gs3, box, 8.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    return (lambda: picard(src, 0.5, 2.0, cfg, 4, EvolveConfig(dt=0.004),
                           j_diagnostics=False)), src, _time_mesh(0.5, 2.0, 0.004)[0]


def _error_of(run):
    with pytest.raises(Exception) as exc:
        run()
    return type(exc.value), str(exc.value)


def _nan_forcing_at(monkeypatch, row, feedback_only=False):
    """Every sweep's forcing NaN at one mesh row (only those of the sweeps
    after the first, with feedback_only): its CN solve fails there."""
    source = fp_mod._MeshSources.source

    def poisoned(mesh, which, rows):
        at = source(mesh, which, rows)
        if feedback_only and rows is None:
            return at
        return lambda k: at(k) * (np.nan if k == row else 1.0)

    monkeypatch.setattr(fp_mod._MeshSources, "source", poisoned)


@pytest.mark.parametrize("later_solve_error", [False, True],
                         ids=["alone", "before-a-solve-error"])
def test_norm_error_in_the_worker_is_the_serial_error(gs3, box, monkeypatch,
                                                      later_solve_error):
    # a NaN weight at row 300 fails the first sweep's norm there; a NaN
    # forcing at row 100 fails its CN solve later in the same sweep, so the
    # serial loop raises the norm error first
    _two_cores()
    run, _, ts = _short_picard(gs3, box)
    weight = fp_mod._ENorm.weight
    monkeypatch.setattr(fp_mod._ENorm, "weight",
                        lambda norm, t: np.nan if t == ts[300] else weight(norm, t))
    if later_solve_error:
        _nan_forcing_at(monkeypatch, 100)
    forked = _error_of(run)
    _one_core(monkeypatch)
    assert forked == _error_of(run)
    assert forked[0] is FixedPointError
    assert forked[1] == "non-finite weighted norm [nan] (weight nan)"


def _cn_steps(monkeypatch):
    """Count the CN steps this process takes."""
    steps, linear_step = [], fp_mod.CrankNicolsonStepper.linear_step

    def counted(stepper, vec, forcing=None):
        steps.append(1)
        return linear_step(stepper, vec, forcing)

    monkeypatch.setattr(fp_mod.CrankNicolsonStepper, "linear_step", counted)
    return steps


@pytest.mark.parametrize("band", ["lower", "upper"])
def test_nan_forcing_in_either_band_is_the_serial_error_at_its_row(gs3, box, monkeypatch,
                                                                  band):
    # the caller marches every row, so its CN steps up to the error are the
    # serial loop's; a row in the lower band is the worker's forcing
    _two_cores()
    run, _, ts = _short_picard(gs3, box)
    nt = len(ts)
    lo = fp_mod._lower_rows(nt)
    row = lo // 2 if band == "lower" else (lo + nt) // 2
    _nan_forcing_at(monkeypatch, row, feedback_only=True)
    steps = _cn_steps(monkeypatch)
    forked = _error_of(run), len(steps)
    steps.clear()
    _one_core(monkeypatch)
    assert forked == (_error_of(run), len(steps))
    assert forked[0] == (LinearSolveError, "non-finite CN right-hand side (norm nan)")
    # the second sweep fails at the step into the row
    assert forked[1] == (nt - 1) + (nt - 1 - row)


def _long_picard(gs3):
    """picard at v = 8 on 124 active points and 1,501 mesh times, 0.5 <= t
    <= 2: 188 frames of 8 rows a sweep, 4.5 kB, more than a 4 kB page."""
    grid = build_grid(1, 40.0, 127, Obstacle("ball", 1.0))
    params = SolitonParams(omega=1.0, v=(8.0,), p=3.0)
    src = make_sources(params, gs3, build_cutoff(grid, 1.5, 3.0), grid, 3.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    return lambda: picard(src, 0.5, 2.0, cfg, 3, EvolveConfig(dt=0.001),
                          j_diagnostics=True)


@pytest.mark.parametrize("fail, frames", [(False, False), (True, False), (False, True)],
                         ids=["clean", "nan-in-the-worker-band", "frames-alone-overfill-a-page"])
def test_bands_far_longer_than_the_pipes_do_not_hang(gs3, box, monkeypatch, fail, frames):
    # pipes of one 4 kB page.  With a NaN forcing in the worker's band the
    # caller stops its sweep with seven rows kept but not yet in a frame.
    # On the long mesh one sweep's frames alone fill the pipe, and the
    # caller blocks on a write until the worker reads
    _two_cores()
    _one_page_pipes(monkeypatch)
    src, _ = sources_at(gs3, box, 8.0)
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    nt = len(_time_mesh(0.5, 2.0, 0.004)[0])
    if fail:
        _nan_forcing_at(monkeypatch, nt - 1 - (8 * 20 + 7), feedback_only=True)
    picard_run = _long_picard(gs3) if frames else (
        lambda: picard(src, 0.5, 2.0, cfg, 3, EvolveConfig(dt=0.004), j_diagnostics=True))

    def run():
        try:
            return _picard_bytes(*picard_run())
        except LinearSolveError as exc:
            return str(exc)

    def hung(signum, frame):
        raise TimeoutError("picard hung on two cores")

    old = signal.signal(signal.SIGALRM, hung)
    # again every 5 s: a hung caller waits on the worker once more, in `end`
    # on its way out, and only the next alarm ends that wait too
    signal.setitimer(signal.ITIMER_REAL, 120, 5)
    try:
        forked = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    _one_core(monkeypatch)
    assert forked == run()
    assert isinstance(forked, str) == fail


def test_a_signal_while_the_caller_waits_on_the_worker_keeps_its_type(gs3, monkeypatch):
    # the worker sleeps before it builds its ansatz, so the caller fills the
    # one-page pipe with the first sweep's frames and waits on a write: an
    # alarm's TimeoutError there is not a worker that ended
    _two_cores()
    _one_page_pipes(monkeypatch)
    run = _long_picard(gs3)
    caller, build = os.getpid(), fp_mod._MeshSources.build_ansatz

    def slow(mesh, sources):
        if os.getpid() != caller:
            time.sleep(2.0)
        build(mesh, sources)

    def alarm(signum, frame):
        raise TimeoutError("the caller waited on the worker")

    monkeypatch.setattr(fp_mod._MeshSources, "build_ansatz", slow)
    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.7)
    try:
        with pytest.raises(TimeoutError, match="the caller waited on the worker"):
            run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _nan_forcing_after(monkeypatch, sweeps, log):
    """NaN forcing on the lower band, and an exception at its lowest row, in
    every sweep of all the sources with feedback after the first sweeps[0]
    of them; the calls so far.  Every forcing with feedback on the band
    appends "pid i" to the file log, the sweep's sources being _SWEEPS[i]."""
    source, calls = fp_mod._MeshSources.source, []

    def poisoned(mesh, which, rows):
        at = source(mesh, which, rows)
        if mesh.lo != 0 or rows is None:
            return at
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {fp_mod._SWEEPS.index(which)}\n")
        if which != fp_mod._ALL_SOURCES:
            return at
        calls.append(1)
        if len(calls) <= sweeps[0]:
            return at

        def nan_at(k):
            if k == mesh.lo:
                raise FloatingPointError("a forcing that no sweep reads")
            return at(k) * np.nan

        return nan_at

    monkeypatch.setattr(fp_mod._MeshSources, "source", poisoned)
    return calls


@pytest.mark.parametrize("v, horizon", [(8.0, 4.0), (2.0, 3.0)],
                         ids=["n_iters", "non-contracting"])
@pytest.mark.parametrize("j_diag", [True, False], ids=["J", "no-J"])
def test_the_forcing_of_a_sweep_that_does_not_run_is_never_read(gs3, box, monkeypatch,
                                                                tmp_path, v, horizon,
                                                                j_diag):
    # the worker computes its band's forcing of a sweep with feedback once,
    # when the caller starts the sweep: exactly one per Picard and J sweep
    # that ran, and the NaN and the exception of any Picard sweep after the
    # last reach neither the J sweeps, nor the iterate, nor the caller
    _two_cores()
    sweeps, log = [np.inf], tmp_path / "forcing.log"
    calls = _nan_forcing_after(monkeypatch, sweeps, log)

    def forcings():
        lines = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        return {int(pid) for pid, _ in lines}, [int(i) for _, i in lines]

    with monkeypatch.context() as one_core:
        _one_core(one_core)
        rep1, traj1, _ = run_picard(gs3, box, v, n_iters=5, horizon=horizon, j_diag=j_diag)
    ran = [0] * len(rep1.diff_norms) + ([1, 2, 3] if j_diag else [])
    assert len(calls) == len(rep1.diff_norms)
    assert forcings() == ({os.getpid()}, ran)
    sweeps[0] = len(calls)
    calls.clear()       # the worker counts from its fork
    rep, traj, _ = run_picard(gs3, box, v, n_iters=5, horizon=horizon, j_diag=j_diag)
    assert rep.non_contracting == (v == 2.0)
    assert len(rep.iterate_norms) < 5 if v == 2.0 else len(rep.iterate_norms) == 5
    assert _picard_bytes(rep, traj) == _picard_bytes(rep1, traj1)
    pids, worker_ran = forcings()
    assert worker_ran == ran and len(pids) == 1 and os.getpid() not in pids


@pytest.mark.parametrize("kind", [fp_mod._FIRST, fp_mod._NEXT, fp_mod._PROBE],
                         ids=["first", "next", "probe"])
def test_a_block_of_rows_is_its_rows_bit_for_bit(box, kind):
    grid, _ = box
    cfg = NormConfig("Eweighted", delta=DELTA, omega=1.0, v=(8.0,), T0=0.5)
    norm = fp_mod._ENorm(grid, cfg)
    rng = np.random.default_rng(3)
    old = rng.standard_normal((20, grid.n_active)) + 1j * rng.standard_normal((20, grid.n_active))
    new = old + 0.1 * rng.standard_normal(old.shape)
    weights = np.exp(np.linspace(0.0, 3.0, 20))
    rows, blocks = (fp_mod._SweepNorms(norm, weights, old) for _ in range(2))
    for k in range(19, -1, -1):
        rows.row(k, new[k], kind)
    for k in (19, 11, 3):    # blocks of 8, 8 and 4 rows, as a sweep sends them
        blocks.block(k, new[k::-1][:min(8, k + 1)], kind)
    assert repr(rows.end()) == repr(blocks.end())
    weights[9] = np.nan
    with pytest.raises(FixedPointError) as by_row:
        rows.row(9, new[9], kind)
    with pytest.raises(FixedPointError) as by_block:
        blocks.block(11, new[11::-1][:8], kind)
    assert str(by_block.value) == str(by_row.value)


def test_solve_error_with_no_norm_error_is_the_serial_error(gs3, box, monkeypatch):
    _two_cores()
    run, src, ts = _short_picard(gs3, box)
    ansatz = src._ansatz
    src._ansatz = lambda t: ansatz(t) * (np.nan if t == ts[100] else 1.0)
    forked = _error_of(run)
    _one_core(monkeypatch)
    assert forked == _error_of(run)
    assert forked[0] is LinearSolveError


@pytest.mark.parametrize("rows", [(100,), (300, 100)], ids=["lower", "upper-first"])
def test_ansatz_error_in_the_worker_keeps_the_serial_order(gs3, box, monkeypatch, rows):
    # the worker builds the lower band of the ansatz; an error in the upper
    # band, which the caller builds, comes first, as in the serial loop
    _two_cores()
    run, src, ts = _short_picard(gs3, box)
    ansatz = src._ansatz

    def failing(t):
        for k in rows:
            if t == ts[k]:
                raise FixedPointError(f"ansatz refused at row {k}")
        return ansatz(t)

    src._ansatz = failing
    forked = _error_of(run)
    _one_core(monkeypatch)
    assert forked == _error_of(run) == (FixedPointError, f"ansatz refused at row {rows[0]}")


@pytest.mark.parametrize("rows", [(100,), (300, 100)], ids=["lower", "upper-first"])
def test_a0_error_in_the_worker_keeps_the_serial_order(gs3, box, monkeypatch, rows):
    # the worker's a0 fails before the first sweep's forcing is in place:
    # the sweep runs on the band's zero rows and its end raises the error.
    # An error in the upper band's a0, which the caller builds first as the
    # serial loop does, comes before it
    _two_cores()
    run, src, ts = _short_picard(gs3, box)
    a0_pass = src._a0_pass

    def failing(t):
        for k in rows:
            if np.any(t == ts[k]):
                raise FixedPointError(f"a0 refused at row {k}")
        return a0_pass(t)

    src._a0_pass = failing
    forked = _error_of(run)
    _one_core(monkeypatch)
    assert forked == _error_of(run) == (FixedPointError, f"a0 refused at row {rows[0]}")


def test_a_worker_killed_mid_sweep_is_a_fixed_point_error(gs3, box, monkeypatch):
    # the worker takes 47 blocks of rows a sweep: the 60th is in the second
    _two_cores()
    run, _, _ = _short_picard(gs3, box)
    calls, block = [], fp_mod._SweepNorms.block

    def die(norms, k, vecs, kind):
        calls.append(k)
        if len(calls) == 60:
            os.kill(os.getpid(), signal.SIGKILL)
        block(norms, k, vecs, kind)

    monkeypatch.setattr(fp_mod._SweepNorms, "block", die)
    with pytest.raises(FixedPointError, match="the Picard worker ended"):
        run()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_the_forcing_leaves_no_child(gs3, box, monkeypatch, error):
    # the worker's 40th a2 call (the forcing takes 8 rows a call, so 29
    # calls a sweep on its band) raises in its second sweep with feedback
    _two_cores()
    run, _, _ = _short_picard(gs3, box)
    caller, calls, a2 = os.getpid(), [], fp_mod._FEEDBACK["a2"]

    def failing(R, r, p):
        calls.append(1)
        if os.getpid() != caller and len(calls) == 40:
            raise error("in the forcing")
        return a2(R, r, p)

    monkeypatch.setitem(fp_mod._FEEDBACK, "a2", failing)
    pids = _forks(monkeypatch)
    with pytest.raises(error, match="in the forcing"):
        run()
    assert len(pids) == 1


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
