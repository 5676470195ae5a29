import numpy as np
import pytest

import nlslab.grid as grid_mod
from nlslab.grid import (
    ActiveStencil,
    CutoffPsi,
    Field,
    GridError,
    GridMismatchError,
    Obstacle,
    build_cutoff,
    build_grid,
    gradient,
    grid_header,
    h1_norm,
    h2_norm,
    l2_norm,
    laplacian_dirichlet,
    laplacian_matrix,
    load_field,
    real_inner,
    save_field,
    to_active,
)


def random_field(grid, rng):
    v = rng.standard_normal((grid.n,) * grid.dim) + 1j * rng.standard_normal((grid.n,) * grid.dim)
    return Field(grid, v)


# --- reference oracle: the stencil written out on full lattice arrays ------

def _shifted(values, axis, step):
    """values translated by ``step`` cells along ``axis`` with zero fill."""
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if step > 0:
        src[axis] = slice(None, -step)
        dst[axis] = slice(step, None)
    else:
        src[axis] = slice(-step, None)
        dst[axis] = slice(None, step)
    out[tuple(dst)] = values[tuple(src)]
    return out


def reference_laplacian(u):
    g, v = u.grid, u.values
    out = (-2.0 * g.dim) * v
    for ax in range(g.dim):
        out = out + _shifted(v, ax, 1) + _shifted(v, ax, -1)
    return np.where(g.mask, out / g.spacing**2, 0.0)


def reference_gradient(u):
    g, v, m, h = u.grid, u.values, u.grid.mask, u.grid.spacing
    comps = []
    for ax in range(g.dim):
        vp, vm = _shifted(v, ax, -1), _shifted(v, ax, 1)
        mp = _shifted(m.astype(np.int8), ax, -1).astype(bool)
        mm = _shifted(m.astype(np.int8), ax, 1).astype(bool)
        d = (vp - vm) / (2.0 * h)
        d = np.where(mp & ~mm, (vp - v) / h, d)
        d = np.where(~mp & mm, (v - vm) / h, d)
        d = np.where(~mp & ~mm, 0.0, d)
        comps.append(np.where(m, d, 0.0))
    return comps


def reference_h1_h2(u):
    s = sum(np.sum(np.abs(c) ** 2) for c in reference_gradient(u))
    u2 = np.sum(np.abs(u.values) ** 2)
    lap2 = np.sum(np.abs(reference_laplacian(u)) ** 2)
    vol = u.grid.cell_volume()
    return float(np.sqrt((u2 + s) * vol)), float(np.sqrt((u2 + s + lap2) * vol))


# ---------------------------------------------------------------- build_grid

def test_interval_obstacle_mask():
    g = build_grid(1, 40.0, 4095, Obstacle("ball", 1.0))
    x = g.axes[0]
    assert np.array_equal(g.mask, np.abs(x) > 1.0)
    assert g.spacing == pytest.approx(80.0 / 4096)


def test_no_obstacle_all_active():
    g = build_grid(1, 40.0, 4095)
    assert g.mask.all()
    assert g.n_active == 4095


def test_disk_obstacle_count_matches_brute_force():
    g = build_grid(2, 20.0, 255, Obstacle("ball", 1.0))
    x = g.axes[0]
    xx, yy = np.meshgrid(x, x, indexing="ij")
    brute = int(np.sum(np.hypot(xx, yy) > 1.0))
    assert g.n_active == brute


def test_rejections():
    with pytest.raises(GridError):
        build_grid(1, 0.5, 64, Obstacle("ball", 1.0))  # L <= a
    with pytest.raises(GridError):
        build_grid(1, 10.0, 8)  # n < 16
    with pytest.raises(GridError):
        build_grid(1, 3.0, 64, Obstacle("ball", 1.0))  # L <= 4a


def test_lattice_above_physical_memory_is_refused(monkeypatch):
    # 32^3 complex values are 524288 bytes: refused above, built at that size
    monkeypatch.setattr(grid_mod, "physical_memory", lambda: 524287)
    with pytest.raises(GridError, match="above physical memory"):
        build_grid(3, 10.0, 32)
    monkeypatch.setattr(grid_mod, "physical_memory", lambda: 524288)
    assert build_grid(3, 10.0, 32).n_active == 32**3


# ------------------------------------------------------- laplacian_dirichlet

def test_laplacian_eigenvector_1d():
    g = build_grid(1, 10.0, 255)
    L, h = g.half_width, g.spacing
    x = g.axes[0]
    for k in (1, 3, 17):
        u = Field(g, np.sin(k * np.pi * (x + L) / (2 * L)).astype(complex))
        lam = -(4.0 / h**2) * np.sin(k * np.pi * h / (4 * L)) ** 2
        out = laplacian_dirichlet(u)
        assert np.max(np.abs(out.values - lam * u.values)) < 1e-10 * abs(lam)


def test_laplacian_zero_and_symmetry():
    g = build_grid(2, 6.0, 31, Obstacle("ball", 0.8))
    assert l2_norm(laplacian_dirichlet(Field.zeros(g))) == 0.0
    rng = np.random.default_rng(7)
    u, w = random_field(g, rng), random_field(g, rng)
    a = real_inner(laplacian_dirichlet(u), w)
    b = real_inner(u, laplacian_dirichlet(w))
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_laplacian_negative_semidefinite():
    g = build_grid(1, 6.0, 127, Obstacle("ball", 0.7))
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = random_field(g, rng)
        assert real_inner(laplacian_dirichlet(u), u) <= 1e-12


def test_laplacian_matrix_matches_operator():
    g = build_grid(2, 5.0, 24, Obstacle("ball", 0.9))
    rng = np.random.default_rng(5)
    u = random_field(g, rng)
    mat = laplacian_matrix(g)
    direct = to_active(laplacian_dirichlet(u))
    assert np.allclose(mat @ to_active(u), direct, atol=1e-12)


# ------------------------------------------------------------------ gradient

def test_gradient_linear_and_zero():
    g = build_grid(2, 8.0, 63)
    x0 = g.coordinate(0)
    u = Field(g, x0.astype(complex))
    gx, gy = gradient(u)
    inner = (slice(4, -4),) * 2
    assert np.max(np.abs(gx.values[inner] - 1.0)) < 1e-12
    assert np.max(np.abs(gy.values[inner])) < 1e-12
    assert all(l2_norm(c) == 0.0 for c in gradient(Field.zeros(g)))


def test_gradient_second_order_refinement():
    errs = []
    for n in (255, 511):
        g = build_grid(1, 10.0, n)
        x = g.axes[0]
        u = Field(g, np.exp(-(x**2)).astype(complex))
        exact = -2 * x * np.exp(-(x**2))
        (gx,) = gradient(u)
        sel = np.abs(x) < 8.0
        errs.append(np.max(np.abs(gx.values[sel].real - exact[sel])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


# ---------------------------------------------------------------- real_inner

def test_inner_norm_identities():
    g = build_grid(1, 5.0, 63)
    rng = np.random.default_rng(11)
    u = random_field(g, rng)
    assert real_inner(u, u) == pytest.approx(l2_norm(u) ** 2, rel=1e-13)
    assert abs(real_inner(u, 1j * u)) < 1e-13 * l2_norm(u) ** 2


def test_inner_matches_fine_quadrature():
    # Gaussian pair: compare the lattice sum against a much finer lattice.
    def value(n):
        g = build_grid(1, 12.0, n)
        x = g.axes[0]
        f = Field(g, (np.exp(-(x**2)) * np.exp(0.3j * x)))
        w = Field(g, (np.exp(-((x - 0.4) ** 2) / 1.7)).astype(complex))
        return real_inner(f, w), g.spacing

    coarse, h = value(255)
    fine, _ = value(8191)
    assert abs(coarse - fine) < max(1e-12, h**2)


def test_inner_grid_mismatch():
    g1 = build_grid(1, 5.0, 63)
    g2 = build_grid(1, 5.0, 64)
    with pytest.raises(GridMismatchError):
        real_inner(Field.zeros(g1), Field.zeros(g2))


def test_norm_monotone():
    g = build_grid(1, 8.0, 255)
    rng = np.random.default_rng(2)
    u = random_field(g, rng)
    assert l2_norm(u) <= h1_norm(u) <= h2_norm(u)


# -------------------------------------------------------------- build_cutoff

@pytest.fixture
def cut():
    g = build_grid(1, 20.0, 1023, Obstacle("ball", 1.0))
    return g, build_cutoff(g, 2.0, 6.0)


def test_cutoff_endpoints(cut):
    g, psi = cut
    r = np.abs(g.axes[0])
    assert np.all(psi.psi[r <= 2.0] == 0.0)
    assert np.all(psi.psi[r >= 6.0] == 1.0)
    assert np.all((psi.psi >= 0.0) & (psi.psi <= 1.0))


def test_cutoff_midpoint_slope(cut):
    # Quintic smoothstep over [R1, R2]: the slope peaks at the midpoint with
    # value (15/8)/(R2-R1).
    g, psi = cut
    x = g.axes[0]
    i = np.argmin(np.abs(x - 4.0))
    expect = 15.0 / 8.0 / (6.0 - 2.0)
    assert psi.grad_psi[0][i] == pytest.approx(expect, abs=2e-4)
    assert np.max(psi.grad_psi[0]) == pytest.approx(expect, rel=5e-4)


def test_cutoff_support(cut):
    g, psi = cut
    r = np.abs(g.axes[0])
    outside = r > 6.0
    assert np.all(psi.lap_psi[outside] == 0.0)
    assert np.all(psi.grad_psi[0][outside] == 0.0)
    assert np.all((1.0 - psi.psi)[outside] == 0.0)


def test_cutoff_rejects_bad_radii():
    g = build_grid(1, 20.0, 1023, Obstacle("ball", 1.0))
    with pytest.raises(GridError):
        build_cutoff(g, 0.5, 6.0)  # R1 <= a
    with pytest.raises(GridError):
        build_cutoff(g, 3.0, 2.0)


def test_cutoff_laplacian_consistency():
    # lap_psi from closed form vs discrete laplacian of psi, away from kinks.
    g = build_grid(1, 20.0, 4095, Obstacle("ball", 1.0))
    psi = build_cutoff(g, 2.0, 6.0)
    f = Field(g, psi.psi.astype(complex))
    num = laplacian_dirichlet(f).values.real
    x = g.axes[0]
    sel = (np.abs(x) > 2.2) & (np.abs(x) < 5.8)
    assert np.max(np.abs(num[sel] - psi.lap_psi[sel])) < 5e-4


# ------------------------------------------------------------- serialization

def test_field_roundtrip(tmp_path):
    g = build_grid(2, 6.0, 33, Obstacle("ball", 0.8))
    psi = build_cutoff(g, 1.2, 2.5)
    rng = np.random.default_rng(9)
    u = random_field(g, rng)
    path = tmp_path / "f.bin"
    save_field(path, u, psi)
    v, header = load_field(path)
    assert v.grid == g
    assert header == grid_header(g, psi)
    # storage is complex64, so roundtrip is exact at single precision
    assert np.max(np.abs(v.values - u.values)) < 1e-6 * np.max(np.abs(u.values))


def test_masked_points_stay_zero():
    g = build_grid(1, 6.0, 127, Obstacle("ball", 0.7))
    rng = np.random.default_rng(1)
    u = random_field(g, rng)
    assert np.all(u.values[~g.mask] == 0.0)
    assert np.all(laplacian_dirichlet(u).values[~g.mask] == 0.0)
    for c in gradient(u):
        assert np.all(c.values[~g.mask] == 0.0)


@pytest.mark.parametrize("dim,L,n,a", [
    (1, 40.0, 2047, 1.0),   # h a power of two
    (1, 9.0, 300, 1.3),
    (1, 20.0, 255, 0.0),
    (2, 10.0, 301, 1.5),    # more than one summation block of numpy's sum
    (3, 10.0, 31, 2.0),
])
def test_active_stencil_matches_field_operators_exactly(dim, L, n, a):
    g = build_grid(dim, L, n, Obstacle("ball", a) if a else Obstacle())
    rng = np.random.default_rng(dim * 1000 + n)
    fields = [random_field(g, rng) for _ in range(3)]
    fields.append(Field(g, 1e-3 * fields[0].values))
    stack = np.array([to_active(u) for u in fields])
    st = ActiveStencil(g)
    h2, l2 = st.h2_l2(stack)
    h1, l2_of_h1 = st.h1_l2(stack)
    assert np.array_equal(l2_of_h1, l2)
    lap = st.laplacian(stack)
    grad = st.gradient(stack)
    for k, u in enumerate(fields):
        ref_h1, ref_h2 = reference_h1_h2(u)
        ref_lap, ref_grad = reference_laplacian(u), reference_gradient(u)
        assert h2[k] == ref_h2 == h2_norm(u)
        assert h1[k] == ref_h1 == h1_norm(u)
        assert l2[k] == l2_norm(u)
        assert np.array_equal(lap[k], ref_lap)
        assert np.array_equal(laplacian_dirichlet(u).values, ref_lap)
        for ax, c in enumerate(gradient(u)):
            assert np.array_equal(grad[ax, k], ref_grad[ax])
            assert np.array_equal(c.values, ref_grad[ax])
        assert np.array_equal(st.full(stack[k:k + 1])[0], u.values)
    one_h2, one_l2 = st.h2_l2(stack[1:2])
    assert one_h2[0] == h2[1] and one_l2[0] == l2[1]
