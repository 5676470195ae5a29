"""Finite-difference grids on a box with an excised convex obstacle.

The domain is the box [-L, L]^d minus a centered ball (interval in 1d) of
radius ``a``.  Lattice points sit strictly inside the box, x_i = -L + (i+1) h
with h = 2L/(n+1), so the box faces themselves carry the Dirichlet zero.
Points inside the obstacle are masked out; fields are stored as full lattice
arrays that are identically zero on masked points, which realizes the
zero-extension across the obstacle boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    pass


class GridMismatchError(GridError):
    pass


class PreconditionError(Exception):
    """Marker for errors in the caller's arguments, as opposed to numerical
    failures.  A module's error class gains it through a subclass; the CLI
    maps it to exit code 2 whatever the module's base class is."""


@dataclass(frozen=True)
class Obstacle:
    """Centered ball (interval for d=1) of radius a, or nothing."""

    kind: str = "none"  # "none" | "ball"
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "ball"):
            raise GridError(f"unknown obstacle kind {self.kind!r}")
        if self.kind == "ball" and not self.a > 0.0:
            raise GridError("obstacle radius must be positive")


class Grid:
    """Uniform lattice on (-L, L)^d with an interior mask for the obstacle."""

    def __init__(self, dim: int, half_width: float, n: int, obstacle: Obstacle):
        if dim not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {dim}")
        if n < 16:
            raise GridError(f"need n >= 16 points per axis, got {n}")
        if not half_width > 0.0:
            raise GridError("half_width must be positive")
        a = obstacle.a if obstacle.kind == "ball" else 0.0
        if half_width <= a:
            raise GridError("obstacle swallows domain: L <= a")
        if a > 0.0 and half_width <= 4.0 * a:
            raise GridError("box too small: need L > 4 a")
        self.dim = dim
        self.half_width = float(half_width)
        self.n = int(n)
        self.obstacle = obstacle
        self.spacing = 2.0 * self.half_width / (self.n + 1)
        if a > 0.0 and (self.half_width - a) / self.spacing < 8.0:
            raise GridError("fewer than 8 interior points per axis outside obstacle")
        axis = -self.half_width + self.spacing * np.arange(1, self.n + 1)
        self.axes = tuple(axis.copy() for _ in range(dim))
        if a > 0.0:
            self.mask = self.radius() > a
        else:
            self.mask = np.ones((self.n,) * dim, dtype=bool)
        self.mask.setflags(write=False)
        self.n_active = int(self.mask.sum())

    def radius(self, center=None) -> np.ndarray:
        """Distance of every lattice point from ``center`` (default origin)."""
        if center is None:
            center = np.zeros(self.dim)
        center = np.asarray(center, dtype=float)
        r2 = np.zeros((self.n,) * self.dim)
        for k in range(self.dim):
            shape = [1] * self.dim
            shape[k] = self.n
            r2 = r2 + (self.axes[k] - center[k]).reshape(shape) ** 2
        return np.sqrt(r2)

    def coordinate(self, k: int) -> np.ndarray:
        """k-th coordinate broadcast to the full lattice shape."""
        shape = [1] * self.dim
        shape[k] = self.n
        return np.broadcast_to(self.axes[k].reshape(shape), (self.n,) * self.dim)

    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def descriptor(self) -> tuple:
        return (self.dim, self.half_width, self.n, self.obstacle.kind, self.obstacle.a)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return (f"Grid(dim={self.dim}, L={self.half_width}, n={self.n}, "
                f"obstacle={self.obstacle.kind}, a={self.obstacle.a})")


def build_grid(dim: int, half_width: float, n: int, obstacle: Obstacle | None = None) -> Grid:
    return Grid(dim, half_width, n, obstacle or Obstacle())


class Field:
    """Complex lattice function, zero on masked points and outside the box."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.n,) * grid.dim:
            raise GridError(f"values shape {values.shape} does not match grid")
        if not np.all(np.isfinite(values)):
            raise GridError("field contains non-finite values")
        v = np.where(grid.mask, values, 0.0 + 0.0j)
        self.grid = grid
        self.values = v

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros((grid.n,) * grid.dim, dtype=np.complex128))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c):
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def conj(self) -> "Field":
        return Field(self.grid, np.conj(self.values))

    def _check(self, other):
        if not isinstance(other, Field) or other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")


def _shifted(values: np.ndarray, axis: int, step: int) -> np.ndarray:
    """values translated by ``step`` cells along ``axis`` with zero fill."""
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if step > 0:
        src[axis] = slice(None, -step)
        dst[axis] = slice(step, None)
    elif step < 0:
        src[axis] = slice(-step, None)
        dst[axis] = slice(None, step)
    else:
        return values.copy()
    out[tuple(dst)] = values[tuple(src)]
    return out


def laplacian_dirichlet(u: Field) -> Field:
    """Second-order 2d+1 point Laplacian with zero extension across the mask."""
    g = u.grid
    v = u.values
    out = (-2.0 * g.dim) * v
    for ax in range(g.dim):
        out = out + _shifted(v, ax, 1) + _shifted(v, ax, -1)
    out = out / g.spacing**2
    return Field(g, out)


def gradient(u: Field):
    """Centered differences, falling back to one-sided at mask/box edges."""
    g = u.grid
    v = u.values
    m = g.mask
    h = g.spacing
    comps = []
    for ax in range(g.dim):
        vp = _shifted(v, ax, -1)   # value of right neighbor
        vm = _shifted(v, ax, 1)    # value of left neighbor
        mp = _shifted(m.astype(np.int8), ax, -1).astype(bool)
        mm = _shifted(m.astype(np.int8), ax, 1).astype(bool)
        d = (vp - vm) / (2.0 * h)
        d = np.where(mp & ~mm, (vp - v) / h, d)
        d = np.where(~mp & mm, (v - vm) / h, d)
        d = np.where(~mp & ~mm, 0.0, d)
        comps.append(Field(g, d))
    return tuple(comps)


def l2_dot(u: Field, w: Field) -> complex:
    """Complex L2 pairing  sum u conj(w) h^d."""
    u._check(w)
    return complex(np.vdot(w.values, u.values)) * u.grid.cell_volume()


def real_inner(u: Field, w: Field) -> float:
    """Real L2 pairing  Re sum u conj(w) h^d."""
    return l2_dot(u, w).real


def l2_norm(u: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(u.values) ** 2)) * np.sqrt(u.grid.cell_volume()))


def h1_norm(u: Field) -> float:
    s = sum(np.sum(np.abs(c.values) ** 2) for c in gradient(u))
    return float(np.sqrt((np.sum(np.abs(u.values) ** 2) + s) * u.grid.cell_volume()))


def h2_norm(u: Field) -> float:
    lap = laplacian_dirichlet(u)
    s = sum(np.sum(np.abs(c.values) ** 2) for c in gradient(u))
    tot = np.sum(np.abs(u.values) ** 2) + s + np.sum(np.abs(lap.values) ** 2)
    return float(np.sqrt(tot * u.grid.cell_volume()))


@dataclass(frozen=True)
class NormConfig:
    """Selects one of the discrete norms; E-weighted needs the rate data."""

    which: str = "L2"  # L2 | H1 | H2 | Eweighted
    delta: float = 0.0
    omega: float = 1.0
    v: tuple = (0.0,)
    T0: float = 0.0

    def speed(self) -> float:
        return float(np.linalg.norm(self.v))


def norm_value(u: Field, cfg: NormConfig, t: float = 0.0) -> float:
    if cfg.which == "L2":
        return l2_norm(u)
    if cfg.which == "H1":
        return h1_norm(u)
    if cfg.which == "H2":
        return h2_norm(u)
    if cfg.which == "Eweighted":
        s = cfg.speed()
        if s <= 0:
            raise GridError("E-weighted norm needs |v| > 0")
        w = np.exp(cfg.delta * np.sqrt(cfg.omega) * s * t)
        return w * (h2_norm(u) / s**3 + l2_norm(u))
    raise GridError(f"unknown norm {cfg.which!r}")


class CutoffPsi:
    """C^2 radial ramp: 0 inside R1, 1 outside R2, quintic smoothstep between.

    Gradient and Laplacian are evaluated from the closed-form derivatives of
    the ramp, never by differencing.
    """

    def __init__(self, grid: Grid, R1: float, R2: float):
        a = grid.obstacle.a
        if not (a < R1 < R2 < grid.half_width / 2.0):
            raise GridError(f"need a < R1 < R2 < L/2, got a={a}, R1={R1}, R2={R2}")
        self.grid = grid
        self.R1 = float(R1)
        self.R2 = float(R2)
        r = grid.radius()
        width = self.R2 - self.R1
        s = np.clip((r - self.R1) / width, 0.0, 1.0)
        self.psi = s**3 * (6.0 * s**2 - 15.0 * s + 10.0)
        dpsi_dr = 30.0 * s**2 * (1.0 - s) ** 2 / width
        d2psi_dr2 = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / width**2
        ramp = (r > self.R1) & (r < self.R2)
        dpsi_dr = np.where(ramp, dpsi_dr, 0.0)
        d2psi_dr2 = np.where(ramp, d2psi_dr2, 0.0)
        safe_r = np.where(r > 0, r, 1.0)
        self.grad_psi = tuple(
            dpsi_dr * grid.coordinate(k) / safe_r for k in range(grid.dim)
        )
        self.lap_psi = d2psi_dr2 + (grid.dim - 1) * dpsi_dr / safe_r

    def __call__(self) -> np.ndarray:
        return self.psi


def build_cutoff(grid: Grid, R1: float, R2: float) -> CutoffPsi:
    return CutoffPsi(grid, R1, R2)


def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse Dirichlet Laplacian over the active points, row-major order."""
    shape = (grid.n,) * grid.dim
    idx = -np.ones(shape, dtype=np.int64)
    idx[grid.mask] = np.arange(grid.n_active)
    rows, cols, vals = [], [], []
    diag = np.full(grid.n_active, -2.0 * grid.dim)
    rows.append(np.arange(grid.n_active))
    cols.append(np.arange(grid.n_active))
    vals.append(diag)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        a = idx[tuple(lo)].ravel()
        b = idx[tuple(hi)].ravel()
        ok = (a >= 0) & (b >= 0)
        a, b = a[ok], b[ok]
        ones = np.ones(a.size)
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([ones, ones])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_active, grid.n_active),
    )
    return (mat / grid.spacing**2).tocsr()


def to_active(u: Field) -> np.ndarray:
    return u.values[u.grid.mask]


def from_active(grid: Grid, vec: np.ndarray) -> Field:
    out = np.zeros((grid.n,) * grid.dim, dtype=np.complex128)
    out[grid.mask] = vec
    return Field(grid, out)


class ActiveStencil:
    """Laplacian and H2/L2 norms of stacks of active vectors.

    A stack is a (k, n_active) array, one vector per row.  Each row is
    zero-extended to the lattice and then goes through the same operations,
    in the same order, as `laplacian_dirichlet`, `gradient`, `h2_norm` and
    `l2_norm` on the corresponding Field, so the results agree bit for bit.
    (Dividing a complex array by a real scalar is the same in numpy as
    multiplying by the reciprocal, which is cheaper.)  The masks that decide
    where `gradient` falls back to one-sided differences are worked out once
    here instead of on every call.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        padded = np.pad(grid.mask, 1)
        self._scatter = np.flatnonzero(padded)
        self._inner = (slice(None),) + (slice(1, -1),) * grid.dim
        self._off = (slice(None),) + np.nonzero(~grid.mask)
        self._onesided = []   # per axis: (right-sided, left-sided, zero) points
        for ax in range(grid.dim):
            # masks of the right and left neighbors ([1:] drops the stack axis)
            mp = padded[self._neighbor(ax, +1)[1:]]
            mm = padded[self._neighbor(ax, -1)[1:]]
            self._onesided.append(tuple(
                (slice(None),) + np.nonzero(sel)
                for sel in (grid.mask & mp & ~mm, grid.mask & ~mp & mm,
                            ~grid.mask | (~mp & ~mm))))

    def _neighbor(self, ax, step):
        """Index of a padded stack that reads each point's neighbor."""
        idx = list(self._inner)
        idx[ax + 1] = slice(2, None) if step > 0 else slice(None, -2)
        return tuple(idx)

    def _padded(self, vecs):
        g = self.grid
        pad = np.zeros((len(vecs), (g.n + 2) ** g.dim), dtype=np.complex128)
        for row, vec in zip(pad, vecs):
            row[self._scatter] = vec
        return pad.reshape((len(vecs),) + (g.n + 2,) * g.dim)

    def full(self, vecs: np.ndarray) -> np.ndarray:
        """The zero-extended rows, as lattice arrays (k, n, ..., n)."""
        return self._padded(vecs)[self._inner]

    def laplacian(self, vecs: np.ndarray) -> np.ndarray:
        """`laplacian_dirichlet` of each row, as lattice arrays (k, n, ..., n)."""
        pad = self._padded(vecs)
        out = np.empty(pad[self._inner].shape, dtype=np.complex128)
        self._laplacian(pad, out)
        return out

    def _laplacian(self, pad, out):
        g = self.grid
        np.multiply(pad[self._inner], -2.0 * g.dim, out=out)
        for ax in range(g.dim):
            out += pad[self._neighbor(ax, -1)]
            out += pad[self._neighbor(ax, +1)]
        out *= 1.0 / g.spacing**2
        out[self._off] = 0.0

    def h2_l2(self, vecs: np.ndarray):
        """(h2_norm, l2_norm) of each row, as two arrays of length k."""
        g = self.grid
        k = len(vecs)
        pad = self._padded(vecs)
        v = pad[self._inner]
        # slot 0: u, slots 1..dim: gradient components, last slot: Laplacian
        parts = np.empty((g.dim + 2,) + v.shape, dtype=np.complex128)
        parts[0] = v
        for ax, (right, left, zero) in enumerate(self._onesided):
            vp, vm = pad[self._neighbor(ax, +1)], pad[self._neighbor(ax, -1)]
            d = parts[1 + ax]
            np.subtract(vp, vm, out=d)
            d *= 1.0 / (2.0 * g.spacing)
            d[right] = (vp[right] - v[right]) * (1.0 / g.spacing)
            d[left] = (v[left] - vm[left]) * (1.0 / g.spacing)
            d[zero] = 0.0
        self._laplacian(pad, parts[-1])
        sums = np.sum((np.abs(parts) ** 2).reshape(g.dim + 2, k, -1), axis=-1)
        s = 0
        for ax in range(g.dim):
            s = s + sums[1 + ax]
        tot = sums[0] + s + sums[-1]
        vol = g.cell_volume()
        return np.sqrt(tot * vol), np.sqrt(sums[0]) * np.sqrt(vol)


# --- serialization: one JSON header line, then little-endian complex64 ------

def grid_header(grid: Grid, cutoff: CutoffPsi | None = None) -> dict:
    return {
        "dim": grid.dim,
        "L": grid.half_width,
        "n": grid.n,
        "obstacle_a": grid.obstacle.a if grid.obstacle.kind == "ball" else 0.0,
        "R1": cutoff.R1 if cutoff is not None else None,
        "R2": cutoff.R2 if cutoff is not None else None,
    }


def grid_from_header(header: dict) -> Grid:
    a = header.get("obstacle_a", 0.0) or 0.0
    obstacle = Obstacle("ball", a) if a > 0 else Obstacle()
    return Grid(header["dim"], header["L"], header["n"], obstacle)


def save_field(path, u: Field, cutoff: CutoffPsi | None = None) -> None:
    header = grid_header(u.grid, cutoff)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(np.ascontiguousarray(u.values, dtype="<c8").tobytes())


def load_field(path) -> tuple[Field, dict]:
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode("utf-8"))
    grid = grid_from_header(header)
    count = grid.n**grid.dim
    vals = np.frombuffer(raw[nl + 1:], dtype="<c8", count=count)
    vals = vals.astype(np.complex128).reshape((grid.n,) * grid.dim)
    return Field(grid, vals), header
