"""Finite-difference grids on a box with an excised convex obstacle.

The domain is the box [-L, L]^d minus a centered ball (interval in 1d) of
radius ``a``.  Lattice points sit strictly inside the box, x_i = -L + (i+1) h
with h = 2L/(n+1), so the box faces themselves carry the Dirichlet zero.
Points inside the obstacle are masked out; fields are stored as full lattice
arrays that are identically zero on masked points, which realizes the
zero-extension across the obstacle boundary.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

TWO_PI = 2.0 * np.pi


def cis(theta: np.ndarray) -> np.ndarray:
    """cos theta + i sin theta for a real array.

    Bit for bit np.exp(1j * theta), and cheaper: the real part of that
    exponent is +-0, so the complex exponential reduces to the same cos and
    sin.
    """
    out = np.empty(np.shape(theta), dtype=complex)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def physical_memory() -> int:
    """Bytes of physical memory, against which array sizes are refused."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class PreconditionError(Exception):
    """Marker for errors in the caller's arguments, as opposed to numerical
    failures.  A module's error class gains it through a subclass; the CLI
    maps it to exit code 2 and every other exception to exit code 3."""


class GridError(ValueError, PreconditionError):
    pass


class GridMismatchError(GridError):
    pass


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
        spacing = 2.0 * float(half_width) / (int(n) + 1)
        h2 = spacing * spacing
        if not (half_width > 0.0 and 0.0 < h2 * h2 and h2 < np.inf):
            raise GridError(f"need L > 0, h^2 < inf and h^4 > 0 (the composed operators "
                            f"of `linearized` divide by h^4), got L={half_width}")
        if 16 * int(n) ** dim > physical_memory():
            raise GridError(f"a {n}^{dim} lattice of complex values needs "
                            f"{16 * int(n) ** dim / 1e9:.3g} GB, above physical memory")
        a = obstacle.a if obstacle.kind == "ball" else 0.0
        if half_width <= a:
            raise GridError("obstacle swallows domain: L <= a")
        if a > 0.0 and half_width <= 4.0 * a:
            raise GridError("box too small: need L > 4 a")
        self.dim = dim
        self.half_width = float(half_width)
        self.n = int(n)
        self.obstacle = obstacle
        self.spacing = spacing
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
        self._boost_phases = {}

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

    def boost_phase(self, v) -> np.ndarray:
        """The lattice phase sum_k v_k x_k / 2 of a boost by v, read-only.

        Built once per v on this grid and shared by every caller.
        """
        key = tuple(float(c) for c in v)
        phi = self._boost_phases.get(key)
        if phi is None:
            phi = np.zeros((self.n,) * self.dim)
            for k in range(self.dim):
                phi = phi + 0.5 * key[k] * self.coordinate(k)
            phi.setflags(write=False)
            self._boost_phases[key] = phi
        return phi

    @functools.cached_property
    def stencil(self) -> ActiveStencil:
        """The lattice operators of this grid, built on first use."""
        return ActiveStencil(self)

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
            raise FloatingPointError("field contains non-finite values")
        v = np.where(grid.mask, values, 0.0 + 0.0j)
        self.grid = grid
        self.values = v

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros((grid.n,) * grid.dim, dtype=np.complex128))

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

    def _check(self, other):
        if not isinstance(other, Field) or other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")


def laplacian_dirichlet(u: Field) -> Field:
    """Second-order 2d+1 point Laplacian with zero extension across the mask."""
    return Field(u.grid, u.grid.stencil.laplacian(to_active(u)[None])[0])


def gradient(u: Field):
    """Centered differences, falling back to one-sided at mask/box edges."""
    return tuple(Field(u.grid, c[0])
                 for c in u.grid.stencil.gradient(to_active(u)[None]))


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
    return float(u.grid.stencil.h1_l2(to_active(u)[None])[0][0])


def h2_norm(u: Field) -> float:
    return float(u.grid.stencil.h2_l2(to_active(u)[None])[0][0])


@dataclass(frozen=True)
class NormConfig:
    """The rate data of the E-weighted norm (`fixedpoint.e_norm`).

    ``which`` and ``T0`` are read by nothing; the benchmark workloads pass them.
    """

    which: str = "L2"
    delta: float = 0.0
    omega: float = 1.0
    v: tuple = (0.0,)
    T0: float = 0.0

    def speed(self) -> float:
        return float(np.linalg.norm(self.v))


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
    """The lattice Laplacian, gradient and H1/H2/L2 norms of active vectors.

    A stack is a (k, n_active) array, one vector per row.  Each row is
    zero-extended to the lattice (zero on the obstacle and beyond the box
    faces) before the stencil reads its neighbors.  `laplacian_dirichlet`,
    `gradient`, `h1_norm` and `h2_norm` are this class applied to one row,
    through the grid's `Grid.stencil`.  The gradient is centered, one-sided
    where only one neighbor is active, and zero where neither is; the points
    of each kind are found once, from the mask, when the stencil is built.
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
        """The 2d+1 point Laplacian of each row, zero on the obstacle, as
        lattice arrays (k, n, ..., n)."""
        return self._laplacian(self._padded(vecs))

    def _laplacian(self, pad):
        g = self.grid
        out = pad[self._inner] * (-2.0 * g.dim)
        for ax in range(g.dim):
            out += pad[self._neighbor(ax, -1)]
            out += pad[self._neighbor(ax, +1)]
        out *= 1.0 / g.spacing**2
        out[self._off] = 0.0
        return out

    def gradient(self, vecs: np.ndarray) -> np.ndarray:
        """The gradient of each row, as lattice arrays (dim, k, n, ..., n)."""
        return self._gradient(self._padded(vecs))

    def _gradient(self, pad):
        h = self.grid.spacing
        v = pad[self._inner]
        out = np.empty((self.grid.dim,) + v.shape, dtype=np.complex128)
        for ax, (right, left, zero) in enumerate(self._onesided):
            vp, vm = pad[self._neighbor(ax, +1)], pad[self._neighbor(ax, -1)]
            d = out[ax]
            np.subtract(vp, vm, out=d)
            d *= 1.0 / (2.0 * h)
            d[right] = (vp[right] - v[right]) * (1.0 / h)
            d[left] = (v[left] - vm[left]) * (1.0 / h)
            d[zero] = 0.0
        return out

    def _h1_sums(self, pad):
        """Per row: sum |u|^2, and that plus sum |d_k u|^2 over every axis k."""
        u2 = _row_sums(pad[self._inner])
        return u2, u2 + sum(_row_sums(comp) for comp in self._gradient(pad))

    def h1_l2(self, vecs: np.ndarray):
        """(h1_norm, l2_norm) of each row, as two arrays of length k."""
        u2, h1sq = self._h1_sums(self._padded(vecs))
        vol = self.grid.cell_volume()
        return np.sqrt(h1sq * vol), np.sqrt(u2) * np.sqrt(vol)

    def h2_l2(self, vecs: np.ndarray):
        """(h2_norm, l2_norm) of each row, as two arrays of length k."""
        pad = self._padded(vecs)
        u2, h1sq = self._h1_sums(pad)
        vol = self.grid.cell_volume()
        return (np.sqrt((h1sq + _row_sums(self._laplacian(pad))) * vol),
                np.sqrt(u2) * np.sqrt(vol))


def _row_sums(arrays):
    """sum |a|^2 over each of a stack of lattice arrays."""
    return np.sum((np.abs(arrays) ** 2).reshape(len(arrays), -1), axis=-1)


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
    """Read a field written by `save_field`; a bad file raises GridError."""
    try:
        raw = Path(path).read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl].decode("utf-8"))
        grid = grid_from_header(header)
        vals = np.frombuffer(raw[nl + 1:], dtype="<c8", count=grid.n**grid.dim)
        u = Field(grid, vals.astype(np.complex128).reshape((grid.n,) * grid.dim))
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            FloatingPointError) as exc:
        raise GridError(f"cannot read a field from {path}: {exc}") from exc
    return u, header
