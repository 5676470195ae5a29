"""High-velocity construction: sources, backward Duhamel sweeps, Picard loop.

The remainder r of u = R + r satisfies (exactly, by expanding the cubic)

    i r_t + lap r = A0(t) + A1(r) + A2(r) + A3(r)

with A0 the pure-ansatz forcing supported where the cutoff varies and A1..A3
the linear/quadratic/cubic feedback terms.  The Duhamel map is realized by
solving this linear inhomogeneous equation backward from a zero final state
with the Crank-Nicolson stepper; iterating it from r = 0 is the Picard loop,
and the contraction is measured rather than assumed.

For p other than 3 the nonlinearity is Taylor-split into the same A0, the
exact linear part, and a single exact remainder (slot A2, with A3 empty).

The Picard loop splits its time mesh into two bands of rows.  With two
usable cores `picard` forks a worker per call (`evolve.forked_worker`)
that shares the iterate's pages and owns the lower band, which every
backward sweep marches last.  The caller marches every row, stores it
there and sends a frame per block of rows; behind it the worker takes the
weighted norms.  Asked at a sweep's start, the worker puts that sweep's
forcing on its band into the shared rows while the caller marches its own.
Each row is computed by the same function from the same bytes as in the
serial loop, so every number keeps its bits.

`picard` and `duhamel_apply` return the remainder as an `evolve.Trajectory`
whose rows are the (nt, n_active) array the sweeps wrote; no `Field` is
built on the way, and `e_norm` reads the rows as they are.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    TWO_PI,
    Field,
    Grid,
    NormConfig,
    PreconditionError,
    cis,
    l2_norm,
    laplacian_dirichlet,
    physical_memory,
    real_inner,
    to_active,
)
from .ground_state import GroundState
from .evolve import (
    CrankNicolsonStepper,
    EvolveConfig,
    Trajectory,
    forked_worker,
    march,
    own_pages,
    receive,
    residual_norms,
    send,
    step_count,
)
from .soliton import SolitonError, SolitonParams, _check_center, ansatz
from .soliton import soliton_field  # noqa: F401  (bench/tests reads this binding)


class FixedPointError(RuntimeError):
    pass


class FixedPointInputError(FixedPointError, PreconditionError):
    pass


def _a1(R, r, p):
    if p == 3.0:
        return -(R**2) * np.conj(r) - 2.0 * np.abs(R) ** 2 * r
    mod = np.abs(R)
    phase2 = np.where(mod > 0, (R / np.where(mod > 0, mod, 1.0)) ** 2, 0.0)
    return -(0.5 * (p + 1.0) * mod ** (p - 1.0) * r
             + 0.5 * (p - 1.0) * mod ** (p - 1.0) * phase2 * np.conj(r))


def _a2(R, r, p):
    if p == 3.0:
        return -np.conj(R) * r**2 - 2.0 * R * np.abs(r) ** 2
    full = np.abs(R + r) ** (p - 1.0) * (R + r)
    base = np.abs(R) ** (p - 1.0) * R
    return -(full - base) - _a1(R, r, p)


def _a3(R, r, p):
    if p == 3.0:
        return -np.abs(r) ** 2 * r
    return np.zeros_like(r)


# feedback terms of the ansatz R and the remainder r, any array shape
_FEEDBACK = {"a1": _a1, "a2": _a2, "a3": _a3}
_ALL_SOURCES = ("a0", "a1", "a2", "a3")
# mesh rows per pass of `_MeshSources.source`, and per frame to the Picard
# worker, which stacks their norms (0.10 s a picard_v8 sweep on a 2-core
# desk, 0.20 s row by row)
_BLOCK_ROWS = 8
# window values per pass of `SourceSet._a0_window`: 64 kB temporaries.  On
# picard_v8's mesh all of a0 took 0.07 s this way and 0.13 s at 1 MB.
_A0_POINTS = 1 << 12


class SourceSet:
    """Forcing terms of the remainder equation, sharing per-time geometry.

    a0 only lives where the cutoff varies, so it is evaluated on that window;
    the feedback terms a1..a3 are the `_FEEDBACK` formulas on the ansatz R(t).
    """

    def __init__(self, params: SolitonParams, gs: GroundState, psi, grid: Grid,
                 p: float):
        self.params = params
        self.gs = gs
        self.psi = psi
        self.grid = grid
        self.p = float(p)
        if psi is not None:
            self._window = grid.radius() <= psi.R2 * 1.0001
            self._w0 = (psi.psi * (1.0 - psi.psi ** (self.p - 1.0)))[self._window]
            self._grad_psi = [c[self._window] for c in psi.grad_psi]
            self._lap_psi = psi.lap_psi[self._window]
            self._wcoords = [grid.coordinate(k)[self._window] for k in range(grid.dim)]
            self._wphase = grid.boost_phase(params.v)[self._window]

    def _ansatz(self, t):
        if np.any(np.abs(self.params.center(t)) >= self.grid.half_width):
            raise FixedPointError(f"soliton left the box at t={t}")
        return ansatz(self.params, self.gs, t, self.grid, self.psi).values()

    def a0(self, t) -> Field:
        if self.psi is None:
            return Field.zeros(self.grid)
        full = np.zeros((self.grid.n,) * self.grid.dim, dtype=complex)
        full[self._window] = next(self._a0_window([t]))
        return Field(self.grid, full)

    def a0_active(self, ts) -> list:
        """a0 at each time of ts as (positions, values) of its nonzero
        entries in the active vector: the forcing adds only these."""
        if self.psi is None:
            return [(np.zeros(0, dtype=int), np.zeros(0, dtype=complex))] * len(ts)
        grid = self.grid
        active = np.cumsum(grid.mask.ravel()) - 1    # position in the active vector
        inside = grid.mask[self._window]
        at = active[np.flatnonzero(self._window.ravel())[inside]]
        pairs = []
        for vals in self._a0_window(ts):
            vals = vals[inside]
            nz = np.flatnonzero(vals)
            pairs.append((at[nz], vals[nz]))
        return pairs

    def _a0_window(self, ts):
        """a0 on the cutoff window at each time of ts, one row at a time.

        One `_a0_pass` takes a chunk of times of about _A0_POINTS window
        values; its arithmetic is elementwise, so each row has the bits of a
        pass at its time alone.  A non-finite value raises as a `Field` of
        it would.
        """
        ts = np.asarray(ts, dtype=float)[:, None]
        step = max(1, _A0_POINTS // max(self._w0.size, 1))
        for i in range(0, len(ts), step):
            block = self._a0_pass(ts[i:i + step])
            if not np.all(np.isfinite(block)):
                raise FloatingPointError("field contains non-finite values")
            yield from block

    def _a0_pass(self, t) -> np.ndarray:
        """a0 on the window at the column of times t."""
        params, gs = self.params, self.gs
        c = params.center(t)
        r = np.sqrt(sum((xc - c[:, k:k + 1]) ** 2 for k, xc in enumerate(self._wcoords)))
        q, dq = gs.evaluate(r)
        safe = np.where(r > 0, r, 1.0)
        # this scalar order, not phase_factor's, is what the Picard numbers pin
        phi = self._wphase - 0.25 * params.speed() ** 2 * t + params.omega * t \
            + params.theta0
        ph = cis(np.mod(phi, TWO_PI))
        h = q * ph
        vals = self._w0 * np.abs(h) ** (self.p - 1.0) * h - self._lap_psi * h
        for k in range(self.grid.dim):
            gh = (dq * (self._wcoords[k] - c[:, k:k + 1]) / safe
                  + 0.5j * params.v[k] * q) * ph
            vals = vals - 2.0 * self._grad_psi[k] * gh
        return vals

    def total_active(self, r: Field | None, t, which) -> np.ndarray:
        """The selected sources at t on r (None: r = 0), as an active vector:
        the Picard loop's `_MeshSources` on the one-point mesh (t,)."""
        rows = None if r is None else to_active(r)[None]
        mesh = _MeshSources(self, (t,), "a0" in which,
                            ansatz=rows is not None and any(a in which for a in _FEEDBACK))
        return mesh.source(which, rows)(0)


def make_sources(params: SolitonParams, gs: GroundState, psi, grid: Grid,
                 p: float | None = None) -> SourceSet:
    return SourceSet(params, gs, psi, grid, p if p is not None else params.p)


def _time_mesh(T0: float, Tmax: float, dt: float):
    n = step_count(Tmax - T0, dt)
    try:
        return T0 + (Tmax - T0) / n * np.arange(n + 1), (Tmax - T0) / n
    except ValueError as exc:   # numpy refuses the size
        raise FixedPointInputError(f"time mesh of {n:.3g} steps: {exc}") from exc


def _lower_rows(nt: int) -> int:
    """The mesh rows [0, 3 nt // 5) that `picard`'s worker owns, which
    every backward sweep marches last; `picard` owns the rest.  The caller
    also marches every row and the worker takes every row's norms.  On
    picard_v8's mesh (2-core desk, 30 alternating calls each) a worker
    share of 1/2, 3/5 and 2/3 gave medians of 1.77, 1.66 and 1.68 s."""
    return 3 * nt // 5


class _MeshSources:
    """A SourceSet evaluated once on the mesh rows [lo, hi), as active vectors.

    a0(t_k) is kept on its support (the cutoff window).  The ansatz R(t_k),
    which the feedback terms and the residual need, is one array on rows
    [lo, hi + 2), clipped to the mesh: the residual's centred difference at
    hi reaches row hi + 1.  It is built after a0 when ``ansatz`` is set, or
    by a later `build_ansatz`.  `source` and `residual` take the whole
    iterate and mesh row numbers.
    """

    def __init__(self, sources: SourceSet, ts, with_a0: bool, ansatz: bool,
                 lo: int = 0, hi: int | None = None):
        self.p, self.grid, self.ts, self.lo = sources.p, sources.grid, ts, lo
        self.hi = len(ts) if hi is None else hi
        self.a0 = sources.a0_active(ts[lo:self.hi]) if with_a0 else []
        self.R = None
        if ansatz:
            self.build_ansatz(sources)

    def build_ansatz(self, sources: SourceSet) -> None:
        ts, mask = self.ts[self.lo:self.hi + 2], self.grid.mask
        self.R = own_pages(len(ts), self.grid.n_active)
        for k, t in enumerate(ts):
            self.R[k] = sources._ansatz(t)[mask]

    def source(self, which, rows):
        """k -> the selected sources at t_k on rows[k] (rows may be None).

        Asking for row k computes rows k - _BLOCK_ROWS + 1 to k at once
        (not below lo) and keeps them for the next asks: the arithmetic is
        elementwise, so each row has the bits of its own pass.  The march
        asks in decreasing k, and rows[j] is read before row j of the next
        iterate replaces it.
        """
        terms = [_FEEDBACK[name] for name in ("a1", "a2", "a3") if name in which]
        if rows is None:
            terms = []     # the feedback of r = 0 vanishes
        with_a0 = "a0" in which
        lo = self.lo
        kept = [None, None]     # the first row of the rows computed, and them

        def rows_to(k):
            j = max(lo, k - _BLOCK_ROWS + 1)
            if terms:
                R, r = self.R[j - lo:k + 1 - lo], rows[j:k + 1]
                f = terms[0](R, r, self.p)
            else:
                f = np.zeros((k + 1 - j, self.grid.n_active), dtype=complex)
            if with_a0:
                for fk, (idx, vals) in zip(f, self.a0[j - lo:k + 1 - lo]):
                    fk[idx] += vals
            for term in terms[1:]:
                f += term(R, r, self.p)
            kept[:] = j, f

        def at(k):
            j, f = kept
            if j is None or not j <= k < j + len(f):
                rows_to(k)
                j, f = kept
            return f[k - j]

        return at

    def residual(self, rows):
        """The residual norms of R + rows at the interior mesh rows of
        [lo + 1, hi], in increasing order (`evolve.residual_norms`)."""
        lo, R = self.lo, self.R
        return residual_norms(lambda j: R[j] + rows[lo + j], self.ts[lo:lo + len(R)],
                              self.p, self.grid)


def _sweep(stepper: CrankNicolsonStepper, nt: int, source, on_row):
    """Solve i w_t + lap w = F backward from w(t_{nt-1}) = 0 on active vectors.

    source(k) gives F(t_k); it is called once per k, in decreasing k, before
    on_row(k, w_k) gets row k, so on_row may store the row where source
    reads the previous iterate.
    """
    start = np.zeros(stepper.grid.n_active, dtype=complex)
    for j, vec in march(stepper, start, nt - 1, forcing=lambda i: source(nt - 1 - i)):
        on_row(nt - 1 - j, vec)


def duhamel_apply(sources: SourceSet, r_traj: Trajectory | None, T0: float,
                  Tmax: float, evolve_config: EvolveConfig,
                  which=_ALL_SOURCES) -> Trajectory:
    """Solve i w_t + lap w = F(t), w(Tmax) = 0, backward on [T0, Tmax].

    F is the selected sources evaluated on r_traj (which must sit on the same
    time mesh); the result is the truncated Duhamel integral of F.  Its rows
    are a copy of r_traj's that the sweep overwrites, so r_traj is unchanged.
    """
    grid = sources.grid
    ts, dt = _time_mesh(T0, Tmax, evolve_config.dt)
    nt = len(ts)
    rows = None
    if r_traj is not None:
        if len(r_traj) != nt or abs(r_traj.times[0] - T0) > 1e-12:
            raise FixedPointInputError("input trajectory not on the duhamel time mesh")
        rows = np.array(r_traj.rows, dtype=complex)
    mesh = _MeshSources(sources, ts, "a0" in which,
                        ansatz=rows is not None and any(a in which for a in _FEEDBACK))
    out = rows if rows is not None else np.zeros((nt, grid.n_active), dtype=complex)
    _sweep(CrankNicolsonStepper(grid, -dt), nt, mesh.source(which, rows), out.__setitem__)
    return Trajectory(grid, ts, out, [], sources.p)


class _ENorm:
    """exp(delta sqrt(omega) |v| t) (|v|^-3 H2 + L2) of active vectors.

    Agrees bit for bit with the same formula on `h2_norm` and `l2_norm`, and
    raises on a non-finite value instead of letting a sup drop it.
    """

    def __init__(self, grid: Grid, cfg: NormConfig):
        s = cfg.speed()
        if s <= 0:
            raise FixedPointInputError("the weighted norm needs |v| > 0")
        self._stencil = grid.stencil
        self.rate = cfg.delta * np.sqrt(cfg.omega) * s
        self._s3 = s**3

    def weight(self, t) -> float:
        return np.exp(self.rate * t)

    def __call__(self, w, vecs) -> np.ndarray:
        """Weighted norms of the rows of vecs, all at the time of weight w."""
        h2, l2 = self._stencil.h2_l2(vecs)
        vals = w * (h2 / self._s3 + l2)
        if not np.all(np.isfinite(vals)):
            raise FixedPointError(f"non-finite weighted norm {vals} (weight {w})")
        return vals


# what a sweep's rows are to its norms: the first iterate, a later iterate
# (its change from the one it replaces counts too), or a J-diagnostic sweep,
# which leaves the iterate alone
_FIRST, _NEXT, _PROBE = 0, 1, 2


class _SweepNorms:
    """Sups of the weighted norms of one sweep's rows, taken as they come.

    ``old`` is the iterate that a _NEXT sweep's rows replace; `keep`
    stores each kept row after the norms have seen it.  `end` returns the
    two sups (iterate, change) and starts the next sweep.
    """

    def __init__(self, norm: _ENorm, weights: np.ndarray, old: np.ndarray):
        self._norm, self._weights, self.old = norm, weights, old
        self._sup = [0.0, 0.0]

    def row(self, k: int, vec: np.ndarray, kind: int) -> None:
        if kind == _NEXT:
            it, d = self._norm(self._weights[k], np.stack([vec, vec - self.old[k]]))
            self._sup[1] = max(self._sup[1], d)
        else:
            it = self._norm(self._weights[k], vec[None])[0]
        self._sup[0] = max(self._sup[0], it)

    def keep(self, k: int, vec: np.ndarray, kind: int) -> None:
        """`row`, then vec into the iterate unless it is a probe's."""
        self.row(k, vec, kind)
        if kind != _PROBE:
            self.old[k] = vec

    def block(self, k: int, vecs: np.ndarray, kind: int) -> None:
        """`row` of vecs[i] at k - i for each i, in one norm call: each row's
        norm is the same bits in a stack.  A non-finite norm is raised as
        `row` raises it, at its row."""
        ks = k - np.arange(len(vecs))
        w, stack = self._weights[ks], vecs
        if kind == _NEXT:
            w, stack = np.concatenate([w, w]), np.concatenate([vecs, vecs - self.old[ks]])
        try:
            vals = self._norm(w, stack)
        except FixedPointError:
            for i, vec in enumerate(vecs):
                self.row(k - i, vec, kind)
            raise
        self._sup[0] = max(self._sup[0], vals[:len(vecs)].max())
        if kind == _NEXT:
            self._sup[1] = max(self._sup[1], vals[len(vecs):].max())

    def end(self) -> tuple:
        sup, self._sup = tuple(self._sup), [0.0, 0.0]
        return sup


# a frame to the worker, one `send`: (j, kind, m), rows j + m - 1, ..., j + 1, j
# of a sweep of this kind are in the shared iterate; (_START, i, 0) of a
# sweep of the sources _SWEEPS[i]; its _END; (_FINISH, residual, 0)
_START, _END, _FINISH = -1, -2, -3
_SWEEPS = (_ALL_SOURCES, ("a1",), ("a2",), ("a3",))     # Picard, then J1, J2, J3
_ENDED = "the Picard worker ended"


def _serve(rx, tx, sources: SourceSet, ts, norm: _ENorm, weights, rows) -> None:
    """The forked side of `_BandWorker`, frame by frame.

    It builds a0 on the lower band [0, lo), puts the first sweep's forcing
    (a0 alone) into ``rows`` and answers, then builds the band's ansatz.
    A _START has that sweep's forcing on the band computed from ``old``,
    its own copy of the iterate, into ``rows``, and one answer: None, or
    the (row, exception) that ended the forcing there.  Behind the march
    it keeps each row in ``old`` and puts back the caller's rows that a
    probe's rows replaced.  To an _END it answers the sups; to a _FINISH,
    None once ``old``'s band is back in ``rows``, then the band's residual.
    An error in a0, the ansatz or a norm is the next _END's answer.
    """
    lo = _lower_rows(len(ts))
    norms = _SweepNorms(norm, weights, np.zeros_like(rows))
    old, failed, held = norms.old, None, None

    def forcing(which, iterate):
        """The forcing into rows lo - 1 down to 0; the first exception, of
        any kind, ends them and is returned with its row."""
        at = band.source(which, iterate)
        for k in range(lo - 1, -1, -1):
            try:
                rows[k] = at(k)
            except BaseException as exc:
                return k, exc
        return None

    try:
        band = _MeshSources(sources, ts, True, False, 0, lo)
        held = forcing(_ALL_SOURCES, None)
    except Exception as exc:
        failed = exc
    send(tx, held)
    if failed is None:
        try:
            band.build_ansatz(sources)
        except Exception as exc:
            failed = exc
    while (frame := receive(rx)) is not None:
        j, a, b = frame[1]
        if j >= 0:      # a is the kind, b the number of rows
            k = j + b - 1
            if failed is None:
                try:
                    norms.block(k, rows[j:k + 1][::-1], a)
                except Exception as exc:
                    failed = exc
            if a != _PROBE:
                old[j:k + 1] = rows[j:k + 1]
            else:
                rows[max(j, lo):k + 1] = old[max(j, lo):k + 1]
        elif j == _START:
            send(tx, forcing(_SWEEPS[a], old))
        elif j == _END:
            if failed is None:
                send(tx, norms.end())
            else:
                send(tx, failed, -1)
        else:
            rows[:lo] = old[:lo]
            send(tx, None)
            if a:
                try:
                    send(tx, max(band.residual(old), default=0.0))
                except Exception as exc:
                    send(tx, exc, -1)


class _BandWorker:
    """`picard`'s second process, forked until ``stack`` closes: the lower
    band of mesh rows and the norms, with the methods of `_MeshSources`
    and `_SweepNorms` that `picard` uses.

    `source` asks for a sweep's forcing on the band (the first sweep's is
    put in at the fork).  Its function waits, at the band's first row,
    until the forcing is in the shared iterate ``rows``; it reads each row
    there or raises the worker's exception at its row.  `keep` stores each
    row in ``rows``, a frame per _BLOCK_ROWS.  `end` reads the forcing's
    answer if the sweep stopped above the band, then returns the sweep's
    sups or raises the worker's error, which the serial loop would have
    raised at its row.  The caller reads each answer before it asks for
    the next, so the worker never waits on a write and they cannot both
    wait on one.  Only a broken pipe or an end of file is a worker gone
    (FixedPointError); any other exception keeps its type.
    """

    def __init__(self, stack: contextlib.ExitStack, sources: SourceSet, ts,
                 norm: _ENorm, weights, rows: np.ndarray):
        serve = lambda rx, tx: _serve(rx, tx, sources, ts, norm, weights, rows)
        self._rx, self._tx = stack.enter_context(forked_worker(serve))
        self._rows = rows
        self._m = 0         # rows kept since the last frame
        self._last = None   # (k, kind) of the last of them
        self._due = False   # the answer to the band's forcing is unread
        self._held = None   # that answer: None or (row, exception)

    def _write(self, *frame) -> None:
        try:
            send(self._tx, frame)   # one write of < 40 bytes: whole or not sent
        except BrokenPipeError as exc:
            raise FixedPointError(_ENDED) from exc

    def _answer(self):
        answer = receive(self._rx)
        if answer is None:
            raise FixedPointError(_ENDED)
        return answer[1]

    def _forcing_answer(self):
        """The answer to the sweep's forcing, read once a sweep."""
        if self._due:
            self._due, self._held = False, self._answer()
        return self._held

    def source(self, which, rows):
        if rows is not None:    # the first sweep's forcing went in at the fork
            self._write(_START, _SWEEPS.index(which), 0)
        self._due = True

        def at(k):
            held = self._forcing_answer()
            if held is not None and k == held[0]:
                raise held[1]
            return self._rows[k].copy()     # the march keeps it past the row's store

        return at

    def keep(self, k: int, vec: np.ndarray, kind: int) -> None:
        self._rows[k] = vec
        self._last = (k, kind)
        self._m += 1
        if self._m == _BLOCK_ROWS:
            self._send()

    def _send(self) -> None:
        if self._m:
            self._write(*self._last, self._m)
            self._m = 0

    def end(self) -> tuple:
        self._send()
        self._forcing_answer()
        self._write(_END, 0, 0)
        return self._answer()

    def finish(self, residual: bool) -> None:
        """Its band of the iterate back into ``rows``; then, with
        ``residual``, the worker starts on the band's part of it."""
        self._write(_FINISH, residual, 0)
        self._answer()

    def residual(self, rows):
        yield self._answer()


def e_norm(traj: Trajectory, cfg: NormConfig) -> float:
    """sup over rows of exp(delta sqrt(omega) |v| t) (|v|^-3 H2 + L2)."""
    norm = _ENorm(traj.grid, cfg)
    return max((norm(norm.weight(t), row[None])[0]
                for t, row in zip(traj.times, traj.rows)), default=0.0)


@dataclass
class PicardReport:
    iterate_norms: list
    contraction_ratios: list
    j_norms: dict
    converged: bool
    non_contracting: bool
    final_residual: float | None = None
    tail_criterion: float | None = None
    # diff_norms[i] = E-norm of iterate i+1 minus iterate i
    diff_norms: list = field(default_factory=list)


def picard(sources: SourceSet, T0: float, Tmax: float, enorm_cfg: NormConfig,
           n_iters: int, evolve_config: EvolveConfig, j_diagnostics: bool = True):
    """Iterate the Duhamel map from r = 0 and measure everything.

    The sources that do not depend on the iterate (a0 and the ansatz) are
    evaluated once on the time mesh, in two bands of rows split at
    `_lower_rows`: the upper band first, which every backward sweep marches
    first, then the lower.  The iterate is one (nt, n_active) array that
    each backward sweep overwrites in place; each band gives the forcing on
    its rows, and the weighted norms of the iterate and of its change are
    taken as each row is produced.  The final residual is the maximum over
    the two bands' parts.  The ground state's frequency, the soliton's
    margin from the box edge, the mesh length and the memory of the two
    mesh arrays are checked before any source is evaluated.

    With at least two usable cores (`os.sched_getaffinity`) the lower band
    lives in a forked `_BandWorker`, which shares the iterate's pages.  It
    puts the first sweep's forcing (a0 alone) in place and builds its
    ansatz while this process builds the upper band.  Each later sweep asks
    it for that sweep's forcing on its band, which it computes while this
    process marches the upper rows; behind each sweep it takes all the
    norms.  With one core both bands are here.  The report and the
    trajectory are the same bytes either way, and an error is the one the
    serial loop raises first: a build error before any sweep's, and a norm
    error at a row before a later row's forcing or CN solve error.  A
    worker that dies is a FixedPointError.  No process outlives the call.

    Returns the report and the last iterate, a `Trajectory` whose rows are
    the iterate array itself; a growing tail of iterate norms is reported as
    non-contraction, not raised.
    """
    if n_iters < 3:
        raise FixedPointInputError("need at least 3 iterations")
    params, gs, grid = sources.params, sources.gs, sources.grid
    if params.speed() <= 0:
        raise FixedPointInputError("the construction needs |v| > 0")
    ts, dt = _time_mesh(T0, Tmax, evolve_config.dt)
    nt = len(ts)
    if not np.isclose(gs.omega, params.omega):
        raise SolitonError("ground state frequency does not match parameters")
    if nt < 3:
        raise FixedPointInputError(
            f"the residual's time derivative needs at least 3 mesh times, got {nt}")
    # each coordinate of the centre is monotone in t, so |c| peaks at an end
    _check_center(params, gs, ts[0], grid)
    _check_center(params, gs, ts[-1], grid)
    need = 2 * nt * grid.n_active * 16    # the ansatz R and the iterate
    if need > physical_memory():
        raise FixedPointInputError(f"{nt} mesh times of the ansatz and the iterate need "
                                   f"{need / 1e9:.3g} GB, above physical memory")
    norm = _ENorm(grid, enorm_cfg)
    weights = np.array([norm.weight(t) for t in ts])
    rows = own_pages(nt, grid.n_active)
    lo = _lower_rows(nt)
    with contextlib.ExitStack() as stack:
        worker = None
        if len(os.sched_getaffinity(0)) >= 2:
            worker = _BandWorker(stack, sources, ts, norm, weights, rows)
        upper = _MeshSources(sources, ts, True, True, lo, nt)
        lower = norms_of = worker
        if worker is None:
            lower = _MeshSources(sources, ts, True, True, 0, lo)
            norms_of = _SweepNorms(norm, weights, rows)
        stepper = CrankNicolsonStepper(grid, -dt)

        def sweep(which, kind):
            feedback = None if kind == _FIRST else rows
            below, above = (band.source(which, feedback) for band in (lower, upper))
            try:
                _sweep(stepper, nt, lambda k: below(k) if k < lo else above(k),
                       lambda k, vec: norms_of.keep(k, vec, kind))
            except Exception:
                norms_of.end()    # a norm error at an earlier row comes first
                raise
            return norms_of.end()

        norms = [sweep(_ALL_SOURCES, _FIRST)[0]]
        j0_norm = norms[0]
        diffs = []
        ratios = []
        grow = 0
        non_contracting = False
        for it in range(1, n_iters):
            sup, d = sweep(_ALL_SOURCES, _NEXT)
            norms.append(sup)
            diffs.append(d)
            if len(diffs) >= 2 and diffs[-2] > 0:
                ratios.append(diffs[-1] / diffs[-2])
            grow = grow + 1 if (len(norms) >= 2 and norms[-1] > norms[-2]) else 0
            if grow >= 3:
                non_contracting = True
                break
            if d < 1e-14 * max(norms[-1], 1.0):
                break

        rnorm = max(norms[-1], 1e-300)
        j = {"J0": j0_norm}
        if j_diagnostics:
            for name, which in zip(("J1", "J2", "J3"), _SWEEPS[1:]):
                j[name] = sweep(which, _PROBE)[0]
            j["J1_over_r"] = _over_power(j["J1"], rnorm, 1)
            j["J2_over_r2"] = _over_power(j["J2"], rnorm, 2)
            j["J3_over_r3"] = _over_power(j["J3"], rnorm, 3)

        final_residual = None
        if worker is not None:      # it starts on its part before this process
            worker.finish(not non_contracting)
        if not non_contracting:
            parts = [band.residual(rows) for band in (upper, lower)]
            final_residual = max(max(part, default=0.0) for part in parts)

    report = PicardReport(
        iterate_norms=norms,
        contraction_ratios=ratios,
        j_norms=j,
        converged=not non_contracting,
        non_contracting=non_contracting,
        final_residual=final_residual,
        tail_criterion=float(np.exp(-norm.rate * (Tmax - T0))),
        diff_norms=diffs,
    )
    return report, Trajectory(grid, ts, rows, [], sources.p)


def _over_power(jk: float, r: float, k: int) -> float:
    """jk / r^k, the least C with jk <= C r^k.

    The feedback of a zero iterate vanishes, so its ratio is 0.  Where r^k
    underflows, r is divided out one factor at a time.
    """
    if jk == 0.0:
        return 0.0
    scale = r**k
    if scale > 0.0:
        return jk / scale
    for _ in range(k):
        jk /= r
    return jk


def remainder_decay_rate(traj: Trajectory) -> float:
    """Fitted exponential rate of |r(t)|_L2 over the trajectory."""
    ts, vals = [], []
    for k, t in enumerate(traj.times):
        n = l2_norm(traj.snapshot(k))
        if n > 0:
            ts.append(t)
            vals.append(n)
    if not vals:
        raise FixedPointError("the remainder is identically zero: no rate to fit")
    ts, vals = np.asarray(ts), np.asarray(vals)
    keep = vals > 1e-13 * vals.max()
    if keep.sum() < 5:
        raise FixedPointError("trajectory too short to fit a decay rate")
    return float(-np.polyfit(ts[keep], np.log(vals[keep]), 1)[0])


def interpolation_check(f: Field) -> tuple[bool, float, float]:
    """Discrete |grad f| <= |lap f|^(1/2) |f|^(1/2) via the Dirichlet form.

    With |grad f|^2 := (-lap f, f) this is Cauchy-Schwarz in the spectral
    measure of the symmetric Laplacian, with equality on eigenvectors.
    """
    lap = laplacian_dirichlet(f)
    lhs = np.sqrt(max(real_inner(-1.0 * lap, f), 0.0))
    rhs = np.sqrt(l2_norm(lap) * l2_norm(f))
    return bool(lhs <= rhs * (1.0 + 1e-12) + 1e-15), float(lhs), float(rhs)
