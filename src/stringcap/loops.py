"""Loops, loop families, the gauge length functional and its extremization.

A loop is evaluated in array form: ``points(ts)`` and ``velocities(ts)`` map
parameters ``ts`` of shape (m,) to coordinates of shape (m, d), all in the
loop's ``chart``.  A loop built from scalar closures gets its array forms by
stacking them, so every length goes through the same batched path.

A loop family has the same forms one axis up: ``points(P, ts)`` and
``velocities(P, ts)`` map family parameters ``P`` of shape (G, p) and ``ts``
of shape (m,) to coordinates of shape (G, m, d).  The catalog writes its
families in that form and gets ``loop_at`` from one-row evaluations; a family
given only by ``loop_at`` is evaluated by stacking its loops, one batch per
chart.

The length of a loop q is the integral over one period of the fiber support
function evaluated on the velocity.  The integrand is smooth and periodic, so
the equal-weight trapezoid rule on [0, 1) converges geometrically (Trefethen
and Weideman, SIAM Review 2014); each level doubles the samples by
interleaving midpoints.  One rule, ``_trapezoid``, runs on a stack of
integrands: the convergence test first runs after one doubling, so levels 0
and 1 of every row share one batched support-oracle call, and the rows that
have not converged double together, in oracle calls of at most
``_BLOCK_SAMPLES`` samples.  ``loop_length`` is that rule on one row,
``family_lengths`` on a whole parameter grid.  The sup and inf of a family
are taken on that grid and refined together by a compass search that stays
within one grid gap of their grid points, one ``family_lengths`` call per
round (``_refine``).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BasepointMismatchError,
    InfiniteLengthError,
    InvalidInputError,
    LoopValidationError,
)
from .gauge import BasePoint, GaugeDomain, TangentVector


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5  # central finite differences when no closed-form derivative

ArrayFn = Callable[[np.ndarray], np.ndarray]


@dataclass(eq=False)
class Loop:
    """A parametrized loop t in [0, 1) -> base manifold.

    Give either the array forms ``points``/``velocities`` (parameters of
    shape (m,) to coordinates of shape (m, d)) with their ``chart``, or the
    scalar closures ``point_fn``/``deriv_fn``; the missing forms are derived.
    The array forms may be handed read-only ``ts`` and must not write to it.
    Without a velocity form the velocity is a central finite difference.
    Points may be a lift (for flat quotients they can leave the fundamental
    domain); ``identify`` maps raw coordinates to a canonical representative
    and is used only by validation.
    """

    point_fn: Optional[Callable[[float], BasePoint]] = None
    deriv_fn: Optional[Callable[[float], TangentVector]] = None
    metadata: str = ""
    identify: Optional[Callable[[np.ndarray], np.ndarray]] = None
    points: Optional[ArrayFn] = None
    velocities: Optional[ArrayFn] = None
    chart: str = "default"

    def __post_init__(self):
        if self.points is None:
            if self.point_fn is None:
                raise LoopValidationError("a loop needs point_fn or points")
            self.chart = self.point_fn(0.0).chart_id
            self.points = _stacked_points(self.point_fn, self.chart)
            if self.deriv_fn is not None and self.velocities is None:
                df = self.deriv_fn
                self.velocities = lambda ts: np.array([df(float(t)).components for t in ts], dtype=float)
        if self.velocities is None:
            pts = self.points

            def fd(ts: np.ndarray) -> np.ndarray:
                return (pts(ts + _FD_STEP) - pts(ts - _FD_STEP)) / (2 * _FD_STEP)

            self.velocities = fd
        if self.point_fn is None:
            pts, chart = self.points, self.chart
            self.point_fn = lambda t: BasePoint(pts(np.array([float(t)]))[0], chart)
        if self.deriv_fn is None:
            vel, pf = self.velocities, self.point_fn
            self.deriv_fn = lambda t: TangentVector(vel(np.array([float(t)]))[0], pf(t))

    def point(self, t: float) -> BasePoint:
        return self.point_fn(t)

    def velocity(self, t: float) -> TangentVector:
        return self.deriv_fn(t)


def _stacked_points(point_fn: Callable[[float], BasePoint], chart: str) -> ArrayFn:
    """Array form of a scalar point closure: one row per t, all in ``chart``."""

    def points(ts: np.ndarray) -> np.ndarray:
        rows = []
        for t in ts:
            q = point_fn(float(t))
            if q.chart_id != chart:
                raise LoopValidationError(f"loop leaves its chart {chart!r} at t={t:.6f}")
            rows.append(q.coords)
        return np.array(rows, dtype=float)

    return points


def check_loop(loop: Loop, samples: int = 16, fd_rtol: float = 1e-4) -> None:
    """Validate closure (within 1e-10) and derivative consistency against a
    central finite difference at ``samples`` interior points."""
    p0 = loop.point_fn(0.0).coords
    p1 = loop.point_fn(1.0).coords
    if loop.identify is not None:
        p0, p1 = loop.identify(p0), loop.identify(p1)
    if np.linalg.norm(p1 - p0) > 1e-10:
        raise LoopValidationError(f"loop does not close: gap {np.linalg.norm(p1 - p0):.3e}")
    scale = max(1.0, float(np.linalg.norm(p0)))
    for j in range(samples):
        # offset avoids kinks that piecewise loops place at rational points
        t = (j + 0.37) / samples
        d = loop.deriv_fn(t).components
        fd = (loop.point_fn(t + _FD_STEP).coords - loop.point_fn(t - _FD_STEP).coords) / (
            2 * _FD_STEP
        )
        denom = max(np.linalg.norm(d), scale * 1e-3)
        if np.linalg.norm(d - fd) > fd_rtol * denom:
            raise LoopValidationError(
                f"derivative inconsistent with finite differences at t={t:.4f}"
            )


def reverse(loop: Loop) -> Loop:
    """The loop traversed in reverse; an involution up to float roundoff."""
    pts, vel = loop.points, loop.velocities
    return Loop(
        points=lambda ts: pts(1.0 - ts),
        velocities=lambda ts: -vel(1.0 - ts),
        chart=loop.chart,
        metadata=f"reverse({loop.metadata})",
        identify=loop.identify,
    )


# smooth cutoff on arrays: 0 for t <= 0, 1 for t >= 1, flat to all orders at
# both ends
def _sigma(t: np.ndarray) -> np.ndarray:
    pos = t > 0.0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def cutoff(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    a, b = _sigma(t), _sigma(1.0 - t)
    return a / (a + b)  # one of t, 1 - t is at least 1/2, so a + b > 0


def cutoff_deriv(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    u = np.where(inside, t, 0.5)
    a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    da = a / (u * u)
    db = -b / ((1.0 - u) * (1.0 - u))
    return np.where(inside, (da * b - a * db) / ((a + b) ** 2), 0.0)


def _halves(first: np.ndarray, s: np.ndarray, fa: ArrayFn, fb: ArrayFn) -> np.ndarray:
    """Rows of fa(s) where ``first`` holds and of fb(s) elsewhere, each
    function evaluated on its own rows only."""
    if first.all():
        return fa(s)
    if not first.any():
        return fb(s)
    lo, hi = fa(s[first]), fb(s[~first])
    out = np.empty((s.shape[0], lo.shape[1]))
    out[first] = lo
    out[~first] = hi
    return out


def concatenate(a: Loop, b: Loop) -> Loop:
    """Cutoff-reparametrized concatenation of two loops with a shared
    basepoint; length is additive by reparametrization invariance."""
    pa0, pb0 = a.point_fn(0.0), b.point_fn(0.0)
    if pa0.chart_id != pb0.chart_id:
        raise BasepointMismatchError("loops live in different charts")
    if np.linalg.norm(pa0.coords - pb0.coords) > 1e-9:
        raise BasepointMismatchError(
            f"basepoints differ by {np.linalg.norm(pa0.coords - pb0.coords):.3e}"
        )

    def split(ts: np.ndarray):
        t = np.mod(ts, 1.0)
        first = t < 0.5
        return first, np.where(first, 2.0 * t, 2.0 * t - 1.0)

    def points(ts: np.ndarray) -> np.ndarray:
        first, s = split(ts)
        return _halves(first, cutoff(s), a.points, b.points)

    def velocities(ts: np.ndarray) -> np.ndarray:
        first, s = split(ts)
        inner = _halves(first, cutoff(s), a.velocities, b.velocities)
        return 2.0 * cutoff_deriv(s)[:, None] * inner

    return Loop(
        points=points,
        velocities=velocities,
        chart=a.chart,
        metadata=f"concat({a.metadata},{b.metadata})",
        identify=a.identify,
    )


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Periodic trapezoid rule: ``panels`` equally spaced samples on [0, 1),
    doubled up to ``max_doublings`` times until two levels agree to qtol."""

    panels: int = 512
    qtol: float = 1e-7
    max_doublings: int = 6

    def __post_init__(self):
        if self.panels < 8:
            raise InvalidInputError("panel count must be >= 8")


# at most this many (row, t) samples go into one support-oracle call of the
# trapezoid rule, so a grid's batch temporaries stay a few hundred KB; a
# single row whose level is longer still goes whole
_BLOCK_SAMPLES = 4096

# values_at(rows, ts): the support of the velocity at every (row, t), as
# (values, finite) of shape (len(rows), len(ts))
ValuesFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _in_blocks(values_at: ValuesFn, rows: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values_at`` over ``rows`` in calls of at most ``_BLOCK_SAMPLES``
    samples, at least one whole row each."""
    step = max(1, _BLOCK_SAMPLES // ts.shape[0])
    if rows.shape[0] <= step:
        return values_at(rows, ts)
    parts = [values_at(rows[i:i + step], ts) for i in range(0, rows.shape[0], step)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([f for _, f in parts])


def _first_infinite(ts: np.ndarray, finite: np.ndarray) -> Optional[tuple[int, float]]:
    """The first row with a non-finite sample, as (row, its first non-finite
    t), or None."""
    if finite.all():
        return None
    i = int(np.argmin(finite.all(axis=1)))
    return i, float(ts[np.argmin(finite[i])])


@functools.lru_cache(maxsize=16)
def _first_levels(n: int, doubling: bool) -> np.ndarray:
    """Samples of levels 0 and 1 in level order: the n points j/n, then their
    n midpoints (j + 1/2)/n; level 0 alone without doublings.  Every length
    of a quadrature starts from them, and on short levels building them costs
    about a tenth of the length, so they are built once and shared,
    read-only."""
    ts = np.arange(n) / n
    if doubling:
        ts = np.concatenate([ts, (np.arange(n) + 0.5) / n])
    ts.flags.writeable = False
    return ts


def _trapezoid(values_at: ValuesFn, count: int, quad: QuadratureSpec) -> tuple[list[float], Optional[tuple]]:
    """The periodic trapezoid rule for ``count`` integrands (rows) at once.

    The stopping test first runs after one doubling, so levels 0 and 1 of
    every row are sampled together, in level order (the n points, then their
    n midpoints); then the rows that have not converged double together.
    Each row gets the same sums, in the same order, whatever the other rows.

    Returns the lengths and, if a row meets a non-finite sample, the first
    such row in row order with its first non-finite t in level order (else
    None); rows after it stop, and only the lengths of rows before it mean
    anything."""
    n = quad.panels
    ts = _first_levels(n, quad.max_doublings > 0)
    values, finite = _in_blocks(values_at, np.arange(count), ts)
    failed = _first_infinite(ts, finite)
    if failed is not None:
        values = values[:failed[0]]
    sums = values.reshape(values.shape[0], ts.shape[0] // n, n).sum(axis=2).tolist()  # per row and level
    totals = [s[0] for s in sums]
    lengths = [total / n for total in totals]  # each row's latest level
    rows = list(range(len(sums)))  # rows still doubling, in row order
    for k in range(quad.max_doublings):
        if k == 0:
            fresh = [s[1] for s in sums]
        else:
            ts = (np.arange(n) + 0.5) / n
            values, finite = _in_blocks(values_at, np.array(rows), ts)
            bad = _first_infinite(ts, finite)
            if bad is not None:
                failed = (rows[bad[0]], bad[1])
                rows, values = rows[:bad[0]], values[:bad[0]]
            fresh = values.sum(axis=1).tolist()
        n *= 2
        going = []
        for r, f in zip(rows, fresh):
            totals[r] += f
            cur = totals[r] / n
            if abs(cur - lengths[r]) > quad.qtol * (1.0 + abs(cur)):
                going.append(r)
            lengths[r] = cur
        rows = going
        if not rows:
            break
    return lengths, failed


def _oracle_rows(
    domain: GaugeDomain, chart: str, points: np.ndarray, velocities: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Support at ``count`` rows of samples stacked as (count * m, d)
    ``points`` and ``velocities`` in ``chart``, in one oracle call, as
    (values, finite) of shape (count, m)."""
    q = BasePoint(points, chart)
    values, finite = domain.support_oracle(q, TangentVector(velocities, q))
    return values.reshape(count, -1), finite.reshape(count, -1)


def _loops_values(domain: GaugeDomain, loops: list[Loop], ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support of the velocity of every loop at every t, one oracle call per
    chart among the loops."""
    charts = [loop.chart for loop in loops]
    groups = [[i for i, c in enumerate(charts) if c == chart] for chart in dict.fromkeys(charts)]
    parts = [
        _oracle_rows(
            domain,
            charts[idx[0]],
            np.concatenate([loops[i].points(ts) for i in idx]),
            np.concatenate([loops[i].velocities(ts) for i in idx]),
            len(idx),
        )
        for idx in groups
    ]
    if len(parts) == 1:
        return parts[0]
    order = np.argsort(np.concatenate(groups))  # rows back into loop order
    return np.concatenate([v for v, _ in parts])[order], np.concatenate([f for _, f in parts])[order]


def loop_length(domain: GaugeDomain, loop: Loop, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gauge length of ``loop``: the periodic trapezoid rule applied to the
    support of the velocity, doubled by interleaving midpoints until the
    relative change drops below qtol.  Levels 0 and 1 go into one batched
    oracle call, each later level into one more.

    Only sampled parameters are seen: if the support is infinite on a window
    narrower than the finest sample spacing reached, and two successive levels
    agree before any sample lands in it, the result is finite and no
    ``InfiniteLengthError`` is raised. On the camel domain with ``panels=8``,
    a window of width 0.02 around t = 0.6 is missed this way. Otherwise the
    error reports the first infinite t in level order."""

    def values_at(rows: np.ndarray, ts: np.ndarray):
        return _oracle_rows(domain, loop.chart, loop.points(ts), loop.velocities(ts), 1)

    lengths, failed = _trapezoid(values_at, 1, quad)
    if failed is not None:
        t = failed[1]
        raise InfiniteLengthError(f"infinite support at t={t:.6f}", t=t)
    return lengths[0]


# ---------------------------------------------------------------------------
# Families and extremization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GridAxis:
    lo: float
    hi: float
    count: int
    periodic: bool = False

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count, endpoint=not self.periodic)


@dataclass(frozen=True)
class ParamGrid:
    """Grid descriptor for a compact parameter manifold."""

    axes: tuple[GridAxis, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def points(self):
        if not self.axes:
            yield np.empty(0)
            return
        for combo in itertools.product(*(ax.points() for ax in self.axes)):
            yield np.array(combo)

    def array(self) -> np.ndarray:
        """The grid points as the rows of a (G, dim) array, in ``points()``
        order."""
        return np.array(list(self.points()), dtype=float)


FamilyFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class LoopFamily:
    """A named smooth family of loops over a parameter grid.

    Give either the array forms ``points``/``velocities``, which map
    parameters of shape (G, p) and loop parameters ts of shape (m,) to
    coordinates of shape (G, m, d) in the family's ``chart`` (``identify`` is
    passed on to its loops; ``ts`` may be read-only, as for loops), or
    ``loop_at``, one Loop per parameter row of shape (p,).  ``loop_at`` of a
    family with array forms evaluates them on one row.  A family given by
    ``loop_at`` alone is evaluated by stacking its loops, each in its own
    chart.
    """

    name: str
    grid: ParamGrid
    loop_at: Optional[Callable[[np.ndarray], Loop]] = None
    points: Optional[FamilyFn] = None
    velocities: Optional[FamilyFn] = None
    chart: str = "default"
    identify: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if (self.points is None) != (self.velocities is None):
            raise LoopValidationError(f"family {self.name!r} needs both array forms or neither")
        if self.loop_at is None:
            if self.points is None:
                raise LoopValidationError(f"family {self.name!r} needs loop_at or points")
            object.__setattr__(self, "loop_at", functools.partial(_family_loop, self))


def _family_loop(family: LoopFamily, p: np.ndarray) -> Loop:
    """The loop of ``family`` at parameter row ``p``: its array forms on one
    row."""
    P = np.asarray(p, dtype=float)[None]
    pts, vel = family.points, family.velocities
    return Loop(
        points=lambda ts: pts(P, ts)[0],
        velocities=lambda ts: vel(P, ts)[0],
        chart=family.chart,
        metadata=f"{family.name} at {P[0].tolist()}",
        identify=family.identify,
    )


def _infinite_at(family: LoopFamily, params: np.ndarray, t: float) -> InfiniteLengthError:
    return InfiniteLengthError(
        f"family {family.name!r} has infinite length at params {params!r} (t={t:.6f})",
        t=t,
        params=params,
    )


def _family_values(
    domain: GaugeDomain, family: LoopFamily, P: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Support of the velocity at every (row of ``P``, t) through the
    family's array forms, in one oracle call."""
    pts, vel = family.points(P, ts), family.velocities(P, ts)
    d = pts.shape[-1]
    return _oracle_rows(domain, family.chart, pts.reshape(-1, d), vel.reshape(-1, d), P.shape[0])


def family_lengths(
    domain: GaugeDomain,
    family: LoopFamily,
    params: np.ndarray,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """``loop_length`` of ``family.loop_at(p)`` for every row p of ``params``
    (shape (G, p)), all rows in one trapezoid rule: levels 0 and 1 of every
    row in one pass, then the rows that have not converged doubling together,
    in oracle calls of at most ``_BLOCK_SAMPLES`` samples.

    Raises the ``InfiniteLengthError`` of the first row, in row order, whose
    own ``loop_length`` raises, with that row as ``params`` and the same t;
    rows after it are not evaluated further."""
    params = np.asarray(params, dtype=float)
    if family.points is not None:
        def values_at(rows, ts):
            return _family_values(domain, family, params[rows], ts)
    else:
        stack = [family.loop_at(p) for p in params]

        def values_at(rows, ts):
            return _loops_values(domain, [stack[r] for r in rows], ts)

    lengths, failed = _trapezoid(values_at, params.shape[0], quad)
    if failed is not None:
        raise _infinite_at(family, params[failed[0]], failed[1])
    return np.array(lengths)


@dataclass(frozen=True, slots=True)
class RefineSpec:
    """Compass refinement of a family's sup and inf from their grid points:
    an extremum stops once its step is below ``xtol`` on every axis, or when
    one more round would take its length evaluations past ``budget``."""

    budget: int = 200  # length evaluations per extremum
    xtol: float = 1e-6


@dataclass(frozen=True, eq=False)
class ExtremalLengthReport:
    family: str
    E: float  # sup length after refinement
    e: float  # inf length after refinement
    argmax_params: np.ndarray
    argmin_params: np.ndarray
    grid_E: float
    grid_e: float
    grid_shape: tuple[int, ...]
    refinement_history: tuple[dict, ...]
    tolerance: float


def _folder(grid: ParamGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Map parameters into the grid's box: periodic axes wrap into [lo, hi),
    the others are clipped to [lo, hi]."""
    los = np.array([ax.lo for ax in grid.axes])
    his = np.array([ax.hi for ax in grid.axes])
    periodic = np.array([ax.periodic for ax in grid.axes])

    def clip(x: np.ndarray) -> np.ndarray:
        return x.clip(los, his)

    if not periodic.any():
        return clip
    return lambda x: np.where(periodic, los + np.mod(x - los, his - los), clip(x))


@dataclass(eq=False)
class _Compass:
    """One extremum's compass search: its start ``x0``, its point ``x``
    unwrapped and ``at`` as evaluated, its length ``f``, ``sign`` -1 for a sup
    and 1 for an inf, and the step ``h`` per axis."""

    x0: np.ndarray
    x: np.ndarray
    at: np.ndarray
    f: float
    sign: float
    h: np.ndarray
    evals: int = 0
    rounds: int = 0


def _refine(lengths, grid: ParamGrid, starts, budget: int, xtol: float) -> list[tuple]:
    """Batched compass search (Kolda, Lewis and Torczon, SIAM Review 2003)
    from the grid extrema ``starts``, one (x0, f0, sign) each: the grid point,
    its length, and -1 to maximize or 1 to minimize.  Each starts with step h
    half a grid gap on every axis.  A round tries x +- h e_i for every
    extremum still refining, all in one ``lengths`` call on a (k, p) array;
    an extremum moves to its best trial on a strict improvement and halves h
    otherwise, and stops when h < xtol on every axis or when its next round
    would take its evaluations past ``budget``.  Trial points stay within one
    grid gap of the start on every axis and go through ``_folder``, so
    periodic axes wrap across the seam and the others are clipped.  Returns
    (point, length, evals, rounds) per start."""
    p = grid.dim
    fold = _folder(grid)
    # a periodic axis excludes hi, so its count points split it into count gaps
    gap = np.array([(ax.hi - ax.lo) / (ax.count if ax.periodic else max(ax.count - 1, 1)) for ax in grid.axes])
    moves = np.concatenate([np.eye(p), -np.eye(p)])
    searches = [_Compass(x0, x0, x0, f0, sign, gap / 2) for x0, f0, sign in starts]
    while True:
        going = [s for s in searches if (s.h >= xtol).any() and s.evals + 2 * p <= budget]
        if not going:
            return [(s.at, s.f, s.evals, s.rounds) for s in searches]
        raw = [np.clip(s.x + s.h * moves, s.x0 - gap, s.x0 + gap) for s in going]
        trials = [fold(r) for r in raw]
        values = lengths(np.concatenate(trials)).reshape(len(going), 2 * p)
        for s, r, t, v in zip(going, raw, trials, values):
            j = int(np.argmin(s.sign * v))
            if s.sign * v[j] < s.sign * s.f:
                s.x, s.at, s.f = r[j], t[j], float(v[j])
            else:
                s.h = s.h / 2
            s.evals += 2 * p
            s.rounds += 1


def extremal_lengths(
    domain: GaugeDomain,
    family: LoopFamily,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
) -> ExtremalLengthReport:
    """Sup and inf of loop lengths over the family's parameter space: one
    ``family_lengths`` batch over the grid, then a compass search from the
    grid's sup and inf together (``_refine``).  Each round tries a step h
    either way along every axis, within one grid gap of the grid point, in one
    ``family_lengths`` call for both extrema; an extremum stops once h is
    below ``refine.xtol`` on every axis or when its next round would take it
    past ``refine.budget`` lengths.  Each ``refinement_history`` entry counts
    its extremum's lengths (``evals``) and ``rounds``."""
    pts = family.grid.array()
    lengths = family_lengths(domain, family, pts, quad)
    i_max = int(np.argmax(lengths))
    i_min = int(np.argmin(lengths))
    grid_E = float(lengths[i_max])
    grid_e = float(lengths[i_min])

    (xmax, E, n_max, r_max), (xmin, e, n_min, r_min) = _refine(
        lambda P: family_lengths(domain, family, P, quad),
        family.grid,
        [(pts[i_max], grid_E, -1.0), (pts[i_min], grid_e, 1.0)],
        refine.budget,
        refine.xtol,
    )
    if not (math.isfinite(E) and math.isfinite(e)):
        raise InfiniteLengthError("non-finite extremal length", t=float("nan"))
    history = (
        {"extremum": "sup", "grid": grid_E, "refined": E, "evals": n_max, "rounds": r_max},
        {"extremum": "inf", "grid": grid_e, "refined": e, "evals": n_min, "rounds": r_min},
    )
    return ExtremalLengthReport(
        family=family.name,
        E=E,
        e=e,
        argmax_params=xmax,
        argmin_params=xmin,
        grid_E=grid_E,
        grid_e=grid_e,
        grid_shape=tuple(ax.count for ax in family.grid.axes),
        refinement_history=history,
        tolerance=quad.qtol * (1.0 + abs(E)),
    )
