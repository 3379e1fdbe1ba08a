"""Loops, loop families, the gauge length functional and its extremization.

A loop is evaluated in array form only: ``samples(ts)`` maps parameters
``ts`` of shape (m,) to the points and the velocities, each of shape (m, d),
all in the loop's ``chart``.  A loop built from scalar closures gets its
array form by stacking them, once, in its constructor; validation,
reversal, concatenation and every length then go through ``samples``.

A loop family has the same form one axis up: ``samples(P, ts)`` maps
family parameters ``P`` of shape (G, p) and ``ts`` of shape (m,) to the
points and the velocities, each of shape (G, m, d), and ``loop_at`` is
its one-row case.  A form may return any (G, m, d) layout.  The
catalog's forms compute the terms that points and velocities share once,
fill a coordinate-major (d, G, m) buffer and return its transposed view:
the stack below is then a view, and its transpose, the layout the oracles
sum over, is C-contiguous.  A parameter grid is likewise one (G, p) array.
A grid of G loops sampled at m parameters is one stack of (G * m) samples
for the support oracle, which returns one array of supports, +inf where the
fiber is unbounded.

The length of a loop q is the integral over one period of the fiber support
function evaluated on the velocity.  The integrand is smooth and periodic, so
the equal-weight trapezoid rule on [0, 1) converges geometrically (Trefethen
and Weideman, SIAM Review 2014); each level doubles the samples by
interleaving midpoints.  One rule, ``_trapezoid``, runs on a stack of
integrands: the convergence test first runs after one doubling, so levels 0
and 1 of every row share one batched support-oracle call, and the rows that
have not converged double together, in oracle calls of at most
``_BLOCK_SAMPLES`` samples.  ``loop_length`` is that rule on one row,
``family_lengths`` on a whole parameter grid.  A family starts the rule
from its own ``panels`` and a loop from ``DEFAULT_PANELS`` (64), unless
``QuadratureSpec.panels`` overrides them all.  The catalog's orbit families
(the page rotations, ellipsoid2's orbits and the torus lines) declare 8:
each is the orbit of a rotation or translation that preserves the domain,
so its integrand is constant in t and the rule is exact at any count, up
to rounding.  Klein's doubled loops go out along a segment w and back: on a
domain whose support ignores the base point, ``family_lengths`` takes their
exact length h(w) + h(-w) in one oracle call unless ``QuadratureSpec.panels``
is set.  The sup and inf of a family are taken on that grid, and those a
bound reads are refined together by a compass search that stays within one
grid gap of their grid points, one ``family_lengths`` call per round
(``_refine``); each extremum's rounds until its next move are built ahead,
in one array operation, as its failure ladder.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .errors import (
    BasepointMismatchError,
    InfiniteLengthError,
    InvalidInputError,
    LoopValidationError,
    is_int,
    is_real,
)
from .gauge import _BLOCK_SAMPLES, BasePoint, GaugeDomain, TangentVector


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5  # central finite differences when no closed-form derivative

# ts (m,) -> (points, velocities), each of shape (m, d)
LoopFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(eq=False)
class Loop:
    """A parametrized loop t in [0, 1) -> base manifold, in array form:
    ``samples`` maps parameters of shape (m,) to (points, velocities), each
    of shape (m, d) in ``chart``, the one-row case of ``LoopFamily.samples``.

    A loop may instead be given by the scalar closures ``point_fn`` and
    ``deriv_fn``; they are stacked into ``samples`` once, here, and the chart
    is read off ``point_fn(0.0)``.  Without ``deriv_fn`` the velocity is a
    central finite difference of the points.  A loop takes one of the two
    forms: ``samples`` with ``point_fn`` or ``deriv_fn``, ``deriv_fn``
    without ``point_fn``, or a ``chart`` other than ``point_fn``'s raises
    ``LoopValidationError``.  A loop given by ``samples`` alone is in chart
    "default" unless ``chart`` says otherwise.  ``samples`` may be handed
    read-only ``ts`` and must not write to it.  A loop closes in the
    coordinates it is sampled in: a loop on a quotient folds its points into
    a fundamental domain itself.
    """

    point_fn: Optional[Callable[[float], BasePoint]] = None
    deriv_fn: Optional[Callable[[float], TangentVector]] = None
    samples: Optional[LoopFn] = None
    chart: Optional[str] = None

    def __post_init__(self):
        if self.samples is not None:
            if self.point_fn is not None or self.deriv_fn is not None:
                raise LoopValidationError("a loop takes samples or point_fn and deriv_fn, not both")
            self.chart = "default" if self.chart is None else self.chart
            return
        if self.point_fn is None:
            raise LoopValidationError("deriv_fn needs point_fn" if self.deriv_fn else "a loop needs point_fn or samples")
        chart = self.point_fn(0.0).chart_id
        if self.chart not in (None, chart):
            raise LoopValidationError(f"chart {self.chart!r} disagrees with point_fn's chart {chart!r}")
        self.chart = chart
        self.samples = _stacked(self.point_fn, self.deriv_fn, chart)


def _stacked(
    point_fn: Callable[[float], BasePoint], deriv_fn: Optional[Callable[[float], TangentVector]], chart: str
) -> LoopFn:
    """Array form of scalar closures: one row per t, all points in ``chart``;
    without ``deriv_fn``, central finite differences of the points."""

    def points(ts: np.ndarray) -> np.ndarray:
        rows = []
        for t in ts:
            q = point_fn(float(t))
            if q.chart_id != chart:
                raise LoopValidationError(f"loop leaves its chart {chart!r} at t={t:.6f}")
            rows.append(q.coords)
        return np.array(rows, dtype=float)

    if deriv_fn is None:
        return lambda ts: (points(ts), (points(ts + _FD_STEP) - points(ts - _FD_STEP)) / (2 * _FD_STEP))
    return lambda ts: (points(ts), np.array([deriv_fn(float(t)).components for t in ts], dtype=float))


def check_loop(loop: Loop) -> None:
    """Validate closure, the raw points at t = 0 and t = 1 within 1e-10, and
    the velocity against a central finite difference of the points, within
    1e-4 relative, at 16 interior points; a NaN gap or mismatch fails."""
    (p0, p1), _ = loop.samples(np.array([0.0, 1.0]))
    gap = np.linalg.norm(p1 - p0)
    if not gap <= 1e-10:
        raise LoopValidationError(f"loop does not close: gap {gap:.3e}")
    scale = max(1.0, float(np.linalg.norm(p0)))
    # offset avoids kinks that piecewise loops place at rational points
    ts = (np.arange(16) + 0.37) / 16
    d = loop.samples(ts)[1]
    fd = (loop.samples(ts + _FD_STEP)[0] - loop.samples(ts - _FD_STEP)[0]) / (2 * _FD_STEP)
    denom = np.maximum(np.linalg.norm(d, axis=1), scale * 1e-3)
    bad = ~(np.linalg.norm(d - fd, axis=1) <= 1e-4 * denom)
    if bad.any():
        raise LoopValidationError(
            f"derivative inconsistent with finite differences at t={ts[np.argmax(bad)]:.4f}"
        )


def reverse(loop: Loop) -> Loop:
    """The loop traversed in reverse; an involution up to float roundoff."""
    form = loop.samples

    def samples(ts: np.ndarray):
        pts, vel = form(1.0 - ts)
        return pts, -vel

    return Loop(samples=samples, chart=loop.chart)


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


def _halves(first: np.ndarray, s: np.ndarray, fa: LoopFn, fb: LoopFn) -> tuple[np.ndarray, np.ndarray]:
    """The (points, velocities) of fa(s) where ``first`` holds and of fb(s)
    elsewhere, each form evaluated on its own rows only."""
    if first.all():
        return fa(s)
    if not first.any():
        return fb(s)
    lo, hi = fa(s[first]), fb(s[~first])
    out = np.empty((2, s.shape[0], lo[0].shape[1]))
    out[:, first], out[:, ~first] = lo, hi
    return out[0], out[1]


def concatenate(a: Loop, b: Loop) -> Loop:
    """Cutoff-reparametrized concatenation of two loops with a shared
    basepoint; length is additive by reparametrization invariance.  A NaN
    basepoint is not shared."""
    if a.chart != b.chart:
        raise BasepointMismatchError("loops live in different charts")
    gap = np.linalg.norm(a.samples(np.zeros(1))[0][0] - b.samples(np.zeros(1))[0][0])
    if not gap <= 1e-9:
        raise BasepointMismatchError(f"basepoints differ by {gap:.3e}")

    def samples(ts: np.ndarray):
        t = np.mod(ts, 1.0)
        first = t < 0.5
        s = np.where(first, 2.0 * t, 2.0 * t - 1.0)
        pts, vel = _halves(first, cutoff(s), a.samples, b.samples)
        return pts, 2.0 * cutoff_deriv(s)[:, None] * vel

    return Loop(samples=samples, chart=a.chart)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# the trapezoid rule doubles a row's samples at most this many times
_MAX_DOUBLINGS = 6

# the most panels a quadrature takes: every length samples twice this many
# points at its first two levels
MAX_QUAD_PANELS = 2**16

# the panels a length starts from unless its family or the quadrature spec
# says otherwise
DEFAULT_PANELS = 64


@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Periodic trapezoid rule: ``panels`` equally spaced samples on [0, 1),
    doubled up to ``_MAX_DOUBLINGS`` (six) times until two levels agree to
    qtol.  ``panels`` None starts each family from its own ``panels`` and a
    loop from ``DEFAULT_PANELS``; an int in [8, ``MAX_QUAD_PANELS``]
    overrides them all.  qtol is finite and >= 0."""

    panels: Optional[int] = None
    qtol: float = 1e-7

    def __post_init__(self):
        if self.panels is not None:
            if not is_int(self.panels):
                raise InvalidInputError(f"quad_panels must be an int, got {self.panels!r}")
            if not 8 <= self.panels <= MAX_QUAD_PANELS:
                raise InvalidInputError(f"quad_panels must lie in [8, {MAX_QUAD_PANELS}], got {self.panels}")
        if not (is_real(self.qtol) and self.qtol >= 0.0):
            raise InvalidInputError(f"qtol must be finite and >= 0, got {self.qtol}")


# values_at(rows, ts): the support of the velocity at every (row, t), of
# shape (len(rows), len(ts))
ValuesFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _in_blocks(values_at: ValuesFn, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``values_at`` over ``rows`` in calls of at most ``_BLOCK_SAMPLES``
    samples, at least one whole row each."""
    step = max(1, _BLOCK_SAMPLES // ts.shape[0])
    if rows.shape[0] <= step:
        return values_at(rows, ts)
    return np.concatenate([values_at(rows[i:i + step], ts) for i in range(0, rows.shape[0], step)])


@functools.lru_cache(maxsize=16)
def _first_levels(n: int) -> np.ndarray:
    """Samples of levels 0 and 1 in level order: the n points j/n, then their
    n midpoints (j + 1/2)/n.  Every length of a quadrature starts from them,
    and on short levels building them costs about a tenth of the length, so
    they are built once and shared, read-only."""
    ts = np.concatenate([np.arange(n) / n, (np.arange(n) + 0.5) / n])
    ts.flags.writeable = False
    return ts


# what an InfiniteLengthError says, with t = NaN, of a length whose support
# values are finite but whose sum passes the float range
_OVERFLOWED = "the length passed the float range"


# a sum past the float range is +inf and a failed row's samples stay in its
# sums; the callers report both, and numpy's warnings would only repeat them
@np.errstate(over="ignore", invalid="ignore")
def _trapezoid(
    values_at: ValuesFn, count: int, quad: QuadratureSpec, panels: int
) -> tuple[list[float], Optional[tuple]]:
    """The periodic trapezoid rule for ``count`` integrands (rows) at once,
    from ``quad.panels`` panels, or from ``panels`` when that is None.

    The stopping test first runs after one doubling, so levels 0 and 1 of
    every row are sampled together, in level order (the n points, then their
    n midpoints); then the rows that have not converged double together.
    Each row gets the same sums, in the same order, whatever the other rows.

    A row fails at its first non-finite sample (inf or NaN) in level order,
    or with t = NaN if its samples are finite but its sum overflowed.
    Returns the lengths and the first failed row in row order with its t
    (else None); rows after it stop doubling, and only the lengths of rows
    before it mean anything."""
    failed: dict[int, float] = {}  # row -> its first non-finite t in level order

    def sample(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        values = _in_blocks(values_at, rows, ts)
        finite = np.isfinite(values)
        if not finite.all():
            for i in np.flatnonzero(~finite.all(axis=1)).tolist():
                failed.setdefault(int(rows[i]), float(ts[finite[i].argmin()]))
        return values

    n = panels if quad.panels is None else quad.panels
    sums = sample(np.arange(count), _first_levels(n)).reshape(count, 2, n).sum(axis=2).tolist()  # per row and level
    totals = [s[0] for s in sums]
    lengths = [total / n for total in totals]  # each row's latest level
    fresh = [s[1] for s in sums]
    rows = list(range(count))  # rows still doubling, in row order
    for k in range(_MAX_DOUBLINGS):
        if k:
            fresh = sample(np.array(rows), (np.arange(n) + 0.5) / n).sum(axis=1).tolist()
        n *= 2
        stop = min(failed) if failed else count
        going = []
        for r, f in zip(rows, fresh):
            totals[r] += f
            cur = totals[r] / n
            if r < stop and abs(cur - lengths[r]) > quad.qtol * (1.0 + abs(cur)):
                going.append(r)
            lengths[r] = cur
        rows = going
        if not rows:
            break
    for r, length in enumerate(lengths):
        if not math.isfinite(length):
            failed.setdefault(r, math.nan)  # finite samples, an overflowed sum
    return lengths, min(failed.items(), default=None)  # rows are unique: t is never compared


def _integrand(domain: GaugeDomain, chart: str, form: FamilyFn) -> ValuesFn:
    """The trapezoid rule's ``values_at`` for ``form(rows, ts)``, the points
    and the velocities of ``rows`` at ``ts``, each of shape (len(rows), m, d)
    in ``chart``: each call stacks them as (len(rows) * m, d) for one
    support-oracle call.  A chart the domain does not accept raises
    ``ChartMismatchError`` here, before any sample."""
    domain.check_chart(chart)

    def values_at(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        pts, vel = form(rows, ts)
        G, m, d = pts.shape
        q = BasePoint(pts.reshape(-1, d), chart)
        return domain.support_oracle(q, TangentVector(vel.reshape(-1, d), q)).reshape(G, m)

    return values_at


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
    error reports the first non-finite t (inf or NaN) in level order.  A
    chart the domain does not accept raises ``ChartMismatchError``."""

    def one_row(rows: np.ndarray, ts: np.ndarray):
        pts, vel = loop.samples(ts)
        return pts[None], vel[None]

    lengths, failed = _trapezoid(_integrand(domain, loop.chart, one_row), 1, quad, DEFAULT_PANELS)
    if failed is not None:
        t = failed[1]
        raise InfiniteLengthError(
            f"infinite length: {_OVERFLOWED}" if math.isnan(t) else f"infinite support at t={t:.6f}", t=t
        )
    return lengths[0]


# ---------------------------------------------------------------------------
# Families and extremization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GridAxis:
    """``count`` >= 1 points on [lo, hi], or on [lo, hi) when ``periodic``, a
    bool; lo <= hi are finite reals, and a periodic axis has hi > lo, since it
    wraps modulo its width.  Anything else raises ``InvalidInputError``."""

    lo: float
    hi: float
    count: int
    periodic: bool = False

    def __post_init__(self):
        if not is_int(self.count) or self.count < 1:
            raise InvalidInputError(f"a grid axis needs an int count >= 1, got {self.count!r}")
        if not (is_real(self.lo) and is_real(self.hi) and self.lo <= self.hi):
            raise InvalidInputError(f"a grid axis needs finite lo <= hi, got [{self.lo}, {self.hi}]")
        if not isinstance(self.periodic, bool):
            raise InvalidInputError(f"a grid axis's periodic flag must be a bool, got {self.periodic!r}")
        if self.periodic and self.lo == self.hi:
            raise InvalidInputError(f"a periodic grid axis needs hi > lo, got [{self.lo}, {self.hi}]")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count, endpoint=not self.periodic)


@dataclass(frozen=True)
class ParamGrid:
    """Grid descriptor for a compact parameter manifold."""

    axes: tuple[GridAxis, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def points(self) -> np.ndarray:
        """The grid points as the rows of a (G, dim) array in
        ``itertools.product`` order, the last axis varying fastest; one empty
        row, of shape (1, 0), when dim is 0."""
        axes = np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.dim) if axes else np.empty((1, 0))


FamilyFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
SegmentFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class LoopFamily:
    """A named smooth family of loops over a parameter grid, given by its
    array form: ``samples`` maps parameters of shape (G, p) and loop
    parameters ts of shape (m,) to (points, velocities), each of shape
    (G, m, d), all in the family's ``chart``.  The arrays may have any
    layout; the catalog's are views of coordinate-major (d, G, m) buffers.
    ``ts`` may be read-only, and every loop closes, as for loops.

    A family may instead be a ``segment`` from parameters (G, p) to starts
    q0 and steps w, each (G, d), whose loops go from q0 to q0 + w along the
    cutoff profile and back; ``samples`` is derived from it.  A form set by
    ``dataclasses.replace`` keeps the segment, so it must trace its loops.
    A family with neither raises ``TypeError``.

    ``panels`` is the panel count its lengths start from unless
    ``QuadratureSpec.panels`` overrides it, an int in [8,
    ``MAX_QUAD_PANELS``] like that one; anything else raises
    ``InvalidInputError``.  A family whose support integrand is constant in
    t, such as the orbits of a rotation or translation that preserves the
    domain, is integrated exactly at any count, so it may declare 8; the
    others keep ``DEFAULT_PANELS``.
    """

    name: str
    grid: ParamGrid
    samples: Optional[FamilyFn] = None
    chart: str = "default"
    panels: int = DEFAULT_PANELS
    segment: Optional[SegmentFn] = None

    def __post_init__(self):
        if self.samples is None:
            if self.segment is None:
                raise TypeError("a loop family needs samples or a segment")
            object.__setattr__(self, "samples", _out_and_back(self.segment))
        if not (is_int(self.panels) and 8 <= self.panels <= MAX_QUAD_PANELS):
            raise InvalidInputError(f"a family's panels must be an int in [8, {MAX_QUAD_PANELS}], got {self.panels!r}")

    def loop_at(self, p: np.ndarray) -> Loop:
        """The loop at row ``p`` of shape (p,), the family's form on that row,
        called once per call of its ``samples``.  It has no segment, so
        ``loop_length`` runs the trapezoid rule on it from ``DEFAULT_PANELS``,
        up to about 4.2e-11 relative below a segment family's exact length."""
        P = np.asarray(p, dtype=float)[None]
        form = self.samples

        def samples(ts: np.ndarray):
            pts, vel = form(P, ts)
            return pts[0], vel[0]

        return Loop(samples=samples, chart=self.chart)


def _out_and_back(segment: SegmentFn) -> FamilyFn:
    """Loops from q0 to q0 + w for t < 1/2 and back, in (d, G, m) buffers."""

    def samples(P: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q0, w = segment(P)
        t = np.mod(ts, 1.0)
        outward = t < 0.5
        s = np.where(outward, 2.0 * t, 2.0 - 2.0 * t)
        q, v = np.empty((2, w.shape[1], w.shape[0], ts.shape[0]))
        np.add(np.multiply(w.T[:, :, None], cutoff(s), out=q), q0.T[:, :, None], out=q)
        np.multiply(w.T[:, :, None], np.where(outward, 2.0, -2.0) * cutoff_deriv(s), out=v)
        return q.transpose(1, 2, 0), v.transpose(1, 2, 0)

    return samples


def _infinite_at(family: LoopFamily, params: np.ndarray, t: float) -> InfiniteLengthError:
    where = _OVERFLOWED if math.isnan(t) else f"t={t:.6f}"
    return InfiniteLengthError(
        f"family {family.name!r} has infinite length at params {params!r} ({where})",
        t=t,
        params=params,
    )


def family_lengths(
    domain: GaugeDomain,
    family: LoopFamily,
    params: np.ndarray,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """``loop_length`` of ``family.loop_at(p)`` for every row p of ``params``
    (shape (G, p)), all rows in one trapezoid rule: levels 0 and 1 of every
    row in one pass, then the rows that have not converged doubling together,
    in oracle calls of at most ``_BLOCK_SAMPLES`` samples.  The rule starts
    from ``quad.panels``, or from the family's own ``panels`` when that is
    None (where ``loop_length`` would start from ``DEFAULT_PANELS``).

    Raises the ``InfiniteLengthError`` of the first row, in row order, whose
    own ``loop_length`` raises, with that row as ``params`` and the same t;
    rows after it are not evaluated further.  With ``quad.panels`` None, a
    segment family on a domain that ``ignores_base_point`` takes its exact
    lengths instead (``_segment_lengths``)."""
    params = np.asarray(params, dtype=float)
    if family.segment is not None and domain.ignores_base_point and quad.panels is None:
        return _segment_lengths(domain, family, params)
    values_at = _integrand(domain, family.chart, lambda rows, ts: family.samples(params[rows], ts))
    lengths, failed = _trapezoid(values_at, params.shape[0], quad, family.panels)
    if failed is not None:
        raise _infinite_at(family, params[failed[0]], failed[1])
    return np.array(lengths)


@np.errstate(over="ignore", invalid="ignore")
def _segment_lengths(domain: GaugeDomain, family: LoopFamily, params: np.ndarray) -> np.ndarray:
    """h(w) + h(-w) per row, exact as h depends on v alone, is 1-homogeneous
    and the profile monotone, from one oracle call on the rows (q0, w), then
    (q0, -w).  The first row that is not finite raises with t = 1/4 or 3/4 in
    a half whose support is not, else with t = NaN: the sum overflowed."""
    domain.check_chart(family.chart)
    q0, w = family.segment(params)
    q, v = np.concatenate([q0, q0]).T.copy(), np.concatenate([w, -w]).T.copy()  # coordinate-major
    pts = BasePoint(q.T, family.chart)
    out, back = domain.support_oracle(pts, TangentVector(v.T, pts)).reshape(2, -1)
    lengths = out + back
    bad = np.flatnonzero(~np.isfinite(lengths))
    if bad.size:
        i = bad[0]
        t = 0.25 if not math.isfinite(out[i]) else 0.75 if not math.isfinite(back[i]) else math.nan
        raise _infinite_at(family, params[i], t)
    return lengths


@dataclass(frozen=True, slots=True)
class RefineSpec:
    """Compass refinement of a family's sup and inf from their grid points:
    an extremum stops once its step is below ``xtol`` on every axis, or when
    one more round would take its length evaluations past ``budget``, an int
    at least 1 (a budget of 1 leaves a family with a parameter at its
    grid values); ``xtol`` is finite and > 0."""

    budget: int = 200  # length evaluations per extremum
    xtol: float = 1e-6

    def __post_init__(self):
        if not is_int(self.budget):
            raise InvalidInputError(f"refine_budget must be an int, got {self.budget!r}")
        if self.budget < 1:
            raise InvalidInputError(f"refine_budget must be >= 1, got {self.budget}")
        if not (is_real(self.xtol) and self.xtol > 0.0):
            raise InvalidInputError(f"xtol must be finite and > 0, got {self.xtol}")


@dataclass(frozen=True, eq=False)
class ExtremalLengthReport:
    E: float  # sup length after refinement
    e: float  # inf length after refinement
    argmax_params: np.ndarray
    argmin_params: np.ndarray
    grid_E: float
    grid_e: float
    refinement_history: tuple[dict, ...]
    qtol: float  # the quadrature tolerance the lengths were computed under


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
    spans = np.where(periodic, his - los, 1.0)  # a clipped axis may have width 0: mod by 1 there
    return lambda x: np.where(periodic, los + np.mod(x - los, spans), clip(x))


def _refine(lengths, grid: ParamGrid, starts, budget: int, xtol: float) -> list[tuple]:
    """Batched compass search (Kolda, Lewis and Torczon, SIAM Review 2003)
    from ``starts``, the extrema to refine, one (x0, f0, sign) each: the point,
    its length, and -1 to maximize or 1 to minimize.  Each starts with step h
    half a grid gap on every axis.  A round tries x +- h e_i for every
    extremum still refining, all in one ``lengths`` call on a (k, p) array;
    an extremum moves to its best trial on a strict improvement and halves h
    otherwise, and stops when h < xtol on every axis or when its next round
    would take its evaluations past ``budget``.  Trial points stay within one
    grid gap of the start on every axis and go through ``_folder``, so
    periodic axes wrap across the seam and the others are clipped.  The
    rounds an extremum would take if no trial improved, its failure ladder,
    are built in one array operation when it starts or moves, and a round
    reads one rung of each.  Returns (point, length, evals, rounds) per start."""
    p = grid.dim
    fold = _folder(grid)
    # a periodic axis excludes hi, so its count points split it into count gaps
    gap = np.array([(ax.hi - ax.lo) / (ax.count if ax.periodic else max(ax.count - 1, 1)) for ax in grid.axes])
    moves = np.concatenate([np.eye(p), -np.eye(p)])

    def climb(s: SimpleNamespace, x: np.ndarray, h: np.ndarray) -> None:
        """Give search ``s`` its ladder at x with step h: rung k, the round
        after k failures, has step ``steps[k, 0]`` = h / 2**k and trial points
        x +- steps[k] e_i, ``raw[k]`` clipped to the box and ``trials[k]``
        folded; ``rung`` is the next round's."""
        k, hk = 0, max(h.tolist(), default=0.0)
        while hk >= xtol and 2 * p * (s.rounds + k + 1) <= budget:
            k, hk = k + 1, hk / 2
        steps = np.full((k, 1, p), 0.5)
        steps[:1, 0] = h
        s.steps = steps.cumprod(axis=0)  # halving, as h / 2 each round would
        s.raw = (x + s.steps * moves).clip(s.lo, s.hi)
        s.trials, s.rung = fold(s.raw), 0

    # each search: its box, its point ``at`` as evaluated and its length f
    searches = [SimpleNamespace(lo=x0 - gap, hi=x0 + gap, at=x0, f=f0, sign=sign, rounds=0) for x0, f0, sign in starts]
    for s in searches:
        climb(s, s.at, gap / 2)
    while True:
        going = [s for s in searches if s.rung < s.steps.shape[0]]
        if not going:
            return [(s.at, s.f, 2 * p * s.rounds, s.rounds) for s in searches]
        values = lengths(np.concatenate([s.trials[s.rung] for s in going])).reshape(len(going), 2 * p)
        signed = np.array([[s.sign] for s in going]) * values
        for s, v, row, j in zip(going, values.tolist(), signed.tolist(), signed.argmin(axis=1).tolist()):
            k = s.rung
            s.rounds += 1
            if row[j] < s.sign * s.f:
                s.at, s.f = s.trials[k, j], v[j]
                climb(s, s.raw[k, j], s.steps[k, 0])
            else:
                s.rung += 1


def extremal_lengths(
    domain: GaugeDomain,
    family: LoopFamily,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
    extrema: tuple[str, ...] = ("sup", "inf"),
) -> ExtremalLengthReport:
    """Sup and inf of loop lengths over the family's parameter space: one
    ``family_lengths`` batch over the grid, then a compass search from the
    grid points of the ``extrema`` named (``_refine``); one not named keeps
    its grid point and length, with no evals, as a budget of 1 gives.  Each
    round tries a step h either way along every axis, within one grid gap of
    the grid point, in one ``family_lengths`` call; an extremum stops once h
    is below ``refine.xtol`` on every axis or when its next round would take
    it past ``refine.budget`` lengths.  Each ``refinement_history`` entry
    counts its extremum's lengths (``evals``) and ``rounds``."""
    pts = family.grid.points()
    lengths = family_lengths(domain, family, pts, quad)
    i_max = int(np.argmax(lengths))
    i_min = int(np.argmin(lengths))
    grid_E = float(lengths[i_max])
    grid_e = float(lengths[i_min])

    starts = {"sup": (pts[i_max], grid_E, -1.0), "inf": (pts[i_min], grid_e, 1.0)}
    read = [m for m in starts if m in extrema]
    found = dict(zip(read, _refine(
        lambda P: family_lengths(domain, family, P, quad),
        family.grid,
        [starts[m] for m in read],
        refine.budget,
        refine.xtol,
    )))
    (xmax, E, n_max, r_max), (xmin, e, n_min, r_min) = (found.get(m, (x, f, 0, 0)) for m, (x, f, _) in starts.items())
    history = (
        {"extremum": "sup", "grid": grid_E, "refined": E, "evals": n_max, "rounds": r_max},
        {"extremum": "inf", "grid": grid_e, "refined": e, "evals": n_min, "rounds": r_min},
    )
    return ExtremalLengthReport(
        E=E,
        e=e,
        argmax_params=xmax,
        argmin_params=xmin,
        grid_E=grid_E,
        grid_e=grid_e,
        refinement_history=history,
        qtol=quad.qtol,
    )
