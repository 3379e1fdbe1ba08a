"""Loops, loop families, the gauge length functional and its extremization.

A loop is evaluated in array form: ``points(ts)`` and ``velocities(ts)`` map
parameters ``ts`` of shape (m,) to coordinates of shape (m, d), all in the
loop's ``chart``.  The catalog writes its loops in that form and gets the
scalar ``point_fn``/``deriv_fn`` from one-row evaluations; a loop built from
scalar closures gets its array forms by stacking them, so every length goes
through the same batched path.

The length of a loop q is the integral over one period of the fiber support
function evaluated on the velocity.  The integrand is smooth and periodic, so
the equal-weight trapezoid rule on [0, 1) converges geometrically (Trefethen
and Weideman, SIAM Review 2014); each level doubles the samples by
interleaving midpoints and costs one batched support-oracle call.
Suprema/infima over families are taken on a parameter grid and refined with
derivative-free local search.
"""
from __future__ import annotations

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
    Without a velocity form the velocity is a central finite difference.
    Points may be a lift (for flat quotients they can leave the fundamental
    domain); ``identify`` maps raw coordinates to a canonical representative
    and is used only by validation.
    """

    point_fn: Optional[Callable[[float], BasePoint]] = None
    deriv_fn: Optional[Callable[[float], TangentVector]] = None
    periodic: bool = True
    metadata: str = ""
    identify: Optional[Callable[[np.ndarray], np.ndarray]] = None
    points: Optional[ArrayFn] = None
    velocities: Optional[ArrayFn] = None
    chart: str = "default"

    def __post_init__(self):
        if not self.periodic:
            raise LoopValidationError("loops must be periodic")
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
        if self.panels < 8 or self.panels % 2:
            raise InvalidInputError("panel count must be even and >= 8")


def loop_length(domain: GaugeDomain, loop: Loop, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Gauge length of ``loop``: the periodic trapezoid rule applied to the
    support of the velocity, one batched oracle call per level, doubled by
    interleaving midpoints until the relative change drops below qtol.

    Only sampled parameters are seen: if the support is infinite on a window
    narrower than the finest sample spacing reached, and two successive levels
    agree before any sample lands in it, the result is finite and no
    ``InfiniteLengthError`` is raised. On the camel domain with ``panels=8``,
    a window of width 0.02 around t = 0.6 is missed this way."""
    oracle, pts, vel, chart = domain.support_oracle, loop.points, loop.velocities, loop.chart

    def level_sum(ts: np.ndarray) -> float:
        q = BasePoint(pts(ts), chart)
        values, finite = oracle(q, TangentVector(vel(ts), q))
        if not finite.all():
            t = float(ts[np.argmin(finite)])
            raise InfiniteLengthError(f"infinite support at t={t:.6f}", t=t)
        return float(values.sum())

    n = quad.panels
    total = level_sum(np.arange(n) / n)
    prev = total / n
    for _ in range(quad.max_doublings):
        total += level_sum((np.arange(n) + 0.5) / n)
        n *= 2
        cur = total / n
        if abs(cur - prev) <= quad.qtol * (1.0 + abs(cur)):
            return cur
        prev = cur
    return prev


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


@dataclass(frozen=True, eq=False)
class LoopFamily:
    """A named smooth family of loops over a parameter grid."""

    name: str
    grid: ParamGrid
    loop_at: Callable[[np.ndarray], Loop]


@dataclass(frozen=True, slots=True)
class RefineSpec:
    budget: int = 200  # function evaluations per extremum
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
    attained_on_grid_closure: bool = True


def _golden_section(f, lo, hi, budget, xtol):
    """Golden-section minimization of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while evals < budget and (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        evals += 1
    x = c if fc < fd else d
    return x, min(fc, fd), evals


def _refine(f, x0, grid: ParamGrid, budget: int, xtol: float, minimize: bool):
    """Derivative-free local refinement from a grid extremum."""
    sign = 1.0 if minimize else -1.0
    los = np.array([ax.lo for ax in grid.axes])
    his = np.array([ax.hi for ax in grid.axes])

    def wrapped(x):
        return sign * f(np.clip(np.atleast_1d(x), los, his))

    if grid.dim == 0:
        return x0, f(x0), 0
    if grid.dim == 1:
        ax = grid.axes[0]
        span = (ax.hi - ax.lo) / max(ax.count - 1, 1)
        lo = max(ax.lo, float(x0[0]) - span)
        hi = min(ax.hi, float(x0[0]) + span)
        x, fx, evals = _golden_section(lambda t: wrapped([t]), lo, hi, budget, xtol)
        return np.array([x]), sign * fx, evals
    # imported here, not with the package: scipy.optimize is more than half of
    # the package's import time and memory, and only this refinement of
    # families with two or more parameters uses it
    from scipy import optimize

    res = optimize.minimize(
        wrapped,
        x0,
        method="Nelder-Mead",
        options={"maxfev": budget, "xatol": xtol, "fatol": 1e-12},
    )
    x = np.clip(res.x, los, his)
    return x, sign * res.fun, int(res.nfev)


def extremal_lengths(
    domain: GaugeDomain,
    family: LoopFamily,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
) -> ExtremalLengthReport:
    """Grid evaluation of loop lengths over the family's parameter space,
    followed by golden-section (1-D) or Nelder-Mead (>= 2-D) refinement of
    both extrema."""

    def length_at(params: np.ndarray) -> float:
        try:
            return loop_length(domain, family.loop_at(params), quad)
        except InfiniteLengthError as exc:
            raise InfiniteLengthError(
                f"family {family.name!r} has infinite length at params {params!r} "
                f"(t={exc.t:.6f})",
                t=exc.t,
                params=params,
            ) from exc

    pts = list(family.grid.points())
    lengths = np.array([length_at(p) for p in pts])
    i_max = int(np.argmax(lengths))
    i_min = int(np.argmin(lengths))
    grid_E = float(lengths[i_max])
    grid_e = float(lengths[i_min])

    xmax, ref_E, n_max = _refine(length_at, pts[i_max], family.grid, refine.budget, refine.xtol, minimize=False)
    xmin, ref_e, n_min = _refine(length_at, pts[i_min], family.grid, refine.budget, refine.xtol, minimize=True)

    E = max(grid_E, ref_E)
    e = min(grid_e, ref_e)
    if not (math.isfinite(E) and math.isfinite(e)):
        raise InfiniteLengthError("non-finite extremal length", t=float("nan"))
    history = (
        {"extremum": "sup", "grid": grid_E, "refined": ref_E, "evals": n_max},
        {"extremum": "inf", "grid": grid_e, "refined": ref_e, "evals": n_min},
    )
    return ExtremalLengthReport(
        family=family.name,
        E=E,
        e=e,
        argmax_params=xmax if ref_E >= grid_E else pts[i_max],
        argmin_params=xmin if ref_e <= grid_e else pts[i_min],
        grid_E=grid_E,
        grid_e=grid_e,
        grid_shape=tuple(ax.count for ax in family.grid.axes),
        refinement_history=history,
        tolerance=quad.qtol * (1.0 + abs(E)),
    )
