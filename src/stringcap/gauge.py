"""Fiberwise starshaped domains in a cotangent bundle, represented by the
fiber support function h(q, v) = max{<p, v> : p in the fiber over q}.

The support function is the only piece of symplectic data the package ever
touches: lengths, containment checks and all downstream bounds are computed
from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartMismatchError, InvalidInputError, RankDeficientError, is_int, is_real


# ---------------------------------------------------------------------------
# Base points and tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class BasePoint:
    """A point of the base manifold in chart/embedding coordinates."""

    coords: np.ndarray
    chart_id: str = "default"


@dataclass(frozen=True, eq=False, slots=True)
class TangentVector:
    """A tangent vector attached at ``base``, in the same coordinate frame."""

    components: np.ndarray
    base: BasePoint


@dataclass(frozen=True, slots=True)
class BaseDescriptor:
    """Manifold kind, dimension and the chart ids the domain accepts."""

    kind: str
    dim: int
    charts: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class GaugeDomain:
    """A fiberwise starshaped domain exposed through its support oracle.

    The oracle is batched: it takes a BasePoint whose ``coords`` have shape
    (m, d), one sample per row, all in the point's chart, and a TangentVector
    attached to it whose ``components`` have shape (m, d).  It returns one
    float array of shape (m,): the support h(q_i, v_i) in row i, and +inf
    where the fiber is unbounded in direction v_i.  Every consumer treats a
    non-finite value, NaN included, as infinite.  The oracle must be
    positively 1-homogeneous in v and vanish at v = 0.

    ``support_oracle`` is the only way in: quadrature, containment checks and
    ``support`` all call it, so a domain rebuilt with another oracle through
    ``dataclasses.replace`` is used everywhere.

    ``ignores_base_point`` promises that h(q, v) depends on v alone, so
    segment families take exact lengths; ``codisk_domain`` declares it, and
    ``dataclasses.replace`` keeps it, so a swapped-in oracle must keep it.
    """

    base: BaseDescriptor
    support_oracle: Callable[[BasePoint, TangentVector], np.ndarray]
    ignores_base_point: bool = False

    def check_chart(self, chart: str) -> None:
        """Raise ``ChartMismatchError`` unless the domain accepts ``chart``."""
        if chart not in self.base.charts:
            raise ChartMismatchError(f"chart {chart!r} not accepted by domain ({self.base.charts})")


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """A Riemannian metric: the pullback of the Euclidean metric under a
    linear map with constant (D, d) Jacobian ``embedding_jacobian``, or flat
    when there is no Jacobian, with a codisk ``radius``.  The Jacobian is a
    nonempty, finite 2-D float array and the radius a finite real >= 0, or
    ``InvalidInputError`` is raised.  The metric keeps a read-only copy of
    the Jacobian, so later writes to the caller's array do not reach it.  A
    metric that varies with the point is a ``GaugeDomain`` with its own
    support oracle."""

    embedding_jacobian: Optional[np.ndarray] = None
    radius: float = 1.0

    def __post_init__(self):
        jac = self.embedding_jacobian
        if jac is not None:
            if (not isinstance(jac, np.ndarray) or jac.dtype.kind != "f" or jac.ndim != 2 or jac.size == 0
                    or not np.isfinite(jac).all()):
                raise InvalidInputError(f"embedding Jacobian must be a nonempty finite float 2-D array, got {jac!r}")
            jac = jac.copy()
            jac.flags.writeable = False
            object.__setattr__(self, "embedding_jacobian", jac)
        r = self.radius
        if not (is_real(r) and r >= 0.0):
            raise InvalidInputError(f"codisk radius must be a finite real number >= 0, got {r!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _validate_attachment(q: BasePoint, v: TangentVector) -> None:
    if v.base.chart_id != q.chart_id or not np.array_equal(v.base.coords, q.coords):
        raise InvalidInputError("tangent vector is not attached at the given point")
    if np.isnan(q.coords).any() or np.isnan(v.components).any():
        raise InvalidInputError("NaN in support evaluation inputs")


def support(domain: GaugeDomain, q: BasePoint, v: TangentVector) -> float:
    """Evaluate the fiber support function of ``domain`` at one pair (q, v):
    the oracle's value, +inf where the fiber is unbounded."""
    domain.check_chart(q.chart_id)
    _validate_attachment(q, v)
    row = BasePoint(np.asarray(q.coords, dtype=float)[None], q.chart_id)
    return float(domain.support_oracle(row, TangentVector(np.asarray(v.components, dtype=float)[None], row))[0])


def metric_norm(metric: MetricSpec, q: BasePoint, v: TangentVector) -> float:
    """radius x Euclidean norm of the pushed-forward vector; equals the
    support of the associated codisk bundle.  A Jacobian of rank below its
    column count raises ``RankDeficientError``."""
    _validate_attachment(q, v)
    jac = metric.embedding_jacobian
    if jac is None:
        return metric.radius * float(np.linalg.norm(v.components))
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size < jac.shape[1] or sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise RankDeficientError(f"embedding Jacobian of shape {jac.shape} has rank below {jac.shape[1]}")
    return metric.radius * float(np.linalg.norm(jac @ v.components))


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise dot products of two coordinate-major (d, m) arrays.

    The products are laid out coordinate-major, so the sum adds d contiguous
    rows of m values: a sum over the short trailing axis of an (m, d) array
    runs numpy's reduction loop once per sample, about 20 ns each.  For
    d < 8 numpy's pairwise sum adds a short axis in the same order, so the
    values are bit for bit those of the row-wise sum; for d >= 8 it groups
    the terms otherwise and the last bits may differ (relative 1e-16 d).
    """
    return np.add.reduce(np.multiply(a, b, order="C"), axis=0)


def codisk_domain(base: BaseDescriptor, metric: MetricSpec) -> GaugeDomain:
    """The codisk bundle {|p|_{g*} <= radius} of ``metric`` as a GaugeDomain,
    whose support ignores the base point: the Jacobian is constant."""
    r, jac = metric.radius, metric.embedding_jacobian

    def oracle(q: BasePoint, v: TangentVector):
        w = v.components.T
        if jac is not None:
            w = jac @ w
        return r * np.sqrt(_coldot(w, w))

    return GaugeDomain(base, oracle, ignores_base_point=True)


@dataclass(frozen=True, slots=True)
class SamplePlan:
    """How to sample (q, v) pairs for containment checks: an int ``count``
    >= 1 of pairs from an int ``seed`` >= 0; anything else raises
    ``InvalidInputError``, since a plan that samples nothing would report
    containment unchecked."""

    count: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.count) and is_int(self.seed) and self.count >= 1 and self.seed >= 0):
            raise InvalidInputError(f"a sample plan needs int count >= 1, seed >= 0, got {self.count!r} {self.seed!r}")


@dataclass(frozen=True, eq=False)
class ContainmentResult:
    """Containment holds when no sample violates it; ``witness`` is the
    first violating (q, v, inner support, outer support)."""

    witness: Optional[tuple[BasePoint, TangentVector, float, float]] = None

    @property
    def contained(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.contained


# the most samples in one support-oracle call, here and in ``loops``, so a
# call's temporaries stay a few hundred KB
_BLOCK_SAMPLES = 4096


def _sample_batches(base: BaseDescriptor, plan: SamplePlan):
    """The plan's (q, v) pairs as a batch of one row and then blocks of at
    most ``_BLOCK_SAMPLES`` rows.

    Sample i is drawn as if the pairs were drawn one at a time: on the sphere
    a normal point and then a normal vector, projected; on a torus or Klein
    bottle a uniform point and then a normal vector.
    """
    rng = np.random.default_rng(plan.seed)
    chart = base.charts[0]
    if base.kind not in ("sphere", "torus", "klein"):
        raise InvalidInputError(f"no sampler for base kind {base.kind!r}")
    done = 0
    while done < plan.count:
        k = min(_BLOCK_SAMPLES if done else 1, plan.count - done)
        if base.kind == "sphere":
            # normal draws of one call follow on exactly as in separate calls
            z = rng.standard_normal((k, 2, base.dim + 1))
            qc = z[:, 0] / np.sqrt(_coldot(z[:, 0].T, z[:, 0].T))[:, None]
            w = z[:, 1] - _coldot(z[:, 1].T, qc.T)[:, None] * qc
        else:
            # uniform and normal draws interleave, so they are taken per sample
            draws = [(rng.uniform(0.0, 1.0, base.dim), rng.standard_normal(base.dim)) for _ in range(k)]
            qc = np.array([d[0] for d in draws])
            w = np.array([d[1] for d in draws])
        q = BasePoint(qc, chart)
        yield q, TangentVector(w, q)
        done += k


def domain_contains(
    inner: GaugeDomain, outer: GaugeDomain, plan: SamplePlan = SamplePlan()
) -> ContainmentResult:
    """True iff support_inner <= support_outer, within 1e-9 relative, at
    every sampled (q, v).

    Samples are checked in a batch of one row and then in blocks of at most
    ``_BLOCK_SAMPLES`` rows, so a violation at the first sample costs one
    oracle call per domain and a plan of 10,000 pairs four; the witness is
    the first violating sample in plan order.
    """
    if inner.base != outer.base:
        raise ChartMismatchError("containment check requires a common base")
    for q, v in _sample_batches(inner.base, plan):
        si, so = inner.support_oracle(q, v), outer.support_oracle(q, v)
        # an inner value that is inf or NaN counts as above every finite outer one
        bad = np.isfinite(so) & ~(si <= so + 1e-9 * (1.0 + np.abs(so)))
        hits = bad.nonzero()[0]
        if hits.size:
            i = hits[0]
            qi = BasePoint(q.coords[i], q.chart_id)
            return ContainmentResult((qi, TangentVector(v.components[i], qi), float(si[i]), float(so[i])))
    return ContainmentResult()
