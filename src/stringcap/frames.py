"""Global unitary frame field on the sphere.

For every unit q = (x, y) in R^n x R the complexified tangent space of S^n is
trivialized through the differential of the immersion (x, y) -> (1 + iy) x
into C^n; the pulled-back standard basis, prepended with q itself and
orthonormalized, yields A(q) in U(n+1) with A(q) e_1 = q, smoothly in q.

Everything works on stacks: ``sphere_unitary_frame`` takes one point of shape
``(n+1,)`` or a stack of shape ``(m, n+1)`` and orthonormalizes the whole stack
at once; a single point is a one-row stack, unstacked at the end. Columns are
coordinate-major, ``C[j, k]`` component k of column j over the m rows, and a
sum over a short axis adds its terms in a fixed order (``_sum``;
``np.add.reduce`` rounds a lone complex row otherwise than a stack), so a
point's frame equals bit for bit its row of any stack. ``verify_frame_family``
normalizes with ``np.vecdot``, the BLAS dot of ``np.linalg.norm``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, is_int, is_real


@dataclass(frozen=True, eq=False)
class UnitaryFrame:
    """A(q) for one point (``matrix`` (n+1, n+1), float residuals) or for a
    stack of m points (``matrix`` (m, n+1, n+1), residuals of shape (m,))."""

    matrix: np.ndarray
    unitarity_residual: float | np.ndarray
    basepoint_residual: float | np.ndarray


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real or complex (m, k) array."""
    if np.iscomplexobj(a):
        re, im = a.real, a.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(a, a))


def _tangent_basis(q: np.ndarray) -> np.ndarray:
    """Columns j solve D iota (u, w) = f_j under the complexified tangency
    constraint <x, u> + y w = 0, where iota(x, y) = (1 + iy) x, for a stack
    q of shape (m, n+1): u = (I - i x w^T) / (1 + iy) and
    w = -x / (y + i(2y^2 - 1)), whose denominator never vanishes on the
    sphere. Returns the (m, n+1, n) stack of columns, a view of a
    coordinate-major (n, n+1, m) array."""
    n = q.shape[1] - 1
    x, y = q[:, :n].T, q[:, n]
    w = -x / (y + 1j * (2.0 * y * y - 1.0))
    u = (np.eye(n)[:, :, None] - (1j * w)[:, None, :] * x[None, :, :]) / (1.0 + 1j * y)
    return np.concatenate([u, w[:, None, :]], axis=1).transpose(2, 1, 0)


def _sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, one slice at a time in order."""
    return functools.reduce(np.add, terms)


def _norm(v: np.ndarray) -> np.ndarray:
    """Norm of each column of a coordinate-major (k, m) complex array."""
    return np.sqrt(_sum(v.real * v.real) + _sum(v.imag * v.imag))


def sphere_unitary_frame(n: int, q: np.ndarray) -> UnitaryFrame:
    """Unitary matrix with first column q, varying smoothly over the sphere;
    ``q`` is one unit vector (n+1,) or a stack of them (m, n+1), and ``n``
    an int >= 0; anything else raises ``InvalidInputError``."""
    if not (is_int(n) and n >= 0):
        raise InvalidInputError(f"n must be an int >= 0, got {n!r}")
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != n + 1:
        raise InvalidInputError(f"q must be a vector of length {n + 1} or a stack of them")
    if not np.isfinite(q).all():
        raise InvalidInputError("q must be finite")
    qs = q.reshape(-1, n + 1)
    qt = qs.T
    if (np.abs(np.sqrt(_sum(qt * qt)) - 1.0) > 1e-10).any():
        raise InvalidInputError("q must be a unit vector")

    cols = np.empty((n + 1, n + 1, qs.shape[0]), dtype=complex)  # cols[j, k]: component k of column j
    cols[0] = qt
    cols[1:] = _tangent_basis(qs).transpose(2, 1, 0)

    # modified Gram-Schmidt over C with q fixed first, every row at once; a
    # column's products with itself and the earlier ones are its Gram row
    u_sq = 0.0
    for j in range(n + 1):
        v = cols[j]
        for i in range(j):
            v = v - _sum(np.conj(cols[i]) * v) * cols[i]
        nrm = _norm(v)
        if (nrm < 1e-12).any():
            raise InvalidInputError("frame vectors became linearly dependent")
        cols[j] = v / nrm
        gram = _sum((np.conj(cols[:j + 1]) * cols[j]).transpose(1, 0, 2))
        gram[j] -= 1.0
        sq = gram.real * gram.real + gram.imag * gram.imag
        sq[:j] *= 2.0  # an entry off the diagonal stands for its conjugate too
        u_sq = u_sq + _sum(sq)
    u_res, b_res = np.sqrt(u_sq), _norm(cols[0] - qt)
    matrix = cols.transpose(2, 1, 0)
    if q.ndim == 1:
        matrix, u_res, b_res = matrix[0], float(u_res[0]), float(b_res[0])
    return UnitaryFrame(matrix=matrix, unitarity_residual=u_res, basepoint_residual=b_res)


@dataclass(frozen=True, eq=False)
class FrameFamilyReport:
    """``count`` is the number of pairs drawn, ``checked`` the number framed:
    a draw whose tangent direction projects to zero is dropped, and with no
    pair checked the residuals and the modulus are 0 by default, not by
    measurement."""

    count: int
    checked: int
    max_unitarity_residual: float
    max_basepoint_residual: float
    continuity_modulus: float


def verify_frame_family(
    n: int, mesh: float = 1e-3, count: int = 500, seed: int = 0
) -> FrameFamilyReport:
    """Residuals at seeded random points plus a discrete continuity modulus
    max |A(q) - A(q')|_F / |q - q'| over pairs at distance about ``mesh``.

    Calling again with a halved mesh and the same seed probes the same base
    points, so the modulus should be stable under refinement. The ``count``
    pairs are drawn as (q, d) in that order from one normal stream and framed
    in one call on the stacked rows [q; q']; a NaN anywhere in the frames
    reaches the maxima.  ``n``, ``count`` and ``seed`` are ints >= 0 and
    ``mesh`` is finite and > 0; anything else raises ``InvalidInputError``.
    """
    if not (is_real(mesh) and mesh > 0.0):
        raise InvalidInputError(f"mesh must be finite and positive, got {mesh!r}")
    if not (is_int(n) and is_int(count) and is_int(seed) and min(n, count, seed) >= 0):
        raise InvalidInputError(f"n, count and seed must be ints >= 0, got {n!r}, {count!r}, {seed!r}")
    draws = np.random.default_rng(seed).standard_normal((count, 2, n + 1))
    q = draws[:, 0] / _row_norms(draws[:, 0])[:, None]
    d = draws[:, 1] - np.vecdot(draws[:, 1], q)[:, None] * q
    dn = _row_norms(d)
    keep = dn != 0.0
    q, d, dn = q[keep], d[keep], dn[keep]
    qp = q + mesh * d / dn[:, None]
    qp /= _row_norms(qp)[:, None]
    f = sphere_unitary_frame(n, np.concatenate([q, qp]))
    m = len(q)
    gap = _row_norms(q - qp)
    jump = _row_norms((f.matrix[:m] - f.matrix[m:]).reshape(m, (n + 1) ** 2))
    moved = gap > 0.0
    return FrameFamilyReport(
        count=count,
        checked=m,
        max_unitarity_residual=float(np.max(f.unitarity_residual, initial=0.0)),
        max_basepoint_residual=float(np.max(f.basepoint_residual, initial=0.0)),
        continuity_modulus=float(np.max(jump[moved] / gap[moved], initial=0.0)),
    )
