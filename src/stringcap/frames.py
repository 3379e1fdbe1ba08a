"""Global unitary frame field on the sphere.

For every unit q = (x, y) in R^n x R the complexified tangent space of S^n is
trivialized through the differential of the immersion (x, y) -> (1 + iy) x
into C^n; the pulled-back standard basis, prepended with q itself and
orthonormalized, yields A(q) in U(n+1) with A(q) e_1 = q, smoothly in q.

Everything works on stacks: ``sphere_unitary_frame`` takes one point of shape
``(n+1,)`` or a stack of shape ``(m, n+1)`` and orthonormalizes the whole stack
at once. A single point is a one-row stack whose fields are unstacked at the
end. Row norms and inner products go through ``np.vecdot``, which calls the
same BLAS dot as a one-dimensional ``@`` or ``np.linalg.norm``, so each row
equals bit for bit the same steps done on that one point with those (the
reference in the tests); a norm taken with ``axis=-1`` sums in another order
and differs in the last bits.
"""
from __future__ import annotations

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
    sphere. Returns the (m, n+1, n) stack of columns."""
    n = q.shape[1] - 1
    x, y = q[:, :n], q[:, n]
    w = -x / (y + 1j * (2.0 * y * y - 1.0))[:, None]
    u = (np.eye(n) - (1j * w)[:, None, :] * x[:, :, None]) / (1.0 + 1j * y)[:, None, None]
    return np.concatenate([u, w[:, None, :]], axis=1)


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
    if (np.abs(_row_norms(qs) - 1.0) > 1e-10).any():
        raise InvalidInputError("q must be a unit vector")

    cols = np.empty((qs.shape[0], n + 1, n + 1), dtype=complex)
    cols[:, :, 0] = qs
    cols[:, :, 1:] = _tangent_basis(qs)

    # modified Gram-Schmidt over C with q fixed first, every row at once
    for j in range(n + 1):
        v = cols[:, :, j]
        for i in range(j):
            c = cols[:, :, i]
            v = v - np.vecdot(c, v)[:, None] * c
        nrm = _row_norms(v)
        if (nrm < 1e-12).any():
            raise InvalidInputError("frame vectors became linearly dependent")
        cols[:, :, j] = v / nrm[:, None]

    gram = np.conj(cols.transpose(0, 2, 1)) @ cols
    u_res = _row_norms((gram - np.eye(n + 1)).reshape(len(qs), (n + 1) ** 2))
    b_res = _row_norms(cols[:, :, 0] - qs)
    if q.ndim == 1:
        cols, u_res, b_res = cols[0], float(u_res[0]), float(b_res[0])
    return UnitaryFrame(matrix=cols, unitarity_residual=u_res, basepoint_residual=b_res)


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
