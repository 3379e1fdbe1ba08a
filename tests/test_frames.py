"""Unitary frame field on the sphere: residuals, determinism, continuity."""
import dataclasses
import math

import numpy as np
import pytest

from stringcap import frames
from stringcap.errors import InvalidInputError
from stringcap.frames import sphere_unitary_frame, verify_frame_family


def test_basepoint_case():
    q = np.array([1.0, 0.0, 0.0])
    f = sphere_unitary_frame(2, q)
    assert np.allclose(f.matrix[:, 0], q, atol=1e-14)
    assert f.unitarity_residual <= 1e-10
    assert f.basepoint_residual <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_points_have_tiny_residuals(n):
    rng = np.random.default_rng(10)
    for _ in range(200):
        q = rng.standard_normal(n + 1)
        q /= np.linalg.norm(q)
        f = sphere_unitary_frame(n, q)
        assert f.unitarity_residual <= 1e-10
        assert f.basepoint_residual <= 1e-10


def test_antipodal_points_both_succeed():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    fa = sphere_unitary_frame(3, q)
    fb = sphere_unitary_frame(3, -q)
    assert fa.unitarity_residual <= 1e-10
    assert fb.unitarity_residual <= 1e-10
    assert np.allclose(fb.matrix[:, 0], -q, atol=1e-12)


def test_frames_are_deterministic():
    q = np.array([0.6, 0.0, 0.8])
    f1 = sphere_unitary_frame(2, q)
    f2 = sphere_unitary_frame(2, q)
    assert np.array_equal(f1.matrix, f2.matrix)


def test_invalid_inputs_are_rejected():
    with pytest.raises(InvalidInputError):
        sphere_unitary_frame(2, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        sphere_unitary_frame(2, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_continuity_modulus_is_stable_under_refinement(n):
    r1 = verify_frame_family(n, mesh=1e-3, count=200, seed=0)
    r2 = verify_frame_family(n, mesh=5e-4, count=200, seed=0)
    r3 = verify_frame_family(n, mesh=2.5e-4, count=200, seed=0)
    assert r1.continuity_modulus > 0.0
    assert abs(r2.continuity_modulus - r1.continuity_modulus) < 0.1 * r1.continuity_modulus
    assert abs(r3.continuity_modulus - r2.continuity_modulus) < 0.1 * r2.continuity_modulus
    assert r1.max_unitarity_residual <= 1e-10
    assert r1.max_basepoint_residual <= 1e-10


# ---------------------------------------------------------------------------
# Batched frames against the per-point reference
# ---------------------------------------------------------------------------

def _reference_frame(n, q):
    """Per-point frame: the tangent basis column by column, then modified
    Gram-Schmidt on one point; returns (matrix, unitarity, basepoint)."""
    x, y = q[:n], float(q[n])
    cols = np.empty((n + 1, n + 1), dtype=complex)
    cols[:, 0] = q
    for j in range(n):
        f = np.zeros(n)
        f[j] = 1.0
        w = -x[j] / (y + 1j * (2.0 * y * y - 1.0))
        cols[:n, j + 1] = (f - 1j * w * x) / (1.0 + 1j * y)
        cols[n, j + 1] = w
    for j in range(n + 1):
        v = cols[:, j]
        for i in range(j):
            v = v - (np.conj(cols[:, i]) @ v) * cols[:, i]
        cols[:, j] = v / np.linalg.norm(v)
    u_res = float(np.linalg.norm(np.conj(cols.T) @ cols - np.eye(n + 1)))
    return cols, u_res, float(np.linalg.norm(cols[:, 0] - q))


def _reference_family(n, mesh, count, seed):
    """Per-sample loop over (q, d) draws; returns the (q, q') pairs, the two
    residual maxima and the continuity modulus."""
    rng = np.random.default_rng(seed)
    points, max_u, max_b, modulus = [], 0.0, 0.0, 0.0
    for _ in range(count):
        q = rng.standard_normal(n + 1)
        q /= np.linalg.norm(q)
        d = rng.standard_normal(n + 1)
        d -= (d @ q) * q
        dn = np.linalg.norm(d)
        if dn == 0.0:
            continue
        qp = q + mesh * d / dn
        qp /= np.linalg.norm(qp)
        (ma, ua, ba), (mb, ub, bb) = _reference_frame(n, q), _reference_frame(n, qp)
        points.append((q, qp))
        max_u, max_b = max(max_u, ua, ub), max(max_b, ba, bb)
        gap = float(np.linalg.norm(q - qp))
        if gap > 0.0:
            modulus = max(modulus, float(np.linalg.norm(ma - mb)) / gap)
    return points, max_u, max_b, modulus


def _special_points(n, rng):
    """Random unit points, the poles y = +-1, equator points y = 0 and
    antipodal pairs."""
    q = rng.standard_normal((40, n + 1))
    q[:8, n] = 0.0
    q /= np.linalg.norm(q, axis=1)[:, None]
    poles = np.zeros((2, n + 1))
    poles[:, n] = (1.0, -1.0)
    return np.vstack([q, poles, -q[:12]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-11])  # off unit within tolerance: a real basepoint residual
def test_stacked_frames_match_the_per_point_reference(n, scale):
    qs = scale * _special_points(n, np.random.default_rng(20 + n))
    stacked = sphere_unitary_frame(n, qs)
    assert stacked.matrix.shape == (len(qs), n + 1, n + 1)
    assert stacked.unitarity_residual.shape == stacked.basepoint_residual.shape == (len(qs),)
    for row, q in enumerate(qs):
        ref, u_res, b_res = _reference_frame(n, q)
        np.testing.assert_allclose(stacked.matrix[row], ref, rtol=0, atol=1e-12)
        assert abs(stacked.unitarity_residual[row] - u_res) <= 1e-14
        assert abs(stacked.basepoint_residual[row] - b_res) <= 1e-14
        assert stacked.unitarity_residual[row] <= 1e-10
        single = sphere_unitary_frame(n, q)
        assert type(single.unitarity_residual) is float
        assert type(single.basepoint_residual) is float
        np.testing.assert_array_equal(single.matrix, stacked.matrix[row])


def _recording(monkeypatch):
    """Swap in a sphere_unitary_frame that records its point stacks."""
    seen, real = [], frames.sphere_unitary_frame

    def recorder(n, q):
        seen.append(np.array(q))
        return real(n, q)

    monkeypatch.setattr(frames, "sphere_unitary_frame", recorder)
    return seen


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed,count", [(0, 200), (5, 37), (11, 1), (3, 0)])
def test_frame_family_matches_the_per_sample_reference(monkeypatch, n, seed, count):
    points, max_u, max_b, modulus = _reference_family(n, 1e-3, count, seed)
    seen = _recording(monkeypatch)
    report = verify_frame_family(n, mesh=1e-3, count=count, seed=seed)
    m = len(points)
    assert len(seen) == 1
    assert seen[0].shape == (2 * m, n + 1)
    for row, (q, qp) in enumerate(points):
        np.testing.assert_array_equal(seen[0][row], q)
        np.testing.assert_array_equal(seen[0][m + row], qp)
    assert report.count == count
    assert report.max_unitarity_residual <= 1e-10 and max_u <= 1e-10
    assert report.max_basepoint_residual <= 1e-10 and max_b <= 1e-10
    assert abs(report.max_unitarity_residual - max_u) <= 1e-14
    assert abs(report.max_basepoint_residual - max_b) <= 1e-14
    assert report.continuity_modulus == pytest.approx(modulus, rel=1e-12, abs=0.0)


def test_frame_family_drops_draws_without_a_tangent_direction(monkeypatch):
    # on S^0 every tangent draw projects to exactly zero
    points, *_ = _reference_family(0, 1e-3, 5, 0)
    assert points == []
    seen = _recording(monkeypatch)
    report = verify_frame_family(0, mesh=1e-3, count=5, seed=0)
    assert [s.shape for s in seen] == [(0, 1)]
    assert report.count == 5
    assert report.continuity_modulus == 0.0
    assert report.max_unitarity_residual == report.max_basepoint_residual == 0.0


def test_frame_family_honours_a_swapped_in_frame_and_keeps_nan(monkeypatch):
    real = frames.sphere_unitary_frame

    def spoiled(n, q):
        f = real(n, q)
        u_res = f.unitarity_residual.copy()
        u_res[len(u_res) // 2] = np.nan
        return dataclasses.replace(f, unitarity_residual=u_res,
                                   basepoint_residual=f.basepoint_residual + 0.5)

    monkeypatch.setattr(frames, "sphere_unitary_frame", spoiled)
    report = verify_frame_family(2, mesh=1e-3, count=20, seed=1)
    assert math.isnan(report.max_unitarity_residual)
    assert report.max_basepoint_residual >= 0.5


def test_non_finite_and_non_unit_rows_are_rejected():
    good = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.6, 0.9]):
        with pytest.raises(InvalidInputError):
            sphere_unitary_frame(2, np.array(bad))
        with pytest.raises(InvalidInputError):
            sphere_unitary_frame(2, np.vstack([good, bad]))
    with pytest.raises(InvalidInputError):
        sphere_unitary_frame(2, good[:, :2])
    with pytest.raises(InvalidInputError):
        sphere_unitary_frame(2, good[None])


def test_rank_check_covers_every_row(monkeypatch):
    qs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0]])
    basis = frames._tangent_basis

    def degenerate_last_row(q):
        cols = basis(q)
        cols[-1, :, 0] = q[-1]  # first tangent column parallel to q
        return cols

    monkeypatch.setattr(frames, "_tangent_basis", degenerate_last_row)
    with pytest.raises(InvalidInputError, match="linearly dependent"):
        sphere_unitary_frame(2, qs)


@pytest.mark.parametrize("mesh,count", [(0.0, 10), (-1e-3, 10), (math.nan, 10), (math.inf, 10), (1e-3, -3)])
def test_frame_family_rejects_bad_mesh_and_count(mesh, count):
    with pytest.raises(InvalidInputError):
        verify_frame_family(2, mesh=mesh, count=count, seed=0)


@pytest.mark.parametrize(
    "fields",
    [{"n": -1}, {"n": 2.0}, {"n": True}, {"n": "2"}, {"count": 2.5}, {"count": True}, {"count": "3"}]
    + [{"seed": -1}, {"seed": 1.5}, {"seed": True}],
)
def test_frame_family_refuses_a_dimension_count_or_seed_that_is_no_int_at_least_0(fields):
    # n = -1 or seed = -1 raised ValueError from numpy, and n = 2.0,
    # count = 2.5 or seed = 1.5 TypeError
    with pytest.raises(InvalidInputError):
        verify_frame_family(**{"n": 2, "count": 5, **fields})


@pytest.mark.parametrize(
    "n,q",
    [(2.0, [1.0, 0.0, 0.0]), ("2", [1.0, 0.0, 0.0]), (None, [1.0, 0.0, 0.0]), (True, [1.0, 0.0]), (-1, [])],
)
def test_frame_refuses_a_dimension_that_is_no_int_at_least_0(n, q):
    # n = 2.0 and n = "2" raised TypeError, and n = True was taken as 1
    with pytest.raises(InvalidInputError, match="n must be an int >= 0"):
        sphere_unitary_frame(n, np.array(q))


def test_frame_family_counts_the_pairs_it_framed():
    # on S^0 no draw has a tangent direction, so nothing is checked
    assert verify_frame_family(0, mesh=1e-3, count=5, seed=0).checked == 0
    report = verify_frame_family(2, mesh=1e-3, count=7, seed=3)
    assert (report.count, report.checked) == (7, 7)
