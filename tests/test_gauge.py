"""Support-function evaluation and containment."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stringcap.catalog import (
    SCENARIOS,
    build_scenario,
    camel_domain,
    ellipsoid_domain,
    ellipsoid_round_domain,
    flat_torus_domain,
)
from stringcap.errors import ChartMismatchError, InvalidInputError, RankDeficientError
from stringcap.gauge import (
    BaseDescriptor,
    BasePoint,
    GaugeDomain,
    MetricSpec,
    SamplePlan,
    TangentVector,
    codisk_domain,
    domain_contains,
    metric_norm,
    support,
)

TWO_PI = 2.0 * math.pi


def _sphere_point(coords):
    return BasePoint(np.asarray(coords, dtype=float), "embedding")


def test_flat_codisk_support_is_radius_on_unit_vectors():
    base = BaseDescriptor("torus", 2, ("torus",))
    for r in (0.5, 1.0, 2.0):
        dom = codisk_domain(base, MetricSpec(radius=r))
        q = BasePoint(np.array([0.1, 0.2]), "torus")
        v = TangentVector(np.array([0.6, 0.8]), q)  # unit length
        assert float(support(dom, q, v)) == pytest.approx(r, abs=1e-12)


def test_metric_support_is_radius_times_pushed_forward_norm():
    base = BaseDescriptor("torus", 2, ("torus",))
    q = BasePoint(np.array([0.3, 0.4]), "torus")
    # a scaled identity Jacobian scales every support value
    dom = codisk_domain(base, MetricSpec(2.0 * np.eye(2)))
    assert float(support(dom, q, TangentVector(np.array([1.0, 0.0]), q))) == 2.0
    rng = np.random.default_rng(5)
    jac = np.array([[1.0, 0.5], [0.0, 3.0]])
    for r in (0.0, 0.7, 2.0):
        dom = codisk_domain(base, MetricSpec(jac, r))
        for _ in range(20):
            q = BasePoint(rng.uniform(0.0, 1.0, 2), "torus")
            v = TangentVector(rng.standard_normal(2), q)
            expected = r * float(np.linalg.norm(jac @ v.components))
            assert float(support(dom, q, v)) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_metric_without_jacobian_is_flat():
    base = BaseDescriptor("torus", 2, ("torus",))
    rng = np.random.default_rng(6)
    for r in (0.5, 1.0):
        metric = MetricSpec(radius=r)
        assert metric.embedding_jacobian is None
        dom = codisk_domain(base, metric)
        for _ in range(20):
            q = BasePoint(rng.uniform(0.0, 1.0, 2), "torus")
            v = TangentVector(rng.standard_normal(2), q)
            expected = r * float(np.linalg.norm(v.components))
            assert float(support(dom, q, v)) == pytest.approx(expected, rel=1e-12)
            assert metric_norm(metric, q, v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "jacobian",
    [
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, math.inf], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, -math.inf]]),
        np.ones(2),
        np.ones((2, 2, 2)),
        np.ones((0, 2)),
        np.array([["1", "0"], ["0", "1"]]),
        np.eye(2, dtype=int),
        np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]),
        [[1.0, 0.0], [0.0, 1.0]],
        np.eye,
        "eye",
        2.0,
    ],
    ids=[
        "nan", "inf", "-inf", "1-D", "3-D", "empty", "strings", "ints", "complex", "list", "callable", "string", "scalar"
    ],
)
def test_malformed_jacobians_are_refused(jacobian):
    # a NaN entry gave a NaN support at v = 0, and a callable was called per
    # batch; a Jacobian is checked once, when the metric is built
    with pytest.raises(InvalidInputError):
        MetricSpec(jacobian)
    with pytest.raises(InvalidInputError):
        MetricSpec(jacobian, 0.5)


def test_stretched_sphere_equator_support_is_constant():
    a = 0.3
    dom = ellipsoid_domain(2, a)
    for t in np.linspace(0.0, 1.0, 7):
        ang = TWO_PI * t
        q = _sphere_point([0.0, math.cos(ang), math.sin(ang)])
        v = TangentVector(
            np.array([0.0, -TWO_PI * math.sin(ang), TWO_PI * math.cos(ang)]), q
        )
        assert float(support(dom, q, v)) == pytest.approx(TWO_PI * a, rel=1e-12)


def _camel_lp_value(d, eps, delta, v, q1_zero, box=50.0):
    """Independent oracle: linear program over a box-capped fiber."""
    lo = -(eps / 2.0 + delta)
    hi = eps / 2.0 + 2.0 * delta if q1_zero else box
    bounds = [(-box, box)] * (d - 1) + [(lo, hi)]
    res = linprog(-np.asarray(v, dtype=float), bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("d", [2, 3])
def test_camel_support_matches_linear_program(d):
    eps, delta = 0.4, 0.01
    dom = camel_domain(d, eps, delta)

    q = BasePoint(np.full(d, 0.3), "camel")
    v_minus = np.zeros(d)
    v_minus[-1] = -1.0
    got = support(dom, q, TangentVector(v_minus, q))
    assert float(got) == pytest.approx(eps / 2.0 + delta, abs=1e-14)
    assert float(got) == pytest.approx(_camel_lp_value(d, eps, delta, v_minus, False), abs=1e-10)

    qz = BasePoint(np.concatenate([[0.0], np.full(d - 1, 0.3)]), "camel:q1zero")
    v_plus = np.zeros(d)
    v_plus[-1] = 2.0
    got = support(dom, qz, TangentVector(v_plus, qz))
    assert float(got) == pytest.approx(2.0 * (eps / 2.0 + 2.0 * delta), abs=1e-14)
    assert float(got) == pytest.approx(_camel_lp_value(d, eps, delta, v_plus, True), abs=1e-10)


def test_camel_support_is_infinite_off_axis_and_off_slice():
    dom = camel_domain(2, 0.4, 0.01)
    q = BasePoint(np.array([0.3, 0.3]), "camel")
    assert support(dom, q, TangentVector(np.array([1.0, 1.0]), q)) == math.inf
    # positive last-momentum direction is unbounded away from the q1 = 0 slice
    assert support(dom, q, TangentVector(np.array([0.0, 1.0]), q)) == math.inf
    # and the LP oracle's box-capped value keeps growing with the cap
    v = np.array([0.0, 1.0])
    small = _camel_lp_value(2, 0.4, 0.01, v, False, box=10.0)
    large = _camel_lp_value(2, 0.4, 0.01, v, False, box=1000.0)
    assert large > 50 * small / 10


def test_support_homogeneity_on_random_samples():
    dom = ellipsoid_domain(2, 0.7)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        qc = rng.standard_normal(3)
        qc /= np.linalg.norm(qc)
        w = rng.standard_normal(3)
        w -= (w @ qc) * qc
        lam = rng.uniform(0.0, 10.0)
        q = _sphere_point(qc)
        s1 = float(support(dom, q, TangentVector(lam * w, q)))
        s0 = float(support(dom, q, TangentVector(w, q)))
        assert abs(s1 - lam * s0) <= 1e-9 * (1.0 + lam * s0)


def test_support_of_zero_vector_is_exactly_zero():
    for dom, q in (
        (ellipsoid_domain(2, 0.4), _sphere_point([1.0, 0.0, 0.0])),
        (camel_domain(2, 0.4, 0.01), BasePoint(np.array([0.2, 0.2]), "camel")),
    ):
        dim = q.coords.shape[0]
        assert float(support(dom, q, TangentVector(np.zeros(dim), q))) == 0.0


def test_codisk_duality_support_equals_radius_times_unit_metric_norm():
    base = BaseDescriptor("sphere", 2, ("embedding",))
    jac = np.diag([1.0, 1.0, 0.5])
    unit_metric = MetricSpec(jac, 1.0)
    rng = np.random.default_rng(1)
    for r in (0.5, 1.0, 3.0):
        dom = codisk_domain(base, MetricSpec(jac, r))
        for _ in range(50):
            qc = rng.standard_normal(3)
            qc /= np.linalg.norm(qc)
            q = _sphere_point(qc)
            v = TangentVector(rng.standard_normal(3), q)
            lhs = float(support(dom, q, v))
            rhs = r * metric_norm(unit_metric, q, v)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


def test_metric_norm_round_vs_stretched_comparison():
    # the scaled round metric never exceeds the stretched one
    jac_s = np.diag([1.0, 0.3, 0.3])
    jac_r = 0.3 * np.eye(3)
    ms = MetricSpec(jac_s, 1.0)
    mr = MetricSpec(jac_r, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        qc = rng.standard_normal(3)
        qc /= np.linalg.norm(qc)
        q = _sphere_point(qc)
        v = TangentVector(rng.standard_normal(3), q)
        assert metric_norm(mr, q, v) <= metric_norm(ms, q, v) + 1e-12


def test_chart_mismatch_and_nan_are_rejected():
    dom = ellipsoid_domain(2, 0.5)
    q_bad = BasePoint(np.array([1.0, 0.0, 0.0]), "other")
    with pytest.raises(ChartMismatchError):
        support(dom, q_bad, TangentVector(np.zeros(3), q_bad))
    q = _sphere_point([1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        support(dom, q, TangentVector(np.array([0.0, math.nan, 0.0]), q))
    other = _sphere_point([0.0, 1.0, 0.0])
    with pytest.raises(InvalidInputError):
        support(dom, q, TangentVector(np.zeros(3), other))


@pytest.mark.parametrize(
    "jac", [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 2.0]])], ids=["singular", "wide"]
)
def test_rank_deficient_jacobian_is_rejected_by_the_metric_norm(jac):
    # a rank-deficient Jacobian builds a metric; its norm is refused
    metric = MetricSpec(jac)
    q = BasePoint(np.array([0.0, 0.0]), "default")
    with pytest.raises(RankDeficientError):
        metric_norm(metric, q, TangentVector(np.array([0.0, 1.0]), q))


def test_containment_reflexive_and_radius_violations():
    base = BaseDescriptor("sphere", 2, ("embedding",))
    unit = codisk_domain(base, MetricSpec(np.eye(3), 1.0))
    bigger = codisk_domain(base, MetricSpec(np.eye(3), 1.1))
    plan = SamplePlan(count=500, seed=0)
    assert domain_contains(unit, unit, plan)
    res = domain_contains(bigger, unit, plan)
    assert not res
    q, v, inner_val, outer_val = res.witness
    assert inner_val > outer_val


def test_a_metric_keeps_its_own_read_only_jacobian():
    # the metric held the caller's array: a NaN written to it after the
    # domain was built came out of the oracle
    jac = np.eye(2)
    metric = MetricSpec(jac)
    dom = codisk_domain(BaseDescriptor("torus", 2, ("torus",)), metric)
    q = BasePoint(np.array([0.1, 0.2]), "torus")
    v = TangentVector(np.array([3.0, 4.0]), q)
    jac[0, 0] = math.nan
    assert support(dom, q, v) == 5.0
    assert not metric.embedding_jacobian.flags.writeable


@pytest.mark.parametrize("s0", [0.5, 1e3])
def test_the_metric_norm_refuses_singular_values_at_its_rank_threshold(s0):
    # the smallest singular value must exceed 1e-10 max(1, the largest)
    threshold = 1e-10 * max(1.0, s0)
    q = BasePoint(np.zeros(2), "default")
    v = TangentVector(np.array([0.0, 1.0]), q)
    assert metric_norm(MetricSpec(np.diag([s0, 1.01 * threshold])), q, v) == 1.01 * threshold
    with pytest.raises(RankDeficientError):
        metric_norm(MetricSpec(np.diag([s0, 0.99 * threshold])), q, v)


def test_containment_allows_an_excess_below_1e_9_relative():
    # inner support so + k (1 + so): within the tolerance for k < 1e-9
    outer = flat_torus_domain(2, radius=3.0)

    def larger(k):
        return GaugeDomain(outer.base, lambda q, v: (1.0 + k) * outer.support_oracle(q, v) + k)

    plan = SamplePlan(count=200)
    for k in (0.5e-9, 0.9e-9):
        assert domain_contains(larger(k), outer, plan)
    for k in (1.1e-9, 2e-9):
        assert not domain_contains(larger(k), outer, plan)


def _recorded_pairs(plan):
    """The (q, v) pairs ``domain_contains`` checks under ``plan`` on the
    sphere, in plan order."""
    seen = []

    def recording(q, v):
        seen.append((q.coords, v.components))
        return np.zeros(q.coords.shape[0])

    dom = GaugeDomain(BaseDescriptor("sphere", 2, ("embedding",)), recording)
    assert domain_contains(dom, dom, plan)
    pairs = seen[::2]  # inner and outer see each batch
    return np.concatenate([q for q, _ in pairs]), np.concatenate([v for _, v in pairs])


def test_the_sample_plans_check_their_count_of_pairs_from_their_seed():
    assert SamplePlan() == SamplePlan(count=10_000, seed=0)
    q, v = _recorded_pairs(SamplePlan())
    assert q.shape == v.shape == (10_000, 3)
    one_q, one_v = _recorded_pairs(SamplePlan(count=1))
    np.testing.assert_array_equal(one_q, q[:1])
    np.testing.assert_array_equal(one_v, v[:1])
    (ref_q, ref_v), = _ref_sample_pairs(BaseDescriptor("sphere", 2, ("embedding",)), SamplePlan(count=1))
    np.testing.assert_allclose(one_q[0], ref_q.coords, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(one_v[0], ref_v.components, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("fields", [{"count": 0}, {"count": -5}])
def test_sample_plans_that_check_nothing_are_refused(fields):
    # such a plan reported the larger ellipsoid inside the smaller, which a
    # plan of 100 pairs refutes
    assert not domain_contains(ellipsoid_domain(2, 0.9), ellipsoid_domain(2, 0.3), SamplePlan(count=100))
    with pytest.raises(InvalidInputError):
        SamplePlan(**fields)


@pytest.mark.parametrize(
    "fields",
    [{"count": 2.5}, {"count": 2.0}, {"count": True}, {"count": "2"}]
    + [{"seed": -1}, {"seed": 1.5}, {"seed": False}, {"seed": None}],
)
def test_sample_plan_counts_and_seeds_that_are_no_ints_are_refused(fields):
    # a fractional count raised TypeError inside the sampler, and a negative
    # seed ValueError from numpy
    with pytest.raises(InvalidInputError):
        SamplePlan(**fields)


# per-sample references for the batched oracles and the containment plan

def _ref_camel(d, eps, delta, chart, w):
    lo, hi = eps / 2.0 + delta, eps / 2.0 + 2.0 * delta
    if not np.any(w):
        return 0.0
    if np.any(w[:-1] != 0.0):
        return math.inf
    c = float(w[-1])
    if c < 0.0:
        return -c * lo
    return c * hi if chart == "camel:q1zero" else math.inf


def _rows(d, rng):
    """Random vectors plus zero, axis and off-axis rows of both signs."""
    special = np.zeros((6, d))
    special[1, -1], special[2, -1], special[3, 0] = 1.5, -0.7, 2.0
    special[4, :] = -1.0
    special[5, -1] = -0.0
    return np.vstack([rng.standard_normal((20, d)), special])


def _batched(domain, coords, chart, comps):
    q = BasePoint(coords, chart)
    return domain.support_oracle(q, TangentVector(comps, q))


def test_batched_codisk_oracles_match_row_by_row_evaluation():
    rng = np.random.default_rng(11)
    jac = np.diag([1.0, 0.3, 0.3])
    cases = [
        (BaseDescriptor("torus", 3, ("torus",)), MetricSpec(radius=0.7), np.eye(3)),
        (BaseDescriptor("sphere", 2, ("embedding",)), MetricSpec(jac, 1.3), jac),
    ]
    for base, metric, pushforward in cases:
        dom = codisk_domain(base, metric)
        V = _rows(3, rng)
        Q = rng.uniform(-1.0, 1.0, V.shape)
        vals = _batched(dom, Q, base.charts[0], V)
        fin = np.isfinite(vals)
        want = [metric.radius * np.linalg.norm(pushforward @ v) for v in V]
        assert vals.shape == fin.shape == (V.shape[0],)
        assert fin.all()
        np.testing.assert_allclose(vals, want, rtol=1e-14, atol=0)
        for q, v, x in zip(Q, V, vals):  # the one-pair entry point agrees
            assert float(support(dom, BasePoint(q, base.charts[0]), TangentVector(v, BasePoint(q, base.charts[0])))) == x


@pytest.mark.parametrize("chart", ["camel", "camel:q1zero"])
def test_batched_camel_oracle_matches_row_by_row_evaluation(chart):
    d, eps, delta = 3, 0.4, 0.01
    dom = camel_domain(d, eps, delta)
    rng = np.random.default_rng(12)
    V = _rows(d, rng)
    V[:8, :-1] = 0.0  # on-axis rows of both signs
    Q = rng.uniform(0.0, 1.0, V.shape)
    vals = _batched(dom, Q, chart, V)
    fin = np.isfinite(vals)
    want = np.array([_ref_camel(d, eps, delta, chart, v) for v in V])
    np.testing.assert_array_equal(fin, np.isfinite(want))
    assert (~fin).any() and fin.any()
    np.testing.assert_array_equal(vals, want)  # inf exactly where not finite


@pytest.mark.parametrize(
    "domain",
    [
        *(build_scenario({"scenario": name}).domain for name in SCENARIOS),
        build_scenario({"scenario": "open_book", "page": "circle"}).domain,
        ellipsoid_round_domain(2, 0.5),
    ],
    ids=[*SCENARIOS, "open_book:circle", "ellipsoid_round"],
)
def test_every_catalog_oracle_returns_one_float_array(domain):
    rng = np.random.default_rng(13)
    base = domain.base
    m = 7
    coords = rng.standard_normal((m, base.dim + 1 if base.kind == "sphere" else base.dim))
    if base.kind == "sphere":
        coords /= np.linalg.norm(coords, axis=1)[:, None]
    for chart in base.charts:
        values = _batched(domain, coords, chart, rng.standard_normal(coords.shape))
        assert type(values) is np.ndarray
        assert values.dtype == np.float64 and values.shape == (m,)


# the oracles sum over a coordinate-major layout, checked against row-major
# references: bitwise below 8 summed coordinates, where numpy's pairwise sum
# adds a short axis left to right, and to rtol 1e-15 per coordinate from 8 on

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPECIAL_ROWS = ("zero", "negzero", "inf", "neginf", "nan", "both_infs", "huge", "tiny")


def _special_row(kind, d, rng):
    row = rng.standard_normal(d)
    j = rng.integers(d)
    if kind in ("zero", "negzero"):
        row[:] = 0.0 if kind == "zero" else -0.0
    elif kind in ("inf", "neginf", "nan"):
        row[j] = {"inf": math.inf, "neginf": -math.inf, "nan": math.nan}[kind]
    elif kind == "both_infs":
        row[j], row[(j + 1) % d] = math.inf, -math.inf
    else:
        row *= 1e200 if kind == "huge" else 1e-200
    return row


def _vectors(m, d, specials, seed):
    """(m, d) normal rows, some of them replaced by special rows."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, d)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    for i, kind in zip(rng.permutation(m), specials):
        w[i] = _special_row(kind, d, rng)
    return w, rng


def _assert_same_sums(got, want, summed):
    if summed < 8:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15 * summed, atol=0.0)


@pytest.mark.parametrize("form", ["flat", "matrix"])
@PROPERTY
@given(
    m=st.sampled_from([1, 2, 7, 4097]),
    d=st.integers(1, 12),
    jac_rows=st.integers(1, 12),
    specials=st.lists(st.sampled_from(SPECIAL_ROWS), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_codisk_oracle_matches_the_row_major_formula(form, m, d, jac_rows, specials, seed):
    w, rng = _vectors(m, d, specials, seed)
    radius = rng.uniform(0.1, 3.0)
    coords = rng.uniform(-1.0, 1.0, (m, d))
    # well-conditioned maps, so that a regrouped sum moves the norm by rounding only
    jac = np.eye(jac_rows, d) + 0.2 * rng.standard_normal((jac_rows, d))
    if form == "flat":
        metric, pushed, summed = MetricSpec(radius=radius), w, d
    else:
        metric, pushed, summed = MetricSpec(jac, radius), None, max(d, jac_rows)
    dom = codisk_domain(BaseDescriptor("torus", d, ("torus",)), metric)
    with np.errstate(all="ignore"):
        if form == "matrix":
            pushed = w @ jac.T
        want = radius * np.sqrt(np.add.reduce(pushed * pushed, axis=-1))
        got = _batched(dom, coords, "torus", w)
    assert got.shape == (m,) and got.dtype == np.float64
    _assert_same_sums(got, want, summed)


@PROPERTY
@given(
    m=st.sampled_from([1, 2, 7, 4097]),
    d=st.integers(1, 12),
    chart=st.sampled_from(["camel", "camel:q1zero"]),
    specials=st.lists(st.sampled_from(SPECIAL_ROWS), max_size=6),
    on_axis=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_camel_oracle_matches_the_row_major_rule(m, d, chart, specials, on_axis, seed):
    eps, delta = 0.4, 0.01
    w, rng = _vectors(m, d, specials, seed)
    w[rng.uniform(size=m) < on_axis, :-1] = 0.0
    lo, hi = eps / 2.0 + delta, eps / 2.0 + 2.0 * delta
    c = w[:, -1]
    finite = ~(w[:, :-1] != 0.0).any(axis=1)
    if chart != "camel:q1zero":
        finite &= c <= 0.0
    want = np.where(finite, np.where(c < 0.0, -c * lo, c * hi), math.inf)
    np.testing.assert_array_equal(_batched(camel_domain(d, eps, delta), w, chart, w), want)


def _row_major_sample_pairs(dim, plan):
    """The sphere sampler's batches, one row and then blocks of 4,096, summed
    over the rows' own axis."""
    rng = np.random.default_rng(plan.seed)
    done = 0
    while done < plan.count:
        k = min(4096 if done else 1, plan.count - done)
        z = rng.standard_normal((k, 2, dim + 1))
        qc = z[:, 0] / np.sqrt(np.add.reduce(z[:, 0] * z[:, 0], axis=-1))[:, None]
        yield qc, z[:, 1] - np.add.reduce(z[:, 1] * qc, axis=-1)[:, None] * qc, np.abs(z[:, 1]).max(axis=1)
        done += k


@pytest.mark.parametrize("dim", range(1, 12))
def test_sphere_sample_pairs_match_the_row_major_sampler(dim):
    seen = []

    def recording(q, v):
        seen.append((q.coords, v.components))
        return np.zeros(q.coords.shape[0])

    dom = GaugeDomain(BaseDescriptor("sphere", dim, ("embedding",)), recording)
    plan = SamplePlan(count=300, seed=dim)
    assert domain_contains(dom, dom, plan)
    want = list(_row_major_sample_pairs(dim, plan))
    got = seen[::2]  # inner and outer see each batch
    assert [q.shape for q, _ in got] == [q.shape for q, _, _ in want]
    for (gq, gv), (wq, wv, size) in zip(got, want):
        _assert_same_sums(gq, wq, dim + 1)
        if dim + 1 < 8:
            np.testing.assert_array_equal(gv, wv)
        else:  # v cancels a multiple of q, so its error scales with the draw
            assert (np.abs(gv - wv) <= 1e-15 * (dim + 1) * size[:, None]).all()


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.5, "1", None, True, np.ones(1), 1j])
def test_codisk_radius_must_be_finite_and_nonnegative(radius):
    # a NaN or infinite radius gave a NaN support at v = 0, and a string
    # raised TypeError
    with pytest.raises(InvalidInputError):
        MetricSpec(radius=radius)
    with pytest.raises(InvalidInputError):
        MetricSpec(np.eye(2), radius)
    with pytest.raises(InvalidInputError):
        flat_torus_domain(2, radius=radius)


def _ref_sample_pairs(base, plan):
    rng = np.random.default_rng(plan.seed)
    chart = base.charts[0]
    for _ in range(plan.count):
        if base.kind == "sphere":
            qc = rng.standard_normal(base.dim + 1)
            qc /= np.linalg.norm(qc)
            w = rng.standard_normal(base.dim + 1)
            w -= (w @ qc) * qc
        else:
            qc = rng.uniform(0.0, 1.0, base.dim)
            w = rng.standard_normal(base.dim)
        q = BasePoint(qc, chart)
        yield q, TangentVector(w, q)


def _ref_contains(inner, outer, plan):
    """Index, point, vector and both values of the first violation, beyond
    1e-9 relative, or None."""
    for i, (q, v) in enumerate(_ref_sample_pairs(inner.base, plan)):
        si, so = support(inner, q, v), support(outer, q, v)
        if not math.isfinite(so):
            continue
        if not math.isfinite(si) or si > so + 1e-9 * (1.0 + abs(so)):
            return i, q.coords, v.components, (si if math.isfinite(si) else math.inf), so
    return None


def _rarely_larger(domain, threshold=2.0):
    """``domain`` scaled up by half where the first vector component exceeds
    ``threshold``: a violation that turns up some way into a plan."""
    oracle = domain.support_oracle

    def scaled(q, v):
        return np.where(v.components[:, 0] > threshold, 1.5, 1.0) * oracle(q, v)

    return GaugeDomain(domain.base, scaled)


def test_containment_witness_matches_per_sample_reference():
    sphere = ellipsoid_domain(2, 0.5)
    torus = flat_torus_domain(3, radius=1.0)
    camel_base_codisk = codisk_domain(BaseDescriptor("torus", 2, ("camel", "camel:q1zero")), MetricSpec(radius=1.0))
    plan = SamplePlan(count=300, seed=0)
    cases = [
        (_rarely_larger(sphere), sphere),
        (_rarely_larger(torus), torus),
        (_rarely_larger(sphere, 1.0), sphere),
        (camel_domain(2, 0.4, 0.01), camel_base_codisk),
        (ellipsoid_round_domain(2, 0.5), sphere),
    ]
    for inner, outer in cases:
        ref = _ref_contains(inner, outer, plan)
        res = domain_contains(inner, outer, plan)
        assert bool(res) == (ref is None)
        if ref is None:
            continue
        index, q, v, iv, ov = ref
        got_q, got_v, got_iv, got_ov = res.witness
        np.testing.assert_allclose(got_q.coords, q, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(got_v.components, v, rtol=1e-14, atol=1e-15)
        assert got_iv == pytest.approx(iv, rel=1e-14) and got_ov == pytest.approx(ov, rel=1e-14)
    # the first violations at 36, 13 and 3 sit inside the block that follows
    # the first row, the one at 3 with a second (at 6) in it
    assert [_ref_contains(i, o, plan)[0] for i, o in cases[:3]] == [36, 13, 3]


SAMPLED_BASES = [
    BaseDescriptor("sphere", 2, ("embedding",)),
    BaseDescriptor("torus", 2, ("torus",)),
    BaseDescriptor("klein", 2, ("klein",)),
]


@pytest.mark.parametrize("base", SAMPLED_BASES, ids=lambda b: b.kind)
@pytest.mark.parametrize(
    "count, bad, sizes",
    [
        (2000, None, [1, 1999]),
        (10_000, None, [1, 4096, 4096, 1807]),
        (1, None, [1]),
        (2000, 0, [1]),
        (2000, 1, [1, 1999]),
        (10_000, 4096, [1, 4096]),
        (10_000, 4097, [1, 4096, 4096]),
    ],
)
def test_a_plan_is_checked_in_one_row_and_then_blocks_of_4096(base, count, bad, sizes):
    # batches of 1, 2, 4, ... rows took 11 oracle calls per domain for a
    # 2,000-pair plan and 14 for the default plan of 10,000
    seen, calls = [], []

    def inner(q, v):
        first = sum(len(c) for c, _ in seen)
        seen.append((q.coords, v.components))
        calls.append("inner")
        return np.where(np.arange(first, first + len(q.coords)) == bad, 1.0, 0.0)

    def outer(q, v):
        calls.append("outer")
        return np.zeros(len(q.coords))

    plan = SamplePlan() if count == 10_000 else SamplePlan(count=count)
    res = domain_contains(GaugeDomain(base, inner), GaugeDomain(base, outer), plan)
    assert [len(c) for c, _ in seen] == sizes
    assert calls == ["inner", "outer"] * len(sizes)
    assert res.contained == (bad is None)
    if bad is not None:
        q, v, si, so = res.witness
        np.testing.assert_array_equal(q.coords, np.concatenate([c for c, _ in seen])[bad])
        np.testing.assert_array_equal(v.components, np.concatenate([w for _, w in seen])[bad])
        assert (si, so) == (1.0, 0.0)
