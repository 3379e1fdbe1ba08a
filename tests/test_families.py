"""Loop families in array form: the grid batch and single-loop lengths
against a per-point, per-level reference rule, their errors and oracle
batches, and the refinement around them."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcap import loops
from stringcap.catalog import (
    REFERENCE_CASES,
    SCENARIOS as CATALOG,
    build_scenario,
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
)
from stringcap.errors import InfiniteLengthError, InvalidInputError
from stringcap.gauge import BaseDescriptor, BasePoint, GaugeDomain, TangentVector
from stringcap.loops import (
    GridAxis,
    Loop,
    LoopFamily,
    ParamGrid,
    QuadratureSpec,
    extremal_lengths,
    family_lengths,
    loop_length,
)

TWO_PI = 2.0 * math.pi

SCENARIOS = [
    ellipsoid_scenario(2, 0.3),
    ellipsoid_scenario(3, 0.7),
    ellipsoid2_scenario(4, 0.8),
    open_book_scenario("circle", 1.0, 0.7, 1.3),
    product_torus_scenario(3, 1, 1.3),
    camel_scenario(2, 0.5, 0.01),
    camel_scenario(3, 0.7, 0.003),
    klein_bottle_scenario(0.8, 1.5),
]
CASES = [(s, name) for s in SCENARIOS for name in s.families]
# 64 panels (Klein's own count, an override for the orbit families) and
# coarse rules whose rows stop at different levels
QUADS = [
    QuadratureSpec(panels=64),
    QuadratureSpec(panels=8),
    QuadratureSpec(panels=16, qtol=1e-12),
]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _in_range(grid: ParamGrid, fractions) -> np.ndarray:
    lo = np.array([ax.lo for ax in grid.axes])
    hi = np.array([ax.hi for ax in grid.axes])
    return lo + (hi - lo) * np.array(fractions, dtype=float).reshape(len(fractions), grid.dim)


def _recording(domain: GaugeDomain):
    """``domain`` with an oracle that records the size of every batch."""
    batches = []

    def oracle(q, v):
        batches.append(q.coords.shape[0])
        return domain.support_oracle(q, v)

    return dataclasses.replace(domain, support_oracle=oracle), batches


def _reference_length(domain: GaugeDomain, loop: Loop, quad: QuadratureSpec) -> float:
    """The trapezoid rule one loop and one level at a time: the n points,
    then each doubling's n midpoints, one oracle call each; raises for the
    first infinite t in level order."""

    def level_sum(ts):
        q = BasePoint(loop.samples(ts)[0], loop.chart)
        values = domain.support_oracle(q, TangentVector(loop.samples(ts)[1], q))
        finite = np.isfinite(values)
        if not finite.all():
            t = float(ts[np.argmin(finite)])
            raise InfiniteLengthError(f"infinite support at t={t:.6f}", t=t)
        return float(values.sum())

    n = quad.panels
    total = level_sum(np.arange(n) / n)
    prev = total / n
    for _ in range(loops._MAX_DOUBLINGS):
        total += level_sum((np.arange(n) + 0.5) / n)
        n *= 2
        cur = total / n
        if abs(cur - prev) <= quad.qtol * (1.0 + abs(cur)):
            return cur
        prev = cur
    return prev


@PROPERTY
@given(case=st.sampled_from(CASES), quad=st.sampled_from(QUADS), data=st.data())
def test_batched_family_lengths_equal_per_point_lengths(case, quad, data):
    s, name = case
    fam = s.families[name]
    row = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=fam.grid.dim, max_size=fam.grid.dim)
    P = _in_range(fam.grid, data.draw(st.lists(row, min_size=1, max_size=40)))
    reference = [_reference_length(s.domain, fam.loop_at(p), quad) for p in P]
    batched = family_lengths(s.domain, fam, P, quad)
    np.testing.assert_allclose(batched, reference, rtol=1e-13, atol=0.0)
    per_point = [loop_length(s.domain, fam.loop_at(p), quad) for p in P]
    np.testing.assert_allclose(per_point, reference, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(batched, per_point, rtol=1e-13, atol=0.0)
    ts = np.linspace(-0.1, 1.1, 23)
    q, v = fam.samples(P, ts)
    for i, p in enumerate(P[:3]):
        loop = fam.loop_at(p)
        np.testing.assert_array_equal(q[i], loop.samples(ts)[0])
        np.testing.assert_array_equal(v[i], loop.samples(ts)[1])


def _window_family(grid: ParamGrid) -> LoopFamily:
    """Constant point on the camel domain with velocity (0, c(t)),
    c = exp(4 (cos 2 pi (t - center) - 1)) - level: the support is infinite
    where c > 0, a window around center when level < 1 and nowhere when
    level > 1.  The integrand is no trigonometric polynomial, so a row the
    first levels see as finite does not stop at once."""
    q0 = np.array([0.2, 0.3])

    def samples(P, ts):
        v = np.zeros((P.shape[0], ts.shape[0], 2))
        v[:, :, 1] = np.exp(4.0 * (np.cos(TWO_PI * (ts - P[:, :1])) - 1.0)) - P[:, 1:2]
        return np.broadcast_to(q0, v.shape), v

    return LoopFamily("window", grid, samples, chart="camel")


CAMEL = camel_scenario(2, 0.4, 0.01).domain
WINDOWS = _window_family(ParamGrid((GridAxis(0.0, 1.0, 3), GridAxis(0.5, 1.5, 3))))


def _first_failure(domain, fam, P, quad):
    """(row, t) of the first row whose reference length raises, else None."""
    for i, p in enumerate(P):
        try:
            _reference_length(domain, fam.loop_at(p), quad)
        except InfiniteLengthError as exc:
            return i, exc.t
    return None


# levels: wide windows, none, and narrow ones that the first levels can miss
LEVELS = st.one_of(st.floats(0.5, 1.2), st.floats(0.99, 1.0))


@PROPERTY
@given(
    rows=st.lists(st.tuples(st.floats(0.0, 1.0), LEVELS), min_size=1, max_size=12),
    panels=st.sampled_from([8, 16]),
)
def test_grid_error_matches_the_per_point_loop(rows, panels):
    quad = QuadratureSpec(panels=panels)
    P = np.array(rows, dtype=float)
    expected = _first_failure(CAMEL, WINDOWS, P, quad)
    if expected is None:
        reference = [_reference_length(CAMEL, WINDOWS.loop_at(p), quad) for p in P]
        np.testing.assert_allclose(family_lengths(CAMEL, WINDOWS, P, quad), reference, rtol=1e-13, atol=0.0)
        return
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(CAMEL, WINDOWS, P, quad)
    row, t = expected
    np.testing.assert_array_equal(exc.value.params, P[row])
    assert exc.value.t == t
    assert f"family 'window' has infinite length at params {P[row]!r} (t={t:.6f})" == str(exc.value)
    with pytest.raises(InfiniteLengthError) as exc:
        loop_length(CAMEL, WINDOWS.loop_at(P[row]), quad)
    assert exc.value.t == t
    assert f"infinite support at t={t:.6f}" == str(exc.value)


def test_grid_error_names_an_earlier_row_that_fails_at_a_later_level():
    # row 0 is finite; row 1's window (0.09875 +- 0.012) lies between the
    # samples of levels 0 and 1 (multiples of 1/16) and holds one sample of
    # level 2, 3/32; row 2 fails at t = 0
    level = math.exp(4.0 * (math.cos(TWO_PI * 0.012) - 1.0))
    P = np.array([[0.5, 1.2], [0.09875, level], [0.0, 0.5]])
    quad = QuadratureSpec(panels=8)
    assert _first_failure(CAMEL, WINDOWS, P, quad) == (1, 3 / 32)
    domain, batches = _recording(CAMEL)
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(domain, WINDOWS, P, quad)
    np.testing.assert_array_equal(exc.value.params, P[1])
    assert exc.value.t == 3 / 32
    # levels 0 and 1 of all three rows, then level 2 of rows 0 and 1; row 0
    # stops there and no row after the failing one goes on
    assert batches == [3 * 16, 2 * 16]
    grid_family = _window_family(ParamGrid((GridAxis(0.0, 0.5, 3), GridAxis(0.5, 1.5, 2))))
    with pytest.raises(InfiniteLengthError) as exc:
        extremal_lengths(CAMEL, grid_family, quad)
    np.testing.assert_array_equal(exc.value.params, [0.0, 0.5])
    assert exc.value.t == 0.0


def test_rows_after_a_failing_row_stop_doubling():
    # rows 0 and 2 are the same finite loop up to a shift and need level 3;
    # row 1 fails at level 2, so only row 0 goes on to level 3
    level = math.exp(4.0 * (math.cos(TWO_PI * 0.012) - 1.0))
    P = np.array([[0.5, 1.2], [0.09875, level], [0.3, 1.2]])
    domain, batches = _recording(CAMEL)
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(domain, WINDOWS, P, QuadratureSpec(panels=8, qtol=1e-15))
    np.testing.assert_array_equal(exc.value.params, P[1])
    assert batches == [3 * 16, 3 * 16, 32]


def test_family_grid_oracle_batches():
    s = ellipsoid_scenario(3, 0.5)  # a 9 x 9 page grid
    fam = s.families["L+"]
    domain, batches = _recording(s.domain)
    family_lengths(domain, fam, fam.grid.points(), QuadratureSpec(panels=64))
    # 81 rows of 128 samples (levels 0 and 1) in blocks of 32 rows; the
    # constant integrands all agree after one doubling
    assert batches == [4096, 4096, 2176]
    batches.clear()
    family_lengths(domain, fam, fam.grid.points())
    # the family's own 8 panels: 81 rows of 16 samples in one call
    assert batches == [1296]


def test_loop_at_evaluates_the_family_form_once_per_oracle_call():
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]
    calls = []

    def samples(P, ts):
        calls.append("samples")
        return fam.samples(P, ts)

    def oracle(q, v):
        calls.append("oracle")
        return s.domain.support_oracle(q, v)

    counted = dataclasses.replace(fam, samples=samples)
    domain = dataclasses.replace(s.domain, support_oracle=oracle)
    loop_length(domain, counted.loop_at(fam.grid.points()[1]), QuadratureSpec(panels=8, qtol=1e-12))
    assert calls.count("oracle") > 1  # levels 0 and 1, then at least one doubling
    assert calls == ["samples", "oracle"] * calls.count("oracle")


def test_unconverged_rows_double_together():
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]
    quad = QuadratureSpec(panels=8, qtol=1e-12)
    P = fam.grid.points()
    per_row = []  # the level sizes each row's reference rule samples
    for p in P:
        domain, batches = _recording(s.domain)
        _reference_length(domain, fam.loop_at(p), quad)
        per_row.append(batches)
    depth = max(len(b) for b in per_row)
    assert depth >= 4
    # levels 0 and 1 of every row together, then each later level of the
    # rows that reach it
    levels = [[b[0] + b[1] for b in per_row]]
    levels += [[b[k] for b in per_row if len(b) > k] for k in range(2, depth)]
    expected = []
    for rows in levels:
        step = max(1, loops._BLOCK_SAMPLES // rows[0])
        expected += [rows[0] * len(rows[i:i + step]) for i in range(0, len(rows), step)]
    domain, batches = _recording(s.domain)
    family_lengths(domain, fam, P, quad)
    assert batches == expected


def _counting_loop_length(monkeypatch):
    calls = []
    real = loops.loop_length

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(loops, "loop_length", counted)
    return calls


def _counting_family_lengths(monkeypatch):
    calls = []
    real = loops.family_lengths

    def counted(domain, family, params, quad):
        calls.append(np.array(params))
        return real(domain, family, params, quad)

    monkeypatch.setattr(loops, "family_lengths", counted)
    return calls


def test_grid_is_batched_and_each_refinement_round_is_one_family_lengths_call(monkeypatch):
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]  # 17 points on [-0.375, 0.375], not periodic
    lengths = _counting_loop_length(monkeypatch)
    calls = _counting_family_lengths(monkeypatch)
    # the trapezoid rule at 64 panels samples levels 0 and 1 of every row,
    # all of which converge at level 1; the exact path takes each row's
    # support at (q0, w) and (q0, -w)
    for quad, per_row in [(QuadratureSpec(panels=64), 2 * 64), (QuadratureSpec(), 2)]:
        calls.clear()
        domain, batches = _recording(s.domain)
        rep = extremal_lengths(domain, fam, quad)
        assert lengths == []
        np.testing.assert_array_equal([rep.argmax_params, rep.argmin_params], [[-0.375], [0.0]])
        assert [(h["evals"], h["rounds"]) for h in rep.refinement_history] == [(30, 15), (30, 15)]
        np.testing.assert_array_equal(calls[0], fam.grid.points())
        # then one call per round, the sup's two trial rows and then the
        # inf's, each within one grid gap of its grid point
        gap = 0.75 / 16
        assert [c.shape for c in calls[1:]] == [(4, 1)] * 15
        for c in calls[1:]:
            assert np.all(np.abs(c[:2] - rep.argmax_params) <= gap)
            assert np.all(np.abs(c[2:] - rep.argmin_params) <= gap)
        # the whole grid, then the four trial rows of each round
        assert batches == [17 * per_row] + [4 * per_row] * 15


# klein's default config and those of its reference rows
KLEIN_CONFIGS = [{"scenario": "klein"}] + [c.config for c in REFERENCE_CASES if c.config["scenario"] == "klein"]


@pytest.mark.parametrize("config", KLEIN_CONFIGS, ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_the_exact_path_gives_klein_lengths_in_closed_form(config):
    # out along w = (a, -2 y0) and back: 2 r sqrt(a^2 + 4 y0^2) on the flat
    # codisk of radius r
    s = build_scenario(config)
    fam, a, r = s.families["Ldoubled"], s.params["a"], s.params["radius"]
    P = fam.grid.points()
    y0 = P[:, 0]
    expected = 2.0 * r * np.sqrt(a * a + 4.0 * y0 * y0)
    got = family_lengths(s.domain, fam, P)
    assert np.all(np.abs(got - expected) <= 2 * np.spacing(expected))


def test_a_domain_that_declares_nothing_keeps_the_trapezoid_rule():
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]
    P = fam.grid.points()
    plain, batches = _recording(GaugeDomain(s.domain.base, s.domain.support_oracle))
    assert not plain.ignores_base_point
    ruled = family_lengths(plain, fam, P)
    # levels 0 and 1 of 64 panels for every row, all of which converge there
    assert batches == [P.shape[0] * 2 * 64]
    exact = family_lengths(s.domain, fam, P)
    assert np.all(np.abs(ruled - exact) <= QuadratureSpec().qtol * (1.0 + np.abs(exact)))


def test_a_loop_at_on_a_segment_family_keeps_the_trapezoid_rule():
    # the Loop that loop_at returns has no segment, so loop_length runs the
    # rule from DEFAULT_PANELS on it and falls 4.2e-11 relative short of the
    # exact length that family_lengths takes
    s = klein_bottle_scenario(1.0, 1.0)
    fam = s.families["Ldoubled"]
    p = np.array([0.0])
    assert loop_length(s.domain, fam.loop_at(p)) == 1.999999999916092
    assert family_lengths(s.domain, fam, p[None]).tolist() == [2.0]
    assert loop_length(s.domain, fam.loop_at(p), QuadratureSpec(panels=loops.DEFAULT_PANELS)) == 1.999999999916092


def test_a_segment_length_that_is_not_finite_raises_for_its_first_row():
    # radius 1e308: each support value is finite, their sum is not
    s = klein_bottle_scenario(1.0, 1.0, 1e308)
    fam = s.families["Ldoubled"]
    P = fam.grid.points()
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(s.domain, fam, P)
    np.testing.assert_array_equal(exc.value.params, P[0])
    assert math.isnan(exc.value.t)
    assert str(exc.value) == f"family 'Ldoubled' has infinite length at params {P[0]!r} (the length passed the float range)"
    # an infinite support outward, at t = 1/4, or only on the way back, at
    # t = 3/4, from a domain whose support still depends on v alone
    oracle = s.domain.support_oracle
    for sign, t in [(1.0, 0.25), (-1.0, 0.75)]:
        domain = dataclasses.replace(
            s.domain, support_oracle=lambda q, v, sign=sign: np.where(sign * v.components[:, 0] > 0, np.inf, oracle(q, v))
        )
        with pytest.raises(InfiniteLengthError) as exc:
            family_lengths(domain, fam, P[4:])
        np.testing.assert_array_equal(exc.value.params, P[4])
        assert exc.value.t == t


def test_zero_parameter_family_reuses_its_grid_value(monkeypatch):
    s = camel_scenario(2, 0.4, 0.01)
    fam = s.families["L+^k"]
    assert fam.grid.dim == 0
    calls = _counting_loop_length(monkeypatch)
    rep = extremal_lengths(s.domain, fam)
    assert calls == []
    assert [(h["refined"], h["evals"]) for h in rep.refinement_history] == [(rep.grid_E, 0), (rep.grid_e, 0)]
    assert rep.E == rep.e == pytest.approx(0.4 / 2 + 2 * 0.01, abs=1e-12)


def _seam_domain() -> GaugeDomain:
    """Flat-torus norm scaled by 1 + cos(2 pi (q_0 - 0.95)) / 2, which peaks
    at q_0 = 0.95, just before the seam of the unit circle."""

    def oracle(q, v):
        w = v.components
        scale = 1.0 + 0.5 * np.cos(TWO_PI * (q.coords[:, 0] - 0.95))
        return scale * np.sqrt((w * w).sum(axis=1))

    return GaugeDomain(BaseDescriptor("torus", 2, ("torus",)), oracle)


def test_refinement_crosses_the_seam_of_a_periodic_axis():
    def samples(P, ts):
        q = np.empty((P.shape[0], ts.shape[0], 2))
        q[:, :, 0] = P[:, :1]
        q[:, :, 1] = ts
        v = np.zeros((P.shape[0], ts.shape[0], 2))
        v[:, :, 1] = 1.0
        return q, v

    # the vertical loop at u has length 1 + cos(2 pi (u - 0.95)) / 2; the
    # grid 0, 1/4, 1/2, 3/4 puts its largest value at u = 0, and the maximum
    # lies across the seam from there
    grid = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True),))
    fam = LoopFamily("vertical", grid, samples, chart="torus")
    rep = extremal_lengths(_seam_domain(), fam)
    assert rep.grid_E == pytest.approx(1.0 + 0.5 * math.cos(TWO_PI * 0.05), rel=1e-12)
    assert rep.E == pytest.approx(1.5, rel=1e-9)
    assert rep.argmax_params[0] == pytest.approx(0.95, abs=1e-5)
    assert rep.e == pytest.approx(0.5, rel=1e-9)


def test_periodic_bracket_spans_one_grid_gap():
    # four points on a periodic axis leave gaps of 1/4, not 1/3; the minimum
    # of f at 0.2 lies outside the bracket [0.25, 0.75] around 0.5
    grid = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True),))

    def f(P):
        return -np.cos(TWO_PI * (P[:, 0] - 0.2))

    [(x, fx, evals, rounds)] = loops._refine(f, grid, [(np.array([0.5]), f(np.array([[0.5]]))[0], 1.0)], 200, 1e-9)
    assert x[0] == pytest.approx(0.25, abs=1e-6)
    assert 0 < evals <= 200


def _scaled_torus(scale) -> GaugeDomain:
    """Flat-torus norm on coordinates (u, v, t) scaled by ``scale(u, v)``."""

    def oracle(q, v):
        w = v.components
        return scale(q.coords[:, 0], q.coords[:, 1]) * np.sqrt((w * w).sum(axis=1))

    return GaugeDomain(BaseDescriptor("torus", 3, ("torus",)), oracle)


def _vertical_family(grid: ParamGrid) -> LoopFamily:
    """Loops t -> (u, v, t) at parameters (u, v): the length of the loop at
    (u, v) is the domain's scale there."""

    def samples(P, ts):
        q = np.empty((P.shape[0], ts.shape[0], 3))
        q[:, :, :2] = P[:, None, :]
        q[:, :, 2] = ts
        v = np.zeros((P.shape[0], ts.shape[0], 3))
        v[:, :, 2] = 1.0
        return q, v

    return LoopFamily("vertical", grid, samples, chart="torus")


def _bump(u, v):
    # 1 + (1 + cos)(1 + cos) / 8 around (0.95, 0.95): largest there, 1.5
    return 1.0 + (1.0 + np.cos(TWO_PI * (u - 0.95))) * (1.0 + np.cos(TWO_PI * (v - 0.95))) / 8.0


TORUS_GRID = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True), GridAxis(0.0, 1.0, 4, periodic=True)))


def test_refinement_crosses_the_seam_of_both_periodic_axes():
    # the grid's largest value is at (0, 0), and the maximum lies across the
    # seam from there on both axes
    rep = extremal_lengths(_scaled_torus(_bump), _vertical_family(TORUS_GRID))
    np.testing.assert_array_equal(TORUS_GRID.points()[0], [0.0, 0.0])
    assert rep.grid_E == pytest.approx(float(_bump(0.0, 0.0)), rel=1e-12)
    assert rep.E == pytest.approx(1.5, rel=1e-9)
    np.testing.assert_allclose(rep.argmax_params, [0.95, 0.95], atol=1e-5)
    assert rep.e == pytest.approx(1.0, rel=1e-9)
    assert all(0 < h["evals"] == 4 * h["rounds"] <= 200 for h in rep.refinement_history)


def test_refinement_evaluations_stay_within_the_budget():
    domain, fam = _scaled_torus(_bump), _vertical_family(TORUS_GRID)
    grid = extremal_lengths(domain, fam, refine=loops.RefineSpec(budget=3))
    # a round of a 2-D family takes four lengths per extremum
    assert [(h["refined"], h["evals"], h["rounds"]) for h in grid.refinement_history] == [
        (grid.grid_E, 0, 0), (grid.grid_e, 0, 0)]
    assert (grid.E, grid.e) == (grid.grid_E, grid.grid_e)
    np.testing.assert_array_equal(grid.argmax_params, [0.0, 0.0])
    for budget in range(1, 61):  # both searches need more than 60 lengths unbounded
        rep = extremal_lengths(domain, fam, refine=loops.RefineSpec(budget=budget))
        for h in rep.refinement_history:
            assert h["evals"] == 4 * h["rounds"] and budget - 4 < h["evals"] <= budget
        assert rep.E >= grid.E and rep.e <= grid.e


def test_an_infinite_trial_row_raises_with_its_params():
    # the grid 0, 1/2, 1 misses the window 0.7 < u < 0.8 where the support is
    # infinite; the sup at 1 tries 1 (its box ends there) and 0.75
    def scale(u, v):
        return np.where((u > 0.7) & (u < 0.8), np.inf, 1.0 + u)

    grid = ParamGrid((GridAxis(0.0, 1.0, 3), GridAxis(0.0, 0.0, 1)))
    with pytest.raises(InfiniteLengthError) as exc:
        extremal_lengths(_scaled_torus(scale), _vertical_family(grid))
    np.testing.assert_array_equal(exc.value.params, [0.75, 0.0])
    assert "'vertical'" in str(exc.value)


def test_an_overflowing_length_raises_for_the_first_row_that_fails():
    # at u = 2/3 every sample is 1e308, finite, but their trapezoid sum is
    # not; at u = 1 every sample is infinite
    def scale(u, v):
        return np.where(u > 0.9, np.inf, np.where(u > 0.5, 1e308, 1.0))

    domain = _scaled_torus(scale)
    fam = _vertical_family(ParamGrid((GridAxis(0.0, 1.0, 4), GridAxis(0.0, 0.0, 1))))
    P = fam.grid.points()
    quad = QuadratureSpec(panels=8)
    with pytest.raises(InfiniteLengthError) as exc:
        loop_length(domain, fam.loop_at(P[2]), quad)
    assert math.isnan(exc.value.t)
    assert str(exc.value) == "infinite length: the length passed the float range"
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(domain, fam, P, quad)
    np.testing.assert_array_equal(exc.value.params, P[2])
    assert math.isnan(exc.value.t)
    assert str(exc.value) == f"family 'vertical' has infinite length at params {P[2]!r} (the length passed the float range)"
    # in reverse row order the infinite samples come first
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(domain, fam, P[::-1], quad)
    np.testing.assert_array_equal(exc.value.params, P[3])
    assert exc.value.t == 0.0
    with pytest.raises(InfiniteLengthError) as exc:
        extremal_lengths(domain, fam, quad)
    np.testing.assert_array_equal(exc.value.params, P[2])


@PROPERTY
@given(
    st.sampled_from(CASES),
    st.sampled_from(QUADS),
    st.integers(1, 120),
    st.sampled_from([1e-2, 1e-4, 1e-6]),
)
def test_refinement_never_loses_to_the_grid_and_reports_its_lengths(case, quad, budget, xtol):
    s, name = case
    fam = s.families[name]
    rep = extremal_lengths(s.domain, fam, quad, loops.RefineSpec(budget=budget, xtol=xtol))
    assert rep.E >= rep.grid_E and rep.e <= rep.grid_e
    assert rep.E == pytest.approx(loop_length(s.domain, fam.loop_at(rep.argmax_params), quad), rel=1e-13, abs=0)
    assert rep.e == pytest.approx(loop_length(s.domain, fam.loop_at(rep.argmin_params), quad), rel=1e-13, abs=0)
    assert all(h["evals"] <= budget for h in rep.refinement_history)


def _nan_torus(t_nan: float, u_min: float) -> GaugeDomain:
    """Flat-torus norm on coordinates (u, v, t), NaN at t = ``t_nan`` where
    u > ``u_min``."""

    def oracle(q, v):
        w = v.components
        values = np.sqrt((w * w).sum(axis=1))
        values[(q.coords[:, 0] > u_min) & (q.coords[:, 2] == t_nan)] = np.nan
        return values

    return GaugeDomain(BaseDescriptor("torus", 3, ("torus",)), oracle)


# a sample of level 0 and one of level 1 at 8 panels
@pytest.mark.parametrize("t_nan", [0.375, 0.0625])
def test_a_nan_support_value_counts_as_infinite(t_nan):
    domain = _nan_torus(t_nan, 0.5)
    fam = _vertical_family(ParamGrid((GridAxis(0.0, 1.0, 4), GridAxis(0.0, 1.0, 2))))
    P = fam.grid.points()
    quad = QuadratureSpec(panels=8)
    assert loop_length(domain, fam.loop_at(P[3]), quad) == 1.0  # u = 1/3 sees no NaN
    with pytest.raises(InfiniteLengthError) as exc:
        loop_length(domain, fam.loop_at(P[4]), quad)
    assert exc.value.t == t_nan
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(domain, fam, P, quad)
    np.testing.assert_array_equal(exc.value.params, P[4])  # the first row with u > 1/2
    assert exc.value.t == t_nan


def _mixed_oracle(q, v):
    """Support of the vertical loop at (kind, a): (1 + a) (1.5 - exp(12 (cos
    2 pi (t - 0.3) - 1))), which 8 panels double up to level 3 and 16 panels
    up to level 2, times 5e307 where kind = 1 (finite samples up to 1.5e308,
    an overflowing sum), NaN at t = a where kind = 2, and +inf within
    ``_WINDOW`` of a where kind = 3."""
    kind, a, t = q.coords.T
    values = (1.0 + a) * (1.5 - np.exp(12.0 * (np.cos(TWO_PI * (t - 0.3)) - 1.0)))
    values[kind == 1] *= 5e307
    values[(kind == 2) & (t == a)] = np.nan
    values[(kind == 3) & (np.abs(t - a) < _WINDOW)] = np.inf
    return values


MIXED = GaugeDomain(BaseDescriptor("torus", 3, ("torus",)), _mixed_oracle)
# below 1/128, the distance from a level-3 sample of 16 panels to the
# samples of the levels before it
_WINDOW = 1 / 512


def _mixed_row(panels: int):
    """(kind, a): a finite row, an overflowing one, NaN at a sample of
    levels 0 to 3, or a window at a level-2 or level-3 sample, which the
    samples of the levels before it miss."""
    finite = st.tuples(st.just(0.0), st.floats(0.0, 1.0))
    overflow = st.tuples(st.just(1.0), st.floats(0.0, 1.0))
    nan = st.tuples(st.just(2.0), st.integers(0, 8 * panels - 1).map(lambda j: j / (8 * panels)))
    # odd multiples of the spacing of level 2, 1/(4 panels), or of level 3
    window = st.sampled_from([4, 8]).flatmap(
        lambda m: st.integers(0, m * panels // 2 - 1).map(lambda j: (3.0, (2 * j + 1) / (m * panels)))
    )
    return st.one_of(finite, overflow, nan, window)


def _reference_failure(domain: GaugeDomain, loop: Loop, quad: QuadratureSpec):
    """The t of the per-row rule's failure: that of its first non-finite
    sample, NaN if its samples are finite but its sum is not, else None."""
    try:
        with np.errstate(over="ignore"):
            return None if math.isfinite(_reference_length(domain, loop, quad)) else math.nan
    except InfiniteLengthError as exc:
        return exc.t


@PROPERTY
@given(data=st.data(), panels=st.sampled_from([8, 16]))
def test_grid_error_names_the_first_failing_row_of_mixed_failure_kinds(data, panels):
    # rows in any order: finite, overflowing, NaN at one sample, and windows
    # that only level 2 or later can hit, failing at different levels
    P = np.array(data.draw(st.lists(_mixed_row(panels), min_size=1, max_size=8)))
    fam = _vertical_family(ParamGrid(()))
    quad = QuadratureSpec(panels=panels)
    failures = [_reference_failure(MIXED, fam.loop_at(p), quad) for p in P]
    failing = [i for i, t in enumerate(failures) if t is not None]
    if not failing:
        reference = [_reference_length(MIXED, fam.loop_at(p), quad) for p in P]
        np.testing.assert_allclose(family_lengths(MIXED, fam, P, quad), reference, rtol=1e-13, atol=0.0)
        return
    row, t = failing[0], failures[failing[0]]
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(MIXED, fam, P, quad)
    np.testing.assert_array_equal(exc.value.params, P[row])
    np.testing.assert_array_equal(exc.value.t, t)  # NaN equals NaN here
    where = "the length passed the float range" if math.isnan(t) else f"t={t:.6f}"
    assert str(exc.value) == f"family 'vertical' has infinite length at params {P[row]!r} ({where})"


def test_a_family_needs_loops_or_both_array_forms():
    grid = ParamGrid(())

    def samples(P, ts):
        zeros = np.zeros((P.shape[0], ts.shape[0], 2))
        return zeros, zeros

    with pytest.raises(TypeError):
        LoopFamily("none", grid)
    with pytest.raises(TypeError):  # one form gives both arrays
        LoopFamily("two forms", grid, points=samples, velocities=samples)
    LoopFamily("one form", grid, samples)


@pytest.mark.parametrize("panels", [0, 4, 7, 2**16 + 1, 8.0, None, True, "8"])
def test_a_family_declares_an_int_panel_count_in_range(panels):
    # 0 would divide by zero in the trapezoid rule, and 4 would run a rule
    # coarser than any override may ask for
    with pytest.raises(InvalidInputError, match=r"a family's panels must be an int in \[8, 65536\]"):
        LoopFamily("vertical", ParamGrid(()), lambda P, ts: None, panels=panels)
    LoopFamily("vertical", ParamGrid(()), lambda P, ts: None, panels=np.int64(8))


@dataclasses.dataclass(eq=False)
class _Compass:
    """One extremum of the reference compass search below."""

    x0: np.ndarray
    x: np.ndarray
    at: np.ndarray
    f: float
    sign: float
    h: np.ndarray
    evals: int = 0
    rounds: int = 0


def _round_by_round_refine(lengths, grid, starts, budget, xtol):
    """``loops._refine`` as a compass search that builds each round's trial
    points anew: x +- h e_i, clipped to one grid gap around the start and
    folded, for every extremum whose h is not below xtol on every axis and
    whose next round fits the budget; a strict improvement moves, anything
    else halves h."""
    p = grid.dim
    fold = loops._folder(grid)
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


@st.composite
def _axes(draw, xtol: float):
    """A periodic or clipped axis of 1 to 9 points; some widths are xtol
    times a power of two, so that a step can land on xtol exactly."""
    periodic = draw(st.booleans())
    lo = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    widths = [st.floats(0.01, 3.0), st.integers(1, int(math.log2(4.0 / xtol))).map(lambda m: xtol * 2.0**m)]
    width = draw(st.one_of(*widths) if periodic else st.one_of(st.just(0.0), *widths))
    return GridAxis(lo, lo + width, draw(st.integers(1, 9)), periodic)


def _test_function(kind: str, grid: ParamGrid, slopes):
    """A constant, a function that peaks on a corner of the box, or a
    product of cosines that peaks a twentieth of the box below each axis's
    upper end, across the seam from lo on a periodic axis."""
    lo = np.array([ax.lo for ax in grid.axes])
    width = np.array([max(ax.hi - ax.lo, 1.0) for ax in grid.axes])
    if kind == "constant":
        return lambda P: np.full(P.shape[0], 0.75)
    if kind == "edge":
        return lambda P: 1.0 + ((P - lo) * slopes).sum(axis=1)
    return lambda P: 2.0 + np.cos(TWO_PI * (P - (lo + 0.95 * width)) / width).prod(axis=1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["constant", "edge", "seam"]),
    data=st.data(),
    budget=st.integers(1, 200),
    xtol=st.sampled_from([1e-2, 1e-6, 1e-9]),
)
def test_the_failure_ladder_makes_the_calls_of_the_round_by_round_compass(kind, data, budget, xtol):
    grid = ParamGrid(tuple(data.draw(st.lists(_axes(xtol), min_size=0, max_size=3))))
    slopes = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=grid.dim, max_size=grid.dim)))
    f = _test_function(kind, grid, slopes)
    pts = grid.points()
    values = f(pts)
    pick = st.tuples(st.integers(0, pts.shape[0] - 1), st.sampled_from([-1.0, 1.0]))
    picks = data.draw(st.lists(pick, min_size=1, max_size=3))
    starts = [(pts[i], values[i], sign) for i, sign in picks]

    def recording(calls):
        def lengths(P):
            calls.append(np.array(P))
            return f(P)

        return lengths

    ladder_calls, compass_calls = [], []
    got = loops._refine(recording(ladder_calls), grid, starts, budget, xtol)
    expected = _round_by_round_refine(recording(compass_calls), grid, starts, budget, xtol)
    assert len(ladder_calls) == len(compass_calls)
    for a, b in zip(ladder_calls, compass_calls):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for (x, fx, evals, rounds), (y, fy, e, r) in zip(got, expected, strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert (float(fx).hex(), evals, rounds) == (float(fy).hex(), e, r)


# ---------------------------------------------------------------------------
# The catalog's coordinate-major form against the row-major forms it replaced
# ---------------------------------------------------------------------------

# the seven default scenario forms and the non-default ones above
FORMS = [build_scenario({"scenario": name}) for name in CATALOG] + [
    build_scenario({"scenario": "open_book", "page": "circle"}),
    *SCENARIOS,
]
FORM_CASES = [(s, name) for s in FORMS for name in s.families]


def _row_major_forms(s, name: str):
    """The two row-major array forms, ``points`` and ``velocities``, that the
    catalog gave family ``name`` of scenario ``s`` before its one
    coordinate-major ``samples`` form, copied as they were."""
    kind = s.params["scenario"]
    if kind == "ellipsoid1" or (kind == "open_book" and s.params["page"] == "interval"):
        w = TWO_PI * (1 if name == "L+" else -1)

        def rho(X):
            return np.sqrt(np.maximum(0.0, 1.0 - np.vecdot(X, X)))[:, None]

        def points(X, ts):
            k, r, ang = X.shape[1], rho(X), w * ts
            out = np.empty((X.shape[0], ts.shape[0], k + 2))
            out[:, :, :k] = X[:, None, :]
            out[:, :, k] = r * np.cos(ang)
            out[:, :, k + 1] = r * np.sin(ang)
            return out

        def velocities(X, ts):
            k, r, ang = X.shape[1], rho(X), w * ts
            out = np.zeros((X.shape[0], ts.shape[0], k + 2))
            out[:, :, k] = -w * r * np.sin(ang)
            out[:, :, k + 1] = w * r * np.cos(ang)
            return out

    elif kind == "ellipsoid2":
        n = s.params["n"]

        def points(P, ts):
            r = P[:, :1]
            out = np.zeros((P.shape[0], ts.shape[0], n + 1))
            out[:, :, 0] = np.sqrt(np.maximum(0.0, 1.0 - r * r))
            out[:, :, n - 1] = r * np.cos(TWO_PI * ts)
            out[:, :, n] = r * np.sin(TWO_PI * ts)
            return out

        def velocities(P, ts):
            r = P[:, :1]
            out = np.zeros((P.shape[0], ts.shape[0], n + 1))
            out[:, :, n - 1] = -TWO_PI * r * np.sin(TWO_PI * ts)
            out[:, :, n] = TWO_PI * r * np.cos(TWO_PI * ts)
            return out

    elif kind == "klein":
        a = s.params["a"]
        x0 = a / 4.0

        def along(P, phi, origin):
            y0 = P[:, :1]
            out = np.empty((P.shape[0], phi.shape[0], 2))
            out[:, :, 0] = x0 + phi * a if origin else phi * a
            out[:, :, 1] = y0 + phi * (-2.0 * y0) if origin else phi * (-2.0 * y0)
            return out

        def split(ts):
            t = np.mod(ts, 1.0)
            outward = t < 0.5
            return np.where(outward, 2.0, -2.0), np.where(outward, 2.0 * t, 2.0 - 2.0 * t)

        def points(P, ts):
            _, u = split(ts)
            return along(P, loops.cutoff(u), True)

        def velocities(P, ts):
            rate, u = split(ts)
            return along(P, rate * loops.cutoff_deriv(u), False)

    else:  # the torus lines of product_torus, camel and the circle open book
        d = s.domain.base.dim
        zeros = s.params.get("k", 1) if name == "L+^k" else 0
        sign = 1 if name.startswith("L+") else -1

        def points(P, ts):
            out = np.empty((P.shape[0], ts.shape[0], d))
            out[:, :, :zeros] = 0.0
            out[:, :, zeros:-1] = P[:, None, :]
            out[:, :, -1] = np.mod(sign * ts, 1.0)
            return out

        def velocities(P, ts):
            out = np.zeros((P.shape[0], ts.shape[0], d))
            out[:, :, -1] = sign
            return out

    return points, velocities


def _reference_family(s, name: str) -> LoopFamily:
    """Family ``name`` of ``s`` rebuilt on its row-major forms."""
    fam = s.families[name]
    points, velocities = _row_major_forms(s, name)
    return dataclasses.replace(fam, samples=lambda P, ts: (points(P, ts), velocities(P, ts)))


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    np.testing.assert_array_equal(a, b, strict=True)
    assert a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


@PROPERTY
@given(case=st.sampled_from(FORM_CASES), panels=st.sampled_from([8, 64, 512]), data=st.data())
def test_the_coordinate_major_form_equals_the_row_major_forms_bitwise(case, panels, data):
    s, name = case
    fam = s.families[name]
    points, velocities = _row_major_forms(s, name)
    row = st.lists(st.floats(0.0, 1.0), min_size=fam.grid.dim, max_size=fam.grid.dim)
    P = _in_range(fam.grid, data.draw(st.lists(row, min_size=1, max_size=40)))
    levels = loops._first_levels(panels)
    for ts in (levels, (np.arange(panels) + 0.5) / panels, np.linspace(-0.1, 1.1, 23)):
        q, v = fam.samples(P, ts)
        _assert_bitwise(q, points(P, ts))
        _assert_bitwise(v, velocities(P, ts))


@pytest.mark.parametrize("case", FORM_CASES, ids=[f"{s.id}-{name}" for s, name in FORM_CASES])
def test_lengths_and_extrema_equal_those_of_the_row_major_forms(case):
    s, name = case
    fam, reference = s.families[name], _reference_family(s, name)
    P = fam.grid.points()
    # a segment family's samples meet the row-major forms on the rule; its
    # default spec takes the exact path, which reads the segment, which the
    # reference keeps
    for quad in [QuadratureSpec(panels=64), QuadratureSpec()] if fam.segment else [QuadratureSpec()]:
        _assert_bitwise(family_lengths(s.domain, fam, P, quad), family_lengths(s.domain, reference, P, quad))
        got, want = extremal_lengths(s.domain, fam, quad), extremal_lengths(s.domain, reference, quad)
        assert (got.E.hex(), got.e.hex(), got.grid_E.hex(), got.grid_e.hex()) == (
            want.E.hex(), want.e.hex(), want.grid_E.hex(), want.grid_e.hex())
        _assert_bitwise(got.argmax_params, want.argmax_params)
        _assert_bitwise(got.argmin_params, want.argmin_params)
        assert got.refinement_history == want.refinement_history


@pytest.mark.parametrize("s", FORMS, ids=lambda s: s.id)
def test_the_oracle_gets_coordinate_major_transposes(s):
    # the oracles sum over the coordinates of ``.T``; a form that falls back
    # to a row-major layout hands them strided arrays
    calls = []

    def oracle(q, v):
        calls.append((q.coords.T.flags.c_contiguous, v.components.T.flags.c_contiguous))
        return s.domain.support_oracle(q, v)

    domain = dataclasses.replace(s.domain, support_oracle=oracle)
    for fam in s.families.values():
        # the grid, then each round; a segment family on the rule and on
        # its exact path
        for quad in [QuadratureSpec(panels=64), QuadratureSpec()] if fam.segment else [QuadratureSpec()]:
            calls.clear()
            extremal_lengths(domain, fam, quad)
            assert calls and all(q and v for q, v in calls)
