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
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
)
from stringcap.errors import InfiniteLengthError, LoopValidationError
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
# the scenarios' own rule, coarse ones whose rows stop at different levels,
# and one without doublings
QUADS = [
    QuadratureSpec(panels=64),
    QuadratureSpec(panels=8),
    QuadratureSpec(panels=16, qtol=1e-12),
    QuadratureSpec(panels=8, max_doublings=0),
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
        q = BasePoint(loop.points(ts), loop.chart)
        values, finite = domain.support_oracle(q, TangentVector(loop.velocities(ts), q))
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
    for i, p in enumerate(P[:3]):
        loop = fam.loop_at(p)
        np.testing.assert_array_equal(fam.points(P, ts)[i], loop.points(ts))
        np.testing.assert_array_equal(fam.velocities(P, ts)[i], loop.velocities(ts))


def _window_family(grid: ParamGrid) -> LoopFamily:
    """Constant point on the camel domain with velocity (0, c(t)),
    c = exp(4 (cos 2 pi (t - center) - 1)) - level: the support is infinite
    where c > 0, a window around center when level < 1 and nowhere when
    level > 1.  The integrand is no trigonometric polynomial, so a row the
    first levels see as finite does not stop at once."""
    q0 = np.array([0.2, 0.3])

    def points(P, ts):
        return np.broadcast_to(q0, (P.shape[0], ts.shape[0], 2)).copy()

    def velocities(P, ts):
        out = np.zeros((P.shape[0], ts.shape[0], 2))
        out[:, :, 1] = np.exp(4.0 * (np.cos(TWO_PI * (ts - P[:, :1])) - 1.0)) - P[:, 1:2]
        return out

    return LoopFamily("window", grid, points=points, velocities=velocities, chart="camel")


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
    s = ellipsoid_scenario(3, 0.5)  # a 9 x 9 page grid, 64 panels
    fam = s.families["L+"]
    domain, batches = _recording(s.domain)
    family_lengths(domain, fam, fam.grid.array(), s.quad)
    # 81 rows of 128 samples (levels 0 and 1) in blocks of 32 rows; the
    # constant integrands all agree after one doubling
    assert batches == [4096, 4096, 2176]


def test_without_doublings_only_level_zero_is_evaluated():
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]
    quad = QuadratureSpec(panels=8, max_doublings=0)
    domain, batches = _recording(s.domain)
    P = fam.grid.array()
    lengths = family_lengths(domain, fam, P, quad)
    assert loop_length(domain, fam.loop_at(P[3]), quad) == lengths[3]
    assert batches == [17 * 8, 8]


def test_unconverged_rows_double_together():
    s = klein_bottle_scenario(0.8, 1.5)
    fam = s.families["Ldoubled"]
    quad = QuadratureSpec(panels=8, qtol=1e-12)
    P = fam.grid.array()
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
    domain, batches = _recording(s.domain)
    rep = extremal_lengths(domain, fam, s.quad)
    assert lengths == []
    np.testing.assert_array_equal([rep.argmax_params, rep.argmin_params], [[-0.375], [0.0]])
    assert [(h["evals"], h["rounds"]) for h in rep.refinement_history] == [(30, 15), (30, 15)]
    np.testing.assert_array_equal(calls[0], fam.grid.array())
    # then one call per round, the sup's two trial rows and then the inf's,
    # each within one grid gap of its grid point
    gap = 0.75 / 16
    assert [c.shape for c in calls[1:]] == [(4, 1)] * 15
    for c in calls[1:]:
        assert np.all(np.abs(c[:2] - rep.argmax_params) <= gap)
        assert np.all(np.abs(c[2:] - rep.argmin_params) <= gap)
    # levels 0 and 1 of the whole grid, then of the four trial rows of each
    # round, all of which converge at level 1
    assert batches == [17 * 2 * s.quad.panels] + [4 * 2 * s.quad.panels] * 15


def test_zero_parameter_family_reuses_its_grid_value(monkeypatch):
    s = camel_scenario(2, 0.4, 0.01)
    fam = s.families["L+^k"]
    assert fam.grid.dim == 0
    calls = _counting_loop_length(monkeypatch)
    rep = extremal_lengths(s.domain, fam, s.quad)
    assert calls == []
    assert [(h["refined"], h["evals"]) for h in rep.refinement_history] == [(rep.grid_E, 0), (rep.grid_e, 0)]
    assert rep.E == rep.e == pytest.approx(0.4 / 2 + 2 * 0.01, abs=1e-12)


def _seam_domain() -> GaugeDomain:
    """Flat-torus norm scaled by 1 + cos(2 pi (q_0 - 0.95)) / 2, which peaks
    at q_0 = 0.95, just before the seam of the unit circle."""

    def oracle(q, v):
        w = v.components
        scale = 1.0 + 0.5 * np.cos(TWO_PI * (q.coords[:, 0] - 0.95))
        values = scale * np.sqrt((w * w).sum(axis=1))
        return values, np.ones(values.shape, dtype=bool)

    return GaugeDomain(BaseDescriptor("torus", 2, ("torus",)), oracle)


def test_refinement_crosses_the_seam_of_a_periodic_axis():
    def points(P, ts):
        out = np.empty((P.shape[0], ts.shape[0], 2))
        out[:, :, 0] = P[:, :1]
        out[:, :, 1] = ts
        return out

    def velocities(P, ts):
        out = np.zeros((P.shape[0], ts.shape[0], 2))
        out[:, :, 1] = 1.0
        return out

    # the vertical loop at u has length 1 + cos(2 pi (u - 0.95)) / 2; the
    # grid 0, 1/4, 1/2, 3/4 puts its largest value at u = 0, and the maximum
    # lies across the seam from there
    grid = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True),))
    fam = LoopFamily("vertical", grid, points=points, velocities=velocities, chart="torus")
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
        values = scale(q.coords[:, 0], q.coords[:, 1]) * np.sqrt((w * w).sum(axis=1))
        return values, np.isfinite(values)

    return GaugeDomain(BaseDescriptor("torus", 3, ("torus",)), oracle)


def _vertical_family(grid: ParamGrid) -> LoopFamily:
    """Loops t -> (u, v, t) at parameters (u, v): the length of the loop at
    (u, v) is the domain's scale there."""

    def points(P, ts):
        out = np.empty((P.shape[0], ts.shape[0], 3))
        out[:, :, :2] = P[:, None, :]
        out[:, :, 2] = ts
        return out

    def velocities(P, ts):
        out = np.zeros((P.shape[0], ts.shape[0], 3))
        out[:, :, 2] = 1.0
        return out

    return LoopFamily("vertical", grid, points=points, velocities=velocities, chart="torus")


def _bump(u, v):
    # 1 + (1 + cos)(1 + cos) / 8 around (0.95, 0.95): largest there, 1.5
    return 1.0 + (1.0 + np.cos(TWO_PI * (u - 0.95))) * (1.0 + np.cos(TWO_PI * (v - 0.95))) / 8.0


TORUS_GRID = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True), GridAxis(0.0, 1.0, 4, periodic=True)))


def test_refinement_crosses_the_seam_of_both_periodic_axes():
    # the grid's largest value is at (0, 0), and the maximum lies across the
    # seam from there on both axes
    rep = extremal_lengths(_scaled_torus(_bump), _vertical_family(TORUS_GRID))
    np.testing.assert_array_equal(TORUS_GRID.array()[0], [0.0, 0.0])
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


def _vertical_loops(upward_chart: str):
    """``loop_at`` of vertical loops at q_0 = u on the camel domain: upward in
    ``upward_chart`` for 0.2 < u < 0.6, downward in chart camel elsewhere,
    and a list of the u it has built loops for."""
    built = []

    def vertical(p):
        u = float(p[0])
        built.append(u)
        chart, c = (upward_chart, 1.0) if 0.2 < u < 0.6 else ("camel", -1.0)

        def point(t):
            return BasePoint(np.array([u, t]), chart)

        return Loop(point, lambda t: TangentVector(np.array([0.0, c]), point(t)))

    return vertical, built


def test_a_family_given_by_loops_keeps_each_loops_chart():
    # on the q_1 = 0 slice (chart camel:q1zero) the last momentum is bounded
    # above too, so the upward loops there have length eps/2 + 2 delta; the
    # downward ones have eps/2 + delta in either chart
    vertical, built = _vertical_loops("camel:q1zero")
    fam = LoopFamily("vertical", ParamGrid((GridAxis(0.0, 1.0, 5),)), vertical)
    assert built == []  # no loop is built before a length is asked for
    lo, hi = 0.4 / 2 + 0.01, 0.4 / 2 + 0.02
    domain, batches = _recording(CAMEL)
    quad = QuadratureSpec(panels=8)
    lengths = family_lengths(domain, fam, fam.grid.array(), quad)
    np.testing.assert_allclose(lengths, [lo, hi, hi, lo, lo], rtol=1e-12)
    assert built == [0.0, 0.25, 0.5, 0.75, 1.0]  # one loop per row
    assert batches == [3 * 16, 2 * 16]  # levels 0 and 1, one call per chart
    rep = extremal_lengths(CAMEL, fam, quad)
    assert (rep.E, rep.e) == (pytest.approx(hi, rel=1e-12), pytest.approx(lo, rel=1e-12))


def test_a_family_given_by_loops_raises_for_its_first_infinite_row():
    # upward loops in chart camel have infinite support everywhere
    vertical, _ = _vertical_loops("camel")
    fam = LoopFamily("vertical", ParamGrid((GridAxis(0.0, 1.0, 5),)), vertical)
    with pytest.raises(InfiniteLengthError) as exc:
        family_lengths(CAMEL, fam, fam.grid.array(), QuadratureSpec(panels=8))
    np.testing.assert_array_equal(exc.value.params, [0.25])
    assert exc.value.t == 0.0


def test_a_family_needs_loops_or_both_array_forms():
    grid = ParamGrid(())

    def forms(P, ts):
        return np.zeros((P.shape[0], ts.shape[0], 2))

    with pytest.raises(LoopValidationError):
        LoopFamily("none", grid)
    with pytest.raises(LoopValidationError):
        LoopFamily("half", grid, points=forms)
    with pytest.raises(LoopValidationError):
        LoopFamily("other half", grid, velocities=forms)
