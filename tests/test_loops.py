"""Loop validation, length quadrature and extremal-length machinery."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from stringcap import loops
from stringcap.bounds import camel_limit_report
from stringcap.catalog import (
    camel_scenario,
    ellipsoid_domain,
    ellipsoid_scenario,
    flat_torus_domain,
    klein_bottle_scenario,
)
from stringcap.errors import (
    BasepointMismatchError,
    ChartMismatchError,
    InfiniteLengthError,
    InvalidInputError,
    LoopValidationError,
    ScenarioParameterError,
)
from stringcap.frames import verify_frame_family
from stringcap.gauge import (
    BaseDescriptor,
    BasePoint,
    MetricSpec,
    TangentVector,
    codisk_domain,
    support,
)
from stringcap.loops import (
    GridAxis,
    Loop,
    LoopFamily,
    ParamGrid,
    QuadratureSpec,
    check_loop,
    concatenate,
    cutoff,
    cutoff_deriv,
    extremal_lengths,
    family_lengths,
    loop_length,
    reverse,
)

TWO_PI = 2.0 * math.pi


def _equator_loop(a_dummy=None):
    def point(t):
        ang = TWO_PI * t
        return BasePoint(np.array([0.0, math.cos(ang), math.sin(ang)]), "embedding")

    def deriv(t):
        ang = TWO_PI * t
        return TangentVector(
            np.array([0.0, -TWO_PI * math.sin(ang), TWO_PI * math.cos(ang)]), point(t)
        )

    return Loop(point, deriv)


def _torus_vertical_loop(x0=0.25):
    def point(t):
        return BasePoint(np.array([x0, t % 1.0]), "torus")

    def deriv(t):
        return TangentVector(np.array([0.0, 1.0]), point(t))

    return Loop(point, deriv)


def _torus_vertical_family():
    """The loops t -> (u, t) of the flat 2-torus at parameters u on a
    periodic grid of four points."""

    def samples(P, ts):
        q = np.empty((P.shape[0], ts.shape[0], 2))
        q[:, :, 0] = P[:, :1]
        q[:, :, 1] = np.mod(ts, 1.0)
        v = np.zeros((P.shape[0], ts.shape[0], 2))
        v[:, :, 1] = 1.0
        return q, v

    grid = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True),))
    return LoopFamily("vertical", grid, samples, chart="torus")


def test_the_trapezoid_rule_converges_geometrically_on_an_ellipse():
    # the ellipse (a cos 2 pi t, b sin 2 pi t) on a flat codisk: its speed is
    # not constant, and its perimeter is 4 a E(1 - b^2/a^2).  The speed is
    # analytic where |Im 2 pi t| < alpha = atanh(b/a), so the rule's error
    # at 2N panels is at most e^(-alpha N) times its error at N (Trefethen
    # and Weideman, SIAM Review 2014)
    a, b = 1.0, 0.2

    def samples(ts):
        ang = TWO_PI * ts
        return (np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1),
                np.stack([-TWO_PI * a * np.sin(ang), TWO_PI * b * np.cos(ang)], axis=1))

    dom = codisk_domain(BaseDescriptor("plane", 2, ("default",)), MetricSpec())
    loop = Loop(samples=samples)
    perimeter = 4.0 * a * ellipe(1.0 - b * b / (a * a))
    assert loop_length(dom, loop) == pytest.approx(perimeter, rel=1e-12, abs=0.0)
    # a qtol of 1 stops every rule at level 1, so these are 16, 32 and 64
    # panels
    errors = [abs(loop_length(dom, loop, QuadratureSpec(panels=n, qtol=1.0)) - perimeter) for n in (8, 16, 32)]
    alpha = math.atanh(b / a)
    assert errors[0] > 0.0 and errors[2] > 1e3 * np.spacing(perimeter)  # not yet at rounding
    assert errors[1] <= math.exp(-alpha * 16) * errors[0]
    assert errors[2] <= math.exp(-alpha * 32) * errors[1]


def test_constant_loop_has_zero_length():
    dom = ellipsoid_domain(2, 0.5)

    def point(t):
        return BasePoint(np.array([1.0, 0.0, 0.0]), "embedding")

    loop = Loop(point, lambda t: TangentVector(np.zeros(3), point(t)))
    assert loop_length(dom, loop) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("a", [0.2, 0.5, 1.0])
def test_equator_length_is_circumference(a):
    dom = ellipsoid_domain(2, a)
    assert loop_length(dom, _equator_loop()) == pytest.approx(TWO_PI * a, rel=1e-6)


def test_flat_torus_factor_loop_has_unit_length():
    dom = flat_torus_domain(2, radius=1.0)
    assert loop_length(dom, _torus_vertical_loop()) == pytest.approx(1.0, abs=1e-8)


def test_reverse_is_an_involution_pointwise():
    loop = _equator_loop()
    rr = reverse(reverse(loop))
    ts = np.linspace(0.0, 1.0, 64, endpoint=False)
    assert np.allclose(rr.samples(ts)[0], loop.samples(ts)[0], atol=1e-12)
    assert np.allclose(rr.samples(ts)[1], loop.samples(ts)[1], atol=1e-9)


def test_reverse_preserves_length_on_symmetric_domain():
    dom = flat_torus_domain(2, radius=1.0)
    loop = _torus_vertical_loop()
    assert loop_length(dom, reverse(loop)) == pytest.approx(loop_length(dom, loop), abs=1e-9)


def test_reversed_constrained_loop_probes_the_opposite_direction():
    s = camel_scenario(2, 0.4, 0.01)
    fam = s.families["L+^k"]
    loop = fam.loop_at(np.empty(0))
    # forward: support eps/2 + 2 delta; reversed: support eps/2 + delta
    fwd = loop_length(s.domain, loop)
    bwd = loop_length(s.domain, reverse(loop))
    assert fwd == pytest.approx(0.4 / 2 + 2 * 0.01, abs=1e-12)
    assert bwd == pytest.approx(0.4 / 2 + 0.01, abs=1e-12)


def test_concatenation_with_constant_preserves_length():
    dom = ellipsoid_domain(2, 0.5)
    loop = _equator_loop()
    p0 = loop.point_fn(0.0)
    const = Loop(lambda t: p0, lambda t: TangentVector(np.zeros(3), p0))
    both = concatenate(loop, const)
    assert loop_length(dom, both) == pytest.approx(loop_length(dom, loop), abs=1e-7)


def test_concatenation_with_reverse_doubles_length():
    dom = ellipsoid_domain(2, 0.5)
    loop = _equator_loop()
    both = concatenate(loop, reverse(loop))
    assert loop_length(dom, both) == pytest.approx(2.0 * loop_length(dom, loop), rel=1e-7)


def test_concatenation_requires_shared_basepoint():
    a = _torus_vertical_loop(0.25)
    b = _torus_vertical_loop(0.75)
    with pytest.raises(BasepointMismatchError):
        concatenate(a, b)


def test_reparametrization_invariance():
    dom = ellipsoid_domain(2, 0.5)
    base = _equator_loop()
    ell = loop_length(dom, base)
    rng = np.random.default_rng(5)
    for _ in range(5):
        c1 = rng.uniform(-0.1, 0.1)
        c2 = rng.uniform(-0.05, 0.05)

        def rho(t):
            return t + c1 * math.sin(TWO_PI * t) / TWO_PI + c2 * math.sin(2 * TWO_PI * t) / (
                2 * TWO_PI
            )

        warped = Loop(lambda t: base.point_fn(rho(t)))
        assert abs(loop_length(dom, warped) - ell) <= 1e-6 * (1.0 + ell)


def test_check_loop_rejects_non_closing_and_bad_derivatives():
    def open_point(t):
        return BasePoint(np.array([t, 0.0]), "torus")

    with pytest.raises(LoopValidationError):
        check_loop(Loop(open_point, lambda t: TangentVector(np.array([1.0, 0.0]), open_point(t))))

    loop = _torus_vertical_loop()
    bad = Loop(loop.point_fn, lambda t: TangentVector(np.array([1.0, 1.0]), loop.point_fn(t)))
    with pytest.raises(LoopValidationError):
        check_loop(bad)


def test_check_loop_rejects_nan_points_and_nan_derivatives():
    # a NaN gap or mismatch compared False against its tolerance and passed
    def nan_point(t):
        return BasePoint(np.full(2, math.nan), "torus")

    with pytest.raises(LoopValidationError, match="does not close"):
        check_loop(Loop(nan_point, lambda t: TangentVector(np.zeros(2), nan_point(t))))
    loop = _torus_vertical_loop()
    check_loop(loop)

    def half_nan(t):
        return TangentVector(np.array([0.0, 1.0 if t < 0.5 else math.nan]), loop.point_fn(t))

    with pytest.raises(LoopValidationError, match=r"derivative inconsistent .* at t=0\.5231"):
        check_loop(Loop(loop.point_fn, half_nan))


def test_check_loop_compares_raw_endpoints():
    # a loop closes in the coordinates it is sampled in: no fold can close
    # an open unit segment, which a fold to 0 once let through
    def segment(ts):
        return np.stack([ts, np.zeros_like(ts)], axis=1), np.broadcast_to([1.0, 0.0], (ts.shape[0], 2))

    with pytest.raises(LoopValidationError, match=r"gap 1\.000e\+00"):
        check_loop(Loop(samples=segment, chart="torus"))
    with pytest.raises(TypeError):
        Loop(samples=segment, chart="torus", identify=lambda c: 0 * c)


def test_concatenation_refuses_nan_basepoints():
    def nan_point(t):
        return BasePoint(np.array([math.nan, t]), "torus")

    nan_loop = Loop(nan_point, lambda t: TangentVector(np.array([0.0, 1.0]), nan_point(t)))
    with pytest.raises(BasepointMismatchError, match="basepoints differ by nan"):
        concatenate(nan_loop, nan_loop)


@pytest.mark.parametrize("panels", [16.0, True, "16", None])
def test_quadrature_spec_needs_int_panels(panels):
    if panels is None:
        # the default: each family starts from its own panel count
        assert QuadratureSpec(panels=None) == QuadratureSpec()
        return
    # 16.0 was accepted and the first length raised TypeError
    with pytest.raises(InvalidInputError, match="quad_panels must be an int"):
        QuadratureSpec(panels=panels)
    QuadratureSpec(panels=np.int64(16))


@pytest.mark.parametrize("budget", [math.nan, 200.0, "x", True])
def test_refine_spec_needs_an_int_budget(budget):
    # NaN was accepted and skipped refinement; "x" raised TypeError
    with pytest.raises(InvalidInputError, match="refine_budget must be an int"):
        loops.RefineSpec(budget=budget)
    loops.RefineSpec(budget=np.int64(3))


def test_quadrature_spec_validation():
    with pytest.raises(InvalidInputError):
        QuadratureSpec(panels=7)
    with pytest.raises(InvalidInputError):
        QuadratureSpec(panels=6)
    QuadratureSpec(panels=8)
    QuadratureSpec(panels=loops.MAX_QUAD_PANELS)
    with pytest.raises(InvalidInputError, match=r"quad_panels must lie in \[8, 65536\], got 65537"):
        QuadratureSpec(panels=loops.MAX_QUAD_PANELS + 1)


def test_refine_spec_validation():
    loops.RefineSpec(budget=1)
    for budget in (0, -1):
        with pytest.raises(InvalidInputError, match=f"refine_budget must be >= 1, got {budget}"):
            loops.RefineSpec(budget=budget)


@pytest.mark.parametrize("qtol", [math.nan, math.inf, -math.inf, -1e-7])
def test_quadrature_spec_needs_a_finite_nonnegative_qtol(qtol):
    # at qtol = NaN the rule stopped after one doubling and reported a NaN
    # tolerance
    with pytest.raises(InvalidInputError, match="qtol must be finite and >= 0"):
        QuadratureSpec(qtol=qtol)
    QuadratureSpec(qtol=0.0)


@pytest.mark.parametrize("xtol", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_refine_spec_needs_a_finite_positive_xtol(xtol):
    # NaN and inf skipped refinement; 0 and below bounded it only by the budget
    with pytest.raises(InvalidInputError, match="xtol must be finite and > 0"):
        loops.RefineSpec(xtol=xtol)
    loops.RefineSpec(xtol=5e-324)


@pytest.mark.parametrize(
    "lo,hi,count,periodic",
    [
        (0.0, 1.0, 0, False),  # extremal_lengths raised IndexError
        (0.0, 1.0, -2, False),  # ValueError
        (0.0, 1.0, 2.5, False),  # TypeError
        (0.0, 1.0, True, False),
        (0.0, math.nan, 3, False),  # an InfiniteLengthError at params [nan]
        (-math.inf, 1.0, 3, False),
        (0.0, math.inf, 3, True),
        (1.0, 0.0, 3, False),  # a negative gap turned each search box inside out
        (0.5, 0.5, 3, True),  # a periodic axis wraps modulo its width
    ],
)
def test_grid_axis_refuses_an_axis_that_cannot_be_searched(lo, hi, count, periodic):
    with pytest.raises(InvalidInputError, match="grid axis"):
        GridAxis(lo, hi, count, periodic)


# each setting below took a string, a bool or an int past the float range,
# raising TypeError, ValueError or nothing; each site now refuses it with the
# message of its range check
@pytest.mark.parametrize(
    "make,error,match",
    [
        (lambda: QuadratureSpec(qtol="x"), InvalidInputError, "qtol must be finite and >= 0"),
        (lambda: QuadratureSpec(qtol=None), InvalidInputError, "qtol must be finite and >= 0"),
        (lambda: QuadratureSpec(qtol=True), InvalidInputError, "qtol must be finite and >= 0"),
        (lambda: loops.RefineSpec(xtol="x"), InvalidInputError, "xtol must be finite and > 0"),
        (lambda: loops.RefineSpec(xtol=True), InvalidInputError, "xtol must be finite and > 0"),
        (lambda: GridAxis("a", 1, 3), InvalidInputError, "finite lo <= hi"),
        (lambda: GridAxis(True, 2, 3), InvalidInputError, "finite lo <= hi"),
        (lambda: GridAxis(0, 10**400, 3), InvalidInputError, "finite lo <= hi"),
        (lambda: GridAxis(0.0, 1.0, 3, periodic="no"), InvalidInputError, "a bool"),
        (lambda: verify_frame_family(2, mesh="x"), InvalidInputError, "mesh must be finite and positive"),
        (lambda: verify_frame_family(2, mesh=True), InvalidInputError, "mesh must be finite and positive"),
        (lambda: flat_torus_domain(2, 1.0, (1, "a")), ScenarioParameterError, "lengths must be finite and > 0"),
        (lambda: MetricSpec(radius=10**400), InvalidInputError, "codisk radius must be a finite real number"),
        (lambda: camel_limit_report(2, 1.0, ["a", 0.1]), ScenarioParameterError, "delta values must be finite"),
        (lambda: camel_limit_report(2, 1.0, [0.1, True]), ScenarioParameterError, "delta values must be finite"),
    ],
    ids=[
        "qtol-str", "qtol-None", "qtol-bool", "xtol-str", "xtol-bool", "lo-str", "lo-bool", "hi-huge-int",
        "periodic-str", "mesh-str", "mesh-bool", "lengths-str", "radius-huge-int", "delta-str", "delta-bool",
    ],
)
def test_number_settings_refuse_what_is_not_a_finite_real(make, error, match):
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize(
    "form,match",
    [
        ({"point_fn": "pt", "samples": "zeros"}, "not both"),
        ({"deriv_fn": "vel", "samples": "zeros"}, "not both"),
        ({"point_fn": "pt", "deriv_fn": "vel", "samples": "zeros"}, "not both"),
        ({"deriv_fn": "vel"}, "deriv_fn needs point_fn"),
        ({"point_fn": "pt", "chart": "torus"}, "disagrees"),
        ({"point_fn": "pt", "deriv_fn": "vel", "chart": "default"}, "disagrees"),
    ],
    ids=["point_fn-samples", "deriv_fn-samples", "all-three", "deriv_fn-alone", "chart-torus", "chart-default"],
)
def test_a_loop_refuses_conflicting_forms(form, match):
    # each was resolved silently: Loop(pt, samples=zeros) kept point_fn but
    # sampled zeros in chart "default", and Loop(pt, chart="torus") reported
    # chart "embedding"
    loop = _equator_loop()
    closures = {
        "pt": loop.point_fn,
        "vel": loop.deriv_fn,
        "zeros": lambda ts: (np.zeros((ts.shape[0], 3)), np.zeros((ts.shape[0], 3))),
    }
    with pytest.raises(LoopValidationError, match=match):
        Loop(**{key: closures.get(value, value) for key, value in form.items()})


def test_grid_axis_takes_clipped_axes_of_width_zero():
    assert GridAxis(0.0, 0.0, 1).points().tolist() == [0.0]
    assert GridAxis(-1.0, -1.0, 3).points().tolist() == [-1.0] * 3
    assert GridAxis(0, 1, np.int64(2), periodic=True).points().tolist() == [0.0, 0.5]


def test_grid_points_are_an_array_in_product_order():
    grid = ParamGrid((GridAxis(0.0, 1.0, 4, periodic=True), GridAxis(-0.5, 0.5, 3)))
    P = grid.points()
    assert P.shape == (12, 2)
    product = list(itertools.product(grid.axes[0].points(), grid.axes[1].points()))
    for row, combo in zip(P, product, strict=True):
        np.testing.assert_array_equal(row, combo)
    assert ParamGrid(()).points().shape == (1, 0)


# an axis from lo to lo + width: a periodic one needs width > 0, a clipped
# one may have width 0
GRID_AXES = st.one_of(
    st.builds(lambda lo, w, n: GridAxis(lo, lo + w, n, True), st.floats(-10, 10), st.floats(0.5, 10), st.integers(1, 9)),
    st.builds(lambda lo, w, n: GridAxis(lo, lo + w, n), st.floats(-10, 10), st.floats(0, 10), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(axes=st.lists(GRID_AXES, max_size=4))
def test_grid_points_equal_the_rows_of_itertools_product(axes):
    grid = ParamGrid(tuple(axes))
    want = np.array(list(itertools.product(*(ax.points() for ax in axes))), dtype=float)
    got = grid.points()
    assert got.shape == want.shape == (math.prod(ax.count for ax in axes), len(axes))
    assert got.tobytes() == want.tobytes()


def test_extremal_lengths_on_rotation_family():
    s = ellipsoid_scenario(2, 0.5)
    rep = extremal_lengths(s.domain, s.families["L+"])
    assert rep.E == pytest.approx(TWO_PI * 0.5, rel=1e-4)
    assert rep.e <= rep.E
    assert rep.e == pytest.approx(0.0, abs=1e-8)  # binding loops are constant
    assert rep.E >= rep.grid_E


def test_extremal_lengths_constant_family_exact():
    s = camel_scenario(2, 0.4, 0.01)
    rep = extremal_lengths(s.domain, s.families["L-"])
    assert rep.E == pytest.approx(0.4 / 2 + 0.01, abs=1e-9)
    assert rep.e == pytest.approx(0.4 / 2 + 0.01, abs=1e-9)


def test_zero_radius_codisk_has_zero_extremal_lengths():
    dom = flat_torus_domain(2, radius=0.0)
    fam = _torus_vertical_family()
    rep = extremal_lengths(dom, fam)
    assert rep.E == 0.0 and rep.e == 0.0


def test_domain_monotonicity_of_extremal_lengths():
    fam = _torus_vertical_family()
    inner = flat_torus_domain(2, radius=0.5)
    outer = flat_torus_domain(2, radius=1.0)
    rep_in = extremal_lengths(inner, fam)
    rep_out = extremal_lengths(outer, fam)
    assert rep_in.E <= rep_out.E + 1e-6


def test_infinite_length_raises_with_parameters():
    s = camel_scenario(2, 0.4, 0.01)

    def samples(P, ts):
        t = np.mod(ts, 1.0)[None, :, None]
        return np.broadcast_to(t, (P.shape[0], ts.shape[0], 2)), np.ones((P.shape[0], ts.shape[0], 2))

    grid = ParamGrid((GridAxis(0.0, 1.0, 3),))
    fam = LoopFamily("diag", grid, samples, chart="camel")
    with pytest.raises(InfiniteLengthError) as exc:
        extremal_lengths(s.domain, fam)
    assert exc.value.params is not None


def test_length_additivity_of_segment_concatenation():
    # two factor loops of the flat torus around different basepoint axes
    dom = flat_torus_domain(2, radius=1.0, lengths=(2.0, 3.0))

    def horiz_point(t):
        return BasePoint(np.array([t % 1.0, 0.0]), "torus")

    horiz = Loop(horiz_point, lambda t: TangentVector(np.array([1.0, 0.0]), horiz_point(t)))
    vert = _torus_vertical_loop(0.0)
    both = concatenate(horiz, vert)
    expected = loop_length(dom, horiz) + loop_length(dom, vert)
    assert loop_length(dom, both) == pytest.approx(expected, rel=1e-7)


def _window_loop(center, half_width):
    """Constant point on the camel domain whose velocity (0, c(t)) has
    c(t) > 0, so infinite support, only within half_width of center."""
    q0 = BasePoint(np.array([0.2, 0.3]), "camel")

    def deriv(t):
        c = math.cos(TWO_PI * (t - center)) - math.cos(TWO_PI * half_width)
        return TangentVector(np.array([0.0, c]), q0)

    return Loop(lambda t: q0, deriv)


# a window first hit by the second level (midpoints), and one holding three
# samples of the first level
@pytest.mark.parametrize("center,half_width,expected", [(0.31, 0.01, 0.3125), (0.6, 0.2, 0.5)])
def test_infinite_length_reports_the_first_infinite_sample(center, half_width, expected):
    dom = camel_scenario(2, 0.4, 0.01).domain
    quad = QuadratureSpec(panels=8)
    loop = _window_loop(center, half_width)
    # per-sample reference: the samples in the order the levels add them
    n, levels = quad.panels, [np.arange(quad.panels) / quad.panels]
    for _ in range(loops._MAX_DOUBLINGS):
        levels.append((np.arange(n) + 0.5) / n)
        n *= 2
    first = next(
        t for ts in levels for t in ts
        if not math.isfinite(support(dom, loop.point_fn(t), loop.deriv_fn(t)))
    )
    assert first == expected
    with pytest.raises(InfiniteLengthError) as exc:
        loop_length(dom, loop, quad)
    assert exc.value.t == first
    assert f"t={first:.6f}" in str(exc.value)


def test_loop_length_uses_a_swapped_in_oracle_once_per_level():
    dom = ellipsoid_domain(2, 0.5)
    batches = []

    def tripled(q, v):
        batches.append(q.coords.shape[0])
        return 3.0 * dom.support_oracle(q, v)

    swapped = dataclasses.replace(dom, support_oracle=tripled)
    loop = _equator_loop()
    assert loop_length(swapped, loop) == pytest.approx(3.0 * TWO_PI * 0.5, rel=1e-12)
    # levels 0 and 1 share one call; the constant integrand agrees after one doubling
    assert batches == [128]
    batches.clear()
    both = concatenate(loop, reverse(loop))
    assert loop_length(swapped, both, QuadratureSpec(panels=16)) == pytest.approx(6.0 * TWO_PI * 0.5, rel=1e-9)
    assert batches == [32, 32, 64]  # levels 0 and 1, then one call per later level
    q, v = loop.point_fn(0.1), loop.deriv_fn(0.1)
    assert float(support(swapped, q, v)) == pytest.approx(3.0 * float(support(dom, q, v)), rel=1e-14)


def test_concatenate_and_reverse_array_forms_match_per_sample_composition():
    a, b = _equator_loop(), reverse(_equator_loop())
    both = concatenate(a, b)
    ts = np.linspace(-0.2, 1.2, 57)
    for t, q, v in zip(ts, both.samples(ts)[0], both.samples(ts)[1]):
        u = t % 1.0
        inner, s = (a, 2.0 * u) if u < 0.5 else (b, 2.0 * u - 1.0)
        c = float(cutoff(s))
        np.testing.assert_allclose(q, inner.samples(np.array([c]))[0][0], rtol=0, atol=1e-14)
        want = 2.0 * float(cutoff_deriv(s)) * inner.samples(np.array([c]))[1][0]
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)
    rts = reverse(a)
    np.testing.assert_allclose(rts.samples(ts)[0], [a.point_fn(1.0 - t).coords for t in ts], atol=1e-15)
    np.testing.assert_allclose(rts.samples(ts)[1], [-a.deriv_fn(1.0 - t).components for t in ts], atol=1e-15)


def test_scalar_loop_must_stay_in_its_chart():
    def point(t):
        return BasePoint(np.array([t, 0.0]), "camel" if t < 0.5 else "camel:q1zero")

    loop = Loop(point, lambda t: TangentVector(np.array([1.0, 0.0]), point(t)))
    with pytest.raises(LoopValidationError):
        loop_length(camel_scenario(2, 0.4, 0.01).domain, loop)


def test_lengths_refuse_a_chart_the_domain_does_not_accept():
    s = ellipsoid_scenario(2, 0.5)  # its domain accepts the chart "embedding" only
    fam = dataclasses.replace(s.families["L+"], chart="default")
    P = fam.grid.points()
    with pytest.raises(ChartMismatchError):
        loop_length(s.domain, fam.loop_at(P[0]))
    with pytest.raises(ChartMismatchError):
        family_lengths(s.domain, fam, P)
    # klein's segment family, on its exact path too
    s = klein_bottle_scenario(1.0, 1.0)
    fam = dataclasses.replace(s.families["Ldoubled"], chart="default")
    with pytest.raises(ChartMismatchError):
        family_lengths(s.domain, fam, fam.grid.points())
