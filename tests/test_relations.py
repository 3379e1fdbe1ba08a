"""Relations every bound must obey, over random valid configurations that the
reference rows leave out.  Each relation is argued from the support function
of its scenario, not read off computed outputs; each compares two
``compute_bounds`` runs target by target."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcap.bounds import compute_bounds
from stringcap.catalog import build_scenario

RELATION = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# the relations hold up to the rounding of a few operations per sample
REL = 1e-12


def _bounds(config: dict) -> list[float]:
    return [b.upper_bound for b in compute_bounds(build_scenario(config))]


def _positive(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _with_radius(draw) -> dict:
    """A configuration of a scenario that takes a codisk radius."""
    radius = draw(_positive(0.1, 3.0))
    kind = draw(st.sampled_from(["interval", "circle", "product_torus", "klein"]))
    if kind == "interval":
        return {"scenario": "open_book", "page": "interval", "radius": radius}
    if kind == "circle":
        return {
            "scenario": "open_book",
            "page": "circle",
            "radius": radius,
            "len_page": draw(_positive(0.2, 3.0)),
            "len_fiber": draw(_positive(0.2, 3.0)),
        }
    if kind == "product_torus":
        d = draw(st.integers(2, 4))
        return {"scenario": "product_torus", "d": d, "k": draw(st.integers(1, d - 1)), "radius": radius}
    return {"scenario": "klein", "a": draw(_positive(0.2, 2.0)), "b": draw(_positive(0.2, 3.0)), "radius": radius}


@RELATION
@given(config=_with_radius(), lam=_positive(0.25, 4.0))
def test_bounds_are_homogeneous_in_the_radius(config, lam):
    """The codisk of radius R has support R |v|_g: the supremum of <p, v>
    over |p|_g* <= R.  So scaling R by lam scales every sample of every
    support integrand, hence every length, sup and inf, by lam; a
    filtration is a positive combination of those, so every bound scales
    by lam.  The trapezoid rule's stopping test, a change below
    qtol (1 + |length|), is not scale invariant; but on the orbit families
    the first two levels agree far below qtol at every radius in range
    (their integrands are constant), so both runs stop after one doubling,
    and klein's segment family takes no rule: its length is exactly
    h(w) + h(-w)."""
    scaled = {**config, "radius": lam * config["radius"]}
    for b, bs in zip(_bounds(config), _bounds(scaled), strict=True):
        assert bs == pytest.approx(lam * b, rel=REL, abs=0.0)


@st.composite
def _ellipsoid(draw) -> dict:
    name = draw(st.sampled_from(["ellipsoid1", "ellipsoid2"]))
    n = draw(st.integers(2, 3) if name == "ellipsoid1" else st.integers(3, 6))
    return {"scenario": name, "n": n, "a": draw(_positive(0.05, 1.0))}


@RELATION
@given(config=_ellipsoid(), a=_positive(0.05, 1.0))
def test_ellipsoid_bounds_are_linear_in_a(config, a):
    """Both ellipsoids stretch the ambient axes that their loop families
    rotate (the last two of ellipsoid1's page rotations, the last two of
    ellipsoid2's orbits, inside its four stretched axes) by a, and the
    families' points and velocities do not depend on a.  Each velocity
    lies in the stretched axes, so its support is a times its Euclidean
    norm, every length is a times its value at a = 1, and every bound, a
    positive combination of lengths, is linear in a."""
    other = {**config, "a": a}
    for b, bo in zip(_bounds(config), _bounds(other), strict=True):
        assert bo * config["a"] == pytest.approx(b * a, rel=REL, abs=0.0)


@st.composite
def _camel_pair(draw) -> tuple[dict, dict]:
    """Two camel configurations of one n, the second with eps and delta at
    least as large."""
    n = draw(st.integers(2, 4))
    eps, delta = draw(_positive(0.05, 2.0)), draw(_positive(1e-4, 0.5))
    more_eps, more_delta = eps + draw(_positive(0.0, 1.0)), delta + draw(_positive(0.0, 0.5))
    return (
        {"scenario": "camel", "n": n, "eps": eps, "delta": delta},
        {"scenario": "camel", "n": n, "eps": more_eps, "delta": more_delta},
    )


@RELATION
@given(pair=_camel_pair())
def test_the_camel_bound_grows_with_eps_and_delta(pair):
    """Where it is finite, the camel support of a velocity with last
    component c is (eps/2 + delta) |c| for c < 0 and (eps/2 + 2 delta) c
    for c > 0 on the q1 = 0 slice.  Both coefficients grow with eps and
    delta, so every finite length does, and so does each sup and the
    bound, their positive combination.  Each step is a rounded sum or
    product of positive numbers, which rounding keeps monotone, so the
    relation holds bit for bit."""
    small, large = pair
    for b, bl in zip(_bounds(small), _bounds(large), strict=True):
        assert b <= bl


@RELATION
@given(a=_positive(0.2, 2.0), b=_positive(0.2, 3.0), other_b=_positive(0.2, 3.0), radius=_positive(0.5, 2.0))
def test_the_klein_bound_does_not_depend_on_b(a, b, other_b, radius):
    """The flat Klein bottle's support is radius |v|.  The doubled loop at
    height y0 runs out along the step (a, -2 y0) and back, so its length is
    2 radius sqrt(a^2 + 4 y0^2): least at y0 = 0, which the odd grid on
    [-b/4, b/4] holds exactly, and larger at every trial point of the
    refinement.  b only sets the range of y0, so the bound, half of that
    least length for each of q and qbar, does not depend on it.  That
    length is taken exactly, as h(w) + h(-w) with w = (a, 0), from no
    value that depends on b, so the bounds are equal, not just close."""
    config = {"scenario": "klein", "a": a, "radius": radius}
    assert _bounds({**config, "b": b}) == _bounds({**config, "b": other_b})
