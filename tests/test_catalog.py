"""Scenario constructors: geometry values, validation and round-tripping."""
import math

import numpy as np
import pytest

from stringcap.catalog import (
    SCENARIOS,
    build_scenario,
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
    scenario_config,
)
from stringcap.errors import ScenarioParameterError
from stringcap.loops import check_loop, extremal_lengths

TWO_PI = 2.0 * math.pi


def _all_scenarios():
    return [
        ellipsoid_scenario(2, 0.3),
        ellipsoid2_scenario(3, 0.4),
        open_book_scenario("interval", 1.0, 1.0, 1.0),
        open_book_scenario("circle", 1.0, 1.0, 0.5),
        product_torus_scenario(2, 1, 1.0),
        camel_scenario(2, 0.4, 0.01),
        klein_bottle_scenario(1.0, 1.0),
    ]


def test_every_family_yields_valid_loops_and_finite_lengths():
    for s in _all_scenarios():
        for name, fam in s.families.items():
            pts = list(fam.grid.points())
            for p in pts[:: max(1, len(pts) // 5)]:
                check_loop(fam.loop_at(p))
            rep = extremal_lengths(s.domain, fam, s.quad)
            assert math.isfinite(rep.E) and math.isfinite(rep.e), (s.id, name)
        for bname, sel in s.symbolic_bindings.items():
            assert sel.family in s.families, (s.id, bname)


@pytest.mark.parametrize(
    "n,a,expected",
    [(2, 0.3, 0.6 * math.pi), (2, 1.0, TWO_PI), (3, 0.5, math.pi)],
)
def test_rotation_family_suprema(n, a, expected):
    s = ellipsoid_scenario(n, a)
    rep = extremal_lengths(s.domain, s.families["L+"], s.quad)
    assert rep.E == pytest.approx(expected, rel=1e-4)


def test_round_limit_has_equal_suprema_both_orientations():
    for n in (2, 3):
        s = ellipsoid_scenario(n, 1.0)
        rp = extremal_lengths(s.domain, s.families["L+"], s.quad)
        rm = extremal_lengths(s.domain, s.families["L-"], s.quad)
        assert rp.E == pytest.approx(TWO_PI, rel=1e-4)
        assert rm.E == pytest.approx(TWO_PI, rel=1e-4)


@pytest.mark.parametrize("n,a,expected", [(3, 0.4, 0.8 * math.pi), (4, 1.0, TWO_PI)])
def test_diagonal_orbit_family_supremum(n, a, expected):
    s = ellipsoid2_scenario(n, a)
    rep = extremal_lengths(s.domain, s.families["orbits"], s.quad)
    assert rep.E == pytest.approx(expected, rel=1e-4)


def test_diagonal_orbit_supremum_is_linear_in_a():
    for a in np.linspace(0.1, 1.0, 5):
        s = ellipsoid2_scenario(3, float(a))
        rep = extremal_lengths(s.domain, s.families["orbits"], s.quad)
        assert rep.E / a == pytest.approx(TWO_PI, rel=1e-4)


def test_camel_family_extrema_are_exact():
    eps, delta = 0.4, 0.01
    s = camel_scenario(2, eps, delta)
    rm = extremal_lengths(s.domain, s.families["L-"], s.quad)
    rp = extremal_lengths(s.domain, s.families["L+^k"], s.quad)
    assert rm.E == pytest.approx(eps / 2 + delta, abs=1e-12)
    assert rp.E == pytest.approx(eps / 2 + 2 * delta, abs=1e-12)


def test_flat_product_torus_unit_lengths():
    s = product_torus_scenario(2, 1, 1.0)
    rm = extremal_lengths(s.domain, s.families["L-"], s.quad)
    rp = extremal_lengths(s.domain, s.families["L+^k"], s.quad)
    assert rm.E == pytest.approx(1.0, abs=1e-8)
    assert rp.E == pytest.approx(1.0, abs=1e-8)


def test_zero_radius_product_torus_vanishes():
    s = product_torus_scenario(2, 1, 0.0)
    for fam in s.families.values():
        rep = extremal_lengths(s.domain, fam, s.quad)
        assert rep.E == 0.0 and rep.e == 0.0


@pytest.mark.parametrize("a,b,expected", [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
def test_klein_doubled_family_infimum(a, b, expected):
    s = klein_bottle_scenario(a, b)
    rep = extremal_lengths(s.domain, s.families["Ldoubled"], s.quad)
    assert rep.e == pytest.approx(expected, abs=1e-6)


def test_klein_infimum_scales_with_codisk_radius():
    base = extremal_lengths(
        *(lambda s: (s.domain, s.families["Ldoubled"], s.quad))(klein_bottle_scenario(1.0, 1.0))
    ).e
    scaled = extremal_lengths(
        *(lambda s: (s.domain, s.families["Ldoubled"], s.quad))(
            klein_bottle_scenario(1.0, 1.0, radius=0.5)
        )
    ).e
    assert scaled == pytest.approx(0.5 * base, rel=1e-9)


def test_parameter_validation():
    with pytest.raises(ScenarioParameterError):
        ellipsoid_scenario(1, 0.5)
    with pytest.raises(ScenarioParameterError):
        ellipsoid_scenario(2, 1.5)
    with pytest.raises(ScenarioParameterError):
        ellipsoid2_scenario(2, 0.5)
    with pytest.raises(ScenarioParameterError):
        camel_scenario(1, 0.4, 0.01)
    with pytest.raises(ScenarioParameterError):
        camel_scenario(2, -0.4, 0.01)
    with pytest.raises(ScenarioParameterError):
        camel_scenario(2, 0.4, 0.0)
    with pytest.raises(ScenarioParameterError):
        product_torus_scenario(2, 2, 1.0)
    with pytest.raises(ScenarioParameterError):
        klein_bottle_scenario(0.0, 1.0)
    with pytest.raises(ScenarioParameterError):
        open_book_scenario("moebius", 1.0, 1.0, 1.0)


def test_config_round_trip_and_schema_rejection():
    for s in _all_scenarios():
        cfg = scenario_config(s)
        rebuilt = build_scenario(cfg)
        assert rebuilt.id == s.id
        assert rebuilt.params == s.params
        assert set(rebuilt.families) == set(s.families)
    with pytest.raises(ScenarioParameterError):
        build_scenario({"scenario": "camel", "unknown_key": 1})
    with pytest.raises(ScenarioParameterError):
        build_scenario({"scenario": "nosuch"})


# the keys each scenario takes, one per parameter of its domain and loops
TAKES = {
    "ellipsoid1": {"n", "a"},
    "ellipsoid2": {"n", "a"},
    "open_book": {"page", "radius", "len_page", "len_fiber"},
    "product_torus": {"d", "k", "radius"},
    "camel": {"n", "eps", "delta"},
    "klein": {"a", "b", "radius"},
}

# a value of each key that the scenarios taking it accept
VALID = {
    "n": 3, "a": 0.5, "b": 1.5, "eps": 0.4, "delta": 0.01, "k": 1, "d": 3, "radius": 1.5,
    "page": "circle", "len_page": 2.0, "len_fiber": 3.0,
}


@pytest.mark.parametrize("name", sorted(TAKES))
def test_keys_a_scenario_does_not_take_are_refused(name):
    for key in sorted(VALID.keys() - TAKES[name]):
        with pytest.raises(ScenarioParameterError):
            build_scenario({"scenario": name, key: VALID[key]})


def test_scenario_params_are_the_keys_of_its_table_entry():
    assert set(SCENARIOS) == set(TAKES)
    for name, (_, keys) in SCENARIOS.items():
        assert set(keys) == TAKES[name]
        for config in ({"scenario": name}, {"scenario": name, **{k: VALID[k] for k in keys}}):
            assert set(build_scenario(config).params) == set(keys) | {"scenario"}, config


def test_interval_page_refuses_page_and_fiber_lengths():
    for key in ("len_page", "len_fiber"):
        with pytest.raises(ScenarioParameterError):
            build_scenario({"scenario": "open_book", "page": "interval", key: 2.0})


def test_integer_valued_numbers_build_the_same_ids():
    assert build_scenario({"scenario": "klein", "a": 1}).id == "klein(a=1.0,b=1.0,r=1.0)"
    assert build_scenario({"scenario": "ellipsoid1", "n": 3.0, "a": 1}).id == "ellipsoid1(n=3,a=1.0)"
    assert build_scenario({"scenario": "product_torus", "d": 3.0, "k": 2, "radius": 2}).id == (
        "product_torus(d=3,k=2,radius=2.0)"
    )


def test_construction_is_deterministic():
    s1 = ellipsoid_scenario(3, 0.5)
    s2 = ellipsoid_scenario(3, 0.5)
    assert s1.id == s2.id
    assert s1.domain.metadata == s2.domain.metadata
    g1 = np.array(list(s1.families["L+"].grid.points()))
    g2 = np.array(list(s2.families["L+"].grid.points()))
    assert np.array_equal(g1, g2)


# per-sample reference forms of the catalog loops, written point by point;
# the catalog evaluates the same loops on whole sample arrays

def _ref_sigma(t):
    return math.exp(-1.0 / t) if t > 0 else 0.0


def _ref_cutoff(t):
    a, b = _ref_sigma(t), _ref_sigma(1.0 - t)
    return a / (a + b)


def _ref_cutoff_deriv(t):
    if t <= 0.0 or t >= 1.0:
        return 0.0
    a, b = _ref_sigma(t), _ref_sigma(1.0 - t)
    da = a / (t * t)
    db = -b / ((1.0 - t) * (1.0 - t))
    return (da * b - a * db) / ((a + b) ** 2)


def _reference_loop(s, family, p):
    """(point(t) -> coords, velocity(t) -> components, chart) of the loop of
    ``family`` at parameters ``p``."""
    p = np.asarray(p, dtype=float)
    sign = -1.0 if family.startswith("L-") else 1.0
    name = s.params["scenario"]
    if name in ("ellipsoid1", "open_book") and s.params.get("page", "interval") == "interval":
        rho = math.sqrt(max(0.0, 1.0 - float(p @ p)))
        w = TWO_PI * sign
        return (
            lambda t: np.concatenate([p, [rho * math.cos(w * t), rho * math.sin(w * t)]]),
            lambda t: np.concatenate(
                [np.zeros_like(p), [-w * rho * math.sin(w * t), w * rho * math.cos(w * t)]]
            ),
            "embedding",
        )
    if name == "open_book":
        u = float(p[0])
        return lambda t: np.array([u, sign * t]), lambda t: np.array([0.0, sign]), "torus"
    if name == "ellipsoid2":
        n, r = s.params["n"], float(p[0])
        c = math.sqrt(max(0.0, 1.0 - r * r))

        def point(t):
            out = np.zeros(n + 1)
            out[0], out[n - 1], out[n] = c, r * math.cos(TWO_PI * t), r * math.sin(TWO_PI * t)
            return out

        def velocity(t):
            out = np.zeros(n + 1)
            out[n - 1], out[n] = -TWO_PI * r * math.sin(TWO_PI * t), TWO_PI * r * math.cos(TWO_PI * t)
            return out

        return point, velocity, "embedding"
    if name in ("product_torus", "camel"):
        d = s.params["n"] if name == "camel" else s.params["d"]
        k = 1 if name == "camel" else s.params["k"]
        prefix = p if sign < 0 else np.concatenate([np.zeros(k), p])
        chart = "torus" if name == "product_torus" else ("camel" if sign < 0 else "camel:q1zero")
        vel = np.zeros(d)
        vel[-1] = sign
        return lambda t: np.concatenate([prefix, [sign * t]]), lambda t: vel, chart
    a = s.params["a"]
    base_pt = np.array([a / 4.0, float(p[0])])
    w = np.array([a, -2.0 * float(p[0])])
    if family == "L":
        return lambda t: base_pt + t * w, lambda t: w, "klein"

    def point(t):
        t = t % 1.0
        return base_pt + (_ref_cutoff(2.0 * t) if t < 0.5 else _ref_cutoff(2.0 - 2.0 * t)) * w

    def velocity(t):
        t = t % 1.0
        if t < 0.5:
            return 2.0 * _ref_cutoff_deriv(2.0 * t) * w
        return -2.0 * _ref_cutoff_deriv(2.0 - 2.0 * t) * w

    return point, velocity, "klein"


def test_array_loops_match_per_sample_reference():
    rng = np.random.default_rng(7)
    ts = np.concatenate([rng.uniform(0.0, 1.0, 24), [0.0, 0.25, 0.5, 0.75, 1.0, -1e-5, 1.0 + 1e-5, 1.3]])
    scenarios = _all_scenarios() + [
        ellipsoid_scenario(3, 0.6),
        ellipsoid2_scenario(4, 0.8),
        product_torus_scenario(4, 2, 1.0),
        camel_scenario(3, 0.5, 0.02),
        klein_bottle_scenario(0.5, 2.0),
    ]
    for s in scenarios:
        for name, fam in s.families.items():
            grid = list(fam.grid.points())
            lo = np.array([ax.lo for ax in fam.grid.axes])
            hi = np.array([ax.hi for ax in fam.grid.axes])
            off_grid = [lo + (hi - lo) * rng.uniform(size=fam.grid.dim) for _ in range(3)]
            for p in grid[:: max(1, len(grid) // 4)] + off_grid:
                loop = fam.loop_at(p)
                point, velocity, chart = _reference_loop(s, name, p)
                assert loop.chart == chart, (s.id, name)
                want_q = np.array([point(t) for t in ts])
                want_v = np.array([velocity(t) for t in ts])
                np.testing.assert_allclose(loop.points(ts), want_q, rtol=0, atol=1e-12, err_msg=f"{s.id} {name}")
                np.testing.assert_allclose(loop.velocities(ts), want_v, rtol=0, atol=1e-12, err_msg=f"{s.id} {name}")
                for t, q, v in zip(ts[:4], want_q, want_v):
                    np.testing.assert_allclose(loop.point(t).coords, q, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(loop.velocity(t).components, v, rtol=0, atol=1e-12)
                    assert loop.point(t).chart_id == chart


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "scenario,key",
    [(name, key) for name, (_, keys) in SCENARIOS.items() for key, default in keys.items() if isinstance(default, float)],
)
def test_build_scenario_refuses_non_finite_numbers(scenario, key, value):
    # a range check such as eps <= 0 is False for NaN and lets +inf through
    with pytest.raises(ScenarioParameterError, match=f"{key} must be finite"):
        build_scenario({"scenario": scenario, key: value})


@pytest.mark.parametrize(
    "build,args",
    [
        (ellipsoid_scenario, (2.7, 0.5)),
        (ellipsoid_scenario, ("3", 0.5)),
        (camel_scenario, (2, math.nan, 0.1)),
        (product_torus_scenario, (3, 1, math.nan)),
        (klein_bottle_scenario, (1.0, 1.0, -1.0)),
        (klein_bottle_scenario, (10**400, 1.0)),
        (open_book_scenario, ("circle", 1.0, -2.0, 1.0)),
        (open_book_scenario, ("circle", 1.0, 1.0, 0.0)),
        (build_scenario, ({"scenario": "camel", "n": True},)),
    ],
)
def test_constructors_refuse_values_out_of_type_or_range(build, args):
    # each constructor checks its own arguments: a direct call refuses what
    # a configuration does
    with pytest.raises(ScenarioParameterError):
        build(*args)
