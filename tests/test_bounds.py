"""Numeric bound assembly: values, certificates and covariance properties."""
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringcap.bounds import camel_limit_report, compute_bounds, resolve_bindings
from stringcap.catalog import (
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
)
from stringcap.errors import MissingAxiomError, ScenarioParameterError
from stringcap.gauge import GaugeDomain

TWO_PI = 2.0 * math.pi


def _by_target(bound_list):
    return {b.target.name: b for b in bound_list}


def test_open_book_bounds_on_stretched_sphere():
    s = ellipsoid_scenario(2, 0.25)
    bounds = _by_target(compute_bounds(s))
    assert bounds["[pt]"].upper_bound == pytest.approx(math.pi, rel=1e-4)
    assert bounds["[S^n]"].upper_bound == pytest.approx(math.pi / 2, rel=1e-4)
    assert bounds["[S^n]"].equality_known
    assert not bounds["[pt]"].equality_known


def test_closed_page_bound_uses_the_shorter_combination():
    a = 0.3
    s = open_book_scenario("circle", 1.0, 1.0, a)
    bounds = _by_target(compute_bounds(s))
    assert bounds["[V]"].upper_bound == pytest.approx(2 * a, abs=1e-6)
    assert bounds["[pt]"].upper_bound == pytest.approx(2 * a, abs=1e-6)


def test_zero_radius_codisk_gives_zero_bounds():
    s = open_book_scenario("circle", 0.0, 1.0, 1.0)
    for b in compute_bounds(s):
        assert b.upper_bound == pytest.approx(0.0, abs=1e-12)
    s2 = product_torus_scenario(2, 1, 0.0)
    assert compute_bounds(s2)[0].upper_bound == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_camel_bound_is_closed_form_and_dimension_independent(n):
    eps, delta = 0.4, 0.01
    (b,) = compute_bounds(camel_scenario(n, eps, delta))
    assert b.upper_bound == pytest.approx(eps + 3 * delta, abs=1e-9)


def test_flat_torus_product_bound():
    s = product_torus_scenario(2, 1, 1.0)
    (b,) = compute_bounds(s)
    assert b.upper_bound == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("a,bb,expected", [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
def test_klein_bound(a, bb, expected):
    (b,) = compute_bounds(klein_bottle_scenario(a, bb))
    assert b.upper_bound == pytest.approx(expected, abs=1e-6)


def test_klein_bound_scales_with_radius():
    base = compute_bounds(klein_bottle_scenario(1.0, 1.0))[0].upper_bound
    scaled = compute_bounds(klein_bottle_scenario(1.0, 1.0, radius=1.5))[0].upper_bound
    assert scaled == pytest.approx(1.5 * base, rel=1e-9)
    assert scaled >= base  # enlarging the codisk never decreases the bound


def test_diagonal_action_bound_with_equality_flag():
    for n, a in ((3, 0.4), (4, 1.0)):
        for b in compute_bounds(ellipsoid2_scenario(n, a)):
            assert b.upper_bound == pytest.approx(TWO_PI * a, rel=1e-4)
            assert b.equality_known


def test_diagonal_action_bound_is_linear_in_a():
    for a in np.linspace(0.1, 1.0, 10):
        b = compute_bounds(ellipsoid2_scenario(3, float(a)))[0]
        assert abs(b.upper_bound / float(a) - TWO_PI) / TWO_PI <= 1e-4


def test_bound_matches_certificate_resolution():
    for s in (
        ellipsoid_scenario(2, 0.5),
        camel_scenario(2, 0.4, 0.01),
        klein_bottle_scenario(1.0, 1.0),
        ellipsoid2_scenario(3, 0.4),
    ):
        for b in compute_bounds(s):
            bindings, _ = resolve_bindings(s)
            replayed = b.certificate.filtration.resolve(bindings)
            assert abs(replayed - b.upper_bound) <= 2 * max(b.tolerance, 1e-12)


def _scaled_domain(domain: GaugeDomain, lam: float) -> GaugeDomain:
    oracle = domain.support_oracle

    def scaled(q, v):
        vals, fin = oracle(q, v)
        return lam * vals, fin

    return GaugeDomain(domain.base, scaled, metadata=f"scaled x{lam}: {domain.metadata}")


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scale_covariance_of_bounds(lam):
    for s in (ellipsoid_scenario(2, 0.5), klein_bottle_scenario(1.0, 1.0)):
        scaled = dataclasses.replace(s, domain=_scaled_domain(s.domain, lam))
        for b, bs in zip(compute_bounds(s), compute_bounds(scaled)):
            assert bs.upper_bound == pytest.approx(lam * b.upper_bound, rel=1e-9)


def test_both_orientation_targets_keep_the_smaller_bound():
    # a domain twice as wide for positive rotation in the last coordinate
    # plane, so the L+ loops are twice as long as the L- loops
    a = 0.5
    s = ellipsoid_scenario(2, a)
    oracle = s.domain.support_oracle

    def lopsided(q, v):
        vals, fin = oracle(q, v)
        x, w = q.coords, v.components
        return np.where(x[:, -2] * w[:, -1] - x[:, -1] * w[:, -2] > 0, 2.0, 1.0) * vals, fin

    skewed = dataclasses.replace(s, domain=GaugeDomain(s.domain.base, lopsided))
    fundamental = _by_target(compute_bounds(skewed))["[S^n]"]
    assert fundamental.upper_bound == pytest.approx(TWO_PI * a, rel=1e-4)
    assert str(fundamental.certificate.filtration) == "E-"
    # on a tie the positive orientation is kept
    assert str(_by_target(compute_bounds(s))["[S^n]"].certificate.filtration) == "E+"


def test_camel_limit_table_and_extrapolation():
    rep = camel_limit_report(2, 0.4, [0.1, 0.01, 0.001])
    got = [r["bound"] for r in rep["rows"]]
    assert got[0] == pytest.approx(0.403, abs=1e-9)
    assert got[1] == pytest.approx(0.43, abs=1e-9)
    assert got[2] == pytest.approx(0.7, abs=1e-9)
    assert rep["extrapolated"] == pytest.approx(0.4, abs=1e-6)


def test_camel_limit_table_rejects_bad_grids():
    with pytest.raises(ScenarioParameterError):
        camel_limit_report(2, 1.0, [0.0, 0.1])
    with pytest.raises(ScenarioParameterError):
        camel_limit_report(2, 1.0, [0.1])


def test_bound_dispatch_rejects_mismatched_scenarios():
    # the open-book [pt] recipe needs the ACTION_IS_BV axiom, which the Klein
    # bottle does not register
    s = klein_bottle_scenario(1.0, 1.0)
    mismatched = dataclasses.replace(s, targets=(ellipsoid_scenario(2, 0.5).target("[pt]"),))
    with pytest.raises(MissingAxiomError) as exc:
        compute_bounds(mismatched)
    assert exc.value.rule_id == "ACTION_IS_BV"


def test_bound_report_carries_grid_and_refined_values():
    s = ellipsoid_scenario(2, 0.5)
    b = compute_bounds(s)[0]
    payload = b.to_jsonable()
    assert "grid_values" in payload
    for rec in payload["grid_values"].values():
        assert rec["sup"] >= rec["grid_sup"] - 1e-12


def test_bounds_of_every_catalog_kind_load_no_scipy():
    # a fresh interpreter: this one may have imported scipy for other tests
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    configs = [
        {"scenario": "ellipsoid1", "n": 3, "a": 0.7},
        {"scenario": "ellipsoid2", "n": 4, "a": 0.8},
        {"scenario": "camel", "n": 3, "eps": 0.7, "delta": 0.003},
        {"scenario": "product_torus", "d": 3, "k": 1, "radius": 1.3},
        {"scenario": "klein", "a": 0.8, "b": 1.5},
        {"scenario": "open_book", "page": "interval"},
        {"scenario": "open_book", "page": "circle", "len_page": 0.7, "len_fiber": 1.3},
    ]
    code = ("import sys; from stringcap import bounds, catalog\n"
            f"for c in {configs!r}: bounds.compute_bounds(catalog.build_scenario(c))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
