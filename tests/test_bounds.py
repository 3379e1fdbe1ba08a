"""Numeric bound assembly: values, certificates and covariance properties."""
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringcap import bounds
from stringcap.bounds import camel_limit_report, compute_bounds, resolve_bindings
from stringcap.catalog import (
    REFERENCE_CASES,
    SCENARIOS,
    build_scenario,
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
)
from stringcap.errors import IncompatibleBindingError, ScenarioParameterError
from stringcap.gauge import GaugeDomain
from stringcap.loops import QuadratureSpec, extremal_lengths, family_lengths
from test_catalog import DEFAULT_FORMS

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
    # klein's exact path sums two support values, each 0 * |w|
    (b,) = compute_bounds(klein_bottle_scenario(1.0, 1.0, 0.0))
    assert b.upper_bound == 0.0 and b.family_reports["Ldoubled"].E == 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_camel_bound_is_closed_form_and_dimension_independent(n):
    eps, delta = 0.4, 0.01
    (b,) = compute_bounds(camel_scenario(n, eps, delta))
    assert b.upper_bound == pytest.approx(eps + 3 * delta, abs=1e-9)


def test_flat_torus_product_bound():
    s = product_torus_scenario(2, 1, 1.0)
    (b,) = compute_bounds(s)
    assert b.upper_bound == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("a,bb,expected,tolerance", [(1.0, 1.0, 2.0, 6e-7), (0.5, 2.0, 1.0, 4e-7)])
def test_klein_bound(a, bb, expected, tolerance):
    (b,) = compute_bounds(klein_bottle_scenario(a, bb))
    assert b.upper_bound == pytest.approx(expected, abs=1e-6)
    # l_q and l_qbar each read the inf e = 2a, not the unread sup
    assert b.to_jsonable()["tolerance"] == pytest.approx(tolerance, rel=1e-12)


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
        return lam * oracle(q, v)

    return GaugeDomain(domain.base, scaled)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scale_covariance_of_bounds(lam):
    for s in (ellipsoid_scenario(2, 0.5), klein_bottle_scenario(1.0, 1.0)):
        scaled = dataclasses.replace(s, domain=_scaled_domain(s.domain, lam))
        for b, bs in zip(compute_bounds(s), compute_bounds(scaled)):
            assert bs.upper_bound == pytest.approx(lam * b.upper_bound, rel=1e-9)


EQUIVALENCE_CONFIGS = list(
    {
        str(config): config
        for config in [case.config for case in REFERENCE_CASES]
        + [{"scenario": name} for name in SCENARIOS]
        + [{"scenario": "open_book", "page": "circle"}]
    }.values()
)


@pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS, ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_family_panel_counts_agree_with_64_panels_everywhere(config):
    # the orbit families start from 8 panels, exact for their constant
    # integrands, and Klein's segment family takes its exact length; an
    # explicit 64 puts every family on the rule, which falls up to 4.2e-11
    # relative short of a segment's exact length, within the rule's own
    # tolerance qtol (1 + |E|)
    s = build_scenario(config)
    own, at_64 = compute_bounds(s), compute_bounds(s, QuadratureSpec(panels=64))
    segments = any(f.segment is not None for f in s.families.values())
    for b, b64 in zip(own, at_64, strict=True):
        close = {"rel": 0.0, "abs": b.tolerance} if segments else {"rel": 1e-12, "abs": 0.0}
        assert b.upper_bound == pytest.approx(b64.upper_bound, **close)
    for name, r in own[0].family_reports.items():
        r64 = at_64[0].family_reports[name]
        close = {"rel": 0.0, "abs": r.qtol * (1 + abs(r.E))} if s.families[name].segment else {"rel": 1e-12, "abs": 0.0}
        assert r.E == pytest.approx(r64.E, **close)
        assert r.e == pytest.approx(r64.e, **close)
        np.testing.assert_array_equal(r.argmax_params, r64.argmax_params)
        np.testing.assert_array_equal(r.argmin_params, r64.argmin_params)
        for h, h64 in zip(r.refinement_history, r64.refinement_history, strict=True):
            assert (h["evals"], h["rounds"]) == (h64["evals"], h64["rounds"])


@pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS, ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_a_tolerance_is_the_quadrature_setting_at_the_extremum_each_symbol_reads(config):
    # Klein's symbols read the inf of its doubled loops; every other symbol
    # reads a sup, or the inf of a constant-length family (the closed page's
    # [V]), where e = E
    s = build_scenario(config)
    for b in compute_bounds(s):
        reports = [b.family_reports[s.symbolic_bindings[sym].family.name] for sym in b.certificate.filtration.symbols]
        read = [r.e if config["scenario"] == "klein" else r.E for r in reports]
        assert b.to_jsonable()["tolerance"] == sum(QuadratureSpec().qtol * (1.0 + abs(x)) for x in read)


def test_both_orientation_targets_keep_the_smaller_bound():
    # a domain twice as wide for positive rotation in the last coordinate
    # plane, so the L+ loops are twice as long as the L- loops
    a = 0.5
    s = ellipsoid_scenario(2, a)
    oracle = s.domain.support_oracle

    def lopsided(q, v):
        x, w = q.coords, v.components
        return np.where(x[:, -2] * w[:, -1] - x[:, -1] * w[:, -2] > 0, 2.0, 1.0) * oracle(q, v)

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


def test_camel_limit_table_needs_two_distinct_smallest_deltas():
    # equal deltas divided by zero in the extrapolation
    with pytest.raises(ScenarioParameterError, match="two distinct delta values"):
        camel_limit_report(2, 1.0, [0.1, 0.1])


def test_bound_dispatch_rejects_mismatched_scenarios():
    # the open-book [pt] recipe starts from a page rotation, a generator the
    # Klein bottle does not declare
    s = klein_bottle_scenario(1.0, 1.0)
    mismatched = dataclasses.replace(s, targets=(ellipsoid_scenario(2, 0.5).target("[pt]"),))
    with pytest.raises(IncompatibleBindingError, match=re.escape("B[A[id,+]]")):
        compute_bounds(mismatched)


def test_only_the_families_a_generator_selects_are_evaluated(monkeypatch):
    evaluated = []
    real = bounds.extremal_lengths

    def recording(domain, family, *args):
        evaluated.append(family.name)
        return real(domain, family, *args)

    monkeypatch.setattr(bounds, "extremal_lengths", recording)
    (b,) = compute_bounds(klein_bottle_scenario(1.0, 1.0))
    assert evaluated == ["Ldoubled"]
    assert list(b.to_jsonable()["grid_values"]) == ["Ldoubled"]


def _extremum(report, mode: str) -> tuple:
    """The value, point and history entry of ``report``'s sup or inf."""
    value, point = (report.E, report.argmax_params) if mode == "sup" else (report.e, report.argmin_params)
    return value, point, report.refinement_history[("sup", "inf").index(mode)]


@pytest.mark.parametrize("config", DEFAULT_FORMS, ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_a_bound_refines_only_the_extrema_its_selectors_name(config):
    s = build_scenario(config)
    _, reports = resolve_bindings(s)
    for name, fam in s.families.items():
        named = {sel.mode for sel in s.symbolic_bindings.values() if sel.family is fam}
        grid = fam.grid.points()
        lengths = family_lengths(s.domain, fam, grid)
        for mode, i in [("sup", int(np.argmax(lengths))), ("inf", int(np.argmin(lengths)))]:
            value, point, h = _extremum(reports[name], mode)
            if mode in named:
                # the extremum of a direct call, which refines both
                want_value, want_point, want_h = _extremum(extremal_lengths(s.domain, fam), mode)
                assert value.hex() == want_value.hex()
                assert (point.shape, point.tobytes()) == (want_point.shape, want_point.tobytes())
                assert h == want_h
            else:
                assert (h["evals"], h["rounds"]) == (0, 0)
                assert value.hex() == h["grid"].hex() == h["refined"].hex() == float(lengths[i]).hex()
                assert (point.shape, point.tobytes()) == (grid[i].shape, grid[i].tobytes())


def test_klein_refinement_rounds_carry_only_the_inf_trial_rows():
    s = klein_bottle_scenario(1.0, 1.0)
    batches = []

    def oracle(q, v):
        batches.append(q.coords.shape[0])
        return s.domain.support_oracle(q, v)

    counted = dataclasses.replace(s, domain=dataclasses.replace(s.domain, support_oracle=oracle))
    # the exact segment path takes 2 oracle rows per parameter row: the
    # 17-point grid, then one call per round with 2 trial rows per refined
    # extremum; a direct call refines both, in 14 rounds each
    full = extremal_lengths(counted.domain, counted.families["Ldoubled"])
    assert [h["rounds"] for h in full.refinement_history] == [14, 14]
    assert batches == [2 * 17] + [2 * 4] * 14
    batches.clear()
    (b,) = compute_bounds(counted)
    assert batches == [2 * 17] + [2 * 2] * 14  # klein's selectors read only the inf
    sup, inf = b.family_reports["Ldoubled"].refinement_history
    assert (sup["evals"], sup["rounds"]) == (0, 0)
    assert inf == full.refinement_history[1]


@pytest.mark.parametrize(
    "config, calls, samples",
    [({"scenario": "ellipsoid1", "n": 3}, 36, 4768), ({"scenario": "ellipsoid1"}, 34, 1568), ({"scenario": "open_book"}, 34, 1568)],
    ids=["ellipsoid1:3", "ellipsoid1:2", "open_book"],
)
def test_open_books_without_orbit_generators_refine_no_inf(config, calls, samples):
    # their certificates start only from page rotations, bounded by the sups:
    # the inf searches ran in the sups' oracle calls and took 6944 rows at
    # n = 3 and 2592 at n = 2 and on the interval page
    s = build_scenario(config)
    batches = []

    def oracle(q, v):
        batches.append(q.coords.shape[0])
        return s.domain.support_oracle(q, v)

    compute_bounds(dataclasses.replace(s, domain=dataclasses.replace(s.domain, support_oracle=oracle)))
    assert (len(batches), sum(batches)) == (calls, samples)


def test_family_grids_past_the_limit_are_refused_before_any_evaluation(monkeypatch):
    def refuse(*args):
        raise AssertionError("a family was evaluated")

    with monkeypatch.context() as m:
        m.setattr(bounds, "extremal_lengths", refuse)
        with pytest.raises(ScenarioParameterError, match="grid points"):
            resolve_bindings(product_torus_scenario(10, 1, 1.0))  # 4**9 points
        m.setattr(bounds, "MAX_GRID_POINTS", 16)
        with pytest.raises(ScenarioParameterError, match="17 grid points"):
            resolve_bindings(klein_bottle_scenario(1.0, 1.0))
    # a grid of exactly the limit is evaluated
    monkeypatch.setattr(bounds, "MAX_GRID_POINTS", 17)
    (b,) = compute_bounds(klein_bottle_scenario(1.0, 1.0))
    assert b.upper_bound == pytest.approx(2.0, abs=1e-6)


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
