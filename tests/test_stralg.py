"""Filtered term calculus: operations, rules, certificates and mutations."""
import dataclasses
import json

import numpy as np
import pytest

from stringcap.catalog import (
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
)
from stringcap.errors import IncompatibleBindingError, MissingAxiomError
from stringcap.stralg import (
    ActionClass,
    BVPreimage,
    Certificate,
    ConclusionFactor,
    ConstantLoops,
    Delta,
    FiltExpr,
    FilteredClass,
    Iota,
    LoopCycle,
    RULES,
    RuleContext,
    Star,
    check_certificate,
    delta,
    derive_certificate,
    fnum,
    fsym,
    iota,
    star,
)


def test_filtration_arithmetic_and_resolution():
    f = fnum(1.5) + fsym("E+") + fsym("E-") + fsym("E+")
    assert f.const == 1.5
    assert f.symbols == ("E+", "E+", "E-")
    assert f.resolve({"E+": 2.0, "E-": 3.0}) == pytest.approx(8.5)


def test_star_filtrations_add_on_random_terms():
    rng = np.random.default_rng(7)
    symbols = ["E+", "E-", "e+", "e-", "E_A"]
    for _ in range(1000):
        c1, c2 = rng.uniform(0, 5, 2)
        s1 = tuple(sorted(rng.choice(symbols, rng.integers(0, 3))))
        s2 = tuple(sorted(rng.choice(symbols, rng.integers(0, 3))))
        a = FilteredClass(LoopCycle(f"g{rng.integers(100)}"), FiltExpr(float(c1), s1))
        b = FilteredClass(LoopCycle(f"h{rng.integers(100)}"), FiltExpr(float(c2), s2))
        out = star(a, b)
        assert out.filtration.const == pytest.approx(c1 + c2)
        assert out.filtration.symbols == tuple(sorted(s1 + s2))
        # rotation preserves the threshold
        assert delta(a).filtration == a.filtration


def test_star_is_commutative_after_canonicalization():
    a = FilteredClass(LoopCycle("g"), fnum(1.0))
    b = FilteredClass(LoopCycle("h"), fnum(2.0))
    assert star(a, b).term == star(b, a).term
    assert star(a, b).filtration == star(b, a).filtration


def test_opposite_orientation_product_gives_constant_loops():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("id", +1), fsym("E+"))
    b = FilteredClass(ActionClass("id", -1), fsym("E-"))
    out = star(a, b, ctx)
    assert out.term == ConstantLoops("id")
    assert out.filtration == fsym("E+") + fsym("E-")


def test_action_against_constant_loops_keeps_action_form():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("id", +1), fnum(1.5))
    out = star(a, iota("beta", "pt"), ctx)
    assert out.term == ActionClass("pt", +1)
    assert out.filtration == fnum(1.5)


def test_rotation_of_action_class_sweeps_label():
    ctx = RuleContext(sweep_table={"g": "zg"})
    c = FilteredClass(ActionClass("g", -1), fnum(2.0), param_dim=0)
    out = delta(c, ctx)
    assert out.term == ActionClass("zg", -1)
    assert out.filtration == fnum(2.0)
    assert out.param_dim == 1


def test_rotation_resolves_registered_bv_preimages():
    ctx = RuleContext(axioms=frozenset({"ACTION_IS_BV"}))
    c = FilteredClass(BVPreimage(ActionClass("id", +1), "ACTION_IS_BV"), fsym("E+"))
    out = delta(c, ctx)
    assert out.term == ActionClass("id", +1)
    # without the axiom it stays wrapped
    out2 = delta(c, RuleContext())
    assert isinstance(out2.term, Delta)


def test_iota_is_threshold_free():
    c = iota("beta")
    assert c.filtration.is_zero


def test_undeclared_intersection_is_rejected():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("g1", +1), fnum(1.0))
    b = FilteredClass(ActionClass("g2", -1), fnum(1.0))
    with pytest.raises(IncompatibleBindingError):
        star(a, b, ctx)


def _five_derivations():
    out = []
    s1 = ellipsoid_scenario(2, 0.5)
    out.append((s1, s1.target("[pt]")))
    s2 = ellipsoid2_scenario(3, 0.4)
    out.append((s2, s2.target("[pt]")))
    s3 = camel_scenario(2, 0.4, 0.01)
    out.append((s3, s3.target("[T^k]")))
    s4 = klein_bottle_scenario(1.0, 1.0)
    out.append((s4, s4.target("[Sigma]")))
    s5 = open_book_scenario("circle", 1.0, 1.0, 1.0)
    out.append((s5, s5.target("[V]")))
    return out


def test_all_catalog_derivations_replay():
    for scenario, target in _five_derivations():
        cert = derive_certificate(scenario, target)
        report = check_certificate(cert)
        assert report.passed, (scenario.id, target.name, report)


def test_single_orientation_derivation_needs_page_boundary():
    s = ellipsoid_scenario(2, 0.5)
    cert = derive_certificate(s, s.target("[S^n]"), sign=-1)
    assert check_certificate(cert).passed
    closed = open_book_scenario("circle", 1.0, 1.0, 1.0)
    with pytest.raises(IncompatibleBindingError):
        derive_certificate(closed, s.target("[S^n]"))


def test_missing_axiom_is_named():
    s = ellipsoid2_scenario(3, 0.4)
    stripped = dataclasses.replace(
        s, rule_context=dataclasses.replace(s.rule_context, axioms=frozenset({"OB_BV2"}))
    )
    with pytest.raises(MissingAxiomError) as exc:
        derive_certificate(stripped, s.target("[pt]"))
    assert exc.value.rule_id == "HOPF_CONTRACT"


def test_tampered_filtration_fails_at_the_tampered_step():
    s = camel_scenario(2, 0.4, 0.01)
    cert = derive_certificate(s, s.target("[T^k]"))
    steps = list(cert.steps)
    bad_out = dataclasses.replace(steps[-2].output, filtration=fnum(0.0))
    steps[-2] = dataclasses.replace(steps[-2], output=bad_out)
    tampered = dataclasses.replace(cert, steps=tuple(steps))
    report = check_certificate(tampered)
    assert not report.passed
    assert not report.steps[-2].ok


def test_dropping_a_rotation_factor_fails_the_shape_check():
    s = klein_bottle_scenario(1.0, 1.0)
    cert = derive_certificate(s, s.target("[Sigma]"))
    no_delta = dataclasses.replace(cert, factors=(ConclusionFactor("iota", "x"),))
    assert not check_certificate(no_delta).passed
    one_factor = dataclasses.replace(cert, factors=cert.factors[:1])
    assert not check_certificate(one_factor).passed


def test_mismatched_pairing_fails():
    s = camel_scenario(2, 0.4, 0.01)
    cert = derive_certificate(s, s.target("[T^k]"))
    bad = dataclasses.replace(cert, target_pairing="something_else")
    report = check_certificate(bad)
    assert not report.passed
    assert "pairing" in report.conclusion_message


def test_rule_table_is_complete_and_quotable():
    assert set(RULES) == {
        "CS1",
        "CS2",
        "CS3",
        "ACTION_IS_BV",
        "OB_BV2",
        "HOPF_CONTRACT",
        "STAR_COMM",
        "IOTA_CONST",
    }
    for rule in RULES.values():
        assert rule.statement


def test_certificate_json_export_embeds_rule_statements():
    s = ellipsoid_scenario(2, 0.5)
    cert = derive_certificate(s, s.target("[pt]"))
    payload = json.loads(cert.to_json())
    assert payload["target"] == "[pt]"
    assert payload["filtration"] == "E+ + E-"
    for step in payload["steps"]:
        assert step["statement"] == RULES[step["rule"]].statement
    assert payload["conclusion"]["lhs"] == "iota[PD(T*M)]"
