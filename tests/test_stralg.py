"""Filtered term calculus: operations, rules, certificates and mutations."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcap.catalog import (
    SCENARIOS,
    TargetClass,
    build_scenario,
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
    CertificateStep,
    ConclusionFactor,
    ConstantLoops,
    FiltExpr,
    FilteredClass,
    Iota,
    LoopCycle,
    RULES,
    RuleContext,
    Star,
    _conclusion,
    apply_rule,
    check_certificate,
    closed_page_recipe,
    delta,
    derive_certificate,
    filt_leq,
    fnum,
    fsym,
    iota,
    star,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# dyadic constants add exactly, so float rounding cannot break associativity
_FILTS = st.builds(
    FiltExpr,
    st.integers(0, 16).map(lambda k: k / 4),
    st.lists(st.sampled_from(["E+", "E-", "e+", "l_q"]), max_size=3).map(lambda s: tuple(sorted(s))),
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


@PROPERTY
@given(a=_FILTS, b=_FILTS, c=_FILTS)
def test_filtration_sum_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@PROPERTY
@given(a=_FILTS, b=_FILTS, c=_FILTS)
def test_filt_leq_is_reflexive_and_transitive(a, b, c):
    assert filt_leq(a, a)
    assert filt_leq(a, a + b) and filt_leq(a + b, a + b + c) and filt_leq(a, a + b + c)
    if filt_leq(a, b) and filt_leq(b, c):
        assert filt_leq(a, c)


@PROPERTY
@given(
    labels=st.lists(st.text("gqx", min_size=1, max_size=3), min_size=2, max_size=2),
    filts=st.lists(_FILTS, min_size=2, max_size=2),
)
def test_star_of_generic_loop_classes_ignores_argument_order(labels, filts):
    a, b = (FilteredClass(LoopCycle(lab), f) for lab, f in zip(labels, filts))
    assert star(a, b) == star(b, a)
    assert isinstance(star(a, b).term, Star)


def test_opposite_orientation_product_gives_constant_loops():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("id", +1), fsym("E+"))
    b = FilteredClass(ActionClass("id", -1), fsym("E-"))
    out = apply_rule("CS1", (a, b), ctx)
    assert out.term == ConstantLoops("id")
    assert out.filtration == fsym("E+") + fsym("E-")


def test_action_against_constant_loops_keeps_action_form():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("id", +1), fnum(1.5))
    out = apply_rule("CS2", (a, iota("beta", "pt")), ctx)
    assert out.term == ActionClass("pt", +1)
    assert out.filtration == fnum(1.5)


def test_rotation_of_action_class_sweeps_label():
    ctx = RuleContext(sweep_table={"g": "zg"})
    c = FilteredClass(ActionClass("g", -1), fnum(2.0))
    out = apply_rule("CS3", (c,), ctx)
    assert out.term == ActionClass("zg", -1)
    assert out.filtration == fnum(2.0)


def test_rotation_resolves_registered_bv_preimages():
    ctx = RuleContext(axioms=frozenset({"ACTION_IS_BV"}))
    c = FilteredClass(BVPreimage(ActionClass("id", +1), "ACTION_IS_BV"), fsym("E+"))
    out = apply_rule("ACTION_IS_BV", (c,), ctx)
    assert out.term == ActionClass("id", +1)
    # without the axiom the rotation does not resolve
    with pytest.raises(MissingAxiomError):
        apply_rule("ACTION_IS_BV", (c,), RuleContext())


def test_rotation_of_an_undeclared_cycle_is_refused():
    # CS3 swept it to A[zeta(nowhere),+], a class that no scenario declares
    c = FilteredClass(ActionClass("nowhere", +1), fsym("E"))
    with pytest.raises(IncompatibleBindingError, match="no declared sweep for cycle 'nowhere'"):
        apply_rule("CS3", (c,), RuleContext(sweep_table={"g": "zg"}))


def test_unknown_rules_and_undeclared_labels_are_refused():
    with pytest.raises(IncompatibleBindingError, match="unknown rule 'NOPE'"):
        apply_rule("NOPE", (), RuleContext())
    with pytest.raises(IncompatibleBindingError, match="no dual cohomology label declared for cycle 'pt'"):
        RuleContext().iota_label("pt")


def test_an_intersection_is_declared_for_either_order():
    ctx = RuleContext(intersection_table={("q", "qbar"): "pt"})
    assert ctx.intersect("q", "qbar") == ctx.intersect("qbar", "q") == "pt"


def test_the_closed_page_recipe_refuses_a_page_with_boundary():
    s = ellipsoid_scenario(2, 0.5)
    with pytest.raises(IncompatibleBindingError, match="the page bound needs a closed page"):
        derive_certificate(s, TargetClass("[V]", "PD_dual(V)", closed_page_recipe))


def test_a_rule_that_inflates_the_threshold_fails_its_step(monkeypatch):
    cs3 = RULES["CS3"]

    def inflating(inputs, ctx):
        out = cs3.apply(inputs, ctx)
        return FilteredClass(out.term, out.filtration + fnum(1.0))

    monkeypatch.setitem(RULES, "CS3", dataclasses.replace(cs3, apply=inflating))
    s = camel_scenario(2, 0.4, 0.01)
    report = check_certificate(derive_certificate(s, s.target("[T^k]")))
    assert [step.rule for step in report.steps] == ["CS3", "CS3", "CS1", "IOTA_CONST"]
    assert [step.message for step in report.steps[:2]] == ["rule inflated the filtration threshold"] * 2


# a certificate of one step that turns its leaf into iota(beta), its factors
# the derivation's leaves: no rotation factor, and one at threshold 0
@pytest.mark.parametrize(
    "leaf,beta,fault",
    [
        (iota("T*M_pt"), "PD(T*M)", "conclusion factors are not of the required shape"),
        (FilteredClass(ActionClass("pt", +1), fnum(0.0)), "T*M_pt", "a rotation factor carries a zero threshold"),
    ],
)
def test_a_conclusion_without_a_positive_rotation_factor_is_refused(leaf, beta, fault):
    s = ellipsoid_scenario(2, 0.5)
    target = dataclasses.replace(s.target("[pt]"), declared_nonzero_pairing=beta)
    steps = (CertificateStep("IOTA_CONST", (leaf,), iota(beta)),)
    cert = Certificate(s, target, steps, _conclusion(steps))
    assert check_certificate(cert).conclusion_message == fault


def test_iota_is_threshold_free():
    c = iota("beta")
    assert c.filtration.is_zero


def test_undeclared_intersection_is_rejected():
    ctx = RuleContext()
    a = FilteredClass(ActionClass("g1", +1), fnum(1.0))
    b = FilteredClass(ActionClass("g2", -1), fnum(1.0))
    with pytest.raises(IncompatibleBindingError):
        apply_rule("CS1", (a, b), ctx)


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


def test_a_lowered_conclusion_cannot_be_written_down():
    # dropping the E- factor and lowering the filtration to E+ together would
    # certify half the proven bound; the filtration is read off the steps
    s = ellipsoid_scenario(2, 0.5)
    cert = derive_certificate(s, s.target("[pt]"))
    with pytest.raises(TypeError):
        dataclasses.replace(cert, filtration=fsym("E+"))
    assert str(dataclasses.replace(cert, factors=cert.factors[:1]).filtration) == "E+ + E-"


def test_mismatched_pairing_fails():
    s = camel_scenario(2, 0.4, 0.01)
    cert = derive_certificate(s, s.target("[T^k]"))
    bad = dataclasses.replace(cert, target=dataclasses.replace(cert.target, declared_nonzero_pairing="something_else"))
    report = check_certificate(bad)
    assert not report.passed
    assert "iota(beta)" in report.conclusion_message


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


def _catalog_certificates() -> dict:
    """Every catalog certificate: the default configuration of each scenario
    name and the circle page, each target, each orientation its recipe
    derives."""
    configs = [{"scenario": name} for name in SCENARIOS] + [{"scenario": "open_book", "page": "circle"}]
    certs = {}
    for config in configs:
        s = build_scenario(config)
        for target in s.targets:
            for sign in (+1, -1):
                try:
                    certs[f"{s.id} {target.name} {sign:+d}"] = derive_certificate(s, target, sign)
                except IncompatibleBindingError:
                    pass
    return certs


# sha256 of each catalog certificate's JSON; the JSON is symbolic (no floats),
# so the digests are the same on every platform
CERTIFICATE_DIGESTS = {
    "camel(n=2,eps=1.0,delta=0.1) [T^k] -1": "3cba50ae5ca33256eef174057d541ac81275261030ffb875695ffe4b80ca4ad4",
    "camel(n=2,eps=1.0,delta=0.1) [T^k] +1": "3cba50ae5ca33256eef174057d541ac81275261030ffb875695ffe4b80ca4ad4",
    "ellipsoid1(n=2,a=1.0) [S^n] -1": "f5b0ad9822b8cc4154509221968471a932685b5943370dfc60957b0c67552374",
    "ellipsoid1(n=2,a=1.0) [S^n] +1": "df695f1e199546e69ac0b03ca41f84ebcb34db698c06f58a7fea9b83d3b966dc",
    "ellipsoid1(n=2,a=1.0) [pt] -1": "d2eb964acb4bbc75d77086c85198bac136b04f82057da371b381623f1d42fd32",
    "ellipsoid1(n=2,a=1.0) [pt] +1": "d2eb964acb4bbc75d77086c85198bac136b04f82057da371b381623f1d42fd32",
    "ellipsoid2(n=3,a=1.0) [S^n] -1": "f0ee4a39ce13697ce3f28873d381f76dad05150b5467a5967be3fb84f0d272c3",
    "ellipsoid2(n=3,a=1.0) [S^n] +1": "f0ee4a39ce13697ce3f28873d381f76dad05150b5467a5967be3fb84f0d272c3",
    "ellipsoid2(n=3,a=1.0) [pt] -1": "4dca5f721db4bcefc01989677281fec6935313a9b38163badfdbfe2c55d994eb",
    "ellipsoid2(n=3,a=1.0) [pt] +1": "4dca5f721db4bcefc01989677281fec6935313a9b38163badfdbfe2c55d994eb",
    "klein(a=1.0,b=1.0,r=1.0) [Sigma] -1": "d946b879516f1911ebaee51cd21669f1d99bbe45cf1d204361be538124c0e7dc",
    "klein(a=1.0,b=1.0,r=1.0) [Sigma] +1": "d946b879516f1911ebaee51cd21669f1d99bbe45cf1d204361be538124c0e7dc",
    "open_book(circle,trivial,r=1.0,lp=1.0,lf=1.0) [V] -1": "bb142ecceae6216e8a7a688667b6164ee3b20920982eb899613dbddf9fa56f18",
    "open_book(circle,trivial,r=1.0,lp=1.0,lf=1.0) [V] +1": "1ead4c85ed189bde51a61eb238c2f522ae03d7d1d5002f1d22ff6cfa38c00b02",
    "open_book(circle,trivial,r=1.0,lp=1.0,lf=1.0) [pt] -1": "fa6ded5c14436b7605afbb22bc3598a06bad21ff6aa92697c110f364e382696d",
    "open_book(circle,trivial,r=1.0,lp=1.0,lf=1.0) [pt] +1": "fa6ded5c14436b7605afbb22bc3598a06bad21ff6aa92697c110f364e382696d",
    "open_book(interval,round,r=1.0) [M] -1": "bb012fcb86acd1987741322243d88c08c7b3dffa7b5a4e40422dd50b2677d220",
    "open_book(interval,round,r=1.0) [M] +1": "84aad7a631d7ff39ea9bcf4905dca4b7656bca096751a0b3925e4736b9d17e61",
    "open_book(interval,round,r=1.0) [pt] -1": "6e5a79cedc51b2d4a2da89f2fff079c1c7cc9d6d239ad4c0f5af155ac8494df7",
    "open_book(interval,round,r=1.0) [pt] +1": "6e5a79cedc51b2d4a2da89f2fff079c1c7cc9d6d239ad4c0f5af155ac8494df7",
    "product_torus(d=2,k=1,radius=1.0) [T^k] -1": "75e6bfb1f64db8e802ea982ba87c981ce8d1ec34e958f1522692003cb9a1f800",
    "product_torus(d=2,k=1,radius=1.0) [T^k] +1": "75e6bfb1f64db8e802ea982ba87c981ce8d1ec34e958f1522692003cb9a1f800",
}


def test_catalog_certificates_are_unchanged():
    digests = {key: hashlib.sha256(cert.to_json().encode()).hexdigest() for key, cert in _catalog_certificates().items()}
    assert digests == CERTIFICATE_DIGESTS


def _single_field_mutations(cert: Certificate):
    """Every single-field change of a certificate's beta, conclusion factors
    and steps that alters it."""
    def with_factors(factors):
        return dataclasses.replace(cert, factors=tuple(factors))

    def with_steps(steps):
        return dataclasses.replace(cert, steps=tuple(steps))

    beta = cert.target.declared_nonzero_pairing + "'"
    yield "beta changed", dataclasses.replace(cert, target=dataclasses.replace(cert.target, declared_nonzero_pairing=beta))
    factors, steps = list(cert.factors), list(cert.steps)
    for i, f in enumerate(factors):
        yield f"factor {i} dropped", with_factors(factors[:i] + factors[i + 1:])
        if f.kind == "delta":
            swapped = ConclusionFactor("delta", FilteredClass(LoopCycle("x"), f.alpha.filtration))
            yield f"factor {i} swapped", with_factors(factors[:i] + [swapped] + factors[i + 1:])
    for i, step in enumerate(steps):
        yield f"step {i} dropped", with_steps(steps[:i] + steps[i + 1:])
        for rule_id in (r for r in RULES if r != step.rule):
            relabeled = dataclasses.replace(step, rule=rule_id)
            yield f"step {i} relabeled {rule_id}", with_steps(steps[:i] + [relabeled] + steps[i + 1:])
        if not step.output.filtration.is_zero:
            zeroed = dataclasses.replace(step, output=dataclasses.replace(step.output, filtration=fnum(0.0)))
            yield f"step {i} output threshold zeroed", with_steps(steps[:i] + [zeroed] + steps[i + 1:])


def test_every_single_field_mutation_of_a_catalog_certificate_is_rejected():
    certs = _catalog_certificates()
    assert len(certs) == 22
    passed, count = [], 0
    for key, cert in certs.items():
        assert check_certificate(cert).passed, key
        for what, mutant in _single_field_mutations(cert):
            count += 1
            if check_certificate(mutant).passed:
                passed.append(f"{key}: {what}")
    assert count == 760
    assert passed == []


def _leaves(cert: Certificate) -> list:
    """The derivation's leaves, in order of use."""
    produced, leaves = set(), []
    for step in cert.steps:
        leaves += [c for c in step.inputs if c not in produced and c not in leaves]
        produced.add(step.output)
    return leaves


def _with_leaf(cert: Certificate, leaf: FilteredClass, new: FilteredClass) -> Certificate:
    """``cert`` with ``leaf`` replaced by ``new`` wherever a step takes it,
    the chain replayed forward with ``apply_rule`` and the factors read off
    again, so every step is consistent with the rules."""
    ctx = cert.scenario.rule_context
    subst, steps = {leaf: new}, []
    for step in cert.steps:
        inputs = tuple(subst.get(c, c) for c in step.inputs)
        subst[step.output] = output = apply_rule(step.rule, inputs, ctx)
        steps.append(dataclasses.replace(step, inputs=inputs, output=output))
    return dataclasses.replace(cert, steps=tuple(steps), factors=_conclusion(steps))


def _leaf_mutations(cert: Certificate, symbols: list):
    """Each iota leaf under a label its scenario does not declare; each
    other leaf at the constant 1e-3, and at every other of ``symbols``."""
    for leaf in _leaves(cert):
        if isinstance(leaf.term, Iota):
            renamed = dataclasses.replace(leaf.term, label="no-such-label")
            yield f"{leaf} renamed", _with_leaf(cert, leaf, FilteredClass(renamed, leaf.filtration))
            continue
        yield f"{leaf} lowered", _with_leaf(cert, leaf, FilteredClass(leaf.term, fnum(1e-3)))
        for s in symbols:
            if fsym(s) != leaf.filtration:
                yield f"{leaf} swapped for {s}", _with_leaf(cert, leaf, FilteredClass(leaf.term, fsym(s)))


def test_every_leaf_mutation_of_a_catalog_certificate_is_rejected():
    # every mutant replays step by step; only the generator table tells it
    # from the certificate it came from; a leaf is swapped for every
    # threshold symbol of the catalog, its scenario's or another's
    passed, count = [], 0
    certs = _catalog_certificates()
    symbols = list(dict.fromkeys(sel.symbol for c in certs.values() for sel in c.scenario.generators.values()))
    for key, cert in certs.items():
        for what, mutant in _leaf_mutations(cert, symbols):
            count += 1
            report = check_certificate(mutant)
            if report.passed or "declared generator" not in " ".join(s.message for s in report.steps):
                passed.append(f"{key}: {what}")
    assert count == 292
    assert passed == []


def test_a_certificate_replayed_without_an_axiom_it_uses_is_rejected():
    checked = 0
    for key, cert in _catalog_certificates().items():
        ctx = cert.scenario.rule_context
        for axiom in ctx.axioms & {step.rule for step in cert.steps}:
            stripped = dataclasses.replace(cert.scenario, rule_context=dataclasses.replace(ctx, axioms=ctx.axioms - {axiom}))
            report = check_certificate(dataclasses.replace(cert, scenario=stripped))
            assert not report.passed, (key, axiom)
            assert any(axiom in s.message for s in report.steps), (key, axiom)
            checked += 1
    assert checked == 20  # one per open-book certificate, two per ellipsoid2 one


def test_an_iota_leaf_above_threshold_zero_is_rejected():
    s = ellipsoid_scenario(2, 0.5)
    cert = derive_certificate(s, s.target("[S^n]"))
    leaf = cert.steps[1].inputs[1]
    assert isinstance(leaf.term, Iota)
    report = check_certificate(_with_leaf(cert, leaf, FilteredClass(leaf.term, fnum(1.0))))
    assert not report.passed
    assert "declared generator" in report.steps[1].message
