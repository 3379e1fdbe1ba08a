"""Symbolic filtered loop-class calculus.

Classes carry a length-filtration threshold (numeric and/or symbolic).  Three
operations act on them: the concatenation-intersection product ``star``, the
loop-rotation operator ``delta`` and the constant-loop inclusion ``iota``.
The operations rewrite nothing.  Identities between them are rewrite rules,
each coded only in its ``RULES`` entry, so replaying a step runs exactly the
rule its label names.  A chain of rule applications that ends in a
constant-loop identity is packaged as a machine-checkable certificate whose
total filtration bounds the width of the target class.  The chain starts
from leaves: generators the scenario declares, each at the threshold symbol
its table gives, and iota classes at threshold 0.  The conclusion is read off
the chain, and the checker replays the chain against the scenario, checks
every leaf against its generator table and reads the conclusion again from
the replayed steps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import IncompatibleBindingError, MissingAxiomError


# ---------------------------------------------------------------------------
# Filtration expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FiltExpr:
    """A filtration threshold: numeric constant plus a multiset of symbols."""

    const: float = 0.0
    symbols: tuple[str, ...] = ()

    def __add__(self, other: "FiltExpr") -> "FiltExpr":
        return FiltExpr(self.const + other.const, tuple(sorted(self.symbols + other.symbols)))

    def resolve(self, bindings: dict[str, float]) -> float:
        return self.const + sum(bindings[s] for s in self.symbols)

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0 and not self.symbols

    def __str__(self) -> str:
        parts = [f"{self.const:g}"] if self.const else []
        parts.extend(self.symbols)
        return " + ".join(parts) if parts else "0"


def fsym(name: str) -> FiltExpr:
    return FiltExpr(0.0, (name,))


def fnum(x: float) -> FiltExpr:
    return FiltExpr(float(x), ())


def filt_leq(a: FiltExpr, b: FiltExpr) -> bool:
    """Symbolic a <= b: a's symbols form a sub-multiset of b's and the
    constants compare."""
    remaining = list(b.symbols)
    for s in a.symbols:
        if s in remaining:
            remaining.remove(s)
        else:
            return False
    return a.const <= b.const + 1e-15


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for structured loop-class expressions."""


@dataclass(frozen=True, slots=True)
class ActionClass(Term):
    """Loop family swept by the circle action applied to a cycle label."""

    g: str
    sign: int  # +1 or -1

    def __str__(self) -> str:
        return f"A[{self.g},{'+' if self.sign > 0 else '-'}]"


@dataclass(frozen=True, slots=True)
class ConstantLoops(Term):
    cycle: str

    def __str__(self) -> str:
        return f"const[{self.cycle}]"


@dataclass(frozen=True, slots=True)
class LoopCycle(Term):
    """A plain loop family that is not an action orbit family."""

    label: str

    def __str__(self) -> str:
        return f"loop[{self.label}]"


@dataclass(frozen=True, slots=True)
class BVPreimage(Term):
    """A class B with Delta(B) equal to ``of``; justified by ``axiom``."""

    of: Term
    axiom: str  # ACTION_IS_BV or OB_BV2

    def __str__(self) -> str:
        return f"B[{self.of}]"


@dataclass(frozen=True, slots=True)
class Iota(Term):
    label: str
    cycle: str = "pt"

    def __str__(self) -> str:
        return f"iota[{self.label}]"


@dataclass(frozen=True, slots=True)
class Delta(Term):
    of: Term

    def __str__(self) -> str:
        return f"Delta({self.of})"


@dataclass(frozen=True, slots=True)
class Star(Term):
    factors: tuple[Term, ...]

    def __str__(self) -> str:
        return " * ".join(str(f) for f in self.factors)


@dataclass(frozen=True, slots=True)
class FilteredClass:
    """A term together with its filtration threshold."""

    term: Term
    filtration: FiltExpr

    def __str__(self) -> str:
        return f"{self.term} @ {self.filtration}"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def iota(beta_label: str, cycle: str = "pt") -> FilteredClass:
    """Constant-loop class of a cohomology label; valid at every positive
    filtration, recorded as threshold 0."""
    return FilteredClass(Iota(beta_label, cycle), fnum(0.0))


def delta(c: FilteredClass) -> FilteredClass:
    """Loop-rotation operator; the filtration is preserved.  It rewrites
    nothing: CS3 and the BV axioms evaluate rotations."""
    return FilteredClass(Delta(c.term), c.filtration)


def _flatten(t: Term) -> tuple[Term, ...]:
    return t.factors if isinstance(t, Star) else (t,)


def star(a: FilteredClass, b: FilteredClass) -> FilteredClass:
    """Concatenation-intersection product; filtrations add and the factors
    canonicalize to a sorted multiset (the product is commutative and
    associative).  It rewrites nothing: CS1 and CS2 evaluate products."""
    factors = tuple(sorted(_flatten(a.term) + _flatten(b.term), key=str))
    return FilteredClass(Star(factors), a.filtration + b.filtration)


# ---------------------------------------------------------------------------
# Rewrite rules (shared between derivation and replay)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RuleContext:
    """Scenario-supplied data the rules consult."""

    axioms: frozenset[str] = frozenset()
    intersection_table: dict = field(default_factory=dict)
    sweep_table: dict = field(default_factory=dict)
    iota_table: dict = field(default_factory=dict)
    boundary_nonempty: bool = False

    def intersect(self, g1: str, g2: str) -> str:
        if g1 == "id":
            return g2
        if g2 == "id":
            return g1
        if (g1, g2) in self.intersection_table:
            return self.intersection_table[(g1, g2)]
        if (g2, g1) in self.intersection_table:
            return self.intersection_table[(g2, g1)]
        raise IncompatibleBindingError(f"no declared intersection for ({g1!r}, {g2!r})")

    def sweep(self, g: str) -> str:
        if g in self.sweep_table:
            return self.sweep_table[g]
        raise IncompatibleBindingError(f"no declared sweep for cycle {g!r}")

    def iota_label(self, cycle: str) -> str:
        if cycle in self.iota_table:
            return self.iota_table[cycle]
        raise IncompatibleBindingError(f"no dual cohomology label declared for cycle {cycle!r}")


Inputs = tuple[FilteredClass, ...]


@dataclass(frozen=True, slots=True)
class RewriteRule:
    """A rule: the identity it states and ``apply``, its code, which maps a
    step's inputs in a scenario's rule context to the step's output, or
    raises where the rule does not apply to them."""

    id: str
    statement: str
    apply: Callable[[Inputs, RuleContext], FilteredClass]


RULES: dict[str, RewriteRule] = {}


def _rule(rule_id: str, statement: str):
    """Enter the decorated function in ``RULES`` as the code of ``rule_id``."""

    def enter(apply):
        RULES[rule_id] = RewriteRule(rule_id, statement, apply)
        return apply

    return enter


# the comment above a rule states its side condition, where it has one

# g1, g2 transverse; for rotated plain loops the intersection is read off the
# scenario's intersection table
@_rule("CS1", "A[g1,+] * A[g2,-] = const[g1 cap g2], valid at the sum of the two sweep thresholds")
def _cs1(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    a, b = inputs
    filt = a.filtration + b.filtration
    for x, y in ((a.term, b.term), (b.term, a.term)):
        if isinstance(x, ActionClass) and isinstance(y, ActionClass) and x.sign > 0 > y.sign:
            return FilteredClass(ConstantLoops(ctx.intersect(x.g, y.g)), filt)
    loops = [t.of.label for t in (a.term, b.term) if isinstance(t, Delta) and isinstance(t.of, LoopCycle)]
    if len(loops) == 2:
        return FilteredClass(ConstantLoops(ctx.intersect(*loops)), filt)
    raise IncompatibleBindingError("CS1 expects opposite action classes or two rotated loops")


# g1, g2 transverse; an iota class stands for the constant loops of its cycle
@_rule("CS2", "A[g1,s] * const[g2] = A[g1 cap g2, s], valid at the sweep threshold of g1")
def _cs2(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    a, b = inputs
    for x, y in ((a.term, b.term), (b.term, a.term)):
        if isinstance(x, ActionClass) and isinstance(y, (ConstantLoops, Iota)):
            filt = a.filtration + b.filtration
            return FilteredClass(ActionClass(ctx.intersect(x.g, y.cycle), x.sign), filt)
    raise IncompatibleBindingError("CS2 expects an action class and constant loops")


@_rule("CS3", "Delta(A[g,s]) = A[swept(g), s], same threshold")
def _cs3(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    (c,) = inputs
    if not isinstance(c.term, ActionClass):
        raise IncompatibleBindingError("CS3 expects an action class")
    return FilteredClass(ActionClass(ctx.sweep(c.term.g), c.term.sign), c.filtration)


def _bv_axiom(rule_id: str, statement: str) -> None:
    """Enter an axiom that resolves the rotation of a BV preimage it
    justifies to the class it is the preimage of, at the same threshold."""

    @_rule(rule_id, statement)
    def apply(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
        (c,) = inputs
        t = c.term
        if not (isinstance(t, BVPreimage) and t.axiom == rule_id):
            raise IncompatibleBindingError(f"{rule_id} expects a matching BV preimage")
        if rule_id not in ctx.axioms:
            raise MissingAxiomError(rule_id)
        return FilteredClass(t.of, c.filtration)


# an open-book scenario registering the axiom
_bv_axiom(
    "ACTION_IS_BV",
    "Delta(B[s]) = A[id,s] at the sweep threshold of the page rotation; B is "
    "supported on the doubled page",
)
# a diagonal-action open-book scenario registering the axiom
_bv_axiom(
    "OB_BV2",
    "Delta(D) = C, where C represents the diagonal action class of the "
    "deformed open book, at the diagonal sweep threshold",
)


# the 4-axis structure with dim >= 3; the threshold equals the diagonal orbit
# sweep value
@_rule(
    "HOPF_CONTRACT",
    "A[id,s] = const[id]: the diagonal circle action is homotopic to the "
    "trivial action through loops below the threshold",
)
def _hopf_contract(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    (c,) = inputs
    if "HOPF_CONTRACT" not in ctx.axioms:
        raise MissingAxiomError("HOPF_CONTRACT")
    if not (isinstance(c.term, ActionClass) and c.term.g == "id"):
        raise IncompatibleBindingError("HOPF_CONTRACT expects the full action class")
    return FilteredClass(ConstantLoops("id"), c.filtration)


@_rule("STAR_COMM", "a * b = b * a; star factors are kept in canonical order")
def _star_comm(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    a, b = inputs
    return star(a, b)


# a single orbit class contracts to a constant loop first when the scenario
# declares a nonempty page boundary
@_rule(
    "IOTA_CONST",
    "const[c] = iota[beta(c)]; a constant-loop class is the image of the dual "
    "cohomology label under the constant-loop inclusion",
)
def _iota_const(inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    (c,) = inputs
    t = c.term
    if isinstance(t, ConstantLoops):
        return iota(ctx.iota_label(t.cycle), t.cycle)
    if isinstance(t, ActionClass) and t.g == "pt" and ctx.boundary_nonempty:
        # a single orbit contracts to a constant loop through the binding
        return iota(ctx.iota_label("pt"), "pt")
    raise IncompatibleBindingError("IOTA_CONST expects a constant-loop class")


def apply_rule(rule_id: str, inputs: Inputs, ctx: RuleContext) -> FilteredClass:
    """The output of rule ``rule_id`` on ``inputs``: the rule's own code."""
    if rule_id not in RULES:
        raise IncompatibleBindingError(f"unknown rule {rule_id!r}")
    return RULES[rule_id].apply(inputs, ctx)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CertificateStep:
    rule: str
    inputs: tuple[FilteredClass, ...]
    output: FilteredClass
    note: str = ""


@dataclass(frozen=True, slots=True)
class ConclusionFactor:
    kind: str  # "delta" | "iota"
    alpha: Union[FilteredClass, str]


# the note every certificate's JSON carries
_CERTIFICATE_NOTE = (
    "thresholds are computed suprema; the strict/closed filtration "
    "distinction is below reported tolerance"
)


@dataclass(frozen=True, eq=False)
class Certificate:
    """A rewrite derivation of iota(beta) = Delta(a_1) * ... * iota(a_{k+1})
    in ``scenario``, beta the ``target``'s declared pairing.  ``factors`` are
    the derivation's leaves and ``filtration``, the threshold of the class the
    last step turns into iota(beta), upper-bounds the target's width."""

    scenario: object  # the catalog Scenario: rule context and generators
    target: object  # the catalog TargetClass: name and declared pairing
    steps: tuple[CertificateStep, ...]
    factors: tuple[ConclusionFactor, ...]

    @property
    def filtration(self) -> FiltExpr:
        return self.steps[-1].inputs[0].filtration

    def to_jsonable(self) -> dict:
        beta = self.target.declared_nonzero_pairing
        return {
            "scenario": self.scenario.id,
            "target": self.target.name,
            "beta": beta,
            "filtration": str(self.filtration),
            "steps": [
                {
                    "rule": s.rule,
                    "statement": RULES[s.rule].statement,
                    "inputs": [str(c) for c in s.inputs],
                    "output": str(s.output),
                    "note": s.note,
                }
                for s in self.steps
            ],
            "conclusion": {
                "lhs": f"iota[{beta}]",
                "rhs": [
                    f"Delta({f.alpha.term})" if f.kind == "delta" else f"iota[{f.alpha}]"
                    for f in self.factors
                ],
            },
            "note": _CERTIFICATE_NOTE,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


class _Derivation:
    def __init__(self, scenario):
        self.scenario = scenario
        self.ctx: RuleContext = scenario.rule_context
        self.steps: list[CertificateStep] = []

    def leaf(self, term: Term) -> FilteredClass:
        """The declared generator ``term`` at its threshold symbol."""
        sel = self.scenario.generators.get(term)
        if sel is None:
            raise IncompatibleBindingError(f"scenario {self.scenario.id} declares no generator {term}")
        return FilteredClass(term, fsym(sel.symbol))

    def apply(self, rule_id: str, *inputs: FilteredClass, note: str = "") -> FilteredClass:
        out = apply_rule(rule_id, tuple(inputs), self.ctx)
        self.steps.append(CertificateStep(rule_id, tuple(inputs), out, note))
        return out


@dataclass(frozen=True, eq=False)
class StepReport:
    """The replay of one step; its index is its position in
    ``ValidationReport.steps``, and it failed when it has a message."""

    rule: str
    message: str = ""

    @property
    def ok(self) -> bool:
        return not self.message


@dataclass(frozen=True, eq=False)
class ValidationReport:
    steps: tuple[StepReport, ...]
    conclusion_message: str = ""

    @property
    def conclusion_ok(self) -> bool:
        return not self.conclusion_message

    @property
    def passed(self) -> bool:
        return self.conclusion_ok and all(s.ok for s in self.steps)


def _is_leaf(c: FilteredClass, generators: dict, ctx: RuleContext) -> bool:
    """A declared generator, or its rotation, at exactly its threshold
    symbol, or an iota class at threshold 0 under the label ``ctx`` declares
    for its cycle."""
    if isinstance(c.term, Iota):
        return c.filtration.is_zero and ctx.iota_table.get(c.term.cycle) == c.term.label
    t = c.term.of if isinstance(c.term, Delta) else c.term
    sel = generators.get(t)
    return sel is not None and c.filtration == fsym(sel.symbol)


def check_certificate(cert: Certificate) -> ValidationReport:
    """Independent replay in the certificate's scenario: check every leaf
    against the generator table, re-execute every step against the rule
    table, re-derive filtrations from scratch, read the conclusion again off
    the steps and confirm its shape."""
    ctx, generators = cert.scenario.rule_context, cert.scenario.generators
    available: list[FilteredClass] = []
    reports: list[StepReport] = []
    for step in cert.steps:
        msg = ""
        for inp in step.inputs:
            if not (inp in available or _is_leaf(inp, generators, ctx)):
                msg = f"input {inp} is neither a declared generator nor a prior output"
        if not msg:
            try:
                out = apply_rule(step.rule, step.inputs, ctx)
            except Exception as exc:  # rule refused or axiom missing
                msg = f"replay failed: {exc}"
            else:
                if out != step.output:
                    msg = f"replayed output {out} differs from recorded {step.output}"
                elif not filt_leq(out.filtration, sum((c.filtration for c in step.inputs), fnum(0.0))):
                    msg = "rule inflated the filtration threshold"
        reports.append(StepReport(step.rule, msg))
        available.append(step.output)

    return ValidationReport(tuple(reports), _conclusion_fault(cert))


def _conclusion(steps) -> tuple[ConclusionFactor, ...]:
    """The derivation's leaves, the inputs no earlier step put out, in order
    of use: an iota leaf is an iota factor, a rotated leaf Delta(x) is the
    rotation factor x and any other leaf is a rotation factor itself."""
    produced: set[FilteredClass] = set()
    factors = []
    for step in steps:
        for c in step.inputs:
            if c in produced:
                continue
            t = c.term
            if isinstance(t, Iota):
                factors.append(ConclusionFactor("iota", t.label))
            elif isinstance(t, Delta):
                factors.append(ConclusionFactor("delta", FilteredClass(t.of, c.filtration)))
            else:
                factors.append(ConclusionFactor("delta", c))
        produced.add(step.output)
    return tuple(factors)


def _conclusion_fault(cert: Certificate) -> str:
    """What is wrong with the conclusion iota(beta) = Delta(a_1) * ... *
    Delta(a_k) * iota(a_{k+1}); empty when nothing."""
    if not cert.steps or cert.steps[-1].rule != "IOTA_CONST" or len(cert.steps[-1].inputs) != 1:
        return "derivation does not end in a constant-loop identity"
    if cert.factors != _conclusion(cert.steps):
        return "conclusion factors are not the leaves of the derivation"
    deltas = [f.alpha.filtration for f in cert.factors if f.kind == "delta"]
    if not deltas or len(cert.factors) - len(deltas) > 1:
        return "conclusion factors are not of the required shape"
    total = sum(deltas, fnum(0.0))
    if total != cert.filtration:
        return (
            f"conclusion filtration {cert.filtration} does not equal the sum "
            f"of the rotation-factor thresholds {total}"
        )
    if any(f.is_zero for f in deltas):
        return "a rotation factor carries a zero threshold"
    final = cert.steps[-1].output
    if not (isinstance(final.term, Iota) and final.term.label == cert.target.declared_nonzero_pairing):
        return "derivation does not end in iota(beta)"
    return ""


# Derivation recipes.  A target class carries one of these: it runs the rule
# chain that ends in the constant-loop identity for that target, starting
# from the scenario's generators (``d.leaf``).  ``sign`` picks the rotation
# orientation where the chain has one; the others ignore it.

def _page_rotation(sign: int) -> BVPreimage:
    return BVPreimage(ActionClass("id", sign), "ACTION_IS_BV")


def open_book_point_recipe(d: _Derivation, sign: int):
    """[pt] of an open book: the two page rotations meet in the constant
    loops (CS1)."""
    note = "rotation of the doubled page, {} orientation"
    a_plus = d.apply("ACTION_IS_BV", d.leaf(_page_rotation(+1)), note=note.format("positive"))
    a_minus = d.apply("ACTION_IS_BV", d.leaf(_page_rotation(-1)), note=note.format("negative"))
    const = d.apply("CS1", a_plus, a_minus)
    d.apply("IOTA_CONST", const)


def open_book_fundamental_recipe(d: _Derivation, sign: int):
    """Fundamental class of an open book whose page has boundary: one page
    rotation cut down to a fiber contracts through the binding."""
    if not d.ctx.boundary_nonempty:
        raise IncompatibleBindingError(
            "the single-orientation bound needs a page with boundary"
        )
    a_s = d.apply("ACTION_IS_BV", d.leaf(_page_rotation(sign)))
    a_pt = d.apply("CS2", a_s, iota(d.ctx.iota_label("pt"), "pt"), note="cut down to a single fiber")
    d.apply("IOTA_CONST", a_pt, note="the single orbit contracts through the binding")


def closed_page_recipe(d: _Derivation, sign: int):
    """Page class of an open book with closed page: the shortest orbit,
    rotated, meets the opposite page rotation in the constant loops."""
    if d.ctx.boundary_nonempty:
        raise IncompatibleBindingError("the page bound needs a closed page")
    orbit = d.apply("CS3", d.leaf(ActionClass("pt", sign)), note="rotating the shortest single orbit")
    a_o = d.apply("ACTION_IS_BV", d.leaf(_page_rotation(-sign)))
    const = d.apply("CS1", orbit, a_o)
    d.apply("IOTA_CONST", const)


def product_torus_recipe(d: _Derivation, sign: int):
    """Coordinate subtorus of V x T^d: the full negative rotation meets the
    constrained positive one in the constant loops."""
    sw_minus = d.apply("CS3", d.leaf(ActionClass("slice-", -1)), note="rotating the full negative family")
    sw_plus = d.apply("CS3", d.leaf(ActionClass("slice+k", +1)), note="rotating the constrained positive family")
    const = d.apply("CS1", sw_plus, sw_minus)
    d.apply("IOTA_CONST", const)


def non_orientable_recipe(d: _Derivation, sign: int):
    """Fundamental class of a non-orientable surface: an
    orientation-reversing loop and its reverse meet in a point."""
    const = d.apply(
        "CS1",
        delta(d.leaf(LoopCycle("q"))),
        delta(d.leaf(LoopCycle("qbar"))),
        note="an orientation-reversing loop meets its reverse in a point",
    )
    d.apply("IOTA_CONST", const)


def diagonal_action_recipe(d: _Derivation, sign: int):
    """Diagonal circle action on four stretched axes: its rotation contracts
    to the constant loops below the orbit length."""
    b_diag = d.leaf(BVPreimage(ActionClass("id", +1), "OB_BV2"))
    a_diag = d.apply("OB_BV2", b_diag, note="rotation of the deformed diagonal family")
    const = d.apply(
        "HOPF_CONTRACT", a_diag, note="diagonal action contracts below the orbit length"
    )
    d.apply("IOTA_CONST", const)


def derive_certificate(scenario, target, sign: int = +1) -> Certificate:
    """Run the target's recipe (its rewrite chain) in the scenario and
    package the result as a certificate.  ``scenario`` supplies the rule
    context (axioms, intersection/sweep/dual-label tables) and the generators
    the chain starts from; ``sign`` selects the rotation orientation of
    recipes that have one."""
    d = _Derivation(scenario)
    target.recipe(d, sign)
    return Certificate(
        scenario=scenario,
        target=target,
        steps=tuple(d.steps),
        factors=_conclusion(d.steps),
    )
