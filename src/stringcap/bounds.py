"""Turn scenarios into numeric width bounds with attached certificates.

The symbolic filtration of each certificate is resolved against the extremal
lengths of the loop families the scenario's generators select; the resolved
number is the reported upper bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .catalog import Scenario, TargetClass, camel_scenario
from .errors import DerivationError, ScenarioParameterError
from .loops import ExtremalLengthReport, QuadratureSpec, RefineSpec, extremal_lengths
from .stralg import Certificate, check_certificate, derive_certificate

# the most points a family's parameter grid may have: the grid is built as one
# row per point, and each row gets a length
MAX_GRID_POINTS = 2**16


@dataclass(frozen=True, eq=False)
class CapacityBound:
    """A certified numeric upper bound on the width of ``target``; its
    scenario is the certificate's, and whether the width is known to equal
    the bound is the target's."""

    target: TargetClass
    upper_bound: float
    certificate: Certificate
    numeric_bindings: dict
    tolerance: float
    family_reports: dict = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return self.certificate.scenario.id

    @property
    def gr_symbol(self) -> str:
        return f"Gr({self.target.name}, Omega)"

    @property
    def equality_known(self) -> bool:
        return bool(self.target.equality)

    @property
    def equality_note(self) -> str:
        return self.target.equality

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "target": self.target.name,
            "gr": self.gr_symbol,
            "upper_bound": self.upper_bound,
            "equality_known": self.equality_known,
            "equality_note": self.equality_note,
            "tolerance": self.tolerance,
            "bindings": dict(self.numeric_bindings),
            "grid_values": {
                name: {"grid_sup": r.grid_E, "grid_inf": r.grid_e, "sup": r.E, "inf": r.e}
                for name, r in self.family_reports.items()
            },
            "certificate": self.certificate.to_jsonable(),
        }


def resolve_bindings(
    scenario: Scenario,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
) -> tuple[dict, dict]:
    """Extremal lengths of every family a generator selects, mapped through
    the scenario's symbolic binding selectors.  Returns (bindings,
    per-family reports).  A family grid of more than ``MAX_GRID_POINTS``
    points raises ``ScenarioParameterError`` before any family is
    evaluated."""
    families = scenario.families
    for name, fam in families.items():
        size = math.prod(ax.count for ax in fam.grid.axes)
        if size > MAX_GRID_POINTS:
            raise ScenarioParameterError(f"family {name!r} has {size} grid points, more than {MAX_GRID_POINTS}")
    reports: dict[str, ExtremalLengthReport] = {
        name: extremal_lengths(scenario.domain, fam, quad, refine) for name, fam in families.items()
    }
    bindings = {}
    for name, sel in scenario.symbolic_bindings.items():
        rep = reports[sel.family.name]
        bindings[name] = sel.scale * (rep.E if sel.mode == "sup" else rep.e)
    return bindings, reports


def _make_bound(
    scenario: Scenario,
    target: TargetClass,
    cert: Certificate,
    bindings: dict,
    reports: dict,
) -> CapacityBound:
    report = check_certificate(cert)
    if not report.passed:
        raise DerivationError(f"derived certificate failed its own replay: {report.conclusion_message}")
    value = cert.filtration.resolve(bindings)
    tol = sum(
        reports[scenario.symbolic_bindings[s].family.name].tolerance
        for s in cert.filtration.symbols
    )
    return CapacityBound(
        target=target,
        upper_bound=value,
        certificate=cert,
        numeric_bindings={s: bindings[s] for s in cert.filtration.symbols},
        tolerance=tol,
        family_reports=reports,
    )


def compute_bounds(
    scenario: Scenario,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
) -> tuple[CapacityBound, ...]:
    """One bound per target of the scenario, in target order.  A target whose
    recipe holds for both rotation orientations gets the smaller of the two
    bounds (the positive one on a tie)."""
    bindings, reports = resolve_bindings(scenario, quad, refine)
    out = []
    for target in scenario.targets:
        candidates = [
            _make_bound(scenario, target, derive_certificate(scenario, target, sign=sign), bindings, reports)
            for sign in ((+1, -1) if target.both_orientations else (+1,))
        ]
        out.append(min(candidates, key=lambda b: b.upper_bound))
    return tuple(out)


def camel_limit_report(n: int, eps: float, delta_grid) -> dict:
    """Bound table over a grid of widths delta, with the delta -> 0 value
    recovered by linear (Richardson) extrapolation from the two smallest
    grid entries, which must differ."""
    deltas = sorted(float(d) for d in delta_grid)
    if len(deltas) < 2:
        raise ScenarioParameterError("need at least two delta values to extrapolate")
    if deltas[0] <= 0.0:
        raise ScenarioParameterError("delta values must be positive")
    if deltas[0] == deltas[1]:
        raise ScenarioParameterError(f"need two distinct delta values to extrapolate, got {deltas[0]} twice")
    rows = []
    for d in deltas:
        (b,) = compute_bounds(camel_scenario(n, eps, d))
        rows.append({"delta": d, "bound": b.upper_bound})
    d1, d2 = rows[0]["delta"], rows[1]["delta"]
    b1, b2 = rows[0]["bound"], rows[1]["bound"]
    extrapolated = b1 - d1 * (b2 - b1) / (d2 - d1)
    return {
        "n": n,
        "eps": eps,
        "rows": rows,
        "extrapolated": float(extrapolated),
    }
