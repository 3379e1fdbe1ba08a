"""Turn scenarios into numeric width bounds with attached certificates.

The symbolic filtration of each certificate is resolved against the extremal
lengths of the loop families the scenario's generators select; the resolved
number is the reported upper bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Scenario, TargetClass, camel_scenario
from .errors import DerivationError, ScenarioParameterError, is_real
from .loops import ExtremalLengthReport, QuadratureSpec, RefineSpec, extremal_lengths
from .stralg import Certificate, check_certificate, derive_certificate

# the most points a family's parameter grid may have: the grid is built as one
# row per point, and each row gets a length
MAX_GRID_POINTS = 2**16


@dataclass(frozen=True, eq=False)
class CapacityBound:
    """A certified numeric upper bound on the width of the certificate's
    target: the certificate's filtration resolved against ``bindings``, the
    scenario's extremal lengths, from ``family_reports``.  Its scenario is the
    certificate's, and whether the width is known to equal the bound is the
    target's."""

    certificate: Certificate
    bindings: dict
    family_reports: dict

    @property
    def target(self) -> TargetClass:
        return self.certificate.target

    @property
    def upper_bound(self) -> float:
        return self.certificate.filtration.resolve(self.bindings)

    @property
    def numeric_bindings(self) -> dict:
        return {s: self.bindings[s] for s in self.certificate.filtration.symbols}

    @property
    def tolerance(self) -> float:
        """qtol * (1 + |x|) summed over the filtration's symbols, x the
        extremum (E or e) the symbol's selector reads: a quadrature setting,
        not a measured error; exact lengths carry it too."""
        selectors = self.certificate.scenario.symbolic_bindings
        reads = [selectors[s] for s in self.certificate.filtration.symbols]
        reports = [self.family_reports[sel.family.name] for sel in reads]
        return sum(r.qtol * (1.0 + abs(r.E if sel.mode == "sup" else r.e)) for sel, r in zip(reads, reports))

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
            "bindings": self.numeric_bindings,
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
    the scenario's symbolic binding selectors; a family refines only the
    extrema its selectors read.  Returns (bindings, per-family reports).  A
    family grid of more than ``MAX_GRID_POINTS`` points raises
    ``ScenarioParameterError`` before any family is evaluated."""
    families = scenario.families
    for name, fam in families.items():
        size = math.prod(ax.count for ax in fam.grid.axes)
        if size > MAX_GRID_POINTS:
            raise ScenarioParameterError(f"family {name!r} has {size} grid points, more than {MAX_GRID_POINTS}")
    reports: dict[str, ExtremalLengthReport] = {}
    for name, fam in families.items():
        modes = tuple(sel.mode for sel in scenario.symbolic_bindings.values() if sel.family is fam)
        reports[name] = extremal_lengths(scenario.domain, fam, quad, refine, modes)
    bindings = {}
    for name, sel in scenario.symbolic_bindings.items():
        rep = reports[sel.family.name]
        bindings[name] = sel.scale * (rep.E if sel.mode == "sup" else rep.e)
    return bindings, reports


def compute_bounds(
    scenario: Scenario,
    quad: QuadratureSpec = QuadratureSpec(),
    refine: RefineSpec = RefineSpec(),
) -> tuple[CapacityBound, ...]:
    """One bound per target of the scenario, in target order.  A target whose
    recipe holds for both rotation orientations gets the smaller of the two
    bounds (the positive one on a tie).  Each derived certificate is replayed
    first, and one that fails its own replay raises ``DerivationError``."""
    bindings, reports = resolve_bindings(scenario, quad, refine)
    out = []
    for target in scenario.targets:
        candidates = []
        for sign in (+1, -1) if target.both_orientations else (+1,):
            cert = derive_certificate(scenario, target, sign=sign)
            report = check_certificate(cert)
            if not report.passed:
                raise DerivationError(f"derived certificate failed its own replay: {report.conclusion_message}")
            candidates.append(CapacityBound(cert, bindings, reports))
        out.append(min(candidates, key=lambda b: b.upper_bound))
    return tuple(out)


def camel_limit_report(n: int, eps: float, delta_grid) -> dict:
    """Bound table over a grid of widths delta, with the delta -> 0 value
    recovered by linear (Richardson) extrapolation from the two smallest
    grid entries, which must differ.  Every delta is a finite real number."""
    deltas = list(delta_grid)
    if not all(is_real(d) for d in deltas):
        raise ScenarioParameterError(f"delta values must be finite numbers, got {deltas!r}")
    deltas = sorted(float(d) for d in deltas)
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
