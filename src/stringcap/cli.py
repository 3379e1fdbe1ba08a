"""Command-line front end: bound computation, regression tables, certificates.

Exit codes: 0 success, 2 configuration/validation failure or an unwritable
output path, 3 numeric or derivation failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from typing import Optional

from . import bounds as _bounds
from . import catalog as _catalog
from .errors import ScenarioParameterError, StringcapError
from .loops import QuadratureSpec, RefineSpec
from .stralg import check_certificate, derive_certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the keys of one run; the other keys configure the scenario and are left to
# build_scenario
_RUN_KEYS = ("quad_panels", "refine_budget", "out", "format")

# the most panels --quad-panels takes: every length samples twice this many
# points at its first two levels
MAX_QUAD_PANELS = 2**16


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--radius", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringcap",
        description="Certified upper bounds on parametric widths of "
        "fiberwise starshaped cotangent domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute a scenario's bounds")
    _add_common_flags(p_bound)
    p_bound.add_argument("--quad-panels", type=int, dest="quad_panels")
    p_bound.add_argument("--refine-budget", type=int, dest="refine_budget")
    p_bound.add_argument("--out")
    p_bound.add_argument("--format", choices=["json", "csv", "text"])

    p_rep = sub.add_parser("reproduce", help="emit a regression table")
    p_rep.add_argument("table", help="table id: " + ", ".join(_table_ids()))
    p_rep.add_argument("--out")

    p_cert = sub.add_parser("certify", help="derive and check a certificate")
    _add_common_flags(p_cert)
    p_cert.add_argument("--out")
    p_cert.add_argument("target", nargs="?", help="target class name, e.g. [pt]")

    return parser


def run_config_from_args(args: argparse.Namespace) -> dict:
    """The keys the flags set."""
    return {key: val for key, val in vars(args).items() if val is not None and key not in ("command", "target")}


def _scenario_from_config(config: dict):
    return _catalog.build_scenario({k: v for k, v in config.items() if k not in _RUN_KEYS})


def _quad_refine(config: dict):
    """The flags' quadrature (None: the scenario's own) and refinement; a
    flag left out takes the spec's default.  A panel count outside [8,
    ``MAX_QUAD_PANELS``] or a refinement budget below 1 raises
    ``ScenarioParameterError``."""
    if not 8 <= config.get("quad_panels", 8) <= MAX_QUAD_PANELS:
        raise ScenarioParameterError(f"quad_panels must lie in [8, {MAX_QUAD_PANELS}], got {config['quad_panels']}")
    if config.get("refine_budget", 1) < 1:
        raise ScenarioParameterError(f"refine_budget must be >= 1, got {config['refine_budget']}")
    quad = QuadratureSpec(panels=config["quad_panels"]) if "quad_panels" in config else None
    refine = RefineSpec(budget=config["refine_budget"]) if "refine_budget" in config else RefineSpec()
    return quad, refine


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _format_bounds(bound_list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([b.to_jsonable() for b in bound_list], indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["scenario", "target", "upper_bound", "equality_known", "tolerance"])
        for b in bound_list:
            w.writerow([b.scenario_id, b.target.name, repr(b.upper_bound), b.equality_known, b.tolerance])
        return buf.getvalue()
    lines = []
    for b in bound_list:
        flag = " (equality known)" if b.equality_known else ""
        lines.append(f"{b.gr_symbol} <= {b.upper_bound:.10g}{flag}  [{b.scenario_id}]")
    return "\n".join(lines) + "\n"


def cmd_bound(config: dict) -> int:
    quad, refine = _quad_refine(config)
    scenario = _scenario_from_config(config)
    result = _bounds.compute_bounds(scenario, quad, refine)
    _emit(_format_bounds(result, config.get("format", "json")), config.get("out"))
    return EXIT_OK


def _table_ids() -> list[str]:
    return ["all", *dict.fromkeys(case.table for case in _catalog.REFERENCE_CASES)]


def _reproduce_rows(table: str) -> list[dict]:
    """One row per reference case of ``table``, with one ``compute_bounds``
    per configuration."""
    cases = [c for c in _catalog.REFERENCE_CASES if table in ("all", c.table)]
    rows = []
    for config, group in itertools.groupby(cases, key=lambda c: c.config):
        computed = {b.target.name: b for b in _bounds.compute_bounds(_catalog.build_scenario(config))}
        for case in group:
            b = computed[case.target]
            dev = abs(b.upper_bound - case.expected) / max(abs(case.expected), 1e-30)
            rows.append(
                {
                    "scenario": b.scenario_id,
                    "target": case.target,
                    "expected": case.expected,
                    "computed": b.upper_bound,
                    "deviation": dev,
                    "pass": dev <= case.rel_tol,
                }
            )
    return rows


def cmd_reproduce(table: str, out_path: Optional[str]) -> int:
    if table not in _table_ids():
        sys.stderr.write(f"unknown table id {table!r}\n")
        return EXIT_CONFIG
    rows = _reproduce_rows(table)
    buf = io.StringIO()
    w = csv.DictWriter(
        buf, fieldnames=["scenario", "target", "expected", "computed", "deviation", "pass"]
    )
    w.writeheader()
    for r in rows:
        w.writerow(r)
    _emit(buf.getvalue(), out_path)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_NUMERIC


def cmd_certify(config: dict, target_name: Optional[str]) -> int:
    scenario = _scenario_from_config(config)
    targets = (
        [scenario.target(target_name)] if target_name else list(scenario.targets)
    )
    payload = []
    for target in targets:
        cert = derive_certificate(scenario, target)
        report = check_certificate(cert)
        payload.append(
            {
                "certificate": cert.to_jsonable(),
                "checked": report.passed,
                "steps": [
                    {"rule": s.rule, "ok": s.ok, "message": s.message} for s in report.steps
                ],
            }
        )
        if not report.passed:
            _emit(json.dumps(payload, indent=2), config.get("out"))
            sys.stderr.write(f"certificate check failed for target {target.name}\n")
            return EXIT_NUMERIC
    _emit(json.dumps(payload, indent=2), config.get("out"))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.table, args.out)
        config = run_config_from_args(args)
        if args.command == "bound":
            return cmd_bound(config)
        return cmd_certify(config, args.target)
    except ScenarioParameterError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_CONFIG
    except StringcapError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
