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
from .errors import DerivationError, InvalidInputError, ScenarioParameterError, StringcapError
from .loops import MAX_QUAD_PANELS, QuadratureSpec, RefineSpec  # MAX_QUAD_PANELS is re-exported
from .stralg import check_certificate, derive_certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _scenario_keys() -> dict[str, type]:
    """Every key of ``SCENARIOS`` in order of first use, with the type of its
    default."""
    keys: dict[str, type] = {}
    for _, defaults in _catalog.SCENARIOS.values():
        for key, default in defaults.items():
            keys.setdefault(key, type(default))
    return keys


def _scenario_flags() -> argparse.ArgumentParser:
    """``--scenario`` and a flag for every key of ``SCENARIOS``, ``_`` written
    as ``-``; ``bound`` and ``certify`` share these actions."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scenario", required=True)
    for key, kind in _scenario_keys().items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringcap",
        description="Certified upper bounds on parametric widths of "
        "fiberwise starshaped cotangent domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_flags = _scenario_flags()

    p_bound = sub.add_parser("bound", help="compute a scenario's bounds", parents=[scenario_flags])
    p_bound.add_argument("--quad-panels", type=int, dest="quad_panels")
    p_bound.add_argument("--refine-budget", type=int, dest="refine_budget")
    p_bound.add_argument("--out")
    p_bound.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p_rep = sub.add_parser("reproduce", help="emit a regression table")
    p_rep.add_argument("table", help="table id: " + ", ".join(_table_ids()))
    p_rep.add_argument("--out")

    p_cert = sub.add_parser("certify", help="derive and check a certificate", parents=[scenario_flags])
    p_cert.add_argument("--out")
    p_cert.add_argument("target", nargs="?", help="target class name, e.g. [pt]")

    return parser


def _scenario(args: argparse.Namespace):
    """The scenario of ``--scenario`` and the scenario flags given."""
    config = {key: getattr(args, key) for key in ("scenario", *_scenario_keys())}
    return _catalog.build_scenario({key: val for key, val in config.items() if val is not None})


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


def cmd_bound(args: argparse.Namespace) -> int:
    quad = QuadratureSpec(panels=args.quad_panels)
    refine = RefineSpec() if args.refine_budget is None else RefineSpec(budget=args.refine_budget)
    result = _bounds.compute_bounds(_scenario(args), quad, refine)
    _emit(_format_bounds(result, args.format), args.out)
    return EXIT_OK


def _table_ids() -> list[str]:
    return ["all", *dict.fromkeys(case.config["scenario"] for case in _catalog.REFERENCE_CASES)]


def _reproduce_rows(table: str) -> list[dict]:
    """One row per reference case of ``table``, with one ``compute_bounds``
    per configuration."""
    cases = [c for c in _catalog.REFERENCE_CASES if table in ("all", c.config["scenario"])]
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


def cmd_certify(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    targets = [scenario.target(args.target)] if args.target else list(scenario.targets)
    payload, failed = [], None
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
            failed = target
            break
    _emit(json.dumps(payload, indent=2), args.out)
    if failed is not None:
        sys.stderr.write(f"certificate check failed for target {failed.name}\n")
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.table, args.out)
        if args.command == "bound":
            return cmd_bound(args)
        return cmd_certify(args)
    except (ScenarioParameterError, InvalidInputError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_CONFIG
    except DerivationError as exc:
        sys.stderr.write(f"derivation failure: {exc}\n")
        return EXIT_NUMERIC
    except StringcapError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
