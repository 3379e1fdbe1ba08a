"""Command-line front end: bound computation, regression tables, certificates.

Exit codes: 0 success, 2 configuration/validation failure, 3 numeric or
derivation failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import bounds as _bounds
from . import catalog as _catalog
from .errors import StringcapError
from .loops import QuadratureSpec, RefineSpec
from .stralg import check_certificate, derive_certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

RUNCONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "scenario": {
            "enum": [
                "ellipsoid1",
                "ellipsoid2",
                "open_book",
                "product_torus",
                "camel",
                "klein",
            ]
        },
        "n": {"type": "integer", "minimum": 1},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "k": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 2},
        "radius": {"type": "number", "minimum": 0},
        "quad_panels": {"type": "integer", "minimum": 8, "multipleOf": 2},
        "refine_budget": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "format": {"enum": ["json", "csv", "text"]},
    },
    "required": ["scenario"],
    "additionalProperties": False,
}

_SCENARIO_KEYS = ("scenario", "n", "a", "b", "eps", "delta", "k", "d", "radius")

_validate_runconfig = _catalog.lazy_validator(RUNCONFIG_SCHEMA)


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
    p.add_argument("--quad-panels", type=int, dest="quad_panels")
    p.add_argument("--refine-budget", type=int, dest="refine_budget")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv", "text"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringcap",
        description="Certified upper bounds on parametric widths of "
        "fiberwise starshaped cotangent domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute a scenario's bounds")
    _add_common_flags(p_bound)

    p_rep = sub.add_parser("reproduce", help="emit a regression table")
    p_rep.add_argument("table", help="table id: all, ellipsoid1, ellipsoid2, camel, klein")
    p_rep.add_argument("--out")

    p_cert = sub.add_parser("certify", help="derive and check a certificate")
    _add_common_flags(p_cert)
    p_cert.add_argument("target", nargs="?", help="target class name, e.g. [pt]")

    return parser


def run_config_from_args(args: argparse.Namespace) -> dict:
    config = {}
    for key in RUNCONFIG_SCHEMA["properties"]:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    _validate_runconfig(config)
    return config


def _scenario_from_config(config: dict):
    sc_cfg = {k: v for k, v in config.items() if k in _SCENARIO_KEYS}
    return _catalog.build_scenario(sc_cfg)


def _quad_refine(config: dict):
    quad = None
    if "quad_panels" in config:
        quad = QuadratureSpec(panels=config["quad_panels"])
    refine = RefineSpec(budget=config.get("refine_budget", 200))
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
    scenario = _scenario_from_config(config)
    quad, refine = _quad_refine(config)
    result = _bounds.compute_bounds(scenario, quad, refine)
    _emit(_format_bounds(result, config.get("format", "json")), config.get("out"))
    return EXIT_OK


def _reproduce_rows(table: str) -> list[dict]:
    rows = []
    tol = 1e-4

    def row(scenario, target, expected, computed, rel_tol):
        dev = abs(computed - expected) / max(abs(expected), 1e-30)
        rows.append(
            {
                "scenario": scenario,
                "target": target,
                "expected": expected,
                "computed": computed,
                "deviation": dev,
                "pass": dev <= rel_tol,
            }
        )

    if table in ("all", "ellipsoid1"):
        for n in (2, 3):
            for a in (0.2, 0.5, 1.0):
                s = _catalog.ellipsoid_scenario(n, a)
                for b in _bounds.bound_open_book(s):
                    expected = 4 * math.pi * a if b.target.name == "[pt]" else 2 * math.pi * a
                    row(s.id, b.target.name, expected, b.upper_bound, tol)
    if table in ("all", "ellipsoid2"):
        for n in (3, 4):
            for a in (0.4, 1.0):
                s = _catalog.ellipsoid2_scenario(n, a)
                b = _bounds.bound_ellipsoid2(s)[0]
                row(s.id, b.target.name, 2 * math.pi * a, b.upper_bound, tol)
    if table in ("all", "camel"):
        for n in (2, 3):
            for eps in (0.4, 1.0):
                for delta in (0.1, 0.01, 0.001):
                    s = _catalog.camel_scenario(n, eps, delta)
                    b = _bounds.bound_product_torus(s)
                    row(s.id, b.target.name, eps + 3 * delta, b.upper_bound, 1e-9)
    if table in ("all", "klein"):
        for a, bb in ((1.0, 1.0), (0.5, 2.0)):
            s = _catalog.klein_bottle_scenario(a, bb)
            b = _bounds.bound_non_orientable(s)
            row(s.id, b.target.name, 2 * a, b.upper_bound, 1e-6)
    if not rows:
        raise StringcapError(f"unknown table id {table!r}")
    return rows


def cmd_reproduce(table: str, out_path: Optional[str]) -> int:
    if table not in ("all", "ellipsoid1", "ellipsoid2", "camel", "klein"):
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
    import jsonschema  # not at module level: importing the package loads no jsonschema

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.table, args.out)
        config = run_config_from_args(args)
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"invalid configuration: {exc.message}\n")
        return EXIT_CONFIG
    except StringcapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    try:
        if args.command == "bound":
            return cmd_bound(config)
        if args.command == "certify":
            return cmd_certify(config, args.target)
        return EXIT_CONFIG
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"invalid configuration: {exc.message}\n")
        return EXIT_CONFIG
    except StringcapError as exc:
        from .errors import ScenarioParameterError

        if isinstance(exc, ScenarioParameterError):
            sys.stderr.write(f"invalid parameters: {exc}\n")
            return EXIT_CONFIG
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
