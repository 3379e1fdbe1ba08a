"""The benchmark's workloads: seeded inputs, the timed call into stringcap, and
the correctness gate every op must pass.

Each workload draws its inputs in rounds that hold one op of every kind in a
seeded order, so that two seeds run the same mix of op kinds and differ only
in parameters and order.  The program sees only the generated configurations.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stringcap import bounds, catalog, cli, frames, gauge, loops
from stringcap.gauge import BasePoint, SamplePlan, TangentVector

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    kind: str
    config: dict


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digest: str  # hash of everything the op returned, to compare runs
    detail: str = ""
    rel_err: float = 0.0  # worst relative error against a closed form


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _draw(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()

    def round(self, rng) -> list[Op]:
        """One op of every kind, in a seeded order."""
        return [Op(k, self.make(k, rng)) for k in (self.kinds[i] for i in rng.permutation(len(self.kinds)))]

    def make(self, kind: str, rng) -> dict:
        raise NotImplementedError

    def call(self, op: Op, hooks):
        """The timed call into stringcap."""
        raise NotImplementedError

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper_bounds
# ---------------------------------------------------------------------------

# (scenario, target) -> (closed form of the config, tolerance, "rel" | "abs"),
# at the tolerances of the `stringcap reproduce all` table
PAPER_REFERENCE = {
    ("ellipsoid1", "[pt]"): (lambda c: 2 * TWO_PI * c["a"], 1e-4, "rel"),
    ("ellipsoid1", "[S^n]"): (lambda c: TWO_PI * c["a"], 1e-4, "rel"),
    ("ellipsoid2", "[pt]"): (lambda c: TWO_PI * c["a"], 1e-4, "rel"),
    ("ellipsoid2", "[S^n]"): (lambda c: TWO_PI * c["a"], 1e-4, "rel"),
    ("camel", "[T^k]"): (lambda c: c["eps"] + 3 * c["delta"], 1e-9, "abs"),
    ("klein", "[Sigma]"): (lambda c: 2 * c["a"], 1e-6, "abs"),
}


class PaperBounds(Workload):
    """build_scenario + compute_bounds over the configurations of the paper's
    tables, with parameters drawn from the ranges those tables span."""

    name = "paper_bounds"
    kinds = ("ellipsoid1:2", "ellipsoid1:3", "ellipsoid2:3", "ellipsoid2:4", "camel:2", "camel:3", "klein")

    def make(self, kind, rng):
        scenario, _, n = kind.partition(":")
        if scenario == "ellipsoid1":
            return {"scenario": scenario, "n": int(n), "a": _draw(rng, 0.2, 1.0)}
        if scenario == "ellipsoid2":
            return {"scenario": scenario, "n": int(n), "a": _draw(rng, 0.4, 1.0)}
        if scenario == "camel":
            delta = round(10.0 ** float(rng.uniform(-3.0, -1.0)), 6)
            return {"scenario": scenario, "n": int(n), "eps": _draw(rng, 0.4, 1.0), "delta": delta}
        return {"scenario": scenario, "a": _draw(rng, 0.5, 1.0), "b": _draw(rng, 1.0, 2.0)}

    def call(self, op, hooks):
        return bounds.compute_bounds(catalog.build_scenario(dict(op.config)))

    def check(self, op, result):
        c = op.config
        digest = _digest(json.dumps([b.to_jsonable() for b in result], sort_keys=True))
        got = {b.target.name: b.upper_bound for b in result}
        refs = {t: ref for (s, t), ref in PAPER_REFERENCE.items() if s == c["scenario"]}
        if sorted(got) != sorted(refs):
            return Outcome(False, digest, f"targets {sorted(got)}, expected {sorted(refs)}")
        worst, bad = 0.0, []
        for target, (closed_form, tol, mode) in refs.items():
            expected = closed_form(c)
            err = abs(got[target] - expected)
            rel = err / abs(expected)
            worst = max(worst, rel)
            if (rel if mode == "rel" else err) > tol:
                bad.append(f"{target}: {got[target]!r} vs {expected!r} ({mode} tol {tol:g})")
        return Outcome(not bad, digest, "; ".join(bad), worst)


# ---------------------------------------------------------------------------
# certify_cli
# ---------------------------------------------------------------------------

CERTIFY_TARGETS = {
    "ellipsoid1": ("[pt]", "[S^n]"),
    "ellipsoid2": ("[pt]", "[S^n]"),
    "open_book": ("[pt]", "[M]"),
    "product_torus": ("[T^k]",),
    "camel": ("[T^k]",),
    "klein": ("[Sigma]",),
}

# the filtration each derivation concludes with; the CLI derives the positive
# rotation orientation
CERTIFY_REFERENCE = {
    ("ellipsoid1", "[pt]"): "E+ + E-",
    ("ellipsoid1", "[S^n]"): "E+",
    ("ellipsoid2", "[pt]"): "E_A",
    ("ellipsoid2", "[S^n]"): "E_A",
    ("open_book", "[pt]"): "E+ + E-",
    ("open_book", "[M]"): "E+",
    ("product_torus", "[T^k]"): "E+^k + E-",
    ("camel", "[T^k]"): "E+^k + E-",
    ("klein", "[Sigma]"): "l_q + l_qbar",
}


def _certify_params(scenario: str, rng) -> dict:
    if scenario == "ellipsoid1":
        return {"n": int(rng.integers(2, 5)), "a": _draw(rng, 0.2, 1.0)}
    if scenario == "ellipsoid2":
        return {"n": int(rng.integers(3, 6)), "a": _draw(rng, 0.4, 1.0)}
    if scenario == "open_book":
        return {"radius": _draw(rng, 0.5, 2.0)}
    if scenario == "product_torus":
        d = int(rng.integers(2, 6))
        return {"d": d, "k": int(rng.integers(1, d)), "radius": _draw(rng, 0.5, 2.0)}
    if scenario == "camel":
        return {"n": int(rng.integers(2, 5)), "eps": _draw(rng, 0.4, 1.0), "delta": _draw(rng, 0.001, 0.1)}
    return {"a": _draw(rng, 0.5, 1.0), "b": _draw(rng, 1.0, 2.0), "radius": _draw(rng, 0.5, 2.0)}


# per scenario, ways to put one parameter out of range: some fail the CLI's
# schema, the others the scenario constructor's range checks
OUT_OF_RANGE = {
    "ellipsoid1": (lambda p, rng: {"a": _draw(rng, 1.1, 2.0)}, lambda p, rng: {"n": 1}),
    "ellipsoid2": (lambda p, rng: {"a": _draw(rng, 1.1, 2.0)}, lambda p, rng: {"n": 2}),
    "open_book": (lambda p, rng: {"radius": -_draw(rng, 0.1, 1.0)},),
    "product_torus": (lambda p, rng: {"k": p["d"]}, lambda p, rng: {"radius": -_draw(rng, 0.1, 1.0)}),
    "camel": (lambda p, rng: {"n": 1}, lambda p, rng: {"eps": -_draw(rng, 0.1, 1.0)}),
    "klein": (lambda p, rng: {"a": -_draw(rng, 0.1, 1.0)}, lambda p, rng: {"b": 0.0}),
}


class CertifyCli(Workload):
    """In-process `stringcap certify ... --out FILE` over all six CLI scenario
    names and their targets; one op in seven has an out-of-range parameter."""

    name = "certify_cli"
    kinds = (*CERTIFY_TARGETS, "out_of_range")

    def __init__(self, out_path: Path):
        self.out_path = out_path

    def make(self, kind, rng):
        scenario = _pick(rng, tuple(CERTIFY_TARGETS)) if kind == "out_of_range" else kind
        params = _certify_params(scenario, rng)
        expect = 0
        if kind == "out_of_range":
            params.update(_pick(rng, OUT_OF_RANGE[scenario])(params, rng))
            expect = 2
        target = _pick(rng, (*CERTIFY_TARGETS[scenario], None))
        argv = ["certify", "--scenario", scenario]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        if target is not None:
            argv.append(target)
        return {"scenario": scenario, "target": target, "expect_exit": expect, "argv": argv}

    def call(self, op, hooks):
        self.out_path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(op.config["argv"] + ["--out", str(self.out_path)])
        return code, err.getvalue()

    def check(self, op, result):
        code, err = result
        c = op.config
        text = self.out_path.read_text() if self.out_path.exists() else None
        digest = _digest(f"{code}\n{text}")
        if code != c["expect_exit"]:
            return Outcome(False, digest, f"exit {code}, expected {c['expect_exit']}: {err.strip()}")
        if code != 0:
            if text is not None or "invalid" not in err:
                return Outcome(False, digest, f"exit {code} left output or gave no reason")
            return Outcome(True, digest)
        targets = [c["target"]] if c["target"] else list(CERTIFY_TARGETS[c["scenario"]])
        payload = json.loads(text)
        got = [(e["certificate"]["target"], e["certificate"]["filtration"], e["checked"]) for e in payload]
        want = [(t, CERTIFY_REFERENCE[(c["scenario"], t)], True) for t in targets]
        if got != want:
            return Outcome(False, digest, f"certificates {got}, expected {want}")
        return Outcome(True, digest)


# ---------------------------------------------------------------------------
# verify_checks
# ---------------------------------------------------------------------------

def _equator() -> loops.Loop:
    """The great circle in the two stretched axes of the 2-sphere; its length
    in the stretched codisk of parameter a is 2 pi a."""

    def point(t):
        ang = TWO_PI * t
        return BasePoint(np.array([0.0, math.cos(ang), math.sin(ang)]), "embedding")

    def deriv(t):
        ang = TWO_PI * t
        return TangentVector(np.array([0.0, -TWO_PI * math.sin(ang), TWO_PI * math.cos(ang)]), point(t))

    return loops.Loop(point, deriv)


class VerifyChecks(Workload):
    """The paper's non-bound checks: containment plans, the frame family, and
    long quadratures of the reparametrization and concatenation invariants."""

    name = "verify_checks"
    kinds = ("contains_true", "contains_false", "frames:1", "frames:2", "frames:3", "warped_length",
             "concat_length")
    SAMPLES = 2000
    PANELS = 2048

    def make(self, kind, rng):
        seed = int(rng.integers(2**31))
        if kind == "contains_true":
            return {"n": int(rng.integers(2, 4)), "a": _draw(rng, 0.2, 1.0), "samples": self.SAMPLES, "seed": seed}
        if kind == "contains_false":
            small = _draw(rng, 0.2, 0.6)
            return {"n": int(rng.integers(2, 4)), "a_small": small, "a_big": round(small + _draw(rng, 0.2, 0.4), 4),
                    "samples": self.SAMPLES, "seed": seed}
        if kind.startswith("frames"):
            return {"n": int(kind[-1]), "count": 200, "mesh": 1e-3, "seed": seed}
        if kind == "warped_length":
            return {"a": _draw(rng, 0.2, 1.0), "warp": _draw(rng, 0.05, 0.2), "panels": self.PANELS}
        return {"a": _draw(rng, 0.2, 1.0), "panels": self.PANELS}

    def call(self, op, hooks):
        c = op.config
        if op.kind == "contains_true":
            # the round codisk of a^2 x Euclidean sits inside the stretched one
            inner = hooks.domain(catalog.ellipsoid_round_domain(c["n"], c["a"]))
            outer = hooks.domain(catalog.ellipsoid_domain(c["n"], c["a"]))
            return gauge.domain_contains(inner, outer, SamplePlan(c["samples"], c["seed"]))
        if op.kind == "contains_false":
            inner = hooks.domain(catalog.ellipsoid_domain(c["n"], c["a_big"]))
            outer = hooks.domain(catalog.ellipsoid_domain(c["n"], c["a_small"]))
            return gauge.domain_contains(inner, outer, SamplePlan(c["samples"], c["seed"]))
        if op.kind.startswith("frames"):
            return frames.verify_frame_family(c["n"], c["mesh"], c["count"], c["seed"])
        domain = hooks.domain(catalog.ellipsoid_domain(2, c["a"]))
        quad = loops.QuadratureSpec(panels=c["panels"])
        loop = _equator()
        if op.kind == "warped_length":
            # no closed-form derivative: the loop differentiates by finite differences
            pf, w = loop.point_fn, c["warp"]
            loop = loops.Loop(lambda t: pf(t + w * math.sin(TWO_PI * t) / TWO_PI))
        else:
            loop = loops.concatenate(loop, loops.reverse(loop))
        return loops.loop_length(domain, loop, quad)

    def check(self, op, result):
        c = op.config
        if op.kind == "contains_true":
            ok = result.contained and result.witness is None
            return Outcome(ok, _digest(repr(ok)), "" if ok else "containment refused")
        if op.kind == "contains_false":
            if result.contained or result.witness is None:
                return Outcome(False, _digest("contained"), "larger domain reported inside the smaller")
            q, _, si, so = result.witness
            digest = _digest(repr((q.coords.tolist(), si, so)))
            return Outcome(si > so, digest, "" if si > so else f"witness {si!r} <= {so!r}")
        if op.kind.startswith("frames"):
            worst = max(result.max_unitarity_residual, result.max_basepoint_residual)
            digest = _digest(repr((result.max_unitarity_residual, result.max_basepoint_residual,
                                   result.continuity_modulus)))
            ok = worst <= 1e-10 and result.count == c["count"]
            return Outcome(ok, digest, "" if ok else f"residual {worst:.3e}")
        factor, tol = (1, 1e-6) if op.kind == "warped_length" else (2, 1e-7)
        expected = factor * TWO_PI * c["a"]
        err = abs(result - expected)
        ok = err <= tol * (1.0 + expected)
        return Outcome(ok, _digest(repr(float(result))), "" if ok else f"length {result!r} vs {expected!r}")


WORKLOADS = {
    "paper_bounds": lambda workdir: PaperBounds(),
    "certify_cli": lambda workdir: CertifyCli(workdir / "certify_out.json"),
    "verify_checks": lambda workdir: VerifyChecks(),
}
