"""Acceptance criteria: one printed pass/fail line per criterion.

Tolerances are pinned; reference values come from closed forms and
independent oracles, not from the code under test.
"""
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from stringcap.bounds import camel_limit_report, compute_bounds, resolve_bindings
from stringcap.catalog import (
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_domain,
    ellipsoid_round_domain,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
)
from stringcap.frames import verify_frame_family
from stringcap.gauge import BasePoint, SamplePlan, TangentVector, domain_contains, support
from stringcap.loops import Loop, extremal_lengths, loop_length
from stringcap.stralg import (
    FiltExpr,
    FilteredClass,
    LoopCycle,
    check_certificate,
    delta,
    derive_certificate,
    star,
)

TWO_PI = 2.0 * math.pi


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_criterion_1_stretched_sphere_reproduction():
    t0 = time.monotonic()
    ok = True
    for n, a in itertools.product((2, 3), (0.2, 0.5, 1.0)):
        s = ellipsoid_scenario(n, a)
        bindings, _ = resolve_bindings(s)
        ok &= abs(bindings["E+"] - TWO_PI * a) <= 1e-4 * TWO_PI * a
        ok &= abs(bindings["E-"] - TWO_PI * a) <= 1e-4 * TWO_PI * a
        bounds = {b.target.name: b.upper_bound for b in compute_bounds(s)}
        ok &= abs(bounds["[S^n]"] - TWO_PI * a) <= 1e-4 * TWO_PI * a
        ok &= abs(bounds["[pt]"] - 2 * TWO_PI * a) <= 1e-4 * 2 * TWO_PI * a
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(
        "criterion 1: rotation suprema and bounds 2*pi*a / 4*pi*a over "
        f"(n,a) in {{2,3}}x{{0.2,0.5,1.0}} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_2_diagonal_action_reproduction():
    ok = True
    for n, a in itertools.product((3, 4), (0.4, 1.0)):
        for b in compute_bounds(ellipsoid2_scenario(n, a)):
            ok &= abs(b.upper_bound - TWO_PI * a) <= 1e-4 * TWO_PI * a
            ok &= b.equality_known
    _report("criterion 2: diagonal-action bound 2*pi*a with equality flag", ok)


def test_criterion_3_camel_threshold():
    ok = True
    for eps in (0.4, 1.0):
        values = {}
        for n in (2, 3):
            for d in (0.1, 0.01, 0.001):
                (b,) = compute_bounds(camel_scenario(n, eps, d))
                ok &= abs(b.upper_bound - (eps + 3 * d)) <= 1e-9
                values.setdefault(d, set()).add(round(b.upper_bound, 12))
        ok &= all(len(v) == 1 for v in values.values())  # independent of n
        rep = camel_limit_report(2, eps, [0.1, 0.01, 0.001])
        ok &= abs(rep["extrapolated"] - eps) <= 1e-6
    _report("criterion 3: bound eps+3*delta to 1e-9, extrapolation returns eps", ok)


def _klein_pl_search(a: float, b: float, segments: int = 4, levels: int = 9) -> float:
    """Coarse oracle: doubled length of the best piecewise-linear loop with
    x-winding one, brute-forced over a grid of node heights."""
    ys = np.linspace(-b / 2, b / 2, levels)
    dx = a / segments
    best = math.inf
    for y0 in ys:
        for interior in itertools.product(ys, repeat=segments - 1):
            nodes = [y0, *interior, -y0]  # endpoint flips under the gluing
            length = sum(
                math.hypot(dx, nodes[i + 1] - nodes[i]) for i in range(segments)
            )
            best = min(best, 2.0 * length)
    return best


def test_criterion_4_klein_bottle():
    ok = True
    for a, b in ((1.0, 1.0), (0.5, 2.0)):
        bound = compute_bounds(klein_bottle_scenario(a, b))[0].upper_bound
        ok &= abs(bound - 2 * a) <= 1e-6
        oracle = _klein_pl_search(a, b)
        ok &= abs(oracle - 2 * a) <= 1e-9
        ok &= bound <= oracle + 1e-6
    _report("criterion 4: non-orientable bound 2a matches the coarse loop search", ok)


def test_criterion_5_property_suites():
    ok = True
    rng = np.random.default_rng(0)

    # support homogeneity
    dom = ellipsoid_domain(2, 0.7)
    for _ in range(1000):
        qc = rng.standard_normal(3)
        qc /= np.linalg.norm(qc)
        w = rng.standard_normal(3)
        w -= (w @ qc) * qc
        lam = rng.uniform(0.0, 10.0)
        q = BasePoint(qc, "embedding")
        s1 = float(support(dom, q, TangentVector(lam * w, q)))
        s0 = float(support(dom, q, TangentVector(w, q)))
        ok &= abs(s1 - lam * s0) <= 1e-9 * (1.0 + lam * s0)

    # reparametrization invariance and concatenation additivity
    def equator_point(t):
        ang = TWO_PI * t
        return BasePoint(np.array([0.0, math.cos(ang), math.sin(ang)]), "embedding")

    def equator_deriv(t):
        ang = TWO_PI * t
        return TangentVector(
            np.array([0.0, -TWO_PI * math.sin(ang), TWO_PI * math.cos(ang)]),
            equator_point(t),
        )

    loop = Loop(equator_point, equator_deriv)
    ell = loop_length(dom, loop)
    warped = Loop(lambda t: equator_point(t + 0.12 * math.sin(TWO_PI * t) / TWO_PI))
    ok &= abs(loop_length(dom, warped) - ell) <= 1e-6 * (1.0 + ell)

    from stringcap.loops import concatenate, reverse

    both = concatenate(loop, reverse(loop))
    ok &= abs(loop_length(dom, both) - 2 * ell) <= 1e-7 * (1.0 + 2 * ell)

    # domain monotonicity of the supremum
    s_small = ellipsoid_scenario(2, 0.4)
    s_big = ellipsoid_scenario(2, 0.8)
    plan = SamplePlan(count=2000, seed=1)
    ok &= bool(domain_contains(s_small.domain, s_big.domain, plan))
    rep_small = extremal_lengths(s_small.domain, s_small.families["L+"])
    rep_big = extremal_lengths(s_big.domain, s_big.families["L+"])
    ok &= rep_small.E <= rep_big.E + 1e-6

    # star filtration additivity on 1000 random terms
    symbols = ["E+", "E-", "e+", "e-"]
    for _ in range(1000):
        c1, c2 = rng.uniform(0, 5, 2)
        s1 = tuple(sorted(rng.choice(symbols, rng.integers(0, 3))))
        s2 = tuple(sorted(rng.choice(symbols, rng.integers(0, 3))))
        x = FilteredClass(LoopCycle(f"g{rng.integers(50)}"), FiltExpr(float(c1), s1))
        y = FilteredClass(LoopCycle(f"h{rng.integers(50)}"), FiltExpr(float(c2), s2))
        out = star(x, y)
        ok &= out.filtration.const == pytest.approx(c1 + c2)
        ok &= out.filtration.symbols == tuple(sorted(s1 + s2))
        ok &= delta(x).filtration == x.filtration

    # certificate replay on all five catalog derivations
    derivations = [
        (ellipsoid_scenario(2, 0.5), "[pt]"),
        (ellipsoid2_scenario(3, 0.4), "[pt]"),
        (camel_scenario(2, 0.4, 0.01), "[T^k]"),
        (klein_bottle_scenario(1.0, 1.0), "[Sigma]"),
        (open_book_scenario("circle", 1.0, 1.0, 1.0), "[V]"),
    ]
    certs = []
    for scenario, tname in derivations:
        cert = derive_certificate(scenario, scenario.target(tname))
        certs.append(cert)
        ok &= check_certificate(cert).passed

    # mutation tests: tampered certificates fail
    from stringcap.stralg import ConclusionFactor, fnum

    for cert in certs:
        steps = list(cert.steps)
        bad = dataclasses.replace(
            steps[0], output=dataclasses.replace(steps[0].output, filtration=fnum(0.0))
        )
        tampered = dataclasses.replace(cert, steps=tuple([bad] + steps[1:]))
        ok &= not check_certificate(tampered).passed
        shapeless = dataclasses.replace(cert, factors=(ConclusionFactor("iota", "x"),))
        ok &= not check_certificate(shapeless).passed

    _report("criterion 5: property suites and mutation tests", ok)


def test_criterion_6_frame_family():
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(3)
    from stringcap.frames import sphere_unitary_frame

    for n in (1, 2, 3):
        for _ in range(1000):
            q = rng.standard_normal(n + 1)
            q /= np.linalg.norm(q)
            f = sphere_unitary_frame(n, q)
            ok &= f.unitarity_residual <= 1e-10
            ok &= f.basepoint_residual <= 1e-10
        r1 = verify_frame_family(n, mesh=1e-3, count=150, seed=0)
        r2 = verify_frame_family(n, mesh=5e-4, count=150, seed=0)
        r3 = verify_frame_family(n, mesh=2.5e-4, count=150, seed=0)
        ok &= abs(r2.continuity_modulus - r1.continuity_modulus) < 0.1 * r1.continuity_modulus
        ok &= abs(r3.continuity_modulus - r2.continuity_modulus) < 0.1 * r2.continuity_modulus
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(f"criterion 6: frame residuals and continuity stability in {elapsed:.1f}s", ok)


def test_criterion_7_round_in_stretched_containment():
    ok = True
    for a in (0.2, 0.5, 1.0):
        res = domain_contains(
            ellipsoid_round_domain(2, a),
            ellipsoid_domain(2, a),
            SamplePlan(count=10_000, seed=0),
        )
        ok &= bool(res)
    _report("criterion 7: scaled round codisk sits inside the stretched codisk", ok)
