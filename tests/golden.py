"""Golden outputs: the bounds and family reports of every reference
configuration and of seeded configurations of the paper_bounds benchmark
workload, the ``reproduce all`` table, the message, t and params of a fixed
list of failing inputs, and the non-bound checks (seeded containment plans
and frame families), as ``tests/golden.json``.

``payload()`` computes them, with every float written as ``float.hex``, and
records the numpy version and CPU features they were computed under: numpy's
float64 ``sin``, ``cos`` and ``exp`` pick SIMD kernels by CPU feature and may
change between versions, so another platform may differ in the last bits.
``tests/test_golden.py`` recomputes the payload and compares it with the file.

Rewrite the file from a checkout with

    PYTHONPATH=src python tests/golden.py

and say in the change log which fields moved and why.  To list them first,

    PYTHONPATH=src python tests/golden.py --diff

prints every leaf that differs between the file and a recompute, with its
path, old value, new value and, for two numbers, their distance in units in
the last place; it writes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from stringcap import cli
from stringcap.bounds import compute_bounds
from stringcap.catalog import (
    REFERENCE_CASES,
    SCENARIOS,
    build_scenario,
    camel_scenario,
    ellipsoid_domain,
    ellipsoid_round_domain,
    flat_torus_domain,
    klein_bottle_scenario,
    product_torus_scenario,
)
from stringcap.errors import InfiniteLengthError
from stringcap.frames import verify_frame_family
from stringcap.gauge import BaseDescriptor, GaugeDomain, SamplePlan, domain_contains
from stringcap.loops import (
    GridAxis,
    Loop,
    LoopFamily,
    ParamGrid,
    QuadratureSpec,
    extremal_lengths,
    family_lengths,
    loop_length,
)

PATH = Path(__file__).with_name("golden.json")

# on another platform a float may move by this many units in the last place
# of max(|x|, 1): the last bits of a SIMD sin or cos, summed by the trapezoid
# rule, and a deviation from a closed form that is itself a few ulp
ULPS = 64


# the kinds of the paper_bounds benchmark workload, drawn in turn from this
# seed with that workload's parameter ranges; they are drawn here so that the
# test does not depend on the benchmark's code
PAPER_BOUNDS_KINDS = ("ellipsoid1:2", "ellipsoid1:3", "ellipsoid2:3", "ellipsoid2:4", "camel:2", "camel:3", "klein")
PAPER_BOUNDS_COUNT = 49
PAPER_BOUNDS_SEED = 20261019


def _draw(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def paper_bounds_configs() -> list[dict]:
    rng = np.random.default_rng(PAPER_BOUNDS_SEED)
    out = []
    for i in range(PAPER_BOUNDS_COUNT):
        name, _, n = PAPER_BOUNDS_KINDS[i % len(PAPER_BOUNDS_KINDS)].partition(":")
        if name == "ellipsoid1":
            out.append({"scenario": name, "n": int(n), "a": _draw(rng, 0.2, 1.0)})
        elif name == "ellipsoid2":
            out.append({"scenario": name, "n": int(n), "a": _draw(rng, 0.4, 1.0)})
        elif name == "camel":
            delta = round(10.0 ** float(rng.uniform(-3.0, -1.0)), 6)
            out.append({"scenario": name, "n": int(n), "eps": _draw(rng, 0.4, 1.0), "delta": delta})
        else:
            out.append({"scenario": name, "a": _draw(rng, 0.5, 1.0), "b": _draw(rng, 1.0, 2.0)})
    return out


def configs() -> list[dict]:
    """Every ``REFERENCE_CASES`` configuration, the seven default forms (each
    ``SCENARIOS`` name with its defaults, and the closed-page open book), and
    the seeded paper_bounds configurations."""
    defaults = [{"scenario": name} for name in SCENARIOS] + [{"scenario": "open_book", "page": "circle"}]
    return [case.config for case in REFERENCE_CASES] + defaults + paper_bounds_configs()


def platform() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__

    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _hex(x):
    """``x`` with every float as its ``float.hex`` string and every array as a list."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return _hex(x.tolist())
    if isinstance(x, dict):
        return {str(k): _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


def _scenario_outputs(config: dict) -> dict:
    bounds = compute_bounds(build_scenario(config))
    return {
        "config": config,
        "bounds": {b.target.name: b.to_jsonable() for b in bounds},
        "families": {
            name: {
                "E": r.E,
                "e": r.e,
                "argmax_params": r.argmax_params,
                "argmin_params": r.argmin_params,
                "refinement_history": r.refinement_history,
            }
            for name, r in bounds[0].family_reports.items()
        },
    }


def _reproduce_all() -> list[dict]:
    """The rows of ``stringcap reproduce all``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reproduce", "all"])
    if code != cli.EXIT_OK:
        raise AssertionError(f"reproduce all exited {code}")
    return list(csv.DictReader(io.StringIO(out.getvalue())))


def _failures() -> dict:
    """The message, t and params of the ``InfiniteLengthError`` of each
    failing input: a length past the float range, a family row whose support
    is infinite, a window of infinite support 0.02 wide that the levels of 64
    panels hit, and three grids whose failing row is not the first failure
    the rule meets: a NaN support at a level-1 sample, an earlier row whose
    window only level 2 hits ahead of a later row that fails at t = 0, and
    an infinite row ahead of an overflowing one."""
    camel = camel_scenario(2, 0.4, 0.01)
    coarse = QuadratureSpec(panels=8)

    def diagonal(P, ts):
        shape = (P.shape[0], ts.shape[0], 2)
        return np.broadcast_to(ts[None, :, None], shape), np.ones(shape)

    def window(ts):
        c = np.cos(2.0 * math.pi * (ts - 0.6)) - math.cos(2.0 * math.pi * 0.01)
        return np.broadcast_to([0.2, 0.3], (ts.shape[0], 2)), np.stack([np.zeros_like(c), c], axis=1)

    def vertical(P, ts):
        # t -> (u, v, t) at parameters (u, v)
        q = np.empty((P.shape[0], ts.shape[0], 3))
        q[:, :, :2] = P[:, None, :]
        q[:, :, 2] = ts
        v = np.zeros_like(q)
        v[:, :, 2] = 1.0
        return q, v

    def torus(scale):
        # the flat-torus norm on (u, v, t), scaled by scale(u, v, t)
        def oracle(q, v):
            w = v.components
            return scale(*q.coords.T) * np.sqrt((w * w).sum(axis=1))

        return GaugeDomain(BaseDescriptor("torus", 3, ("torus",)), oracle)

    def windows(P, ts):
        # velocity (0, exp(4 (cos 2 pi (t - p0) - 1)) - p1): infinite support
        # on a window around p0 when p1 < 1
        v = np.zeros((P.shape[0], ts.shape[0], 2))
        v[:, :, 1] = np.exp(4.0 * (np.cos(2.0 * math.pi * (ts - P[:, :1])) - 1.0)) - P[:, 1:2]
        return np.broadcast_to([0.2, 0.3], v.shape), v

    nan_torus = torus(lambda u, v, t: np.where((u > 0.5) & (t == 0.0625), np.nan, 1.0))
    overflow_torus = torus(lambda u, v, t: np.where(u > 0.9, np.inf, np.where(u > 0.5, 1e308, 1.0)))
    u_axis = GridAxis(0.0, 1.0, 4)
    nan_rows = LoopFamily("vertical", ParamGrid((u_axis, GridAxis(0.0, 1.0, 2))), vertical, "torus")
    overflow_rows = LoopFamily("vertical", ParamGrid((u_axis, GridAxis(0.0, 0.0, 1))), vertical, "torus")
    level = math.exp(4.0 * (math.cos(2.0 * math.pi * 0.012) - 1.0))
    runs = {
        "overflowing length": lambda: compute_bounds(product_torus_scenario(2, 1, 1e308)),
        "infinite family row": lambda: extremal_lengths(
            camel.domain, LoopFamily("diag", ParamGrid((GridAxis(0.0, 1.0, 3),)), diagonal, "camel")
        ),
        "narrow window at 64 panels": lambda: loop_length(
            camel.domain, Loop(samples=window, chart="camel"), QuadratureSpec(panels=64)
        ),
        "NaN support at a level-1 sample": lambda: family_lengths(
            nan_torus, nan_rows, nan_rows.grid.points(), coarse
        ),
        "earlier row failing at a later level": lambda: family_lengths(
            camel.domain,
            LoopFamily("window", ParamGrid(()), windows, "camel"),
            np.array([[0.5, 1.2], [0.09875, level], [0.0, 0.5]]),
            coarse,
        ),
        "infinite row ahead of an overflowing row": lambda: family_lengths(
            overflow_torus, overflow_rows, overflow_rows.grid.points()[::-1], coarse
        ),
    }
    out = {}
    for name, run in runs.items():
        try:
            run()
        except InfiniteLengthError as exc:
            out[name] = {"message": str(exc), "t": exc.t, "params": exc.params}
        else:
            raise AssertionError(f"{name}: no InfiniteLengthError")
    return out


def _larger_where(domain: GaugeDomain, threshold: float) -> GaugeDomain:
    """``domain`` scaled up by half where the first vector component exceeds
    ``threshold``: a violation that turns up some way into a plan."""
    oracle = domain.support_oracle
    return GaugeDomain(domain.base, lambda q, v: np.where(v.components[:, 0] > threshold, 1.5, 1.0) * oracle(q, v))


def _checks() -> dict:
    """The result and witness (q, v, inner and outer support) of seeded
    containment plans on the sphere, both contained and not, and on flat
    torus and Klein bases; and the frame family's report for n = 1, 2, 3."""
    sphere2, sphere3 = ellipsoid_domain(2, 0.5), ellipsoid_domain(3, 0.7)
    torus, klein = flat_torus_domain(2, radius=1.0), klein_bottle_scenario(1.0, 1.0).domain
    plans = {
        "sphere n=2 round in stretched a=0.3": (ellipsoid_round_domain(2, 0.3), ellipsoid_domain(2, 0.3), 2000, 1),
        "sphere n=3 round in stretched a=0.7": (ellipsoid_round_domain(3, 0.7), sphere3, 10_000, 2),
        "sphere n=2 a=0.8 in a=0.4": (ellipsoid_domain(2, 0.8), ellipsoid_domain(2, 0.4), 2000, 3),
        "sphere n=3 a=0.9 in a=0.5": (ellipsoid_domain(3, 0.9), ellipsoid_domain(3, 0.5), 10_000, 4),
        "sphere n=2 larger past 1": (_larger_where(sphere2, 1.0), sphere2, 2000, 5),
        "sphere n=2 larger past 2.5": (_larger_where(sphere2, 2.5), sphere2, 10_000, 6),
        "sphere n=3 larger past 3.2": (_larger_where(sphere3, 3.2), sphere3, 10_000, 7),
        "torus radius 1 in 1.1": (torus, flat_torus_domain(2, radius=1.1), 2000, 8),
        "torus radius 1.1 in 1": (flat_torus_domain(2, radius=1.1), torus, 2000, 9),
        "torus larger past 3.2": (_larger_where(torus, 3.2), torus, 10_000, 10),
        "klein in itself": (klein, klein, 2000, 11),
        "klein larger past 3": (_larger_where(klein, 3.0), klein, 10_000, 12),
    }
    containment = {}
    for name, (inner, outer, count, seed) in plans.items():
        res = domain_contains(inner, outer, SamplePlan(count, seed))
        out = {"contained": res.contained}
        if not res.contained:
            q, v, si, so = res.witness
            out.update(q=q.coords, v=v.components, si=si, so=so)
        containment[name] = out
    frames = {}
    for n, seed in ((1, 13), (2, 14), (3, 15)):
        r = verify_frame_family(n, mesh=1e-3, count=200, seed=seed)
        frames[f"n={n} seed={seed}"] = {
            "count": r.count,
            "checked": r.checked,
            "max_unitarity_residual": r.max_unitarity_residual,
            "max_basepoint_residual": r.max_basepoint_residual,
            "continuity_modulus": r.continuity_modulus,
        }
    return {"containment": containment, "frames": frames}


def payload() -> dict:
    scenarios = {}
    for config in configs():
        outputs = _scenario_outputs(config)
        scenarios.setdefault(next(iter(outputs["bounds"].values()))["scenario"], outputs)
    return {
        "platform": platform(),
        "outputs": _hex(
            {"scenarios": scenarios, "reproduce_all": _reproduce_all(), "failures": _failures(), "checks": _checks()}
        ),
    }


def _number(s: str):
    """``s`` read as a decimal or a ``float.hex`` float, or None."""
    for parse in (float, float.fromhex):
        try:
            return parse(s)
        except ValueError:
            pass
    return None


def _same(got, want, ulps) -> bool:
    if got == want:
        return True
    if ulps is None or not (isinstance(got, str) and isinstance(want, str)):
        return False
    x, y = _number(got), _number(want)
    return x is not None and y is not None and abs(x - y) <= ulps * math.ulp(max(abs(x), abs(y), 1.0))


def differences(got, want, ulps=None, path: str = ""):
    """(path, got, want) of every field in which ``got`` differs from
    ``want``, in file order: bit for bit when ``ulps`` is None, otherwise
    numbers within ``ulps`` units in the last place of max(|x|, 1).  Dicts
    with other keys and lists of other lengths differ as a whole, at
    ``path/<keys>`` or ``path/<length>``."""
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            yield (path + "/<keys>", list(got), list(want))
            return
        pairs = [(f"{path}/{k}", got[k], want[k]) for k in want]
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield (path + "/<length>", len(got), len(want))
            return
        pairs = [(f"{path}/{i}", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        if not _same(got, want, ulps):
            yield (path, got, want)
        return
    for sub, g, w in pairs:
        yield from differences(g, w, ulps, sub)


def first_difference(got, want, ulps=None):
    """The first of ``differences(got, want, ulps)``, or None."""
    return next(differences(got, want, ulps), None)


def _ordered(x: float) -> int:
    """An int that orders like ``x`` and steps by 1 from each float to the
    next: the bits of x, with the negative floats counted down from 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(x: float, y: float):
    """How many floats apart x and y lie, or None if either is not finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(_ordered(x) - _ordered(y))


def diff_lines(got: dict, want: dict) -> list[str]:
    """One tab-separated line (path, old value, new value, ulp distance) per
    leaf of the outputs that moved from ``want`` (the file) to ``got`` (a
    recompute).  A number is read and shown as a decimal float, whether the
    file holds it as ``float.hex`` or, in the ``reproduce all`` rows, as a
    decimal, and it moved only if its value did."""

    def shown(x):
        number = _number(x) if isinstance(x, str) else None
        return (repr(x), None) if number is None else (repr(number), number)

    lines = []
    for path, new, old in differences(got["outputs"], want["outputs"], ulps=0):
        (old_text, x), (new_text, y) = shown(old), shown(new)
        ulps = None if x is None or y is None else ulp_distance(x, y)
        lines.append("\t".join([path, old_text, new_text, "-" if ulps is None else str(ulps)]))
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Rewrite tests/golden.json, or list what moved.")
    parser.add_argument("--diff", action="store_true", help="list every moved leaf and write nothing")
    args = parser.parse_args(argv)
    got = payload()
    if not args.diff:
        PATH.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {PATH}")
        return
    want = json.loads(PATH.read_text())
    if got["platform"] != want["platform"]:
        print(f"platform: file written under {want['platform']}, recomputed under {got['platform']}")
    lines = diff_lines(got, want)
    print("path\told\tnew\tulps", *lines, f"{len(lines)} leaves moved", sep="\n")


if __name__ == "__main__":
    main()
