"""Span tracing for the benchmark, kept outside the package.

The traced run wraps each layer's public functions at the module attribute the
caller looks up (``bounds`` and ``cli`` import several of them by name, so
those names are wrapped too) and wraps the support oracle of every domain an
op uses.  Spans record name, start, end, parent and op id, stay in memory and
are written out once at the end.  Support-oracle calls are too many to keep as
spans (about 48k per ellipsoid1 n=3 bound), so they are counted and timed on
the innermost open span instead.

Each per-layer metric, and the end-to-end metric it is predicted to move on
which workload, is listed in ``PREDICTIONS``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import defaultdict

from stringcap import bounds, catalog, cli, frames, gauge, loops

# per-layer metric -> (end-to-end metrics it should move, workloads it runs on)
PREDICTIONS = {
    "gauge.support_calls": ("ops_per_s, op_p50_ms, op_p90_ms", "paper_bounds"),
    "gauge.support_s": ("ops_per_s, op_p50_ms, op_p90_ms", "paper_bounds"),
    "gauge.contains_samples": ("op_p50_ms", "verify_checks"),
    "gauge.contains_s": ("op_p50_ms", "verify_checks"),
    "loops.length_calls": ("ops_per_s, op_p50_ms", "paper_bounds, verify_checks"),
    "loops.length_s": ("ops_per_s, op_p50_ms", "paper_bounds, verify_checks"),
    "loops.length_self_s": ("ops_per_s, op_p50_ms", "paper_bounds, verify_checks"),
    "loops.samples_per_length": ("op_p50_ms", "paper_bounds, verify_checks"),
    "loops.extremal_calls": ("op_p90_ms", "paper_bounds"),
    "loops.extremal_s": ("op_p90_ms (2-D Nelder-Mead ops make the tail)", "paper_bounds"),
    "loops.grid_lengths": ("op_p90_ms", "paper_bounds"),
    "loops.refine_lengths": ("op_p90_ms", "paper_bounds"),
    "loops.refine_gain_frac": ("none directly; useful-work ratio", "paper_bounds"),
    "catalog.build_calls": ("op_p50_ms, ops_per_s, setup_s", "certify_cli"),
    "catalog.build_s": ("op_p50_ms, ops_per_s, setup_s", "certify_cli"),
    "cli.main_calls": ("op_p50_ms, ops_per_s", "certify_cli"),
    "cli.main_s": ("op_p50_ms, ops_per_s", "certify_cli"),
    "cli.self_s": ("op_p50_ms, ops_per_s", "certify_cli"),
    "stralg.derive_calls": ("op_p50_ms, at most about 2% of it", "certify_cli"),
    "stralg.derive_s": ("op_p50_ms, at most about 2% of it", "certify_cli"),
    "stralg.check_calls": ("op_p50_ms, at most about 2% of it", "certify_cli"),
    "stralg.check_s": ("op_p50_ms, at most about 2% of it", "certify_cli"),
    "stralg.cert_steps": ("op_p50_ms, at most about 2% of it", "certify_cli"),
    "bounds.compute_calls": ("op_p50_ms", "paper_bounds"),
    "bounds.compute_s": ("op_p50_ms", "paper_bounds"),
    "bounds.self_s": ("op_p50_ms; expected small", "paper_bounds"),
    "bounds.max_rel_err": ("none; accuracy headroom", "paper_bounds"),
    "frames.frame_calls": ("op_p50_ms", "verify_checks"),
    "frames.frame_s": ("op_p50_ms", "verify_checks"),
    "frames.verify_s": ("op_p50_ms", "verify_checks"),
    "trace.ops": ("none; the base of every per-op figure", "all"),
    "trace.overhead_frac": ("none; traced over untraced time of the same ops", "all"),
}


class Span:
    __slots__ = ("name", "index", "parent", "op", "start", "end", "calls", "support_ns",
                 "child_ns", "info")

    def __init__(self, name: str, index: int, parent: int, op: int):
        self.name = name
        self.index = index
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.calls = 0  # support-oracle calls made directly inside this span
        self.support_ns = 0
        self.child_ns = 0  # time covered by child spans and support calls
        self.info = 0  # per-name extra: grid points, certificate steps

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class NoTrace:
    """The untraced run: domains and ops pass through unchanged."""

    def domain(self, domain):
        return domain

    def op(self, index: int):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.refined = 0  # extrema refined by a local search
        self.gained = 0  # ... where the search beat the grid value
        self._op = -1
        self._wrapped: list[tuple] = []  # (module, attr, original, traced)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, len(spans), stack[-1].index if stack else -1, self._op)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_ns += span.duration_ns
            return after(span, args, kwargs, result) if after else result

        return traced

    def domain(self, domain):
        """``domain`` with a support oracle that counts and times its calls."""
        oracle, stack, clock = domain.support_oracle, self.stack, time.perf_counter_ns

        def traced_oracle(q, v):
            t0 = clock()
            out = oracle(q, v)
            dt = clock() - t0
            top = stack[-1]
            top.calls += 1
            top.support_ns += dt
            top.child_ns += dt
            return out

        return dataclasses.replace(domain, support_oracle=traced_oracle)

    def _after_build(self, span, args, kwargs, scenario):
        return dataclasses.replace(scenario, domain=self.domain(scenario.domain))

    def _after_extremal(self, span, args, kwargs, report):
        family = kwargs["family"] if "family" in kwargs else args[1]
        span.info = len(list(family.grid.points()))
        for h in report.refinement_history:
            if h["evals"] > 0:
                self.refined += 1
                better = h["refined"] > h["grid"] if h["extremum"] == "sup" else h["refined"] < h["grid"]
                self.gained += bool(better)
        return report

    def _after_check(self, span, args, kwargs, report):
        span.info = len(report.steps)
        return report

    def _targets(self):
        return (
            (catalog, "build_scenario", "catalog.build", self._after_build),
            (bounds, "compute_bounds", "bounds.compute", None),
            (bounds, "extremal_lengths", "loops.extremal", self._after_extremal),
            (loops, "loop_length", "loops.length", None),
            (bounds, "derive_certificate", "stralg.derive", None),
            (cli, "derive_certificate", "stralg.derive", None),
            (bounds, "check_certificate", "stralg.check", self._after_check),
            (cli, "check_certificate", "stralg.check", self._after_check),
            (cli, "main", "cli.main", None),
            (frames, "sphere_unitary_frame", "frames.frame", None),
            (frames, "verify_frame_family", "frames.verify", None),
            (gauge, "domain_contains", "gauge.contains", None),
        )

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced functions in for the duration of the block."""
        if not self._wrapped:
            for module, attr, name, after in self._targets():
                fn = getattr(module, attr)
                self._wrapped.append((module, attr, fn, self._wrap(fn, name, after)))
        for m, attr, _, traced in self._wrapped:
            setattr(m, attr, traced)
        try:
            yield self
        finally:
            for m, attr, fn, _ in reversed(self._wrapped):
                setattr(m, attr, fn)

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one op; support calls outside any layer land here."""
        self._op = index
        root = Span("op", len(self.spans), -1, index)
        self.spans.append(root)
        self.stack.append(root)
        root.start = time.perf_counter_ns()
        try:
            yield
        finally:
            root.end = time.perf_counter_ns()
            self.stack.pop()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer figures over ``ops`` traced ops: counts and seconds per
        op, plus the ratios named in ``PREDICTIONS``."""
        count = defaultdict(int)
        busy = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        grid = refine = 0
        steps = 0
        for s in self.spans:
            count[s.name] += 1
            busy[s.name] += s.duration_ns
            own[s.name] += s.self_ns
            calls[s.name] += s.calls
            if s.name == "loops.extremal":
                grid += s.info
            elif s.name == "loops.length" and s.parent >= 0 and self.spans[s.parent].name == "loops.extremal":
                refine += 1
            elif s.name == "stralg.check":
                steps += s.info
        refine -= grid
        support_calls = sum(calls.values())
        support_ns = sum(s.support_ns for s in self.spans)
        per_op = 1.0 / max(ops, 1)

        def secs(ns):
            return ns * 1e-9 * per_op

        return {
            "gauge.support_calls": support_calls * per_op,
            "gauge.support_s": secs(support_ns),
            "gauge.contains_samples": calls["gauge.contains"] / 2 * per_op,
            "gauge.contains_s": secs(busy["gauge.contains"]),
            "loops.length_calls": count["loops.length"] * per_op,
            "loops.length_s": secs(busy["loops.length"]),
            "loops.length_self_s": secs(own["loops.length"]),
            "loops.samples_per_length": calls["loops.length"] / max(count["loops.length"], 1),
            "loops.extremal_calls": count["loops.extremal"] * per_op,
            "loops.extremal_s": secs(busy["loops.extremal"]),
            "loops.grid_lengths": grid * per_op,
            "loops.refine_lengths": refine * per_op,
            "loops.refine_gain_frac": self.gained / max(self.refined, 1),
            "catalog.build_calls": count["catalog.build"] * per_op,
            "catalog.build_s": secs(busy["catalog.build"]),
            "cli.main_calls": count["cli.main"] * per_op,
            "cli.main_s": secs(busy["cli.main"]),
            "cli.self_s": secs(own["cli.main"]),
            "stralg.derive_calls": count["stralg.derive"] * per_op,
            "stralg.derive_s": secs(busy["stralg.derive"]),
            "stralg.check_calls": count["stralg.check"] * per_op,
            "stralg.check_s": secs(busy["stralg.check"]),
            "stralg.cert_steps": steps * per_op,
            "bounds.compute_calls": count["bounds.compute"] * per_op,
            "bounds.compute_s": secs(busy["bounds.compute"]),
            "bounds.self_s": secs(own["bounds.compute"]),
            "frames.frame_calls": count["frames.frame"] * per_op,
            "frames.frame_s": secs(busy["frames.frame"]),
            "frames.verify_s": secs(busy["frames.verify"]),
        }

    def write(self, path, header: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0
        rows = [
            [s.name, s.start - t0, s.end - t0, s.parent, s.op, s.calls, s.support_ns]
            for s in self.spans
        ]
        doc = dict(header, columns=["name", "start_ns", "end_ns", "parent", "op",
                                    "support_calls", "support_ns"], spans=rows)
        path.write_text(json.dumps(doc))
