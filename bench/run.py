"""stringcap benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload, as a table

One process, one client, closed loop: the next op starts when the previous
one has returned and been checked.  No threads; ``STRINGCAP_THREADS`` must be
unset or 1.  The package is imported from ``src/`` of the checkout this file
sits in.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
throughput, median and p90 latency and peak memory of ops run for
``--seconds`` after one warm-up round, and the median set-up time
(interpreter start, ``import stringcap`` and input generation) of several
fresh processes started one at a time, spread over the measured seconds.  With
``--trace 1`` it runs every op twice back to back, untraced and with every
layer traced, checks that the op's output is identical in both, and reports
the per-layer metrics of BENCHMARK.json plus the tracing overhead.

Op times are given at a reference host speed.  A shared host switches between
fast and slow spells that last from seconds to minutes, and a slow spell makes
every op up to twice as slow (on a 2-vCPU host, a fixed op took 80-180 ms
within two minutes).  So between ops, at least every ``CALIBRATE_EVERY_S``,
the run times a fixed calibration kernel that uses none of stringcap's code,
and each op's latency is scaled by ``REFERENCE_KERNEL_S`` over the mean kernel
time around that op.  A change to stringcap moves the scaled times as it moves
the raw ones; a change of host speed moves both the op and the kernel and
cancels.  The raw figures are in the metadata line.

Every op passes through its workload's correctness gate; a failure is counted,
reported on standard error and never filtered out.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 5
CALIBRATE_EVERY_S = 0.1  # longest wait for the next calibration kernel while ops run
CALIBRATE_AROUND_S = 0.5  # kernels this close to an op set its scale
REFERENCE_KERNEL_S = 2.0e-3  # calibration kernel time in a fast spell of a 2-vCPU x86-64 host
WARMUP, MEASURED = 1, 0  # input streams drawn from one seed
EXIT_REFUSED = 2


@dataclass
class Record:
    op: object
    latency_s: float
    outcome: object
    start: float = 0.0  # perf_counter at the call


def calibration_kernel() -> float:
    """Seconds taken by a fixed loop of small numpy and math calls, the shape
    of stringcap's per-sample oracle work, but none of its code."""
    import numpy as np

    v = np.linspace(0.1, 1.0, 6)
    m = np.eye(6) * 0.9 + 0.01
    s = 0.0
    t0 = time.perf_counter()
    for i in range(400):
        w = m @ v
        s += float(np.sqrt(w @ w)) + math.sin(i)
        v = w / (1.0 + 1e-3 * s)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration kernel times through a run, to scale op times by."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter when each kernel finished
        self.kernel_s: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.kernel_s.append(calibration_kernel())
        self.at.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed for a span: ``REFERENCE_KERNEL_S``
        over the mean time of the kernels within ``CALIBRATE_AROUND_S`` of it,
        or of the nearest kernel if none is that close."""
        lo = bisect.bisect_left(self.at, start - CALIBRATE_AROUND_S)
        hi = bisect.bisect_right(self.at, end + CALIBRATE_AROUND_S)
        near = self.kernel_s[lo:hi]
        if not near:
            i = min(lo, len(self.at) - 1)
            if i > 0 and start - self.at[i - 1] < self.at[i] - end:
                i -= 1
            near = [self.kernel_s[i]]
        return REFERENCE_KERNEL_S / statistics.fmean(near)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_bench():
    """The bench modules import stringcap, so put the checkout's src first."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    return workloads, tracing


def seeded_rng(seed: int, stream: int):
    """Independent generators for the warm-up round and the measured ops."""
    import numpy as np

    return np.random.default_rng([seed, stream])


def op_stream(workload, rng):
    """Endless sequence of ops, one round of every kind at a time."""
    while True:
        yield from workload.round(rng)


def execute(workload, op, hooks, index: int) -> Record:
    """Time one call into stringcap, then check what it returned."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        with hooks.op(index):
            result = workload.call(op, hooks)
    except Exception as exc:  # a failed op is counted, never fatal
        latency = time.perf_counter() - t0
        detail = f"raised {type(exc).__name__}: {exc}"
        return Record(op, latency, Outcome(False, detail, detail), t0)
    latency = time.perf_counter() - t0
    try:
        outcome = workload.check(op, result)
    except Exception as exc:
        detail = f"check raised {type(exc).__name__}: {exc}"
        outcome = Outcome(False, detail, detail)
    return Record(op, latency, outcome, t0)


def measure(workload, ops, hooks, seconds: float, probe=None, probes: int = 0):
    """Closed loop over ``ops`` until ``seconds`` have passed, with a
    calibration kernel between ops and ``probes`` calls of ``probe`` spread
    evenly over the time, the first before any op and each followed by an op.
    Returns the records, the kernel times, the elapsed time and what the
    probes returned."""
    records, probed = [], []
    speed = HostSpeed()
    t0 = time.perf_counter()
    while (now := time.perf_counter() - t0) < seconds:
        if len(probed) < probes and now >= len(probed) * seconds / probes:
            probed.append(probe())
        records.append(execute(workload, next(ops), hooks, len(records)))
        speed.maybe_sample()
    elapsed = time.perf_counter() - t0
    speed.sample()
    probed += [probe() for _ in range(probes - len(probed))]
    return records, speed, elapsed, probed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def summarize(records: list[Record], speed: HostSpeed, elapsed: float) -> dict:
    """End-to-end figures from op latencies scaled to the reference speed.

    Throughput is ops over the scaled time spent in them; the percentiles are
    over every op of the run.
    """
    raw = [r.latency_s for r in records]
    scales = [speed.scale(r.start, r.start + r.latency_s) for r in records]
    lat = [t * k for t, k in zip(raw, scales)]
    p90 = quantile(lat, 90)
    return {
        "metrics": {
            "ops_per_s": len(lat) / math.fsum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": len(lat),
        "beyond_p90": sum(x > p90 for x in lat),
        "raw": {
            "ops_per_s": len(raw) / math.fsum(raw),
            "op_p50_ms": 1e3 * statistics.median(raw),
            "op_p90_ms": 1e3 * quantile(raw, 90),
            "wall_ops_per_s": len(raw) / elapsed,
        },
        "host_scale": {"median": statistics.median(scales), "min": min(scales), "max": max(scales),
                       "kernels": len(speed.kernel_s)},
        "elapsed_s": elapsed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path = WORKDIR,
                 setup_probes: int = 0) -> dict:
    """Warm up, measure, and return end-to-end or per-layer figures; an
    untraced run also times ``setup_probes`` fresh set-ups while it measures."""
    workloads, tracing = _import_bench()
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](workdir)
    warm = [execute(workload, op, tracing.NoTrace(), -1) for op in workload.round(seeded_rng(seed, WARMUP))]
    ops = op_stream(workload, seeded_rng(seed, MEASURED))
    out = {"warmup_failed": [r.outcome.detail for r in warm if not r.outcome.ok]}
    if not trace:
        records, speed, elapsed, setup = measure(workload, ops, tracing.NoTrace(), seconds,
                                                 lambda: time_setup(name, seed), setup_probes)
        out.update(summarize(records, speed, elapsed), records=records, setup=setup)
        return out

    # each op runs untraced and traced back to back, in alternating order, so
    # that warm-up drift and second-run effects cancel out of the overhead
    tracer, untraced = tracing.Tracer(), tracing.NoTrace()
    plain, traced = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        op, i = next(ops), len(plain)
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side:
                with tracer.installed():
                    traced.append(execute(workload, op, tracer, i))
            else:
                plain.append(execute(workload, op, untraced, i))
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.outcome.digest != b.outcome.digest]
    metrics = tracer.layer_metrics(len(traced))
    metrics["bounds.max_rel_err"] = max(r.outcome.rel_err for r in traced)
    metrics["trace.ops"] = float(len(traced))
    metrics["trace.overhead_frac"] = sum(r.latency_s for r in traced) / sum(r.latency_s for r in plain) - 1.0
    trace_path = workdir / f"trace_{name}_{seed}.json"
    tracer.write(trace_path, {"workload": name, "seed": seed, "ops": len(traced)})
    out.update(records=plain + traced, metrics=metrics, mismatched=mismatched,
               trace_file=str(trace_path))
    return out


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> int:
    """Child side: import, generate the first inputs, report ready."""
    workloads, _ = _import_bench()
    workload = workloads.WORKLOADS[name](WORKDIR)
    inputs = workload.round(seeded_rng(seed, WARMUP)) + [next(op_stream(workload, seeded_rng(seed, MEASURED)))]
    print("ready", hashlib.sha256(repr(inputs).encode()).hexdigest(), flush=True)
    return 0


def time_setup(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until its first op could
    start.  Set-up is mostly imports, whose time the calibration kernel does
    not follow (scaled set-up times spread more than raw ones), so it is not
    scaled; the host's spells are sampled by spreading the probes over the
    measured time instead."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stringcap").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def per_kind(records) -> dict:
    """Sample count and median latency of each op kind."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.latency_s)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)} for k, v in sorted(by_kind.items())}


def run_one(args) -> int:
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       setup_probes=0 if args.trace else SETUP_PROBES)
    values = dict(res["metrics"])
    setup = res.get("setup")
    if setup is not None:
        values["setup_s"] = statistics.median(setup)
    records = res["records"]
    failures = [r for r in records if not r.outcome.ok]
    failed = len(failures) + len(res.get("mismatched", ()))
    meta = metadata(args.workload, args.seed, args.seconds, bool(args.trace))
    meta.update(
        ops=len(records),
        fail_frac=failed / len(records),
        warmup_failed=res["warmup_failed"],
        failures=[{"kind": r.op.kind, "config": r.op.config, "detail": r.outcome.detail} for r in failures[:10]],
    )
    if setup is not None:
        meta.update({k: res[k] for k in ("samples", "beyond_p90", "raw", "host_scale", "elapsed_s")},
                    setup_samples=setup, per_kind=per_kind(records))
    else:
        _, tracing = _import_bench()
        meta.update(trace_mismatched_ops=res["mismatched"], trace_file=res["trace_file"],
                    predictions={k: {"moves": m, "on": w} for k, (m, w) in tracing.PREDICTIONS.items()})
    for r in failures[:10]:
        sys.stderr.write(f"FAILED {r.op.kind} {json.dumps(r.op.config)}: {r.outcome.detail}\n")
    print(json.dumps({"run": meta}))
    print(json.dumps({
        "correct": failed == 0 and not res["warmup_failed"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced, printed as a table."""
    spec = load_spec()
    summary = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return res.returncode
        result = json.loads(res.stdout.strip().splitlines()[-1])
        summary[w["name"]] = result
        print(f"{w['name']}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_frac {result['failed'] / result['attempted']:.4g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<14} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = os.environ.get("STRINGCAP_THREADS")
    if threads not in (None, "1"):
        sys.stderr.write(f"refusing to run with STRINGCAP_THREADS={threads}: the baseline is single-threaded\n")
        return EXIT_REFUSED
    if not (SRC / "stringcap" / "__init__.py").is_file():
        sys.stderr.write(f"no stringcap package under {SRC}\n")
        return EXIT_REFUSED
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("--seed must be >= 0 and --seconds > 0\n")
        return EXIT_REFUSED
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {names} or all\n")
        return EXIT_REFUSED
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
