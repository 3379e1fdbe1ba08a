"""Self-tests of the benchmark: run with ``python3 -m pytest bench``."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads, tracing = run._import_bench()

SPEC = run.load_spec()
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_lists_the_workloads_and_predictions_the_code_has():
    assert NAMES == list(workloads.WORKLOADS)
    assert list(PER_LAYER) == list(tracing.PREDICTIONS)
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_inputs_come_from_the_seed_alone(tmp_path):
    for name in NAMES:
        w = workloads.WORKLOADS[name](tmp_path)

        def first(seed, count=3 * len(w.kinds)):
            stream = run.op_stream(w, run.seeded_rng(seed, run.MEASURED))
            return [next(stream) for _ in range(count)]

        ops = first(5)
        assert ops == first(5)
        assert ops != first(6)
        for r in range(3):  # every round holds each kind once
            assert sorted(op.kind for op in ops[r * len(w.kinds):(r + 1) * len(w.kinds)]) == sorted(w.kinds)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name, tmp_path):
    res = run.run_workload(name, seed=3, seconds=0.5, trace=False, workdir=tmp_path)
    assert res["warmup_failed"] == []
    assert [r.outcome.detail for r in res["records"] if not r.outcome.ok] == []
    assert set(res["metrics"]) | {"setup_s"} == set(END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_match_untraced(name, tmp_path):
    res = run.run_workload(name, seed=4, seconds=1.0, trace=True, workdir=tmp_path)
    records = res["records"]
    half = len(records) // 2
    assert half > 0 and res["mismatched"] == []
    assert [r.outcome.digest for r in records[:half]] == [r.outcome.digest for r in records[half:]]
    assert all(r.outcome.ok for r in records)
    assert set(res["metrics"]) == set(PER_LAYER)
    # every work or time figure of a layer predicted to run here is nonzero
    for metric, (_, on) in tracing.PREDICTIONS.items():
        if name in on and PER_LAYER[metric]["unit"] in ("count/op", "s/op", "count/call"):
            assert res["metrics"][metric] > 0, metric
    spans = json.loads((tmp_path / f"trace_{name}_4.json").read_text())["spans"]
    assert spans and all(s[1] <= s[2] for s in spans)


def test_wrong_reference_value_counts_as_failure(tmp_path, monkeypatch):
    bounds_run = workloads.WORKLOADS["paper_bounds"](tmp_path)
    op = workloads.Op("camel:2", {"scenario": "camel", "n": 2, "eps": 0.5, "delta": 0.01})
    assert run.execute(bounds_run, op, tracing.NoTrace(), 0).outcome.ok
    monkeypatch.setitem(workloads.PAPER_REFERENCE, ("camel", "[T^k]"),
                        (lambda c: c["eps"] + 3 * c["delta"] + 1e-8, 1e-9, "abs"))
    assert not run.execute(bounds_run, op, tracing.NoTrace(), 0).outcome.ok

    monkeypatch.setitem(workloads.CERTIFY_REFERENCE, ("klein", "[Sigma]"), "l_q")
    res = run.run_workload("certify_cli", seed=3, seconds=0.5, trace=False, workdir=tmp_path)
    failed = [r.op.config for r in res["records"] if not r.outcome.ok]
    klein = [r.op.config for r in res["records"]
             if r.op.config["scenario"] == "klein" and r.op.config["expect_exit"] == 0]
    assert klein and failed == klein


def _speed(at, kernel_s):
    speed = run.HostSpeed.__new__(run.HostSpeed)
    speed.at, speed.kernel_s = list(at), list(kernel_s)
    return speed


def test_op_times_are_scaled_by_the_kernels_around_them():
    speed = _speed([0.0, 1.0, 10.0], [1e-3, 3e-3, 4e-3])
    ref = run.REFERENCE_KERNEL_S
    assert speed.scale(0.2, 0.8) == pytest.approx(ref / 2e-3)  # both kernels are near
    assert speed.scale(2.0, 2.1) == pytest.approx(ref / 3e-3)  # none near: the nearest
    assert speed.scale(8.0, 9.0) == pytest.approx(ref / 4e-3)


def test_a_slow_spell_of_the_host_cancels_out():
    op = workloads.Op("k", {})
    ok = workloads.Outcome(True, "")

    def figures(slowdown):
        records = [run.Record(op, slowdown * (0.01 + 0.001 * (i % 7)), ok, start=0.1 * i) for i in range(50)]
        speed = _speed([0.1 * i + 0.05 for i in range(50)], [slowdown * 2e-3] * 50)
        metrics = run.summarize(records, speed, 5.0)["metrics"]
        return {k: v for k, v in metrics.items() if k != "peak_rss_mb"}

    fast, slow = figures(1.0), figures(1.7)
    assert slow == pytest.approx(fast)
    assert fast["op_p50_ms"] == pytest.approx(1e3 * (0.013 * run.REFERENCE_KERNEL_S / 2e-3))


def _bench_cmd(root, *extra):
    return [sys.executable, str(root / "bench" / "run.py"), "--workload", "certify_cli", "--seed", "0",
            "--seconds", "1", "--trace", "0", *extra]


def test_command_prints_every_end_to_end_metric_last():
    res = subprocess.run(_bench_cmd(BENCH.parent), capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: m["unit"] for k, m in END_TO_END.items()}
    meta = json.loads(res.stdout.splitlines()[-2])["run"]
    assert meta["seed"] == 0 and meta["samples"] == result["attempted"]


def test_refuses_a_thread_pool():
    env = dict(os.environ, STRINGCAP_THREADS="4")
    res = subprocess.run(_bench_cmd(BENCH.parent), capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode != 0 and res.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(_bench_cmd(tmp_path), capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert res.returncode != 0 and res.stdout == ""
