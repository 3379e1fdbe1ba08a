"""Command-line front end: configs, output formats and exit codes."""
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from stringcap.catalog import SCENARIOS
from stringcap.cli import main


def test_bound_text_output(capsys):
    code = main(
        ["bound", "--scenario", "camel", "--n", "2", "--eps", "0.4", "--delta", "0.01",
         "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.43" in out
    assert "Gr([T^k], Omega)" in out


def test_bound_json_to_file(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        ["bound", "--scenario", "ellipsoid1", "--n", "2", "--a", "0.3",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    by_target = {entry["target"]: entry for entry in payload}
    assert by_target["[pt]"]["upper_bound"] == pytest.approx(1.2 * math.pi, rel=1e-4)
    assert by_target["[S^n]"]["upper_bound"] == pytest.approx(0.6 * math.pi, rel=1e-4)
    assert by_target["[S^n]"]["certificate"]["steps"]


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "nothing.json"
    code = main(["bound", "--scenario", "nosuch", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "invalid" in capsys.readouterr().err


def test_out_of_range_parameters_exit_2(capsys):
    code = main(["bound", "--scenario", "ellipsoid1", "--n", "1", "--a", "0.5"])
    assert code == 2


def test_reproduce_table(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["reproduce", "ellipsoid1", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 12  # two targets for each of six parameter pairs
    assert all(r["pass"] == "True" for r in rows)


def test_reproduce_all_writes_every_reference_row(tmp_path):
    # references from the closed forms, independent of the catalog's table
    expected = [
        (f"ellipsoid1(n={n},a={a})", target, factor * math.pi * a)
        for n in (2, 3)
        for a in (0.2, 0.5, 1.0)
        for target, factor in (("[pt]", 4), ("[S^n]", 2))
    ]
    expected += [(f"ellipsoid2(n={n},a={a})", "[pt]", 2 * math.pi * a) for n in (3, 4) for a in (0.4, 1.0)]
    expected += [
        (f"camel(n={n},eps={eps},delta={delta})", "[T^k]", eps + 3 * delta)
        for n in (2, 3)
        for eps in (0.4, 1.0)
        for delta in (0.1, 0.01, 0.001)
    ]
    expected += [(f"klein(a={a},b={b},r=1.0)", "[Sigma]", 2 * a) for a, b in ((1.0, 1.0), (0.5, 2.0))]
    out = tmp_path / "table.csv"
    assert main(["reproduce", "all", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 30
    assert [(r["scenario"], r["target"], float(r["expected"])) for r in rows] == expected
    assert all(r["pass"] == "True" for r in rows)


def test_reproduce_unknown_table_exits_2(capsys):
    assert main(["reproduce", "nosuch"]) == 2


def test_certify_passes_and_reports_steps(capsys):
    code = main(
        ["certify", "--scenario", "ellipsoid2", "--n", "3", "--a", "0.4", "[pt]"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["checked"] is True
    rules = [s["rule"] for s in payload[0]["steps"]]
    assert "HOPF_CONTRACT" in rules


def test_certify_unknown_target_exits_2():
    assert main(["certify", "--scenario", "klein", "[pt]"]) == 2


def test_runs_are_reproducible(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["bound", "--scenario", "klein", "--a", "0.5", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_quad_panel_override_is_validated():
    assert main(["bound", "--scenario", "camel", "--n", "2", "--eps", "0.4",
                 "--delta", "0.01", "--quad-panels", "7"]) == 2
    assert main(["bound", "--scenario", "camel", "--n", "2", "--eps", "0.4",
                 "--delta", "0.01", "--refine-budget", "0"]) == 2


def test_odd_quad_panel_count_gives_the_camel_bound(capsys):
    eps, delta = 0.4, 0.01
    code = main(["bound", "--scenario", "camel", "--n", "2", "--eps", str(eps),
                 "--delta", str(delta), "--quad-panels", "9"])
    assert code == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["upper_bound"] == pytest.approx(eps + 3 * delta, abs=1e-9)


# the scenario flags each scenario takes
FLAG_TAKES = {
    "ellipsoid1": {"n", "a"},
    "ellipsoid2": {"n", "a"},
    "open_book": {"radius"},
    "product_torus": {"d", "k", "radius"},
    "camel": {"n", "eps", "delta"},
    "klein": {"a", "b", "radius"},
}
FLAG_VALUES = {"n": "3", "a": "0.5", "b": "1.5", "eps": "0.4", "delta": "0.01", "k": "1", "d": "3", "radius": "1.5"}


@pytest.mark.parametrize("scenario", sorted(FLAG_TAKES))
def test_flags_the_scenario_does_not_take_exit_2_without_output(scenario, tmp_path, capsys):
    out = tmp_path / "out.json"
    for key in sorted(FLAG_VALUES.keys() - FLAG_TAKES[scenario]):
        for command in ("bound", "certify"):
            argv = [command, "--scenario", scenario, f"--{key}", FLAG_VALUES[key], "--out", str(out)]
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert "invalid configuration" in err and "Traceback" not in err, argv
            assert not out.exists(), argv


# every scenario key with a float default that has a flag
FLOAT_FLAGS = [
    (scenario, key)
    for scenario, (_, keys) in SCENARIOS.items()
    for key, default in keys.items()
    if isinstance(default, float) and key in FLAG_TAKES[scenario]
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("scenario,key", FLOAT_FLAGS)
def test_non_finite_scenario_parameters_exit_2_without_output(scenario, key, value, tmp_path, capsys):
    out = tmp_path / "out.json"
    for command in ("bound", "certify"):
        argv = [command, "--scenario", scenario, f"--{key}", value, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert not out.exists(), argv
        assert "Traceback" not in err and "RuntimeWarning" not in err, argv
        assert caught == [], argv


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--quad-panels", "16"], ["--refine-budget", "5"]])
def test_certify_refuses_the_flags_only_bound_reads(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "camel", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_klein_with_ellipsoid_and_camel_keys_exits_2(capsys):
    assert main(["bound", "--scenario", "klein", "--n", "7", "--eps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid configuration" in captured.err


def test_importing_the_package_loads_no_jsonschema(tmp_path):
    # a fresh interpreter, which imports the package, runs bound and certify
    # and builds a scenario from a configuration
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_path = str(tmp_path / "out.json")
    code = (
        "import sys, stringcap, stringcap.cli, stringcap.frames\n"
        f"assert stringcap.cli.main(['bound', '--scenario', 'camel', '--out', {out_path!r}]) == 0\n"
        f"assert stringcap.cli.main(['certify', '--scenario', 'klein', '--out', {out_path!r}]) == 0\n"
        "stringcap.build_scenario({'scenario': 'ellipsoid1', 'n': 3, 'a': 0.5})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
