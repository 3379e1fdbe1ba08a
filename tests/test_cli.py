"""Command-line front end: configs, output formats and exit codes."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcap import catalog, cli
from stringcap.bounds import compute_bounds
from stringcap.catalog import MAX_DIM, SCENARIOS, TargetClass, build_scenario
from stringcap.cli import MAX_QUAD_PANELS, main
from stringcap.stralg import closed_page_recipe, fnum, open_book_point_recipe


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


@pytest.mark.parametrize(
    "argv",
    [["bound", "--scenario", "klein"], ["reproduce", "klein"], ["certify", "--scenario", "klein"]],
)
def test_unwritable_out_path_exits_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ")
    assert str(out) in err


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


def test_a_certificate_that_fails_its_own_replay_exits_3(monkeypatch, capsys):
    # bound reported it as an invalid configuration and exited 2; exit code 3
    # means a derivation failure, as in certify.  ellipsoid1's one target
    # here declares a pairing that its recipe does not end in.
    build = catalog.build_scenario
    wrong = TargetClass("[pt]", "WRONG", open_book_point_recipe)
    monkeypatch.setattr(catalog, "build_scenario", lambda config: dataclasses.replace(build(config), targets=(wrong,)))
    assert main(["bound", "--scenario", "ellipsoid1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("derivation failure: derived certificate failed its own replay: ")
    assert main(["certify", "--scenario", "ellipsoid1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "certificate check failed for target [pt]\n"
    (entry,) = json.loads(captured.out)
    assert entry["checked"] is False and all(step["ok"] for step in entry["steps"])


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_a_certificate_that_cannot_be_derived_is_a_derivation_failure(command, monkeypatch, capsys):
    # ellipsoid1 has no closed page, so the open book's page recipe is
    # refused while the certificate is derived: exit 3, labelled as such
    build = catalog.build_scenario
    page = TargetClass("[V]", "PD_dual(V)", closed_page_recipe, both_orientations=True)
    monkeypatch.setattr(catalog, "build_scenario", lambda config: dataclasses.replace(build(config), targets=(page,)))
    assert main([command, "--scenario", "ellipsoid1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "derivation failure: the page bound needs a closed page\n"


def test_certify_writes_the_failing_step_and_exits_3(monkeypatch, capsys):
    derive = cli.derive_certificate

    def tampered(scenario, target, sign=+1):
        # the first step records its output at threshold 0
        cert = derive(scenario, target, sign)
        output = dataclasses.replace(cert.steps[0].output, filtration=fnum(0.0))
        first = dataclasses.replace(cert.steps[0], output=output)
        return dataclasses.replace(cert, steps=(first, *cert.steps[1:]))

    monkeypatch.setattr(cli, "derive_certificate", tampered)
    assert main(["certify", "--scenario", "ellipsoid2", "[pt]"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "certificate check failed for target [pt]\n"
    (entry,) = json.loads(captured.out)
    assert entry["checked"] is False
    step = entry["steps"][0]
    assert step["rule"] == "OB_BV2" and not step["ok"]
    assert step["message"] == "replayed output A[id,+] @ E_A differs from recorded A[id,+] @ 0"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "camel", "--quad-panels", str(MAX_QUAD_PANELS + 1)],
        ["--scenario", "camel", "--quad-panels", str(10**12)],
        ["--scenario", "ellipsoid1", "--n", "12"],
        ["--scenario", "product_torus", "--d", "10"],
        ["--scenario", "camel", "--n", "10"],
        # dimensions: a grid size too long to print, a Jacobian too large to
        # allocate, a grid of 4**1023 points at the ceiling
        ["--scenario", "product_torus", "--d", "20000"],
        ["--scenario", "camel", "--n", "8000"],
        ["--scenario", "product_torus", "--d", str(MAX_DIM)],
        ["--scenario", "ellipsoid1", "--n", str(MAX_DIM + 1)],
        ["--scenario", "ellipsoid2", "--n", str(MAX_DIM + 1)],
    ],
)
def test_sizes_past_the_limits_exit_2_without_output(argv, tmp_path, capsys):
    # refused before the quadrature levels or any family grid are built
    out = tmp_path / "bounds.json"
    assert main(["bound", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["bound", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("invalid configuration") == 2


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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize(
    "scenario,key,default",
    [(scenario, key, default) for scenario, (_, keys) in SCENARIOS.items() for key, default in keys.items()],
)
def test_every_scenario_key_is_a_flag(scenario, key, default, capsys):
    assert main(["certify", "--scenario", scenario, f"{_flag(key)}={default}"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["checked"] is True


def test_the_closed_page_open_book_from_the_command_line(capsys):
    argv = ["--scenario", "open_book", "--page", "circle", "--len-page", "2", "--len-fiber", "1"]
    assert main(["bound", *argv]) == 0
    config = {"scenario": "open_book", "page": "circle", "len_page": 2.0, "len_fiber": 1.0}
    expected = json.dumps([b.to_jsonable() for b in compute_bounds(build_scenario(config))], indent=2)
    assert capsys.readouterr().out == expected + "\n"
    assert main(["certify", *argv, "[V]"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["checked"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "klein", "--radius", "1e308"],
        ["--scenario", "camel", "--eps", "1e308", "--delta", "1e308"],
        ["--scenario", "open_book", "--page", "circle", "--len-page", "1e300", "--len-fiber", "1e300"],
        ["--scenario", "product_torus", "--radius", "1e308"],
    ],
)
def test_an_overflowing_length_exits_3_without_a_warning(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bound", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: ")
    assert caught == []


# flag values by kind: valid, huge (dimensions only one past the ceiling),
# or odd (out of range, NaN or infinite, or not a number)
_NOT_A_NUMBER = st.sampled_from(["", "abc", "1,5", "0x10"])
_VALUES = {
    int: {
        "valid": st.integers(1, 4),
        "huge": st.just(MAX_DIM + 1),
        "odd": st.sampled_from([-1, 0, 2.5]) | _NOT_A_NUMBER,
    },
    float: {
        "valid": st.floats(0.05, 2.0),
        "huge": st.sampled_from([1e300, 1e308, -1e308, 5e-324]),
        "odd": st.sampled_from([0.0, -1.0, "nan", "inf", "-inf"]) | _NOT_A_NUMBER,
    },
    str: {"valid": st.sampled_from(["interval", "circle"]), "huge": st.just("x" * 5000), "odd": st.just("")},
}
_SCENARIO_FLAGS = {}
for _, keys in SCENARIOS.values():
    for key, default in keys.items():
        _SCENARIO_FLAGS.setdefault(_flag(key), _VALUES[type(default)])
_BOUND_FLAGS = {
    "--quad-panels": {
        "valid": st.integers(8, 40),
        "huge": st.sampled_from([MAX_QUAD_PANELS + 1, 10**12]),
        "odd": st.sampled_from([7, 0]) | _NOT_A_NUMBER,
    },
    "--refine-budget": {
        "valid": st.integers(1, 6),
        "huge": st.just(10**12),
        "odd": st.sampled_from([0, -1]) | _NOT_A_NUMBER,
    },
    "--format": {
        "valid": st.sampled_from(["json", "csv", "text"]),
        "huge": st.just("json" * 1000),
        "odd": st.just("xml"),
    },
}


@st.composite
def _invocations(draw):
    """bound or certify with the scenario's own flags, sometimes one more
    that it may not take, each value valid in half the draws."""
    command = draw(st.sampled_from(["bound", "certify"]))
    scenario = draw(st.sampled_from([*SCENARIOS, "nosuch"]))
    flags = {**_SCENARIO_FLAGS, **(_BOUND_FLAGS if command == "bound" else {})}
    keys = SCENARIOS[scenario][1] if scenario in SCENARIOS else {}
    own = [_flag(key) for key in keys] + sorted(flags.keys() - _SCENARIO_FLAGS.keys())
    chosen = draw(st.lists(st.sampled_from(own), max_size=4, unique=True)) if own else []
    if draw(st.integers(0, 3)) == 0:
        chosen.append(draw(st.sampled_from(sorted(flags))))
    argv = [command, "--scenario", scenario]
    for flag in chosen:
        kind = draw(st.sampled_from(["valid", "valid", "huge", "odd"]))
        argv.append(f"{flag}={draw(flags[flag][kind])}")
    if command == "certify":
        argv += draw(st.sampled_from([[], ["[pt]"], ["[V]"], ["[nosuch]"]]))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_invocations())
def test_any_invocation_exits_0_2_or_3_without_traceback_or_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    assert code in (0, 2, 3), argv
    for text in (out.getvalue(), err.getvalue()):
        assert "Traceback" not in text and "RuntimeWarning" not in text, argv
    assert caught == [], argv
