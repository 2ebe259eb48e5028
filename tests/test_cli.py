import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opdyn import bounds, cli, continuous, core, discrete, shapley
from opdyn.errors import InputError, ResourceError


def run(args):
    return cli.main(args)


def read(path):
    return path.read_text()


def csv_rows(path):
    lines = read(path).strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_unknown_preset_is_config_error(tmp_path, capsys):
    assert run(["value_iter", "--preset", "nope", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "unknown preset" in capsys.readouterr().err


def test_missing_operator_is_config_error(tmp_path):
    assert run(["value_iter", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_matrix_game_certificate_failure_is_resource_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(shapley, "LP_GAP_TOL", -1.0)
    args = ["discounted", "--preset", "matching-pennies", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_RESOURCE
    assert "resource error" in capsys.readouterr().err


def test_the_integrator_step_cap_is_a_resource_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(continuous, "MAX_STEPS", 8)
    with pytest.raises(ResourceError, match=r"^step cap 8 reached at t = \S+ < T = 20\.0$"):
        continuous.integrate_U(core.rotation(np.pi / 6.0), [1.0, 0.0], 20.0)
    args = ["ode", "--preset", "rotation30", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_RESOURCE == 4
    assert capsys.readouterr().err.startswith("opdyn: resource error: step cap 8 reached")


@pytest.mark.parametrize("task", ["value_iter", "discounted"])
def test_a_2x2_game_near_the_float_limit_is_solved(tmp_path, task):
    # a - b and d - c overflow in the closed form of this game, whose value is 0
    game = {"states": [0], "actions": [[2, 2]],
            "payoff": [[[1e308, -1e308], [-1e308, 1e308]]],
            "transition": [[[[1.0], [1.0]], [[1.0], [1.0]]]]}
    args = [task, "--preset", "matching-pennies",
            "--set", "operator=" + json.dumps({"game": game}), "--out", str(tmp_path)]
    assert run(args) == 0
    header, rows = csv_rows(tmp_path / f"{task}.csv")
    v = header.index("v_0")
    assert rows and all(float(row[v]) == 0.0 for row in rows)


def test_translation_preset_value_iter(tmp_path):
    assert run(["value_iter", "--preset", "translation", "--out", str(tmp_path)]) == 0
    header, rows = csv_rows(tmp_path / "value_iter.csv")
    assert header == ["n", "v_0", "norm_vn"]
    assert len(rows) == 50
    assert all(r[1] == "1.0" for r in rows)


def test_matching_pennies_discounted(tmp_path):
    assert run(["discounted", "--preset", "matching-pennies", "--out", str(tmp_path)]) == 0
    header, rows = csv_rows(tmp_path / "discounted.csv")
    assert header[:2] == ["lambda", "v_0"]
    assert [r[0] for r in rows] == ["0.5", "0.1", "0.01"]
    assert all(abs(float(r[1])) <= 1e-9 for r in rows)


@pytest.mark.parametrize("task, preset, sets, rows", [
    ("value_iter", "random3", ["N=20"], 20),
    ("ode", "rotation30", ["samples=11", 'operator={"builtin":"affine","matrix":[[0.5,-0.5],'
                                         '[0.25,0.5]],"offset":[1,-1],"norm":"sup"}'], 11),
    ("verify", "translation", ['checks=["accretivity"]'], 4),
], ids=["value_iter-game", "ode-affine", "verify-accretivity"])
def test_a_passing_run_writes_one_row_per_entry(tmp_path, task, preset, sets, rows):
    # one row per n, per sample time, or per report (each lambda's)
    args = [task, "--preset", preset, "--out", str(tmp_path)]
    for item in sets:
        args += ["--set", item]
    assert run(args) == cli.EXIT_OK
    header, got = csv_rows(tmp_path / ("reports.csv" if task == "verify" else f"{task}.csv"))
    assert len(got) == rows
    if task == "verify":
        assert all(row[header.index("verdict")] == "pass" for row in got)


def test_discounted_rows_do_not_depend_on_the_order_of_lambdas(tmp_path):
    # the operator keeps each state's last support as a guess for the next
    # solve; a guess may change the path to a row, never its bits
    game = 'operator={"random_game":{"states":8,"rows":4,"cols":4,"seed":0}}'
    out = {}
    for name, lambdas in [("forward", "[0.5,0.1,0.01]"), ("reversed", "[0.01,0.1,0.5]")]:
        assert run(["discounted", "--preset", "random3", "--set", game,
                    "--set", f"lambdas={lambdas}", "--out", str(tmp_path / name)]) == 0
        out[name] = read(tmp_path / name / "discounted.csv").splitlines()
    assert len(out["forward"]) == 4
    assert sorted(out["forward"]) == sorted(out["reversed"])


def test_set_override_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["value_iter", "--preset", "translation", "--set", "N=7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args[:-1] + ["N=7.0", "--out", str(out2)]) == 0  # an integral float
    assert read(out1 / "value_iter.csv") == read(out2 / "value_iter.csv")
    _, rows = csv_rows(out1 / "value_iter.csv")
    assert len(rows) == 7


def test_config_file_and_dotted_set(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "operator": {"builtin": "translation", "c": [2.0]},
        "N": 3,
    }))
    out = tmp_path / "out"
    assert run(["value_iter", "--config", str(cfg),
                "--set", "operator.c=[5.0]", "--out", str(out)]) == 0
    _, rows = csv_rows(out / "value_iter.csv")
    assert rows[0][1] == "5.0"


def test_euler_task_columns(tmp_path):
    assert run(["euler", "--preset", "translation",
                "--set", 'steps={"kind":"constant","lambda":0.5,"N":4}',
                "--out", str(tmp_path)]) == 0
    header, rows = csv_rows(tmp_path / "euler.csv")
    assert header == ["n", "sigma", "tau", "x_0"]
    assert len(rows) == 5
    assert rows[-1][1] == "2.0"


@pytest.mark.parametrize("task, preset, items, message", [
    ("ode", "rotation30", ['T="2"'], "T: must be a number, got '2'"),
    ("value_iter", "translation", ['N="5"'], "N: must be an integer, got '5'"),
    ("value_iter", "translation", ["N=x"], "N: must be an integer, got 'x'"),
    ("verify", "translation", ['checks=["norm_bounds"]', 'horizon="10"'],
     "horizon: must be a number, got '10'"),
    ("suite", "paper-suite", ['ode_tol="1e-7"'], "ode_tol: must be a number, got '1e-7'"),
])
def test_a_json_string_is_no_number(tmp_path, capsys, task, preset, items, message):
    # a config number is a JSON number, as a vector entry is: a string that
    # names one, or a --set value that is not JSON, is a config error
    args = [task, "--preset", preset, "--out", str(tmp_path)]
    for item in items:
        args += ["--set", item]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


def test_ode_task(tmp_path):
    assert run(["ode", "--preset", "rotation30", "--set", "T=2.0",
                "--out", str(tmp_path)]) == 0
    header, rows = csv_rows(tmp_path / "ode.csv")
    assert header == ["t", "u_0", "u_1", "err_bound"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 2.0


def test_ode_samples_are_evenly_spaced_times(tmp_path):
    # the rows are dense reads at np.linspace(0, T, samples), not nodes
    assert run(["ode", "--preset", "rotation30", "--set", "samples=11",
                "--out", str(tmp_path)]) == 0
    _, rows = csv_rows(tmp_path / "ode.csv")
    assert [float(row[0]) for row in rows] == np.linspace(0.0, 20.0, 11).tolist()
    assert float(rows[0][3]) == 0.0
    assert all(float(row[3]) > 0.0 for row in rows[1:])


def test_phi_ode_task(tmp_path):
    assert run(["phi_ode", "--preset", "matching-pennies",
                "--set", "T=2.0", "--set", "tol=1e-6",
                "--out", str(tmp_path)]) == 0
    header, rows = csv_rows(tmp_path / "phi_ode.csv")
    assert header == ["t", "u_0", "err_bound", "lambda"]
    assert float(rows[0][3]) == 1.0  # PowerAlpha(0.5) starts at 1


def test_phi_ode_under_inverse_time_zeta_runs_to_ten_thousand(tmp_path):
    # its zeta^{-1} reads cross s = 8400.69, where Newton cycles
    assert run(["phi_ode", "--preset", "matching-pennies",
                "--set", 'param={"kind":"inverse_time_zeta"}', "--set", "T=10000",
                "--set", "samples=3", "--out", str(tmp_path)]) == 0
    _, rows = csv_rows(tmp_path / "phi_ode.csv")
    assert [float(row[0]) for row in rows] == [0.0, 5000.0, 10000.0]


def test_bad_game_file_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "game.json"
    bad.write_text(json.dumps({"states": ["s"], "actions": [[1, 1]]}))
    code = run(["value_iter",
                "--set", json.dumps({"game": str(bad)}).join(["operator=", ""]),
                "--out", str(tmp_path)])
    assert code == cli.EXIT_SCHEMA
    assert "schema error" in capsys.readouterr().err


def test_a_game_file_whose_path_starts_with_a_brace_is_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{g}.json").write_text(json.dumps(shapley.matching_pennies().to_dict()))
    args = ["value_iter", "--set", 'operator={"game":"{g}.json"}', "--set", "N=3",
            "--out", str(tmp_path)]
    assert run(args) == 0
    _, rows = csv_rows(tmp_path / "value_iter.csv")
    assert [row[1] for row in rows] == ["0.0"] * 3


def test_failed_write_is_io_error_and_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "value_iter.csv").mkdir()  # no file can be renamed over it
    args = ["value_iter", "--preset", "translation", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_IO
    assert "io error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["value_iter.csv"]


def test_generate_game_roundtrip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["generate-game", "--preset", "random3"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1 / "game.json") == read(out2 / "game.json")
    game = shapley.load_game(str(out1 / "game.json"))
    want = shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7)
    for a, b in zip(game.payoff, want.payoff):
        assert np.allclose(a, b, atol=1e-15)
    # any game operator, built as the other tasks build it
    assert run(["generate-game", "--preset", "matching-pennies", "--out", str(out1)]) == 0
    assert shapley.load_game(str(out1 / "game.json")).to_dict() == (
        shapley.matching_pennies().to_dict())


def test_verify_task_emits_reports(tmp_path):
    assert run(["verify", "--preset", "translation",
                "--set", 'checks=["norm_bounds","vlambda_lipschitz"]',
                "--set", "horizon=20",
                "--out", str(tmp_path)]) == 0
    reports = json.loads(read(tmp_path / "reports.json"))
    assert all(r["verdict"] == "pass" for r in reports)
    header, rows = csv_rows(tmp_path / "reports.csv")
    assert header == ["check", "lhs", "rhs", "slack", "tol_budget",
                      "verdict", "context"]
    assert len(rows) == len(reports)
    assert_csv_matches_json(rows, reports)


def assert_csv_matches_json(rows, reports):
    """Every reports.csv row holds its reports.json entry, field by field."""
    for row, rep in zip(rows, reports):
        assert row[0] == rep["check"]
        assert [float(v) for v in row[1:5]] == [rep["lhs"], rep["rhs"], rep["slack"],
                                                rep["tol_budget"]]
        assert row[5] == rep["verdict"]
        assert json.loads(row[6].replace(";", ",")) == rep["context"]


def test_verify_without_checks_is_config_error(tmp_path, capsys):
    assert run(["verify", "--preset", "translation",
                "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    # a string is not read as its characters
    assert run(["verify", "--preset", "translation", "--set", "checks=norm_bounds",
                "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "checks: must be a list, got 'norm_bounds'" in capsys.readouterr().err


@pytest.mark.parametrize("check, sets", [
    ("kobayashi", []),
    ("solution_contraction", []),
    ("initial_independence", ['param={"kind":"power_alpha"}']),
    ("two_param", ['param={"kind":"power_alpha"}',
                   'param2={"kind":"inverse_time_zeta"}']),
    ("kobayashi", ["starts=5"]),
    ("kobayashi", ["extra=3"]),
    ("kobayashi", ['starts=[5, "x"]']),
    ("kobayashi", ["starts=[[0.0], [1.0]]", 'pairs="x"']),
    ("convvn", ['n_values=5']),
    ("norm_bounds", ['ode_tol="x"']),
    ("norm_bounds", ["decay_factor=null"]),
    ("norm_bounds", ["ode_tool=1e-3"]),
    ("norm_bounds", ["quad_tol=1e-9"]),
    ("norm_bounds", ["settings=[1,2]"]),
    ("expo", ["horizon=2000"]),
    ("constant_decay", ["horizon=0.5"]),
    ("accretivity", ['operator={"builtin":"translation","C":[2]}']),
    ("accretivity", ['operator={"builtin":"rotation","theta_degrees":30,"norm":"sup"}']),
    ("accretivity", ['operator={"builtin":"rotation","theta":0.5}']),
    ("accretivity", ['operator={"random_game":{"states":1,"sed":3}}']),
    ("stationarity_gap", ["horizon=5", 'param={"kind":"power_alpha","alpa":0.1}']),
    ("euler_vs_ode", ['steps={"kind":"harmonic","N":10,"lambda":0.5}']),
    ("accretivity", ["horizon=x"]),
    ("accretivity", ["seed=x"]),
    ("accretivity", ["horizn=3"]),
    ("accretivity", ['operator={"builtin":"rotation","theta_degrees":"x"}']),
    ("accretivity", ['operator={"builtin":"identity","dim":"x"}']),
    ("accretivity", ['operator={"random_game":{"states":"x"}}']),
    ("accretivity", ['operator={"random_game":{"seed":1e999}}']),
    ("accretivity", ['operator={"random_game":{"payoff_range":"x"}}']),
    ("stationarity_gap", ["horizon=5", 'param={"kind":"power_alpha","alpha":"x"}']),
    ("stationarity_gap", ["horizon=5", 'param={"kind":"constant","lambda":"x"}']),
    ("stationarity_gap", ["horizon=5", 'param={"kind":"table","knots":[[0,"x"]]}']),
    ("stationarity_gap", ["horizon=5", 'param={"kind":"table","knots":[0]}']),
    ("euler_vs_ode", ['steps={"kind":"constant","N":"x"}']),
    ("euler_vs_ode", ['steps={"kind":"constant","lambda":"x","N":3}']),
    ("euler_vs_ode", ['steps={"kind":"constant","N":-3}']),
    ("euler_vs_ode", ['steps={"kind":"harmonic","N":null}']),
    ("euler_vs_ode", ['steps={"kind":"explicit","values":["x"]}']),
    ("accretivity", ['operator={"random_game":{"payoff_range":[1,0]}}']),
    ("accretivity", ['operator={"random_game":{"payoff_range":[0,1e999]}}']),
    ("hypothesis_H", ["ode_tol=0"]),
    ("hypothesis_H", ["ode_tol=-1"]),
    ("discrete_slow", ["ode_tol=NaN"]),
    ("kobayashi", ["starts=[[0.0], [1.0]]", 'pairs=0']),
    ("kobayashi", ["starts=[[0.0], [1.0]]", 'pairs=-2']),
    ("convvn", ['n_values=[]']),
    ("two_param", ["starts=[[0.0], [1.0]]", "horizon=5", 'param={"kind":"power_alpha"}',
                   'param2={"kind":"inverse_time_zeta"}', 'case="A"']),
    ("norm_bounds", ["horizon=NaN"]),
    ("solution_contraction", ["starts=[[0.0], [1.0]]", "horizon=Infinity"]),
    ("chernoff", ['gird=0']),
    ("chernoff", ['param2={"kind":"power_alpha"}']),
    ("accretivity", ["starts=[[0.0]]"]),
    ("kobayashi", ["starts=[[0.0], [1.0]]", 'pairs=2.5']),
    ("kobayashi", ["starts=[[0.0], [1.0]]", 'pairs=true']),
    ("convvn", ['n_values=[10.5]']),
    ("accretivity", ["seed=0.5"]),
    ("accretivity", ["seed=-1"]),
    ("hypothesis_H", ["ode_tol=true"]),
    ("accretivity", ['operator={"random_game":{"states":true}}']),
    ("euler_vs_ode", ['steps={"kind":"harmonic","N":2.5}']),
    ("euler_vs_ode", ["horizon=7", 'steps={"kind":"harmonic","N":20}']),
    ("normalized_euler", ["horizon=7", 'steps={"kind":"harmonic","N":20}']),
    ("chernoff", ["horizon=true"]),
    ("convvn", ["horizon=0.5"]),
    ("convvn", ["horizon=10", "n_values=[20]"]),
])
def test_malformed_verify_input_is_config_error(tmp_path, capsys, check, sets):
    # one start point where two are needed, a value of the wrong type, a
    # check with no report, an unknown key in a spec object, an input the
    # check does not read, or a setting, count or payoff range out of range;
    # a check that takes start points gets one
    args = ["verify", "--preset", "translation", "--set", f'checks=["{check}"]']
    if "starts" in bounds.keys(bounds.CHECKS[check]):
        args += ["--set", "starts=[[0.0]]"]
    for item in sets:
        args += ["--set", item]
    assert run(args + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_verify_gives_each_check_only_the_inputs_it_reads(tmp_path, capsys):
    # horizon is chernoff's, pairs is kobayashi's; gird is neither's, and is
    # named once, alone
    args = ["verify", "--preset", "translation",
            "--set", 'checks=["chernoff","kobayashi"]', "--out", str(tmp_path)]
    assert run(args + ["--set", "horizon=5", "--set", "pairs=2"]) == 0
    reports = json.loads(read(tmp_path / "reports.json"))
    assert {r["check"] for r in reports} == {"chernoff", "kobayashi"}
    assert run(args + ["--set", "horizon=5", "--set", "gird=5"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("opdyn: config error: gird: not a key of chernoff or kobayashi, "
                          "whose keys are ")
    assert err.count("gird") == 1


@pytest.mark.parametrize("check, item", [
    ("accretivity", "horizon=50"),
    ("hypothesis_H", "horizon=50"),
    ("vlambda_lipschitz", "horizon=50"),
    ("vlambda_lipschitz", "seed=0"),
    # the read points, grids and discount factors each check holds as its
    # own constants, given at the values they hold
    ("chernoff", "grid=20"),
    ("chernoff", "nmax=50"),
    ("kobayashi", "subgrid=10"),
    ("kobayashi", 'steps2={"kind":"harmonic","N":10}'),
    ("expo", "m_values=[25, 100, 400, 1600]"),
    ("constant_decay", "t_values=[1.0, 5.0, 10.0, 20.0]"),
    ("slow_param", "t_values=[0.5, 50.0]"),
    ("norm_bounds", "lambdas=[1.0, 0.5, 0.1, 0.01]"),
    ("accretivity", "lambdas=[0.1, 0.5, 1.0, 2.0]"),
    ("vlambda_lipschitz", "lambdas=[0.02, 1.0]"),
    ("discrete_slow", "lambda_seq=[1.0, 0.7071067811865475]"),
    ("alpha_family", "alpha=0.5"),
    ("interpolation", "n_steps=100"),
    # the retired settings object and the two settings that became constants
    ("norm_bounds", 'settings={"ode_tol":1e-6}'),
    ("norm_bounds", "fp_tol=1e-10"),
    ("hypothesis_H", "samples=200"),
])
def test_an_input_the_check_does_not_take_is_named_at_its_default_too(tmp_path, capsys,
                                                                      check, item):
    # an input is given when it is given, whatever its value
    args = ["verify", "--preset", "translation", "--set", f'checks=["{check}"]',
            "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    key = item.split("=")[0]
    assert capsys.readouterr().err.startswith(
        f"opdyn: config error: {key}: not a key of {check}, whose keys are ")


@pytest.mark.parametrize("item", ["T=x", 'random_game={"states":0}', "out=x"])
def test_verify_names_a_stray_key_before_it_reads_any_value(tmp_path, capsys, item):
    # a key no check takes is named as such, not read (nor a game built)
    args = ["verify", "--preset", "translation", "--set", 'checks=["chernoff"]',
            "--set", 'param={"kind":"bogus"}', "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    named = ", ".join(sorted([item.split("=")[0], "param"]))
    assert capsys.readouterr().err.startswith(
        f"opdyn: config error: {named}: not a key of chernoff, whose keys are ")


@pytest.mark.parametrize("check, code, message", [
    ("wn_tracks_vn", cli.EXIT_OK, ""),
    ("constant_decay", cli.EXIT_OK, ""),
    ("chernoff", cli.EXIT_OK, ""),
    ("stationarity_gap", cli.EXIT_CONFIG,
     "opdyn: config error: param: missing for stationarity_gap, whose keys are "),
])
def test_a_null_spec_object_is_as_if_not_given(tmp_path, capsys, check, code, message):
    # param is wn_tracks_vn's (InverseTimeZeta by default), constant_decay's
    # (Constant(0.5)) and stationarity_gap's (required), and steps is none
    # of theirs: null leaves each out, whichever check takes it
    args = ["verify", "--preset", "translation", "--set", f'checks=["{check}"]',
            "--set", "param=null", "--set", "steps=null", "--out", str(tmp_path)]
    assert run(args) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("task, preset, item", [
    ("phi_ode", "matching-pennies", "param=null"),
    ("euler", "translation", "steps=null"),
])
def test_a_null_spec_object_of_a_task_stands_for_its_default(tmp_path, task, preset, item):
    # the spec reader returns None, and the task fills in its own default
    plain, null = tmp_path / "plain", tmp_path / "null"
    assert run([task, "--preset", preset, "--out", str(plain)]) == 0
    assert run([task, "--preset", preset, "--set", item, "--out", str(null)]) == 0
    name = f"{task}.csv"
    assert read(null / name) == read(plain / name)


def test_verify_failure_sets_exit_one(tmp_path, monkeypatch):
    # DECAY_FACTOR = 1e-30 makes every decay-type verdict fail
    code = run(["verify", "--preset", "translation",
                "--set", 'checks=["accretivity"]',
                "--set", 'operator={"builtin":"rotation","theta_degrees":30}',
                "--out", str(tmp_path)])
    assert code == 0  # rotation passes accretivity; now force a failure
    monkeypatch.setattr(bounds, "DECAY_FACTOR", 1e-30)
    cfg = {
        "operator": {"builtin": "translation", "c": [1.0]},
        "checks": ["wn_tracks_vn"],
        "horizon": 150,
        "ode_tol": 1e-6,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path),
                "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
    reports = json.loads(read(tmp_path / "reports.json"))
    _, rows = csv_rows(tmp_path / "reports.csv")
    assert any(r["verdict"] == "fail" for r in reports)
    assert any(row[5] == "fail" for row in rows)
    assert_csv_matches_json(rows, reports)


def test_the_decay_factor_is_a_constant_not_a_setting(tmp_path, capsys):
    # a verdict is a bound the code states, so no setting can pass a failing
    # decay report: the factor is bounds.DECAY_FACTOR, and a key that names
    # it, or a settings object that holds it, gets the binder's unknown-key
    # message
    args = ["verify", "--preset", "translation", "--set", 'checks=["norm_bounds"]',
            "--out", str(tmp_path)]
    for item in ("decay_factor=0.2", 'settings={"decay_factor":0.2}'):
        assert run(args + ["--set", item]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"opdyn: config error: {item.split('=')[0]}: not a key of norm_bounds, "
            "whose keys are horizon\n")


def test_ode_tol_sets_the_integrator_tolerance_of_a_verify_or_suite_run(tmp_path,
                                                                        monkeypatch):
    # the reports are those of run_checks at that tolerance, not the default's
    def written(reports):
        return json.loads(json.dumps([r.to_dict() for r in reports],
                                     default=cli._json_default))

    sc = bounds.Scenario(core.rotation(np.deg2rad(30.0)), horizon=5.0)
    plan = [("solution_contraction", sc), ("expo", sc)]
    want = written(bounds.run_checks(plan, 1e-7))
    assert want != written(bounds.run_checks(plan))
    monkeypatch.setattr(bounds, "suite_plan", lambda: plan)
    runs = {"verify": ["--preset", "rotation30", "--set", "horizon=5",
                       "--set", 'checks=["solution_contraction","expo"]'],
            "suite": []}
    for task, args in runs.items():
        out = tmp_path / task
        assert run([task, *args, "--set", "ode_tol=1e-7", "--out", str(out)]) == 0
        assert json.loads(read(out / "reports.json")) == want


def test_ode_tol_is_the_one_setting_of_a_run_of_checks():
    """A run of checks has one setting, the integrator tolerance ode_tol
    (bounds.ODE_TOL = 1e-6 by default): acceptance criteria 2, 3, 5 and 6
    run their checks at 1e-8, 1e-5, 1e-7 and 1e-8.  The v_lam certificate
    and the sampled checks' point count have no caller that sets them, so
    they are the library's own defaults, discrete.VLAMBDA_TOL and
    core.SAMPLES, and bounds has no settings object.  ode_tol is verify's
    third positional parameter because the benchmark's paper-suite wraps
    verify in a function of (check, scenario, settings=None) that forwards
    its third argument, which run_checks gives positionally.  A new
    run-wide setting then has to name its caller here."""
    assert [p.name for p in task_keys(cli.task_verify)] == ["operator", "checks", "ode_tol"]
    assert [p.name for p in task_keys(cli.task_suite)] == ["ode_tol"]
    params = inspect.signature(bounds.verify).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("check", "scenario", "ode_tol")]
    assert not hasattr(bounds, "Settings")


def test_a_library_argument_is_read_by_the_library_alone():
    """N, T, tol and ode_tol have one reader each, the library function that
    takes them: iterate_Vn reads N, integrate_U and integrate_u read T and
    tol, solve_vlambda reads tol and verify reads ode_tol, each under that
    name and with the core reader's rule.  bind passes them as given, so a
    config error in one is the library's own message.  The spec keys keep
    their readers in cli.READERS: their library names differ (random_game's
    num_states, m and n for states, rows and cols; rotation's theta, in
    radians, for theta_degrees), or the library's message lacks the dotted
    key (operator.dim, param.lambda, operator.random_game.seed).  A second
    reader of a key that a library function reads then has to be argued
    here."""
    assert not {"N", "T", "tol", "ode_tol"} & set(cli.READERS)
    assert not hasattr(bounds, "_config")


@pytest.mark.parametrize("task, preset, item", [
    ("value_iter", "translation", "N=x"),
    ("value_iter", "translation", "N=1e999"),
    ("ode", "rotation30", "T=x"),
    ("ode", "rotation30", "tol=[1]"),
    ("ode", "rotation30", "samples=x"),
    ("phi_ode", "matching-pennies", "T=x"),
    ("discounted", "matching-pennies", "lambdas=x"),
    ("discounted", "matching-pennies", "lambdas=5"),
    ("discounted", "matching-pennies", "tol=x"),
    ("generate-game", "random3", "game_file=5"),
    ("suite", "paper-suite", "horizn=3"),
    ("value_iter", "translation", "Nn=5"),
    ("verify", "translation", "checks=5"),
    ("generate-game", "random3", "operator=5"),
    ("ode", "rotation30", "U0=5"),
    ("ode", "rotation30", "samples=0"),
    ("phi_ode", "matching-pennies", "samples=-1"),
    ("ode", "rotation30", "T=NaN"),
    ("ode", "rotation30", "T=Infinity"),
    ("phi_ode", "matching-pennies", "T=NaN"),
    ("discounted", "matching-pennies", "tol=NaN"),
    ("ode", "rotation30", "tol=Infinity"),
    ("phi_ode", "matching-pennies", "tol=Infinity"),
    ("discounted", "matching-pennies", "tol=Infinity"),
    ("generate-game", "random3", 'random_game={"states":2}'),
    ("suite", "paper-suite", "horizon=5"),
    ("ode", "rotation30", "N=5"),
    ("discounted", "matching-pennies", "T=5"),
    ("value_iter", "translation", "tol=1e-3"),
    ("euler", "translation", "U0=[3]"),
    ("phi_ode", "matching-pennies", "x0=[4]"),
    ("discounted", "matching-pennies", "lambdas=[]"),
    ("value_iter", "translation", "N=2.5"),
    ("value_iter", "translation", "N=true"),
    ("ode", "rotation30", "samples=2.5"),
    ("value_iter", "translation", 'operator={"builtin":"identity","dim":0}'),
    ("value_iter", "translation", 'operator={"builtin":"translation","c":[]}'),
    ("value_iter", "translation", 'operator={"builtin":"affine","matrix":"x","offset":[0]}'),
    ("generate-game", "random3", "operator.junk=1"),
    ("generate-game", "random3", "operator.random_game.rows=2.5"),
    ("generate-game", "translation", "game_file=x.json"),
    ("ode", "rotation30", "T=true"),
    ("phi_ode", "matching-pennies", "tol=true"),
    ("suite", "paper-suite", "ode_tol=true"),
    ("verify", "translation", "out=x"),
])
def test_bad_task_value_or_unknown_key_is_config_error(tmp_path, capsys, task, preset, item):
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("task, preset, item, message", [
    ("ode", "rotation30", "U0=5", "U0: dimension mismatch: expected 2, got 1"),
    ("phi_ode", "matching-pennies", "u0=[1, 2]", "u0: dimension mismatch: expected 1, got 2"),
    ("euler", "translation", "x0=[1, 2]", "x0: dimension mismatch: expected 1, got 2"),
])
def test_start_point_of_the_wrong_dimension_is_named(tmp_path, capsys, task, preset,
                                                     item, message):
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith(f"config error: {message}\n")


@pytest.mark.parametrize("task, preset, item, message", [
    ("verify", "translation", "starts=[[true]]",
     "starts: not a numeric vector: entry True is not a number"),
    ("ode", "rotation30", "U0=[true, 0]", "U0: not a numeric vector: entry True is not a number"),
    ("euler", "translation", 'x0=["1"]', "x0: not a numeric vector: entry '1' is not a number"),
    ("value_iter", "translation", 'operator={"builtin":"translation","c":[true]}',
     "operator: not a numeric vector: entry True is not a number"),
    ("value_iter", "translation", 'operator={"builtin":"affine","matrix":[[true]],"offset":[0]}',
     "operator: matrix is not numeric: entry True is not a number"),
    ("value_iter", "translation", 'operator={"builtin":"affine","matrix":[[1]],"offset":["0"]}',
     "operator: not a numeric vector: entry '0' is not a number"),
    ("euler", "translation", 'steps={"kind":"explicit","values":[true]}',
     "steps: entry True is not a number"),
    ("euler", "translation", 'steps={"kind":"explicit","values":["0.5"]}',
     "steps: entry '0.5' is not a number"),
    ("phi_ode", "matching-pennies", 'param={"kind":"table","knots":[[0,true]]}',
     "param: knots: must be a number, got True"),
    ("phi_ode", "matching-pennies", 'param={"kind":"table","knots":[["0",0.5]]}',
     "param: knots: must be a number, got '0'"),
])
def test_a_str_or_bool_entry_of_a_vector_matrix_or_list_is_named(tmp_path, capsys, task,
                                                                  preset, item, message):
    # as a str or a bool given for a number is: NumPy would read it as one
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    if task == "verify":
        args += ["--set", 'checks=["expo"]', "--set", "horizon=5"]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


@pytest.mark.parametrize("sets, message", [
    (["checks=[\"expo\"]", "horizon=5", "starts=[[1, 2]]"],
     "starts: dimension mismatch: expected 1, got 2"),
    (["checks=[\"expo\"]", "horizon=5", 'starts=[["x"]]'],
     "starts: not a numeric vector: could not convert string to float: 'x'"),
    (["checks=[\"kobayashi\"]", "starts=[[0.0]]"],
     "starts: this check needs 2 start point(s), got 1"),
], ids=["wrong-dimension", "not-numeric", "too-few"])
def test_a_start_point_error_of_a_check_names_starts(tmp_path, capsys, sets, message):
    # the start points of a check are read as the tasks' U0, u0 and x0 are
    args = ["verify", "--preset", "translation", "--out", str(tmp_path)]
    for item in sets:
        args += ["--set", item]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


@pytest.mark.parametrize("horizon, n", [(213.1, 214), (226.5, 227)])
def test_interpolation_reads_its_own_steps_up_to_their_last_sigma(tmp_path, horizon, n):
    # the check's own n = ceil(horizon) equal steps end 1.1e-12 short of
    # these horizons: within the 1e-9 rule of given steps, but beyond the
    # 1e-12 that locate clamps
    sigma_n = discrete.StepSequence.constant(horizon / n, n).sigma[-1]
    assert 1e-12 < horizon - sigma_n <= 1e-9
    args = ["verify", "--preset", "translation", "--set", 'checks=["interpolation"]',
            "--set", f"horizon={horizon}", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_OK
    reports = json.loads(read(tmp_path / "reports.json"))
    assert reports and all(r["verdict"] == "pass" for r in reports)


def test_interpolation_runs_its_own_steps_whose_sigma_drifts_past_the_rule(tmp_path):
    # 10007 steps of 10006.3/10007 sum to 2.2e-9 short of the horizon: the
    # 1e-9 rule holds given steps only, and the reads stop at sigma_N
    sigma_n = discrete.StepSequence.constant(10006.3 / 10007, 10007).sigma[-1]
    assert 1e-9 < 10006.3 - sigma_n
    args = ["verify", "--preset", "translation", "--set", 'checks=["interpolation"]',
            "--set", "horizon=10006.3", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_OK
    reports = json.loads(read(tmp_path / "reports.json"))
    assert reports and all(r["verdict"] == "pass" for r in reports)


def test_steps_that_end_away_from_the_horizon_get_one_message(tmp_path, capsys):
    for check in ("euler_vs_ode", "normalized_euler", "interpolation"):
        args = ["verify", "--preset", "translation", "--set", f'checks=["{check}"]',
                "--set", "horizon=7", "--set", 'steps={"kind":"harmonic","N":20}',
                "--out", str(tmp_path)]
        assert run(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "opdyn: config error: steps, horizon: sigma_N = 3.597739657143682 differs "
            "from the horizon 7.0\n")


@pytest.mark.parametrize("value, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-1", "-1.0"), ("0", "0.0")])
def test_a_lambdas_entry_that_is_not_positive_and_finite_is_named(tmp_path, capsys,
                                                                   value, shown):
    args = ["discounted", "--preset", "matching-pennies",
            "--set", f"lambdas=[0.5, {value}]", "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        f"config error: lambdas: must be positive and finite, got {shown}\n")


@pytest.mark.parametrize("spec", [
    {"builtin": "translation", "c": [1, 2]},
    {"builtin": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [1, 2]},
], ids=["translation", "affine"])
def test_an_operator_norm_is_sup_unless_given(spec):
    assert cli.READERS["operator"](spec).norm_kind == "sup"
    for norm in ("sup", "euclidean"):
        assert cli.READERS["operator"]({**spec, "norm": norm}).norm_kind == norm


@pytest.mark.parametrize("task, preset, item, message", [
    ("discounted", "matching-pennies", "lambdas=[2]",
     "lambdas: discounted needs each lambda in (0, 1], got 2.0"),
    ("ode", "rotation30", "T=-1", "T: must be positive and finite, got -1.0"),
    ("ode", "rotation30", "tol=0", "tol: must be positive and finite, got 0.0"),
    ("phi_ode", "matching-pennies", "T=0", "T: must be positive and finite, got 0.0"),
    ("discounted", "matching-pennies", "tol=-1", "tol: must be positive and finite, got -1.0"),
    # a count too large for an array is refused before any allocation
    ("value_iter", "translation", "N=1e300", "N: 1e+300 steps do not fit in an array"),
])
def test_a_task_value_out_of_range_is_named(tmp_path, capsys, task, preset, item, message):
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


@pytest.mark.parametrize("task, preset, item, message", [
    ("generate-game", "random3", "operator.junk=1",
     "operator.junk: not a key of the random_game operator, whose keys are random_game"),
    ("generate-game", "random3", "operator.random_game.sed=1",
     "operator.random_game.sed: not a key of random_game, whose keys are states, rows, "
     "cols, payoff_range, seed"),
    ("generate-game", "random3", "operator.random_game.states=true",
     "operator.random_game.states: must be an integer, got True"),
    ("value_iter", "translation", 'operator={"builtin":"affine","matrix":[[1]]}',
     "operator.offset: missing for the affine operator, whose keys are matrix, offset, norm"),
    ("value_iter", "translation", 'operator={"builtin":"identity","dim":0}',
     "operator.dim: must be >= 1, got 0"),
    ("value_iter", "translation", 'operator={"builtin":"translation","c":[]}',
     "operator: matrix is empty: the dimension must be >= 1"),
    ("phi_ode", "matching-pennies", 'param={"kind":"constant","lambda":2}',
     "param: lambda must lie in (0, 1]"),
    ("euler", "translation", 'steps={"kind":"harmonic"}',
     "steps.N: missing for the harmonic steps, whose keys are N"),
    ("suite", "paper-suite", "ode_tol=0", "ode_tol: must be positive and finite, got 0.0"),
    ("suite", "paper-suite", 'settings={"ode_tol":1e-7}',
     "settings: not a key of suite, whose keys are ode_tol"),
    # a norm other than "sup" or "euclidean" is rejected, not read as "sup"
    *(("value_iter", "translation", f'operator={{"builtin":{builtin},"norm":{norm}}}',
       f"operator: unknown norm kind {shown}")
      for builtin in ('"translation","c":[1]', '"affine","matrix":[[0.5]],"offset":[1]')
      for norm, shown in (('""', "''"), ("false", "False"), ("0", "0"), ("null", "None"))),
])
def test_spec_key_errors_name_the_dotted_key(tmp_path, capsys, task, preset, item, message):
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


@pytest.mark.parametrize("task, preset, item, message", [
    ("phi_ode", "matching-pennies", 'param={"kind":"nope"}',
     "param: must be an object whose kind is one of constant, inverse_time_zeta, "
     "power_alpha, table"),
    ("value_iter", "translation", 'operator={"builtin":"nope"}',
     "operator: must be an object whose builtin is one of translation, rotation, "
     "affine, identity"),
    ("ode", "rotation30", "T", "--set expects key=value, got 'T'"),
    ("ode", "rotation30", "U0.x=1", "--set U0.x: 'U0' is not an object"),
])
def test_unknown_kind_or_malformed_set_names_the_key(tmp_path, capsys, task, preset,
                                                     item, message):
    args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"opdyn: config error: {message}\n"


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config: "),
    ("{bad", "config is not valid JSON: "),
    ("[1, 2]", "config: top-level value must be an object"),
])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    args = ["ode", "--preset", "rotation30", "--config", str(path), "--out", str(tmp_path)]
    assert run(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"opdyn: config error: {message}")
    assert not (tmp_path / "ode.csv").exists()


def test_unread_key_is_named_with_the_keys_the_task_takes(tmp_path, capsys):
    for task, preset, item in [("suite", "paper-suite", "horizon=5"),
                               ("ode", "rotation30", "N=5"),
                               ("euler", "translation", "U0=[3]"),
                               ("phi_ode", "matching-pennies", "x0=[4]")]:
        args = [task, "--preset", preset, "--set", item, "--out", str(tmp_path)]
        assert run(args) == cli.EXIT_CONFIG
        key = item.split("=")[0]
        assert f"config error: {key}: not a key of {task}, whose keys are " in (
            capsys.readouterr().err)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operator": {"builtin": "translation"}, "T": 5}))
    assert run(["value_iter", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "config error: T: not a key of value_iter, whose keys are operator, N\n")
    assert run(["verify", "--preset", "translation",
                "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error: checks: missing for verify, whose keys are operator, checks," in (
        capsys.readouterr().err)


def test_preset_keys_the_task_does_not_take_are_dropped(tmp_path):
    # rotation30 carries U0, T and tol for ode; value_iter takes none of them
    assert run(["value_iter", "--preset", "rotation30", "--out", str(tmp_path)]) == 0
    _, rows = csv_rows(tmp_path / "value_iter.csv")
    assert len(rows) == 100


def task_keys(task):
    """The keyword-only parameters of a task function or spec constructor:
    its config keys."""
    return [p for p in inspect.signature(task).parameters.values()
            if p.kind is p.KEYWORD_ONLY]


def shown(param):
    """A key as README's tables show it: name, or name=default."""
    name, d = param.name.rstrip("_"), param.default
    if d is param.empty or d is None:
        return name
    return f"{name}={json.dumps(d)}"


def readme_table(heading):
    """README's table under heading: its rows' keys (the backquoted words of
    the last cell) by the backquoted words of the other cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index(heading):].split("\n\n")[2]
    rows = {}
    for line in table.splitlines()[2:]:
        *selector, keys = (re.findall(r"`([\w-]+(?:=[^`]*)?)`", cell)
                           for cell in line.strip("|").split("|"))
        rows[tuple(word for cell in selector for word in cell)] = keys
    return rows


def spec_constructors():
    """Each spec object's constructors, by the words README's "Spec keys"
    table selects them with."""
    out = {}
    for source, make in cli.OPERATORS.items():
        kinds = make.items() if isinstance(make, dict) else [(None, make)]
        for kind, fn in kinds:
            out[("operator", source if kind is None else f"{source}={json.dumps(kind)}")] = fn
    out[("random_game",)] = cli._random_game
    for names, kinds in ((("param", "param2"), cli.PARAMS), (("steps",), cli.STEPS)):
        for kind, fn in kinds.items():
            out[(*names, f"kind={json.dumps(kind)}")] = fn
    return out


def test_every_preset_key_is_taken_by_some_task():
    takes = {p.name for task in cli.TASK_RUNNERS.values() for p in task_keys(task)}
    for preset in cli.PRESETS.values():
        assert set(preset) <= takes


def test_readme_table_lists_each_tasks_keyword_only_parameters():
    # README's "Task keys" table against the task signatures, each key as
    # name or name=default; READERS reads only keys that some task, check or
    # spec constructor takes
    want, taken = {}, set()
    for name, task in cli.TASK_RUNNERS.items():
        want[(name,)] = [shown(p) for p in task_keys(task)]
        taken.update(p.name for p in task_keys(task))
        # a default is shared by every call, so none may be mutable
        assert not any(isinstance(p.default, (list, dict, set)) for p in task_keys(task))
    assert readme_table("### Task keys") == want
    for fn in [*spec_constructors().values(), *bounds.CHECKS.values()]:
        taken.update(p.name.rstrip("_") for p in task_keys(fn))
    assert set(cli.READERS) <= taken


def test_a_checks_keys_are_read_by_bounds_readers_alone():
    # no task or spec key reads a check's key another way; a spec object is
    # built here, and bounds' reader takes the object as built
    for key, read in bounds.READERS.items():
        if key not in cli.SPECS:
            assert cli.READERS[key] is read
    for key, spec in [("param", {"kind": "power_alpha"}), ("param2", {"kind": "constant"}),
                      ("steps", {"kind": "harmonic", "N": 3})]:
        built = cli.READERS[key](spec)
        assert bounds.READERS[key](built) is built


FLOAT_KEYS = ["horizon", "theta_degrees", "lambda", "alpha"]
FLOAT_LIST_KEYS = ["lambdas", "payoff_range"]


@pytest.mark.parametrize("key", FLOAT_KEYS + FLOAT_LIST_KEYS)
def test_float_keys_reject_a_bool(key):
    value = [0.5, True] if key in FLOAT_LIST_KEYS else True
    with pytest.raises(InputError, match="^must be a number, got True$"):
        cli.READERS[key](value)
    assert cli.READERS[key]([0.5] if key in FLOAT_LIST_KEYS else 0.5) in (0.5, [0.5])


def test_readme_table_lists_each_spec_constructors_keyword_only_parameters():
    want = {}
    for selector, fn in spec_constructors().items():
        want[selector] = [shown(p) for p in task_keys(fn)]
        assert not any(isinstance(p.default, (list, dict, set)) for p in task_keys(fn))
    assert readme_table("### Spec keys") == want


def test_unknown_task_is_rejected_with_the_known_ones_listed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.make_parser().parse_args(["value-iter"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(task in err for task in cli.TASK_RUNNERS)


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_artifacts_get_the_mode_open_would_give(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert run(["value_iter", "--preset", "translation",
                    "--out", str(tmp_path)]) == 0
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    want = (tmp_path / "plain.txt").stat().st_mode
    assert (tmp_path / "value_iter.csv").stat().st_mode == want


@pytest.mark.parametrize("args, code, message", [
    (["verify", "--preset", "translation", "--set", 'checks=["norm_bounds"]'], cli.EXIT_OK, ""),
    (["verify", "--preset", "translation", "--set", "checks=5"], cli.EXIT_CONFIG,
     "opdyn: config error: checks: "),
    (["value_iter", "--preset", "matching-pennies", "--set",
      'operator={"game":{"states":[0],"actions":[[2,2]],"payoff":[[[1,-1],[-1,1]]],'
      '"transition":[[[[NaN],[1]],[[1],[1]]]]}}'], cli.EXIT_SCHEMA,
     "opdyn: schema error: transition[0]: "),
], ids=["ok", "config", "schema"])
def test_the_module_as_a_script_exits_with_mains_code(tmp_path, args, code, message):
    # python -m opdyn.cli, in a process of its own, returns main's code and
    # writes its files only when it succeeds
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "opdyn.cli", *args, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert done.stderr.startswith(message)
    assert any(tmp_path.iterdir()) == (code == cli.EXIT_OK)
