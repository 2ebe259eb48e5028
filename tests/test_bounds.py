import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from opdyn import bounds, cli, continuous, core, discrete, shapley
from opdyn.errors import InputError


@pytest.fixture(scope="module")
def translation():
    return core.Translation([1.0])


@pytest.fixture(scope="module")
def game_op():
    return shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))


FAST = 1e-6


def _assert_all_pass(reports):
    bad = [r for r in reports if not r.verdict]
    assert not bad, "\n".join(
        f"{r.check}: lhs={r.lhs} rhs={r.rhs} budget={r.tol_budget} ctx={r.context}"
        for r in bad
    )


def test_verify_rejects_unknown_check(translation):
    with pytest.raises(InputError, match="unknown check"):
        bounds.verify("no_such_check", bounds.Scenario(operator=translation))


def test_scenario_rejects_bad_horizon(translation):
    # the horizon's reader rejects it when verify binds it
    for horizon in (0.0, -1.0, float("nan"), float("inf"), True):
        sc = bounds.Scenario(operator=translation, horizon=horizon)
        with pytest.raises(InputError, match="^horizon: must be "):
            bounds.verify("norm_bounds", sc, FAST)


def test_verify_reads_the_ode_tol_of_its_run(translation):
    # verify reads ode_tol once, with core.positive, whether or not its
    # check integrates; run_checks passes its own to each verify call
    sc = bounds.Scenario(operator=translation, horizon=5)
    with pytest.raises(InputError, match=re.escape(
            "ode_tol: must be positive and finite, got 0.0")):
        bounds.verify("solution_contraction", sc, 0.0)
    for bad in (-1.0, math.nan, math.inf, True, "1e-6", None):
        with pytest.raises(InputError, match="^ode_tol: must be "):
            bounds.verify("vlambda_lipschitz", bounds.Scenario(operator=translation), bad)
    seen, integrate = [], continuous.integrate_U
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuous, "integrate_U",
                   lambda *args, tol: seen.append(tol) or integrate(*args, tol=tol))
        bounds.run_checks([("solution_contraction", sc)], 1e-7)
    assert seen == [1e-7, 1e-7]  # one flow from each start
    assert bounds.verify("solution_contraction", sc) == bounds.verify(
        "solution_contraction", sc, bounds.ODE_TOL)


def test_registry_covers_all_checks():
    assert len(bounds.CHECKS) == 23
    # a check's id is stated once, as its function's name less _check_
    for check, fn in bounds.CHECKS.items():
        assert fn.__name__ == f"_check_{check}"
    # a report's keys are stated once, as its fields, in order
    rep = bounds.BoundReport("c", 1.0, 0.0, -1.0, 1e-9, False, {"n": 1})
    assert list(rep.to_dict()) == [f.name for f in dataclasses.fields(rep)]
    assert rep.to_dict() == {"check": "c", "lhs": 1.0, "rhs": 0.0, "slack": -1.0,
                             "tol_budget": 1e-9, "verdict": "fail", "context": {"n": 1}}


def test_report_serialization(translation):
    rep = bounds.verify(
        "norm_bounds", bounds.Scenario(operator=translation, horizon=20), FAST
    )[0]
    d = rep.to_dict()
    assert d["check"] == "norm_bounds"
    assert d["verdict"] in ("pass", "fail")
    assert set(d) == {"check", "lhs", "rhs", "slack", "tol_budget",
                      "verdict", "context"}


def test_norm_bounds_translation(translation):
    reports = bounds.verify(
        "norm_bounds", bounds.Scenario(operator=translation, horizon=50), FAST
    )
    _assert_all_pass(reports)
    # v_n = c exactly, so the bound is met with equality
    assert reports[0].lhs == pytest.approx(1.0)


def test_accretivity_and_hypothesis_H(game_op):
    sc = bounds.Scenario(operator=game_op)
    _assert_all_pass(bounds.verify("accretivity", sc, FAST))
    reports = bounds.verify("hypothesis_H", sc, FAST)
    _assert_all_pass(reports)
    assert reports[0].context["violations"] == 0


def test_vlambda_lipschitz(translation, game_op):
    for op in (translation, game_op):
        _assert_all_pass(
            bounds.verify("vlambda_lipschitz", bounds.Scenario(operator=op), FAST)
        )


def test_convboth_translation_and_skip(translation, game_op):
    reports = bounds.verify(
        "convboth", bounds.Scenario(operator=translation, horizon=50), FAST
    )
    _assert_all_pass(reports)
    # on a game, ||v_n - v_1/n|| decays from n = 2 on
    (decay,) = bounds.verify(
        "convboth", bounds.Scenario(operator=game_op, horizon=50), FAST
    )
    _assert_all_pass([decay])
    assert decay.context["n_values"][0] == 2
    assert decay.lhs == decay.context["gaps"][-1] > 0.0
    assert "note" not in decay.context
    pennies = shapley.ShapleyOperator(shapley.matching_pennies())
    (zero,) = bounds.verify(
        "convboth", bounds.Scenario(operator=pennies, horizon=50), FAST
    )
    assert zero.verdict and not any(zero.context["gaps"])
    assert zero.context["note"] == "every gap is 0"
    # any other operator is skipped, which leaves no report; a horizon below
    # 3, which leaves the decay one n, is named
    with pytest.raises(InputError, match="no report"):
        bounds.verify("convboth", bounds.Scenario(operator=core.rotation(0.5), horizon=50),
                      FAST)
    with pytest.raises(InputError, match="^horizon: convboth needs a horizon of at least 3, "
                                         "got 1.0$"):
        bounds.verify("convboth", bounds.Scenario(operator=game_op, horizon=1), FAST)


@pytest.mark.parametrize("check, least", [
    ("norm_bounds", 1), ("convvn", 2), ("euler_vs_ode", 1), ("normalized_euler", 1),
    ("wn_tracks_vn", 2), ("convboth", 3), ("discrete_slow", 2), ("alpha_family", 2),
])
def test_a_horizon_below_the_least_n_a_check_reads_is_named(translation, check, least):
    # N = int(horizon) is the last n the check reads; below its least N it
    # would read no n, an n past N, or one gap for a decay
    below = float(np.nextafter(least, 0.0))
    with pytest.raises(InputError, match=f"^horizon: {check} needs a horizon of at least "
                                         f"{least}, got {re.escape(repr(below))}$"):
        bounds.verify(check, bounds.Scenario(operator=translation, horizon=below), FAST)
    assert bounds.verify(check, bounds.Scenario(operator=translation, horizon=least), FAST)


def test_a_read_point_outside_the_flow_is_named(translation):
    # at horizon 10: convvn reads v_n and its flow up to N = 10
    sc = bounds.Scenario(operator=translation, horizon=10, n_values=[20])
    with pytest.raises(InputError, match=re.escape(
            "n_values: convvn reads points in [1, 10], got 20") + "$"):
        bounds.verify("convvn", sc, FAST)


def test_constant_decay_skips_a_time_past_the_horizon(translation):
    # its times are 1, 5, 10 and 20, each read twice
    reports = bounds.verify("constant_decay", bounds.Scenario(
        operator=translation, horizon=10), FAST)
    assert [r.context["t"] for r in reports] == [1.0, 1.0, 5.0, 5.0, 10.0, 10.0]


@pytest.mark.parametrize("horizon, n", [(10.0, 100), (50.0, 100), (100.0, 100),
                                        (150.5, 151), (200.0, 200)])
def test_interpolation_takes_a_step_count_of_at_least_100_and_the_horizon(translation,
                                                                          horizon, n):
    # max(100, ceil(horizon)) equal steps, so none is longer than 1
    reports = bounds.verify("interpolation", bounds.Scenario(
        operator=translation, horizon=horizon), FAST)
    _assert_all_pass(reports)
    assert [r.context["max_step"] for r in reports] == [horizon / n]


def test_log_spaced_counts_are_read_once(translation):
    # at horizon 3 the six log-spaced points from 2 to 3 truncate to 2 five
    # times; each n is solved and reported once
    pennies = shapley.ShapleyOperator(shapley.matching_pennies())
    (rep,) = bounds.verify("convboth", bounds.Scenario(operator=pennies, horizon=3), FAST)
    assert rep.context["n_values"] == [2, 3]
    (rep,) = bounds.verify("discrete_slow", bounds.Scenario(operator=translation, horizon=3),
                           FAST)
    assert rep.context["n_values"] == [1, 2, 3]
    assert [r.context["n"] for r in bounds.verify(
        "convvn", bounds.Scenario(operator=translation, horizon=3), FAST)] == [2, 3]


def test_kobayashi_on_rotation():
    sc = bounds.Scenario(operator=core.rotation(np.pi / 6.0), pairs=3)
    _assert_all_pass(bounds.verify("kobayashi", sc, FAST))


def test_chernoff_translation(translation):
    sc = bounds.Scenario(operator=translation, horizon=10)
    _assert_all_pass(bounds.verify("chernoff", sc, FAST))


def test_convvn_rejects_a_zero_step_count(translation):
    sc = bounds.Scenario(operator=translation, horizon=10, n_values=[0])
    with pytest.raises(InputError, match="^n_values: must be >= 1"):
        bounds.verify("convvn", sc, FAST)


def test_constant_decay_requires_constant_param(translation):
    sc = bounds.Scenario(operator=translation, horizon=10,
                         param=continuous.PowerAlpha(0.5))
    with pytest.raises(InputError, match="Constant"):
        bounds.verify("constant_decay", sc, FAST)


def test_param_checks_require_param(translation):
    sc = bounds.Scenario(operator=translation, horizon=10)
    for check in ("stationarity_gap", "slow_param", "convder_decay"):
        with pytest.raises(InputError, match=f"^param: missing for {check}, whose keys "):
            bounds.verify(check, sc, FAST)
    sc = bounds.Scenario(operator=translation, horizon=10,
                         param=continuous.PowerAlpha(0.5))
    with pytest.raises(InputError, match="^param2: missing for two_param, whose keys "):
        bounds.verify("two_param", sc, FAST)


@pytest.mark.parametrize("check, given, key, kind", [
    ("stationarity_gap", {"param": 0.5}, "param", "Parametrization"),
    ("two_param", {"param": continuous.PowerAlpha(0.5), "param2": {"kind": "constant"}},
     "param2", "Parametrization"),
    ("euler_vs_ode", {"steps": [0.5, 0.5]}, "steps", "StepSequence"),
])
def test_a_spec_input_of_the_wrong_type_is_an_input_error_naming_it(translation, check,
                                                                      given, key, kind):
    # param and param2 must be Parametrizations, steps a StepSequence:
    # anything else is named before the check runs
    sc = bounds.Scenario(operator=translation, **given)
    with pytest.raises(InputError, match=f"^{key}: must be a {kind}, got "):
        bounds.verify(check, sc, FAST)


@pytest.mark.parametrize("check, given, name", [
    ("chernoff", {"gird": 0}, "gird"),
    ("chernoff", {"param2": continuous.PowerAlpha(0.5)}, "param2"),
    ("accretivity", {"starts": [[0.0]]}, "starts"),
    ("accretivity", {"horizon": 5.0}, "horizon"),
    ("hypothesis_H", {"lambdas": [0.5]}, "lambdas"),
    ("accretivity", {"horizon": 50.0}, "horizon"),
    ("vlambda_lipschitz", {"seed": 0}, "seed"),
    # a scenario is named by its operator's description: name is an input
    ("chernoff", {"name": "x"}, "name"),
    # a check's read points, grids and discount factors are its own constants
    ("chernoff", {"grid": 20}, "grid"),
    ("chernoff", {"nmax": 50}, "nmax"),
    ("kobayashi", {"subgrid": 10}, "subgrid"),
    ("kobayashi", {"steps2": discrete.StepSequence.harmonic(3)}, "steps2"),
    # kobayashi draws both step sequences of each pair, pairs of them
    ("kobayashi", {"steps": discrete.StepSequence.harmonic(3)}, "steps"),
    ("expo", {"m_values": [25, 100, 400, 1600]}, "m_values"),
    ("slow_param", {"t_values": [1.0]}, "t_values"),
    ("norm_bounds", {"lambdas": [1.0, 0.5]}, "lambdas"),
    ("discrete_slow", {"lambda_seq": [1.0, 0.5]}, "lambda_seq"),
    ("alpha_family", {"alpha": 0.5}, "alpha"),
    ("interpolation", {"n_steps": 100}, "n_steps"),
])
def test_verify_rejects_an_input_its_check_does_not_read(translation, check, given, name):
    # at the check's default value too: an input is given when it is given
    sc = bounds.Scenario(operator=translation, **given)
    with pytest.raises(InputError, match=f"^{name}: not a key of {check}, whose keys are "):
        bounds.verify(check, sc, FAST)


def test_readme_table_lists_each_checks_keyword_only_parameters():
    # README's "Check inputs" table against the check signatures, each input
    # as name or name=default
    def shown(param):
        d = param.default
        if d is param.empty or d is None:
            return param.name
        return f"{param.name}={d.describe() if hasattr(d, 'describe') else json.dumps(d)}"

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("### Check inputs"):].split("\n\n")[2]
    rows = {}
    for line in table.splitlines()[2:]:
        check, names = (re.findall(r"`(\w+(?:=[^`]*)?)`", cell)
                        for cell in line.strip("|").split("|"))
        rows[check[0]] = names
    want, taken = {}, set()
    for check, fn in bounds.CHECKS.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.KEYWORD_ONLY]
        want[check] = [shown(p) for p in params]
        taken.update(p.name for p in params)
    assert rows == want
    # one reader per input, each used
    assert set(bounds.READERS) == taken


def test_each_check_input_has_a_caller():
    """The nine check inputs, each set by a caller outside the tests:
    suite_plan sets horizon, pairs, steps, param, param2 and case;
    acceptance criterion 3 reads convvn at n_values [10, 100, 1000] and
    criterion 4 runs kobayashi at seed 1; ROADMAP items 4 and 11 vary the
    start points, starts.  A read point, a grid size or a discount factor
    that only moves where a check reads its trajectory is the check's own
    constant, so a new input has to name its caller here."""
    assert sorted(bounds.READERS) == ["case", "horizon", "n_values", "pairs", "param",
                                      "param2", "seed", "starts", "steps"]
    assert sum(len(bounds.keys(fn)) for fn in bounds.CHECKS.values()) == 52


def test_failing_check_is_reported():
    # an expansive map violates the sampled accretivity inequality
    class Shrinking(core.Operator):
        dim, norm_kind = 1, core.SUP

        def map(self, x):
            return 3.0 * x

    reports = bounds.verify(
        "accretivity",
        bounds.Scenario(operator=Shrinking()),
        FAST,
    )
    assert any(not r.verdict for r in reports)
    assert all(r.slack < 0 for r in reports if not r.verdict)


def test_accretivity_evaluates_J_twice_per_sample_for_all_lambdas():
    # one draw of pairs and one A(x), A(y) per pair serve every lambda
    class Counting(core.Translation):
        calls = 0

        def map(self, x):
            Counting.calls += 1
            return super().map(x)

    reports = bounds.verify("accretivity", bounds.Scenario(Counting([1.0, 2.0])), FAST)
    assert [r.context["lambda"] for r in reports] == [0.1, 0.5, 1.0, 2.0]
    assert [r.context["samples"] for r in reports] == [core.SAMPLES] * 4
    assert Counting.calls == 2 * core.SAMPLES


def test_euler_vs_ode_translation(translation):
    sc = bounds.Scenario(operator=translation, horizon=50)
    _assert_all_pass(bounds.verify("euler_vs_ode", sc, FAST))
    _assert_all_pass(bounds.verify("normalized_euler", sc, FAST))


def test_stationarity_and_decay_on_translation(translation):
    sc = bounds.Scenario(operator=translation, horizon=50,
                         param=continuous.PowerAlpha(0.5))
    _assert_all_pass(bounds.verify("stationarity_gap", sc, FAST))
    _assert_all_pass(bounds.verify("convder_decay", sc, FAST))
    _assert_all_pass(bounds.verify("slow_param", sc, FAST))


def test_stationarity_gap_reads_at_each_of_its_eight_targets(translation):
    sc = bounds.Scenario(operator=translation, horizon=50,
                         param=continuous.PowerAlpha(0.5))
    reports = bounds.verify("stationarity_gap", sc, FAST)
    assert [r.context["t"] for r in reports] == np.geomspace(0.5, 50.0, 8).tolist()


def test_slow_param_inverse_time_zeta_on_pennies():
    sc = bounds.Scenario(operator=shapley.ShapleyOperator(shapley.matching_pennies()),
                         horizon=20, param=continuous.InverseTimeZeta())
    _assert_all_pass(bounds.verify("slow_param", sc, FAST))


def test_suite_plan_covers_every_check_twice():
    plan = bounds.suite_plan()
    counts = {}
    for check, _ in plan:
        counts[check] = counts.get(check, 0) + 1
    assert set(counts) == set(bounds.CHECKS)
    assert all(c >= 2 for c in counts.values())


# ---------------------------------------------------------------------------
# solves shared within one run_checks call


def _as_json(reports):
    return [json.dumps(r.to_dict(), sort_keys=True, default=cli._json_default)
            for r in reports]


def _written(out):
    """The reports of reports.json in out, each as _as_json writes one."""
    return [json.dumps(d, sort_keys=True)
            for d in json.loads((out / "reports.json").read_text(encoding="utf-8"))]


def test_run_suite_reports_equal_each_plan_entry_verified_alone(paper_suite):
    # a check that wrote into a shared result would change a later report
    (_, first, _), (_, second, _), (alone, _) = paper_suite
    assert len(alone) == 208
    assert _written(first) == _as_json(alone)
    assert _written(second) == _as_json(alone)


def test_ci_counts_a_header_and_one_csv_line_per_paper_suite_report(paper_suite):
    # CI's installed-command step checks the paper-suite run by the line
    # count of its reports.csv, so a change to the report count moves it
    (_, first, _), _, _ = paper_suite
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    counts = re.findall(r'wc -l < "\$RUNNER_TEMP/suite/reports\.csv"\)" -eq (\d+)',
                        workflow.read_text(encoding="utf-8"))
    assert counts == [str(1 + len(_written(first)))]


def test_run_suite_solves_each_repeated_flow_vlambda_and_vn_once(paper_suite):
    # 42 integrations, 99 v_lambda solves and 10 iterate_Vn calls without
    # sharing (see the paper_suite fixture for how they are counted)
    (_, _, first), (_, _, second), (_, alone) = paper_suite
    assert first == second == (36, 76, 4)
    assert alone == (42, 99, 10)
    assert bounds._SHARED.get() is None


def _probe(monkeypatch, check):
    """run_checks on one pair of the check fn, on a translation."""
    monkeypatch.setitem(bounds.CHECKS, "probe", check)
    return bounds.run_checks([("probe", bounds.Scenario(core.Translation([1.0])))], FAST)


def test_a_rebuilt_parametrization_gets_its_own_flow(monkeypatch):
    # each PowerAlpha is dropped after its call, so without the entry holding
    # it the next one could take its id and read its flow
    def check(op, ode_tol):
        start = np.ones(op.dim)
        shared = [bounds._shared(continuous.integrate_u, op, continuous.PowerAlpha(alpha),
                                 start, 5.0, tol=ode_tol) for alpha in (0.5, 0.0)]
        for alpha, traj in zip((0.5, 0.0), shared):
            alone = continuous.integrate_u(op, continuous.PowerAlpha(alpha), start, 5.0,
                                           tol=ode_tol)
            assert traj.nodes.tobytes() == alone.nodes.tobytes()
            yield 0.0, 0.0, 0.0, {"alpha": alpha}

    assert len(_probe(monkeypatch, check)) == 2


def test_starts_that_differ_in_the_sign_of_a_zero_are_different_keys(monkeypatch):
    assert bounds._key(0.0) != bounds._key(-0.0)
    assert bounds._key(np.array([0.0])) != bounds._key(np.array([-0.0]))
    assert bounds._key(np.array([0.0])) != bounds._key(np.array([0.0], dtype=np.float32))
    assert bounds._key(np.zeros(2)) != bounds._key(np.zeros((2, 1)))

    def check(op, ode_tol):
        # U(t) = U0 + t c keeps the sign of a zero start at t = 0
        for zero in (0.0, -0.0, 0.0):
            traj = bounds._shared(continuous.integrate_U, op, np.array([zero]), 2.0,
                                  tol=ode_tol)
            assert np.signbit(traj.points[0, 0]) == np.signbit(zero)
            yield 0.0, 0.0, 0.0, {}

    assert len(_probe(monkeypatch, check)) == 3


def test_verify_adds_the_rounding_allowance_to_each_budget(monkeypatch):
    # a check yields its certified error alone, here none; an lhs above the
    # rhs by less than the allowance passes
    def check(op, ode_tol):
        yield 1.0 + 0.5 * bounds.BASE_TOL, 1.0, 0.0, {}
        yield 1.0, 1.0, 0.25, {}

    (within, budgeted) = _probe(monkeypatch, check)
    assert within.verdict and within.tol_budget == bounds.BASE_TOL
    assert budgeted.tol_budget == bounds.BASE_TOL + 0.25


def test_the_memo_ends_with_its_run_checks_call_when_a_check_fails():
    with pytest.raises(InputError, match="unknown check"):
        bounds.run_checks([("no_such_check", bounds.Scenario(core.Translation([1.0])))])
    assert bounds._SHARED.get() is None
