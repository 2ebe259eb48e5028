import numpy as np
import pytest

from opdyn import bounds, continuous, core, shapley
from opdyn.errors import InputError


@pytest.fixture(scope="module")
def translation():
    return core.Translation([1.0])


@pytest.fixture(scope="module")
def game_op():
    return shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))


FAST = bounds.Settings(ode_tol=1e-6)


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
    with pytest.raises(InputError):
        bounds.Scenario(operator=translation, horizon=0.0)


def test_registry_covers_all_checks():
    assert len(bounds.CHECKS) == 23


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
    skipped = bounds.verify(
        "convboth", bounds.Scenario(operator=game_op, horizon=50), FAST
    )
    assert skipped[0].verdict
    assert "skipped" in skipped[0].context["status"]


def test_kobayashi_on_rotation():
    sc = bounds.Scenario(operator=core.rotation(np.pi / 6.0),
                         extra={"pairs": 3})
    _assert_all_pass(bounds.verify("kobayashi", sc, FAST))


def test_chernoff_translation(translation):
    sc = bounds.Scenario(operator=translation, horizon=10,
                         extra={"grid": 8, "nmax": 10})
    _assert_all_pass(bounds.verify("chernoff", sc, FAST))


def test_convvn_rejects_a_zero_step_count(translation):
    sc = bounds.Scenario(operator=translation, horizon=10, extra={"n_values": [0]})
    with pytest.raises(InputError, match="extra.n_values: must be >= 1"):
        bounds.verify("convvn", sc, FAST)


def test_constant_decay_requires_constant_param(translation):
    sc = bounds.Scenario(operator=translation, horizon=10,
                         param=continuous.PowerAlpha(0.5))
    with pytest.raises(InputError, match="Constant"):
        bounds.verify("constant_decay", sc, FAST)


def test_param_checks_require_param(translation):
    sc = bounds.Scenario(operator=translation, horizon=10)
    for check in ("stationarity_gap", "slow_param", "convder_decay"):
        with pytest.raises(InputError, match="parametrization"):
            bounds.verify(check, sc, FAST)


def test_failing_check_is_reported():
    # an expansive map violates the sampled accretivity inequality
    class Shrinking(core.Operator):
        dim, norm_kind = 1, core.SUP

        def J(self, x):
            return 3.0 * core.as_vec(x, 1)

    reports = bounds.verify(
        "accretivity",
        bounds.Scenario(operator=Shrinking(), extra={"lambdas": [0.5]}),
        FAST,
    )
    assert any(not r.verdict for r in reports)
    assert all(r.slack < 0 for r in reports if not r.verdict)


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
