import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdyn import core, shapley
from opdyn.errors import InputError, ResourceError, SchemaError

entries = st.floats(-1e3, 1e3, allow_nan=False)
games_2x2 = st.lists(entries, min_size=4, max_size=4).map(
    lambda xs: np.array(xs).reshape(2, 2)
)


def scale_tol(*arrays):
    """1e-9 relative to the largest magnitude involved, at least 1e-9."""
    return 1e-9 * max(1.0, *(float(np.max(np.abs(a))) for a in arrays))


def assert_certified(M, sol):
    """Strategies are distributions whose gap brackets the value."""
    for x in (sol.row_strategy, sol.col_strategy):
        assert np.all(x >= 0.0) and abs(float(np.sum(x)) - 1.0) <= 1e-12
    maximin = float(np.min(sol.row_strategy @ M))
    minimax = float(np.max(M @ sol.col_strategy))
    assert minimax - maximin <= shapley.LP_GAP_TOL
    assert maximin - 1e-9 <= sol.value <= minimax + 1e-9


def test_matching_pennies_matrix_value():
    sol = shapley.matrix_game_value([[1.0, -1.0], [-1.0, 1.0]])
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.row_strategy, [0.5, 0.5])
    assert np.allclose(sol.col_strategy, [0.5, 0.5])


def test_saddle_point_game():
    # row mins (1, 0), col maxes (3, 1): pure saddle at value 1
    sol = shapley.matrix_game_value([[3.0, 1.0], [2.0, 0.0]])
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_one_by_one_game():
    sol = shapley.matrix_game_value([[7.0]])
    assert sol.value == 7.0
    assert sol.row_strategy.tolist() == [1.0]


def test_rectangular_games():
    # dominant column: value is min over the best column's entries
    sol = shapley.matrix_game_value([[0.0, 5.0, 1.0], [2.0, 3.0, 4.0]])
    oracle = shapley.matrix_game_value_oracle([[0.0, 5.0, 1.0], [2.0, 3.0, 4.0]])
    assert sol.value == pytest.approx(oracle, abs=1e-3)


def test_lp_matches_oracle_on_seeded_matrices():
    rng = np.random.default_rng(42)
    for trial in range(20):
        shape = (2, 2) if trial % 2 == 0 else (3, 3)
        M = rng.uniform(-5.0, 5.0, size=shape)
        got = shapley.matrix_game_value(M).value
        want = shapley.matrix_game_value_oracle(M)
        # the 2x2 closed form is exact to rounding, like the oracle
        tol = scale_tol(M) if shape == (2, 2) else 1e-3
        assert got == pytest.approx(want, abs=tol), f"trial {trial}: {M}"


def test_lp_strategies_certify_value():
    rng = np.random.default_rng(7)
    for shape in ((3, 3), (2, 2)):
        for _ in range(20):
            M = rng.uniform(-3.0, 3.0, size=shape)
            assert_certified(M, shapley.matrix_game_value(M))


@pytest.mark.parametrize(
    "M, value",
    [
        ([[2.0, 2.0], [2.0, 2.0]], 2.0),  # constant
        ([[1.0, 3.0], [1.0, 3.0]], 1.0),  # equal rows
        ([[1.0, 1.0], [3.0, 3.0]], 3.0),  # equal columns
        ([[1.0, 1.0], [0.0, 2.0]], 1.0),  # saddle on a tied row
        ([[0.0, 1.0], [1.0, 0.0]], 0.5),  # no saddle, tied entries
    ],
)
def test_2x2_exact_ties(M, value):
    M = np.array(M)
    sol = shapley.matrix_game_value(M)
    assert sol.value == value
    assert sol.value == pytest.approx(shapley.matrix_game_value_oracle(M), abs=1e-12)
    assert_certified(M, sol)


def test_2x2_value_keeps_its_digits_far_from_zero():
    # value 5e-4 + c; the textbook (ad - bc) / den would cancel ad against bc
    # and lose about 5e-8 of it at c = 1e3, and 0.05 at c = 1e6
    M = np.array([[1e-3, 0.0], [0.0, 1e-3]])
    for c in (1e3, -1e3, 1e6):
        sol = shapley.matrix_game_value(M + c)
        assert sol.value == pytest.approx(5e-4 + c, abs=1e-12 * abs(c))


@given(M=games_2x2, c=entries)
@settings(max_examples=200, deadline=None)
def test_2x2_translation_property(M, c):
    got = shapley.matrix_game_value(M + c).value
    want = shapley.matrix_game_value(M).value + c
    assert got == pytest.approx(want, abs=scale_tol(M, np.array(c)))


@given(M=games_2x2, a=st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_2x2_scaling_property(M, a):
    got = shapley.matrix_game_value(a * M).value
    want = a * shapley.matrix_game_value(M).value
    assert got == pytest.approx(want, abs=scale_tol(a * M))


@given(M=games_2x2)
@settings(max_examples=200, deadline=None)
def test_2x2_skew_transpose_property(M):
    sol = shapley.matrix_game_value(M)
    swapped = shapley.matrix_game_value(-M.T)
    assert swapped.value == pytest.approx(-sol.value, abs=scale_tol(M))
    assert_certified(M, sol)
    assert sol.value == pytest.approx(
        shapley.matrix_game_value_oracle(M), abs=scale_tol(M)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_non_finite_entries_are_input_errors(shape, bad):
    M = np.zeros(shape)
    M[-1, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        shapley.matrix_game_value(M)


@pytest.mark.parametrize(
    "M", [[[1.0, -1.0], [-1.0, 1.0]], [[0.0, 5.0, 1.0], [2.0, 3.0, 4.0], [1.0, 0.0, 2.0]]]
)
def test_failed_gap_certificate_is_resource_error(monkeypatch, M):
    # a negative tolerance fails every certificate, even an exact one
    monkeypatch.setattr(shapley, "LP_GAP_TOL", -1.0)
    with pytest.raises(ResourceError, match="gap"):
        shapley.matrix_game_value(M)


def test_game_schema_errors():
    good = shapley.matching_pennies().to_dict()

    missing = dict(good)
    del missing["payoff"]
    with pytest.raises(SchemaError, match="payoff"):
        shapley.load_game(missing)

    bad_shape = json.loads(json.dumps(good))
    bad_shape["payoff"][0] = [[1.0, -1.0]]
    with pytest.raises(SchemaError, match=r"payoff\[0\]"):
        shapley.load_game(bad_shape)

    bad_rows = json.loads(json.dumps(good))
    bad_rows["transition"][0][0][0] = [0.5]
    with pytest.raises(SchemaError, match="transition"):
        shapley.load_game(bad_rows)

    with pytest.raises(SchemaError, match="JSON"):
        shapley.load_game("{not json")


def test_game_roundtrip(tmp_path):
    game = shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game.to_dict()))
    again = shapley.load_game(str(path))
    assert again.states == game.states
    for a, b in zip(again.payoff, game.payoff):
        assert np.array_equal(a, b)
    for a, b in zip(again.transition, game.transition):
        assert np.allclose(a, b, atol=1e-15)


def test_random_game_is_seed_deterministic():
    a = shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=11)
    b = shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=11)
    for x, y in zip(a.payoff, b.payoff):
        assert np.array_equal(x, y)


def test_degenerate_single_action_game():
    game = shapley.StochasticGame(
        states=["s"],
        actions=[(1, 1)],
        payoff=[np.array([[5.0]])],
        transition=[np.ones((1, 1, 1))],
    )
    for f in (0.0, 2.0, -3.5):
        out = shapley.shapley_apply(game, [f])
        assert out[0] == pytest.approx(5.0 + f, abs=1e-12)


def test_shapley_operator_nonexpansive_sup():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    rep = core.check_nonexpansive(op, samples=100, seed=1)
    assert rep.violations == 0


def test_shapley_monotone_and_additive():
    game = shapley.random_game(3, 2, 2, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.uniform(-5.0, 5.0, size=3)
        g = f + rng.uniform(0.0, 3.0, size=3)
        Jf, Jg = shapley.shapley_apply(game, f), shapley.shapley_apply(game, g)
        assert np.all(Jf <= Jg + 1e-9), "monotonicity"
        c = float(rng.uniform(-4.0, 4.0))
        Jfc = shapley.shapley_apply(game, f + c)
        assert np.allclose(Jfc, Jf + c, atol=1e-9), "constant additivity"


def test_matching_pennies_operator_is_identity():
    # val([[1,-1],[-1,1]] + f) = f for every scalar f
    op = shapley.ShapleyOperator(shapley.matching_pennies())
    for f in (-2.0, 0.0, 1.5):
        assert op.J([f])[0] == pytest.approx(f, abs=1e-12)


def test_h_constant_is_max_abs_payoff():
    game = shapley.random_game(2, 2, 2, (-3.0, 3.0), seed=5)
    want = max(float(np.max(np.abs(g))) for g in game.payoff)
    assert core.h_constant(shapley.ShapleyOperator(game)) == want


def test_transition_row_sum_validation():
    doc = shapley.matching_pennies().to_dict()
    doc["transition"][0][0][0] = [0.7]
    with pytest.raises(SchemaError, match="row sums"):
        shapley.load_game(doc)
