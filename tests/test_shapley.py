import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdyn import core, shapley
from opdyn.errors import InputError, ResourceError, SchemaError

#: entries of nearly degenerate games, on which the float simplex can fail
#: its certificate so that the exact pass runs
DEGENERATE = (0.0, 1.0, -1.0, 0.5, 2.0, 1.0 + 1e-8, 1e-8, -1e-8, 1e-12, 1e-5)
#: a game whose float simplex misses its certificate (see the test below)
NEAR_TIE = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-8]])
#: shapes of the scale properties: the closed form and the simplex
shapes = st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
#: sizes and shifts of the scale properties
magnitudes = st.floats(1e-6, 1e12)


def games(entries):
    """Matrices of every property shape, some entries from DEGENERATE."""
    cell = st.one_of(entries, st.sampled_from(DEGENERATE))
    return shapes.flatmap(lambda shape: st.lists(
        cell, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda xs: np.array(xs).reshape(shape)))


def scale_tol(*arrays):
    """1e-9 relative to the largest magnitude involved, at least 1e-9."""
    return 1e-9 * max(1.0, *(float(np.max(np.abs(a))) for a in arrays))


def certified_tol(*widths):
    """How far apart two certified values with equal true values may lie.

    A certified value and the true value of its game B both lie in the
    bracket [maximin, minimax], whose width the certificate holds to
    LP_GAP_TOL * max(1, max|B|) = scale_tol(B), so each value is within its
    width of the true value.  When the two true values agree (translation,
    scaling, skew-transposition), the values differ by at most the sum of
    the two widths, each scaled as the value it bounds.  The brackets are
    computed in floats, so each end is off by a few eps*max|B|, about 1e-6
    of a width; the factor 1.01 covers that, the rounding of the compared
    expression and of the transformed matrix.
    """
    return 1.01 * sum(widths)


def assert_certified(M, sol, gap=shapley.LP_GAP_TOL):
    """Strategies are distributions whose gap brackets the value."""
    for x in (sol.row_strategy, sol.col_strategy):
        assert np.all(x >= 0.0) and abs(float(np.sum(x)) - 1.0) <= 1e-12
    maximin = float(np.min(sol.row_strategy @ M))
    minimax = float(np.max(M @ sol.col_strategy))
    assert minimax - maximin <= gap
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
    for x in (7.0, -3.5, 1e300, -1e-300, 0.1):
        sol = shapley.matrix_game_value([[x]])
        assert sol.value == x
        assert sol.row_strategy.tolist() == sol.col_strategy.tolist() == [1.0]


def test_rectangular_games():
    # dominant column: value is min over the best column's entries
    M = np.array([[0.0, 5.0, 1.0], [2.0, 3.0, 4.0]])
    sol = shapley.matrix_game_value(M)
    oracle = shapley.matrix_game_value_oracle(M)
    assert sol.value == pytest.approx(oracle, abs=scale_tol(M))


def test_lp_matches_oracle_on_seeded_matrices():
    rng = np.random.default_rng(42)
    for trial in range(20):
        shape = (2, 2) if trial % 2 == 0 else (3, 3)
        M = rng.uniform(-5.0, 5.0, size=shape)
        got = shapley.matrix_game_value(M).value
        want = shapley.matrix_game_value_oracle(M)
        assert got == pytest.approx(want, abs=scale_tol(M)), f"trial {trial}: {M}"


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


def solve_2x2_on_lists(a, b, c, d):
    """_solve_2x2 with both strategies clamped through _clamp_simplex's
    lists, as it was written before the pair form."""
    row1_min, row2_min = min(a, b), min(c, d)
    col1_max, col2_max = max(a, c), max(b, d)
    maximin = max(row1_min, row2_min)
    if maximin == min(col1_max, col2_max):
        return None  # a pure saddle: no strategy is clamped
    den = (a - b) + (d - c)
    p = shapley._clamp_simplex([(d - c) / den, (a - b) / den])
    q = shapley._clamp_simplex([(d - b) / den, (a - c) / den])
    return a - (a - b) * (a - c) / den, tuple(p), tuple(q)


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


def test_2x2_mixed_strategies_equal_the_list_clamp_bit_for_bit():
    rng = np.random.default_rng(12)
    games = [rng.uniform(-1.0, 1.0, 4) * scale + shift
             for scale, shift in ((1.0, 0.0), (1e9, 0.0), (1.0, 1e9), (1e-9, 0.0))
             for _ in range(500)]
    games += [rng.integers(-2, 3, 4).astype(float) for _ in range(500)]
    # (d - c) / den and (d - b) / den underflow to exactly 0: the clamping branch
    games.append(np.array([1e10, 0.0, 0.0, 5e-324]))
    mixed = 0
    for a, b, c, d in (g.tolist() for g in games):
        want = solve_2x2_on_lists(a, b, c, d)
        if want is not None:
            mixed += 1
            value, p, q = shapley._solve_2x2(a, b, c, d)
            assert float_bits([value, *p, *q]) == float_bits([want[0], *want[1], *want[2]])
    assert mixed > 500
    assert shapley._solve_2x2(1e10, 0.0, 0.0, 5e-324)[1:] == ((0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("x, y", [
    (0.25, 0.75), (1e-300, 1.0), (5e-324, 5e-324), (1e308, 1e308),
    (0.0, 1.0), (1.0, -0.0), (-1e-12, 0.5), (-5e-13, 2.0), (float("nan"), 1.0),
    (1.0, float("nan")), (-2e-12, 1.0), (0.0, -0.0), (-1e-13, -1e-13),
])
def test_pair_clamp_is_the_list_clamp_bit_for_bit(x, y):
    # the same results, or the same ResourceError
    def outcome(clamp, *args):
        try:
            return float_bits(clamp(*args))
        except ResourceError as exc:
            return str(exc)
    assert outcome(shapley._clamp_pair, x, y) == outcome(shapley._clamp_simplex, [x, y])


# The three scale properties keep their 2x2 names and tolerances and also
# draw 3x2, 2x3, 3x3 and 4x4 games, which are held to certified_tol.
@given(M=games(st.floats(-1.0, 1.0)), size=magnitudes, c=st.floats(-1.0, 1.0),
       shift=magnitudes)
@example(M=NEAR_TIE, size=1.0, c=0.5, shift=1.0)
@settings(max_examples=200, deadline=None)
def test_2x2_translation_property(M, size, c, shift):
    M, c = size * M, c * shift
    got = shapley.matrix_game_value(M + c).value
    want = shapley.matrix_game_value(M).value + c
    tol = (scale_tol(M, np.array(c)) if M.shape == (2, 2)
           else certified_tol(scale_tol(M + c), scale_tol(M)))
    assert got == pytest.approx(want, abs=tol)


@given(M=games(st.floats(-1e3, 1e3, allow_nan=False)), a=magnitudes)
@example(M=NEAR_TIE, a=1e6)
@settings(max_examples=200, deadline=None)
def test_2x2_scaling_property(M, a):
    got = shapley.matrix_game_value(a * M).value
    want = a * shapley.matrix_game_value(M).value
    tol = (scale_tol(a * M) if M.shape == (2, 2)
           else certified_tol(scale_tol(a * M), a * scale_tol(M)))
    assert got == pytest.approx(want, abs=tol)


@given(M=games(st.floats(-1e3, 1e3, allow_nan=False)))
@example(M=NEAR_TIE)
@settings(max_examples=200, deadline=None)
def test_2x2_skew_transpose_property(M):
    sol = shapley.matrix_game_value(M)
    swapped = shapley.matrix_game_value(-M.T)
    if M.shape == (2, 2):
        tol, gap = scale_tol(M), shapley.LP_GAP_TOL
    else:
        # the oracle accepts a kernel whose strategies guarantee its value to
        # within scale_tol(M), so it too is within that width of the value
        tol, gap = certified_tol(scale_tol(M), scale_tol(M)), scale_tol(M)
    assert swapped.value == pytest.approx(-sol.value, abs=tol)
    assert_certified(M, sol, gap)
    assert sol.value == pytest.approx(
        shapley.matrix_game_value_oracle(M), abs=tol
    )


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (4, 4)])
def test_simplex_translation_and_scaling_across_magnitudes(shape):
    # the simplex runs on (M - min M) / spread + 1, so its pivots do not
    # depend on the magnitude of M
    rng = np.random.default_rng(3)
    for _ in range(200):
        M = rng.uniform(-1.0, 1.0, size=shape) * 10 ** rng.uniform(-6, 12)
        c = rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-6, 12)
        a = 10 ** rng.uniform(-6, 12)
        v = shapley.matrix_game_value(M).value
        assert shapley.matrix_game_value(M + c).value == pytest.approx(
            v + c, abs=scale_tol(M, np.array(c)))
        assert shapley.matrix_game_value(a * M).value == pytest.approx(
            a * v, abs=scale_tol(a * M))


@pytest.mark.parametrize("M", [
    [[2.0, 1.0, -1.0, 0.0], [2.0, 1.00000001, 1e-08, 0.5]],
    [[2.0, 1e-05, -1e-08, 1e-12], [1.00000001, 1e-12, 1.00000001, 0.5],
     [2.0, 0.5, 1e-08, -1.0]],
])
def test_simplex_value_lies_in_its_certified_bracket(M):
    # nearly degenerate games whose tableau value drifted by about 1e-8
    # outside [maximin, minimax] through a pivot on a 1e-8 entry
    M = np.array(M)
    sol = shapley.matrix_game_value(M)
    assert np.min(sol.row_strategy @ M) <= sol.value <= np.max(M @ sol.col_strategy)
    assert sol.value == pytest.approx(
        shapley.matrix_game_value_oracle(M), abs=scale_tol(M))


def test_nearly_degenerate_game_is_certified_by_the_exact_pass():
    # the float simplex pivots on the 1e-8 entry and misses its certificate;
    # the exact value is that of the kernel on the last two rows
    sol = shapley.matrix_game_value(NEAR_TIE)
    assert sol.value == pytest.approx(1.0 / (2.0 - 1e-8), abs=1e-16)
    assert_certified(NEAR_TIE, sol)


def test_degenerate_games_are_certified_and_match_the_oracle():
    # non-2x2 games tied up to 1e-8, on which the float pass alone fails
    # about 0.5% of the time
    rng = np.random.default_rng(11)
    solved = 0
    while solved < 3000:
        shape = tuple(int(k) for k in rng.integers(1, 5, size=2))
        if shape == (2, 2):
            continue
        M = rng.choice(DEGENERATE, size=shape)
        sol = shapley.matrix_game_value(M)
        assert_certified(M, sol)
        assert sol.value == pytest.approx(
            shapley.matrix_game_value_oracle(M), abs=scale_tol(M)), M.tolist()
        solved += 1


def test_J_certifies_state_values_near_1e9():
    # the rounding of p.B at entries near 1e9 is about 1e-7, above an
    # absolute 1e-9 gap tolerance; the tolerance scales with max|B|
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    got = op.J(np.full(3, 1e9))
    assert np.allclose(got, op.J(np.zeros(3)) + 1e9, rtol=0.0, atol=1.0)


def mixed_shape_game(seed):
    """Five states with 1x3, 2x2 and 3x2 stage games, interleaved."""
    rng = np.random.default_rng(seed)
    actions = [(2, 2), (1, 3), (3, 2), (2, 2), (1, 3)]
    S = len(actions)
    transition = []
    for m, n in actions:
        raw = rng.uniform(size=(m, n, S)) + 1e-6
        transition.append(raw / raw.sum(axis=-1, keepdims=True))
    return shapley.StochasticGame(
        states=[f"s{i}" for i in range(S)],
        actions=actions,
        payoff=[rng.uniform(-1.0, 1.0, size=a) for a in actions],
        transition=transition,
    )


@pytest.mark.parametrize("game", [
    shapley.random_game(4, 2, 2, seed=5),
    shapley.random_game(3, 3, 4, seed=6),
    mixed_shape_game(8),
])
def test_stacked_stage_games_match_per_state_reference(game):
    rng = np.random.default_rng(2)
    for scale in (1e-3, 1.0, 1e6):
        f = scale * rng.uniform(-1.0, 1.0, size=game.num_states)
        want = [shapley.matrix_game_value(game.payoff[s] + game.transition[s] @ f).value
                for s in range(game.num_states)]
        assert shapley.ShapleyOperator(game).J(f).tolist() == want


@pytest.mark.parametrize("game", [
    shapley.random_game(4, 2, 2, seed=5),
    shapley.random_game(3, 3, 4, seed=6),
    mixed_shape_game(8),
    shapley.matching_pennies(),
])
def test_linearize_freezes_the_optimal_strategies(game):
    op = shapley.ShapleyOperator(game)
    rng = np.random.default_rng(4)
    for scale in (0.0, 1.0, 1e6):
        f = scale * rng.uniform(-1.0, 1.0, size=game.num_states)
        Jf, M = op.linearize(f)
        assert Jf.tolist() == op.J(f).tolist()
        assert np.all(M >= 0.0)
        assert np.allclose(M.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        for s in range(game.num_states):
            sol = shapley.matrix_game_value(game.payoff[s] + game.transition[s] @ f)
            want = np.einsum("i,ijk,j->k", sol.row_strategy, game.transition[s],
                             sol.col_strategy)
            assert np.allclose(M[s], want, rtol=0.0, atol=1e-15)


def solution_bits(sol):
    """Everything a solution holds, as comparable bytes and tuples."""
    return (float_bits([sol.value]), sol.row_strategy.tobytes(),
            sol.col_strategy.tobytes(), sol.support)


def index_sets(size):
    """Every nonempty increasing index tuple of range(size)."""
    return [c for k in range(1, size + 1) for c in combinations(range(size), k)]


@pytest.mark.parametrize("game", [
    shapley.random_game(4, 3, 3, seed=3),
    shapley.random_game(8, 4, 4, seed=0),
    mixed_shape_game(0),
], ids=["4x3x3", "8x4x4", "mixed"])
def test_J_and_linearize_do_not_depend_on_call_history(monkeypatch, game):
    # the operator keeps each state's last support as a guess; a random walk
    # makes neighbouring points share supports, so most guesses are taken
    S = game.num_states
    rng = np.random.default_rng(5)
    points = np.cumsum(rng.uniform(-0.3, 0.3, size=(30, S)), axis=0)
    solve, taken = shapley.matrix_game_value, []

    def counting(M, support=None):
        sol = solve(M, support)
        taken.append(support is not None and sol.support == support)
        return sol

    monkeypatch.setattr(shapley, "matrix_game_value", counting)

    def results(op, order):
        out = {}
        for k in order:
            Jx, (Lx, M) = op.J(points[k]), op.linearize(points[k])
            out[k] = (Jx.tobytes(), Lx.tobytes(), M.tobytes())
        return out

    forward = results(shapley.ShapleyOperator(game), range(len(points)))
    op = shapley.ShapleyOperator(game)
    backward = results(op, reversed(range(len(points))))
    assert sum(taken) > len(taken) // 2
    warm_again = results(op, range(len(points)))
    fresh = {k: results(shapley.ShapleyOperator(game), [k])[k] for k in range(len(points))}
    assert forward == backward == warm_again == fresh


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 4)])
def test_a_support_guess_never_changes_the_result(shape):
    # every candidate support, wrong guesses included, on seeded games with
    # entries in [-1, 1] and on ones tied up to 1e-8 from DEGENERATE
    rng = np.random.default_rng(17)
    games = [rng.uniform(-1.0, 1.0, size=shape) for _ in range(12)]
    games += [rng.choice(DEGENERATE, size=shape) for _ in range(12)]
    guesses = [(rows, cols) for rows in index_sets(shape[0])
               for cols in index_sets(shape[1])]
    kernels = 0
    for M in games:
        cold = shapley.matrix_game_value(M)
        kernels += cold.support is not None
        want = solution_bits(cold)
        for guess in guesses:
            assert solution_bits(shapley.matrix_game_value(M, guess)) == want, (M, guess)
    assert kernels >= 12


def test_a_tied_game_takes_the_simplex_result_cold_and_warm():
    # columns 0 and 1 are equal, so the optimal column strategy is not
    # unique and no block is strictly complementary
    M = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, -1.0]])
    cold = shapley.matrix_game_value(M)
    assert cold.support is None
    assert cold.value == pytest.approx(0.5, abs=1e-15)
    assert_certified(M, cold)
    for guess in [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 1, 2), (0, 1, 2)), ((0,), (2,))]:
        assert solution_bits(shapley.matrix_game_value(M, guess)) == solution_bits(cold)


def test_game_groups_states_by_action_shape():
    game = mixed_shape_game(8)
    shapes = {P.shape[1:]: states for states, P, _ in game.shape_groups}
    assert shapes == {(2, 2): (0, 3), (1, 3): (1, 4), (3, 2): (2,)}


@pytest.mark.parametrize("game", [shapley.random_game(3, 2, 2, seed=7),
                                  mixed_shape_game(8)])
def test_stored_game_arrays_are_read_only(game):
    with pytest.raises(ValueError, match="read-only"):
        game.payoff[0][0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        game.transition[-1][0, 0, 0] = 0.5
    for _, P, R in game.shape_groups:
        for arr in (P, R):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] *= 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_non_finite_entries_are_input_errors(shape, bad):
    M = np.zeros(shape)
    M[-1, 0] = bad
    for solve in (shapley.matrix_game_value, shapley.matrix_game_value_oracle):
        with pytest.raises(InputError, match="non-finite"):
            solve(M)


@pytest.mark.parametrize("M", [[1.0, 2.0], np.zeros((0, 3))])
@pytest.mark.parametrize(
    "solve", [shapley.matrix_game_value, shapley.matrix_game_value_oracle])
def test_malformed_matrices_are_input_errors(solve, M):
    with pytest.raises(InputError, match="2-d and nonempty"):
        solve(M)


@pytest.mark.parametrize(
    "M", [[[1.0, -1.0], [-1.0, 1.0]], [[0.0, 5.0, 1.0], [2.0, 3.0, 4.0], [1.0, 0.0, 2.0]]]
)
def test_failed_gap_certificate_is_resource_error(monkeypatch, M):
    # a negative tolerance fails every certificate, even an exact one, so
    # the exact pass of the simplex fails too
    monkeypatch.setattr(shapley, "LP_GAP_TOL", -1.0)
    with pytest.raises(ResourceError, match="gap"):
        shapley.matrix_game_value(M)


@pytest.mark.parametrize("game", [shapley.random_game(3, 2, 2, seed=7),
                                  mixed_shape_game(8)])
def test_J_certifies_every_stage_game(monkeypatch, game):
    # J solves its 2x2 games without matrix_game_value; a negative tolerance
    # fails every certificate, so J must raise on its first game too
    op = shapley.ShapleyOperator(game)
    f = np.linspace(-1.0, 1.0, game.num_states)
    monkeypatch.setattr(shapley, "LP_GAP_TOL", -1.0)
    with pytest.raises(ResourceError, match="gap"):
        op.J(f)


def saddle_value(a, b, c, d):
    """max(min(a, b), min(c, d)) when it equals the pure minimax, else None."""
    maximin = max(min(a, b), min(c, d))
    return maximin if maximin == min(max(a, c), max(b, d)) else None


def assert_same_float(got, want):
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_pure_saddles_follow_min_and_max_bit_for_bit():
    saddles = 0
    for a, b, c, d in product((0.0, -0.0, 1.0, -1.0), repeat=4):
        game = shapley.StochasticGame(
            states=["s0"], actions=[(2, 2)],
            payoff=[np.array([[a, b], [c, d]])], transition=[np.ones((2, 2, 1))],
        )
        # J's assembly P + R @ 0 turns each -0.0 into 0.0, so the signed
        # zeros reach the closed form only when it is called directly
        stage = (game.payoff[0] + game.transition[0] @ np.zeros(1)).ravel().tolist()
        want = saddle_value(*stage)
        if want is not None:
            got = float(shapley.ShapleyOperator(game).J(np.zeros(1))[0])
            assert_same_float(got, want)
        want = saddle_value(a, b, c, d)
        if want is not None:
            saddles += 1
            assert_same_float(shapley._solve_2x2(a, b, c, d)[0], want)
            got = shapley.matrix_game_value([[a, b], [c, d]]).value
            assert_same_float(got, want)
    assert saddles > 128  # most of the 256 games have one


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
        out = shapley.ShapleyOperator(game).J([f])
        assert out[0] == pytest.approx(5.0 + f, abs=1e-12)


def test_shapley_operator_nonexpansive_sup():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    rep = core.check_nonexpansive(op, samples=100, seed=1)
    assert rep.violations == 0


def test_shapley_monotone_and_additive():
    J = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=3)).J
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.uniform(-5.0, 5.0, size=3)
        g = f + rng.uniform(0.0, 3.0, size=3)
        Jf, Jg = J(f), J(g)
        assert np.all(Jf <= Jg + 1e-9), "monotonicity"
        c = float(rng.uniform(-4.0, 4.0))
        Jfc = J(f + c)
        assert np.allclose(Jfc, Jf + c, atol=1e-9), "constant additivity"


def test_matching_pennies_operator_is_identity():
    # val([[1,-1],[-1,1]] + f) = f for every scalar f
    op = shapley.ShapleyOperator(shapley.matching_pennies())
    for f in (-2.0, 0.0, 1.5):
        assert op.J([f])[0] == pytest.approx(f, abs=1e-12)


def test_h_constant_is_max_abs_payoff():
    game = shapley.random_game(2, 2, 2, (-3.0, 3.0), seed=5)
    want = max(float(np.max(np.abs(g))) for g in game.payoff)
    assert shapley.ShapleyOperator(game).h_constant() == want


def test_transition_row_sum_validation():
    doc = shapley.matching_pennies().to_dict()
    doc["transition"][0][0][0] = [0.7]
    with pytest.raises(SchemaError, match="row sums"):
        shapley.load_game(doc)


def test_two_games_from_one_pair_of_lists_are_equal_and_leave_the_lists_alone():
    # the discounted-grid inputs: 8 states, 4x4 games, rows normalized by the
    # caller, so a second normalization could move their last bits
    rng = np.random.default_rng(1)
    S, m, n = 8, 4, 4
    payoff = [rng.uniform(-1.0, 1.0, size=(m, n)) for _ in range(S)]
    transition = []
    for _ in range(S):
        raw = rng.uniform(0.0, 1.0, size=(m, n, S)) + 1e-3
        transition.append(raw / raw.sum(axis=-1, keepdims=True))
    given = list(payoff), list(transition)
    games = [shapley.StochasticGame([f"s{i}" for i in range(S)], [(m, n)] * S,
                                    payoff, transition) for _ in range(2)]
    assert all(a is b for a, b in zip(payoff, given[0]))
    assert all(a is b for a, b in zip(transition, given[1]))
    (states1, P1, R1), = games[0].shape_groups
    (states2, P2, R2), = games[1].shape_groups
    assert states1 == states2
    assert P1.tobytes() == P2.tobytes() and R1.tobytes() == R2.tobytes()
    for game in games:
        (_, _, R), = game.shape_groups
        assert all(np.shares_memory(game.transition[s], R) for s in range(S))
    x = rng.uniform(-1.0, 1.0, size=S)
    J1, J2 = (shapley.ShapleyOperator(g).J(x) for g in games)
    assert J1.tobytes() == J2.tobytes()
