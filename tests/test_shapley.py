import hashlib
import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdyn import continuous, core, discrete, shapley
from opdyn.errors import InputError, OpdynError, ResourceError, SchemaError

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
             for scale, shift in ((1.0, 0.0), (1e9, 0.0), (1.0, 1e9), (1e-9, 0.0),
                                  (1e150, 0.0))
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


DBL_MAX = np.finfo(float).max


@pytest.mark.parametrize("M, value, p, q", [
    ([[1e308, -1e308], [-1e308, 1e308]], 0.0, (0.5, 0.5), (0.5, 0.5)),
    ([[DBL_MAX, -DBL_MAX], [-DBL_MAX, DBL_MAX]], 0.0, (0.5, 0.5), (0.5, 0.5)),
    ([[1e200, -1e200], [-1e200, 1e200]], 0.0, (0.5, 0.5), (0.5, 0.5)),
    ([[3e154, -1e154], [-2e154, 1e154]], 1e308 / 7e154, (3 / 7, 4 / 7), (2 / 7, 5 / 7)),
])
def test_2x2_games_whose_differences_overflow_are_solved(M, value, p, q):
    # a - b and den overflow in the first two games, (a - b)(a - c) in the
    # last two; each is solved on its entries scaled by a power of two
    M = np.array(M)
    tol = scale_tol(M)
    sol = shapley.matrix_game_value(M)
    assert sol.value == pytest.approx(value, abs=tol)
    assert np.allclose(sol.row_strategy, p, rtol=0.0, atol=1e-15)
    assert np.allclose(sol.col_strategy, q, rtol=0.0, atol=1e-15)
    assert float(np.max(M @ sol.col_strategy)) - float(np.min(sol.row_strategy @ M)) <= tol
    game = shapley.StochasticGame(states=["s0"], actions=[(2, 2)], payoff=[M],
                                  transition=[np.ones((2, 2, 1))])
    op = shapley.ShapleyOperator(game)
    assert op.J(np.zeros(1)).tolist() == [sol.value]
    assert discrete.solve_vlambda(op, 0.5).tolist() == pytest.approx([value], abs=2 * tol)


def test_2x2_games_far_from_zero_match_the_oracle():
    # seeded games at magnitudes where the closed form overflows; the
    # oracle solves them divided by their magnitude
    rng = np.random.default_rng(21)
    for size in (1e160, 1e200, 1e300, 1e307, 1.7e308):
        for _ in range(200):
            M = size * rng.uniform(-1.0, 1.0, size=(2, 2))
            sol = shapley.matrix_game_value(M)
            tol = scale_tol(M)
            assert sol.value == pytest.approx(
                size * shapley.matrix_game_value_oracle(M / size), abs=tol), M
            assert float(np.max(M @ sol.col_strategy)) - float(
                np.min(sol.row_strategy @ M)) <= tol, M


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
    solve, taken = shapley._solve, []

    def counting(rows, support, scale):
        sol = solve(rows, support, scale)
        taken.append(support is not None and sol[3] == support)
        return sol

    monkeypatch.setattr(shapley, "_solve", counting)

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


def bits_digest(*values):
    """sha256 of the float64 bytes of each value (arrays, ints, floats)."""
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


#: sha256 of what the solver gave on these games while its kernels summed
#: with ``sum(map(mul, ...))`` and every warm game went through
#: ``matrix_game_value``: the iterate_Vn(op, 200) points; v, iterations and
#: certified_error of solve_vlambda at lambda = 0.5, 0.1, 0.025; and
#: linearize's M at three seeded points.  Recorded on CPython 3.11, whose
#: ``sum`` over floats adds left to right from 0.0 as the solver now does
PINNED_BITS = {
    "8x4x4": ("89efeba8eca1b79c29e8d6e3f7c64def7e8afdf691a8639accc7d0477b8e76a2",
              "414a0cbc65e11754ba45c1c08b8e9d06d7df633828d09bba60cd83689179d075",
              "f71aa319245020520796a43c669b047a3c65822e4e5ce731369053cf3e481168"),
    "mixed": ("6820a17421d6cfd8976f69572335ac4e925322a62089d24bc13d338cdf658530",
              "def6846b87597420ed877db20778555c1b3b6ce3ec517e22b271780303b59208",
              "1c2f3358da7b2b0ff004be158ca60289ce2b3bb3a36e2f6a7a0ea2d72f1089bd"),
}


def compensated_sum(values, start=0):
    """``sum`` rounded once by math.fsum, not left to right: a stand-in for
    CPython's float ``sum``, which compensates from Python 3.12 on."""
    return math.fsum(values) + start


@pytest.mark.parametrize("summation", ["builtin", "compensated"])
@pytest.mark.parametrize("name, game", [("8x4x4", shapley.random_game(8, 4, 4, seed=0)),
                                        ("mixed", mixed_shape_game(0))])
def test_orbits_solves_and_linear_models_keep_their_bits(monkeypatch, name, game, summation):
    # the solver never rounds through the interpreter's ``sum``, so the
    # pinned bits hold whichever way it adds
    if summation == "compensated":
        for module in (core, discrete, shapley):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    op = shapley.ShapleyOperator(game)
    orbit, _ = discrete.iterate_Vn(op, 200)
    solves = [discrete.solve_vlambda(op, lam, full=True) for lam in (0.5, 0.1, 0.025)]
    points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(3, game.num_states))
    assert (bits_digest(orbit.points),
            bits_digest(*[x for r in solves for x in (r.v, r.iterations, r.certified_error)]),
            bits_digest(*[op.linearize(x)[1] for x in points])) == PINNED_BITS[name]



def test_the_solver_does_not_round_through_sum(monkeypatch):
    # a 4x4 game whose optimum mixes every action gets the simplex's own
    # strategies, which are normalized and certified by sums; they keep
    # their bits when ``sum`` compensates
    rng = np.random.default_rng(0)
    games = [rng.uniform(-1.0, 1.0, size=(4, 4)) for _ in range(400)]
    mixed = [M for M in games if shapley.matrix_game_value(M).support is None]
    assert len(mixed) >= 10

    def bits():
        return [bits_digest(sol.value, sol.row_strategy, sol.col_strategy)
                for sol in map(shapley.matrix_game_value, mixed)]

    left_to_right = bits()
    monkeypatch.setattr(shapley, "sum", compensated_sum, raising=False)
    assert bits() == left_to_right

def test_non_finite_stage_games_are_input_errors():
    # stage games of a 3x3 and a 2x2 game (map's closed-form branch) that
    # overflow to inf at a finite point, and inf or NaN ones from the
    # non-finite points an orbit loop hands to map
    op = shapley.ShapleyOperator(shapley.random_game(2, 3, 3, seed=1))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in (3, 2):
            big = shapley.ShapleyOperator(
                shapley.random_game(2, m, m, payoff_range=(1e308, 1.5e308), seed=1))
            for call in (big.J, big.linearize):
                with pytest.raises(InputError, match="^matrix has non-finite entries$"):
                    call(np.full(2, 1e308))
        for x in ([np.inf, 1.0], [np.nan, 1.0], [np.inf, -np.inf]):
            with pytest.raises(InputError, match="non-finite"):
                op.map(np.array(x))
    # (1 - lambda) / lambda is inf at the smallest step, so Phi's point is too
    with pytest.raises(InputError, match="non-finite"):
        discrete.phi_recursion(op, [1.0, 5e-324])


def _with_payoff_entry(game, value):
    """game with one entry of its 2x2 group's payoff stack set to value,
    past the validation a StochasticGame runs on its payoffs."""
    (states, P, R), = game.shape_groups
    P = P.copy()
    P[-1, 1, 0] = value
    game.shape_groups = ((states, P, R),)
    return game


@pytest.mark.parametrize("case", ["nan", "inf", "overflow"])
def test_a_non_finite_2x2_group_is_the_same_input_error_through_every_caller(case):
    # map validates a 2x2 group once, on its flat list, and _solve_2x2 no
    # longer tests its four entries: a NaN or an infinite payoff, or a
    # P + R @ x that overflows, must still raise what _solve_2x2 raised
    if case == "overflow":
        game = shapley.random_game(2, 2, 2, payoff_range=(1e308, 1.5e308), seed=1)
        x = np.full(2, 1e308)
    else:
        game = _with_payoff_entry(shapley.random_game(2, 2, 2, seed=1),
                                  np.nan if case == "nan" else -np.inf)
        x = np.zeros(2)
    op = shapley.ShapleyOperator(game)
    with np.errstate(over="ignore"):
        for run in (lambda: op.J(x), lambda: discrete.iterate_Vn(op, 3),
                    lambda: continuous.integrate_u(op, continuous.Constant(0.5), x, 1.0)):
            with pytest.raises(InputError, match="^matrix has non-finite entries$"):
                run()


def spread_game(seed, scale):
    """Three states with 3x3 payoffs uniform on [-scale, scale]."""
    rng = np.random.default_rng(seed)
    return shapley.StochasticGame(
        states=[0, 1, 2], actions=[(3, 3)] * 3,
        payoff=[scale * rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(3)],
        transition=[np.full((3, 3, 3), 1.0 / 3.0)] * 3)


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 4)])
def test_stage_game_scales_are_the_margins_python_reading_bit_for_bit(shape):
    # _stage_games reads each game's max|B| from one reduction over the
    # stack; max(1, scale) must be the margin's per-game Python reading
    # max(1, max, -min), at every magnitude, for mixed, all-negative and
    # all-positive games
    rng = np.random.default_rng(11)
    for exponent in range(-6, 301, 17):
        B = 10.0 ** exponent * rng.uniform(-1.0, 1.0, size=(9, *shape))
        B[3:6], B[6:] = -np.abs(B[3:6]), np.abs(B[6:])
        games, scales = shapley._stage_games(B)
        assert games == B.tolist()
        for rows, scale in zip(games, scales):
            top, low = max(map(max, rows)), min(map(min, rows))
            assert scale == max(top, -low)
            assert float_bits([max(1.0, scale)]) == float_bits([max(1.0, top, -low)])
    # eight finite games whose scales sum to inf clear the entry-by-entry read
    B = rng.uniform(1e308, 1.7e308, size=(8, *shape))
    B[::2] *= -1.0
    games, scales = shapley._stage_games(B)
    assert games == B.tolist() and math.isinf(sum(scales))
    op = shapley.ShapleyOperator(
        shapley.random_game(8, *shape, payoff_range=(1e308, 1.7e308), seed=4))
    assert np.all(np.isfinite(op.J(np.zeros(8))))


@pytest.mark.parametrize("game", [
    shapley.random_game(8, 4, 4, payoff_range=(1e308, 1.7e308), seed=4),
    shapley.random_game(8, 3, 4, payoff_range=(-1.7e308, -1e308), seed=5),
    shapley.random_game(3, 2, 2, payoff_range=(0.0, 1.7e308), seed=0),
    shapley.random_game(3, 3, 3, payoff_range=(0.0, 1.7e308), seed=0),
    shapley.random_game(3, 3, 3, payoff_range=(-8e307, 8e307), seed=2),
    spread_game(0, 1.7e308),
    spread_game(3, 1.7e308),
])
def test_a_group_whose_sum_overflows_is_solved_as_each_game_alone(game):
    # finite entries whose sum over the group is infinite fail the group's
    # finite-sum test; J and linearize must then give what matrix_game_value
    # gives state by state: the same values, or the first state's exception
    def outcome(call):
        try:
            return call()
        except OpdynError as exc:
            return type(exc), str(exc)

    games = [game.payoff[s] for s in range(game.num_states)]
    assert not math.isfinite(sum(np.ravel(games).tolist()))
    want = [outcome(lambda B=B: shapley.matrix_game_value(B).value) for B in games]
    errors = [w for w in want if isinstance(w, tuple)]
    assert all(kind is not InputError for kind, _ in errors)  # the entries are finite
    want = errors[0] if errors else float_bits(want)
    op = shapley.ShapleyOperator(game)
    x = np.zeros(game.num_states)
    for call in (lambda: float_bits(op.J(x)), lambda: float_bits(op.linearize(x)[0])):
        assert outcome(call) == want


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


def _edited_pennies(key, value):
    doc = shapley.matching_pennies().to_dict()
    doc[key] = value
    return doc


@pytest.mark.parametrize("doc, location, message", [
    ({"states": [], "actions": [], "payoff": [], "transition": []},
     "states", "at least one state required"),
    (_edited_pennies("actions", [[2, 2], [2, 2]]), "actions", "expected 1 entries"),
    (_edited_pennies("actions", [[0, 2]]), "actions[0]", "action counts must be positive"),
    (_edited_pennies("payoff", [[[1.0, -1.0], [-1.0, math.inf]]]),
     "payoff[0]", "non-finite payoff entry"),
    (_edited_pennies("transition", [[[[1.0], [1.0]]]]),
     "transition[0]", "expected shape (2, 2, 1), got (1, 2, 1)"),
    (_edited_pennies("transition", [[[[1.5], [1.0]], [[1.0], [1.0]]]]),
     "transition[0]", "probability outside [0, 1]"),
    (_edited_pennies("transition", [[[[math.nan], [1.0]], [[1.0], [1.0]]]]),
     "transition[0]", "probability outside [0, 1]"),
    (_edited_pennies("actions", [5]), "document", "'int' object is not iterable"),
    (_edited_pennies("payoff", [[["a", 1.0], [1.0, 1.0]]]),
     "document", "could not convert string to float: 'a'"),
    # numbers that NumPy would read from bools, fractions and strings are not numbers
    (_edited_pennies("actions", [[True, True]]), "actions[0]", "must be an integer, got True"),
    (_edited_pennies("actions", [[2.5, 2]]), "actions[0]", "must be an integer, got 2.5"),
    (_edited_pennies("payoff", [[["1", "-1"], ["-1", "1"]]]),
     "payoff[0]", "entries must be numbers, got dtype <U2"),
    (_edited_pennies("payoff", [[[True, False], [False, True]]]),
     "payoff[0]", "entries must be numbers, got dtype bool"),
    (_edited_pennies("transition", [[[["1"], [1.0]], [[1.0], [1.0]]]]),
     "transition[0]", "entries must be numbers, got dtype <U32"),
])
def test_each_game_schema_error_names_its_location(doc, location, message):
    with pytest.raises(SchemaError) as caught:
        shapley.load_game(doc)
    assert caught.value.location == location
    assert str(caught.value) == f"{location}: {message}"


def test_unreadable_game_documents_name_their_location(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SchemaError, match="cannot read game file") as caught:
        shapley.load_game(missing)
    assert caught.value.location == missing
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(SchemaError) as caught:
        shapley.load_game(str(listed))
    assert caught.value.location == "document"
    assert str(caught.value) == "document: top-level value must be an object"


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
