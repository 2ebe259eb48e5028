import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from opdyn import bounds, cli, core, discrete, shapley
from opdyn.errors import InputError, ResourceError


def test_step_sequence_budgets():
    s = discrete.StepSequence([0.5, 0.25, 1.0])
    assert np.allclose(s.sigma, [0.0, 0.5, 0.75, 1.75])
    assert np.allclose(s.tau, [0.0, 0.25, 0.3125, 1.3125])
    assert len(s) == 3


def test_step_sequence_validation():
    with pytest.raises(InputError):
        discrete.StepSequence([0.5, 0.0])
    with pytest.raises(InputError):
        discrete.StepSequence([1.5])
    with pytest.raises(InputError):
        discrete.StepSequence([])


def test_step_sequence_factories():
    h = discrete.StepSequence.harmonic(4)
    assert np.allclose(h.steps, [1.0, 0.5, 1.0 / 3.0, 0.25])
    s = discrete.StepSequence.inverse_sqrt(4)
    assert np.allclose(s.steps, [1.0, 2.0**-0.5, 3.0**-0.5, 0.5])
    c = discrete.StepSequence.constant(0.3, 5)
    assert np.allclose(c.steps, 0.3)


def test_iterate_Vn_translation():
    op = core.Translation([2.0, -1.0])
    orbit, vn = discrete.iterate_Vn(op, 10)
    # V_n = n c, so v_n = c for every n
    assert np.allclose(orbit.points[7], 7.0 * op.c)
    assert np.allclose(vn, np.tile(op.c, (10, 1)))


def test_vn_satisfies_phi_recursion():
    op = core.AffineNonexpansive([[0.5, 0.3], [-0.2, 0.6]], [1.0, -1.0])
    _, vn = discrete.iterate_Vn(op, 30)
    for n in range(2, 31):
        lhs = vn[n - 1]
        rhs = core.apply_Phi(op, 1.0 / n, vn[n - 2])
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_solve_vlambda_translation():
    op = core.Translation([4.0])
    for lam in (1.0, 0.5, 0.01):
        res = discrete.solve_vlambda(op, lam, tol=1e-11, full=True)
        assert res.v[0] == pytest.approx(4.0, abs=1e-10)
        assert res.certified_error <= 1e-11
        assert res.iterations <= 2
        # V_lambda = c / lambda
        assert res.V[0] == pytest.approx(4.0 / lam, rel=1e-9)


def test_solve_vlambda_is_fixed_point():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    v = discrete.solve_vlambda(op, 0.2, tol=1e-11)
    assert op.norm(core.apply_Phi(op, 0.2, v) - v) <= 1e-11


def test_solve_vlambda_validation():
    op = core.Translation([1.0])
    with pytest.raises(InputError):
        discrete.solve_vlambda(op, 0.0)
    with pytest.raises(InputError):
        discrete.solve_vlambda(op, 0.5, tol=-1.0)


class ValueIterationOnly(core.Operator):
    """The wrapped operator without a linear model, so the solver takes
    plain value-iteration steps only."""

    def __init__(self, op):
        self.op, self.dim, self.norm_kind = op, op.dim, op.norm_kind

    def map(self, x):
        return self.op.map(x)


class WrongModel(ValueIterationOnly):
    """The wrapped operator with a fixed, wrong linear model."""

    def __init__(self, op, M):
        super().__init__(op)
        self.M = M

    def linearize(self, x):
        return self.op.J(x), self.M


def _mixed_shape_game(seed):
    rng = np.random.default_rng(seed)
    actions = [(2, 2), (1, 3), (3, 2), (4, 4)]
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


_GAMES = {
    "uniform2x2": shapley.random_game(3, 2, 2, seed=7),
    "grid4x4": shapley.random_game(8, 4, 4, seed=1),
    "mixed": _mixed_shape_game(2),
    "pennies": shapley.matching_pennies(),
}


def test_solve_vlambda_iteration_cap(monkeypatch):
    # the policy step solves a translation exactly, in two linearize calls
    monkeypatch.setattr(discrete, "VLAMBDA_MAX_ITER", 1)
    op = core.Translation([1.0])
    with pytest.raises(ResourceError, match="cap"):
        discrete.solve_vlambda(op, 1e-3, tol=1e-12)
    monkeypatch.setattr(discrete, "VLAMBDA_MAX_ITER", 3)
    with pytest.raises(ResourceError, match="cap"):
        discrete.solve_vlambda(ValueIterationOnly(op), 1e-3, tol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("name", _GAMES)
def test_policy_steps_agree_with_value_iteration(name, lam):
    op = shapley.ShapleyOperator(_GAMES[name])
    tol = 1e-10
    res = discrete.solve_vlambda(op, lam, tol=tol, full=True)
    ref = discrete.solve_vlambda(ValueIterationOnly(op), lam, tol=tol, full=True)
    assert res.certified_error <= tol and ref.certified_error <= tol
    assert res.iterations <= 20
    assert op.norm(res.v - ref.v) <= 2.0 * tol


@pytest.mark.parametrize("lam, model", [
    (0.1, "negated"),    # Newton candidates the safeguard must reject
    (0.1, "overshoot"),  # candidates 100 plain steps long: unguarded, they diverge
    (0.1, "dense"),      # a row-stochastic matrix unrelated to the game
    (0.5, "singular"),   # I - (1 - lam) M = 0, so no candidate at all
])
def test_safeguard_certifies_despite_a_wrong_model(lam, model):
    op = shapley.ShapleyOperator(_GAMES["grid4x4"])
    M = {"negated": -np.eye(op.dim),
         "dense": np.full((op.dim, op.dim), 1.0 / op.dim),
         "overshoot": 1.1 * np.eye(op.dim),
         "singular": 2.0 * np.eye(op.dim)}[model]
    res = discrete.solve_vlambda(WrongModel(op, M), lam, tol=1e-10, full=True)
    assert res.certified_error <= 1e-10
    assert op.norm(res.v - discrete.solve_vlambda(op, lam, tol=1e-10)) <= 2e-10


def test_small_lambda_solve_passes_the_oracle_residual():
    # about 23,000 value-iteration steps; the policy steps take a handful
    game = _GAMES["grid4x4"]
    op = shapley.ShapleyOperator(game)
    lam, tol = 1e-3, 1e-10
    res = discrete.solve_vlambda(op, lam, tol=tol, full=True)
    assert res.iterations <= 20 and res.certified_error <= tol
    f = (1.0 - lam) / lam * res.v
    stage = [game.payoff[s] + game.transition[s] @ f for s in range(game.num_states)]
    J = np.array([shapley.matrix_game_value_oracle(B) for B in stage])
    oracle_tol = 1e-9 * max(1.0, max(float(np.max(np.abs(B))) for B in stage))
    assert np.max(np.abs(lam * J - res.v)) <= (2.0 - lam) * tol + lam * oracle_tol


def _result_bits(res):
    return res.v.tobytes(), res.V.tobytes(), res.iterations, float(res.certified_error).hex()


@pytest.mark.parametrize("name", ["uniform2x2", "grid4x4", "mixed"])
def test_v_lambda_solves_on_one_operator_equal_solves_on_fresh_ones(name):
    # every solve starts from the operator's one model at 0, which the first
    # solve made; a repeated lambda and a rising one are in the grid too
    lambdas = (0.5, 0.1, 0.025, 0.5, 0.01, 0.2)
    op = shapley.ShapleyOperator(_GAMES[name])
    shared = [_result_bits(discrete.solve_vlambda(op, lam, full=True)) for lam in lambdas]
    fresh = [_result_bits(discrete.solve_vlambda(shapley.ShapleyOperator(_GAMES[name]), lam,
                                                 full=True))
             for lam in lambdas]
    assert shared == fresh


def test_a_second_v_lambda_solve_skips_the_solve_pass_at_zero(matrix_game_calls):
    # each iteration solves every stage game once, but the first at x = 0
    # is solved by the first solve on the operator only
    op, calls = shapley.ShapleyOperator(_GAMES["grid4x4"]), matrix_game_calls
    first = discrete.solve_vlambda(op, 0.1, full=True)
    assert len(calls) == first.iterations * op.dim
    calls.clear()
    second = discrete.solve_vlambda(op, 0.05, full=True)
    assert len(calls) == (second.iterations - 1) * op.dim


@pytest.mark.parametrize("build", [
    lambda N: discrete.StepSequence.constant(0.5, N),
    discrete.StepSequence.harmonic,
    discrete.StepSequence.inverse_sqrt,
    lambda N: discrete.iterate_Vn(core.Translation([1.0]), N),
    lambda N: bounds.verify("norm_bounds", bounds.Scenario(core.Translation([1.0]), horizon=N)),
], ids=["constant", "harmonic", "inverse_sqrt", "iterate_Vn", "norm_bounds"])
def test_a_count_too_large_for_an_array_is_an_input_error_naming_N(build):
    # NumPy refuses these counts before it allocates anything
    for N in (1e300, 10**300):
        with pytest.raises(InputError, match=r"^N: 1e\+300 steps do not fit in an array$"):
            build(N)


def _big_match():
    """Blackwell and Ferguson's Big Match: in s0 the top row absorbs, into a
    state paying 1 forever against L or 0 forever against R, and the bottom
    row pays 0 against L or 1 against R and stays.  Its discounted and
    n-stage values are 1/2 at every lambda and every n."""
    return shapley.ShapleyOperator(shapley.StochasticGame(
        states=["s0", "win", "lose"], actions=[(2, 2), (1, 1), (1, 1)],
        payoff=[[[1.0, 0.0], [0.0, 1.0]], [[1.0]], [[0.0]]],
        transition=[[[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 0, 0]]],
                    [[[0, 1, 0]]], [[[0, 0, 1]]]]))


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01, 1e-3])
def test_the_big_match_has_discounted_value_one_half(lam):
    assert abs(discrete.solve_vlambda(_big_match(), lam, tol=1e-12)[0] - 0.5) <= 1e-15


def test_the_big_match_has_n_stage_value_one_half():
    orbit, vn = discrete.iterate_Vn(_big_match(), 200)
    assert (orbit.points[1:, 0] / np.arange(1, 201) == 0.5).all()
    assert (vn[:, 0] == 0.5).all()


def _det(rows):
    """The determinant of a square matrix of Fractions, by exact elimination."""
    rows, det = [list(row) for row in rows], Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _formula_games(game, lam):
    """D0 and D1 .. DS of Attia & Oliu-Barton's formula (PNAS 116(52), 2019)
    from the game's data, exactly: one row per pure stationary strategy f of
    the maximizer, one column per g of the minimizer.  With Q and r the
    transition matrix and stage payoffs of (f, g), d0 = det(I - (1 - lam) Q)
    and dk is that determinant with column k replaced by lam r; v_lam(k) is
    the unique z with val(Dk - z D0) = 0."""
    S, lam = game.num_states, Fraction(lam)
    P = [[[Fraction(x) for x in row] for row in g.tolist()] for g in game.payoff]
    R = [[[[Fraction(x) for x in p] for p in row] for row in rho.tolist()]
         for rho in game.transition]
    rows = list(itertools.product(*(range(len(g)) for g in P)))
    cols = list(itertools.product(*(range(len(g[0])) for g in P)))
    D = [[[None] * len(cols) for _ in rows] for _ in range(S + 1)]
    for a, f in enumerate(rows):
        for b, g in enumerate(cols):
            M = [[(s == t) - (1 - lam) * R[s][f[s]][g[s]][t] for t in range(S)]
                 for s in range(S)]
            r = [lam * P[s][f[s]][g[s]] for s in range(S)]
            D[0][a][b] = _det(M)
            for k in range(S):
                D[k + 1][a][b] = _det([row[:k] + [r[s]] + row[k + 1:]
                                       for s, row in enumerate(M)])
    return [np.array(d, dtype=float) for d in D]


def _formula_bracket(D0, Dk, lo, hi):
    """[lo, hi], which holds v_lam(k), narrowed by bisection on z.  The
    sign of val(Dk - z D0), which decreases in z since every d0 > 0, is
    taken from matrix_game_value only where the value exceeds that solve's
    gap tolerance plus the rounding of the float game.  lo is raised, then
    hi lowered, each by its own bisection, in which a z whose sign is not
    taken stands in for the other bound."""
    scale0, scalek = float(np.max(np.abs(D0))), float(np.max(np.abs(Dk)))

    def sign(z):
        M = Dk - z * D0
        margin = (shapley.LP_GAP_TOL * max(1.0, float(np.max(np.abs(M))))
                  + 2.0**-45 * (scalek + abs(z) * scale0))
        value = shapley.matrix_game_value(M).value
        return (value > margin) - (value < -margin)

    for raise_lo in (True, False):
        a, b = lo, hi
        while b - a > 1e-13:
            z = 0.5 * (a + b)
            s = sign(z)
            if s > 0:
                lo = a = z
            elif s < 0:
                hi = b = z
            elif raise_lo:
                b = z
            else:
                a = z
    return lo, hi


def _formula_oracle_games():
    """50 seeded random games of 1 or 2 states and every shape up to 3x3,
    and two 2-state games whose states have different shapes."""
    games = [shapley.random_game(1 + seed % 2, 1 + seed // 2 % 3, 1 + seed // 6 % 3,
                                 seed=seed) for seed in range(50)]
    rng = np.random.default_rng(13)
    for shapes in ([(3, 1), (2, 3)], [(1, 2), (3, 3)]):
        raw = [rng.uniform(size=(m, n, 2)) + 1e-6 for m, n in shapes]
        games.append(shapley.StochasticGame(
            states=["s0", "s1"], actions=shapes,
            payoff=[rng.uniform(-1.0, 1.0, size=shape) for shape in shapes],
            transition=[r / r.sum(axis=-1, keepdims=True) for r in raw]))
    return games


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01, 1e-3])
def test_solve_vlambda_lies_in_the_formula_bracket_of_the_games_data(lam):
    # the formula reads the game's payoff and transition arrays, and no J:
    # an operator that read the game another way (its transition axes
    # swapped, say) certifies its own fixed point, which falls outside
    tol = 1e-12
    for game in _formula_oracle_games():
        v = discrete.solve_vlambda(shapley.ShapleyOperator(game), lam, tol=tol)
        D0, *Ds = _formula_games(game, lam)
        assert (D0 > 0).all()
        lo = float(min(np.min(g) for g in game.payoff))  # v_lam is an average of
        hi = float(max(np.max(g) for g in game.payoff))  # stage payoffs
        for k, Dk in enumerate(Ds):
            z_lo, z_hi = _formula_bracket(D0, Dk, lo, hi)
            assert z_lo - tol <= v[k] <= z_hi + tol
            assert z_hi - z_lo <= 1e-8 / lam  # the solve's gap tolerance over d0


def test_euler_unit_steps_equal_value_iteration():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    steps = discrete.StepSequence.constant(1.0, 20)
    orbit = discrete.euler_scheme(op, np.zeros(3), steps)
    viter, _ = discrete.iterate_Vn(op, 20)
    assert np.max(np.abs(orbit.points - viter.points)) <= 1e-12


def test_euler_interpolant_endpoints_and_midpoint():
    op = core.Translation([1.0])
    steps = discrete.StepSequence.constant(0.5, 4)
    orbit = discrete.euler_scheme(op, [0.0], steps)
    assert discrete.euler_interpolant(orbit, 0.0)[0] == 0.0
    assert discrete.euler_interpolant(orbit, 2.0)[0] == pytest.approx(2.0)
    mid = discrete.euler_interpolant(orbit, 0.25)[0]
    assert mid == pytest.approx(0.25)
    with pytest.raises(InputError):
        discrete.euler_interpolant(orbit, 3.0)


def test_phi_recursion_matches_manual():
    op = core.Translation([2.0])
    lam = [0.5, 0.25]
    orbit = discrete.phi_recursion(op, lam)
    w1 = core.apply_Phi(op, 0.5, np.zeros(1))
    w2 = core.apply_Phi(op, 0.25, w1)
    assert np.allclose(orbit.points[1], w1)
    assert np.allclose(orbit.points[2], w2)


def test_iterate_Vn_and_phi_recursion_match_hand_loops_bit_for_bit():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=4))
    orbit, vn = discrete.iterate_Vn(op, 12)
    V = [np.zeros(3)]
    for _ in range(12):
        V.append(op.J(V[-1]))
    assert orbit.points.tolist() == np.array(V).tolist()
    assert vn.tolist() == [(V[n] / n).tolist() for n in range(1, 13)]
    assert orbit.steps.steps.tolist() == [1.0] * 12
    lam = np.random.default_rng(8).uniform(0.05, 1.0, size=15)
    w = [np.zeros(3)]
    for l in lam:
        w.append(core.apply_Phi(op, l, w[-1]))
    orbit = discrete.phi_recursion(op, lam)
    assert orbit.points.tolist() == np.array(w).tolist()
    assert orbit.steps.steps.tolist() == lam.tolist()


@pytest.mark.parametrize("bad", [np.nan, 0.0, 1.5])
def test_phi_recursion_rejects_steps_outside_unit_interval(bad):
    op = core.Translation([1.0])
    with pytest.raises(InputError):
        discrete.phi_recursion(op, [0.5, bad])


def test_an_orbit_that_overflows_is_an_input_error():
    # the orbit loops evaluate the unchecked map and check the orbit once
    op = core.Translation([1e308])
    for run in (lambda: discrete.iterate_Vn(op, 5),
                lambda: discrete.euler_scheme(op, [1e308], discrete.StepSequence.constant(1.0, 5)),
                lambda: discrete.phi_recursion(op, discrete.StepSequence.constant(0.5, 5))):
        with pytest.raises(InputError, match="NaN or infinite"):
            run()


def test_a_v_lambda_solve_that_overflows_is_an_input_error(tmp_path, capsys):
    # no errstate here: the project runs under error::RuntimeWarning, so an
    # overflow warning inside the solve would be raised before the checks
    # of linearize (x, then its stage games) could name the non-finite value
    op = shapley.ShapleyOperator(
        shapley.random_game(2, 3, 3, payoff_range=(1e308, 1.5e308), seed=1))
    for lam in (0.5, 0.1):
        with pytest.raises(InputError, match="non-finite|NaN or infinite"):
            discrete.solve_vlambda(op, lam)
    game = {"states": 2, "rows": 3, "cols": 3, "payoff_range": [1e308, 1.5e308], "seed": 1}
    args = ["discounted", "--set", f"operator={json.dumps({'random_game': game})}",
            "--set", "lambdas=[0.5, 0.1]", "--out", str(tmp_path)]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_locate_brackets_every_time_on_the_grid():
    grid = np.array([0.0, 0.5, 1.5, 3.0])
    assert discrete.locate(grid, 0.0) == (0, 0.0)
    assert discrete.locate(grid, 3.0) == (2, 1.0)
    assert discrete.locate(grid, 0.5) == (1, 0.0)
    assert discrete.locate(grid, 1.5) == (2, 0.0)
    assert discrete.locate(grid, 1.0) == (1, 0.5)
    assert discrete.locate(grid, -1e-12) == (0, 0.0)
    assert discrete.locate(grid, 3.0 + 1e-12) == (2, 1.0)
    for t in (-2e-12, 3.0 + 2e-12, np.nan):
        with pytest.raises(InputError):
            discrete.locate(grid, t)
    orbit = discrete.euler_scheme(core.Translation([1.0]), [0.0],
                                  discrete.StepSequence.harmonic(3))
    with pytest.raises(InputError):
        discrete.euler_interpolant(orbit, np.nan)


def test_locate_is_the_same_on_a_list_an_array_and_its_memoryview():
    grid = np.cumsum(np.random.default_rng(2).uniform(0.01, 1.0, 40))
    grid[0] = 0.0
    ts = np.concatenate((grid, np.random.default_rng(3).uniform(0.0, grid[-1], 200),
                         [-1e-12, grid[-1] + 1e-12]))
    for t in ts.tolist() + list(ts):
        want = discrete.locate(grid.tolist(), t)
        assert type(want[0]) is int and type(want[1]) is float
        for seq in (grid, memoryview(grid)):
            got = discrete.locate(seq, t)
            assert got == want and type(got[1]) is float


def test_euler_interpolant_at_each_sample_is_that_point():
    op = shapley.ShapleyOperator(shapley.random_game(2, 2, 2, seed=3))
    steps = discrete.StepSequence.harmonic(7)
    orbit = discrete.euler_scheme(op, [0.4, -0.3], steps)
    for k in range(8):
        got = discrete.euler_interpolant(orbit, steps.sigma[k])
        assert got.tolist() == orbit.points[k].tolist()


def test_kobayashi_rhs_values_and_validation():
    op = core.Translation([1.0])
    s1 = discrete.StepSequence.constant(0.5, 4)
    s2 = discrete.StepSequence.constant(0.25, 8)
    rhs = discrete.kobayashi_rhs(op, [0.0], [1.0], s1, s2)
    assert rhs.shape == (5, 9)
    # sigma budgets coincide at (4, 8); only the tau terms remain
    want = 1.0 + 1.0 * np.sqrt(4 * 0.25 + 8 * 0.0625)
    assert rhs[4, 8] == pytest.approx(want)
    assert rhs[0, 0] == 1.0
    for x0, xhat0 in (([0.0, 0.0], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(InputError):
            discrete.kobayashi_rhs(op, x0, xhat0, s1, s2)


def test_kobayashi_rhs_grid_is_the_scalar_formula_at_every_pair():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=5))
    rng = np.random.default_rng(11)
    x0, xhat0 = rng.uniform(-2.0, 2.0, size=(2, 3))
    s1 = discrete.StepSequence(rng.uniform(0.01, 1.0, size=23))
    s2 = discrete.StepSequence(rng.uniform(0.01, 1.0, size=17))
    grid = discrete.kobayashi_rhs(op, x0, xhat0, s1, s2)
    assert grid.shape == (24, 18)
    d0, a0 = op.norm(xhat0 - x0), op.norm(core.apply_A(op, x0))
    for k in range(24):
        for l in range(18):
            ds = s1.sigma[k] - s2.sigma[l]
            want = d0 + a0 * np.sqrt(ds * ds + s1.tau[k] + s2.tau[l])
            assert grid[k, l] == want, (k, l)


def test_kobayashi_inequality_sampled():
    op = core.rotation(np.pi / 6.0)
    rng = np.random.default_rng(2)
    x0 = np.array([1.0, 0.0])
    xhat0 = np.array([0.0, -1.0])
    for _ in range(10):
        s1 = discrete.StepSequence(rng.uniform(0.05, 1.0, size=30))
        s2 = discrete.StepSequence(rng.uniform(0.05, 1.0, size=30))
        o1 = discrete.euler_scheme(op, x0, s1)
        o2 = discrete.euler_scheme(op, xhat0, s2)
        rhs = discrete.kobayashi_rhs(op, x0, xhat0, s1, s2)
        for k in (0, 10, 30):
            for l in (0, 15, 30):
                lhs = op.norm(o1.points[k] - o2.points[l])
                assert lhs <= rhs[k, l] + 1e-9
