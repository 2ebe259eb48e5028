import numpy as np
import pytest

from opdyn import core, discrete, shapley
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
