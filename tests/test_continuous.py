import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from opdyn import continuous, core, discrete, shapley
from opdyn.errors import InputError, ResourceError


def test_zeta_roundtrip():
    for t in [0.0, 0.3, 1.0, 7.5, 123.0, 9999.0]:
        s = continuous.zeta(t)
        assert continuous.zeta_inverse(s) == pytest.approx(t, abs=1e-9)


def _zeta_inverse_on_numpy_scalars(s):
    """zeta_inverse's Newton loop as it ran on NumPy scalars: the reference."""
    t = max(0.0, s - np.log1p(s))
    for _ in range(100):
        r = t + np.log1p(t) - s
        if abs(r) <= 1e-12:
            return t
        t = max(0.0, t - r / (1.0 + 1.0 / (1.0 + t)))
    raise AssertionError("no convergence")


def test_zeta_inverse_is_a_float_bit_equal_to_the_numpy_scalar_loop():
    for s in [0.0] + np.geomspace(1e-12, 1e6, 3001).tolist():
        got = continuous.zeta_inverse(s)
        assert type(got) is float
        assert got.hex() == float(_zeta_inverse_on_numpy_scalars(s)).hex()


def test_zeta_inverse_takes_the_best_iterate_where_newton_cycles():
    # above s = 8192 an ulp of s exceeds the 1e-12 rule: at the first five
    # s Newton cycles between neighbouring t whose residuals straddle it
    cycling = [8400.69, 9511.4, 9575.6, 9913.4, 19485.8]
    sweep = np.random.default_rng(0).uniform(8192.0, 20000.0, 5000).tolist()
    for s in cycling + sweep:
        t = continuous.zeta_inverse(s)
        assert abs(t + float(np.log1p(t)) - s) <= 4.0 * math.ulp(s)
        try:
            want = _zeta_inverse_on_numpy_scalars(s)
        except AssertionError:
            continue
        assert t == want  # a converging loop keeps its bits
    for s in cycling:
        with pytest.raises(AssertionError):
            _zeta_inverse_on_numpy_scalars(s)


def test_zeta_values():
    assert continuous.zeta(0.0) == 0.0
    assert continuous.zeta(1.0) == pytest.approx(1.0 + np.log(2.0))


#: each read of a built-in parametrization, and L_factor, by id
_TIME_READS = {
    **{f"{name}_{read}": getattr(param, read)
       for name, param in [("itz", continuous.InverseTimeZeta()),
                           ("table", continuous.Table([(0.0, 0.5), (1.0, 0.6)])),
                           ("power_alpha", continuous.PowerAlpha(0.5)),
                           ("constant", continuous.Constant(0.5))]
       for read in ("value", "derivative", "integral")},
    "L_factor": lambda t: continuous.L_factor(continuous.PowerAlpha(0.5), t),
}


@pytest.mark.parametrize("read", [continuous.zeta, continuous.zeta_inverse,
                                  *_TIME_READS.values()],
                         ids=["zeta", "zeta_inverse", *_TIME_READS])
@pytest.mark.parametrize("t", [-1.0, np.nan])
def test_a_negative_or_nan_time_is_an_input_error(read, t):
    with pytest.raises(InputError, match="must be >= 0"):
        read(t)


@pytest.mark.parametrize("read", [
    *_TIME_READS.values(),
    lambda t: continuous.slow_param_bound(core.Translation([1.0]),
                                          continuous.Constant(0.5), [0.0], t),
], ids=[*_TIME_READS, "slow_param_bound"])
def test_an_infinite_time_is_an_input_error(read):
    # each built-in lam lives on [0, inf); at inf its formulas give NaN or 0,
    # or raise another class
    with pytest.raises(InputError, match=r"^t must be finite, got inf$"):
        read(math.inf)


def test_inverse_time_zeta_asymptotics():
    p = continuous.InverseTimeZeta()
    assert p.value(0.0) == pytest.approx(0.5)
    # lam(t) * t -> 1
    assert p.value(1e4) * 1e4 == pytest.approx(1.0, rel=0.05)
    # derivative matches a central difference
    for t in (1.0, 20.0, 500.0):
        h = 1e-5 * max(1.0, t)
        fd = (p.value(t + h) - p.value(t - h)) / (2.0 * h)
        assert p.derivative(t) == pytest.approx(fd, rel=1e-5)


def test_power_alpha():
    p = continuous.PowerAlpha(0.5)
    assert p.value(0.0) == 1.0
    assert p.value(3.0) == pytest.approx(0.5)
    fd = (p.value(2.0 + 1e-6) - p.value(2.0 - 1e-6)) / 2e-6
    assert p.derivative(2.0) == pytest.approx(fd, rel=1e-6)
    with pytest.raises(InputError):
        continuous.PowerAlpha(1.0)
    with pytest.raises(InputError):
        continuous.PowerAlpha(-0.1)


def test_power_alpha_zero_matches_one_over_t():
    p = continuous.PowerAlpha(0.0)
    assert p.value(9.0) == pytest.approx(0.1)


def test_constant_param():
    p = continuous.Constant(0.3)
    assert p.value(100.0) == 0.3
    assert p.derivative(5.0) == 0.0
    with pytest.raises(InputError):
        continuous.Constant(0.0)


def test_table_param():
    p = continuous.Table([(0.0, 1.0), (2.0, 0.5), (4.0, 0.5)])
    assert p.value(0.0) == 1.0
    assert p.value(1.0) == pytest.approx(0.75)
    assert p.value(10.0) == 0.5
    assert p.derivative(1.0) == pytest.approx(-0.25)
    assert p.derivative(3.0) == 0.0
    assert p.kinks()
    with pytest.raises(InputError):
        continuous.Table([(1.0, 0.5)])  # must start at t = 0
    with pytest.raises(InputError):
        continuous.Table([(0.0, 0.5), (0.0, 0.4)])


@pytest.mark.parametrize("knots, message", [
    ([(0.0, math.nan)], "knot values must lie in (0, 1]"),
    ([(0.0, 0.5), (1.0, math.nan)], "knot values must lie in (0, 1]"),
    ([(0.0, 0.5), (1.0, 1.5)], "knot values must lie in (0, 1]"),
    ([(0.0, 0.5), (math.nan, 0.5)], "knot times must be finite and strictly increasing"),
    ([(0.0, 0.5), (1.0, 0.5), (math.nan, 0.5)],
     "knot times must be finite and strictly increasing"),
    ([(0.0, 0.5), (math.inf, 0.5)], "knot times must be finite and strictly increasing"),
])
def test_table_rejects_nan_and_infinite_knots(knots, message):
    # each range test is written so that a NaN fails it
    with pytest.raises(InputError, match=re.escape(message)):
        continuous.Table(knots)


def test_table_value_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    ts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, size=9))))
    vs = rng.uniform(0.05, 1.0, size=10)
    p = continuous.Table(list(zip(ts, vs)))
    knots = list(ts) + [np.nextafter(t, np.inf) for t in ts] + \
        [np.nextafter(t, -np.inf) for t in ts[1:]]
    between = list(rng.uniform(0.0, ts[-1], size=500))
    past = [ts[-1] + d for d in (1e-12, 0.5, 1e3)]
    for t in knots + between + past:
        assert p.value(float(t)) == float(np.interp(t, ts, vs))
    for k in range(9):  # a knot takes the slope to its right
        want = (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])
        assert p.derivative(float(ts[k])) == want
        assert p.derivative(float(0.5 * (ts[k] + ts[k + 1]))) == want
    for t in past + [ts[-1]]:
        assert p.derivative(float(t)) == 0.0
    for method in (p.value, p.derivative, p.integral):
        with pytest.raises(InputError):
            method(-1.0)


def test_scalar_start_on_a_dim_one_operator_is_its_one_entry():
    op = shapley.ShapleyOperator(shapley.matching_pennies())
    param = continuous.PowerAlpha(0.5)
    for scalar, vector in [
        (continuous.integrate_U(op, 0.7, 3.0), continuous.integrate_U(op, [0.7], 3.0)),
        (continuous.integrate_u(op, param, 0.7, 3.0),
         continuous.integrate_u(op, param, [0.7], 3.0)),
    ]:
        assert np.array_equal(scalar.times, vector.times)
        assert np.array_equal(scalar.points, vector.points)
        assert np.array_equal(scalar.derivative, vector.derivative)
        assert np.array_equal(scalar.err_bound, vector.err_bound)


def test_table_not_admissible_for_c1_bounds():
    op = core.Translation([1.0])
    table = continuous.Table([(0.0, 0.5), (1.0, 0.4), (2.0, 0.4)])
    with pytest.raises(InputError, match="C1"):
        continuous.L_factor(table, 1.0)
    with pytest.raises(InputError, match="C1"):
        continuous.slow_param_bound(op, table, np.zeros(1), 1.0)

    class Kinked(continuous.PowerAlpha):  # declares its kink by kinks() alone
        def kinks(self):
            return (2.0,)

    for param in (table, Kinked(0.5)):
        with pytest.raises(InputError, match="not C1"):
            continuous.L_factor(param, 1.0)
        with pytest.raises(InputError, match="not C1"):
            continuous.slow_param_bound(op, param, np.zeros(1), 1.0)
    # one knot is a constant lam, with no kink
    constant, one_knot = continuous.Constant(0.5), continuous.Table([(0.0, 0.5)])
    assert one_knot.kinks() == ()
    for t in (0.0, 0.7, 3.0, 250.0):
        assert continuous.L_factor(one_knot, t) == continuous.L_factor(constant, t)
        assert (continuous.slow_param_bound(op, one_knot, np.zeros(1), t)
                == continuous.slow_param_bound(op, constant, np.zeros(1), t))


def test_integrate_U_translation_exact():
    op = core.Translation([2.0, -3.0])
    traj = continuous.integrate_U(op, np.array([1.0, 1.0]), 10.0, tol=1e-10)
    # U' = c: the solution is the straight line U0 + t c
    want = np.array([1.0, 1.0]) + 10.0 * op.c
    assert op.norm(traj.at(10.0) - want) <= 1e-9


def test_integrate_U_rotation_matches_matrix_exponential():
    theta = np.pi / 6.0
    op = core.rotation(theta)
    R = op.matrix
    U0 = np.array([1.0, 0.0])
    traj = continuous.integrate_U(op, U0, 8.0, tol=1e-10)
    for t in (0.5, 3.0, 8.0):
        want = expm(t * (R - np.eye(2))) @ U0
        assert op.norm(traj.at(t) - want) <= 1e-8


def test_trajectory_dense_reads_hit_the_samples_exactly():
    op = core.rotation(np.pi / 6.0)
    traj = continuous.integrate_U(op, [1.0, 0.0], 2.0, tol=1e-8)
    for i in (0, 1, traj.times.size // 2, traj.times.size - 1):
        t = traj.times[i]
        assert traj.at(t).tolist() == traj.points[i].tolist()


def extension(traj, k, s):
    """The continuous extension of step k at s, written out on numpy
    scalars and arrays in the order of its terms."""
    times, P, D = traj.times, traj.points, traj.derivative
    h = times[k + 1] - times[k]
    r = 1.0 - s
    return ((1.0 + 2.0 * s) * r * r * P[k]
            + s * r * r * h * D[k]
            + s * s * (3.0 - 2.0 * s) * P[k + 1]
            - s * s * r * h * D[k + 1]
            + s * s * r * r * traj.dense[k])


@pytest.mark.parametrize("flow", ["U", "table"])
def test_trajectory_reads_inside_steps_are_the_extension_bit_for_bit(flow):
    # at 50 interior times of every step, at every node time (s = 0 in the
    # step it starts) and at T (s = 1 in the last step)
    op = core.AffineNonexpansive([[0.5, -0.25, 0.25], [0.0, 0.6, -0.4],
                                  [0.3, 0.3, -0.3]], [1.0, -0.5, 0.25])
    start = np.array([0.5, 2.0, -1.0])
    if flow == "U":
        traj = continuous.integrate_U(op, start, 6.0, tol=1e-8)
    else:
        param = continuous.Table([(0.0, 0.9), (1.5, 0.4), (4.0, 0.7)])
        traj = continuous.integrate_u(op, param, start, 6.0, tol=1e-8)
    times = traj.times
    n = times.size - 1
    for k in range(n):
        h = times[k + 1] - times[k]
        for frac in np.linspace(0.0, 1.0, 52)[1:-1]:
            t = times[k] + frac * h
            assert traj.at(t).tobytes() == extension(traj, k, (t - times[k]) / h).tobytes()
        assert traj.at(times[k]).tobytes() == extension(traj, k, 0.0).tobytes()
    assert traj.at(times[n]).tobytes() == extension(traj, n - 1, 1.0).tobytes()


def test_trajectory_reads_keep_signed_zeros():
    # a node block of signed zeros and ones: every read is the extension
    # bit for bit, with -0.0 where every term is -0.0 (the entry 0 of step
    # 0, whose D_1 term is subtracted), which a sum from 0.0 would lose
    rng = np.random.default_rng(3)
    nodes = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(4, 2, 6))
    dense = rng.choice([-0.0, 0.0, 2.0], size=(3, 6))
    nodes[:, 0, 0] = nodes[0, 1, 0] = dense[0, 0] = -0.0
    nodes[1, 1, 0] = 0.0
    traj = continuous.Trajectory(np.array([0.0, 0.5, 1.5, 2.0]), nodes, np.zeros(4), dense)
    assert np.shares_memory(traj.points, traj.nodes)
    assert np.shares_memory(traj.derivative, traj.nodes)
    for k in range(3):
        h = traj.times[k + 1] - traj.times[k]
        for t in traj.times[k] + np.array([0.0, 0.25, 0.5]) * h:
            got = traj.at(t)
            assert got.tobytes() == extension(traj, k, (t - traj.times[k]) / h).tobytes()
            assert np.signbit(got[0]) or k > 0


def _reads(traj):
    """(t, the extension's bytes at t) at 5 interior times of every step, at
    every node time (s = 0 in the step it starts) and at T (s = 1)."""
    times = traj.times
    n = times.size - 1
    reads = [(times[n], extension(traj, n - 1, 1.0).tobytes())]
    for k in range(n):
        h = times[k + 1] - times[k]
        reads.append((times[k], extension(traj, k, 0.0).tobytes()))
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = times[k] + frac * h
            reads.append((t, extension(traj, k, (t - times[k]) / h).tobytes()))
    return reads


def test_memoized_reads_in_any_order_are_the_extension_bit_for_bit():
    # Trajectory.at keeps the last step's rows: shuffled, backward and
    # repeated reads, and reads that alternate between two trajectories,
    # must each read their own step's rows
    rng = np.random.default_rng(5)
    op = core.AffineNonexpansive([[0.5, -0.25, 0.25], [0.0, 0.6, -0.4],
                                  [0.3, 0.3, -0.3]], [1.0, -0.5, 0.25])
    flow = continuous.integrate_U(op, np.array([0.5, 2.0, -1.0]), 6.0, tol=1e-8)
    param = continuous.Table([(0.0, 0.9), (1.5, 0.4), (4.0, 0.7)])
    pflow = continuous.integrate_u(op, param, np.array([-1.0, 0.0, 3.0]), 6.0, tol=1e-8)
    built = continuous.Trajectory(np.array([0.0, 0.5, 1.5, 2.0]), rng.normal(size=(4, 2, 3)),
                                  np.zeros(4), rng.normal(size=(3, 3)))
    trajs = (flow, pflow, built)
    assert all(traj.times.size > 3 for traj in trajs)

    def check(traj, reads):
        for t, want in reads:
            assert traj.at(t).tobytes() == want

    for traj in trajs:
        reads = _reads(traj)
        check(traj, [reads[i] for i in rng.permutation(len(reads))])
        check(traj, sorted(reads, reverse=True))
        check(traj, [read for read in reads for _ in range(2)])
    for a, b in ((flow, pflow), (flow, built)):
        for (ta, want_a), (tb, want_b) in zip(_reads(a), _reads(b)):
            assert a.at(ta).tobytes() == want_a
            assert b.at(tb).tobytes() == want_b


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
def test_np_dot_is_the_matmul_bit_for_bit(d):
    # _integrate and AffineNonexpansive.map call np.dot for speed: on the
    # Dormand-Prince weight rows and on a matvec it must reach the same
    # BLAS product as @, or a NumPy or BLAS build has split the two paths
    rng = np.random.default_rng(d)
    for _ in range(40):
        K = rng.normal(size=(7, d)) * 10.0 ** rng.integers(-4, 5)
        for i in range(1, 7):
            row = continuous._DP_ROWS[i]
            assert np.dot(row, K[:i]).tobytes() == (row @ K[:i]).tobytes()
        for w in (continuous._DP_E, continuous._DP_D):
            assert np.dot(w, K).tobytes() == (w @ K).tobytes()
        M, x = rng.uniform(-1.0, 1.0, size=(d, d)), rng.normal(size=d)
        assert np.dot(M, x).tobytes() == (M @ x).tobytes()


def _affine(dim, seed=16):
    """Seeded sup-norm affine map whose every absolute row sum is 1."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, size=(dim, dim))
    M /= np.sum(np.abs(M), axis=1, keepdims=True)
    return core.AffineNonexpansive(M, rng.uniform(-1.0, 1.0, size=dim), norm_kind=core.SUP)


@pytest.mark.parametrize("flow", ["translation", "affine16"])
def test_reads_on_python_floats_are_the_extension_bit_for_bit(flow):
    # d = 1 and d = 16, at 9 interior times of every step, at every node
    # time and at T
    if flow == "translation":
        traj = continuous.integrate_U(core.Translation([1.0]), [0.5], 6.0, tol=1e-8)
    else:
        op = _affine(16)
        start = np.random.default_rng(1).uniform(-1.0, 1.0, size=16)
        traj = continuous.integrate_u(op, continuous.InverseTimeZeta(), start, 6.0, tol=1e-8)
    times = traj.times
    n = times.size - 1
    for k in range(n):
        h = times[k + 1] - times[k]
        for frac in np.linspace(0.0, 1.0, 11)[1:-1]:
            t = times[k] + frac * h
            assert traj.at(t).tobytes() == extension(traj, k, (t - times[k]) / h).tobytes()
        assert traj.at(times[k]).tobytes() == extension(traj, k, 0.0).tobytes()
    assert traj.at(times[n]).tobytes() == extension(traj, n - 1, 1.0).tobytes()


class _OnlyMap(core.Operator):
    """A user operator that defines map alone, counting: the map of an
    AffineNonexpansive."""

    def __init__(self, affine):
        self.affine, self.dim, self.norm_kind, self.calls = affine, affine.dim, core.SUP, 0

    def map(self, x):
        self.calls += 1
        return self.affine.matrix @ x + self.affine.offset


class _HalvedTranslation(core.Translation):
    """J(x) = (x + c) / 2, overriding map, counting: the loops must run it,
    not the map that Translation inherits."""

    calls = 0

    def map(self, x):
        self.calls += 1
        return 0.5 * super().map(x)


@pytest.mark.parametrize("run", [
    lambda op, x0: continuous.integrate_U(op, x0, 5.0).nodes,
    lambda op, x0: continuous.integrate_u(op, continuous.PowerAlpha(0.5), x0, 5.0).nodes,
    lambda op, x0: discrete.euler_scheme(op, x0, discrete.StepSequence.harmonic(20)).points,
    lambda op, x0: discrete.iterate_Vn(op, 20)[0].points,
    lambda op, x0: discrete.phi_recursion(op, discrete.StepSequence.harmonic(20)).points,
], ids=["integrate_U", "integrate_u", "euler_scheme", "iterate_Vn", "phi_recursion"])
@pytest.mark.parametrize("ops", [
    lambda: (_OnlyMap(_affine(3)), _affine(3)),
    lambda: (_HalvedTranslation([0.5, -0.25, 1.0]),
             core.AffineNonexpansive(0.5 * np.eye(3), [0.25, -0.125, 0.5])),
], ids=["operator", "translation_subclass"])
def test_an_operator_that_defines_only_map_runs_through_its_map(run, ops):
    # the loops call the subclass's map, validated or not, and get the
    # built-in map's bits
    op, same_map = ops()
    x0 = np.array([0.5, -1.0, 2.0])
    assert run(op, x0).tobytes() == run(same_map, x0).tobytes()
    assert op.calls > 0


def test_inverse_time_zeta_solves_zeta_inverse_once_per_time(monkeypatch):
    # an integrator step reads lam, lam' and int lam at repeated times
    times = []
    solve = continuous.zeta_inverse

    def counted(s):
        times.append(s)
        return solve(s)

    monkeypatch.setattr(continuous, "zeta_inverse", counted)
    param = continuous.InverseTimeZeta()
    reads = []
    for name in ("value", "derivative", "integral"):
        read = getattr(param, name)
        monkeypatch.setattr(param, name, lambda t, read=read: reads.append(t) or read(t))
    continuous.integrate_u(_affine(3), param, np.ones(3), 20.0, tol=1e-8)
    assert len(reads) > len(set(reads)) > 10
    assert len(times) == len(set(times)) == len(set(reads))
    with pytest.raises(InputError):
        param.value(np.nan)


def test_a_nan_start_or_step_is_still_an_input_error():
    op, bad = _affine(3), [np.nan, 0.0, 0.0]
    for run in (lambda: continuous.integrate_U(op, bad, 1.0),
                lambda: continuous.integrate_u(op, continuous.PowerAlpha(0.5), bad, 1.0),
                lambda: continuous.euler_power(op, 1.0, 4, bad),
                lambda: discrete.euler_scheme(op, bad, discrete.StepSequence.harmonic(5)),
                lambda: discrete.phi_recursion(op, [0.5, np.nan])):
        with pytest.raises(InputError):
            run()


class _BlowsUp(core.Operator):
    """J(x) = x + 1 below 3 and inf from there: U(t) = t reaches it at 3."""

    dim, norm_kind = 1, core.SUP

    def map(self, x):
        return x + 1.0 if x[0] < 3.0 else np.full(1, np.inf)


def test_integrate_U_raises_when_J_turns_infinite():
    with pytest.raises(InputError, match="NaN or infinite"):
        continuous.integrate_U(_BlowsUp(), np.zeros(1), 10.0)


def test_trajectory_rejects_out_of_range():
    op = core.Translation([1.0])
    traj = continuous.integrate_U(op, np.zeros(1), 1.0, tol=1e-8)
    for t in (1.5, np.nan):
        with pytest.raises(InputError):
            traj.at(t)
        with pytest.raises(InputError):
            traj.err_at(t)


def test_a_time_that_is_not_a_real_scalar_is_an_input_error():
    traj = continuous.integrate_U(core.rotation(np.pi / 6.0), np.ones(2), 2.0, tol=1e-8)
    for bad in ("0.5", True, np.True_, None, 0.5j, np.array([0.5]), np.array([[0.5]]), [0.5]):
        with pytest.raises(InputError, match=r"^t: must be a number, got .+$"):
            traj.at(bad)
    for bad in ("0.5", True, None, [[0.5, 0.7]], np.array([[0.5]]), ["0.5"], [0.5, True],
                np.array([True]), (0.5, np.array([0.7]))):
        with pytest.raises(InputError, match=r"^times: must be a number, got .+$"):
            traj.err_at(bad)
    with pytest.raises(InputError, match="^times: must be a number, got '0.5'$"):
        traj.err_at("0.5")
    # a real scalar of any type reads as its float, one or a 1-d sequence of them
    for t in (1, np.int64(1), np.float32(0.5), np.array(0.5), Fraction(1, 2)):
        assert traj.at(t).tobytes() == traj.at(float(t)).tobytes()
        assert traj.err_at(t) == traj.err_at(float(t))
    for times in ([0.5, 1], (0.5, np.float64(1.5)), np.array([0.5, 1.5]), np.array([0, 1]),
                  range(2)):
        assert traj.err_at(times) == max(traj.err_at(float(t)) for t in times)


def test_reads_in_the_kept_step_skip_the_bisect(monkeypatch):
    # a read in the step of the last read takes s from that step's ends;
    # any other read brackets its time with locate, as before
    traj = continuous.integrate_U(core.rotation(np.pi / 6.0), np.ones(2), 3.0, tol=1e-8)
    located = []
    monkeypatch.setattr(continuous, "locate",
                        lambda grid, t: located.append(t) or discrete.locate(grid, t))
    times = traj.times
    n = times.size - 1
    for k in range(n):
        h = times[k + 1] - times[k]
        for frac in (0.0, 0.25, 0.5, 0.75):
            t = times[k] + frac * h
            assert traj.at(t).tobytes() == extension(traj, k, (t - times[k]) / h).tobytes()
    assert traj.at(times[n]).tobytes() == extension(traj, n - 1, 1.0).tobytes()
    assert located == [*times[:n].tolist(), times[n]]


def test_node_derivatives_are_the_right_hand_side_bit_for_bit():
    # each rhs writes into its stage row, and the node keeps a copy of the
    # last: at every node the derivative must be the right-hand side there,
    # -A(p) for U and Phi(lam(t), p) - p for u.  From the origin, a fixed
    # point of the rotation, that is -0.0 under U and +0.0 under u
    rotation30 = core.rotation(np.pi / 6.0)
    random3 = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))
    affine, start = _affine(16), np.random.default_rng(2).uniform(-1.0, 1.0, size=16)
    flows = [(affine, None, start), (affine, continuous.PowerAlpha(0.5), start),
             (random3, continuous.PowerAlpha(0.5), np.zeros(3)),
             (rotation30, None, np.zeros(2)), (rotation30, continuous.InverseTimeZeta(), np.zeros(2))]
    for op, param, x0 in flows:
        if param is None:
            traj = continuous.integrate_U(op, x0, 5.0, tol=1e-8)
            want = [-core.apply_A(op, p, checked=False) for p in traj.points]
        else:
            traj = continuous.integrate_u(op, param, x0, 5.0, tol=1e-8)
            want = [core.apply_Phi(op, param.value(t), p, checked=False) - p
                    for t, p in zip(traj.times.tolist(), traj.points)]
        assert traj.times.size > 5
        assert traj.derivative.tobytes() == np.array(want).tobytes()
    fixed_U, fixed_u = (continuous.integrate_U(rotation30, np.zeros(2), 5.0).derivative,
                        continuous.integrate_u(rotation30, continuous.InverseTimeZeta(),
                                               np.zeros(2), 5.0).derivative)
    assert np.all(fixed_U == 0.0) and np.all(np.signbit(fixed_U))
    assert np.all(fixed_u == 0.0) and not np.any(np.signbit(fixed_u))


def test_err_at_with_no_time_is_an_input_error():
    traj = continuous.integrate_U(core.Translation([1.0]), np.zeros(1), 1.0, tol=1e-8)
    for times in ([], np.array([]), ()):
        with pytest.raises(InputError, match="no read time given"):
            traj.err_at(times)


def test_err_at_clamps_times_just_outside_the_samples_onto_the_end_nodes():
    op = core.rotation(np.pi / 6.0)
    traj = continuous.integrate_U(op, np.ones(2), 3.0, tol=1e-8)
    T = traj.times[-1]
    assert traj.err_at(-1e-13) == traj.err_bound[0] == 0.0
    assert traj.err_at([T + 1e-13]) == traj.err_bound[-1]


def test_euler_power_translation():
    op = core.Translation([3.0])
    out = continuous.euler_power(op, 5.0, 10, np.array([1.0]))
    assert out[0] == pytest.approx(16.0)
    for t in (0.0, -1.0, 20.1):  # the step t/m must lie in (0, 1]
        with pytest.raises(InputError):
            continuous.euler_power(op, t, 20, np.array([1.0]))


class _Doubling(core.Operator):
    """J(x) = 2x, deliberately expansive."""

    dim, norm_kind = 2, core.SUP

    def map(self, x):
        return 2.0 * x


def test_integrate_U_cross_check_catches_an_expansive_map():
    # U' = U gives U(5) = e^5 U0, while (1 + 5/64)^64 U0 falls short by
    # about 25, far above the bound ||A(U0)|| T/sqrt(64) = 0.625
    with pytest.raises(ResourceError, match="cross-check failed"):
        continuous.integrate_U(_Doubling(), np.array([1.0, 0.0]), 5.0)


def test_integrate_U_of_an_expansive_map_at_a_large_horizon_raises():
    # U = e^t U0 outgrows any step that keeps est <= c tol h / T: the step
    # shrinks until it underflows (or the step cap is hit), never hangs
    with pytest.raises(ResourceError, match="step"):
        continuous.integrate_U(_Doubling(), np.array([1.0, 0.0]), 1e6)


def test_table_knots_inside_the_horizon_are_step_ends():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))
    knots = [0.0, 0.37, 1.3, 2.0, 4.75, 6.0, 9.0]
    param = continuous.Table([(t, 0.9 - 0.1 * i) for i, t in enumerate(knots)])
    traj = continuous.integrate_u(op, param, np.ones(3), 6.0, tol=1e-6)
    assert set(knots[:-1]) <= set(traj.times.tolist())
    assert traj.times[-1] == 6.0


def test_expo_formula_on_rotation():
    op = core.rotation(np.pi / 6.0)
    U0 = np.array([1.0, 0.0])
    T = 5.0
    traj = continuous.integrate_U(op, U0, T, tol=1e-10)
    a0 = op.norm(core.apply_A(op, U0))
    errors = []
    for m in (25, 100, 400):
        err = op.norm(continuous.euler_power(op, T, m, U0) - traj.points[-1])
        assert err <= a0 * T / np.sqrt(m) + 1e-8
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_integrate_u_constant_translation_closed_form():
    # u' = lam (c - u)  =>  u(t) = c + (u0 - c) e^{-lam t}
    op = core.Translation([2.0])
    lam = 0.5
    traj = continuous.integrate_u(
        op, continuous.Constant(lam), np.array([5.0]), 10.0, tol=1e-10
    )
    for t in (1.0, 4.0, 10.0):
        want = 2.0 + 3.0 * np.exp(-lam * t)
        assert traj.at(t)[0] == pytest.approx(want, abs=1e-8)


def test_integrate_u_on_game_tracks_discounted_value():
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=7))
    lam = 0.3
    traj = continuous.integrate_u(
        op, continuous.Constant(lam), np.zeros(3), 40.0, tol=1e-8
    )
    v = discrete.solve_vlambda(op, lam, tol=1e-11)
    assert op.norm(traj.at(40.0) - v) <= 1e-4


def test_L_factor_closed_forms():
    # constant lam: L(t) = exp(-lam t)
    assert continuous.L_factor(continuous.Constant(0.4), 3.0) == pytest.approx(
        np.exp(-1.2), rel=1e-8
    )
    # PowerAlpha: integral of |lam'|/lam - lam has a closed form
    alpha, t = 0.5, 3.0
    want = np.exp(
        (1.0 - alpha) * np.log1p(t) - ((1.0 + t) ** alpha - 1.0) / alpha
    )
    got = continuous.L_factor(continuous.PowerAlpha(alpha), t)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("param, times", [
    (continuous.Constant(0.3), [0.0, 2.5, 40.0]),
    (continuous.PowerAlpha(0.0), [1.0, 10.0, 100.0]),
    (continuous.PowerAlpha(0.5), [1.0, 10.0, 100.0]),
    (continuous.InverseTimeZeta(), [1.0, 10.0, 100.0]),
    # inside a cell, at a knot, past the last knot
    (continuous.Table([(0.0, 1.0), (2.0, 0.5), (4.0, 0.25)]), [1.3, 2.0, 9.0]),
])
def test_integral_closed_forms_match_quad(param, times):
    knots = list(getattr(param, "ts", []))
    for t in times:
        want, _ = quad(param.value, 0.0, t, points=[k for k in knots if 0 < k < t] or None,
                       epsabs=1e-13, epsrel=1e-13, limit=200)
        assert param.integral(t) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("param", [
    continuous.Constant(0.3),
    continuous.PowerAlpha(0.0),
    continuous.PowerAlpha(0.5),
    continuous.InverseTimeZeta(),
])
def test_L_factor_matches_its_defining_integrand(param):
    def integrand(s):
        return abs(param.derivative(s)) / param.value(s) - param.value(s)

    for t in (1.0, 10.0, 100.0):
        want, _ = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert continuous.L_factor(param, t) == pytest.approx(np.exp(want), rel=1e-11)


def test_adaptive_simpson_raises_when_depth_runs_out():
    def step(s):
        return 1.0 if s >= 1.0 / 3.0 else 0.0

    with pytest.raises(ResourceError, match="did not converge"):
        continuous._adaptive_simpson(step, 0.0, 1.0, 1e-12)


def test_slow_param_bound_inverse_time_zeta_is_exact():
    # with X = zeta^{-1}(t): L(t)/lam(t) = (2+X)^2/(2(1+X)) and
    # int_0^t |lam'|/L = 3/4 - 2/(2+X) + 1/(2+X)^2
    op = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))
    param = continuous.InverseTimeZeta()
    u0 = np.ones(3)
    du0 = op.norm(core.apply_Phi(op, 0.5, u0) - u0)
    CC = op.h_constant() + op.norm(op.J(np.zeros(3)))
    for t in (10.0, 100.0):
        X = continuous.zeta_inverse(t)
        want = (2.0 + X) ** 2 / (2.0 * (1.0 + X)) * (
            du0 + CC * (0.75 - 2.0 / (2.0 + X) + 1.0 / (2.0 + X) ** 2))
        got = continuous.slow_param_bound(op, param, u0, t)
        assert abs(got - want) <= continuous.QUAD_TOL * max(1.0, want)


def test_slow_param_bound_translation():
    # for a translation u converges to v_lam = c; the bound must cover the gap
    op = core.Translation([1.0])
    param = continuous.PowerAlpha(0.5)
    u0 = np.zeros(1)
    traj = continuous.integrate_u(op, param, u0, 50.0, tol=1e-9)
    for t in (5.0, 20.0, 50.0):
        gap = op.norm(traj.at(t) - op.c)
        bound = continuous.slow_param_bound(op, param, u0, t)
        assert gap <= bound + 1e-7


def test_integrate_validation():
    op = core.Translation([1.0])
    with pytest.raises(InputError):
        continuous.integrate_U(op, np.zeros(1), -1.0)
    with pytest.raises(InputError):
        continuous.integrate_U(op, np.zeros(1), 1.0, tol=0.0)


_R3 = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))
_PENNIES = shapley.ShapleyOperator(shapley.matching_pennies())
_TR = core.Translation([1.0])
_ROT = core.rotation(np.pi / 6.0)
_PA = continuous.PowerAlpha(0.5)
_PA0 = continuous.PowerAlpha(0.0)
_ITZ = continuous.InverseTimeZeta()
_HALF = continuous.Constant(0.5)
_TABLE = continuous.Table([(0.0, 0.6), (5.0, 0.5), (6.0, 0.5)])

#: one integration per distinct (operator, lambda, start) that the paper
#: suite integrates, at its shortest horizon there (None: U' = J(U) - U)
_SUITE_FLOWS = [
    (_ROT, None, 0.0, 20.0), (_ROT, None, 1.0, 5.0), (_R3, None, 0.0, 20.0),
    (_R3, None, 1.0, 5.0), (_TR, None, 0.0, 25.0),
    (_TR, _PA, 1.0, 50.0), (_R3, _PA, 1.0, 50.0), (_TR, _PA, 0.0, 50.0),
    (_R3, _PA, 0.0, 50.0), (_PENNIES, _PA, 1.0, 100.0),
    (_TR, _HALF, 1.0, 20.0), (_R3, _HALF, 1.0, 20.0), (_R3, _HALF, 0.0, 50.0),
    (_TR, _ITZ, 0.0, 100.0), (_R3, _ITZ, 0.0, 100.0),
    (_TR, _PA0, 1.0, 100.0), (_R3, _PA0, 1.0, 100.0), (_TR, _PA0, 0.0, 100.0),
    (_R3, _PA0, 0.0, 100.0), (_R3, _TABLE, 1.0, 50.0),
]

#: accuracy granted to the DOP853 reference itself
_REFERENCE_TOL = 1e-12


def _dop853(op, param, x0, T):
    """The flow at rtol = atol = 1e-13, restarted at each kink of lam."""
    from scipy.integrate import solve_ivp

    if param is None:
        rhs, kinks = (lambda t, x: op.J(x) - x), ()
    else:
        rhs, kinks = (lambda t, x: core.apply_Phi(op, param.value(t), x) - x), param.kinks()
    edges = [0.0] + [k for k in kinks if 0.0 < k < T] + [T]
    pieces, y = [], x0
    for a, b in zip(edges, edges[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-13,
                        dense_output=True)
        assert sol.success
        pieces.append((b, sol.sol))
        y = sol.sol(b)
    return lambda t: next(sol for b, sol in pieces if t <= b)(t)


@pytest.mark.parametrize("op, param, start, T", _SUITE_FLOWS)
def test_err_bound_covers_the_error_at_nodes_and_inside_steps(op, param, start, T):
    x0 = np.full(op.dim, start)
    if param is None:
        traj = continuous.integrate_U(op, x0, T, tol=1e-6)
    else:
        traj = continuous.integrate_u(op, param, x0, T, tol=1e-6)
    ref = _dop853(op, param, x0, T)
    reads = [(t, traj.err_bound[k]) for k, t in enumerate(traj.times)]
    for k in range(traj.times.size - 1):
        h = traj.times[k + 1] - traj.times[k]
        reads += [(traj.times[k] + s * h, traj.err_bound[k + 1]) for s in (0.25, 0.5, 0.75)]
    for t, bound in reads:
        assert op.norm(traj.at(t) - ref(t)) <= bound + _REFERENCE_TOL, t
        assert traj.err_at(t) == bound


def test_each_step_local_error_is_within_its_estimate():
    # late steps of this flow are long; the estimate has to keep up there
    from scipy.integrate import solve_ivp

    param = continuous.Constant(0.5)
    traj = continuous.integrate_u(_R3, param, np.zeros(3), 50.0, tol=1e-6)
    rhs = lambda t, x: core.apply_Phi(_R3, 0.5, x) - x
    b = 0.0  # err_bound[k] = b_{k-1} + DENSE_FACTOR est_k
    for k in range(1, traj.times.size):
        est = (traj.err_bound[k] - b) / continuous.DENSE_FACTOR
        t0, t1 = traj.times[k - 1], traj.times[k]
        b = np.exp(param.integral(t0) - param.integral(t1)) * b + est
        flow = solve_ivp(rhs, (t0, t1), traj.points[k - 1], method="DOP853",
                         rtol=1e-13, atol=1e-15).y[:, -1]
        assert _R3.norm(flow - traj.points[k]) <= est + _REFERENCE_TOL, t1
