import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdyn
from opdyn import bounds, continuous, core, discrete, shapley
from opdyn.errors import InputError

vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=5
)


def test_norm_examples():
    assert core.norm([3.0, -4.0], core.EUCLIDEAN) == 5.0
    assert core.norm([3.0, -4.0], core.SUP) == 4.0
    assert core.norm([0.0, 0.0]) == 0.0


def test_norm_rejects_bad_input():
    with pytest.raises(InputError):
        core.norm([np.nan])
    with pytest.raises(InputError):
        core.norm([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InputError):
        core.norm([1.0], kind="manhattan")


def test_sup_norm_is_numpys_abs_max_bit_for_bit():
    # core.norm takes the sup norm on Python floats; abs and max are exact,
    # so it must be NumPy's reduction bit for bit: signed zeros, subnormals
    # and entries near the overflow threshold, contiguous and strided
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, -1.7976931348623157e308]
    for d in (0, 1, 2, 3, 8, 16):
        for _ in range(50):
            v = rng.normal(size=2 * d) * 10.0 ** rng.integers(-300, 300, size=2 * d)
            mask = rng.random(2 * d) < 0.3
            v[mask] = rng.choice(special, size=mask.sum())
            for view in (v[:d], v[::2], -np.abs(v[:d]) * 0.0):
                got = core.norm(view)
                want = float(np.abs(view).max()) if d else 0.0
                assert type(got) is float and got.hex() == want.hex()
    for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf], np.array([0.0, np.nan])[::-1]):
        with pytest.raises(InputError, match="NaN or infinite"):
            core.norm(bad)


def test_as_vec_dim_check():
    assert core.as_vec(3.0).shape == (1,)
    with pytest.raises(InputError):
        core.as_vec([1.0, 2.0], dim=3)


def test_as_vec_rejects_non_numeric_input():
    # a str or a bool entry too, which NumPy would read as a number
    for bad in ([5.0, "x"], ["x"], [[1.0], [1.0, 2.0]], {"a": 1}, ["1", "2"], [True, 2.0],
                np.array([True, False]), np.array(["1.5"]), "1", True):
        with pytest.raises(InputError):
            core.as_vec(bad)


def test_as_vec_returns_a_valid_float_vector_itself():
    v = np.array([1.0, -2.0, 3.5])
    assert core.as_vec(v) is v
    assert core.as_vec(v, dim=3) is v
    assert core.as_vec(np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad, message", [
    ([np.nan, 1.0], "vector has NaN or infinite entries"),
    ([np.inf, 1.0], "vector has NaN or infinite entries"),
    ([np.inf, -np.inf], "vector has NaN or infinite entries"),
    ([1.0, 2.0, 3.0], "dimension mismatch: expected 2, got 3"),
    ([[1.0, 2.0], [3.0, 4.0]], r"expected a vector, got array of shape \(2, 2\)"),
])
def test_as_vec_messages_on_float_arrays_and_lists(bad, message):
    for x in (np.array(bad), bad):
        with pytest.raises(InputError, match=f"^{message}$"):
            core.as_vec(x, dim=2)


def test_as_vec_accepts_a_finite_vector_whose_sum_overflows():
    v = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert core.as_vec(v, dim=2) is v
        assert core.as_vec([1e308, -1e308, 1e308]).tolist() == [1e308, -1e308, 1e308]


def test_as_vec_converts_int_arrays_and_lists():
    for x in (np.array([1, -2]), [1, -2], (1, -2), np.array([1.0, -2.0], dtype=np.float32)):
        v = core.as_vec(x, dim=2)
        assert v is not x and v.dtype == np.float64 and v.tolist() == [1.0, -2.0]


_OPERATORS = [
    core.Translation([1.0, -2.0]),
    core.rotation(0.3),
    core.AffineNonexpansive([[0.5, 0.25], [0.0, 1.0]], [1.0, 0.0]),
    shapley.ShapleyOperator(shapley.random_game(2, 2, 2, seed=1)),
]
_APPLIES = {
    "Phi(1)": lambda op, x: core.apply_Phi(op, 1.0, x),
    "Phi(0.3)": lambda op, x: core.apply_Phi(op, 0.3, x),
    "A": core.apply_A,
    "J": lambda op, x: op.J(x),
}


@pytest.mark.parametrize("apply", list(_APPLIES.values()), ids=list(_APPLIES))
@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: op.describe())
def test_derived_maps_reject_bad_vectors(op, apply):
    # apply_A leaves the validation to op.J; apply_Phi reads x before it
    # scales it, so a non-numeric x is an InputError at every lambda
    assert apply(op, [0.5, -0.25]).shape == (2,)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [1.0], [1.0, 2.0, 3.0],
                np.array([np.nan, 1.0]), "abc", [1, "a"], None):
        with pytest.raises(InputError):
            apply(op, bad)


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: op.describe())
def test_unchecked_maps_are_the_checked_ones_bit_for_bit(op):
    rng = np.random.default_rng(5)
    for scale in (0.0, 1.0, 1e3):
        x = scale * rng.uniform(-1.0, 1.0, size=op.dim)
        assert op.map(x).tobytes() == op.J(x).tobytes()
        assert (core.apply_A(op, x, checked=False).tobytes()
                == core.apply_A(op, x).tobytes())
        for lam in (1.0, 0.3):
            assert (core.apply_Phi(op, lam, x, checked=False).tobytes()
                    == core.apply_Phi(op, lam, x).tobytes())


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: op.describe())
def test_linearize_matches_J_and_validates_like_it(op):
    rng = np.random.default_rng(3)
    for scale in (0.0, 1.0, 1e3):
        x = scale * rng.uniform(-1.0, 1.0, size=op.dim)
        Jx, M = op.linearize(x)
        assert Jx.tolist() == op.J(x).tolist()
        assert M.shape == (op.dim, op.dim)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(InputError):
            op.linearize(bad)


@pytest.mark.parametrize("op", _OPERATORS[:3], ids=lambda op: op.describe())
def test_linearize_is_exact_for_affine_operators(op):
    x, y = np.array([0.5, -2.0]), np.array([3.0, 1.25])
    Jx, M = op.linearize(x)
    assert np.allclose(Jx + M @ (y - x), op.J(y), rtol=0.0, atol=1e-12)


def test_base_operator_has_no_linear_model():
    class Halving(core.Operator):
        dim, norm_kind = 1, core.SUP

        def map(self, x):
            return 0.5 * x

    Jx, M = Halving().linearize([4.0])
    assert Jx.tolist() == [2.0] and M is None
    with pytest.raises(InputError):
        Halving().linearize([np.nan])


@given(x=vectors, y=vectors)
@settings(max_examples=50)
def test_norm_triangle_inequality(x, y):
    n = max(len(x), len(y))
    x = np.resize(np.asarray(x), n)
    y = np.resize(np.asarray(y), n)
    for kind in (core.SUP, core.EUCLIDEAN):
        lhs = core.norm(x + y, kind)
        rhs = core.norm(x, kind) + core.norm(y, kind)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_translation_maps():
    op = core.Translation([2.0, -1.0])
    x = np.array([1.0, 1.0])
    assert np.allclose(op.J(x), [3.0, 0.0])
    # A = I - J is constantly -c for a translation
    assert np.allclose(core.apply_A(op, x), [-2.0, 1.0])


def test_phi_translation_closed_form():
    # Phi(lam, x) = (1 - lam) x + lam c for J(x) = x + c
    op = core.Translation([3.0])
    for lam in (0.2, 0.7, 1.0):
        x = np.array([5.0])
        expected = (1.0 - lam) * x + lam * op.c
        assert np.allclose(core.apply_Phi(op, lam, x), expected)


def test_phi_at_one_is_J0():
    op = core.AffineNonexpansive([[0.5]], [2.0])
    assert np.allclose(core.apply_Phi(op, 1.0, [123.0]), op.J(np.zeros(1)))


def test_phi_rejects_bad_lambda():
    op = core.Translation([1.0])
    for lam in (0.0, -0.1, 1.5):
        with pytest.raises(InputError):
            core.apply_Phi(op, lam, [0.0])


@given(lam=st.floats(0.01, 0.99), data=st.data())
@settings(max_examples=50)
def test_phi_contraction_factor(lam, data):
    # Phi(lam, .) is a (1 - lam)-contraction when J is nonexpansive
    op = core.AffineNonexpansive([[0.6, 0.3], [0.2, -0.7]], [1.0, -2.0])
    x = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=2, max_size=2)))
    y = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=2, max_size=2)))
    lhs = op.norm(core.apply_Phi(op, lam, x) - core.apply_Phi(op, lam, y))
    rhs = (1.0 - lam) * op.norm(x - y)
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_rotation_is_isometry():
    op = core.rotation(np.pi / 6.0)
    x = np.array([3.0, 4.0])
    assert op.norm(op.J(x)) == pytest.approx(5.0)


def test_linear_isometry_rejects_non_orthogonal():
    with pytest.raises(InputError):
        core.LinearIsometry([[1.0, 0.0], [0.5, 1.0]])
    # a Euclidean contraction passes the affine norm bound: only the
    # isometry test rejects it
    with pytest.raises(InputError, match="^matrix is not orthogonal$"):
        core.LinearIsometry(np.diag([1.0, 0.5]))


def test_sup_isometry_signed_permutation():
    op = core.LinearIsometry([[0.0, -1.0], [1.0, 0.0]], norm_kind=core.SUP)
    assert np.allclose(op.J([2.0, 3.0]), [-3.0, 2.0])
    op = core.LinearIsometry([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                             norm_kind=core.SUP)
    assert op.J([1.0, 2.0, 3.0]).tolist() == [-3.0, 1.0, -2.0]
    # a unit entry may be off by about 1e-5 relative, a zero by 1e-12
    core.LinearIsometry([[0.0, 1.0 - 1e-9], [1.0, 0.0]], norm_kind=core.SUP)
    with pytest.raises(InputError, match="sup-norm isometry"):
        core.LinearIsometry([[0.0, 1.0 - 1e-4], [1.0, 0.0]], norm_kind=core.SUP)
    # a row sum of 1 + 1e-9 fails the norm bound before the isometry test
    with pytest.raises(InputError, match="operator norm .* exceeds 1 in the sup norm"):
        core.LinearIsometry([[1e-9, 1.0], [1.0, 0.0]], norm_kind=core.SUP)
    # the last three have one unit entry per row, not per column:
    # the first maps (1, 5) to (1, 1)
    for bad in ([[0.5, 0.5], [0.5, -0.5]], [[1.0, 0.0], [1.0, 0.0]],
                [[0.0, -1.0], [0.0, 1.0]],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]):
        with pytest.raises(InputError, match="sup-norm isometry"):
            core.LinearIsometry(bad, norm_kind=core.SUP)


def test_linear_isometry_is_held_to_the_affine_norm_bound():
    # both pass the isometry test's own tolerance, yet ||M|| > 1 + RATIO_TOL,
    # so J would expand some pairs: the shared constructor rejects them
    for matrix, kind in (([[0.0, 1.0 + 1e-6], [1.0, 0.0]], core.SUP),
                         ((1.0 + 4e-10) * core.rotation(0.5).matrix, core.EUCLIDEAN)):
        with pytest.raises(InputError, match=f"operator norm .* exceeds 1 in the {kind} norm"):
            core.LinearIsometry(matrix, norm_kind=kind)


def test_a_class_that_defines_J_is_a_type_error():
    # Operator.J alone validates; a subclass defines map
    for base in (core.Operator, core.AffineNonexpansive, core.Translation,
                 shapley.ShapleyOperator):
        with pytest.raises(TypeError, match="map"):
            type("DefinesJ", (base,), {"J": lambda self, x: x})
    assert not [cls for cls in (core.AffineNonexpansive, core.Translation,
                                core.LinearIsometry, shapley.ShapleyOperator)
                if "J" in vars(cls)]


def test_closed_form_operators_share_the_affine_implementation():
    for cls in (core.Translation, core.LinearIsometry):
        assert issubclass(cls, core.AffineNonexpansive)
        assert not {"J", "map", "linearize", "h_constant"} & set(vars(cls))
    assert "map" in vars(core.AffineNonexpansive)


def test_translation_matches_its_own_formulas_bit_for_bit():
    rng = np.random.default_rng(5)
    c = rng.uniform(-3.0, 3.0, size=3)
    op = core.Translation(c)
    assert op.norm_kind == core.SUP and op.dim == 3
    assert op.describe() == f"Translation(c={c.tolist()})"
    assert op.h_constant() == float(np.max(np.abs(c)))
    assert core.Translation(c, norm_kind=core.EUCLIDEAN).h_constant() == \
        float(np.linalg.norm(c))
    for _ in range(20):
        x = rng.uniform(-10.0, 10.0, size=3)
        assert op.J(x).tolist() == (x + c).tolist()
        Jx, M = op.linearize(x)
        assert Jx.tolist() == (x + c).tolist()
        assert M.tolist() == np.eye(3).tolist()


def test_linear_isometry_matches_its_own_formulas_bit_for_bit():
    rng = np.random.default_rng(6)
    for op in (core.rotation(0.7),
               core.LinearIsometry([[0.0, -1.0], [1.0, 0.0]], norm_kind=core.SUP)):
        assert op.describe() == "LinearIsometry(dim=2)"
        assert op.h_constant() == 0.0
        for _ in range(20):
            x = rng.uniform(-10.0, 10.0, size=2)
            assert op.J(x).tolist() == (op.matrix @ x).tolist()
            Jx, M = op.linearize(x)
            assert Jx.tolist() == (op.matrix @ x).tolist() and M is op.matrix
    assert core.rotation(0.7).norm_kind == core.EUCLIDEAN


def test_closed_form_operators_validate_their_own_invariant():
    with pytest.raises(InputError):
        core.Translation([np.nan])
    with pytest.raises(InputError):
        core.Translation([1.0], norm_kind="l1")
    for bad in ([[1.0, 0.0]], [[np.inf]], [[1.0]] * 2):
        with pytest.raises(InputError):
            core.LinearIsometry(bad)


def test_operators_of_dimension_zero_are_rejected():
    for make in (lambda: core.Translation([]),
                 lambda: core.AffineNonexpansive(np.zeros((0, 0)), []),
                 lambda: core.LinearIsometry(np.zeros((0, 0)))):
        with pytest.raises(InputError, match="matrix is empty"):
            make()


def test_affine_rejects_expansive_matrix():
    with pytest.raises(InputError):
        core.AffineNonexpansive([[1.5]], [0.0])
    with pytest.raises(InputError):
        core.AffineNonexpansive([[0.8, 0.8], [0.0, 1.0]], [0.0, 0.0])


def test_affine_operator_norm_is_the_declared_norms():
    # a 45 degree rotation: norm 1 as a euclidean map, sqrt(2) as a sup one
    c = np.sqrt(0.5)
    R, offset = [[c, -c], [c, c]], [1.0, -2.0]
    op = core.AffineNonexpansive(R, offset, norm_kind=core.EUCLIDEAN)
    assert np.array_equal(op.J([1.0, 0.0]), [c + 1.0, c - 2.0])
    with pytest.raises(InputError, match=r"operator norm 1\.41421 exceeds 1 in the sup norm"):
        core.AffineNonexpansive(R, offset, norm_kind=core.SUP)
    with pytest.raises(InputError, match=r"operator norm 1\.01 exceeds 1 in the euclidean norm"):
        core.AffineNonexpansive(1.01 * np.array(R), offset, norm_kind=core.EUCLIDEAN)


def test_identity_operator_has_zero_A():
    op = core.identity_operator(3)
    assert np.allclose(core.apply_A(op, [1.0, -2.0, 3.0]), 0.0)


def test_h_constants():
    assert core.Translation([3.0, -4.0]).h_constant() == 4.0
    assert core.rotation(0.3).h_constant() == 0.0
    assert core.AffineNonexpansive([[0.5]], [-2.0]).h_constant() == 2.0
    class Unknown(core.Operator):
        dim, norm_kind = 1, core.SUP
        def map(self, x):
            return x
    with pytest.raises(InputError):
        Unknown().h_constant()


class _Expansive(core.Operator):
    """J(x) = 2x, deliberately expansive, for negative tests."""

    def __init__(self):
        self.dim = 2
        self.norm_kind = core.SUP

    def map(self, x):
        return 2.0 * x


def test_check_nonexpansive_passes_and_fails():
    for op in (core.Translation([1.0]), core.rotation(0.5),
               core.AffineNonexpansive([[0.9]], [1.0])):
        rep = core.check_nonexpansive(op, samples=100, seed=3)
        assert rep.violations == 0
        assert rep.worst_ratio <= 1.0 + core.RATIO_TOL
    bad = core.check_nonexpansive(_Expansive(), samples=100, seed=3)
    assert bad.violations > 0
    assert bad.worst_ratio > 1.5


def test_check_accretive():
    for lam in (0.1, 0.5, 1.0, 2.0):
        for op in (core.Translation([1.0, 2.0]), core.rotation(0.7)):
            rep = core.check_accretive(op, lam, samples=100, seed=5)
            assert rep.violations == 0
            assert rep.worst_ratio >= 1.0 - core.RATIO_TOL
    # J = 2x gives A = -x, so the ratio is |1 - lam| < 1 for small lam
    bad = core.check_accretive(_Expansive(), 0.5, samples=100, seed=5)
    assert bad.violations > 0
    assert bad.worst_ratio == pytest.approx(0.5)


def test_one_accretivity_draw_gives_each_lambdas_report_field_for_field():
    # each lam's report from the shared draw is check_accretive's, and its
    # ratios are the written-out ||x - y + lam (A(x) - A(y))|| / d
    lams = (0.1, 0.5, 1.0, 2.0)
    for op in (core.Translation([1.0, 2.0]), core.rotation(0.7), _Expansive(),
               shapley.ShapleyOperator(shapley.random_game(3, 2, 2, seed=4))):
        shared = core._accretive_reports(op, lams, samples=50, seed=9)
        assert shared == [core.check_accretive(op, lam, samples=50, seed=9) for lam in lams]
        pairs = core._sampled_pairs(op, 50, 9)
        for lam, rep in zip(lams, shared):
            ratios = [op.norm(x - y + lam * (core.apply_A(op, x) - core.apply_A(op, y))) / d
                      for x, y, d in pairs]
            assert rep.worst_ratio == min(ratios)
            assert rep.violations == sum(r < 1.0 - core.RATIO_TOL for r in ratios)


def test_check_accretive_rejects_nonpositive_lambda():
    # NaN and inf too, with a message that names lambda
    op = core.Translation([1.0])
    for lam in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(InputError, match="^lambda: must be positive and finite, got "):
            core.check_accretive(op, lam)
        with pytest.raises(InputError, match="^lambda: must be positive and finite, got "):
            core._accretive_reports(op, (0.5, lam))


def test_a_draw_that_skips_every_pair_forms_no_ratio(monkeypatch):
    # every sampled pair is closer than PAIR_MIN_DIST, so no ratio is formed
    monkeypatch.setattr(core, "PAIR_MIN_DIST", math.inf)
    for op in (core.Translation([1.0]), core.rotation(0.5)):
        rep = core.check_nonexpansive(op, samples=20, seed=1)
        assert (rep.worst_ratio, rep.violations, rep.samples) == (0.0, 0, 20)
        rep = core.check_accretive(op, 0.5, samples=20, seed=1)
        assert (rep.worst_ratio, rep.violations, rep.samples) == (1.0, 0, 20)


@pytest.mark.parametrize("make, message", [
    (lambda: discrete.iterate_Vn(core.Translation([1.0]), 0), "N: must be >= 1, got 0"),
    (lambda: continuous.euler_power(core.Translation([1.0]), 1.0, 0, [0.0]),
     "m: must be >= 1, got 0"),
    (lambda: continuous.Table([]), "at least one knot required"),
    (lambda: shapley.random_game(0, 2, 2), "num_states: must be >= 1, got 0"),
    (lambda: core.check_nonexpansive(core.Translation([1.0]), samples=0),
     "samples: must be >= 1, got 0"),
    (lambda: core.identity_operator(0), "dim: must be >= 1, got 0"),
], ids=["iterate_Vn", "euler_power", "Table", "random_game", "check_nonexpansive",
        "identity_operator"])
def test_a_size_below_its_least_is_an_input_error(make, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        make()


def test_sample_ball_stays_in_ball():
    rng = np.random.default_rng(0)
    for kind in (core.SUP, core.EUCLIDEAN):
        for _ in range(100):
            x = core.sample_ball(rng, 3, kind)
            assert core.norm(x, kind) <= core.SAMPLE_RADIUS + 1e-12


def test_sample_ball_rejects_an_unknown_norm_kind():
    with pytest.raises(InputError, match="unknown norm kind 'l2'"):
        core.sample_ball(np.random.default_rng(0), 3, "l2")


_TR = core.Translation([1.0])
_PENNIES = shapley.ShapleyOperator(shapley.matching_pennies())
_HALF = continuous.Constant(0.5)
_FLOW = continuous.integrate_U(_TR, [0.0], 2.0)
_COUNT_BAD = (2.5, True, "3")  # a fraction, a bool and a str

#: (site, the start of its errors, which names the argument, the site called
#: on one value, bad values, a good value): every public function reads its
#: counts, tolerances, horizons and matrices through the readers of core
_READ_SITES = [
    ("iterate_Vn", "N: ", lambda v: discrete.iterate_Vn(_TR, v)[1].tobytes(), _COUNT_BAD, 3),
    ("StepSequence.constant", "N: ",
     lambda v: discrete.StepSequence.constant(0.5, v).steps.tobytes(), _COUNT_BAD, 3),
    ("StepSequence.harmonic", "N: ",
     lambda v: discrete.StepSequence.harmonic(v).steps.tobytes(), _COUNT_BAD, 3),
    ("euler_power", "m: ", lambda v: continuous.euler_power(_TR, 1.0, v, [0.0]).tobytes(),
     _COUNT_BAD, 2),
    ("random_game", "num_states: ",
     lambda v: shapley.random_game(v, 2, 2).shape_groups[0][1].tobytes(), _COUNT_BAD, 2),
    ("check_nonexpansive", "samples: ",
     lambda v: repr(core.check_nonexpansive(_TR, samples=v)), _COUNT_BAD, 3),
    ("verify.ode_tol", "ode_tol: ",
     lambda v: repr(bounds.verify("solution_contraction", bounds.Scenario(_TR, horizon=2), v)),
     ("1", True), 1),
    ("solve_vlambda", "tol: ", lambda v: discrete.solve_vlambda(_TR, 0.5, tol=v).tobytes(),
     ("1", True), 1),
    ("integrate_U", "T: ", lambda v: continuous.integrate_U(_TR, [0.0], v).points.tobytes(),
     ("1", True), 2),
    ("Constant", "lambda: ", lambda v: repr(continuous.Constant(v).lam), ("0.5", True), 1),
    ("PowerAlpha", "alpha: ", lambda v: repr(continuous.PowerAlpha(v).alpha),
     ("0.5", True), 0),
    ("matrix_game_value", "M: ", lambda v: repr(shapley.matrix_game_value(v)),
     ([[1, 2], [3]], [["a", "b"], ["c", "d"]], [["1", "0"], ["0", "1"]], [[True, 0], [0, 1]]),
     None),
    ("matrix_game_value_oracle", "M: ", lambda v: repr(shapley.matrix_game_value_oracle(v)),
     ([[1, 2], [3]], [["a", "b"], ["c", "d"]], [["1", "0"], ["0", "1"]], [[True, 0], [0, 1]]),
     None),
    ("AffineNonexpansive", "matrix is not numeric: ",
     lambda v: repr(core.AffineNonexpansive(v).matrix),
     ([[0.5, 0], [0]], [["a"]], [[True]], [[10**400]]), None),
    ("AffineNonexpansive.offset", "not a numeric vector: ",
     lambda v: repr(core.AffineNonexpansive([[0.5]], v).offset), (["1"], [True], [10**400]), 1),
    ("Translation", "not a numeric vector: ", lambda v: repr(core.Translation(v).c),
     (["1"], [True], True, [10**400]), 1),
    # an integer too large for a float is no number either
    ("as_vec", "not a numeric vector: ", lambda v: repr(core.as_vec(v)),
     (["1"], [True], [10**400]), 1),
    ("as_matrix", "matrix is not numeric: ", lambda v: repr(core.as_matrix(v)),
     ([["1"]], [[True]], [[10**400]]), None),
    ("norm", "not a numeric vector: ", lambda v: repr(core.norm(v)), (["1"], [10**400]), 1),
    ("Operator.J", "not a numeric vector: ", lambda v: repr(_TR.J(v)), (["1"], [10**400]), 1),
    ("StepSequence", "steps: ", lambda v: discrete.StepSequence(v).steps.tobytes(),
     ([True, 0.5], ["0.5"], np.array([True])), None),
    ("phi_recursion", "steps: ", lambda v: discrete.phi_recursion(_TR, v).points.tobytes(),
     ([True, 0.5], ["0.5"]), None),
    ("Table", "knots: ", lambda v: repr(continuous.Table(v).kinks()),
     ([("0", True)], [(0.0, True)], [(0.0, "0.5")]), None),
    ("identity_operator", "dim: ", lambda v: repr(core.identity_operator(v).matrix),
     _COUNT_BAD, 2),
    ("zeta", "t: ", lambda v: repr(continuous.zeta(v)), ("1", True), 1),
    ("zeta_inverse", "s: ", lambda v: repr(continuous.zeta_inverse(v)), ("1", True), 1),
    ("random_game.seed", "seed: ",
     lambda v: shapley.random_game(2, 2, 2, seed=v).shape_groups[0][1].tobytes(), _COUNT_BAD, 2),
    ("random_game.payoff_range", "payoff_range: ",
     lambda v: shapley.random_game(2, 2, 2, payoff_range=(v, 1)).shape_groups[0][1].tobytes(),
     ("0", True), 0),
    ("rotation", "theta: ", lambda v: repr(core.rotation(v).matrix), ("0.5", True), 1),
    ("StepSequence.constant.lam", "lambda: ",
     lambda v: discrete.StepSequence.constant(v, 2).steps.tobytes(), ("0.5", True), 1),
    ("StepSequence.inverse_sqrt", "N: ",
     lambda v: discrete.StepSequence.inverse_sqrt(v).steps.tobytes(), _COUNT_BAD, 3),
    ("random_game.m", "m: ", lambda v: shapley.random_game(1, v, 2).shape_groups[0][1].tobytes(),
     _COUNT_BAD, 2),
    ("random_game.n", "n: ", lambda v: shapley.random_game(1, 2, v).shape_groups[0][1].tobytes(),
     _COUNT_BAD, 2),
    # a bool is no lam = 1, and a str no number: the checked path reads lam
    ("apply_Phi.lam", "lambda: ", lambda v: core.apply_Phi(_TR, v, [1.0]).tobytes(),
     ("0.5", True), 1),
    ("apply_Phi.x", "not a numeric vector: ", lambda v: core.apply_Phi(_TR, 0.5, v).tobytes(),
     (["1"], [10**400]), 1),
    ("apply_A.x", "not a numeric vector: ", lambda v: core.apply_A(_TR, v).tobytes(),
     (["1"], [10**400]), 1),
    ("Operator.norm.x", "not a numeric vector: ", lambda v: repr(_TR.norm(v)),
     (["1"], [10**400]), 1),
    ("AffineNonexpansive.linearize.x", "not a numeric vector: ",
     lambda v: repr(_TR.linearize(v)), (["1"], [10**400]), 1),
    ("ShapleyOperator.linearize.x", "not a numeric vector: ",
     lambda v: repr(_PENNIES.linearize(v)), (["1"], [10**400]), 1),
    ("LinearIsometry.matrix", "matrix is not numeric: ",
     lambda v: repr(core.LinearIsometry(v).matrix), ([["a"]], [[True]], [[10**400]]), None),
    ("check_accretive.lam", "lambda: ", lambda v: repr(core.check_accretive(_TR, v, samples=3)),
     ("0.5", True), 1),
    ("check_accretive.samples", "samples: ",
     lambda v: repr(core.check_accretive(_TR, 0.5, samples=v)), _COUNT_BAD, 3),
    # a seed is a count: no bool, str or negative number reaches NumPy
    *[(f"{check.__name__}.seed", "seed: ",
       lambda v, check=check, args=args: repr(check(_TR, *args, samples=3, seed=v)),
       (*_COUNT_BAD, -1), 2)
      for check, args in ((core.check_nonexpansive, ()), (core.check_accretive, (0.5,)))],
    ("euler_power.t", "t: ", lambda v: continuous.euler_power(_TR, v, 2, [0.0]).tobytes(),
     ("1", True), 1),
    ("euler_power.x0", "not a numeric vector: ",
     lambda v: continuous.euler_power(_TR, 1.0, 2, v).tobytes(), (["1"], [10**400]), 1),
    ("euler_scheme.x0", "not a numeric vector: ",
     lambda v: discrete.euler_scheme(_TR, v, [0.5]).points.tobytes(), (["1"], [10**400]), 1),
    ("euler_scheme.steps", "steps: ",
     lambda v: discrete.euler_scheme(_TR, [0.0], v).points.tobytes(),
     ([True, 0.5], ["0.5"]), None),
    # not public, yet a site of the same rules: a bool is no t = 1.0
    ("euler_interpolant", "t: ",
     lambda v: discrete.euler_interpolant(discrete.euler_scheme(_TR, [0.0], [1.0]), v).tobytes(),
     ("1", True), 1),
    # not public either: lists of steps are read as StepSequences
    ("kobayashi_rhs", "steps: ",
     lambda v: discrete.kobayashi_rhs(_TR, [0.0], [1.0], v, v).tobytes(),
     ([True, 0.5], ["0.5"]), None),
    ("integrate_U.U0", "not a numeric vector: ",
     lambda v: continuous.integrate_U(_TR, v, 1.0).points.tobytes(), (["1"], [10**400]), 1),
    ("integrate_U.tol", "tol: ",
     lambda v: continuous.integrate_U(_TR, [0.0], 1.0, v).points.tobytes(), ("1", True), 1),
    # a number is no parametrization
    ("integrate_u.param", "param: ",
     lambda v: continuous.integrate_u(_TR, v, [0.0], 1.0).points.tobytes(),
     (0.5, None, continuous.Constant), None),
    ("integrate_u.u0", "not a numeric vector: ",
     lambda v: continuous.integrate_u(_TR, _HALF, v, 1.0).points.tobytes(), (["1"], [10**400]), 1),
    ("integrate_u.T", "T: ",
     lambda v: continuous.integrate_u(_TR, _HALF, [0.0], v).points.tobytes(), ("1", True), 2),
    ("integrate_u.tol", "tol: ",
     lambda v: continuous.integrate_u(_TR, _HALF, [0.0], 1.0, v).points.tobytes(), ("1", True), 1),
    ("Trajectory.at", "t: ", lambda v: _FLOW.at(v).tobytes(), ("1", True), 1),
    ("Trajectory.err_at", "times: ", lambda v: repr(_FLOW.err_at(v)), ("1", True), 1),
    ("slow_param_bound.u0", "not a numeric vector: ",
     lambda v: repr(continuous.slow_param_bound(_TR, _HALF, v, 1.0)), (["1"], [10**400]), 1),
    ("slow_param_bound.t", "t: ",
     lambda v: repr(continuous.slow_param_bound(_TR, _HALF, [0.0], v)), ("1", True), 1),
    ("solve_vlambda.lam", "lambda: ", lambda v: discrete.solve_vlambda(_TR, v).tobytes(),
     ("0.5", True), 1),
    ("run_checks.ode_tol", "ode_tol: ",
     lambda v: repr(bounds.run_checks([("solution_contraction", bounds.Scenario(_TR, horizon=2))],
                                      v)), ("1", True), 1),
    # the suite reads ode_tol before its first check runs; its good value is
    # the suite's own run
    ("run_suite.ode_tol", "ode_tol: ", lambda v: repr(bounds.run_suite(v)), ("1", True), None),
    # a time of lam, read by each of a Parametrization's three reads
    *[(f"{type(p).__name__}.{read}", "t: ",
       lambda v, p=p, read=read: repr(float(getattr(p, read)(v))), ("1", True, 10**400), 1)
      for p in (continuous.PowerAlpha(0.5), continuous.InverseTimeZeta(),
                continuous.Table([(0.0, 0.5), (2.0, 1.0)]))
      for read in ("value", "derivative", "integral")],
]


@pytest.mark.parametrize("named, read, bad, good", [row[1:] for row in _READ_SITES],
                         ids=[row[0] for row in _READ_SITES])
def test_each_public_argument_is_read_by_a_core_reader(named, read, bad, good):
    # a bool, a fraction or a str given for a count, a str or a bool for a
    # real, and a ragged or non-numeric matrix are InputErrors that name
    # the argument
    for value in bad:
        with pytest.raises(InputError, match=f"^{re.escape(named)}"):
            read(value)
    # an int, a float, a NumPy scalar and a 0-d array read to the same bits
    if good is not None:
        values = (good, float(good), np.int64(good), np.float64(good), np.array(good))
        assert len({read(v) for v in values}) == 1


#: the parameter a row reads, where neither its site nor its error names it
_ROW_PARAMETERS = {"Constant": "lam", "AffineNonexpansive": "matrix", "Translation": "c",
                   "norm": "x", "Operator.J": "x", "phi_recursion": "lambda_seq"}

#: the public parameters that need no row, each with the reason
_UNREAD_PARAMETERS = {
    # no number: objects, flags, names and kinds, each checked by its use
    **dict.fromkeys([f"{site}.op" for site in (
        "apply_A", "apply_Phi", "check_accretive", "check_nonexpansive", "euler_power",
        "euler_scheme", "integrate_U", "integrate_u", "iterate_Vn", "phi_recursion",
        "slow_param_bound", "solve_vlambda")], "an Operator"),
    "slow_param_bound.param": "a Parametrization, which reads its own times",
    "ShapleyOperator.game": "a StochasticGame, built by its own schema",
    "apply_A.checked": "a flag", "apply_Phi.checked": "a flag", "solve_vlambda.full": "a flag",
    "AffineNonexpansive.norm_kind": "a norm kind", "LinearIsometry.norm_kind": "a norm kind",
    "Translation.norm_kind": "a norm kind", "norm.kind": "a norm kind",
    "verify.check": "a check's name", "verify.scenario": "a Scenario, read by verify",
    "run_checks.pairs": "(check, Scenario) pairs, each read by verify",
    "Scenario.operator": "an Operator",
    "load_game.source": "a game document or its path",
    # the game schema reads these, each at its location (test_shapley's
    # test_each_game_schema_error_names_its_location)
    **dict.fromkeys([f"StochasticGame.{key}" for key in (
        "states", "actions", "payoff", "transition")], "read by the game schema"),
    # records that the library builds and callers only read
    **dict.fromkeys([f"BoundReport.{key}" for key in (
        "check", "lhs", "rhs", "slack", "tol_budget", "verdict", "context")], "a result"),
    **dict.fromkeys([f"Trajectory.{key}" for key in (
        "times", "nodes", "err_bound", "dense")], "a result"),
    # map takes a validated vector: J is its reader (row Operator.J)
    **dict.fromkeys([f"{cls}.map.x" for cls in (
        "Operator", "AffineNonexpansive", "ShapleyOperator")], "J reads it"),
    "Operator.linearize.x": "the base class returns J(x), None (row Operator.J)",
    # a guess never changes the result, so a malformed one is read as no
    # guess (test_shapley's test_a_support_guess_never_changes_the_result)
    "matrix_game_value.support": "a guess: a malformed one is no guess",
}


def _public_parameters():
    """site.parameter of every parameter of every public callable of opdyn:
    the functions and classes of __all__ (errors aside) and the public
    methods of the classes, each named by the qualname of its definition.
    Scenario's **inputs are the checks' keys, which bounds.READERS reads."""
    sites = {}
    for obj in (getattr(opdyn, name) for name in opdyn.__all__):
        if isinstance(obj, type) and issubclass(obj, Exception) or not callable(obj):
            continue
        sites[obj.__qualname__] = obj
        for attr in dir(obj) if isinstance(obj, type) else ():
            method = getattr(obj, attr)
            if not attr.startswith("_") and callable(method):
                sites[method.__qualname__] = method
    return {f"{site}.{name}" for site, fn in sites.items()
            for name, p in inspect.signature(fn).parameters.items()
            if name not in ("self", "cls") and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}


def _row_parameter(row):
    """site.parameter that a _READ_SITES row reads, or None for a site
    outside opdyn's namespace: its id names a callable of opdyn, then
    perhaps the parameter; else its error or _ROW_PARAMETERS names it."""
    site_id, named = row[:2]
    parts, obj = site_id.split("."), opdyn
    while parts and callable(getattr(obj, parts[0], None)):
        obj = getattr(obj, parts.pop(0))
    if obj is opdyn:
        return None
    name = parts[0] if parts else named.split(": ")[0]
    if name not in inspect.signature(obj).parameters:
        name = _ROW_PARAMETERS[site_id]
    return f"{obj.__qualname__}.{name}"


def test_every_public_parameter_has_a_read_site_row_or_a_reason():
    # a new public argument must go through the core readers, as a row of
    # _READ_SITES shows, or say here why it need not
    public = _public_parameters()
    read = {_row_parameter(row) for row in _READ_SITES} - {None}
    assert read <= public
    assert sorted(public - read - set(_UNREAD_PARAMETERS)) == []
    assert sorted(read & set(_UNREAD_PARAMETERS)) == []
    assert sorted(set(_UNREAD_PARAMETERS) - public) == []


def test_the_core_readers_keep_the_config_readers_rules():
    # the config readers are the core readers themselves, so no config
    # number is a string
    assert [core.real(v) for v in (1, 0.5, np.float32(0.5), np.array(2))] == [1, 0.5, 0.5, 2]
    assert [core.integer(v) for v in (3, 1e3, np.int64(4), np.array(5))] == [3, 1000, 4, 5]
    assert core.integer(2**70 + 1) == 2**70 + 1
    for read, value, message in [
            (core.real, "0.5", "must be a number, got '0.5'"),
            (core.real, np.True_, "must be a number, got np.True_"),
            (core.positive, 0, "must be positive and finite, got 0.0"),
            (core.positive, np.nan, "must be positive and finite, got nan"),
            (core.integer, 2.5, "must be an integer, got 2.5"),
            (core.integer, math.inf, "must be an integer, got inf"),
            (core.integer, "3", "must be an integer, got '3'"),
            (core.count(1), 0, "must be >= 1, got 0")]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            read(value)
