"""Vectors, norms and the nonexpansive-operator abstraction.

An operator instance holds a nonexpansive map J on R^d together with the
norm it is nonexpansive in.  Derived maps:

    A(x)         = x - J(x)
    Phi(lam, x)  = lam * J(((1 - lam) / lam) * x)        for lam in (0, 1]

Phi(lam, .) is a (1 - lam)-contraction whenever J is nonexpansive.

An operator may also provide ``linearize(x) -> (J(x), M)``, a linear model
y -> J(x) + M (y - x) of J at x, which the fixed-point solvers use for
policy (Newton) steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, convert

SUP = "sup"
EUCLIDEAN = "euclidean"

_NORM_KINDS = (SUP, EUCLIDEAN)

#: slack allowed on sampled nonexpansiveness / contraction ratios
RATIO_TOL = 1e-12
#: the one rounding allowance, of every check's budget and integrate_U's cross-check
BASE_TOL = 1e-9
#: pairs closer than this are skipped when forming ratios (0/0 noise)
PAIR_MIN_DIST = 1e-9

_FLOAT = np.dtype(float)


def as_vec(x, dim=None):
    """Validate and return a finite 1-d float array; x itself when it is one
    (a finite sum is the fast finiteness test, a sum that overflows falls
    through to the entrywise one)."""
    if (type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == 1
            and (dim is None or x.shape[0] == dim) and math.isfinite(sum(x.tolist()))):
        return x
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"not a numeric vector: {exc}") from None
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {v.shape}")
    if not np.isfinite(v).all():
        raise InputError("vector has NaN or infinite entries")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_matrix(M, square=False):
    """M as a nonempty 2-d float array, square when square is set (M itself
    when it is one); its finiteness is left to the caller's own path."""
    try:
        A = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix is not numeric: {exc}") from None
    if square and (A.ndim != 2 or A.shape[0] != A.shape[1]):
        raise InputError("matrix must be square")
    if A.ndim != 2 or not A.size:
        raise InputError("matrix is empty: the dimension must be >= 1" if square
                         else f"matrix must be 2-d and nonempty, got shape {A.shape}")
    return A


# The readers of the public functions' scalar arguments: each returns the
# value read or raises an InputError, which its caller names with
# errors.convert.  A str is no number here; bounds' config readers convert it.

def _number(x):
    """x, or the scalar of a 0-d array x, if it is a real number and no bool."""
    x = x[()] if isinstance(x, np.ndarray) and x.ndim == 0 else x
    return x if isinstance(x, numbers.Real) and not isinstance(x, bool) else None


def real(x):
    """x as a Python float: an int, a float, a NumPy real scalar or a 0-d array."""
    r = _number(x)
    if r is None:
        raise InputError(f"must be a number, got {x!r}")
    return float(r)


def positive(x):
    """real(x), which must be positive and finite."""
    r = real(x)
    if not 0.0 < r < math.inf:  # NaN too
        raise InputError(f"must be positive and finite, got {r!r}")
    return r


def integer(x):
    """x as a Python int: a number (see real) that is integral, such as 1e3."""
    r = _number(x)
    if r is None or not float(r).is_integer():
        raise InputError(f"must be an integer, got {x!r}")
    return int(r)


def count(least):
    """A reader: an integer that is at least least."""
    def read(x):
        n = integer(x)
        if n < least:
            raise InputError(f"must be >= {least}, got {n}")
        return n
    return read


def norm(x, kind=SUP):
    """Norm of a vector: max|x_i| for sup, sqrt(sum x_i^2) for euclidean.
    The sup norm is taken on Python floats: abs and max are exact, so it is
    NumPy's float(abs(v).max()) bit for bit, without its temporaries."""
    v = as_vec(x)
    if kind == SUP:
        return max(map(abs, v.tolist()), default=0.0)
    if kind == EUCLIDEAN:
        return float(np.linalg.norm(v))
    raise InputError(f"unknown norm kind {kind!r}")


class Operator:
    """A nonexpansive map J on R^dim, in the declared norm.

    A subclass defines ``map(x)``, J on an x that is already a finite float
    vector of length dim.  ``J`` alone validates: it reads x with as_vec and
    calls ``map``, and a class body that defines J is a TypeError.
    """

    dim: int
    norm_kind: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "J" in cls.__dict__:
            raise TypeError(f"{cls.__name__} defines J: define map(x) instead, "
                            "which Operator.J calls on the validated x")

    def J(self, x):
        return self.map(as_vec(x, self.dim))

    def map(self, x):
        """J(x) for x a finite float vector of length dim, with no validation."""
        raise NotImplementedError

    def linearize(self, x):
        """(J(x), M) with y -> J(x) + M (y - x) a linear model of J at x.

        M is a dim x dim array, or None when no model is known; the base
        class knows none.  Validates x exactly as J does.
        """
        return self.J(x), None

    def h_constant(self):
        """Constant C with ||Phi(lam,x) - Phi(mu,x)|| <= |lam-mu| (C + ||x||)."""
        raise InputError(f"no hypothesis-(H) constant known for {self.describe()}")

    def norm(self, x):
        return norm(x, self.norm_kind)

    def describe(self):
        return type(self).__name__


class AffineNonexpansive(Operator):
    """J(x) = Mx + b with ||M|| <= 1 in the declared norm; b = 0 when no
    offset is given.

    The norm bound is a constructor invariant: sup norm uses the max
    absolute row sum, euclidean the largest singular value.  Translation
    (M = I) and LinearIsometry (b = 0) are built by this constructor, so
    they satisfy it too; LinearIsometry adds only its isometry test.
    """

    def __init__(self, matrix, offset=None, norm_kind=SUP):
        if norm_kind not in _NORM_KINDS:
            raise InputError(f"unknown norm kind {norm_kind!r}")
        M = as_matrix(matrix, square=True)
        if not np.all(np.isfinite(M)):
            raise InputError("matrix has non-finite entries")
        self.matrix, self.dim, self.norm_kind = M, M.shape[0], norm_kind
        self.offset = np.zeros(self.dim) if offset is None else as_vec(offset, self.dim)
        if norm_kind == SUP:
            op_norm = float(np.max(np.sum(np.abs(M), axis=1)))
        else:
            op_norm = float(np.linalg.norm(M, 2))
        if op_norm > 1.0 + RATIO_TOL:
            raise InputError(
                f"operator norm {op_norm:.6g} exceeds 1 in the {norm_kind} norm"
            )

    def map(self, x):
        return np.dot(self.matrix, x) + self.offset

    def linearize(self, x):
        return self.J(x), self.matrix

    def h_constant(self):
        return self.norm(self.offset)

    def describe(self):
        return f"AffineNonexpansive(dim={self.dim})"


class Translation(AffineNonexpansive):
    """J(x) = x + c, an isometry in every norm."""

    def __init__(self, c, norm_kind=SUP):
        self.c = as_vec(c)
        super().__init__(np.eye(self.c.shape[0]), self.c, norm_kind)

    def describe(self):
        return f"Translation(c={self.c.tolist()})"


class LinearIsometry(AffineNonexpansive):
    """J(x) = Mx with M orthogonal (rotations being the standard demo)."""

    def __init__(self, matrix, norm_kind=EUCLIDEAN):
        super().__init__(matrix, norm_kind=norm_kind)
        M = self.matrix
        if norm_kind == EUCLIDEAN:
            if not np.allclose(M @ M.T, np.eye(self.dim), atol=1e-9):
                raise InputError("matrix is not orthogonal")
        else:
            # sup-norm isometries: signed permutation matrices, so |M| has
            # one 1 in every row and every column and zeros elsewhere (the
            # ones within isclose's default rtol, the zeros within 1e-12)
            A = np.abs(M)
            one = np.isclose(A, 1.0, atol=1e-12)
            if not (np.all(one | (A <= 1e-12))
                    and np.all(one.sum(axis=0) == 1) and np.all(one.sum(axis=1) == 1)):
                raise InputError("matrix is not a sup-norm isometry (a signed permutation)")

    def describe(self):
        return f"LinearIsometry(dim={self.dim})"


def rotation(theta):
    """Planar rotation by angle theta (radians), an isometry of the euclidean
    norm."""
    c, s = np.cos(theta), np.sin(theta)
    return LinearIsometry([[c, -s], [s, c]])


def identity_operator(dim):
    """J = I, so A = 0; useful as a degenerate test case."""
    return AffineNonexpansive(np.eye(dim))


# Who validates: Operator.J runs as_vec on x and calls op.map, and
# op.linearize validates x as J does; apply_A leaves x to op.J (called
# directly, with no apply_J), and apply_Phi reads x with as_vec first, since
# it scales x before J sees it (or, at lam = 1, J never sees it).  With
# checked=False they call op.map, which skips as_vec, on an x built from an
# already validated start: the integrator's right-hand side and the orbit
# loops (so the Euler power too) do, and check finiteness once per step or
# per orbit instead.


def apply_A(op, x, checked=True):
    """A = I - J."""
    return x - (op.J(x) if checked else op.map(x))


def apply_Phi(op, lam, x, checked=True):
    """Phi(lam, x) = lam * J(((1 - lam)/lam) * x); Phi(1, x) = J(0)."""
    if not 0.0 < lam <= 1.0:
        raise InputError(f"lambda must lie in (0, 1], got {lam}")
    if checked:
        x = as_vec(x, op.dim)
    if lam == 1.0:
        return op.J(np.zeros(op.dim))
    return lam * (op.J if checked else op.map)(
        np.multiply((1.0 - lam) / lam, x, dtype=float))


@dataclass
class PropertyReport:
    """Result of a sampled structural check."""

    samples: int
    violations: int
    worst_ratio: float
    seed: int


def sample_ball(rng, dim, radius, norm_kind):
    """One point drawn uniformly from the ball of given radius."""
    if norm_kind == SUP:
        return rng.uniform(-radius, radius, size=dim)
    if norm_kind != EUCLIDEAN:
        raise InputError(f"unknown norm kind {norm_kind!r}")
    x = rng.standard_normal(dim)
    r = np.linalg.norm(x)
    if r == 0.0:
        return np.zeros(dim)
    return x / r * radius * rng.uniform() ** (1.0 / dim)


def _sampled_pairs(op, samples, radius, seed):
    """Seeded pairs (x, y, ||x - y||) from the ball; pairs closer than
    PAIR_MIN_DIST are drawn but skipped."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(samples):
        x = sample_ball(rng, op.dim, radius, op.norm_kind)
        y = sample_ball(rng, op.dim, radius, op.norm_kind)
        d = op.norm(x - y)
        if d > PAIR_MIN_DIST:
            pairs.append((x, y, d))
    return pairs


def check_nonexpansive(op, samples=200, radius=10.0, seed=0):
    """Sampled check of ||J(x)-J(y)|| <= ||x-y||.

    worst_ratio is the largest observed ratio (0 when every pair is
    skipped); violations counts pairs exceeding 1 + RATIO_TOL.
    """
    samples = convert(count(1), samples, "samples")
    ratios = [op.norm(op.J(x) - op.J(y)) / d
              for x, y, d in _sampled_pairs(op, samples, radius, seed)]
    violations = sum(r > 1.0 + RATIO_TOL for r in ratios)
    return PropertyReport(samples, violations, max(ratios, default=0.0), seed)


def check_accretive(op, lam, samples=200, radius=10.0, seed=0):
    """Sampled check of ||x-y + lam(A(x)-A(y))|| >= ||x-y|| for lam > 0.

    worst_ratio is the smallest observed ratio (1 when every pair is
    skipped); violations counts pairs below 1 - RATIO_TOL.  The one-lam
    case of ``_accretive_reports``, whose one draw serves every lam.
    """
    (report,) = _accretive_reports(op, (lam,), samples, radius, seed)
    return report


def _accretive_reports(op, lams, samples=200, radius=10.0, seed=0):
    """check_accretive's report for each lam in lams, from one draw of the
    pairs and one evaluation of A at each of their points."""
    lams = [convert(positive, lam, "lambda") for lam in lams]
    samples = convert(count(1), samples, "samples")
    diffs = [(x - y, apply_A(op, x) - apply_A(op, y), d)
             for x, y, d in _sampled_pairs(op, samples, radius, seed)]
    reports = []
    for lam in lams:
        ratios = [op.norm(dx + lam * dA) / d for dx, dA, d in diffs]
        violations = sum(r < 1.0 - RATIO_TOL for r in ratios)
        reports.append(PropertyReport(samples, violations, min(ratios, default=1.0), seed))
    return reports
