"""Discrete dynamics: value iteration, discounted fixed points, Euler
schemes and the Phi-recursion.

Conventions:
    V_n  = J(V_{n-1}),  V_0 = 0,        v_n = V_n / n
    v_lam: unique fixed point of Phi(lam, .)
    Euler: x_n = x_{n-1} - lam_n A(x_{n-1}),  sigma_n = sum lam_i,
           tau_n = sum lam_i^2
    w_n  = Phi(lam_n, w_{n-1})

Each scheme above is an orbit x_n = F(lam_n, x_{n-1}) along a StepSequence,
computed by the one loop ``_step_orbit`` (V_n takes lam_n = 1 and F = J),
which validates x_0 and the finished orbit once and evaluates F through the
operator's ``map``, which skips validation, in between.

v_lam is the fixed point of the (1 - lam)-contraction w -> lam J(gamma w),
gamma = (1 - lam)/lam; ``solve_vlambda`` certifies it with safeguarded
policy (Newton) steps built from ``Operator.linearize``, and counts its
iterations in linearize calls.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import apply_A, apply_Phi, as_array, as_vec, count, positive, real
from .errors import InputError, ResourceError, convert

#: cap on the linearize calls of one v_lam solve
VLAMBDA_MAX_ITER = 10**7
#: the certified error of a v_lam solve, unless its caller asks for another
VLAMBDA_TOL = 1e-10


@dataclass
class StepSequence:
    """Steps lam_i in (0, 1] with running budgets sigma and tau.

    sigma[k] = lam_1 + ... + lam_k (sigma[0] = 0), tau likewise with squares.
    """

    steps: np.ndarray
    sigma: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = convert(as_array, self.steps, "steps")
        if lam.ndim != 1 or lam.size == 0:
            raise InputError("steps must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise InputError("non-finite step")
        if np.any(lam <= 0.0) or np.any(lam > 1.0):
            raise InputError("steps must lie in (0, 1]")
        self.steps = lam
        self.sigma = np.concatenate(([0.0], np.cumsum(lam)))
        self.tau = np.concatenate(([0.0], np.cumsum(lam**2)))

    def __len__(self):
        return self.steps.size

    @classmethod
    def constant(cls, lam, N):
        lam = convert(real, lam, "lambda")
        return cls(_sized(N, lambda n: np.full(n, lam)))

    @classmethod
    def harmonic(cls, N):
        """lam_i = min(1, 1/i)."""
        i = _sized(N, lambda n: np.arange(1, n + 1, dtype=float))
        return cls(np.minimum(1.0, 1.0 / i))

    @classmethod
    def inverse_sqrt(cls, N):
        """lam_i = min(1, i^{-1/2})."""
        i = _sized(N, lambda n: np.arange(1, n + 1, dtype=float))
        return cls(np.minimum(1.0, i**-0.5))


def _sized(N, build):
    """build(n), an array of n = N entries, N read as a count of at least 1;
    a count too large for an array, which NumPy refuses with a ValueError,
    is an InputError that names N."""
    n = convert(count(1), N, "N")
    try:
        return build(n)
    except ValueError:
        raise InputError(f"N: {n:.3g} steps do not fit in an array") from None


def _step_sequence(steps):
    """steps as a StepSequence: itself, or the one of a sequence of steps."""
    return steps if isinstance(steps, StepSequence) else StepSequence(steps)


@dataclass
class DiscreteOrbit:
    """Points x_0 .. x_N of one discrete recursion along its steps."""

    points: np.ndarray
    steps: StepSequence


@np.errstate(over="ignore", invalid="ignore")  # the orbit is checked instead
def _step_orbit(op, x0, steps, step):
    """Orbit x_n = step(lam_n, x_{n-1}) along a step sequence.  x0 is read by
    as_vec; step may skip validating x (each x is a row of the orbit, built
    from x0), so the orbit is checked for finiteness once, at the end, and
    NumPy's overflow and invalid warnings on the way are silenced."""
    steps = _step_sequence(steps)
    points = np.empty((len(steps) + 1, op.dim))
    points[0] = as_vec(x0, op.dim)
    for n, lam in enumerate(steps.steps, 1):
        points[n] = step(lam, points[n - 1])
    if not np.isfinite(points).all():
        raise InputError("vector has NaN or infinite entries")
    return DiscreteOrbit(points, steps)


def locate(grid, t):
    """(k, s) with t = grid[k] + s (grid[k+1] - grid[k]), s in [0, 1] (the
    last sample gives k = len(grid) - 2, s = 1), for a sorted sequence of
    floats grid; s is a Python float.  Pass a list, or a memoryview of a
    float array, whose items are Python floats, as Trajectory's reads and
    euler_interpolant do: bisect reads an array's items as NumPy scalars,
    and a list copy of an array costs 32 bytes per item.  t is clamped
    onto the grid from within 1e-12; further out, or NaN, it raises
    InputError."""
    first, last = float(grid[0]), float(grid[-1])
    if not first - 1e-12 <= t <= last + 1e-12:
        raise InputError(f"time {t} outside [{first}, {last}]")
    t = min(max(float(t), first), last)
    k = bisect_right(grid, t) - 1
    if k >= len(grid) - 1:
        return len(grid) - 2, 1.0
    a = float(grid[k])
    return k, (t - a) / (float(grid[k + 1]) - a)


def iterate_Vn(op, N):
    """Orbit V_0 = 0, V_n = J(V_{n-1}), plus normalized v_n = V_n / n.

    Returns (orbit, vn) where vn[k] = V_{k+1} / (k+1) for k = 0 .. N-1.
    """
    N = convert(count(1), N, "N")
    orbit = _step_orbit(op, np.zeros(op.dim), StepSequence.constant(1.0, N),
                        lambda _, x: op.map(x))
    return orbit, orbit.points[1:] / np.arange(1, N + 1, dtype=float)[:, None]


@dataclass
class VLambdaResult:
    v: np.ndarray          # normalized discounted value v_lam
    V: np.ndarray          # unnormalized V_lam = v_lam / lam
    iterations: int
    certified_error: float


def _policy_step(w, t, M, kappa):
    """Fixed point of the linear model w' -> t + kappa M (w' - w) of T at w,
    or None when the system is singular or its solution is not finite."""
    try:
        y = np.linalg.solve(np.eye(w.size) - kappa * M, t - kappa * (M @ w))
    except np.linalg.LinAlgError:
        return None
    return y if np.isfinite(y).all() else None


@np.errstate(over="ignore", invalid="ignore")  # linearize checks x and its games instead
def solve_vlambda(op, lam, tol=VLAMBDA_TOL, full=False):
    """Fixed point v_lam of Phi(lam, .) with certified error <= tol.

    With gamma = (1 - lam)/lam, T(w) = Phi(lam, w) = lam J(gamma w) is a
    kappa-contraction, kappa = lam gamma = 1 - lam, so one evaluation
    certifies any point: ||T(w) - v_lam|| <= kappa/(1-kappa) ||T(w) - w||.
    Starting from w = 0, each iteration makes one ``op.linearize`` call at
    x = gamma w, which gives T(w) and the model M of J at x.  The next
    candidate is the fixed point of T with M frozen (a policy, or Newton,
    step; Pollatschek & Avi-Itzhak 1969).  Unguarded, those steps can cycle
    (van der Wal 1978), so a candidate is kept only if it certifies or its
    residual is at most kappa times that of the point it came from, which is
    what the plain step w' = T(w) guarantees; otherwise, and whenever M is
    None, the plain step is taken.  The result is T(w) for the first w whose
    certificate is within tol; ``iterations`` counts ``op.linearize`` calls.
    The first is at x = 0 for every lambda, so a Shapley operator solves that
    model once and serves it to each later solve on it.
    Returns the vector, or the full result when full=True.
    """
    lam, tol = convert(real, lam, "lambda"), convert(positive, tol, "tol")
    if not 0.0 < lam <= 1.0:
        raise InputError(f"lambda must lie in (0, 1], got {lam}")
    gamma = (1.0 - lam) / lam
    kappa = lam * gamma
    factor = kappa / (1.0 - kappa)

    def evaluate(w):
        Jx, M = op.linearize(gamma * w)
        t = lam * Jx
        return t, M, op.norm(t - w)

    w = np.zeros(op.dim)
    t, M, r = evaluate(w)
    k, err = 1, factor * r
    while not err <= tol:
        if k >= VLAMBDA_MAX_ITER:
            raise ResourceError(
                f"v_lambda at lambda={lam}: iteration cap {VLAMBDA_MAX_ITER} hit "
                f"(certified error {err:.3g} > tol {tol:.3g})"
            )
        y = None if M is None else _policy_step(w, t, M, kappa)
        if y is None:
            w, (t, M, r) = t, evaluate(t)
        else:
            ty, My, ry = evaluate(y)
            if ry <= kappa * r or factor * ry <= tol:
                w, t, M, r = y, ty, My, ry
            else:
                M = None  # rejected: the next step from w is the plain one
        k += 1
        err = factor * r
    result = VLambdaResult(t, t / lam, k, err)
    return result if full else result.v


def euler_scheme(op, x0, steps):
    """Explicit Euler orbit x_n = (1 - lam_n) x_{n-1} + lam_n J(x_{n-1})."""
    return _step_orbit(op, x0, steps,
                       lambda lam, x: x - lam * apply_A(op, x, checked=False))


def euler_interpolant(orbit, t):
    """Piecewise-linear interpolation of an Euler orbit in sigma-time, at a real t."""
    k, s = locate(memoryview(orbit.steps.sigma), convert(real, t, "t"))
    return (1.0 - s) * orbit.points[k] + s * orbit.points[k + 1]


def phi_recursion(op, lambda_seq):
    """Orbit of w_n = Phi(lam_n, w_{n-1}) from w_0 = 0."""
    return _step_orbit(op, np.zeros(op.dim), lambda_seq,
                       lambda lam, x: apply_Phi(op, lam, x, checked=False))


def kobayashi_rhs(op, x0, xhat0, steps1, steps2):
    """Right-hand sides of the two-scheme distance bound, taken at z = x0,
    for every k <= len(steps1) and l <= len(steps2): the grid whose (k, l)
    entry is

    ||xhat0 - x0|| + ||A(x0)|| sqrt((sigma_k - sigma_l)^2 + tau_k + tau_l).
    """
    x0 = as_vec(x0, op.dim)
    xhat0 = as_vec(xhat0, op.dim)
    steps1, steps2 = _step_sequence(steps1), _step_sequence(steps2)
    # in place: the grid is the one array of its size that is made
    grid = steps1.sigma[:, None] - steps2.sigma[None, :]
    grid *= grid
    grid += steps1.tau[:, None]
    grid += steps2.tau[None, :]
    np.sqrt(grid, out=grid)
    grid *= op.norm(apply_A(op, x0))
    grid += op.norm(xhat0 - x0)
    return grid
