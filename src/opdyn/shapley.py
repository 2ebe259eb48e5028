"""Finite zero-sum stochastic games and their one-stage value operator.

The one-stage operator maps a state-value vector f to

    J(f)(w) = val [ g(i, j, w) + sum_w' f(w') rho(w' | i, j, w) ]

where val is the minimax value of the auxiliary matrix game.  A 2x2 game is
solved in closed form (pure saddle or Shapley-Snow kernel formula); every
other shape by a dense simplex on the classical LP, rescaled to entries in
[1, 2], in floats and, if that fails, in exact rationals.  All paths end in
one primal-dual gap certificate, whose tolerance scales with the largest
entry of the game.  A kernel-enumeration oracle is kept for cross-checking.

A validated game groups its states by action shape (m, n) and stores one
stacked payoff (k, m, n) and one stacked transition (k, m, n, S) per group;
the per-state arrays are views into them, and all of them are read-only.  One
J evaluation validates f once, assembles every stage game of a group with one
stacked product P + R @ f, and solves each state's game by itself.
``shapley_linearize`` solves the same games and also returns, from their
optimal strategies, the frozen-strategy transition matrix: the linear model
behind the policy steps of the v_lambda solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite
from operator import mul

import numpy as np

from .core import SUP, Operator, as_vec
from .errors import InputError, ResourceError, SchemaError

#: transition rows must sum to 1 within this at ingest
ROW_SUM_TOL = 1e-9
#: primal-dual gap contract for the matrix-game solver
LP_GAP_TOL = 1e-9
#: LP slack: strategy entries in [-1e-12, 0) are clamped to zero
STRATEGY_CLAMP = 1e-12


@dataclass
class StochasticGame:
    """Finite zero-sum stochastic game.

    payoff[s] is an (m_s, n_s) matrix; transition[s] is (m_s, n_s, S) with
    row-stochastic last axis.  After validation both are read-only views into
    ``shape_groups``: one (states, payoff stack, transition stack) triple per
    action shape, states in increasing order.
    """

    states: list
    actions: list
    payoff: list
    transition: list

    def __post_init__(self):
        if len(self.states) < 1:
            raise SchemaError("at least one state required", "states")
        S = len(self.states)
        for field in ("actions", "payoff", "transition"):
            if len(getattr(self, field)) != S:
                raise SchemaError(f"expected {S} entries", field)
        for s in range(S):
            m, n = self.actions[s]
            if m < 1 or n < 1:
                raise SchemaError("action counts must be positive", f"actions[{s}]")
            g = np.asarray(self.payoff[s], dtype=float)
            if g.shape != (m, n):
                raise SchemaError(
                    f"expected shape {(m, n)}, got {g.shape}", f"payoff[{s}]"
                )
            if not np.all(np.isfinite(g)):
                raise SchemaError("non-finite payoff entry", f"payoff[{s}]")
            rho = np.asarray(self.transition[s], dtype=float)
            if rho.shape != (m, n, S):
                raise SchemaError(
                    f"expected shape {(m, n, S)}, got {rho.shape}",
                    f"transition[{s}]",
                )
            if np.any(rho < 0.0) or np.any(rho > 1.0):
                raise SchemaError(
                    "probability outside [0, 1]", f"transition[{s}]"
                )
            sums = rho.sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
                worst = float(np.max(np.abs(sums - 1.0)))
                raise SchemaError(
                    f"row sums off by {worst:.3g}", f"transition[{s}]"
                )
            # renormalize to sum exactly 1 once within tolerance
            rho = rho / sums[..., None]
            self.payoff[s] = g
            self.transition[s] = rho
        by_shape = {}
        for s in range(S):
            by_shape.setdefault(self.payoff[s].shape, []).append(s)
        groups = []
        for states in by_shape.values():
            P = np.stack([self.payoff[s] for s in states])
            R = np.stack([self.transition[s] for s in states])
            P.flags.writeable = False
            R.flags.writeable = False
            for i, s in enumerate(states):
                self.payoff[s] = P[i]
                self.transition[s] = R[i]
            groups.append((tuple(states), P, R))
        self.shape_groups = tuple(groups)

    @property
    def num_states(self):
        return len(self.states)

    def to_dict(self):
        return {
            "states": list(self.states),
            "actions": [[int(m), int(n)] for m, n in self.actions],
            "payoff": [g.tolist() for g in self.payoff],
            "transition": [rho.tolist() for rho in self.transition],
        }


def load_game(source):
    """Parse a game document (JSON text, dict, or path to a file)."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SchemaError(f"cannot read game file: {exc}", str(source))
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "document")
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object", "document")
    for key in ("states", "actions", "payoff", "transition"):
        if key not in doc:
            raise SchemaError("missing field", key)
    try:
        return StochasticGame(
            states=list(doc["states"]),
            actions=[tuple(a) for a in doc["actions"]],
            payoff=[np.asarray(g, dtype=float) for g in doc["payoff"]],
            transition=[np.asarray(r, dtype=float) for r in doc["transition"]],
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc), "document")


@dataclass
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _clamp_simplex(p):
    """Normalize a computed strategy vector, tolerating tiny negative slack.

    Entries in [-STRATEGY_CLAMP, 0] and NaN entries become 0 before the
    division by the sum; a vector of positive entries is divided as it is.
    """
    lo = min(p)
    if lo < -STRATEGY_CLAMP:
        raise ResourceError("strategy entry below clamp tolerance")
    total = sum(p)
    # a NaN entry makes the sum NaN, so it takes the clamping branch too
    if not (lo > 0.0 and total > 0.0):
        p = [x if x > 0.0 else 0.0 for x in p]
        total = sum(p)
        if total <= 0.0:
            raise ResourceError("strategy sums to zero")
    return [x / total for x in p]


def _check_gap(maximin, minimax, rows):
    """The certificate of every solver path.

    The row strategy guarantees at least maximin against every column and
    the column strategy at most minimax against every row, so the true value
    lies between them.  Exact strategies still leave a gap of the rounding
    of p.B, about eps * max|B|, so the gap is held to
    LP_GAP_TOL * max(1, max|B|); the scale is only computed when the gap
    exceeds LP_GAP_TOL.  Comparisons are written as ``gap <= tol`` so a NaN
    gap fails too.
    """
    gap = minimax - maximin
    if gap <= LP_GAP_TOL:
        return
    tol = LP_GAP_TOL * max(1.0, max(abs(x) for row in rows for x in row))
    if not gap <= tol:
        raise ResourceError(f"matrix-game solver gap {gap:.3g} exceeds {tol:.3g}")


def _solve_2x2(rows):
    """Closed-form solution of a 2x2 game (Shapley & Snow 1950).

    A pure saddle exists iff the pure maximin equals the pure minimax
    (compared exactly); otherwise both players mix on the whole 2x2 kernel
    with the equalizing strategies.  Scalar arithmetic throughout: this is
    the hot path of every Shapley operator with 2x2 stage games.
    """
    (a, b), (c, d) = rows
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise InputError("matrix has non-finite entries")
    row1_min = min(a, b)
    col1_max = max(a, c)
    maximin = max(row1_min, min(c, d))
    if maximin == min(col1_max, max(b, d)):
        p = [1.0, 0.0] if row1_min == maximin else [0.0, 1.0]
        q = [1.0, 0.0] if col1_max == maximin else [0.0, 1.0]
        value = maximin
    else:
        # Without a saddle, a - b and d - c are nonzero with one sign, so den
        # cannot cancel.  The value (ad - bc) / den is written through
        # differences, which keeps it accurate to rounding when the entries
        # sit far from zero (ad - bc loses every digit at entries near 1e9).
        den = (a - b) + (d - c)
        p = _clamp_simplex([(d - c) / den, (a - b) / den])
        q = _clamp_simplex([(d - b) / den, (a - c) / den])
        value = a - (a - b) * (a - c) / den
    (p1, p2), (q1, q2) = p, q
    _check_gap(
        min(p1 * a + p2 * c, p1 * b + p2 * d),
        max(a * q1 + b * q2, c * q1 + d * q2),
        rows,
    )
    return MatrixGameSolution(value, np.array(p), np.array(q))


def _simplex(rows, piv_tol, tie_tol):
    """Bland's-rule simplex on the rescaled LP of the matrix game ``rows``.

    With A = (M - lo) / w + 1, whose entries lie in [1, 2] (lo = min M,
    w = max M - lo, or 1 for a constant M), maximize 1'z subject to
    A z <= 1, z >= 0; then val(M) = (1/(1'z) - 1) w + lo, the column
    strategy is z / (1'z), and the dual variables under the slack columns
    give the row strategy; all three are returned.  The rescaling makes the
    pivot and tie thresholds independent of the magnitude of M.  On Fraction
    entries, with both thresholds 0, the same body is exact; zero and one
    come from the entries, so Fractions never meet a float.  The tableau is
    plain lists: the matrices are tiny and array overhead would dominate.
    """
    m, n = len(rows), len(rows[0])
    lo = min(map(min, rows))
    zero = lo - lo
    one = zero + 1
    w = max(map(max, rows)) - lo
    if not w > zero:
        w = one
    # tableau: [A | I | 1] over the objective row [-1 | 0 | 0]
    width = n + m + 1
    T = [[zero] * width for _ in range(m + 1)]
    for i, ri in enumerate(rows):
        Ti = T[i]
        for j in range(n):
            Ti[j] = (ri[j] - lo) / w + one
        Ti[n + i] = Ti[-1] = one
    obj = T[m]
    obj[:n] = [-one] * n
    basis = list(range(n, n + m))
    neg_tol = -piv_tol
    for _ in range(200 * (m + n)):
        # Bland's rule: first improving column, smallest basis index on ties
        j = -1
        for jj in range(width - 1):
            if obj[jj] < neg_tol:
                j = jj
                break
        if j < 0:
            break
        i = -1
        best = zero
        for ii in range(m):
            a = T[ii][j]
            if a > piv_tol:
                r = T[ii][-1] / a
                if i < 0 or r < best - tie_tol or (
                    r <= best + tie_tol and basis[ii] < basis[i]
                ):
                    best, i = r, ii
        if i < 0:
            raise ResourceError("unbounded matrix-game LP (internal)")
        Ti = T[i]
        piv = Ti[j]
        for jj in range(width):
            Ti[jj] /= piv
        for ii in range(m + 1):
            if ii == i:
                continue
            Tii = T[ii]
            f = Tii[j]
            if f != zero:
                for jj in range(width):
                    Tii[jj] -= f * Ti[jj]
        basis[i] = j
    else:
        raise ResourceError("simplex failed to converge (internal)")
    total = obj[-1]
    value = (one / total - one) * w + lo
    z = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            z[b] = T[i][-1]
    return value, [obj[n + k] / total for k in range(m)], [x / total for x in z]


def _exact_simplex(rows):
    """``_simplex`` on the exact rationals of the float rows, rounded to float."""
    value, p, q = _simplex([[Fraction(x) for x in row] for row in rows], 0, 0)
    return float(value), [float(x) for x in p], [float(x) for x in q]


def _certify(rows, value, p, q):
    """Normalize the simplex's strategies and certify them on the game rows."""
    p, q = _clamp_simplex(p), _clamp_simplex(q)
    maximin = min(sum(map(mul, p, col)) for col in zip(*rows))
    minimax = max(sum(map(mul, row, q)) for row in rows)
    _check_gap(maximin, minimax, rows)
    # The tableau's value carries the rounding of every pivot, which a tiny
    # pivot on a nearly degenerate game amplifies; the certified bracket
    # [maximin, minimax] does not.
    value = min(max(value, maximin), minimax)
    return MatrixGameSolution(value, np.array(p), np.array(q))


def matrix_game_value(M):
    """Minimax value and optimal mixed strategies of the matrix game M.

    A 2x2 game is solved in closed form by ``_solve_2x2``, every other shape
    by ``_simplex`` in floats and, only when that raises ResourceError, again
    on the exact rationals of the entries, rounded to float and certified in
    turn.  Every path returns only strategies whose primal-dual gap is within
    LP_GAP_TOL * max(1, max|M|).

    Raises InputError for a matrix that is not 2-d, empty or not finite, and
    ResourceError only when the exact pass also fails the certificate.
    """
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise InputError("matrix must be 2-d and nonempty")
    rows = arr.tolist()
    if arr.shape == (2, 2):
        return _solve_2x2(rows)
    if not all(isfinite(x) for row in rows for x in row):
        raise InputError("matrix has non-finite entries")
    try:
        return _certify(rows, *_simplex(rows, 1e-12, 1e-15))
    except ResourceError:
        return _certify(rows, *_exact_simplex(rows))


def _support_pairs(m, n):
    """All equal-size index subsets (rows, cols), smallest first."""
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                yield rows, cols


def matrix_game_value_oracle(M):
    """Independent brute-force value of a small matrix game.

    Vertex (kernel) enumeration: every matrix game has a square submatrix on
    which both players mix with equalizing strategies; each candidate kernel
    is solved by a dense linear system and kept only if the extended
    strategies are nonnegative and guarantee the value against every pure
    reply.  Pure saddles are the 1x1 kernels.  If degeneracy defeats the
    enumeration, the exact rational simplex's value is returned; that
    fallback shares its code with ``matrix_game_value``, so it is no
    independent check.  Raises InputError like ``matrix_game_value``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise InputError("matrix must be 2-d and nonempty")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix has non-finite entries")
    m, n = M.shape
    tol = 1e-9 * max(1.0, float(np.max(np.abs(M))))
    for rows, cols in _support_pairs(m, n):
        k = len(rows)
        B = M[np.ix_(rows, cols)]
        # [B' -1; 1' 0] [p; v] = [0; 1] gives p'B = v 1', sum p = 1;
        # the transposed system gives q.
        lhs = np.zeros((k + 1, k + 1))
        lhs[:k, :k] = B.T
        lhs[:k, k] = -1.0
        lhs[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol_p = np.linalg.solve(lhs, rhs)
            lhs_q = lhs.copy()
            lhs_q[:k, :k] = B
            sol_q = np.linalg.solve(lhs_q, rhs)
        except np.linalg.LinAlgError:
            continue
        p_sub, v = sol_p[:k], float(sol_p[k])
        q_sub, vq = sol_q[:k], float(sol_q[k])
        if abs(v - vq) > tol:
            continue
        if np.any(p_sub < -tol) or np.any(q_sub < -tol):
            continue
        p = np.zeros(m)
        p[list(rows)] = np.maximum(p_sub, 0.0)
        q = np.zeros(n)
        q[list(cols)] = np.maximum(q_sub, 0.0)
        if float(np.min(p @ M)) >= v - tol and float(np.max(M @ q)) <= v + tol:
            return v
    return _exact_simplex(M.tolist())[0]


def shapley_apply(game, f):
    """One application of the game's value operator to a state-value vector.

    f is validated once; each action-shape group assembles all its stage
    games with one stacked product, and each state's game is solved alone.
    """
    f = as_vec(f, game.num_states)
    out = np.empty(game.num_states)
    for states, P, R in game.shape_groups:
        for s, B in zip(states, P + R @ f):
            out[s] = matrix_game_value(B).value
    return out


def shapley_linearize(game, f):
    """J(f) and the frozen-strategy matrix M of the game at f.

    Row s of M is the transition row p_s' rho_s q_s under the optimal
    strategies (p_s, q_s) of state s's stage game at f, so M is row-stochastic
    and y -> J(f) + M (y - f) is the operator with both players' strategies
    frozen.  The stage games are assembled and solved as in shapley_apply,
    whose loop stays separate because it is the hot path of every J.
    """
    f = as_vec(f, game.num_states)
    S = game.num_states
    out = np.empty(S)
    M = np.empty((S, S))
    for states, P, R in game.shape_groups:
        sols = [matrix_game_value(B) for B in P + R @ f]
        rows = list(states)
        out[rows] = [sol.value for sol in sols]
        p = np.array([sol.row_strategy for sol in sols])
        q = np.array([sol.col_strategy for sol in sols])
        M[rows] = np.einsum("ki,kijs,kj->ks", p, R, q)
    return out, M


def random_game(num_states, m, n, payoff_range=(-1.0, 1.0), seed=0):
    """Seeded random game: uniform payoffs, normalized-uniform transitions."""
    if num_states < 1 or m < 1 or n < 1:
        raise InputError("sizes must be positive")
    lo, hi = payoff_range
    rng = np.random.default_rng(seed)
    payoff = [rng.uniform(lo, hi, size=(m, n)) for _ in range(num_states)]
    transition = []
    for _ in range(num_states):
        raw = rng.uniform(size=(m, n, num_states)) + 1e-6
        transition.append(raw / raw.sum(axis=-1, keepdims=True))
    return StochasticGame(
        states=[f"s{i}" for i in range(num_states)],
        actions=[(m, n)] * num_states,
        payoff=payoff,
        transition=transition,
    )


def matching_pennies():
    """One-state 2x2 game with payoff [[1,-1],[-1,1]] and self loops."""
    return StochasticGame(
        states=["s0"],
        actions=[(2, 2)],
        payoff=[np.array([[1.0, -1.0], [-1.0, 1.0]])],
        transition=[np.ones((2, 2, 1))],
    )


class ShapleyOperator(Operator):
    """The game's value operator as a nonexpansive map in the sup norm."""

    def __init__(self, game):
        self.game = game
        self.dim = game.num_states
        self.norm_kind = SUP

    def J(self, x):
        return shapley_apply(self.game, x)

    def linearize(self, x):
        return shapley_linearize(self.game, x)

    def h_constant(self):
        """Largest absolute one-stage payoff, the Lipschitz constant in (H)."""
        return max(float(np.max(np.abs(g))) for g in self.game.payoff)

    def describe(self):
        return f"Shapley({self.dim} states)"
