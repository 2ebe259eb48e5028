"""Finite zero-sum stochastic games and their one-stage value operator.

The one-stage operator maps a state-value vector f to

    J(f)(w) = val [ g(i, j, w) + sum_w' f(w') rho(w' | i, j, w) ]

where val is the minimax value of the auxiliary matrix game.  A 2x2 game is
solved in closed form (pure saddle or Shapley-Snow kernel formula).  Every
other shape is solved on a support: the equalizing system on a k x k block,
k <= 3, in closed form, accepted only under strict complementarity by a
margin, which makes the block the game's only optimal support.  The block
tried first is a guess, the support the same state's last solve accepted;
failing that, a dense simplex on the classical LP, rescaled to entries in
[1, 2], in floats and, if that fails, in exact rationals, names the block,
and its own solution is returned when no block is accepted.  An accepted
guess is the block the simplex would have named, so the result, and J, do
not depend on the guess or on the order of calls.  All paths end in one
primal-dual gap certificate, whose tolerance scales with the largest entry
of the game.  A kernel-enumeration oracle is kept for cross-checking.

A validated game groups its states by action shape (m, n) and stores one
stacked payoff (k, m, n) and one stacked transition (k, m, n, S) per group;
the per-state arrays are views into them, and all of them are read-only.
``ShapleyOperator.map``, which ``Operator.J`` calls once it has validated f,
assembles every stage game of a group with one stacked product P + R @ f; a
2x2 group is solved on Python floats by the closed form, every other shape
one state at a time, with the state's guess that the operator keeps.
``ShapleyOperator.linearize`` solves the same games and also returns, from
their optimal strategies, the frozen-strategy transition matrix: the linear
model behind the policy steps of the v_lambda solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite
from operator import itemgetter, mul

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
        # the validated arrays replace the entries of copies, not of the caller's lists
        self.payoff, self.transition = list(self.payoff), list(self.transition)
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
    """A certified solution; ``support`` is the (rows, cols) pair of index
    tuples of the kernel it was solved on, or None for a simplex or 2x2
    closed-form result."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    support: tuple | None = None


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


def _clamp_pair(x, y):
    """``_clamp_simplex([x, y])`` bit for bit, without a list when both
    entries are positive: they are divided by x + y, which equals
    sum([x, y]); any other pair, NaN included, takes ``_clamp_simplex``."""
    if x > 0.0 and y > 0.0:
        total = x + y
        return x / total, y / total
    return _clamp_simplex([x, y])


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


def _solve_2x2(a, b, c, d):
    """Closed-form solution (value, p, q) of the game [[a, b], [c, d]].

    Shapley & Snow 1950: a pure saddle exists iff the pure maximin equals
    the pure minimax (compared exactly); otherwise both players mix on the
    whole kernel with the equalizing strategies.  Floats in, floats and
    tuples out, for ``ShapleyOperator.map``'s hot loop; ``y if y < x else x`` is
    ``min(x, y)`` bit for bit (ties, 0.0 against -0.0), without the call.
    """
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise InputError("matrix has non-finite entries")
    row1_min = b if b < a else a
    row2_min = d if d < c else c
    col1_max = c if c > a else a
    col2_max = d if d > b else b
    maximin = row2_min if row2_min > row1_min else row1_min
    if maximin == (col2_max if col2_max < col1_max else col1_max):
        p1, p2 = (1.0, 0.0) if row1_min == maximin else (0.0, 1.0)
        q1, q2 = (1.0, 0.0) if col1_max == maximin else (0.0, 1.0)
        value = maximin
    else:
        # Without a saddle, a - b and d - c are nonzero with one sign, so den
        # cannot cancel.  The value (ad - bc) / den is written through
        # differences, which keeps it accurate to rounding when the entries
        # sit far from zero (ad - bc loses every digit at entries near 1e9).
        den = (a - b) + (d - c)
        p1, p2 = _clamp_pair((d - c) / den, (a - b) / den)
        q1, q2 = _clamp_pair((d - b) / den, (a - c) / den)
        value = a - (a - b) * (a - c) / den
    lo1, lo2 = p1 * a + p2 * c, p1 * b + p2 * d
    hi1, hi2 = a * q1 + b * q2, c * q1 + d * q2
    _check_gap(lo2 if lo2 < lo1 else lo1, hi2 if hi2 > hi1 else hi1,
               ((a, b), (c, d)))
    return value, (p1, p2), (q1, q2)


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
    """Normalize the simplex's strategies and certify them on the game rows.

    Returns (value, p, q, lo, hi): lo holds the payoff of p against each
    column, hi that of each row against q.
    """
    p, q = _clamp_simplex(p), _clamp_simplex(q)
    lo = [sum(map(mul, p, col)) for col in zip(*rows)]
    hi = [sum(map(mul, row, q)) for row in rows]
    maximin, minimax = min(lo), max(hi)
    _check_gap(maximin, minimax, rows)
    # The tableau's value carries the rounding of every pivot, which a tiny
    # pivot on a nearly degenerate game amplifies; the certified bracket
    # [maximin, minimax] does not.
    return min(max(value, maximin), minimax), p, q, lo, hi


def _kernel(rows, support, margin):
    """The Shapley-Snow solution of the game ``rows`` on ``support``, or None
    unless it is accepted.

    support = (I, J), two increasing index tuples, names a k x k block B
    with k <= 3.  With A = B - c, c = B[0][0], the equalizing strategies are
    p ∝ 1'adj(A) and q ∝ adj(A)1, and the value is c + det(A) / 1'adj(A)1
    (Shapley & Snow 1950); the shift leaves p and q as they are and keeps
    the digits of entries far from zero, as ``_solve_2x2`` does.  The result
    is accepted only under strict complementarity by margin: every weight
    of p and q times the spread of A's entries exceeds margin, so no action
    of the block could be dropped within the certificate's tolerance; the
    best replies within margin of the value are exactly the block's rows
    and columns; and the gap certificate holds on the whole game.  A block
    that passes is the game's only optimal support.  The value is clamped
    into [maximin, minimax], as in ``_certify``.
    """
    I, J = support
    k = len(I)
    if k != len(J) or not 0 < k <= 3:
        return None
    block = [rows[i] for i in I]
    if k == 1:
        # a strict saddle: p and q are pure, so the payoffs are row i and column j
        (j,) = J
        value = block[0][j]
        p = q = (1.0,)
        lo, hi = block[0], [row[j] for row in rows]
    else:
        pick = itemgetter(*J)
        # P and Q are the row and column sums of the cofactors of A, whose
        # top left entry is 0; det(A) is expanded along its first row
        if k == 2:
            (c, b), (d, e) = map(pick, block)
            b, d, e = b - c, d - c, e - c
            spread = max(0.0, b, d, e) - min(0.0, b, d, e)
            P, Q, det = (e - d, -b), (e - b, -d), -b * d
        else:
            (c, a01, a02), (a10, a11, a12), (a20, a21, a22) = map(pick, block)
            A = a01, a02, a10, a11, a12, a20, a21, a22 = (
                a01 - c, a02 - c, a10 - c, a11 - c, a12 - c, a20 - c, a21 - c, a22 - c)
            spread = max(0.0, *A) - min(0.0, *A)
            c00, c01, c02 = a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20
            c10, c11, c12 = a02 * a21 - a01 * a22, -a02 * a20, a01 * a20
            c20, c21, c22 = a01 * a12 - a02 * a11, a02 * a10, -a01 * a10
            P = (c00 + c01 + c02, c10 + c11 + c12, c20 + c21 + c22)
            Q = (c00 + c10 + c20, c01 + c11 + c21, c02 + c12 + c22)
            det = a01 * c01 + a02 * c02
        sp, sq = sum(P), sum(Q)
        if sp == 0.0 or sq == 0.0:
            return None
        p, q = [x / sp for x in P], [x / sq for x in Q]
        # every action must move the payoffs by more than the margin; NaN,
        # from a product that overflows, fails this test too
        if not min(p + q) * spread > margin:
            return None
        value = c + det / sp
        lo = [sum(map(mul, p, col)) for col in zip(*block)]
        hi = [sum(map(mul, q, pick(row))) for row in rows]
    if (tuple([j for j, x in enumerate(lo) if x <= value + margin]) != J
            or tuple([i for i, x in enumerate(hi) if x >= value - margin]) != I):
        return None
    maximin, minimax = min(lo), max(hi)
    try:
        _check_gap(maximin, minimax, rows)
    except ResourceError:
        return None
    row, col = [0.0] * len(rows), [0.0] * len(rows[0])
    for i, x in zip(I, p):
        row[i] = x
    for j, x in zip(J, q):
        col[j] = x
    value = min(max(value, maximin), minimax)
    return MatrixGameSolution(value, np.array(row), np.array(col), support)


def matrix_game_value(M, support=None):
    """Minimax value and optimal mixed strategies of the matrix game M.

    A 2x2 game is solved in closed form by ``_solve_2x2``.  Every other
    shape is solved on a support: ``_kernel`` solves the equalizing system
    on a k x k block (k <= 3) in closed form and accepts the result only
    under strict complementarity with margin LP_GAP_TOL * max(1, max|M|),
    which makes the block the game's only optimal support.  The given
    support, a guess such as the one an earlier solve of a nearby game
    accepted, is tried first.  Otherwise ``_simplex`` runs, in floats and,
    only when that raises ResourceError, again on the exact rationals of the
    entries, rounded to float.  Its certified strategies are read as a
    support twice, as the actions they play and as the best replies to them
    within half the margin, and the kernel solution on either is returned
    when it is accepted, the simplex's otherwise.

    The result does not depend on the guess, bit for bit: the kernel's
    output is a function of (M, block) alone, at most one block is
    accepted, and that block is what both readings of any strategies near
    the optimal ones name, so the simplex would have named the block a
    guess is accepted on.  A game without a strictly complementary block of
    size 3 or less (ties, degeneracy, a 4x4 mix) gets the simplex's
    solution, warm or cold.  Every path returns only strategies whose
    primal-dual gap is within LP_GAP_TOL * max(1, max|M|); ``support`` of
    the result is the accepted block, or None.

    Raises InputError for a matrix that is not 2-d, empty or not finite, and
    ResourceError only when the exact pass also fails the certificate.
    """
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise InputError("matrix must be 2-d and nonempty")
    rows = arr.tolist()
    if arr.shape == (2, 2):
        value, p, q = _solve_2x2(*rows[0], *rows[1])
        return MatrixGameSolution(value, np.array(p), np.array(q))
    entries = arr.ravel().tolist()
    if not all(map(isfinite, entries)):
        raise InputError("matrix has non-finite entries")
    margin = LP_GAP_TOL * max(1.0, max(entries), -min(entries))
    if support is not None:
        sol = _kernel(rows, support, margin)
        if sol is not None:
            return sol
    try:
        value, p, q, lo, hi = _certify(rows, *_simplex(rows, 1e-12, 1e-15))
    except ResourceError:
        value, p, q, lo, hi = _certify(rows, *_exact_simplex(rows))
    # two readings of the support the simplex found: the actions its
    # strategies play, and the best replies to them within half the margin
    played = (tuple(i for i, x in enumerate(p) if x > 0.0),
              tuple(j for j, x in enumerate(q) if x > 0.0))
    maximin, minimax = min(lo), max(hi)
    best = (tuple(i for i, x in enumerate(hi) if x >= minimax - margin / 2),
            tuple(j for j, x in enumerate(lo) if x <= maximin + margin / 2))
    sol = _kernel(rows, played, margin)
    if sol is None and best != played:
        sol = _kernel(rows, best, margin)
    if sol is not None:
        return sol
    return MatrixGameSolution(value, np.array(p), np.array(q))


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


def random_game(num_states, m, n, payoff_range=(-1.0, 1.0), seed=0):
    """Seeded random game: payoffs uniform on payoff_range = (lo, hi), which
    must be finite with lo <= hi, and normalized-uniform transitions."""
    if num_states < 1 or m < 1 or n < 1:
        raise InputError("sizes must be positive")
    lo, hi = payoff_range
    if not (lo <= hi and isfinite(hi - lo)):
        raise InputError(f"payoff_range needs finite lo <= hi, got [{lo}, {hi}]")
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
        #: per state, the support its last non-2x2 solve accepted: a guess
        #: that makes the next solve cheaper and never changes its result
        self.supports = [None] * game.num_states

    def map(self, x):
        """One application of the game's value operator to x.

        Each action-shape group assembles all its stage games with one
        stacked product; a 2x2 group is flattened once to floats for
        ``_solve_2x2``, and other games are solved by ``matrix_game_value``
        with their state's support guess, which the solve replaces by the
        support it accepted.  The guesses change the cost, never the result.
        """
        supports = self.supports
        out = np.empty(self.dim)
        for states, P, R in self.game.shape_groups:
            B = P + R @ x
            if B.shape[1:] == (2, 2):
                entries = iter(B.ravel().tolist())
                for s, a, b, c, d in zip(states, entries, entries, entries, entries):
                    out[s] = _solve_2x2(a, b, c, d)[0]
            else:
                for s, Bs in zip(states, B):
                    sol = matrix_game_value(Bs, supports[s])
                    out[s] = sol.value
                    supports[s] = sol.support
        return out

    def linearize(self, x):
        """J(x) and the frozen-strategy matrix M of the game at x.

        Row s of M is the transition row p_s' rho_s q_s under the optimal
        strategies (p_s, q_s) of state s's stage game at x, so M is
        row-stochastic and y -> J(x) + M (y - x) is the operator with both
        players' strategies frozen.  The stage games are assembled as in
        ``map`` and solved by ``matrix_game_value``, which also returns the
        strategies; the support guesses are read and updated as there.
        """
        x = as_vec(x, self.dim)
        supports = self.supports
        out = np.empty(self.dim)
        M = np.empty((self.dim, self.dim))
        for states, P, R in self.game.shape_groups:
            sols = [matrix_game_value(B, supports[s]) for s, B in zip(states, P + R @ x)]
            rows = list(states)
            for s, sol in zip(states, sols):
                supports[s] = sol.support
            out[rows] = [sol.value for sol in sols]
            p = np.array([sol.row_strategy for sol in sols])
            q = np.array([sol.col_strategy for sol in sols])
            M[rows] = np.einsum("ki,kijs,kj->ks", p, R, q)
        return out, M

    def h_constant(self):
        """Largest absolute one-stage payoff, the Lipschitz constant in (H)."""
        return max(float(np.max(np.abs(g))) for g in self.game.payoff)

    def describe(self):
        return f"Shapley({self.dim} states)"
