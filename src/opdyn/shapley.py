"""Finite zero-sum stochastic games and their one-stage value operator.

The one-stage operator maps a state-value vector f to

    J(f)(w) = val [ g(i, j, w) + sum_w' f(w') rho(w' | i, j, w) ]

where val is the minimax value of the auxiliary matrix game.  A 2x2 game is
solved in closed form (pure saddle or Shapley-Snow kernel formula), on its
entries scaled by a power of two where the formula would overflow.  Every
other shape is solved on a support: the equalizing system on a k x k block,
k <= 3, in closed form, accepted only under strict complementarity by a
margin, which makes the block the game's only optimal support.  The block
tried first is a guess, the support the same state's last solve accepted;
failing that, a dense simplex on the classical LP, rescaled to entries in
[1, 2], in floats and, if that fails, in exact rationals, names the block
by the actions its certified strategies play, and its own solution is
returned when no block is accepted.  An accepted guess is the block the
simplex would have named, so the result, and J, do not depend on the guess
or on the order of calls.  All paths end in one
primal-dual gap certificate, whose tolerance LP_GAP_TOL * max(1, max|B|)
scales with the largest magnitude of the game; the margin is that
tolerance.  A kernel-enumeration oracle is kept for cross-checking.

A validated game groups its states by action shape (m, n) and stores one
stacked payoff (k, m, n) and one stacked transition (k, m, n, S) per group;
the per-state arrays are views into them, and all of them are read-only.
``ShapleyOperator.map``, which ``Operator.J`` calls once it has validated f,
assembles every stage game of a group with one stacked product P + R @ f,
validates the group once and solves each game on Python floats, with the
state's guess that the operator keeps.  For any shape but 2x2 one
reduction over the stack reads every game's max|B|, and the finite sum of
those scales validates the group.  ``ShapleyOperator.linearize`` also
returns the frozen-strategy transition matrix of the optimal strategies:
the linear model behind the policy steps of the v_lambda solver.  Its model
at 0, where every v_lambda solve starts, is solved once per operator and
kept with the guesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import frexp, isfinite, ldexp
from operator import add, mul

import numpy as np

from .core import SUP, Operator, as_array, as_matrix, as_vec, count, real
from .errors import InputError, ResourceError, SchemaError, convert

#: transition rows must sum to 1 within this at ingest
ROW_SUM_TOL = 1e-9
#: primal-dual gap contract for the matrix-game solver
LP_GAP_TOL = 1e-9
#: LP slack: strategy entries in [-1e-12, 0) are clamped to zero
STRATEGY_CLAMP = 1e-12


@dataclass
class StochasticGame:
    """Finite zero-sum stochastic game.

    Each field is a list or a tuple with one entry per state, as in a game
    file; any other value, such as a str whose letters would read as
    states, is a SchemaError at the field's name.  payoff[s] is an
    (m_s, n_s) matrix; transition[s] is (m_s, n_s, S) with
    row-stochastic last axis.  After validation both are read-only views into
    ``shape_groups``: one (states, payoff stack, transition stack) triple per
    action shape, states in increasing order.  ``dataclasses.replace`` makes
    a new game, so it validates and renormalizes the rows again, which may
    move their last bits.
    """

    states: list
    actions: list
    payoff: list
    transition: list

    def __post_init__(self):
        for field in ("states", "actions", "payoff", "transition"):
            value = getattr(self, field)
            if not isinstance(value, (list, tuple)):
                raise SchemaError(f"must be an array, got {type(value).__name__}", field)
        if len(self.states) < 1:
            raise SchemaError("at least one state required", "states")
        S = len(self.states)
        for field in ("actions", "payoff", "transition"):
            if len(getattr(self, field)) != S:
                raise SchemaError(f"expected {S} entries", field)
        # the validated arrays replace the entries of copies, not of the caller's lists
        self.payoff, self.transition = list(self.payoff), list(self.transition)
        for s in range(S):
            m, n = _schema(_action_counts, self.actions[s], f"actions[{s}]")
            g = _schema(as_array, self.payoff[s], f"payoff[{s}]")
            if g.shape != (m, n):
                raise SchemaError(
                    f"expected shape {(m, n)}, got {g.shape}", f"payoff[{s}]"
                )
            if not np.all(np.isfinite(g)):
                raise SchemaError("non-finite payoff entry", f"payoff[{s}]")
            rho = _schema(as_array, self.transition[s], f"transition[{s}]")
            if rho.shape != (m, n, S):
                raise SchemaError(
                    f"expected shape {(m, n, S)}, got {rho.shape}",
                    f"transition[{s}]",
                )
            if not np.all((rho >= 0.0) & (rho <= 1.0)):  # NaN too
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


def _schema(read, value, location):
    """read(value), a game's entry read by a core reader; the TypeError,
    ValueError or OverflowError it raises is a SchemaError at location."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc), location) from None


def _action_counts(pair):
    """A state's action counts (m, n), each an integer of at least 1."""
    m, n = pair
    return count(1)(m), count(1)(n)


def load_game(source):
    """Parse a game document: a dict, or the path of a JSON file holding one
    (any path, one that starts with "{" too)."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(str(source), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read game file: {exc}", str(source))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "document")
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object", "document")
    fields = ("states", "actions", "payoff", "transition")
    for key in fields:
        if key not in doc:
            raise SchemaError("missing field", key)
    return StochasticGame(*(doc[key] for key in fields))


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
    total = reduce(add, p, 0.0)
    # a NaN entry makes the sum NaN, so it takes the clamping branch too
    if not (lo > 0.0 and total > 0.0):
        p = [x if x > 0.0 else 0.0 for x in p]
        total = reduce(add, p, 0.0)
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


def _check_gap(maximin, minimax, tol):
    """The certificate of every solver path.

    The row strategy guarantees at least maximin against every column and
    the column strategy at most minimax against every row, so the true value
    lies between them.  Exact strategies still leave a gap of the rounding
    of p.B, about eps * max|B|, so the caller holds the gap to
    tol = LP_GAP_TOL * max(1, max|B|), which it works out once per game.
    The comparison is written as ``gap <= tol`` so a NaN gap fails too.
    """
    gap = minimax - maximin
    if not gap <= tol:
        raise ResourceError(f"matrix-game solver gap {gap:.3g} exceeds {tol:.3g}")


def _solve_2x2(a, b, c, d):
    """Closed-form solution (value, p, q) of the game [[a, b], [c, d]].

    Shapley & Snow 1950: a pure saddle exists iff the pure maximin equals
    the pure minimax (compared exactly); otherwise both players mix on the
    whole kernel with the equalizing strategies.  Floats in, floats and
    tuples out, for ``ShapleyOperator.map``'s hot loop; ``y if y < x else x`` is
    ``min(x, y)`` bit for bit (ties, 0.0 against -0.0), without the call.
    The entries must be finite: its callers validate them, once per group.

    Where a difference, den or (a - b)(a - c) overflows (entries above
    about 1e154), the game is solved again on its entries times 2^-e, which
    brings the largest into [1, 2), and the value is scaled back by 2^e.
    Scaling by a power of two is exact short of underflow, and it scales
    the gap tolerance with the game, so the certificate is the same one.
    Only a game that overflows takes that branch; no other changes a bit.
    """
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
        # Each difference is taken once, which pays for the overflow test:
        # den is infinite if a - b or d - c overflowed, and value is not
        # finite if (a - b)(a - c) did.
        ab, ac, dc = a - b, a - c, d - c
        den = ab + dc
        value = a - ab * ac / den
        if not (isfinite(den) and isfinite(value)):
            e = frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] - 1
            value, p, q = _solve_2x2(ldexp(a, -e), ldexp(b, -e), ldexp(c, -e), ldexp(d, -e))
            return ldexp(value, e), p, q
        p1, p2 = _clamp_pair(dc / den, ab / den)
        q1, q2 = _clamp_pair((d - b) / den, ac / den)
    lo1, lo2 = p1 * a + p2 * c, p1 * b + p2 * d
    hi1, hi2 = a * q1 + b * q2, c * q1 + d * q2
    lo, hi = lo2 if lo2 < lo1 else lo1, hi2 if hi2 > hi1 else hi1
    # any tolerance is at least LP_GAP_TOL, so it is only worked out for a
    # larger gap; a NaN gap fails the test and the certificate
    if not hi - lo <= LP_GAP_TOL:
        _check_gap(lo, hi, LP_GAP_TOL * max(1.0, abs(a), abs(b), abs(c), abs(d)))
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


def _certify(rows, value, p, q, tol):
    """Normalize the simplex's strategies and certify them on the game rows
    to the gap tolerance tol; returns (value, p, q).  The payoffs of p
    against each column and of each row against q are summed as in
    ``_kernel``.
    """
    p, q = _clamp_simplex(p), _clamp_simplex(q)
    maximin = min(reduce(add, map(mul, p, col), 0.0) for col in zip(*rows))
    minimax = max(reduce(add, map(mul, row, q), 0.0) for row in rows)
    _check_gap(maximin, minimax, tol)
    # The tableau's value carries the rounding of every pivot, which a tiny
    # pivot on a nearly degenerate game amplifies; the certified bracket
    # [maximin, minimax] does not.
    return min(max(value, maximin), minimax), p, q


def _kernel(rows, support, margin):
    """The Shapley-Snow solution (value, p, q) of the game ``rows`` on
    ``support``, p and q on the block's rows and columns only, or None
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
    into [maximin, minimax], as in ``_certify``.  Each k has its own body
    on Python floats.  Payoffs are summed left to right from 0.0, as ``sum``
    did up to Python 3.11: the bits do not depend on the interpreter.
    """
    I, J = support
    k = len(I)
    if k != len(J):
        return None
    if k == 1:
        # a strict saddle: p and q are pure, so the payoffs are row i and column j
        (i0,), (j0,) = I, J
        value, p, q = rows[i0][j0], (1.0,), (1.0,)
        lo, hi = rows[i0], [row[j0] for row in rows]
    elif k == 2:
        # P and Q are the row and column sums of the cofactors of A, whose
        # top left entry is 0
        (i0, i1), (j0, j1) = I, J
        r0, r1 = rows[i0], rows[i1]
        c = r0[j0]
        b, d, e = r0[j1] - c, r1[j0] - c, r1[j1] - c
        spread = max(0.0, b, d, e) - min(0.0, b, d, e)
        sp, sq = 0.0 + (e - d) + -b, 0.0 + (e - b) + -d
        if sp == 0.0 or sq == 0.0:
            return None
        p = p0, p1 = (e - d) / sp, -b / sp
        q = q0, q1 = (e - b) / sq, -d / sq
        # every action must move the payoffs by more than the margin; NaN,
        # from a product that overflows, fails this test too
        if not min(p0, p1, q0, q1) * spread > margin:
            return None
        value = c + -b * d / sp
        lo = [0.0 + p0 * x + p1 * y for x, y in zip(r0, r1)]
        hi = [0.0 + q0 * row[j0] + q1 * row[j1] for row in rows]
    elif k == 3:
        # as for k = 2; det(A) is expanded along its first row
        (i0, i1, i2), (j0, j1, j2) = I, J
        r0, r1, r2 = rows[i0], rows[i1], rows[i2]
        c = r0[j0]
        A = a01, a02, a10, a11, a12, a20, a21, a22 = (
            r0[j1] - c, r0[j2] - c, r1[j0] - c, r1[j1] - c,
            r1[j2] - c, r2[j0] - c, r2[j1] - c, r2[j2] - c)
        spread = max(0.0, *A) - min(0.0, *A)
        c00, c01, c02 = a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20
        c10, c11, c12 = a02 * a21 - a01 * a22, -a02 * a20, a01 * a20
        c20, c21, c22 = a01 * a12 - a02 * a11, a02 * a10, -a01 * a10
        P0, P1, P2 = c00 + c01 + c02, c10 + c11 + c12, c20 + c21 + c22
        Q0, Q1, Q2 = c00 + c10 + c20, c01 + c11 + c21, c02 + c12 + c22
        sp, sq = 0.0 + P0 + P1 + P2, 0.0 + Q0 + Q1 + Q2
        if sp == 0.0 or sq == 0.0:
            return None
        p = p0, p1, p2 = P0 / sp, P1 / sp, P2 / sp
        q = q0, q1, q2 = Q0 / sq, Q1 / sq, Q2 / sq
        if not min(p0, p1, p2, q0, q1, q2) * spread > margin:
            return None
        value = c + (a01 * c01 + a02 * c02) / sp
        lo = [0.0 + p0 * x + p1 * y + p2 * z for x, y, z in zip(r0, r1, r2)]
        hi = [0.0 + q0 * row[j0] + q1 * row[j1] + q2 * row[j2] for row in rows]
    else:
        return None
    if (tuple([j for j, x in enumerate(lo) if x <= value + margin]) != J
            or tuple([i for i, x in enumerate(hi) if x >= value - margin]) != I):
        return None
    maximin, minimax = min(lo), max(hi)
    try:
        _check_gap(maximin, minimax, margin)
    except ResourceError:
        return None
    return min(max(value, maximin), minimax), p, q


def _solve(rows, support, scale):
    """``matrix_game_value`` after its validation, for any shape but 2x2:
    (value, p, q, support) of the game ``rows``, lists of finite floats
    whose largest magnitude is ``scale``.

    Every game is solved on a support: ``_kernel`` solves the equalizing
    system on a k x k block (k <= 3) and accepts it only under strict
    complementarity with margin LP_GAP_TOL * max(1, scale), the gap
    tolerance, which makes the block the game's only optimal support.  The
    guess ``support`` is tried first (a malformed one, on which ``_kernel``
    raises TypeError, ValueError or IndexError, is read as no guess), then
    the block of the actions that the strategies ``_simplex`` certifies
    play (in floats, or exact rationals when that raises ResourceError).
    When a block is accepted, support is that block and p and q are its
    weights on the block's rows and columns; otherwise support is None and
    p and q are the simplex's strategies, one weight per action.
    """
    margin = LP_GAP_TOL * max(1.0, scale)
    try:
        sol = None if support is None else _kernel(rows, support, margin)
    except (TypeError, ValueError, IndexError):
        sol = None  # a malformed guess is no guess
    if sol is None:
        try:
            value, p, q = _certify(rows, *_simplex(rows, 1e-12, 1e-15), margin)
        except ResourceError:
            value, p, q = _certify(rows, *_exact_simplex(rows), margin)
        support = (tuple(i for i, x in enumerate(p) if x > 0.0),
                   tuple(j for j, x in enumerate(q) if x > 0.0))
        sol = _kernel(rows, support, margin)
        if sol is None:
            return value, p, q, None
    return (*sol, support)


def matrix_game_value(M, support=None):
    """Minimax value and optimal mixed strategies of the matrix game M.

    The validating boundary of the solver: M is checked, a 2x2 game is
    solved by ``_solve_2x2`` and any other by ``_solve`` with the guess
    ``support`` and the scale ``_stage_games`` reads, and the strategies
    are returned as arrays over all actions, a kernel's block weights
    spread with zeros.  The result does not depend on the guess, bit for
    bit, where an accepted block is the one the simplex's certified
    strategies play: the kernel's output is a function of (M, block) alone,
    and at most one block is accepted
    (``test_a_support_guess_never_changes_the_result`` tries every guess on
    seeded games).  A game without a strictly complementary block of size 3
    or less (ties, degeneracy, a 4x4 mix) gets the simplex's solution, warm
    or cold.  Every path's gap is within LP_GAP_TOL * max(1, max|M|).

    Raises InputError for a matrix that as_matrix rejects or that is not
    finite, and ResourceError only when the exact pass also fails.
    """
    arr = convert(as_matrix, M, "M")
    if arr.shape == (2, 2):
        # validated as map validates a 2x2 group; no scale is read
        entries = arr.ravel().tolist()
        if not isfinite(sum(entries)) and not all(map(isfinite, entries)):
            raise InputError("matrix has non-finite entries")
        value, p, q = _solve_2x2(*entries)
        return MatrixGameSolution(value, np.array(p), np.array(q))
    (rows,), (scale,) = _stage_games(arr[None])
    value, p, q, support = _solve(rows, support, scale)
    if support is not None:
        # a kernel's weights are on its block: spread them over all actions
        (I, J), p_block, q_block = support, p, q
        p, q = [0.0] * len(rows), [0.0] * len(rows[0])
        for i, x in zip(I, p_block):
            p[i] = x
        for j, x in zip(J, q_block):
            q[j] = x
    return MatrixGameSolution(value, np.array(p), np.array(q), support)


def _stage_games(B):
    """(games, scales) of a stack B (k, m, n) of games: B.tolist(), and each
    game's largest magnitude max|B| as a float, from one reduction.

    The stack is validated once: a finite sum of the scales, which are
    nonnegative and NaN or inf with any entry, clears every game, and a
    stack that fails it, by overflow too, is read entry by entry for a
    non-finite one, an InputError.  A scale is max(max B, -min B) exactly,
    since abs and max do not round.
    """
    scales = np.abs(B).max(axis=(1, 2)).tolist()
    games = B.tolist()
    if not isfinite(sum(scales)) and not all(
            isfinite(x) for rows in games for row in rows for x in row):
        raise InputError("matrix has non-finite entries")
    return games, scales


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
    M = convert(as_matrix, M, "M")
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
    num_states, m, n = (convert(count(1), k, name) for k, name in
                        ((num_states, "num_states"), (m, "m"), (n, "n")))
    lo, hi = (convert(real, end, "payoff_range") for end in payoff_range)
    if not (lo <= hi and isfinite(hi - lo)):
        raise InputError(f"payoff_range needs finite lo <= hi, got [{lo}, {hi}]")
    rng = np.random.default_rng(convert(count(0), seed, "seed"))
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
        #: (game, J(0), M(0)) of the first linearize call at x = 0, where
        #: every v_lambda solve starts, whatever its lambda
        self._at_zero = None

    def map(self, x):
        """One application of the game's value operator to x.

        Each action-shape group assembles all its stage games with one
        stacked product.  A 2x2 group is flattened once to floats and
        validated by one finite sum of its entries, read entry by entry only
        when that sum is not finite, for ``_solve_2x2``.  Any other group is
        read, scaled and validated once, by ``_stage_games``, and each game
        is solved by ``_solve`` with its scale and its state's support
        guess, which the solve replaces by the support it accepted; the
        block strategies it returns are not spread over all actions.  No
        array is built per game, and the guesses change the cost, never the
        result.
        """
        supports = self.supports
        out = np.empty(self.dim)
        for states, P, R in self.game.shape_groups:
            B = P + R @ x
            if B.shape[1:] == (2, 2):
                flat = B.ravel().tolist()
                if not isfinite(sum(flat)) and not all(map(isfinite, flat)):
                    raise InputError("matrix has non-finite entries")
                entries = iter(flat)
                for s, a, b, c, d in zip(states, entries, entries, entries, entries):
                    out[s] = _solve_2x2(a, b, c, d)[0]
            else:
                games, scales = _stage_games(B)
                for s, rows, scale in zip(states, games, scales):
                    out[s], _, _, supports[s] = _solve(rows, supports[s], scale)
        return out

    def linearize(self, x):
        """J(x) and the frozen-strategy matrix M of the game at x.

        Row s of M is the transition row p_s' rho_s q_s under the optimal
        strategies (p_s, q_s) of state s's stage game at x, so M is
        row-stochastic and y -> J(x) + M (y - x) is the operator with both
        players' strategies frozen.  Each stage game is solved, with its
        state's guess as in ``map``, by ``matrix_game_value``, which
        validates it and returns its strategies as arrays for the einsum.

        The model at 0 is solved once per operator: the first call at an x
        whose every entry is +0.0 keeps (J(0), M(0)) for the operator's
        game, and later calls at such an x return copies of them, so a
        caller that writes into the result leaves them as they are.  A -0.0
        entry can turn the sign of a zero in B = P + R x, so it is solved.
        """
        x = as_vec(x, self.dim)
        at_zero = not x.any() and not np.signbit(x).any()
        if at_zero and self._at_zero is not None and self._at_zero[0] is self.game:
            return self._at_zero[1].copy(), self._at_zero[2].copy()
        supports = self.supports
        out = np.empty(self.dim)
        M = np.empty((self.dim, self.dim))
        for states, P, R in self.game.shape_groups:
            sols = [matrix_game_value(B, supports[s]) for s, B in zip(states, P + R @ x)]
            for s, sol in zip(states, sols):
                supports[s] = sol.support
            out[list(states)] = [sol.value for sol in sols]
            p = np.array([sol.row_strategy for sol in sols])
            q = np.array([sol.col_strategy for sol in sols])
            M[list(states)] = np.einsum("ki,kijs,kj->ks", p, R, q)
        if at_zero:
            self._at_zero = (self.game, out, M)
            return out.copy(), M.copy()
        return out, M

    def h_constant(self):
        """Largest absolute one-stage payoff, the Lipschitz constant in (H)."""
        return max(float(np.max(np.abs(g))) for g in self.game.payoff)

    def describe(self):
        return f"Shapley({self.dim} states)"
