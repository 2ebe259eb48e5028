"""Certified integration of the two evolution equations

    U'(t) = J(U(t)) - U(t)                    (autonomous)
    u'(t) = Phi(lam(t), u(t)) - u(t)          (parametrized)

plus the parametrizations lam(t), whose base class tests t in [0, inf)
once for all of them, with their exact integrals; the time change
zeta(t) = t + ln(1+t); and the damping factor

    L(t) = exp( int_0^t [ |lam'(s)|/lam(s) - lam(s) ] ds ),

closed-form for the monotone C1 built-ins.  The one quadrature left is
adaptive Simpson for int_0^t |lam'|/L in slow_param_bound.

The integrator is one adaptive Dormand-Prince 5(4) pass with Shampine's
dense output.  Its per-sample error bound carries the embedded local error
estimates forward through the flow's contraction factor exp(-int lam)
(factor 1 for U): the propagation is a theorem, the local estimates are
estimates (see Trajectory).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import BASE_TOL, apply_A, apply_Phi, as_vec, count, instance, norm, positive, real
from .discrete import StepSequence, euler_scheme, locate
from .errors import InputError, ResourceError, convert

#: error target of slow_param_bound's quadrature, relative to max(1, bound)
QUAD_TOL = 1e-9
#: the default tolerance of integrate_U, integrate_u and the CLI's ode tasks
TOL = 1e-8


# ---------------------------------------------------------------------------
# time change and parametrizations

def zeta(t):
    """zeta(t) = t + ln(1 + t) for a real t >= 0."""
    t = convert(real, t, "t")
    if not t >= 0:  # NaN too
        raise InputError("t must be >= 0")
    return t + np.log1p(t)


def zeta_inverse(s):
    """Inverse of zeta by Newton iteration (zeta' in (1, 2], so it is safe),
    as a Python float.  The iteration runs on Python floats, whose
    arithmetic is the same IEEE operations as on NumPy scalars; log1p stays
    NumPy's, whose last bits differ from math.log1p's.  Above s = 8192 an
    ulp of s exceeds the 1e-12 rule and Newton may cycle; then the iterate
    of least residual is taken if that is within 4 ulp(s).  s is read by real."""
    s = float(s) if isinstance(s, float) else convert(real, s, "s")
    if not s >= 0:  # NaN too
        raise InputError("s must be >= 0")
    log1p = np.log1p
    # x if x > 0.0 else 0.0 is max(0.0, x) and r if r >= 0.0 else -r is
    # abs(r) to every comparison below, -0.0 and NaN included, without a call
    t = s - float(log1p(s))
    t = t if t > 0.0 else 0.0
    best_off = best_t = math.inf
    for _ in range(100):
        r = t + float(log1p(t)) - s  # zeta(t) - s
        off = r if r >= 0.0 else -r
        if off <= 1e-12:
            return t
        if off < best_off:
            best_off, best_t = off, t
        t = t - r / (1.0 + 1.0 / (1.0 + t))
        t = t if t > 0.0 else 0.0
    if best_off <= 4.0 * math.ulp(s):
        return best_t
    raise ResourceError("zeta inverse did not converge")


def _time(t):
    """t read as a time of lam, a float in [0, inf), the domain of every lam.
    Anything but a real scalar, an int too large for a float among them, and
    a time outside [0, inf), NaN included, is an InputError.  The reads call
    it only for a t that is not a float in [0, inf), as in Trajectory.at."""
    t = convert(real, t, "t")
    if not 0.0 <= t < math.inf:
        raise InputError("t must be >= 0" if not t >= 0 else f"t must be finite, got {t}")
    return t


class Parametrization:
    """A path t -> lam(t) in (0, 1], C1 except at its kinks(), on t in
    [0, inf).  A subclass defines the formulas _value, _derivative and
    _integral; value, derivative and integral read t by ``_time`` unless it
    is a float (np.float64 too) in [0, inf), which they pass as it is."""

    def value(self, t):
        if not (isinstance(t, float) and 0.0 <= t < math.inf):
            t = _time(t)
        return self._value(t)

    def derivative(self, t):
        if not (isinstance(t, float) and 0.0 <= t < math.inf):
            t = _time(t)
        return self._derivative(t)

    def integral(self, t):
        """int_0^t lam(s) ds, exactly."""
        if not (isinstance(t, float) and 0.0 <= t < math.inf):
            t = _time(t)
        return self._integral(t)

    def _value(self, t):
        raise NotImplementedError

    def _derivative(self, t):
        raise NotImplementedError

    def _integral(self, t):
        raise NotImplementedError

    def kinks(self):
        """Times where lam' jumps: the one declaration that lam is not C1.
        The integrator and two_param split there, and L_factor and
        slow_param_bound reject a lam with any."""
        return ()

    def describe(self):
        return type(self).__name__


class InverseTimeZeta(Parametrization):
    """lam(t) = 1/(2 + zeta^{-1}(t)), asymptotically 1/t + ln(t)/t^2.

    The last (t, zeta^{-1}(t)) is kept, keyed by the exact t, so value,
    derivative and integral at one time (as an integrator step reads them)
    solve zeta^{-1} once.
    """

    _last = (math.nan, 0.0)

    def _zeta_inverse(self, t):
        last_t, x = self._last
        if t != last_t:
            x = zeta_inverse(t)
            self._last = (t, x)
        return x

    def _value(self, t):
        return 1.0 / (2.0 + self._zeta_inverse(t))

    def _derivative(self, t):
        x = np.float64(self._zeta_inverse(t))  # its ** 2 overflows to inf, a float's raises
        dinv = 1.0 / (1.0 + 1.0 / (1.0 + x))
        return -dinv / (2.0 + x) ** 2

    def _integral(self, t):
        # lam dt = dx / (1 + x) at t = zeta(x)
        return float(np.log1p(self._zeta_inverse(t)))


class PowerAlpha(Parametrization):
    """lam(t) = (1 + t)^(alpha - 1) for alpha in [0, 1)."""

    def __init__(self, alpha):
        self.alpha = convert(real, alpha, "alpha")
        if not 0.0 <= self.alpha < 1.0:
            raise InputError("alpha must lie in [0, 1)")

    def _value(self, t):
        return (1.0 + t) ** (self.alpha - 1.0)

    def _derivative(self, t):
        return (self.alpha - 1.0) * (1.0 + t) ** (self.alpha - 2.0)

    def _integral(self, t):
        a, x = self.alpha, np.log1p(t)  # ((1 + t)^a - 1)/a, ln(1 + t) at a = 0
        return float(np.expm1(a * x) / a if a else x)

    def describe(self):
        return f"PowerAlpha({self.alpha})"


class Table(Parametrization):
    """Piecewise-linear path through knots (t_i, lam_i); held constant after
    the last knot.  Continuous; its kinks are the knots after the first,
    each taking the slope to its right."""

    def __init__(self, knots):
        knots = convert(lambda ks: [(real(t), real(v)) for t, v in ks], knots, "knots")
        if len(knots) < 1:
            raise InputError("at least one knot required")
        ts = np.array([t for t, _ in knots])
        vs = np.array([v for _, v in knots])
        if ts[0] != 0.0:
            raise InputError("first knot must be at t = 0")
        # written so that a NaN fails each test
        if not (np.all(np.diff(ts) > 0.0) and ts[-1] < np.inf):
            raise InputError("knot times must be finite and strictly increasing")
        if not np.all((vs > 0.0) & (vs <= 1.0)):
            raise InputError("knot values must lie in (0, 1]")
        self._knots, self._values = ts.tolist(), vs.tolist()
        # slope of each piece; 0 on the held tail past the last knot
        self._slope = np.append(np.diff(vs) / np.diff(ts), 0.0).tolist()
        # int_0^t_k lam by the trapezoid rule, exact on linear pieces
        self._cum = np.cumsum([0.0, *(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))]).tolist()

    def _piece(self, t):
        """(k, t - t_k, lam(t)) with t_k <= t < t_k+1 the knot times, or k the
        last knot on the held tail; np.interp's arithmetic, on Python floats."""
        k = bisect_right(self._knots, t) - 1
        dt = t - self._knots[k]
        return k, dt, self._slope[k] * dt + self._values[k]

    def _value(self, t):
        return float(self._piece(t)[2])

    def _derivative(self, t):
        return self._slope[self._piece(t)[0]]

    def _integral(self, t):
        k, dt, value = self._piece(t)
        return float(self._cum[k] + 0.5 * (self._values[k] + value) * dt)

    def kinks(self):
        return tuple(self._knots[1:])


class Constant(Table):
    """lam(t) = lam, the one-knot Table [(0, lam)]: lam, 0.0 and lam * t, bit for bit."""

    def __init__(self, lam):
        self.lam = convert(real, lam, "lambda")
        if not 0.0 < self.lam <= 1.0:
            raise InputError("lambda must lie in (0, 1]")
        super().__init__([(0.0, self.lam)])

    def describe(self):
        return f"Constant({self.lam})"


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with its continuous extension

#: Dormand & Prince (1980): nodes c_i and stage rows a_ij, the last row also
#: the 5th-order weights b (and so the FSAL stage); e = b - b_hat, the
#: weights of the embedded error estimate; d, the weights of the quartic
#: term of Shampine's dense output (Hairer, Norsett & Wanner, Solving ODEs
#: I, II.6)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
#: the stage rows a_i,:i and the nodes c_i (Python floats), cut once
_DP_ROWS = [_DP_A[i, :i] for i in range(7)]
_DP_NODES = _DP_C.tolist()

#: share c of tol granted to the local error estimates: step k is accepted
#: when est_k <= c tol h_k / T, so the estimates over [0, T] sum to <= c tol
STEP_TOL_SHARE = 0.03

#: the in-step term of a dense read is DENSE_FACTOR x est: over every step of
#: the paper suite's integrations the dense output's local error reached
#: 8.1 est (u' = (1 - u)/(1 + t)), while the step-end solution stays below est
DENSE_FACTOR = 16.0

#: longest step.  Linearized, both right-hand sides have their eigenvalues
#: in the disc |z + 1| <= 1 (J is nonexpansive), and h <= 1 keeps h times
#: that disc inside the method's stability region, where the embedded
#: estimate tracks the local error (on a step of 6.7 it fell short of it)
LONGEST_STEP = 1.0

#: cap on attempted (accepted or rejected) steps of one integration
MAX_STEPS = 2**20


@dataclass
class Trajectory:
    """Dormand-Prince trajectory with an error bound per sample.

    times[0] = 0 < ... < times[n] = T are the step ends.  nodes is one
    (n+1, 2, d) block: nodes[k, 0] = points[k] is the solution at times[k]
    and nodes[k, 1] = derivative[k] the RHS evaluated exactly at
    (times[k], points[k]); points and derivative are views of it.  Between
    times[k] and times[k+1] (length h, at t = times[k] + s h) the dense
    output is Shampine's continuous extension: the cubic Hermite polynomial
    of the points and h x the derivatives at both ends, plus
    s^2 (1 - s)^2 dense[k].  The four node vectors of step k are the
    contiguous rows of nodes[k:k+2].

    err_bound[0] = 0, and for the step k from times[k-1] to times[k]

        err_bound[k] = b_{k-1} + DENSE_FACTOR le_k,
        b_k = exp(-(Lam(t_k) - Lam(t_{k-1}))) b_{k-1} + le_k,   b_0 = 0,

    where le_k is the step's embedded error estimate (the 5th- minus the
    4th-order solution) in the operator's core.norm, and Lam = int_0^t lam
    for u' = Phi(lam(t), u) - u, Lam = 0 for U' = J(U) - U.  The flow
    contracts by exp(-(Lam(t) - Lam(s))) from s to t, so if each le_k
    bounds its step's local error, the error at node k is at most
    b_k <= err_bound[k]: that propagation is a theorem.  le_k is an
    estimate, not a proven bound, and so is DENSE_FACTOR le_k as the local
    error of a dense read inside step k, which err_bound[k] covers as well.
    err_at gives the bound of reads at any times.

    The arrays are not to be changed once made: reads bracket their times
    on a list copy of times, made with the trajectory, and keep the last
    step's ends and rows as Python floats (a read in that step skips the
    bisect), so writing into times, nodes or dense after a read gives stale
    reads.
    """

    times: np.ndarray
    nodes: np.ndarray
    err_bound: np.ndarray
    dense: np.ndarray
    _grid: list = field(init=False, repr=False, compare=False)
    _step: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._grid = self.times.tolist()
        # (k, times[k], times[k+1], P_k, D_k, P_k+1, D_k+1, dense[k]); its
        # NaN ends make the first read bisect
        self._step = (-1, math.nan, math.nan, [], [], [], [], [])

    @property
    def points(self):
        return self.nodes[:, 0]

    @property
    def derivative(self):
        return self.nodes[:, 1]

    def at(self, t):
        """Dense evaluation by the Dormand-Prince continuous extension, read
        as

            c0 P_k + c1 D_k + c2 P_k+1 - c3 D_k+1 + c4 dense[k]

        entry by entry, in that order, with (P, D) the node block's rows.
        The step k and s are bracketed on the list grid, and the five
        coefficients and the sum are computed on Python floats: the same
        IEEE operations, in the same order, as NumPy's elementwise ones.
        The sum starts from its first term, which keeps a signed zero that
        a sum from 0.0 (NumPy's reduce with no initial value) would lose.
        The ends and rows of the last step read are kept, as one tuple, so
        sorted reads convert each step's rows once, and a read in that step,
        times[k] <= t < times[k+1], takes k and s = (t - times[k]) / h
        without bisecting the grid: the operations locate would do.
        InputError unless t is a real scalar on the samples."""
        t = float(t) if isinstance(t, float) else convert(real, t, "t")  # np.float64 too
        k, a, b, p0, d0, p1, d1, dk = self._step
        if a <= t < b:
            h = b - a
            s = (t - a) / h
        else:
            grid = self._grid
            step, s = locate(grid, t)
            a, b = grid[step], grid[step + 1]
            h = b - a
            if step != k:
                k = step
                (p0, d0), (p1, d1) = self.nodes[k:k + 2].tolist()
                dk = self.dense[k].tolist()
                self._step = (k, a, b, p0, d0, p1, d1, dk)
        r = 1.0 - s
        c0 = (1.0 + 2.0 * s) * r * r
        c1 = s * r * r * h
        c2 = s * s * (3.0 - 2.0 * s)
        c3 = s * s * r * h
        c4 = s * s * r * r
        return np.array([c0 * p0[i] + c1 * d0[i] + c2 * p1[i] - c3 * d1[i] + c4 * dk[i]
                         for i in range(len(dk))])

    def err_at(self, times):
        """Error bound of reads at these times (one time or several): the
        largest err_bound[k] over them, with k the node at a node time and
        the step's end node inside a step.  times is one real scalar, or a
        1-d list, tuple, range or array of them; anything else is an
        InputError, as is a time outside the samples or no time at all."""
        if isinstance(times, np.ndarray) and times.ndim == 1:
            times = times.tolist()
        if not isinstance(times, (list, tuple, range)):
            times = [times]
        grid = self._grid
        located = [locate(grid, convert(real, t, "times")) for t in times]
        if not located:
            raise InputError("no read time given")
        return float(np.max(self.err_bound[[k + (s > 0.0) for k, s in located]]))


@np.errstate(over="ignore", invalid="ignore")  # est is checked instead
def _integrate(rhs, y0, T, tol, norm_kind, param=None):
    """One Dormand-Prince 5(4) pass over [0, T] with FSAL and error per unit
    step: a step is accepted when its estimate est <= STEP_TOL_SHARE tol h/T.
    param is the lam of u' = Phi(lam(t), u) - u, or None for U' = J(U) - U:
    its integral gives the contraction of the error bound (see Trajectory),
    and each of its kinks in (0, T) is a step end.

    rhs(t, x, out) writes the right-hand side at (t, x) into out and
    returns nothing.  out is a row of the stage block, which later stages
    rewrite, so rhs keeps no reference to it; nor does it write into x,
    which may become a node.

    est is core.norm(local, norm_kind) of the step's local error estimate,
    in the operator's own norm.  y0 is a validated start, and T and tol
    are positive floats (see integrate_U); rhs may skip validating the
    stage vectors it gets.  A NaN or infinite stage value reaches local,
    through its weights or those of the later stages, so
    core.norm's as_vec makes it an InputError, once per step.  NumPy's
    overflow and invalid warnings on the way are silenced, so the caller
    gets that InputError also under -W error.

    ResourceError after MAX_STEPS attempted steps, or when a step shrinks
    to a few ulps of the time it would reach.
    """
    kinks = param.kinks() if param is not None else ()
    stops = [float(k) for k in kinks if 0.0 < k < T] + [float(T)]
    target = STEP_TOL_SHARE * tol / T
    K = np.empty((7, y0.shape[0]))
    prefixes = [K[:i] for i in range(7)]  # views: the stages written so far
    stages = list(K)  # views: the row each stage's rhs writes
    rhs(0.0, y0, stages[0])
    times, nodes, dense, bounds = [0.0], [y0, K[0].copy()], [], [0.0]
    t, y, b, lam_int = 0.0, y0, 0.0, 0.0
    slope = norm(K[0], norm_kind)  # validates the first RHS value
    h = (target / slope) ** 0.25 if slope > 0.0 else T
    attempts = 0
    for stop in stops:
        while t < stop:
            attempts += 1
            if attempts > MAX_STEPS:
                raise ResourceError(f"step cap {MAX_STEPS} reached at t = {t} < T = {T}")
            h = min(h, LONGEST_STEP)
            end = stop if t + 1.1 * h >= stop else t + h
            h = end - t
            if h <= 4.0 * math.ulp(end):
                raise ResourceError(f"step size underflow at t = {t}")
            # np.dot reaches the same BLAS gemv as @, with less dispatch; the
            # products stay BLAS calls, whose sums a Python loop would reorder
            for i in range(1, 7):
                stage = y + h * np.dot(_DP_ROWS[i], prefixes[i])
                rhs(end if i == 6 else t + _DP_NODES[i] * h, stage, stages[i])
            local = h * np.dot(_DP_E, K)
            est = norm(local, norm_kind)  # InputError if not finite
            ratio = est / (target * h)
            if ratio <= 1.0:
                next_int = param.integral(end) if param is not None else 0.0
                bounds.append(b + DENSE_FACTOR * est)
                b = float(np.exp(lam_int - next_int)) * b + est
                dense.append(h * np.dot(_DP_D, K))
                t, y, lam_int = end, stage, next_int
                times.append(t)
                nodes += (y, K[6].copy())
                K[0] = K[6]
            # est ~ h^5 against a target ~ h: rescale h by ratio^(-1/4)
            grow = 0.9 * ratio ** -0.25 if ratio > 0.0 else np.inf
            h *= min(5.0, grow) if ratio <= 1.0 else max(0.2, grow)
    return Trajectory(np.array(times), np.array(nodes).reshape(len(times), 2, -1),
                      np.array(bounds), np.array(dense))


def euler_power(op, t, m, x0):
    """U_t^m(x0) = (I - (t/m) A)^m (x0): the Euler scheme with m equal steps
    t/m.  InputError unless m >= 1 and 0 < t/m <= 1 (so t <= 0 is rejected)."""
    t, m = convert(real, t, "t"), convert(count(1), m, "m")
    return euler_scheme(op, x0, StepSequence.constant(t / m, m)).points[-1]


def integrate_U(op, U0, T, tol=TOL):
    """Solve U' = J(U) - U on [0, T] to tolerance tol: the local error
    estimates sum to at most STEP_TOL_SHARE tol (see Trajectory).  U0 is
    read by as_vec (a scalar is a start on a dim-1 operator), T and tol by
    core.positive.

    The endpoint is cross-checked against the Euler power U_T^m, which must
    satisfy ||U_T^m - U(T)|| <= ||A(U0)|| T/sqrt(m); a failure is a
    ResourceError.
    """
    U0, T, tol = as_vec(U0, op.dim), convert(positive, T, "T"), convert(positive, tol, "tol")
    # -(x - J(x)), not J(x) - x, whose signed zeros differ: at a fixed point it is -0.0
    rhs = lambda t, x, out: np.negative(apply_A(op, x, checked=False), out=out)
    traj = _integrate(rhs, U0, T, tol, op.norm_kind)
    m = max(64, int(np.ceil(T)))
    bound = op.norm(apply_A(op, U0)) * T / np.sqrt(m)
    gap = op.norm(euler_power(op, T, m, U0) - traj.points[-1])
    if gap > bound + traj.err_bound[-1] + BASE_TOL:
        raise ResourceError(
            f"exponential-formula cross-check failed: {gap} > {bound}"
        )
    return traj


def integrate_u(op, param, u0, T, tol=TOL):
    """Solve u' = Phi(lam(t), u) - u on [0, T] to tolerance tol, like
    integrate_U; u0 is read like its U0, and param must be a Parametrization."""
    param = convert(instance(Parametrization), param, "param")
    u0, T, tol = as_vec(u0, op.dim), convert(positive, T, "T"), convert(positive, tol, "tol")
    rhs = lambda t, x, out: np.subtract(apply_Phi(op, param.value(t), x, checked=False), x,
                                        out=out)
    return _integrate(rhs, u0, T, tol, op.norm_kind, param)


# ---------------------------------------------------------------------------
# the damping factor L(t) and the slow-parametrization bound

def _adaptive_simpson(f, a, b, tol, rel=0.0):
    """int_a^b f to an estimated error <= tol + rel int_a^b |f|, or ResourceError.
    At most 50 halvings: they leave pieces of [0, t] >= 4 ulp(t) wide, too
    wide to pass the test by collapsing onto their own sample points."""
    return _simpson_rec(f, a, b, f(a), f(0.5 * (a + b)), f(b), tol, rel, 50)


def _simpson_rec(f, a, b, fa, fm, fb, tol, rel, depth):
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * max(tol, rel * abs(left + right)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise ResourceError(f"adaptive Simpson did not converge on [{a}, {b}]")
    return _simpson_rec(f, a, m, fa, flm, fm, 0.5 * tol, rel, depth - 1) + \
        _simpson_rec(f, m, b, fm, frm, fb, 0.5 * tol, rel, depth - 1)


def _log_L(param, t):
    """ln L(t) in closed form (see L_factor); InputError if lam has kinks."""
    if len(param.kinks()):
        raise InputError(f"{param.describe()} is not C1; this quantity needs lam'")
    return abs(np.log(param.value(0.0) / param.value(t))) - param.integral(t)


def L_factor(param, t):
    """L(t) = exp(int_0^t [|lam'|/lam - lam] ds) = exp(|ln(lam(0)/lam(t))| - int_0^t lam)
    for a monotone lam; every C1 built-in is monotone, and a C1 subclass must be."""
    return float(np.exp(_log_L(param, t)))


def slow_param_bound(op, param, u0, t):
    """Right-hand side of the slow-parametrization tracking bound:

        L(t)/lam(t) * [ ||u'(0)|| + (C + C') int_0^t |lam'(s)|/L(s) ds ]

    with C the hypothesis-(H) constant of the operator and C' = ||J(0)||
    (a certified upper bound on sup ||v_lam||).  L is L_factor's closed form
    (lam monotone); the integral is adaptive Simpson to QUAD_TOL * max(1, bound).
    """
    log_Lt = _log_L(param, t)
    lam0, lam_t = param.value(0.0), param.value(t)
    du0 = op.norm(apply_Phi(op, lam0, u0) - u0)
    scale = (op.h_constant() + op.norm(op.J(np.zeros(op.dim)))) / lam_t
    head = np.exp(log_Lt) / lam_t * du0

    def integrand(s):  # L(t)/L(s) stays finite where 1/L(s) overflows
        return scale * abs(param.derivative(s)) * np.exp(log_Lt - _log_L(param, s))

    # error <= tol + rel * tail <= QUAD_TOL * max(1, head + tail)
    tail = _adaptive_simpson(integrand, 0.0, t, 0.5 * QUAD_TOL * max(1.0, head),
                             rel=0.5 * QUAD_TOL)
    return float(head + tail)
