"""Certified integration of the two evolution equations

    U'(t) = J(U(t)) - U(t)                    (autonomous)
    u'(t) = Phi(lam(t), u(t)) - u(t)          (parametrized)

plus the parametrization family lam(t) with its exact integral, the time
change zeta(t) = t + ln(1+t), and the damping factor

    L(t) = exp( int_0^t [ |lam'(s)|/lam(s) - lam(s) ] ds ),

closed-form for the monotone C1 built-ins.  The one quadrature left is
adaptive Simpson for int_0^t |lam'|/L in slow_param_bound.

The integrator is classical RK4 with step halving; the certified error is
the Richardson difference between the last two refinements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import apply_A, apply_Phi, as_vec, norm
from .discrete import StepSequence, euler_scheme, locate
from .errors import InputError, ResourceError

#: hard cap on total RK4 steps across refinements
MAX_TOTAL_STEPS = 2**24

#: error target of slow_param_bound's quadrature, relative to max(1, bound)
QUAD_TOL = 1e-9


# ---------------------------------------------------------------------------
# time change and parametrizations

def zeta(t):
    """zeta(t) = t + ln(1 + t) for t >= 0."""
    if t < 0:
        raise InputError("t must be >= 0")
    return t + np.log1p(t)


def zeta_inverse(s):
    """Inverse of zeta by Newton iteration (zeta' in (1, 2], so it is safe)."""
    if s < 0:
        raise InputError("s must be >= 0")
    t = max(0.0, s - np.log1p(s))
    for _ in range(100):
        r = zeta(t) - s
        if abs(r) <= 1e-12:
            return t
        t = max(0.0, t - r / (1.0 + 1.0 / (1.0 + t)))
    raise ResourceError("zeta inverse did not converge")


class Parametrization:
    """A path t -> lam(t) in (0, 1]."""

    is_c1 = True

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def integral(self, t):
        """int_0^t lam(s) ds, exactly."""
        raise NotImplementedError

    def describe(self):
        return type(self).__name__


class Constant(Parametrization):
    def __init__(self, lam):
        if not 0.0 < lam <= 1.0:
            raise InputError("lambda must lie in (0, 1]")
        self.lam = float(lam)

    def value(self, t):
        return self.lam

    def derivative(self, t):
        return 0.0

    def integral(self, t):
        return self.lam * t

    def describe(self):
        return f"Constant({self.lam})"


class InverseTimeZeta(Parametrization):
    """lam(t) = 1/(2 + zeta^{-1}(t)), asymptotically 1/t + ln(t)/t^2."""

    def value(self, t):
        return 1.0 / (2.0 + zeta_inverse(t))

    def derivative(self, t):
        x = zeta_inverse(t)
        dinv = 1.0 / (1.0 + 1.0 / (1.0 + x))
        return -dinv / (2.0 + x) ** 2

    def integral(self, t):
        return float(np.log1p(zeta_inverse(t)))  # lam dt = dx / (1 + x) at t = zeta(x)


class PowerAlpha(Parametrization):
    """lam(t) = (1 + t)^(alpha - 1) for alpha in [0, 1)."""

    def __init__(self, alpha):
        if not 0.0 <= alpha < 1.0:
            raise InputError("alpha must lie in [0, 1)")
        self.alpha = float(alpha)

    def value(self, t):
        return (1.0 + t) ** (self.alpha - 1.0)

    def derivative(self, t):
        return (self.alpha - 1.0) * (1.0 + t) ** (self.alpha - 2.0)

    def integral(self, t):
        a, x = self.alpha, np.log1p(t)  # ((1 + t)^a - 1)/a, ln(1 + t) at a = 0
        return float(np.expm1(a * x) / a if a else x)

    def describe(self):
        return f"PowerAlpha({self.alpha})"


class Table(Parametrization):
    """Piecewise-linear path through knots (t_i, lam_i); held constant after
    the last knot.  Continuous but not C1: jump points take the right slope.
    """

    is_c1 = False

    def __init__(self, knots):
        knots = [(float(t), float(v)) for t, v in knots]
        if len(knots) < 1:
            raise InputError("at least one knot required")
        ts = np.array([t for t, _ in knots])
        vs = np.array([v for _, v in knots])
        if ts[0] != 0.0:
            raise InputError("first knot must be at t = 0")
        if np.any(np.diff(ts) <= 0.0):
            raise InputError("knot times must be strictly increasing")
        if np.any(vs <= 0.0) or np.any(vs > 1.0):
            raise InputError("knot values must lie in (0, 1]")
        self.ts = ts
        self.vs = vs
        # slope of each piece; 0 on the held tail past the last knot
        self._slope = np.append(np.diff(vs) / np.diff(ts), 0.0)
        self._cum = _cumtrapz(vs, ts)  # exact on linear pieces

    def _piece(self, t):
        """(k, t - ts[k], lam(t)) with ts[k] <= t < ts[k+1], or k the last
        knot on the held tail; the same arithmetic as np.interp."""
        if t < 0:
            raise InputError("t must be >= 0")
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        dt = t - self.ts[k]
        return k, dt, self._slope[k] * dt + self.vs[k]

    def value(self, t):
        return float(self._piece(t)[2])

    def derivative(self, t):
        return float(self._slope[self._piece(t)[0]])

    def integral(self, t):
        k, dt, value = self._piece(t)
        return float(self._cum[k] + 0.5 * (self.vs[k] + value) * dt)


# ---------------------------------------------------------------------------
# RK4 with Richardson refinement

@dataclass
class Trajectory:
    """Sampled continuous trajectory with a certified error estimate.

    err_bound holds, at every sample, the sup over checkpoints of the
    Richardson difference between the last two refinements (a conservative
    per-sample bound).  derivative[i] is the RHS evaluated exactly at
    (times[i], points[i]).
    """

    times: np.ndarray
    points: np.ndarray
    err_bound: np.ndarray
    derivative: np.ndarray

    def _hermite(self, t, basis):
        """Combine the samples around t with the weights basis(s, h) of
        (x_k, x'_k, x_k+1, x'_k+1), where t = times[k] + s h (see
        discrete.locate; t outside the samples raises InputError)."""
        k, s = locate(self.times, t)
        w = basis(s, self.times[k + 1] - self.times[k])
        return (w[0] * self.points[k] + w[1] * self.derivative[k]
                + w[2] * self.points[k + 1] + w[3] * self.derivative[k + 1])

    def at(self, t):
        """Dense evaluation by cubic Hermite interpolation between samples."""
        return self._hermite(t, _hermite_basis)

    def deriv_at(self, t):
        """Hermite-interpolated derivative between samples."""
        return self._hermite(t, _hermite_basis_derivative)


def _hermite_basis(s, h):
    return ((1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2 * h,
            s * s * (3 - 2 * s), s * s * (s - 1) * h)


def _hermite_basis_derivative(s, h):
    return ((6 * s * s - 6 * s) / h, 3 * s * s - 4 * s + 1,
            (6 * s - 6 * s * s) / h, 3 * s * s - 2 * s)


def _rk4_run(rhs, y0, T, n):
    """Fixed-step classical RK4; returns (times, points, derivatives)."""
    h = T / n
    d = y0.shape[0]
    times = np.linspace(0.0, T, n + 1)
    points = np.empty((n + 1, d))
    derivs = np.empty((n + 1, d))
    y = y0.copy()
    points[0] = y
    derivs[0] = rhs(0.0, y)
    for i in range(n):
        t = times[i]
        k1 = derivs[i]
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points[i + 1] = y
        derivs[i + 1] = rhs(times[i + 1], y)
    return times, points, derivs


def _integrate(rhs, y0, T, tol, norm_kind):
    """Step-halving RK4 until consecutive refinements differ by <= tol/2."""
    if T <= 0.0 or tol <= 0.0:
        raise InputError("T and tol must be positive")
    n = max(32, int(np.ceil(2.0 * T)))
    total = n
    prev = _rk4_run(rhs, y0, T, n)
    while True:
        n *= 2
        total += n
        if total > MAX_TOTAL_STEPS:
            raise ResourceError(
                f"step cap {MAX_TOTAL_STEPS} reached before tol {tol}"
            )
        cur = _rk4_run(rhs, y0, T, n)
        diff = max(
            norm(cur[1][2 * i] - prev[1][i], norm_kind)
            for i in range(prev[0].size)
        )
        if diff <= 0.5 * tol:
            times, points, derivs = cur
            err = np.full(times.size, diff)
            return Trajectory(times, points, err, derivs)
        prev = cur


def euler_power(op, t, m, x0):
    """U_t^m(x0) = (I - (t/m) A)^m (x0): the Euler scheme with m equal steps
    t/m.  InputError unless m >= 1 and 0 < t/m <= 1 (so t <= 0 is rejected)."""
    if m < 1:
        raise InputError("m must be >= 1")
    return euler_scheme(op, x0, StepSequence.constant(t / m, m)).points[-1]


def integrate_U(op, U0, T, tol=1e-8):
    """Solve U' = J(U) - U on [0, T] with certified tolerance tol; U0 is
    read by as_vec, so a scalar is a start on a dim-1 operator.

    The endpoint is cross-checked against the Euler power U_T^m, which must
    satisfy ||U_T^m - U(T)|| <= ||A(U0)|| T/sqrt(m); a failure is a
    ResourceError.
    """
    U0 = as_vec(U0, op.dim)
    rhs = lambda t, x: -apply_A(op, x)
    traj = _integrate(rhs, U0, T, tol, op.norm_kind)
    m = max(64, int(np.ceil(T)))
    bound = op.norm(apply_A(op, U0)) * T / np.sqrt(m)
    gap = op.norm(euler_power(op, T, m, U0) - traj.points[-1])
    if gap > bound + traj.err_bound[-1] + 1e-9:
        raise ResourceError(
            f"exponential-formula cross-check failed: {gap} > {bound}"
        )
    return traj


def integrate_u(op, param, u0, T, tol=1e-8):
    """Solve u' = Phi(lam(t), u) - u on [0, T] with certified tolerance;
    u0 is read like integrate_U's U0."""
    u0 = as_vec(u0, op.dim)
    rhs = lambda t, x: apply_Phi(op, param.value(t), x) - x
    return _integrate(rhs, u0, T, tol, op.norm_kind)


# ---------------------------------------------------------------------------
# the damping factor L(t) and the slow-parametrization bound

def _cumtrapz(y, s):
    """Cumulative trapezoid integral of samples y on the grid s, from 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(s))))


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
    """ln L(t) in closed form (see L_factor); InputError unless lam is C1."""
    if not param.is_c1:
        raise InputError(f"{param.describe()} is not C1; this quantity needs lam'")
    if t < 0:
        raise InputError("t must be >= 0")
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
