"""Registry of quantitative checks.

Every entry is a generator over an operator, the run's integrator
tolerance ode_tol and the inputs it declares as keyword-only parameters:
it yields one (lhs, rhs, budget, context) tuple
per inequality (or decay / monotonicity statement) it tests, where budget
is the certified numerical error of that comparison alone (0.0 where it
has none).  `verify` is the one place that binds those inputs from a
Scenario, with `bind`, and that judges the tuples: it turns each into a
BoundReport with slack rhs - lhs, tol_budget BASE_TOL + budget and verdict
lhs <= rhs + tol_budget, labelled with the check id and the scenario name.
`run_checks` runs verify on many (check, scenario) pairs, and within one
such run a flow, v_lam or v_n that two checks read from the same inputs is
solved once (see run_checks).
Asymptotic statements are operationalized as finite-horizon decay
assertions: the final gap must be <= DECAY_FACTOR = 0.2 times the initial
gap over a horizon ratio of at least 100x.  Tolerance budgets propagate
additively: a check sums every certified numerical error that contributes,
and verify adds the one rounding allowance, core.BASE_TOL.
"""

from __future__ import annotations

import contextvars
import inspect
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import continuous, core, discrete, shapley
from .core import BASE_TOL, SAMPLES, apply_A, apply_Phi
from .discrete import VLAMBDA_TOL
from .errors import InputError, convert

#: the decay assertions' factor: the last gap is at most this times the first
DECAY_FACTOR = 0.2
#: the integrator tolerance of a run of checks, unless its caller gives one
ODE_TOL = 1e-6


class Scenario:
    """An operator, named by its description, and the inputs of a check:
    keyword arguments, bound by verify as the check's keyword-only
    parameters."""

    def __init__(self, operator, **inputs):
        self.operator = operator
        self.name = operator.describe()
        self.inputs = inputs


@dataclass
class BoundReport:
    check: str
    lhs: float
    rhs: float
    slack: float
    tol_budget: float
    verdict: bool
    context: dict

    def to_dict(self):
        """The fields, in order, by name; the verdict as pass or fail."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["verdict"] = "pass" if self.verdict else "fail"
        return d


def _log_points(T, count):
    """count log-spaced times from T/100 to T, each once."""
    return np.unique(np.geomspace(T / 100.0, T, count))


def _log_ints(lo, hi, count):
    """count log-spaced points from lo to hi, truncated to ints, each once."""
    return np.unique(np.geomspace(lo, hi, count).astype(int)).tolist()


def _starts(op, starts, *fills, key="starts"):
    """The first len(fills) of the given start points, read at the
    operator's dimension, or else one vector filled with each of fills (0.0
    or 1.0); an error in them is an InputError naming key."""
    if starts is None:
        return [np.full(op.dim, fill) for fill in fills]
    if len(starts) < len(fills):
        raise InputError(f"{key}: this check needs {len(fills)} start point(s), "
                         f"got {len(starts)}")
    return convert(lambda xs: [core.as_vec(x, op.dim) for x in xs[:len(fills)]], starts, key)


def _ending_at(steps, horizon):
    """steps, whose sigma_N must lie within 1e-9 of the horizon."""
    if abs(steps.sigma[-1] - horizon) > 1e-9:
        raise InputError(f"steps, horizon: sigma_N = {steps.sigma[-1]} differs from "
                         f"the horizon {horizon}")
    return steps


def _last_n(check, horizon, least):
    """N = int(horizon), the last n the check reads (of v_n, of a flow at
    integer times or of its own harmonic steps); a horizon below least, the
    least N the check can read at, is an InputError naming the horizon."""
    if horizon < least:
        raise InputError(f"horizon: {check} needs a horizon of at least {least}, "
                         f"got {horizon}")
    return int(horizon)


def _within(check, key, points, lo, hi):
    """points, at which the check reads its flow (or v_n), each in
    [lo, hi]; one outside, or NaN, is an InputError naming key."""
    for p in points:
        if not lo <= p <= hi:
            raise InputError(f"{key}: {check} reads points in [{lo}, {hi}], got {p}")
    return points


def _list(kind):
    """A reader: a nonempty list of kind(entry)."""
    def read(values):
        if isinstance(values, str):
            raise InputError(f"must be a list, got {values!r}")
        out = [kind(v) for v in values]
        if not out:
            raise InputError("must list at least one value")
        return out
    return read


def _choice(*options):
    """A reader: one of the options."""
    def read(value):
        if value not in options:
            raise InputError(f"must be one of {list(options)}, got {value!r}")
        return value
    return read


def _points(values):
    """A reader: a list of points, as given (each is read where it is used,
    at the operator's dimension); None stands for the check's own."""
    if not isinstance(values, (list, tuple, type(None))):
        raise InputError("must be a list of points")
    return values


#: one reader per input key, whichever check takes it: it turns the given
#: value into the check's argument
READERS = {
    "case": _choice("a", "b"),
    "horizon": core.positive,
    "n_values": _list(core.count(1)),
    "pairs": core.count(1),
    "param": core.instance(continuous.Parametrization),
    "param2": core.instance(continuous.Parametrization),
    "seed": core.count(0),
    "starts": _points,
    "steps": core.instance(discrete.StepSequence),
}


def keys(fn):
    """fn's keys: its keyword-only parameters, by name less a trailing _
    (so lambda_ is the key lambda)."""
    params = inspect.signature(fn).parameters.values()
    return {p.name.rstrip("_"): p for p in params if p.kind is p.KEYWORD_ONLY}


def bind(fn, readers, cfg, given, name, at=""):
    """The keyword arguments of fn, the check, task or spec constructor
    called name: each key of cfg that fn takes (see keys), converted by the
    key's entry in readers (any other key as given).  A key in given that
    fn does not take, and a required key cfg lacks, are an InputError
    naming the key as at + key; cfg's other keys (a preset's) are dropped.
    A fn with **kwargs takes every other key in given as well, as given:
    its own code reads them."""
    takes = keys(fn)
    rest = any(p.kind is p.VAR_KEYWORD for p in inspect.signature(fn).parameters.values())
    unread = [] if rest else sorted(given.difference(takes))
    missing = [k for k, p in takes.items() if p.default is p.empty and k not in cfg]
    if unread or missing:
        raise InputError(f"{', '.join(at + k for k in unread or missing)}: "
                         f"{'not a key of' if unread else 'missing for'} {name}, "
                         f"whose keys are {', '.join(takes) or 'none'}")
    return {takes[k].name if k in takes else k:
            convert(readers[k], v, at + k) if k in takes and k in readers else v
            for k, v in cfg.items() if k in takes or (rest and k in given)}


def _worst(candidates):
    """The (lhs, rhs, ...) candidate with the largest lhs - rhs (first on ties)."""
    return max(candidates, key=lambda c: c[0] - c[1])


def _worst_increase(values):
    """Largest step up along a sequence that should be non-increasing."""
    return max(b - a for a, b in zip(values, values[1:]))


def _decay(gaps, budget, context):
    """Finite-horizon decay: the last gap is at most DECAY_FACTOR x the first."""
    return gaps[-1], DECAY_FACTOR * gaps[0], budget, context


#: the solves shared by the checks of the running run_checks call, or None
_SHARED = contextvars.ContextVar("opdyn.bounds.shared", default=None)


def _key(value):
    """A value's part of a shared solve's key (see run_checks)."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, int):
        return type(value), value
    return id(value)


def _shared(solve, *args, **kwargs):
    """solve(*args, **kwargs); inside run_checks, the stored result of an
    earlier call with the same key."""
    memo = _SHARED.get()
    if memo is None:
        return solve(*args, **kwargs)
    key = (solve, *map(_key, args), *((k, _key(v)) for k, v in sorted(kwargs.items())))
    if key not in memo:
        memo[key] = args, kwargs, solve(*args, **kwargs)
    return memo[key][2]


def _vlambda_gap(op, x, lam):
    """||x - v_lam||, with v_lam certified to VLAMBDA_TOL."""
    return op.norm(x - _shared(discrete.solve_vlambda, op, lam))


# ---------------------------------------------------------------------------
# individual checks: check(op, ode_tol, *, inputs) yields (lhs, rhs, budget,
# context) per inequality, budget being its certified numerical error (verify
# adds the rounding allowance).  Its keyword-only parameters are its inputs,
# each a key of the scenario read through its READERS entry; a default of
# None stands for one the check derives from the other inputs.  The points,
# grids and discount factors at which a check reads its trajectory are its
# own constants, in its body.

def _check_norm_bounds(op, ode_tol, *, horizon=50.0):
    N = _last_n("norm_bounds", horizon, 1)
    lambdas = (1.0, 0.5, 0.1, 0.01)
    j0 = op.norm(op.J(np.zeros(op.dim)))
    _, vn = _shared(discrete.iterate_Vn, op, N)
    yield max(op.norm(v) for v in vn), j0, 0.0, {"family": "v_n", "N": N}
    yield (max(op.norm(_shared(discrete.solve_vlambda, op, lam))
               for lam in lambdas),
           j0, VLAMBDA_TOL, {"family": "v_lambda", "lambdas": list(lambdas)})


def _check_accretivity(op, ode_tol, *, seed=0):
    lambdas = (0.1, 0.5, 1.0, 2.0)  # resolvent steps, which may exceed 1
    reports = core._accretive_reports(op, lambdas, seed=seed)
    for lam, rep in zip(lambdas, reports):
        yield (1.0 - rep.worst_ratio, 0.0, 0.0,
               {"lambda": lam, "samples": rep.samples, "violations": rep.violations})


def _check_solution_contraction(op, ode_tol, *, horizon=50.0, starts=None):
    t1, t2 = (_shared(continuous.integrate_U, op, x, horizon, tol=ode_tol)
              for x in _starts(op, starts, 0.0, 1.0))
    times = np.linspace(0.0, horizon, 41)
    yield (_worst_increase([op.norm(t1.at(t) - t2.at(t)) for t in times]), 0.0,
           2.0 * (t1.err_at(times) + t2.err_at(times)),
           {"checkpoints": len(times)})


def _check_derivative_decay(op, ode_tol, *, horizon=50.0, starts=None):
    (U0,) = _starts(op, starts, 1.0)
    traj = _shared(continuous.integrate_U, op, U0, horizon, tol=ode_tol)
    times = np.linspace(0.0, horizon, 41)
    # U' = -A(U), and A is 2-Lipschitz: each read is within 2 err of U'(t)
    yield (_worst_increase([op.norm(apply_A(op, traj.at(t))) for t in times]), 0.0,
           4.0 * traj.err_at(times), {"checkpoints": len(times)})


def _check_chernoff(op, ode_tol, *, horizon=50.0, starts=None):
    T = horizon
    (U0,) = _starts(op, starts, 0.0)
    nmax, grid = int(T), 20
    traj = _shared(continuous.integrate_U, op, U0, T, tol=ode_tol)
    du0 = op.norm(apply_A(op, U0))
    powers = [U0]
    for _ in range(nmax):
        powers.append(op.J(powers[-1]))
    ts = np.linspace(0.0, T, grid)
    ns = np.unique(np.linspace(0, nmax, grid).astype(int))
    lhs, rhs, t, n = _worst(
        (op.norm(Ut - powers[n]), du0 * np.sqrt(t + (n - t) ** 2), float(t), int(n))
        for t, Ut in zip(ts, map(traj.at, ts)) for n in ns
    )
    yield (lhs, rhs, traj.err_at(ts),
           {"t": t, "n": n, "grid": [len(ts), len(ns)]})


def _check_convvn(op, ode_tol, *, horizon=50.0, n_values=None):
    N = _last_n("convvn", horizon, 2)
    if n_values is None:
        n_values = _log_ints(max(2, N // 100), N, 4)
    n_values = _within("convvn", "n_values", n_values, 1, N)
    traj = _shared(continuous.integrate_U, op, np.zeros(op.dim), float(N), tol=ode_tol)
    _, vn = _shared(discrete.iterate_Vn, op, N)
    j0 = op.norm(op.J(np.zeros(op.dim)))
    for n in n_values:
        yield (op.norm(traj.at(float(n)) / n - vn[n - 1]), j0 / np.sqrt(n),
               traj.err_at(float(n)) / n, {"n": n})


def _check_expo(op, ode_tol, *, horizon=50.0, starts=None):
    T = horizon
    m_values = (25, 100, 400, 1600)
    (U0,) = _starts(op, starts, 1.0)
    traj = _shared(continuous.integrate_U, op, U0, T, tol=ode_tol)
    a0 = op.norm(apply_A(op, U0))
    endpoint, err = traj.points[-1], traj.err_at(T)
    measured = []
    for m in m_values:
        if m < T:
            continue
        measured.append(op.norm(continuous.euler_power(op, T, m, U0) - endpoint))
        yield measured[-1], a0 * T / np.sqrt(m), err, {"m": m, "T": T}
    # measured errors should also decrease with m (up to integrator noise)
    if len(measured) >= 2:
        yield (_worst_increase(measured), 0.0, 2.0 * err,
               {"aspect": "monotone_in_m", "m_values": list(m_values)})


def _random_steps(rng):
    n = int(rng.integers(10, 201))
    lam = rng.uniform(0.0, 1.0, size=n)
    lam[lam <= 1e-9] = 1e-9  # steps must stay in (0, 1]
    return discrete.StepSequence(lam)


def _check_kobayashi(op, ode_tol, *, seed=0, starts=None, pairs=20):
    rng = np.random.default_rng(seed)
    x0, xhat0 = _starts(op, starts, 0.0, 1.0)
    for p in range(pairs):
        s1 = _random_steps(rng)
        s2 = _random_steps(rng)
        o1 = discrete.euler_scheme(op, x0, s1)
        o2 = discrete.euler_scheme(op, xhat0, s2)
        bound = discrete.kobayashi_rhs(op, x0, xhat0, s1, s2)
        ks = np.unique(np.linspace(0, len(s1), 10).astype(int))
        ls = np.unique(np.linspace(0, len(s2), 10).astype(int))
        lhs, rhs, k, l = _worst(
            (op.norm(o1.points[k] - o2.points[l]), bound[k, l], int(k), int(l))
            for k in ks for l in ls
        )
        yield (lhs, rhs, 0.0,
               {"pair": p, "k": k, "l": l, "lengths": [len(s1), len(s2)]})


def _euler_vs_flow(op, ode_tol, check, count, horizon, steps, starts):
    """Euler orbit x and flow U from one start, compared at count indices k:
    the (k, sigma_k, ||x_k - U(sigma_k)||, the flow's error bound there),
    the steps and ||A(x_0)||."""
    if steps is None:
        steps = discrete.StepSequence.harmonic(_last_n(check, horizon, 1))
    else:
        steps = _ending_at(steps, horizon)
    (x0,) = _starts(op, starts, 1.0)
    orbit = discrete.euler_scheme(op, x0, steps)
    traj = _shared(continuous.integrate_U, op, x0, float(steps.sigma[-1]), tol=ode_tol)
    gaps = []
    for k in np.unique(np.linspace(1, len(steps), count).astype(int)):
        t = float(steps.sigma[k])
        gaps.append((int(k), t, op.norm(orbit.points[k] - traj.at(t)), traj.err_at(t)))
    return gaps, steps, op.norm(apply_A(op, x0))


def _check_euler_vs_ode(op, ode_tol, *, horizon=50.0, steps=None, starts=None):
    gaps, steps, a0 = _euler_vs_flow(op, ode_tol, "euler_vs_ode", 12, horizon, steps, starts)
    for k, t, gap, err in gaps:
        yield (gap, a0 * np.sqrt((steps.sigma[k] - t) ** 2 + steps.tau[k]),
               err, {"k": k, "t": t})


def _check_normalized_euler(op, ode_tol, *, horizon=50.0, steps=None, starts=None):
    # sigma_k > 0 for k >= 1, and the same start gives ||x0 - U0|| = 0
    gaps, _, a0 = _euler_vs_flow(op, ode_tol, "normalized_euler", 8, horizon, steps, starts)
    for k, t, gap, err in gaps:
        yield gap / t, a0 * np.sqrt(t) / t, err / t, {"k": k, "t": t}


def _check_interpolation(op, ode_tol, *, horizon=50.0, steps=None, starts=None):
    T = horizon
    (x0,) = _starts(op, starts, 1.0)
    if steps is None:
        # n steps of T/n, each at most 1: their sigma_N drifts from T as n
        # grows, past 1e-9 at large T, and the reads below stop at it
        n = max(100, math.ceil(T))
        steps = discrete.StepSequence.constant(T / n, n)
    else:
        steps = _ending_at(steps, horizon)
    orbit = discrete.euler_scheme(op, x0, steps)
    traj = _shared(continuous.integrate_U, op, x0, T, tol=ode_tol)
    a0 = op.norm(apply_A(op, x0))
    max_step = float(np.max(steps.steps))
    # both are read up to sigma_N, which may fall short of T
    times = np.minimum(np.linspace(0.0, T, 33), steps.sigma[-1])
    yield (max(op.norm(discrete.euler_interpolant(orbit, t) - traj.at(t)) for t in times),
           a0 * (1.0 + (1.0 + np.sqrt(2.0)) * T) * np.sqrt(max_step),
           traj.err_at(times), {"max_step": max_step, "T": T})


def _check_stationarity_gap(op, ode_tol, *, horizon=50.0, param, starts=None):
    (u0,) = _starts(op, starts, 1.0)
    traj = _shared(continuous.integrate_u, op, param, u0, horizon, tol=ode_tol)
    for t in map(float, _log_points(horizon, 8)):
        lam, u = param.value(t), traj.at(t)
        # u' = Phi(lam, u) - u is (2 - lam)-Lipschitz in u
        yield (_vlambda_gap(op, u, lam),
               op.norm(apply_Phi(op, lam, u) - u) / lam,
               VLAMBDA_TOL + traj.err_at(t) * (1.0 + 2.0 / lam),
               {"t": t, "lambda": lam})


def _check_constant_decay(op, ode_tol, *, horizon=50.0, param=continuous.Constant(0.5),
                          starts=None):
    if not isinstance(param, continuous.Constant):
        raise InputError("constant_decay needs a Constant parametrization")
    lam = param.lam
    (u0,) = _starts(op, starts, 1.0)
    traj = _shared(continuous.integrate_u, op, param, u0, horizon, tol=ode_tol)
    du0 = op.norm(traj.derivative[0])
    v = _shared(discrete.solve_vlambda, op, lam)
    for t in (1.0, 5.0, 10.0, 20.0):
        if t > horizon:
            continue
        decay, u, err = np.exp(-lam * t), traj.at(t), traj.err_at(t)
        yield (op.norm(apply_Phi(op, lam, u) - u), du0 * decay, 4.0 * err,
               {"t": t, "aspect": "derivative"})
        yield op.norm(u - v), du0 * decay / lam, VLAMBDA_TOL + err, {"t": t, "aspect": "gap"}


def _check_initial_independence(op, ode_tol, *, horizon=50.0, param, starts=None):
    T = horizon
    x0, x1 = _starts(op, starts, 0.0, 1.0)
    t1 = _shared(continuous.integrate_u, op, param, x0, T, tol=ode_tol)
    t2 = _shared(continuous.integrate_u, op, param, x1, T, tol=ode_tol)
    d0 = op.norm(x0 - x1)
    times = _log_points(T, 8)
    budget = t1.err_at(times) + t2.err_at(times)
    gaps = []
    for t in times:
        gaps.append(op.norm(t1.at(t) - t2.at(t)))
        yield gaps[-1], d0 * np.exp(-param.integral(float(t))), budget, {"t": float(t)}
    yield _decay(gaps, budget,
                 {"aspect": "decay", "t0": float(times[0]), "t1": float(times[-1])})


def _vn_decay(op, ode_tol, N, param, u0, points_key=None, **ctx):
    """Decay of ||u(n) - v_n|| along n = N/100 .. N."""
    traj = _shared(continuous.integrate_u, op, param, u0, float(N), tol=ode_tol)
    _, vn = _shared(discrete.iterate_Vn, op, N)
    ns = _log_ints(max(1, N // 100), N, 6)
    gaps = [op.norm(traj.at(float(n)) - vn[n - 1]) for n in ns]
    if points_key:
        ctx[points_key] = ns
    return _decay(gaps, 2.0 * traj.err_at(ns),
                  {"gaps": [float(g) for g in gaps], **ctx})


def _vlambda_decay(op, ode_tol, horizon, param, u0, points_key=None, **ctx):
    """Decay of ||u(t) - v_lam(t)|| along t = T/100 .. T, T the horizon."""
    traj = _shared(continuous.integrate_u, op, param, u0, horizon, tol=ode_tol)
    times = _log_points(horizon, 6)
    gaps = [_vlambda_gap(op, traj.at(t), param.value(t)) for t in times]
    if points_key:
        ctx[points_key] = [float(t) for t in times]
    return _decay(gaps, VLAMBDA_TOL + 2.0 * traj.err_at(times),
                  {"gaps": [float(g) for g in gaps], **ctx})


def _check_wn_tracks_vn(op, ode_tol, *, horizon=50.0, param=continuous.InverseTimeZeta(),
                        starts=None):
    N = _last_n("wn_tracks_vn", horizon, 2)
    (u0,) = _starts(op, starts, 0.0)
    yield _vn_decay(op, ode_tol, N, param, u0, points_key="n_values")


def _check_convboth(op, ode_tol, *, horizon=50.0):
    N = _last_n("convboth", horizon, 3)
    _, vn = _shared(discrete.iterate_Vn, op, N)
    if isinstance(op, core.Translation):
        # for a translation U'(t) = c for every t, so l = c
        l = op.c
        yield op.norm(vn[-1] - l), 0.0, 0.0, {"family": "v_n", "N": N}
        for lam in [0.5, 0.1, 0.01]:
            yield (_vlambda_gap(op, l, lam), 0.0, VLAMBDA_TOL,
                   {"family": "v_lambda", "lambda": lam})
    elif isinstance(op, shapley.ShapleyOperator):
        # a finite stochastic game's v_n and v_lam share one limit (Bewley &
        # Kohlberg 1976), so ||v_n - v_{1/n}|| -> 0; n starts at 2, since
        # v_1 = J(0) = v_{lam=1} makes the gap at n = 1 exactly 0, and the
        # decay needs a second n
        ns = _log_ints(max(2, N // 100), N, 6)
        gaps = [_vlambda_gap(op, vn[n - 1], 1.0 / n) for n in ns]
        ctx = {"family": "v_n - v_1/n", "n_values": ns, "gaps": [float(g) for g in gaps]}
        if not any(gaps):
            ctx["note"] = "every gap is 0"
        yield _decay(gaps, 2.0 * VLAMBDA_TOL, ctx)


def _check_hypothesis_H(op, ode_tol, *, seed=0):
    C = op.h_constant()
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(SAMPLES):
        x = core.sample_ball(rng, op.dim, op.norm_kind)
        lam, mu = rng.uniform(1e-3, 1.0, size=2)
        pairs.append((op.norm(apply_Phi(op, lam, x) - apply_Phi(op, mu, x)),
                      abs(lam - mu) * (C + op.norm(x))))
    violations = sum(lhs > rhs + BASE_TOL for lhs, rhs in pairs)
    yield (*_worst(pairs), 0.0,
           {"samples": SAMPLES, "violations": violations, "C": C})


def _check_slow_param(op, ode_tol, *, horizon=50.0, param, starts=None):
    (u0,) = _starts(op, starts, 1.0)
    traj = _shared(continuous.integrate_u, op, param, u0, horizon, tol=ode_tol)
    for t in _log_points(horizon, 5):
        yield (_vlambda_gap(op, traj.at(t), param.value(t)),
               continuous.slow_param_bound(op, param, u0, float(t)),
               VLAMBDA_TOL + continuous.QUAD_TOL + traj.err_at(t),
               {"t": float(t)})


def _check_convder_decay(op, ode_tol, *, horizon=50.0, param, starts=None):
    (u0,) = _starts(op, starts, 1.0)
    yield _vlambda_decay(op, ode_tol, horizon, param, u0, points_key="t_values")


def _check_two_param(op, ode_tol, *, horizon=50.0, param, param2, starts=None, case=None):
    lam_p, mu_p = param, param2
    T = horizon
    x0, x1 = _starts(op, starts, 0.0, 1.0)
    tu = _shared(continuous.integrate_u, op, lam_p, x0, T, tol=ode_tol)
    tv = _shared(continuous.integrate_u, op, mu_p, x1, T, tol=ode_tol)
    C = op.h_constant()
    d0 = op.norm(x0 - x1)
    u_bound = max(op.norm(p) for p in tu.points)  # finite-horizon surrogate for "u bounded"
    times = _log_points(T, 6)

    def integrand(s):
        return ((C + op.norm(tu.at(s))) * abs(lam_p.value(s) - mu_p.value(s))
                * np.exp(mu_p.integral(s)))

    # I(t) = int_0^t integrand piecewise between the read times and the
    # kinks of lam and mu, each piece to QUAD_TOL (b - a)/T + QUAD_TOL x
    # itself: I(t) is off by <= QUAD_TOL (1 + I(t)), so the rhs
    # exp(-int_0^t mu) (d0 + I(t)) by <= QUAD_TOL (1 + rhs)
    kinks = [k for k in (*lam_p.kinks(), *mu_p.kinks()) if 0.0 < k < T]
    edges = sorted({0.0, *map(float, times), *kinks})
    cum = {0.0: 0.0}
    for a, b in zip(edges, edges[1:]):
        cum[b] = cum[a] + continuous._adaptive_simpson(
            integrand, a, b, continuous.QUAD_TOL * (b - a) / T, rel=continuous.QUAD_TOL)
    for t in map(float, times):
        rhs = np.exp(-mu_p.integral(t)) * (d0 + cum[t])
        yield (op.norm(tu.at(t) - tv.at(t)), rhs,
               tu.err_at(t) + tv.err_at(t) + continuous.QUAD_TOL * (1.0 + rhs),
               {"t": t, "u_bound_observed": u_bound})
    if case is not None:
        ends = (times[0], times[-1])
        gaps = [op.norm(tu.at(t) - tv.at(t)) for t in ends]
        yield _decay(gaps, tu.err_at(ends) + tv.err_at(ends),
                     {"aspect": "decay", "case": case, "u_bound_observed": u_bound,
                      "note": "boundedness checked over finite horizon only"})


def _check_vlambda_lipschitz(op, ode_tol):
    C = op.h_constant()
    Cp = op.norm(op.J(np.zeros(op.dim)))
    lams = np.geomspace(0.02, 1.0, 10)
    values = {lam: _shared(discrete.solve_vlambda, op, lam) for lam in lams}
    for lam, mu in zip(lams, lams[1:]):
        yield (op.norm(values[lam] - values[mu]), abs(1.0 - lam / mu) * (C + Cp),
               2.0 * VLAMBDA_TOL, {"lambda": float(lam), "mu": float(mu)})


def _check_discrete_slow(op, ode_tol, *, horizon=50.0):
    N = _last_n("discrete_slow", horizon, 2)
    steps = discrete.StepSequence.inverse_sqrt(N)
    orbit = discrete.phi_recursion(op, steps)
    ns = _log_ints(max(1, N // 100), N, 5)
    gaps = [_vlambda_gap(op, orbit.points[n], float(steps.steps[n - 1])) for n in ns]
    yield _decay(gaps, 2.0 * VLAMBDA_TOL,
                 {"n_values": ns, "gaps": [float(g) for g in gaps]})


def _check_alpha_family(op, ode_tol, *, horizon=50.0, starts=None):
    N = _last_n("alpha_family", horizon, 2)
    alpha = 0.5
    (u0,) = _starts(op, starts, 0.0)
    # alpha in (0, 1): u tracks the discounted family; alpha = 0: u(n) tracks v_n
    yield _vlambda_decay(op, ode_tol, horizon, continuous.PowerAlpha(alpha), u0,
                         alpha=alpha, aspect="v_lambda_tracking")
    yield _vn_decay(op, ode_tol, N, continuous.PowerAlpha(0.0), u0,
                    alpha=0.0, aspect="v_n_tracking")


#: the registry, in its order: a check's id is its function's name less _check_
CHECKS = {fn.__name__.removeprefix("_check_"): fn for fn in (
    _check_norm_bounds, _check_accretivity, _check_solution_contraction,
    _check_derivative_decay, _check_chernoff, _check_convvn, _check_expo,
    _check_kobayashi, _check_euler_vs_ode, _check_normalized_euler,
    _check_interpolation, _check_stationarity_gap, _check_constant_decay,
    _check_initial_independence, _check_wn_tracks_vn, _check_convboth,
    _check_hypothesis_H, _check_slow_param, _check_convder_decay, _check_two_param,
    _check_vlambda_lipschitz, _check_discrete_slow, _check_alpha_family,
)}


def _check(name):
    """The registry check called name."""
    if name not in CHECKS:
        raise InputError(f"unknown check {name!r}")
    return CHECKS[name]


def per_check(checks, operator, inputs, readers):
    """(check, Scenario) for each of checks, each scenario holding the
    operator and only the inputs its check takes; an input that none of
    them takes is an InputError, which names it once.  Only then is each
    input that has an entry in readers converted by it, once for all the
    checks."""
    takes = [keys(_check(check)) for check in checks]
    unread = sorted(set(inputs).difference(*takes))
    if unread:
        known = dict.fromkeys(k for t in takes for k in t)
        raise InputError(f"{', '.join(unread)}: not a key of {' or '.join(checks)}, "
                         f"whose keys are {', '.join(known) or 'none'}")
    inputs = {k: convert(readers[k], v, k) if k in readers else v for k, v in inputs.items()}
    return [(check, Scenario(operator, **{k: v for k, v in inputs.items() if k in t}))
            for check, t in zip(checks, takes)]


def verify(check, scenario, ode_tol=ODE_TOL):
    """Run one registry check on a scenario, its flows integrated to
    ode_tol; returns a nonempty list of BoundReports, one per inequality
    the check yields, labelled with the check id and the scenario name.
    Each report's tol_budget is the one rounding allowance, 1e-9, plus the
    certified error the check yields.

    The check's inputs are bound here by bind, each through its READERS
    entry.  An ode_tol that is not positive and finite, an input the
    scenario gives that the check does not take, a required one it does
    not give, and a check that yields nothing (every point it would test
    lies outside the scenario: it has verified nothing) raise InputError."""
    fn = _check(check)
    ode_tol = convert(core.positive, ode_tol, "ode_tol")
    kwargs = bind(fn, READERS, scenario.inputs, set(scenario.inputs), check)
    reports = []
    for lhs, rhs, budget, context in fn(scenario.operator, ode_tol, **kwargs):
        lhs, rhs, tol_budget = float(lhs), float(rhs), BASE_TOL + float(budget)
        reports.append(BoundReport(check, lhs, rhs, rhs - lhs, tol_budget,
                                   lhs <= rhs + tol_budget,
                                   {"scenario": scenario.name, **context}))
    if not reports:
        raise InputError(f"{check}: no report on scenario {scenario.name!r}")
    return reports


def run_checks(pairs, ode_tol=ODE_TOL):
    """verify on each (check, Scenario) pair, in order, to ode_tol; returns
    the flat list of reports.

    The checks of one call share their solves: every integrate_U,
    integrate_u, solve_vlambda and iterate_Vn call they make goes through
    _shared, and a call with the key of an earlier one gets the earlier
    result itself, not a copy, so no check may write into one.  The key is
    the solver itself and each argument: the operator and a
    parametrization by identity, an array by dtype, shape and bytes, a
    float by its bits (a start of -0.0 is not one of 0.0) and an int by
    value.  Each entry holds its arguments, so no id in a key is reused
    while the memo lives: alpha_family's PowerAlpha(0.5) is dropped before
    its PowerAlpha(0.0) is built, and could otherwise lend it its id and
    its flow.  The memo lives for this call alone and is dropped when it
    returns or raises; verify called outside run_checks shares nothing."""
    token = _SHARED.set({})
    try:
        return [r for check, scenario in pairs for r in verify(check, scenario, ode_tol)]
    finally:
        _SHARED.reset(token)


# ---------------------------------------------------------------------------
# the default suite

def suite_plan():
    """(check, scenario) pairs for the default verification suite.

    Every registry entry runs on at least one closed-form operator and one
    Shapley game.
    """
    tr = core.Translation([1.0])
    rot = core.rotation(np.pi / 6.0)
    pen = shapley.ShapleyOperator(shapley.matching_pennies())
    rnd = shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))
    pa = continuous.PowerAlpha(0.5)
    itz = continuous.InverseTimeZeta()
    pa0 = continuous.PowerAlpha(0.0)
    table_const = continuous.Table([(0.0, 0.6), (5.0, 0.5), (6.0, 0.5)])
    harmonic = discrete.StepSequence.harmonic(100)
    inverse_sqrt = discrete.StepSequence.inverse_sqrt(100)

    S = Scenario

    plan = [
        ("norm_bounds", S(tr, horizon=100)),
        ("norm_bounds", S(rnd, horizon=100)),
        ("accretivity", S(tr)),
        ("accretivity", S(rot)),
        ("accretivity", S(rnd)),
        ("solution_contraction", S(rot, horizon=20)),
        ("solution_contraction", S(rnd, horizon=20)),
        ("derivative_decay", S(rot, horizon=20)),
        ("derivative_decay", S(rnd, horizon=20)),
        ("chernoff", S(tr, horizon=25)),
        ("chernoff", S(rnd, horizon=25)),
        ("convvn", S(tr, horizon=100)),
        ("convvn", S(rnd, horizon=100)),
        ("expo", S(rot, horizon=5)),
        ("expo", S(rnd, horizon=5)),
        ("kobayashi", S(rot, pairs=5)),
        ("kobayashi", S(rnd, pairs=5)),
        ("euler_vs_ode", S(rot, horizon=float(harmonic.sigma[-1]), steps=harmonic)),
        ("euler_vs_ode", S(rnd, horizon=float(inverse_sqrt.sigma[-1]), steps=inverse_sqrt)),
        ("normalized_euler", S(rot, horizon=100)),
        ("normalized_euler", S(rnd, horizon=100)),
        ("interpolation", S(rot, horizon=10)),
        ("interpolation", S(rnd, horizon=10)),
        ("stationarity_gap", S(tr, horizon=50, param=pa)),
        ("stationarity_gap", S(rnd, horizon=50, param=pa)),
        ("constant_decay", S(tr, horizon=20, param=continuous.Constant(0.5))),
        ("constant_decay", S(rnd, horizon=20, param=continuous.Constant(0.5))),
        ("initial_independence", S(tr, horizon=50, param=pa)),
        ("initial_independence", S(rnd, horizon=50, param=pa)),
        ("wn_tracks_vn", S(tr, horizon=200)),
        ("wn_tracks_vn", S(rnd, horizon=200)),
        ("convboth", S(tr, horizon=100)),
        ("convboth", S(rnd, horizon=100)),
        ("hypothesis_H", S(tr)),
        ("hypothesis_H", S(rnd)),
        ("slow_param", S(pen, horizon=100, param=pa)),
        ("slow_param", S(rnd, horizon=100, param=pa)),
        ("convder_decay", S(tr, horizon=100, param=pa)),
        ("convder_decay", S(rnd, horizon=100, param=pa)),
        ("two_param", S(tr, horizon=100, param=itz, param2=pa0, case="a")),
        ("two_param", S(rnd, horizon=100, param=itz, param2=pa0, case="a")),
        ("two_param", S(rnd, horizon=50, param=continuous.Constant(0.5),
                        param2=table_const, case="b")),
        ("vlambda_lipschitz", S(tr)),
        ("vlambda_lipschitz", S(rnd)),
        ("discrete_slow", S(tr, horizon=2000)),
        ("discrete_slow", S(rnd, horizon=2000)),
        ("alpha_family", S(tr, horizon=100)),
        ("alpha_family", S(rnd, horizon=100)),
    ]
    return plan


def run_suite(ode_tol=ODE_TOL):
    """Run the default suite to ode_tol; returns the flat list of reports."""
    return run_checks(suite_plan(), ode_tol)
