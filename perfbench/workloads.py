"""The benchmark's three workloads.

Each workload has ``build(seed)``, the set-up that makes its inputs,
``run_pass(inputs, tracer, out_dir, keep)``, one pass over all of its tasks
(keeping the outputs only when ``keep`` is set), and
``check_task`` / ``check_pass``, the output checks, which run after the
timed passes.  A task is the unit behind the percentiles; its CPU time is
taken on the thread CPU clock around the call into opdyn.

The program receives only generated inputs (games, operators, start
points), never the seed.  Every call goes through the opdyn module
attribute, so a tracer installed on the module sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from opdyn import bounds, cli, continuous, core, discrete, shapley


#: one calibration chunk runs this many sweeps of the kernel below
CAL_SWEEPS = 60
#: nominal CPU seconds of one chunk: adjusted times are CPU seconds scaled to
#: a host on which a chunk takes exactly this long
CAL_REF_S = 0.009

_CAL_PAYOFF = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.3], [-0.2, 0.2, 0.1]])
_CAL_MOVE = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])


def _cal_game_value(rows):
    """Value of a small matrix game: Bland-rule simplex on Python lists."""
    m, n = len(rows), len(rows[0])
    shift = 1.0 - min(min(r) for r in rows)
    width = n + m + 1
    T = [[0.0] * width for _ in range(m + 1)]
    for i in range(m):
        T[i][:n] = [x + shift for x in rows[i]]
        T[i][n + i] = 1.0
        T[i][-1] = 1.0
    T[m][:n] = [-1.0] * n
    while True:
        j = next((k for k in range(width - 1) if T[m][k] < -1e-12), -1)
        if j < 0:
            return 1.0 / T[m][-1] - shift
        i, best = -1, 0.0
        for k in range(m):
            a = T[k][j]
            if a > 1e-12 and (i < 0 or T[k][-1] / a < best):
                i, best = k, T[k][-1] / a
        piv = T[i][j]
        T[i] = [x / piv for x in T[i]]
        for k in range(m + 1):
            f = T[k][j]
            if k != i and f != 0.0:
                T[k] = [a - f * b for a, b in zip(T[k], T[i])]


def calibration_chunk():
    """CPU seconds of a fixed kernel shaped like opdyn's hot path: a
    validated state vector and, per state, a small matrix game solved by a
    list-based simplex.  It is frozen here and never calls opdyn, so it
    measures how fast the host runs this kind of code right now, not the
    program."""
    x = np.zeros(3)
    c0 = time.thread_time()
    for _ in range(CAL_SWEEPS):
        v = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("calibration kernel diverged")
        out = np.empty(3)
        for s in range(3):
            out[s] = _cal_game_value((_CAL_PAYOFF + 0.1 * (_CAL_MOVE[s] @ v)).tolist())
        x = 0.5 * out
    return time.thread_time() - c0


@dataclass
class Task:
    label: str
    cpu_s: float
    wall_s: float
    digest: str
    output: object = None
    error: str = ""
    group: str | None = None


@dataclass
class PassResult:
    """One pass.  chunks[0] ran just before the first task and chunks[i + 1]
    just after task i; their CPU time is not part of cpu_s's work."""

    tasks: list
    cpu_s: float
    wall_s: float
    chunks: list
    info: dict = field(default_factory=dict)

    @property
    def work_cpu_s(self):
        return self.cpu_s - sum(self.chunks[1:])

    @property
    def factor(self):
        """Host-speed factor of the pass: CAL_REF_S over its mean chunk.  The
        mean, like the pass's own time, adds up the slow and fast moments;
        the median would follow whichever the host spent most chunks in."""
        return CAL_REF_S / statistics.mean(self.chunks)

    @property
    def adjusted_s(self):
        return self.work_cpu_s * self.factor

    def adjusted_task_s(self):
        return [t.cpu_s * self.factor for t in self.tasks]


class _NoTracer:
    task = -1


NO_TRACER = _NoTracer()


def digest(*parts):
    """Hash of arrays, numbers and strings, to compare outputs across passes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def measure(chunks, fn):
    """Call fn(), then run one calibration chunk and append it to chunks.

    Returns (output, exc, cpu_s, wall_s) of the call, where exc is the
    exception fn raised or None."""
    output = exc = None
    w0, c0 = time.perf_counter(), time.thread_time()
    try:
        output = fn()
    except Exception as err:  # the caller records it as a failed task
        exc = err
    c1, w1 = time.thread_time(), time.perf_counter()
    chunks.append(calibration_chunk())
    return output, exc, c1 - c0, w1 - w0


def timed_task(tracer, chunks, index, label, fn, fingerprint, keep):
    """Run one task, timing only the call fn(); failures are recorded."""
    tracer.task = index
    output, exc, cpu, wall = measure(chunks, fn)
    if exc is not None:
        return Task(label, cpu, wall, "", error=_error_text(exc))
    return Task(label, cpu, wall, fingerprint(output), output if keep else None)


def interleaved(items):
    """items in a fixed golden-ratio stride order, so that neighbouring
    tasks, which have similar costs and set the percentiles, run spread over
    the whole pass instead of in one stretch of it."""
    n = len(items)
    stride = next(k for k in range(round(0.618 * n), n) if math.gcd(k, n) == 1)
    return [items[i * stride % n] for i in range(n)]


def timed_pass(body):
    """Run body(chunks) -> (tasks, info) as one timed pass."""
    chunks = [calibration_chunk()]
    w0, c0 = time.perf_counter(), time.thread_time()
    tasks, info = body(chunks)
    c1, w1 = time.thread_time(), time.perf_counter()
    return PassResult(tasks, c1 - c0, w1 - w0, chunks, info)


# ---------------------------------------------------------------------------
# paper-suite: the 23 registry checks on the preset's 48 plan entries

class PaperSuite:
    """``opdyn suite --preset paper-suite``, run in-process through cli.main.

    One task is one plan entry, timed by wrapping ``bounds.verify``.  The
    preset fixes the inputs, so the seed is unused.
    """

    name = "paper-suite"
    PLAN_ENTRIES = 48
    REPORTS = 208

    def build(self, seed):
        return bounds.suite_plan()

    def run_pass(self, plan, tracer, out_dir, keep):
        def body(chunks):
            tasks = []
            inner = bounds.verify

            def timed_verify(check, scenario, settings=None):
                index = len(tasks)
                label = f"{index:02d}:{check}:{scenario.name}"
                tracer.task = index
                reports, exc, cpu, wall = measure(
                    chunks, lambda: inner(check, scenario, settings))
                if exc is not None:
                    tasks.append(Task(label, cpu, wall, "",
                                      error=_error_text(exc), group=check))
                    raise exc
                dicts = [r.to_dict() for r in reports]
                tasks.append(Task(label, cpu, wall,
                                  digest(json.dumps(dicts, sort_keys=True,
                                                    default=cli._json_default)),
                                  dicts if keep else None, group=check))
                return reports

            bounds.verify = timed_verify
            try:
                code = cli.main(["suite", "--preset", "paper-suite", "--out", out_dir])
            finally:
                bounds.verify = inner
            return tasks, {"exit_code": code}

        result = timed_pass(body)
        files = {}
        for fname in ("reports.json", "reports.csv"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                files[fname] = fh.read()
        result.info["digests"] = {k: digest(v) for k, v in files.items()}
        if keep:
            result.info["reports"] = json.loads(files["reports.json"])
        return result

    def check_task(self, plan, task):
        failing = [r["check"] for r in task.output if r["verdict"] != "pass"]
        if failing:
            return f"{len(failing)} report(s) with verdict fail"
        return ""

    def check_pass(self, plan, result, first):
        problems = []
        if result.info["exit_code"] != 0:
            problems.append(f"cli exit code {result.info['exit_code']}")
        if len(result.tasks) != self.PLAN_ENTRIES:
            problems.append(f"{len(result.tasks)} of {self.PLAN_ENTRIES} plan entries ran")
        if result is first:
            reports = result.info["reports"]
            if len(reports) != self.REPORTS:
                problems.append(f"{len(reports)} reports, expected {self.REPORTS}")
            if any(r["verdict"] != "pass" for r in reports):
                problems.append("reports.json holds a failing verdict")
        elif result.info["digests"] != first.info["digests"]:
            problems.append("reports.json/reports.csv differ from the first pass")
        return problems


# ---------------------------------------------------------------------------
# discounted-grid: cold v_lambda solves on a geometric lambda grid

@dataclass
class GridInputs:
    game: shapley.StochasticGame
    op: shapley.ShapleyOperator
    lambdas: list


class DiscountedGrid:
    """Cold ``solve_vlambda(tol=1e-10, full=True)`` on a seeded game with 4x4
    matrix games, at 41 geometric lambda points from 0.5 to 0.025 (run in
    interleaved order), plus one ``iterate_Vn`` orbit.  One task is one solve
    (or the orbit)."""

    name = "discounted-grid"
    STATES, ROWS, COLS = 8, 4, 4
    LAMBDAS = (0.5, 0.025, 41)
    TOL = 1e-10
    ORBIT = 500
    ORBIT_CHECKS = 12

    def build(self, seed):
        rng = np.random.default_rng(seed)
        S, m, n = self.STATES, self.ROWS, self.COLS
        payoff = [rng.uniform(-1.0, 1.0, size=(m, n)) for _ in range(S)]
        transition = []
        for _ in range(S):
            raw = rng.uniform(0.0, 1.0, size=(m, n, S)) + 1e-3
            transition.append(raw / raw.sum(axis=-1, keepdims=True))
        game = shapley.StochasticGame(
            states=[f"s{i}" for i in range(S)],
            actions=[(m, n)] * S,
            payoff=payoff,
            transition=transition,
        )
        lambdas = interleaved([float(x) for x in np.geomspace(*self.LAMBDAS)])
        return GridInputs(game, shapley.ShapleyOperator(game), lambdas)

    def run_pass(self, inp, tracer, out_dir, keep):
        def body(chunks):
            tasks = []
            for i, lam in enumerate(inp.lambdas):
                tasks.append(timed_task(
                    tracer, chunks, i, self._label(lam),
                    lambda lam=lam: discrete.solve_vlambda(inp.op, lam, tol=self.TOL, full=True),
                    lambda r: digest(r.v, r.V, r.iterations, r.certified_error), keep))
            tasks.append(timed_task(
                tracer, chunks, len(tasks), f"iterate_Vn:N={self.ORBIT}",
                lambda: discrete.iterate_Vn(inp.op, self.ORBIT),
                lambda r: digest(r[0].points, r[1]), keep))
            return tasks, {}

        return timed_pass(body)

    @staticmethod
    def _label(lam):
        return f"solve_vlambda:lam={lam:.6g}"

    def _oracle_J(self, game, f):
        """J(f) with the kernel-enumeration oracle; returns (J, oracle tol)."""
        values, tols = [], []
        for s in range(game.num_states):
            B = game.payoff[s] + game.transition[s] @ f
            values.append(shapley.matrix_game_value_oracle(B))
            tols.append(1e-9 * max(1.0, float(np.max(np.abs(B)))))
        return np.array(values), max(tols)

    def check_task(self, inp, task):
        if task.label.startswith("iterate_Vn"):
            return self._check_orbit(inp, task.output)
        lam = next(x for x in inp.lambdas if task.label == self._label(x))
        res = task.output
        if not res.certified_error <= self.TOL:
            return f"certified error {res.certified_error:.3g} above tol"
        J, oracle_tol = self._oracle_J(inp.game, (1.0 - lam) / lam * res.v)
        residual = float(np.max(np.abs(lam * J - res.v)))
        limit = (2.0 - lam) * self.TOL + lam * oracle_tol
        if not residual <= limit:
            return f"oracle residual {residual:.3g} > {limit:.3g}"
        return ""

    def _check_orbit(self, inp, output):
        orbit, vn = output
        V = orbit.points
        j0 = float(np.max(np.abs(self._oracle_J(inp.game, np.zeros(self.STATES))[0])))
        if np.max(np.abs(vn)) > j0 + 1e-9:
            return "|v_n| exceeds |J(0)|"
        for k in np.unique(np.geomspace(1, self.ORBIT, self.ORBIT_CHECKS).astype(int)):
            J, oracle_tol = self._oracle_J(inp.game, V[k - 1])
            gap = float(np.max(np.abs(J - V[k])))
            if not gap <= oracle_tol:
                return f"V_{k} differs from oracle J(V_{k - 1}) by {gap:.3g}"
        return ""

    def check_pass(self, inp, result, first):
        return []


# ---------------------------------------------------------------------------
# closed-form-flow: certified trajectories of closed-form operators

@dataclass
class FlowSpec:
    label: str
    op: core.Operator
    matrix: np.ndarray      # J(x) = matrix @ x + offset
    offset: np.ndarray
    param: continuous.Parametrization | None   # None: U' = J(U) - U
    lam: object             # the benchmark's own lambda(t), for the reference
    knots: tuple            # times where lambda(t) has a kink
    x0: np.ndarray
    T: float


@dataclass
class FlowInputs:
    specs: list


def _zeta_inverse(s):
    """Inverse of t + ln(1 + t) by bisection to machine precision."""
    lo, hi = 0.0, max(s, 1e-300)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + math.log1p(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class ClosedFormFlow:
    """``integrate_U`` and ``integrate_u`` (PowerAlpha(0.5), InverseTimeZeta,
    a seeded Table) at tol 1e-8.  Per flow, six tasks each get their own
    seeded sup-norm AffineNonexpansive map (dim 16, every absolute row sum
    1) and start, and four run rotation30 from seeded unit starts.  One task
    is one trajectory: the integration plus READS dense reads through
    ``Trajectory.at``."""

    name = "closed-form-flow"
    DIM = 16
    FLOWS = ("U", "power_alpha", "inverse_time_zeta", "table")
    AFFINE_TASKS = 6
    ROTATION_TASKS = 4
    HORIZONS = (17.0, 18.0, 19.0, 20.0)
    TABLE_TIMES = (0.0, 1.0, 3.0, 6.0, 10.0, 15.0)
    TOL = 1e-8
    READS = 2000
    CHECK_EVERY = 10
    #: accuracy granted to the DOP853 / expm reference itself
    REFERENCE_TOL = 1e-12

    def build(self, seed):
        rng = np.random.default_rng(seed)
        d = self.DIM
        theta = math.pi / 6.0
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        rotation = core.rotation(theta)
        specs = []
        for flow in self.FLOWS:
            for j in range(self.AFFINE_TASKS + self.ROTATION_TASKS):
                if j < self.AFFINE_TASKS:
                    M = rng.uniform(-1.0, 1.0, size=(d, d))
                    M /= np.sum(np.abs(M), axis=1, keepdims=True)
                    b = rng.uniform(-1.0, 1.0, size=d)
                    op = core.AffineNonexpansive(M, b, norm_kind=core.SUP)
                    x0 = rng.uniform(-1.0, 1.0, size=d)
                    name = f"affine{j}"
                else:
                    op, M, b = rotation, R, np.zeros(2)
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    x0 = np.array([math.cos(angle), math.sin(angle)])
                    name = f"rotation30:x{j - self.AFFINE_TASKS}"
                param, lam, knots = self._flow(flow, rng)
                T = self.HORIZONS[len(specs) % len(self.HORIZONS)]
                specs.append(FlowSpec(f"{flow}:{name}:T={T:g}", op, M, b,
                                      param, lam, knots, x0, T))
        return FlowInputs(interleaved(specs))

    def _flow(self, flow, rng):
        """(opdyn parametrization, the benchmark's own lambda(t), kink times)."""
        if flow == "U":
            return None, None, ()
        if flow == "power_alpha":
            return continuous.PowerAlpha(0.5), lambda t: (1.0 + t) ** -0.5, ()
        if flow == "inverse_time_zeta":
            return (continuous.InverseTimeZeta(),
                    lambda t: 1.0 / (2.0 + _zeta_inverse(t)), ())
        values = [rng.uniform(0.6, 1.0)]
        for _ in self.TABLE_TIMES[1:]:
            values.append(values[-1] * rng.uniform(0.5, 0.9))
        ts, vs = np.array(self.TABLE_TIMES), np.array(values)
        return (continuous.Table(list(zip(self.TABLE_TIMES, values))),
                lambda t: float(np.interp(t, ts, vs)), self.TABLE_TIMES[1:])

    def run_pass(self, inp, tracer, out_dir, keep):
        def body(chunks):
            tasks = []
            for i, spec in enumerate(inp.specs):
                tasks.append(timed_task(
                    tracer, chunks, i, spec.label, lambda spec=spec: self._trajectory(spec),
                    lambda r: digest(r[0].times, r[0].points, r[0].err_bound,
                                     r[0].derivative, r[1]), keep))
            return tasks, {}

        return timed_pass(body)

    def _trajectory(self, spec):
        if spec.param is None:
            traj = continuous.integrate_U(spec.op, spec.x0, spec.T, tol=self.TOL)
        else:
            traj = continuous.integrate_u(spec.op, spec.param, spec.x0, spec.T, tol=self.TOL)
        reads = np.array([traj.at(t) for t in self.read_times(spec)])
        return traj, reads

    def read_times(self, spec):
        return np.linspace(0.0, spec.T, self.READS)

    def reference(self, spec, ts):
        """Exact flow at times ts: expm for U, DOP853 at rtol 1e-13 for u."""
        from scipy.integrate import solve_ivp
        from scipy.linalg import expm

        d = spec.x0.size
        if spec.param is None:
            G = np.zeros((d + 1, d + 1))
            G[:d, :d] = spec.matrix - np.eye(d)
            G[:d, d] = spec.offset
            y0 = np.append(spec.x0, 1.0)
            return np.array([(expm(t * G) @ y0)[:d] for t in ts])

        def rhs(t, u):
            lam = spec.lam(t)
            return (1.0 - lam) * (spec.matrix @ u) + lam * spec.offset - u

        edges = [0.0] + [k for k in spec.knots if 0.0 < k < spec.T] + [spec.T]
        out = np.empty((len(ts), d))
        y = spec.x0.astype(float)
        for a, b in zip(edges, edges[1:]):
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13,
                            atol=1e-14, dense_output=True)
            if not sol.success:
                raise RuntimeError(f"reference solver failed: {sol.message}")
            sel = (ts >= a) & (ts <= b)
            out[sel] = sol.sol(ts[sel]).T
            y = sol.sol(b)
        return out

    def check_task(self, inp, task):
        spec = next(s for s in inp.specs if s.label == task.label)
        traj, reads = task.output
        ts = self.read_times(spec)[:: self.CHECK_EVERY]
        got = reads[:: self.CHECK_EVERY]
        ref = self.reference(spec, ts)
        k = np.clip(np.searchsorted(traj.times, ts, side="right") - 1, 0,
                    traj.times.size - 2)
        bound = np.maximum(traj.err_bound[k], traj.err_bound[k + 1])
        if spec.op.norm_kind == core.SUP:
            err = np.max(np.abs(got - ref), axis=1)
        else:
            err = np.linalg.norm(got - ref, axis=1)
        bad = np.flatnonzero(err > bound + self.REFERENCE_TOL)
        if bad.size:
            i = bad[np.argmax(err[bad] / bound[bad])]
            return (f"dense-output error {err[i]:.3g} > err_bound {bound[i]:.3g} "
                    f"at t={ts[i]:.6g}")
        return ""

    def check_pass(self, inp, result, first):
        return []


WORKLOADS = {w.name: w for w in (PaperSuite(), DiscountedGrid(), ClosedFormFlow())}
