"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to the stated values; tol_budget is the fixed 1e-9
that bounds.verify adds to the certified numerical errors a check yields
(integrator err_bound, fixed-point certificates).
"""

import json
import sys
import time

import numpy as np
import pytest

from opdyn import bounds, continuous, core, discrete, shapley


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{line} {detail}"


@pytest.fixture(scope="module")
def random3():
    return shapley.ShapleyOperator(shapley.random_game(3, 2, 2, (-1.0, 1.0), seed=7))


@pytest.fixture(scope="module")
def pennies():
    return shapley.ShapleyOperator(shapley.matching_pennies())


@pytest.fixture(scope="module")
def rotation30():
    return core.rotation(np.pi / 6.0)


@pytest.fixture(scope="module")
def slow_gaps_random3(random3):
    """Gaps ||u(t) - v_lam(t)|| for PowerAlpha(0.5) on random3, t in 10^k.

    Shared between criteria 7 and 9.
    """
    op = random3
    param = continuous.PowerAlpha(0.5)
    u0 = np.ones(3)
    traj = continuous.integrate_u(op, param, u0, 1000.0, tol=1e-5)
    gaps = {}
    for t in (10.0, 100.0, 1000.0):
        v = discrete.solve_vlambda(op, param.value(t), tol=1e-10)
        gaps[t] = op.norm(traj.at(t) - v)
    return param, u0, traj, gaps


def test_criterion_01_closed_form_exactness(tmp_path):
    t0 = time.perf_counter()
    op = core.Translation([1.0])
    _, vn = discrete.iterate_Vn(op, 1000)
    vn_exact = bool(np.all(vn == 1.0))
    vlam_ok = all(
        abs(discrete.solve_vlambda(op, lam, tol=1e-10)[0] - 1.0) <= 1e-9
        for lam in (1.0, 0.5, 0.1, 1e-3)
    )
    traj = continuous.integrate_U(op, np.zeros(1), 100.0, tol=1e-10)
    ode_ok = abs(traj.at(100.0)[0] - 100.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    report(1, "closed-form exactness on the translation preset",
           vn_exact and vlam_ok and ode_ok and elapsed < 1.0,
           f"(vn={vn_exact} vlam={vlam_ok} ode={ode_ok} {elapsed:.2f}s)")


def test_criterion_02_exponential_formula(rotation30, random3):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for op in (rotation30, random3):
        sc = bounds.Scenario(operator=op, horizon=5.0, m_values=[25, 100, 400, 1600])
        reps = bounds.verify("expo", sc, bounds.Settings(ode_tol=1e-8))
        ok &= all(r.verdict for r in reps)
        detail.extend(f"{r.context}: slack {r.slack:.3g}" for r in reps if not r.verdict)
    elapsed = time.perf_counter() - t0
    report(2, "exponential formula at T=5, m in {25,100,400,1600}",
           ok and elapsed < 10.0, f"({detail} {elapsed:.1f}s)")


def test_criterion_03_chernoff_and_convvn(random3):
    t0 = time.perf_counter()
    cher = bounds.verify(
        "chernoff",
        bounds.Scenario(operator=random3, horizon=50.0, grid=20, nmax=50),
        bounds.Settings(ode_tol=1e-6),
    )
    conv = bounds.verify(
        "convvn",
        bounds.Scenario(operator=random3, horizon=1000, n_values=[10, 100, 1000]),
        bounds.Settings(ode_tol=1e-5),
    )
    ok = all(r.verdict for r in cher + conv)
    elapsed = time.perf_counter() - t0
    report(3, "Chernoff 20x20 grid and convvn at n in {10,100,1000}",
           ok and elapsed < 30.0, f"({elapsed:.1f}s)")


def test_criterion_04_kobayashi(rotation30, random3):
    t0 = time.perf_counter()
    ok = True
    for op, seed in ((rotation30, 0), (random3, 1)):
        sc = bounds.Scenario(operator=op, seed=seed, pairs=50, subgrid=10)
        reps = bounds.verify("kobayashi", sc, bounds.Settings())
        ok &= all(r.verdict for r in reps)
    elapsed = time.perf_counter() - t0
    report(4, "Kobayashi-like inequality on 100 seeded step-sequence pairs",
           ok and elapsed < 30.0, f"({elapsed:.1f}s)")


def test_criterion_05_euler_vs_ode_and_interpolation(random3):
    op = random3
    settings = bounds.Settings(ode_tol=1e-7)
    ok = True
    for maker in (discrete.StepSequence.harmonic, discrete.StepSequence.inverse_sqrt):
        steps = maker(200)
        sc = bounds.Scenario(operator=op, horizon=float(steps.sigma[-1]),
                             steps=steps)
        reps = bounds.verify("euler_vs_ode", sc, settings)
        reps += bounds.verify("normalized_euler", sc, settings)
        ok &= all(r.verdict for r in reps)
    # interpolation bound holds at each refinement ...
    T = 10.0
    x0 = np.ones(3)
    traj = continuous.integrate_U(op, x0, T, tol=1e-7)
    gaps = []
    for n in (25, 100, 400):  # max step quartered across three refinements
        steps = discrete.StepSequence.constant(T / n, n)
        sc = bounds.Scenario(operator=op, horizon=T, steps=steps, starts=[x0])
        reps = bounds.verify("interpolation", sc, settings)
        ok &= all(r.verdict for r in reps)
        orbit = discrete.euler_scheme(op, x0, steps)
        gaps.append(op.norm(discrete.euler_interpolant(orbit, T) - traj.at(T)))
    # ... and the fixed-time gap shrinks monotonically within tolerance
    tol = 1e-9 + 2.0 * traj.err_at(T)
    mono = gaps[0] >= gaps[1] - tol and gaps[1] >= gaps[2] - tol
    report(5, "Euler-vs-ODE, interpolation bound, and refinement monotonicity",
           ok and mono, f"(gaps={gaps})")


def test_criterion_06_constant_parametrization(random3):
    op = random3
    ok = True
    detail = []
    for lam in (0.5, 0.1):
        sc = bounds.Scenario(operator=op, horizon=20.0,
                             param=continuous.Constant(lam),
                             starts=[np.ones(3)],
                             t_values=[1.0, 5.0, 10.0, 20.0])
        reps = bounds.verify("constant_decay", sc, bounds.Settings(ode_tol=1e-8))
        ok &= all(r.verdict for r in reps)
        detail.extend(str(r.context) for r in reps if not r.verdict)
    # gap at t = 20 <= 0.01 x gap at t = 0 for lam = 0.5
    traj = continuous.integrate_u(op, continuous.Constant(0.5), np.ones(3),
                                  20.0, tol=1e-8)
    v = discrete.solve_vlambda(op, 0.5, tol=1e-10)
    g0 = op.norm(traj.at(0.0) - v)
    g20 = op.norm(traj.at(20.0) - v)
    decay_ok = g20 <= 0.01 * g0 + 1e-9 + traj.err_at([0.0, 20.0])
    report(6, "constant-parametrization decay at lam in {0.5, 0.1}",
           ok and decay_ok, f"({detail} g0={g0:.3g} g20={g20:.3g})")


def test_criterion_07_slow_parametrization(pennies):
    param = continuous.PowerAlpha(0.5)
    u0 = np.ones(1)
    traj = continuous.integrate_u(pennies, param, u0, 1000.0, tol=1e-5)
    ok = True
    detail = []
    gaps = {}
    for t in (10.0, 100.0, 1000.0):
        v = discrete.solve_vlambda(pennies, param.value(t), tol=1e-10)
        gaps[t] = pennies.norm(traj.at(t) - v)
        rhs = continuous.slow_param_bound(pennies, param, u0, t)
        budget = 1e-9 + 1e-10 + traj.err_at(t) + 1e-9
        if gaps[t] > rhs + budget:
            ok = False
            detail.append(f"t={t}: gap {gaps[t]:.3g} > bound {rhs:.3g}")
    decay_ok = gaps[1000.0] <= 0.2 * gaps[10.0] + 1e-9 + 2.0 * traj.err_at([10.0, 1000.0])
    report(7, "slow-parametrization bound and decay (part 1: pennies)",
           ok and decay_ok, f"({detail} gaps={gaps})")


def test_criterion_07b_slow_parametrization_random3(random3, slow_gaps_random3):
    t0 = time.perf_counter()
    param, u0, traj, gaps = slow_gaps_random3
    ok = True
    detail = []
    for t in (10.0, 100.0, 1000.0):
        rhs = continuous.slow_param_bound(random3, param, u0, t)
        budget = 1e-9 + 1e-10 + traj.err_at(t) + 1e-9
        if gaps[t] > rhs + budget:
            ok = False
            detail.append(f"t={t}: gap {gaps[t]:.3g} > bound {rhs:.3g}")
    decay_ok = gaps[1000.0] <= 0.2 * gaps[10.0] + 1e-9 + 2.0 * traj.err_at([10.0, 1000.0])
    elapsed = time.perf_counter() - t0
    report(7, "slow-parametrization bound and decay (part 2: random3)",
           ok and decay_ok,
           f"({detail} gaps={gaps} {elapsed:.1f}s)")


def test_criterion_08_discrete_slow_variation(random3):
    t0 = time.perf_counter()
    op = random3
    N = 10**4
    lam_seq = np.minimum(1.0, np.arange(1, N + 1, dtype=float) ** -0.5)
    orbit = discrete.phi_recursion(op, lam_seq)
    gaps = {}
    for n in (10**2, 10**4):
        v = discrete.solve_vlambda(op, float(lam_seq[n - 1]), tol=1e-10)
        gaps[n] = op.norm(orbit.points[n] - v)
    decay_ok = gaps[10**4] <= 0.2 * gaps[10**2] + 1e-9 + 2e-10
    lip = bounds.verify("vlambda_lipschitz", bounds.Scenario(operator=op),
                        bounds.Settings())
    lip_ok = all(r.verdict for r in lip) and len(lip) == 9  # 10-point grid
    elapsed = time.perf_counter() - t0
    report(8, "discrete slow variation and v_lambda Lipschitz inequality",
           decay_ok and lip_ok and elapsed < 120.0,
           f"(gaps={gaps} {elapsed:.1f}s)")


def test_criterion_09_alpha_family(random3, slow_gaps_random3):
    op = random3
    w = continuous.integrate_u(op, continuous.InverseTimeZeta(), np.zeros(3),
                               1000.0, tol=1e-5)
    _, vn = discrete.iterate_Vn(op, 1000)
    g10 = op.norm(w.at(10.0) - vn[9])
    g1000 = op.norm(w.at(1000.0) - vn[999])
    wn_ok = g1000 <= 0.2 * g10 + 1e-9 + 2.0 * w.err_at([10.0, 1000.0])
    _, _, traj, gaps = slow_gaps_random3
    alpha_ok = gaps[1000.0] <= 0.2 * gaps[10.0] + 1e-9 + 2.0 * traj.err_at([10.0, 1000.0])
    report(9, "alpha-family dichotomy (v_n tracking and v_lam tracking)",
           wn_ok and alpha_ok,
           f"(g10={g10:.3g} g1000={g1000:.3g})")


def test_criterion_10_property_suites(rotation30, random3):
    ops = (core.Translation([1.0]), rotation30, random3)
    violations = 0
    for op in ops:
        violations += core.check_nonexpansive(op, samples=200, seed=0).violations
        for lam in (0.1, 0.5, 1.0, 2.0):
            violations += core.check_accretive(op, lam, samples=200, seed=0).violations
        rep = bounds.verify("hypothesis_H", bounds.Scenario(operator=op),
                            bounds.Settings())[0]
        violations += rep.context["violations"]
    # Shapley monotonicity and constant additivity
    J = shapley.ShapleyOperator(random3.game).J
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.uniform(-5.0, 5.0, size=3)
        g = f + rng.uniform(0.0, 3.0, size=3)
        if not np.all(J(f) <= J(g) + 1e-9):
            violations += 1
        c = float(rng.uniform(-4.0, 4.0))
        if not np.allclose(J(f + c), J(f) + c, atol=1e-9):
            violations += 1
    # LP vs brute-force oracle on twenty seeded matrices
    rng = np.random.default_rng(42)
    for trial in range(20):
        shape = (2, 2) if trial % 2 == 0 else (3, 3)
        M = rng.uniform(-5.0, 5.0, size=shape)
        if abs(shapley.matrix_game_value(M).value
               - shapley.matrix_game_value_oracle(M)) > 1e-9 * max(
                   1.0, float(np.max(np.abs(M)))):
            violations += 1
    report(10, "property suites with zero violations", violations == 0,
           f"(violations={violations})")


def test_criterion_11_determinism(paper_suite):
    # the two `opdyn suite --preset paper-suite` runs of the session fixture
    (code1, out1, _), (code2, out2, _), _ = paper_suite
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("reports.json", "reports.csv")
    )
    reports = json.loads((out1 / "reports.json").read_text())
    report(11, "paper-suite determinism and exit status 0",
           code1 == 0 and code2 == 0 and identical,
           f"(codes={code1},{code2} identical={identical} "
           f"reports={len(reports)})")
