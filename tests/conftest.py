"""The paper suite, run once per test session for every test that reads it."""

import pytest

from opdyn import bounds, cli, continuous, discrete

#: the solvers whose calls run_checks shares between the checks of one run
SHARED_SOLVERS = [(continuous, "integrate_U"), (continuous, "integrate_u"),
                  (discrete, "solve_vlambda"), (discrete, "iterate_Vn")]


def _counted(solve, name, counts):
    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return solve(*args, **kwargs)
    return counting


def _solver_calls(counts):
    """(integrations, v_lambda solves, iterate_Vn calls) made."""
    return (counts.get("integrate_U", 0) + counts.get("integrate_u", 0),
            counts.get("solve_vlambda", 0), counts.get("iterate_Vn", 0))


@pytest.fixture(scope="session")
def paper_suite(tmp_path_factory):
    """Three passes of the paper suite, each with the solver calls it made:
    two ``opdyn suite --preset paper-suite`` runs through cli.main, each
    (exit code, output directory, solver calls), then verify on each
    suite_plan entry outside any run_checks call, (reports, solver calls).
    Each call site reads its solver off the module when it runs, so the
    counting wrappers see every call that is made."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        counts = {}
        for module, name in SHARED_SOLVERS:
            mp.setattr(module, name, _counted(getattr(module, name), name, counts))
        for run in ("first", "second"):
            counts.clear()
            out = tmp_path_factory.mktemp(f"paper-suite-{run}")
            code = cli.main(["suite", "--preset", "paper-suite", "--out", str(out)])
            runs.append((code, out, _solver_calls(counts)))
        counts.clear()
        alone = [r for check, sc in bounds.suite_plan() for r in bounds.verify(check, sc)]
        runs.append((alone, _solver_calls(counts)))
    return runs
