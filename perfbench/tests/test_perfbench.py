"""Tests of the benchmark itself: metric lists, zero-count predictions,
traced/untraced equality, exact repeatability of counts, and that the output
checks reject wrong outputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(about three minutes: the paper suite runs three times).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit, _ in tracer.LAYER_METRICS
          if unit in ("count", "bytes", "phi/solve")] + [
    "shapley.matrix_game.share_2x2", "continuous.integrate.useful_frac"]


def traced_pass(name, seed, out_dir):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    tr = tracer.Tracer()
    tr.install()
    try:
        result = wl.run_pass(inputs, tr, str(out_dir), keep=False)
    finally:
        tr.uninstall()
    groups = {i: t.group for i, t in enumerate(result.tasks)}
    metrics = tr.layer_metrics(result.work_cpu_s, result.factor, result.adjusted_s, groups)
    return result, metrics


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of every workload, keyed by workload name."""
    runs = {}
    for name in run.WORKLOAD_NAMES:
        runs[name] = [traced_pass(name, 11, tmp_path_factory.mktemp(f"{name}-{k}"))
                      for k in range(2)]
    return runs


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)


def test_tracer_restores_every_patched_name():
    import opdyn
    from opdyn import continuous, core, discrete

    before = (core.apply_Phi, discrete.apply_Phi, continuous.apply_A,
              opdyn.verify, core.AffineNonexpansive.J, continuous.Trajectory.at)
    tr = tracer.Tracer()
    tr.install()
    assert discrete.apply_Phi is not before[1]
    tr.uninstall()
    after = (core.apply_Phi, discrete.apply_Phi, continuous.apply_A,
             opdyn.verify, core.AffineNonexpansive.J, continuous.Trajectory.at)
    assert after == before


def test_zero_count_predictions(traced):
    grid = traced["discounted-grid"][0][1]
    flow = traced["closed-form-flow"][0][1]
    suite = traced["paper-suite"][0][1]
    for layer in ("continuous.integrate", "continuous.param", "continuous.dense"):
        assert grid[f"{layer}.calls"] == 0
    assert grid["continuous.integrate.rhs_evals"] == grid["continuous.integrate.nodes"] == 0
    assert grid["discrete.solve_vlambda.calls"] == 41
    for layer in ("shapley.matrix_game", "shapley.J", "discrete.solve_vlambda"):
        assert flow[f"{layer}.calls"] == 0
        assert flow[f"{layer}.self_s"] == 0.0
    assert flow["continuous.integrate.calls"] == 40
    for metrics in (grid, flow):
        assert metrics["cli.bytes_written"] == 0
        assert all(metrics[f"bounds.check.{c}.s"] == 0.0 for c in tracer.CHECK_IDS)
    assert all(suite[f"bounds.check.{c}.s"] > 0.0 for c in tracer.CHECK_IDS)
    assert suite["cli.bytes_written"] > 0


def test_share_2x2(traced):
    assert traced["paper-suite"][0][1]["shapley.matrix_game.share_2x2"] == 1.0
    assert traced["discounted-grid"][0][1]["shapley.matrix_game.share_2x2"] == 0.0
    assert traced["discounted-grid"][0][1]["shapley.matrix_game.calls"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(traced, name):
    (_, first), (_, second) = traced[name]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_traced_and_untraced_reports_are_byte_identical(traced, tmp_path):
    wl = workloads.WORKLOADS["paper-suite"]
    untraced = wl.run_pass(wl.build(0), workloads.NO_TRACER, str(tmp_path), keep=True)
    (result, _), _ = traced["paper-suite"]
    assert untraced.info["exit_code"] == 0
    assert untraced.info["digests"] == result.info["digests"]
    assert [t.digest for t in untraced.tasks] == [t.digest for t in result.tasks]


def test_grid_check_rejects_a_perturbed_value():
    wl = workloads.WORKLOADS["discounted-grid"]
    inputs = wl.build(5)
    inputs.lambdas = inputs.lambdas[:1]
    result = wl.run_pass(inputs, workloads.NO_TRACER, "", keep=True)
    task = result.tasks[0]
    assert wl.check_task(inputs, task) == ""
    task.output.v[0] += 1e-6
    assert "oracle residual" in wl.check_task(inputs, task)


def test_flow_check_rejects_a_perturbed_read():
    wl = workloads.WORKLOADS["closed-form-flow"]
    inputs = wl.build(5)
    inputs.specs = [s for s in inputs.specs if s.label.startswith("table:rotation30")][:1]
    task = wl.run_pass(inputs, workloads.NO_TRACER, "", keep=True).tasks[0]
    assert wl.check_task(inputs, task) == ""
    traj, reads = task.output
    reads[len(reads) // 2] += 1e-6
    assert "dense-output error" in wl.check_task(inputs, task)


def test_second_seed_passes_the_checks():
    wl = workloads.WORKLOADS["closed-form-flow"]
    for seed in (0, 1):
        inputs = wl.build(seed)
        inputs.specs = inputs.specs[::10]
        result = wl.run_pass(inputs, workloads.NO_TRACER, "", keep=True)
        assert [wl.check_task(inputs, t) for t in result.tasks] == [""] * len(result.tasks)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discounted-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
