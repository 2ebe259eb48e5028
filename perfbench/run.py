"""opdyn benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (paper-suite, discounted-grid or closed-form-flow) of the
opdyn sources in ``src/`` next to this directory, in this process, on one
thread, with BLAS pinned to one thread.  It repeats whole passes over the
workload's tasks until S seconds have gone by, checks every task's output
after the timed passes, and prints one line per metric followed by a JSON
summary as the last line of standard output.

--trace 0 reports the end-to-end metrics.  --trace 1 adds one traced pass,
reports the per-layer metrics instead and writes the spans to
``.perfbench/spans-<workload>.npz``.  Times are CPU seconds of this thread;
README.md explains why, and what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("paper-suite", "discounted-grid", "closed-form-flow")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics: name, unit
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("task_p50_s", "s"),
    ("task_p75_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import plus input building once and print it")
    return p.parse_args(argv)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_probe():
    """CPU and wall milliseconds of a fixed pure-Python loop (best of 3)."""
    best_cpu = best_wall = float("inf")
    for _ in range(3):
        w0, c0 = time.perf_counter(), time.thread_time()
        total = 0
        for i in range(300_000):
            total += i * i
        best_cpu = min(best_cpu, 1e3 * (time.thread_time() - c0))
        best_wall = min(best_wall, 1e3 * (time.perf_counter() - w0))
    return round(best_cpu, 3), round(best_wall, 3)


def steal_ticks():
    """Machine-wide (steal, total) CPU ticks from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def measure_setup(args):
    """Median (CPU seconds, adjusted seconds) of SETUP_REPEATS fresh
    processes that import opdyn and build the workload's inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        cpu, adj = done.stdout.split()
        raw.append(float(cpu))
        adjusted.append(float(adj))
    return statistics.median(raw), statistics.median(adjusted)


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def check_run(wl, inputs, passes):
    """Check every task of every pass; returns (attempted, failures, problems).

    The first pass's outputs get the workload's full check; a later pass
    must reproduce them exactly (same digest)."""
    first = passes[0]
    verdict = {t.label: (t.error or wl.check_task(inputs, t)) for t in first.tasks}
    expected = {t.label: t.digest for t in first.tasks}
    attempted, failures, problems = 0, [], []
    for k, result in enumerate(passes):
        for task in result.tasks:
            attempted += 1
            if task.error:
                reason = task.error
            elif task.label not in expected or task.digest != expected[task.label]:
                reason = "output differs from the first pass"
            else:
                reason = verdict[task.label]
            if reason:
                failures.append((k, task.label, reason))
        problems += [f"pass {k}: {p}" for p in wl.check_pass(inputs, result, first)]
    return attempted, failures, problems


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "opdyn" / "__init__.py").is_file():
        print(f"perfbench: opdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_only:
        c0 = time.process_time()
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed)
        setup = time.process_time() - c0
        workloads.calibration_chunk()  # warm-up, not counted
        chunk = statistics.median(workloads.calibration_chunk() for _ in range(5))
        print(repr(setup), repr(setup * workloads.CAL_REF_S / chunk))
        return 0

    setup_cpu_s, setup_s = measure_setup(args)
    import numpy
    import opdyn
    import tracer as tracing
    import workloads

    if not Path(opdyn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported opdyn from {opdyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    probe_cpu_ms, probe_wall_ms = host_probe()
    steal0 = steal_ticks()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(wl.run_pass(inputs, workloads.NO_TRACER,
                                  str(out_dir / "untraced"), keep=not passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = list(passes)
    pass_s = statistics.median(p.adjusted_s for p in untraced)
    tasks = [t for p in untraced for t in p.tasks]

    layer = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = wl.run_pass(inputs, tr, str(out_dir / "traced"), keep=False)
        finally:
            tr.uninstall()
        groups = {i: t.group for i, t in enumerate(traced.tasks)}
        layer = tr.layer_metrics(traced.work_cpu_s, traced.factor, pass_s, groups)
        tr.dump(OUT / f"spans-{args.workload}.npz")
        passes.append(traced)

    attempted, failures, problems = check_run(wl, inputs, passes)
    steal1 = steal_ticks()
    steal = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal = round((steal1[0] - steal0[0]) / (steal1[1] - steal0[1]), 4)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads": blas_threads(), "probe_cpu_ms": probe_cpu_ms,
        "probe_wall_ms": probe_wall_ms, "host_steal_frac": steal,
        "passes": len(untraced),
        "tasks_per_pass": len(passes[0].tasks),
    }
    print("# env " + json.dumps(env, sort_keys=True))
    for k, label, reason in failures:
        print(f"# failed task (pass {k}) {label}: {reason}")
    for problem in problems:
        print(f"# failed check {problem}")

    p50, p75 = quartiles([a for p in untraced for a in p.adjusted_task_s()])
    c50, c75 = quartiles([t.cpu_s for t in tasks])
    w50, w75 = quartiles([t.wall_s for t in tasks])
    info = [
        ("setup_cpu_s", setup_cpu_s, "s"),
        ("pass_cpu_s", statistics.median(p.work_cpu_s for p in untraced), "s"),
        ("task_p50_cpu_s", c50, "s"),
        ("task_p75_cpu_s", c75, "s"),
        ("wall_s", statistics.median(p.wall_s for p in untraced), "s"),
        ("task_p50_wall_s", w50, "s"),
        ("task_p75_wall_s", w75, "s"),
        ("cal_chunk_s", statistics.median(c for p in untraced for c in p.chunks), "s"),
        ("task_samples", len(tasks), "count"),
        ("failed_frac", len(failures) / attempted, "frac"),
    ]
    values = {"setup_s": setup_s, "pass_s": pass_s, "task_p50_s": p50,
              "task_p75_s": p75, "peak_rss_mb": peak_rss_mb}
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END}
    if args.trace:
        info += [(name, value, unit) for name, (value, unit) in end_to_end.items()]
        metrics = {name: (layer[name], unit) for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = end_to_end
    for name, value, unit in info:
        print(f"# {name:<38} {value!r:>24} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value!r:>24} {unit}")
    summary = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
