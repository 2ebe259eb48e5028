"""Configuration-driven experiment runner.

Command shape:

    opdyn <task> [--config cfg.json] [--preset name] [--set key=value ...] --out DIR

Tasks: value_iter, discounted, euler, ode, phi_ode, verify, suite,
generate-game; a task's keyword-only parameters are its top-level config
keys (verify also takes its checks' inputs), and a spec constructor's
(OPERATORS, PARAMS, STEPS) the keys of its config object; bounds.bind binds
both.  Config is JSON; --set overrides dotted keys.  All artifacts
are written atomically with shortest-round-trip float formatting, so
re-running a config reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile

import numpy as np

from . import bounds, continuous, core, discrete, shapley
from .errors import InputError, ResourceError, SchemaError, convert

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_RESOURCE = 4
EXIT_IO = 5

PRESETS = {
    "translation": {
        "operator": {"builtin": "translation", "c": [1.0]},
        "N": 50,
    },
    "rotation30": {
        "operator": {"builtin": "rotation", "theta_degrees": 30.0},
        "U0": [1.0, 0.0],
        "T": 20.0,
        "tol": 1e-8,
    },
    "matching-pennies": {
        "operator": {"game_builtin": "matching-pennies"},
        "lambdas": [0.5, 0.1, 0.01],
        "tol": 1e-10,
    },
    "random3": {
        "operator": {
            "random_game": {
                "states": 3, "rows": 2, "cols": 2,
                "payoff_range": [-1.0, 1.0], "seed": 7,
            }
        },
        "N": 100,
    },
    "paper-suite": {},
}


# ---------------------------------------------------------------------------
# config plumbing

def _set_dotted(cfg, key, raw):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise InputError(f"--set {key}: {part!r} is not an object")
    node[parts[-1]] = value


def load_config(args):
    """The config (the preset, then the config file, then each --set) and
    the top-level keys that the config file and --set give."""
    cfg, given = {}, set()
    if args.preset:
        if args.preset not in PRESETS:
            raise InputError(
                f"unknown preset {args.preset!r} (known: {', '.join(sorted(PRESETS))})"
            )
        cfg = copy.deepcopy(PRESETS[args.preset])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise InputError("config: top-level value must be an object")
        cfg.update(loaded)
        given.update(loaded)
    for item in args.set or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _set_dotted(cfg, key, raw)
        given.add(key.split(".")[0])
    return cfg, given


def _build(fn, spec, name, at):
    """fn called with its keys bound from spec, the config object at the
    dotted key at; a TypeError or ValueError of fn is an InputError naming
    at."""
    if not isinstance(spec, dict):
        raise InputError(f"{at}: must be an object")
    kwargs = bounds.bind(fn, READERS, spec, set(spec), name, f"{at}.")
    return convert(lambda kw: fn(**kw), kwargs, at)


def _kind(kinds, at, tag="kind"):
    """A reader of the spec object at the dotted key at: None as itself
    (the default), else the object that kinds[spec[tag]] builds from the
    spec's other keys."""
    def read(spec):
        if spec is None:
            return None
        if not isinstance(spec, dict) or spec.get(tag) not in kinds:
            raise InputError(f"{at}: must be an object whose {tag} is one of "
                             f"{', '.join(kinds)}")
        kind, rest = spec[tag], {k: v for k, v in spec.items() if k != tag}
        return _build(kinds[kind], rest, f"the {kind} {at}", at)
    return read


#: the spec objects' constructors: each one's keyword-only parameters are
#: its keys, with their defaults.  An operator object names one of
#: OPERATORS' keys: builtin and game_builtin name a constructor whose keys
#: stand beside them, random_game and game are the keys of their own.
OPERATORS = {
    "builtin": {
        "translation": lambda *, c=(1.0,), norm=core.SUP: core.Translation(c, norm),
        "rotation": lambda *, theta_degrees=30.0: core.rotation(np.deg2rad(theta_degrees)),
        "affine": lambda *, matrix, offset, norm=core.SUP: core.AffineNonexpansive(
            matrix, offset, norm),
        "identity": lambda *, dim=1: core.identity_operator(dim),
    },
    "game_builtin": {
        "matching-pennies": lambda: shapley.ShapleyOperator(shapley.matching_pennies()),
    },
    "random_game": lambda *, random_game: shapley.ShapleyOperator(random_game),
    "game": lambda *, game: shapley.ShapleyOperator(shapley.load_game(game)),
}


def _random_game(*, states=3, rows=2, cols=2, payoff_range=(-1.0, 1.0), seed=0):
    """The game of a random_game object."""
    return shapley.random_game(states, rows, cols, payoff_range, seed)


PARAMS = {
    "constant": lambda *, lambda_=0.5: continuous.Constant(lambda_),
    "inverse_time_zeta": continuous.InverseTimeZeta,
    "power_alpha": lambda *, alpha=0.5: continuous.PowerAlpha(alpha),
    "table": lambda *, knots: continuous.Table(knots),
}
STEPS = {
    "constant": lambda *, lambda_=0.5, N: discrete.StepSequence.constant(lambda_, N),
    "harmonic": lambda *, N: discrete.StepSequence.harmonic(N),
    "inverse_sqrt": lambda *, N: discrete.StepSequence.inverse_sqrt(N),
    "explicit": lambda *, values: discrete.StepSequence(values),
}


def _operator(spec):
    """A reader: the operator that an operator object names with exactly
    one of OPERATORS' keys."""
    sources = [k for k in OPERATORS if isinstance(spec, dict) and k in spec]
    if len(sources) != 1:
        raise InputError(f"operator: must be an object with exactly one of "
                         f"{' / '.join(OPERATORS)}")
    source = sources[0]
    if isinstance(OPERATORS[source], dict):
        return _kind(OPERATORS[source], "operator", source)(spec)
    return _build(OPERATORS[source], spec, f"the {source} operator", "operator")


# ---------------------------------------------------------------------------
# deterministic artifact output

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _atomic_write(path, text):
    """Write text to a temp file beside path, then rename it over path; the
    temp file is removed when either step fails.  The file gets the mode
    open() would give it, 0666 less the umask, not mkstemp's 0600."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # the only portable way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _atomic_write(path, text + "\n")


# ---------------------------------------------------------------------------
# tasks

def _coord_header(prefix, dim):
    return [f"{prefix}_{i}" for i in range(dim)]


def _start(op, value, key):
    """The start point given as `key`, read by bounds._starts; zeros when not given."""
    return bounds._starts(op, None if value is None else [value], 0.0, key=key)[0]


def task_value_iter(out, *, operator, N=100):
    _, vn = discrete.iterate_Vn(operator, N)
    header = ["n"] + _coord_header("v", operator.dim) + ["norm_vn"]
    rows = [
        [n + 1] + list(vn[n]) + [operator.norm(vn[n])]
        for n in range(len(vn))
    ]
    write_csv(os.path.join(out, "value_iter.csv"), header, rows)
    return EXIT_OK


def task_discounted(out, *, operator, lambdas=(0.5, 0.1, 0.01), tol=discrete.VLAMBDA_TOL):
    """discounted.csv: v_lam per lambda, with the solver's iterations (its
    ``op.linearize`` calls, each one Phi evaluation) and certified error.
    Every solve runs on the one operator, so a game's model at 0, where each
    solve starts, is solved once for the whole lambda list."""
    header = ["lambda"] + _coord_header("v", operator.dim) + ["iterations", "certified_error"]
    rows = []
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise InputError(f"lambdas: discounted needs each lambda in (0, 1], got {lam}")
        res = discrete.solve_vlambda(operator, lam, tol=tol, full=True)
        rows.append([lam] + list(res.v) + [res.iterations, res.certified_error])
    write_csv(os.path.join(out, "discounted.csv"), header, rows)
    return EXIT_OK


def task_euler(out, *, operator, steps=None, x0=None):
    steps = discrete.StepSequence.harmonic(100) if steps is None else steps
    orbit = discrete.euler_scheme(operator, _start(operator, x0, "x0"), steps)
    header = ["n", "sigma", "tau"] + _coord_header("x", operator.dim)
    rows = [
        [n, steps.sigma[n], steps.tau[n]] + list(orbit.points[n])
        for n in range(len(steps) + 1)
    ]
    write_csv(os.path.join(out, "euler.csv"), header, rows)
    return EXIT_OK


def _sample_rows(traj, samples, param=None):
    """One row per time of `samples` evenly spaced ones in [0, T]: the dense
    output there, its error bound and (with param) lambda."""
    rows = []
    for t in np.linspace(0.0, traj.times[-1], samples):
        row = [t] + list(traj.at(t)) + [traj.err_at(t)]
        if param is not None:
            row.append(param.value(float(t)))
        rows.append(row)
    return rows


def task_ode(out, *, operator, U0=None, T=20.0, tol=continuous.TOL, samples=201):
    traj = continuous.integrate_U(operator, _start(operator, U0, "U0"), T, tol=tol)
    header = ["t"] + _coord_header("u", operator.dim) + ["err_bound"]
    write_csv(os.path.join(out, "ode.csv"), header, _sample_rows(traj, samples))
    return EXIT_OK


def task_phi_ode(out, *, operator, param=None, u0=None, T=20.0, tol=continuous.TOL,
                 samples=201):
    param = continuous.PowerAlpha(0.5) if param is None else param
    traj = continuous.integrate_u(operator, param, _start(operator, u0, "u0"), T, tol=tol)
    header = ["t"] + _coord_header("u", operator.dim) + ["err_bound", "lambda"]
    write_csv(os.path.join(out, "phi_ode.csv"), header,
              _sample_rows(traj, samples, param))
    return EXIT_OK


def _emit_reports(reports, out):
    """reports.json and reports.csv, both from BoundReport.to_dict; the CSV
    writes the context as JSON with its commas turned into semicolons."""
    dicts = [r.to_dict() for r in reports]
    write_json(os.path.join(out, "reports.json"), dicts)
    for d in dicts:
        d["context"] = json.dumps(d["context"], sort_keys=True,
                                  default=_json_default).replace(",", ";")
    write_csv(os.path.join(out, "reports.csv"), list(dicts[0]),
              [list(d.values()) for d in dicts])
    return EXIT_OK if all(r.verdict for r in reports) else EXIT_CHECK_FAILED


#: one reader per config key, whichever task, check or spec object takes it:
#: it turns the config value into the argument; any other key is passed as
#: given.  A check's keys are read by bounds.READERS, and no key here reads
#: one of them another way, but for the spec objects param, param2 and
#: steps: their readers here build the object from its spec, and the one in
#: bounds.READERS takes it as built.  N, T, tol and ode_tol have no entry:
#: the library function that takes each one reads it under that name.
READERS = {
    **bounds.READERS,
    "operator": _operator,
    "lambdas": bounds._list(core.positive),
    "samples": core.count(1),
    "checks": bounds._list(str),
    "param": _kind(PARAMS, "param"),
    "param2": _kind(PARAMS, "param2"),
    "steps": _kind(STEPS, "steps"),
    "game_file": os.fspath,
    # the spec objects' keys
    "theta_degrees": core.real,
    "dim": core.count(1),
    "random_game": lambda spec: _build(_random_game, spec, "random_game",
                                      "operator.random_game"),
    "states": core.count(1),
    "rows": core.count(1),
    "cols": core.count(1),
    "payoff_range": bounds._list(core.real),
    "lambda": core.real,
    "alpha": core.real,
}


#: the checks' inputs that are spec objects: task_verify builds them, and a
#: null one is left out, as if not given; bounds.verify reads the others and
#: takes these as built
SPECS = ("param", "param2", "steps")


def task_verify(out, /, *, operator, checks, ode_tol=bounds.ODE_TOL, **inputs):
    """reports.json and reports.csv of each of checks on the operator, its
    flows integrated to ode_tol; the other top-level keys are the checks'
    inputs (see bounds.per_check)."""
    inputs = {k: v for k, v in inputs.items() if v is not None or k not in SPECS}
    pairs = bounds.per_check(checks, operator, inputs, {k: READERS[k] for k in SPECS})
    return _emit_reports(bounds.run_checks(pairs, ode_tol), out)


def task_suite(out, *, ode_tol=bounds.ODE_TOL):
    return _emit_reports(bounds.run_suite(ode_tol), out)


def task_generate_game(out, *, operator, game_file="game.json"):
    if not isinstance(operator, shapley.ShapleyOperator):
        raise InputError("operator: generate-game needs a game "
                         "(random_game, game_builtin or game)")
    path = os.path.join(out, game_file)
    write_json(path, operator.game.to_dict())
    shapley.load_game(path)  # every emitted file must reload cleanly
    return EXIT_OK


TASK_RUNNERS = {
    "value_iter": task_value_iter,
    "discounted": task_discounted,
    "euler": task_euler,
    "ode": task_ode,
    "phi_ode": task_phi_ode,
    "verify": task_verify,
    "suite": task_suite,
    "generate-game": task_generate_game,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="opdyn",
        description="Numerical laboratory for nonexpansive operator dynamics.",
    )
    parser.add_argument("task", choices=TASK_RUNNERS)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--preset", help="named preset supplying config defaults")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a dotted config key (value parsed as JSON when possible)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        kwargs = bounds.bind(TASK_RUNNERS[args.task], READERS, *load_config(args),
                             args.task)
        os.makedirs(args.out, exist_ok=True)
        return TASK_RUNNERS[args.task](args.out, **kwargs)
    except SchemaError as exc:
        print(f"opdyn: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ResourceError as exc:
        print(f"opdyn: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        print(f"opdyn: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"opdyn: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
