"""Configuration-driven experiment runner.

Command shape:

    opdyn <task> [--config cfg.json] [--preset name] [--set key=value ...] --out DIR

Tasks: value_iter, discounted, euler, ode, phi_ode, verify, suite,
generate-game; a task's keyword-only parameters are its top-level config
keys.  Config is JSON; --set overrides dotted keys.  All artifacts
are written atomically with shortest-round-trip float formatting, so
re-running a config reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import inspect
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


def bind(task, cfg, given):
    """The keyword arguments of TASK_RUNNERS[task]: each key of cfg that it
    takes, converted by the key's READERS entry (any other key as given).
    A key in given that the task does not take, and a required key cfg
    lacks, are an InputError; cfg's other keys (a preset's) are dropped."""
    params = inspect.signature(TASK_RUNNERS[task]).parameters.values()
    takes = {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}
    unread = sorted(given.difference(takes))
    missing = [k for k, p in takes.items() if p.default is p.empty and k not in cfg]
    if unread or missing:
        raise InputError(f"{', '.join(unread or missing)}: "
                         f"{'not a key of' if unread else 'missing for'} {task}, "
                         f"whose keys are {', '.join(takes)}")
    return {k: convert(READERS[k], v, k) if k in READERS else v
            for k, v in cfg.items() if k in takes}


def _check_keys(spec, what, *keys):
    """InputError unless spec is an object whose keys all lie in keys."""
    if not isinstance(spec, dict):
        raise InputError(f"{what}: must be an object")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise InputError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")


def build_operator(spec):
    if not isinstance(spec, dict):
        raise InputError("operator: must be an object")
    sources = [k for k in ("builtin", "game", "game_builtin", "random_game") if k in spec]
    if len(sources) != 1:
        raise InputError(
            "operator: exactly one of builtin / game / game_builtin / random_game"
        )
    kind = sources[0]
    if kind == "builtin":
        name = spec["builtin"]
        norm_kind = spec.get("norm") or core.SUP
        if name == "translation":
            _check_keys(spec, "operator", "builtin", "c", "norm")
            return core.Translation(spec.get("c", [1.0]), norm_kind=norm_kind)
        if name == "rotation":
            _check_keys(spec, "operator", "builtin", "theta_degrees")
            degrees = convert(float, spec.get("theta_degrees", 30.0),
                              "operator.theta_degrees")
            return core.rotation(np.deg2rad(degrees))
        if name == "affine":
            _check_keys(spec, "operator", "builtin", "matrix", "offset", "norm")
            return core.AffineNonexpansive(spec["matrix"], spec["offset"],
                                           norm_kind=norm_kind)
        if name == "identity":
            _check_keys(spec, "operator", "builtin", "dim")
            return core.identity_operator(
                convert(int, spec.get("dim", 1), "operator.dim"))
        raise InputError(f"operator: unknown builtin {name!r}")
    _check_keys(spec, "operator", kind)
    if kind == "game":
        return shapley.ShapleyOperator(shapley.load_game(spec["game"]))
    if kind == "game_builtin":
        name = spec["game_builtin"]
        if name != "matching-pennies":
            raise InputError(f"operator: unknown game_builtin {name!r}")
        return shapley.ShapleyOperator(shapley.matching_pennies())
    return shapley.ShapleyOperator(_random_game(spec["random_game"]))


def _random_game(g):
    """A seeded random game from a 'random_game' config object."""
    _check_keys(g, "random_game", "states", "rows", "cols", "payoff_range", "seed")

    def read(key, default, kind=int):
        return convert(kind, g.get(key, default), f"random_game.{key}")

    return shapley.random_game(
        read("states", 3), read("rows", 2), read("cols", 2),
        read("payoff_range", (-1.0, 1.0), _interval), seed=read("seed", 0),
    )


def _interval(pair):
    lo, hi = pair
    return float(lo), float(hi)


def build_param(spec):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("param: must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        _check_keys(spec, "param", "kind", "lambda")
        lam = convert(float, spec.get("lambda", 0.5), "param.lambda")
        return continuous.Constant(lam)
    if kind == "inverse_time_zeta":
        _check_keys(spec, "param", "kind")
        return continuous.InverseTimeZeta()
    if kind == "power_alpha":
        _check_keys(spec, "param", "kind", "alpha")
        alpha = convert(float, spec.get("alpha", 0.5), "param.alpha")
        return continuous.PowerAlpha(alpha)
    if kind == "table":
        _check_keys(spec, "param", "kind", "knots")
        return convert(continuous.Table, spec["knots"], "param.knots")
    raise InputError(f"param: unknown kind {kind!r}")


def build_steps(spec):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("steps: must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        _check_keys(spec, "steps", "kind", "lambda", "N")
        return discrete.StepSequence.constant(
            convert(float, spec.get("lambda", 0.5), "steps.lambda"),
            convert(int, spec["N"], "steps.N"),
        )
    if kind in ("harmonic", "inverse_sqrt"):
        _check_keys(spec, "steps", "kind", "N")
        return getattr(discrete.StepSequence, kind)(convert(int, spec["N"], "steps.N"))
    if kind == "explicit":
        _check_keys(spec, "steps", "kind", "values")
        return convert(discrete.StepSequence, spec["values"], "steps.values")
    raise InputError(f"steps: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# deterministic artifact output

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
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
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _atomic_write(path, text + "\n")


# ---------------------------------------------------------------------------
# tasks

def _coord_header(prefix, dim):
    return [f"{prefix}_{i}" for i in range(dim)]


def _start(op, value, key):
    """The start point given as `key`, read by as_vec; zeros when not given."""
    if value is None:
        return np.zeros(op.dim)
    return convert(lambda v: core.as_vec(v, op.dim), value, key)


def task_value_iter(out, *, operator, N=100):
    op = build_operator(operator)
    _, vn = discrete.iterate_Vn(op, N)
    header = ["n"] + _coord_header("v", op.dim) + ["norm_vn"]
    rows = [
        [n + 1] + list(vn[n]) + [op.norm(vn[n])]
        for n in range(N)
    ]
    write_csv(os.path.join(out, "value_iter.csv"), header, rows)
    return EXIT_OK


def task_discounted(out, *, operator, lambdas=(0.5, 0.1, 0.01), tol=1e-10):
    """discounted.csv: v_lam per lambda, with the solver's iterations (its
    ``op.linearize`` calls, each one Phi evaluation) and certified error."""
    op = build_operator(operator)
    header = ["lambda"] + _coord_header("v", op.dim) + ["iterations", "certified_error"]
    rows = []
    for lam in lambdas:
        res = discrete.solve_vlambda(op, lam, tol=tol, full=True)
        rows.append([lam] + list(res.v) + [res.iterations, res.certified_error])
    write_csv(os.path.join(out, "discounted.csv"), header, rows)
    return EXIT_OK


def task_euler(out, *, operator, steps=None, x0=None):
    op = build_operator(operator)
    steps = discrete.StepSequence.harmonic(100) if steps is None else build_steps(steps)
    orbit = discrete.euler_scheme(op, _start(op, x0, "x0"), steps)
    header = ["n", "sigma", "tau"] + _coord_header("x", op.dim)
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


def task_ode(out, *, operator, U0=None, T=20.0, tol=1e-8, samples=201):
    op = build_operator(operator)
    traj = continuous.integrate_U(op, _start(op, U0, "U0"), T, tol=tol)
    header = ["t"] + _coord_header("u", op.dim) + ["err_bound"]
    write_csv(os.path.join(out, "ode.csv"), header, _sample_rows(traj, samples))
    return EXIT_OK


def task_phi_ode(out, *, operator, param=None, u0=None, T=20.0, tol=1e-8, samples=201):
    op = build_operator(operator)
    param = continuous.PowerAlpha(0.5) if param is None else build_param(param)
    traj = continuous.integrate_u(op, param, _start(op, u0, "u0"), T, tol=tol)
    header = ["t"] + _coord_header("u", op.dim) + ["err_bound", "lambda"]
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


def _settings_from(given):
    """A reader: the bounds.Settings that a 'settings' object sets."""
    defaults = vars(bounds.Settings())
    _check_keys(given, "settings", *defaults)
    return bounds.Settings(**{k: convert(type(defaults[k]), v, f"settings.{k}")
                              for k, v in given.items()})


#: one reader per config key, whichever task takes it: it turns the config
#: value into the task's argument; any other key reaches the task as given
READERS = {
    "N": bounds._count(1),
    "T": float,
    "tol": float,
    "horizon": float,
    "seed": int,
    "samples": bounds._count(1),
    "lambdas": bounds._list(float),
    "checks": bounds._list(str),
    "settings": _settings_from,
    "game_file": os.fspath,
}


def task_verify(out, *, operator, checks, horizon=50.0, param=None, param2=None,
                steps=None, steps2=None, starts=None, seed=0, extra=None,
                settings=None):
    scenario = bounds.Scenario(
        operator=build_operator(operator),
        horizon=horizon,
        param=build_param(param),
        param2=build_param(param2),
        steps=build_steps(steps),
        steps2=build_steps(steps2),
        starts=starts,
        seed=seed,
        extra={} if extra is None else extra,
    )
    reports = []
    for check, sc in bounds.per_check(checks, scenario):
        reports.extend(bounds.verify(check, sc, settings))
    return _emit_reports(reports, out)


def task_suite(out, *, settings=None):
    return _emit_reports(bounds.run_suite(settings), out)


def task_generate_game(out, *, operator, game_file="game.json"):
    g = operator.get("random_game") if isinstance(operator, dict) else None
    if not isinstance(g, dict):
        raise InputError("generate-game: needs an 'operator.random_game' object")
    game = _random_game(g)
    path = os.path.join(out, game_file)
    write_json(path, game.to_dict())
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
        kwargs = bind(args.task, *load_config(args))
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
    except KeyError as exc:
        print(f"opdyn: config error: missing field {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
