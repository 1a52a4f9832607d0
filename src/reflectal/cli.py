"""Batch front end: JSON experiment configs in, CSV + manifest out.

Usage: reflectal <command> --config run.json [--out DIR]

Outputs are written to a temporary directory and renamed into place on
success, so a failed run leaves only error.json behind. CSV numbers use the
shortest round-trip decimal representation of the underlying doubles, which
makes byte-identical reruns a meaningful reproducibility check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial

import numpy as np

from . import __version__
from .action import contracted_rate, evaluate_action, minimize_action_endpoint
from .backward import (_MIN_AXIS_NODES, _MIN_MC_PER_NODE, _lattice_nodes,
                       apply_pi, limit_value_field, make_lattice,
                       solve_bsde_grid, solve_limit_bsde)
from .coefficients import PRESET_NAMES, _param, audit_assumptions, preset
from .errors import ConfigInvalid, ReflectalError
from .forward import (TimeGrid, integrate_skeleton_ode,
                      simulate_reflected_batch)
from .geometry import _check_dims, _check_inside, _refuse_bool, make_domain
from .harness import (_MIN_PATHS, TARGETS, _validate_ladder,
                      convergence_study, tail_study)

COMMANDS = ("audit", "skeleton", "simulate-forward", "bsde-limit",
            "bsde-grid", "action-eval", "action-min", "contracted-rate",
            "convergence", "tail")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    domain: dict
    preset_name: str
    preset_params: dict = field(default_factory=dict)
    s: float = 0.0
    T: float = 1.0
    x: tuple = (0.5,)
    n_steps: int = 1024
    eps: float = 0.1
    eps_ladder: tuple = None
    n_paths: int = 1000
    seed: int = 0
    output_dir: str = "out"
    target: str = "X4"
    delta: float = 0.2
    y: tuple = None
    mc_per_node: int = 256
    space_nodes: int = 33
    field_steps: int = 128


def serialize(config):
    """Canonical JSON bytes of a config in the external schema, so that
    validate(serialize(config)) round-trips (hash- and diff-stable)."""
    d = asdict(config)
    d["preset"] = {"name": d.pop("preset_name"),
                   "params": d.pop("preset_params")}
    d["grid"] = {"n_steps": d.pop("n_steps")}
    d["x"] = list(d["x"])
    if d["eps_ladder"] is not None:
        d["eps_ladder"] = list(d["eps_ladder"])
    if d["y"] is not None:
        d["y"] = list(d["y"])
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode()


def _parse(pointer, convert, value):
    """convert(value), with a failure reported as ConfigInvalid at pointer."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, ReflectalError) as exc:
        raise ConfigInvalid(pointer,
                            f"not a valid value: {value!r} ({exc})") from None


def _point(value):
    """A finite number or a flat list of them, as a tuple of floats."""
    _refuse_bool("a point", value)
    point = np.atleast_1d(value).astype(float)
    if point.ndim > 1 or not np.isfinite(point).all():
        raise ValueError("expected a finite number or a flat list of them")
    return tuple(point.tolist())


def _real(value):
    """A finite float."""
    _refuse_bool("a real", value)
    out = float(value)
    if not np.isfinite(out):
        raise ValueError("expected a finite number")
    return out


def _count(low):
    """Parser of an integer >= low, given as an int, an integral float or
    an integer string; a boolean or a fraction fails."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError("expected an integer")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        out = int(value)
        if out < low:
            raise ValueError(f"must be >= {low}")
        return out
    return parse


def _ladder(value):
    return tuple(_validate_ladder(value).tolist())


def _string(value):
    """A JSON string, as it is: str() of another value is no path or name."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# The parser of every top-level key besides command, domain, preset and grid.
# A key left out takes its default from ExperimentConfig; any other key fails.
_FIELDS = {
    "s": _real, "T": _real, "x": _point, "eps": _real,
    "eps_ladder": _optional(_ladder), "n_paths": _count(1), "seed": _count(0),
    "output_dir": _string, "target": _string,
    "delta": _real, "y": _optional(_point),
    "mc_per_node": _count(_MIN_MC_PER_NODE),
    "space_nodes": _count(_MIN_AXIS_NODES), "field_steps": _count(1),
}
_LADDER = (0.1, 0.05, 0.025, 0.0125)   # eps_ladder when the config has none


def _reject_unknown(desc, known, pointer):
    for key in desc:
        if key not in known:
            raise ConfigInvalid(f"{pointer}/{key}", "unknown key")


def validate(config_text):
    """Parse JSON config bytes, apply defaults, check invariants."""
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("/", f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigInvalid("/", "config must be a JSON object")
    _reject_unknown(raw, ("command", "domain", "preset", "grid", *_FIELDS), "")

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigInvalid("/command", f"must be one of {COMMANDS}")
    domain_desc = raw.get("domain")
    if not isinstance(domain_desc, dict):
        raise ConfigInvalid("/domain", "missing domain descriptor")
    preset_desc = raw.get("preset")
    if isinstance(preset_desc, str):
        preset_desc = {"name": preset_desc}
    if not isinstance(preset_desc, dict) or "name" not in preset_desc:
        raise ConfigInvalid("/preset", "expected {name, params}")
    _reject_unknown(preset_desc, ("name", "params"), "/preset")
    if preset_desc["name"] not in PRESET_NAMES:
        raise ConfigInvalid("/preset/name",
                            f"unknown preset {preset_desc['name']!r}")

    values = {key: _parse(f"/{key}", convert, raw[key])
              for key, convert in _FIELDS.items() if key in raw}
    if "params" in preset_desc:
        values["preset_params"] = _parse("/preset/params", dict,
                                         preset_desc["params"])
    grid_desc = raw.get("grid")
    n_steps = _count(1)          # of {"n_steps": ...} or of a bare number
    if isinstance(grid_desc, dict):
        _reject_unknown(grid_desc, ("n_steps",), "/grid")
        if "n_steps" in grid_desc:
            values["n_steps"] = _parse("/grid/n_steps", n_steps,
                                       grid_desc["n_steps"])
    elif "grid" in raw:
        values["n_steps"] = _parse("/grid", n_steps, grid_desc)
    cfg = ExperimentConfig(command=command, domain=dict(domain_desc),
                           preset_name=preset_desc["name"], **values)

    if not cfg.s < cfg.T:
        raise ConfigInvalid("/s", f"need s < T, got s={cfg.s}, T={cfg.T}")
    if cfg.s < 0:
        raise ConfigInvalid("/s", "start time must be >= 0")
    if not cfg.eps >= 0:
        raise ConfigInvalid("/eps", f"must be >= 0, got {cfg.eps}")
    if cfg.command == "bsde-grid" and not cfg.eps > 0:
        raise ConfigInvalid("/eps", f"must be > 0 for bsde-grid, got {cfg.eps}")
    if not cfg.delta > 0:
        raise ConfigInvalid("/delta", f"must be > 0, got {cfg.delta}")
    # JSON reads NaN and Infinity as floats, and true and false as bools
    for key, value in cfg.preset_params.items():
        if isinstance(value, (float, bool)):
            _parse(f"/preset/params/{key}", partial(_param, key), value)
    coeffs = _parse("/preset/params", lambda p: preset(cfg.preset_name, p),
                    cfg.preset_params)
    if float(cfg.preset_params.get("T", cfg.T)) != cfg.T:
        raise ConfigInvalid("/preset/params/T",
                            f"must equal the config's T = {cfg.T}")
    if cfg.target not in TARGETS:
        raise ConfigInvalid("/target", f"must be one of {TARGETS}")
    if cfg.command == "convergence" and cfg.n_paths < _MIN_PATHS:
        raise ConfigInvalid("/n_paths", f"must be >= {_MIN_PATHS} for "
                            f"convergence, got {cfg.n_paths}")
    if (cfg.command == "convergence" and cfg.target == "Y4"
            and cfg.n_steps % min(cfg.n_steps, cfg.field_steps)):
        raise ConfigInvalid("/field_steps",
                            f"must divide grid.n_steps = {cfg.n_steps} for "
                            f"target Y4, got {cfg.field_steps}")
    domain = _parse("/domain", lambda desc: make_domain(**desc), cfg.domain)
    _parse("/preset/name", lambda name: _check_dims(coeffs, domain),
           cfg.preset_name)
    for key in ("x", "y"):      # the start and action-min's target
        point = getattr(cfg, key)
        if point is None:
            continue
        if len(point) != domain.dimension:
            raise ConfigInvalid(f"/{key}",
                                f"expected {domain.dimension} coordinates")
        _check_inside(domain, np.asarray(point), "point lies outside the "
                      "domain", partial(ConfigInvalid, f"/{key}"))
    return cfg


def _names(prefix, width):
    """CSV column names prefix_1 ... prefix_width."""
    return [f"{prefix}_{i + 1}" for i in range(width)]


_BLOCK_ROWS = 512   # rows formatted and written per fh.write
_TABLE_VALUES = 1024  # most distinct values of a column whose reprs are tabled


def _column_reader(col):
    """(fmt, read) of one CSV column: read(a, b) gives the values of rows
    a:b, which _write_csv writes as fmt % value. A column with at most
    _TABLE_VALUES distinct bit patterns is read from a table of their reprs,
    so that each is formatted once, with fmt "%s"; bit patterns keep 0.0 and
    -0.0 apart, and each repr is of the column's own .tolist() value, so an
    int or a bool keeps its text. Any other column is read as its .tolist()
    values, with fmt "%r"."""
    if col.dtype.kind in "biuf" and col.itemsize in (1, 2, 4, 8):
        bits = col.view(f"u{col.itemsize}")
        keys = np.sort(bits)
        new = np.empty(keys.size, bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        if np.count_nonzero(new) <= _TABLE_VALUES:
            keys = keys[new]
            table = np.array([repr(v) for v in keys.view(col.dtype).tolist()],
                             dtype=object)
            return "%s", lambda a, b: table[
                np.searchsorted(keys, bits[a:b])].tolist()
    return "%r", lambda a, b: col[a:b].tolist()


def _write_csv(path, header, columns):
    """Write a CSV of one header row and the rows of columns, of equal
    length and one type each, (rows,) or (rows, width) for width columns;
    returns the row count. Values are written as the repr of numpy's
    .tolist() values, so a float prints as its shortest round-trip repr and
    an int or bool as str, never as a numpy scalar; lines end in \\r\\n. A
    column with few distinct values formats each of them once. A block of
    rows is built column by column: each column's texts, fmt % value, in one
    list, then the rows joined."""
    n = len(columns[0])
    readers = [_column_reader(col) for c in columns
               for col in np.atleast_2d(np.asarray(c).T)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, n, _BLOCK_ROWS):
            b = a + _BLOCK_ROWS
            texts = [read(a, b) if fmt == "%s" else list(map(repr, read(a, b)))
                     for fmt, read in readers]
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")
    return n


def _execute(cfg, out_dir):
    """Run the named command, write CSVs into out_dir, return extra manifest
    fields and the row count of every output file."""
    domain = make_domain(**cfg.domain)
    coeffs = preset(cfg.preset_name, {"T": cfg.T, **cfg.preset_params})
    grid = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.n_steps)
    x = np.asarray(cfg.x, float)
    d, k = domain.dimension, coeffs.dims[2]
    ladder = cfg.eps_ladder or _LADDER
    files = {}
    extra = {}

    def write(name, header, *columns):
        files[name] = _write_csv(os.path.join(out_dir, name), header, columns)

    if cfg.command == "audit":
        audit = audit_assumptions(coeffs, domain, rng_seed=cfg.seed)
        write("audit.csv",
              ["L1", "L3", "iota", "pass_H1", "pass_H2", "pass_Hfgh",
               "pass_convex"],
              *([v] for v in (audit.L1, audit.L3, audit.iota,
                              audit.passed["H1"], audit.passed["H2"],
                              audit.passed["Hfgh"], audit.passed["convex"])))
        extra["audit"] = {"passed": audit.passed, "flags": list(audit.flags),
                          "L1": audit.L1, "L3": audit.L3, "iota": audit.iota,
                          "alpha_min": audit.alpha_min}

    elif cfg.command in ("skeleton", "simulate-forward"):
        eps = 0.0 if cfg.command == "skeleton" else cfg.eps
        n_paths = 1 if cfg.command == "skeleton" else cfg.n_paths
        xp, kp = simulate_reflected_batch(coeffs, domain, cfg.s, x, eps,
                                          grid, cfg.seed, n_paths)
        write(f"{cfg.command}.csv", ["path", "t", *_names("x", d), "K"],
              np.arange(n_paths).repeat(grid.n_steps + 1),
              np.tile(grid.nodes, n_paths), xp.reshape(-1, d), kp.ravel())
        extra["epsilon"] = eps

    elif cfg.command == "bsde-limit":
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, grid)
        bp = solve_limit_bsde(coeffs, skel)
        write("bsde-limit.csv", ["t", *_names("y", k)], grid.nodes, bp.y_path)

    elif cfg.command == "bsde-grid":
        lattice = make_lattice(domain, cfg.space_nodes)
        times = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.field_steps)
        field_v = solve_bsde_grid(coeffs, domain, cfg.eps, times, lattice,
                                  cfg.mc_per_node, cfg.seed)
        nodes, _ = _lattice_nodes(lattice)
        write("bsde-grid.csv", ["t", *_names("x", d), *_names("u", k)],
              times.nodes.repeat(len(nodes)),
              np.tile(nodes, (times.n_steps + 1, 1)),
              field_v.values.reshape(-1, k))
        extra["epsilon"] = cfg.eps

    elif cfg.command == "action-eval":
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, grid)
        res = evaluate_action(coeffs, domain, skel)
        write("action-eval.csv",
              ["t", *_names("psi", d), *_names("phi", d), "integrand"],
              grid.nodes, res.psi, res.phi, np.append(res.integrand, 0.0))
        extra["action"] = res.action

    elif cfg.command == "action-min":
        if cfg.y is None:
            raise ConfigInvalid("/y", "action-min requires a target point y")
        res, info = minimize_action_endpoint(
            coeffs, domain, cfg.s, x, np.asarray(cfg.y, float), cfg.T, grid)
        its, values, steps = zip(*info["iterations"])
        write("action-min.csv", ["iter", "action", "step", "violation"],
              its, values, steps, [0.0] * len(its))
        write("action-min-path.csv", ["t", *_names("psi", d)],
              grid.nodes, res.psi)
        extra["action"] = res.action
        extra["stalled"] = info["stalled"]

    elif cfg.command == "contracted-rate":
        lattice = make_lattice(domain, cfg.space_nodes)
        times = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.field_steps)
        field_v = limit_value_field(coeffs, domain, times, lattice)
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, times)
        gamma = apply_pi(field_v, skel.x_path)
        res = contracted_rate(coeffs, domain, field_v, gamma, cfg.s, x)
        write("contracted-rate.csv", ["t", *_names("psi", d)],
              times.nodes, res["argmin_psi"])
        extra["s_prime"] = res["s_prime"]
        extra["violation"] = res["violation"]
        extra["stalled"] = res["stalled"]

    elif cfg.command == "convergence":
        report = convergence_study(
            cfg.target, coeffs, domain, cfg.s, x, ladder, cfg.n_paths,
            grid, cfg.seed, mc_per_node=cfg.mc_per_node,
            field_steps=cfg.field_steps, field_nodes=cfg.space_nodes)
        write("convergence.csv", ["eps", "error", "ci_halfwidth"],
              report.epsilons, report.errors, report.ci_halfwidth)
        extra["convergence"] = {"target": report.target,
                                "slope": report.slope,
                                "intercept": report.intercept,
                                "r2": report.r2,
                                "slope_se": report.slope_se}

    elif cfg.command == "tail":
        report = tail_study(coeffs, domain, cfg.s, x, cfg.delta, ladder,
                            cfg.n_paths, grid, cfg.seed)
        write("tail.csv", ["eps", "delta", "p_hat", "eps_log_p", "se"],
              report.epsilons, report.deltas, report.p_hat,
              report.eps_log_p, report.se)
        extra["tail"] = {"rate_bound": report.rate_bound,
                         "delta_adjusted": report.delta_adjusted,
                         "zero_hit_levels": list(report.zero_hit_levels)}

    return extra, files


@cache
def _git_describe(path):
    """`git describe --always --dirty` of the checkout that tracks the files
    in path, or "" when git is missing or nothing in path is tracked, as for
    a package installed inside some other checkout; run once per path and
    process."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=path, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if not git("ls-files", "--", "."):
            return ""
        return git("describe", "--always", "--dirty")
    except (OSError, subprocess.SubprocessError):
        return ""


def run(config):
    """Execute a validated config; returns the manifest dict.

    Outputs land in config.output_dir; on any error the directory contains
    only error.json and the exception is re-raised.
    """
    out_final = config.output_dir
    os.makedirs(out_final, exist_ok=True)
    start = time.time()
    tmp = tempfile.mkdtemp(prefix=".reflectal-", dir=out_final)
    try:
        extra, files = _execute(config, tmp)
        manifest = {
            "config": json.loads(serialize(config).decode()),
            "config_hash": hashlib.sha256(serialize(config)).hexdigest(),
            "seed": config.seed,
            "started": start,
            "finished": time.time(),
            "outputs": {name: {"rows": rows} for name, rows in files.items()},
            "version": __version__,
            "git_describe": _git_describe(os.path.dirname(__file__)),
        }
        manifest.update(extra)
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        for name in list(files) + ["manifest.json"]:
            os.replace(os.path.join(tmp, name), os.path.join(out_final, name))
        return manifest
    except Exception as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigInvalid):
            err["field"] = exc.field
        with open(os.path.join(out_final, "error.json"), "w") as fh:
            json.dump(err, fh, indent=2)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reflectal",
        description="reflected-SDE / BSDE / action-functional laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="override output_dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            cfg = validate(fh.read())
        overrides = {"command": args.command}
        if args.out is not None:
            overrides["output_dir"] = args.out
        env_seed = os.environ.get("REFLECTAL_SEED")
        if env_seed is not None:
            overrides["seed"] = _parse("/seed", _FIELDS["seed"], env_seed)
        run(validate(serialize(replace(cfg, **overrides))))
    except ReflectalError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
