"""Batch front end: JSON experiment configs in, CSV + manifest out.

Usage: reflectal <command> --config run.json [--workers N] [--out DIR]

Outputs are written to a temporary directory and renamed into place on
success, so a failed run leaves only error.json behind. CSV numbers use the
shortest round-trip decimal representation of the underlying doubles, which
makes byte-identical reruns a meaningful reproducibility check.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache

import numpy as np

from . import __version__
from .action import contracted_rate, evaluate_action, minimize_action_endpoint
from .backward import (_lattice_nodes, apply_pi, limit_value_field,
                       make_lattice, solve_bsde_grid, solve_limit_bsde)
from .coefficients import PRESET_NAMES, audit_assumptions, preset
from .errors import ConfigInvalid, ReflectalError
from .forward import (TimeGrid, integrate_skeleton_ode,
                      simulate_reflected_batch)
from .geometry import make_domain, project
from .harness import TARGETS, convergence_study, tail_study

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
    workers: int = 1
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
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(pointer, f"not a valid value: {value!r}") from None


def _floats(value):
    return tuple(np.atleast_1d(value).astype(float).tolist())


def validate(config_text):
    """Parse JSON config bytes, apply defaults, check invariants."""
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("/", f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigInvalid("/", "config must be a JSON object")

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
    if preset_desc["name"] not in PRESET_NAMES:
        raise ConfigInvalid("/preset/name",
                            f"unknown preset {preset_desc['name']!r}")

    grid_desc = raw.get("grid", 1024)
    if isinstance(grid_desc, dict):
        n_steps = _parse("/grid/n_steps", int, grid_desc.get("n_steps", 1024))
    else:
        n_steps = _parse("/grid", int, grid_desc)
    cfg = ExperimentConfig(
        command=command,
        domain=dict(domain_desc),
        preset_name=preset_desc["name"],
        preset_params=dict(preset_desc.get("params", {})),
        s=_parse("/s", float, raw.get("s", 0.0)),
        T=_parse("/T", float, raw.get("T", 1.0)),
        x=_parse("/x", _floats, raw.get("x", 0.5)),
        n_steps=n_steps,
        eps=_parse("/eps", float, raw.get("eps", 0.1)),
        eps_ladder=(_parse("/eps_ladder", lambda v: tuple(float(e) for e in v),
                           raw["eps_ladder"])
                    if raw.get("eps_ladder") else None),
        n_paths=_parse("/n_paths", int, raw.get("n_paths", 1000)),
        seed=_parse("/seed", int, raw.get("seed", 0)),
        output_dir=str(raw.get("output_dir", "out")),
        workers=_parse("/workers", int, raw.get("workers", 1)),
        target=str(raw.get("target", "X4")),
        delta=_parse("/delta", float, raw.get("delta", 0.2)),
        y=(_parse("/y", _floats, raw["y"])
           if raw.get("y") is not None else None),
        mc_per_node=_parse("/mc_per_node", int, raw.get("mc_per_node", 256)),
        space_nodes=_parse("/space_nodes", int, raw.get("space_nodes", 33)),
        field_steps=_parse("/field_steps", int, raw.get("field_steps", 128)),
    )

    if not cfg.s < cfg.T:
        raise ConfigInvalid("/s", f"need s < T, got s={cfg.s}, T={cfg.T}")
    if cfg.s < 0:
        raise ConfigInvalid("/s", "start time must be >= 0")
    if cfg.n_steps < 1:
        raise ConfigInvalid("/grid/n_steps", "must be >= 1")
    if not cfg.eps >= 0:
        raise ConfigInvalid("/eps", f"must be >= 0, got {cfg.eps}")
    if cfg.command == "bsde-grid" and not cfg.eps > 0:
        raise ConfigInvalid("/eps", f"must be > 0 for bsde-grid, got {cfg.eps}")
    if cfg.n_paths < 1:
        raise ConfigInvalid("/n_paths", "must be >= 1")
    if cfg.workers < 1:
        raise ConfigInvalid("/workers", "must be >= 1")
    _parse("/preset/params", lambda p: preset(cfg.preset_name, p),
           cfg.preset_params)
    if float(cfg.preset_params.get("T", cfg.T)) != cfg.T:
        raise ConfigInvalid("/preset/params/T",
                            f"must equal the config's T = {cfg.T}")
    if cfg.target not in TARGETS:
        raise ConfigInvalid("/target", f"must be one of {TARGETS}")
    try:
        domain = make_domain(**cfg.domain)
    except (TypeError, ValueError, ReflectalError) as exc:
        raise ConfigInvalid("/domain", str(exc)) from None
    xarr = np.asarray(cfg.x, float)
    if xarr.size != domain.dimension:
        raise ConfigInvalid("/x", f"expected {domain.dimension} coordinates")
    if float(np.linalg.norm(project(domain, xarr) - xarr)) > 1e-12:
        raise ConfigInvalid("/x", "initial point lies outside the domain")
    return cfg


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
            count += 1
    return count


def _traj_rows(grid, x_paths, k_paths):
    n_paths, n1, d = x_paths.shape
    nodes = grid.nodes
    for p in range(n_paths):
        for i in range(n1):
            yield (p, float(nodes[i]), *map(float, x_paths[p, i]),
                   float(k_paths[p, i]))


def _execute(cfg, out_dir):
    """Run the named command, write CSVs into out_dir, return extra manifest
    fields and the list of output files."""
    domain = make_domain(**cfg.domain)
    params = dict(cfg.preset_params)
    params.setdefault("T", cfg.T)
    coeffs = preset(cfg.preset_name, params)
    grid = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.n_steps)
    x = np.asarray(cfg.x, float)
    d = domain.dimension
    files = {}
    extra = {}

    if cfg.command == "audit":
        audit = audit_assumptions(coeffs, domain, rng_seed=cfg.seed)
        files["audit.csv"] = _write_csv(
            os.path.join(out_dir, "audit.csv"),
            ["L1", "L3", "iota", "pass_H1", "pass_H2", "pass_Hfgh"],
            [(audit.L1, audit.L3, audit.iota, audit.passed["H1"],
              audit.passed["H2"], audit.passed["Hfgh"])])
        extra["audit"] = {"passed": audit.passed, "flags": list(audit.flags),
                          "L1": audit.L1, "L3": audit.L3, "iota": audit.iota}

    elif cfg.command in ("skeleton", "simulate-forward"):
        eps = 0.0 if cfg.command == "skeleton" else cfg.eps
        n_paths = 1 if cfg.command == "skeleton" else cfg.n_paths
        xp, kp = simulate_reflected_batch(coeffs, domain, cfg.s, x, eps,
                                          grid, cfg.seed, n_paths)
        header = (["path", "t"] + [f"x_{i+1}" for i in range(d)] + ["K"])
        name = f"{cfg.command}.csv"
        files[name] = _write_csv(os.path.join(out_dir, name), header,
                                 _traj_rows(grid, xp, kp))
        extra["epsilon"] = eps

    elif cfg.command == "bsde-limit":
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, grid)
        bp = solve_limit_bsde(coeffs, skel)
        k = bp.y_path.shape[1]
        header = ["t"] + [f"y_{i+1}" for i in range(k)]
        rows = [(float(t), *map(float, y))
                for t, y in zip(grid.nodes, bp.y_path)]
        files["bsde-limit.csv"] = _write_csv(
            os.path.join(out_dir, "bsde-limit.csv"), header, rows)

    elif cfg.command == "bsde-grid":
        lattice = make_lattice(domain, cfg.space_nodes)
        times = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.field_steps)
        field_v = solve_bsde_grid(coeffs, domain, cfg.eps, times, lattice,
                                  cfg.mc_per_node, cfg.seed)
        k = field_v.values.shape[-1]
        header = (["t"] + [f"x_{i+1}" for i in range(d)]
                  + [f"u_{i+1}" for i in range(k)])
        nodes, _ = _lattice_nodes(lattice)
        flat = field_v.values.reshape(times.n_steps + 1, -1, k)
        rows = ((float(t), *map(float, node), *map(float, u))
                for t, us in zip(times.nodes, flat) for node, u in zip(nodes, us))
        files["bsde-grid.csv"] = _write_csv(
            os.path.join(out_dir, "bsde-grid.csv"), header, rows)
        extra["epsilon"] = cfg.eps

    elif cfg.command == "action-eval":
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, grid)
        res = evaluate_action(coeffs, domain, skel)
        header = (["t"] + [f"psi_{i+1}" for i in range(d)]
                  + [f"phi_{i+1}" for i in range(d)] + ["integrand"])
        integ = np.concatenate([res.integrand, [0.0]])
        rows = [(float(t), *map(float, ps), *map(float, ph), float(ig))
                for t, ps, ph, ig in zip(grid.nodes, res.psi, res.phi, integ)]
        files["action-eval.csv"] = _write_csv(
            os.path.join(out_dir, "action-eval.csv"), header, rows)
        extra["action"] = res.action

    elif cfg.command == "action-min":
        if cfg.y is None:
            raise ConfigInvalid("/y", "action-min requires a target point y")
        res, info = minimize_action_endpoint(
            coeffs, domain, cfg.s, x, np.asarray(cfg.y, float), cfg.T, grid)
        files["action-min.csv"] = _write_csv(
            os.path.join(out_dir, "action-min.csv"),
            ["iter", "action", "step", "violation"],
            [(it, v, st, 0.0) for it, v, st in info["iterations"]])
        header = ["t"] + [f"psi_{i+1}" for i in range(d)]
        rows = [(float(t), *map(float, p))
                for t, p in zip(grid.nodes, res.psi)]
        files["action-min-path.csv"] = _write_csv(
            os.path.join(out_dir, "action-min-path.csv"), header, rows)
        extra["action"] = res.action
        extra["stalled"] = info["stalled"]

    elif cfg.command == "contracted-rate":
        lattice = make_lattice(domain, cfg.space_nodes)
        times = TimeGrid(s=cfg.s, T=cfg.T, n_steps=cfg.field_steps)
        field_v = limit_value_field(coeffs, domain, times, lattice)
        skel = integrate_skeleton_ode(coeffs, domain, cfg.s, x, times)
        gamma = apply_pi(field_v, skel.x_path)
        res = contracted_rate(coeffs, domain, field_v, gamma, cfg.s, x, times)
        header = ["t"] + [f"psi_{i+1}" for i in range(d)]
        rows = [(float(t), *map(float, p))
                for t, p in zip(times.nodes, res["argmin_psi"])]
        files["contracted-rate.csv"] = _write_csv(
            os.path.join(out_dir, "contracted-rate.csv"), header, rows)
        extra["s_prime"] = res["s_prime"]
        extra["violation"] = res["violation"]
        extra["stalled"] = res["stalled"]

    elif cfg.command == "convergence":
        ladder = cfg.eps_ladder or (0.1, 0.05, 0.025, 0.0125)
        report = convergence_study(
            cfg.target, coeffs, domain, cfg.s, x, ladder, cfg.n_paths,
            grid, cfg.seed, workers=cfg.workers,
            mc_per_node=cfg.mc_per_node, field_steps=cfg.field_steps,
            field_nodes=cfg.space_nodes)
        files["convergence.csv"] = _write_csv(
            os.path.join(out_dir, "convergence.csv"),
            ["eps", "error", "ci_halfwidth"],
            list(zip(report.epsilons, report.errors, report.ci_halfwidth)))
        extra["convergence"] = {"target": report.target,
                                "slope": report.slope,
                                "intercept": report.intercept,
                                "r2": report.r2}

    elif cfg.command == "tail":
        ladder = cfg.eps_ladder or (0.1, 0.05, 0.025, 0.0125)
        report = tail_study(coeffs, domain, cfg.s, x, cfg.delta, ladder,
                            cfg.n_paths, grid, cfg.seed, workers=cfg.workers)
        files["tail.csv"] = _write_csv(
            os.path.join(out_dir, "tail.csv"),
            ["eps", "delta", "p_hat", "eps_log_p", "se"],
            list(zip(report.epsilons, report.deltas, report.p_hat,
                     report.eps_log_p, report.se)))
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
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="override output_dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            cfg = validate(fh.read())
        overrides = {"command": args.command}
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.out is not None:
            overrides["output_dir"] = args.out
        env_seed = os.environ.get("REFLECTAL_SEED")
        if env_seed is not None:
            overrides["seed"] = _parse("/seed", int, env_seed)
        run(validate(serialize(replace(cfg, **overrides))))
    except ReflectalError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
