"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is a list of operations. `make_inputs(seed, rep, size, scratch)` builds
the inputs of one pass over the operations from the workload seed and the
repetition number, so repeated passes in one run use fresh inputs of the same
size. An operation calls only public functions of `reflectal` through its
modules (`harness.convergence_study`, not a local name), so the traced run's
wrappers see every call. A check returns a list of failure messages and a
dict of facts (exact-reference gaps, digests) for the report.

Checks never pin stochastic output by hash: they test structure (containment,
monotone K, finiteness), ordering along the epsilon ladder, and closed-form
answers where one exists.
"""

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from reflectal import action, backward, cli, coefficients, forward, geometry, harness

LADDER = (0.1, 0.05, 0.025, 0.0125)
ACTION_GAP = 1e-3        # allowed relative gap of the minimizer above the optimum
RATE_TOL = 1e-4          # |S' - a^2/2| for the contracted rate
VIOLATION_TOL = 1e-3
Z_LIMIT = 5.0            # sample-moment checks against the exact OU law
# At n = 8 the endpoint minimizer is within a relative 2e-7 of the exact
# optimum after 50 iterations (the check allows 1e-3); the default 400 only
# repeat the last digits.
ACTION_OPTS = action.OptimizerOptions(max_iter=50)
# With the default grad_tol the last penalty stages stop wherever the noisy
# finite-difference gradient first dips below 1e-10, which makes the work
# jump from one slope to the next. grad_tol = 0 runs every stage to max_iter,
# so each seed does the same number of iterations. 20 per stage leave S'
# within 2e-7 of its exact value, as 400 do.
FULL_STAGES = action.OptimizerOptions(grad_tol=0.0, max_iter=20)

SIZES = {
    "full": {
        "mc_paths": 1000, "mc_steps": 256,
        "action_steps": 8, "field_steps": 4, "field_nodes": 9,
        "sim_paths": 128, "sim_steps": 512,
        "grid_nodes": 9, "grid_steps": 32, "grid_mc": 128,
        "y4_paths": 1000, "y4_steps": 256, "y4_field_steps": 32,
        "y4_nodes": 17, "y4_mc": 64,
    },
    "toy": {
        "mc_paths": 1000, "mc_steps": 64,
        "action_steps": 6, "field_steps": 4, "field_nodes": 9,
        "sim_paths": 16, "sim_steps": 64,
        "grid_nodes": 5, "grid_steps": 4, "grid_mc": 64,
        "y4_paths": 1000, "y4_steps": 64, "y4_field_steps": 16,
        "y4_nodes": 9, "y4_mc": 64,
    },
}


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable      # inputs -> output
    check: Callable    # (inputs, output) -> (failures, facts)


def _rng(seed, rep, salt):
    return np.random.default_rng([seed, rep, salt])


def _study_seed(seed, rep, salt):
    return int(_rng(seed, rep, salt).integers(2**31 - 1))


def _finite_positive(values, what):
    v = np.asarray(values, float)
    if not np.all(np.isfinite(v)):
        return [f"{what}: non-finite estimate {v.tolist()}"]
    if not np.all(v > 0):
        return [f"{what}: non-positive estimate {v.tolist()}"]
    return []


# ---------------------------------------------------------------- mc_orders_1d

def _mc_inputs(seed, rep, size, scratch):
    sz = SIZES[size]
    return {
        "domain": geometry.make_domain("interval", a=0.0, b=1.0),
        "drift": coefficients.preset("constant-drift", {"v": 1.0}),
        "noise": coefficients.preset("zero-drift-unit-noise"),
        "grid": forward.TimeGrid(s=0.0, T=1.0, n_steps=sz["mc_steps"]),
        "n_paths": sz["mc_paths"], "x": 0.5, "delta": 0.2,
        "study_seed": _study_seed(seed, rep, 1),
    }


def _convergence_op(target):
    def run(inp):
        return harness.convergence_study(
            target, inp["drift"], inp["domain"], 0.0, inp["x"], LADDER,
            inp["n_paths"], inp["grid"], inp["study_seed"])

    def check(inp, report):
        errors = np.asarray(report.errors, float)
        failures = _finite_positive(errors, target)
        failures += _finite_positive(report.ci_halfwidth, f"{target} standard error")
        if not failures:
            if target in ("X4", "K4") and not np.all(np.diff(errors) < 0):
                failures.append(f"{target}: not strictly decreasing along the "
                                f"ladder: {errors.tolist()}")
            if target == "Kexp" and not np.all(errors >= 1.0):
                failures.append(f"Kexp: E exp(K_T) below 1: {errors.tolist()}")
        return failures, {}

    return Op(f"convergence_{target}", run, check)


def brownian_sup_exceedance(a, T=1.0, terms=200):
    """P(sup_{t<=T} |W_t| >= a) by Feller's series."""
    m = 2.0 * np.arange(terms) + 1.0
    signs = np.where(np.arange(terms) % 2 == 0, 1.0, -1.0)
    stay = 4.0 / np.pi * np.sum(signs / m * np.exp(-(m * np.pi) ** 2 * T / (8.0 * a * a)))
    return 1.0 - stay


def _tail_run(inp):
    return harness.tail_study(inp["noise"], inp["domain"], 0.0, inp["x"],
                              inp["delta"], LADDER, inp["n_paths"], inp["grid"],
                              inp["study_seed"])


def _tail_check(inp, report):
    p_hat = np.asarray(report.p_hat, float)
    failures = []
    if not (np.all(np.isfinite(p_hat)) and np.all(p_hat > 0) and np.all(p_hat <= 1)):
        failures.append(f"tail: p_hat outside (0, 1]: {p_hat.tolist()}")
    # Zero drift from the midpoint of [0, 1]: the skeleton is constant and
    # the cheapest exceedance path is the straight line, S* = delta^2 / 2.
    delta = report.deltas[0]
    s_star, exact = -report.rate_bound, 0.5 * delta * delta
    if not (np.isfinite(s_star) and exact - 1e-9 <= s_star <= exact * (1 + ACTION_GAP)):
        failures.append(f"tail: certificate S*={s_star!r}, exact {exact!r}")
    facts = {"action.gap_rel": (s_star - exact) / exact}
    if not failures:
        # The exceedance is decided before the boundary (delta < 0.5), so p is
        # the Brownian sup law; grid monitoring biases p_hat low (reported,
        # not gated).
        p = np.array([brownian_sup_exceedance(d / np.sqrt(e))
                      for d, e in zip(report.deltas, report.epsilons)])
        z = (p_hat - p) / np.sqrt(p * (1.0 - p) / report.n_paths)
        facts["harness.tail_z_exact"] = float(z.sum() / np.sqrt(z.size))
        facts["tail.z_per_level"] = z.tolist()
        facts["tail.delta_adjusted"] = report.delta_adjusted
    return failures, facts


def _mc_summary(inp, op_s):
    levels = len(LADDER)
    steps = inp["n_paths"] * inp["grid"].n_steps * levels * 5
    wall = sum(op_s.values())
    return {"convergence_s": (sum(v for k, v in op_s.items()
                                  if k.startswith("convergence_")), "s"),
            "tail_s": (op_s["tail"], "s"),
            "path_steps_per_s": (steps / wall, "1/s")}


# ------------------------------------------------------------- rate_functional

def ou_discrete_optimum(x, y, theta, n, T):
    """Exact minimizer of the discrete OU action with both ends pinned,
    0.5/dt * sum |p_{i+1} - (1 - theta dt) p_i|^2, by a tridiagonal solve."""
    dt = T / n
    c = 1.0 - theta * dt
    m = n - 1
    bands = np.zeros((3, m))
    bands[0, 1:] = -c
    bands[1] = 1.0 + c * c
    bands[2, :-1] = -c
    rhs = np.zeros((m, x.size))
    rhs[0] += c * x
    rhs[-1] += c * y
    path = np.vstack([x, solve_banded((1, 1), bands, rhs), y])
    r = path[1:] - c * path[:-1]
    return 0.5 / dt * float(np.sum(r * r)), path


def _rate_inputs(seed, rep, size, scratch):
    sz = SIZES[size]
    rng = _rng(seed, rep, 2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    slope = rng.uniform(0.1, 0.2)
    x = np.array([0.25, 0.0])
    y = 0.9 * np.array([np.cos(angle), np.sin(angle)])
    n = sz["action_steps"]
    exact, path = ou_discrete_optimum(x, y, 1.0, n, 1.0)
    interval = geometry.make_domain("interval", a=0.0, b=1.0)
    return {
        "ball": geometry.make_domain("ball", center=[0.0, 0.0], radius=1.0),
        "ou": coefficients.preset("ou-in-ball", {"theta": 1.0}),
        "x": x, "y": y, "grid": forward.TimeGrid(s=0.0, T=1.0, n_steps=n),
        "exact_action": exact,
        "exact_max_radius": float(np.linalg.norm(path, axis=1).max()),
        "interval": interval,
        "noise": coefficients.preset("zero-drift-unit-noise"),
        "times": forward.TimeGrid(s=0.0, T=1.0, n_steps=sz["field_steps"]),
        "lattice": backward.make_lattice(interval, sz["field_nodes"]),
        "slope": slope,
    }


def _action_min_run(inp):
    return action.minimize_action_endpoint(inp["ou"], inp["ball"], 0.0, inp["x"],
                                           inp["y"], 1.0, inp["grid"], ACTION_OPTS)


def _action_min_check(inp, out):
    result, _ = out
    exact = inp["exact_action"]
    failures = []
    # the interior optimum is the constrained one only if it stays inside
    if not inp["exact_max_radius"] < 1.0 - 1e-6:
        failures.append("action_min: exact optimum touches the boundary")
    psi = np.asarray(result.psi)
    if not (np.allclose(psi[0], inp["x"], atol=1e-12)
            and np.allclose(psi[-1], inp["y"], atol=1e-12)):
        failures.append("action_min: path endpoints are not pinned at x and y")
    if not np.all(np.linalg.norm(psi, axis=1) <= 1.0 + 1e-9):
        failures.append("action_min: path leaves the ball")
    value = result.action
    if not (np.isfinite(value) and exact - 1e-9 <= value <= exact * (1 + ACTION_GAP)):
        failures.append(f"action_min: action {value!r} outside "
                        f"[{exact!r} - 1e-9, {exact!r} * (1 + {ACTION_GAP})]")
    return failures, {"action.gap_rel": (value - exact) / exact}


def _contracted_run(inp):
    # Zero drift, zero drivers, identity terminal map: the limit field is
    # u(t, x) = x, so the preimage of gamma is gamma itself and S' = a^2 / 2.
    field = backward.limit_value_field(inp["noise"], inp["interval"], inp["times"],
                                       inp["lattice"])
    gamma = 0.5 + inp["slope"] * inp["times"].nodes
    return action.contracted_rate(inp["noise"], inp["interval"], field, gamma,
                                  0.0, 0.5, opts=FULL_STAGES)


def _contracted_check(inp, out):
    exact = 0.5 * inp["slope"] ** 2
    failures = []
    if not abs(out["s_prime"] - exact) <= RATE_TOL:
        failures.append(f"contracted_rate: S'={out['s_prime']!r}, exact {exact!r}")
    if not out["violation"] <= VIOLATION_TOL:
        failures.append(f"contracted_rate: violation {out['violation']!r}")
    return failures, {"contracted_rate.error": out["s_prime"] - exact}


def _rate_summary(inp, op_s):
    return {"action_min_s": (op_s["action_min"], "s"),
            "contracted_rate_s": (op_s["contracted_rate"], "s")}


# ------------------------------------------------------------------- cli_batch

def _cli_inputs(seed, rep, size, scratch):
    sz = SIZES[size]
    ball = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    ou = {"name": "ou-in-ball", "params": {"theta": 1.0}}
    configs = {
        "simulate_forward": {
            "command": "simulate-forward", "domain": ball, "preset": ou,
            "x": [0.25, 0.0], "eps": 0.1, "n_paths": sz["sim_paths"],
            "grid": {"n_steps": sz["sim_steps"]}},
        "bsde_grid": {
            "command": "bsde-grid", "domain": ball, "preset": ou,
            "x": [0.25, 0.0], "eps": 0.1, "space_nodes": sz["grid_nodes"],
            "field_steps": sz["grid_steps"], "mc_per_node": sz["grid_mc"]},
        "y4_convergence": {
            "command": "convergence", "domain": {"kind": "interval", "a": 0, "b": 1},
            "preset": {"name": "linear-bsde", "params": {"lam": 1.0, "g0": 1.0}},
            "x": 0.5, "target": "Y4", "n_paths": sz["y4_paths"],
            "grid": {"n_steps": sz["y4_steps"]},
            "field_steps": sz["y4_field_steps"], "space_nodes": sz["y4_nodes"],
            "mc_per_node": sz["y4_mc"]},
    }
    texts = {}
    for salt, (name, cfg) in enumerate(sorted(configs.items())):
        cfg = dict(cfg, seed=_study_seed(seed, rep, 10 + salt),
                   output_dir=os.path.join(scratch, f"{name}-{rep}"))
        texts[name] = json.dumps(cfg)
    return {"configs": texts}


def _cli_op(name, check_files):
    def run(inp):
        return cli.run(cli.validate(inp["configs"][name]))

    def check(inp, manifest):
        cfg = json.loads(inp["configs"][name])
        out_dir = cfg["output_dir"]
        try:
            failures, facts = [], {}
            for fname, info in manifest["outputs"].items():
                path = os.path.join(out_dir, fname)
                with open(path, "rb") as fh:
                    facts[f"sha256:{fname}"] = hashlib.sha256(fh.read()).hexdigest()
                table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                if table.shape[0] != info["rows"]:
                    failures.append(f"{fname}: {table.shape[0]} rows, manifest "
                                    f"says {info['rows']}")
                elif not np.all(np.isfinite(table)):
                    failures.append(f"{fname}: non-finite values")
                else:
                    failures += check_files(cfg, table)
            return failures, facts
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op(name, run, check)


def _check_paths(cfg, table):
    n_paths, n = cfg["n_paths"], cfg["grid"]["n_steps"]
    if table.shape != (n_paths * (n + 1), 5):
        return [f"simulate-forward: table shape {table.shape}"]
    x = table[:, 2:4].reshape(n_paths, n + 1, 2)
    k = table[:, 4].reshape(n_paths, n + 1)
    t = table[:, 1].reshape(n_paths, n + 1)
    failures = []
    if not np.allclose(t, np.linspace(0.0, 1.0, n + 1)[None], rtol=0, atol=1e-12):
        failures.append("simulate-forward: time column is not the grid")
    if not np.all(np.linalg.norm(x, axis=-1) <= 1.0 + 1e-9):
        failures.append("simulate-forward: a path leaves the ball")
    if not (np.all(k[:, 0] == 0.0) and np.all(np.diff(k, axis=1) >= 0.0)):
        failures.append("simulate-forward: K is not nondecreasing from 0")
    if not np.allclose(x[:, 0], cfg["x"], rtol=0, atol=1e-12):
        failures.append("simulate-forward: paths do not start at x")
    # Boundary contact is rare here (~1e-5 of steps), so X_T follows the
    # OU law: mean x e^{-theta T}, variance eps (1 - e^{-2 theta T}) / 2.
    mean = np.asarray(cfg["x"]) * np.exp(-1.0)
    var = cfg["eps"] * (1.0 - np.exp(-2.0)) / 2.0
    end = x[:, -1]
    z_mean = (end.mean(axis=0) - mean) / np.sqrt(var / n_paths)
    z_var = (end.var(axis=0, ddof=1) - var) / (var * np.sqrt(2.0 / (n_paths - 1)))
    if np.any(np.abs(z_mean) > Z_LIMIT) or np.any(np.abs(z_var) > Z_LIMIT):
        failures.append(f"simulate-forward: X_T moments off the OU law "
                        f"(z mean {z_mean.tolist()}, z var {z_var.tolist()})")
    return failures


def _check_field(cfg, table):
    nodes, steps = cfg["space_nodes"], cfg["field_steps"]
    if table.shape != ((steps + 1) * nodes * nodes, 4):
        return [f"bsde-grid: table shape {table.shape}"]
    failures = []
    # h is the first coordinate and f = g = 0, so every slice is an average
    # of h over the ball: |u| <= 1; the terminal slice is h at the projected node.
    if not np.all(np.abs(table[:, 3]) <= 1.0 + 1e-12):
        failures.append("bsde-grid: |u| exceeds max |h| = 1")
    last = table[table[:, 0] == 1.0]
    rho = np.linalg.norm(last[:, 1:3], axis=1)
    h = last[:, 1] * np.where(rho > 1.0, 1.0 / np.where(rho > 0, rho, 1.0), 1.0)
    if last.shape[0] != nodes * nodes or not np.allclose(last[:, 3], h, rtol=0,
                                                         atol=1e-12):
        failures.append("bsde-grid: terminal slice differs from h(project(x))")
    return failures


def _check_ladder(cfg, table):
    errors = table[:, 1]
    failures = _finite_positive(errors, "Y4")
    if not failures and not np.all(np.diff(errors) < 0):
        failures.append(f"Y4: not strictly decreasing along the ladder: "
                        f"{errors.tolist()}")
    return failures


def _cli_summary(inp, op_s):
    cfgs = {k: json.loads(v) for k, v in inp["configs"].items()}
    sim = cfgs["simulate_forward"]
    y4 = cfgs["y4_convergence"]
    steps = (sim["n_paths"] * sim["grid"]["n_steps"]
             + y4["n_paths"] * y4["grid"]["n_steps"] * len(LADDER))
    return {"simulate_forward_s": (op_s["simulate_forward"], "s"),
            "bsde_grid_s": (op_s["bsde_grid"], "s"),
            "y4_convergence_s": (op_s["y4_convergence"], "s"),
            "path_steps_per_s": (steps / sum(op_s.values()), "1/s")}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable   # (seed, rep, size, scratch) -> dict
    ops: tuple
    summary: Callable       # (inputs, {op: median seconds}) -> {name: (value, unit)}


WORKLOADS = {
    "mc_orders_1d": Workload(
        "mc_orders_1d", _mc_inputs,
        tuple(_convergence_op(t) for t in ("X4", "K4", "Kmoment", "Kexp"))
        + (Op("tail", _tail_run, _tail_check),),
        _mc_summary),
    "rate_functional": Workload(
        "rate_functional", _rate_inputs,
        (Op("action_min", _action_min_run, _action_min_check),
         Op("contracted_rate", _contracted_run, _contracted_check)),
        _rate_summary),
    "cli_batch": Workload(
        "cli_batch", _cli_inputs,
        (_cli_op("simulate_forward", _check_paths),
         _cli_op("bsde_grid", _check_field),
         _cli_op("y4_convergence", _check_ladder)),
        _cli_summary),
}
