"""Path-space rate functional: evaluation, endpoint minimization, and the
contracted rate of the value process.

The cost of a constrained path is the quadratic form of its reconstructed
free velocity against the inverse diffusion matrix. The free path is the
constrained one minus the boundary correction; interior steps have no
freedom, while on boundary steps the correction magnitude is a one-parameter
family along the inward normal and the pointwise minimizer of the convex
quadratic realizes the infimum at grid resolution.
"""

from dataclasses import dataclass

import numpy as np

from .backward import apply_pi
from .errors import ConstraintInfeasible, InfeasiblePath, SingularDiffusion
from .forward import (ReflectedTrajectory, _check_inside,
                      integrate_skeleton_ode)
from .geometry import project

__all__ = ["ActionResult", "OptimizerOptions", "evaluate_action",
           "minimize_action_endpoint", "contracted_rate"]

_EIG_FLOOR = 1e-10

_FD_REL_STEP = 1e-6     # finite-difference step, times max(diameter, 1)
_INIT_STEP = 0.5
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 30
_STALL_LIMIT = 50       # consecutive rejected iterations before giving up
_PENALTIES = (10.0, 100.0, 1e3, 1e4, 1e5)   # contracted_rate's continuation
_VIOLATION_TOL = 1e-3


@dataclass(frozen=True)
class ActionResult:
    psi: np.ndarray        # (n+1, d) constrained path
    phi: np.ndarray        # (n+1, d) recovered free path, phi = psi - rho
    action: float
    integrand: np.ndarray  # (n,) per-step quadratic form values, >= 0
    feasible: bool


@dataclass(frozen=True)
class OptimizerOptions:
    max_iter: int = 400
    grad_tol: float = 1e-10


def _as_path(psi):
    if isinstance(psi, ReflectedTrajectory):
        return np.asarray(psi.x_path, float), psi.grid
    return np.asarray(psi, float), None


def _action_terms(coeffs, domain, paths, grid):
    """Discrete cost of a stack of constrained paths of shape (..., n+1, d).

    Returns (action, integrand, lam, nvec) with leading axes (...,): the
    cost, the per-step quadratic form values, the boundary multipliers and
    the inward normals at the right nodes. Raises when any path of the
    stack leaves the domain or meets a singular diffusion.
    """
    tol = max(domain.boundary_tol, 1e-12)
    if np.any(domain.signed_distance(paths) < -tol):
        raise InfeasiblePath("path leaves the closed domain")

    dt = grid.dt
    left = paths[..., :-1, :]
    right = paths[..., 1:, :]
    ts = np.broadcast_to(grid.nodes[:-1], left.shape[:-1])
    v = (right - left) / dt
    r = v - coeffs.b(ts, left)

    sig = coeffs.sigma(ts, left)
    a = sig @ np.swapaxes(sig, -1, -2)
    if np.any(np.linalg.eigvalsh(a)[..., 0] < _EIG_FLOOR):
        raise SingularDiffusion("sigma sigma* numerically singular on the path")
    ainv = np.linalg.inv(a)

    on_bdry = np.abs(domain.signed_distance(right)) <= domain.boundary_tol
    nvec = domain.grad_phi(right)
    anr = np.einsum("...ij,...j->...i", ainv, r)
    nan_ = np.einsum("...i,...ij,...j->...", nvec, ainv, nvec)
    safe = np.where(nan_ > 0, nan_, 1.0)
    lam = np.where(on_bdry & (nan_ > 0),
                   np.maximum(0.0, np.einsum("...i,...i->...", nvec, anr) / safe),
                   0.0)
    resid = r - lam[..., None] * nvec
    integrand = np.einsum("...i,...ij,...j->...", resid, ainv, resid)
    integrand = np.maximum(integrand, 0.0)
    action = 0.5 * dt * np.sum(integrand, axis=-1)
    return action, integrand, lam, nvec


def evaluate_action(coeffs, domain, psi, grid=None):
    """Discrete Freidlin-Wentzell cost of a constrained path.

    Forward differences for the velocity, drift at the left node, inverse
    diffusion at the left node, boundary multiplier resolved at the right
    node. A noise-free skeleton produced by the same Euler scheme scores
    exactly zero up to roundoff.
    """
    path, tg = _as_path(psi)
    grid = grid or tg
    if grid is None:
        raise ValueError("a TimeGrid is required when psi is a bare array")
    if path.ndim != 2 or path.shape[0] != grid.n_steps + 1:
        raise ValueError("path shape does not match the grid")
    action, integrand, lam, nvec = _action_terms(coeffs, domain, path, grid)
    drho = (lam * grid.dt)[:, None] * nvec
    rho = np.concatenate([np.zeros((1, path.shape[1])), np.cumsum(drho, axis=0)])
    return ActionResult(psi=path.copy(), phi=path - rho, action=float(action),
                        integrand=integrand, feasible=True)


def _fd_gradient(objective, path, domain, free):
    """Finite-difference gradient over the nodes `free` of a path.

    objective maps a stack of paths (..., n+1, d) to their values (...,).
    Component (j, c) differences the two paths whose node j is replaced by
    project(path[j] +- fd e_c), with fd = _FD_REL_STEP * max(diameter, 1).
    All 2 * len(free) * d of them go to the objective in one call. A
    component whose two projected nodes coincide in coordinate c is left
    at zero.
    """
    d = path.shape[1]
    bumps = _FD_REL_STEP * max(domain.diameter, 1.0) * np.eye(d)
    nodes = path[free, None, :]
    moved = project(domain, np.stack([nodes + bumps, nodes - bumps]))
    perturbed = np.broadcast_to(path, moved.shape[:3] + path.shape).copy()
    perturbed[:, np.arange(free.size)[:, None], np.arange(d),
              free[:, None]] = moved              # (2, free, d, n+1, d)
    values = objective(perturbed)
    moved_c = np.diagonal(moved, axis1=-2, axis2=-1)
    denom = moved_c[0] - moved_c[1]
    grad = np.zeros_like(path)
    grad[free] = np.where(denom != 0.0, (values[0] - values[1])
                          / np.where(denom != 0.0, denom, 1.0), 0.0)
    return grad


def _projected_descent(objective, path0, domain, pin_last, opts):
    """Projected gradient descent with finite-difference gradients and Armijo
    backtracking over the non-pinned nodes of a discretized path.

    objective maps a stack of paths (..., n+1, d) to their values (...,).
    Returns (best_path, best_value, log, stalled) where log rows are
    (iteration, value, step).
    """
    path = project(domain, np.asarray(path0, float))
    n1 = path.shape[0]
    free = np.arange(1, n1 - 1 if pin_last else n1)

    value = float(objective(path))
    log = [(0, value, 0.0)]
    step = _INIT_STEP
    stalls = 0
    stalled = False
    for it in range(1, opts.max_iter + 1):
        grad = _fd_gradient(objective, path, domain, free)
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 <= opts.grad_tol**2:
            break
        accepted = False
        eta = step
        for _ in range(_MAX_BACKTRACKS):
            trial = path.copy()
            trial[free] = project(domain, path[free] - eta * grad[free])
            if np.array_equal(trial, path):
                # the step rounded away: a rejection, as is every shorter one
                break
            tv = float(objective(trial))
            # a trial must lower the value: the Armijo decrement can round away
            if tv < value and tv <= value - _ARMIJO_C * eta * gnorm2:
                path, value = trial, tv
                accepted = True
                step = min(eta * 2.0, 1e3)
                break
            eta *= _BACKTRACK
        log.append((it, value, eta if accepted else 0.0))
        if accepted:
            stalls = 0
        else:
            stalls += 1
            step = max(eta, 1e-16)
            if stalls >= _STALL_LIMIT:
                stalled = True
                break
    return path, value, log, stalled


def minimize_action_endpoint(coeffs, domain, s, x, y, T, grid, opts=None):
    """Upper bound of the endpoint-pinned infimum of the path cost.

    Minimizes over the interior nodes of a discretized path from x to y;
    every iterate is feasible, so the returned value certifies an upper
    bound. Returns (ActionResult, info) where info carries the iteration
    log and a `stalled` flag when the line search gave up. T must be the
    grid's end time, and y, of x's dimension, must lie in the closed domain.
    """
    if T != grid.T:
        raise ValueError(f"T = {T} does not match the grid's end time {grid.T}")
    opts = opts or OptimizerOptions()
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    if y.shape != x.shape:
        raise ValueError(f"target y {y} does not have the shape of x {x}")
    _check_inside(domain, y, f"target {y} lies outside the domain",
                  InfeasiblePath)
    lamgrid = np.linspace(0.0, 1.0, grid.n_steps + 1)[:, None]

    def objective(p):
        return _action_terms(coeffs, domain, p, grid)[0]

    # two feasible starts: the straight chord, and the drift skeleton bent
    # linearly in time toward the target (free when y is its own endpoint)
    straight = project(domain, (1.0 - lamgrid) * x + lamgrid * y)
    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path
    bent = project(domain, skel + lamgrid * (y - skel[-1]))
    bent[-1] = project(domain, y)
    path0 = min((straight, bent), key=objective)

    best, value, log, stalled = _projected_descent(
        objective, path0, domain, pin_last=True, opts=opts)
    result = evaluate_action(coeffs, domain, best, grid)
    info = {"iterations": log, "stalled": stalled, "n_iter": log[-1][0]}
    return result, info


def contracted_rate(coeffs, domain, field_limit, gamma, s, x, grid=None,
                    opts=None):
    """Upper bound of the contracted rate: the cheapest constrained path
    whose image under the limit value map matches the given value path.

    Solved by penalty continuation on the squared constraint mismatch; the
    start node is pinned at x, the rest of the path is free. The result's
    `stalled` flag is set when the line search gave up in any stage. Raises
    ConstraintInfeasible when the final sup-norm violation exceeds the
    tolerance (the preimage is empty at this resolution).
    """
    opts = opts or OptimizerOptions()
    if field_limit.epsilon != 0.0:
        raise ValueError("contracted_rate needs the deterministic limit field")
    gamma = np.asarray(gamma, float)
    if gamma.ndim == 1:
        gamma = gamma[:, None]
    grid = grid or field_limit.times
    if gamma.shape[0] != grid.n_steps + 1:
        raise ValueError("gamma length does not match the grid")

    path = integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path
    stalled = False
    for pen in _PENALTIES:
        def objective(p, _pen=pen):
            mismatch = apply_pi(field_limit, p) - gamma
            return (_action_terms(coeffs, domain, p, grid)[0]
                    + _pen * np.sum(mismatch**2, axis=(-2, -1)))

        path, _, _, stage_stalled = _projected_descent(
            objective, path, domain, pin_last=False, opts=opts)
        stalled = stalled or stage_stalled

    viol = float(np.max(np.abs(apply_pi(field_limit, path) - gamma)))
    if viol > _VIOLATION_TOL:
        raise ConstraintInfeasible(
            f"constraint violation {viol:.3e} exceeds "
            f"{_VIOLATION_TOL:.1e}; preimage is empty at this resolution")
    result = evaluate_action(coeffs, domain, path, grid)
    return {"s_prime": result.action, "argmin_psi": path,
            "violation": viol, "action_result": result, "stalled": stalled}
