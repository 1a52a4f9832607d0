"""Path-space rate functional: evaluation, endpoint minimization, and the
contracted rate of the value process.

The cost of a constrained path is the quadratic form of its reconstructed
free velocity against the inverse diffusion matrix. The free path is the
constrained one minus the boundary correction; interior steps have no
freedom, while on boundary steps the correction magnitude is a one-parameter
family along the inward normal and the pointwise minimizer of the convex
quadratic realizes the infimum at grid resolution.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .backward import _pi_reader
from .coefficients import _Constant
from .errors import ConstraintInfeasible, InfeasiblePath, SingularDiffusion
from .forward import (ReflectedTrajectory, _check_count,
                      integrate_skeleton_ode)
from .geometry import _check_dims, _check_inside, project

__all__ = ["ActionResult", "OptimizerOptions", "evaluate_action",
           "minimize_action_endpoint", "contracted_rate"]

_EIG_FLOOR = 1e-10

_FD_REL_STEP = 1e-6     # finite-difference step, times max(diameter, 1)
_INIT_STEP = 0.5
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_BATCH = 3              # backtracking trials per objective call
_GUESS = 1              # the first batch's trial whose gradient rides along
_PENALTIES = (10.0, 100.0, 1e3, 1e4, 1e5)   # contracted_rate's continuation
_VIOLATION_TOL = 1e-3


@dataclass(frozen=True)
class ActionResult:
    psi: np.ndarray        # (n+1, d) constrained path
    phi: np.ndarray        # (n+1, d) recovered free path, phi = psi - rho
    action: float
    integrand: np.ndarray  # (n,) per-step quadratic form values, >= 0


@dataclass(frozen=True)
class OptimizerOptions:
    max_iter: int = 400
    grad_tol: float = 1e-10

    def __post_init__(self):
        _check_count("max_iter", self.max_iter, 0)
        if not (np.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise ValueError(
                f"grad_tol must be finite and >= 0, got {self.grad_tol!r}")


def _action_terms(coeffs, domain, paths, grid):
    """Discrete cost of a stack of constrained paths of shape (..., n+1, d).

    Returns (action, integrand, lam, nvec) with leading axes (...,): the
    cost, the per-step quadratic form values, the boundary multipliers and
    the inward normals at the right nodes. Raises when any path of the
    stack leaves the domain, holds a non-finite node or meets a singular
    diffusion.
    """
    tol = domain.boundary_tol
    dist = domain.signed_distance(paths)
    # a NaN distance, from a non-finite node, is not inside either
    if not (dist >= -tol).all():
        raise InfeasiblePath("path leaves the closed domain")

    dt = grid.dt
    left = paths[..., :-1, :]
    right = paths[..., 1:, :]
    v = (right - left) / dt
    b, sigma = coeffs.b, coeffs.sigma
    unit = isinstance(sigma, _Constant) and sigma.unit
    if not (unit and isinstance(b, _Constant)):
        ts = np.broadcast_to(grid.nodes[:-1], left.shape[:-1])
    r = v - (b.value if isinstance(b, _Constant) else b(ts, left))

    # sigma = I needs no sigma sigma*, eigenvalue check or inverse: each
    # product by the identity is exact, so the bits are the general route's
    if not unit:
        sig = sigma(ts, left)
        a = sig @ sig.swapaxes(-1, -2)
        if (np.linalg.eigvalsh(a)[..., 0] < _EIG_FLOOR).any():
            raise SingularDiffusion(
                "sigma sigma* numerically singular on the path")
        ainv = np.linalg.inv(a)

    def quad(u):   # u* (sigma sigma*)^-1 u
        if unit:
            return np.einsum("...i,...i->...", u, u)
        return np.einsum("...i,...ij,...j->...", u, ainv, u)

    # only boundary steps carry a multiplier, so only they need the normal;
    # elsewhere nvec = 0 gives lam = 0 and resid = r - 0.0 * 0 = r in every
    # bit, so a stack with no right node on the boundary skips the block
    on_bdry = np.abs(dist[..., 1:]) <= tol
    nvec = np.zeros(right.shape)
    if on_bdry.any():
        nvec[on_bdry] = domain.grad_phi(right[on_bdry])
        anr = r if unit else np.einsum("...ij,...j->...i", ainv, r)
        nan_ = quad(nvec)
        safe = np.where(nan_ > 0, nan_, 1.0)
        lam = np.where(on_bdry & (nan_ > 0),
                       np.maximum(0.0, np.einsum("...i,...i->...", nvec, anr)
                                  / safe),
                       0.0)
        resid = r - lam[..., None] * nvec
    else:
        lam, resid = np.zeros(on_bdry.shape), r
    integrand = np.maximum(quad(resid), 0.0)
    action = 0.5 * dt * integrand.sum(axis=-1)
    return action, integrand, lam, nvec


def evaluate_action(coeffs, domain, psi, grid=None):
    """Discrete Freidlin-Wentzell cost of a constrained path.

    Forward differences for the velocity, drift at the left node, inverse
    diffusion at the left node, boundary multiplier resolved at the right
    node. A noise-free skeleton produced by the same Euler scheme scores
    exactly zero up to roundoff. A grid given with a ReflectedTrajectory
    must be the trajectory's own.
    """
    if isinstance(psi, ReflectedTrajectory):
        if grid is not None and grid != psi.grid:
            raise ValueError(f"grid {grid} is not the trajectory's grid "
                             f"{psi.grid}")
        path, grid = np.asarray(psi.x_path, float), psi.grid
    elif grid is None:
        raise ValueError("a TimeGrid is required when psi is a bare array")
    else:
        path = np.asarray(psi, float)
    _check_dims(coeffs, domain)
    if path.shape != (grid.n_steps + 1, domain.dimension):
        raise ValueError("path shape does not match the grid and the domain")
    action, integrand, lam, nvec = _action_terms(coeffs, domain, path, grid)
    drho = (lam * grid.dt)[:, None] * nvec
    rho = np.concatenate([np.zeros((1, path.shape[1])), np.cumsum(drho, axis=0)])
    return ActionResult(psi=path.copy(), phi=path - rho, action=float(action),
                        integrand=integrand)


def _node_sums(integrand, dt):
    """Each node's share of the action, 0.5 dt (I_{j-1} + I_j): the terms
    that node j enters, (..., n) -> (..., n+1)."""
    half = 0.5 * dt * integrand
    sums = np.zeros(half.shape[:-1] + (half.shape[-1] + 1,))
    sums[..., :-1] = half
    sums[..., 1:] += half
    return sums


class _Stencils:
    """The finite-difference stencils over the nodes `free` of a descent's
    paths (n+1, d), with the bumps and index arrays built once per descent.

    Called on a path, returns (paths, read): paths (2, 2, d, n+1, d) replace
    node j of path by project(path[j] +- fd e_c), with fd = _FD_REL_STEP *
    max(diameter, 1), and read maps their node sums (2, 2, d, n+1) to the
    gradient. No two nodes of one parity share a term, so all even free
    nodes move at once, then all odd ones (Curtis, Powell & Reid 1974):
    4 * d paths per gradient, whatever n is. A component whose two projected
    nodes coincide in coordinate c is left at zero.
    """

    def __init__(self, domain, free):
        self.domain, self.free = domain, free
        d = domain.dimension
        fd = _FD_REL_STEP * max(domain.diameter, 1.0) * np.eye(d)
        self._bumps = np.stack([fd, -fd])[:, None]      # (2, 1, d, d)
        self._lead = (2, 2, d)
        # (sign, parity, c, node) of each free node j moved along each e_c
        self._at = (slice(None), free[:, None] % 2, np.arange(d),
                    free[:, None])

    def __call__(self, path):
        free, at = self.free, self._at
        moved = project(self.domain, path[free, None, :] + self._bumps)
        perturbed = np.empty(self._lead + path.shape)
        perturbed[...] = path
        perturbed[at] = moved

        def read(sums):
            sums = sums[at]
            moved_c = moved.diagonal(0, -2, -1)
            denom = moved_c[0] - moved_c[1]
            nonzero = denom != 0.0
            grad = np.zeros(path.shape)
            grad[free] = np.where(nonzero, (sums[0] - sums[1])
                                  / np.where(nonzero, denom, 1.0), 0.0)
            return grad

        return perturbed, read


def _fd_gradient(objective, path, stencils):
    """Finite-difference gradient over the free nodes of a path, in one
    objective call on the paths of stencils, a _Stencils.

    objective maps a stack of paths (..., n+1, d) to (values, sums): the
    values (...,) and each node's local sum (..., n+1), which may depend on
    the node and its two neighbours only. Component (j, c) differences node
    j's sum between the stencil paths that move node j along e_c.
    """
    paths, read = stencils(path)
    return read(objective(paths)[1])


def _backtrack(objective, path, value, grad, gnorm2, stencils, eta):
    """Armijo backtracking along -grad from the step eta, halving it until a
    trial is accepted or the step rounds away, over the free nodes of
    stencils, a _Stencils.

    Trials are projected and evaluated _BATCH at a time, in one objective
    call, and read in order: the first that lowers the value by the Armijo
    decrement is accepted. The step has rounded away, before its trial is
    evaluated, when the trial equals path or the step leaves the free nodes
    unmoved before their projection (which need not fix the path in every
    bit); every shorter step gives that trial again. This is the sequential
    search's outcome, except that a batch may evaluate up to _BATCH - 1
    feasible trials past the accepted one.

    The first batch's trial _GUESS, at the step the last accepted search
    took (the descent doubles that step), carries its stencils into the
    same call. Returns (trial, value, eta, grad), grad being the trial's
    gradient when it is trial _GUESS and None otherwise, or None when the
    step rounds away.
    """
    free, domain = stencils.free, stencils.domain
    nodes, down = path[free], grad[free]
    for first in itertools.count(0, _BATCH):
        # the batch's steps, halving on from the last one: eta, eta/2, ...
        batch = []
        for _ in range(_BATCH):
            batch.append(eta)
            eta *= _BACKTRACK
        moved = nodes - np.array(batch)[:, None, None] * down
        trials = np.empty((_BATCH,) + path.shape)
        trials[...] = path
        trials[:, free] = project(domain, moved)
        same = ((trials == path).all(axis=(-2, -1))
                | (moved == nodes).all(axis=(-2, -1)))
        stop = int(same.argmax()) if same.any() else _BATCH
        stack = trials[:stop]
        guess = first == 0 and stop > _GUESS
        if guess:
            paths, read = stencils(trials[_GUESS])
            stack = np.concatenate([stack, paths.reshape((-1,) + path.shape)])
        values, sums = objective(stack) if stop else ((), None)
        # the stencils' values follow the trials'
        for k, (trial, tv, step) in enumerate(zip(trials, values[:stop],
                                                   batch)):
            tv = float(tv)
            # a trial must lower the value: the Armijo decrement can round
            # away
            if tv < value and tv <= value - _ARMIJO_C * step * gnorm2:
                if guess and k == _GUESS:
                    return trial, tv, step, read(
                        sums[stop:].reshape(paths.shape[:-1]))
                return trial, tv, step, None
        if stop < _BATCH:
            return None


def _projected_descent(objective, path0, domain, pin_last, opts):
    """Projected gradient descent with finite-difference gradients and Armijo
    backtracking over the non-pinned nodes of a discretized path.

    objective maps a stack of paths (..., n+1, d) to (values, sums), as
    _fd_gradient describes. An iteration makes one objective call when the
    line search accepts its trial _GUESS, whose gradient comes with it;
    otherwise the next iteration computes the gradient. A search whose
    step rounds away ends the descent as stalled, since every later one
    would repeat it. Returns (best_path, best_value, log, stalled) where
    log rows are (iteration, value, step), step 0 on a stalled row.
    """
    path = project(domain, np.asarray(path0, float))
    n1 = path.shape[0]
    stencils = _Stencils(domain, np.arange(1, n1 - 1 if pin_last else n1))

    value = float(objective(path)[0])
    log = [(0, value, 0.0)]
    step = _INIT_STEP
    grad = None
    for it in range(1, opts.max_iter + 1):
        if grad is None:
            grad = _fd_gradient(objective, path, stencils)
        gnorm2 = float((grad * grad).sum())
        if gnorm2 <= opts.grad_tol**2:
            break
        found = _backtrack(objective, path, value, grad, gnorm2, stencils,
                           step)
        if found is None:
            log.append((it, value, 0.0))
            return path, value, log, True
        path, value, eta, grad = found
        log.append((it, value, eta))
        step = min(eta * 2.0, 1e3)
    return path, value, log, False


def minimize_action_endpoint(coeffs, domain, s, x, y, T, grid, opts=None):
    """Upper bound of the endpoint-pinned infimum of the path cost.

    Minimizes over the interior nodes of a discretized path from x to y;
    every iterate is feasible, so the returned value certifies an upper
    bound. Returns (ActionResult, info) where info carries the iteration
    log and a `stalled` flag, set when a line search's step rounded away,
    which ended the descent. T must be the
    grid's end time, and y, of x's dimension, must lie in the closed domain.
    """
    return _minimize_endpoint(coeffs, domain, s, x, y, T, grid, opts)


def _minimize_endpoint(coeffs, domain, s, x, y, T, grid, opts=None,
                       skeleton=None):
    """minimize_action_endpoint, given the skeleton's x_path from (s, x) on
    grid, which it integrates when skeleton is None."""
    if T != grid.T:
        raise ValueError(f"T = {T} does not match the grid's end time {grid.T}")
    opts = opts or OptimizerOptions()
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    if y.shape != x.shape:
        raise ValueError(f"target y {y} does not have the shape of x {x}")
    _check_inside(domain, y, "target {} lies outside the domain",
                  InfeasiblePath)
    lamgrid = np.linspace(0.0, 1.0, grid.n_steps + 1)[:, None]

    def objective(p):
        action, integrand = _action_terms(coeffs, domain, p, grid)[:2]
        return action, _node_sums(integrand, grid.dt)

    # two feasible starts: the straight chord, and the drift skeleton bent
    # linearly in time toward the target (free when y is its own endpoint)
    straight = project(domain, (1.0 - lamgrid) * x + lamgrid * y)
    skel = (integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path
            if skeleton is None else skeleton)
    bent = project(domain, skel + lamgrid * (y - skel[-1]))
    bent[-1] = project(domain, y)
    starts = np.stack([straight, bent])
    path0 = starts[np.argmin(objective(starts)[0])]

    best, value, log, stalled = _projected_descent(
        objective, path0, domain, pin_last=True, opts=opts)
    result = evaluate_action(coeffs, domain, best, grid)
    info = {"iterations": log, "stalled": stalled, "n_iter": log[-1][0]}
    return result, info


def contracted_rate(coeffs, domain, field_limit, gamma, s, x, opts=None):
    """Upper bound of the contracted rate: the cheapest constrained path
    whose image under the limit value map matches the given value path.

    Solved by penalty continuation on the squared constraint mismatch; the
    start node is pinned at x, the rest of the path is free. The path lives
    on the field's time grid, at whose nodes gamma is given: finite, of
    shape (n+1, k) for a field of k values, or (n+1,) when k = 1. The field
    is read through one reader for the whole call. The result's `stalled`
    flag is set when a line search's step rounded away in any stage. Raises
    ConstraintInfeasible when the final sup-norm violation exceeds the
    tolerance (the preimage is empty at this resolution).
    """
    opts = opts or OptimizerOptions()
    if field_limit.epsilon != 0.0:
        raise ValueError("contracted_rate needs the deterministic limit field")
    grid = field_limit.times
    given = np.asarray(gamma, float)
    gamma = given[:, None] if given.ndim == 1 else given
    want = (grid.n_steps + 1, field_limit.values.shape[-1])
    if gamma.shape != want:
        raise ValueError(f"gamma of shape {given.shape} does not match the "
                         f"field's {want[0]} time nodes and {want[1]} values")
    if not np.isfinite(gamma).all():
        raise ValueError("gamma must be finite")
    read = _pi_reader(field_limit)

    path = integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path
    stalled = False
    for pen in _PENALTIES:
        def objective(p, _pen=pen):
            action, integrand = _action_terms(coeffs, domain, p, grid)[:2]
            sq = (read(p) - gamma)**2
            return (action + _pen * sq.sum(axis=(-2, -1)),
                    _node_sums(integrand, grid.dt) + _pen * sq.sum(axis=-1))

        path, _, _, stage_stalled = _projected_descent(
            objective, path, domain, pin_last=False, opts=opts)
        stalled = stalled or stage_stalled

    viol = float(np.abs(read(path) - gamma).max())
    if viol > _VIOLATION_TOL:
        raise ConstraintInfeasible(
            f"constraint violation {viol:.3e} exceeds "
            f"{_VIOLATION_TOL:.1e}; preimage is empty at this resolution")
    return {"s_prime": evaluate_action(coeffs, domain, path, grid).action,
            "argmin_psi": path, "violation": viol, "stalled": stalled}
