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
from numbers import Real

import numpy as np

from .backward import _pi_reader
from .coefficients import _Constant
from .errors import ConstraintInfeasible, InfeasiblePath, SingularDiffusion
from .forward import (ReflectedTrajectory, _check_count,
                      integrate_skeleton_ode)
from .geometry import _check_dims, _check_inside, _refuse_bool, project

__all__ = ["ActionResult", "OptimizerOptions", "evaluate_action",
           "minimize_action_endpoint", "contracted_rate"]

_EIG_FLOOR = 1e-10

_DIFF_STEP = np.sqrt(np.finfo(float).eps)   # b's and sigma's, x max(diam, 1)
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_PENALTY = 1e5     # contracted_rate's weight on sum |u - gamma|^2
_VIOLATION_TOL = 1e-3
_SUPER = 64    # unknowns per super-block of _block_solve, a measured best


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
        _refuse_bool("grad_tol", self.grad_tol)
        if not (isinstance(self.grad_tol, Real) and 0 <= self.grad_tol < np.inf):
            raise ValueError(
                f"grad_tol must be a finite number >= 0, got {self.grad_tol!r}")


def _action_terms(coeffs, domain, paths, grid, gradient=False):
    """Discrete cost of a stack of constrained paths of shape (..., n+1, d).

    Returns (action, integrand, lam, nvec) with leading axes (...,): the
    cost, the per-step quadratic form values, the boundary multipliers and
    the inward normals at the right nodes. Raises when any path of the
    stack leaves the domain, holds a non-finite node or meets a singular
    diffusion.

    With gradient=True it also returns the cost's gradient (..., n+1, d)
    and Gauss-Newton matrix, the latter as a lazy pair: unpacking it
    builds the blocks, so a caller that needs no step never does. With
    A = sigma sigma*, rho_j = r_j - lam_j n_j
    (r_j the step's velocity less b) and w_j = A_j^-1 rho_j, node j gets
    w_{j-1} - dt lam_{j-1} hess_phi(x_j) w_{j-1} - w_j - dt Db_j* w_j and,
    in coordinate c, -dt (sigma_j* w_j) . (d_c sigma_j* w_j). lam_j, the
    minimizer of step j's form, is held at its value (Danskin 1967). Db
    and d_c sigma are forward differences at every node at once, at the
    step _DIFF_STEP max(diameter, 1); a _Constant needs none. The matrix,
    block-tridiagonal, comes as its diagonal blocks (..., n+1, d, d) and
    those above them (..., n, d, d): step j adds dt [C_j B_j]* W_j [C_j B_j]
    on nodes j and j+1, with rho_j's derivatives C_j = -I/dt - Db_j and
    B_j = I/dt - lam_j hess_phi(x_{j+1}), and W_j = A_j^-1 less its part
    along A_j^-1 n_j where lam_j > 0, which lam_j re-minimizes away. The
    d sigma terms stay out of the matrix.
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
    drift = b.value if isinstance(b, _Constant) else b(ts, left)
    r = v - drift

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
    if not gradient:
        return action, integrand, lam, nvec

    w = resid if unit else np.einsum("...ij,...j->...i", ainv, resid)
    grad = np.zeros(paths.shape)
    grad[..., 1:, :] = w
    grad[..., :-1, :] -= w
    d = paths.shape[-1]
    eye = np.eye(d)
    wall = lam > 0
    if wall.any():
        hess = domain.hess_phi(right[wall])
        grad[..., 1:, :][wall] -= (dt * lam[wall])[:, None] * np.einsum(
            "...ij,...j->...i", hess, w[wall])
    db = None
    if not (isinstance(b, _Constant) and isinstance(sigma, _Constant)):
        # the left nodes moved by h along each axis c, (d, ..., n, d)
        h = _DIFF_STEP * max(domain.diameter, 1.0)
        moved = left + h * eye.reshape((d,) + (1,) * (left.ndim - 1) + (d,))
        at = np.broadcast_to(grid.nodes[:-1], moved.shape[:-1])
        slope = 0.0                      # then (d, ..., n), one row per c
        if not isinstance(b, _Constant):
            db = b(at, moved) - drift    # h d_c b_i at [c, ..., j, i]
            slope = np.einsum("c...i,...i->c...", db, w)
        if not isinstance(sigma, _Constant):
            slope = slope + np.einsum("c...ij,...i,...j->c...",
                                      sigma(at, moved) - sig, w,
                                      np.einsum("...ij,...i->...j", sig, w))
        grad[..., :-1, :] -= (dt / h) * np.moveaxis(slope, 0, -1)

    def blocks():
        weight = np.broadcast_to(eye, r.shape + (d,)) if unit else ainv
        left_jac = -eye / dt
        if db is not None:
            left_jac = left_jac - np.moveaxis(db, 0, -1) / h
        right_jac = np.broadcast_to(eye / dt, r.shape + (d,))
        if wall.any():
            right_jac = right_jac.copy()
            right_jac[wall] -= lam[wall][:, None, None] * hess
            wn = np.einsum("...ij,...j->...i", weight[wall], nvec[wall])
            weight = weight.copy()
            weight[wall] -= (wn[:, :, None] * wn[:, None, :] / np.einsum(
                "...i,...i->...", nvec[wall], wn)[:, None, None])
        left_t = np.swapaxes(left_jac, -1, -2)
        right_w = weight @ right_jac
        diag = np.zeros(paths.shape + (d,))
        diag[..., :-1, :, :] = dt * (left_t @ (weight @ left_jac))
        diag[..., 1:, :, :] += dt * (np.swapaxes(right_jac, -1, -2) @ right_w)
        yield diag
        yield dt * (left_t @ right_w)
    return action, integrand, lam, nvec, grad, blocks()


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
    return _result(path, grid, *_action_terms(coeffs, domain, path, grid))


def _result(path, grid, action, integrand, lam, nvec):
    """The ActionResult of a path (n+1, d) from its _action_terms."""
    drho = (lam * grid.dt)[:, None] * nvec
    rho = np.concatenate([np.zeros((1, path.shape[1])), np.cumsum(drho, axis=0)])
    return ActionResult(psi=path.copy(), phi=path - rho, action=float(action),
                        integrand=integrand)


def _objective(coeffs, domain, grid, penalty=None):
    """The descent's objective: paths (..., n+1, d) to the values,
    gradients and Gauss-Newton blocks of the action, plus a penalty's when
    penalty is given: penalty(paths) returns its value, gradient, a
    function that builds its diagonal blocks, all already weighted, and the
    values it penalizes. The blocks come as a lazy pair (diag, off), built
    when unpacked. Then come the parts: the action's terms, as
    _action_terms returns them without a gradient (action, integrand,
    multipliers and normals), and the penalized values, or None without a
    penalty. A right node on the wall is active
    when its multiplier is positive or its gradient points out of the
    domain (projected Newton, Bertsekas 1982): moving an active node
    inward drops its multiplier, a jump, or raises the value, so only a
    move along the wall is smooth or descends. Its gradient and blocks keep
    their part along the wall, with the normal one decoupled at unit
    curvature, so the node's step runs along the wall (in 1-D, it is 0)."""
    def objective(paths):
        action, integrand, lam, nvec, grad, pair = _action_terms(
            coeffs, domain, paths, grid, gradient=True)
        value, u = action, None
        if penalty is not None:
            extra, slope, curv, u = penalty(paths)
            value, grad = action + extra, grad + slope
        # nvec is the inward normal at wall nodes and 0 elsewhere
        wall = (lam > 0) | (
            np.einsum("...i,...i->...", grad[..., 1:, :], nvec) > 0)
        if wall.any():
            n = nvec[wall]
            # n n* / |n|^2 at the wall nodes
            normal = np.zeros(paths.shape + (n.shape[-1],))
            normal[..., 1:, :, :][wall] = n[:, :, None] * n[:, None, :] / (
                np.einsum("...i,...i->...", n, n)[:, None, None])
            grad -= np.einsum("...ij,...j->...i", normal, grad)

        def blocks():
            diag, off = pair
            if penalty is not None:
                diag = diag + curv()
            if wall.any():
                proj = np.eye(n.shape[-1]) - normal
                diag = proj @ diag @ proj + normal
                off = proj[..., :-1, :, :] @ off @ proj[..., 1:, :, :]
            yield diag
            yield off
        return value, grad, blocks(), (action, integrand, lam, nvec), u
    return objective


def _mismatch_penalty(read, gamma, weight):
    """weight sum |u - gamma|^2 over the values u = read(paths), as
    _objective's penalty: its value, gradient 2 weight J* (u - gamma),
    Gauss-Newton blocks 2 weight J* J, J the read's slope, and u."""
    def penalty(paths):
        u, slope = read(paths, slope=True)
        miss = u - gamma
        return (weight * (miss**2).sum(axis=(-2, -1)),
                (2.0 * weight) * np.einsum("...k,...kc->...c", miss, slope),
                lambda: (2.0 * weight) * np.einsum("...kc,...ke->...ce",
                                                   slope, slope),
                u)
    return penalty


def _dense_blocks(diag, off):
    """The dense (s d, s d) matrix of s consecutive nodes' blocks: diag
    (s, d, d) on its diagonal, off (s-1, d, d) above it and their
    transposes below."""
    s, d = diag.shape[:2]
    n = s * d
    dense = np.zeros((n, n + 2 * d))
    # node i's d rows hold off[i-1]*, diag[i] and off[i] from column i d
    # on, one band in a view whose node stride steps d rows and d columns
    row, col = dense.strides
    bands = np.ndarray((s, d, 3 * d), buffer=dense,
                       strides=(d * (row + col), row, col))
    bands[1:, :, :d] = off.swapaxes(-1, -2)
    bands[:, :, d:2 * d] = diag
    bands[:-1, :, 2 * d:] = off
    return dense[:, d:n + d]


def _block_solve(diag, off, rhs):
    """Solve H x = rhs, H symmetric and block-tridiagonal: diag (m, d, d)
    on its diagonal, off (m-1, d, d) above.

    Block LU over super-blocks of _SUPER // d consecutive nodes (Golub &
    Van Loan 2013, Matrix Computations, section 4.5), each pivot solved by one
    np.linalg.solve. Two super-blocks are linked by one off block, from
    the last node of the first to the first node of the next, so the
    Schur update of a pivot changes its first node's block only, and only
    the last node's rows of the lower factor are needed. A system of at
    most _SUPER unknowns is one super-block, solved densely in one call.
    """
    m, d = rhs.shape
    size = max(1, min(m, _SUPER // d))     # nodes per super-block
    factors = []                           # (lower, y) per super-block
    for a in range(0, m, size):
        b = min(a + size, m)
        piv = _dense_blocks(diag[a:b], off[a:b - 1])
        # the right-hand side, then the link down to the next super-block
        sides = np.zeros(((b - a) * d, 1 + d * (b < m)))
        sides[:, 0] = rhs[a:b].reshape(-1)
        if b < m:
            sides[-d:, 1:] = off[b - 1]
        if a:
            link = off[a - 1].T
            lower, y = factors[-1]
            piv[:d, :d] -= link @ lower[-d:]
            sides[:d, 0] -= link @ y[-d:]
        sol = np.linalg.solve(piv, sides)
        factors.append((sol[:, 1:], sol[:, 0]))
    x = factors[-1][1]
    xs = [x]
    for lower, y in reversed(factors[:-1]):
        x = y - lower @ x[:d]
        xs.append(x)
    return np.concatenate(xs[::-1]).reshape(m, d)


def _projected_descent(objective, path0, domain, pin_last, opts):
    """Projected Gauss-Newton descent with Armijo backtracking over the
    non-pinned nodes of a discretized path.

    objective maps paths (..., n+1, d) to (values, gradients, blocks, ...),
    as _objective's does, blocks holding the Gauss-Newton matrix H's as a
    pair (diag, off), which is unpacked only for a step: a lazy pair, as
    _objective's, is then built only when needed. An
    iteration solves H delta = g over the free nodes and searches along
    -delta from the full step, projecting each trial and halving until one
    lowers the value by the Armijo decrement or the step rounds away: its
    trial equals path, as every shorter step's would. The accepted trial's
    gradient and blocks come with its value, so an iteration costs one
    objective call per trial, usually one. Returns (best_path, best, log,
    stalled): best is the objective's return at best_path, its value
    first, and log rows are (iteration, value, step).

    The descent stops when |g| <= grad_tol; when the decrement g . delta
    is at most k eps |F|, below which the rounding of the value F hides
    any Armijo decrease: it has converged as far as F can tell; or,
    stalled, at a search whose step rounds away, logged with step 0. F
    sums at most m = 2 n + 1 nonnegative terms, n of the action and n + 1
    of a one-value field's penalty. To first order their roundings move F
    by eps |F| in all, the m - 1 additions by (m - 1) eps |F|, and the two
    scalings and the sum of the parts by 3 eps |F|: k = 2 (n + 1) + 2.
    """
    path = project(domain, np.asarray(path0, float))
    n1 = path.shape[0]
    free = slice(1, n1 - 1 if pin_last else n1)
    best = objective(path)
    value, grad, blocks = best[:3]
    value = float(value)
    log = [(0, value, 0.0)]
    for it in range(1, opts.max_iter + 1):
        g = grad[free]
        if float((g ** 2).sum()) <= opts.grad_tol**2:
            break
        diag, off = blocks
        delta = _block_solve(diag[free], off[1:free.stop - 1], g)
        decrease = float((g * delta).sum())
        if decrease <= (2 * n1 + 2) * np.finfo(float).eps * abs(value):
            break
        nodes, step = path[free], 1.0
        while True:
            trial = path.copy()
            trial[free] = project(domain, nodes - step * delta)
            if np.array_equal(trial, path):
                log.append((it, value, 0.0))
                return path, best, log, True
            tried = objective(trial)
            tv = tried[0]
            # the Armijo decrement can round away, so F must fall too
            if tv < value and tv <= value - _ARMIJO_C * step * decrease:
                break
            step *= _BACKTRACK
        path, best = trial, tried
        value, grad, blocks = float(tv), tried[1], tried[2]
        log.append((it, value, step))
    return path, best, log, False


def minimize_action_endpoint(coeffs, domain, s, x, y, T, grid, opts=None):
    """Upper bound of the endpoint-pinned infimum of the path cost.

    Minimizes over the interior nodes of a discretized path from x to y;
    every iterate is feasible, so the returned value certifies an upper
    bound. Returns (ActionResult, info) where info carries the iteration
    log and a `stalled` flag, set when a line search's step rounded away
    (see _projected_descent). T must be the grid's end time, and y, of x's
    dimension, must lie in the domain.
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

    # two feasible starts: the straight chord, and the drift skeleton bent
    # linearly in time toward the target (free when y is its own endpoint)
    straight = project(domain, (1.0 - lamgrid) * x + lamgrid * y)
    skel = (integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path
            if skeleton is None else skeleton)
    bent = project(domain, skel + lamgrid * (y - skel[-1]))
    bent[-1] = project(domain, y)
    starts = np.stack([straight, bent])
    path0 = starts[np.argmin(_action_terms(coeffs, domain, starts, grid)[0])]

    # the accepted evaluation holds the path's action terms
    path, (*_, terms, _), log, stalled = _projected_descent(
        _objective(coeffs, domain, grid), path0, domain, pin_last=True,
        opts=opts)
    result = _result(path, grid, *terms)
    info = {"iterations": log, "stalled": stalled, "n_iter": log[-1][0]}
    return result, info


def contracted_rate(coeffs, domain, field_limit, gamma, s, x, opts=None):
    """Upper bound of the contracted rate: the cheapest constrained path
    whose image under the limit value map matches the given value path.

    Solved as one penalized problem, the action plus _PENALTY times the
    squared constraint mismatch, from the skeleton; the start node is
    pinned at x, the rest of the path is free. The path lives on the
    field's time grid, at whose nodes gamma is given: finite, of shape
    (n+1, k) for a field of k values, or (n+1,) when k = 1. The field is
    read through one reader for the whole call. The result's `stalled`
    flag is set when the descent stalls, as _projected_descent says.
    Raises ConstraintInfeasible when the final sup-norm violation exceeds
    the tolerance: the preimage is empty at this resolution, unless the
    descent stalled or stopped at max_iter, which the message then names.
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

    # the accepted evaluation holds the path's action and field values
    path, (*_, (action, *_), u), log, stalled = _projected_descent(
        _objective(coeffs, domain, grid,
                   _mismatch_penalty(read, gamma, _PENALTY)),
        integrate_skeleton_ode(coeffs, domain, s, x, grid).x_path, domain,
        pin_last=False, opts=opts)
    viol = float(np.abs(u - gamma).max())
    if viol > _VIOLATION_TOL:
        why = "preimage is empty at this resolution"
        if stalled or log[-1][0] == opts.max_iter:
            how = ("stalled" if stalled
                   else f"stopped at max_iter = {opts.max_iter}")
            why = f"the descent {how}, so the preimage need not be empty"
        raise ConstraintInfeasible(
            f"constraint violation {viol:.3e} exceeds {_VIOLATION_TOL:.1e}; "
            + why)
    return {"s_prime": float(action), "argmin_psi": path, "violation": viol,
            "stalled": stalled}
