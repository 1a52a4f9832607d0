"""Forward integrators: reflected SDE, noise-free skeleton, free SDE,
and the constraining (Skorokhod) map.

The reflected scheme is projection Euler: propose a full Euler step, project
it back onto the closed domain, and book the Euclidean size of the correction
as the increment of the scalar reflection budget K. Containment is therefore
exact by construction and K increases only at steps that land on the
boundary. With epsilon = 0 the same code path is the skeleton ODE, so the
noise-free reduction is bitwise.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSet
from .errors import MissingNoise, NumericalBlowup, StartOutsideDomain
from .geometry import project

__all__ = ["TimeGrid", "ReflectedTrajectory", "FreePath",
           "SkorokhodDecomposition", "integrate_reflected_sde",
           "integrate_skeleton_ode", "integrate_free_sde", "skorokhod_map",
           "reflection_budget_identity", "trajectory_rng",
           "simulate_reflected_batch"]

# projection corrections below this (absolute) size are floating-point noise
# and are not booked into K
_K_NOISE_FLOOR = 1e-14


@dataclass(frozen=True)
class TimeGrid:
    s: float
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.T > self.s:
            raise ValueError("need T > s")

    @property
    def dt(self):
        return (self.T - self.s) / self.n_steps

    @cached_property
    def nodes(self):
        nodes = np.linspace(self.s, self.T, self.n_steps + 1)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class ReflectedTrajectory:
    grid: TimeGrid
    x_path: np.ndarray            # (n+1, d), every node in the closed domain
    k_path: np.ndarray            # (n+1,), nondecreasing, k_path[0] = 0
    k_increment_dirs: np.ndarray  # (n, d), unit correction direction or 0
    noise: np.ndarray             # (n, m) Brownian increments, None if eps=0
    epsilon: float


@dataclass(frozen=True)
class FreePath:
    grid: TimeGrid
    values: np.ndarray            # (n+1, d)


@dataclass(frozen=True)
class SkorokhodDecomposition:
    psi: np.ndarray               # (n+1, d), constrained path
    rho: np.ndarray               # (n+1, d), correction, rho[0] ~ 0
    total_variation: np.ndarray   # (n+1,), nondecreasing


def trajectory_rng(seed, index=0):
    """Counter-based per-trajectory stream: depends only on (seed, index),
    never on execution order or worker count. index may be an int or a
    tuple (e.g. (ladder position, trajectory index))."""
    key = index if isinstance(index, tuple) else (index,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _brownian(rng, shape, dt):
    """Brownian increments over steps of length dt, drawn in row-major order."""
    return rng.standard_normal(shape) * np.sqrt(dt)


def _stream_noise(rng_stream, epsilon, grid, m):
    """(1, n, m) increments from rng_stream, or None when epsilon is not > 0."""
    if not epsilon > 0:
        return None
    if rng_stream is None:
        raise ValueError("epsilon > 0 requires an rng_stream")
    return _brownian(rng_stream, (1, grid.n_steps, m), grid.dt)


def _reflected_core(coeffs, domain, x0, epsilon, grid, noise):
    """Batch projection Euler, the one loop behind every forward path.
    x0: (B, d); noise: (B, n, m) or None.

    Returns x_path (B, n+1, d), k_path (B, n+1), dirs (B, n, d).
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    d, m, _ = coeffs.dims
    n = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    B = x0.shape[0]
    x_path = np.empty((B, n + 1, d))
    k_path = np.zeros((B, n + 1))
    dirs = np.zeros((B, n, d))
    X = np.array(x0, float)
    x_path[:, 0] = X
    sq = np.sqrt(epsilon) if epsilon > 0 else 0.0
    for i in range(n):
        t = nodes[i]
        drift = coeffs.b(t, X)
        prop = X + drift * dt
        if epsilon > 0:
            sig = coeffs.sigma(t, X)
            prop = prop + sq * np.einsum("...dm,...m->...d", sig, noise[:, i])
        if not np.all(np.isfinite(prop)):
            what = "state proposal" if np.all(np.isfinite(drift)) else "drift"
            raise NumericalBlowup(f"non-finite {what} encountered")
        Xn = project(domain, prop)
        corr = Xn - prop
        dk = np.linalg.norm(corr, axis=-1)
        live = dk > _K_NOISE_FLOOR * max(1.0, domain.diameter)
        dk = np.where(live, dk, 0.0)
        safe = np.where(dk > 0, dk, 1.0)
        dirs[:, i] = np.where(dk[:, None] > 0, corr / safe[:, None], 0.0)
        k_path[:, i + 1] = k_path[:, i] + dk
        X = Xn
        x_path[:, i + 1] = X
    return x_path, k_path, dirs


def integrate_reflected_sde(coeffs, domain, s, x, epsilon, grid, rng_stream=None):
    """One trajectory of the reflected small-noise SDE on a uniform grid.

    With epsilon = 0 this is exactly the skeleton ODE (no noise is drawn, so
    the outputs agree bitwise with integrate_skeleton_ode).
    """
    x0 = np.atleast_1d(np.asarray(x, float))[None, :]
    noise = _stream_noise(rng_stream, epsilon, grid, coeffs.dims[1])
    xp, kp, dirs = _reflected_core(coeffs, domain, x0, epsilon, grid, noise)
    return ReflectedTrajectory(
        grid=grid, x_path=xp[0], k_path=kp[0], k_increment_dirs=dirs[0],
        noise=None if noise is None else noise[0], epsilon=float(epsilon))


def integrate_skeleton_ode(coeffs, domain, s, x, grid):
    """Deterministic noise-free flow (the zero-cost path of the rate function)."""
    return integrate_reflected_sde(coeffs, domain, s, x, 0.0, grid)


def simulate_reflected_batch(coeffs, domain, s, x, epsilon, grid, seed,
                             n_paths, index_offset=0, key_prefix=()):
    """n_paths reflected trajectories with per-trajectory streams derived
    from (seed, key_prefix + trajectory index). Returns (x_paths, k_paths)
    arrays of shape (n_paths, n+1, d) and (n_paths, n+1)."""
    d, m, _ = coeffs.dims
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x, float)),
                         (n_paths, d)).copy()
    if epsilon > 0:
        noise = np.empty((n_paths, grid.n_steps, m))
        for j in range(n_paths):
            g = trajectory_rng(seed, tuple(key_prefix) + (index_offset + j,))
            noise[j] = _brownian(g, (grid.n_steps, m), grid.dt)
    else:
        noise = None
    xp, kp, _ = _reflected_core(coeffs, domain, x0, epsilon, grid, noise)
    return xp, kp


def integrate_free_sde(coeffs, domain, s, x, epsilon, grid, rng_stream=None):
    """Plain Euler-Maruyama without projection (the boundary-free companion):
    the projection scheme with the identity as its projection."""
    x0 = np.atleast_1d(np.asarray(x, float))[None, :]
    noise = _stream_noise(rng_stream, epsilon, grid, coeffs.dims[1])
    free = replace(domain, project_point=lambda p: p)
    xp, _, _ = _reflected_core(coeffs, free, x0, epsilon, grid, noise)
    return FreePath(grid=grid, values=xp[0])


def skorokhod_map(domain, phi_path):
    """Constrain a free path to the closed domain by iterated projection:
    the projection scheme with b = 0, sigma = I, epsilon = 1 and the free
    path's increments as the noise.

    Returns the decomposition psi = phi + rho where rho collects the applied
    corrections; psi - rho reconstructs the input to roundoff.
    """
    vals = np.asarray(phi_path.values, float)
    if domain.signed_distance(vals[0]) < -domain.boundary_tol:
        raise StartOutsideDomain("free path must start in the closed domain")
    d = vals.shape[1]
    unit = CoefficientSet(
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.broadcast_to(np.eye(d), x.shape + (d,)),
        f=None, g=None, h=None, dims=(d, d, 0), T=phi_path.grid.T)
    psi, tv, _ = _reflected_core(unit, domain, project(domain, vals[:1]), 1.0,
                                 phi_path.grid, np.diff(vals, axis=0)[None])
    return SkorokhodDecomposition(psi=psi[0], rho=psi[0] - vals,
                                  total_variation=tv[0])


def reflection_budget_identity(coeffs, domain, traj):
    """Sup-norm residual of the Ito identity recovering K from the state path.

    Evaluates, with the recorded increments,
        K_t ?= phi(X_t) - phi(X_s) - int <grad phi, b> dr
               - (eps/2) int tr(sigma* D2phi sigma) dr
               - sqrt(eps) int <grad phi, sigma dW>
    and returns the largest nodewise gap; it vanishes as the step shrinks.

    The quadratic-variation integral is realized pathwise as
    (eps/2) (sigma dW)* D2phi (sigma dW) rather than via its mean
    (eps/2) tr(sigma sigma* D2phi) dt: the two are consistent, but the
    realized bracket leaves only third-order Taylor remainders, so the
    residual decays at first order in the step instead of order 1/2.
    """
    eps = traj.epsilon
    if eps > 0 and traj.noise is None:
        raise MissingNoise("noise record required for epsilon > 0")
    X = traj.x_path
    grid = traj.grid
    dt = grid.dt
    left = X[:-1]
    t_left = grid.nodes[:-1]
    g = domain.grad_phi(left)                       # (n, d)
    b = coeffs.b(t_left, left)                      # (n, d)
    increments = np.sum(g * b, axis=-1) * dt        # (n,)
    if eps > 0:
        sig = coeffs.sigma(t_left, left)            # (n, d, m)
        hess = domain.hess_phi(left)                # (n, d, d)
        sdw = np.einsum("ndm,nm->nd", sig, traj.noise)
        quad = np.einsum("nd,nde,ne->n", sdw, hess, sdw)
        increments = increments + 0.5 * eps * quad
        mart = np.einsum("nd,ndm,nm->n", g, sig, traj.noise)
        increments = increments + np.sqrt(eps) * mart
    rhs = domain.phi(X) - domain.phi(X[0]) - np.concatenate(
        [[0.0], np.cumsum(increments)])
    return float(np.max(np.abs(traj.k_path - rhs)))
