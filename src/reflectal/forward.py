"""Forward integrators: reflected SDE, noise-free skeleton and the
constraining (Skorokhod) map; each start time s must equal grid.s.

The reflected scheme is projection Euler: propose a full Euler step, project
it back onto the closed domain, and book the Euclidean size of the correction
as the increment of the scalar reflection budget K. Containment is therefore
exact by construction and K increases only at steps that land on the
boundary. With epsilon = 0 the same code path is the skeleton ODE, so the
noise-free reduction is bitwise.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .coefficients import CoefficientSet, _Constant
from .errors import MissingNoise, NumericalBlowup
from .geometry import _check_dims, _check_inside, _norm, project

__all__ = ["TimeGrid", "ReflectedTrajectory", "FreePath",
           "SkorokhodDecomposition", "integrate_reflected_sde",
           "integrate_skeleton_ode", "skorokhod_map",
           "reflection_budget_identity", "trajectory_rng",
           "simulate_reflected_batch"]

# projection corrections below this (absolute) size are floating-point noise
# and are not booked into K
_K_NOISE_FLOOR = 1e-14

# paths per noise block: block b of a key prefix draws the noise of its
# paths b*G .. b*G + G - 1 from one stream, step-major
_BLOCK_PATHS = 128
# steps of block noise drawn at a time into one reused buffer
_CHUNK_STEPS = 64


def _check_count(name, value, low):
    """Raise ValueError unless value is an int (a bool is not) >= low."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    s: float
    T: float
    n_steps: int

    def __post_init__(self):
        _check_count("n_steps", self.n_steps, 1)
        if not (math.isfinite(self.s) and math.isfinite(self.T)):
            raise ValueError(f"s and T must be finite, got {self.s}, {self.T}")
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
    """Keyed per-trajectory stream: depends only on (seed, index), never on
    execution order or batching. index may be an int or a tuple (e.g.
    (ladder position, trajectory index)).

    The stream is PCG64 seeded by SeedSequence(seed, spawn_key=index), which
    hashes the seed and the index into the generator's state. Batches and
    studies seed one such stream per distinct block key of a draw (see
    _block_noise), so a convergence study, whose levels share their keys,
    seeds each block once; a lattice solve seeds one per time step."""
    key = index if isinstance(index, tuple) else (index,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _blocks(prefix, n_paths, first=0):
    """(key, rows) of the noise blocks of paths first .. first + n_paths - 1
    of the key prefix, first a whole number of blocks: block b holds paths
    b*G .. b*G + G - 1, G = _BLOCK_PATHS, and the last one is cut to
    n_paths."""
    b = first // _BLOCK_PATHS
    return [(tuple(prefix) + (b + a // _BLOCK_PATHS,),
             min(_BLOCK_PATHS, n_paths - a))
            for a in range(0, n_paths, _BLOCK_PATHS)]


def _block_noise(seed, blocks, n, m, dt):
    """Brownian increments over n steps of length dt for the rows of blocks,
    a sequence of (key, rows): the first rows of the G = _BLOCK_PATHS rows
    that the stream trajectory_rng(seed, key) draws step-major, (n, G, m).
    Yields them as step-major chunks (c, total rows, m) of _CHUNK_STEPS
    steps, the last one shorter, in one reused buffer, so a chunk must be
    read before the next is asked for. Each distinct key is seeded once and
    keeps its generator from chunk to chunk; per chunk it draws all G rows
    once, into one reused draw buffer, and every block that carries the key
    takes its rows from that draw. So the bits do not depend on the chunk
    size, on how many of its rows a block uses or on how many blocks share
    its key. A block whose key is None is drawn by no stream: its rows stay
    zero."""
    slots = {}     # key: the (first row, rows) of its blocks
    total = 0
    for key, rows in blocks:
        if key is not None:
            slots.setdefault(key, []).append((total, rows))
        total += rows
    gens = [(trajectory_rng(seed, key), at) for key, at in slots.items()]
    c = min(_CHUNK_STEPS, n)
    buf = np.zeros((c, total, m))
    draw = np.empty((c, _BLOCK_PATHS, m))
    sq = np.sqrt(dt)
    for first in range(0, n, c):
        steps = min(c, n - first)
        for gen, at in gens:
            gen.standard_normal(out=draw[:steps])
            for row, rows in at:
                np.multiply(draw[:steps, :rows], sq,
                            out=buf[:steps, row:row + rows])
        yield buf[:steps]


def _stream_noise(rng_stream, epsilon, grid, m):
    """(1, n, m) increments from rng_stream, or None when epsilon is not > 0."""
    if not epsilon > 0:
        return None
    if rng_stream is None:
        raise ValueError("epsilon > 0 requires an rng_stream")
    return rng_stream.standard_normal((1, grid.n_steps, m)) * np.sqrt(grid.dt)


def _start(coeffs, domain, s, x, grid):
    """x as a float vector, a start at the grid's start time s that passes
    _check_dims and _check_inside."""
    if s != grid.s:
        raise ValueError(f"start time {s} is not the grid's start {grid.s}")
    x = np.atleast_1d(np.asarray(x, float))
    _check_dims(coeffs, domain, x)
    _check_inside(domain, x, "start {} lies outside the domain")
    return x


def _step(coeffs, domain, X, t, dt, dW, sq):
    """One projection Euler step of the states X (..., d) from time t,
    kicked by sigma dW scaled by sq = sqrt(epsilon), a scalar or an array
    that broadcasts with the kick, unless dW (..., m) is None. Returns the
    projected states, the budget increments dk (...), zero at or below the
    noise floor, and the projection's corrections (..., d).

    A constant drift is read as its (d,) value, and sigma = I kicks by
    dW * sq: both are exact, so they give the bits of the general route."""
    b, sigma = coeffs.b, coeffs.sigma
    drift = b.value if isinstance(b, _Constant) else b(t, X)
    prop = X + drift * dt
    if dW is not None:
        if isinstance(sigma, _Constant) and sigma.unit:
            kick = dW * sq
        else:
            kick = np.einsum("...dm,...m->...d", sigma(t, X), dW)
            kick *= sq
        prop += kick
    if not np.isfinite(prop).all():
        what = "state proposal" if np.isfinite(drift).all() else "drift"
        raise NumericalBlowup(f"non-finite {what} encountered")
    X = project(domain, prop)
    corr = X - prop
    dk = _norm(corr)
    dk *= dk > _K_NOISE_FLOOR * max(1.0, domain.diameter)
    return X, dk, corr


def _reflected_core(coeffs, domain, x0, epsilon, grid, noise, _dirs=False,
                    reducers=None):
    """The one loop behind every forward path: _step at every node.
    x0: (B, d); epsilon: a scalar, or one value per row, shape (B,), whose
    square root scales that row's kick. noise is None, an array (B, n, m),
    or an iterable of step-major chunks (c, B, m) that hold the n steps in
    order; the array is read as one chunk, its (n, B, m) view.

    Returns x_path (B, n+1, d), k_path (B, n+1), and dirs (B, n, d), the
    unit correction directions, built only when _dirs is set (else None).

    Each reducer(i, X, K) sees the states X (B, d) and budgets K (B,) at
    every node i = 0..n, in order, and must neither keep nor change them.
    Without reducers, one that stores the paths is used; with them, x_path
    and k_path are the last states and budgets, (B, d) and (B,).
    """
    eps = np.asarray(epsilon, float)
    if not (eps >= 0).all():
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    B, d = x0.shape
    n = grid.n_steps
    stored = reducers is None
    if stored:
        x_path, k_path = np.empty((B, n + 1, d)), np.empty((B, n + 1))

        def keep(i, X, K):
            x_path[:, i] = X
            k_path[:, i] = K
        reducers = (keep,)
    dirs = np.zeros((B, n, d)) if _dirs else None
    if (eps > 0).any():
        chunks = ((noise.swapaxes(0, 1),) if isinstance(noise, np.ndarray)
                  else noise)
        steps = (dW for chunk in chunks for dW in chunk)
    else:
        steps = repeat(None, n)
    sq = np.sqrt(eps)
    if eps.ndim:
        # per row, as (B, d): an elementwise scale of the kick costs about
        # a quarter of a (B, d) x (B, 1) broadcast in 2-D, for the same bits
        sq = np.repeat(sq[:, None], d, axis=1)
    X, K = np.array(x0, float), np.zeros(B)
    for reduce in reducers:
        reduce(0, X, K)
    for i, dW in zip(range(n), steps):
        X, dk, corr = _step(coeffs, domain, X, grid.nodes[i], grid.dt, dW, sq)
        K += dk
        for reduce in reducers:
            reduce(i + 1, X, K)
        if _dirs:
            np.divide(corr, dk[:, None], out=dirs[:, i], where=dk[:, None] > 0)
    return (x_path, k_path, dirs) if stored else (X, K, dirs)


def integrate_reflected_sde(coeffs, domain, s, x, epsilon, grid, rng_stream=None):
    """One trajectory of the reflected small-noise SDE on a uniform grid.

    With epsilon = 0 this is exactly the skeleton ODE (no noise is drawn, so
    the outputs agree bitwise with integrate_skeleton_ode). The start x must
    lie in the closed domain.
    """
    x0 = _start(coeffs, domain, s, x, grid)[None, :]
    noise = _stream_noise(rng_stream, epsilon, grid, coeffs.dims[1])
    xp, kp, dirs = _reflected_core(coeffs, domain, x0, epsilon, grid, noise,
                                   _dirs=True)
    return ReflectedTrajectory(
        grid=grid, x_path=xp[0], k_path=kp[0], k_increment_dirs=dirs[0],
        noise=None if noise is None else noise[0], epsilon=float(epsilon))


def integrate_skeleton_ode(coeffs, domain, s, x, grid):
    """Deterministic noise-free flow (the zero-cost path of the rate function)."""
    return integrate_reflected_sde(coeffs, domain, s, x, 0.0, grid)


def simulate_reflected_batch(coeffs, domain, s, x, epsilon, grid, seed,
                             n_paths):
    """n_paths reflected trajectories. Returns (x_paths, k_paths) arrays of
    shape (n_paths, n+1, d) and (n_paths, n+1).

    Path j is row j % G of the noise block trajectory_rng(seed, (j // G,)),
    with G = _BLOCK_PATHS (see _block_noise): path j of a convergence
    study's level."""
    x = _start(coeffs, domain, s, x, grid)
    _check_count("n_paths", n_paths, 1)
    d, m, _ = coeffs.dims
    x0 = np.broadcast_to(x, (n_paths, d)).copy()
    noise = (_block_noise(seed, _blocks((), n_paths), grid.n_steps, m,
                          grid.dt)
             if epsilon > 0 else None)
    xp, kp, _ = _reflected_core(coeffs, domain, x0, epsilon, grid, noise)
    return xp, kp


def skorokhod_map(domain, phi_path):
    """Constrain a free path to the closed domain by iterated projection:
    the projection scheme with b = 0, sigma = I, epsilon = 1 and the free
    path's increments as the noise.

    Returns the decomposition psi = phi + rho where rho collects the applied
    corrections; psi - rho reconstructs the input to roundoff.
    """
    vals = np.asarray(phi_path.values, float)
    _check_inside(domain, vals[0], "free path must start in the closed domain")
    d = vals.shape[1]
    unit = CoefficientSet(
        b=_Constant(0.0, (d,)), sigma=_Constant(np.eye(d), (d, d)),
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
