"""Backward solvers: the deterministic limit equation along the skeleton and
lattice dynamic programming for the generalized BSDE at small noise.

The stochastic solver makes the Markov identity the literal algorithm: at
each lattice node it simulates one-step reflected transitions, averages the
interpolated next-slice values, and solves the implicit dependence of the
driver terms on the current value by fixed-point iteration. The dK-driven
term uses the reflection increment of the very same transitions, preserving
the (X, K) coupling.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import FixedPointDivergence, NumericalBlowup, OutOfLattice
from .forward import TimeGrid, _reflected_core, _step, trajectory_rng
from .geometry import _check_dims, project

__all__ = ["BsdePath", "ValueField", "make_lattice", "solve_limit_bsde",
           "solve_bsde_grid", "limit_value_field", "apply_pi"]

_MAX_FP_ITER = 20      # fixed-point iterations per implicit backward step
_FP_TOL = 1e-10        # sup-norm change that ends the fixed-point iteration
_PI_TOL = 1e-9         # slack of apply_pi's lattice-hull and time-range checks
_UNIFORM_TOL = 1e-9    # largest spacing deviation of a lattice axis, per step
_MIN_AXIS_NODES = 2    # nodes per lattice axis
_MIN_MC_PER_NODE = 64  # one-step samples per lattice node in solve_bsde_grid


@dataclass(frozen=True)
class BsdePath:
    grid: TimeGrid
    y_path: np.ndarray    # (n+1, k)


@dataclass(frozen=True)
class ValueField:
    times: TimeGrid
    axes: tuple           # per-axis 1D node arrays spanning the domain hull
    values: np.ndarray    # (n_t+1, *lattice_shape, k)
    epsilon: float        # 0 means the deterministic limit field

    def __post_init__(self):
        object.__setattr__(self, "axes", _uniform_axes(self.axes))


def _uniform_axes(space_grid):
    """Float lattice axes, each increasing and uniform with >= 2 nodes."""
    axes = tuple(np.asarray(ax, float) for ax in space_grid)
    for ax in axes:
        if ax.ndim != 1 or ax.size < _MIN_AXIS_NODES:
            raise ValueError(f"lattice axes need >= {_MIN_AXIS_NODES} nodes")
        step = (ax[-1] - ax[0]) / (ax.size - 1)
        if not (step > 0 and np.all(np.abs(np.diff(ax) - step)
                                    <= _UNIFORM_TOL * step)):
            raise ValueError("lattice axes must be increasing and uniform")
    return axes


def make_lattice(domain, n_per_axis):
    """Per-axis uniform lattice over the bounding box of the closed domain."""
    return tuple(np.linspace(lo, hi, n_per_axis) for lo, hi in zip(*domain.bbox))


def _lattice_nodes(axes):
    shape = tuple(len(ax) for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), shape


def _multilinear(axes, values, coords, offset=0):
    """Multilinear read of values (*stack, *lattice_shape, k) on uniform axes
    at points inside the lattice hull, given as one coordinate array per
    axis, all of one broadcast shape (...); returns (..., k). The leading
    stack axes, if any, hold lattices laid end to end in row-major order,
    and offset (an int or an array) is the flat index of each point's
    lattice: s times the lattice size reads the s-th. An offset array
    broadcasts with the coordinates, and the result takes their joint
    shape.
    The 2^D corner values are gathered by index arithmetic and reduced one
    axis at a time."""
    shape = values.shape[-1 - len(axes):-1]
    flat = values.reshape(-1, values.shape[-1])
    strides = [math.prod(shape[a + 1:]) for a in range(len(axes))]
    base, weights = offset, []
    for ax, q, stride in zip(axes, coords, strides):
        pos = (q - ax[0]) * ((ax.size - 1) / (ax[-1] - ax[0]))
        cell = np.minimum(np.maximum(pos.astype(np.intp), 0), ax.size - 2)
        base = base + cell * stride
        weights.append((pos - cell)[..., None])
    corners = [flat.take(base + sum(b * s for b, s in zip(bits, strides)),
                         axis=0)
               for bits in product((0, 1), repeat=len(axes))]
    for w in reversed(weights):
        corners = [lo + w * (hi - lo) for lo, hi in zip(corners[::2], corners[1::2])]
    return corners[0]


def _hull_clipper(axes):
    """clip(points) for the hull of the lattice axes: points (..., D)
    clipped to the hull; a point more than _PI_TOL outside it, or NaN,
    raises OutOfLattice."""
    lo, hi = np.array([(ax[0], ax[-1]) for ax in axes]).T
    lo_tol, hi_tol = lo - _PI_TOL, hi + _PI_TOL

    def clip(points):
        if not ((points >= lo_tol).all() and (points <= hi_tol).all()):
            raise OutOfLattice("path leaves the lattice hull")
        return np.minimum(np.maximum(points, lo), hi)

    return clip


def _check_horizon(coeffs, times):
    if times.T != coeffs.T:
        raise ValueError(f"time grid ends at {times.T}, not at T = {coeffs.T}")


def _backward_recursion(coeffs, nodes_t, x_path, k_path, terminal):
    """Explicit backward Euler for the limit equation, vectorized over a
    batch axis. x_path: (B, n+1, d); k_path: (B, n+1); returns (B, n+1, k)."""
    d, m, k = coeffs.dims
    B, n1 = k_path.shape
    n = n1 - 1
    dt = nodes_t[1] - nodes_t[0] if n >= 1 else 0.0
    y = np.empty((B, n + 1, k))
    y[:, n] = terminal
    z0 = np.zeros((B, k, m))
    for i in range(n - 1, -1, -1):
        t_next = nodes_t[i + 1]
        x_next = x_path[:, i + 1]
        y_next = y[:, i + 1]
        dk = (k_path[:, i + 1] - k_path[:, i])[:, None]
        y[:, i] = (y_next
                   + coeffs.f(t_next, x_next, y_next, z0) * dt
                   + coeffs.g(t_next, x_next, y_next) * dk)
        if not np.all(np.isfinite(y[:, i])):
            raise NumericalBlowup("limit backward recursion became non-finite")
    return y


def solve_limit_bsde(coeffs, skeleton):
    """Deterministic backward equation along a noise-free skeleton."""
    if skeleton.epsilon != 0.0:
        raise ValueError("skeleton must have epsilon = 0")
    _check_horizon(coeffs, skeleton.grid)
    terminal = coeffs.h(skeleton.x_path[-1][None, :])
    y = _backward_recursion(coeffs, skeleton.grid.nodes,
                            skeleton.x_path[None], skeleton.k_path[None],
                            terminal)
    return BsdePath(grid=skeleton.grid, y_path=y[0])


def solve_bsde_grid(coeffs, domain, epsilon, times, space_grid, mc_per_node,
                    rng_seed):
    """Lattice dynamic programming for the generalized BSDE, epsilon > 0.

    space_grid is a tuple of per-axis node arrays (see make_lattice).
    Step i draws its (nodes, mc_per_node, m) samples from the stream
    trajectory_rng(rng_seed, (i,)), so the result depends on rng_seed
    alone.
    """
    if not epsilon > 0:
        raise ValueError("solve_bsde_grid requires epsilon > 0")
    if mc_per_node < _MIN_MC_PER_NODE:
        raise ValueError(f"mc_per_node must be >= {_MIN_MC_PER_NODE}")
    _check_horizon(coeffs, times)
    _check_dims(coeffs, domain)
    d, m, k = coeffs.dims
    axes = _uniform_axes(space_grid)
    nodes, shape = _lattice_nodes(axes)
    N = nodes.shape[0]
    sim_start = project(domain, nodes)    # lattice hull may exceed the domain
    starts = np.repeat(sim_start, mc_per_node, axis=0)
    n = times.n_steps
    dt = times.dt
    t_nodes = times.nodes

    values = np.empty((n + 1, N, k))
    values[n] = coeffs.h(sim_start)
    sq = np.sqrt(dt)

    for i in range(n - 1, -1, -1):
        t = t_nodes[i]
        # one-step reflected transitions from every node, all drawn from
        # the stream of step i
        dW = trajectory_rng(rng_seed, (i,)).standard_normal(
            (N, mc_per_node, m))
        dW *= sq
        X, dk, _ = _step(coeffs, domain, starts, t, t_nodes[i + 1] - t,
                         dW.reshape(-1, m), np.sqrt(epsilon))

        u_next = _multilinear(axes, values[i + 1].reshape(shape + (k,)),
                              X.T.reshape(d, N, mc_per_node))  # (N, mc, k)

        base = u_next.mean(axis=1)                         # (N, k)
        kbar = dk.reshape(N, mc_per_node).mean(axis=1)[:, None]
        z_hat = np.einsum("nck,ncm->nkm", u_next, dW) / (mc_per_node * dt)

        y = base
        for _ in range(_MAX_FP_ITER):
            y_new = (base + coeffs.f(t, sim_start, y, z_hat) * dt
                     + coeffs.g(t, sim_start, y) * kbar)
            delta = np.abs(y_new - y)
            y = y_new
            if float(delta.max()) < _FP_TOL:
                break
        else:
            worst = int(np.argmax(delta.max(axis=-1)))
            raise FixedPointDivergence(
                f"implicit step at t={t:.6g}, node {sim_start[worst]} "
                f"did not converge within {_MAX_FP_ITER} iterations")
        if not np.all(np.isfinite(y)):
            raise NumericalBlowup("value slice became non-finite")
        values[i] = y

    return ValueField(times=times, axes=axes,
                      values=values.reshape((n + 1,) + shape + (k,)),
                      epsilon=float(epsilon))


def limit_value_field(coeffs, domain, times, space_grid):
    """Deterministic limit field u(t, x) on the lattice: skeleton from each
    (t_i, node) followed by the limit backward equation, read at its start."""
    _check_horizon(coeffs, times)
    _check_dims(coeffs, domain)
    k = coeffs.dims[2]
    axes = _uniform_axes(space_grid)
    nodes, shape = _lattice_nodes(axes)
    starts = project(domain, nodes)
    n = times.n_steps
    t_nodes = times.nodes
    values = np.empty((n + 1, nodes.shape[0], k))
    values[n] = coeffs.h(starts)
    for i in range(n - 1, -1, -1):
        sub = TimeGrid(s=t_nodes[i], T=times.T, n_steps=n - i)
        xp, kp, _ = _reflected_core(coeffs, domain, starts, 0.0, sub, None)
        terminal = coeffs.h(xp[:, -1])
        y = _backward_recursion(coeffs, sub.nodes, xp, kp, terminal)
        values[i] = y[:, 0]
    return ValueField(times=times, axes=axes,
                      values=values.reshape((n + 1,) + shape + (k,)),
                      epsilon=0.0)


def _pi_reader(field, path_times=None):
    """apply_pi's reader of one field at one time per path node:
    read(path_values) reads the field along paths (..., n+1, d) at
    path_times, by default the field's own time nodes. What depends on the
    times alone, each node's time cell and weight and the flat offsets of
    its two time slices, and the lattice hull are worked out once.

    read makes one spatial _multilinear read of both time slices, through
    its offset, and blends them in time last. That is the reduction order of
    one read over the lattice in (t, x), so the bits are those of that read.
    """
    times = field.times
    t_nodes = times.nodes if path_times is None else np.asarray(path_times)
    if t_nodes.ndim != 1:
        raise ValueError("path_times needs one entry per path node")
    if path_times is not None:
        # the field's own nodes lie in [s, T], with linspace's exact ends
        if not ((t_nodes >= times.s - _PI_TOL).all()
                and (t_nodes <= times.T + _PI_TOL).all()):
            raise OutOfLattice("path times leave the field's time range")
        t_nodes = np.minimum(np.maximum(t_nodes, times.s), times.T)
    ax = times.nodes
    pos = (t_nodes - ax[0]) * ((ax.size - 1) / (ax[-1] - ax[0]))
    cell = np.minimum(np.maximum(pos.astype(np.intp), 0), ax.size - 2)
    weight = (pos - cell)[:, None]
    cells = math.prod(field.values.shape[1:-1])     # lattice nodes per slice
    offsets = cell * cells + np.array([[0], [cells]])    # (2, n+1)
    clip = _hull_clipper(field.axes)
    dim = len(field.axes)

    def read(path_values):
        vals = np.asarray(path_values, float)
        if vals.shape[-1] != dim:
            raise ValueError("path dimension does not match the field lattice")
        if vals.shape[-2:-1] != t_nodes.shape:
            raise ValueError("path_times needs one entry per path node")
        clipped = clip(vals)
        lead = offsets.reshape((2,) + (1,) * (vals.ndim - 2) + t_nodes.shape)
        lo, hi = _multilinear(field.axes, field.values,
                              [clipped[..., a] for a in range(dim)], lead)
        return lo + weight * (hi - lo)

    return read


def apply_pi(field, path_values, path_times=None):
    """Read the value field along a constrained path (multilinear in time
    and space). path_values: (..., n+1, d); path_times, one per path node,
    defaults to the field's time nodes. Returns (..., n+1, k); a point or
    time outside the field, or NaN, raises OutOfLattice."""
    return _pi_reader(field, path_times)(path_values)
