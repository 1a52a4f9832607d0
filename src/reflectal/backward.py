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

from .coefficients import _Constant
from .errors import FixedPointDivergence, NumericalBlowup, OutOfLattice
from .forward import TimeGrid, _check_count, _step, trajectory_rng
from .geometry import _check_dims, project

__all__ = ["BsdePath", "ValueField", "make_lattice", "solve_limit_bsde",
           "solve_bsde_grid", "limit_value_field", "apply_pi"]

_MAX_FP_ITER = 20      # fixed-point iterations per implicit backward step
_FP_TOL = 1e-10        # sup-norm change that ends the fixed-point iteration
_PI_TOL = 1e-9         # slack of apply_pi's lattice-hull check
_UNIFORM_TOL = 1e-9    # largest spacing deviation of a lattice axis, per step
_MIN_AXIS_NODES = 2    # nodes per lattice axis
_MIN_MC_PER_NODE = 64  # one-step samples per lattice node in solve_bsde_grid
# one-step samples of one lattice pass, which holds at least one level:
# four levels of the CLI's default 1-D lattice (33 nodes x 256 samples) fit,
# and a level of its 2-D one (33^2 nodes) passes alone, as it did unbatched
_LADDER_SAMPLES = 2**16
# path-table entries, start rows x time nodes, of one group of start times
# in limit_value_field, which holds at least one: 32 MB of x, K and y in
# 2-D. The CLI's default 1-D field (33 nodes x 128 steps) is one group
_FIELD_TABLE = 2**20


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
    """Per-axis uniform lattice over the bounding box of the closed domain,
    of n_per_axis nodes per axis, an int >= _MIN_AXIS_NODES."""
    _check_count("n_per_axis", n_per_axis, _MIN_AXIS_NODES)
    return tuple(np.linspace(lo, hi, n_per_axis) for lo, hi in zip(*domain.bbox))


def _lattice_nodes(axes):
    shape = tuple(len(ax) for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), shape


def _interpolation_plan(axes):
    """read(values, coords, offset=0, slope=False), the multilinear reader
    of one lattice, with what depends on the axes alone worked out once:
    each axis's origin, scale, last cell and stride, and the flat offsets
    of the 2^D corners of a cell.

    read reads values (*stack, *lattice_shape, k) on the uniform axes at
    points inside the lattice hull, given as one coordinate array per axis,
    all of one broadcast shape (...), and returns (..., k). The leading
    stack axes, if any, hold lattices laid end to end in row-major order,
    and offset (an int or an array) is the flat index of each point's
    lattice: s times the lattice size reads the s-th. An offset array
    broadcasts with the coordinates, and the result takes their joint
    shape. The 2^D corner values are gathered by index arithmetic and
    reduced one axis at a time, the last axis first, as lo + w (hi - lo).
    With slope=True read also returns the interpolant's own slope
    (..., k, D) in the cell: the same reduction, with (hi - lo) scale on
    the differentiated axis.
    """
    shape = [ax.size for ax in axes]
    strides = [math.prod(shape[a + 1:]) for a in range(len(axes))]
    plan = [(ax[0], (ax.size - 1) / (ax[-1] - ax[0]), ax.size - 2, stride)
            for ax, stride in zip(axes, strides)]
    corners = [sum(b * s for b, s in zip(bits, strides))
               for bits in product((0, 1), repeat=len(axes))]

    def read(values, coords, offset=0, slope=False):
        flat = values.reshape(-1, values.shape[-1])
        base, weights = offset, []
        for q, (origin, scale, last, stride) in zip(coords, plan):
            pos = (q - origin) * scale
            cell = np.minimum(np.maximum(pos.astype(np.intp), 0), last)
            base = base + (cell * stride if stride > 1 else cell)
            weights.append((pos - cell)[..., None])
        vals = [flat.take(base + c if c else base, axis=0) for c in corners]

        def reduce(vals, along=None):      # the last axis first
            for a in reversed(range(len(plan))):
                vals = [(hi - lo) * plan[a][1] if a == along
                        else _blend(lo, hi, weights[a])
                        for lo, hi in zip(vals[::2], vals[1::2])]
            return vals[0]

        if not slope:
            return reduce(vals)
        return reduce(vals), np.stack([reduce(vals, a)
                                       for a in range(len(plan))], -1)

    return read


def _blend(lo, hi, w):
    """lo + w * (hi - lo), in place in hi - lo's buffer, which must hold
    the result's shape."""
    out = np.subtract(hi, lo)
    np.multiply(w, out, out=out)
    return np.add(lo, out, out=out)


def _hull_clipper(axes):
    """clip(points) for the hull of the lattice axes: points (..., D)
    clipped to the hull; a point more than _PI_TOL outside it, or NaN,
    raises OutOfLattice. Points strictly inside the hull come back as
    they are, as clipping would change none of their bits; a point on an
    edge may lose one, a -0.0 taking the axis end's 0.0, so it is clipped.
    """
    lo, hi = np.array([(ax[0], ax[-1]) for ax in axes]).T
    lo_tol, hi_tol = lo - _PI_TOL, hi + _PI_TOL
    ends = list(zip(lo.tolist(), hi.tolist()))

    def clip(points):
        # a NaN fails the test; an empty stack, which has no min, is clipped
        if points.size and all(a < points[..., c].min()
                               and points[..., c].max() < b
                               for c, (a, b) in enumerate(ends)):
            return points
        if not ((points >= lo_tol) & (points <= hi_tol)).all():
            raise OutOfLattice("path leaves the lattice hull")
        return np.minimum(np.maximum(points, lo), hi)

    return clip


def _check_horizon(coeffs, times):
    if times.T != coeffs.T:
        raise ValueError(f"time grid ends at {times.T}, not at T = {coeffs.T}")


def _backward_recursion(coeffs, nodes_t, dt, x_path, k_path, terminal,
                        active=None):
    """Explicit backward Euler for the limit equation, vectorized over a
    batch axis, with step dt. x_path: (B, n+1, d); k_path: (B, n+1);
    terminal (B, k); returns (B, n+1, k).

    Without active every row steps back from node n to node 0. With it,
    the step from node i+1 to node i is made for the first active[i] rows
    only, a prefix that shrinks as i falls: a row leaves the sweep at its
    own start node, below which its entries are left unset.
    """
    d, m, k = coeffs.dims
    B, n1 = k_path.shape
    n = n1 - 1
    y = np.empty((n + 1, B, k))    # node-major: a step's rows are one block
    y[n] = terminal
    z0 = np.zeros((B, k, m))
    for i in range(n - 1, -1, -1):
        r = B if active is None else active[i]
        t_next = nodes_t[i + 1]
        x_next = x_path[:r, i + 1]
        y_next = y[i + 1, :r]
        dk = (k_path[:r, i + 1] - k_path[:r, i])[:, None]
        y[i, :r] = (y_next
                    + coeffs.f(t_next, x_next, y_next, z0[:r]) * dt
                    + coeffs.g(t_next, x_next, y_next) * dk)
        if not np.all(np.isfinite(y[i, :r])):
            raise NumericalBlowup("limit backward recursion became non-finite")
    return y.swapaxes(0, 1)


def solve_limit_bsde(coeffs, skeleton):
    """Deterministic backward equation along a noise-free skeleton."""
    if skeleton.epsilon != 0.0:
        raise ValueError("skeleton must have epsilon = 0")
    _check_horizon(coeffs, skeleton.grid)
    terminal = coeffs.h(skeleton.x_path[-1][None, :])
    nodes = skeleton.grid.nodes
    y = _backward_recursion(coeffs, nodes, nodes[1] - nodes[0],
                            skeleton.x_path[None], skeleton.k_path[None],
                            terminal)
    return BsdePath(grid=skeleton.grid, y_path=y[0])


def solve_bsde_grid(coeffs, domain, epsilon, times, space_grid, mc_per_node,
                    rng_seed):
    """Lattice dynamic programming for the generalized BSDE, epsilon > 0.

    space_grid is a tuple of per-axis node arrays (see make_lattice).
    Step i draws its (nodes, mc_per_node, m) samples from the stream
    trajectory_rng(rng_seed, (i,)), so the result depends on rng_seed
    alone. This is the one-level case of _solve_ladder.
    """
    values = _solve_ladder(coeffs, domain, [epsilon], [rng_seed], times,
                           space_grid, mc_per_node)
    return ValueField(times=times, axes=space_grid, values=values[:, 0],
                      epsilon=float(epsilon))


def _solve_ladder(coeffs, domain, epsilons, seeds, times, space_grid,
                  mc_per_node):
    """The lattice fields of the levels (epsilons[l], seeds[l]), all on one
    time grid and lattice: values (n+1, L, *lattice_shape, k), whose level
    l is solve_bsde_grid's field at that epsilon and seed, bit for bit.

    The levels are stepped together, as one stack of one-step samples, in
    passes of as many levels as _LADDER_SAMPLES samples hold (at least
    one); every sample, and each level's fixed-point stop, is its own, so
    no cut into passes changes a bit. A failing level raises as it would
    alone: the error is that of the first level in ladder order that
    fails, at the step where its own backward sweep first fails.
    """
    eps = np.asarray(epsilons, float)
    if not (eps > 0).all():
        raise ValueError("solve_bsde_grid requires epsilon > 0")
    _check_count("mc_per_node", mc_per_node, _MIN_MC_PER_NODE)
    _check_horizon(coeffs, times)
    _check_dims(coeffs, domain)
    axes = _uniform_axes(space_grid)
    nodes, shape = _lattice_nodes(axes)
    N = nodes.shape[0]
    sim_start = project(domain, nodes)    # lattice hull may exceed the domain
    n = times.n_steps
    values = np.empty((n + 1, eps.size, N, coeffs.dims[2]))
    values[n] = coeffs.h(sim_start)
    per_pass = max(1, _LADDER_SAMPLES // (N * mc_per_node))
    for first in range(0, eps.size, per_pass):
        part = slice(first, first + per_pass)
        failure = _lattice_pass(coeffs, domain, eps[part], seeds[part], times,
                                axes, sim_start, mc_per_node, values[:, part])
        if failure is not None:
            raise failure
    return values.reshape((n + 1, eps.size) + shape + values.shape[-1:])


def _lattice_pass(coeffs, domain, eps, seeds, times, axes, sim_start, mc,
                  values):
    """Step the levels (eps[l], seeds[l]) back from their terminal slices
    values[n] into values[:n], values (n+1, L, nodes, k), as one stack of
    one-step samples, (L, nodes * mc, d): level l's are the transitions of
    solve_bsde_grid at eps[l], drawn from trajectory_rng(seeds[l], (i,)) at
    step i and kicked by sqrt(eps[l]), one (L, 1, 1) scale, which makes no
    per-sample array.

    Returns None, or the error of the first level in ladder order that
    fails. A level that fails at step i is dropped from the stack with
    every later level, since only an earlier one can still fail first in
    ladder order; the earlier ones step on.
    """
    d, m, k = coeffs.dims
    L, N = values.shape[1:3]
    shape = tuple(ax.size for ax in axes)
    rows = N * mc                                  # samples per level
    x = np.tile(sim_start, (L, 1))
    starts = np.broadcast_to(np.repeat(sim_start, mc, axis=0), (L, rows, d))
    root = np.sqrt(eps)[:, None, None]             # each level's sqrt(eps)
    offsets = np.arange(L)[:, None, None] * N      # each level's lattice
    noise = np.empty((L, N, mc, m))
    interpolate = _interpolation_plan(axes)
    t_nodes = times.nodes
    dt = times.dt
    sq = np.sqrt(dt)
    failure = None
    for i in range(times.n_steps - 1, -1, -1):
        t = t_nodes[i]
        # one-step reflected transitions from every node, each level's
        # drawn from its stream of step i
        dW = noise[:L]
        for level, seed in enumerate(seeds[:L]):
            trajectory_rng(seed, (i,)).standard_normal(out=dW[level])
        dW *= sq
        X, dk = _step(coeffs, domain, starts[:L], t, t_nodes[i + 1] - t,
                      dW.reshape(L, rows, m), root[:L])[:2]

        u_next = interpolate(values[i + 1, :L].reshape((L,) + shape + (k,)),
                             np.moveaxis(X, -1, 0).reshape(d, L, N, mc),
                             offsets[:L])
        u_next = u_next.reshape(L * N, mc, k)
        # sample means, with mean's bits: the sums over axis 1, then / mc
        base = np.add.reduce(u_next, axis=1) / mc           # (L*N, k)
        kbar = (np.add.reduce(dk.reshape(L * N, mc), axis=1) / mc)[:, None]
        z_hat = np.einsum("nck,ncm->nkm", u_next,
                          dW.reshape(L * N, mc, m)) / (mc * dt)

        y, stuck, change = _fixed_point(coeffs, t, x[:L * N], base, z_hat,
                                        kbar, dt, L)
        values[i, :L] = y.reshape(L, N, k)
        finite = np.isfinite(y).reshape(L, -1).all(axis=1)
        failed = np.flatnonzero(stuck | ~finite)
        if failed.size:
            L = int(failed[0])
            if stuck[L]:
                worst = int(np.argmax(change.reshape(-1, N, k)[L].max(-1)))
                failure = FixedPointDivergence(
                    f"implicit step at eps={eps[L]:.6g}, t={t:.6g}, node "
                    f"{sim_start[worst]} did not converge within "
                    f"{_MAX_FP_ITER} iterations")
            else:
                failure = NumericalBlowup(
                    f"value slice became non-finite at eps={eps[L]:.6g}")
            if L == 0:
                break
    return failure


def _fixed_point(coeffs, t, x, base, z_hat, kbar, dt, L):
    """Iterate y = base + f(t, x, y, z_hat) dt + g(t, x, y) kbar from
    y = base, on a stack whose rows are L equal blocks, one per level. A
    level settles after the first iteration that changes none of its
    entries by _FP_TOL or more, and later iterations leave its rows as they
    are. A constant g is read as its value.

    Returns y (rows, k), which levels did not settle within _MAX_FP_ITER
    iterations, (L,), and the last iteration's |change| (rows, k).
    """
    g = coeffs.g
    gk = g.value * kbar if isinstance(g, _Constant) else None
    y = base
    settled = [False] * L
    for _ in range(_MAX_FP_ITER):
        g_term = gk if gk is not None else g(t, x, y) * kbar
        y_new = base + coeffs.f(t, x, y, z_hat) * dt + g_term
        change = np.abs(y_new - y)
        if any(settled):     # the settled levels keep their rows
            y_new.reshape(L, -1)[settled] = y.reshape(L, -1)[settled]
        y = y_new
        now = np.maximum.reduce(change.reshape(L, -1), axis=1) < _FP_TOL
        settled = [a or b for a, b in zip(settled, now.tolist())]
        if all(settled):
            break
    return y, ~np.array(settled), change


def limit_value_field(coeffs, domain, times, space_grid):
    """Deterministic limit field u(t, x) on the lattice: the skeleton from
    each (t_i, node) followed by the limit backward equation, read at its
    start.

    The skeletons of all start points are stepped together, on the field's
    own time nodes and dt: with rows ordered by start time, a row joins the
    forward sweep (_step) at its start node and leaves the backward one
    (_backward_recursion) there, so each sweep steps a growing, then
    shrinking, prefix of the rows: n steps each, when the start times form
    one group. Where TimeGrid(t_i, T, n - i) has the field's nodes
    t_i..t_n, as on every dyadic grid on [0, 1], u(t_i, node) is bitwise
    solve_limit_bsde's along integrate_skeleton_ode's skeleton from
    (t_i, node) on that grid. The start times run in consecutive groups,
    each of as many as a path table of _FIELD_TABLE entries (rows x time
    nodes) holds, and at least one, so memory stays bounded; no cut into
    groups changes a bit.
    """
    _check_horizon(coeffs, times)
    _check_dims(coeffs, domain)
    k = coeffs.dims[2]
    axes = _uniform_axes(space_grid)
    nodes, shape = _lattice_nodes(axes)
    starts = project(domain, nodes)
    n = times.n_steps
    values = np.empty((n + 1, nodes.shape[0], k))
    values[n] = coeffs.h(starts)
    first = 0
    while first < n:
        group = max(1, _FIELD_TABLE // (starts.shape[0] * (n - first + 1)))
        last = min(n, first + group)
        values[first:last] = _field_group(coeffs, domain, times, starts,
                                          first, last)
        first = last
    return ValueField(times=times, axes=axes,
                      values=values.reshape((n + 1,) + shape + (k,)),
                      epsilon=0.0)


def _field_group(coeffs, domain, times, starts, first, last):
    """u at the start times first..last-1 of limit_value_field and the
    start points starts (N, d), (last - first, N, k): one forward and one
    backward sweep over the path table of the time nodes first..n, whose
    rows hold the start times in order, N rows each."""
    N, d = starts.shape
    g = last - first                    # start times in the group
    t = times.nodes
    cols = times.n_steps - first + 1    # the table's time nodes
    # the rows stepped between table nodes j and j + 1, whose start is at
    # most node first + j
    active = np.minimum(np.arange(1, cols), g) * N
    xs = np.empty((cols, g * N, d))
    ks = np.zeros((cols, g * N))
    for j, r in enumerate(active):
        if j < g:                  # the rows that start at table node j join
            xs[j, r - N:r] = starts
        xs[j + 1, :r], dk, _ = _step(coeffs, domain, xs[j, :r], t[first + j],
                                     times.dt, None, 0.0)
        np.add(ks[j, :r], dk, out=ks[j + 1, :r])
    y = _backward_recursion(coeffs, t[first:], t[1] - t[0], xs.swapaxes(0, 1),
                            ks.T, coeffs.h(xs[-1]), active)
    rows = np.arange(g * N)
    return y[rows, rows // N].reshape(g, N, -1)   # each row at its start


def _pi_reader(field):
    """apply_pi's reader of one field: read(path_values) reads the field
    along paths (..., n+1, d), node i in the field's time slice i. The flat
    offset of each slice, the lattice hull and the lattice's interpolation
    plan are worked out once.

    read makes one spatial read, through the plan's offset, of slice i at
    node i: every node lies on a time node of the field, so no time blend
    is needed. With slope=True it also returns the spatial slope
    (..., n+1, k, d) of that read.
    """
    ax = field.times.nodes
    cells = math.prod(field.values.shape[1:-1])     # lattice nodes per slice
    offsets = np.arange(ax.size) * cells            # each time node's slice
    clip = _hull_clipper(field.axes)
    interpolate = _interpolation_plan(field.axes)
    dim = len(field.axes)

    def read(path_values, slope=False):
        vals = np.asarray(path_values, float)
        if vals.shape[-1] != dim:
            raise ValueError("path dimension does not match the field lattice")
        if vals.shape[-2:-1] != ax.shape:
            raise ValueError("paths need one node per time node of the "
                             "field")
        clipped = clip(vals)
        return interpolate(field.values,
                           [clipped[..., a] for a in range(dim)], offsets,
                           slope)

    return read


def apply_pi(field, path_values):
    """Read the value field along a constrained path, node i in the field's
    time slice i, multilinear in space. path_values:
    (..., n+1, d), n+1 the field's time nodes. Returns (..., n+1, k); a
    point outside the field's lattice hull, or NaN, raises OutOfLattice."""
    return _pi_reader(field)(path_values)
