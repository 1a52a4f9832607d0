"""Forward integrators: reflected SDE, noise-free skeleton, free SDE,
and the constraining (Skorokhod) map; each start time s must equal grid.s.

The reflected scheme is projection Euler: propose a full Euler step, project
it back onto the closed domain, and book the Euclidean size of the correction
as the increment of the scalar reflection budget K. Containment is therefore
exact by construction and K increases only at steps that land on the
boundary. With epsilon = 0 the same code path is the skeleton ODE, so the
noise-free reduction is bitwise.
"""

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .coefficients import CoefficientSet
from .errors import (MissingNoise, NumericalBlowup, StartOutsideDomain,
                     UnknownStateLayout)
from .geometry import _norm, project

__all__ = ["TimeGrid", "ReflectedTrajectory", "FreePath",
           "SkorokhodDecomposition", "integrate_reflected_sde",
           "integrate_skeleton_ode", "integrate_free_sde", "skorokhod_map",
           "reflection_budget_identity", "trajectory_rng",
           "simulate_reflected_batch"]

# projection corrections below this (absolute) size are floating-point noise
# and are not booked into K
_K_NOISE_FLOOR = 1e-14

# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# multiplier, which _stream_states reproduces
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1

# rows that _normal_rows draws into its buffer before scaling them into out
_GROUP_ROWS = 16


@dataclass(frozen=True)
class TimeGrid:
    s: float
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
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
    hashes the seed and the index into the generator's state."""
    key = index if isinstance(index, tuple) else (index,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _uint32_words(value):
    """The uint32 words that SeedSequence makes of a nonnegative int, or of
    a sequence of them, least significant first."""
    if not isinstance(value, (int, np.integer)):
        return [w for v in value for w in _uint32_words(v)]
    value = int(value)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mul128(hi, lo, const):
    """(hi, lo) * const mod 2^128 on arrays of uint64 words, most significant
    first, const a nonnegative int. lo * const's low word carries into the
    high word through the 32-bit halves of both factors."""
    c_hi, c_lo = (np.uint64(w) for w in divmod(const, 1 << 64))
    a1, a0, b1, b0 = lo >> 32, lo & _MASK32, c_lo >> 32, c_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _hashmix(value, const, mult, calls):
    """SeedSequence's hashmix of value in calls consecutive calls from the
    hash constant const: row c of the (calls, ...) result is call c's hash
    of value, or of value[c] when value has that many rows. Returns it and
    the constant after the last call."""
    h = [const * pow(mult, c, 1 << 32) & _MASK32 for c in range(calls + 1)]
    xor, mul = (np.array(h[a:a + calls], np.uint32)[:, None] for a in (0, 1))
    v = (value ^ xor) * mul
    return v ^ v >> 16, h[-1]


def _stream_states(seed, prefix, keys):
    """PCG64 states of the streams trajectory_rng(seed, prefix + tuple(row))
    for the rows of keys, a nonnegative integer array (rows, words), computed
    together: a uint64 array (rows, 4) of the state and the increment of
    PCG64().state["state"], each as its high and low word.

    SeedSequence hashes one entropy word at a time into a pool of four: the
    seed's words, padded to four, then the spawn key's. So the pool before
    the key rows' words is that of SeedSequence(those words), and only the
    words of keys, one per key int, are hashed per row here; a key past 32
    bits would take two words and is left to SeedSequence. The pool then
    yields PCG64's 128-bit seed and increment, and PCG64 seeds as
    pcg_setseq_128_srandom_r.
    """
    # validates seed and prefix, and resolves a seed of None
    ss = np.random.SeedSequence(seed, spawn_key=prefix)
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("stream keys must be nonnegative")
    if keys.size and keys.max() > _MASK32:
        states = [np.random.PCG64(np.random.SeedSequence(
            ss.entropy, spawn_key=prefix + tuple(row))).state["state"]
            for row in keys.tolist()]
        return np.array([divmod(st[name], 1 << 64) for st in states
                         for name in ("state", "inc")],
                        np.uint64).reshape(len(keys), 4)
    words = _uint32_words(ss.entropy)
    words += [0] * (4 - len(words)) + _uint32_words(prefix)
    # SeedSequence's pool hash constant after words: four calls per word
    hash_a = _SS_INIT_A * pow(_SS_MULT_A, 4 * len(words), 1 << 32) & _MASK32
    pool = np.random.SeedSequence(words).pool[:, None]
    for key in keys.astype(np.uint32).T:    # one word into each pool entry
        v, hash_a = _hashmix(key, hash_a, _SS_MULT_A, 4)
        pool = pool * np.uint32(_SS_MIX_L) - v * np.uint32(_SS_MIX_R)
        pool ^= pool >> 16
    # generate_state(4, np.uint64): eight words from the pool, in pairs
    out, _ = _hashmix(np.tile(pool, (2, 1)), _SS_INIT_B, _SS_MULT_B, 8)
    out = out.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = out[0::2] | out[1::2] << np.uint64(32)
    # inc = 2 * initseq + 1; state = (inc + initstate) * multiplier + inc
    inc_hi = inc_hi << np.uint64(1) | inc_lo >> np.uint64(63)
    inc_lo = inc_lo << np.uint64(1) | np.uint64(1)
    state = _add128(*_mul128(*_add128(inc_hi, inc_lo, seed_hi, seed_lo),
                             _PCG64_MULT), inc_hi, inc_lo)
    return np.stack((*state, inc_hi, inc_lo), axis=-1)


def _state_struct(bitgen):
    """The four uint64 words of a PCG64 bit generator's state and increment,
    as an array over its state struct, valid while bitgen lives: numpy's
    bitgen.ctypes.state_address points at a struct whose first field points
    at them."""
    words = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(words))


def _match_word_order(struct_words, state):
    """The column order that puts _stream_states' words (state high, state
    low, increment high, increment low) in the order of struct_words, the
    struct of a bit generator whose state is the dict state["state"]."""
    words = [w for name in ("state", "inc")
             for w in divmod(state["state"][name], 1 << 64)]
    for order in ((1, 0, 3, 2), (0, 1, 2, 3)):   # native 128-bit, or pairs
        if [words[k] for k in order] == list(struct_words):
            return order
    raise UnknownStateLayout(
        f"PCG64 state struct words {list(struct_words)} are no order of the "
        f"state dict's {words}")


@cache
def _word_order():
    """_match_word_order of the installed numpy's PCG64, probed once."""
    bitgen = np.random.PCG64(0)
    return _match_word_order(_state_struct(bitgen).tolist(), bitgen.state)


def _normal_rows(states, shape, dt, out=None):
    """Brownian increments over steps of length dt, of shape (rows, ...),
    written into out, any array or view of that shape, when it is given.
    Row j is, bitwise, the increments that _stream_noise draws from a PCG64
    stream in the state states[j] (see _stream_states), in row-major order.

    One bit generator serves the block: each row's words are written
    straight into its state struct. Rows are drawn _GROUP_ROWS at a time
    into one contiguous buffer, which is scaled into out, so that a
    step-major out is written a group of rows per step."""
    bitgen = np.random.PCG64(0)
    standard_normal = np.random.Generator(bitgen).standard_normal
    struct = _state_struct(bitgen)
    out = np.empty(shape) if out is None else out
    words = states[:, _word_order()]
    buf = np.empty((min(_GROUP_ROWS, len(out)),) + out.shape[1:])
    sq = np.sqrt(dt)
    for a in range(0, len(out), _GROUP_ROWS):
        group = buf[:len(out) - a]
        for row, word in zip(group, words[a:a + _GROUP_ROWS]):
            struct[:] = word
            standard_normal(out=row)
        # with steps first, numpy walks a step-major out a group of rows per
        # step; in the given order it walks one row per step
        np.multiply(group.swapaxes(0, 1), sq,
                    out=out[a:a + len(group)].swapaxes(0, 1))
    return out


def _brownian_rows(seed, prefix, first, shape, dt, out=None):
    """_normal_rows of the streams trajectory_rng(seed, prefix + (first + j,)),
    j < rows: the rows of out when it is given, else shape[0]."""
    rows = shape[0] if out is None else len(out)
    keys = np.arange(first, first + rows)[:, None]
    return _normal_rows(_stream_states(seed, tuple(prefix), keys), shape, dt,
                        out)


def _stream_noise(rng_stream, epsilon, grid, m):
    """(1, n, m) increments from rng_stream, or None when epsilon is not > 0."""
    if not epsilon > 0:
        return None
    if rng_stream is None:
        raise ValueError("epsilon > 0 requires an rng_stream")
    return rng_stream.standard_normal((1, grid.n_steps, m)) * np.sqrt(grid.dt)


def _check_start(s, grid):
    if s != grid.s:
        raise ValueError(f"start time {s} is not the grid's start {grid.s}")


def _start_point(coeffs, domain, x):
    """x as a float vector, which must have as many coordinates as the
    domain's and the coefficients' dimension."""
    x = np.atleast_1d(np.asarray(x, float))
    d = coeffs.dims[0]
    if x.shape != (domain.dimension,) or x.shape != (d,):
        raise ValueError(
            f"start {x.tolist()} has {x.size} coordinates; the domain has "
            f"{domain.dimension} and the coefficients {d}")
    return x


def _check_inside(domain, point, message, error=StartOutsideDomain):
    """Raise error(message) unless point (d,) lies in the closed domain, up
    to the domain's boundary tolerance."""
    if domain.signed_distance(point) < -domain.boundary_tol:
        raise error(message)


def _step(coeffs, domain, X, t, dt, dW, sq):
    """One projection Euler step of the states X (B, d) from time t, kicked
    by sigma dW scaled by sq = sqrt(epsilon) unless dW (B, m) is None.
    Returns the projected states, the budget increments dk (B,), zero at or
    below the noise floor, and the projection's corrections (B, d)."""
    drift = coeffs.b(t, X)
    prop = X + drift * dt
    if dW is not None:
        kick = np.einsum("...dm,...m->...d", coeffs.sigma(t, X), dW)
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
    x0: (B, d); noise: (B, n, m) or None; epsilon: a scalar, or one value
    per row, shape (B,), whose square root scales that row's kick.

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
    noisy = (eps > 0).any()
    sq = np.sqrt(eps)[:, None] if eps.ndim else np.sqrt(eps)
    X, K = np.array(x0, float), np.zeros(B)
    for reduce in reducers:
        reduce(0, X, K)
    for i in range(n):
        X, dk, corr = _step(coeffs, domain, X, grid.nodes[i], grid.dt,
                            noise[:, i] if noisy else None, sq)
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
    _check_start(s, grid)
    x0 = _start_point(coeffs, domain, x)[None, :]
    _check_inside(domain, x0[0], f"start {x0[0]} lies outside the domain")
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
                             n_paths, index_offset=0, key_prefix=()):
    """n_paths reflected trajectories with per-trajectory streams derived
    from (seed, key_prefix + trajectory index). Returns (x_paths, k_paths)
    arrays of shape (n_paths, n+1, d) and (n_paths, n+1).

    The noise block is step-major, (n, n_paths, m) in memory, so the kernel
    reads each step's increments contiguously."""
    _check_start(s, grid)
    d, m, _ = coeffs.dims
    x = _start_point(coeffs, domain, x)
    _check_inside(domain, x, f"start {x} lies outside the domain")
    x0 = np.broadcast_to(x, (n_paths, d)).copy()
    noise = (_brownian_rows(seed, key_prefix, index_offset, None, grid.dt,
                            out=np.empty((grid.n_steps, n_paths, m))
                            .swapaxes(0, 1))
             if epsilon > 0 else None)
    xp, kp, _ = _reflected_core(coeffs, domain, x0, epsilon, grid, noise)
    return xp, kp


def integrate_free_sde(coeffs, domain, s, x, epsilon, grid, rng_stream=None):
    """Plain Euler-Maruyama without projection (the boundary-free companion):
    the projection scheme with the identity as its projection."""
    _check_start(s, grid)
    x0 = _start_point(coeffs, domain, x)[None, :]
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
    _check_inside(domain, vals[0], "free path must start in the closed domain")
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
