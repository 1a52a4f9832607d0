"""Monte Carlo experiments: small-noise convergence orders, uniform moment
bounds, and rare-event tail probabilities against the variational certificate.

All studies use per-trajectory streams keyed by (seed, ladder position,
trajectory index) and run their kernel calls in order, so reports are
bitwise reproducible across reruns and whatever the cut into kernel calls.
Paths are reduced while the kernel steps them and are not kept.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .action import OptimizerOptions, minimize_action_endpoint
from .backward import (_PI_TOL, _multilinear, make_lattice, solve_bsde_grid,
                       solve_limit_bsde)
from .errors import DegenerateFit, InsufficientPaths, OutOfLattice
from .forward import (TimeGrid, _brownian_rows, _norm, _reflected_core,
                      integrate_skeleton_ode)
from .geometry import project

__all__ = ["ConvergenceReport", "TailReport", "convergence_study",
           "tail_study", "fit_loglog", "TARGETS"]

TARGETS = ("X4", "K4", "Y4", "Kmoment", "Kexp")
_PASS_STEPS = 2048 * 4096   # path-steps of one study kernel call
_KMOMENT_POWER = 4      # Kmoment estimates E[(sup K)^4]
_KEXP_BETA = 1.0        # Kexp estimates E[exp(beta K_T)]
_MAX_REL_SE = 0.2       # largest relative standard error a level may report
_PILOT_PATHS = 1000     # tail pilot at the smallest epsilon
_OPT_STEPS = 64         # time steps of the tail certificate's optimizer grid


@dataclass(frozen=True)
class ConvergenceReport:
    epsilons: tuple
    errors: tuple            # per-epsilon Monte Carlo estimate of the target
    slope: float             # log-log fit; 0.0 for the bound targets
    intercept: float
    r2: float
    n_paths: int
    target: str
    ci_halfwidth: tuple      # per-epsilon standard error


@dataclass(frozen=True)
class TailReport:
    epsilons: tuple
    deltas: tuple
    p_hat: tuple             # nan where no exceedance was observed
    eps_log_p: tuple
    rate_bound: float        # -S*, the variational upper-bound certificate
    n_paths: int
    zero_hit_levels: tuple
    delta_adjusted: bool
    se: tuple


def fit_loglog(xs, ys):
    """Ordinary least squares of ln y against ln x."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    if xs.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("all points must be positive")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0:
        raise DegenerateFit("all abscissae identical")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def _mapped(shape):
    """np.empty(shape) in an anonymous mapping of its own, which goes back to
    the system when the array is freed. From the malloc heap, a freed block
    stays resident when the next request is no larger, and the next study's
    larger block then adds to it."""
    size = math.prod(shape)
    buf = mmap.mmap(-1, 8 * max(size, 1))
    return np.frombuffer(buf, float, count=size).reshape(shape)


def _sweep(coeffs, domain, x, grid, seed, skel, levels, sups, y4=None):
    """Simulate the levels, each (eps, key prefix, n_paths), and reduce every
    path while it is stepped; path j of a level draws from the stream
    (seed, prefix + (j,)). The paths of all levels form one row sequence,
    cut into kernel calls of at most _PASS_STEPS path-steps, each row with
    its level's eps.

    Returns per level a dict of arrays: "kT" holds K_T per path, which is
    also sup K, as K never falls, and each key of sups (see _DEVIATIONS) the
    sup over the nodes of that deviation per path. "Y4" holds per node the
    sums of y4(node, states, level positions of the rows), one value per
    row, and of its square, (2, n+1): each call adds its rows' sums per
    level, in call order.
    """
    d, m, _ = coeffs.dims
    n = grid.n_steps
    starts = np.cumsum([0] + [count for _, _, count in levels]).tolist()
    step = max(1, _PASS_STEPS // n)
    # per row of the whole sequence; each call reduces into its own slice
    flat = {key: np.zeros(starts[-1]) for key in ("kT", *sups)}
    y4_sums = np.zeros((len(levels), 2, n + 1))

    def run(first):   # one call; its noise block is freed on return
        rows = min(step, starts[-1] - first)
        # per level in the call: its position and rows a:b
        cut = np.clip(np.subtract(starts, first), 0, rows).tolist()
        segs = [(li, a, b) for li, (a, b) in enumerate(zip(cut, cut[1:]))
                if a < b]
        noise = _mapped((rows, n, m))
        eps = np.empty(rows)
        for li, a, b in segs:
            e, prefix, _ = levels[li]
            _brownian_rows(seed, prefix, first + a - starts[li], None, grid.dt,
                           out=noise[a:b])
            eps[a:b] = e
        out = {key: value[first:first + rows] for key, value in flat.items()}
        lis, firsts, _ = zip(*segs)
        level = np.repeat(lis, [b - a for _, a, b in segs])

        def reduce(i, X, K):
            for key in sups:
                np.maximum(out[key], _DEVIATIONS[key](skel, i, X, K),
                           out=out[key])
            if y4:
                dev = y4(i, X, level)
                y4_sums[lis, :, i] += np.add.reduceat([dev, dev * dev],
                                                      firsts, axis=1).T
        x0 = np.broadcast_to(np.atleast_1d(np.asarray(x, float)), (rows, d))
        out["kT"][:] = _reflected_core(coeffs, domain, x0, eps, grid, noise,
                                       reducers=(reduce,))[1]

    for first in range(0, starts[-1], step):
        run(first)
    return [{"Y4": y4_sums[li], **{key: v[a:b] for key, v in flat.items()}}
            for li, (a, b) in enumerate(zip(starts, starts[1:]))]


# deviation from the skeleton at node i, whose sup over the nodes _sweep keeps
_DEVIATIONS = {
    "dx": lambda skel, i, X, K: _norm(X - skel.x_path[i]),
    "dk": lambda skel, i, X, K: np.abs(K - skel.k_path[i]),
}

# per-path statistic: the reduction of _sweep it reads and its transform
_STATS = {
    "X4": ("dx", lambda v: v ** 4),
    "K4": ("dk", lambda v: v ** 4),
    "Kmoment": ("kT", lambda v: v ** _KMOMENT_POWER),
    "Kexp": ("kT", lambda v: np.exp(_KEXP_BETA * v)),
}


def _validate_ladder(eps_ladder):
    eps = np.asarray(eps_ladder, float)
    if eps.ndim != 1 or eps.size < 4:
        raise ValueError("epsilon ladder needs at least 4 levels")
    if np.any(eps <= 0) or np.any(eps >= 1):
        raise ValueError("epsilon ladder must lie in (0, 1)")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilon ladder must be strictly decreasing")
    return eps


def convergence_study(target, coeffs, domain, s, x, eps_ladder, n_paths,
                      grid, rng_seed, field_steps=128,
                      field_nodes=33, mc_per_node=1024):
    """Estimate the target moment at every ladder level and fit its
    log-log slope (X4/K4/Y4) or report the per-level bound (Kmoment/Kexp).

    target is a name, which returns one report, or a tuple of names, which
    returns one report per name, in order, from one simulation per level.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    if not names or len(set(names)) < len(names) or set(names) - set(TARGETS):
        raise ValueError(f"targets must be distinct names from {TARGETS}, "
                         f"got {target!r}")
    eps = _validate_ladder(eps_ladder)
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000")

    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid)
    y4 = None
    if "Y4" in names:
        psi = solve_limit_bsde(coeffs, skel).y_path      # (n+1, k)
        nt = min(grid.n_steps, field_steps)     # time steps of the fields
        field_grid = TimeGrid(s=grid.s, T=grid.T, n_steps=nt)
        lattice = make_lattice(domain, field_nodes)
        shape = tuple(ax.size for ax in lattice)
        cells = math.prod(shape)
        # every level's field, stacked: (levels, nt+1, *shape, k)
        fields = np.empty((eps.size, nt + 1) + shape + psi.shape[1:])
        for ei, e in enumerate(eps):
            fields[ei] = solve_bsde_grid(coeffs, domain, e, field_grid,
                                         lattice, mc_per_node,
                                         rng_seed + 7919 * (ei + 1)).values
        lo, hi = np.array([ax[[0, -1]] for ax in lattice]).T

        def y4(i, X, level):  # |u^eps(t_i, X) - psi_i|^4, eps by row level
            if not (np.all(X >= lo - _PI_TOL) and np.all(X <= hi + _PI_TOL)):
                raise OutOfLattice("path leaves the lattice hull")
            # blend every level's two time slices around t_i with apply_pi's
            # weight, and read each row in its level's blend
            pos = (grid.nodes[i] - grid.s) * (nt / (grid.T - grid.s))
            c = min(int(pos), nt - 1)
            v = fields[:, c] + (pos - c) * (fields[:, c + 1] - fields[:, c])
            u = _multilinear(lattice, v,
                             np.moveaxis(np.minimum(np.maximum(X, lo), hi),
                                         -1, 0), level * cells)
            return _norm(u - psi[i]) ** 4

    sups = {_STATS[name][0] for name in names if name != "Y4"} - {"kT"}
    results = _sweep(coeffs, domain, x, grid, rng_seed, skel,
                     [(e, (ei,), n_paths) for ei, e in enumerate(eps)],
                     sorted(sups), y4)

    levels = {name: [] for name in names}     # (mean, se) per level
    for e, level in zip(eps, results):
        for name in names:
            if name == "Y4":
                total, squares = level["Y4"]
                worst = int(np.argmax(total))   # sup over t of the mean
                mean = float(total[worst] / n_paths)
                var = (squares[worst] - total[worst] * mean) / (n_paths - 1)
                se = float(np.sqrt(max(var, 0.0)) / np.sqrt(n_paths))
            else:
                key, stat = _STATS[name]
                samples = stat(level[key])
                mean = float(samples.mean())
                se = float(samples.std(ddof=1) / np.sqrt(n_paths))
            levels[name].append((mean, se))
            if mean > 0 and se / mean > _MAX_REL_SE:
                raise InsufficientPaths(
                    f"{name}: relative standard error {se / mean:.2f} at "
                    f"eps={e} exceeds {_MAX_REL_SE}")

    reports = []
    for name in names:
        errs, ses = zip(*levels[name])
        if name in ("X4", "K4", "Y4"):
            if min(errs) <= 0.0:
                raise InsufficientPaths(
                    "zero error estimate on the ladder (degenerate target, "
                    "e.g. no diffusion); a log-log slope cannot be fitted")
            fit = fit_loglog(eps, errs)
            slope, intercept, r2 = fit["slope"], fit["intercept"], fit["r2"]
        else:
            slope, r2 = 0.0, 1.0
            intercept = float(np.log(max(errs)))
        reports.append(ConvergenceReport(
            epsilons=tuple(float(v) for v in eps), errors=errs, slope=slope,
            intercept=intercept, r2=r2, n_paths=int(n_paths), target=name,
            ci_halfwidth=ses))
    return reports[0] if isinstance(target, str) else tuple(reports)


def _exceedance_certificate(coeffs, domain, s, x, delta, grid_opt):
    """S* = cheapest endpoint-pinned cost among targets at sup distance
    >= delta from the skeleton (an upper bound for the tail rate)."""
    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid_opt)
    end = skel.x_path[-1]
    d = end.size
    best = np.inf
    for c in range(d):
        for sign in (-1.0, 1.0):
            target = end.copy()
            target[c] += sign * delta
            target = project(domain, target)
            if np.linalg.norm(target - end) < delta * (1 - 1e-9):
                continue  # projection pulled the target inside the tube
            res, _ = minimize_action_endpoint(
                coeffs, domain, s, x, target, grid_opt.T, grid_opt,
                opts=OptimizerOptions(max_iter=200))
            best = min(best, res.action)
    return best


def tail_study(coeffs, domain, s, x, delta, eps_ladder, n_paths, grid,
               rng_seed):
    """Estimate P(sup_t |X^eps - skeleton| >= delta) along the ladder and
    compare eps ln p_hat against the variational certificate -S*."""
    eps = _validate_ladder(eps_ladder)
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid)

    # The pilot at the smallest eps runs in the same pass as the levels:
    # sup |X - skeleton| does not depend on delta, which is decided after.
    pilot, *results = _sweep(
        coeffs, domain, x, grid, rng_seed, skel,
        [(float(eps[-1]), (len(eps), 0), _PILOT_PATHS)]
        + [(float(e), (ei,), n_paths) for ei, e in enumerate(eps)],
        ("dx",))

    # Adjust delta if the event is too rare or too common to estimate by
    # crude Monte Carlo. The 0.90 quantile puts the exceedance probability
    # at the top of the admissible range [1e-4, 1e-1], where crude MC is
    # cheapest and the small-noise asymptotics of eps ln p are already
    # monotone.
    adjusted = False
    p_pilot = float(np.mean(pilot["dx"] >= delta))
    if not (1e-4 <= p_pilot <= 1e-1):
        delta = float(np.quantile(pilot["dx"], 0.90))
        adjusted = True

    p_hat, eps_log_p, zero_levels, ses = [], [], [], []
    for e, level in zip(eps, results):
        hits = int(np.sum(level["dx"] >= delta))
        if hits == 0:
            zero_levels.append(float(e))
            p_hat.append(float("nan"))
            eps_log_p.append(float("nan"))
            ses.append(float("nan"))
            continue
        p = hits / n_paths
        p_hat.append(p)
        eps_log_p.append(float(e * np.log(p)))
        ses.append(float(np.sqrt(p * (1 - p) / n_paths)))

    grid_opt = TimeGrid(s=s, T=grid.T, n_steps=_OPT_STEPS)
    s_star = _exceedance_certificate(coeffs, domain, s, x, delta, grid_opt)
    return TailReport(
        epsilons=tuple(float(v) for v in eps),
        deltas=tuple(float(delta) for _ in eps),
        p_hat=tuple(p_hat), eps_log_p=tuple(eps_log_p),
        rate_bound=float(-s_star), n_paths=int(n_paths),
        zero_hit_levels=tuple(zero_levels), delta_adjusted=adjusted,
        se=tuple(ses))
