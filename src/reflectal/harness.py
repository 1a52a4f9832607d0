"""Monte Carlo experiments: small-noise convergence orders, uniform moment
bounds, and rare-event tail probabilities against the variational certificate.

All studies draw their noise from block streams keyed by (seed, key prefix,
block index) and run their kernel calls in order, so reports are bitwise
reproducible across reruns and whatever the cut into kernel calls. A
convergence study gives every ladder level the one prefix (), so path j
sees the same noise at every level and each block is drawn once; a tail
study keys level i by (i,) and its pilot by (levels, 0), so its levels stay
independent. Paths are reduced while the kernel steps them and are not
kept; each kernel call steps the noise-free skeleton as its row 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .action import OptimizerOptions, _minimize_endpoint
from .backward import (_hull_clipper, _interpolation_plan, _solve_ladder,
                       make_lattice, solve_limit_bsde)
from .errors import DegenerateFit, InsufficientPaths
from .forward import (_BLOCK_PATHS, TimeGrid, _block_noise, _blocks,
                      _check_count, _reflected_core, _start,
                      integrate_skeleton_ode)
from .geometry import _norm, project

__all__ = ["ConvergenceReport", "TailReport", "convergence_study",
           "tail_study", "fit_loglog", "TARGETS"]

TARGETS = ("X4", "K4", "Y4", "Kmoment", "Kexp")
_PASS_STEPS = 2048 * 4096   # path-steps of one study kernel call
_KMOMENT_POWER = 4      # Kmoment estimates E[(sup K)^4]
_KEXP_BETA = 1.0        # Kexp estimates E[exp(beta K_T)]
_MAX_REL_SE = 0.2       # largest relative standard error a level may report
_PILOT_PATHS = 1000     # tail pilot at the smallest epsilon
_OPT_STEPS = 64         # time steps of the tail certificate's optimizer grid
_MIN_PATHS = 1000       # paths per level of a convergence study


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
    slope_se: float | None   # the slope's standard error; None for Y4


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
    finite = np.isfinite(xs).all() and np.isfinite(ys).all()
    if not finite or np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("all points must be positive and finite")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0:
        raise DegenerateFit("all abscissae identical")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def _sweep(coeffs, domain, x, grid, seed, levels, sups, y4=None,
           y4_every=1):
    """Simulate the levels, each (eps, key prefix, n_paths), from the start
    x, and reduce every path while it is stepped; path j of a level is row
    j % G of the noise block (seed, prefix + (j // G,)), G = _BLOCK_PATHS,
    so levels that share a prefix share their noise. Kernel calls are packed
    by block position: call k takes block positions [a, a + w) of every
    level, w = max(1, _PASS_STEPS // (n G levels)), each level's last block
    cut to its paths, so a key that levels share is drawn in one call only,
    and once there (see _block_noise). A call's rows are level-major, each
    with its level's eps. Row 0 of every call is the skeleton: x stepped
    with eps = 0 and a zero noise row, which no stream draws, so it takes
    exactly the skeleton ODE's steps, and the reducers read the skeleton at
    node i from the same call as the paths.

    Returns per level a dict of arrays: "kT" holds K_T per path, which is
    also sup K, as K never falls, and each key of sups (see _DEVIATIONS) the
    sup over the nodes of that deviation per path; each call writes its
    rows of a level at the level's offset a G. "Y4" holds per field node j,
    the path node j * y4_every, the sums of y4(j, states, level positions
    of the rows), one value per row, and of its square,
    (2, n/y4_every + 1): each call adds its rows' sums per level, in call
    order.
    """
    d, m, _ = coeffs.dims
    n = grid.n_steps
    counts = [count for _, _, count in levels]
    span = _BLOCK_PATHS * max(1, _PASS_STEPS // (n * _BLOCK_PATHS
                                                 * len(levels)))
    level_eps = np.array([e for e, _, _ in levels], float)
    results = [{key: np.zeros(count) for key in ("kT", *sups)}
               for count in counts]
    y4_sums = np.zeros((len(levels), 2, n // y4_every + 1))

    for first in range(0, max(counts), span):
        # (level position, rows) of every level with paths from first on
        parts = [(li, min(count, first + span) - first)
                 for li, count in enumerate(counts) if count > first]
        level = np.repeat([li for li, _ in parts],
                          [rows for _, rows in parts])
        # the call's levels, ascending, and the row where each begins
        lis, firsts = np.unique(level, return_index=True)
        out = {key: np.zeros(level.size) for key in sups}

        def reduce(i, X, K):
            for key in sups:
                np.maximum(out[key], _DEVIATIONS[key](X, K), out=out[key])
            if y4 and i % y4_every == 0:
                dev = y4(i // y4_every, X[1:], level)
                y4_sums[lis, :, i // y4_every] += np.add.reduceat(
                    [dev, dev * dev], firsts, axis=1).T
        # row 0, the skeleton, has eps = 0 and noise that no stream draws
        x0 = np.broadcast_to(x, (level.size + 1, d))
        eps = np.concatenate(([0.0], level_eps[level]))
        keys = [(None, 1)] + [block for li, rows in parts
                              for block in _blocks(levels[li][1], rows, first)]
        noise = _block_noise(seed, keys, n, m, grid.dt)
        out["kT"] = _reflected_core(coeffs, domain, x0, eps, grid, noise,
                                    reducers=(reduce,))[1][1:]
        for (li, rows), row in zip(parts, firsts):
            for key, value in out.items():
                results[li][key][first:first + rows] = value[row:row + rows]
    return [{"Y4": y4_sums[li], **result} for li, result in enumerate(results)]


# deviation of rows 1.. from the skeleton, row 0, at a node, whose sup over
# the nodes _sweep keeps
_DEVIATIONS = {
    "dx": lambda X, K: _norm(X[1:] - X[0]),
    "dk": lambda X, K: np.abs(K[1:] - K[0]),
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
    if not np.all((eps > 0) & (eps < 1)):     # false for nan as well
        raise ValueError(f"epsilon ladder must lie in (0, 1), got "
                         f"{eps.tolist()}")
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

    Y4 is sup_t E|u^eps(t, X_t) - psi_t|^4 with the sup over the time nodes
    of the fields u^eps, min(n_steps, field_steps) steps on the path's
    horizon, which must divide the path's n_steps: at those nodes u^eps is
    one lattice slice, read in space only.

    Every level draws the same noise: path j of each level is row j % G of
    the block (rng_seed, (j // G,)), so the level means are coupled, as
    the levels of a multilevel estimator are (Giles 2008), and each block
    is drawn once per study. slope_se is the delta-method standard error of
    the slope: the OLS slope is sum_i w_i ln m_i, whose variance is
    w* C w with C_ij = Cov(stat_i, stat_j) / (N m_i m_j) over the shared
    paths, the sample variance of path j's sum_i w_i stat_ij / m_i over N.
    It is 0.0 for the bound targets, which fit no slope. Y4 keeps only
    per-node sums, and its sup over t takes each level's mean at its own
    node, so the cross-level covariance is not kept: its slope_se is None.
    """
    names = (target,) if isinstance(target, str) else tuple(target)
    if not names or len(set(names)) < len(names) or set(names) - set(TARGETS):
        raise ValueError(f"targets must be distinct names from {TARGETS}, "
                         f"got {target!r}")
    eps = _validate_ladder(eps_ladder)
    _check_count("n_paths", n_paths, _MIN_PATHS)

    x = _start(coeffs, domain, s, x, grid)
    y4, every = None, 1
    if "Y4" in names:
        _check_count("field_steps", field_steps, 1)
        skel = integrate_skeleton_ode(coeffs, domain, s, x, grid)
        psi = solve_limit_bsde(coeffs, skel).y_path      # (n+1, k)
        nt = min(grid.n_steps, field_steps)     # time steps of the fields
        if grid.n_steps % nt:
            raise ValueError(f"Y4 needs the field's {nt} time steps to "
                             f"divide the path's {grid.n_steps}")
        every = grid.n_steps // nt    # path steps per field step
        field_grid = TimeGrid(s=grid.s, T=grid.T, n_steps=nt)
        lattice = make_lattice(domain, field_nodes)
        cells = math.prod(ax.size for ax in lattice)
        clip = _hull_clipper(lattice)
        interpolate = _interpolation_plan(lattice)
        # every level's field, by time node: (nt+1, levels, *lattice, k),
        # level i solve_bsde_grid's at the seed rng_seed + 7919 (i + 1)
        fields = _solve_ladder(coeffs, domain, eps,
                               [rng_seed + 7919 * (ei + 1)
                                for ei in range(eps.size)],
                               field_grid, lattice, mc_per_node)

        def y4(j, X, level):  # |u^eps(t, X) - psi_t|^4 at field node j
            # read each row in its level's field slice j
            u = interpolate(fields[j], np.moveaxis(clip(X), -1, 0),
                            level * cells)
            return _norm(u - psi[j * every]) ** 4

    sups = {_STATS[name][0] for name in names if name != "Y4"} - {"kT"}
    results = _sweep(coeffs, domain, x, grid, rng_seed,
                     [(e, (), n_paths) for e in eps], sorted(sups), y4,
                     every)

    levels = {name: [] for name in names}     # (mean, se) per level
    samples = {name: [] for name in names if name != "Y4"}
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
                per_path = stat(level[key])
                samples[name].append(per_path)
                mean = float(per_path.mean())
                se = float(per_path.std(ddof=1) / np.sqrt(n_paths))
            levels[name].append((mean, se))
            if mean > 0 and se / mean > _MAX_REL_SE:
                raise InsufficientPaths(
                    f"{name}: relative standard error {se / mean:.2f} at "
                    f"eps={e} exceeds {_MAX_REL_SE}")

    lx = np.log(eps)
    weights = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
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
            slope_se = None
            if name != "Y4":
                # path j's linearized slope, sum_i w_i stat_ij / m_i
                lin = (weights / errs) @ np.array(samples[name])
                slope_se = float(lin.std(ddof=1) / np.sqrt(n_paths))
        else:
            slope, r2, slope_se = 0.0, 1.0, 0.0
            intercept = float(np.log(max(errs)))
        reports.append(ConvergenceReport(
            epsilons=tuple(float(v) for v in eps), errors=errs, slope=slope,
            intercept=intercept, r2=r2, n_paths=int(n_paths), target=name,
            ci_halfwidth=ses, slope_se=slope_se))
    return reports[0] if isinstance(target, str) else tuple(reports)


def _exceedance_certificate(coeffs, domain, s, x, delta, grid_opt):
    """S* = cheapest endpoint-pinned cost among targets at sup distance
    >= delta from the skeleton (an upper bound for the tail rate). The one
    skeleton serves every endpoint minimization's bent start."""
    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid_opt).x_path
    end = skel[-1]
    d = end.size
    best = np.inf
    for c in range(d):
        for sign in (-1.0, 1.0):
            target = end.copy()
            target[c] += sign * delta
            target = project(domain, target)
            if np.linalg.norm(target - end) < delta * (1 - 1e-9):
                continue  # projection pulled the target inside the tube
            res, _ = _minimize_endpoint(
                coeffs, domain, s, x, target, grid_opt.T, grid_opt,
                OptimizerOptions(max_iter=200), skel)
            best = min(best, res.action)
    return best


def tail_study(coeffs, domain, s, x, delta, eps_ladder, n_paths, grid,
               rng_seed):
    """Estimate P(sup_t |X^eps - skeleton| >= delta) along the ladder and
    compare eps ln p_hat against the variational certificate -S*."""
    eps = _validate_ladder(eps_ladder)
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta!r}")
    _check_count("n_paths", n_paths, 1)
    x = _start(coeffs, domain, s, x, grid)

    # The pilot at the smallest eps runs in the same pass as the levels:
    # sup |X - skeleton| does not depend on delta, which is decided after.
    pilot, *results = _sweep(
        coeffs, domain, x, grid, rng_seed,
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
