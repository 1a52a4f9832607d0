"""Monte Carlo experiments: small-noise convergence orders, uniform moment
bounds, and rare-event tail probabilities against the variational certificate.

All studies use per-trajectory streams keyed by (seed, ladder position,
trajectory index), batched over a worker pool with an index-ordered
reduction, so reports are bitwise reproducible regardless of worker count.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .action import OptimizerOptions, minimize_action_endpoint
from .backward import (apply_pi, make_lattice, solve_bsde_grid,
                       solve_limit_bsde)
from .errors import DegenerateFit, InsufficientPaths
from .forward import (TimeGrid, _norm, integrate_skeleton_ode,
                      simulate_reflected_batch)
from .geometry import project

__all__ = ["ConvergenceReport", "TailReport", "convergence_study",
           "tail_study", "fit_loglog", "TARGETS"]

TARGETS = ("X4", "K4", "Y4", "Kmoment", "Kexp")
_CHUNK = 2048
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


def _map_ordered(fn, items, workers):
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _per_path_stats(coeffs, domain, s, x, eps, grid, seed, key_prefix,
                    n_paths, stat_fn, workers):
    """stat_fn(x_paths, k_paths) of every chunk of paths, in index order."""
    def run(off):
        xp, kp = simulate_reflected_batch(
            coeffs, domain, s, x, eps, grid, seed, min(_CHUNK, n_paths - off),
            index_offset=off, key_prefix=key_prefix)
        return stat_fn(xp, kp)

    return _map_ordered(run, range(0, n_paths, _CHUNK), workers)


def _sup_deviation(xp, kp, skel):
    """sup_t |X - skeleton| per path: X4's statistic and the tail event's."""
    return _norm(xp - skel.x_path[None]).max(axis=1)


# per-path statistic of a batch (x_paths, k_paths) against the skeleton
_STATS = {
    "X4": lambda xp, kp, skel: _sup_deviation(xp, kp, skel) ** 4,
    "K4": lambda xp, kp, skel: np.abs(kp - skel.k_path[None]).max(axis=1) ** 4,
    "Kmoment": lambda xp, kp, skel: kp.max(axis=1) ** _KMOMENT_POWER,
    "Kexp": lambda xp, kp, skel: np.exp(_KEXP_BETA * kp[:, -1]),
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
                      grid, rng_seed, workers=1, field_steps=128,
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
    if "Y4" in names:
        psi = solve_limit_bsde(coeffs, skel).y_path      # (n+1, k)
        field_grid = TimeGrid(s=grid.s, T=grid.T,
                              n_steps=min(grid.n_steps, field_steps))
        lattice = make_lattice(domain, field_nodes)

    def stats(xp, kp, field):
        out = []
        for name in names:
            if name == "Y4":  # per-time sums of |u^eps(t, X_t) - psi_t|^4, ^8
                dev = _norm(apply_pi(field, xp, grid.nodes) - psi[None]) ** 4
                out.append((dev.sum(axis=0), (dev * dev).sum(axis=0)))
            else:
                out.append(_STATS[name](xp, kp, skel))
        return out

    levels = {name: [] for name in names}     # (mean, se) per level
    for ei, e in enumerate(eps):
        field = (solve_bsde_grid(coeffs, domain, e, field_grid, lattice,
                                 mc_per_node, rng_seed + 7919 * (ei + 1))
                 if "Y4" in names else None)
        parts = _per_path_stats(coeffs, domain, s, x, e, grid, rng_seed, (ei,),
                                n_paths, partial(stats, field=field), workers)
        for name, chunks in zip(names, zip(*parts)):
            if name == "Y4":
                total, squares = map(sum, zip(*chunks))
                worst = int(np.argmax(total))   # sup over t of the mean
                mean = float(total[worst] / n_paths)
                var = (squares[worst] - total[worst] * mean) / (n_paths - 1)
                se = float(np.sqrt(max(var, 0.0)) / np.sqrt(n_paths))
            else:
                samples = np.concatenate(chunks)
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
               rng_seed, workers=1):
    """Estimate P(sup_t |X^eps - skeleton| >= delta) along the ladder and
    compare eps ln p_hat against the variational certificate -S*."""
    eps = _validate_ladder(eps_ladder)
    skel = integrate_skeleton_ode(coeffs, domain, s, x, grid)
    stat = partial(_sup_deviation, skel=skel)

    # pre-flight pilot at the smallest eps; adjust delta if the event is
    # too rare or too common to estimate by crude Monte Carlo. The 0.90
    # quantile puts the exceedance probability at the top of the admissible
    # range [1e-4, 1e-1], where crude MC is cheapest and the small-noise
    # asymptotics of eps ln p are already monotone.
    adjusted = False
    sups = np.concatenate(_per_path_stats(
        coeffs, domain, s, x, float(eps[-1]), grid, rng_seed, (len(eps), 0),
        _PILOT_PATHS, stat, workers))
    p_pilot = float(np.mean(sups >= delta))
    if not (1e-4 <= p_pilot <= 1e-1):
        delta = float(np.quantile(sups, 0.90))
        adjusted = True

    p_hat, eps_log_p, zero_levels, ses = [], [], [], []
    for ei, e in enumerate(eps):
        sups = np.concatenate(_per_path_stats(
            coeffs, domain, s, x, float(e), grid, rng_seed, (ei,), n_paths,
            stat, workers))
        hits = int(np.sum(sups >= delta))
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
