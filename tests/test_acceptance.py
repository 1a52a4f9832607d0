"""Acceptance suite: ten criteria, one test each, at their stated tolerances.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so the run log doubles as the acceptance report.
"""

import numpy as np
import pytest

from reflectal import harness
from reflectal.action import (contracted_rate, evaluate_action,
                              minimize_action_endpoint)
from reflectal.backward import (apply_pi, limit_value_field, make_lattice,
                                solve_bsde_grid, solve_limit_bsde)
from reflectal.coefficients import PRESET_NAMES, audit_assumptions, preset
from reflectal.forward import (_BLOCK_PATHS, FreePath, TimeGrid,
                               integrate_reflected_sde,
                               integrate_skeleton_ode,
                               reflection_budget_identity,
                               simulate_reflected_batch, skorokhod_map,
                               trajectory_rng)
from reflectal.geometry import make_domain
from reflectal.harness import convergence_study, fit_loglog, tail_study

from oracles import sup_abs_tail

LADDER = (0.1, 0.05, 0.025, 0.0125)
N_PATHS = 10_000
GRID = TimeGrid(0.0, 1.0, 4096)
SEED = 2024


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def domain_for(co):
    d = co.dims[0]
    if d == 1:
        return unit_interval(), [0.5]
    return make_domain("ball", center=[0.0] * d, radius=1.0), [0.25] + [0.0] * (d - 1)


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def constant_drift_study():
    # one simulation per ladder level serves all four targets
    co = preset("constant-drift", params={"v": 1.0})
    targets = ("X4", "K4", "Kmoment", "Kexp")
    return dict(zip(targets, convergence_study(
        targets, co, unit_interval(), 0.0, [0.5], LADDER, N_PATHS, GRID,
        SEED)))


def test_criterion_01_x4_order(constant_drift_study):
    rep = constant_drift_study["X4"]
    # lower edge 0.8: proved bound E sup|X^eps - X^0|^4 = O(eps), less 0.2
    # upper edge 2.2: sqrt(eps) W through a Lipschitz Skorokhod map: 2, + 0.2
    ok = 0.8 <= rep.slope <= 2.2 and rep.r2 >= 0.98
    assert report(1, "X4 slope in [0.8, 2.2], r2 >= 0.98", ok,
                  f"slope={rep.slope:.4f}, r2={rep.r2:.4f}")


def test_criterion_02_k4_order(constant_drift_study):
    rep = constant_drift_study["K4"]
    # lower edge 0.8: proved bound E sup|K^eps - K^0|^4 = O(eps), less 0.2
    # upper edge 2.2: sup|K^eps - K^0| <= C sqrt(eps) sup|W|: order 2, + 0.2
    ok = 0.8 <= rep.slope <= 2.2
    assert report(2, "K4 slope in [0.8, 2.2]", ok,
                  f"slope={rep.slope:.4f}, r2={rep.r2:.4f}")


def test_criterion_03_y4_order():
    co = preset("linear-bsde", params={"lam": 1.0, "g0": 1.0})
    rep = convergence_study("Y4", co, unit_interval(), 0.0, [0.5], LADDER,
                            N_PATHS, GRID, SEED)
    monotone = all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    # lower edge 0.7: proved bound sup_t E|Y_t - psi_t|^4 = O(eps), less 0.3
    # upper edge 2.3: Y_T - psi_T = X^eps_T - 1/2, E(.)^4 -> 3 eps^2, + 0.3
    ok = monotone and 0.7 <= rep.slope <= 2.3
    assert report(3, "Y4 monotone ladder, slope in [0.7, 2.3]", ok,
                  f"slope={rep.slope:.4f}, monotone={monotone}, "
                  f"errors={[f'{e:.2e}' for e in rep.errors]}")


def test_criterion_04_uniform_moment_bounds(constant_drift_study):
    km = constant_drift_study["Kmoment"]
    ke = constant_drift_study["Kexp"]
    # a bound uniform in eps forbids growth as eps falls: no level may exceed
    # twice the estimate at the largest eps, the first level of the ladder
    fm = max(km.errors) / km.errors[0]
    fe = max(ke.errors) / ke.errors[0]
    ok = fm < 2.0 and fe < 2.0
    assert report(4, "Kmoment, Kexp below twice the largest-eps level", ok,
                  f"Kmoment factor={fm:.3f}, Kexp factor={fe:.3f}")


# Criterion 05 against the exact tail, written down before any run.
# - The exact case. Zero drift and unit noise from 1/2 on [0, 1]: the
#   skeleton rests at 1/2, and X - 1/2 = sqrt(eps) W until a wall is hit.
#   With delta < 1/2 the exceedance is decided before any wall, so
#   p(eps) = P(sup_{t<=1} |W_t| >= a), a = delta / sqrt(eps), which is
#   Feller's series (oracles.sup_abs_tail) at the study's own delta.
# - Node monitoring. The study sees the path at the 1024 grid nodes only,
#   so its hit probability p_n is at most p. Broadie, Glasserman & Kou
#   (1997) give p_n = P(sup |W| >= a + beta sqrt(dt)) + o(sqrt dt), with
#   beta = -zeta(1/2) / sqrt(2 pi) = 0.5826; the remainder is of order dt,
#   1e-3 against a first-order shift of 0.018. The allowance doubles the
#   shift: p_n lies in [P(sup |W| >= a + 2 beta sqrt(dt)), p].
# - The noise. delta comes from the pilot, whose streams the levels do not
#   share, so given delta each level's hit count is Binomial(4000, p_n),
#   independent across levels. With k = 4 a normal level falls outside by
#   chance with probability 6.3e-5, 2.5e-4 a run of four levels; at the
#   smallest p, about 0.1, the binomial's skewness of 0.04 moves its 4-se
#   tail by about 0.1 se, which keeps the rate below 1e-3 a run.
TAIL_K = 4.0
BGK_BETA = 0.5826


def test_criterion_05_tail_sandwich_upper_bound():
    co = preset("zero-drift-unit-noise")
    grid = TimeGrid(0.0, 1.0, 1024)
    rep = tail_study(co, unit_interval(), 0.0, [0.5], 0.2, LADDER, 4000,
                     grid, SEED)
    vals = [v for v in rep.eps_log_p if not np.isnan(v)]
    bounded = all(v >= rep.rate_bound - 0.05 for v in vals)
    a = rep.deltas[0] / np.sqrt(LADDER)
    p_exact = sup_abs_tail(a)
    p_low = sup_abs_tail(a + 2.0 * BGK_BETA * np.sqrt(grid.dt))
    p_hat, se = np.array(rep.p_hat), np.array(rep.se)
    exact = bool(rep.deltas[0] < 0.5
                 and np.all(p_hat >= p_low - TAIL_K * se)
                 and np.all(p_hat <= p_exact + TAIL_K * se))
    ok = exact and bounded and len(vals) == len(LADDER)
    assert report(5, "eps ln p >= -S* - 0.05, p within 4 se of Feller's "
                  "(node allowance)", ok,
                  f"eps_log_p={[f'{v:.4f}' for v in vals]}, "
                  f"-S*={rep.rate_bound:.4f}, delta={rep.deltas[0]:.4f}, "
                  f"delta_adjusted={rep.delta_adjusted}, z="
                  f"{[f'{v:+.2f}' for v in (p_hat - p_exact) / se]}")


def test_criterion_06_action_exactness():
    dom = unit_interval()
    co = preset("zero-drift-unit-noise")
    grid = TimeGrid(0.0, 1.0, 200)
    line = (0.25 + 0.5 * grid.nodes)[:, None]
    s_line = evaluate_action(co, dom, line, grid).action
    grid_min = TimeGrid(0.0, 1.0, 40)
    res, _ = minimize_action_endpoint(co, dom, 0.0, [0.5], [0.9], 1.0,
                                      grid_min)
    straight = (0.5 + 0.4 * grid_min.nodes)[:, None]
    path_gap = float(np.max(np.abs(res.psi - straight)))
    ok = (abs(s_line - 0.125) <= 1e-10
          and abs(res.action - 0.08) <= 0.01 * 0.08
          and path_gap <= 1e-3)
    assert report(6, "S(line)=0.125 (1e-10), S*=0.08 (1%), path (1e-3)", ok,
                  f"S(line)={s_line:.12f}, S*={res.action:.6f}, "
                  f"path_gap={path_gap:.2e}")


def test_criterion_07_zero_cost_skeleton_all_presets():
    times = TimeGrid(0.0, 1.0, 64)
    worst_s, worst_sp, audited = 0.0, 0.0, []
    for name in PRESET_NAMES:
        co = preset(name)
        dom, x = domain_for(co)
        if not audit_assumptions(co, dom, rng_seed=SEED).all_passed:
            continue
        audited.append(name)
        skel = integrate_skeleton_ode(co, dom, 0.0, x, times)
        worst_s = max(worst_s, evaluate_action(co, dom, skel).action)
        lat = make_lattice(dom, 17 if co.dims[0] > 1 else 33)
        field = limit_value_field(co, dom, times, lat)
        gamma = apply_pi(field, skel.x_path)
        out = contracted_rate(co, dom, field, gamma, 0.0, x)
        worst_sp = max(worst_sp, out["s_prime"])
    ok = bool(audited) and worst_s <= 1e-6 and worst_sp <= 1e-6
    assert report(7, "S(skeleton) and contracted rate <= 1e-6", ok,
                  f"max S={worst_s:.2e}, max S'={worst_sp:.2e}, "
                  f"presets={len(audited)}")


def test_criterion_08_structural_invariants(monkeypatch):
    grid = TimeGrid(0.0, 1.0, 128)
    failures = []
    for name in PRESET_NAMES:
        co = preset(name)
        dom, x = domain_for(co)
        xp, kp = simulate_reflected_batch(co, dom, 0.0, x, 0.05, grid,
                                          SEED, 64)
        if np.any(dom.signed_distance(xp) < -1e-15):
            failures.append(f"{name}: containment")
        dk = np.diff(kp, axis=1)
        if np.any(dk < 0) or np.any(kp[:, 0] != 0):
            failures.append(f"{name}: monotone K")
        grew = dk > 0
        if not np.all(dom.signed_distance(xp[:, 1:])[grew]
                      <= dom.boundary_tol):
            failures.append(f"{name}: K flat off boundary")
        # epsilon = 0 bitwise reduction
        a = integrate_reflected_sde(co, dom, 0.0, x, 0.0, grid)
        b = integrate_skeleton_ode(co, dom, 0.0, x, grid)
        if not (np.array_equal(a.x_path, b.x_path)
                and np.array_equal(a.k_path, b.k_path)):
            failures.append(f"{name}: eps=0 reduction")
        # Skorokhod round trip at 1e-12
        rng = trajectory_rng(SEED, 1)
        free_vals = np.cumsum(rng.standard_normal((129, co.dims[0])) * 0.05,
                              axis=0)
        free_vals += np.asarray(x) - free_vals[0]
        dec = skorokhod_map(dom, FreePath(grid=grid, values=free_vals))
        if np.max(np.abs(dec.psi - dec.rho - free_vals)) > 1e-12:
            failures.append(f"{name}: round trip")
        # terminal pin of the limit backward equation
        bp = solve_limit_bsde(co, b)
        if not np.array_equal(bp.y_path[-1], co.h(b.x_path[-1][None])[0]):
            failures.append(f"{name}: terminal pin")
    # seed determinism whatever the cut into kernel calls: the second run's
    # calls of 3 blocks end inside levels
    small = TimeGrid(0.0, 1.0, 128)
    study = ("X4", preset("constant-drift"), unit_interval(), 0.0, [0.5],
             LADDER, 1000, small, SEED)
    whole = convergence_study(*study)
    monkeypatch.setattr(harness, "_PASS_STEPS",
                        3 * _BLOCK_PATHS * small.n_steps)
    if convergence_study(*study).errors != whole.errors:
        failures.append("call-cut determinism")
    ok = not failures
    assert report(8, "structural invariants across presets", ok,
                  "all hold" if ok else "; ".join(failures))


def test_criterion_09_budget_residual_order():
    dom = unit_interval()
    co = preset("constant-drift", params={"v": 1.0})
    levels = (512, 1024, 2048, 4096)
    means = []
    for n in levels:
        g = TimeGrid(0.0, 1.0, n)
        vals = [reflection_budget_identity(
            co, dom, integrate_reflected_sde(co, dom, 0.0, [0.5], 0.05, g,
                                             trajectory_rng(SEED, j)))
            for j in range(16)]
        means.append(float(np.mean(vals)))
    fit = fit_loglog([1.0 / n for n in levels], means)
    ok = fit["slope"] >= 0.8
    assert report(9, "budget identity residual order >= 0.8", ok,
                  f"order={fit['slope']:.3f}, residuals="
                  f"{[f'{m:.2e}' for m in means]}")


def test_criterion_10_pi_uniform_convergence():
    dom = unit_interval()
    co = preset("linear-bsde", params={"lam": 1.0, "g0": 1.0})
    times = TimeGrid(0.0, 1.0, 64)
    lat = make_lattice(dom, 33)
    limit = limit_value_field(co, dom, times, lat)
    t = times.nodes
    family = []
    for j in range(20):
        a = 0.05 + 0.9 * (j / 19.0)
        amp = 0.5 * (0.3 + 0.7 * ((j * 7) % 20) / 19.0)
        p = 0.5 + (a - 0.5) * t + amp * np.sin(np.pi * t * (1 + j % 3))
        family.append(np.clip(p, 0.0, 1.0)[:, None])
    family = np.stack(family)
    pi_limit = np.stack([apply_pi(limit, p) for p in family])
    sups = []
    for ei, e in enumerate(LADDER):
        fe = solve_bsde_grid(co, dom, e, times, lat, 512, rng_seed=SEED + ei)
        pie = np.stack([apply_pi(fe, p) for p in family])
        sups.append(float(np.max(np.abs(pie - pi_limit))))
    ok = all(a > b for a, b in zip(sups, sups[1:]))
    assert report(10, "sup ||Pi^eps - Pi|| strictly decreasing", ok,
                  f"sups={[f'{s:.4f}' for s in sups]}")
