"""Convergence studies, tail studies, and the log-log fitter."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reflectal import action, backward, forward, harness
from reflectal.action import OptimizerOptions, minimize_action_endpoint
from reflectal.backward import (apply_pi, limit_value_field, make_lattice,
                                solve_bsde_grid, solve_limit_bsde)
from reflectal.coefficients import CoefficientSet, preset
from reflectal.errors import (DegenerateFit, InsufficientPaths, OutOfLattice,
                              StartOutsideDomain)
from reflectal.forward import (_BLOCK_PATHS, TimeGrid, _reflected_core,
                               integrate_skeleton_ode,
                               simulate_reflected_batch, trajectory_rng)
from reflectal.geometry import make_domain, project
from reflectal.harness import (TARGETS, ConvergenceReport,
                               convergence_study, fit_loglog, tail_study)

from oracles import reflected_quartic, sup_abs_tail
from streams import prefix_paths

LADDER = (0.1, 0.05, 0.025, 0.0125)


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


class TestFitLoglog:
    def test_identity(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        fit = fit_loglog(xs, xs)
        assert fit["slope"] == pytest.approx(1.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(0.0, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_with_constant(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        c = 3.7
        fit = fit_loglog(xs, c * xs ** 2)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(np.log(c), abs=1e-12)

    def test_noisy_line_matches_closed_form_ols(self):
        rng = np.random.default_rng(77)
        xs = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        ys = xs * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = fit_loglog(xs, ys)
        assert 0.95 <= fit["slope"] <= 1.05
        # independent oracle: closed-form OLS on the same sample
        lx, ly = np.log(xs), np.log(ys)
        sl = (np.sum((lx - lx.mean()) * (ly - ly.mean()))
              / np.sum((lx - lx.mean()) ** 2))
        assert fit["slope"] == pytest.approx(sl, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
        for xs, ys in (([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
                       ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
                       ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
                       ([1.0, 2.0, 3.0], [1.0, 2.0, np.inf])):
            with pytest.raises(ValueError, match="finite"):
                fit_loglog(xs, ys)
        with pytest.raises(DegenerateFit):
            fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestConvergenceStudy:
    def _study(self, target, n_paths=1000, seed=7, ladder=LADDER,
               n_steps=256, preset_name="constant-drift", params=None):
        co = preset(preset_name, params or {})
        return convergence_study(
            target, co, unit_interval(), 0.0, [0.5], ladder, n_paths,
            TimeGrid(0.0, 1.0, n_steps), seed,
            field_steps=32, field_nodes=17, mc_per_node=256)

    def test_x4_slope_fits(self):
        rep = self._study("X4")
        assert np.isfinite(rep.slope)
        assert rep.r2 > 0.9
        assert all(e > 0 for e in rep.errors)
        assert rep.epsilons == LADDER

    def test_bound_targets_report_no_slope(self):
        rep = self._study("Kexp")
        assert rep.slope == 0.0
        assert rep.intercept == pytest.approx(np.log(max(rep.errors)))

    def test_seed_determinism_and_call_cut_independence(self, monkeypatch):
        a = self._study("X4")
        c = self._study("X4")
        assert a.errors == c.errors
        # calls of one block position of every level
        monkeypatch.setattr(harness, "_PASS_STEPS", 3 * _BLOCK_PATHS * 256)
        b = self._study("X4")
        assert a.errors == b.errors
        assert a.slope == b.slope

    def test_monotone_information(self):
        # appending a smaller epsilon leaves existing estimates untouched
        short = self._study("X4", ladder=LADDER)
        longer = self._study("X4", ladder=LADDER + (0.00625,))
        assert longer.errors[:4] == short.errors

    def test_slope_stability_under_more_paths(self):
        a = self._study("K4", n_paths=1000)
        b = self._study("K4", n_paths=2000)
        # propagate per-point relative standard errors through the OLS fit
        lx = np.log(np.asarray(LADDER))
        w = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        var = sum(
            np.sum(w ** 2 * (np.asarray(r.ci_halfwidth)
                             / np.asarray(r.errors)) ** 2)
            for r in (a, b))
        assert abs(a.slope - b.slope) <= 3.0 * np.sqrt(var)

    def test_zero_diffusion_rejected(self):
        co = CoefficientSet(
            b=lambda t, x: np.ones_like(np.asarray(x, float)),
            sigma=lambda t, x: np.zeros(np.asarray(x, float).shape[:-1]
                                        + (1, 1)),
            f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
            g=lambda t, x, y: np.zeros_like(np.asarray(y, float)),
            h=lambda x: np.asarray(x, float).copy(),
            dims=(1, 1, 1), T=1.0, name="no-noise")
        with pytest.raises(InsufficientPaths):
            convergence_study("X4", co, unit_interval(), 0.0, [0.5], LADDER,
                              1000, TimeGrid(0.0, 1.0, 64), 1)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            self._study("X4", ladder=(0.1, 0.05, 0.025))  # too short
        with pytest.raises(ValueError):
            self._study("X4", ladder=(0.0125, 0.025, 0.05, 0.1))  # increasing
        with pytest.raises(ValueError):
            self._study("X4", n_paths=100)
        with pytest.raises(ValueError):
            self._study("nope")

    @pytest.mark.parametrize("ladder", [
        (0.1, float("nan"), 0.05, 0.01), (float("nan"),) * 4,
        (0.1, 0.05, 0.025, float("nan"))])
    def test_non_finite_level_rejected(self, ladder):
        # every comparison with nan is false, so a nan level slips through
        # any test that asks for a failed comparison
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            self._study("X4", ladder=ladder)
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                       [0.5], 0.3, ladder, 200, TimeGrid(0.0, 1.0, 16), 3)


class TestOnePassPerLevel:
    ORDER = ("Kexp", "Y4", "X4", "Kmoment", "K4")
    GRID = TimeGrid(0.0, 1.0, 256)
    SEED = 7

    def _study(self, target, grid=GRID, name="linear-bsde", params=None):
        co = preset(name, params or {"lam": 1.0, "g0": 1.0})
        return convergence_study(
            target, co, unit_interval(), 0.0, [0.5], LADDER, 1000, grid,
            self.SEED, field_steps=32, field_nodes=17, mc_per_node=256)

    def test_tuple_call_equals_single_target_calls(self, monkeypatch):
        # drift into the boundary, where g charges dK: every target estimable
        co = {"name": "boundary-g-constant", "params": {"v": 1.0, "g0": 1.0}}
        # calls of 3 and of 5 block positions of every level: the last
        # call takes each level's cut last block
        for blocks in (3, 5):
            monkeypatch.setattr(harness, "_PASS_STEPS",
                                blocks * len(LADDER) * _BLOCK_PATHS
                                * self.GRID.n_steps)
            singles = tuple(self._study(t, **co) for t in self.ORDER)
            assert all(isinstance(r, ConvergenceReport) for r in singles)
            assert [r.target for r in singles] == list(self.ORDER)
            assert self._study(self.ORDER, **co) == singles

    def _y4_samples(self):
        """Per level, |u^eps(t_i, X_i) - psi_i|^4 per path and field time
        node of the default Y4 study, from stored paths read with apply_pi
        at every 8th path node."""
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        dom = unit_interval()
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], self.GRID)
        psi = solve_limit_bsde(co, skel).y_path
        lattice = make_lattice(dom, 17)
        for ei, e in enumerate(LADDER):
            field = solve_bsde_grid(co, dom, e, TimeGrid(0.0, 1.0, 32),
                                    lattice, 256, self.SEED + 7919 * (ei + 1))
            # every level draws the study's one set of blocks
            xp, _ = prefix_paths(co, dom, [0.5], e, self.GRID, self.SEED,
                                 1000)
            y = apply_pi(field, xp[:, ::8])
            yield np.linalg.norm(y - psi[None, ::8], axis=-1) ** 4

    def test_y4_matches_per_path_oracle(self, monkeypatch):
        monkeypatch.setattr(harness, "_PASS_STEPS", 256 * self.GRID.n_steps)
        rep = self._study("Y4")
        means = []
        for ei, samples in enumerate(self._y4_samples()):
            means_t = samples.mean(axis=0)
            worst = int(np.argmax(means_t))
            se = samples[:, worst].std(ddof=1) / np.sqrt(1000)
            assert rep.errors[ei] == pytest.approx(means_t[worst], rel=1e-12)
            assert rep.ci_halfwidth[ei] == pytest.approx(se, rel=1e-12)
            means.append(means_t[worst])
        assert rep.slope == pytest.approx(fit_loglog(LADDER, means)["slope"],
                                          rel=1e-10)

    def test_y4_sums_match_per_path_oracle_at_every_node(self, monkeypatch):
        # The report keeps one node, the sup over t of the mean, and here it
        # falls at T, where every level's field is h: only the sums at the
        # other nodes can see a row read in the wrong level's field. Y4 is
        # summed at the field's 33 time nodes, every 8th path node
        monkeypatch.setattr(harness, "_PASS_STEPS", 256 * self.GRID.n_steps)
        sweep, sweeps = harness._sweep, []

        def spy(*args, **kwargs):
            sweeps.append(sweep(*args, **kwargs))
            return sweeps[-1]
        monkeypatch.setattr(harness, "_sweep", spy)
        self._study("Y4")
        (levels,) = sweeps
        for level, samples in zip(levels, self._y4_samples(), strict=True):
            np.testing.assert_allclose(
                level["Y4"], [samples.sum(axis=0), (samples ** 2).sum(axis=0)],
                rtol=1e-12, atol=0)

    def test_y4_on_the_disc_matches_per_path_oracle(self, monkeypatch):
        # a 2-D lattice read with per-row level offsets, in calls of 5
        # block positions of every level, the second of which takes each
        # level's cut last block. The outward drift and
        # g = 1 put the sup over t before T: at T every level's field is h,
        # so a read of the wrong level's field would go unseen there
        grid = TimeGrid(0.0, 1.0, 64)
        monkeypatch.setattr(harness, "_PASS_STEPS",
                            5 * len(LADDER) * _BLOCK_PATHS * grid.n_steps)
        co = replace(preset("ou-in-ball", {"theta": -1.0}),
                     g=lambda t, x, y: np.ones_like(np.asarray(y, float)))
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        x = [0.6, 0.0]
        rep = convergence_study("Y4", co, dom, 0.0, x, LADDER, 1000, grid,
                                self.SEED, field_steps=16, field_nodes=9,
                                mc_per_node=64)
        psi = solve_limit_bsde(
            co, integrate_skeleton_ode(co, dom, 0.0, x, grid)).y_path
        lattice = make_lattice(dom, 9)
        for ei, e in enumerate(LADDER):
            field = solve_bsde_grid(co, dom, e, TimeGrid(0.0, 1.0, 16),
                                    lattice, 64, self.SEED + 7919 * (ei + 1))
            xp, _ = prefix_paths(co, dom, x, e, grid, self.SEED, 1000)
            # Y4 reads the field's 17 time nodes, every 4th path node
            y = apply_pi(field, xp[:, ::4])
            samples = np.linalg.norm(y - psi[None, ::4], axis=-1) ** 4
            means_t = samples.mean(axis=0)
            worst = int(np.argmax(means_t))
            se = samples[:, worst].std(ddof=1) / np.sqrt(1000)
            assert worst < 16
            assert rep.errors[ei] == pytest.approx(means_t[worst], rel=1e-12)
            assert rep.ci_halfwidth[ei] == pytest.approx(se, rel=1e-12)

    def test_y4_study_keeps_no_path(self):
        # Y4 reads the fields at every node while the kernel steps: its peak
        # stays below one stored chunk of x paths, 2048 x 1025 doubles
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        tracemalloc.start()
        try:
            convergence_study("Y4", co, unit_interval(), 0.0, [0.5], LADDER,
                              2000, TimeGrid(0.0, 1.0, 1024), self.SEED,
                              field_steps=16, field_nodes=9, mc_per_node=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 1025 * 8

    def test_y4_makes_one_lattice_call(self, monkeypatch):
        # the fields of all levels come from one ladder solve, stepped in
        # one lattice pass, with level i at the seed SEED + 7919 (i + 1)
        calls, passes = [], []
        solve, lattice_pass = harness._solve_ladder, backward._lattice_pass

        def spy_solve(co, dom, eps, seeds, *rest):
            calls.append((tuple(eps), tuple(seeds)))
            return solve(co, dom, eps, seeds, *rest)

        def spy_pass(co, dom, eps, *rest):
            passes.append(len(eps))
            return lattice_pass(co, dom, eps, *rest)

        monkeypatch.setattr(harness, "_solve_ladder", spy_solve)
        monkeypatch.setattr(backward, "_lattice_pass", spy_pass)
        convergence_study("Y4", preset("linear-bsde", {"lam": 1.0, "g0": 1.0}),
                          unit_interval(), 0.0, [0.5], LADDER, 1000,
                          TimeGrid(0.0, 1.0, 64), self.SEED, field_steps=16,
                          field_nodes=9, mc_per_node=64)
        assert calls == [(LADDER, tuple(self.SEED + 7919 * (i + 1)
                                        for i in range(len(LADDER))))]
        assert passes == [len(LADDER)]

    def test_y4_builds_one_plan_per_study(self, monkeypatch):
        # the study reads every field node through one interpolation plan,
        # and the lattice's one pass builds one of its own
        built = {harness: [], backward: []}
        for module, axes in built.items():
            def spy(lattice, _plan=module._interpolation_plan, _axes=axes):
                _axes.append(lattice)
                return _plan(lattice)
            monkeypatch.setattr(module, "_interpolation_plan", spy)
        convergence_study("Y4", preset("linear-bsde", {"lam": 1.0, "g0": 1.0}),
                          unit_interval(), 0.0, [0.5], LADDER, 1000,
                          TimeGrid(0.0, 1.0, 64), self.SEED, field_steps=16,
                          field_nodes=9, mc_per_node=64)
        lattice = [make_lattice(unit_interval(), 9)[0].tolist()]
        for axes in built.values():
            assert [[ax.tolist() for ax in a] for a in axes] == [lattice]

    @pytest.mark.parametrize("target", [(), ("X4", "nope"), ("K4", "X4", "K4")])
    def test_bad_target_tuples_rejected(self, target):
        with pytest.raises(ValueError):
            self._study(target)

    def test_y4_grid_must_end_at_horizon(self):
        half = TimeGrid(0.0, 0.5, 128)
        with pytest.raises(ValueError, match="ends at 0.5"):
            self._study("Y4", grid=half)
        rep = self._study("Y4", grid=half,
                          params={"lam": 1.0, "g0": 1.0, "T": 0.5})
        assert all(e > 0 for e in rep.errors)

    def test_y4_field_steps_must_divide_path_steps(self):
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        for nt in (3, 24, 255):
            with pytest.raises(ValueError, match=f"field's {nt} time steps"):
                convergence_study("Y4", co, unit_interval(), 0.0, [0.5],
                                  LADDER, 1000, self.GRID, self.SEED,
                                  field_steps=nt, field_nodes=5,
                                  mc_per_node=64)
        # more field steps than path steps: the field takes the path's 16
        # steps, and the other targets ignore field_steps
        rep = convergence_study(("X4", "Y4"), co, unit_interval(), 0.0,
                                [0.5], LADDER, 1000, TimeGrid(0.0, 1.0, 16),
                                self.SEED, field_steps=24, field_nodes=5,
                                mc_per_node=64)
        assert [r.target for r in rep] == ["X4", "Y4"]
        convergence_study("X4", co, unit_interval(), 0.0, [0.5], LADDER,
                          1000, self.GRID, self.SEED, field_steps=3)

    @pytest.mark.parametrize("nt", [0, -4])
    def test_y4_field_steps_must_be_positive(self, nt):
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        with pytest.raises(ValueError, match="field_steps must be >= 1"):
            convergence_study("Y4", co, unit_interval(), 0.0, [0.5], LADDER,
                              1000, self.GRID, self.SEED, field_steps=nt,
                              field_nodes=5, mc_per_node=64)


class TestExactY4Ladder:
    """Criterion 03's setup (linear-bsde, lambda = g0 = 1, from 1/2 on
    [0, 1], its ladder) against the exact E|Y_T - psi_T|^4 of
    oracles.reflected_quartic, at a Tier-1 size: 2,000 paths of 1,024
    steps, and a field of 4 time steps. Written down before any run:

    - What the report is. u^eps(T, .) = h(x) = x and psi_T = 1/2, so at
      t = T the study's sample is (X_T - 1/2)^4, read exactly from the
      linear lattice slice. With 4 field steps the other nodes are
      t <= 3/4, where E|Y_t - psi_t|^4 is about (3/4)^2 of its value at T
      (3 eps^2 t^2 for small eps) and lies tens of standard errors lower.
      So the sup over the field's nodes is taken at T; the test checks it
      against the sums at the last node, and no allowance for the sup's
      selection is needed.
    - The scheme's bias. The paths are projection Euler, not reflected
      Brownian motion. They agree on a path that never reaches a wall. A
      path reaches one with probability p_hit = P(sup |W| >=
      1/(2 sqrt eps)) (Feller, oracles.sup_abs_tail), and there the mean
      gap between the continuous and the grid-monitored regulator is
      beta sqrt(eps dt), beta = -zeta(1/2) / sqrt(2 pi) = 0.5826
      (Asmussen, Glynn & Pitman 1995), once per wall: at most twice that.
      |f'| <= 1/2 on [0, 1] for f(y) = (y - 1/2)^4. So the bias is at most
      b = 1/2 p_hit 2 beta sqrt(eps / 1024): 1.3e-3, 2.1e-4, 9.0e-6 and
      3.2e-8 down the ladder.
    - The noise. The four levels draw independent streams; each sample
      mean of 2,000 values is taken as normal with the report's standard
      error se. k = 4 gives P(|Z| > 4) = 6.3e-5 a level, below 2.6e-4 a run.

    Every level must lie within k se + b of the exact value."""

    N_PATHS = 2000
    GRID = TimeGrid(0.0, 1.0, 1024)
    SEED = 2024
    K = 4.0
    BETA = 0.5826

    def test_every_level_within_k_se_of_exact(self, monkeypatch):
        sweep, sweeps = harness._sweep, []

        def spy(*args, **kwargs):
            sweeps.append(sweep(*args, **kwargs))
            return sweeps[-1]
        monkeypatch.setattr(harness, "_sweep", spy)
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        rep = convergence_study("Y4", co, unit_interval(), 0.0, [0.5], LADDER,
                                self.N_PATHS, self.GRID, self.SEED,
                                field_steps=4, field_nodes=9, mc_per_node=64)
        (levels,) = sweeps
        for e, est, se, level in zip(LADDER, rep.errors, rep.ci_halfwidth,
                                     levels, strict=True):
            assert level["Y4"].shape == (2, 5)
            assert est == level["Y4"][0, -1] / self.N_PATHS   # the sup is at T
            p_hit = float(sup_abs_tail(0.5 / np.sqrt(e)))
            bias = p_hit * self.BETA * np.sqrt(e * self.GRID.dt)
            exact = reflected_quartic(e)
            assert abs(est - exact) <= self.K * se + bias, (e, est, exact, se)


class TestTailStudy:
    def _tail(self, delta, n_paths=2000, seed=5):
        co = preset("zero-drift-unit-noise")
        return tail_study(co, unit_interval(), 0.0, [0.5], delta, LADDER,
                          n_paths, TimeGrid(0.0, 1.0, 256), seed)

    def test_basic_shape_and_signs(self):
        rep = self._tail(0.2)
        assert rep.rate_bound <= 0.0
        for p, elp in zip(rep.p_hat, rep.eps_log_p):
            if not np.isnan(p):
                assert 0.0 < p <= 1.0
                assert elp <= 0.0

    def test_impossible_event_reports_zero_hits(self):
        # delta above the domain diameter cannot be exceeded; the pilot
        # adjustment then falls back to an estimable quantile threshold
        rep = self._tail(5.0)
        assert rep.delta_adjusted
        assert all(d < 1.0 for d in rep.deltas)

    def test_mc_consistency_across_seeds(self):
        # delta chosen so the pilot leaves it alone: both runs then estimate
        # the same event and must agree within Monte Carlo error
        a = self._tail(0.32, n_paths=2000, seed=5)
        b = self._tail(0.32, n_paths=4000, seed=6)
        assert not (a.delta_adjusted or b.delta_adjusted)
        for pa, sa, pb, sb in zip(a.p_hat, a.se, b.p_hat, b.se):
            assert abs(pa - pb) <= 3.0 * np.hypot(sa, sb)

    def test_call_cut_independence(self, monkeypatch):
        a = self._tail(0.2)
        # calls of one block position of the pilot and of every level
        monkeypatch.setattr(harness, "_PASS_STEPS", 3 * _BLOCK_PATHS * 256)
        b = self._tail(0.2)
        assert a.p_hat == b.p_hat
        assert a.eps_log_p == b.eps_log_p
        assert a.deltas == b.deltas


def old_certificate(coeffs, domain, s, x, delta, grid_opt):
    """The exceedance certificate through the public endpoint minimizer,
    which integrates the skeleton once more for each target."""
    end = integrate_skeleton_ode(coeffs, domain, s, x, grid_opt).x_path[-1]
    best = np.inf
    for c in range(end.size):
        for sign in (-1.0, 1.0):
            target = end.copy()
            target[c] += sign * delta
            target = project(domain, target)
            if np.linalg.norm(target - end) < delta * (1 - 1e-9):
                continue
            res, _ = minimize_action_endpoint(
                coeffs, domain, s, x, target, grid_opt.T, grid_opt,
                opts=OptimizerOptions(max_iter=200))
            best = min(best, res.action)
    return best


class TestOneSkeletonPerCertificate:
    """The tail certificate integrates its skeleton once and hands it to
    every endpoint minimization, with the report's bits unchanged."""

    @pytest.mark.parametrize("case", ["interval", "disc"])
    def test_one_integration_and_same_report(self, case, monkeypatch):
        if case == "interval":
            co, x = preset("constant-drift", {"v": 1.0}), [0.5]
            dom = unit_interval()
        else:
            co, x = preset("ou-in-ball", {"theta": 1.0}), [0.25, 0.0]
            dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        args = (co, dom, 0.0, x, 0.3, LADDER, 200, TimeGrid(0.0, 1.0, 16), 5)
        grids = []
        for module in (harness, action):
            def spy(coeffs, domain, s, x, grid,
                    _real=module.integrate_skeleton_ode):
                grids.append(grid)
                return _real(coeffs, domain, s, x, grid)
            monkeypatch.setattr(module, "integrate_skeleton_ode", spy)
        report = tail_study(*args)
        assert np.isfinite(report.rate_bound)
        assert grids == [TimeGrid(0.0, 1.0, harness._OPT_STEPS)]
        monkeypatch.undo()
        monkeypatch.setattr(harness, "_exceedance_certificate",
                            old_certificate)
        assert repr(tail_study(*args)) == repr(report)


def test_tail_study_start_must_be_grid_start():
    # p_hat runs on the grid and -S* from s, so they must share one horizon
    co = preset("zero-drift-unit-noise")
    grid = TimeGrid(0.0, 1.0, 16)
    with pytest.raises(ValueError, match="grid's start"):
        tail_study(co, unit_interval(), 0.7, [0.5], 0.3, LADDER, 200, grid, 3)
    report = tail_study(co, unit_interval(), 0.0, [0.5], 0.3, LADDER, 200,
                        grid, 3)
    assert report.rate_bound < 0


def test_convergence_study_start_must_be_grid_start():
    with pytest.raises(ValueError, match="grid's start"):
        convergence_study("X4", preset("constant-drift"), unit_interval(),
                          0.5, [0.5], LADDER, 1000, TimeGrid(0.0, 1.0, 16), 3)


@pytest.mark.parametrize("study", [
    lambda x: convergence_study("X4", preset("constant-drift"),
                                unit_interval(), 0.0, x, LADDER, 1000,
                                TimeGrid(0.0, 1.0, 16), 3),
    lambda x: tail_study(preset("zero-drift-unit-noise"), unit_interval(),
                         0.0, x, 0.3, LADDER, 200, TimeGrid(0.0, 1.0, 16), 3),
])
def test_study_start_outside_domain_raises(study):
    # a start outside would be projected at the first step and booked in K
    with pytest.raises(StartOutsideDomain):
        study([4.0])


def test_two_dimensional_ladder_rejected():
    with pytest.raises(ValueError, match="epsilon ladder"):
        convergence_study("X4", preset("constant-drift"), unit_interval(),
                          0.0, [0.5], [[0.1, 0.05], [0.025, 0.0125]], 1000,
                          TimeGrid(0.0, 1.0, 16), 3)


class TestSkeletonRidesInTheSweep:
    """Every kernel call of a study steps the skeleton as its row 0, so the
    studies integrate no separate skeleton on the study grid: only Y4, whose
    psi needs the whole skeleton before the sweep, integrates one."""

    GRID = TimeGrid(0.0, 1.0, 64)

    @pytest.fixture
    def skeletons(self, monkeypatch):
        grids, real = [], harness.integrate_skeleton_ode

        def spy(coeffs, domain, s, x, grid):
            grids.append(grid)
            return real(coeffs, domain, s, x, grid)
        monkeypatch.setattr(harness, "integrate_skeleton_ode", spy)
        return grids

    @pytest.mark.parametrize("target, calls", [
        ("X4", 0), ("K4", 0), ("Kmoment", 0), ("Kexp", 0), ("Y4", 1),
        (("X4", "K4", "Kmoment", "Kexp"), 0), (TARGETS, 1)])
    def test_convergence_study(self, target, calls, skeletons):
        co = preset("boundary-g-constant", {"v": 1.0, "g0": 1.0})
        convergence_study(target, co, unit_interval(), 0.0, [0.5], LADDER,
                          1000, self.GRID, 3, field_steps=16, field_nodes=5,
                          mc_per_node=64)
        assert skeletons == [self.GRID] * calls

    @pytest.mark.parametrize("nt", [4.0, 4.5, True, "4"])
    def test_y4_field_steps_must_be_an_int(self, nt, skeletons):
        # refused before the skeleton and psi are built
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        with pytest.raises(ValueError, match="field_steps must be an int"):
            convergence_study("Y4", co, unit_interval(), 0.0, [0.5], LADDER,
                              1000, self.GRID, 3, field_steps=nt,
                              field_nodes=5, mc_per_node=64)
        assert skeletons == []

    def test_tail_study(self, skeletons):
        # only the certificate integrates one, on its optimizer grid
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], 0.3, LADDER, 200, self.GRID, 3)
        assert skeletons == [TimeGrid(0.0, 1.0, harness._OPT_STEPS)]


class TestStreamedStudies:
    """The studies reduce each path while the kernel steps it, in packed
    calls that mix ladder levels and chunks. Their oracle is the stored-path
    formula: the paths of each key prefix, stored (prefix_paths), then the
    maxima over the paths."""

    GRID = TimeGrid(0.0, 1.0, 64)
    SEED = 11
    N_PATHS = 1000
    # drift into the boundary, so that K grows on most paths
    CASES = {
        "interval": (unit_interval, "constant-drift", {"v": 1.0}, [0.5]),
        "disc": (lambda: make_domain("ball", center=[0.0, 0.0], radius=1.0),
                 "ou-in-ball", {"theta": -1.0}, [0.6, 0.0]),
    }

    @pytest.fixture(autouse=True)
    def packed(self, monkeypatch):
        # a convergence study's calls take 5 block positions of every
        # level, the tail's 4 of the pilot and of every level: the second
        # call takes each one's cut last block
        monkeypatch.setattr(harness, "_PASS_STEPS",
                            5 * len(LADDER) * _BLOCK_PATHS * self.GRID.n_steps)

    def _cut(self, monkeypatch, parts):
        # calls of 2 * parts + 1 block positions of every level in a
        # convergence study, and of 2 or 5 in the tail's: each cut leaves
        # a last call with each level's cut last block
        monkeypatch.setattr(harness, "_PASS_STEPS",
                            (2 * parts + 1) * len(LADDER) * _BLOCK_PATHS
                            * self.GRID.n_steps)

    def _setup(self, case):
        make_dom, name, params, x = self.CASES[case]
        co, dom = preset(name, params), make_dom()
        return co, dom, x, integrate_skeleton_ode(co, dom, 0.0, x, self.GRID)

    def _paths(self, co, dom, x, e, prefix, n_paths):
        return prefix_paths(co, dom, x, e, self.GRID, self.SEED, n_paths,
                            prefix)

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_moments_equal_stored_path_maxima(self, case, parts, monkeypatch):
        self._cut(monkeypatch, parts)
        co, dom, x, skel = self._setup(case)
        names = ("X4", "K4", "Kmoment", "Kexp")
        reports = convergence_study(names, co, dom, 0.0, x, LADDER,
                                    self.N_PATHS, self.GRID, self.SEED)
        contact = 0
        for ei, e in enumerate(LADDER):
            # every level draws the study's one set of blocks
            xp, kp = self._paths(co, dom, x, e, (), self.N_PATHS)
            contact += np.count_nonzero(np.diff(kp, axis=1) > 0)
            samples = {
                "X4": np.linalg.norm(xp - skel.x_path[None],
                                     axis=-1).max(axis=1) ** 4,
                "K4": np.abs(kp - skel.k_path[None]).max(axis=1) ** 4,
                "Kmoment": kp.max(axis=1) ** 4,
                "Kexp": np.exp(kp[:, -1]),
            }
            for rep in reports:
                v = samples[rep.target]
                assert rep.errors[ei] == float(v.mean())
                assert rep.ci_halfwidth[ei] == float(
                    v.std(ddof=1) / np.sqrt(self.N_PATHS))
        assert contact > 1000

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tail_equals_stored_path_maxima(self, case, parts, monkeypatch):
        self._cut(monkeypatch, parts)
        co, dom, x, skel = self._setup(case)
        rep = tail_study(co, dom, 0.0, x, 0.25, LADDER, self.N_PATHS,
                         self.GRID, self.SEED)

        def sups(e, prefix, n_paths):
            xp, _ = self._paths(co, dom, x, e, prefix, n_paths)
            return np.linalg.norm(xp - skel.x_path[None], axis=-1).max(axis=1)

        pilot = sups(LADDER[-1], (len(LADDER), 0), harness._PILOT_PATHS)
        delta, adjusted = 0.25, False
        if not 1e-4 <= np.mean(pilot >= delta) <= 1e-1:
            delta, adjusted = float(np.quantile(pilot, 0.90)), True
        assert rep.delta_adjusted == adjusted
        assert rep.deltas == (delta,) * len(LADDER)
        hits = [int(np.sum(sups(e, (ei,), self.N_PATHS) >= delta))
                for ei, e in enumerate(LADDER)]
        assert min(hits) > 0
        assert rep.p_hat == tuple(h / self.N_PATHS for h in hits)

    def test_y4_with_other_targets_equals_stored_path_oracle(self):
        co = preset("boundary-g-constant", {"v": 1.0, "g0": 1.0})
        dom = unit_interval()
        kwargs = dict(field_steps=16, field_nodes=9, mc_per_node=64)
        both = convergence_study(("K4", "Y4"), co, dom, 0.0, [0.5], LADDER,
                                 self.N_PATHS, self.GRID, self.SEED,
                                 **kwargs)
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], self.GRID)
        psi = solve_limit_bsde(co, skel).y_path
        lattice = make_lattice(dom, 9)
        for ei, e in enumerate(LADDER):
            field = solve_bsde_grid(co, dom, e, TimeGrid(0.0, 1.0, 16),
                                    lattice, 64, self.SEED + 7919 * (ei + 1))
            total = squares = 0.0
            k4 = []
            piece = 2 * _BLOCK_PATHS   # two blocks at a time
            for off in range(0, self.N_PATHS, piece):
                xp, kp = prefix_paths(co, dom, [0.5], e, self.GRID,
                                      self.SEED,
                                      min(piece, self.N_PATHS - off),
                                      first=off)
                # Y4 reads the field's 17 time nodes, every 4th path node
                dev = np.linalg.norm(apply_pi(field, xp[:, ::4])
                                     - psi[None, ::4], axis=-1) ** 4
                total = total + dev.sum(axis=0)
                squares = squares + (dev * dev).sum(axis=0)
                k4.append(np.abs(kp - skel.k_path[None]).max(axis=1) ** 4)
            worst = int(np.argmax(total))
            mean = float(total[worst] / self.N_PATHS)
            assert both[1].errors[ei] == pytest.approx(mean, rel=1e-12)
            assert both[0].errors[ei] == float(np.concatenate(k4).mean())

    def test_level_rows_are_block_rows(self):
        # row j of a level is row j % G of the block stream
        # prefix + (j // G,), drawn step-major, whatever the level's size;
        # its deviations are taken from the skeleton that each call steps
        # as its row 0, which must be integrate_skeleton_ode's path bitwise
        co, dom, x, skel = self._setup("disc")
        levels = [(0.3, (4,), _BLOCK_PATHS + 3), (0.2, (5, 1), 5)]
        sweep = harness._sweep(co, dom, np.array(x), self.GRID, self.SEED,
                               levels, ("dk", "dx"))
        n, dt = self.GRID.n_steps, self.GRID.dt
        for (e, prefix, count), level in zip(levels, sweep, strict=True):
            assert level["kT"].shape == (count,)
            for j in {0, min(_BLOCK_PATHS, count) - 1, count - 1}:
                draws = trajectory_rng(self.SEED, prefix + (j // _BLOCK_PATHS,)
                                       ).standard_normal((n, _BLOCK_PATHS, 2))
                xp, kp, _ = _reflected_core(co, dom, np.array([x]), e,
                                            self.GRID,
                                            draws[None, :, j % _BLOCK_PATHS]
                                            * np.sqrt(dt))
                assert level["kT"][j] == kp[0, -1]
                assert level["dx"][j] == np.linalg.norm(
                    xp[0] - skel.x_path, axis=-1).max()
                assert level["dk"][j] == np.abs(kp[0] - skel.k_path).max()

    @pytest.mark.parametrize("blocks, chunk", [(1, 1), (3, 7), (5, 64),
                                               (64, 1000)])
    def test_reports_do_not_depend_on_cut_or_chunk(self, blocks, chunk,
                                                   monkeypatch):
        # calls of `blocks` block positions of every level, max(1, blocks
        # * 4 // 5) in the tail, and noise drawn chunk steps at a time
        co, dom, x, _ = self._setup("interval")
        args = (co, dom, 0.0, x)
        names = ("X4", "K4", "Kmoment", "Kexp")
        ref = (convergence_study(names, *args, LADDER, self.N_PATHS,
                                 self.GRID, self.SEED),
               tail_study(*args, 0.25, LADDER, self.N_PATHS, self.GRID,
                          self.SEED))
        monkeypatch.setattr(harness, "_PASS_STEPS",
                            blocks * len(LADDER) * _BLOCK_PATHS
                            * self.GRID.n_steps)
        monkeypatch.setattr(forward, "_CHUNK_STEPS", chunk)
        got = (convergence_study(names, *args, LADDER, self.N_PATHS,
                                 self.GRID, self.SEED),
               tail_study(*args, 0.25, LADDER, self.N_PATHS, self.GRID,
                          self.SEED))
        assert got == ref

    @pytest.mark.parametrize("chunk", [1, 5, 1000])
    def test_y4_does_not_depend_on_chunk(self, chunk, monkeypatch):
        # the chunk size leaves the call cut, and so Y4's sums, as they are
        co = preset("boundary-g-constant", {"v": 1.0, "g0": 1.0})
        study = ("Y4", co, unit_interval(), 0.0, [0.5], LADDER, self.N_PATHS,
                 self.GRID, self.SEED)
        kwargs = dict(field_steps=16, field_nodes=9, mc_per_node=64)
        ref = convergence_study(*study, **kwargs)
        monkeypatch.setattr(forward, "_CHUNK_STEPS", chunk)
        assert convergence_study(*study, **kwargs) == ref

    def test_insufficient_paths_names_first_failing_level(self, monkeypatch):
        # unit noise from 0.25: K_T > 0 on fewer paths as eps falls, so the
        # relative standard error of E[K_T^4] grows down the ladder. The
        # first level's, 0.14 to 0.24 over seeds, is the limit: that level
        # passes whatever the draw, and a later one must be named
        co, dom, x = preset("zero-drift-unit-noise"), unit_interval(), [0.25]
        rel = []
        for e in LADDER:
            _, kp = self._paths(co, dom, x, e, (), self.N_PATHS)
            v = kp[:, -1] ** 4
            rel.append(v.std(ddof=1) / np.sqrt(self.N_PATHS) / v.mean())
        monkeypatch.setattr(harness, "_MAX_REL_SE", rel[0])
        failing = [e for e, r in zip(LADDER, rel) if r > harness._MAX_REL_SE]
        assert len(failing) >= 2 and failing[0] != LADDER[0]
        with pytest.raises(InsufficientPaths,
                           match=f"Kmoment: .* at eps={failing[0]} "):
            convergence_study(("X4", "Kmoment"), co, dom, 0.0, x, LADDER,
                              self.N_PATHS, self.GRID, self.SEED)


class TestSharedLadderNoise:
    """A convergence study gives every level one noise: path j of each level
    is row j % G of the block (seed, (j // G,)), and each block key is
    seeded once per study, however the study is cut into kernel calls. The
    tail study's levels and pilot keep keys of their own."""

    GRID = TimeGrid(0.0, 1.0, 64)
    N_PATHS = 1000
    BLOCKS = -(-N_PATHS // _BLOCK_PATHS)

    @pytest.fixture
    def seeded(self, monkeypatch):
        keys, real = [], forward.trajectory_rng

        def spy(seed, index=0):
            keys.append(index)
            return real(seed, index)
        monkeypatch.setattr(forward, "trajectory_rng", spy)
        return keys

    @pytest.fixture
    def calls(self, monkeypatch):
        rows, real = [], harness._reflected_core

        def spy(coeffs, domain, x0, *args, **kwargs):
            rows.append(len(x0))
            return real(coeffs, domain, x0, *args, **kwargs)
        monkeypatch.setattr(harness, "_reflected_core", spy)
        return rows

    @pytest.mark.parametrize("positions", [None, 1, 3])
    def test_each_block_key_seeded_once(self, positions, seeded, calls,
                                        monkeypatch):
        # the default cut is one call; 1 and 3 block positions per call
        # cut the study into 8 and 3 calls
        if positions is not None:
            monkeypatch.setattr(harness, "_PASS_STEPS",
                                positions * len(LADDER) * _BLOCK_PATHS
                                * self.GRID.n_steps)
        convergence_study(("X4", "K4", "Kmoment", "Kexp"),
                          preset("constant-drift", {"v": 1.0}),
                          unit_interval(), 0.0, [0.5], LADDER, self.N_PATHS,
                          self.GRID, 5)
        assert seeded == [(b,) for b in range(self.BLOCKS)]
        width = positions or self.BLOCKS
        assert len(calls) == -(-self.BLOCKS // width)
        # every call steps its block positions of all four levels and the
        # skeleton
        assert sum(calls) == len(LADDER) * self.N_PATHS + len(calls)

    def test_levels_step_the_same_noise(self):
        # zero drift from 50 on [0, 100]: no path of any level comes near
        # a wall, so each level's deviation from the skeleton is its
        # sqrt(eps) times one shared Brownian path, to rounding
        dom = make_domain("interval", a=0.0, b=100.0)
        levels = [(e, (), self.N_PATHS) for e in LADDER]
        sweep = harness._sweep(preset("zero-drift-unit-noise"), dom,
                               np.array([50.0]), self.GRID, 5, levels, ("dx",))
        unit = [level["dx"] / np.sqrt(e) for e, level in zip(LADDER, sweep)]
        for other in unit[1:]:
            np.testing.assert_allclose(other, unit[0], rtol=1e-12)

    def test_tail_levels_draw_distinct_keys(self, seeded):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], 0.3, LADDER, self.N_PATHS, self.GRID, 5)
        pilot = -(-harness._PILOT_PATHS // _BLOCK_PATHS)
        want = ([(len(LADDER), 0, b) for b in range(pilot)]
                + [(ei, b) for ei in range(len(LADDER))
                   for b in range(self.BLOCKS)])
        assert sorted(seeded) == sorted(want)
        assert len(set(seeded)) == len(seeded)


class TestSlopeStandardError:
    """slope_se against the spread of the slope over seeds: constant-drift
    (v = 1) from 0.5 on [0, 1], the ladder LADDER, 1,000 paths of 256
    steps, seeds 0..39. Written down
    before any run:

    - Over the seeds the slope is taken as normal with sd sigma, so the
      seeds' sample sd s has s / sigma ~ sqrt(chi2_39 / 39), whose two-sided
      1e-3 range is [0.6460, 1.3842] (relative se 1 / sqrt(78) = 0.113).
    - sigma is read as the mean of the 40 reported slope_se. That mean has
      its own relative standard error r, the seeds' sd of slope_se over
      sqrt(40) and the mean, which the band takes 3 times: s / mean lies in
      [0.6460 (1 - 3 r), 1.3842 (1 + 3 r)].
    - The delta method's error is of the order of the squared relative se
      of a level mean, a few 1e-3 here, and is not allowed for."""

    SEEDS = range(40)
    LOW, HIGH = 0.6460, 1.3842

    def test_slope_se_matches_seed_spread(self):
        co = preset("constant-drift", {"v": 1.0})
        reports = [convergence_study(("X4", "K4"), co, unit_interval(), 0.0,
                                     [0.5], LADDER, 1000,
                                     TimeGrid(0.0, 1.0, 256), seed)
                   for seed in self.SEEDS]
        for col, name in enumerate(("X4", "K4")):
            slopes = np.array([rep[col].slope for rep in reports])
            ses = np.array([rep[col].slope_se for rep in reports])
            sd, mean = slopes.std(ddof=1), ses.mean()
            r = ses.std(ddof=1) / np.sqrt(ses.size) / mean
            print(f"{name}: seed sd {sd:.4f}, mean slope_se {mean:.4f}, "
                  f"ratio {sd / mean:.3f}, r {r:.3f}")
            assert self.LOW * (1 - 3 * r) <= sd / mean <= self.HIGH * (1 + 3 * r)

    def test_bound_targets_and_y4(self):
        reps = convergence_study(
            ("Kmoment", "Kexp", "Y4"),
            preset("boundary-g-constant", {"v": 1.0, "g0": 1.0}), unit_interval(),
            0.0, [0.5], LADDER, 1000, TimeGrid(0.0, 1.0, 64), 3,
            field_steps=16, field_nodes=9, mc_per_node=64)
        assert [r.slope_se for r in reps] == [0.0, 0.0, None]

    def test_slope_se_is_the_delta_method(self):
        # w* C w, with C the covariance of the per-path statistics across
        # the levels over N m_i m_j, from the stored paths
        co, dom = preset("constant-drift", {"v": 1.0}), unit_interval()
        grid = TimeGrid(0.0, 1.0, 64)
        rep = convergence_study("K4", co, dom, 0.0, [0.5], LADDER, 1000, grid,
                                9)
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
        stats = np.array([
            np.abs(simulate_reflected_batch(co, dom, 0.0, [0.5], e, grid, 9,
                                            1000)[1]
                   - skel.k_path[None]).max(axis=1) ** 4 for e in LADDER])
        m = stats.mean(axis=1)
        lx = np.log(LADDER)
        w = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        cov = np.cov(stats) / (1000 * np.outer(m, m))
        assert np.all(cov > 0)      # the shared noise couples the levels
        assert rep.slope_se == pytest.approx(np.sqrt(w @ cov @ w), rel=1e-10)
        # independent levels would have had the diagonal alone
        assert rep.slope_se < np.sqrt(np.sum(w * w * np.diag(cov)))


@pytest.mark.parametrize("delta", [-0.3, 0.0, float("nan")])
def test_tail_study_rejects_delta_not_positive(delta):
    # the pilot would otherwise replace delta by its 0.90 quantile
    with pytest.raises(ValueError, match="delta"):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], delta, LADDER, 200, TimeGrid(0.0, 1.0, 16), 3)


@pytest.mark.parametrize("n", [1000.0, True, 999])
def test_convergence_study_n_paths_must_be_a_count(n):
    with pytest.raises(ValueError, match="n_paths must be"):
        convergence_study("X4", preset("constant-drift"), unit_interval(),
                          0.0, [0.5], LADDER, n, TimeGrid(0.0, 1.0, 16), 3)


@pytest.mark.parametrize("n", [200.0, True, -1])
def test_tail_study_n_paths_must_be_a_count(n):
    # True once ran one path per level
    with pytest.raises(ValueError, match="n_paths must be"):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], 0.3, LADDER, n, TimeGrid(0.0, 1.0, 16), 3)


@pytest.mark.parametrize("key, value", [
    ("field_nodes", 9.0), ("field_nodes", True), ("field_nodes", 1),
    ("mc_per_node", 64.5), ("mc_per_node", True), ("mc_per_node", 63)])
def test_y4_lattice_counts_must_be_counts(key, value):
    # the lattice's own checks: field_nodes is make_lattice's n_per_axis
    counts = {"field_nodes": 5, "mc_per_node": 64, key: value}
    name = "n_per_axis" if key == "field_nodes" else key
    with pytest.raises(ValueError, match=f"{name} must be"):
        convergence_study("Y4", preset("linear-bsde"), unit_interval(), 0.0,
                          [0.5], LADDER, 1000, TimeGrid(0.0, 1.0, 16), 3,
                          field_steps=4, **counts)


def test_tail_study_rejects_no_paths():
    with pytest.raises(ValueError, match="n_paths"):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], 0.3, LADDER, 0, TimeGrid(0.0, 1.0, 16), 3)


class TestLatticeHull:
    """apply_pi and the Y4 reader share backward's lattice-hull check. The
    domain's bounding box is cut to [0, 0.5], so the lattice hull ends at
    0.5, and the path starts just above it, inside the domain; at a tiny
    epsilon it stays there."""

    LADDER = (1e-20, 5e-21, 2.5e-21, 1.25e-21)

    def _readers(self, x):
        dom = replace(make_domain("interval", a=0.0, b=1.0),
                      bbox=(np.array([0.0]), np.array([0.5])))
        co = preset("linear-bsde")
        times = TimeGrid(0.0, 1.0, 4)
        field = limit_value_field(co, dom, times, make_lattice(dom, 3))
        return {
            "apply_pi": lambda: apply_pi(field, np.full((5, 1), x)),
            "Y4": lambda: convergence_study(
                "Y4", co, dom, 0.0, [x], self.LADDER, 1000, times, 1,
                field_steps=4, field_nodes=3, mc_per_node=64),
        }

    @pytest.mark.parametrize("reader", ["apply_pi", "Y4"])
    def test_point_outside_hull_raises(self, reader):
        x = 0.5 + 2 * backward._PI_TOL
        with pytest.raises(OutOfLattice, match="path leaves the lattice hull"):
            self._readers(x)[reader]()

    @pytest.mark.parametrize("reader", ["apply_pi", "Y4"])
    def test_one_tolerance(self, reader, monkeypatch):
        # a point within the hull tolerance is read; with backward's
        # tolerance narrowed below its distance, both readers reject it
        x = 0.5 + 0.5 * backward._PI_TOL
        self._readers(x)[reader]()
        monkeypatch.setattr(backward, "_PI_TOL", 0.25 * backward._PI_TOL)
        with pytest.raises(OutOfLattice, match="path leaves the lattice hull"):
            self._readers(x)[reader]()
