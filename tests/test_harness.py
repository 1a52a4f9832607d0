"""Convergence studies, tail studies, and the log-log fitter."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reflectal import harness
from reflectal.backward import (apply_pi, make_lattice, solve_bsde_grid,
                                solve_limit_bsde)
from reflectal.coefficients import CoefficientSet, preset
from reflectal.errors import (DegenerateFit, InsufficientPaths,
                              StartOutsideDomain)
from reflectal.forward import (TimeGrid, integrate_skeleton_ode,
                               simulate_reflected_batch)
from reflectal.geometry import make_domain
from reflectal.harness import (ConvergenceReport, convergence_study,
                               fit_loglog, tail_study)

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
        # calls of 300 paths: they end inside levels and span two
        monkeypatch.setattr(harness, "_PASS_STEPS", 300 * 256)
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
        # calls of 256 and of 700 paths: they end inside levels and span two
        for rows in (256, 700):
            monkeypatch.setattr(harness, "_PASS_STEPS",
                                rows * self.GRID.n_steps)
            singles = tuple(self._study(t, **co) for t in self.ORDER)
            assert all(isinstance(r, ConvergenceReport) for r in singles)
            assert [r.target for r in singles] == list(self.ORDER)
            assert self._study(self.ORDER, **co) == singles

    def _y4_samples(self):
        """Per level, |u^eps(t_i, X_i) - psi_i|^4 per path and node of the
        default Y4 study, from stored paths read with apply_pi."""
        co = preset("linear-bsde", {"lam": 1.0, "g0": 1.0})
        dom = unit_interval()
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], self.GRID)
        psi = solve_limit_bsde(co, skel).y_path
        lattice = make_lattice(dom, 17)
        for ei, e in enumerate(LADDER):
            field = solve_bsde_grid(co, dom, e, TimeGrid(0.0, 1.0, 32),
                                    lattice, 256, self.SEED + 7919 * (ei + 1))
            xp, _ = simulate_reflected_batch(co, dom, 0.0, [0.5], e,
                                             self.GRID, self.SEED, 1000,
                                             key_prefix=(ei,))
            y = apply_pi(field, xp, path_times=self.GRID.nodes)
            yield np.linalg.norm(y - psi[None], axis=-1) ** 4

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
        # other nodes can see a row read in the wrong level's field
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
        # a 2-D lattice read with per-row level offsets, in calls of 700
        # paths that end inside levels and span two. The outward drift and
        # g = 1 put the sup over t before T: at T every level's field is h,
        # so a read of the wrong level's field would go unseen there
        grid = TimeGrid(0.0, 1.0, 64)
        monkeypatch.setattr(harness, "_PASS_STEPS", 700 * grid.n_steps)
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
            xp, _ = simulate_reflected_batch(co, dom, 0.0, x, e, grid,
                                             self.SEED, 1000, key_prefix=(ei,))
            y = apply_pi(field, xp, path_times=grid.nodes)
            samples = np.linalg.norm(y - psi[None], axis=-1) ** 4
            means_t = samples.mean(axis=0)
            worst = int(np.argmax(means_t))
            se = samples[:, worst].std(ddof=1) / np.sqrt(1000)
            assert worst < grid.n_steps
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
        # calls of 300 paths: they end inside the pilot and the levels
        monkeypatch.setattr(harness, "_PASS_STEPS", 300 * 256)
        b = self._tail(0.2)
        assert a.p_hat == b.p_hat
        assert a.eps_log_p == b.eps_log_p
        assert a.deltas == b.deltas


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


class TestStreamedStudies:
    """The studies reduce each path while the kernel steps it, in packed
    calls that mix ladder levels and chunks. Their oracle is the stored-path
    formula: simulate_reflected_batch, then the maxima over the paths."""

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
        # calls of at most 700 paths end inside levels and inside the tail's
        # pilot, and span both
        monkeypatch.setattr(harness, "_PASS_STEPS", 700 * self.GRID.n_steps)

    def _cut(self, monkeypatch, parts):
        # calls of 700 // parts paths: both cuts end calls inside levels and
        # inside the pilot, and span them
        monkeypatch.setattr(harness, "_PASS_STEPS",
                            700 // parts * self.GRID.n_steps)

    def _setup(self, case):
        make_dom, name, params, x = self.CASES[case]
        co, dom = preset(name, params), make_dom()
        return co, dom, x, integrate_skeleton_ode(co, dom, 0.0, x, self.GRID)

    def _paths(self, co, dom, x, e, prefix, n_paths):
        return simulate_reflected_batch(co, dom, 0.0, x, e, self.GRID,
                                        self.SEED, n_paths, key_prefix=prefix)

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
            xp, kp = self._paths(co, dom, x, e, (ei,), self.N_PATHS)
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
            for off in range(0, self.N_PATHS, 300):   # 300 paths at a time
                xp, kp = simulate_reflected_batch(
                    co, dom, 0.0, [0.5], e, self.GRID, self.SEED,
                    min(300, self.N_PATHS - off), index_offset=off,
                    key_prefix=(ei,))
                dev = np.linalg.norm(apply_pi(field, xp, self.GRID.nodes)
                                     - psi[None], axis=-1) ** 4
                total = total + dev.sum(axis=0)
                squares = squares + (dev * dev).sum(axis=0)
                k4.append(np.abs(kp - skel.k_path[None]).max(axis=1) ** 4)
            worst = int(np.argmax(total))
            mean = float(total[worst] / self.N_PATHS)
            assert both[1].errors[ei] == pytest.approx(mean, rel=1e-12)
            assert both[0].errors[ei] == float(np.concatenate(k4).mean())

    def test_insufficient_paths_names_first_failing_level(self):
        # unit noise from 0.25: K_T > 0 on fewer paths as eps falls, so the
        # relative standard error of E[K_T^4] grows down the ladder
        co, dom, x = preset("zero-drift-unit-noise"), unit_interval(), [0.25]
        rel = []
        for ei, e in enumerate(LADDER):
            _, kp = self._paths(co, dom, x, e, (ei,), self.N_PATHS)
            v = kp[:, -1] ** 4
            rel.append(v.std(ddof=1) / np.sqrt(self.N_PATHS) / v.mean())
        failing = [e for e, r in zip(LADDER, rel) if r > harness._MAX_REL_SE]
        assert len(failing) >= 2 and failing[0] != LADDER[0]
        with pytest.raises(InsufficientPaths,
                           match=f"Kmoment: .* at eps={failing[0]} "):
            convergence_study(("X4", "Kmoment"), co, dom, 0.0, x, LADDER,
                              self.N_PATHS, self.GRID, self.SEED)


@pytest.mark.parametrize("delta", [-0.3, 0.0, float("nan")])
def test_tail_study_rejects_delta_not_positive(delta):
    # the pilot would otherwise replace delta by its 0.90 quantile
    with pytest.raises(ValueError, match="delta"):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], delta, LADDER, 200, TimeGrid(0.0, 1.0, 16), 3)


def test_tail_study_rejects_no_paths():
    with pytest.raises(ValueError, match="n_paths"):
        tail_study(preset("zero-drift-unit-noise"), unit_interval(), 0.0,
                   [0.5], 0.3, LADDER, 0, TimeGrid(0.0, 1.0, 16), 3)
