"""Forward integrators, the constraining map, and the budget identity."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from reflectal import forward
from reflectal.coefficients import CoefficientSet, preset
from reflectal.backward import make_lattice, solve_bsde_grid
from reflectal.errors import MissingNoise, NumericalBlowup, StartOutsideDomain
from reflectal.forward import (_BLOCK_PATHS, _K_NOISE_FLOOR, FreePath,
                               TimeGrid, _block_noise, _blocks, _norm,
                               _reflected_core, _step,
                               integrate_reflected_sde, integrate_skeleton_ode,
                               reflection_budget_identity,
                               simulate_reflected_batch, skorokhod_map,
                               trajectory_rng)
from reflectal.geometry import make_domain, project
from reflectal.harness import convergence_study, fit_loglog

from streams import prefix_paths


def reference_core(coeffs, domain, x0, epsilon, grid, noise):
    """The straightforward projection-Euler loop, kept as a bitwise oracle
    for the kernel: returns x_path (B, n+1, d), k_path (B, n+1) and the
    unit correction directions (B, n, d)."""
    d, m, _ = coeffs.dims
    n = grid.n_steps
    dt = grid.dt
    B = x0.shape[0]
    x_path = np.empty((B, n + 1, d))
    k_path = np.zeros((B, n + 1))
    dirs = np.zeros((B, n, d))
    X = np.array(x0, float)
    x_path[:, 0] = X
    sq = np.sqrt(epsilon) if epsilon > 0 else 0.0
    for i in range(n):
        t = grid.nodes[i]
        prop = X + coeffs.b(t, X) * dt
        if epsilon > 0:
            sig = coeffs.sigma(t, X)
            prop = prop + sq * np.einsum("...dm,...m->...d", sig, noise[:, i])
        Xn = project(domain, prop)
        corr = Xn - prop
        dk = np.linalg.norm(corr, axis=-1)
        live = dk > _K_NOISE_FLOOR * max(1.0, domain.diameter)
        dk = np.where(live, dk, 0.0)
        safe = np.where(dk > 0, dk, 1.0)
        dirs[:, i] = np.where(dk[:, None] > 0, corr / safe[:, None], 0.0)
        k_path[:, i + 1] = k_path[:, i] + dk
        X = Xn
        x_path[:, i + 1] = X
    return x_path, k_path, dirs


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def outward_drift_ball():
    """Unit outward drift on the punctured ball: b(x) = x/|x|."""
    def b(t, x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return x / np.where(r > 0, r, 1.0)

    def sigma(t, x):
        x = np.asarray(x, float)
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    zero = lambda t, x, y, *a: np.zeros_like(np.asarray(y, float))
    return CoefficientSet(b=b, sigma=sigma,
                          f=lambda t, x, y, z: np.zeros_like(y),
                          g=lambda t, x, y: np.zeros_like(y),
                          h=lambda x: np.asarray(x, float)[..., :1].copy(),
                          dims=(2, 2, 1), T=1.0, name="outward-drift")


class TestSkeleton:
    def test_constant_drift_closed_form(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        n = 10_000
        grid = TimeGrid(0.0, 1.0, n)
        tr = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
        t = grid.nodes
        x_ref = np.minimum(0.5 + t, 1.0)
        k_ref = np.maximum(t - 0.5, 0.0)
        tol = 2.0 * grid.dt
        assert np.max(np.abs(tr.x_path[:, 0] - x_ref)) <= tol
        assert np.max(np.abs(tr.k_path - k_ref)) <= tol

    def test_fine_grid_oracle_agreement(self):
        # independent oracle: reference integration at 100x resolution
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        coarse = integrate_skeleton_ode(co, dom, 0.0, [0.5],
                                        TimeGrid(0.0, 1.0, 1000))
        fine = integrate_skeleton_ode(co, dom, 0.0, [0.5],
                                      TimeGrid(0.0, 1.0, 100_000))
        assert abs(coarse.x_path[-1, 0] - fine.x_path[-1, 0]) <= 2e-3
        assert abs(coarse.k_path[-1] - fine.k_path[-1]) <= 2e-3

    def test_zero_drift_is_static(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        tr = integrate_skeleton_ode(co, dom, 0.0, [0.3], TimeGrid(0, 1, 100))
        np.testing.assert_array_equal(tr.x_path, 0.3 * np.ones((101, 1)))
        np.testing.assert_array_equal(tr.k_path, np.zeros(101))

    def test_boundary_drift_cancelled_by_reflection(self):
        # outward unit drift from a boundary start: state pinned, K_t = t
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        co = outward_drift_ball()
        grid = TimeGrid(0.0, 1.0, 4000)
        x0 = [1.0, 0.0]
        tr = integrate_skeleton_ode(co, dom, 0.0, x0, grid)
        tol = 2.0 * grid.dt
        assert np.max(np.linalg.norm(tr.x_path - np.array(x0), axis=-1)) <= tol
        assert np.max(np.abs(tr.k_path - grid.nodes)) <= tol


class TestReflectedSde:
    def test_invariants_on_sampled_trajectories(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 256)
        xp, kp = simulate_reflected_batch(co, dom, 0.0, [0.5], 0.01, grid,
                                          seed=17, n_paths=1000)
        # exact containment
        assert np.all(xp >= 0.0) and np.all(xp <= 1.0)
        # monotone K starting at zero
        assert np.all(kp[:, 0] == 0.0)
        dk = np.diff(kp, axis=1)
        assert np.all(dk >= 0.0)
        # flat off boundary: K increases only at boundary landings
        grew = dk > 0
        sd = dom.signed_distance(xp[:, 1:])
        assert np.all(sd[grew] <= dom.boundary_tol)

    def test_epsilon_zero_bitwise_reduction(self):
        dom = unit_interval()
        co = preset("constant-drift")
        grid = TimeGrid(0.0, 1.0, 512)
        a = integrate_reflected_sde(co, dom, 0.0, [0.5], 0.0, grid)
        b = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
        np.testing.assert_array_equal(a.x_path, b.x_path)
        np.testing.assert_array_equal(a.k_path, b.k_path)

    def test_requires_stream_for_positive_epsilon(self):
        dom = unit_interval()
        co = preset("constant-drift")
        with pytest.raises(ValueError):
            integrate_reflected_sde(co, dom, 0.0, [0.5], 0.1,
                                    TimeGrid(0, 1, 8))

    def test_deterministic_replay(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 128)
        a = simulate_reflected_batch(co, dom, 0.0, [0.5], 0.05, grid, 99, 32)
        b = simulate_reflected_batch(co, dom, 0.0, [0.5], 0.05, grid, 99, 32)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        # the batch is the paths of the key prefix (), and cut at whole
        # blocks they are the same trajectories
        n_paths = 2 * _BLOCK_PATHS + 8
        a = simulate_reflected_batch(co, dom, 0.0, [0.5], 0.05, grid, 99,
                                     n_paths)
        c0 = prefix_paths(co, dom, [0.5], 0.05, grid, 99, _BLOCK_PATHS)
        c1 = prefix_paths(co, dom, [0.5], 0.05, grid, 99,
                          n_paths - _BLOCK_PATHS, first=_BLOCK_PATHS)
        for whole, first, rest in zip(a, c0, c1):
            np.testing.assert_array_equal(np.concatenate([first, rest]), whole)


class TestSingleTrajectoryNoise:
    def test_noise_is_the_stream_draw(self):
        # the recorded noise is the stream's first n * m normals, row-major,
        # scaled by sqrt(dt)
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 64)
        tr = integrate_reflected_sde(co, unit_interval(), 0.0, [0.5], 0.3,
                                     grid, trajectory_rng(31))
        want = trajectory_rng(31).standard_normal((64, 1)) * np.sqrt(grid.dt)
        assert tr.noise.tobytes() == want.tobytes()


class TestSkorokhodMap:
    def test_ramp_closed_form(self):
        dom = unit_interval()
        grid = TimeGrid(0.0, 1.0, 2000)
        t = grid.nodes
        free = FreePath(grid=grid, values=(0.5 + t)[:, None])
        dec = skorokhod_map(dom, free)
        tol = 2.0 * grid.dt
        assert np.max(np.abs(dec.psi[:, 0] - np.minimum(0.5 + t, 1.0))) <= tol
        assert np.max(np.abs(dec.rho[:, 0] + np.maximum(t - 0.5, 0.0))) <= tol
        assert abs(dec.total_variation[-1] - 0.5) <= tol

    def test_interior_identity(self):
        dom = unit_interval()
        grid = TimeGrid(0.0, 1.0, 100)
        vals = (0.5 + 0.2 * np.sin(2 * np.pi * grid.nodes))[:, None]
        dec = skorokhod_map(dom, FreePath(grid=grid, values=vals))
        np.testing.assert_array_equal(dec.psi, vals)
        np.testing.assert_array_equal(dec.rho, np.zeros_like(vals))

    def test_round_trip(self):
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        grid = TimeGrid(0.0, 1.0, 300)
        rng = np.random.default_rng(41)
        vals = np.cumsum(rng.standard_normal((301, 2)) * 0.1, axis=0)
        vals -= vals[0]  # start at the center
        dec = skorokhod_map(dom, FreePath(grid=grid, values=vals))
        np.testing.assert_allclose(dec.psi - dec.rho, vals, atol=1e-12)

    def test_start_outside_rejected(self):
        dom = unit_interval()
        grid = TimeGrid(0.0, 1.0, 4)
        vals = np.full((5, 1), 1.5)
        with pytest.raises(StartOutsideDomain):
            skorokhod_map(dom, FreePath(grid=grid, values=vals))

    def test_matches_reflected_sde_for_constant_coefficients(self):
        # with state-independent b, sigma the discrete reflected path is the
        # constrained image of the discrete free path under the same noise
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        grid = TimeGrid(0.0, 1.0, 512)
        refl = integrate_reflected_sde(co, dom, 0.0, [0.5], 0.04, grid,
                                       trajectory_rng(77))
        free_vals = np.concatenate(
            [[0.5], 0.5 + grid.dt * np.arange(1, grid.n_steps + 1)
             + np.sqrt(0.04) * np.cumsum(refl.noise[:, 0])])[:, None]
        dec = skorokhod_map(dom, FreePath(grid=grid, values=free_vals))
        np.testing.assert_allclose(dec.psi, refl.x_path, atol=1e-12)

    def test_continuity_probe(self):
        # ||F(p) - F(p')||_inf <= C ||p - p'||_inf with C independent of delta
        dom = unit_interval()
        grid = TimeGrid(0.0, 1.0, 200)
        rng = np.random.default_rng(55)
        base = 0.5 + np.cumsum(rng.standard_normal(201) * 0.05)
        base -= base[0] - 0.5
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            pert = base + delta * np.sin(7 * np.pi * grid.nodes)
            d1 = skorokhod_map(dom, FreePath(grid=grid, values=base[:, None]))
            d2 = skorokhod_map(dom, FreePath(grid=grid, values=pert[:, None]))
            gap = np.max(np.abs(d1.psi - d2.psi))
            ratios.append(gap / delta)
        assert max(ratios) <= 4.0


class TestBudgetIdentity:
    def test_static_path_exact(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        tr = integrate_skeleton_ode(co, dom, 0.0, [0.3], TimeGrid(0, 1, 100))
        assert reflection_budget_identity(co, dom, tr) == 0.0

    def test_constant_drift_skeleton_residual(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        grid = TimeGrid(0.0, 1.0, 10_000)
        tr = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
        assert reflection_budget_identity(co, dom, tr) <= 5.0 * grid.dt

    def test_missing_noise_rejected(self):
        dom = unit_interval()
        co = preset("constant-drift")
        grid = TimeGrid(0.0, 1.0, 16)
        tr = integrate_reflected_sde(co, dom, 0.0, [0.5], 0.1, grid,
                                     trajectory_rng(1))
        stripped = type(tr)(grid=tr.grid, x_path=tr.x_path, k_path=tr.k_path,
                            k_increment_dirs=tr.k_increment_dirs, noise=None,
                            epsilon=tr.epsilon)
        with pytest.raises(MissingNoise):
            reflection_budget_identity(co, dom, stripped)

    def test_residual_halves_with_step(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        eps = 0.05
        levels = (512, 1024, 2048, 4096)
        means = []
        for n in levels:
            grid = TimeGrid(0.0, 1.0, n)
            vals = [reflection_budget_identity(
                co, dom, integrate_reflected_sde(
                    co, dom, 0.0, [0.5], eps, grid, trajectory_rng(123, j)))
                for j in range(16)]
            means.append(float(np.mean(vals)))
        fit = fit_loglog([1.0 / n for n in levels], means)
        assert fit["slope"] >= 0.8


class TestEpsilonChecked:
    @pytest.mark.parametrize("eps", [-0.1, float("nan")])
    def test_single_trajectory_rejects(self, eps):
        co = preset("zero-drift-unit-noise")
        with pytest.raises(ValueError, match="epsilon"):
            integrate_reflected_sde(co, unit_interval(), 0.0, [0.5], eps,
                                    TimeGrid(0.0, 1.0, 16), trajectory_rng(1))

    @pytest.mark.parametrize("eps", [-0.1, float("nan")])
    def test_batch_rejects(self, eps):
        co = preset("zero-drift-unit-noise")
        with pytest.raises(ValueError, match="epsilon"):
            simulate_reflected_batch(co, unit_interval(), 0.0, [0.5], eps,
                                     TimeGrid(0.0, 1.0, 16), 7, 4)


def unit_disc():
    return make_domain("ball", center=[0.0, 0.0], radius=1.0)


class TestKernelOracle:
    """The kernel against reference_core on the same noise, bitwise."""

    CASES = {
        "interval": (unit_interval, lambda: preset("constant-drift",
                                                   params={"v": 1.0}),
                     [0.5]),
        "disc": (unit_disc, outward_drift_ball, [0.6, 0.0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_paths_budget_and_directions(self, case, eps):
        make_dom, make_coeffs, x = self.CASES[case]
        dom, co = make_dom(), make_coeffs()
        grid = TimeGrid(0.0, 1.0, 200)
        d, m, _ = co.dims
        x0 = np.broadcast_to(np.asarray(x, float), (64, d)).copy()
        noise = (np.random.default_rng(5).standard_normal((64, 200, m))
                 * np.sqrt(grid.dt))
        ref = reference_core(co, dom, x0, eps, grid, noise)
        got = _reflected_core(co, dom, x0, eps, grid, noise, _dirs=True)
        assert np.count_nonzero(np.diff(ref[1], axis=1) > 0) > 100
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        xp, kp, dirs = _reflected_core(co, dom, x0, eps, grid, noise)
        assert dirs is None
        np.testing.assert_array_equal(xp, ref[0])
        np.testing.assert_array_equal(kp, ref[1])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_step_major_noise_equals_row_major(self, case):
        # the studies and batches hand the kernel a (B, n, m) view of an
        # (n, B, m) block
        make_dom, make_coeffs, x = self.CASES[case]
        dom, co = make_dom(), make_coeffs()
        grid = TimeGrid(0.0, 1.0, 200)
        d, m, _ = co.dims
        x0 = np.broadcast_to(np.asarray(x, float), (64, d)).copy()
        noise = (np.random.default_rng(5).standard_normal((64, 200, m))
                 * np.sqrt(grid.dt))
        step_major = np.ascontiguousarray(noise.swapaxes(0, 1)).swapaxes(0, 1)
        assert step_major.strides[1] == 64 * m * 8
        ref = _reflected_core(co, dom, x0, 0.3, grid, noise, _dirs=True)
        got = _reflected_core(co, dom, x0, 0.3, grid, step_major, _dirs=True)
        assert np.count_nonzero(np.diff(ref[1], axis=1) > 0) > 100
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_single_trajectory_keeps_directions(self):
        dom, co = unit_disc(), outward_drift_ball()
        grid = TimeGrid(0.0, 1.0, 100)
        tr = integrate_reflected_sde(co, dom, 0.0, [0.6, 0.0], 0.3, grid,
                                     trajectory_rng(3))
        ref = reference_core(co, dom, np.array([[0.6, 0.0]]), 0.3, grid,
                             tr.noise[None])
        np.testing.assert_array_equal(tr.x_path, ref[0][0])
        np.testing.assert_array_equal(tr.k_path, ref[1][0])
        np.testing.assert_array_equal(tr.k_increment_dirs, ref[2][0])
        assert np.any(tr.k_increment_dirs != 0.0)

    def test_skorokhod_map(self):
        dom = unit_disc()
        grid = TimeGrid(0.0, 1.0, 300)
        rng = np.random.default_rng(41)
        vals = np.cumsum(rng.standard_normal((301, 2)) * 0.1, axis=0)
        vals -= vals[0]
        dec = skorokhod_map(dom, FreePath(grid=grid, values=vals))
        unit = CoefficientSet(
            b=lambda t, x: np.zeros_like(x),
            sigma=lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)),
            f=None, g=None, h=None, dims=(2, 2, 0), T=1.0)
        psi, tv, _ = reference_core(unit, dom, vals[:1], 1.0, grid,
                                    np.diff(vals, axis=0)[None])
        np.testing.assert_array_equal(dec.psi, psi[0])
        np.testing.assert_array_equal(dec.total_variation, tv[0])
        assert tv[0, -1] > 0.0


class TestStepOracle:
    """One _step against one step of reference_core, bitwise, from states
    spread over the domain and its boundary."""

    @pytest.mark.parametrize("case", sorted(TestKernelOracle.CASES))
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_one_step_of_the_reference(self, case, eps):
        make_dom, make_coeffs, _ = TestKernelOracle.CASES[case]
        dom, co = make_dom(), make_coeffs()
        d, m, _ = co.dims
        rng = np.random.default_rng(6)
        lo, hi = np.asarray(dom.bbox, float)
        x0 = project(dom, rng.uniform(lo - 0.2, hi + 0.2, (256, d)))
        grid = TimeGrid(0.25, 0.3, 1)
        noise = rng.standard_normal((256, 1, m)) * np.sqrt(grid.dt)
        ref_x, ref_k, ref_dirs = reference_core(co, dom, x0, eps, grid, noise)
        X, dk, corr = _step(co, dom, x0, grid.nodes[0], grid.dt,
                            noise[:, 0] if eps > 0 else None, np.sqrt(eps))
        assert np.count_nonzero(dk > 0) > 20
        np.testing.assert_array_equal(X, ref_x[:, 1])
        np.testing.assert_array_equal(dk, ref_k[:, 1])
        dirs = np.divide(corr, dk[:, None], out=np.zeros_like(corr),
                         where=dk[:, None] > 0)
        np.testing.assert_array_equal(dirs, ref_dirs[:, 0])


class TestNonFinite:
    """The step's finiteness check, reached through every caller."""

    @staticmethod
    def inf_drift():
        """Zero drift at and above 0.4 on the interval, infinite below."""
        return replace(preset("zero-drift-unit-noise"),
                       b=lambda t, x: np.where(x < 0.4, np.inf, 0.0))

    @staticmethod
    def huge_sigma():
        """A finite sigma whose kicks overflow once |sqrt(eps) dW| > 1."""
        big = np.finfo(float).max
        return replace(preset("zero-drift-unit-noise"),
                       sigma=lambda t, x: np.full(np.shape(x) + (1,), big))

    @pytest.mark.parametrize("call", [
        lambda co, dom: integrate_reflected_sde(
            co, dom, 0.0, [0.3], 0.1, TimeGrid(0.0, 1.0, 8), trajectory_rng(1)),
        lambda co, dom: simulate_reflected_batch(
            co, dom, 0.0, [0.3], 0.1, TimeGrid(0.0, 1.0, 8), 1, 4),
        # the skeleton from 0.5 stays finite; the noisy paths go below 0.4
        lambda co, dom: convergence_study(
            "X4", co, dom, 0.0, [0.5], [0.4, 0.2, 0.1, 0.05], 1000,
            TimeGrid(0.0, 1.0, 16), 3),
        lambda co, dom: solve_bsde_grid(
            co, dom, 0.1, TimeGrid(0.0, 1.0, 2), make_lattice(dom, 5), 64, 3),
    ])
    def test_infinite_drift(self, call):
        with pytest.raises(NumericalBlowup, match="non-finite drift"):
            call(self.inf_drift(), unit_interval())

    KICKS = [
        lambda co, dom: simulate_reflected_batch(
            co, dom, 0.0, [0.5], 1.0, TimeGrid(0.0, 1.0, 4), 1, 64),
        lambda co, dom: solve_bsde_grid(
            co, dom, 1.0, TimeGrid(0.0, 1.0, 2), make_lattice(dom, 5), 64, 3),
    ]

    @pytest.mark.parametrize("call", KICKS)
    def test_overflowing_kick(self, call):
        with pytest.raises(NumericalBlowup, match="non-finite state proposal"):
            call(self.huge_sigma(), unit_interval())

    @pytest.mark.parametrize("call", KICKS)
    def test_overflowing_kick_warns_nothing(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowup,
                               match="non-finite state proposal"):
                call(self.huge_sigma(), unit_interval())

    def test_finite_proposals_with_an_overflowing_sum_pass_silently(self):
        """64 finite proposals near -1e307 sum past the largest float; the
        finiteness check passes them without a warning."""
        co = replace(preset("zero-drift-unit-noise"),
                     sigma=lambda t, x: np.full(np.shape(x) + (1,), 1e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, dk, _ = _step(co, unit_interval(), np.full((64, 1), 0.5), 0.0,
                             0.25, np.full((64, 1), -1.0), 1.0)
        assert X.tolist() == [[0.0]] * 64
        assert dk.tolist() == [1e307] * 64

    def test_huge_correction_books_a_finite_dk(self):
        """A finite proposal near -max float projects onto 0 and books its
        finite distance, with no overflow warning (dk used to be inf)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, dk, _ = _step(self.huge_sigma(), unit_interval(),
                             np.array([[0.5]]), 0.0, 0.25,
                             np.array([[-1.0]]), 1.0)
        assert X.tolist() == [[0.0]]
        assert dk.tolist() == [np.finfo(float).max]

    def test_huge_disc_kick_lands_on_the_circle(self):
        """sigma = 1e200 I on the disc: the proposal's squared norm
        overflows, and the step still lands it on the circle, with a finite
        dk and no warning (the projection used to send it to the centre)."""
        co = replace(preset("ou-in-ball", {"theta": 0.0}),
                     sigma=lambda t, x: 1e200 * np.broadcast_to(
                         np.eye(2), np.shape(x) + (2,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, dk, _ = _step(co, unit_disc(),
                             np.array([[0.5, 0.0], [0.0, 0.5]]), 0.0, 0.25,
                             np.array([[1.0, 0.0], [-3.0, 4.0]]), 1.0)
        np.testing.assert_allclose(X, [[1.0, 0.0], [-0.6, 0.8]], rtol=1e-15)
        np.testing.assert_allclose(dk, [1e200, 5e200], rtol=1e-15)


def norm_formula(v):
    """_norm as a generator sum of squares, rescaled by the largest
    component where the squares overflow: the oracle of the in-place
    sum."""
    d = v.shape[-1]
    if d == 1:
        return np.abs(v[..., 0])
    with np.errstate(over="ignore"):
        out = np.sqrt(sum(v[..., j] ** 2 for j in range(d)))
    big = np.isinf(out)
    if big.any():
        out = np.array(out)
        big &= np.isfinite(v).all(axis=-1)
        w = v[big]
        m = np.abs(w).max(axis=-1)
        out[big] = m * np.sqrt(sum((w[..., j] / m) ** 2 for j in range(d)))
    return out


class TestNorm:
    """_norm against np.linalg.norm, and past the overflow of the squares."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_bitwise_equal_to_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        v = rng.standard_normal((500, d)) * 10.0 ** rng.integers(
            -150, 150, (500, 1))
        np.testing.assert_array_equal(_norm(v), np.linalg.norm(v, axis=-1))

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_bitwise_equal_to_the_generator_sum(self, d):
        rng = np.random.default_rng(40 + d)
        v = rng.standard_normal((300, d)) * 10.0 ** rng.integers(
            -160, 160, (300, 1))
        special = [1e200, -1e200, np.nan, np.inf, -np.inf, -0.0, 0.0,
                   np.finfo(float).max, 5e-324]
        v[:90] = rng.choice(special, (90, d))     # random mixes of them
        v[90:100] = -0.0
        v[100:110, 0] = 1e200                    # rows that overflow
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # norms past the largest float
            got = _norm(v)
            want = norm_formula(v)
            assert got.tobytes() == want.tobytes()
            for row in v[:110]:                     # 0-d results
                one = _norm(row)
                assert np.ndim(one) == 0
                assert np.float64(one).tobytes() == np.float64(
                    norm_formula(row)).tobytes()
            for lead in ((4, 75), (2, 3, 50)):
                stack = v.reshape(lead + (d,))
                assert _norm(stack).tobytes() == norm_formula(stack).tobytes()

    def test_overflowing_squares_rescale(self):
        big = np.finfo(float).max
        v = np.array([[3e200, -4e200], [big, 0.0], [0.0, -big], [3.0, 4.0],
                      [np.inf, 1.0], [big, big]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the last norm does overflow
            out = _norm(v)
        np.testing.assert_allclose(out, [5e200, big, big, 5.0, np.inf, np.inf],
                                   rtol=1e-15)
        assert np.isnan(_norm(np.array([[np.nan, 1.0]]))).all()

    def test_single_vector_past_overflow(self):
        # a (d,) vector gives a 0-d result, which the rescaling writes into
        assert _norm(np.array([1e200, 0.0])) == 1e200
        assert _norm(np.array([-3e200, 4e200])) == pytest.approx(5e200,
                                                                 rel=1e-15)
        assert _norm(np.array([3.0, 4.0])) == 5.0

    def test_huge_disc_start_raises_start_outside(self):
        # the disc's signed distance at |x| = 1e200 is -1e200, not an
        # overflow warning
        with pytest.raises(StartOutsideDomain):
            simulate_reflected_batch(outward_drift_ball(), unit_disc(), 0.0,
                                     [1e200, 0.0], 0.1, TimeGrid(0.0, 1.0, 4),
                                     1, 4)


def block_rows(seed, key, n, m, dt):
    """The (G, n, m) increments of block stream key: its step-major
    (n, G, m) draws, scaled by sqrt(dt), path-major."""
    draws = trajectory_rng(seed, key).standard_normal((n, _BLOCK_PATHS, m))
    return (draws * np.sqrt(dt)).swapaxes(0, 1)


class TestStreams:
    """Path noise comes from block streams keyed by (seed, index) alone:
    path j of a key prefix is row j % G of the stream prefix + (j // G,)."""

    def test_batch_row_is_the_single_trajectory(self):
        # a batch of one full and one partial block, from the second block
        dom, co = unit_interval(), preset("constant-drift", params={"v": 1.0})
        grid = TimeGrid(0.0, 1.0, 64)
        n_paths = _BLOCK_PATHS + 5
        xp, kp = prefix_paths(co, dom, [0.5], 0.2, grid, 13, n_paths,
                              prefix=(2, 1), first=_BLOCK_PATHS)
        rows = np.concatenate([block_rows(13, (2, 1, b), 64, 1, grid.dt)
                               for b in (1, 2)])
        for j in (0, 1, _BLOCK_PATHS - 1, _BLOCK_PATHS, n_paths - 1):
            ref = reference_core(co, dom, np.array([[0.5]]), 0.2, grid,
                                 rows[j][None])
            np.testing.assert_array_equal(xp[j], ref[0][0])
            np.testing.assert_array_equal(kp[j], ref[1][0])

    @pytest.mark.parametrize("seed, prefix, first", [
        (21, (4,), 3), (7, (), 0), (2024, (1, 2**40), 2**31),
        (2**200 + 5, (0, 0), 17), ([1, 2**33], (4,), 0),
        (5, (2,), 2**32 - 3)])
    def test_rows_equal_per_index_draws(self, seed, prefix, first,
                                        monkeypatch):
        # blocks first and first + 1, the second cut to 5 rows, drawn 3
        # steps at a time: the chunks are the blocks' rows, step-major
        monkeypatch.setattr(forward, "_CHUNK_STEPS", 3)
        blocks = [(prefix + (first,), _BLOCK_PATHS),
                  (prefix + (first + 1,), 5)]
        chunks = [c.copy() for c in _block_noise(seed, blocks, 10, 2, 0.25)]
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        ref = np.concatenate([block_rows(seed, key, 10, 2, 0.25)[:rows]
                              for key, rows in blocks])
        np.testing.assert_array_equal(np.concatenate(chunks).swapaxes(0, 1),
                                      ref)

    def test_block_rejects_a_negative_index(self):
        with pytest.raises(ValueError):
            next(_block_noise(3, [((1, -1), 4)], 4, 1, 0.5))

    @pytest.mark.parametrize("n", [2.0, True, 0, -3])
    def test_n_paths_must_be_a_count(self, n):
        with pytest.raises(ValueError, match="n_paths must be"):
            simulate_reflected_batch(preset("zero-drift-unit-noise"),
                                     unit_interval(), 0.0, [0.5], 0.1,
                                     TimeGrid(0.0, 1.0, 4), 3, n)

    def test_int_index_is_a_one_tuple(self):
        np.testing.assert_array_equal(
            trajectory_rng(8, 5).standard_normal(16),
            trajectory_rng(8, (5,)).standard_normal(16))

    @pytest.mark.parametrize("other", [(3, 8), (3, 6), (2, 7), (4, 7),
                                       (7,), (3, 7, 0)])
    def test_neighbouring_keys_differ(self, other):
        base = trajectory_rng(17, (3, 7)).standard_normal(64)
        draws = trajectory_rng(17, other).standard_normal(64)
        assert not np.any(draws == base)
        other_seed = trajectory_rng(18, (3, 7)).standard_normal(64)
        assert not np.any(other_seed == base)

    def test_pooled_moments_and_cross_row_correlation(self):
        def rows(prefix):   # 4000 paths x 32 steps, path-major
            chunks = _block_noise(2024, _blocks(prefix, 4000), 32, 1, 1.0)
            return np.concatenate([c.copy() for c in chunks])[..., 0].T
        first = rows((1,))
        n = first.size
        assert abs(first.mean()) <= 5.0 / np.sqrt(n)
        assert abs(first.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
        for lag in (first[1:] * first[:-1], first[:, 1:] * first[:, :-1]):
            assert abs(lag.mean()) <= 5.0 / np.sqrt(lag.size)
        across = rows((2,)) * first
        assert abs(across.mean()) <= 5.0 / np.sqrt(across.size)


class TestStreamStates:
    """Each block of a noise draw is seeded as trajectory_rng(seed, key):
    its rows are that stream's step-major draws, and the generator it keeps
    from chunk to chunk stays in that stream's state."""

    @staticmethod
    def check(seed, prefix, keys, rows=3, n=6):
        blocks = [(prefix + tuple(key), rows) for key in keys]
        chunks = [c.copy() for c in _block_noise(seed, blocks, n, 2, 0.25)]
        got = np.concatenate(chunks).swapaxes(0, 1)
        assert got.shape == (len(keys) * rows, n, 2)
        ref = np.concatenate([block_rows(seed, key, n, 2, 0.25)[:rows]
                              for key, _ in blocks])
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("seed, prefix", [
        (29, ()), (2**64 + 5, ()), ([1, 2**33], ()), (2**200 + 5, ()),
        (7, (3,)), (2024, (1, 2**40))])
    def test_two_word_keys(self, seed, prefix):
        self.check(seed, prefix, [(i, j) for i in (0, 1, 5, 2**32 - 1)
                                  for j in (0, 2, 80, 2**31)])

    def test_three_word_keys(self):
        self.check(11, (), [(0, 0, 0), (4, 0, 9), (0, 9, 4), (2**32 - 1,) * 3])

    def test_key_word_past_32_bits(self):
        self.check(5, (2,), [(0, 2**32), (3, 1), (2**40 + 7, 0)])

    @pytest.mark.parametrize("keys", [[(0, 1), (2, -1)], [(-3, 0)],
                                      [(2**33, 0), (0, -1)]])
    def test_negative_word_raises(self, keys):
        with pytest.raises(ValueError):
            next(_block_noise(3, [(key, 2) for key in keys], 4, 1, 0.5))

    def test_drawn_rows_are_the_streams(self):
        # block k gives its first k + 1 rows, each the stream's column
        keys = [(i, j) for i in range(3) for j in range(4)]
        blocks = [(key, k + 1) for k, key in enumerate(keys)]
        (chunk,) = _block_noise(29, blocks, 16, 2, 0.25)
        row = 0
        for key, rows in blocks:
            draws = trajectory_rng(29, key).standard_normal(
                (16, _BLOCK_PATHS, 2))
            np.testing.assert_array_equal(chunk[:, row:row + rows],
                                          draws[:, :rows] * 0.5)
            row += rows

    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 53])
    def test_step_major_rows_are_the_streams(self, rows, monkeypatch):
        # blocks 1 and 2 of prefix (4,), the second cut to rows, drawn 5
        # steps at a time into one buffer: path j of the chunks is row
        # j % G of block j // G
        monkeypatch.setattr(forward, "_CHUNK_STEPS", 5)
        n_paths = _BLOCK_PATHS + rows
        blocks = _blocks((4,), n_paths, _BLOCK_PATHS)
        assert blocks == [((4, 1), _BLOCK_PATHS), ((4, 2), rows)]
        chunks = list(_block_noise(31, blocks, 12, 2, 0.25))
        assert [c.shape for c in chunks] == [(5, n_paths, 2), (5, n_paths, 2),
                                             (2, n_paths, 2)]
        assert all(np.shares_memory(c, chunks[0]) for c in chunks)
        steps = [c.copy() for c in _block_noise(31, blocks, 12, 2, 0.25)]
        out = np.concatenate(steps)
        draws = {b: trajectory_rng(31, (4, b)).standard_normal(
            (12, _BLOCK_PATHS, 2)) for b in (1, 2)}
        for j in range(n_paths):
            b, r = divmod(_BLOCK_PATHS + j, _BLOCK_PATHS)
            np.testing.assert_array_equal(out[:, j],
                                          draws[b][:, r] * np.sqrt(0.25))

    def test_state_written_in_place_is_the_streams_state(self, monkeypatch):
        # after drawing 10 steps 3 at a time into the reused buffer, each
        # block's generator is where one draw of (10, G, m) leaves the
        # stream, however few of its rows were used
        made = []

        def recording_rng(seed, index=0):
            made.append((index, trajectory_rng(seed, index)))
            return made[-1][1]

        monkeypatch.setattr(forward, "trajectory_rng", recording_rng)
        monkeypatch.setattr(forward, "_CHUNK_STEPS", 3)
        for _ in _block_noise(29, [((3, 0), 1), ((3, 7), 5)], 10, 1, 0.5):
            pass
        assert [key for key, _ in made] == [(3, 0), (3, 7)]
        for key, gen in made:
            rng = trajectory_rng(29, key)
            rng.standard_normal((10, _BLOCK_PATHS, 1))
            assert gen.bit_generator.state == rng.bit_generator.state
            gen.standard_normal(37)
            rng.standard_normal(37)
            assert gen.bit_generator.state == rng.bit_generator.state

    def test_slots_that_share_a_key_get_its_rows(self, monkeypatch):
        # key (3, 0) carries a slot of 5 rows and one of 2, around a block
        # of another key: the stream is seeded once, and both slots get its
        # first rows bitwise, in every chunk of 3 steps
        made = []

        def recording_rng(seed, index=0):
            made.append(index)
            return trajectory_rng(seed, index)

        monkeypatch.setattr(forward, "trajectory_rng", recording_rng)
        monkeypatch.setattr(forward, "_CHUNK_STEPS", 3)
        blocks = [((3, 0), 5), ((3, 1), 3), ((3, 0), 2)]
        got = np.concatenate([c.copy() for c in
                              _block_noise(29, blocks, 10, 2, 0.5)])
        assert made == [(3, 0), (3, 1)]
        assert got.shape == (10, 10, 2)
        assert got[:, 8:].tobytes() == got[:, :2].tobytes()
        for key, rows, at in (((3, 0), 5, 0), ((3, 1), 3, 5),
                              ((3, 0), 2, 8)):
            ref = block_rows(29, key, 10, 2, 0.5)[:rows].swapaxes(0, 1)
            assert got[:, at:at + rows].tobytes() == ref.tobytes()

    def test_none_key_rows_stay_zero_and_draw_no_stream(self, monkeypatch):
        # a block keyed None is drawn by no stream: its rows are zero in
        # every chunk, and the other blocks' rows are as drawn without it
        made = []

        def recording_rng(seed, index=0):
            made.append(index)
            return trajectory_rng(seed, index)

        monkeypatch.setattr(forward, "_CHUNK_STEPS", 4)
        blocks = [((3, 0), 2), ((3, 1), 3)]
        ref = np.concatenate([c.copy() for c in
                              _block_noise(29, blocks, 10, 2, 0.5)])
        monkeypatch.setattr(forward, "trajectory_rng", recording_rng)
        mixed = [(None, 1), blocks[0], (None, 2), blocks[1]]
        got = np.concatenate([c.copy() for c in
                              _block_noise(29, mixed, 10, 2, 0.5)])
        assert made == [(3, 0), (3, 1)]
        assert got.shape == (10, 8, 2)
        assert not got[:, [0, 3, 4]].any()
        np.testing.assert_array_equal(got[:, [1, 2, 5, 6, 7]], ref)


def test_time_grid_nodes_built_once_and_read_only():
    grid = TimeGrid(0.0, 1.0, 8)
    nodes = grid.nodes
    assert nodes is grid.nodes
    np.testing.assert_array_equal(nodes, np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        nodes[3] = 0.0
    with pytest.raises(ValueError):
        grid.nodes += 1.0
    np.testing.assert_array_equal(grid.nodes, np.linspace(0.0, 1.0, 9))


@pytest.mark.parametrize("s, T", [(0.0, float("inf")), (-float("inf"), 1.0),
                                  (float("nan"), 1.0), (0.0, float("nan"))])
def test_time_grid_rejects_non_finite_ends(s, T):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(s, T, 8)


@pytest.mark.parametrize("n", [4.5, 4.0, True, False, "4", None])
def test_time_grid_rejects_a_step_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="n_steps must be an int"):
        TimeGrid(0.0, 1.0, n)


@pytest.mark.parametrize("n", [0, -3, np.int64(0)])
def test_time_grid_rejects_fewer_than_one_step(n):
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        TimeGrid(0.0, 1.0, n)


def test_time_grid_takes_numpy_ints():
    assert TimeGrid(0.0, 1.0, np.int64(4)).dt == 0.25


class TestStartTime:
    """Every integrator runs on its grid, so a start time s other than the
    grid's start is rejected rather than ignored."""

    GRID = TimeGrid(0.0, 1.0, 16)

    @pytest.mark.parametrize("call", [
        lambda co, dom, s, g: integrate_reflected_sde(co, dom, s, [0.5], 0.0, g),
        lambda co, dom, s, g: integrate_skeleton_ode(co, dom, s, [0.5], g),
        lambda co, dom, s, g: simulate_reflected_batch(co, dom, s, [0.5], 0.1,
                                                       g, 1, 4),
    ])
    def test_start_other_than_grid_start_raises(self, call):
        co, dom = preset("zero-drift-unit-noise"), unit_interval()
        with pytest.raises(ValueError, match="grid's start"):
            call(co, dom, 0.7, self.GRID)
        call(co, dom, 0.0, self.GRID)
        call(co, dom, 0.5, TimeGrid(0.5, 1.0, 16))


class TestStartInDomain:
    """A reflected path starts in the closed domain: a start outside it is
    rejected rather than projected at the first step and booked into K."""

    GRID = TimeGrid(0.0, 1.0, 16)
    CALLS = {
        "reflected": lambda co, dom, x, g: integrate_reflected_sde(
            co, dom, 0.0, x, 0.1, g, trajectory_rng(1)),
        "skeleton": lambda co, dom, x, g: integrate_skeleton_ode(
            co, dom, 0.0, x, g),
        "batch": lambda co, dom, x, g: simulate_reflected_batch(
            co, dom, 0.0, x, 0.1, g, 1, 4),
    }
    DOMAINS = {
        "interval": (unit_interval, "zero-drift-unit-noise", {},
                     [[2.5], [-3.0], [1.0 + 1e-6]], [[0.0], [1.0]]),
        "disc": (lambda: make_domain("ball", center=[0.0, 0.0], radius=1.0),
                 "ou-in-ball", {"theta": 1.0},
                 [[1.2, 0.0], [0.8, 0.8]], [[1.0, 0.0], [0.0, -1.0]]),
    }

    @pytest.mark.parametrize("case", sorted(DOMAINS))
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_start_outside_raises_and_boundary_start_runs(self, call, case):
        make_dom, name, params, outside, boundary = self.DOMAINS[case]
        co, dom = preset(name, params), make_dom()
        for x in outside:
            with pytest.raises(StartOutsideDomain, match="outside"):
                self.CALLS[call](co, dom, x, self.GRID)
        for x in boundary:
            self.CALLS[call](co, dom, x, self.GRID)

    @pytest.mark.parametrize("case", sorted(DOMAINS))
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_finite_start_raises(self, call, case):
        make_dom, name, params, _, boundary = self.DOMAINS[case]
        co, dom = preset(name, params), make_dom()
        for bad in (np.nan, np.inf):
            x = np.array(boundary[0], float)
            x[-1] = bad
            with pytest.raises(StartOutsideDomain, match="outside"):
                self.CALLS[call](co, dom, x, self.GRID)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_failure_messages_are_unchanged(self, call):
        # the message is formatted only when the check fails, as the
        # f-string it was: the start as numpy prints it
        co = preset("ou-in-ball", {"theta": 1.0})
        dom = self.DOMAINS["disc"][0]()
        for x, text in (([1.2, 0.0], "[1.2 0. ]"),
                        ([1.0, np.nan], "[ 1. nan]"),
                        ([-0.0, 1e200], "[-0.e+000  1.e+200]")):
            with pytest.raises(StartOutsideDomain) as exc:
                self.CALLS[call](co, dom, x, self.GRID)
            assert str(exc.value) == f"start {text} lies outside the domain"
        with pytest.raises(StartOutsideDomain) as exc:
            self.CALLS[call](preset("zero-drift-unit-noise"), unit_interval(),
                             2.5, self.GRID)
        assert str(exc.value) == "start [2.5] lies outside the domain"

    def test_skorokhod_map_rejects_a_nan_start(self):
        vals = np.full((self.GRID.n_steps + 1, 1), 0.5)
        vals[0, 0] = np.nan
        with pytest.raises(StartOutsideDomain, match="closed domain"):
            skorokhod_map(unit_interval(), FreePath(grid=self.GRID,
                                                    values=vals))


class TestStartDimension:
    """A start with as many coordinates as neither the domain nor the
    coefficients is rejected by name, not broadcast or read in part."""

    GRID = TimeGrid(0.0, 1.0, 8)
    CALLS = TestStartInDomain.CALLS
    CASES = {
        "interval": (unit_interval, ("constant-drift", {"v": 1.0}),
                     [[0.5, 2.0], [0.5, 0.5], [], [[0.5]]]),
        "disc": (unit_disc, ("ou-in-ball", {"theta": 1.0}),
                 [[0.5], [0.5, 0.0, 0.0]]),
        "disc, 1D coefficients": (unit_disc, ("constant-drift", {"v": 1.0}),
                                  [[0.5], [0.5, 0.0]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_wrong_dimension_raises(self, call, case):
        make_dom, (name, params), starts = self.CASES[case]
        co, dom = preset(name, params), make_dom()
        for x in starts:
            with pytest.raises(ValueError, match=(
                    rf"has {np.size(x)} coordinates; the domain has "
                    rf"{dom.dimension} and the coefficients {co.dims[0]}")):
                self.CALLS[call](co, dom, x, self.GRID)


class TestKernelRowsAndReducers:
    """One epsilon per row, and reducers in place of stored paths."""

    CASES = TestKernelOracle.CASES
    EPS = np.repeat([0.3, 0.05, 0.0125, 0.3], [5, 7, 4, 3])

    def _inputs(self, case):
        make_dom, make_coeffs, x = self.CASES[case]
        dom, co = make_dom(), make_coeffs()
        grid = TimeGrid(0.0, 1.0, 120)
        d, m, _ = co.dims
        B = self.EPS.size
        x0 = np.broadcast_to(np.asarray(x, float), (B, d)).copy()
        noise = (np.random.default_rng(8).standard_normal((B, 120, m))
                 * np.sqrt(grid.dt))
        return co, dom, x0, grid, noise

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_row_epsilon_equals_scalar_calls(self, case):
        co, dom, x0, grid, noise = self._inputs(case)
        got = _reflected_core(co, dom, x0, self.EPS, grid, noise, _dirs=True)
        assert np.count_nonzero(np.diff(got[1], axis=1) > 0) > 100
        for e in np.unique(self.EPS):
            rows = self.EPS == e
            ref = _reflected_core(co, dom, x0[rows], float(e), grid,
                                  noise[rows], _dirs=True)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a[rows], b)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reducers_see_every_node_of_the_stored_paths(self, case):
        co, dom, x0, grid, noise = self._inputs(case)
        xp, kp, _ = _reflected_core(co, dom, x0, self.EPS, grid, noise)
        seen = []
        xs, ks, dirs = _reflected_core(
            co, dom, x0, self.EPS, grid, noise,
            reducers=(lambda i, X, K: seen.append((i, X.copy(), K.copy())),))
        assert dirs is None
        assert [i for i, _, _ in seen] == list(range(grid.n_steps + 1))
        np.testing.assert_array_equal(np.stack([X for _, X, _ in seen], 1), xp)
        np.testing.assert_array_equal(np.stack([K for _, _, K in seen], 1), kp)
        np.testing.assert_array_equal(xs, xp[:, -1])
        np.testing.assert_array_equal(ks, kp[:, -1])

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_every_row_epsilon_checked(self, bad):
        co, dom, x0, grid, noise = self._inputs("interval")
        eps = self.EPS.copy()
        eps[-1] = bad
        with pytest.raises(ValueError, match="epsilon"):
            _reflected_core(co, dom, x0, eps, grid, noise)
