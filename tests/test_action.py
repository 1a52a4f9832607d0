"""Rate functional evaluation, endpoint minimization, contracted rate."""

from dataclasses import replace

import numpy as np
import pytest

from reflectal import action
from reflectal.action import (OptimizerOptions, _action_terms, _fd_gradient,
                              _FD_REL_STEP, _projected_descent,
                              contracted_rate, evaluate_action,
                              minimize_action_endpoint)
from reflectal.backward import apply_pi, limit_value_field, make_lattice
from reflectal.coefficients import CoefficientSet, preset
from reflectal.errors import (ConstraintInfeasible, InfeasiblePath,
                              SingularDiffusion)
from reflectal.forward import TimeGrid, integrate_skeleton_ode
from reflectal.geometry import make_domain, project
from reflectal.harness import fit_loglog


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def scaled_sigma_set(c):
    return CoefficientSet(
        b=lambda t, x: np.zeros_like(np.asarray(x, float)),
        sigma=lambda t, x: c * np.ones(np.asarray(x, float).shape[:-1] + (1, 1)),
        f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
        g=lambda t, x, y: np.zeros_like(np.asarray(y, float)),
        h=lambda x: np.asarray(x, float).copy(),
        dims=(1, 1, 1), T=1.0, name=f"sigma-{c}")


def lambda_scan_action(coeffs, domain, path, grid, n_lambda=4001, lam_max=20.0):
    """Independent oracle: per-step brute-force scan of the boundary
    multiplier over a dense lambda grid instead of the closed-form minimum."""
    dt = grid.dt
    ts = grid.nodes[:-1]
    left = path[:-1]
    v = (path[1:] - path[:-1]) / dt
    r = v - coeffs.b(ts, left)
    sig = coeffs.sigma(ts, left)
    a = sig @ np.swapaxes(sig, -1, -2)
    ainv = np.linalg.inv(a)
    nvec = domain.grad_phi(path[1:])
    on_bdry = np.abs(domain.signed_distance(path[1:])) <= domain.boundary_tol
    lams = np.linspace(0.0, lam_max, n_lambda)
    total = 0.0
    for i in range(grid.n_steps):
        if on_bdry[i]:
            resid = r[i][None, :] - lams[:, None] * nvec[i][None, :]
            vals = np.einsum("li,ij,lj->l", resid, ainv[i], resid)
            total += float(vals.min())
        else:
            total += float(r[i] @ ainv[i] @ r[i])
    return 0.5 * dt * total


def dp_endpoint_oracle(b_const, x0, x1, T, n_t=25, n_x=241):
    """Independent oracle for the 1D pinned-endpoint minimum of
    0.5 * int (psi' - b)^2 dt on [0,1]: dynamic programming over a dense
    (t, x) lattice with full transition scan."""
    xs = np.linspace(0.0, 1.0, n_x)
    dt = T / n_t
    v = np.full(n_x, np.inf)
    v[int(np.argmin(np.abs(xs - x1)))] = 0.0
    step_cost = 0.5 * dt * ((xs[None, :] - xs[:, None]) / dt - b_const) ** 2
    for _ in range(n_t):
        v = np.min(step_cost + v[None, :], axis=1)
    return float(v[int(np.argmin(np.abs(xs - x0)))])


class TestEvaluateAction:
    def test_interior_straight_line(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 200)
        path = (0.25 + 0.5 * grid.nodes)[:, None]
        res = evaluate_action(co, dom, path, grid)
        assert abs(res.action - 0.125) <= 1e-10
        assert res.feasible
        assert abs(res.action - 0.5 * grid.dt * res.integrand.sum()) <= 1e-12
        np.testing.assert_allclose(res.phi, res.psi, atol=1e-15)

    def test_zero_sigma_is_singular(self):
        co = preset("zero-drift-unit-noise")
        co = replace(co, sigma=lambda t, x: np.zeros(np.shape(x) + (1,)))
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(SingularDiffusion):
            evaluate_action(co, unit_interval(), np.full((9, 1), 0.5), grid)

    def test_skeleton_costs_zero(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5],
                                      TimeGrid(0.0, 1.0, 512))
        res = evaluate_action(co, dom, skel)
        assert res.action <= 1e-10

    def test_boundary_slide_matches_lambda_scan_oracle(self):
        # move to the boundary of the ball, then slide along the arc
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        co = CoefficientSet(
            b=lambda t, x: np.zeros_like(np.asarray(x, float)),
            sigma=lambda t, x: np.broadcast_to(
                np.eye(2), np.asarray(x, float).shape[:-1] + (2, 2)).copy(),
            f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
            g=lambda t, x, y: np.zeros_like(np.asarray(y, float)),
            h=lambda x: np.asarray(x, float)[..., :1].copy(),
            dims=(2, 2, 1), T=1.0, name="ball-free")
        n = 80
        grid = TimeGrid(0.0, 1.0, n)
        t = grid.nodes
        radial = np.minimum(2.0 * t, 1.0)          # reach r=1 at t=0.5
        angle = np.maximum(t - 0.5, 0.0) * 1.0     # then slide along the arc
        path = np.stack([radial * np.cos(angle), radial * np.sin(angle)],
                        axis=-1)
        res = evaluate_action(co, dom, path, grid)
        # oracle at 10x time resolution on the linearly refined path
        fine = TimeGrid(0.0, 1.0, 10 * n)
        ref = np.stack([np.interp(fine.nodes, t, path[:, 0]),
                        np.interp(fine.nodes, t, path[:, 1])], axis=-1)
        oracle = lambda_scan_action(co, dom, ref, fine)
        assert res.action == pytest.approx(oracle, rel=0.02)
        # and the per-step closed-form minimum is never beaten by the scan
        same_grid = lambda_scan_action(co, dom, path, grid)
        assert res.action <= same_grid + 1e-9

    def test_infeasible_path_rejected(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(InfeasiblePath):
            evaluate_action(co, dom, np.full((5, 1), 1.4), grid)

    def test_nonnegativity(self):
        dom = unit_interval()
        co = preset("linear-drift")
        grid = TimeGrid(0.0, 1.0, 64)
        rng = np.random.default_rng(3)
        for _ in range(20):
            path = np.clip(0.5 + np.cumsum(rng.standard_normal(65)) * 0.02,
                           0.0, 1.0)[:, None]
            res = evaluate_action(co, dom, path, grid)
            assert res.action >= 0.0
            assert np.all(res.integrand >= 0.0)

    def test_grid_consistency_richardson(self):
        dom = unit_interval()
        co = preset("linear-drift", params={"rate": 1.0})
        ref_grid = TimeGrid(0.0, 1.0, 8192)
        smooth = lambda t: 0.5 + 0.3 * np.sin(np.pi * t) * np.exp(-t)
        ref = evaluate_action(co, dom, smooth(ref_grid.nodes)[:, None],
                              ref_grid).action
        errs, hs = [], []
        for n in (64, 128, 256, 512):
            g = TimeGrid(0.0, 1.0, n)
            errs.append(abs(evaluate_action(co, dom, smooth(g.nodes)[:, None],
                                            g).action - ref))
            hs.append(g.dt)
        fit = fit_loglog(hs, errs)
        assert 0.8 <= fit["slope"] <= 1.2

    def test_scaling_covariance(self):
        dom = unit_interval()
        grid = TimeGrid(0.0, 1.0, 100)
        path = (0.3 + 0.4 * grid.nodes ** 2)[:, None]
        base = evaluate_action(scaled_sigma_set(1.0), dom, path, grid).action
        for c in (0.5, 2.0, 3.0):
            scaled = evaluate_action(scaled_sigma_set(c), dom, path,
                                     grid).action
            assert scaled == pytest.approx(base / c ** 2, rel=1e-12)


class TestMinimizeEndpoint:
    def test_straight_line_optimum(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        grid = TimeGrid(0.0, 1.0, 40)
        res, info = minimize_action_endpoint(co, dom, 0.0, [0.5], [0.9], 1.0,
                                             grid)
        assert res.action == pytest.approx(0.08, rel=0.01)
        straight = (0.5 + 0.4 * grid.nodes)[:, None]
        assert np.max(np.abs(res.psi - straight)) <= 1e-3
        # objective is non-increasing across accepted iterations
        vals = [v for _, v, _ in info["iterations"]]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_skeleton_endpoint_is_free(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        grid = TimeGrid(0.0, 1.0, 40)
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
        res, _ = minimize_action_endpoint(co, dom, 0.0, [0.5],
                                          skel.x_path[-1], 1.0, grid)
        assert res.action <= 1e-6

    def test_inward_drift_matches_dp_oracle(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": -1.0})
        grid = TimeGrid(0.0, 1.0, 40)
        res, _ = minimize_action_endpoint(co, dom, 0.0, [0.9], [0.95], 1.0,
                                          grid)
        oracle = dp_endpoint_oracle(-1.0, 0.9, 0.95, 1.0)
        assert res.action > 0.0
        assert res.action == pytest.approx(oracle, rel=0.02)


class TestContractedRate:
    def _field(self, co, dom, n_steps=32, nodes=33):
        times = TimeGrid(0.0, 1.0, n_steps)
        return limit_value_field(co, dom, times, make_lattice(dom, nodes)), times

    def test_skeleton_image_costs_zero(self):
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        field, times = self._field(co, dom)
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], times)
        gamma = apply_pi(field, skel.x_path)
        out = contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)
        assert out["s_prime"] <= 1e-6
        assert out["violation"] <= 1e-6

    def test_injective_u_matches_inversion_oracle(self):
        # zero drift, h(x) = x: the limit value map is u(t, x) = x, so the
        # preimage of any value path is unique and invertible by bisection
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom, n_steps=24, nodes=65)
        t = times.nodes
        psi = (0.5 + 0.2 * np.sin(np.pi * t))[:, None]
        gamma = apply_pi(field, psi)
        out = contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)

        # oracle: invert each time slice of u by bisection, then evaluate
        inverted = np.empty_like(psi)
        for i in range(t.size):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                val = apply_pi(field, np.full((t.size, 1), mid))[i, 0]
                if val < gamma[i, 0]:
                    lo = mid
                else:
                    hi = mid
            inverted[i, 0] = 0.5 * (lo + hi)
        oracle = evaluate_action(co, dom, inverted, times).action
        assert out["s_prime"] == pytest.approx(oracle, rel=0.02)

    def test_unattainable_value_path_infeasible(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom)
        gamma = np.full((times.n_steps + 1, 1), 5.0)
        with pytest.raises(ConstraintInfeasible):
            contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)

    def test_contraction_bound(self):
        # the infimum over preimages never exceeds a particular preimage cost
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom)
        t = times.nodes
        for path_fn in (lambda t: 0.5 + 0.25 * t,
                        lambda t: 0.5 + 0.15 * np.sin(2 * np.pi * t)):
            psi = path_fn(t)[:, None]
            gamma = apply_pi(field, psi)
            cost = evaluate_action(co, dom, psi, times).action
            out = contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)
            assert out["s_prime"] <= cost + 1e-6


def test_minimize_endpoint_rejects_inconsistent_T():
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="end time"):
        minimize_action_endpoint(preset("zero-drift-unit-noise"),
                                 unit_interval(), 0.0, [0.5], [0.9], 2.0, grid)


def per_node_gradient(objective, path, domain, free):
    """Oracle: the finite-difference gradient built one node and one
    coordinate at a time, each perturbed path evaluated on its own."""
    d = path.shape[1]
    fd = _FD_REL_STEP * max(domain.diameter, 1.0)
    grad = np.zeros_like(path)
    for j in free:
        for c in range(d):
            bump = np.zeros(d)
            bump[c] = fd
            p_plus = path.copy()
            p_plus[j] = project(domain, path[j] + bump)
            p_minus = path.copy()
            p_minus[j] = project(domain, path[j] - bump)
            denom = p_plus[j, c] - p_minus[j, c]
            if denom == 0.0:
                continue
            grad[j, c] = (float(objective(p_plus))
                          - float(objective(p_minus))) / denom
    return grad


def ball():
    return make_domain("ball", center=[0.0, 0.0], radius=1.0)


def batch_cases():
    """(coeffs, domain, grid, stack) per domain. Each stack mixes interior
    random paths with paths pressed against the boundary by the drift or
    sliding along it, so some steps carry a positive multiplier."""
    rng = np.random.default_rng(11)
    n = 16
    grid = TimeGrid(0.0, 1.0, n)
    t = grid.nodes
    walks = np.clip(0.5 + np.cumsum(rng.standard_normal((6, n + 1)), axis=1)
                    * 0.05, 0.0, 1.0)
    pressed = np.minimum(0.7 + 0.6 * t, 1.0)        # at b = 1 from t = 0.5
    interval = np.concatenate([walks, pressed[None]])[..., None]

    radii = np.minimum(np.linspace(0.2, 1.3, n + 1), 1.0)
    angles = rng.uniform(0.0, 2.0 * np.pi, (4, 1)) + 0.8 * t
    slides = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)],
                                       axis=-1)
    interior = 0.6 * np.tanh(np.cumsum(rng.standard_normal((3, n + 1, 2)),
                                       axis=1) * 0.2)
    discs = np.concatenate([slides, interior])
    return [(preset("constant-drift", {"v": 1.0}), unit_interval(), grid,
             interval),
            (preset("ou-in-ball", {"theta": -1.0}), ball(), grid, discs)]


class TestBatchedAction:
    @pytest.mark.parametrize("case", range(2))
    def test_stack_equals_single_paths_bitwise(self, case):
        co, dom, grid, stack = batch_cases()[case]
        got, _, lam, _ = _action_terms(co, dom, stack, grid)
        assert np.any(lam > 0) and np.any(np.all(lam == 0, axis=-1))
        want = [evaluate_action(co, dom, p, grid).action for p in stack]
        assert np.array_equal(got, want)
        # the same with an extra leading axis
        got2 = _action_terms(co, dom, stack.reshape((1,) + stack.shape),
                             grid)[0]
        assert np.array_equal(got2[0], want)

    @pytest.mark.parametrize("case", range(2))
    def test_stack_with_one_infeasible_path_rejected(self, case):
        co, dom, grid, stack = batch_cases()[case]
        bad = stack.copy()
        bad[2, 5] = 1.5
        with pytest.raises(InfeasiblePath):
            _action_terms(co, dom, bad, grid)

    @pytest.mark.parametrize("case", range(2))
    def test_gradient_equals_per_node_oracle_bitwise(self, case):
        co, dom, grid, stack = batch_cases()[case]

        def objective(p):
            return _action_terms(co, dom, p, grid)[0]

        for path in stack[[0, -4, -1]]:
            for free in (np.arange(1, grid.n_steps),
                         np.arange(1, grid.n_steps + 1)):
                got = _fd_gradient(objective, path, dom, free)
                want = per_node_gradient(objective, path, dom, free)
                assert np.any(got != 0.0)
                assert np.array_equal(got, want)

    def test_penalty_objective_gradient_bitwise(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        times = TimeGrid(0.0, 1.0, 8)
        field = limit_value_field(co, dom, times, make_lattice(dom, 9))
        gamma = 0.5 + 0.2 * times.nodes[:, None]
        path = np.clip(0.5 + 0.7 * times.nodes, 0.0, 1.0)[:, None]

        def objective(p):
            mismatch = apply_pi(field, p) - gamma
            return (_action_terms(co, dom, p, times)[0]
                    + 100.0 * np.sum(mismatch**2, axis=(-2, -1)))

        free = np.arange(1, 9)
        assert np.array_equal(_fd_gradient(objective, path, dom, free),
                              per_node_gradient(objective, path, dom, free))


def test_descent_reports_stall():
    # the finite-difference slope is 1 at every node, but the kink at the
    # start makes every step along -grad go uphill; the value 0 there keeps
    # the Armijo bound strictly negative even when the step rounds away
    dom = unit_interval()
    start = np.full((6, 1), 0.5)

    def objective(p):
        return (np.sum(p - start, axis=(-2, -1))
                + 2.0 * np.sum(np.abs(p - start), axis=(-2, -1)))

    grad = _fd_gradient(objective, start, dom, np.arange(1, 6))
    assert grad[0, 0] == 0.0
    np.testing.assert_allclose(grad[1:], 1.0, rtol=1e-6)
    path, value, log, stalled = _projected_descent(
        objective, start, dom, pin_last=False, opts=OptimizerOptions())
    assert stalled
    assert np.array_equal(path, start) and value == 0.0
    assert len(log) == 51 and all(step == 0.0 for _, _, step in log[1:])


def test_descent_stalls_when_steps_round_away():
    # the kinked objective above, shifted to start at value 3: once the step
    # rounds away the trial equals the current path, which is a rejection
    dom = unit_interval()
    start = np.full((6, 1), 0.5)

    def objective(p):
        return (3.0 + np.sum(p - start, axis=(-2, -1))
                + 2.0 * np.sum(np.abs(p - start), axis=(-2, -1)))

    path, value, log, stalled = _projected_descent(
        objective, start, dom, pin_last=False, opts=OptimizerOptions())
    assert stalled
    assert np.array_equal(path, start) and value == 3.0
    assert len(log) == action._STALL_LIMIT + 1
    assert all(step == 0.0 for _, _, step in log[1:])


def test_contracted_rate_reports_stall_flag(monkeypatch):
    dom = unit_interval()
    co = preset("zero-drift-unit-noise")
    times = TimeGrid(0.0, 1.0, 4)
    field = limit_value_field(co, dom, times, make_lattice(dom, 5))
    gamma = apply_pi(field, np.full((5, 1), 0.5))
    out = contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)
    assert out["stalled"] is False

    # a stall in any one penalty stage is reported
    stages = []

    def third_stage_stalls(*args, **kwargs):
        path, value, log, _ = _projected_descent(*args, **kwargs)
        stages.append(len(stages))
        return path, value, log, len(stages) == 3

    monkeypatch.setattr(action, "_projected_descent", third_stage_stalls)
    out = contracted_rate(co, dom, field, gamma, 0.0, [0.5], times)
    assert len(stages) == 5 and out["stalled"] is True
