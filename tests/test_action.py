"""Rate functional evaluation, endpoint minimization, contracted rate."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reflectal import action, harness
from reflectal.action import (OptimizerOptions, _action_terms, _objective,
                              _projected_descent, contracted_rate,
                              evaluate_action, minimize_action_endpoint)
from reflectal.backward import (_pi_reader, apply_pi, limit_value_field,
                                make_lattice)
from reflectal.coefficients import CoefficientSet, preset
from reflectal.errors import (ConstraintInfeasible, InfeasiblePath,
                              SingularDiffusion)
from reflectal.forward import TimeGrid, integrate_skeleton_ode
from reflectal.geometry import make_domain, project
from reflectal.harness import fit_loglog

from oracles import linear_drift_optimum


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

    def test_trajectory_with_foreign_grid_raises(self):
        # the v = 1 skeleton costs 0 on its own grid; a grid of the same
        # step count but twice the horizon would read it at 0.1875
        dom = unit_interval()
        co = preset("constant-drift", params={"v": 1.0})
        grid = TimeGrid(0.0, 1.0, 8)
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.2], grid)
        own = evaluate_action(co, dom, skel).action
        assert own <= 1e-30
        assert evaluate_action(co, dom, skel, TimeGrid(0, 1, 8)).action == own
        with pytest.raises(ValueError, match="trajectory's grid"):
            evaluate_action(co, dom, skel, TimeGrid(0.0, 2.0, 8))
        assert evaluate_action(co, dom, skel.x_path,
                               TimeGrid(0.0, 2.0, 8)).action == pytest.approx(
                                   0.1875, rel=1e-12)

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


class TestOptimizerOptions:
    @pytest.mark.parametrize("kwargs", [
        {"max_iter": -3}, {"max_iter": 2.5}, {"max_iter": 50.0},
        {"max_iter": True}, {"max_iter": "50"}, {"grad_tol": -1.0},
        {"grad_tol": np.nan}, {"grad_tol": np.inf}, {"grad_tol": True},
        {"grad_tol": False}, {"grad_tol": np.True_}, {"grad_tol": "1e-10"},
        {"grad_tol": None}])
    def test_invalid_options_raise(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {}, {"max_iter": 0}, {"max_iter": 50}, {"max_iter": np.int64(7)},
        {"grad_tol": 0.0, "max_iter": 20}, {"grad_tol": 1}])
    def test_valid_options_kept(self, kwargs):
        opts = OptimizerOptions(**kwargs)
        assert all(getattr(opts, k) == v for k, v in kwargs.items())


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

    def test_target_outside_domain_raises(self):
        # the cost to y = 1.7 is infinite; it is not the cost to y's
        # projection 1.0, which is 0.125
        co, dom = preset("zero-drift-unit-noise"), unit_interval()
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(InfeasiblePath, match="target"):
            minimize_action_endpoint(co, dom, 0.0, 0.5, 1.7, 1.0, grid)
        res, _ = minimize_action_endpoint(co, dom, 0.0, 0.5, 1.0, 1.0, grid)
        assert res.psi[-1, 0] == 1.0
        assert res.action == pytest.approx(0.125, rel=1e-6)

    def test_target_outside_message_is_unchanged(self):
        # formatted only when the check fails, as the f-string it was
        disc = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        co = preset("ou-in-ball", {"theta": 1.0})
        grid = TimeGrid(0.0, 1.0, 8)
        for y, text in (([1.2, 0.0], "[1.2 0. ]"),
                        ([1.0, np.nan], "[ 1. nan]"),
                        ([-0.0, 1e200], "[-0.e+000  1.e+200]")):
            with pytest.raises(InfeasiblePath) as exc:
                minimize_action_endpoint(co, disc, 0.0, [0.0, 0.0], y, 1.0,
                                         grid)
            assert str(exc.value) == f"target {text} lies outside the domain"
        with pytest.raises(InfeasiblePath) as exc:
            minimize_action_endpoint(preset("zero-drift-unit-noise"),
                                     make_domain("interval", a=0.0, b=1.0),
                                     0.0, 0.5, 1.7, 1.0, grid)
        assert str(exc.value) == "target [1.7] lies outside the domain"

    def test_target_of_other_dimension_raises(self):
        co, dom = preset("zero-drift-unit-noise"), unit_interval()
        with pytest.raises(ValueError, match="shape of x"):
            minimize_action_endpoint(co, dom, 0.0, [0.5], [0.5, 0.5], 1.0,
                                     TimeGrid(0.0, 1.0, 8))


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
        out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])
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
        out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])

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
        # gamma = 5 lies above u = x on [0, 1]: the penalty's gradient
        # points out through the wall at 1, where the nodes end up with a
        # zero multiplier. Those nodes are active, so the descent converges
        # on the wall instead of stalling against it
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom)
        gamma = np.full((times.n_steps + 1, 1), 5.0)
        with pytest.raises(ConstraintInfeasible, match=(
                "violation 4.500e\\+00 exceeds 1.0e-03; preimage is empty "
                "at this resolution")):
            contracted_rate(co, dom, field, gamma, 0.0, [0.5])

    def test_a_disc_value_path_into_the_wall(self):
        # ou-in-ball's value path along (0.25 + 0.75 t, 0), which ends on
        # the wall: the preimage holds that path, so S' is at most its cost.
        # The descent still ends stalled, at the read's kink along y = 0
        co, dom = preset("ou-in-ball", {"theta": 1.0}), ball()
        field, times = self._field(co, dom, n_steps=8, nodes=9)
        psi = np.stack([0.25 + 0.75 * times.nodes, 0.0 * times.nodes], -1)
        cost = evaluate_action(co, dom, psi, times).action
        assert cost == 0.905029296875
        out = contracted_rate(co, dom, field, apply_pi(field, psi), 0.0,
                              [0.25, 0.0])
        assert out["violation"] <= 1e-3 and out["s_prime"] <= cost

    def test_a_descent_short_of_convergence_is_named(self, monkeypatch):
        # gamma = 0.5 + 0.1 t is the image of a feasible path, whose cost
        # the default options reach; with max_iter = 0 the descent does not
        # move the start, and the error names it instead of an empty preimage
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom, n_steps=4, nodes=9)
        gamma = 0.5 + 0.1 * times.nodes
        out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])
        assert out["s_prime"] == pytest.approx(0.005, rel=1e-3)
        with pytest.raises(ConstraintInfeasible) as err:
            contracted_rate(co, dom, field, gamma, 0.0, [0.5],
                            OptimizerOptions(max_iter=0))
        assert str(err.value) == (
            "constraint violation 1.000e-01 exceeds 1.0e-03; the descent "
            "stopped at max_iter = 0, so the preimage need not be empty")

        # a stall is named instead of max_iter
        def stalls(*args, **kwargs):
            return descent(*args, **kwargs)[:3] + (True,)

        descent = action._projected_descent
        monkeypatch.setattr(action, "_projected_descent", stalls)
        with pytest.raises(ConstraintInfeasible) as err:
            contracted_rate(co, dom, field, gamma, 0.0, [0.5],
                            OptimizerOptions(max_iter=0))
        assert str(err.value) == (
            "constraint violation 1.000e-01 exceeds 1.0e-03; the descent "
            "stalled, so the preimage need not be empty")

    def test_an_empty_preimage_is_named(self):
        # gamma = 0.7 misses the pinned start's image 0.5, and the descent
        # converges: the preimage is empty
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom)
        with pytest.raises(ConstraintInfeasible, match=(
                "violation 2.000e-01 exceeds 1.0e-03; preimage is empty at "
                "this resolution")):
            contracted_rate(co, dom, field,
                            np.full((times.n_steps + 1, 1), 0.7), 0.0, [0.5])

    def test_linear_value_path_costs_half_a_squared(self):
        # zero drift, h(x) = x: gamma = 0.5 + a t is attained by the path
        # itself, whose cost on [0, 1] is a^2 / 2
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        field, times = self._field(co, dom, n_steps=8, nodes=9)
        out = contracted_rate(co, dom, field, 0.5 + 0.1 * times.nodes, 0.0,
                              [0.5])
        assert out["s_prime"] == pytest.approx(0.005, rel=1e-3)

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
            out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])
            assert out["s_prime"] <= cost + 1e-6


def test_minimize_endpoint_rejects_inconsistent_T():
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="end time"):
        minimize_action_endpoint(preset("zero-drift-unit-noise"),
                                 unit_interval(), 0.0, [0.5], [0.9], 2.0, grid)


def central_gradient(objective, path, free, h=1e-5):
    """Oracle: the per-node central difference of the objective's value,
    one node and one coordinate at a time, each moved path evaluated on its
    own."""
    grad = np.zeros_like(path)
    for j in free:
        for c in range(path.shape[1]):
            up, down = path.copy(), path.copy()
            up[j, c] += h
            down[j, c] -= h
            grad[j, c] = (float(objective(up)[0])
                          - float(objective(down)[0])) / (2.0 * h)
    return grad


# The largest gap allowed between the exact gradient and central_gradient,
# fixed before either was run, for n = 16 steps (dt = 1/16), h = 1e-5 and
# paths whose |F|, |x| and |w_j| are at most 4 (gradient_cases asserts
# these), drifts of slope at most 1.5, and sigma entries of at most 1.4
# with second derivatives of at most 0.6. Three bounds add up:
# - the oracle's rounding: its two values share all but two of their n
#   terms, so the difference holds at most (n + 4) eps |F|, and the
#   quotient 20 eps 4 / 2e-5 < 1e-9;
# - its truncation h^2 / 6 |F'''|: F is quadratic in an interior node
#   under an affine drift and a constant sigma, and under the test sigma
#   |F'''| <= 3 dt (2 |r'|^2 |a'| + 2 |r r'| |a''| + r^2 |a'''|) < 400,
#   with |r'| <= 1 / dt + 1.5 and a = A^-1 of entries' derivatives below
#   2, 4 and 8, so h^2 / 6 |F'''| < 7e-9;
# - the exact gradient's forward differences at h_b = sqrt(eps) max(diam,
#   1): sigma's truncation h_b |sigma''| / 2 < 2e-8, and the rounding of
#   b and sigma at the moved and unmoved node, 4 eps (|b| + |sigma|) /
#   h_b < 3e-7, relative to Db and d sigma, times dt |w| |sigma| < 0.35:
#   < 1.1e-7 in all.
# So 2e-7 covers them.
GRADIENT_TOL = 2e-7


def ball():
    return make_domain("ball", center=[0.0, 0.0], radius=1.0)


def gradient_cases():
    """(coeffs, domain, grid, paths) of the exact gradient's three oracle
    cases: the interval under linear-drift, the disc under ou-in-ball, and
    the disc under a state-dependent sigma. The paths keep every node
    1e-3 inside, so no step carries a multiplier."""
    rng = np.random.default_rng(5)
    grid = TimeGrid(0.0, 1.0, 16)
    t = grid.nodes
    line = 0.5 + 0.3 * np.sin(3.0 * t) + 0.01 * rng.standard_normal((2, 17))
    angle = 0.4 + 1.0 * t + 0.02 * rng.standard_normal((2, 17))
    radius = 0.2 + 0.5 * t
    arcs = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], -1)
    ou = preset("ou-in-ball", {"theta": 1.5})
    return [(preset("linear-drift", {"rate": 1.5}), unit_interval(), grid,
             line[..., None]),
            (ou, ball(), grid, arcs),
            (general_sigma(ou), ball(), grid, arcs)]


def check_premises(co, dom, grid, path):
    """What GRADIENT_TOL assumes of a case's path."""
    action_, _, lam = _action_terms(co, dom, path, grid)[:3]
    assert np.all(dom.signed_distance(path) > 1e-3) and np.all(lam == 0)
    assert action_ <= 4.0 and np.abs(path).max() <= 4.0
    ts = grid.nodes[:-1]
    r = np.diff(path, axis=0) / grid.dt - co.b(ts, path[:-1])
    sig = co.sigma(ts, path[:-1])
    w = np.linalg.solve(sig @ sig.swapaxes(-1, -2), r[..., None])
    assert np.abs(w).max() <= 4.0


def sliding_case():
    """(coeffs, domain, grid, path) of a path that reaches the unit circle
    at node 6, then slides along it at a changing speed against an outward
    drift, so that every step from then on carries a positive multiplier."""
    grid = TimeGrid(0.0, 1.0, 16)
    t = grid.nodes
    radius = np.minimum(0.4 + 1.6 * t, 1.0)
    angle = 0.3 + t + t ** 2
    path = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], -1)
    return preset("ou-in-ball", {"theta": -1.0}), ball(), grid, path, angle


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
        # and the objective's gradients and blocks, path by path
        values, grads, (diags, offs), *_ = _objective(co, dom, grid)(stack)
        assert np.array_equal(values, want)
        for path, grad, diag, off in zip(stack, grads, diags, offs):
            _, alone, (d_alone, o_alone), *_ = _objective(co, dom, grid)(path)
            assert grad.tobytes() == alone.tobytes()
            assert diag.tobytes() == d_alone.tobytes()
            assert off.tobytes() == o_alone.tobytes()

    @pytest.mark.parametrize("case", range(2))
    def test_stack_with_one_infeasible_path_rejected(self, case):
        co, dom, grid, stack = batch_cases()[case]
        bad = stack.copy()
        bad[2, 5] = 1.5
        with pytest.raises(InfeasiblePath):
            _action_terms(co, dom, bad, grid)

    @pytest.mark.parametrize("case", range(3))
    def test_gradient_matches_per_node_oracle(self, case):
        co, dom, grid, paths = gradient_cases()[case]
        objective = _objective(co, dom, grid)
        for path in paths:
            check_premises(co, dom, grid, path)
            got = objective(path)[1]
            want = central_gradient(objective, path, range(grid.n_steps + 1))
            assert np.abs(want).max() > 0.1
            np.testing.assert_allclose(got, want, rtol=0.0, atol=GRADIENT_TOL)

    def test_gradient_along_the_wall(self):
        # at a wall node with a positive multiplier the gradient is the
        # derivative along the wall, through lam hess_phi w, and has no
        # normal part; the oracle turns the node along the circle by +-h
        co, dom, grid, path, angle = sliding_case()
        action_, integrand, lam = _action_terms(co, dom, path, grid)[:3]
        # GRADIENT_TOL's premises, with a unit sigma and a wall of
        # curvature 1
        assert action_ <= 4.0 and integrand.max() <= 16.0
        grad = _objective(co, dom, grid)(path)[1]
        h = 1e-5
        walls = [j for j in range(1, grid.n_steps) if lam[j - 1] > 0]
        assert len(walls) >= 8
        for j in walls:
            def turned(a):
                p = path.copy()
                p[j] = np.cos(angle[j] + a), np.sin(angle[j] + a)
                return _action_terms(co, dom, p, grid)[0]

            along = (turned(h) - turned(-h)) / (2.0 * h)
            tangent = np.array([-np.sin(angle[j]), np.cos(angle[j])])
            assert abs(along) > 0.01
            assert abs(grad[j] @ tangent - along) <= GRADIENT_TOL
            assert abs(grad[j] @ path[j]) <= 1e-15

    def test_penalty_objective_gradient_matches_oracle(self):
        # contracted_rate's objective at penalty 100 on a 1-D field,
        # with every node at least h inside a lattice cell, where the read
        # is affine; F is then quadratic in each node, so only the oracle's
        # rounding counts. With |F| <= 50 and |u - gamma| <= 0.4 (asserted),
        # each value's 2 n + 1 = 17 terms and their sum round by at most
        # 17 eps |F|, and each of the three terms that the move changes
        # carries its read's rounding, 3 eps, through 2 pen |u - gamma|:
        # (2 * 17 * 50 + 3 * 2 * 100 * 0.4 * 3) eps / (2 h) < 3e-8
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        times = TimeGrid(0.0, 1.0, 8)
        field = limit_value_field(co, dom, times, make_lattice(dom, 9))
        gamma = np.full((9, 1), 0.5)          # the skeleton's image
        path = (0.55 + 0.3 * times.nodes + 0.01 * np.sin(7 * times.nodes)
                )[:, None]
        h = 1e-5
        assert np.abs(8 * path - np.round(8 * path)).min() > 8 * h
        objective = _objective(co, dom, times, action._mismatch_penalty(
            _pi_reader(field), gamma, 100.0))
        value, got, *_ = objective(path)
        miss = apply_pi(field, path) - gamma
        assert value == (_action_terms(co, dom, path, times)[0]
                         + 100.0 * np.sum(miss ** 2))
        assert value <= 50.0 and np.abs(miss).max() <= 0.4
        want = central_gradient(objective, path, range(9), h)
        assert np.abs(want).max() > 1.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=3e-8)

    def test_gradient_stack_size_does_not_grow_with_n(self):
        # one gradient on the disc at the CLI's default n_steps: the
        # objective sees the one path, and its memory is O(n d)
        co, dom = preset("ou-in-ball", {"theta": 1.0}), ball()
        grid = TimeGrid(0.0, 1.0, 1024)
        t = grid.nodes[:, None]
        path = 0.9 * np.hstack([np.cos(3.0 * t), np.sin(3.0 * t)]) * t
        seen = []
        terms = action._action_terms

        def spy(coeffs, domain, paths, grid, gradient=False):
            seen.append(paths.shape)
            return terms(coeffs, domain, paths, grid, gradient)

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(action, "_action_terms", spy)
                grad = _objective(co, dom, grid)(path)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == [(1025, 2)]
        # about 1 MB
        assert peak < 16e6
        assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def identity_blocks(p):
    """The Gauss-Newton blocks of the identity matrix for paths p: under
    them a descent step is the gradient step."""
    d = p.shape[-1]
    return (np.broadcast_to(np.eye(d), p.shape + (d,)),
            np.zeros(p.shape[:-2] + (p.shape[-2] - 1, d, d)))


def kinked_objective(start, offset):
    """offset + sum(p - start) + 2 sum|p - start|, with its gradient
    1 + 2 sign(p - start), 1 at the kink, and identity blocks."""
    def objective(p):
        return (offset + np.sum(p - start, axis=(-2, -1))
                + 2.0 * np.sum(np.abs(p - start), axis=(-2, -1)),
                1.0 + 2.0 * np.sign(p - start), identity_blocks(p))
    return objective


def test_descent_reports_stall():
    # the slope is 1 at every node, but the kink at the start makes every
    # step along -grad go uphill; the value 0 there keeps the Armijo bound
    # strictly negative even when the step rounds away, and a decrement
    # above the zero rounding floor of F = 0 makes it a stall
    dom = unit_interval()
    start = np.full((6, 1), 0.5)
    objective = kinked_objective(start, 0.0)
    path, (value, *_), log, stalled = _projected_descent(
        objective, start, dom, pin_last=False, opts=OptimizerOptions())
    assert stalled
    assert np.array_equal(path, start) and value == 0.0
    # the first search fails, and the descent ends there
    assert log == [(0, 0.0, 0.0), (1, 0.0, 0.0)]


def test_descent_stalls_when_steps_round_away():
    # the kinked objective above, shifted to start at value 3: once the step
    # rounds away the trial equals the current path, which ends the search
    # and the descent; its decrement 5 lies far above the rounding floor
    # 14 eps 3 of F
    dom = unit_interval()
    start = np.full((6, 1), 0.5)
    objective = kinked_objective(start, 3.0)
    path, (value, *_), log, stalled = _projected_descent(
        objective, start, dom, pin_last=False, opts=OptimizerOptions())
    assert stalled
    assert np.array_equal(path, start) and value == 3.0
    assert log == [(0, 3.0, 0.0), (1, 3.0, 0.0)]


def test_stall_at_the_last_iteration_is_reported():
    # a search that fails in iteration max_iter still ends the descent as
    # stalled
    dom = unit_interval()
    start = np.full((6, 1), 0.5)
    path, (value, *_), log, stalled = _projected_descent(
        kinked_objective(start, 0.0), start, dom, pin_last=False,
        opts=OptimizerOptions(max_iter=1))
    assert stalled and log == [(0, 0.0, 0.0), (1, 0.0, 0.0)]


def test_steep_slope_descends_to_the_wall_then_stalls():
    # 1e10 times the sum of the nodes: the first search halves until the
    # drop to the wall at 0 meets the Armijo decrement; there every trial
    # is projected back onto the path, and the second search ends the
    # descent
    dom = unit_interval()
    start = np.full((6, 1), 0.5)
    slope = 1e10

    def objective(p):
        return (slope * np.sum(p, axis=(-2, -1)), np.full(p.shape, slope),
                identity_blocks(p))

    path, (value, *_), log, stalled = _projected_descent(
        objective, start, dom, pin_last=False, opts=OptimizerOptions())
    assert stalled
    assert np.all(path[1:] == 0.0) and value == slope * 0.5
    assert [step > 0.0 for _, _, step in log[1:]] == [True, False]


def test_a_search_below_the_rounding_floor_is_no_stall():
    # a slope g at the five free nodes of a path of value 1, where every
    # move costs, under identity blocks: the decrement 5 g^2 of the full
    # step meets the floor (2 * 6 + 2) eps * 1 = 3.1e-15 of F; at g = 1e-8
    # it lies below, the descent has converged as far as F can tell and
    # ends before any search, and at g = 1e-6 above: its search fails, a
    # stall
    dom = unit_interval()
    start = np.full((6, 1), 0.5)
    for g, stalls in ((1e-8, False), (1e-6, True)):
        calls = []

        def uphill(p, _g=g):
            calls.append(p)
            return (1.0 + 10.0 * np.sum(np.abs(p - start), axis=(-2, -1)),
                    np.full(p.shape, _g), identity_blocks(p))
        _, (value, *_), log, stalled = _projected_descent(
            uphill, start, dom, pin_last=False, opts=OptimizerOptions())
        assert value == 1.0 and stalled is stalls
        if stalls:
            assert log == [(0, 1.0, 0.0), (1, 1.0, 0.0)] and len(calls) > 1
        else:
            assert log == [(0, 1.0, 0.0)] and len(calls) == 1


def test_contracted_rate_reports_stall_flag(monkeypatch):
    dom = unit_interval()
    co = preset("zero-drift-unit-noise")
    times = TimeGrid(0.0, 1.0, 4)
    field = limit_value_field(co, dom, times, make_lattice(dom, 5))
    gamma = apply_pi(field, np.full((5, 1), 0.5))
    out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])
    assert out["stalled"] is False

    # the one descent's stall is reported
    descents = []

    def stalls(*args, **kwargs):
        descents.append(None)
        return _projected_descent(*args, **kwargs)[:3] + (True,)

    monkeypatch.setattr(action, "_projected_descent", stalls)
    out = contracted_rate(co, dom, field, gamma, 0.0, [0.5])
    assert len(descents) == 1 and out["stalled"] is True


def test_descent_keeps_the_tracer_contract():
    # benchmark tracing wraps action._projected_descent by name and reads
    # its (path, best, log, stalled) return: log[-1][0] as the iteration
    # count and rows with row[2] > 0 as accepted steps; best is the last
    # evaluation, its value first
    dom, co = unit_interval(), preset("linear-drift", {"rate": 1.0})
    grid = TimeGrid(0.0, 1.0, 32)
    path0 = (0.5 + 0.4 * grid.nodes)[:, None]
    out = action._projected_descent(_objective(co, dom, grid), path0, dom,
                                    pin_last=True, opts=OptimizerOptions())
    path, (value, *_), log, stalled = out
    assert path.shape == path0.shape and isinstance(value, float)
    assert stalled is False
    assert all(len(row) == 3 for row in log) and log[0] == (0, log[0][1], 0.0)
    assert [row[0] for row in log] == list(range(len(log)))
    assert all(type(row[0]) is int and type(row[1]) is float
               and type(row[2]) is float for row in log)
    assert log[-1][0] >= 1 and all(row[2] > 0 for row in log[1:])
    assert log[-1][1] == value


def with_gradient(value, g, scale=1.0):
    """An objective of the values value(p) whose gradient is g at every
    node, with scale times the identity as its Gauss-Newton blocks."""
    def objective(p):
        diag, off = identity_blocks(p)
        return (value(p), np.broadcast_to(g, p.shape).copy(),
                (scale * diag, off))
    return objective


class TestBatchedLineSearch:
    """The search along the Gauss-Newton step, on synthetic objectives
    whose blocks are multiples of the identity: a step is then the
    gradient step, scaled. Each objective call is one trial; the class
    keeps the name it had when the search tried its trials in batches,
    so that its tests keep their ids."""

    start = np.full((6, 1), 0.5)

    def run(self, objective, path0=None, dom=None, pin_last=False,
            opts=OptimizerOptions(max_iter=60)):
        """The descent's return, with the value of its last evaluation in
        place of the evaluation, and every path the objective saw."""
        path0 = self.start if path0 is None else path0
        seen = []

        def spy(p):
            seen.append(np.array(p))
            return objective(p)

        path, best, log, stalled = _projected_descent(
            spy, path0, dom or unit_interval(), pin_last=pin_last, opts=opts)
        return (path, best[0], log, stalled), seen

    def threshold_objective(self, theta):
        """1 - the largest rise of a node above 0.5 while it is at most
        theta, 2 beyond, with the gradient -0.25: a trial is accepted
        exactly when its rise is at most theta."""
        def value(p):
            rise = np.max(p - self.start, axis=(-2, -1))
            return np.where(rise > theta, 2.0, 1.0 - rise)
        return with_gradient(value, -0.25)

    @pytest.mark.parametrize("k", [0, 2, 3, 6, 31, 32, 47])
    def test_acceptance_at_trial_k_then_a_stall(self, k):
        # trial k, at the step 0.5^k, is the first whose rise 0.5^k / 4 is
        # at most theta; one search halves k times to reach it, past thirty
        # halvings too. After it every trial overshoots until the step
        # rounds away, and the decrement 5 / 16 of the next search lies far
        # above the floor 14 eps (1 - theta): a stall
        eta = 0.5 ** k
        theta = 0.25 * eta
        (path, value, log, stalled), seen = self.run(
            self.threshold_objective(theta))
        assert log == [(0, 1.0, 0.0), (1, 1.0 - theta, eta),
                       (2, 1.0 - theta, 0.0)]
        # the start, then trials 0 .. k of the first search, one per call
        np.testing.assert_array_equal(seen[k + 1][1:], 0.5 + theta)
        assert all(np.max(p - self.start) > theta for p in seen[1:k + 1])
        assert np.all(path[1:] == 0.5 + theta)
        assert stalled

    @pytest.mark.parametrize("k", range(4))
    def test_armijo_decides_at_trial_k(self, k):
        # the value 1 - a r + b r^2 of a rise r = eta / 4 falls for
        # r < a / b, but by the Armijo decrement 5 c r / 4 only for
        # r <= (a - 5 c / 4) / b; trial k, at eta = 0.5^k, lies between the
        # two, trial k + 1 below both
        a, c = 2.5e-4, action._ARMIJO_C
        eta = 0.5 ** k
        b = 0.75 * a / (0.25 * eta)

        def value(p):
            rise = np.max(p - self.start, axis=(-2, -1))
            return 1.0 - a * rise + b * rise**2

        (path, _, log, stalled), seen = self.run(
            with_gradient(value, -0.25), opts=OptimizerOptions(max_iter=4))
        at_k = float(value(seen[k + 1]))
        assert 1.0 - c * eta * 5 * 0.25**2 < at_k < 1.0
        assert log[1][2] == 0.5 * eta

    @pytest.mark.parametrize("k", range(1, 8))
    def test_step_rounds_away_at_trial_k(self, k):
        # every move up costs, and the blocks 32 / s scale the slope 32 to
        # the step s = 1.5 2^(k - 55): at trial k the rise falls below half
        # the spacing of doubles above 0.5, so the trial equals the path.
        # The decrement 5 * 32 s lies above the rounding floor of F = 1, so
        # the search that rounds away is a stall
        step = 1.5 * 2.0 ** (k - 55)

        def uphill(p):
            return 1.0 + np.sum(p - self.start, axis=(-2, -1))

        (path, value, log, stalled), seen = self.run(
            with_gradient(uphill, -32.0, 32.0 / step),
            opts=OptimizerOptions(max_iter=3, grad_tol=0.0))
        assert np.array_equal(path, self.start) and value == 1.0
        # trials 0 .. k-1 were evaluated in the one search, trial k not
        trials = seen[1:]
        assert len(trials) == k
        assert not any(np.array_equal(p, self.start) for p in trials)
        assert stalled and log == [(0, 1.0, 0.0), (1, 1.0, 0.0)]

    @pytest.mark.parametrize("offset", [0.0, 3.0])
    def test_stall_objectives(self, offset):
        (path, value, log, stalled), seen = self.run(
            kinked_objective(self.start, offset), opts=OptimizerOptions())
        assert stalled and value == offset
        assert log == [(0, offset, 0.0), (1, offset, 0.0)]
        assert len(seen) > 2 and np.array_equal(path, self.start)

    def test_action_objective_on_the_disc(self):
        # the interior disc optimum under ou-in-ball: the first full
        # Gauss-Newton step is accepted, and the descent ends converged
        co, dom = preset("ou-in-ball", {"theta": 1.0}), ball()
        grid = TimeGrid(0.0, 1.0, 8)
        lam = grid.nodes[:, None]
        path0 = project(dom, (1.0 - lam) * [0.25, 0.0] + lam * [0.5, 0.3])
        (path, value, log, stalled), seen = self.run(
            _objective(co, dom, grid), path0=path0, dom=dom, pin_last=True,
            opts=OptimizerOptions(max_iter=40))
        assert value < log[0][1] and not stalled
        assert log[1][2] == 1.0 and len(seen) == len(log) <= 4

    def test_action_objective_against_the_wall(self):
        # the disc toward the unit circle under an outward drift: the start
        # holds wall nodes with positive multipliers, which move only along
        # the wall; the descent still ends converged, below the start
        co, dom = preset("ou-in-ball", {"theta": -2.0}), ball()
        grid = TimeGrid(0.0, 1.0, 16)
        lam = grid.nodes[:, None]
        path0 = project(dom, (1.0 - lam) * [0.25, 0.0] + lam * [0.6, 0.8])
        assert np.any(_action_terms(co, dom, path0, grid)[2] > 0)
        (path, value, log, stalled), _ = self.run(
            _objective(co, dom, grid), path0=path0, dom=dom, pin_last=True,
            opts=OptimizerOptions(max_iter=40))
        assert value < log[0][1] and not stalled and log[-1][0] < 40


def block_system(m, d, seed, walls=()):
    """(diag, off, rhs) of a symmetric positive definite block-tridiagonal
    system of m nodes of d unknowns. The nodes in walls get identity
    blocks decoupled from their neighbours, as a wall node's normal part
    has in the descent's blocks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d, d))
    diag = a @ a.swapaxes(-1, -2) + 4.0 * np.eye(d)
    off = 0.3 * rng.standard_normal((m - 1, d, d))
    for i in walls:
        diag[i] = np.eye(d)
        off[max(i - 1, 0):i + 1] = 0.0
    return diag, off, rng.standard_normal((m, d))


def assembled(diag, off):
    """The dense matrix of the blocks, one block at a time."""
    m, d = diag.shape[:2]
    h = np.zeros((m * d, m * d))
    for i in range(m):
        h[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag[i]
    for i in range(m - 1):
        h[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = off[i]
        h[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = off[i].T
    return h


class TestBlockSolve:
    """The super-block solve agrees with a dense solve of the assembled
    matrix, and with scipy's banded solve in 1-D, to 1e-12 relative, on
    either side of each super-block boundary: for q = _SUPER // d nodes
    per super-block, m in {1, q - 1, q, q + 1, 3 q + 5} nodes, which at
    d = 1 are the unknown counts 1, K - 1, K, K + 1 and 3 K + 5."""

    @staticmethod
    def nodes(d, which):
        q = action._SUPER // d
        return {"one": 1, "below": q - 1, "at": q, "above": q + 1,
                "several": 3 * q + 5}[which]

    @pytest.mark.parametrize("walled", [False, True], ids=["", "walls"])
    @pytest.mark.parametrize("which", ["one", "below", "at", "above",
                                       "several"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_dense_and_banded_solves(self, d, which, walled):
        from scipy.linalg import solve_banded

        m, q = self.nodes(d, which), action._SUPER // d
        # wall nodes at both ends and on both sides of the first boundary
        walls = sorted({0, q - 1, q, m - 1} & set(range(m))) if walled else ()
        diag, off, rhs = block_system(m, d, 10 * d + m, walls)
        inputs = [a.copy() for a in (diag, off, rhs)]
        x = action._block_solve(diag, off, rhs)
        assert x.shape == (m, d)
        for a, b in zip(inputs, (diag, off, rhs)):
            assert a.tobytes() == b.tobytes()
        want = np.linalg.solve(assembled(diag, off), rhs.reshape(-1))
        scale = np.abs(want).max()
        assert np.abs(x.reshape(-1) - want).max() <= 1e-12 * scale
        for i in walls:     # a decoupled identity row solves to its rhs
            assert np.array_equal(x[i], rhs[i])
        if d == 1:
            bands = np.zeros((3, m))
            bands[0, 1:], bands[1], bands[2, :-1] = (off[:, 0, 0],
                                                     diag[:, 0, 0],
                                                     off[:, 0, 0])
            banded = solve_banded((1, 1), bands, rhs[:, 0])
            assert np.abs(x[:, 0] - banded).max() <= 1e-12 * scale

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("where", [0, 0.5, 1])
    def test_a_singular_pivot_raises(self, d, where):
        # a node with no curvature and no coupling, in the first, a middle
        # or the last super-block, or the one super-block of 4 nodes
        for m in (4, self.nodes(d, "several")):
            diag, off, rhs = block_system(m, d, m)
            i = round(where * (m - 1))
            diag[i] = 0.0
            off[max(i - 1, 0):i + 1] = 0.0
            with pytest.raises(np.linalg.LinAlgError):
                action._block_solve(diag, off, rhs)


class TestGradientReuse:
    """The accepted trial's gradient and Gauss-Newton blocks, computed in
    its own objective call, are the next iteration's: every iteration
    whose full step is accepted costs one objective call."""

    @staticmethod
    def record(monkeypatch):
        """Patch the descent's seams to log, in order, ("O",) per objective
        call through _action_terms and ("S", diag, off, g) per block solve,
        with the solve's inputs."""
        events = []
        terms, solve = action._action_terms, action._block_solve

        def counted_terms(*args, **kwargs):
            events.append(("O",))
            return terms(*args, **kwargs)

        def counted_solve(diag, off, g):
            events.append(("S", diag, off, g))
            return solve(diag, off, g)

        monkeypatch.setattr(action, "_action_terms", counted_terms)
        monkeypatch.setattr(action, "_block_solve", counted_solve)
        return events

    def test_fused_gradient_equals_single_path_gradient_bitwise(
            self, monkeypatch):
        # the disc action against the wall, whose first search rejects
        # five trials, and the contracted rate's penalty objective: the
        # gradient and blocks each block solve gets, carried from the
        # accepted trial's call, are those of that path alone
        paths, solves = [], []
        make, solve = action._objective, action._block_solve

        def spy_objective(*args):
            objective = make(*args)

            def seen(p):
                paths.append((objective, np.array(p)))
                return objective(p)
            return seen

        def spy_solve(diag, off, g):
            solves.append((paths[-1], diag, off, g))
            return solve(diag, off, g)

        monkeypatch.setattr(action, "_objective", spy_objective)
        monkeypatch.setattr(action, "_block_solve", spy_solve)
        co, dom = preset("ou-in-ball", {"theta": -2.0}), ball()
        _, info = minimize_action_endpoint(co, dom, 0.0, [0.25, 0.0],
                                           [-0.6, 0.8], 1.0,
                                           TimeGrid(0.0, 1.0, 16),
                                           OptimizerOptions(max_iter=40))
        assert info["iterations"][1][2] == 0.5 ** 5
        dom1 = unit_interval()
        co1 = preset("zero-drift-unit-noise")
        field = limit_value_field(co1, dom1, TimeGrid(0.0, 1.0, 4),
                                  make_lattice(dom1, 9))
        gamma = 0.5 + 0.15 * field.times.nodes
        contracted_rate(co1, dom1, field, gamma, 0.0, [0.5],
                        opts=OptimizerOptions(max_iter=20, grad_tol=0.0))
        # two solves in each descent
        assert len(solves) == 4
        assert {p.shape[1] for (_, p), *_ in solves} == {1, 2}
        for (objective, path), diag, off, g in solves:
            _, grad, (d_alone, o_alone), *_ = objective(path)
            n1 = len(path)
            free = slice(1, n1 - 1) if len(diag) == n1 - 2 else slice(1, n1)
            assert g.tobytes() == grad[free].tobytes()
            assert diag.tobytes() == d_alone[free].tobytes()
            assert off.tobytes() == o_alone[1:free.stop - 1].tobytes()

    def test_one_objective_call_per_iteration(self, monkeypatch):
        # the linear drift toward the far wall, from 0.5 to 0.9 in 32
        # steps: the start choice and the first value come before the
        # first solve, then each iteration makes one objective call, its
        # full step's, whose evaluation is also the result's. The problem
        # is quadratic, so one step solves it, and the gradient after it
        # lies below grad_tol
        dom, co = unit_interval(), preset("linear-drift", {"rate": 1.0})
        grid = TimeGrid(0.0, 1.0, 32)
        events = self.record(monkeypatch)
        _, info = minimize_action_endpoint(co, dom, 0.0, [0.5], [0.9], 1.0,
                                           grid)
        assert [ev[0] for ev in events] == ["O", "O", "S", "O"]
        assert info["n_iter"] == 1 and info["iterations"][1][2] == 1.0
        # with grad_tol 0 the next iteration's decrement ends the descent
        events.clear()
        _, info = minimize_action_endpoint(co, dom, 0.0, [0.5], [0.9], 1.0,
                                           grid, OptimizerOptions(grad_tol=0))
        assert info["n_iter"] == 1 and not info["stalled"]
        assert [ev[0] for ev in events] == ["O", "O", "S", "O", "S"]

    @pytest.mark.parametrize("case", ["wall@disc", "ou@interval",
                                      "no-iteration@disc"])
    def test_result_is_the_accepted_evaluation(self, case):
        # the result is built from the descent's accepted evaluation, in
        # the bits of evaluate_action at the returned path: along the wall
        # under an outward drift, with positive multipliers, off it, and
        # at the start itself
        co, dom, x, y, n, opts = {
            "wall@disc": (preset("ou-in-ball", {"theta": -2.0}), ball(),
                          [0.5, 0.0], [0.8, 0.6], 16, None),
            "ou@interval": (preset("linear-drift", {"rate": 1.0}),
                            unit_interval(), [0.5], [0.9], 32, None),
            "no-iteration@disc": (preset("ou-in-ball"), ball(), [0.25, 0.0],
                                  [-0.5, 0.3], 8,
                                  OptimizerOptions(max_iter=0)),
        }[case]
        grid = TimeGrid(0.0, 1.0, n)
        got, info = minimize_action_endpoint(co, dom, 0.0, x, y, 1.0, grid,
                                             opts)
        want = evaluate_action(co, dom, got.psi, grid)
        assert (info["n_iter"] == 0) == (opts is not None)
        assert type(got.action) is float and got.action == want.action
        for part in ("psi", "phi", "integrand"):
            assert (getattr(got, part).tobytes()
                    == getattr(want, part).tobytes())
        if case == "wall@disc":
            assert (got.phi != got.psi).any()

    def test_one_penalized_descent(self, monkeypatch):
        # the zero-drift case on 4 field steps and 9 lattice nodes, a
        # quadratic problem: the descent from the skeleton takes one full
        # step, and the next iteration's decrement ends it. The calls
        # through _action_terms are the start's and the trial's, whose
        # evaluation also gives S' and the violation. S' is within 7e-16
        # relative of the exact minimum of the penalized problem,
        # 0.011249887503374823 rounded
        dom, co = unit_interval(), preset("zero-drift-unit-noise")
        field = limit_value_field(co, dom, TimeGrid(0.0, 1.0, 4),
                                  make_lattice(dom, 9))
        events = self.record(monkeypatch)
        out = contracted_rate(co, dom, field, 0.5 + 0.15 * field.times.nodes,
                              0.0, [0.5],
                              OptimizerOptions(max_iter=20, grad_tol=0))
        assert "".join(ev[0] for ev in events) == "OSOS"
        assert repr(out["s_prime"]) == "0.011249887503374816"
        assert out["argmin_psi"].tobytes().hex() == (
            "000000000000e03f333333333333e13f636666666666e23f"
            "de8997999999e33f7aa5273acbcce43f")

    def test_contracted_rate_returns_its_last_evaluation(self):
        # S' and the violation, read from the accepted trial's evaluation,
        # equal evaluate_action's action and apply_pi's values at the
        # returned path bitwise; on the wall case too, whose start is its
        # minimizer
        dom, co = unit_interval(), preset("zero-drift-unit-noise")
        times = TimeGrid(0.0, 1.0, 4)
        field = limit_value_field(co, dom, times, make_lattice(dom, 9))
        wall = preset("boundary-g-constant", {"v": 1.0, "g0": 1.0})
        wall_field = limit_value_field(wall, dom, times, make_lattice(dom, 9))
        cases = [(co, field, 0.5 + 0.15 * times.nodes),
                 (wall, wall_field, apply_pi(wall_field, integrate_skeleton_ode(
                     wall, dom, 0.0, [0.5], times).x_path)[:, 0])]
        for coeffs, fld, gamma in cases:
            out = contracted_rate(coeffs, dom, fld, gamma, 0.0, [0.5])
            path = out["argmin_psi"]
            assert out["s_prime"] == evaluate_action(coeffs, dom, path,
                                                     times).action
            assert out["violation"] == float(np.abs(
                apply_pi(fld, path)[:, 0] - gamma).max())

    def test_blocks_are_built_only_for_a_step(self, monkeypatch):
        # the tail certificate under zero drift starts at its straight-line
        # minimizers, whose gradient lies below grad_tol: neither descent
        # builds its Gauss-Newton blocks. On the disc against the wall,
        # whose first search rejects five trials, the blocks are built once
        # per block solve, and for no rejected trial
        made, solves = [], []
        terms, solve = action._action_terms, action._block_solve

        def spy(*args, **kwargs):
            out = terms(*args, **kwargs)
            if len(out) == 6:
                made.append(out[5])
            return out

        def counted_solve(*args):
            solves.append(None)
            return solve(*args)

        monkeypatch.setattr(action, "_action_terms", spy)
        monkeypatch.setattr(action, "_block_solve", counted_solve)
        dom = unit_interval()
        s_star = harness._exceedance_certificate(
            preset("zero-drift-unit-noise"), dom, 0.0, np.array([0.5]), 0.2,
            TimeGrid(0.0, 1.0, 64))
        assert s_star == pytest.approx(0.02, rel=1e-12)
        assert len(made) == 2
        assert all(inspect.getgeneratorstate(g) == "GEN_CREATED"
                   for g in made)
        made.clear()
        _, info = minimize_action_endpoint(
            preset("ou-in-ball", {"theta": -2.0}), ball(), 0.0, [0.25, 0.0],
            [-0.6, 0.8], 1.0, TimeGrid(0.0, 1.0, 16),
            OptimizerOptions(max_iter=40))
        assert info["iterations"][1][2] == 0.5 ** 5
        built = [inspect.getgeneratorstate(g) == "GEN_CLOSED" for g in made]
        assert sum(built) == len(solves) >= 1
        assert len(made) >= len(solves) + 5

    def test_no_objective_call_follows_a_failed_search(self):
        # the kinked objective: the first search halves until its step
        # rounds away, which ends the descent with no further call
        start = np.full((6, 1), 0.5)
        kinked, calls = kinked_objective(start, 3.0), []

        def counted(p):
            calls.append(np.array(p))
            return kinked(p)

        path, _, log, stalled = _projected_descent(
            counted, start, unit_interval(), pin_last=False,
            opts=OptimizerOptions())
        assert stalled and log[-1] == (1, 3.0, 0.0)
        # the start and one call per halving: the last trial moved a node
        assert len(calls) > 50
        assert not np.array_equal(calls[-1], start)
        assert np.array_equal(path, start)


def general_sigma(co):
    """co with a state-dependent sigma, a plain function: the general
    route, with sigma sigma* and its inverse at every node."""
    d = co.dims[0]

    def sigma(t, x):
        x = np.asarray(x, float)
        s = np.broadcast_to(0.8 * np.eye(d) + 0.1, x.shape + (d,)).copy()
        s[..., 0, 0] += 0.3 * x[..., 0] ** 2
        return s
    return replace(co, sigma=sigma)


def _no_normal(p):
    raise AssertionError("the boundary-free route read a normal")


@pytest.mark.parametrize("sigma", ["unit", "general"])
@pytest.mark.parametrize("case", range(2))
def test_boundary_free_route_equals_full_route_bitwise(case, sigma):
    # alone, a path with no right node on the boundary takes the route that
    # reads no normal; stacked under a path on the wall, it rides the
    # multiplier block, whose zero multipliers must give the same bits
    co, dom, grid, stack = batch_cases()[case]
    co = co if sigma == "unit" else general_sigma(co)
    walled = (np.abs(dom.signed_distance(stack[:, 1:]))
              <= dom.boundary_tol).any(axis=-1)
    inner, wall = stack[~walled], stack[walled][-1]
    assert len(inner) >= 3
    normal_free = replace(dom, grad_phi=_no_normal)
    for path in inner:
        alone = _action_terms(co, normal_free, path, grid)
        stacked = _action_terms(co, dom, np.stack([wall, path]), grid)
        assert np.any(stacked[2][0] > 0) and np.all(stacked[2][1] == 0)
        for got, want in zip(alone, stacked):
            got, want = np.asarray(got), np.asarray(want[1])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestNonFiniteIsOutside:
    """A non-finite node or point does not meet the membership rule,
    signed distance at least -boundary_tol, so it is outside."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_evaluate_action_rejects_a_non_finite_path(self, bad):
        grid = TimeGrid(0.0, 1.0, 4)
        for path in (np.full((5, 1), np.nan), np.full((5, 1), 0.5)):
            path[2, 0] = bad
            with pytest.raises(InfeasiblePath):
                evaluate_action(preset("zero-drift-unit-noise"),
                                unit_interval(), path, grid)

    def test_evaluate_action_rejects_a_nan_node_on_the_disc(self):
        grid = TimeGrid(0.0, 1.0, 4)
        path = np.zeros((5, 2))
        path[3, 1] = np.nan
        with pytest.raises(InfeasiblePath):
            evaluate_action(preset("ou-in-ball"), ball(), path, grid)

    @pytest.mark.parametrize("y", [[np.nan], [np.inf]])
    def test_minimize_rejects_a_non_finite_target(self, y):
        with pytest.raises(InfeasiblePath, match="target"):
            minimize_action_endpoint(preset("zero-drift-unit-noise"),
                                     unit_interval(), 0.0, [0.5], y, 1.0,
                                     TimeGrid(0.0, 1.0, 8))


class TestContractedRateInputs:
    @staticmethod
    def case():
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        times = TimeGrid(0.0, 1.0, 4)
        field = limit_value_field(co, dom, times, make_lattice(dom, 9))
        return co, dom, field, 0.5 + 0.15 * times.nodes

    @pytest.mark.parametrize("shape", [(5, 2), (5, 1, 1), (4,), (6, 1),
                                       (1, 5), ()])
    def test_gamma_of_another_shape_rejected(self, shape):
        co, dom, field, _ = self.case()
        bad = np.full(shape, 0.5)
        with pytest.raises(ValueError, match="gamma of shape"):
            contracted_rate(co, dom, field, bad, 0.0, [0.5])

    def test_one_column_gamma_needs_a_one_value_field(self):
        co, dom, field, gamma = self.case()
        wide = replace(field, values=np.repeat(field.values, 2, axis=-1))
        with pytest.raises(ValueError, match="2 values"):
            contracted_rate(co, dom, wide, gamma, 0.0, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, bad):
        co, dom, field, gamma = self.case()
        gamma[2] = bad
        with pytest.raises(ValueError, match="finite"):
            contracted_rate(co, dom, field, gamma, 0.0, [0.5])

    def test_one_reader_per_call(self, monkeypatch):
        co, dom, field, gamma = self.case()
        built = []

        def spy(*args):
            built.append(args)
            return reader(*args)

        reader = action._pi_reader
        monkeypatch.setattr(action, "_pi_reader", spy)
        opts = OptimizerOptions(max_iter=5)
        vector = contracted_rate(co, dom, field, gamma, 0.0, [0.5], opts)
        assert len(built) == 1 and built[0] == (field,)
        column = contracted_rate(co, dom, field, gamma[:, None], 0.0, [0.5],
                                 opts)
        assert len(built) == 2
        assert vector["argmin_psi"].tobytes() == column["argmin_psi"].tobytes()


def test_one_objective_per_descent(monkeypatch):
    # the objective is built once per descent, not per iteration: one for
    # the endpoint minimizer, one for the contracted rate
    built = []
    make = action._objective

    def counted(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(action, "_objective", counted)
    # the disc toward the wall, which takes more than one iteration
    _, info = minimize_action_endpoint(preset("ou-in-ball", {"theta": -2.0}),
                                       ball(), 0.0, [0.25, 0.0], [0.6, 0.8],
                                       1.0, TimeGrid(0.0, 1.0, 16),
                                       OptimizerOptions(max_iter=20))
    assert info["n_iter"] > 1 and len(built) == 1
    dom, co0 = unit_interval(), preset("zero-drift-unit-noise")
    field = limit_value_field(co0, dom, TimeGrid(0.0, 1.0, 4),
                              make_lattice(dom, 9))
    contracted_rate(co0, dom, field, 0.5 + 0.15 * field.times.nodes, 0.0,
                    [0.5], OptimizerOptions(max_iter=5))
    assert len(built) == 2


def disc_optimum(x, y, theta, n):
    """(action, path) of the cheapest n-step path from x to y on [0, 1]
    under ou-in-ball's drift -theta x and a unit sigma, ignoring the
    wall: the action separates by coordinate, each a 1-D linear-drift
    optimum."""
    parts = [linear_drift_optimum(a, b, theta, n) for a, b in zip(x, y)]
    return (sum(value for value, _ in parts),
            np.stack([path for _, path in parts], axis=-1))


class TestExactOptima:
    """Runs whose discrete optimum is a tridiagonal solve, reached to
    1e-12 relative under the options each one runs with."""

    def test_linear_drift_reaches_the_tridiagonal_optimum(self):
        dom, co = unit_interval(), preset("linear-drift", {"rate": 1.0})
        res, info = minimize_action_endpoint(co, dom, 0.0, [0.5], [0.9], 1.0,
                                             TimeGrid(0.0, 1.0, 32))
        exact, path = linear_drift_optimum(0.5, 0.9, 1.0, 32)
        assert np.all((path > 0.0) & (path < 1.0))
        assert res.action == pytest.approx(exact, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(res.psi[:, 0], path, rtol=0.0, atol=1e-9)
        assert not info["stalled"]

    def test_tail_certificate_targets_reach_the_optimum(self, monkeypatch):
        # linear-drift from 0.5 with delta = 0.2 on the certificate's grid:
        # the target below the skeleton's end projects onto the wall inside
        # the tube and is skipped, the one above is interior
        dom, co = unit_interval(), preset("linear-drift", {"rate": 1.0})
        runs, minimize = [], harness._minimize_endpoint

        def spy(coeffs, domain, s, x, target, T, grid, opts, skeleton):
            out = minimize(coeffs, domain, s, x, target, T, grid, opts,
                           skeleton)
            runs.append((float(target[0]), grid.n_steps, out[0].action))
            return out

        monkeypatch.setattr(harness, "_minimize_endpoint", spy)
        grid = TimeGrid(0.0, 1.0, harness._OPT_STEPS)
        best = harness._exceedance_certificate(co, dom, 0.0, np.array([0.5]),
                                               0.2, grid)
        assert len(runs) == 1 and best == runs[0][2]
        target, n, value = runs[0]
        exact, path = linear_drift_optimum(0.5, target, 1.0, n)
        assert np.all((path > 0.0) & (path < 1.0))
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta, y, n, parent", [
        (-2.0, [0.6, 0.8], 16, 0.08798555162423241),
        (1.0, [0.5, 0.3], 64, 0.2949675242328941),
        (1.0, [0.5, 0.3], 8, None)])
    def test_disc_runs_reach_the_interior_optimum(self, theta, y, n, parent):
        # the CLI's disc action-min runs: toward the unit circle under an
        # outward drift (action-min-wall), at 64 steps (action-min-wide)
        # and at 8. Each optimum's interior nodes lie inside the disc, so
        # the wall's optimum is the free one; the gradient descent that
        # Gauss-Newton replaced left the first two at `parent`
        co, dom = preset("ou-in-ball", {"theta": theta}), ball()
        x, grid = [0.25, 0.0], TimeGrid(0.0, 1.0, n)
        exact, path = disc_optimum(x, y, theta, n)
        assert np.all(np.linalg.norm(path[1:-1], axis=-1) < 1.0 - 1e-3)
        res, info = minimize_action_endpoint(co, dom, 0.0, x, y, 1.0, grid)
        assert res.action == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert not info["stalled"]
        if parent is not None:
            assert res.action <= parent

    def test_solved_problems_do_not_stall(self):
        # the contracted rate of the skeleton's image under v = 1 (17 nodes,
        # 16 field steps), the zero-drift one of the image of 0.5 + 0.25 t
        # (n = 32) and the disc action at n = 8
        dom = unit_interval()
        co = preset("constant-drift", {"v": 1.0})
        times = TimeGrid(0.0, 1.0, 16)
        field = limit_value_field(co, dom, times, make_lattice(dom, 17))
        skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], times)
        out = contracted_rate(co, dom, field, apply_pi(field, skel.x_path),
                              0.0, [0.5])
        assert out["stalled"] is False
        co0 = preset("zero-drift-unit-noise")
        times = TimeGrid(0.0, 1.0, 32)
        field = limit_value_field(co0, dom, times, make_lattice(dom, 33))
        gamma = apply_pi(field, (0.5 + 0.25 * times.nodes)[:, None])
        out = contracted_rate(co0, dom, field, gamma, 0.0, [0.5])
        assert out["stalled"] is False
        assert out["s_prime"] == pytest.approx(0.03125, rel=1e-3)
        _, info = minimize_action_endpoint(
            preset("ou-in-ball", {"theta": 1.0}), ball(), 0.0, [0.25, 0.0],
            [0.5, 0.3], 1.0, TimeGrid(0.0, 1.0, 8))
        assert info["stalled"] is False
