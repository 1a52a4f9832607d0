"""Domain geometry: defining function, projection, convexity audit."""

import dataclasses
import warnings

import numpy as np
import pytest

from reflectal.action import evaluate_action
from reflectal.backward import (limit_value_field, make_lattice,
                                solve_bsde_grid)
from reflectal.coefficients import audit_assumptions, preset
from reflectal.errors import InvalidShape
from reflectal.forward import TimeGrid
from reflectal.geometry import (_norm, _ramp_d1, _ramp_d2, make_domain,
                                project, verify_convexity)


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def unit_ball(d=2):
    return make_domain("ball", center=[0.0] * d, radius=1.0)


class TestMakeDomain:
    def test_interval_boundary_values(self):
        dom = unit_interval()
        assert dom.phi(np.array([0.0])) == pytest.approx(0.0, abs=1e-15)
        assert dom.phi(np.array([1.0])) == pytest.approx(0.0, abs=1e-15)
        assert dom.grad_phi(np.array([0.0]))[0] == pytest.approx(1.0)
        assert dom.grad_phi(np.array([1.0]))[0] == pytest.approx(-1.0)

    def test_ball_boundary_values(self):
        dom = unit_ball()
        p = np.array([1.0, 0.0])
        assert dom.phi(p) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(dom.grad_phi(p), [-1.0, 0.0], atol=1e-15)

    def test_invalid_shapes(self):
        with pytest.raises(InvalidShape):
            make_domain("interval", a=1.0, b=1.0)
        with pytest.raises(InvalidShape):
            make_domain("ball", center=[0.0], radius=0.0)
        with pytest.raises(InvalidShape):
            make_domain("hexagon")

    @pytest.mark.parametrize("kind, bad", [
        ("interval", {"a": False}), ("interval", {"b": True}),
        ("interval", {"a": np.False_}), ("ball", {"radius": True}),
        ("ball", {"center": [0.0, False]}),
        ("ball", {"center": np.array([True, False])})])
    def test_boolean_extent_rejected(self, kind, bad):
        # a boolean is not a number, though float() takes it
        desc = ({"a": 0.0, "b": 1.0} if kind == "interval"
                else {"center": [0.0, 0.0], "radius": 1.0})
        with pytest.raises(ValueError, match="must be a number"):
            make_domain(kind, **{**desc, **bad})

    def test_phi_positive_iff_strictly_inside(self):
        for dom in (unit_interval(), unit_ball()):
            rng = np.random.default_rng(5)
            pts = dom.sample_closure(500, rng)
            sd = dom.signed_distance(pts)
            inside = sd > dom.boundary_tol
            assert np.all(dom.phi(pts)[inside] > 0)
            bd = dom.sample_boundary(100, rng)
            assert np.all(np.abs(dom.phi(bd)) <= 10 * dom.boundary_tol)

    def test_unit_gradient_on_boundary(self):
        for dom in (unit_interval(), unit_ball(3)):
            rng = np.random.default_rng(6)
            bd = dom.sample_boundary(200, rng)
            norms = np.linalg.norm(dom.grad_phi(bd), axis=-1)
            assert np.all(np.abs(norms - 1.0) <= 10 * dom.boundary_tol)

    def test_finite_difference_consistency(self):
        # central differences of phi match grad_phi / hess_phi to O(step^2)
        for dom in (unit_interval(), unit_ball()):
            rng = np.random.default_rng(7)
            # stay off the medial set seam where third derivatives jump
            pts = dom.sample_closure(300, rng)
            step = 1e-5
            d = dom.dimension
            for c in range(d):
                e = np.zeros(d)
                e[c] = step
                fd_grad = (dom.phi(pts + e) - dom.phi(pts - e)) / (2 * step)
                np.testing.assert_allclose(fd_grad, dom.grad_phi(pts)[..., c],
                                           atol=5e-7)
                fd_hess = (dom.grad_phi(pts + e) - dom.grad_phi(pts - e)) / (2 * step)
                np.testing.assert_allclose(fd_hess, dom.hess_phi(pts)[..., c],
                                           atol=5e-5)

    def test_phi_bounded_on_closure(self):
        for dom in (unit_interval(), unit_ball()):
            rng = np.random.default_rng(8)
            pts = dom.sample_closure(1000, rng)
            assert np.all(np.isfinite(dom.phi(pts)))
            assert np.max(dom.phi(pts)) <= dom.diameter


class TestProject:
    def test_examples(self):
        ball = unit_ball()
        np.testing.assert_allclose(project(ball, np.array([2.0, 0.0])),
                                   [1.0, 0.0], atol=1e-15)
        iv = unit_interval()
        assert project(iv, np.array([0.4]))[0] == pytest.approx(0.4)
        assert project(iv, np.array([-0.3]))[0] == pytest.approx(0.0)

    def test_idempotence_and_nonexpansiveness(self):
        for dom in (unit_interval(), unit_ball(3)):
            rng = np.random.default_rng(11)
            d = dom.dimension
            p = rng.uniform(-2, 2, size=(1000, d))
            q = rng.uniform(-2, 2, size=(1000, d))
            pp = project(dom, p)
            np.testing.assert_allclose(project(dom, pp), pp, atol=0.0)
            lhs = np.linalg.norm(project(dom, p) - project(dom, q), axis=-1)
            rhs = np.linalg.norm(p - q, axis=-1)
            assert np.all(lhs <= rhs + 1e-12)

    @pytest.mark.parametrize("center", [[0.0, 0.0], [0.5, -0.25]])
    def test_projecting_twice_equals_projecting_once_bitwise(self, center):
        # a rescaled row that rounds an ulp outside is rescaled again, so
        # a second projection moves no row in any bit: 2,068 and 3,889 of
        # these rows moved when the first rescale was the last
        dom = make_domain("ball", center=center, radius=1.0)
        p = 2.0 * np.random.default_rng(0).standard_normal((100_000, 2))
        once = project(dom, p)
        assert project(dom, once).tobytes() == once.tobytes()
        assert np.all(dom.signed_distance(once) >= 0.0)

    def test_variational_characterization(self):
        # <p - q, z - q> <= 0 for all z in the closed domain
        for dom in (unit_interval(), unit_ball()):
            rng = np.random.default_rng(12)
            d = dom.dimension
            p = rng.uniform(-3, 3, size=(200, d))
            q = project(dom, p)
            z = dom.sample_closure(200, rng)
            inner = np.sum((p - q) * (z - q), axis=-1)
            assert np.all(inner <= 1e-12)

    def test_boundary_normal_consistency(self):
        for dom in (unit_interval(), unit_ball()):
            rng = np.random.default_rng(13)
            bd = dom.sample_boundary(100, rng)
            n = dom.grad_phi(bd)
            for t in (1e-6, 1e-3, dom.diameter / 8):
                inward = bd + t * n
                np.testing.assert_allclose(project(dom, inward), inward,
                                           atol=1e-12)
                outward = bd - t * n
                np.testing.assert_allclose(project(dom, outward), bd,
                                           atol=1e-9)



def bits(a):
    """The float64 bit patterns of a, which tell 0.0 from -0.0 and keep NaN."""
    return np.asarray(a, float).view(np.int64)


class TestProjectionFormulas:
    """The projections against the formulas they replace, bit for bit."""

    @staticmethod
    def rescaled_ball(center, radius, p):
        """The ball projection as a formula: every point scaled by r / rho
        where rho > r and by 1 elsewhere, with rho from np.linalg.norm; a
        scaled point still outside, whose offset from the centre has a norm
        rho' > r, is scaled again by r (1 - margin) / rho', with the margin
        8 d eps (1 + max |c| / r)."""
        rel = np.asarray(p, float) - center
        rho = np.linalg.norm(rel, axis=-1)
        scale = np.where(rho > radius,
                         radius / np.where(rho > 0, rho, 1.0), 1.0)
        out = center + rel * scale[..., None]
        back = out - center
        again = np.linalg.norm(back, axis=-1)
        margin = (8 * center.size * np.finfo(float).eps
                  * (1.0 + np.abs(center).max() / radius))
        twice = center + back * (radius * (1.0 - margin)
                                 / np.where(again > radius, again, 1.0)
                                 )[..., None]
        return np.where((again > radius)[..., None], twice, out)

    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0], 1.0), ([0.3, -1.7], 0.25), ([1.0, 2.0, -0.5], 3.0)])
    def test_ball_equals_rescaling_formula(self, center, radius):
        c = np.array(center)
        d = c.size
        dom = make_domain("ball", center=center, radius=radius)
        rng = np.random.default_rng(d)
        dirs = rng.standard_normal((300, d))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        # inside, on the sphere, just past it and far outside, the centre
        # and NaN
        radii = np.concatenate([rng.uniform(0, radius, 100), [radius] * 100,
                                radius * rng.uniform(1, 1e3, 100)])
        nan = c.copy()
        nan[0] = np.nan
        p = np.vstack([c + dirs * radii[:, None], c, nan,
                       c + np.nextafter(radius, np.inf) * np.eye(d)])
        # (n, d), (..., d) stacks, a strided view and a Fortran-ordered copy
        for stack in (p, p[:300].reshape(10, 30, d), p[::2],
                      np.asfortranarray(p)):
            np.testing.assert_array_equal(
                bits(project(dom, stack)),
                bits(self.rescaled_ball(c, radius, stack)))
        for point in (p[0], p[150], p[250], c, nan, p[-1]):  # single points
            q = project(dom, point)
            assert q.shape == (d,)
            np.testing.assert_array_equal(
                bits(q), bits(self.rescaled_ball(c, radius, point)))
        assert np.isnan(project(dom, nan)[0])

    @pytest.mark.parametrize("center", [
        [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0, 0.0], [0.5, -0.25]])
    def test_centred_and_shifted_routes_equal_the_formula(self, center):
        # a centre of +0.0 entries skips the vector subtract and adds 0.0;
        # one with a -0.0 entry, or off the origin, takes the general route.
        # Both must keep the formula's signed zeros, NaN and rescaling
        c = np.array(center)
        d = c.size
        dom = make_domain("ball", center=center, radius=1.0)
        signs = np.array(np.meshgrid(*[[0.0, -0.0]] * d)).reshape(d, -1).T
        p = np.vstack([
            signs,                                   # every mix of +-0.0
            c + signs,                               # and shifted by c
            np.where(signs == 0, 3.0, -0.0)[1:],     # outside, with -0.0
            np.full(d, np.nan), np.r_[np.nan, -0.0 * np.ones(d - 1)],
            c + np.eye(d) * np.nextafter(1.0, np.inf),   # just past
            c - np.eye(d) * 0.5,                         # inside
        ])
        for stack in (p, p[::2], p[:, None, :]):
            np.testing.assert_array_equal(
                bits(project(dom, stack)),
                bits(self.rescaled_ball(c, 1.0, stack)))
        for point in p:
            np.testing.assert_array_equal(
                bits(project(dom, point)),
                bits(self.rescaled_ball(c, 1.0, point)))

    @pytest.mark.parametrize("center", [
        [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0, 0.0], [0.5, -0.25]])
    def test_centred_distance_and_normal_equal_the_formula(self, center):
        # a centre of +0.0 entries subtracts nothing: p - c is p in every
        # bit, so the distance, the normal and the Hessian are unchanged
        c = np.array(center)
        d = c.size
        dom = make_domain("ball", center=center, radius=1.0)
        signs = np.array(np.meshgrid(*[[0.0, -0.0]] * d)).reshape(d, -1).T
        p = np.vstack([signs, c + signs, np.full(d, np.nan),
                       np.r_[np.nan, -0.0 * np.ones(d - 1)],
                       np.where(signs == 0, 3.0, -0.0)[1:],
                       c + np.eye(d) * np.nextafter(1.0, np.inf),
                       c - np.eye(d) * 0.5, c + 0.9 * np.eye(d),
                       np.where(np.eye(d) > 0, 0.5, -0.0),   # -0.0 beside
                       np.where(np.eye(d) > 0, -2.0, -0.0)])  # a number
        for stack in (p, p[:, None, :], p[0]):
            rel = stack - c
            rho = _norm(rel)
            safe = np.where(rho > 0, rho, 1.0)
            slope = _ramp_d1(1.0 - rho, 0.5, 1.0)
            grad = np.where(rho[..., None] > 0,
                            slope[..., None] * (-rel / safe[..., None]), 0.0)
            np.testing.assert_array_equal(bits(dom.signed_distance(stack)),
                                          bits(1.0 - rho))
            np.testing.assert_array_equal(bits(dom.grad_phi(stack)),
                                          bits(grad))
            n = rel / safe[..., None]
            nn = n[..., :, None] * n[..., None, :]
            dd = 1.0 - rho
            s1, s2 = _ramp_d1(dd, 0.5, 1.0), _ramp_d2(dd, 0.5, 1.0)
            hess = np.where(rho[..., None, None] > 0,
                            s2[..., None, None] * nn - (s1 / safe)[
                                ..., None, None] * (np.eye(d) - nn), 0.0)
            np.testing.assert_array_equal(bits(dom.hess_phi(stack)),
                                          bits(hess))

    def test_huge_point_lands_on_the_sphere(self):
        # rho overflowed in np.linalg.norm, so r / rho was 0 and the point
        # went to the centre, with an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = project(unit_ball(), np.array([1e200, 0.0]))
            qs = project(unit_ball(), np.array([[-3e200, 4e200], [0.5, 0.5]]))
        assert q.tolist() == [1.0, 0.0]
        np.testing.assert_allclose(qs, [[-0.6, 0.8], [0.5, 0.5]], rtol=1e-15)

    def test_huge_point_distance_and_normal(self):
        # |p - c| = 1e200 overflowed in np.linalg.norm: the distance was
        # -inf and the normal [-0, -0], with an overflow warning
        dom = unit_ball()
        p = np.array([1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = dom.signed_distance(p)
            grad = dom.grad_phi(p)
            hess = dom.hess_phi(np.array([[0.0, -1e200], [0.5, 0.0]]))
        assert dist == 1.0 - 1e200
        assert grad.tolist() == [-1.0, 0.0]
        np.testing.assert_allclose(hess[0], [[-1e-200, 0.0], [0.0, 0.0]],
                                   rtol=1e-15, atol=0)
        np.testing.assert_array_equal(
            hess[1], dom.hess_phi(np.array([0.5, 0.0])))

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0),
                                      (-1.0, -0.0), (-2.5, 3.0)])
    def test_interval_equals_clip(self, a, b):
        dom = make_domain("interval", a=a, b=b)
        special = [0.0, -0.0, a, b, np.nextafter(a, -np.inf),
                   np.nextafter(b, np.inf), np.nan, -np.nan, np.inf, -np.inf,
                   0.5 * (a + b), 1e300, -1e300]
        p = np.array(special)[:, None]
        np.testing.assert_array_equal(bits(project(dom, p)),
                                      bits(np.clip(p, a, b)))
        for v in special:
            np.testing.assert_array_equal(bits(project(dom, [v])),
                                          bits(np.clip([v], a, b)))


class TestVerifyConvexity:
    def test_alpha_min_zero_for_ball_and_interval(self):
        for dom in (unit_ball(), unit_interval()):
            rep = verify_convexity(dom, 1000, rng_seed=21)
            assert rep["alpha_min"] <= 1e-9 and rep["passed"]

    def test_corrupted_gradient_fails(self):
        dom = unit_interval()
        bad = dataclasses.replace(dom, grad_phi=lambda p: -dom.grad_phi(p))
        rep = verify_convexity(bad, 1000, rng_seed=22)
        assert not rep["passed"] and rep["alpha_min"] > 1e-8

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            verify_convexity(unit_ball(), 1, rng_seed=0)


class TestModelDimension:
    """Coefficients whose state dimension is not the domain's are rejected
    by every entry point that takes both, not broadcast or read in part."""

    GRID = TimeGrid(0.0, 1.0, 4)
    CALLS = {
        "audit": lambda co, dom, g: audit_assumptions(co, dom),
        "limit field": lambda co, dom, g: limit_value_field(
            co, dom, g, make_lattice(dom, 5)),
        "lattice solve": lambda co, dom, g: solve_bsde_grid(
            co, dom, 0.1, g, make_lattice(dom, 5), 64, 0),
        "action": lambda co, dom, g: evaluate_action(
            co, dom, np.full((5, 1), 0.5), g),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_disc_model_on_interval_raises(self, call):
        co = preset("ou-in-ball")
        with pytest.raises(ValueError, match=(
                "dimensions differ; the domain has 1 and the coefficients 2")):
            self.CALLS[call](co, unit_interval(), self.GRID)

    def test_action_path_of_other_dimension_raises(self):
        co = preset("zero-drift-unit-noise")
        with pytest.raises(ValueError, match="path shape"):
            evaluate_action(co, unit_interval(), np.full((5, 2), 0.5),
                            self.GRID)
