"""Domain geometry: defining function, projection, convexity audit."""

import dataclasses

import numpy as np
import pytest

from reflectal.errors import AuditFailure, InvalidShape
from reflectal.geometry import make_domain, project, verify_convexity


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


class TestVerifyConvexity:
    def test_alpha_min_zero_for_ball_and_interval(self):
        for dom in (unit_ball(), unit_interval()):
            rep = verify_convexity(dom, 1000, rng_seed=21)
            assert rep["alpha_min"] <= 1e-9

    def test_corrupted_gradient_fails(self):
        dom = unit_interval()
        bad = dataclasses.replace(dom, grad_phi=lambda p: -dom.grad_phi(p))
        with pytest.raises(AuditFailure):
            verify_convexity(bad, 1000, rng_seed=22)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            verify_convexity(unit_ball(), 1, rng_seed=0)
