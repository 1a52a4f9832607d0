"""Coefficient presets and assumption audits."""

from dataclasses import replace

import numpy as np
import pytest

from reflectal.coefficients import (CoefficientSet, PRESET_NAMES,
                                    audit_assumptions, preset)
from reflectal.errors import UnknownPreset
from reflectal.geometry import make_domain


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def _scalar_set(b=None, sigma=None, f=None, g=None, h=None):
    zero = lambda *a: np.zeros_like(np.asarray(a[-1], float))
    return CoefficientSet(
        b=b or (lambda t, x: np.zeros_like(np.asarray(x, float))),
        sigma=sigma or (lambda t, x: np.ones(np.asarray(x, float).shape[:-1]
                                             + (1, 1))),
        f=f or (lambda t, x, y, z: np.zeros_like(np.asarray(y, float))),
        g=g or (lambda t, x, y: np.zeros_like(np.asarray(y, float))),
        h=h or (lambda x: np.asarray(x, float).copy()),
        dims=(1, 1, 1), T=1.0, name="custom")


class TestAudit:
    def test_constant_coefficients_pass(self):
        co = preset("zero-drift-unit-noise")
        audit = audit_assumptions(co, unit_interval(), rng_seed=1)
        assert audit.all_passed
        assert audit.iota == pytest.approx(1.0)
        # difference quotients of constant coefficients vanish; only the
        # growth quotient |b|+|sigma| over 1+|x| contributes to L1
        assert audit.L1 <= 1.0 + 1e-12

    def test_degenerate_diffusion_fails_h2(self):
        co = _scalar_set(sigma=lambda t, x: np.zeros(
            np.asarray(x, float).shape[:-1] + (1, 1)))
        audit = audit_assumptions(co, unit_interval(), rng_seed=2)
        assert audit.iota == 0.0
        assert audit.passed == {"H1": True, "H2": False, "Hfgh": True,
                                "convex": True}
        assert audit.flags == ("H2 ellipticity floor not met: "
                               "iota=0.000e+00",)

    def test_cubic_driver_monotone_but_growth_violated(self):
        # f = -y^3: one-sided monotonicity holds with constant 0, the linear
        # growth bound fails for large |y|
        co = _scalar_set(f=lambda t, x, y, z: -np.asarray(y, float) ** 3)
        audit = audit_assumptions(co, unit_interval(), rng_seed=3)
        assert audit.passed == {"H1": True, "H2": True, "Hfgh": False,
                                "convex": True}
        assert len(audit.flags) == 1 and "growth" in audit.flags[0]
        # direct oracle: the monotonicity inner product is nonpositive
        rng = np.random.default_rng(3)
        y1, y2 = rng.standard_normal(64), rng.standard_normal(64)
        inner = (y1 - y2) * (-(y1 ** 3) + y2 ** 3)
        assert np.all(inner <= 1e-12)

    @staticmethod
    def _broken_above(fn, value, at=0.7):
        """fn with the given value wherever x > at."""
        def broken(t, x, *rest):
            out = np.array(fn(t, x, *rest), float)
            out[np.asarray(x)[..., 0] > at] = value
            return out
        return broken

    @pytest.mark.parametrize("name, value, failed, nan_constants", [
        ("b", np.nan, {"H1"}, {"L1"}),
        ("b", np.inf, {"H1"}, {"L1"}),
        ("sigma", np.nan, {"H1", "H2"}, {"L1", "iota"}),
        ("f", np.nan, {"Hfgh"}, {"L3"}),
    ], ids=["b-nan", "b-inf", "sigma-nan", "f-nan"])
    def test_coefficient_non_finite_on_part_of_the_domain_fails(
            self, name, value, failed, nan_constants):
        # the finite samples alone pass, so only the non-finite ones can
        # fail the audit, and no constant is read off the finite ones
        co = preset("constant-drift")
        broken = replace(co, **{name: self._broken_above(getattr(co, name),
                                                         value)})
        audit = audit_assumptions(broken, unit_interval(), rng_seed=1)
        assert audit_assumptions(co, unit_interval(), rng_seed=1).all_passed
        assert {h for h, ok in audit.passed.items() if not ok} == failed
        assert audit.flags == (f"{name} is not finite at some sampled point",)
        for const in ("L1", "L3", "iota"):
            v = getattr(audit, const)
            assert np.isnan(v) if const in nan_constants else np.isfinite(v)

    def test_convexity_is_audited(self):
        dom = unit_interval()
        co = preset("constant-drift")
        audit = audit_assumptions(co, dom, rng_seed=5)
        assert audit.passed["convex"] and audit.alpha_min == 0.0
        bad = replace(dom, grad_phi=lambda p: -dom.grad_phi(p))
        audit = audit_assumptions(co, bad, rng_seed=5)
        assert audit.passed == {"H1": True, "H2": True, "Hfgh": True,
                                "convex": False}
        assert audit.alpha_min > 1.0
        assert len(audit.flags) == 1 and "convexity" in audit.flags[0]


class TestPresets:
    def test_registry_contents(self):
        expected = {"zero-drift-unit-noise", "constant-drift", "linear-drift",
                    "ou-in-ball", "linear-bsde", "boundary-g-constant"}
        assert expected == set(PRESET_NAMES)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("no-such-model")

    def test_zero_drift_unit_noise_values(self):
        co = preset("zero-drift-unit-noise")
        x = np.array([[0.3]])
        assert co.b(0.0, x)[0, 0] == 0.0
        assert co.sigma(0.0, x)[0, 0, 0] == 1.0
        y = np.array([[0.7]])
        z = np.zeros((1, 1, 1))
        assert co.f(0.0, x, y, z)[0, 0] == 0.0
        assert co.g(0.0, x, y)[0, 0] == 0.0
        assert co.h(x)[0, 0] == 0.3

    def test_constant_drift_value(self):
        co = preset("constant-drift", params={"v": 1.0})
        x = np.array([[0.1], [0.9]])
        np.testing.assert_allclose(co.b(0.5, x), [[1.0], [1.0]])

    def test_linear_bsde_driver(self):
        co = preset("linear-bsde", params={"lam": 1.0})
        y = np.array([[2.0]])
        got = co.f(0.0, np.array([[0.5]]), y, np.zeros((1, 1, 1)))
        np.testing.assert_allclose(got, [[-2.0]])
        assert co.g(0.0, np.array([[0.5]]), y)[0, 0] == 0.0

    @pytest.mark.parametrize("name, key", [
        ("constant-drift", "v"), ("linear-drift", "rate"),
        ("ou-in-ball", "theta"), ("linear-bsde", "lam"),
        ("linear-bsde", "g0"), ("boundary-g-constant", "g0"),
        ("zero-drift-unit-noise", "T")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_parameter_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            preset(name, {key: value})

    @pytest.mark.parametrize("key", ["v", "T"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_boolean_parameter_rejected(self, key, value):
        # a boolean is not a number, though float() takes it
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            preset("constant-drift", {key: value})

    def test_every_preset_passes_own_audit(self):
        for name in PRESET_NAMES:
            co = preset(name)
            d = co.dims[0]
            dom = (unit_interval() if d == 1
                   else make_domain("ball", center=[0.0] * d, radius=1.0))
            audit = audit_assumptions(co, dom, rng_seed=9)
            assert audit.all_passed, name
            # estimated constants stay below the documented registry bounds
            assert audit.L1 <= co.meta["L1_doc"] + 1e-9, name
            assert audit.L3 <= co.meta["L3_doc"] + 1e-9, name
            assert audit.iota >= co.meta["iota_doc"] - 1e-9, name


def _evaluate(co, x, y):
    """b, sigma, f, g, h of a preset at (t, x, y) with z = 0."""
    z = np.zeros(y.shape + (co.dims[1],))
    return (co.b(0.3, x), co.sigma(0.3, x), co.f(0.3, x, y, z),
            co.g(0.3, x, y), co.h(x))


class TestPresetClosedForms:
    X1 = np.array([[0.0], [0.25], [1.0]])
    Y1 = np.array([[-1.5], [0.0], [2.0]])

    def test_linear_drift(self):
        b, sigma, f, g, h = _evaluate(preset("linear-drift", {"rate": 0.5}),
                                      self.X1, self.Y1)
        np.testing.assert_array_equal(b, -0.5 * self.X1)
        np.testing.assert_array_equal(sigma, np.ones((3, 1, 1)))
        np.testing.assert_array_equal(f, np.zeros((3, 1)))
        np.testing.assert_array_equal(g, np.zeros((3, 1)))
        np.testing.assert_array_equal(h, self.X1)

    def test_ou_in_ball(self):
        co = preset("ou-in-ball", {"theta": 2.0})
        assert co.dims == (2, 2, 1)
        x = np.array([[0.5, -0.25], [0.0, 1.0]])
        y = np.array([[3.0], [-1.0]])
        b, sigma, f, g, h = _evaluate(co, x, y)
        np.testing.assert_array_equal(b, -2.0 * x)
        np.testing.assert_array_equal(sigma, np.broadcast_to(np.eye(2),
                                                             (2, 2, 2)))
        np.testing.assert_array_equal(f, np.zeros((2, 1)))
        np.testing.assert_array_equal(g, np.zeros((2, 1)))
        np.testing.assert_array_equal(h, x[:, :1])

    def test_boundary_g_constant(self):
        b, sigma, f, g, h = _evaluate(
            preset("boundary-g-constant", {"v": -0.5, "g0": 2.5}),
            self.X1, self.Y1)
        np.testing.assert_array_equal(b, np.full((3, 1), -0.5))
        np.testing.assert_array_equal(f, np.zeros((3, 1)))
        np.testing.assert_array_equal(g, np.full((3, 1), 2.5))
        np.testing.assert_array_equal(h, self.X1)

    def test_linear_bsde_with_boundary_term(self):
        b, sigma, f, g, h = _evaluate(
            preset("linear-bsde", {"lam": 0.5, "g0": -1.25}), self.X1, self.Y1)
        np.testing.assert_array_equal(b, np.zeros((3, 1)))
        np.testing.assert_array_equal(f, -0.5 * self.Y1)
        np.testing.assert_array_equal(g, np.full((3, 1), -1.25))
        np.testing.assert_array_equal(h, self.X1)

    def test_defaults_and_horizon(self):
        co = preset("boundary-g-constant", {"T": 2.5})
        assert co.T == 2.5
        b, _, _, g, _ = _evaluate(co, self.X1, self.Y1)
        np.testing.assert_array_equal(b, np.ones((3, 1)))
        np.testing.assert_array_equal(g, np.ones((3, 1)))

    @pytest.mark.parametrize("name, params", [
        ("constant-drift", {"velocity": 3.0}),
        ("zero-drift-unit-noise", {"v": 1.0}),
        ("linear-bsde", {"lam": 1.0, "g": 0.5}),
    ])
    def test_unknown_parameter_raises(self, name, params):
        with pytest.raises(ValueError, match="unknown parameters"):
            preset(name, params)

    def test_non_numeric_parameter_raises(self):
        with pytest.raises(ValueError):
            preset("constant-drift", {"v": "fast"})
