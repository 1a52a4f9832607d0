"""Backward solvers: limit equation, lattice dynamic programming, value maps."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

import reflectal
from reflectal import backward
from reflectal.backward import (ValueField, _interpolation_plan, _pi_reader,
                                apply_pi, limit_value_field, make_lattice,
                                solve_bsde_grid, solve_limit_bsde)
from reflectal.coefficients import CoefficientSet, preset
from reflectal.errors import (FixedPointDivergence, NumericalBlowup,
                              OutOfLattice)
from reflectal.forward import TimeGrid, integrate_skeleton_ode, trajectory_rng
from reflectal.geometry import make_domain, project


def unit_interval():
    return make_domain("interval", a=0.0, b=1.0)


def skeleton(co, dom, x=0.5, n=256):
    return integrate_skeleton_ode(co, dom, 0.0, [x], TimeGrid(0.0, 1.0, n))


class TestLimitBsde:
    def test_no_driver_is_constant(self):
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        skel = skeleton(co, dom)
        bp = solve_limit_bsde(co, skel)
        np.testing.assert_array_equal(bp.y_path,
                                      np.full((257, 1), skel.x_path[-1, 0]))

    def test_linear_driver_exponential(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        skel = skeleton(co, dom, n=2000)
        bp = solve_limit_bsde(co, skel)
        t = skel.grid.nodes
        ref = skel.x_path[-1, 0] * np.exp(-(1.0 - t))
        assert np.max(np.abs(bp.y_path[:, 0] - ref)) <= 5.0 * skel.grid.dt

    def test_constant_boundary_driver_telescopes(self):
        dom = unit_interval()
        co = preset("boundary-g-constant", params={"v": 1.0, "g0": 1.0})
        skel = skeleton(co, dom, n=500)
        bp = solve_limit_bsde(co, skel)
        ref = skel.x_path[-1, 0] + 1.0 * (skel.k_path[-1] - skel.k_path)
        np.testing.assert_allclose(bp.y_path[:, 0], ref, atol=1e-14)

    def test_terminal_pin_exact(self):
        dom = unit_interval()
        co = preset("linear-bsde")
        skel = skeleton(co, dom)
        bp = solve_limit_bsde(co, skel)
        assert bp.y_path[-1, 0] == co.h(skel.x_path[-1][None])[0, 0]

    def test_requires_noise_free_skeleton(self):
        dom = unit_interval()
        co = preset("linear-bsde")
        from reflectal.forward import integrate_reflected_sde, trajectory_rng
        tr = integrate_reflected_sde(co, dom, 0.0, [0.5], 0.1,
                                     TimeGrid(0, 1, 8), trajectory_rng(0))
        with pytest.raises(ValueError):
            solve_limit_bsde(co, tr)

    def test_skeleton_must_end_at_horizon(self):
        dom = unit_interval()
        half = TimeGrid(0.0, 0.5, 64)
        skel = integrate_skeleton_ode(preset("linear-bsde"), dom, 0.0, [0.5],
                                      half)
        with pytest.raises(ValueError, match="ends at 0.5"):
            solve_limit_bsde(preset("linear-bsde"), skel)
        co = preset("linear-bsde", params={"T": 0.5})
        assert solve_limit_bsde(co, skel).y_path.shape == (65, 1)


class TestBsdeGrid:
    def test_constant_terminal_preserved(self):
        dom = unit_interval()
        c = 2.5
        co = CoefficientSet(
            b=lambda t, x: np.zeros_like(np.asarray(x, float)),
            sigma=lambda t, x: np.ones(np.asarray(x, float).shape[:-1] + (1, 1)),
            f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
            g=lambda t, x, y: np.zeros_like(np.asarray(y, float)),
            h=lambda x: np.full(np.asarray(x, float).shape[:-1] + (1,), c),
            dims=(1, 1, 1), T=1.0, name="const-h")
        field = solve_bsde_grid(co, dom, 0.05, TimeGrid(0, 1, 16),
                                make_lattice(dom, 9), 64, rng_seed=5)
        np.testing.assert_allclose(field.values, c, atol=1e-12)

    def test_terminal_slice_equals_h(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        lat = make_lattice(dom, 9)
        field = solve_bsde_grid(co, dom, 0.1, TimeGrid(0, 1, 8), lat, 64,
                                rng_seed=6)
        np.testing.assert_array_equal(field.values[-1, :, 0], lat[0])

    def test_one_step_degenerate_grid_matches_direct_mc(self):
        # h(x) = x is linear, so interpolation is exact and the value at a
        # node equals the sample mean of the one-step transitions; rebuild
        # the identical transitions from the documented stream keying
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        lat = (np.array([0.0, 1.0]),)
        times = TimeGrid(0.0, 1.0, 1)
        eps, mc, seed = 0.09, 256, 11
        field = solve_bsde_grid(co, dom, eps, times, lat, mc, rng_seed=seed)
        draws = trajectory_rng(seed, (0,)).standard_normal((2, mc, 1))
        for j, node in enumerate([0.0, 1.0]):
            dW = draws[j] * np.sqrt(times.dt)
            prop = node + np.sqrt(eps) * dW[:, 0]
            xn = np.clip(prop, 0.0, 1.0)
            assert abs(field.values[0, j, 0] - xn.mean()) <= 1e-12

    def test_step_i_node_j_draws_from_its_own_stream(self):
        # linear h and no drivers: each slice is the sample mean of the
        # piecewise-linear next slice over the one-step transitions, which
        # step i draws for all nodes, (nodes, mc), from
        # trajectory_rng(seed, (i,)); node j takes row j
        dom = unit_interval()
        co = preset("zero-drift-unit-noise")
        nodes = np.array([0.0, 0.5, 1.0])
        times = TimeGrid(0.0, 1.0, 3)
        eps, mc, seed = 0.2, 128, 29
        field = solve_bsde_grid(co, dom, eps, times, (nodes,), mc,
                                rng_seed=seed)
        ref = nodes.copy()
        for i in (2, 1, 0):
            nxt = ref
            ref = np.empty(3)
            draws = trajectory_rng(seed, (i,)).standard_normal((3, mc))
            for j, node in enumerate(nodes):
                dW = draws[j]
                xn = np.clip(node + np.sqrt(eps * times.dt) * dW, 0.0, 1.0)
                ref[j] = np.interp(xn, nodes, nxt).mean()
            np.testing.assert_allclose(field.values[i, :, 0], ref,
                                       rtol=0, atol=1e-12)

    def test_gap_to_limit_shrinks_with_epsilon(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        times = TimeGrid(0.0, 1.0, 32)
        lat = make_lattice(dom, 17)
        limit = limit_value_field(co, dom, times, lat)
        gaps = []
        for ei, e in enumerate((0.1, 0.05, 0.025)):
            fe = solve_bsde_grid(co, dom, e, times, lat, 512, rng_seed=100 + ei)
            gaps.append(float(np.max(np.abs(fe.values - limit.values))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_small_epsilon_approaches_limit_values(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        times = TimeGrid(0.0, 1.0, 32)
        lat = make_lattice(dom, 17)
        limit = limit_value_field(co, dom, times, lat)
        fe = solve_bsde_grid(co, dom, 1e-6, times, lat, 64, rng_seed=8)
        assert np.max(np.abs(fe.values - limit.values)) <= 5e-2

    def test_uniform_boundedness_over_ladder(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        times = TimeGrid(0.0, 1.0, 16)
        lat = make_lattice(dom, 9)
        for ei, e in enumerate((0.1, 0.05, 0.025, 0.0125)):
            fe = solve_bsde_grid(co, dom, e, times, lat, 64, rng_seed=20 + ei)
            assert float(np.max(np.abs(fe.values))) <= 2.0

    def test_parameter_validation(self):
        dom = unit_interval()
        co = preset("linear-bsde")
        lat = make_lattice(dom, 5)
        with pytest.raises(ValueError):
            solve_bsde_grid(co, dom, 0.0, TimeGrid(0, 1, 4), lat, 64, 0)
        with pytest.raises(ValueError):
            solve_bsde_grid(co, dom, 0.1, TimeGrid(0, 1, 4), lat, 32, 0)

    def test_grid_must_end_at_horizon(self):
        dom = unit_interval()
        lat = make_lattice(dom, 5)
        with pytest.raises(ValueError, match="ends at 0.5"):
            solve_bsde_grid(preset("linear-bsde"), dom, 0.1,
                            TimeGrid(0.0, 0.5, 4), lat, 64, 0)
        co = preset("linear-bsde", params={"T": 0.5})
        field = solve_bsde_grid(co, dom, 0.1, TimeGrid(0.0, 0.5, 4), lat, 64, 0)
        assert field.values.shape == (5, 5, 1)

    def test_fixed_point_divergence_reported(self):
        # lam * dt = 50 makes the implicit iteration non-contractive
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 50.0})
        with pytest.raises(FixedPointDivergence):
            solve_bsde_grid(co, dom, 0.1, TimeGrid(0, 1, 1),
                            make_lattice(dom, 5), 64, rng_seed=0)


class TestSolveLadder:
    """The lattice steps a ladder of levels as one sample stack: each
    level's field equals its own solve_bsde_grid bit for bit."""

    LADDER = (0.1, 0.05, 0.025, 0.0125)

    @staticmethod
    def counting(co, calls):
        """co with an f that logs the rows of each call."""
        f = co.f

        def spy(t, x, y, z):
            calls.append(len(y))
            return f(t, x, y, z)
        return replace(co, f=spy)

    def alone(self, co, dom, times, lat, mc, seeds):
        return [solve_bsde_grid(co, dom, e, times, lat, mc, seed).values
                for e, seed in zip(self.LADDER, seeds)]

    def test_levels_equal_their_own_solves_in_1d(self):
        # g0 != 0 is read as the constant g's value; the levels end their
        # fixed-point iterations after different counts
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0, "g0": 1.0})
        times, lat = TimeGrid(0, 1, 8), make_lattice(dom, 9)
        seeds = (3, 4, 5, 6)
        counts = []
        for e, seed in zip(self.LADDER, seeds):
            calls = []
            solve_bsde_grid(self.counting(co, calls), dom, e, times, lat, 64,
                            seed)
            counts.append(len(calls))
        assert len(set(counts)) > 1
        calls = []
        got = backward._solve_ladder(self.counting(co, calls), dom,
                                     self.LADDER, seeds, times, lat, 64)
        # every call sees the whole stack, for as long as some level moves:
        # a settled level keeps its rows, so each level's bits are its own
        assert set(calls) == {4 * 9} and len(calls) >= max(counts)
        assert got.shape == (9, 4, 9, 1)
        for level, want in enumerate(self.alone(co, dom, times, lat, 64,
                                                seeds)):
            assert got[:, level].tobytes() == want.tobytes()

    def test_levels_equal_their_own_solves_in_2d(self):
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        co = preset("ou-in-ball", params={"theta": 1.0})
        times, lat = TimeGrid(0, 1, 4), make_lattice(dom, 5)
        seeds = (7, 8, 9, 10)
        got = backward._solve_ladder(co, dom, self.LADDER, seeds, times, lat,
                                     64)
        assert got.shape == (5, 4, 5, 5, 1)
        for level, want in enumerate(self.alone(co, dom, times, lat, 64,
                                                seeds)):
            assert got[:, level].tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 2 * 9 * 64, 3 * 9 * 64])
    def test_passes_do_not_change_a_bit(self, budget, monkeypatch):
        # one level, two and three levels per pass against one pass of four
        dom = unit_interval()
        co = preset("boundary-g-constant", params={"v": 1.0, "g0": 1.0})
        args = (co, dom, self.LADDER, (1, 2, 3, 4), TimeGrid(0, 1, 8),
                make_lattice(dom, 9), 64)
        whole = backward._solve_ladder(*args)
        passes = []
        lattice_pass = backward._lattice_pass

        def spy(co, dom, eps, *rest):
            passes.append(len(eps))
            return lattice_pass(co, dom, eps, *rest)

        monkeypatch.setattr(backward, "_lattice_pass", spy)
        monkeypatch.setattr(backward, "_LADDER_SAMPLES", budget)
        assert backward._solve_ladder(*args).tobytes() == whole.tobytes()
        assert passes == {1: [1] * 4, 2 * 9 * 64: [2, 2],
                          3 * 9 * 64: [3, 1]}[budget]

    @staticmethod
    def steep_in_z():
        """linear-bsde whose f is -50 y where |z| passes a threshold, 0.6
        from t = 0.5 on and 0.25 before: lam dt = 50 makes the implicit
        iteration diverge at the nodes and times where the level's noise
        makes z large enough."""
        co = preset("linear-bsde")

        def f(t, x, y, z):
            steep = np.abs(z[..., 0]) > (0.25 if t < 0.5 else 0.6)
            return -50.0 * np.asarray(y) * steep
        return replace(co, f=f, h=lambda x: np.asarray(x, float) - 0.5)

    @pytest.mark.parametrize("budget", [1, 2**16])
    def test_divergence_names_the_first_failing_level(self, budget,
                                                      monkeypatch):
        # level 2 fails first in the backward sweep, at t = 0.75, level 1
        # later, at t = 0.25, and level 0 never: the ladder raises level
        # 1's error, as solving the levels one by one does
        monkeypatch.setattr(backward, "_LADDER_SAMPLES", budget)
        dom = unit_interval()
        co = self.steep_in_z()
        ladder, seeds = (0.001, 0.1, 0.8), (2, 2, 2)
        times, lat = TimeGrid(0, 1, 4), make_lattice(dom, 5)
        outcomes = []
        for e, seed in zip(ladder, seeds):
            try:
                solve_bsde_grid(co, dom, e, times, lat, 256, seed)
                outcomes.append(None)
            except FixedPointDivergence as exc:
                outcomes.append(str(exc))
        assert outcomes[0] is None
        assert outcomes[1].startswith("implicit step at eps=0.1, t=0.25, "
                                      "node [")
        assert outcomes[2].startswith("implicit step at eps=0.8, t=0.75, ")
        with pytest.raises(FixedPointDivergence) as info:
            backward._solve_ladder(co, dom, ladder, seeds, times, lat, 256)
        assert str(info.value) == outcomes[1]



def disc():
    return make_domain("ball", center=[0.0, 0.0], radius=1.0)


def t_drift(co):
    """co with a drift that reads t: toward the upper wall early, away from
    it late, and, in 2-D, pulled to the centre by 2t."""
    def b(t, x):
        x = np.asarray(x, float)
        return (1.5 - 3.0 * t) + (0.0 if x.shape[-1] == 1 else -2.0 * t * x)
    return replace(co, b=b)


class TestLimitField:
    """limit_value_field steps the skeletons of all start points in one
    forward and one backward sweep; each value is the per-start reference,
    the limit equation along the skeleton from (t_i, node) on its own
    grid TimeGrid(t_i, T, n - i), which has the field's nodes on a dyadic
    grid."""

    CASES = {
        # wall contact at x = 1, charged through g dK
        "g-constant": (unit_interval, lambda: preset(
            "boundary-g-constant", {"v": 1.0, "g0": 1.0})),
        "linear-bsde": (unit_interval, lambda: preset(
            "linear-bsde", {"lam": 1.0, "g0": 0.5})),
        "t-drift": (unit_interval, lambda: t_drift(preset(
            "linear-bsde", {"lam": 0.5, "g0": -1.0}))),
        "ou-outward@disc": (disc, lambda: preset("ou-in-ball",
                                                 {"theta": -1.5})),
        "t-drift@disc": (disc, lambda: t_drift(preset("ou-in-ball"))),
    }

    @staticmethod
    def per_start(co, dom, times, lat):
        """The field, start point by start point, through the public
        skeleton and limit solvers."""
        nodes, shape = backward._lattice_nodes(lat)
        starts = project(dom, nodes)
        n, t = times.n_steps, times.nodes
        values = np.empty((n + 1, len(starts), co.dims[2]))
        values[n] = co.h(starts)
        for i in range(n):
            sub = TimeGrid(t[i], times.T, n - i)
            for j, x in enumerate(starts):
                skel = integrate_skeleton_ode(co, dom, t[i], x, sub)
                values[i, j] = solve_limit_bsde(co, skel).y_path[0]
        return values.reshape((n + 1,) + shape + (-1,))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_per_start_reference(self, case):
        domain, coeffs = self.CASES[case]
        dom, co = domain(), coeffs()
        times, lat = TimeGrid(0.0, 1.0, 8), make_lattice(dom, 5)
        field = limit_value_field(co, dom, times, lat)
        want = self.per_start(co, dom, times, lat)
        assert field.values.tobytes() == want.tobytes()

    def test_the_wall_is_charged(self):
        # the g-constant case's skeletons reach the wall, so g dK moves
        # the field away from the g = 0 one
        dom, lat = unit_interval(), make_lattice(unit_interval(), 5)
        times = TimeGrid(0.0, 1.0, 8)
        charged = limit_value_field(self.CASES["g-constant"][1](), dom,
                                    times, lat)
        free = limit_value_field(preset("boundary-g-constant",
                                        {"v": 1.0, "g0": 0.0}),
                                 dom, times, lat)
        assert np.abs(charged.values - free.values).max() > 0.1

    @pytest.mark.parametrize("case", ["g-constant", "linear-bsde",
                                      "ou-outward@disc"])
    def test_a_grid_off_the_dyadic_nodes_is_within_4_ulps(self, case):
        # on 10 steps of [0, 2] the start times' own grids need not have
        # the field's nodes, and the rows step on the field's: the values
        # agree to 4 units in the last place of the field's largest value
        domain, coeffs = self.CASES[case]
        dom, co = domain(), replace(coeffs(), T=2.0)
        times, lat = TimeGrid(0.0, 2.0, 10), make_lattice(dom, 5)
        got = limit_value_field(co, dom, times, lat).values
        want = self.per_start(co, dom, times, lat)
        assert not np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=4 * np.spacing(np.abs(want).max()))

    @pytest.mark.parametrize("case", ["t-drift", "ou-outward@disc"])
    @pytest.mark.parametrize("per_table", [0, 1, 2.5])
    @pytest.mark.parametrize("T, n", [(1.0, 16), (2.0, 10)])
    def test_groups_do_not_change_a_bit(self, case, per_table, T, n,
                                        monkeypatch):
        # budgets of 0 (one start time per group), one table and 2.5 tables
        # of the first start time: groups then end mid-table, and later,
        # shorter tables take more start times. Every group steps on the
        # field's dt, also where a start time's own grid has another
        domain, coeffs = self.CASES[case]
        dom, co = domain(), replace(coeffs(), T=T)
        times, lat = TimeGrid(0.0, T, n), make_lattice(dom, 5)
        whole = limit_value_field(co, dom, times, lat)
        nodes = whole.values[0, ..., 0].size
        budget = int(per_table * nodes * (n + 1))
        groups = []
        field_group = backward._field_group

        def spy(co, dom, times, starts, first, last):
            groups.append((first, last))
            return field_group(co, dom, times, starts, first, last)

        monkeypatch.setattr(backward, "_field_group", spy)
        monkeypatch.setattr(backward, "_FIELD_TABLE", budget)
        got = limit_value_field(co, dom, times, lat)
        assert got.values.tobytes() == whole.values.tobytes()
        # consecutive groups, each within the budget or of one start time
        assert [a for a, _ in groups] == [0] + [b for _, b in groups[:-1]]
        assert groups[-1][1] == n and len(groups) > 1
        for first, last in groups:
            assert (last - first == 1
                    or (last - first) * nodes * (n + 1 - first) <= budget)
        assert any(last - first > 1 for first, last in groups) == (budget > 0)

    def test_one_group_steps_a_prefix_of_the_rows(self):
        # 4 start times of 5 nodes: the forward sweep steps 5, 10, 15 and
        # 20 rows, the backward sweep 20, 15, 10 and 5
        dom, calls = unit_interval(), []
        co = preset("linear-bsde", {"lam": 1.0, "g0": 0.5})
        f, b = co.f, t_drift(co).b

        def spy_b(t, x):
            calls.append(("b", len(x)))
            return b(t, x)

        def spy_f(t, x, y, z):
            calls.append(("f", len(y)))
            return f(t, x, y, z)

        limit_value_field(replace(co, b=spy_b, f=spy_f), dom,
                          TimeGrid(0.0, 1.0, 4), make_lattice(dom, 5))
        assert calls == [("b", 5), ("b", 10), ("b", 15), ("b", 20),
                         ("f", 20), ("f", 15), ("f", 10), ("f", 5)]

    @pytest.mark.parametrize("where, message", [
        ("b", "non-finite drift encountered"),
        ("f", "limit backward recursion became non-finite")])
    def test_blowup_raises_as_the_per_start_solvers_do(self, where, message):
        # a drift or a driver that turns infinite from t = 0.5 on
        dom = unit_interval()
        co = preset("linear-bsde", {"lam": 1.0})

        def blow(t, x, *rest):
            out = np.zeros_like(np.asarray(x if where == "b" else rest[0]))
            return out + (np.inf if t >= 0.5 else 0.0)

        co = replace(co, **{where: blow})
        times, lat = TimeGrid(0.0, 1.0, 4), make_lattice(dom, 5)
        with pytest.raises(NumericalBlowup, match=f"^{message}$"):
            limit_value_field(co, dom, times, lat)
        with pytest.raises(NumericalBlowup, match=f"^{message}$"):
            self.per_start(co, dom, times, lat)


class TestApplyPi:
    def test_constant_field(self):
        dom = unit_interval()
        times = TimeGrid(0.0, 1.0, 8)
        lat = make_lattice(dom, 5)
        field = ValueField(times=times, axes=lat,
                           values=np.full((9, 5, 1), 3.0), epsilon=0.0)
        path = np.linspace(0.1, 0.9, 9)[:, None]
        np.testing.assert_array_equal(apply_pi(field, path),
                                      np.full((9, 1), 3.0))

    def test_constant_path_at_node_reads_time_slice(self):
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        times = TimeGrid(0.0, 1.0, 16)
        lat = make_lattice(dom, 9)
        field = limit_value_field(co, dom, times, lat)
        j = 4
        path = np.full((17, 1), lat[0][j])
        got = apply_pi(field, path)
        np.testing.assert_allclose(got[:, 0], field.values[:, j, 0],
                                   atol=1e-14)

    def test_limit_field_grid_must_end_at_horizon(self):
        dom = unit_interval()
        lat = make_lattice(dom, 5)
        with pytest.raises(ValueError, match="ends at 2.0"):
            limit_value_field(preset("linear-bsde"), dom,
                              TimeGrid(0.0, 2.0, 4), lat)
        co = preset("linear-bsde", params={"T": 2.0})
        field = limit_value_field(co, dom, TimeGrid(0.0, 2.0, 4), lat)
        assert field.values.shape == (5, 5, 1)

    def test_out_of_lattice_rejected(self):
        dom = unit_interval()
        co = preset("linear-bsde")
        times = TimeGrid(0.0, 1.0, 4)
        field = limit_value_field(co, dom, times, make_lattice(dom, 5))
        with pytest.raises(OutOfLattice):
            apply_pi(field, np.full((5, 1), 1.5))

    @staticmethod
    def _field():
        dom = unit_interval()
        times = TimeGrid(0.0, 1.0, 4)
        return limit_value_field(preset("linear-bsde"), dom, times,
                                 make_lattice(dom, 5))

    def test_nan_point_rejected(self):
        path = np.full((5, 1), 0.5)
        path[2, 0] = np.nan
        with pytest.raises(OutOfLattice, match="hull"):
            apply_pi(self._field(), path)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 1), (6, 1), (3, 4, 1)])
    def test_one_node_per_field_time_node(self, shape):
        # the field has 5 time nodes, and a path node i is read at node i
        with pytest.raises(ValueError, match="one node per time node"):
            apply_pi(self._field(), np.full(shape, 0.5))

    def test_modulus_of_continuity(self):
        # perturbed paths move the read values by at most Lip * delta, with
        # the Lipschitz constant estimated from the lattice itself
        dom = unit_interval()
        co = preset("linear-bsde", params={"lam": 1.0})
        times = TimeGrid(0.0, 1.0, 16)
        lat = make_lattice(dom, 17)
        field = solve_bsde_grid(co, dom, 0.1, times, lat, 256, rng_seed=13)
        dx = lat[0][1] - lat[0][0]
        lip = float(np.max(np.abs(np.diff(field.values[:, :, 0], axis=1)))) / dx
        rng = np.random.default_rng(14)
        delta = 0.05
        for _ in range(100):
            base = rng.uniform(delta, 1.0 - delta, size=(17, 1))
            pert = np.clip(base + rng.uniform(-delta, delta, size=(17, 1)),
                           0.0, 1.0)
            gap = np.max(np.abs(apply_pi(field, base) - apply_pi(field, pert)))
            assert gap <= lip * delta + 1e-12

    def test_repeated_calls_match_fresh_interpolator(self):
        # every read, including a batch of paths, agrees with scipy's
        # rectilinear interpolator to rounding
        dom = make_domain("ball", center=[0.0, 0.0], radius=1.0)
        co = preset("ou-in-ball")
        times = TimeGrid(0.0, 1.0, 6)
        field = limit_value_field(co, dom, times, make_lattice(dom, 7))
        fresh = RegularGridInterpolator(
            (times.nodes,) + field.axes, field.values, method="linear",
            bounds_error=False, fill_value=None)
        rng = np.random.default_rng(5)
        for shape in ((7, 2), (3, 7, 2), (7, 2)):
            path = rng.uniform(-0.7, 0.7, shape)
            pts = np.concatenate(
                [np.broadcast_to(times.nodes, shape[:-1])[..., None], path],
                axis=-1)
            want = fresh(pts.reshape(-1, 3)).reshape(shape[:-1] + (1,))
            np.testing.assert_allclose(apply_pi(field, path), want,
                                       rtol=0, atol=1e-15)
        with pytest.raises(OutOfLattice):
            apply_pi(field, np.full((7, 2), 1.5))


def affine_field(times, axes, coef):
    """Field (n_t+1, *lattice_shape, 2) of two functions affine in (t, x)."""
    grids = np.meshgrid(times.nodes, *axes, indexing="ij")
    return np.stack([c[0] + sum(cj * g for cj, g in zip(c[1:], grids))
                     for c in coef], axis=-1)


def affine_at(times_q, path, coef):
    coords = (times_q,) + tuple(np.moveaxis(path, -1, 0))
    return np.stack([c[0] + sum(cj * q for cj, q in zip(c[1:], coords))
                     for c in coef], axis=-1)


LATTICES = [
    (make_domain("interval", a=-0.5, b=2.0), 7),
    (make_domain("ball", center=[0.3, -0.2], radius=1.5), 6),
]


class TestMultilinear:
    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_reproduces_node_values(self, dom, n_nodes):
        times = TimeGrid(0.0, 2.0, 5)
        axes = make_lattice(dom, n_nodes)
        values = np.random.default_rng(1).standard_normal(
            (6,) + (n_nodes,) * len(axes) + (2,))
        grids = np.meshgrid(times.nodes, *axes, indexing="ij")
        got = _interpolation_plan((times.nodes,) + axes)(values, grids)
        # a node's position can round to just below its index, which mixes
        # in the neighbour with a weight of a few ulp
        np.testing.assert_allclose(got, values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_reproduces_affine_functions(self, dom, n_nodes):
        times = TimeGrid(0.5, 1.5, 4)
        axes = make_lattice(dom, n_nodes)
        d = len(axes)
        rng = np.random.default_rng(2)
        coef = rng.uniform(-3, 3, size=(2, d + 2))
        field = ValueField(times=times, axes=axes,
                           values=affine_field(times, axes, coef), epsilon=0.0)
        lo, hi = dom.bbox
        path = rng.uniform(lo, hi, size=(3, 5, d))
        np.testing.assert_allclose(apply_pi(field, path),
                                   affine_at(times.nodes, path, coef),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_points_clipped_to_the_hull_stay_inside(self, dom, n_nodes):
        # a read just past the hull (within the check's slack) is the read at
        # the hull: no extrapolation, so it stays within the node values
        times = TimeGrid(0.0, 1.0, 3)
        axes = make_lattice(dom, n_nodes)
        d = len(axes)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4,) + (n_nodes,) * d + (1,))
        field = ValueField(times=times, axes=axes, values=values, epsilon=0.0)
        lo, hi = dom.bbox
        path = rng.uniform(lo, hi, size=(200, 4, d))
        beyond = np.where(rng.random(path.shape) < 0.5, lo - 5e-10, hi + 5e-10)
        path = np.where(rng.random(path.shape) < 0.3, beyond, path)
        got = apply_pi(field, path)
        np.testing.assert_array_equal(got,
                                      apply_pi(field, np.clip(path, lo, hi)))
        assert values.min() <= got.min() and got.max() <= values.max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_offsets_read_stacked_lattices(self, d):
        # six lattices stacked as (2, 3, *shape, k): a row with offset
        # s * size reads the s-th, bitwise as a read of that slice alone
        rng = np.random.default_rng(10 + d)
        axes = tuple(np.linspace(-1.0 + a, 2.0 + a, 4 + a) for a in range(d))
        shape = tuple(ax.size for ax in axes)
        values = rng.standard_normal((2, 3) + shape + (2,))
        coords = [rng.uniform(ax[0], ax[-1], 60) for ax in axes]
        for q, ax in zip(coords, axes):   # nodes and hull edges too
            q[:12] = rng.choice(ax, 12)
        which = rng.integers(0, 6, 60)
        read = _interpolation_plan(axes)
        got = read(values, coords, which * math.prod(shape))
        slices = values.reshape((6,) + shape + (2,))
        for s in range(6):
            rows = which == s
            assert rows.any()
            np.testing.assert_array_equal(
                got[rows], read(slices[s], [q[rows] for q in coords]))

    def test_non_uniform_axis_raises(self):
        times = TimeGrid(0.0, 1.0, 2)
        uneven = np.array([0.0, 0.25, 0.5, 0.8, 1.0])
        with pytest.raises(ValueError, match="uniform"):
            ValueField(times=times, axes=(uneven,),
                       values=np.zeros((3, 5, 1)), epsilon=0.0)
        with pytest.raises(ValueError, match="2 nodes"):
            ValueField(times=times, axes=(np.array([0.5]),),
                       values=np.zeros((3, 1, 1)), epsilon=0.0)
        dom = unit_interval()
        with pytest.raises(ValueError, match="uniform"):
            solve_bsde_grid(preset("linear-bsde"), dom, 0.1, times, (uneven,),
                            64, rng_seed=0)


class TestPiReader:
    """A reader built once reads what apply_pi reads, and both give the bits
    of one spatial read of node i in the field's time slice i alone. A
    multilinear read over (t, x) agrees to rounding: at a time node its
    time weight is 0 or 1, but for rounding, and blending with weight 1
    can move a bit."""

    @staticmethod
    def field(dom, n_nodes):
        times = TimeGrid(0.1, 0.9, 6)
        axes = make_lattice(dom, n_nodes)
        values = np.random.default_rng(len(axes)).standard_normal(
            (7,) + (n_nodes,) * len(axes) + (2,))
        return ValueField(times=times, axes=axes, values=values, epsilon=0.0)

    @staticmethod
    def slice_reads(field, points):
        """Node i of points (..., n+1, d) read in the field's time slice i
        alone, by the lattice's interpolation plan: (..., n+1, k)."""
        read = _interpolation_plan(field.axes)
        return np.stack([read(field.values[i],
                              tuple(np.moveaxis(points[..., i, :], -1, 0)))
                         for i in range(points.shape[-2])], axis=-2)

    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_reader_equals_apply_pi_and_one_lattice_read(self, dom, n_nodes):
        field = self.field(dom, n_nodes)
        times, d = field.times, len(field.axes)
        rng = np.random.default_rng(20 + d)
        read = _pi_reader(field)
        lo, hi = dom.bbox
        for shape in ((7, d), (3, 7, d), (2, 2, 7, d)):
            paths = rng.uniform(lo, hi, shape)
            paths[..., 0, :] = lo            # hull corners, and points just
            paths[..., 1, :] = hi            # past the hull
            paths[..., 2, 0] = hi[0] + 5e-10
            paths[..., 3, -1] = lo[-1] - 5e-10
            got = read(paths)
            assert got.shape == shape[:-1] + (2,)
            want = apply_pi(field, paths)
            assert got.tobytes() == want.tobytes()
            clipped = np.clip(paths, lo, hi)
            assert got.tobytes() == self.slice_reads(field,
                                                     clipped).tobytes()
            lattice = _interpolation_plan((times.nodes,) + field.axes)(
                field.values,
                (np.broadcast_to(times.nodes, shape[:-1]),
                 *np.moveaxis(clipped, -1, 0)))
            np.testing.assert_allclose(got, lattice, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_slope_is_a_difference_of_apply_pi_inside_a_cell(self, dom,
                                                             n_nodes):
        # inside a cell the read is affine along each axis, so a central
        # difference at h = 1e-4 cell widths is its slope up to rounding:
        # each of the two reads, of values at most V, rounds by at most
        # 2 (D + 1) eps V, and the moved coordinates by eps |x|, which moves
        # a read by at most 2 V eps |x| / width; over 2 h that is at most
        # (2 (D + 1) + 2 |x| / width) eps V / h, and 4 times it is allowed
        field = self.field(dom, n_nodes)
        d = len(field.axes)
        rng = np.random.default_rng(30 + d)
        origin = np.array([ax[0] for ax in field.axes])
        width = np.array([ax[1] - ax[0] for ax in field.axes])
        cells = rng.integers(0, n_nodes - 1, (5, 7, d))
        paths = origin + (cells + rng.uniform(0.25, 0.75, cells.shape)) * width
        value, slope = _pi_reader(field)(paths, slope=True)
        assert value.tobytes() == apply_pi(field, paths).tobytes()
        assert slope.shape == value.shape + (d,)
        h = 1e-4 * width.min()
        big = np.abs(field.values).max()
        tol = (4 * (2 * (d + 1) + 2 * np.abs(paths).max() / width.min())
               * np.finfo(float).eps * big / h)
        for c in range(d):
            step = h * np.eye(d)[c]
            diff = (apply_pi(field, paths + step)
                    - apply_pi(field, paths - step)) / (2.0 * h)
            assert np.abs(slope[..., c]).max() > 0.1
            np.testing.assert_allclose(slope[..., c], diff, rtol=0, atol=tol)

    @pytest.mark.parametrize("dom, n_nodes", LATTICES)
    def test_reader_and_apply_pi_reject_nan_and_outside(self, dom, n_nodes):
        field = self.field(dom, n_nodes)
        d = len(field.axes)
        read = _pi_reader(field)
        lo, hi = dom.bbox
        for bad in (np.nan, hi[-1] + 2e-9, lo[0] - 1.0):
            paths = np.full((3, 7, d), 0.5 * (lo + hi))
            paths[1, 4, -1] = bad
            with pytest.raises(OutOfLattice, match="hull"):
                read(paths)
            with pytest.raises(OutOfLattice, match="hull"):
                apply_pi(field, paths)


class TestHullClipper:
    """The hull clipper returns points strictly inside the hull as they
    are, and clips the others in full: every read keeps the bits of a read
    of fully clipped points, inside the hull, on its edges and within
    _PI_TOL past them, and a NaN or a point further out still fails."""

    CLIPPED = LATTICES + [(unit_interval(), 5)]    # the last: a 0.0 edge

    @staticmethod
    def full_clip(axes, points):
        lo, hi = np.array([(ax[0], ax[-1]) for ax in axes]).T
        return np.minimum(np.maximum(points, lo), hi)

    @staticmethod
    def stacks(axes, rng):
        """Points inside the hull; on its lower edges, -0.0 among them
        where an axis ends at 0.0; on its upper edges; and within _PI_TOL
        past them."""
        lo = np.array([ax[0] for ax in axes])
        hi = np.array([ax[-1] for ax in axes])
        inside = rng.uniform(lo, hi, (3, 7, lo.size))
        low, high, past = inside.copy(), inside.copy(), inside.copy()
        low[:, 0], low[0, 1], low[1, 2] = lo, -0.0 * lo, np.nextafter(lo, hi)
        high[:, 0], high[1, 2] = hi, np.nextafter(hi, lo)
        past[:, 0, 0] = lo[0] - 0.5 * backward._PI_TOL
        past[:, 1, -1] = hi[-1] + backward._PI_TOL
        return inside, low, high, past

    @pytest.mark.parametrize("dom, n_nodes", CLIPPED)
    def test_reads_equal_those_of_fully_clipped_points(self, dom, n_nodes):
        field = TestPiReader.field(dom, n_nodes)
        clip = backward._hull_clipper(field.axes)
        for points in self.stacks(field.axes, np.random.default_rng(50)):
            want = self.full_clip(field.axes, points)
            assert clip(points).tobytes() == want.tobytes()
            read = TestPiReader.slice_reads(field, want)
            assert apply_pi(field, points).tobytes() == read.tobytes()

    def test_a_negative_zero_on_a_zero_edge_is_clipped(self):
        clip = backward._hull_clipper(make_lattice(unit_interval(), 5))
        points = np.array([[-0.0], [0.5]])
        assert not np.signbit(clip(points)).any()
        inside = np.array([[0.25], [0.5]])
        assert clip(inside) is inside

    @pytest.mark.parametrize("dom, n_nodes", CLIPPED)
    def test_nan_and_points_past_the_slack_raise(self, dom, n_nodes):
        axes = make_lattice(dom, n_nodes)
        clip = backward._hull_clipper(axes)
        inside = self.stacks(axes, np.random.default_rng(51))[0]
        for axis, end, sign in ((0, 0, -1.0), (-1, -1, 1.0)):
            for bad in (np.nan, axes[axis][end] + 2 * sign * backward._PI_TOL):
                points = inside.copy()
                points[1, 3, axis] = bad
                with pytest.raises(OutOfLattice, match="hull"):
                    clip(points)


def multilinear_formula(axes, values, coords, offset=0):
    """The multilinear read as one formula, with its strides, corner
    offsets and per-axis scales worked out on every call: the oracle of the
    interpolation plan."""
    shape = values.shape[-1 - len(axes):-1]
    flat = values.reshape(-1, values.shape[-1])
    strides = [math.prod(shape[a + 1:]) for a in range(len(axes))]
    base, weights = offset, []
    for ax, q, stride in zip(axes, coords, strides):
        pos = (q - ax[0]) * ((ax.size - 1) / (ax[-1] - ax[0]))
        cell = np.minimum(np.maximum(pos.astype(np.intp), 0), ax.size - 2)
        base = base + cell * stride
        weights.append((pos - cell)[..., None])
    corners = [flat.take(base + sum(b * s for b, s in zip(bits, strides)),
                         axis=0)
               for bits in product((0, 1), repeat=len(axes))]
    for w in reversed(weights):
        corners = [lo + w * (hi - lo)
                   for lo, hi in zip(corners[::2], corners[1::2])]
    return corners[0]


class TestInterpolationPlan:
    """A plan built once reads what the formula reads, bit for bit, at any
    point, offset and values, and each reader, lattice pass and Y4 study
    builds one."""

    # the first axis starts at 0.0, so +0.0 and -0.0 coordinates land on a
    # node with weights of either sign
    AXES = (np.linspace(0.0, 1.3, 5), np.linspace(-0.7, 0.5, 4),
            np.linspace(-1.1, 2.0, 6))

    @classmethod
    def case(cls, d, n=90, seed=0):
        """Axes, values (2, 3, *lattice, 2) holding signed zeros, and n
        points with their stacked offsets."""
        rng = np.random.default_rng(seed + d)
        axes = cls.AXES[:d]
        shape = tuple(ax.size for ax in axes)
        values = rng.standard_normal((2, 3) + shape + (2,))
        values.reshape(-1)[::7] = 0.0
        values.reshape(-1)[3::7] = -0.0
        coords = []
        for ax in axes:
            q = rng.uniform(ax[0], ax[-1], n)
            q[:10] = rng.choice(ax, 10)                      # nodes
            q[10:14] = ax[0], ax[-1], ax[0], ax[-1]          # hull edges
            q[14:24] = rng.uniform(ax[-2], ax[-1], 10)       # top cell
            q[24:28] = 0.0, -0.0, 0.0, -0.0
            q[28:32] = (ax[0] - 5e-10, ax[-1] + 5e-10,       # in the clip
                        ax[0] - 1e-12, ax[-1] + 1e-12)       # slack
            coords.append(rng.permutation(q) if coords else q)
        which = rng.integers(0, 6, n)
        return axes, values, coords, which * math.prod(shape)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_plan_equals_the_formula(self, d):
        axes, values, coords, offsets = self.case(d)
        read = backward._interpolation_plan(axes)
        want = multilinear_formula(axes, values, coords, offsets)
        assert read(values, coords, offsets).tobytes() == want.tobytes()
        # one lattice, no offset; and stacked offsets that broadcast with
        # the coordinates, as the reader's two time slices do
        one = values[1, 2]
        assert (read(one, coords).tobytes()
                == multilinear_formula(axes, one, coords).tobytes())
        lead = np.array([[0], [5]]) * math.prod(one.shape[:-1])
        got = read(values, coords, lead)
        assert got.shape == (2, coords[0].size, 2)
        assert got.tobytes() == multilinear_formula(
            axes, values, coords, lead).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_plan_reads_other_values(self, d):
        # the lattice pass reads a new slice through the plan at every step
        axes, values, coords, offsets = self.case(d)
        read = backward._interpolation_plan(axes)
        for seed in (1, 2, 3):
            other = self.case(d, seed=seed)[1]
            assert (read(other, coords, offsets).tobytes()
                    == multilinear_formula(axes, other, coords,
                                           offsets).tobytes())

    @staticmethod
    def spy(monkeypatch, module):
        """The axes of every plan that module builds."""
        built, plan = [], module._interpolation_plan

        def spy(axes):
            built.append(axes)
            return plan(axes)
        monkeypatch.setattr(module, "_interpolation_plan", spy)
        return built

    def test_one_plan_per_reader(self, monkeypatch):
        field = TestPiReader.field(*LATTICES[1])
        built = self.spy(monkeypatch, backward)
        read = _pi_reader(field)
        paths = np.zeros((3, 7, 2))
        for _ in range(3):
            read(paths)
        assert built == [field.axes]
        apply_pi(field, paths)
        apply_pi(field, paths)
        assert len(built) == 3

    @pytest.mark.parametrize("budget, passes", [(2**16, 1), (2 * 9 * 64, 2)])
    def test_one_plan_per_lattice_pass(self, budget, passes, monkeypatch):
        dom = unit_interval()
        lattice = make_lattice(dom, 9)
        monkeypatch.setattr(backward, "_LADDER_SAMPLES", budget)
        built = self.spy(monkeypatch, backward)
        backward._solve_ladder(preset("linear-bsde"), dom,
                               (0.1, 0.05, 0.025, 0.0125), (1, 2, 3, 4),
                               TimeGrid(0, 1, 8), lattice, 64)
        assert len(built) == passes
        for axes in built:
            assert [ax.tolist() for ax in axes] == [lattice[0].tolist()]


def test_package_import_loads_no_scipy():
    # scipy is a test-only dependency; the package itself needs only numpy
    code = ("import reflectal, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(reflectal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [5.0, True, 1])
def test_make_lattice_node_count_must_be_a_count(n):
    with pytest.raises(ValueError, match="n_per_axis must be"):
        make_lattice(unit_interval(), n)


@pytest.mark.parametrize("mc", [64.0, True, 63])
def test_solve_bsde_grid_mc_per_node_must_be_a_count(mc):
    dom = unit_interval()
    with pytest.raises(ValueError, match="mc_per_node must be"):
        solve_bsde_grid(preset("zero-drift-unit-noise"), dom, 0.1,
                        TimeGrid(0.0, 1.0, 4), make_lattice(dom, 5), mc, 3)
