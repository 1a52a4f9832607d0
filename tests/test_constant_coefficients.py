"""Constant coefficients: the kernel reads a constant drift as its value
and kicks by the noise itself when sigma = I, and the action skips
sigma sigma* and its inverse. Every product by the identity is exact, so
the presets give the bits that the same model gives through the general
route, written as plain functions."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from reflectal.action import _action_terms
from reflectal.backward import make_lattice, solve_bsde_grid
from reflectal.coefficients import PRESET_NAMES, _Constant, preset
from reflectal.forward import (FreePath, TimeGrid, _reflected_core,
                               integrate_skeleton_ode,
                               simulate_reflected_batch, skorokhod_map)
from reflectal.geometry import make_domain


def interval():
    return make_domain("interval", a=0.0, b=1.0)


def disc():
    return make_domain("ball", center=[0.0, 0.0], radius=1.0)


def general(co, b):
    """co with b as given and sigma = I, both plain functions."""
    d = co.dims[0]
    return replace(co, b=b, sigma=lambda t, x: np.broadcast_to(
        np.eye(d), np.shape(x) + (d,)).copy())


def constant_drift(v):
    return lambda t, x: np.full(np.shape(x), v)


def linear_drift(rate):
    return lambda t, x: -rate * np.asarray(x, float)


# (preset, its drift as a plain function, domain, start)
CASES = {
    "interval": (preset("constant-drift", {"v": 1.0}), constant_drift(1.0),
                 interval(), [0.5]),
    "disc": (preset("ou-in-ball", {"theta": -1.0}), linear_drift(-1.0),
             disc(), [0.6, 0.0]),
}


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class _Uncallable(_Constant):
    """A constant whose call fails: the fast route must only read it."""

    def __call__(self, t, *args):
        raise AssertionError("a constant coefficient was called")


def test_presets_declare_unit_diffusion():
    for name in PRESET_NAMES:
        co = preset(name)
        assert isinstance(co.sigma, _Constant) and co.sigma.unit, name
        assert isinstance(co.b, _Constant) == (
            name not in ("linear-drift", "ou-in-ball")), name


def test_unit_is_derived_from_the_value():
    assert _Constant(np.eye(2), (2, 2)).unit
    assert _Constant(1.0, (1, 1)).unit
    for value, shape in [(2.0 * np.eye(2), (2, 2)), (np.eye(2, 3), (2, 3)),
                         (1.0, (1,)), (1.0, (2, 2)), (0.0, (1, 1))]:
        assert not _Constant(value, shape).unit, (value, shape)
    const = _Constant(np.eye(2), (2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        const.unit = False
    with pytest.raises(TypeError):
        _Constant(np.eye(2), (2, 2), unit=False)
    with pytest.raises(ValueError):
        const.value[0, 0] = 2.0


@pytest.mark.parametrize("where", sorted(CASES))
def test_batch_equals_general_route(where):
    co, b, dom, x = CASES[where]
    grid = TimeGrid(0.0, 1.0, 96)
    want = simulate_reflected_batch(general(co, b), dom, 0.0, x, 0.2, grid,
                                    7, 200)
    got = simulate_reflected_batch(co, dom, 0.0, x, 0.2, grid, 7, 200)
    assert want[1][:, -1].max() > 0       # paths meet the wall
    for g, w in zip(got, want):
        assert_bitwise(g, w)
    # with epsilon = 0 per row, as the studies' skeleton row
    x0 = np.array([x, x], float)
    eps = np.array([0.0, 0.2])
    noise = np.random.default_rng(3).standard_normal((2, 96, len(x))) * 0.1
    want = _reflected_core(general(co, b), dom, x0, eps, grid, noise)
    got = _reflected_core(co, dom, x0, eps, grid, noise)
    for g, w in zip(got[:2], want[:2]):
        assert_bitwise(g, w)


@pytest.mark.parametrize("name, params", [
    ("linear-bsde", {"lam": 1.0, "g0": 0.5}),
    ("boundary-g-constant", {"v": 1.0, "g0": 1.0})])
def test_lattice_solve_equals_general_route(name, params):
    co = preset(name, params)
    dom = interval()
    times = TimeGrid(0.0, 1.0, 8)
    lattice = make_lattice(dom, 9)
    v = params.get("v", 0.0)
    want = solve_bsde_grid(general(co, constant_drift(v)), dom, 0.05, times,
                           lattice, 64, 11).values
    got = solve_bsde_grid(co, dom, 0.05, times, lattice, 64, 11).values
    assert_bitwise(got, want)


@pytest.mark.parametrize("where", sorted(CASES))
def test_skorokhod_map_equals_general_route(where):
    dom = CASES[where][2]
    d = dom.dimension
    grid = TimeGrid(0.0, 1.0, 64)
    walk = np.cumsum(np.random.default_rng(5).standard_normal((65, d)),
                     axis=0) * 0.15
    walk -= walk[0] - (0.5 if d == 1 else 0.0)
    dec = skorokhod_map(dom, FreePath(grid=grid, values=walk))
    # the map's old coefficient set, as plain functions
    unit = general(replace(preset("zero-drift-unit-noise"), dims=(d, d, 0)),
                   lambda t, x: np.zeros_like(x))
    psi, tv, _ = _reflected_core(unit, dom, walk[:1], 1.0, grid,
                                 np.diff(walk, axis=0)[None])
    assert tv[0, -1] > 0
    assert_bitwise(dec.psi, psi[0])
    assert_bitwise(dec.total_variation, tv[0])


def disc_stack(grid):
    """Disc paths that slide along the circle, so that many nodes lie on the
    boundary, and interior ones."""
    rng = np.random.default_rng(11)
    t = grid.nodes
    radii = np.minimum(np.linspace(0.2, 1.3, t.size), 1.0)
    angles = rng.uniform(0.0, 2.0 * np.pi, (4, 1)) + 0.8 * t
    slides = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)],
                                       axis=-1)
    inner = 0.6 * np.tanh(np.cumsum(rng.standard_normal((3, t.size, 2)),
                                    axis=1) * 0.2)
    return np.concatenate([slides, inner])


OU_OUT = preset("ou-in-ball", {"theta": -1.0})


@pytest.mark.parametrize("co, b", [
    (OU_OUT, linear_drift(-1.0)),
    (replace(OU_OUT, b=_Constant([0.5, -1.0], (2,))),
     constant_drift([0.5, -1.0]))], ids=["linear-drift", "constant-drift"])
def test_disc_action_terms_equal_general_route(co, b):
    dom = disc()
    grid = TimeGrid(0.0, 1.0, 16)
    stack = disc_stack(grid)
    got = _action_terms(co, dom, stack, grid)
    want = _action_terms(general(co, b), dom, stack, grid)
    assert np.any(got[2] > 0)             # boundary multipliers at work
    for g, w in zip(got, want):
        assert_bitwise(g, w)


def test_interval_action_terms_equal_general_route():
    co, b, dom, x = CASES["interval"]
    grid = TimeGrid(0.0, 1.0, 16)
    rng = np.random.default_rng(2)
    walks = np.clip(0.5 + np.cumsum(rng.standard_normal((6, 17)), axis=1)
                    * 0.1, 0.0, 1.0)
    stack = np.concatenate([walks, [np.minimum(0.7 + 0.6 * grid.nodes,
                                               1.0)]])[..., None]
    got = _action_terms(co, dom, stack, grid)
    want = _action_terms(general(co, b), dom, stack, grid)
    assert np.any(got[2] > 0)
    for g, w in zip(got, want):
        assert_bitwise(g, w)


def test_fast_route_calls_neither_b_nor_sigma():
    co = preset("linear-bsde", {"lam": 1.0, "g0": 0.5})
    read_only = replace(co, b=_Uncallable(0.0, (1,)),
                        sigma=_Uncallable(1.0, (1, 1)))
    dom = interval()
    grid = TimeGrid(0.0, 1.0, 32)
    for got, want in zip(
            simulate_reflected_batch(read_only, dom, 0.0, [0.5], 0.1, grid,
                                     3, 130),
            simulate_reflected_batch(co, dom, 0.0, [0.5], 0.1, grid, 3, 130)):
        assert_bitwise(got, want)
    skel = integrate_skeleton_ode(co, dom, 0.0, [0.5], grid).x_path
    assert_bitwise(_action_terms(read_only, dom, skel, grid)[0],
                   _action_terms(co, dom, skel, grid)[0])
    times, lattice = TimeGrid(0.0, 1.0, 4), make_lattice(dom, 5)
    assert_bitwise(
        solve_bsde_grid(read_only, dom, 0.1, times, lattice, 64, 2).values,
        solve_bsde_grid(co, dom, 0.1, times, lattice, 64, 2).values)


def test_other_constant_sigma_takes_the_general_route():
    """A constant sigma other than I is called and contracted, as a plain
    function would be."""
    co = preset("zero-drift-unit-noise")
    two = replace(co, sigma=_Constant(2.0, (1, 1)))
    plain = replace(co, sigma=lambda t, x: np.full(np.shape(x) + (1,), 2.0))
    dom = interval()
    grid = TimeGrid(0.0, 1.0, 32)
    for got, want in zip(
            simulate_reflected_batch(two, dom, 0.0, [0.5], 0.1, grid, 4, 50),
            simulate_reflected_batch(plain, dom, 0.0, [0.5], 0.1, grid, 4,
                                     50)):
        assert_bitwise(got, want)
    path = simulate_reflected_batch(co, dom, 0.0, [0.5], 0.1, grid, 4, 1)[0][0]
    assert_bitwise(_action_terms(two, dom, path, grid)[0],
                   _action_terms(plain, dom, path, grid)[0])
