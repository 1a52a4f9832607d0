"""Property tests for the projection and the constraining (Skorokhod) map
over random intervals, balls and free paths, and for reflected paths and
their action over random coefficient sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reflectal.action import evaluate_action
from reflectal.coefficients import PRESET_NAMES, preset
from reflectal.forward import (FreePath, TimeGrid, integrate_skeleton_ode,
                               simulate_reflected_batch, skorokhod_map)
from reflectal.geometry import make_domain, project

COORD = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def domains(draw):
    if draw(st.booleans()):
        a = draw(st.floats(-2.0, 2.0))
        return make_domain("interval", a=a, b=a + draw(st.floats(0.1, 3.0)))
    d = draw(st.integers(2, 3))
    center = draw(arrays(float, d, elements=st.floats(-2.0, 2.0)))
    return make_domain("ball", center=center,
                       radius=draw(st.floats(0.1, 3.0)))


@st.composite
def domain_and_points(draw, n=8):
    dom = draw(domains())
    return dom, draw(arrays(float, (n, dom.dimension), elements=COORD))


@st.composite
def domain_and_free_path(draw):
    """A free path that starts inside the domain and moves by steps of up to
    half the diameter, so it leaves and re-enters the domain."""
    dom, pts = draw(domain_and_points(n=1))
    n = draw(st.integers(1, 60))
    steps = draw(arrays(float, (n, dom.dimension),
                        elements=st.floats(-1.0, 1.0)))
    start = project(dom, pts[0])
    values = np.concatenate([start[None],
                             start + np.cumsum(0.5 * dom.diameter * steps,
                                               axis=0)])
    return dom, FreePath(grid=TimeGrid(0.0, 1.0, n), values=values)


@settings(max_examples=60, deadline=None)
@given(domain_and_points())
def test_project_contains_and_is_idempotent(case):
    dom, p = case
    q = project(dom, p)
    assert np.all(dom.signed_distance(q) >= -dom.boundary_tol)
    np.testing.assert_allclose(project(dom, q), q, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(domain_and_points())
def test_project_is_non_expansive(case):
    dom, p = case
    q = project(dom, p)
    gaps_in = np.linalg.norm(p[:, None] - p[None], axis=-1)
    gaps_out = np.linalg.norm(q[:, None] - q[None], axis=-1)
    assert np.all(gaps_out <= gaps_in + 1e-12)


@settings(max_examples=60, deadline=None)
@given(domain_and_free_path())
def test_skorokhod_map_decomposition(case):
    dom, free = case
    dec = skorokhod_map(dom, free)
    assert np.all(dom.signed_distance(dec.psi) >= -dom.boundary_tol)
    np.testing.assert_allclose(dec.psi - dec.rho, free.values, rtol=0,
                               atol=1e-12)
    assert dec.total_variation[0] == 0.0
    assert np.all(np.diff(dec.total_variation) >= 0.0)


# each preset's parameters with the range they are drawn from
PRESET_PARAMS = {
    "zero-drift-unit-noise": {},
    "constant-drift": {"v": (-2.0, 2.0)},
    "linear-drift": {"rate": (0.0, 2.0)},
    "ou-in-ball": {"theta": (0.0, 2.0)},
    "linear-bsde": {"lam": (0.0, 2.0), "g0": (-2.0, 2.0)},
    "boundary-g-constant": {"v": (-2.0, 2.0), "g0": (-2.0, 2.0)},
}


@st.composite
def coefficient_cases(draw):
    """A preset with drawn parameters on the unit interval (d = 1) or the
    unit disc (d = 2), a start point in the closed domain, a grid and an
    epsilon."""
    name = draw(st.sampled_from(PRESET_NAMES))
    params = {key: draw(st.floats(lo, hi))
              for key, (lo, hi) in PRESET_PARAMS[name].items()}
    co = preset(name, params)
    d = co.dims[0]
    dom = (make_domain("interval", a=0.0, b=1.0) if d == 1
           else make_domain("ball", center=[0.0, 0.0], radius=1.0))
    x = project(dom, draw(arrays(float, d, elements=st.floats(-1.0, 1.0))))
    grid = TimeGrid(0.0, 1.0, draw(st.integers(4, 200)))
    return co, dom, x, grid, draw(st.floats(0.01, 0.5))


def test_property_presets_are_declared():
    assert set(PRESET_PARAMS) == set(PRESET_NAMES)


@settings(max_examples=300, deadline=None)
@given(coefficient_cases(), st.integers(0, 2**32 - 1))
def test_reflected_paths_and_action(case, seed):
    co, dom, x, grid, eps = case
    skel = integrate_skeleton_ode(co, dom, 0.0, x, grid)
    assert evaluate_action(co, dom, skel).action <= 1e-20
    xp, kp = simulate_reflected_batch(co, dom, 0.0, x, eps, grid, seed, 4)
    for k_path in (skel.k_path, *kp):
        assert k_path[0] == 0.0
        assert np.all(np.diff(k_path) >= 0.0)
    for path in (skel.x_path, *xp):
        assert np.all(dom.signed_distance(path) >= -dom.boundary_tol)
        assert evaluate_action(co, dom, path, grid).action >= 0.0
