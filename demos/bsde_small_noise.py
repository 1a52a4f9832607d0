"""Backward equations along the skeleton and their small-noise limit.

For the linear driver f = -lam * y with no boundary term and terminal
condition h(x) = x, the deterministic limit equation along a static
skeleton has the closed form Y_t = x * exp(-lam * (T - t)). The lattice
solver at epsilon > 0 converges to the same value map as epsilon shrinks;
the demo reads both fields along the skeleton with the projection map Pi.
"""

import numpy as np

import reflectal as rf


def main():
    dom = rf.make_domain("interval", a=0.0, b=1.0)
    co = rf.preset("linear-bsde", params={"lam": 1.0})
    grid = rf.TimeGrid(0.0, 1.0, 512)

    skel = rf.integrate_skeleton_ode(co, dom, 0.0, [0.5], grid)
    limit = rf.solve_limit_bsde(co, skel)
    exact = 0.5 * np.exp(-1.0)
    print("limit BSDE   Y_0 = %.8f   closed form %.8f   gap %.2e"
          % (limit.y_path[0, 0], exact, abs(limit.y_path[0, 0] - exact)))

    times = rf.TimeGrid(0.0, 1.0, 64)
    lattice = rf.make_lattice(dom, 33)
    u0 = rf.limit_value_field(co, dom, times, lattice)
    for eps in (0.1, 0.05, 0.025):
        field = rf.solve_bsde_grid(co, dom, eps, times, lattice,
                                   mc_per_node=512, rng_seed=21)
        gap = float(np.max(np.abs(field.values - u0.values)))
        print("eps = %-6g sup-gap of value field to the limit = %.4f"
              % (eps, gap))

    y_along = rf.apply_pi(u0, skel.x_path[::8])
    print("Pi(limit field) along the skeleton at t = 0: %.8f" % y_along[0, 0])


if __name__ == "__main__":
    main()
