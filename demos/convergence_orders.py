"""Small-noise convergence orders of the reflected dynamics.

Fits log-log slopes of E[sup_t |X^eps - skeleton|^4] and the matching K
statistic over a geometric epsilon ladder, and reports the uniform bounds
on the moments of K. The proved upper bounds are O(eps); the measured decay
on this additive-noise preset is faster (close to eps^2).
"""

import reflectal as rf


def main():
    dom = rf.make_domain("interval", a=0.0, b=1.0)
    co = rf.preset("constant-drift", params={"v": 1.0})
    grid = rf.TimeGrid(0.0, 1.0, 1024)
    ladder = (0.1, 0.05, 0.025, 0.0125)

    # one simulation per epsilon level serves all four targets
    reports = rf.convergence_study(("X4", "K4", "Kmoment", "Kexp"), co, dom,
                                   0.0, [0.5], ladder, 4000, grid,
                                   rng_seed=11)
    for rep in reports:
        if rep.target in ("X4", "K4"):
            print("%-3s slope = %.3f  r2 = %.4f  errors = %s"
                  % (rep.target, rep.slope, rep.r2,
                     ["%.2e" % e for e in rep.errors]))
        else:
            print("%-7s per-eps estimates = %s (uniform bound check)"
                  % (rep.target, ["%.3f" % e for e in rep.errors]))


if __name__ == "__main__":
    main()
