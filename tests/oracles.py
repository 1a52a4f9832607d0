"""Exact laws of Brownian motion and of reflected Brownian motion, kept as
test oracles; nothing in the package uses them.

S = sup_{t<=T} |W_t| for a standard Brownian motion W started at 0. Its
law is Feller's series, from the eigenfunction expansion of the heat
equation on (-a, a) with absorbing ends:

    P(S < a) = (4/pi) sum_{k>=0} (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 T / (8a^2)).

By scaling, S at T = 1 has the law of tau^(-1/2), where tau is the exit
time of (-1, 1), and E exp(-s tau) = 1 / cosh(sqrt(2s)). So E S = sqrt(pi/2),
E S^-2 = E tau = 1, and E S^4 = E tau^-2 = 6 beta(4), with Dirichlet's
beta(4) = sum_k (-1)^k / (2k+1)^4; E S^4 is about 5.934.

X = 1/2 + sqrt(eps) W reflected on [0, 1] has at time T the density
p_T(1/2, y) of the Neumann heat kernel of (eps/2) d^2/dy^2,

    p_T(x, y) = 1 + 2 sum_{k>=1} cos(k pi x) cos(k pi y) exp(-eps k^2 pi^2 T / 2).

From x = 1/2 only even k = 2j count, and with a = 2 j pi,
int_0^1 (y - 1/2)^4 cos(a y) dy = (1/a^2 - 24/a^4), so

    E (X_T - 1/2)^4 = 1/80 + 2 sum_{j>=1} (-1)^j exp(-eps a^2 T / 2) (1/a^2 - 24/a^4).

For linear-bsde, whose field at T is h(x) = x, this is E|Y_T - psi_T|^4
from the start 1/2, where the skeleton rests.

The discrete action of a 1-D path under the drift b(x) = -rate x and a
unit sigma, with both ends pinned, is (1/2dt) sum_j (x_{j+1} - c x_j)^2
with c = 1 - rate dt. Its interior optimum solves the tridiagonal normal
equations -c x_{j-1} + (1 + c^2) x_j - c x_{j+1} = 0.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

# P(S >= 12) is below 1e-32 at T = 1, so quadrature stops there
_TOP = 12.0


def sup_abs_cdf(a, T=1.0):
    """P(sup_{t<=T} |W_t| < a) for a > 0 (scalar or array), by Feller's
    series, summed until its terms fall below 1e-18."""
    a = np.asarray(a, float)
    if not (a > 0).all():
        raise ValueError("a must be > 0")
    # term k is below exp(-41) once 2k + 1 > sqrt(328) a / (pi sqrt(T))
    odd = 2.0 * np.arange(int(np.ceil(3.0 * a.max() / np.sqrt(T))) + 2) + 1
    sign = np.where(np.arange(odd.size) % 2, -1.0, 1.0)
    terms = sign / odd * np.exp(-np.multiply.outer(np.pi ** 2 * T / (8 * a * a),
                                                   odd * odd))
    return 4.0 / np.pi * terms.sum(axis=-1)


def sup_abs_tail(a, T=1.0):
    """P(sup_{t<=T} |W_t| >= a) for a > 0, by Feller's series."""
    return 1.0 - sup_abs_cdf(a, T)


def sup_abs_moment(p):
    """E S^p for S = sup_{t<=1} |W_t| and real p != 0, by adaptive
    quadrature of Feller's series: the integral over a > 0 of p a^(p-1)
    P(S >= a) for p > 0, and of -p a^(p-1) P(S < a) for p < 0. Beyond
    _TOP the first is nil and the second is _TOP^p in closed form."""
    if p == 0:
        raise ValueError("p must be nonzero")
    prob, beyond = (sup_abs_tail, 0.0) if p > 0 else (sup_abs_cdf, _TOP ** p)
    value, _ = quad(lambda a: abs(p) * a ** (p - 1) * prob(a), 0.0, _TOP,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value + beyond


def reflected_quartic(eps, T=1.0):
    """E (X_T - 1/2)^4 for X = 1/2 + sqrt(eps) W reflected on [0, 1], by the
    Neumann kernel's cosine series (module docstring), summed while
    exp(-eps a^2 T / 2) >= 1e-40; by then the terms left are below 1e-42."""
    if not (eps > 0 and T > 0):
        raise ValueError("eps and T must be > 0")
    # exp(-eps a^2 T / 2) < 1e-40 once a > sqrt(2 * 92.2 / (eps T))
    a = 2.0 * np.pi * np.arange(1, int(np.sqrt(185.0 / (eps * T)) / 6.0) + 2)
    sign = np.where(np.arange(a.size) % 2, 1.0, -1.0)
    terms = sign * np.exp(-eps * a * a * T / 2.0) * (1.0 / a**2 - 24.0 / a**4)
    return 1.0 / 80.0 + 2.0 * float(terms.sum())


def linear_drift_optimum(x, y, rate, n, T=1.0):
    """(action, path) of the cheapest n-step path from x to y under
    b(x) = -rate x and a unit sigma, by the tridiagonal solve of the module
    docstring; the path has shape (n+1,). The action is the minimum over
    all real paths, so it is the constrained one only when the path stays
    inside the domain."""
    dt = T / n
    c = 1.0 - rate * dt
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = bands[2, :-1] = -c
    bands[1] = 1.0 + c * c
    rhs = np.zeros(n - 1)
    rhs[0], rhs[-1] = c * x, c * y
    path = np.concatenate([[x], solve_banded((1, 1), bands, rhs), [y]])
    r = path[1:] - c * path[:-1]
    return 0.5 / dt * float(np.sum(r * r)), path
