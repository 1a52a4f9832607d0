"""Exact laws of Brownian motion, kept as test oracles; nothing in the
package uses them.

S = sup_{t<=T} |W_t| for a standard Brownian motion W started at 0. Its
law is Feller's series, from the eigenfunction expansion of the heat
equation on (-a, a) with absorbing ends:

    P(S < a) = (4/pi) sum_{k>=0} (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 T / (8a^2)).

By scaling, S at T = 1 has the law of tau^(-1/2), where tau is the exit
time of (-1, 1), and E exp(-s tau) = 1 / cosh(sqrt(2s)). So E S = sqrt(pi/2),
E S^-2 = E tau = 1, and E S^4 = E tau^-2 = 6 beta(4), with Dirichlet's
beta(4) = sum_k (-1)^k / (2k+1)^4; E S^4 is about 5.934.
"""

import numpy as np
from scipy.integrate import quad

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
