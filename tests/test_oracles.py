"""The test-only Brownian oracles against independent computations.

Tolerances, fixed from the error bounds before any run: the two sums of
the tail are alternating series truncated below 1e-18 per term, so they
agree to a few roundoffs of numbers <= 1, and 1e-14 allows for that. The
moments are adaptive quadratures asked for a relative error of 1e-13; they
are held to 1e-10. So is the reflected quartic against its quadrature over
the method-of-images density.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (reflected_quartic, sup_abs_cdf, sup_abs_moment,
                     sup_abs_tail)


def image_sum_tail(a, T=1.0):
    """P(sup_{t<=T} |W_t| >= a) by the reflection principle: the images of
    the start in the two barriers give 2 sum_j (-1)^j erfc((2j+1) a / sqrt(2T)),
    summed until the terms fall below 1e-20."""
    c = a / math.sqrt(2.0 * T)
    total, j = 0.0, 0
    while True:
        term = math.erfc((2 * j + 1) * c)
        if term < 1e-20:
            return 2.0 * total
        total += term if j % 2 == 0 else -term
        j += 1


@pytest.mark.parametrize("T", [1.0, 0.5])
def test_feller_series_equals_image_sum(T):
    a = np.linspace(0.2, 4.0, 39)
    feller = sup_abs_tail(a, T)
    images = np.array([image_sum_tail(v, T) for v in a])
    np.testing.assert_allclose(feller, images, rtol=0.0, atol=1e-14)
    assert np.all(np.diff(feller) < 0)


def test_mean_is_sqrt_pi_over_two():
    assert sup_abs_moment(1.0) == pytest.approx(math.sqrt(math.pi / 2),
                                                rel=1e-10)


def test_inverse_square_is_the_mean_exit_time():
    # S^-2 is the exit time of (-1, 1) from 0, whose mean is 1
    assert sup_abs_moment(-2.0) == pytest.approx(1.0, rel=1e-10)


def test_fourth_moment_is_six_beta_four():
    k = np.arange(10_000)   # truncated below 1 / 20001^4 < 1e-17
    beta4 = float(np.sum((-1.0) ** k / (2 * k + 1.0) ** 4))
    moment = sup_abs_moment(4.0)
    assert moment == pytest.approx(6.0 * beta4, rel=1e-10)
    assert 5.93 < moment < 5.94


def test_rejects_a_not_positive():
    with pytest.raises(ValueError):
        sup_abs_cdf([0.5, 0.0])


def image_density(y, eps, T=1.0):
    """Density at y in [0, 1] of 1/2 + sqrt(eps) W_T reflected on [0, 1]:
    the Gaussian N(1/2, eps T) and its images in the walls, at 1/2 + 2n
    and -1/2 + 2n for every integer n, summed over |n| <= 20 (the next
    image lies more than 39 / sqrt(eps T) standard deviations away)."""
    n = 2.0 * np.arange(-20, 21)
    var = eps * T
    z = np.concatenate([y - 0.5 - n, y + 0.5 - n])
    density = np.exp(-z * z / (2 * var)).sum() / math.sqrt(2 * math.pi * var)
    return float(density)


@pytest.mark.parametrize("eps, T", [(0.1, 1.0), (0.05, 1.0), (0.025, 1.0),
                                    (0.0125, 1.0), (0.3, 2.0), (1e-3, 0.5)])
def test_reflected_quartic_equals_image_quadrature(eps, T):
    images, _ = quad(lambda y: (y - 0.5) ** 4 * image_density(y, eps, T),
                     0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert reflected_quartic(eps, T) == pytest.approx(images, rel=1e-10)


def test_reflected_quartic_limits():
    # the ladder of criterion 03; near 3 eps^2 for small eps (free Brownian
    # motion), 1/80 (the uniform law) for large eps T
    ladder = [reflected_quartic(e) for e in (0.1, 0.05, 0.025, 0.0125)]
    np.testing.assert_allclose(ladder, [9.745e-3, 5.304e-3, 1.805e-3,
                                        4.686e-4], rtol=1e-3)
    assert reflected_quartic(1e-4) == pytest.approx(3e-8, rel=1e-6)
    assert reflected_quartic(5.0, 2.0) == pytest.approx(1 / 80, rel=1e-15)
    with pytest.raises(ValueError):
        reflected_quartic(0.0)
