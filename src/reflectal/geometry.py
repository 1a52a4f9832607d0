"""Bounded convex domains with a C^2 defining function.

The domain is Theta = {phi > 0} with boundary {phi = 0}. Near the boundary
phi is the exact signed distance (positive inside), so |grad phi| = 1 on the
boundary and grad phi is the inward unit normal there. Deeper inside, where
the signed distance loses smoothness at the medial set, phi is blended to a
C^2 plateau by a polynomial ramp; the dynamics never evaluate phi there in a
way that matters, but the blend keeps finite-difference audits clean.

Two concrete shapes ship: an interval [a, b] in 1D and a Euclidean ball in
any dimension. Points are numpy arrays of shape (..., d); all callables are
vectorized over leading axes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidShape, StartOutsideDomain

__all__ = ["DomainSpec", "make_domain", "project", "verify_convexity"]

_ALPHA = 1e-8              # convexity slack absorbing roundoff in audits
_BOUNDARY_REL_TOL = 1e-9   # on-boundary tolerance, times the diameter


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of a bounded convex domain.

    phi, grad_phi and hess_phi take arrays of shape (..., d) and return
    arrays of shape (...,), (..., d) and (..., d, d) respectively.
    signed_distance is the exact (unsmoothed) signed distance to the
    boundary, used for on-boundary queries. bbox is the bounding box's
    (lower, upper) corners; sample_closure(n, rng) and sample_boundary(n, rng)
    return n points of the closed domain and of its boundary.
    """

    dimension: int
    phi: Callable
    grad_phi: Callable
    hess_phi: Callable
    boundary_tol: float
    diameter: float
    bbox: tuple
    signed_distance: Callable
    project_point: Callable
    sample_closure: Callable
    sample_boundary: Callable


def _norm(v):
    """np.linalg.norm(v, axis=-1), faster for small d: bitwise for d < 8
    wherever no square overflows or underflows, and inf only where the
    norm itself overflows."""
    d = v.shape[-1]
    if d == 1:
        return np.abs(v[..., 0])
    # the squares summed in place: 0 + x is x and x ** 2 is x * x in every
    # bit, so these are the bits of np.sqrt(sum(v[..., j] ** 2 ...))
    with np.errstate(over="ignore"):
        c = v[..., 0]
        out = c * c
        for j in range(1, d):
            c = v[..., j]
            out += c * c
        out = np.sqrt(out)
    big = np.isinf(out)
    if big.any():   # rescale by the largest component where squares overflow
        out = np.array(out)   # writable, also as the 0-d norm of one vector
        big &= np.isfinite(v).all(axis=-1)
        w = v[big]
        m = np.abs(w).max(axis=-1)
        out[big] = m * np.sqrt(sum((w[..., j] / m) ** 2 for j in range(d)))
    return out


def _ramp(t, w, m):
    """C^2 saturation of the signed distance beyond the exact tube [.., w].

    Identity for t <= w; for t in (w, m] the slope falls smoothly from 1 to 0
    (cubic smoothstep profile), so the composite is C^2 across the medial set
    where the raw distance has a kink.
    """
    t = np.asarray(t, float)
    u = np.clip((t - w) / (m - w), 0.0, 1.0)
    ramped = w + (m - w) * (u - u**3 + 0.5 * u**4)
    return np.where(t <= w, t, ramped)


def _ramp_d1(t, w, m):
    t = np.asarray(t, float)
    u = np.clip((t - w) / (m - w), 0.0, 1.0)
    return np.where(t <= w, 1.0, 1.0 - 3.0 * u**2 + 2.0 * u**3)


def _ramp_d2(t, w, m):
    t = np.asarray(t, float)
    u = np.clip((t - w) / (m - w), 0.0, 1.0)
    return np.where(t <= w, 0.0, (-6.0 * u + 6.0 * u**2) / (m - w))


def _make_interval(a, b):
    if not b > a:
        raise InvalidShape(f"interval requires a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    w = 0.5 * half  # exact signed distance within (b-a)/4 of the boundary
    diam = b - a

    def dist(p):
        p = np.asarray(p, float)
        x = p[..., 0]
        return np.minimum(x - a, b - x)

    def phi(p):
        return _ramp(dist(p), w, half)

    def grad(p):
        p = np.asarray(p, float)
        x = p[..., 0]
        d = np.minimum(x - a, b - x)
        inward = np.where(x - a <= b - x, 1.0, -1.0)
        return (_ramp_d1(d, w, half) * inward)[..., None]

    def hess(p):
        p = np.asarray(p, float)
        d = dist(p)
        # grad of raw distance is +-1, hessian zero away from the midpoint
        return _ramp_d2(d, w, half)[..., None, None]

    def proj(p):   # np.clip's bits, ±0.0 and NaN included, at half its cost
        return np.minimum(b, np.maximum(a, np.asarray(p, float)))

    def closure(n, rng):
        return rng.uniform(a, b, size=(n, 1))

    def boundary(n, rng):
        return np.where(rng.random(n) < 0.5, a, b)[:, None]

    return DomainSpec(
        dimension=1, phi=phi, grad_phi=grad, hess_phi=hess,
        boundary_tol=_BOUNDARY_REL_TOL * diam, diameter=diam,
        bbox=(np.array([a]), np.array([b])), signed_distance=dist,
        project_point=proj, sample_closure=closure, sample_boundary=boundary)


def _make_ball(center, radius):
    if not radius > 0:
        raise InvalidShape(f"ball requires r > 0, got {radius}")
    c = np.atleast_1d(np.asarray(center, float))
    d = c.size
    w = 0.5 * radius
    diam = 2.0 * radius
    # a centre of +0.0 entries only: x - c is x and c + x is x + 0.0 in
    # every bit, -0.0 and NaN included, so the centred ball subtracts no
    # centre and its projection makes no (N, d) by (d,) broadcast; a -0.0
    # entry takes the general route
    centred = not any(c.tobytes())
    # a second rescale's relative margin: c + moved and its offset round by
    # eps (|c| + r) / 2 a coordinate, the norm and rescale by (d + 3) eps r
    margin = 8 * d * np.finfo(float).eps * (1.0 + np.abs(c).max() / radius)

    def offset(p):   # p - c
        p = np.asarray(p, float)
        return p if centred else p - c

    def dist(p):
        return radius - _norm(offset(p))

    def phi(p):
        return _ramp(dist(p), w, radius)

    def grad(p):
        rel = offset(p)
        rho = _norm(rel)
        safe = np.where(rho > 0, rho, 1.0)
        inward = -rel / safe[..., None]
        slope = _ramp_d1(radius - rho, w, radius)
        g = slope[..., None] * inward
        return np.where(rho[..., None] > 0, g, 0.0)

    def hess(p):
        p = np.asarray(p, float)
        rel = offset(p)
        rho = _norm(rel)
        safe = np.where(rho > 0, rho, 1.0)
        n = rel / safe[..., None]
        eye = np.eye(d)
        nn = n[..., :, None] * n[..., None, :]
        dd = dist(p)
        s1 = _ramp_d1(dd, w, radius)
        s2 = _ramp_d2(dd, w, radius)
        h = s2[..., None, None] * nn - (s1 / safe)[..., None, None] * (eye - nn)
        return np.where(rho[..., None, None] > 0, h, 0.0)

    def proj(p):   # only the points outside the ball are rescaled
        rel = offset(p)
        flat = rel.reshape(-1, d)
        out = flat + 0.0 if centred else c + flat
        rho = _norm(flat)
        far = np.flatnonzero(rho > radius)
        if far.size:
            moved = flat[far] * (radius / rho[far])[:, None]
            out[far] = moved + 0.0 if centred else c + moved
            # a row that rounds an ulp outside is rescaled again, inside by
            # the margin, so that a second projection leaves every row
            back = offset(out[far])
            rho = _norm(back)
            still = np.flatnonzero(rho > radius)
            if still.size:
                moved = back[still] * (radius * (1.0 - margin)
                                       / rho[still])[:, None]
                out[far[still]] = moved + 0.0 if centred else c + moved
        return out.reshape(rel.shape)

    def directions(n, rng):
        dirs = rng.standard_normal((n, d))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def closure(n, rng):
        dirs = directions(n, rng)
        return c + dirs * (radius * rng.random(n) ** (1.0 / d))[:, None]

    def boundary(n, rng):
        return c + radius * directions(n, rng)

    return DomainSpec(
        dimension=d, phi=phi, grad_phi=grad, hess_phi=hess,
        boundary_tol=_BOUNDARY_REL_TOL * diam, diameter=diam,
        bbox=(c - radius, c + radius), signed_distance=dist,
        project_point=proj, sample_closure=closure, sample_boundary=boundary)


def _refuse_bool(name, value):
    """Raise ValueError when value, a number or a nest of them, holds a
    boolean: true and false, as JSON or numpy gives them, are not numbers."""
    if any(isinstance(v, (bool, np.bool_))
           for v in np.ravel(np.asarray(value, dtype=object))):
        raise ValueError(f"{name} must be a number, not a boolean, "
                         f"got {value!r}")


def make_domain(kind, *, a=None, b=None, center=None, radius=None):
    """Build a DomainSpec for an interval or a ball."""
    kind = str(kind).lower()
    if kind == "interval":
        if a is None or b is None:
            raise InvalidShape("interval requires endpoints a and b")
        _refuse_bool("a", a)
        _refuse_bool("b", b)
        return _make_interval(float(a), float(b))
    if kind == "ball":
        if center is None or radius is None:
            raise InvalidShape("ball requires center and radius")
        _refuse_bool("center", center)
        _refuse_bool("radius", radius)
        return _make_ball(center, radius)
    raise InvalidShape(f"unknown domain kind {kind!r}")


def project(domain, p):
    """Euclidean nearest point of the closed domain.

    Idempotent and non-expansive; the returned q satisfies
    <p - q, z - q> <= 0 for every z in the closed domain.
    """
    return domain.project_point(np.asarray(p, float))


def _check_inside(domain, point, message, error=StartOutsideDomain):
    """Raise error(message.format(point)) unless point (d,) lies in the
    closed domain, up to the domain's boundary tolerance; the message is
    formatted only then. A non-finite point lies outside."""
    if not domain.signed_distance(point) >= -domain.boundary_tol:
        raise error(message.format(point))


def _check_dims(coeffs, domain, start=None):
    """Raise ValueError unless the coefficients and the domain have one
    dimension and start, a float array when given, has that many entries."""
    d, dim = coeffs.dims[0], domain.dimension
    if d != dim or start is not None and start.shape != (d,):
        what = ("dimensions differ" if start is None else
                f"start {start.tolist()} has {start.size} coordinates")
        raise ValueError(f"{what}; the domain has {dim} and the "
                         f"coefficients {d}")


def verify_convexity(domain, n_samples, rng_seed):
    """Smallest alpha making 2<x'-x, grad phi(x)> + alpha |x-x'|^2 >= 0
    over sampled boundary points x and closure points x'.

    Returns alpha_min, and passed, whether alpha_min is within the
    convexity slack _ALPHA.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rng = np.random.default_rng(rng_seed)
    xb = domain.sample_boundary(n_samples, rng)
    xc = domain.sample_closure(n_samples, rng)
    g = domain.grad_phi(xb)
    diff = xc - xb
    sq = np.sum(diff * diff, axis=1)
    inner = 2.0 * np.sum(diff * g, axis=1)
    ok = sq > 1e-30
    need = np.where(ok, np.maximum(0.0, -inner / np.where(ok, sq, 1.0)), 0.0)
    alpha_min = float(need.max())
    return {"alpha_min": alpha_min, "passed": alpha_min <= _ALPHA}
