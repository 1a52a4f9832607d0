"""Model coefficients (drift, diffusion, drivers, terminal map) and audits.

A CoefficientSet bundles the five functions driving the forward and backward
dynamics. Conventions: state x has shape (..., d), value y shape (..., k),
control z shape (..., k, m); all maps are vectorized over leading axes and
must be pure: their values depend on their arguments only.

The audits are sampling-based certificates: they estimate the Lipschitz /
growth / ellipticity constants on a random grid and can only falsify the
standing assumptions, never prove them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AuditFailure, UnknownPreset

__all__ = ["CoefficientSet", "AssumptionAudit", "audit_assumptions",
           "preset", "PRESET_NAMES"]

_IOTA_FLOOR = 1e-10   # smallest eigenvalue of sigma sigma* passing audit H2


@dataclass(frozen=True)
class CoefficientSet:
    b: callable          # (t, x) -> (..., d)
    sigma: callable      # (t, x) -> (..., d, m)
    f: callable          # (t, x, y, z) -> (..., k)
    g: callable          # (t, x, y) -> (..., k)
    h: callable          # (x) -> (..., k)
    dims: tuple          # (d, m, k)
    T: float
    name: str = "custom"
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)  # documented constants etc.


@dataclass(frozen=True)
class AssumptionAudit:
    L1: float
    L3: float
    iota: float
    passed: dict          # keys "H1", "H2", "Hfgh" -> bool
    flags: tuple = ()     # human-readable notes on soft violations

    @property
    def all_passed(self):
        return all(self.passed.values())


def _pair_quotient(num, den, floor=1e-30):
    ok = den > floor
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def audit_assumptions(coeffs, domain, grid=None, rng_seed=0, strict=False):
    """Estimate the Lipschitz/growth constants of (b, sigma), the ellipticity
    lower bound of sigma sigma*, and check the one-sided monotonicity and
    growth inequalities of the backward drivers on a sampled grid.

    With strict=True a violated inequality raises AuditFailure carrying the
    witness; otherwise it is recorded in the pass flags and flags list.
    """
    grid = grid or {}
    n_space = int(grid.get("n_space", 32))
    n_time = int(grid.get("n_time", 16))
    n_yz = int(grid.get("n_yz", 64))
    if n_space < 10 or n_time < 10:
        raise ValueError("audit grid needs >= 10 points per axis")

    d, m, k = coeffs.dims
    rng = np.random.default_rng(rng_seed)
    xs = domain.sample_closure(n_space, rng)
    xs2 = domain.sample_closure(n_space, rng)
    ts = np.linspace(0.0, coeffs.T, n_time)
    flags = []
    witness = None

    # (H1'_{b,sigma}): Lipschitz and linear growth of b, sigma in x.
    L1 = 0.0
    for t in ts:
        b1, b2 = coeffs.b(t, xs), coeffs.b(t, xs2)
        s1, s2 = coeffs.sigma(t, xs), coeffs.sigma(t, xs2)
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(s1))):
            witness = witness or ("H1", "non-finite b or sigma", t)
        num = (np.linalg.norm(b1 - b2, axis=-1)
               + np.linalg.norm(s1 - s2, axis=(-2, -1)))
        den = np.linalg.norm(xs - xs2, axis=-1)
        L1 = max(L1, float(np.max(_pair_quotient(num, den))))
        growth = ((np.linalg.norm(b1, axis=-1)
                   + np.linalg.norm(s1, axis=(-2, -1)))
                  / (1.0 + np.linalg.norm(xs, axis=-1)))
        L1 = max(L1, float(np.max(growth)))
    pass_h1 = np.isfinite(L1)

    # (H2_sigma): uniform ellipticity of sigma sigma*.
    iota = np.inf
    for t in ts:
        s = coeffs.sigma(t, xs)
        a = s @ np.swapaxes(s, -1, -2)
        ev = np.linalg.eigvalsh(a)[..., 0]
        iota = min(iota, float(np.min(ev)))
    iota = max(iota, 0.0)
    pass_h2 = iota >= _IOTA_FLOOR
    if not pass_h2:
        flags.append(f"H2 ellipticity floor not met: iota={iota:.3e}")

    # (H_{f,g,h}): Lipschitz in x and z, one-sided monotonicity in y,
    # and the growth bound |f| + |g| <= L3 (1 + |y| + ||z||).
    ys = rng.standard_normal((n_yz, k))
    ys2 = rng.standard_normal((n_yz, k))
    zs = rng.standard_normal((n_yz, k, m))
    zs2 = rng.standard_normal((n_yz, k, m))
    nx = min(n_space, n_yz)
    xa, xb = xs[:nx], xs2[:nx]
    L3 = 0.0
    mono_bound = 0.0
    for t in ts[:: max(1, n_time // 8)]:
        ya, yb = ys[:nx], ys2[:nx]
        za, zb = zs[:nx], zs2[:nx]
        dx = np.linalg.norm(xa - xb, axis=-1)
        # x-Lipschitz of f, g, h
        num = np.linalg.norm(coeffs.f(t, xa, ya, za) - coeffs.f(t, xb, ya, za), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        num = np.linalg.norm(coeffs.g(t, xa, ya) - coeffs.g(t, xb, ya), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        num = np.linalg.norm(coeffs.h(xa) - coeffs.h(xb), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        # z-Lipschitz of f
        dz = np.linalg.norm(za - zb, axis=(-2, -1))
        num = np.linalg.norm(coeffs.f(t, xa, ya, za) - coeffs.f(t, xa, ya, zb), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dz))))
        # one-sided monotonicity in y
        dy2 = np.sum((ya - yb) ** 2, axis=-1)
        inner_f = np.sum((ya - yb) * (coeffs.f(t, xa, ya, za)
                                      - coeffs.f(t, xa, yb, za)), axis=-1)
        inner_g = np.sum((ya - yb) * (coeffs.g(t, xa, ya)
                                      - coeffs.g(t, xa, yb)), axis=-1)
        mono_bound = max(mono_bound,
                         float(np.max(_pair_quotient(inner_f, dy2))),
                         float(np.max(_pair_quotient(inner_g, dy2))))
    L3 = max(L3, mono_bound)

    # growth bound probed along a ladder of |y| magnitudes: the quotient must
    # stay bounded, so a persistent increase across scales is a violation
    scales = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    qmax = []
    t0 = float(ts[len(ts) // 2])
    for s in scales:
        yq, zq = ys[:nx] * s, zs[:nx] * s
        q = ((np.linalg.norm(coeffs.f(t0, xa, yq, zq), axis=-1)
              + np.linalg.norm(coeffs.g(t0, xa, yq), axis=-1))
             / (1.0 + np.linalg.norm(yq, axis=-1)
                + np.linalg.norm(zq, axis=(-2, -1))))
        qmax.append(float(np.max(q)))
    L3 = max(L3, qmax[0])
    growth_ok = qmax[-1] <= 2.0 * max(qmax[0], 1e-12)
    if not growth_ok:
        i = int(np.argmax(qmax))
        flags.append(
            f"growth bound violated: quotient rises from {qmax[0]:.3e} "
            f"to {qmax[-1]:.3e} along the |y| ladder")
        witness = witness or ("Hfgh", "growth", {"scale": scales[i],
                                                 "quotient": qmax[i]})
    pass_hfgh = np.isfinite(L3) and growth_ok

    audit = AssumptionAudit(
        L1=L1, L3=L3, iota=iota,
        passed={"H1": bool(pass_h1), "H2": bool(pass_h2),
                "Hfgh": bool(pass_hfgh)},
        flags=tuple(flags))
    if strict and not audit.all_passed:
        raise AuditFailure("assumption audit failed: " + "; ".join(flags),
                           witness=witness)
    return audit


def _constant(value, shape):
    """(t, x[, y]) -> value of the given shape, over the leading axes of the
    last argument: a constant drift (d,), diffusion (d, m) or g (k,)."""
    value = np.broadcast_to(np.asarray(value, float), shape)

    def const(t, *args):
        out = np.empty(np.shape(args[-1])[:-1] + shape)
        out[...] = value
        return out
    return const


def _zero(t, x, y, *z):
    """f = 0 or g = 0: zeros shaped like y."""
    return np.zeros_like(np.asarray(y, float))


def _linear(rate):
    def b(t, x):
        return -rate * np.asarray(x, float)
    return b


def _first_coord(x):
    return np.asarray(x, float)[..., :1].copy()


# Every preset is the zero-drift unit-noise model (b = 0, sigma = I,
# f = g = 0, h(x) = x_1, documented constants L1 = L3 = iota = 1) except for
# what its builder returns, given the merged parameters.

def _zero_drift_unit_noise(p):
    return {}


def _constant_drift(p):
    return dict(b=_constant(p["v"], (1,)),
                meta={"L1_doc": max(abs(p["v"]), 1.0) + 1.0})


def _linear_drift(p):
    return dict(b=_linear(p["rate"]), meta={"L1_doc": p["rate"] + 1.0})


def _ou_in_ball(p):
    return dict(b=_linear(p["theta"]), meta={"L1_doc": p["theta"] + 2.0})


def _linear_bsde(p):
    lam = p["lam"]

    def f(t, x, y, z):
        return -lam * np.asarray(y, float)

    return dict(f=f, g=_constant(p["g0"], (1,)),
                meta={"L3_doc": max(lam, abs(p["g0"]), 1.0) + 1.0})


def _boundary_g_constant(p):
    return dict(b=_constant(p["v"], (1,)), g=_constant(p["g0"], (1,)),
                meta={"L1_doc": max(abs(p["v"]), 1.0) + 1.0,
                      "L3_doc": max(abs(p["g0"]), 1.0) + 1.0})


# name: (dims (d, m, k), parameter defaults, builder)
_REGISTRY = {
    "zero-drift-unit-noise": ((1, 1, 1), {}, _zero_drift_unit_noise),
    "constant-drift": ((1, 1, 1), {"v": 1.0}, _constant_drift),
    "linear-drift": ((1, 1, 1), {"rate": 1.0}, _linear_drift),
    "ou-in-ball": ((2, 2, 1), {"theta": 1.0}, _ou_in_ball),
    "linear-bsde": ((1, 1, 1), {"lam": 1.0, "g0": 0.0}, _linear_bsde),
    "boundary-g-constant": ((1, 1, 1), {"v": 1.0, "g0": 1.0},
                            _boundary_g_constant),
}

PRESET_NAMES = tuple(sorted(_REGISTRY))


def preset(name, params=None):
    """Look up a fully wired CoefficientSet by registry name.

    params may set the preset's own parameters (see _REGISTRY) and the
    horizon T (default 1); any other key raises ValueError.
    """
    try:
        dims, defaults, builder = _REGISTRY[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}"
        ) from None
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults) - {"T"})
    if unknown:
        raise ValueError(f"unknown parameters {unknown} of preset {name!r}; "
                         f"known: {sorted(defaults) + ['T']}")
    T = float(params.get("T", 1.0))
    merged = {key: float(params.get(key, value))
              for key, value in defaults.items()}
    d, m, _ = dims
    parts = {"b": _constant(0.0, (d,)),
             "sigma": _constant(np.eye(d, m), (d, m)),
             "f": _zero, "g": _zero, "h": _first_coord, **builder(merged)}
    parts["meta"] = {"L1_doc": 1.0, "L3_doc": 1.0, "iota_doc": 1.0,
                     **parts.get("meta", {})}
    return CoefficientSet(dims=dims, T=T, name=name, params=params, **parts)
