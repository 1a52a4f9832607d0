"""Model coefficients (drift, diffusion, drivers, terminal map) and audits.

A CoefficientSet bundles the five functions driving the forward and backward
dynamics. Conventions: state x has shape (..., d), value y shape (..., k),
control z shape (..., k, m); all maps are vectorized over leading axes and
must be pure: their values depend on their arguments only.

The audits are sampling-based certificates: they estimate the Lipschitz /
growth / ellipticity constants on a random grid and can only falsify the
standing assumptions, never prove them.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import UnknownPreset
from .geometry import _ALPHA, _check_dims, _refuse_bool, verify_convexity

__all__ = ["CoefficientSet", "AssumptionAudit", "audit_assumptions",
           "preset", "PRESET_NAMES"]

_IOTA_FLOOR = 1e-10   # smallest eigenvalue of sigma sigma* passing audit H2
# the audit's samples: closure points, times, (y, z) pairs and the
# boundary and closure points of its convexity check
_AUDIT_SPACE, _AUDIT_TIMES, _AUDIT_YZ, _AUDIT_CONVEXITY = 32, 16, 64, 1000
_COEFFICIENTS = ("b", "sigma", "f", "g", "h")


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
    meta: dict = field(default_factory=dict)  # documented constants etc.


@dataclass(frozen=True)
class AssumptionAudit:
    L1: float
    L3: float
    iota: float
    alpha_min: float      # the domain's convexity constant (verify_convexity)
    passed: dict          # keys "H1", "H2", "Hfgh", "convex" -> bool
    flags: tuple = ()     # human-readable notes on soft violations

    @property
    def all_passed(self):
        return all(self.passed.values())


def _pair_quotient(num, den, floor=1e-30):
    ok = den > floor
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


# a non-finite or huge sample is reported in the result, not as a warning
@np.errstate(invalid="ignore", over="ignore")
def audit_assumptions(coeffs, domain, rng_seed=0):
    """Estimate the Lipschitz/growth constants of (b, sigma), the ellipticity
    lower bound of sigma sigma*, and check the one-sided monotonicity and
    growth inequalities of the backward drivers on a sampled grid, and the
    domain's convexity with verify_convexity.

    A violated inequality is recorded in the pass flags and the flags list.
    A coefficient with a non-finite sample fails its hypotheses, and the
    constants it enters (L1 for b and sigma, iota for sigma, L3 for f, g
    and h) read NaN rather than a value from the finite samples.
    """
    _check_dims(coeffs, domain)
    d, m, k = coeffs.dims
    nonfinite = set()     # the coefficients with a non-finite sample

    def sampled(name):
        fn = getattr(coeffs, name)

        def call(*args):
            out = fn(*args)
            if not np.isfinite(out).all():
                nonfinite.add(name)
            return out
        return call

    b, sigma, f, g, h = map(sampled, _COEFFICIENTS)
    rng = np.random.default_rng(rng_seed)
    xs = domain.sample_closure(_AUDIT_SPACE, rng)
    xs2 = domain.sample_closure(_AUDIT_SPACE, rng)
    ts = np.linspace(0.0, coeffs.T, _AUDIT_TIMES)

    # (H1'_{b,sigma}): Lipschitz and linear growth of b, sigma in x, and
    # (H2_sigma): uniform ellipticity of sigma sigma*.
    L1 = 0.0
    iota = np.inf
    for t in ts:
        b1, b2 = b(t, xs), b(t, xs2)
        s1, s2 = sigma(t, xs), sigma(t, xs2)
        num = (np.linalg.norm(b1 - b2, axis=-1)
               + np.linalg.norm(s1 - s2, axis=(-2, -1)))
        den = np.linalg.norm(xs - xs2, axis=-1)
        L1 = max(L1, float(np.max(_pair_quotient(num, den))))
        growth = ((np.linalg.norm(b1, axis=-1)
                   + np.linalg.norm(s1, axis=(-2, -1)))
                  / (1.0 + np.linalg.norm(xs, axis=-1)))
        L1 = max(L1, float(np.max(growth)))
        ev = np.linalg.eigvalsh(s1 @ np.swapaxes(s1, -1, -2))[..., 0]
        iota = min(iota, float(np.min(ev)))
    iota = max(iota, 0.0)

    # (H_{f,g,h}): Lipschitz in x and z, one-sided monotonicity in y,
    # and the growth bound |f| + |g| <= L3 (1 + |y| + ||z||).
    ys = rng.standard_normal((_AUDIT_YZ, k))
    ys2 = rng.standard_normal((_AUDIT_YZ, k))
    zs = rng.standard_normal((_AUDIT_YZ, k, m))
    zs2 = rng.standard_normal((_AUDIT_YZ, k, m))
    nx = min(_AUDIT_SPACE, _AUDIT_YZ)
    xa, xb = xs[:nx], xs2[:nx]
    L3 = 0.0
    mono_bound = 0.0
    for t in ts[::2]:
        ya, yb = ys[:nx], ys2[:nx]
        za, zb = zs[:nx], zs2[:nx]
        dx = np.linalg.norm(xa - xb, axis=-1)
        # x-Lipschitz of f, g, h
        num = np.linalg.norm(f(t, xa, ya, za) - f(t, xb, ya, za), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        num = np.linalg.norm(g(t, xa, ya) - g(t, xb, ya), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        num = np.linalg.norm(h(xa) - h(xb), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dx))))
        # z-Lipschitz of f
        dz = np.linalg.norm(za - zb, axis=(-2, -1))
        num = np.linalg.norm(f(t, xa, ya, za) - f(t, xa, ya, zb), axis=-1)
        L3 = max(L3, float(np.max(_pair_quotient(num, dz))))
        # one-sided monotonicity in y
        dy2 = np.sum((ya - yb) ** 2, axis=-1)
        inner_f = np.sum((ya - yb) * (f(t, xa, ya, za) - f(t, xa, yb, za)),
                         axis=-1)
        inner_g = np.sum((ya - yb) * (g(t, xa, ya) - g(t, xa, yb)), axis=-1)
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
        q = ((np.linalg.norm(f(t0, xa, yq, zq), axis=-1)
              + np.linalg.norm(g(t0, xa, yq), axis=-1))
             / (1.0 + np.linalg.norm(yq, axis=-1)
                + np.linalg.norm(zq, axis=(-2, -1))))
        qmax.append(float(np.max(q)))
    L3 = max(L3, qmax[0])
    growth_ok = qmax[-1] <= 2.0 * max(qmax[0], 1e-12)

    # Python's max and min pass over a NaN, so a non-finite sample would
    # leave its constants at the value of the finite ones
    flags = [f"{name} is not finite at some sampled point"
             for name in _COEFFICIENTS if name in nonfinite]
    if nonfinite & {"b", "sigma"}:
        L1 = math.nan
    if "sigma" in nonfinite:
        iota = math.nan
    if nonfinite & {"f", "g", "h"}:
        L3 = math.nan
    pass_h2 = iota >= _IOTA_FLOOR
    if not pass_h2 and "sigma" not in nonfinite:
        flags.append(f"H2 ellipticity floor not met: iota={iota:.3e}")
    if not growth_ok and not nonfinite & {"f", "g"}:
        flags.append(
            f"growth bound violated: quotient rises from {qmax[0]:.3e} "
            f"to {qmax[-1]:.3e} along the |y| ladder")
    convexity = verify_convexity(domain, _AUDIT_CONVEXITY, rng_seed)
    if not convexity["passed"]:
        flags.append(f"convexity constant {convexity['alpha_min']:.3e} "
                     f"exceeds the slack {_ALPHA:.3e}")

    return AssumptionAudit(
        L1=L1, L3=L3, iota=iota, alpha_min=convexity["alpha_min"],
        passed={"H1": bool(np.isfinite(L1)), "H2": bool(pass_h2),
                "Hfgh": bool(np.isfinite(L3) and growth_ok),
                "convex": convexity["passed"]},
        flags=tuple(flags))


@dataclass(frozen=True, eq=False)
class _Constant:
    """(t, x[, y]) -> value of the given shape, over the leading axes of the
    last argument: a constant drift (d,), diffusion (d, m) or g (k,).

    The kernel and the action read value directly instead of calling, and
    take unit, derived from value, to mean sigma = I: the kick is the noise
    itself and sigma sigma* is the identity."""
    value: np.ndarray
    shape: InitVar[tuple]
    unit: bool = field(init=False)

    def __post_init__(self, shape):
        value = np.broadcast_to(np.asarray(self.value, float), shape)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "unit", len(shape) == 2
                           and shape[0] == shape[1]
                           and bool(np.array_equal(value, np.eye(shape[0]))))

    def __call__(self, t, *args):
        out = np.empty(np.shape(args[-1])[:-1] + self.value.shape)
        out[...] = self.value
        return out


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
    return dict(b=_Constant(p["v"], (1,)),
                meta={"L1_doc": max(abs(p["v"]), 1.0) + 1.0})


def _linear_drift(p):
    return dict(b=_linear(p["rate"]), meta={"L1_doc": p["rate"] + 1.0})


def _ou_in_ball(p):
    return dict(b=_linear(p["theta"]), meta={"L1_doc": p["theta"] + 2.0})


def _linear_bsde(p):
    lam = p["lam"]

    def f(t, x, y, z):
        return -lam * np.asarray(y, float)

    return dict(f=f, g=_Constant(p["g0"], (1,)),
                meta={"L3_doc": max(lam, abs(p["g0"]), 1.0) + 1.0})


def _boundary_g_constant(p):
    return dict(b=_Constant(p["v"], (1,)), g=_Constant(p["g0"], (1,)),
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


def _param(key, value):
    """A preset parameter or the horizon T as a float, which must be
    finite: a boolean, a NaN or an infinite value fails with ValueError
    naming key."""
    _refuse_bool(f"parameter {key!r}", value)
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"parameter {key!r} must be finite, got {out}")
    return out


def preset(name, params=None):
    """Look up a fully wired CoefficientSet by registry name.

    params may set the preset's own parameters (see _REGISTRY) and the
    horizon T (default 1), each a finite number; any other key, and a
    boolean, NaN or infinite value, raises ValueError.
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
    T = _param("T", params.get("T", 1.0))
    merged = {key: _param(key, params.get(key, value))
              for key, value in defaults.items()}
    d, m, _ = dims
    parts = {"b": _Constant(0.0, (d,)),
             "sigma": _Constant(np.eye(d, m), (d, m)),
             "f": _zero, "g": _zero, "h": _first_coord, **builder(merged)}
    parts["meta"] = {"L1_doc": 1.0, "L3_doc": 1.0, "iota_doc": 1.0,
                     **parts.get("meta", {})}
    return CoefficientSet(dims=dims, T=T, name=name, **parts)
