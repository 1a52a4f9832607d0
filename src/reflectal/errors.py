"""Exception hierarchy shared by all solver and audit modules."""


class ReflectalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidShape(ReflectalError):
    """Domain parameters do not describe a valid bounded convex domain."""


class UnknownPreset(ReflectalError):
    """Requested coefficient preset is not in the registry."""


class NumericalBlowup(ReflectalError):
    """A coefficient or state evaluation returned a non-finite value."""


class MissingNoise(ReflectalError):
    """Operation needs the Brownian increment record but it is absent."""


class StartOutsideDomain(ReflectalError):
    """A start, or a path's first node, lies outside the closed domain."""


class FixedPointDivergence(ReflectalError):
    """Implicit backward step did not converge within the iteration budget."""


class OutOfLattice(ReflectalError):
    """Query point lies outside the hull of the value-field lattice."""


class SingularDiffusion(ReflectalError):
    """sigma sigma* is numerically singular where the action integrand needs its inverse."""


class InfeasiblePath(ReflectalError):
    """Path leaves the closed domain, so its action is +infinity."""


class ConstraintInfeasible(ReflectalError):
    """The penalized descent could not drive the constraint violation below tolerance."""


class InsufficientPaths(ReflectalError):
    """Monte Carlo standard error too large for a trustworthy estimate."""


class DegenerateFit(ReflectalError):
    """Log-log regression input has no spread in the abscissa."""


class ConfigInvalid(ReflectalError):
    """Experiment config failed validation; `field` points at the offender."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
