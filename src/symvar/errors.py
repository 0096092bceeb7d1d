"""Exception types shared across the toolkit."""


class SymvarError(Exception):
    """Base class for all toolkit errors."""


class InvalidGrid(SymvarError):
    pass


class InvalidExponent(SymvarError):
    pass


class SpaceMismatch(SymvarError):
    pass


class InvalidEpsilon(SymvarError):
    pass


class OutsideDomain(SymvarError):
    pass


class BadStart(SymvarError):
    """Starting point fails the energy precondition of a principle; carries
    f(u0), inf_est and the gap, the start route and the probe's log."""

    def __init__(self, message, f_u0=None, inf_est=None, gap=None,
                 start_route=None, probe_log=None):
        super().__init__(message)
        self.f_u0, self.inf_est, self.gap = f_u0, inf_est, gap
        self.start_route, self.probe_log = start_route, probe_log


class SymmetryViolation(SymvarError):
    """Sampling found f(u^H) > f(u) + tol for a declared-nonincreasing functional."""


class AssumptionViolated(SymvarError):
    """A declared hypothesis failed a spot check; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceFailure(SymvarError):
    """Iteration cap or a stable non-target state was reached.

    Carries the best iterate and the residual at the point of failure.
    """

    def __init__(self, message, residual=None, best=None, sequence=None):
        super().__init__(message)
        self.residual = residual
        self.best = best
        self.sequence = sequence


class DivergenceAssumptionViolated(SymvarError):
    pass


class ConstraintDegeneracy(SymvarError):
    pass


class NoMountainPass(SymvarError):
    pass


class IntegrandError(SymvarError):
    pass


class NotBoundedBelow(SymvarError):
    pass


class SeparationViolated(SymvarError):
    pass


class NotSymmetricInput(SymvarError):
    pass


class ConfigError(SymvarError):
    """Config file failed schema validation; message carries a field path."""


class InvalidArgument(SymvarError, ValueError):
    """An argument outside its documented range (also a ValueError)."""
