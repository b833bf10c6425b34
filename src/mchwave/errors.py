"""Exception hierarchy shared across the package."""


class MchError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MchError, ValueError):
    """Arguments fall outside the mathematical domain of an operation."""


class NumericalError(MchError, RuntimeError):
    """A computation failed to reach its accuracy or consistency target."""


class AccuracyError(NumericalError):
    """A finite-difference step-halving consistency gate failed."""


class AssemblyError(NumericalError):
    """Operator assembly violated a structural gate (e.g. symmetry defect)."""


class SingularError(NumericalError):
    """A parametrization is singular at the requested point (e.g. dc/dk = 0)."""


class RankError(NumericalError):
    """A linear solve met an unexpected kernel dimension."""


class BlowUpError(NumericalError):
    """A time integration produced non-finite values."""
