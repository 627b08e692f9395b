"""Exception types shared across the package."""


class GrflabError(Exception):
    """Base class for all package errors."""


class FieldError(GrflabError, ValueError):
    """Malformed field data: wrong shape, non-finite entries, broken symmetry."""


class NonFiniteError(FieldError):
    """Field data with NaN or infinite entries."""


class PositivityError(GrflabError, ValueError):
    """A field declared positive definite fails the pointwise eigenvalue floor."""


class ConvergenceError(GrflabError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class StepSizeError(GrflabError, RuntimeError):
    """Time stepper could not find an admissible step after repeated halving."""


class JacobianError(GrflabError, RuntimeError):
    """Diffeomorphism integration produced a near-singular coordinate map."""


class ConfigError(GrflabError, ValueError):
    """Bad experiment configuration: unknown key or unparseable value."""
