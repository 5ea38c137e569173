"""Exception hierarchy shared across the package."""


class AmpLabError(Exception):
    """Base class for package errors."""


class ValidationError(AmpLabError):
    """Invalid inputs or configuration (CLI exit code 1)."""


class NumericalError(AmpLabError):
    """Numerical failure: quadrature non-convergence, diverging iterates,
    failed decompositions (CLI exit code 2)."""


class DomainError(AmpLabError):
    """A function was evaluated outside its domain."""


class SizeLimitError(ValidationError):
    """Combinatorial input exceeds the configured order cap."""
