"""Exception types shared across the package."""


class GridTooSmall(ValueError):
    """Collocation grid cannot hold the requested band (N < 2K+2)."""


class NotPositive(ArithmeticError):
    """Pointwise square root requested of a field that is not strictly
    positive on the sampling grid."""


class BandExceedsLambda(ValueError):
    """Shifted-symbol operator applied to a field whose band reaches the
    carrier frequency."""


class NonZeroMean(ValueError):
    """A mean that must vanish does not: multipliers.require_mean_zero
    (dense and factored fields) or a declaration on outside data."""


class SeparationViolated(RuntimeError):
    """Strict frequency-separation policy: 48 lambda_n > lambda_{n+1}."""


class GridBudgetExceeded(RuntimeError):
    """A required FFT grid exceeds the configured per-axis cap."""


class ParseError(ValueError):
    """Malformed config text or field file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """One or more invariants violated; lists every violation, not just
    the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
