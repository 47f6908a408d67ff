"""Exception hierarchy shared across the package."""


class MergeMixError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(MergeMixError):
    """Vector or matrix dimensions do not line up."""


class NumericError(MergeMixError):
    """A computation produced NaN or Inf."""


class SimplexError(MergeMixError):
    """Weights are not a valid point on the probability simplex."""


class TrainingDiverged(MergeMixError):
    """Training produced non-finite parameters."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite parameters at step {step}")


class DegenerateInputError(MergeMixError):
    """An input is degenerate for the requested computation (e.g. zero gradient)."""


class BudgetExceededError(MergeMixError):
    """A search lattice exceeds the configured evaluation budget."""


class UndefinedCorrelationError(MergeMixError):
    """Rank correlation is undefined (zero rank variance)."""


class SchemaViolation(MergeMixError):
    """A document does not match its published JSON schema."""

    def __init__(self, label: str, path: tuple, message: str):
        self.path = path
        where = ".".join(str(p) for p in path) or "<root>"
        super().__init__(f"{label} invalid at {where}: {message}")


class ConfigError(MergeMixError):
    """Run configuration failed validation."""


class SurfaceFileError(MergeMixError):
    """A saved surface model file is missing, unreadable or malformed."""
