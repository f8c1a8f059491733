"""Exception types shared across the package.

The CLI maps these onto exit codes, so they stay coarse: bad inputs are
ValueError subclasses, runtime numerical trouble is RuntimeError subclasses.
"""


class KindMismatchError(TypeError):
    """Raised when operators and states are mixed in one tensor product."""


class InvalidOperatorError(ValueError):
    """Operator fails a structural contract (hermiticity, unitarity, positivity)."""


class NoEquilibriumError(RuntimeError):
    """Static force balance for the ion pair could not be bracketed."""


class NonConvergenceError(RuntimeError):
    """A refinement loop reached its cap without meeting its tolerance."""


class InfeasibleRatioError(ValueError):
    """Requested mode-frequency ratio lies outside the power-law family's range."""


class ConfigError(ValueError):
    """Command-line or config-file input the CLI refuses to act on."""
