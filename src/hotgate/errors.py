"""Exception types shared across the package.

The CLI maps these onto exit codes, so they stay coarse: bad inputs are
ValueError subclasses, runtime numerical trouble is RuntimeError subclasses.
"""


class InvalidOperatorError(ValueError):
    """Operator fails a structural contract (hermiticity, unit trace, positivity)."""


class NoEquilibriumError(RuntimeError):
    """Static force balance for the ion pair has no solution in double range."""


class NonConvergenceError(RuntimeError):
    """A refinement loop reached its cap without meeting its tolerance."""


class InfeasibleRatioError(ValueError):
    """Requested mode-frequency ratio lies outside the power-law family's range."""


class ConfigError(ValueError):
    """Input the package refuses: a bad setting, or a request above a memory budget."""
