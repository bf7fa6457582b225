"""Exception hierarchy shared across the package.

Grouped by how the CLI reports them: configuration problems exit with
code 2, numeric failures with 3, infeasible budgets with 4.
"""


class PowerTalkError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PowerTalkError):
    """Invalid configuration, grid description, or command usage."""


class ParseError(ConfigError):
    """Grid document is not well-formed."""


class SchemaError(ConfigError):
    """Grid document is well-formed but violates the schema."""


class InvalidGridSpec(ConfigError):
    """Grid description violates a structural invariant."""


class DisconnectedGraph(InvalidGridSpec):
    """The line graph does not connect all buses."""


class NonpositiveResistance(InvalidGridSpec):
    """A resistance that must be positive is zero or negative."""


class DuplicateLine(InvalidGridSpec):
    """More than one line between the same pair of buses."""


class NoConverter(InvalidGridSpec):
    """No bus hosts a converter; the grid has no voltage source."""


class TopologyMismatch(ConfigError):
    """Operation requires a specific network topology."""


class EmptySearchSpace(ConfigError):
    """Optimization box is empty (upper resistance bound below nominal)."""


class InvalidArgument(ConfigError, ValueError):
    """A library argument is out of its range (also a ValueError, for library callers)."""


class InvalidLink(InvalidArgument):
    """Transmitter and receiver are not two distinct converter buses."""


class InvalidBudget(InvalidArgument):
    """A budget is not finite and non-negative, or sits on a bus without a converter."""


class NumericError(PowerTalkError):
    """Numeric failure while solving or linearizing."""


class NoRealRoot(NumericError):
    """Bus voltage quadratic has no real root; droop parameters are
    outside the physically viable range."""


class NonConvergence(NumericError):
    """Iteration budget exhausted before reaching the residual tolerance."""


class InfeasibleBudget(PowerTalkError):
    """Power deviation budget already exhausted by the virtual
    resistance investment."""


class BudgetExceededWarning(UserWarning):
    """Measured power deviation exceeds the declared budget."""
