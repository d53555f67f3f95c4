"""Exception hierarchy shared by all modules.

Each class states the process exit code the CLI returns for it and the
word its message and report use: configuration problems -> 2 (the base,
so a class that states nothing is one), precision/convergence problems
-> 3, consistency (residual-arbiter) problems -> 4.  Only a 3 or 4 writes
a failure check.json.
"""


class HexlatError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    kind = "configuration"


class InvalidArgumentError(HexlatError, ValueError):
    """A physically or structurally invalid argument (zero chiral vector,
    hole larger than the cell, Poisson ratio outside (-1, 1), ...)."""


class ConfigurationError(HexlatError):
    """Mutually inconsistent or incomplete run configuration."""


class DomainError(HexlatError):
    """Evaluation point outside the region where a series is valid."""


class PoleError(DomainError):
    """Evaluation exactly at a pole (lattice point or hole center)."""


class PrecisionError(HexlatError):
    """A truncated sum failed its tail-convergence monitor.

    The offending tail estimate is carried in ``tail``.
    """

    exit_code = 3
    kind = "precision"

    def __init__(self, message, tail=None):
        super().__init__(message)
        self.tail = tail


class NumericalError(HexlatError):
    """Linear algebra failure (singular or hopelessly ill-conditioned
    truncated system), or a result that overflows a double.  ``condition``
    carries the condition estimate."""

    exit_code = 3
    kind = "precision"

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ConsistencyError(HexlatError):
    """A solution failed the rim gate on its boundary residual.
    ``residual`` carries the gate's offending value."""

    exit_code = 4
    kind = "consistency"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
