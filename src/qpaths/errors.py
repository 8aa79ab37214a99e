"""Exception types raised across the package.

Every library error derives from QPathsError so callers can catch one
base class.  Each class carries the exit code the command-line
interface returns for it.
"""

from __future__ import annotations


class QPathsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DimensionMismatch(QPathsError, ValueError):
    """Objects built over different state spaces were combined."""


class ZeroStateError(QPathsError, ValueError):
    """A state vector with zero norm cannot be normalized."""


class NonProjectorError(QPathsError, ValueError):
    """An operation required eigenvalues restricted to {0, 1}."""


class PostSelectionImpossible(QPathsError, ValueError):
    """The conditioning event has probability zero."""

    exit_code = 3


class WeakValueUndefined(QPathsError, ValueError):
    """Weak values are undefined when the total transition amplitude is zero."""

    exit_code = 3


class MeterStatisticsUndefined(QPathsError, ValueError):
    """The meter's conditional reading distribution has zero total weight."""

    exit_code = 4


class UnknownNameError(QPathsError, KeyError):
    """A scenario, final state, or observable name was not found."""

    def __init__(self, kind: str, name: str, known: tuple[str, ...]):
        self.kind = kind
        self.name = name
        self.known = known
        super().__init__(f"unknown {kind} {name!r}; known: {', '.join(known) or '(none)'}")

    def __str__(self) -> str:
        return self.args[0]


class ScenarioParseError(QPathsError, ValueError):
    """Scenario text was rejected; carries a 1-based source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
