"""Exception types raised across the package.

Every library error derives from QPathsError so callers can catch one
base class.  Each class carries the exit code the command-line
interface returns for it.  A message that names a piece of input text
gives at most its first 40 characters (_quoted).
"""

from __future__ import annotations


def _quoted(text: str, form=repr) -> str:
    """The text as an error message names it: form(text), quoted by default, with
    text cut to its first 40 characters and its length given when it is longer."""
    if len(text) <= 40:
        return form(text)
    return f"{form(text[:40])}... ({len(text)} characters)"


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
        # each known name cut as the unknown one is, unquoted; ten of them at most
        listed = ", ".join(_quoted(k, str) for k in known[:10]) or "(none)"
        if len(known) > 10:
            listed += f", ... ({len(known)} in all)"
        super().__init__(f"unknown {kind} {_quoted(name)}; known: {listed}")

    def __str__(self) -> str:
        return self.args[0]


class ScenarioParseError(QPathsError, ValueError):
    """Scenario text was rejected; carries a 1-based source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
