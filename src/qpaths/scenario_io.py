"""Line-oriented scenario file format (.scn): parsing and serialization.

A scenario file declares a labeled basis, one initial state, named
final states and observables, and at least one query to run:

    name = pair-demo              # optional document name
    dimension = 5
    basis = 1-,1+ 1-,2+ 2-,1+ 2-,2+ gamma
    state i = 1/2 1/2 1/2 0 1/2   # first state is the initial
    state f = 1/2 -1/2 -1/2 1/2 0
    observable N(1-|1+) = 1 0 0 0 0
    query network final=f obs=N(1-|1+)

'#' starts a comment anywhere.  Number literals: a real is a decimal
(0.25, 1e-3), rational (1/4) or surd (1/sqrt(2)), with an optional sign;
a rational's integers are read exactly, up to int()'s digit limit.
A state value is a pair ((0.70710678, 0)), a+bi or a-bi with b optional
(1+2i, -1-0.5i, 1-i), bi (-0.5i), i, +i, -i, or a real; an observable
value is a real.  A meter width in a query is a real above zero (width=1/2,
widths=0.01,1/sqrt(2),100, no entry empty), in units of the observable's
eigenvalue spread.
Digits are ASCII, and a leading byte-order mark is ignored.  Errors carry
1-based line and column positions, quote each token they name by its first 40
characters, and parsing never raises anything else.

The names three-box, hardy, and hardy-epsilon are reserved for the
built-in scenario library and rejected as document names.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioParseError, UnknownNameError, ZeroStateError, _quoted
from .meter import scaled_widths
from .statespace import (DiagonalObservable, KetState, StateSpace,
                         overlapping_pairs, unit_scaled)
from .scenarios import RESERVED_NAMES, Scenario

QUERY_ARGS: dict[str, tuple[str, ...]] = {
    # kind: required argument keys, in the order the kind's table takes them
    "amplitudes": (),
    "probabilities": (),
    "network": ("final", "obs"),
    "weak": ("final", "obs"),
    "mean-reading": ("final", "obs", "width"),
    "scan": ("final", "obs", "widths"),
    "sum-rule": ("final", "obs", "obs2"),
    "product-rule": ("final", "obs", "obs2"),
}
QUERY_KINDS = tuple(QUERY_ARGS)

# one way to match each text, so no failed match backtracks through its digits
_DECIMAL = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_RATIONAL = r"[0-9]+/[0-9]+"
_SURD = r"[0-9]+/sqrt\([0-9]+\)"
_UREAL = rf"(?:{_SURD}|{_RATIONAL}|{_DECIMAL})"
_REAL_RE = re.compile(rf"[+-]?{_UREAL}")
# the state value forms, one alternative each: (re, im); a+bi and a-bi,
# where b may be left out; bi, i, +i and -i; a
_LITERAL_RE = re.compile(rf"\(\s*({_REAL_RE.pattern})\s*,\s*({_REAL_RE.pattern})\s*\)"
                         rf"|({_REAL_RE.pattern})([+-]{_UREAL}?)i"
                         rf"|([+-]?{_UREAL}?)i"
                         rf"|({_REAL_RE.pattern})")
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class QueryDirective:
    """One query line: its kind and raw key=value arguments, in order."""

    kind: str
    arguments: tuple[tuple[str, str], ...]
    line: int = field(default=0, compare=False)
    columns: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def argument(self, key: str) -> str | None:
        for k, v in self.arguments:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class ScenarioDocument:
    """Parsed scenario file, untouched by semantic validation.

    States and observables keep declaration order; the first declared
    state is the initial one.  The source position of each state's name
    rides along for the zero-norm diagnostic but does not take part in
    equality, so a serialized and reparsed document compares equal to
    the original.
    """

    name: str | None
    dimension: int
    basis_names: tuple[str, ...]
    initial_name: str
    initial: tuple[complex, ...]
    finals: tuple[tuple[str, tuple[complex, ...]], ...]
    observables: tuple[tuple[str, tuple[float, ...]], ...]
    queries: tuple[QueryDirective, ...]
    positions: dict = field(default_factory=dict, compare=False, repr=False)


# A token is a run of non-space characters and parenthesized groups, in
# which whitespace does not split; a ')' with no open '(' is an ordinary
# character, and an unclosed '(' runs to the end of the line.  The regex
# spans one level of parentheses; a line with deeper groups is flattened
# first.
_TOKEN_RE = re.compile(r"(?:[^\s(]+|\([^()]*\))+(?:\(.*)?|\(.*", re.DOTALL)
_NESTED_GROUP_RE = re.compile(r"\([^()]*\([^()]*\)")
_PAREN_RE = re.compile(r"[()]")


def _flatten(text: str) -> str:
    """The text with the inside of each outermost closed group blanked out:
    the same token spans, with no group inside another."""
    pieces: list[str] = []
    depth = done = 0
    for m in _PAREN_RE.finditer(text):
        if m.group() == "(":
            depth += 1
            if depth == 1:
                opened = m.end()
        elif depth:
            depth -= 1
            if depth == 0:
                pieces += (text[done:opened], "_" * (m.start() - opened))
                done = m.start()
    pieces.append(text[done:])
    return "".join(pieces)


def _tokenize(raw: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with 1-based start columns.

    Text after '#' is a comment.  Whitespace inside parentheses, nested
    or not, does not split, so '(0.5, -0.5)' stays one token.
    """
    text = raw.partition("#")[0]
    shape = _flatten(text) if _NESTED_GROUP_RE.search(text) else text
    return [(text[start:end], start + 1)
            for start, end in map(re.Match.span, _TOKEN_RE.finditer(shape))]


def _real_value(part: str, line: int, col: int) -> float:
    """The float that a match of _REAL_RE stands for: p/q is the exact
    quotient rounded once, p/sqrt(k) is fl(p) / sqrt(fl(k))."""
    if "/" not in part:
        value = float(part)
    else:
        sign = -1.0 if part[0] == "-" else 1.0
        p, q = part.lstrip("+-").split("/")
        if q[0] == "s":
            radicand = float(q[5:-1])
            if radicand <= 0.0:
                raise ScenarioParseError(f"surd radicand must be positive in {_quoted(part)}",
                                         line, col)
            value = float(p) / math.sqrt(radicand) if radicand < math.inf else math.inf
        else:
            try:
                # exact; int() reads a limited number of digits, so leading zeros go first
                value = int(p.lstrip("0") or 0) / int(q.lstrip("0") or 0)
            except ZeroDivisionError:
                raise ScenarioParseError(f"division by zero in {_quoted(part)}",
                                         line, col) from None
            except OverflowError:
                value = math.inf
            except ValueError:
                raise ScenarioParseError(
                    f"literal {_quoted(part)} has an integer longer than int()'s "
                    f"limit of {sys.get_int_max_str_digits()} digits",
                    line, col) from None
        value *= sign
    if not math.isfinite(value):
        raise ScenarioParseError(f"literal {_quoted(part)} is not a finite number", line, col)
    return value


def _parse_real(token: str, line: int, col: int) -> float:
    if not _REAL_RE.fullmatch(token):
        raise ScenarioParseError(
            f"bad real literal {_quoted(token)} (decimals, p/q, and p/sqrt(k) are accepted)",
            line, col)
    return _real_value(token, line, col)


def _parse_complex(token: str, line: int, col: int) -> complex:
    m = _LITERAL_RE.fullmatch(token)
    if m is None:
        if token.startswith("("):
            raise ScenarioParseError(
                f"bad complex pair {_quoted(token)} (expected (re, im))", line, col)
        return _parse_real(token, line, col)  # raises "bad real literal"
    real, imag = m[1] or m[3] or m[6], m[2] or m[4] or m[5]
    if imag in ("", "+", "-"):  # i, +i, -i, a+i, a-i: the coefficient 1 left out
        imag += "1"
    return complex(_real_value(real, line, col) if real else 0.0,
                   _real_value(imag, line, col) if imag else 0.0)


def _check_name(token: str, what: str, line: int, col: int) -> None:
    if "=" in token:
        raise ScenarioParseError(f"{what} {_quoted(token)} may not contain '='", line, col)


def _expect_equals(tokens: list[tuple[str, int]], index: int, line: int) -> None:
    if len(tokens) <= index or tokens[index][0] != "=":
        col = tokens[index][1] if len(tokens) > index else tokens[-1][1] + len(tokens[-1][0])
        raise ScenarioParseError("expected '=' (surrounded by spaces)", line, col)


def parse(text: str) -> ScenarioDocument:
    """Parse scenario text; raises ScenarioParseError at the first problem."""
    name: str | None = None
    dimension: int | None = None
    basis: tuple[str, ...] | None = None
    states: list[tuple[str, tuple[complex, ...]]] = []
    observables: list[tuple[str, tuple[float, ...]]] = []
    queries: list[QueryDirective] = []
    positions: dict = {}
    seen_names: dict[str, int] = {}
    once: set[str] = set()  # the sections a file may hold one line of, seen so far

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        keyword, kcol = tokens[0]
        if keyword in ("name", "dimension", "basis"):
            if keyword in once:
                raise ScenarioParseError(f"duplicate {keyword!r} line", lineno, kcol)
            once.add(keyword)

        if keyword == "name":
            _expect_equals(tokens, 1, lineno)
            if len(tokens) != 3:
                raise ScenarioParseError("expected exactly one name after '='", lineno, kcol)
            candidate, ncol = tokens[2]
            if not _NAME_RE.fullmatch(candidate):
                raise ScenarioParseError(
                    f"bad scenario name {_quoted(candidate)} (letters, digits, '.', '_', '-')",
                    lineno, ncol)
            if candidate in RESERVED_NAMES:
                raise ScenarioParseError(
                    f"scenario name {_quoted(candidate)} is reserved for the built-in library",
                    lineno, ncol)
            name = candidate

        elif keyword == "dimension":
            _expect_equals(tokens, 1, lineno)
            if len(tokens) != 3 or not re.fullmatch(r"0*[1-9][0-9]*", tokens[2][0]):
                col = tokens[2][1] if len(tokens) > 2 else kcol
                raise ScenarioParseError("dimension must be a positive integer", lineno, col)
            try:
                # int() reads a limited number of digits, so leading zeros go first
                dimension = int(tokens[2][0].lstrip("0"))
            except ValueError:
                raise ScenarioParseError(
                    f"dimension {_quoted(tokens[2][0])} is longer than int()'s limit of "
                    f"{sys.get_int_max_str_digits()} digits", lineno, tokens[2][1]) from None

        elif keyword == "basis":
            if dimension is None:
                raise ScenarioParseError("'basis' requires a 'dimension' line first",
                                         lineno, kcol)
            _expect_equals(tokens, 1, lineno)
            labels = tokens[2:]
            if len(labels) != dimension:
                raise ScenarioParseError(
                    f"expected {_quoted(str(dimension), str)} basis labels, got {len(labels)}",
                    lineno, kcol)
            seen: dict[str, int] = {}
            for label, col in labels:
                _check_name(label, "basis label", lineno, col)
                if label in seen:
                    raise ScenarioParseError(f"duplicate basis label {_quoted(label)}",
                                             lineno, col)
                seen[label] = col
            basis = tuple(label for label, _ in labels)

        elif keyword in ("state", "observable"):
            if basis is None:
                raise ScenarioParseError(
                    f"'{keyword}' requires 'dimension' and 'basis' lines first", lineno, kcol)
            if len(tokens) < 2:
                raise ScenarioParseError(f"'{keyword}' needs a name", lineno, kcol)
            item_name, ncol = tokens[1]
            _check_name(item_name, f"{keyword} name", lineno, ncol)
            if item_name in seen_names:
                raise ScenarioParseError(
                    f"duplicate name {_quoted(item_name)} (first declared on line "
                    f"{seen_names[item_name]})", lineno, ncol)
            _expect_equals(tokens, 2, lineno)
            values = tokens[3:]
            if len(values) != dimension:
                raise ScenarioParseError(
                    f"expected {dimension} values for {_quoted(item_name)}, got {len(values)}",
                    lineno, kcol)
            seen_names[item_name] = lineno
            if keyword == "state":
                positions[item_name] = (lineno, ncol)
                vec = tuple(_parse_complex(tok, lineno, col) for tok, col in values)
                states.append((item_name, vec))
            else:
                row = tuple(_parse_real(tok, lineno, col) for tok, col in values)
                observables.append((item_name, row))

        elif keyword == "query":
            if len(tokens) < 2:
                raise ScenarioParseError(
                    f"'query' needs a kind: one of {', '.join(QUERY_KINDS)}", lineno, kcol)
            kind, qcol = tokens[1]
            if kind not in QUERY_KINDS:
                raise ScenarioParseError(
                    f"unknown query kind {_quoted(kind)}: expected one of "
                    f"{', '.join(QUERY_KINDS)}", lineno, qcol)
            pairs: list[tuple[str, str]] = []
            cols: list[int] = []
            for tok, col in tokens[2:]:
                key, _, value = tok.partition("=")
                if not key or not value:
                    raise ScenarioParseError(
                        f"query argument {_quoted(tok)} must look like key=value", lineno, col)
                if any(k == key for k, _ in pairs):
                    raise ScenarioParseError(f"duplicate query argument {_quoted(key)}",
                                             lineno, col)
                pairs.append((key, value))
                cols.append(col)
            queries.append(QueryDirective(kind, tuple(pairs), lineno, tuple(cols)))

        else:
            raise ScenarioParseError(
                f"unknown section {_quoted(keyword)} (expected name, dimension, basis, "
                "state, observable, or query)", lineno, kcol)

    end = max(len(lines), 1)
    if dimension is None:
        raise ScenarioParseError("missing 'dimension' line", end)
    if basis is None:
        raise ScenarioParseError("missing 'basis' line", end)
    if not states:
        raise ScenarioParseError(
            "missing 'state' lines (need an initial state and at least one final)", end)
    if len(states) < 2:
        raise ScenarioParseError(
            "need at least one final state declared after the initial state", end)
    if not queries:
        raise ScenarioParseError("a scenario file must contain at least one query", end)

    return ScenarioDocument(
        name=name,
        dimension=dimension,
        basis_names=basis,
        initial_name=states[0][0],
        initial=states[0][1],
        finals=tuple(states[1:]),
        observables=tuple(observables),
        queries=tuple(queries),
        positions=positions,
    )


def _query_error(q: QueryDirective, key: str, message: str) -> ScenarioParseError:
    col = next((c for (k, _), c in zip(q.arguments, q.columns) if k == key), 1)
    return ScenarioParseError(message, q.line, col)


def _positive_number(text: str, key: str = "width") -> float:
    """A meter width ratio: a real literal, read as a state value is, above zero."""
    if not _REAL_RE.fullmatch(text):
        raise ValueError(f"{key} must be a number, got {_quoted(text)}")
    try:
        value = _real_value(text, 0, 0)
    except ScenarioParseError as exc:  # the caller knows where the text stands
        raise ValueError(exc.message) from None
    if value <= 0.0:
        raise ValueError(f"{key} must be positive, got {_quoted(text)}")
    return value


def _width_list(text: str) -> tuple[float, ...]:
    """Meter widths (scan queries, --widths): positive numbers, comma-separated."""
    parts = text.split(",")
    if not all(parts):
        raise ValueError("widths must be a comma-separated list")
    return tuple(_positive_number(part, "widths") for part in parts)


# converters of the query values that are not names; each raises ValueError
QUERY_VALUE_TYPES = {"width": _positive_number, "widths": _width_list}


def _check_query(q: QueryDirective, scenario: Scenario) -> None:
    required = QUERY_ARGS[q.kind]
    keys = [k for k, _ in q.arguments]
    for key in keys:
        if key not in required:
            raise _query_error(q, key, f"query {q.kind!r} does not take argument {_quoted(key)}")
    for key in required:
        if key not in keys:
            raise ScenarioParseError(
                f"query {q.kind!r} requires argument {key!r}", q.line, 1)
    named = {}
    for key, lookup in (("final", scenario.final), ("obs", scenario.observable),
                        ("obs2", scenario.observable)):
        if key in keys:
            try:
                named[key] = lookup(q.argument(key))
            except UnknownNameError as exc:
                raise _query_error(q, key, str(exc)) from None
    if required and required[-1] in QUERY_VALUE_TYPES:  # the kind takes a meter width
        obs, key = named["obs"], required[-1]
        try:
            scaled_widths(obs, ())
        except ValueError as exc:
            raise _query_error(q, "obs", str(exc)) from None
        try:
            scaled_widths(obs, np.atleast_1d(QUERY_VALUE_TYPES[key](q.argument(key))))
        except ValueError as exc:
            raise _query_error(q, key, str(exc)) from None
    if "obs2" in required:  # the kind takes two projectors
        first, second = named["obs"], named["obs2"]
        for key, obs in (("obs", first), ("obs2", second)):
            if not obs.is_projector:
                raise _query_error(q, key,
                                   f"query {q.kind!r} needs projector observables "
                                   "(eigenvalues 0 or 1)")
        if q.kind == "sum-rule" and bool(np.any(first.eigenvalues * second.eigenvalues != 0.0)):
            raise _query_error(q, "obs2",
                               "sum-rule projectors must have disjoint support")


def _norm_text(values: np.ndarray, norm: float) -> str:
    """norm to 12 significant digits; past the largest float, the norm of
    values * 2**-64, which is exact as an integer times 2**64."""
    if norm < math.inf:
        return f"{norm:.12g}"
    from decimal import Decimal
    return f"{Decimal(int(unit_scaled(values * 2.0 ** -64)[1]) << 64):.12g}"


def validate(doc: ScenarioDocument) -> Scenario:
    """Semantic checks; returns a Scenario with warnings recorded in notes."""
    space = StateSpace(doc.basis_names)
    notes: list[str] = []

    def build_state(name: str, vec: tuple[complex, ...]) -> KetState:
        arr = np.asarray(vec, dtype=complex)
        try:
            unit, norm = unit_scaled(arr)
        except ZeroStateError:
            raise ScenarioParseError(f"state {_quoted(name)} has zero norm",
                                     *doc.positions.get(name, (1, 1))) from None
        if unit is not arr:
            notes.append(f"state {_quoted(name)} renormalized "
                         f"(declared norm {_norm_text(arr, norm)})")
        return KetState(space, unit, normalize=False)

    initial = build_state(doc.initial_name, doc.initial)
    finals = {name: build_state(name, vec) for name, vec in doc.finals}
    observables = {name: DiagonalObservable(space, row)
                   for name, row in doc.observables}

    names = list(finals)
    for a, b, overlap in overlapping_pairs(list(finals.values())):
        notes.append(f"final states {_quoted(names[a])} and {_quoted(names[b])} are not "
                     f"orthogonal (|overlap| = {overlap:.6g})")

    scenario = Scenario(
        name=doc.name or "scenario",
        space=space,
        initial=initial,
        finals=finals,
        observables=observables,
        notes=tuple(notes),
    )
    for q in doc.queries:
        _check_query(q, scenario)
    return scenario


def _format_real(x: float) -> str:
    return repr(float(x))


def _format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _format_real(z.real)
    return f"({_format_real(z.real)}, {_format_real(z.imag)})"


def serialize(doc: ScenarioDocument) -> str:
    """Canonical text for a document; reparsing yields an equal document."""
    out: list[str] = []
    if doc.name is not None:
        out.append(f"name = {doc.name}")
    out.append(f"dimension = {doc.dimension}")
    out.append("basis = " + " ".join(doc.basis_names))
    out.append(f"state {doc.initial_name} = "
               + " ".join(_format_complex(z) for z in doc.initial))
    for name, vec in doc.finals:
        out.append(f"state {name} = " + " ".join(_format_complex(z) for z in vec))
    for name, row in doc.observables:
        out.append(f"observable {name} = " + " ".join(_format_real(x) for x in row))
    for q in doc.queries:
        parts = [f"query {q.kind}"] + [f"{k}={v}" for k, v in q.arguments]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def load_path(path) -> ScenarioDocument:
    """Parse a scenario file from disk."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse(handle.read())
