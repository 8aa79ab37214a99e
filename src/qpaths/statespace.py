"""Finite-dimensional labeled state spaces, kets, and diagonal observables.

Everything in this package is expressed over a StateSpace: an ordered
orthonormal basis identified by string labels.  States are complex
amplitude vectors over that basis; observables are real diagonals.
All three types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, ZeroStateError

ATOL = 1e-12


def _power_of_two_scaled(values: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, int]:
    """(values * 2**-e, e), exact, with the larger of floor and the largest real or
    imaginary part scaled into [1, 2), so 2**e is a float; (values, 0) when that is
    0 or not finite.  values is real or contiguous complex."""
    parts = values.view(float)
    largest = max(float(np.abs(parts).max(initial=0.0)), floor)
    if not 0.0 < largest < math.inf:
        return values, 0
    e = math.frexp(largest)[1] - 1
    return np.ldexp(parts, -e).view(values.dtype), e


def _squared_moduli(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 of each entry."""
    # np.hypot rounds as abs(complex) does; np.abs of complex can differ in the last bit
    return np.hypot(amplitudes.real, amplitudes.imag) ** 2


def unit_scaled(values: np.ndarray) -> tuple[np.ndarray, float]:
    """(unit, norm): the one rule that turns a declared vector into a state.

    norm is the Euclidean norm of the contiguous complex values, taken after an
    exact power-of-two scaling, so it agrees to the bit with np.linalg.norm wherever
    that stays in the float range and is inf only past the largest float.  unit is
    values itself when norm is within ATOL of 1, and otherwise the scaled values
    divided by their norm, so that no step leaves the float range.  Raises
    ZeroStateError when every entry is zero.
    """
    scaled, e = _power_of_two_scaled(values)
    scaled_norm = float(np.linalg.norm(scaled))
    norm = scaled_norm * math.ldexp(1.0, e)
    if norm == 0.0:
        raise ZeroStateError("cannot normalize a zero state")
    if abs(norm - 1.0) > ATOL:
        return scaled / scaled_norm, norm
    return values, norm


class EigenvalueClasses(NamedTuple):
    """How an observable's eigenvalues partition the paths, one class each.

    values: the distinct eigenvalues, largest first, with -0.0 and 0.0
    one class reported as 0.0.  index: the class of every path, a
    position in values.  The grouping is exact, with no floating
    tolerance.  Both arrays are read-only.
    """

    values: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class StateSpace:
    """Ordered orthonormal basis with unique string labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise ValueError("state space needs at least one basis label")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_dimension(n: int) -> StateSpace:
        return StateSpace(tuple(f"n{k}" for k in range(n)))


def _frozen_array(values: Iterable[complex], dtype) -> np.ndarray:
    arr = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=dtype).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KetState:
    """Complex amplitude vector over a StateSpace.

    Construction rejects non-finite amplitudes and normalizes to unit
    length by default, with unit_scaled.  Pass normalize=False to keep
    the amplitudes exactly as given, e.g. for scaled states or for basis
    vectors whose entries must stay exact.
    """

    space: StateSpace
    amplitudes: np.ndarray

    def __init__(self, space: StateSpace, amplitudes, *, normalize: bool = True):
        arr = _frozen_array(amplitudes, complex)
        if arr.size != space.dimension:
            raise DimensionMismatch(
                f"state has {arr.size} amplitudes, space has dimension {space.dimension}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        if normalize:  # arr itself, or a fresh array that nothing else holds
            arr = unit_scaled(arr)[0]
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def __repr__(self) -> str:
        amps = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"KetState([{amps}])"


def overlapping_pairs(states: Sequence[KetState]) -> list[tuple[int, int, float]]:
    """Pairs (a, b, |<a|b>|), a < b, whose overlap exceeds 1e-9, in row order."""
    if not states:
        return []
    rows = np.array([s.amplitudes for s in states])
    # einsum sums in its own loops: a BLAS product here stalled some processes for 40 ms
    # while OpenBLAS chose its thread count
    gram = np.abs(np.einsum("ai,bi->ab", np.conjugate(rows), rows))
    return [(int(a), int(b), float(gram[a, b]))
            for a, b in zip(*np.nonzero(np.triu(gram, k=1) > 1e-9))]


@dataclass(frozen=True, eq=False)
class DiagonalObservable:
    """Real diagonal operator F over a StateSpace: F|n> = F(n)|n>.

    The eigenvalue classes are computed on first use and kept with the
    observable, so every measurement of it shares one grouping.
    """

    space: StateSpace
    eigenvalues: np.ndarray

    def __init__(self, space: StateSpace, eigenvalues):
        arr = _frozen_array(eigenvalues, float)
        if arr.size != space.dimension:
            raise DimensionMismatch(
                f"observable has {arr.size} eigenvalues, space has dimension {space.dimension}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("eigenvalues must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "eigenvalues", arr)

    @cached_property
    def classes(self) -> EigenvalueClasses:
        """The paths grouped by eigenvalue; see EigenvalueClasses."""
        ascending, inverse = np.unique(self.eigenvalues, return_inverse=True)
        values = ascending[::-1] + 0.0  # adding 0.0 turns a -0.0 representative into 0.0
        index = (ascending.size - 1) - inverse
        for arr in (values, index):
            arr.setflags(write=False)
        return EigenvalueClasses(values, index)

    @property
    def is_projector(self) -> bool:
        return bool(np.all((self.eigenvalues == 0.0) | (self.eigenvalues == 1.0)))

    @property
    def spread(self) -> float:
        """Width of the spectrum: max eigenvalue minus min eigenvalue, inf past the
        largest float."""
        values = self.classes.values
        return float(values[0]) - float(values[-1])

    def _combined(self, other: DiagonalObservable, op) -> DiagonalObservable:
        """The one rule for combining two observables: op of their eigenvalues, path by path."""
        if self.space != other.space:
            raise DimensionMismatch("observables live over different spaces")
        return DiagonalObservable(self.space, op(self.eigenvalues, other.eigenvalues))

    def __add__(self, other: DiagonalObservable) -> DiagonalObservable:
        return self._combined(other, np.add)

    def __mul__(self, other: DiagonalObservable) -> DiagonalObservable:
        return self._combined(other, np.multiply)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagonalObservable)
                and self.space == other.space
                and bool(np.array_equal(self.eigenvalues, other.eigenvalues)))

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:g}" for v in self.eigenvalues)
        return f"DiagonalObservable([{vals}])"


def expectation(state: KetState, observable: DiagonalObservable) -> float:
    """<state|F|state> for a unit-norm state: sum of F(n)|amp_n|^2."""
    if state.space != observable.space:
        raise DimensionMismatch("state and observable live over different spaces")
    return float(np.sum(observable.eigenvalues * _squared_moduli(state.amplitudes)))
