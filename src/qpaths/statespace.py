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


def vector_norm(values: np.ndarray) -> float:
    """Euclidean norm, with no overflow or underflow on the way.

    The vector is first divided by the power of two at its largest real
    or imaginary part.  That division is exact, so wherever
    np.linalg.norm stays in the float range both agree to the bit.  The
    result is inf only when the norm itself exceeds the largest float.
    """
    largest = float(max(np.max(np.abs(values.real), initial=0.0),
                        np.max(np.abs(values.imag), initial=0.0)))
    if not 0.0 < largest < np.inf:
        return largest
    # a subnormal scale would overflow inside complex division; 2**-1022 is exact too
    scale = math.ldexp(1.0, max(math.frexp(largest)[1] - 1, -1022))
    return scale * float(np.linalg.norm(values / scale))


def unit_scaled(values: np.ndarray, norm: float) -> np.ndarray:
    """The values divided by their vector_norm, which the caller passes in.

    A norm past the float range (finite entries) is taken again after an
    exact scaling by 2**-512.  Values within ATOL of unit length are
    returned as they are.
    """
    if norm == np.inf:
        values = values * 2.0 ** -512
        norm = vector_norm(values)
    if abs(norm - 1.0) > ATOL:
        values = values / norm
    return values


class EigenvalueClasses(NamedTuple):
    """How an observable's eigenvalues partition the paths, one class each.

    values: the distinct eigenvalues, largest first, with -0.0 and 0.0
    one class reported as 0.0.  index: the class of every path.  order:
    the paths sorted by class, in path order within a class.  The
    grouping is exact, with no floating tolerance.  All three arrays are
    read-only.
    """

    values: np.ndarray
    index: np.ndarray
    order: np.ndarray


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

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r} in {self.labels}") from None

    def basis_state(self, which: int | str) -> KetState:
        """Unit ket along one basis direction."""
        k = which if isinstance(which, int) else self.index(which)
        amps = np.zeros(self.dimension, dtype=complex)
        amps[k] = 1.0
        return KetState(self, amps, normalize=False)

    @staticmethod
    def of_dimension(n: int) -> StateSpace:
        return StateSpace(tuple(f"n{k}" for k in range(n)))


def _frozen_array(values: Iterable[complex], dtype) -> np.ndarray:
    arr = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=dtype).reshape(-1).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KetState:
    """Complex amplitude vector over a StateSpace.

    Construction normalizes to unit length by default.  Pass
    normalize=False to keep the amplitudes exactly as given, e.g. for
    scaled states or for basis vectors whose entries must stay exact.
    """

    space: StateSpace
    amplitudes: np.ndarray

    def __init__(self, space: StateSpace, amplitudes, *, normalize: bool = True):
        arr = _frozen_array(amplitudes, complex)
        if arr.size != space.dimension:
            raise DimensionMismatch(
                f"state has {arr.size} amplitudes, space has dimension {space.dimension}")
        if normalize:
            nrm = vector_norm(arr)
            if nrm <= ATOL:
                raise ZeroStateError("cannot normalize a zero state")
            arr = _frozen_array(unit_scaled(arr, nrm), complex)
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
    gram = np.abs(np.conjugate(rows) @ rows.T)
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
        order = np.argsort(index, kind="stable")
        for arr in (values, index, order):
            arr.setflags(write=False)
        return EigenvalueClasses(values, index, order)

    @property
    def distinct_eigenvalues(self) -> tuple[float, ...]:
        """Distinct eigenvalues, largest first (the class values)."""
        return tuple(self.classes.values.tolist())

    @property
    def is_projector(self) -> bool:
        return bool(np.all((self.eigenvalues == 0.0) | (self.eigenvalues == 1.0)))

    @property
    def spread(self) -> float:
        """Width of the spectrum: max eigenvalue minus min eigenvalue."""
        return float(self.eigenvalues.max() - self.eigenvalues.min())

    def __add__(self, other: DiagonalObservable) -> DiagonalObservable:
        if self.space != other.space:
            raise DimensionMismatch("observables live over different spaces")
        return DiagonalObservable(self.space, self.eigenvalues + other.eigenvalues)

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
    weights = np.abs(state.amplitudes) ** 2
    return float(np.real(np.sum(observable.eigenvalues * weights)))


def fourier_basis(space: StateSpace) -> tuple[KetState, ...]:
    """A complete orthonormal basis with no zero components.

    Discrete-Fourier vectors z_k[n] = exp(-2*pi*i*k*n/N)/sqrt(N).  Useful
    as an alternative complete family of final states: every basis path
    contributes to every member.
    """
    n = space.dimension
    grid = np.arange(n)
    states = []
    for k in range(n):
        amps = np.exp(-2j * np.pi * k * grid / n) / np.sqrt(n)
        states.append(KetState(space, amps, normalize=False))
    return tuple(states)
