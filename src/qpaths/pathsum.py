"""Path amplitudes for transitions with no intermediate dynamics.

A system prepared in |i> and later found in |f> evolves trivially in
between, so the transition amplitude splits over the basis into one
virtual path per basis state:

    amp(n) = <f|n><n|i>        total = <f|i> = sum_n amp(n)

These path amplitudes are the raw material for pathway networks,
meters, and weak values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch
from .statespace import KetState, StateSpace

# machine epsilon, the spacing of floats at 1
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class PathDecomposition:
    """Per-path amplitudes of one transition |i> -> |f>."""

    space: StateSpace
    amplitudes: np.ndarray

    @property
    def total_amplitude(self) -> complex:
        """<f|i>: coherent sum over all paths."""
        return complex(self.amplitudes.sum())

    @cached_property
    def rounding(self) -> float:
        """n eps sum_n |amp(n)|: bounds the rounding error of any sum of the amplitudes."""
        return float(self.amplitudes.size * EPS * np.abs(self.amplitudes).sum())

    def __repr__(self) -> str:
        amps = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"PathDecomposition([{amps}])"


def decompose(initial: KetState, final: KetState) -> PathDecomposition:
    """Split <final|initial> into one amplitude per basis path."""
    if initial.space != final.space:
        raise DimensionMismatch("initial and final states live over different spaces")
    amps = np.conjugate(final.amplitudes) * initial.amplitudes
    amps.setflags(write=False)
    return PathDecomposition(initial.space, amps)


def amplitude_table(initial: KetState, finals: Mapping[str, KetState]) -> np.ndarray:
    """The read-only n x J matrix of path amplitudes against a named family of finals.

    Entry [n, j] is the amplitude through basis path n when post-selecting
    on the j-th final, in the mapping's order.  Column sums are the
    transition amplitudes; their squared magnitudes sum to 1 when the
    finals form a complete orthonormal family.  The finals need not be
    orthogonal.  Overlapping finals are not an error here:
    scenario_io.validate reports them, as a note that the command line
    prints as a `note:` line on stderr.
    """
    columns = [decompose(initial, st).amplitudes for st in finals.values()]
    values = np.column_stack(columns) if columns else np.zeros((initial.dimension, 0), complex)
    values.setflags(write=False)
    return values
