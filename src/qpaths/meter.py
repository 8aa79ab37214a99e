"""Finite-accuracy Gaussian meters and the weak-value limit.

A meter of accuracy width w starts in the unit-norm pointer state
G(x) = (2 pi w^2)^(-1/4) exp(-x^2 / (4 w^2)) and couples so that path n
shifts the pointer by F(n).  Post-selecting the system leaves the
pointer in Psi(x) = sum_n G(x - F(n)) amp(n).

Overlaps of shifted pointer states give the reading statistics in
closed form: int G(x-a) G(x-b) dx = exp(-(a-b)^2 / (8 w^2)) and the
same integral weighted by x carries the extra factor (a+b)/2.  Hence

    <x> = sum_{nm} (F(n)+F(m))/2 Re(amp(n) conj(amp(m))) K_nm
          --------------------------------------------------
          sum_{nm}                Re(amp(n) conj(amp(m))) K_nm

with K_nm = exp(-(F(n)-F(m))^2 / (8 w^2)).  As w grows, K_nm -> 1 and
the mean approaches Re[ sum_n F(n) amp(n) / sum_n amp(n) ]: the weak
value.  As w -> 0 the cross terms die and the mean becomes the
eigenvalue average under the conditional reading distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatch, MeterStatisticsUndefined,
                     WeakValueUndefined)
from .pathsum import PathDecomposition
from .statespace import DiagonalObservable


@dataclass(frozen=True)
class MeterModel:
    """Gaussian pointer with root-mean-square-like accuracy width."""

    width: float

    def __post_init__(self):
        if not (self.width > 0.0 and np.isfinite(self.width)):
            raise ValueError("meter width must be a positive finite number")

    def pointer_amplitude(self, x):
        """Initial pointer wave amplitude at x; unit square-integral norm."""
        w2 = self.width ** 2
        return (2.0 * np.pi * w2) ** -0.25 * np.exp(-np.asarray(x) ** 2 / (4.0 * w2))


def _check_spaces(decomposition: PathDecomposition,
                  observable: DiagonalObservable) -> None:
    if decomposition.space != observable.space:
        raise DimensionMismatch("observable lives over a different space than the transition")


def reading_amplitude(decomposition: PathDecomposition,
                      observable: DiagonalObservable,
                      meter: MeterModel, x):
    """Pointer amplitude Psi(x) after the measurement and post-selection.

    Accepts a scalar or an array of pointer positions.
    """
    _check_spaces(decomposition, observable)
    shifts = np.asarray(x, dtype=float)[..., np.newaxis] - observable.eigenvalues
    values = meter.pointer_amplitude(shifts) @ decomposition.amplitudes
    return complex(values) if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def mean_reading(decomposition: PathDecomposition,
                 observable: DiagonalObservable,
                 meter: MeterModel) -> float:
    """Mean pointer reading, in closed form via Gaussian overlap kernels."""
    _check_spaces(decomposition, observable)
    evs = observable.eigenvalues
    amps = decomposition.amplitudes
    cross = np.real(np.outer(amps, np.conjugate(amps)))
    diff = evs[:, None] - evs[None, :]
    kernel = np.exp(-diff ** 2 / (8.0 * meter.width ** 2))
    weighted = cross * kernel
    denominator = float(weighted.sum())
    if not (denominator > 1e-300):
        raise MeterStatisticsUndefined(
            "post-selection succeeds with probability zero; no reading distribution")
    centers = 0.5 * (evs[:, None] + evs[None, :])
    return float((centers * weighted).sum() / denominator)


@dataclass(frozen=True)
class WeakValueResult:
    """Weak value of an observable for one pre- and post-selected transition."""

    complex_value: complex

    @property
    def reported(self) -> float:
        """What an averaged weak reading converges to: the real part."""
        return self.complex_value.real


def weak_value(decomposition: PathDecomposition,
               observable: DiagonalObservable) -> WeakValueResult:
    """sum_n F(n) amp(n) / sum_n amp(n).

    Undefined (raises) when the total transition amplitude is zero to
    within the rounding error of its sum, |sum amp| <= n eps sum |amp|:
    below that bound its phase and size are noise.  The result is
    invariant under rescaling either state and is linear in the
    observable; for a single contributing path it reduces to that path's
    eigenvalue.
    """
    _check_spaces(decomposition, observable)
    amps = decomposition.amplitudes
    total = decomposition.total_amplitude
    if abs(total) <= amps.size * np.finfo(float).eps * float(np.abs(amps).sum()):
        raise WeakValueUndefined("total transition amplitude is zero to within rounding")
    numerator = complex(np.sum(observable.eigenvalues * amps))
    return WeakValueResult(numerator / total)


def weak_limit_convergence(decomposition: PathDecomposition,
                           observable: DiagonalObservable,
                           widths: Sequence[float]) -> tuple[float, ...]:
    """Absolute error of the mean reading against the weak value, per width."""
    target = weak_value(decomposition, observable).reported
    return tuple(abs(mean_reading(decomposition, observable, MeterModel(w)) - target)
                 for w in widths)


def scaled_widths(observable: DiagonalObservable,
                  ratios: Sequence[float]) -> tuple[float, ...]:
    """Meter widths as multiples of the observable's eigenvalue spread."""
    spread = observable.spread
    if spread <= 0.0:
        raise ValueError("observable has zero eigenvalue spread; widths have no scale")
    return tuple(float(r) * spread for r in ratios)
