"""Finite-accuracy Gaussian meters and the weak-value limit.

A meter of accuracy width w starts in the unit-norm pointer state
G(x) = (2 pi)^(-1/4) w^(-1/2) exp(-(x/w)^2 / 4) and couples so that
path n shifts the pointer by F(n).  Paths with the same eigenvalue a
shift it alike, so post-selecting the system leaves the pointer in

    Psi(x) = sum_a G(x - a) A_a,    A_a = sum_{n: F(n) = a} amp(n),

a sum over pathway classes.  Each call reads the class sums A_a from
one record (measurement.PathwayNetwork.of) and works on k classes
instead of n paths.  Overlaps of shifted pointer states give the
reading statistics in closed form:
int G(x-a) G(x-b) dx = K_ab = exp(-((a-b)/w)^2 / 8), and the same
integral weighted by x carries the extra factor (a+b)/2.  By the
symmetry of Re(A_a conj(A_b)) K_ab,

    <x> = sum_a a R_a / sum_a R_a,    R_a = sum_b Re(A_a conj(A_b)) K_ab.

Since Re(A_a conj(A_b)) = Re A_a Re A_b + Im A_a Im A_b, the rows are a
kernel-vector product, R_a = Re A_a (K Re A)_a + Im A_a (K Im A)_a, with
P = [Re A, Im A].  Two kernels compute it, picked from the width and the
spectrum's spread s = max a - min a alone:

Wide meters, w >= s, with more classes than one block (k > BLOCK_ROWS).
About the spectrum's midpoint c = min a + s/2 put u_a = ((a - c)/w)/sqrt(8),
so that K_ab = exp(-(u_a - u_b)^2) = exp(-u_a^2) exp(-u_b^2) exp(2 u_a u_b).
Expanding the last factor in its Taylor series splits it over a and b,

    K_ab = sum_m U_am U_bm,    U_am = exp(-u_a^2) u_a^m sqrt(2^m / m!),

the truncated factorization behind the improved fast Gauss transform
(Greengard & Strain 1991; Yang, Duraiswami, Gumerov & Davis 2003).
Keeping m < p gives R_a = P_a . (U (U^T P))_a in O(k p) time and memory, a
k x p array instead of k^2/2 exponentials.  Since |a - c| <= s/2 <= w/2, every
|u_a| <= 1/(2 sqrt(8)) and |x| = |2 u_a u_b| <= 1/16.  The Lagrange form of
the dropped tail of exp(x) is e^xi x^p/p! with xi between 0 and x, and
xi - x <= |x|, so relative to exp(x), and so to every kernel entry K_ab,
it is at most (1/16)^p/p! e^(1/16).  WIDE_RANK = 10 is the smallest p that
keeps this under 2^-60, far below the rounding error of the dense sum it
replaces.  Every |U_am| <= 1, so no width overflows it.

Narrow meters, w < s, and any meter over k <= BLOCK_ROWS classes: the
dense blocked kernel.  The classes are cut into blocks of BLOCK_ROWS,
and K is symmetric: K_JI is the transpose of K_IJ, exactly, since
b - a = -(a - b) in floating point.  So each pair of blocks I <= J is
built once and multiplied by the rows of P on both sides, giving the
terms of R over I and, when J != I, those over J.  A mean reading over
k classes holds O(BLOCK_ROWS^2) floats, never a k x k array nor a
BLOCK_ROWS x k one.
Within one block the dense kernel is already cheap, and for a narrow
meter |2 u_a u_b| reaches s^2/(16 w^2) > 1/16, so the series would need
more terms the narrower the meter.
The pointer amplitude sums over the same blocks of classes.

Two limits bracket the meter.  As w -> 0, K -> I: the cross terms die,
R_a = |A_a|^2, and the mean is the eigenvalue average under the
conditional reading distribution of an accurate measurement.  As
w -> infinity, K -> 1: R_a = Re(A_a conj(sum_b A_b)), and the mean is
Re[ sum_a a A_a / sum_a A_a ], the real part of the weak value.

Undefined readings.  A statistic divides by W = sum_ab Re(A_a conj(A_b)) K_ab,
K positive semidefinite with entries in [0, 1] (K = I for the conditional
distribution).  Class sums off by d_a, sum_a |d_a| <= rho =
PathDecomposition.rounding, move W by W(d) - 2 Re(d^H K A), in
[-2 rho S, rho^2] for S = sum_a |A_a|.  Computing W rounds each term (whose
absolute values total at most S^2) at most 2k + 2 times by u = eps/2, and a
K_ab is off by at most 4u (the 5u relative error of its argument x, times
|x| e^x <= 1/e, plus exp's rounding): (2k + 6) u S^2 <= c k eps S^2, c = 6.
The wide kernel's 2k + 12 roundings and 44u factor error, against entries
summing to at most e^(1/16), fit too.  So W counts as zero when
W <= 2 rho S + rho^2 + 6 k eps S^2 (PathwayNetwork.vanishes, with W, A and rho
at the one exact power-of-two scale of PathwayNetwork.scaled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatch, MeterStatisticsUndefined,
                     WeakValueUndefined)
from .measurement import PathwayNetwork
from .pathsum import PathDecomposition
from .statespace import DiagonalObservable

# classes per block: a mean reading forms K one pair of blocks at a time,
# and a reading amplitude forms the pointer sum one block of terms at a time
BLOCK_ROWS = 256

# Taylor terms kept in the wide-meter kernel: the smallest p with
# (1/16)^p/p! e^(1/16) < 2^-60 (see the module docstring)
WIDE_RANK = 10
_TAYLOR_STEPS = np.sqrt(2.0 / np.arange(1, WIDE_RANK))[:, np.newaxis]


@dataclass(frozen=True)
class MeterModel:
    """Gaussian pointer with root-mean-square-like accuracy width."""

    width: float

    def __post_init__(self):
        if not (self.width > 0.0 and np.isfinite(self.width)):
            raise ValueError("meter width must be a positive finite number")

    def pointer_amplitude(self, x):
        """Initial pointer wave amplitude at x; unit square-integral norm."""
        pointer = np.empty(np.shape(x))
        # (x/w)^2 overflows to inf for tiny widths, and exp(-inf) makes G 0
        with np.errstate(over="ignore"):
            np.divide(x, self.width, out=pointer)
            np.square(pointer, out=pointer)
        pointer *= -0.25
        np.exp(pointer, out=pointer)
        pointer *= (2.0 * np.pi) ** -0.25 * self.width ** -0.5
        return pointer if pointer.ndim else pointer[()]


def reading_amplitude(decomposition: PathDecomposition,
                      observable: DiagonalObservable,
                      meter: MeterModel, x):
    """Pointer amplitude Psi(x) = sum_a G(x - a) A_a over pathway classes.

    Accepts a scalar or an array of pointer positions.
    """
    network = PathwayNetwork.of(decomposition, observable)
    values = observable.classes.values
    parts = network.amplitudes.view(float).reshape(-1, 2)
    x = np.asarray(x, dtype=float)
    # the pointer is real, so the sum is a real product with [Re A, Im A]
    sums = np.zeros(x.shape + (2,))
    for start in range(0, values.size, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        sums += meter.pointer_amplitude(x[..., np.newaxis] - values[block]) @ parts[block]
    result = sums.view(complex)[..., 0]
    return complex(result) if result.ndim == 0 else result


def _blocked_rows(values: np.ndarray, parts: np.ndarray, width: float) -> np.ndarray:
    """R_a = P_a . (K P)_a from the dense kernel, one pair of class blocks at a time."""
    rows = np.zeros(values.size)
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, values.size, BLOCK_ROWS)]
    for block, other in combinations_with_replacement(blocks, 2):
        # (a - b)/w overflows to inf for tiny widths, and exp(-inf) makes K_ab 0
        with np.errstate(over="ignore"):
            kernel = np.subtract.outer(values[block], values[other])
            kernel /= width
            np.square(kernel, out=kernel)
        kernel *= -1.0 / 8.0
        np.exp(kernel, out=kernel)
        rows[block] += ((kernel @ parts[other]) * parts[block]).sum(axis=1)
        # b - a = -(a - b) exactly, so K_JI is the transpose of K_IJ
        if other != block:
            rows[other] += ((kernel.T @ parts[block]) * parts[other]).sum(axis=1)
    return rows


def _wide_rows(values: np.ndarray, parts: np.ndarray, width: float,
               spread: float) -> np.ndarray:
    """R_a = P_a . (U (U^T P))_a from the rank-WIDE_RANK factorization of K; w >= spread."""
    u = (values - (values[-1] + 0.5 * spread)) / width / np.sqrt(8.0)
    # row m is column m of U: exp(-u^2) times the steps u sqrt(2/j) for j = 1..m
    factors = np.empty((WIDE_RANK, u.size))
    np.exp(-np.square(u), out=factors[0])
    np.multiply(_TAYLOR_STEPS, u, out=factors[1:])
    for m in range(1, WIDE_RANK):
        factors[m] *= factors[m - 1]
    return np.einsum("ij,ij->i", factors.T @ (factors @ parts), parts)


def mean_reading(decomposition: PathDecomposition,
                 observable: DiagonalObservable,
                 meter: MeterModel) -> float:
    """Mean pointer reading, in closed form via the class overlap kernel; undefined
    (raises) when its weight sum_a R_a is zero to within rounding (PathwayNetwork.vanishes)."""
    network = PathwayNetwork.of(decomposition, observable)
    values = observable.classes.values
    # <x> is a ratio of quadratic forms in A, so the record's exact scale keeps every bit
    parts = network.scaled[0].view(float).reshape(-1, 2)
    spread = observable.spread
    if values.size > BLOCK_ROWS and meter.width >= spread:
        rows = _wide_rows(values, parts, meter.width, spread)
    else:
        rows = _blocked_rows(values, parts, meter.width)
    denominator = float(rows.sum())
    if network.vanishes(denominator):
        raise MeterStatisticsUndefined(
            "post-selection succeeds with probability zero; no reading distribution")
    # values @ rows can pass the largest float, so it is taken at an exact power-of-two
    # scale that brings the largest |a| (at one end, as values are sorted) into [1, 2)
    e = math.frexp(max(values[0], -values[-1]))[1] - 1
    return float(np.ldexp(values, -e) @ rows / denominator) * math.ldexp(1.0, e)


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
    within the rounding error of its sum, |sum amp| <= n eps sum |amp|
    (PathDecomposition.rounding): below that bound its phase and size are
    noise.  The result is invariant under rescaling either state and is
    linear in the observable; for a single contributing path it reduces to
    that path's eigenvalue.
    """
    if decomposition.space != observable.space:
        raise DimensionMismatch("observable lives over a different space than the transition")
    total = decomposition.total_amplitude
    if abs(total) <= decomposition.rounding:
        raise WeakValueUndefined("total transition amplitude is zero to within rounding")
    numerator = complex(np.sum(observable.eigenvalues * decomposition.amplitudes))
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
    """Meter widths as multiples of the observable's eigenvalue spread; raises
    ValueError unless the spread and every width lie in (0, inf)."""
    spread = observable.spread
    if not 0.0 < spread < math.inf:
        what = ("observable has zero eigenvalue spread" if spread <= 0.0 else
                "observable's eigenvalue spread exceeds the largest float")
        raise ValueError(f"{what}; meter widths have no scale")
    widths = tuple(float(r) * spread for r in ratios)
    for ratio, width in zip(ratios, widths):
        if not 0.0 < width < math.inf:
            raise ValueError(f"width {ratio:g} times the eigenvalue spread "
                             f"{spread:g} is outside the float range")
    return widths
