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
P = [Re A, Im A].  So both meter sums are Gauss transforms over the k classes:
the rows R with targets at the eigenvalues, and the pointer amplitude with
targets at the pointer positions.  Which kernel computes them depends on k:

  - one block of classes, k <= BLOCK_ROWS, at any width: one dense kernel,
    K over all k classes for R and one pointer product for the amplitude;
  - more than one block: the factored kernel while its rank p <= MAX_RANK,
    else the dense kernel, for R over the band of entries within its reach
    and for the amplitude one block of classes at a time.

The factored kernel, over more than one block of classes (k > BLOCK_ROWS).
About the spectrum's midpoint c = min a + s/2, s = max a - min a, put
u_a = ((a - c)/w)/sqrt(8), so that K_ab = exp(-(u_a - u_b)^2) =
exp(-u_a^2) exp(-u_b^2) exp(2 u_a u_b).  Expanding the last factor in its
Taylor series splits it over a and b,

    K_ab = sum_m U_am U_bm,    U_am = exp(-u_a^2) u_a^m sqrt(2^m / m!),

the truncated factorization behind the improved fast Gauss transform
(Greengard & Strain 1991; Yang, Duraiswami, Gumerov & Davis 2003), with one
box about c.  Keeping m < p gives R_a = P_a . (U (U^T P))_a in O(k p) time and
memory, a p x k array instead of k^2/2 exponentials.  Each term has
|U_am U_bm| = exp(-u_a^2 - u_b^2) y^m/m! with y = |2 u_a u_b|, so the series
of absolute values sums to exp(-(|u_a| - |u_b|)^2) <= 1, and its tail from
m = p on, at most y^p/p! e^y times exp(-u_a^2 - u_b^2), is at most y^p/p!.
Every |u_a| <= s/(2 sqrt(8) w), so y <= x = s^2/(16 w^2) and the dropped
tail is at most x^p/p!: absolute, against the largest kernel entry K_aa = 1.
The rank p is the smallest with that tail under 2^-60, taken at
max(x, 1/16) (taylor_rank).  A meter at least as wide as the spectrum has
x <= 1/16, so every wide meter keeps p = 10, the rank it has always had,
and the same arithmetic to the last bit; without the floor a very wide
meter would take fewer terms and move its noise digits.  The kernel runs
while p <= MAX_RANK = 64, a 1 MB array at k = 2048: a meter of 0.1 spreads
(x = 6.25) takes p = 43, and one of 0.01 spreads (x = 625, p about 1700)
keeps the dense kernel.  Every |U_am| <= 1, so no width overflows it.

The pointer amplitude is the same transform at scale 2w, sources at the
classes and targets at the pointer positions: G(x - a) = G(0) exp(-(t - v_a)^2)
with v_a = (a - c)/(2w), every |v_a| <= h = s/(4w), and t = (x - c)/(2w).  A
target with |t| >= h + R, R = sqrt(60 ln 2), lies past the cutoff radius
(Raykar, Yang, Duraiswami & Gumerov 2005): every entry in its row, and the
truncated series too, is at most exp(-(|t| - h)^2) <= 2^-60, so it reads 0.
The rank is taken at x = 2 h max(h, |t|) over the targets within the cutoff
(h itself keeps the sources' factors in range however close the targets
sit), and past MAX_RANK the dense loop below runs instead.

The dense kernel.  Over one block, K_ab and G(x - a)/G(0) are one Gaussian,
exp(-c ((a - b)/w)^2) at c = 1/8 and c = 1/4, built in one pass over
np.subtract.outer(a, b) under one overflow guard (_gauss): where the
difference, its quotient by w or the square passes the largest float,
exp(-inf) makes the entry 0.  It is K times P.  The pointer amplitude adds one
pointer product per block of BLOCK_ROWS classes to the first block's product
(a zeroed start would make -0.0 read 0.0).  Over more than one block, only
the band within reach is built: K_ab < 2^-60 exactly when
|a - b| exceeds the reach sqrt(8) R w (R the cutoff above), the truncation
the factored kernel pays.  The eigenvalues descend, so each block of
ROW_BLOCK rows takes one window of columns, from its own first class to the
last within reach of its smallest eigenvalue (one searchsorted).  K_ba = K_ab
exactly (b - a = -(a - b) in floating point), so each entry serves the row of
its block's class and, where its column lies past the block, that column's
row too.  A window wider than BAND_COLUMNS is cut into column chunks, so
every kernel block fills a contiguous prefix of one BLOCK_ROWS^2 buffer per
call, laid out as a fresh array would be, so its terms keep every bit, and a
mean reading never holds a k x k or BLOCK_ROWS x k array for k > BLOCK_ROWS.

A band block at a width in SCALE_WIDTHS = [2^-511, 2^507] takes four passes.
The first is the rank-2 product [a, -1] times [1; b], of two factors built
once per call (_difference_factors).  Both products in each of its sums are
exact, multiplications by +-1, so whatever order BLAS sums them in, with or
without a fused multiply-add, a - b is rounded once: the bits of
np.subtract.outer, an overflow to +-inf and a subnormal difference included.
(Only (-0.0) - (+0.0) may read +0.0 instead of -0.0; the two zeros are one
class, so the band never meets that pair, and its square is the same.)  A
square and a product make the exponent fl((a - b)^2) s, with s = -1/(8 w^2)
taken once per call in place of a division per entry, and exp is the fourth.
In that range two things hold.  There w^2 is a normal float (w >= 2^-511) and
1/(8 w^2) >= 2^-1017 is one too, so s is within 2u of -1/(8 w^2) (u = eps/2).
And (a - b)^2 overflows exactly when |a - b| >= 2^512, which at w <= 2^507
lies past the reach (sqrt(8) R < 18.25 < 2^5), where the true entry is below
2^-60 and exp(-inf) = 0; a product fl((a - b)^2) s past the largest float is
an entry below the smallest float, and reads 0 too.  Outside that range the
band builds each block with _gauss, as over one block, whose
((a - b)/w)^2 (-1/8) is the only form correct there: at w = 1e-320, 8 w^2 is
0 and s infinite; at w = 1e308, w^2 is infinite and s is -0.

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
K_ab is off by at most 4u: the relative error of its argument z, times
|z| e^z <= 1/e, plus exp's rounding u.  That error is 5u in
((a - b)/w)^2 (-1/8) (a - b, the quotient and the square each round once, the
square doubling the first two) and 6u in the band's fl((a - b)^2) s (a - b
twice, the square once, s twice, the product once), so an entry is off by at
most 6u/e + u < 3.3u.  Where (a - b)^2 is subnormal it is off by at most
2^-1075 absolutely, which moves z by at most 2^-1075 |s|, about 2^-56 = u/8 at
w = 2^-511; with it an entry is still within 3.5u.  So
(2k + 6) u S^2 <= c k eps S^2, c = 6.
The entries outside the windows are below 2^-60, so leaving them out moves
W by at most 2^-60 S^2.  Windows are cut only past one block, k > BLOCK_ROWS,
and there (2k + 6) u S^2 + 2^-60 S^2 stays under 6 k eps S^2.
The factored kernel drops at most 2^-60 = eps/256 per entry, so 2^-60 S^2 in
W.  Each U_am is a product of m + 1 factors: m steps u_a sqrt(2/j), each
within 8u of exact (u_a's own four roundings included), and exp(-u_a^2),
within (9 u_a^2 + 1)u <= (5x + 1)u.  So it is off by at most (8m + 5x + 2)u
relatively and, as sum_m |U_am U_bm| <= 1, an entry by at most
(16p + 10x + 5)u; the two products and the sums add (2k + p + 2)u S^2.  A
rank meeting the bound has x < p (else x^p/p! >= p^p/p! >= 1), so at
p <= MAX_RANK = 64 the whole is at most (2k + 27p + 7)u S^2 + 2^-60 S^2,
under 12 k u S^2 = 6 k eps S^2 for every k > BLOCK_ROWS = 256 (k >= 174
would do).  So W counts as zero when W <= 2 rho S + rho^2 + 6 k eps S^2
(PathwayNetwork.vanishes, with W, A and rho at the one exact power-of-two
scale of PathwayNetwork.scaled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatch, MeterStatisticsUndefined,
                     WeakValueUndefined)
from .measurement import PathwayNetwork
from .pathsum import PathDecomposition
from .statespace import DiagonalObservable, _power_of_two_scaled

# classes per block: up to BLOCK_ROWS classes a mean reading builds one dense kernel; past
# it the band builds K ROW_BLOCK rows by up to BAND_COLUMNS columns, at most BLOCK_ROWS^2
# entries, at a time, and a reading amplitude sums the pointer one block at a time
BLOCK_ROWS = 256
# on the benchmark's 0.01-spread meters over 512 to 2048 classes, 128-row blocks built the
# band as fast as 64-row ones, and 256-row ones took about 15% longer
ROW_BLOCK = BLOCK_ROWS // 2
BAND_COLUMNS = BLOCK_ROWS * BLOCK_ROWS // ROW_BLOCK

# most Taylor terms the factored kernel keeps; a narrower meter takes the dense one
MAX_RANK = 64
_TAYLOR_STEPS = np.sqrt(2.0 / np.arange(1, MAX_RANK))[:, np.newaxis]
# cutoff radius of a Gauss term, exp(-CUTOFF^2) = 2^-60: pointer targets past it read 0,
# and the dense kernel's band stops at its reach, sqrt(8) CUTOFF w
CUTOFF = math.sqrt(60.0 * math.log(2.0))
# widths at which the band's exponent is (a - b)^2 (-1/(8 w^2)): w^2 is normal, and
# (a - b)^2 overflows, at |a - b| >= 2^512, only past the reach (see the module docstring)
SCALE_WIDTHS = (2.0 ** -511, 2.0 ** 507)


def _as_float(value) -> float:
    """float(value), or an infinity of its sign where float() of an int overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _is_width(value) -> bool:
    """The one rule for a meter width and for the spread that scales widths: a number
    whose float value lies in (0, inf)."""
    return 0.0 < _as_float(value) < math.inf


@dataclass(frozen=True)
class MeterModel:
    """Gaussian pointer with root-mean-square-like accuracy width."""

    width: float

    def __post_init__(self):
        if not _is_width(self.width):
            raise ValueError("meter width must be a positive finite number")

    def pointer_amplitude(self, x):
        """Initial pointer wave amplitude at x; unit square-integral norm."""
        pointer = _pointer(x, 0.0, self.width, np.empty(np.shape(x)))
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
    if (values.size <= BLOCK_ROWS
            or (sums := _factored_pointer(values, parts, meter, observable.spread, x)) is None):
        # from the first block's product: a zeroed start would turn a -0.0 entry into 0.0
        blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, values.size, BLOCK_ROWS)]
        sums = _pointer(x, values[blocks[0]], meter.width) @ parts[blocks[0]]
        for block in blocks[1:]:
            sums += _pointer(x, values[block], meter.width) @ parts[block]
    result = sums.view(complex)[..., 0]
    return complex(result) if result.ndim == 0 else result


def taylor_rank(x: float) -> int:
    """Smallest p with x^p/p! < 2^-60, taken at max(x, 1/16); MAX_RANK + 1 when
    no p up to MAX_RANK meets it (see the module docstring)."""
    x = max(x, 1.0 / 16.0)
    tail = 1.0
    for p in range(1, MAX_RANK + 1):
        tail *= x / p
        if tail < 2.0 ** -60:
            return p
    return MAX_RANK + 1


def _taylor_factors(u: np.ndarray, rank: int) -> np.ndarray:
    """The rank x u.size array U^T: row m holds exp(-u^2) u^m sqrt(2^m/m!)."""
    # row m is row m - 1 times u sqrt(2/m)
    factors = np.empty((rank, u.size))
    np.exp(-np.square(u), out=factors[0])
    np.multiply(_TAYLOR_STEPS[:rank - 1], u, out=factors[1:])
    for m in range(1, rank):
        factors[m] *= factors[m - 1]
    return factors


def _midpoint(values: np.ndarray, spread: float) -> float:
    """The spectrum's midpoint c = min a + s/2, the one box of the factored kernel."""
    return values[-1] + 0.5 * spread


def _factored_pointer(values: np.ndarray, parts: np.ndarray, meter: MeterModel,
                      spread: float, x: np.ndarray) -> np.ndarray | None:
    """sum_a G(x - a) P_a = G(0) sum_a exp(-((x - a)/(2w))^2) P_a from the Taylor
    factors, 0 past the cutoff; None when the rank passes MAX_RANK."""
    width = meter.width
    edge = 0.25 * spread / width
    # no target takes fewer terms than this; past it, skip t, which could overflow
    if taylor_rank(2.0 * edge * edge) > MAX_RANK:
        return None
    centre = _midpoint(values, spread)
    t = (x - centre) / (2.0 * width)
    near = np.abs(t) < edge + CUTOFF
    rank = taylor_rank(2.0 * edge * float(np.abs(t[near]).max(initial=edge)))
    if rank > MAX_RANK:
        return None
    sources = _taylor_factors((values - centre) / (2.0 * width), rank)
    sums = np.zeros(x.shape + (2,))
    sums[near] = _taylor_factors(t[near], rank).T @ (sources @ parts)
    sums *= meter.pointer_amplitude(0.0)
    return sums


def _gauss(a, b, width: float, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-c ((a - b)/w)^2) over np.subtract.outer(a, b), written into out when given."""
    # a - b, (a - b)/w or its square passes the largest float at the float extremes,
    # and exp(-inf) makes that entry 0
    with np.errstate(over="ignore"):
        gauss = np.subtract.outer(a, b, out=out)
        gauss /= width
        np.square(gauss, out=gauss)
    gauss *= -c
    np.exp(gauss, out=gauss)
    return gauss


def _pointer(x, values, width: float, out: np.ndarray | None = None) -> np.ndarray:
    """G(x - a) over np.subtract.outer(x, values), written into out when given."""
    pointer = _gauss(x, values, width, 0.25, out)
    pointer *= (2.0 * np.pi) ** -0.25 * width ** -0.5
    return pointer


def _band(values: np.ndarray, width: float):
    """The dense kernel's band within its reach, as (rows, columns) slices: each block of
    ROW_BLOCK rows takes the columns from its first class to the last within reach of its
    smallest eigenvalue, in chunks of at most BLOCK_ROWS^2 entries."""
    # K_ab < 2^-60 exactly when |a - b| > reach
    reach = math.sqrt(8.0) * CUTOFF * width
    ascending = values[::-1]
    for start in range(0, values.size, ROW_BLOCK):
        block = slice(start, min(start + ROW_BLOCK, values.size))
        # values descend, so the classes beyond the reach of the block's smallest are the
        # last ones; Python floats overflow to inf without a warning
        beyond = int(np.searchsorted(ascending, float(values[block.stop - 1]) - reach))
        stop = values.size - beyond
        for first in range(start, stop, BAND_COLUMNS):
            yield block, slice(first, min(first + BAND_COLUMNS, stop))


def _difference_factors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k x 2 factor [a, -1] and the 2 x k factor [1; b] over values: row a of the one
    times column b of the other is a - b, rounded once (see the module docstring)."""
    return (np.stack((values, np.full(values.size, -1.0)), axis=1),
            np.stack((np.ones(values.size), values)))


def _blocked_rows(values: np.ndarray, parts: np.ndarray, width: float) -> np.ndarray:
    """R_a = P_a . (K P)_a from the dense kernel over its band (_band); each entry serves
    the row of its block's class and that of its column past the block."""
    rows = np.zeros(values.size)
    # every kernel block fills a contiguous prefix, laid out as a fresh array would be
    buffer = np.empty(BLOCK_ROWS * BLOCK_ROWS)
    left, right = _difference_factors(values)
    low, high = SCALE_WIDTHS
    scale = -0.125 / (width * width) if low <= width <= high else None
    for block, columns in _band(values, width):
        a, b = values[block], values[columns]
        kernel = buffer[:a.size * b.size].reshape(a.size, b.size)
        if scale is None:
            _gauss(a, b, width, 0.125, kernel)
        else:
            # a - b, its square or the exponent passes the largest float only where the
            # entry is below 2^-60, and exp(-inf) makes it 0
            with np.errstate(over="ignore"):
                np.matmul(left[block], right[:, columns], out=kernel)
                np.square(kernel, out=kernel)
                kernel *= scale
            np.exp(kernel, out=kernel)
        rows[block] += ((kernel @ parts[columns]) * parts[block]).sum(axis=1)
        # b - a = -(a - b) exactly, so the columns past the block take the transpose
        past = slice(max(columns.start, block.stop), columns.stop)
        if past.start < past.stop:
            rows[past] += ((kernel[:, past.start - columns.start:].T @ parts[block])
                           * parts[past]).sum(axis=1)
    return rows


def _factored_rows(values: np.ndarray, parts: np.ndarray, width: float,
                   spread: float, rank: int) -> np.ndarray:
    """R_a = P_a . (U (U^T P))_a from the rank-p Taylor factorization of K."""
    u = (values - _midpoint(values, spread)) / width / np.sqrt(8.0)
    factors = _taylor_factors(u, rank)
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
    if values.size <= BLOCK_ROWS:
        rows = ((_gauss(values, values, meter.width, 0.125) @ parts) * parts).sum(axis=1)
    else:
        spread = observable.spread
        ratio = spread / meter.width
        rank = taylor_rank(ratio * ratio / 16.0)
        rows = (_factored_rows(values, parts, meter.width, spread, rank) if rank <= MAX_RANK
                else _blocked_rows(values, parts, meter.width))
    denominator = float(rows.sum())
    if network.vanishes(denominator):
        raise MeterStatisticsUndefined(
            "post-selection succeeds with probability zero; no reading distribution")
    # values @ rows can pass the largest float, so it is taken at an exact power-of-two scale
    scaled, e = _power_of_two_scaled(values)
    return float(scaled @ rows / denominator) * math.ldexp(1.0, e)


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
    that path's eigenvalue.  A weak value past the float range is defined
    and is returned with an infinite part, not raised: eigenvalues 0 and
    1e308 with amplitudes -1/sqrt(3) and 1/sqrt(6) give -inf for the exact
    1e308/(1 - sqrt(2)), about -2.4e308.
    """
    if decomposition.space != observable.space:
        raise DimensionMismatch("observable lives over a different space than the transition")
    total = decomposition.total_amplitude
    if abs(total) <= decomposition.rounding:
        raise WeakValueUndefined("total transition amplitude is zero to within rounding")
    numerator = complex((observable.eigenvalues * decomposition.amplitudes).sum())
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
    if not _is_width(spread):
        what = ("observable has zero eigenvalue spread" if spread <= 0.0 else
                "observable's eigenvalue spread exceeds the largest float")
        raise ValueError(f"{what}; meter widths have no scale")
    ratios = tuple(map(_as_float, ratios))
    widths = tuple(ratio * spread for ratio in ratios)
    for ratio, width in zip(ratios, widths):
        if not _is_width(width):
            raise ValueError(f"width {ratio:g} times the eigenvalue spread "
                             f"{spread:g} is outside the float range")
    return widths
