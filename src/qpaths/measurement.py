"""Pathway networks: how an accurate intermediate measurement regroups paths.

Accurately measuring a diagonal observable F between pre- and
post-selection merges the virtual paths into one class per distinct
eigenvalue.  Amplitudes interfere freely inside a class but classes add
incoherently, so the post-measurement transition probability is

    P~ = sum_j |sum_{n in class j} amp(n)|^2

which generally differs from the undisturbed |sum_n amp(n)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, NonProjectorError,
                     PostSelectionImpossible)
from .pathsum import EPS, PathDecomposition, decompose
from .statespace import (DiagonalObservable, KetState, _power_of_two_scaled, _squared_moduli,
                         expectation)

CERTAINTY_TOL = 1e-10


class PathwayClass(NamedTuple):
    """Paths sharing one eigenvalue, merged into a single coherent branch."""

    eigenvalue: float
    members: tuple[int, ...]
    amplitude: complex


@dataclass(frozen=True, eq=False)
class PathwayNetwork:
    """Partition of a transition's paths induced by one accurate measurement.

    amplitudes holds the coherent sum A_a of the path amplitudes in each
    eigenvalue class, read-only, in the order of observable.classes.values
    (DiagonalObservable.classes: the distinct eigenvalues largest first,
    grouped exactly, with 0.0 and -0.0 one class); scaled holds them and rho
    at one exact power-of-two scale, where vanishes decides "undefined".
    Build one with PathwayNetwork.of.
    """

    decomposition: PathDecomposition
    observable: DiagonalObservable
    amplitudes: np.ndarray

    @classmethod
    def of(cls, decomposition: PathDecomposition,
           observable: DiagonalObservable) -> PathwayNetwork:
        """Sum the transition's path amplitudes into the observable's classes."""
        if observable.space != decomposition.space:
            raise DimensionMismatch("observable lives over a different space than the transition")
        index = observable.classes.index
        k = observable.classes.values.size
        paths = decomposition.amplitudes
        amplitudes = (np.bincount(index, weights=paths.real, minlength=k)
                      + 1j * np.bincount(index, weights=paths.imag, minlength=k))
        amplitudes.setflags(write=False)
        return cls(decomposition, observable, amplitudes)

    @cached_property
    def classes(self) -> tuple[PathwayClass, ...]:
        """One PathwayClass per eigenvalue, in the order of the amplitudes."""
        values, index = self.observable.classes
        # the paths sorted by class, in path order within a class
        members = np.argsort(index, kind="stable").tolist()
        ends = np.cumsum(np.bincount(index, minlength=values.size)).tolist()
        return tuple(PathwayClass(ev, tuple(members[start:end]), amp)
                     for ev, start, end, amp in zip(values.tolist(), [0] + ends, ends,
                                                    self.amplitudes.tolist()))

    @property
    def probabilities(self) -> np.ndarray:
        """|A_a|^2 of each class, joint with the post-selection, in class order."""
        return _squared_moduli(self.amplitudes)

    def probability_of(self, eigenvalue: float) -> float:
        """|A_a|^2, joint with the post-selection; 0.0 for a reading no path carries."""
        found = np.flatnonzero(self.observable.classes.values == eigenvalue)
        return float(self.probabilities[found[0]]) if found.size else 0.0

    @property
    def perturbed_probability(self) -> float:
        return float(self.probabilities.sum())

    @cached_property
    def scaled(self) -> tuple[np.ndarray, float, int]:
        """(A * 2**-e, rho * 2**-e, e), exact, with the larger of rho and the largest real
        or imaginary part of A scaled into [1, 2); the array is read-only.  A ratio of
        quadratic forms in A keeps every bit at this scale, and no form overflows."""
        rounding = self.decomposition.rounding
        amplitudes, e = _power_of_two_scaled(self.amplitudes, rounding)
        amplitudes.setflags(write=False)
        return amplitudes, math.ldexp(rounding, -e), e

    def vanishes(self, weight: float) -> bool:
        """The one rule for "undefined" (the meter module docstring derives it): a weight
        W at the scale of scaled counts as zero when W <= 2 rho S + rho^2 + 6 k eps S^2 or
        is nan, with rho, S = sum_a |A_a| and k = A.size at that scale."""
        amplitudes, rounding, _ = self.scaled
        s = float(np.abs(amplitudes).sum())
        return not weight > (2.0 * rounding * s + rounding * rounding
                             + 6.0 * amplitudes.size * EPS * s * s)


def build_network(initial: KetState, final: KetState,
                  observable: DiagonalObservable) -> PathwayNetwork:
    """Group the transition's paths by the observable's eigenvalues (PathwayNetwork.of)."""
    return PathwayNetwork.of(decompose(initial, final), observable)


def conditional_reading_distribution(network: PathwayNetwork) -> dict[float, float]:
    """Distribution of the reading given that the post-selection succeeded.

    Raises PostSelectionImpossible when the post-selection probability
    sum_a |A_a|^2 is zero to within rounding (PathwayNetwork.vanishes, K = I).
    """
    probabilities = _squared_moduli(network.scaled[0])
    total = probabilities.sum()
    if network.vanishes(float(total)):
        raise PostSelectionImpossible(
            "post-selection has probability zero after this measurement")
    return dict(zip(network.observable.classes.values.tolist(),
                    (probabilities / total).tolist()))


def certain_reading(network: PathwayNetwork) -> float | None:
    """The reading obtained with conditional probability 1, if any."""
    dist = conditional_reading_distribution(network)
    for ev, p in dist.items():
        if p >= 1.0 - CERTAINTY_TOL:
            return ev
    return None


def all_outcomes_probability(initial: KetState, observable: DiagonalObservable) -> float:
    """Probability that a projector reads 1 when no post-selection is kept.

    Summing the reading-1 class probability over any complete orthonormal
    family of final states gives <i|F|i>, independent of the family, so
    the expectation is returned directly.
    """
    if not observable.is_projector:
        raise NonProjectorError("all-outcomes reading-1 probability needs a projector")
    return expectation(initial, observable)


@dataclass(frozen=True)
class SumRuleReport:
    """Reading-1 probabilities for two disjoint projectors and their sum.

    Post-selected on one final state, the combined projector's
    probability need not equal the sum of the parts; with all outcomes
    kept, it always does.
    """

    joint_first: float
    joint_second: float
    joint_combined: float
    holds_postselected: bool
    all_outcomes_first: float
    all_outcomes_second: float
    all_outcomes_combined: float
    holds_all_outcomes: bool


def sum_rule_report(initial: KetState, final: KetState,
                    first: DiagonalObservable, second: DiagonalObservable) -> SumRuleReport:
    """Compare reading-1 probabilities of two disjoint projectors and their sum."""
    if not (first.is_projector and second.is_projector):
        raise NonProjectorError("sum rule applies to projectors")
    combined = first + second
    if np.any(first.eigenvalues * second.eigenvalues != 0.0):
        raise NonProjectorError("sum rule needs projectors with disjoint support")
    # one set of virtual paths, regrouped by each measurement into its own classes
    paths = decompose(initial, final)
    ja, jb, jc = (PathwayNetwork.of(paths, obs).probability_of(1.0)
                  for obs in (first, second, combined))
    aa, ab, ac = (all_outcomes_probability(initial, obs) for obs in (first, second, combined))
    return SumRuleReport(
        joint_first=ja, joint_second=jb, joint_combined=jc,
        holds_postselected=abs(jc - (ja + jb)) <= CERTAINTY_TOL,
        all_outcomes_first=aa, all_outcomes_second=ab, all_outcomes_combined=ac,
        holds_all_outcomes=abs(ac - (aa + ab)) <= CERTAINTY_TOL,
    )


@dataclass(frozen=True)
class ProductRuleReport:
    """Certain readings of two projectors versus their pointwise product.

    Even when both factors read 1 with certainty under the same pre- and
    post-selection, the product projector may certainly read 0: separate
    accurate measurements regroup the paths differently.
    """

    certain_first: float | None
    certain_second: float | None
    certain_product: float | None
    holds: bool


def product_rule_report(initial: KetState, final: KetState,
                        first: DiagonalObservable, second: DiagonalObservable
                        ) -> ProductRuleReport:
    """Check whether certain readings of two projectors multiply through."""
    if not (first.is_projector and second.is_projector):
        raise NonProjectorError("product rule applies to projectors")
    product = first * second
    paths = decompose(initial, final)
    ca, cb, cp = (certain_reading(PathwayNetwork.of(paths, obs))
                  for obs in (first, second, product))
    if ca is None or cb is None:
        holds = True  # no joint certainty claimed, nothing to contradict
    else:
        holds = cp == ca * cb  # certain readings of projectors are exactly 0.0 or 1.0
    return ProductRuleReport(certain_first=ca, certain_second=cb,
                             certain_product=cp, holds=holds)
