"""Pathway networks: how an accurate intermediate measurement regroups paths.

Accurately measuring a diagonal observable F between pre- and
post-selection merges the virtual paths into one class per distinct
eigenvalue.  Amplitudes interfere freely inside a class but classes add
incoherently, so the post-measurement transition probability is

    P~ = sum_j |sum_{n in class j} amp(n)|^2

which generally differs from the undisturbed |sum_n amp(n)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonProjectorError,
                     PostSelectionImpossible)
from .pathsum import PathDecomposition, decompose
from .statespace import DiagonalObservable, KetState, expectation

CERTAINTY_TOL = 1e-10


@dataclass(frozen=True)
class PathwayClass:
    """Paths sharing one eigenvalue, merged into a single coherent branch."""

    eigenvalue: float
    members: tuple[int, ...]
    amplitude: complex

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    @property
    def probability(self) -> float:
        """Joint probability of this reading together with the post-selection."""
        return float(abs(self.amplitude) ** 2)


@dataclass(frozen=True, eq=False)
class PathwayNetwork:
    """Partition of a transition's paths induced by one accurate measurement."""

    decomposition: PathDecomposition
    observable: DiagonalObservable
    classes: tuple[PathwayClass, ...]

    def class_for(self, eigenvalue: float) -> PathwayClass:
        for c in self.classes:
            if c.eigenvalue == eigenvalue:
                return c
        raise KeyError(f"no pathway class with eigenvalue {eigenvalue!r}")

    def probability_of(self, eigenvalue: float) -> float:
        return self.class_for(eigenvalue).probability

    @property
    def perturbed_probability(self) -> float:
        return float(sum(c.probability for c in self.classes))


def path_classes(observable: DiagonalObservable, amplitudes: np.ndarray) -> np.ndarray:
    """Coherent sum A_a of the path amplitudes in each eigenvalue class.

    The observable holds its classes (DiagonalObservable.classes: the
    distinct eigenvalues largest first, grouped exactly, with 0.0 and
    -0.0 one class); a call only sums the amplitudes into them, in the
    order of observable.classes.values.
    """
    index = observable.classes.index
    k = observable.classes.values.size
    return (np.bincount(index, weights=amplitudes.real, minlength=k)
            + 1j * np.bincount(index, weights=amplitudes.imag, minlength=k))


def build_network(initial: KetState, final: KetState,
                  observable: DiagonalObservable) -> PathwayNetwork:
    """Group the transition's paths by the observable's eigenvalues.

    Classes are ordered by eigenvalue, largest first; members keep path
    order, taken from the observable's classes (DiagonalObservable.classes).
    """
    dec = decompose(initial, final)
    if observable.space != dec.space:
        raise DimensionMismatch("observable lives over a different space than the states")
    values, index, order = observable.classes
    class_amplitudes = path_classes(observable, dec.amplitudes).tolist()
    members = order.tolist()
    ends = np.cumsum(np.bincount(index, minlength=values.size)).tolist()
    classes = tuple(PathwayClass(ev, tuple(members[start:end]), amp)
                    for ev, start, end, amp in zip(values.tolist(), [0] + ends, ends,
                                                   class_amplitudes))
    return PathwayNetwork(dec, observable, classes)


def conditional_reading_distribution(network: PathwayNetwork) -> dict[float, float]:
    """Distribution of the reading given that the post-selection succeeded.

    Raises PostSelectionImpossible when every class amplitude vanishes.
    """
    total = network.perturbed_probability
    if total == 0.0:
        raise PostSelectionImpossible(
            "post-selection has probability zero after this measurement")
    return {c.eigenvalue: c.probability / total for c in network.classes}


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
    if np.any(first.eigenvalues * second.eigenvalues != 0.0):
        raise NonProjectorError("sum rule needs projectors with disjoint support")
    combined = first + second

    def joint_reading_one(obs: DiagonalObservable) -> float:
        net = build_network(initial, final, obs)
        try:
            return net.probability_of(1.0)
        except KeyError:
            return 0.0

    ja, jb = joint_reading_one(first), joint_reading_one(second)
    jc = joint_reading_one(combined)
    aa = all_outcomes_probability(initial, first)
    ab = all_outcomes_probability(initial, second)
    ac = all_outcomes_probability(initial, combined)
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
    product = DiagonalObservable(first.space, first.eigenvalues * second.eigenvalues)
    ca = certain_reading(build_network(initial, final, first))
    cb = certain_reading(build_network(initial, final, second))
    cp = certain_reading(build_network(initial, final, product))
    if ca is None or cb is None:
        holds = True  # no joint certainty claimed, nothing to contradict
    else:
        holds = cp is not None and abs(cp - ca * cb) <= CERTAINTY_TOL
    return ProductRuleReport(certain_first=ca, certain_second=cb,
                             certain_product=cp, holds=holds)
