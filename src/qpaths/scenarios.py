"""Built-in scenario library.

A Scenario bundles one initial state with named final states and named
diagonal observables over a shared space.  Three families ship with the
package:

* three-box: one particle distributed over three boxes, post-selected
  so that it is certainly found in box 2 if box 2 is checked, and
  certainly in box 3 if box 3 is checked.
* hardy: an electron-positron pair in two overlapping two-arm
  interferometers; the component where both particles occupy the
  overlapping arms has been replaced by an annihilation-photon channel.
* hardy-epsilon: same geometry with a one-parameter family of final
  states that makes the post-selection arbitrarily improbable and the
  weak occupation numbers arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import UnknownNameError
from .statespace import DiagonalObservable, KetState, StateSpace

RESERVED_NAMES = frozenset({"three-box", "hardy", "hardy-epsilon"})


@dataclass(frozen=True)
class Scenario:
    """One initial state plus named finals and observables over a shared space."""

    name: str
    space: StateSpace
    initial: KetState
    finals: Mapping[str, KetState]
    observables: Mapping[str, DiagonalObservable]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def final(self, name: str) -> KetState:
        try:
            return self.finals[name]
        except KeyError:
            raise UnknownNameError("final state", name, tuple(self.finals)) from None

    def observable(self, name: str) -> DiagonalObservable:
        try:
            return self.observables[name]
        except KeyError:
            raise UnknownNameError("observable", name, tuple(self.observables)) from None

    @property
    def final_names(self) -> tuple[str, ...]:
        return tuple(self.finals)

    @property
    def observable_names(self) -> tuple[str, ...]:
        return tuple(self.observables)


def three_box(beta: float = 0.5) -> Scenario:
    """One particle over three boxes with path amplitudes (beta, -beta, -beta).

    The initial state is (1, -1, -1)/sqrt(3).  The final state is
    (1, 1, 1)/sqrt(3) scaled so each path carries amplitude beta in
    magnitude; it is intentionally not unit-norm, which leaves every
    scale-invariant quantity (weak values, conditional readings)
    untouched while landing each path amplitude on +-beta to within
    one rounding.  Requires 0 < beta <= 1.
    """
    if not (0.0 < beta <= 1.0 and np.isfinite(beta)):
        raise ValueError("beta must lie in (0, 1]")
    space = StateSpace(("box1", "box2", "box3"))
    initial = KetState(space, [1.0, -1.0, -1.0])
    # initial amplitudes are +-t with t = fl(1/sqrt(3)); dividing beta by t
    # makes conj(f_n) * i_n land on +-beta up to one rounding
    t = float(initial.amplitudes[0].real)
    final = KetState(space, np.full(3, beta / t), normalize=False)
    observables = {
        "P1": DiagonalObservable(space, [1.0, 0.0, 0.0]),
        "P2": DiagonalObservable(space, [0.0, 1.0, 0.0]),
        "P3": DiagonalObservable(space, [0.0, 0.0, 1.0]),
    }
    return Scenario(
        name="three-box",
        space=space,
        initial=initial,
        finals={"f": final},
        observables=observables,
        notes=(
            f"path amplitudes are (b, -b, -b) with b = {beta:g}",
            "final state is deliberately scaled rather than unit-norm so the "
            "path amplitudes and the post-measurement probability b^2 hold at "
            "full floating-point precision",
            "checking box 2 or box 3 finds the particle there with certainty; "
            "the box-1 weak occupation is -1",
        ),
    )


_HARDY_LABELS = ("1-,1+", "1-,2+", "2-,1+", "2-,2+", "gamma")


def _hardy_space() -> StateSpace:
    return StateSpace(_HARDY_LABELS)


def _hardy_observables(space: StateSpace) -> dict[str, DiagonalObservable]:
    # pair occupations project on one arm assignment; single-particle
    # occupations on one particle's arm; the photon channel counts zero
    # particles in every arm
    rows = {
        "N(1-|1+)": [1.0, 0.0, 0.0, 0.0, 0.0],
        "N(1-|2+)": [0.0, 1.0, 0.0, 0.0, 0.0],
        "N(2-|1+)": [0.0, 0.0, 1.0, 0.0, 0.0],
        "N(2-|2+)": [0.0, 0.0, 0.0, 1.0, 0.0],
        "N(1-)": [1.0, 1.0, 0.0, 0.0, 0.0],
        "N(2-)": [0.0, 0.0, 1.0, 1.0, 0.0],
        "N(1+)": [1.0, 0.0, 1.0, 0.0, 0.0],
        "N(2+)": [0.0, 1.0, 0.0, 1.0, 0.0],
    }
    return {name: DiagonalObservable(space, evs) for name, evs in rows.items()}


def _hardy_finals(space: StateSpace) -> dict[str, KetState]:
    half = 0.5
    return {
        "f": KetState(space, [half, -half, -half, half, 0.0]),
        "g": KetState(space, [half, -half, half, -half, 0.0]),
        "h": KetState(space, [half, half, -half, -half, 0.0]),
        "j": KetState(space, [half, half, half, half, 0.0]),
        "gamma": space.basis_state("gamma"),
    }


_HARDY_NOTES = (
    "basis: electron arm then positron arm, e.g. '2-,1+' is electron in arm 2, "
    "positron in arm 1; 'gamma' is the annihilation-photon channel",
    "the initial pair state has the doubly-overlapping-arm component replaced "
    "by the photon channel, so three pair paths and the photon path remain",
    "occupation operators assign eigenvalue 0 to the photon channel: an "
    "annihilated pair occupies no interferometer arm",
)


def hardy() -> Scenario:
    """Electron-positron pair in overlapping interferometers, post-annihilation.

    Initial state (|1-,1+> + |1-,2+> + |2-,1+> + |gamma>)/2.  The four
    orthonormal pair finals f, g, h, j combine the +-1 interference
    signatures of both particles; 'gamma' detects the annihilation
    photon.  All amplitudes are exact binary fractions.
    """
    space = _hardy_space()
    initial = KetState(space, [0.5, 0.5, 0.5, 0.0, 0.5])
    return Scenario(
        name="hardy",
        space=space,
        initial=initial,
        finals=_hardy_finals(space),
        observables=_hardy_observables(space),
        notes=_HARDY_NOTES,
    )


def hardy_epsilon(epsilon: float = 0.5) -> Scenario:
    """Hardy geometry with the tunable final state (1, -1, -e, e, 0)/sqrt(2+2e^2).

    At epsilon = 1 this is exactly the 'hardy' scenario's final f.  As
    epsilon shrinks, post-selecting on f becomes improbable and the weak
    occupation numbers grow like 1/epsilon.  For epsilon != 1 the f
    state is not orthogonal to g and h, so the finals no longer describe
    exclusive detector outcomes; per-final quantities remain well
    defined.  Requires epsilon > 0.
    """
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be positive")
    space = _hardy_space()
    initial = KetState(space, [0.5, 0.5, 0.5, 0.0, 0.5])
    finals = _hardy_finals(space)
    finals["f"] = KetState(space, [1.0, -1.0, -epsilon, epsilon, 0.0])
    return Scenario(
        name="hardy-epsilon",
        space=space,
        initial=initial,
        finals=finals,
        observables=_hardy_observables(space),
        notes=_HARDY_NOTES + (
            f"final 'f' uses amplitudes (1, -1, -e, e, 0) with e = {epsilon:g}, "
            "renormalized to unit length",
            "for e != 1 the final family is not mutually orthogonal",
        ),
    )


def built_in(name: str, *, beta: float = 0.5, epsilon: float = 0.5) -> Scenario:
    """Look up a built-in scenario by its reserved name."""
    if name == "three-box":
        return three_box(beta)
    if name == "hardy":
        return hardy()
    if name == "hardy-epsilon":
        return hardy_epsilon(epsilon)
    raise UnknownNameError("scenario", name, tuple(sorted(RESERVED_NAMES)))


def built_in_library() -> tuple[Scenario, ...]:
    """All built-in scenarios at default parameters: three-box, hardy, hardy-epsilon."""
    return (three_box(), hardy(), hardy_epsilon())


def epsilon_grid(start: float, stop: float, steps: int) -> tuple[float, ...]:
    """Logarithmically spaced epsilon values, endpoints included."""
    if not (0.0 < start < np.inf and 0.0 < stop < np.inf):
        raise ValueError("epsilon endpoints must be positive and finite")
    if steps < 1:
        raise ValueError("need at least one step")
    if steps == 1:
        return (float(start),)
    return tuple(float(e) for e in np.geomspace(start, stop, steps))
