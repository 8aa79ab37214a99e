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
  It is declared once, in the shipped data/hardy.scn.
* hardy-epsilon: same geometry with a one-parameter family of final
  states that makes the post-selection arbitrarily improbable and the
  weak occupation numbers arbitrarily large.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import UnknownNameError
from .statespace import DiagonalObservable, KetState, StateSpace

RESERVED_NAMES = frozenset({"three-box", "hardy", "hardy-epsilon"})


@dataclass(frozen=True)
class Scenario:
    """One initial state plus named finals and observables over a shared space.

    notes holds the warnings of scenario_io.validate (renormalized states,
    non-orthogonal finals); the built-in scenarios have none.
    """

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
    )


def hardy() -> Scenario:
    """Electron-positron pair in overlapping interferometers, post-annihilation.

    Read from the shipped data/hardy.scn, which declares the basis, the
    states and the occupation observables.  Initial state
    (|1-,1+> + |1-,2+> + |2-,1+> + |gamma>)/2.  The four orthonormal pair
    finals f, g, h, j combine the +-1 interference signatures of both
    particles; 'gamma' detects the annihilation photon.  All amplitudes
    are exact binary fractions.
    """
    from .scenario_io import load_path, validate  # scenario_io imports this module
    path = os.path.join(os.path.dirname(__file__), "data", "hardy.scn")
    return replace(validate(load_path(path)), name="hardy")


def hardy_epsilon(epsilon: float = 0.5) -> Scenario:
    """Hardy geometry with the tunable final state (1, -1, -e, e, 0)/sqrt(2+2e^2).

    The 'hardy' scenario, read from data/hardy.scn, with its final f
    replaced.  At epsilon = 1 this is exactly the 'hardy' scenario's
    final f.  As epsilon shrinks, post-selecting on f becomes improbable
    and the weak occupation numbers grow like 1/epsilon.  For epsilon != 1
    the f state is not orthogonal to g and h, so the finals no longer
    describe exclusive detector outcomes; per-final quantities remain
    well defined.  Requires a positive finite epsilon.
    """
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    scenario = hardy()
    final = KetState(scenario.space, [1.0, -1.0, -epsilon, epsilon, 0.0])
    return replace(scenario, name="hardy-epsilon", finals={**scenario.finals, "f": final})


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
