"""Cross-checks for the path and meter machinery.

Two different computation routes back the main library:

* projective_joint re-derives the accurate-measurement statistics with
  explicit spectral projector matrices and dense linear algebra, never
  touching the path decomposition;
* grid_mean_reading integrates meter.reading_amplitude's pointer density (the
  kernel's Gaussian) on a wide grid, never using the closed-form overlap kernel.

verification_checks runs both against the built-in scenario library and
reports a pass/fail line per comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeterStatisticsUndefined
from .measurement import PathwayNetwork, build_network
from .meter import MeterModel, mean_reading, reading_amplitude, scaled_widths
from .pathsum import PathDecomposition, decompose
from .scenarios import built_in_library
from .statespace import DiagonalObservable, KetState

GRID_POINTS = 2 ** 14
GRID_PADDING = 8.0


def projective_joint(initial: KetState, final: KetState,
                     observable: DiagonalObservable) -> dict[float, float]:
    """Joint probability of each reading with the post-selection.

    Computed as |<f| P_a |i>|^2 with P_a the explicit projector matrix
    onto the eigenvalue-a subspace.  Keys are the distinct eigenvalues.
    """
    f = final.amplitudes
    i = initial.amplitudes
    result: dict[float, float] = {}
    for ev in observable.classes.values.tolist():
        projector = np.diag((observable.eigenvalues == ev).astype(float))
        bracket = np.conjugate(f) @ projector @ i
        result[ev] = float(abs(bracket) ** 2)
    return result


def grid_mean_reading(decomposition: PathDecomposition,
                      observable: DiagonalObservable,
                      meter: MeterModel,
                      points: int = GRID_POINTS) -> float:
    """Mean pointer reading by trapezoid integration of the pointer density.

    The uniform grid covers every shifted pointer packet out to eight
    widths on each side.  The path amplitudes are first scaled by 2**-e, e the
    exponent of PathwayNetwork.scaled, so the density cannot underflow; each
    is then below 2/(n eps), as |amp(n)| <= rho/(n eps) and 2**e >= rho/2.
    Undefined when PathwayNetwork.vanishes.
    """
    if points < 4096:
        raise ValueError("reading grid needs at least 4096 points")
    network = PathwayNetwork.of(decomposition, observable)
    paths = np.ldexp(decomposition.amplitudes.view(float), -network.scaled[2])
    dec = PathDecomposition(decomposition.space, paths.view(complex))
    pad = GRID_PADDING * meter.width
    x = np.linspace(float(observable.eigenvalues.min()) - pad,
                    float(observable.eigenvalues.max()) + pad, points)
    density = np.abs(reading_amplitude(dec, observable, meter, x)) ** 2
    weight = float(np.trapezoid(density, x))
    if network.vanishes(weight):
        raise MeterStatisticsUndefined(
            "post-selection succeeds with probability zero; no reading distribution")
    return float(np.trapezoid(x * density, x) / weight)


@dataclass(frozen=True)
class CheckResult:
    """One verification comparison: its worst deviation against its tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


PROJECTIVE_TOL = 1e-12
MEAN_READING_TOL = 1e-6
REFINEMENT_TOL = 1e-8
WIDTH_RATIOS = (0.01, 0.1, 1.0, 10.0, 100.0)


def verification_checks() -> list[CheckResult]:
    """Cross-validate both computation routes over the built-in scenarios: every
    projective check, then every mean-reading check, then the grid refinement."""
    projective: list[CheckResult] = []
    readings: list[CheckResult] = []
    library = built_in_library()

    for scenario in library:
        for obs_name, obs in scenario.observables.items():
            worst_projective = worst_reading = 0.0
            for fin in scenario.finals.values():
                net = build_network(scenario.initial, fin, obs)  # read by both checks
                reference = projective_joint(scenario.initial, fin, obs)
                for ev, prob in reference.items():
                    worst_projective = max(worst_projective,
                                           abs(net.probability_of(ev) - prob))
                for width in scaled_widths(obs, WIDTH_RATIOS):
                    meter = MeterModel(width)
                    try:
                        closed = mean_reading(net.decomposition, obs, meter)
                    except MeterStatisticsUndefined:
                        continue
                    numeric = grid_mean_reading(net.decomposition, obs, meter)
                    worst_reading = max(worst_reading, abs(closed - numeric))
            label = f"{scenario.name} {obs_name}"
            projective.append(CheckResult(f"projective {label}", worst_projective,
                                          PROJECTIVE_TOL))
            readings.append(CheckResult(f"mean-reading {label}", worst_reading,
                                        MEAN_READING_TOL))

    hardy = library[1]
    fin = next(iter(hardy.finals.values()))
    obs = next(iter(hardy.observables.values()))
    dec = decompose(hardy.initial, fin)
    meter = MeterModel(obs.spread)
    coarse = grid_mean_reading(dec, obs, meter)
    fine = grid_mean_reading(dec, obs, meter, 2 * GRID_POINTS)
    return projective + readings + [CheckResult(f"grid-refinement {hardy.name}",
                                                abs(fine - coarse), REFINEMENT_TOL)]
