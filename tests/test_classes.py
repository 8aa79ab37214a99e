"""The eigenvalue classes an observable carries, and the layers that share them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpaths.statespace
from qpaths import (DiagonalObservable, KetState, MeterModel, MeterStatisticsUndefined,
                    PathwayNetwork, StateSpace, build_network, decompose, mean_reading,
                    product_rule_report, scaled_widths, weak_limit_convergence)
from qpaths.cli import width_sweep_table
from qpaths.scenarios import hardy
from qpaths.statespace import EigenvalueClasses


def fresh_classes(observable: DiagonalObservable) -> EigenvalueClasses:
    """The grouping recomputed from the eigenvalues on every call."""
    ascending, inverse = np.unique(observable.eigenvalues, return_inverse=True)
    index = (ascending.size - 1) - inverse
    return EigenvalueClasses(ascending[::-1] + 0.0, index)


def assert_same_classes(got: EigenvalueClasses, want: EigenvalueClasses) -> None:
    for name in EigenvalueClasses._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert not np.any(np.signbit(got.values) & (got.values == 0.0))


spectra = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.lists(st.sampled_from((-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-300, 7e5)),
                       min_size=n, max_size=n))


@given(spectra, st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=150)
def test_cached_classes_match_a_fresh_grouping(evs, seed, ratio):
    n = len(evs)
    space = StateSpace.of_dimension(n)
    obs = DiagonalObservable(space, evs)
    assert_same_classes(obs.classes, fresh_classes(obs))
    assert obs.classes is obs.classes

    rng = np.random.default_rng(seed)
    initial = KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n))
    final = KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n))
    meter = MeterModel(ratio * (obs.spread or 1.0))
    dec = decompose(initial, final)
    net = build_network(initial, final, obs)
    try:
        mean = mean_reading(dec, obs, meter)
    except MeterStatisticsUndefined:  # the reference must fail alike
        mean = None

    # the same calls with the grouping recomputed at every use, never cached
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiagonalObservable, "classes", property(fresh_classes))
        # the pathway classes are built on first read, so read them here
        reference = [(c.eigenvalue, c.members, c.amplitude)
                     for c in build_network(initial, final, obs).classes]
        try:
            reference_mean = mean_reading(dec, obs, meter)
        except MeterStatisticsUndefined:
            reference_mean = None

    assert [(c.eigenvalue, c.members, c.amplitude) for c in net.classes] == reference
    assert mean == reference_mean
    # members also follow from the eigenvalues alone, path by path
    assert [c.members for c in net.classes] == \
        [tuple(p for p in range(n) if evs[p] == c.eigenvalue) for c in net.classes]


def test_cached_classes_reject_writes():
    obs = DiagonalObservable(StateSpace.of_dimension(4), [1.0, 0.0, 1.0, 2.0])
    for arr in obs.classes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5
    assert_same_classes(obs.classes, fresh_classes(obs))


def test_derived_observables_get_their_own_classes():
    space = StateSpace.of_dimension(4)
    first = DiagonalObservable(space, [1.0, 0.0, 0.0, 1.0])
    second = DiagonalObservable(space, [0.0, 1.0, 0.0, 0.0])
    first.classes, second.classes  # filled before the derived observables exist
    scaled = DiagonalObservable(space, 2.5 * first.eigenvalues)
    negated = DiagonalObservable(space, first.eigenvalues * -1.0)
    for derived in (first + second, scaled, negated):
        assert derived.classes is not first.classes
        assert_same_classes(derived.classes, fresh_classes(derived))
    assert (first + second).classes.values.tolist() == [1.0, 0.0]
    assert scaled.classes.values.tolist() == [2.5, 0.0]
    assert negated.classes.values.tolist() == [0.0, -1.0]


def test_product_rule_product_gets_its_own_classes(monkeypatch):
    sc = hardy()
    first, second = sc.observable("N(2-)"), sc.observable("N(2+)")
    first.classes, second.classes
    seen = []
    of = PathwayNetwork.of

    def recording(decomposition, observable):
        seen.append(observable)
        return of(decomposition, observable)

    monkeypatch.setattr(PathwayNetwork, "of", recording)
    report = product_rule_report(sc.initial, sc.final("f"), first, second)
    assert report.certain_product == 0.0
    product = seen[-1]
    assert product is not first and product is not second
    assert product.classes is not first.classes and product.classes is not second.classes
    assert_same_classes(product.classes, fresh_classes(product))


def test_one_grouping_per_observable(monkeypatch):
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(qpaths.statespace.np, "unique", counting)
    sc = hardy()
    ratios = (0.01, 0.1, 1.0, 10.0, 100.0)
    table = width_sweep_table(sc, "f", "N(1-|1+)", ratios)
    obs = sc.observable("N(1-|1+)")
    widths = scaled_widths(obs, ratios)
    errors = weak_limit_convergence(decompose(sc.initial, sc.final("f")), obs, widths)
    assert len(table.rows) == 5 and len(errors) == 5
    assert [row[3] for row in table.rows] == list(errors)
    assert len(calls) == 1
