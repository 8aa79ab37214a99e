import numpy as np
import pytest

from _invariants import class_values
from qpaths import (DiagonalObservable, DimensionMismatch, KetState, MeterModel,
                    NonProjectorError, PathwayNetwork, PostSelectionImpossible,
                    StateSpace, all_outcomes_probability, build_network,
                    certain_reading, conditional_reading_distribution, decompose,
                    hardy, mean_reading, product_rule_report, reading_amplitude,
                    sum_rule_report, three_box, weak_value)


def hardy_network(final_name, obs_name):
    sc = hardy()
    return build_network(sc.initial, sc.final(final_name), sc.observable(obs_name))


def test_pair_measurement_splits_f_into_two_pathways():
    net = hardy_network("f", "N(1-|1+)")
    assert class_values(net) == (1.0, 0.0)
    one, zero = net.classes
    assert one.members == (0,)
    assert zero.members == (1, 2, 3, 4)
    assert one.amplitude == 0.25
    assert zero.amplitude == -0.5
    assert one.probability == 0.0625
    assert zero.probability == 0.25


def test_other_pair_measurements_leave_probability_unchanged():
    for obs_name in ("N(1-|2+)", "N(2-|1+)"):
        net = hardy_network("f", obs_name)
        assert net.probability_of(1.0) == 0.0625
        assert net.probability_of(0.0) == 0.0
        assert net.perturbed_probability == abs(net.decomposition.total_amplitude) ** 2


def test_measurement_can_raise_transition_probability():
    net = hardy_network("f", "N(1-|1+)")
    assert abs(net.decomposition.total_amplitude) ** 2 == 0.0625
    assert net.perturbed_probability == 0.3125


def test_identity_observable_gives_single_class():
    sc = hardy()
    net = build_network(sc.initial, sc.final("f"),
                        DiagonalObservable(sc.space, np.ones(5)))
    assert len(net.classes) == 1
    assert net.classes[0].multiplicity == 5
    assert net.perturbed_probability == 0.0625


def test_classes_partition_and_order():
    space = StateSpace.of_dimension(4)
    obs = DiagonalObservable(space, [2.0, -1.0, 2.0, 0.0])
    net = build_network(KetState(space, [1, 1, 1, 1]),
                        KetState(space, [1, 1, -1, 1]), obs)
    assert class_values(net) == (2.0, 0.0, -1.0)
    assert [c.members for c in net.classes] == [(0, 2), (3,), (1,)]
    # a reading that no path carries has joint probability zero
    assert net.probability_of(7.0) == 0.0
    assert net.probability_of(2.0) == net.classes[0].probability == 0.0


def test_signed_zero_eigenvalues_form_one_class():
    space = StateSpace.of_dimension(3)
    obs = DiagonalObservable(space, [-0.0, 1.0, 0.0])
    net = build_network(KetState(space, [1, 1, 1]), KetState(space, [1, 2, 3]), obs)
    assert class_values(net) == (1.0, 0.0)
    zero = net.classes[1]
    assert net.probability_of(-0.0) == net.probability_of(0.0) == zero.probability
    assert zero.members == (0, 2)
    assert zero.multiplicity == 2
    assert zero.amplitude == pytest.approx(4.0 / 42 ** 0.5, abs=1e-15)


def test_network_amplitudes_are_read_only_class_sums():
    rng = np.random.default_rng(5)
    space = StateSpace.of_dimension(40)
    dec = decompose(KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40)),
                    KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40)))
    obs = DiagonalObservable(space, rng.integers(-3, 4, size=40) * 0.5)
    net = PathwayNetwork.of(dec, obs)
    index, k = obs.classes.index, obs.classes.values.size
    real = np.bincount(index, weights=dec.amplitudes.real, minlength=k)
    imag = np.bincount(index, weights=dec.amplitudes.imag, minlength=k)
    assert np.array_equal(net.amplitudes.real, real)
    assert np.array_equal(net.amplitudes.imag, imag)
    assert not net.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        net.amplitudes[0] = 0.0
    assert net.classes is net.classes
    assert [c.amplitude for c in net.classes] == net.amplitudes.tolist()


def test_conditional_distribution_divides_by_the_perturbed_probability():
    # 13 classes: an array sum and a left-to-right one can differ in the last bit
    rng = np.random.default_rng(7)
    space = StateSpace.of_dimension(40)
    net = build_network(KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40)),
                        KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40)),
                        DiagonalObservable(space, rng.integers(-6, 7, size=40) * 0.5))
    assert len(net.classes) == 13
    dist = conditional_reading_distribution(net)
    assert list(dist) == [c.eigenvalue for c in net.classes]
    assert list(dist.values()) == [c.probability / net.perturbed_probability
                                   for c in net.classes]
    assert [net.probability_of(c.eigenvalue) for c in net.classes] == \
        [c.probability for c in net.classes]


@pytest.mark.parametrize("call", [
    pytest.param(build_network, id="build_network"),
    pytest.param(lambda i, f, obs: PathwayNetwork.of(decompose(i, f), obs),
                 id="PathwayNetwork.of"),
    pytest.param(lambda i, f, obs: mean_reading(decompose(i, f), obs, MeterModel(1.0)),
                 id="mean_reading"),
    pytest.param(lambda i, f, obs: reading_amplitude(decompose(i, f), obs, MeterModel(1.0),
                                                     0.0),
                 id="reading_amplitude"),
    pytest.param(lambda i, f, obs: weak_value(decompose(i, f), obs), id="weak_value"),
])
def test_observable_over_another_space_is_rejected(call):
    space = StateSpace(("a", "b", "c"))
    other = DiagonalObservable(StateSpace(("x", "y", "z")), [1.0, 0.0, -1.0])
    with pytest.raises(DimensionMismatch):
        call(KetState(space, [1, 1, 1]), KetState(space, [1, 2, 3]), other)


def test_conditional_distribution():
    dist = conditional_reading_distribution(hardy_network("f", "N(1-|1+)"))
    assert dist == {1.0: 0.2, 0.0: 0.8}


def test_conditional_distribution_impossible():
    space = StateSpace(("a", "b"))
    net = build_network(space.basis_state("a"), space.basis_state("b"),
                        DiagonalObservable(space, [1.0, 1.0]))
    with pytest.raises(PostSelectionImpossible):
        conditional_reading_distribution(net)


def test_certain_reading():
    assert certain_reading(hardy_network("f", "N(2-)")) == 1.0
    assert certain_reading(hardy_network("f", "N(2+)")) == 1.0
    assert certain_reading(hardy_network("f", "N(1-|1+)")) is None


def test_all_outcomes_probability():
    sc = hardy()
    assert all_outcomes_probability(sc.initial, sc.observable("N(1-|1+)")) == 0.25
    # the same number summed over the scenario's own complete final family
    value = sum(build_network(sc.initial, fin, sc.observable("N(1-|1+)")).probability_of(1.0)
                for fin in sc.finals.values())
    assert value == 0.25


def test_all_outcomes_requires_projector():
    sc = hardy()
    with pytest.raises(NonProjectorError):
        all_outcomes_probability(
            sc.initial, DiagonalObservable(sc.space, 2.0 * sc.observable("N(1-)").eigenvalues))


def test_sum_rule_fails_post_selected_but_holds_overall():
    sc = hardy()
    report = sum_rule_report(sc.initial, sc.final("f"),
                             sc.observable("N(1-|1+)"), sc.observable("N(1-|2+)"))
    assert report.joint_first == 0.0625
    assert report.joint_second == 0.0625
    assert report.joint_combined == 0.0
    assert not report.holds_postselected
    assert report.all_outcomes_first == 0.25
    assert report.all_outcomes_second == 0.25
    assert report.all_outcomes_combined == 0.5
    assert report.holds_all_outcomes


def test_sum_rule_requires_disjoint_projectors():
    sc = hardy()
    with pytest.raises(NonProjectorError):
        sum_rule_report(sc.initial, sc.final("f"),
                        sc.observable("N(1-)"), sc.observable("N(1-|1+)"))


def test_product_rule_failure():
    sc = hardy()
    report = product_rule_report(sc.initial, sc.final("f"),
                                 sc.observable("N(2-)"), sc.observable("N(2+)"))
    assert report.certain_first == 1.0
    assert report.certain_second == 1.0
    assert report.certain_product == 0.0
    assert not report.holds


def test_product_rule_holds_without_joint_certainty():
    sc = hardy()
    report = product_rule_report(sc.initial, sc.final("f"),
                                 sc.observable("N(1-|1+)"), sc.observable("N(2-)"))
    assert report.certain_first is None
    assert report.holds


def test_product_rule_holds_in_plain_case():
    space = StateSpace(("a", "b"))
    ket = space.basis_state("a")
    p = DiagonalObservable(space, [1.0, 0.0])
    report = product_rule_report(ket, ket, p, p)
    assert report.certain_first == 1.0
    assert report.certain_product == 1.0
    assert report.holds


def test_three_box_certainties():
    sc = three_box(0.5)
    assert certain_reading(build_network(sc.initial, sc.final("f"),
                                         sc.observable("P2"))) == 1.0
    assert certain_reading(build_network(sc.initial, sc.final("f"),
                                         sc.observable("P3"))) == 1.0
