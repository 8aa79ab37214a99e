import math

import numpy as np
import pytest

from _invariants import basis_ket, class_values, fourier_family
from qpaths import (DiagonalObservable, DimensionMismatch, KetState, MeterModel,
                    NonProjectorError, PathwayClass, PathwayNetwork, PostSelectionImpossible,
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
    assert net.probabilities[0] == 0.0625
    assert net.probabilities[1] == 0.25


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
    assert len(net.classes[0].members) == 5
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
    assert net.probability_of(2.0) == net.probabilities[0] == 0.0


def test_signed_zero_eigenvalues_form_one_class():
    space = StateSpace.of_dimension(3)
    obs = DiagonalObservable(space, [-0.0, 1.0, 0.0])
    net = build_network(KetState(space, [1, 1, 1]), KetState(space, [1, 2, 3]), obs)
    assert class_values(net) == (1.0, 0.0)
    zero = net.classes[1]
    assert net.probability_of(-0.0) == net.probability_of(0.0) == net.probabilities[1]
    assert zero.members == (0, 2)
    assert len(zero.members) == 2
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


def test_pathway_class_is_three_fields_and_nothing_else():
    assert PathwayClass._fields == ("eigenvalue", "members", "amplitude")
    public = [name for name in vars(PathwayClass)
              if not name.startswith("_") and name not in PathwayClass._fields]
    assert public == []


def random_networks():
    """Networks over 40 paths, one with a -0.0/0.0 class and one whose class sums are
    near 1e-161, where |A|^2 is subnormal."""
    rng = np.random.default_rng(23)
    space = StateSpace.of_dimension(40)
    for scale, eigenvalues in ((1.0, rng.integers(-6, 7, size=40) * 0.5),
                               (1.0, rng.choice([-0.0, 0.0, 1.0, 2.5], size=40)),
                               (1.0, rng.normal(size=40)),
                               (1e-161, rng.integers(0, 3, size=40))):
        initial = KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40))
        final = KetState(space, scale * (rng.normal(size=40) + 1j * rng.normal(size=40)),
                         normalize=False)
        yield build_network(initial, final, DiagonalObservable(space, eigenvalues))


def test_class_probabilities_are_one_formula_everywhere():
    for net in random_networks():
        probabilities = net.probabilities
        assert probabilities.shape == net.amplitudes.shape
        assert net.perturbed_probability == float(probabilities.sum())
        for i, (ev, amplitude) in enumerate(zip(net.observable.classes.values.tolist(),
                                                 net.amplitudes.tolist())):
            assert probabilities[i] == abs(amplitude) ** 2
            assert net.probability_of(ev) == probabilities[i]


def assert_scaled_by_a_power_of_two(net):
    amplitudes, rounding, e = net.scaled
    assert net.scaled is net.scaled
    assert not amplitudes.flags.writeable
    with pytest.raises(ValueError):
        amplitudes[0] = 0.0
    assert np.array_equal(np.ldexp(amplitudes.view(float), e).view(complex), net.amplitudes)
    assert rounding == math.ldexp(net.decomposition.rounding, -e)
    assert 1.0 <= max(float(np.abs(amplitudes.view(float)).max()), rounding) < 2.0


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -900, 3e-200, 2.0 ** 500])
def test_network_holds_its_class_sums_at_one_power_of_two_scale(scale):
    rng = np.random.default_rng(11)
    space = StateSpace.of_dimension(40)
    final = scale * (rng.normal(size=40) + 1j * rng.normal(size=40))
    dec = decompose(KetState(space, rng.normal(size=40) + 1j * rng.normal(size=40)),
                    KetState(space, final, normalize=False))
    net = PathwayNetwork.of(dec, DiagonalObservable(space, rng.integers(-3, 4, size=40)))
    assert_scaled_by_a_power_of_two(net)


def test_rounding_sets_the_scale_of_class_sums_that_are_noise():
    # every class sum is zero in exact arithmetic and rounding noise as computed
    space = StateSpace.of_dimension(6)
    dec = decompose(KetState(space, np.ones(6)), fourier_family(space)[3])
    net = PathwayNetwork.of(dec, DiagonalObservable(space, [0, 1, 2, 0, 1, 2]))
    assert_scaled_by_a_power_of_two(net)
    amplitudes, rounding, _ = net.scaled
    assert 0.0 < np.abs(amplitudes.view(float)).max() < rounding
    assert net.vanishes(float((np.abs(amplitudes) ** 2).sum()))
    assert net.vanishes(math.nan)


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
    assert list(dist.values()) == [p / net.perturbed_probability
                                   for p in net.probabilities.tolist()]
    assert [net.probability_of(c.eigenvalue) for c in net.classes] == \
        net.probabilities.tolist()


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
    net = build_network(basis_ket(space, "a"), basis_ket(space, "b"),
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


@pytest.mark.parametrize("report", [sum_rule_report, product_rule_report])
@pytest.mark.parametrize("labels", [("a", "b", "c"), ("x", "y")],
                         ids=["other-dimension", "other-labels"])
def test_rule_reports_reject_observables_over_different_spaces(report, labels):
    space = StateSpace(("a", "b"))
    first = DiagonalObservable(space, [1.0, 0.0])
    second = DiagonalObservable(StateSpace(labels), [0.0] + [1.0] * (len(labels) - 1))
    with pytest.raises(DimensionMismatch, match="^observables live over different spaces$"):
        report(KetState(space, [1, 1]), KetState(space, [1, 0]), first, second)


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
    ket = basis_ket(space, "a")
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
