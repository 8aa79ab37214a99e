import numpy as np
import pytest

from _invariants import transition_probability
from qpaths import (RESERVED_NAMES, Scenario, UnknownNameError, built_in,
                    built_in_library, decompose, epsilon_grid, hardy,
                    hardy_epsilon, three_box)
from qpaths.statespace import overlapping_pairs


def test_hardy_states_are_exact():
    sc = hardy()
    assert sc.space.labels == ("1-,1+", "1-,2+", "2-,1+", "2-,2+", "gamma")
    assert sc.initial.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.0, 0.5]
    assert sc.final("f").amplitudes.tolist() == [0.5, -0.5, -0.5, 0.5, 0.0]
    assert sc.final("gamma").amplitudes.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_hardy_finals_are_complete_orthonormal_family():
    sc = hardy()
    finals = list(sc.finals.values())
    for a in range(len(finals)):
        for b in range(len(finals)):
            expected = 1.0 if a == b else 0.0
            overlap = np.vdot(finals[a].amplitudes, finals[b].amplitudes)
            assert overlap == pytest.approx(expected, abs=1e-15)
    total = sum(transition_probability(sc.initial, fin) for fin in finals)
    assert total == 1.0


def test_hardy_observables_are_projectors_with_silent_photon_row():
    sc = hardy()
    assert len(sc.observables) == 8
    for obs in sc.observables.values():
        assert obs.is_projector
        assert obs.eigenvalues[sc.space.labels.index("gamma")] == 0.0
    pair_sum = sum(np.count_nonzero(sc.observable(n).eigenvalues)
                   for n in ("N(1-|1+)", "N(1-|2+)", "N(2-|1+)", "N(2-|2+)"))
    assert pair_sum == 4


def test_hardy_single_particle_operators_decompose_pairwise():
    sc = hardy()
    left = sc.observable("N(1-|1+)") + sc.observable("N(1-|2+)")
    assert left == sc.observable("N(1-)")
    right = sc.observable("N(1-|1+)") + sc.observable("N(2-|1+)")
    assert right == sc.observable("N(1+)")


def test_three_box_path_amplitudes():
    for beta in (0.1, 0.5, 0.9):
        sc = three_box(beta)
        amps = decompose(sc.initial, sc.final("f")).amplitudes
        assert np.allclose(amps, [beta, -beta, -beta], atol=1e-15, rtol=0.0)


def test_three_box_projectors_sum_to_identity():
    sc = three_box(0.5)
    total = sc.observable("P1") + sc.observable("P2") + sc.observable("P3")
    assert total.eigenvalues.tolist() == [1.0, 1.0, 1.0]


def test_three_box_domain():
    with pytest.raises(ValueError):
        three_box(0.0)
    with pytest.raises(ValueError):
        three_box(1.5)


def test_hardy_epsilon_reduces_to_hardy():
    sc = hardy_epsilon(1.0)
    assert sc.final("f").amplitudes.tolist() == hardy().final("f").amplitudes.tolist()
    assert sc.initial.amplitudes.tolist() == hardy().initial.amplitudes.tolist()


def test_hardy_epsilon_finals_overlap_for_small_epsilon():
    # f = (1, -1, -e, e, 0)/sqrt(2 + 2e^2) stays orthogonal to h, j and gamma
    for epsilon in (1e-6, 0.25, 2.0):
        finals = list(hardy_epsilon(epsilon).finals.values())
        [(a, b, overlap)] = overlapping_pairs(finals)
        assert (a, b) == (0, 1)  # f and g
        assert overlap == pytest.approx(abs(1 - epsilon) / np.sqrt(2 + 2 * epsilon ** 2),
                                        rel=1e-14)
    assert overlapping_pairs(list(hardy_epsilon(1.0).finals.values())) == []


def test_hardy_epsilon_domain():
    with pytest.raises(ValueError):
        hardy_epsilon(0.0)
    with pytest.raises(ValueError):
        hardy_epsilon(-0.5)


def test_built_in_dispatch():
    assert built_in("hardy").name == "hardy"
    sc = built_in("three-box", beta=0.9)
    amps = decompose(sc.initial, sc.final("f")).amplitudes
    assert np.allclose(amps, [0.9, -0.9, -0.9], atol=1e-15, rtol=0.0)
    assert built_in("hardy-epsilon", epsilon=0.125).name == "hardy-epsilon"
    with pytest.raises(UnknownNameError):
        built_in("unknown")


def test_built_in_library_and_reserved_names():
    library = built_in_library()
    assert [sc.name for sc in library] == ["three-box", "hardy", "hardy-epsilon"]
    assert [sc.notes for sc in library] == [(), (), ()]  # notes are validate's warnings
    assert RESERVED_NAMES == {"three-box", "hardy", "hardy-epsilon"}


def test_scenario_name_lookups():
    sc = hardy()
    with pytest.raises(UnknownNameError):
        sc.final("zz")
    with pytest.raises(UnknownNameError):
        sc.observable("zz")
    assert tuple(sc.finals) == ("f", "g", "h", "j", "gamma")
    assert next(iter(sc.observables)) == "N(1-|1+)"


def test_lookup_in_an_empty_mapping_says_none():
    base = hardy()
    sc = Scenario("bare", base.space, base.initial, {}, {})
    with pytest.raises(UnknownNameError) as info:
        sc.observable("N(1+)")
    assert str(info.value) == "unknown observable 'N(1+)'; known: (none)"


def test_unknown_name_messages_list_short_names_in_full():
    sc = hardy()
    with pytest.raises(UnknownNameError) as info:
        sc.final("zz")
    assert str(info.value) == "unknown final state 'zz'; known: f, g, h, j, gamma"
    with pytest.raises(UnknownNameError) as info:
        sc.observable("N(3+)")
    assert str(info.value) == ("unknown observable 'N(3+)'; known: " + ", ".join(sc.observables))
    assert len(sc.observables) == 8


def test_unknown_name_messages_cut_long_names_and_long_lists():
    name = "q" * 41
    known = tuple(f"k{j}" for j in range(11)) + ("k" * 100,)
    message = str(UnknownNameError("observable", name, known))
    assert message == (f"unknown observable {'q' * 40!r}... (41 characters); known: "
                       "k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, ... (12 in all)")
    message = str(UnknownNameError("observable", "x" * 40, ("k" * 40, "k" * 100)))
    assert message == (f"unknown observable {'x' * 40!r}; known: {'k' * 40}, "
                       f"{'k' * 40}... (100 characters)")


def test_epsilon_grid():
    grid = epsilon_grid(1e-6, 1.0, 7)
    assert grid[0] == pytest.approx(1e-6, rel=1e-12)
    assert grid[-1] == 1.0
    ratios = [grid[k + 1] / grid[k] for k in range(6)]
    assert np.allclose(ratios, 10.0, rtol=1e-9)
    assert epsilon_grid(0.5, 2.0, 1) == (0.5,)
    with pytest.raises(ValueError):
        epsilon_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        epsilon_grid(0.1, 1.0, 0)
