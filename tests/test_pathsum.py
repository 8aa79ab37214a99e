import numpy as np
import pytest

from _invariants import transition_probability
from qpaths import DimensionMismatch, KetState, StateSpace, amplitude_table, decompose, hardy


def test_path_amplitudes_for_hardy_f():
    sc = hardy()
    dec = decompose(sc.initial, sc.final("f"))
    assert dec.amplitudes.tolist() == [0.25, -0.25, -0.25, 0.0, 0.0]
    assert dec.total_amplitude == -0.25
    assert dec.amplitudes[sc.space.index("2-,1+")] == -0.25


def test_total_amplitude_equals_inner_product():
    sc = hardy()
    for fin in sc.finals.values():
        dec = decompose(sc.initial, fin)
        assert dec.total_amplitude == pytest.approx(np.vdot(fin.amplitudes, sc.initial.amplitudes),
                                                     abs=1e-15)


def test_transition_probabilities():
    sc = hardy()
    probs = {name: transition_probability(sc.initial, fin)
             for name, fin in sc.finals.items()}
    assert probs == {"f": 0.0625, "g": 0.0625, "h": 0.0625,
                     "j": 0.5625, "gamma": 0.25}
    assert sum(probs.values()) == 1.0


def test_single_basis_final_leaves_one_path():
    space = StateSpace(("a", "b", "c"))
    initial = KetState(space, [1.0, 1.0, 1.0])
    dec = decompose(initial, space.basis_state("b"))
    assert dec.amplitudes[0] == 0.0 and dec.amplitudes[2] == 0.0
    assert dec.amplitudes[1] != 0.0


def test_amplitude_table_columns_match_decompositions():
    sc = hardy()
    table = amplitude_table(sc.initial, sc.finals)
    assert list(sc.finals) == ["f", "g", "h", "j", "gamma"]
    assert table.shape == (sc.space.dimension, len(sc.finals))
    assert not table.flags.writeable
    for j, fin in enumerate(sc.finals.values()):
        expected = decompose(sc.initial, fin).amplitudes
        assert np.array_equal(table[:, j], expected)
    assert (np.abs(table.sum(axis=0)) ** 2).sum() == 1.0


def test_amplitude_table_accepts_overlapping_finals():
    space = StateSpace(("a", "b"))
    initial = KetState(space, [1.0, 1.0])
    finals = {"x": KetState(space, [1.0, 0.0]),
              "y": KetState(space, [1.0, 1.0])}
    table = amplitude_table(initial, finals)
    assert table.shape == (2, 2)


def test_conjugation_matters_for_complex_finals():
    space = StateSpace(("a", "b"))
    initial = KetState(space, [1.0, 0.0], normalize=False)
    final = KetState(space, [1j, 0.0], normalize=False)
    assert decompose(initial, final).amplitudes[0] == -1j


def test_amplitude_table_rejects_a_final_over_another_space():
    sc = hardy()
    other = StateSpace.of_dimension(5)
    finals = {"f": sc.final("f"), "g": other.basis_state(0)}
    with pytest.raises(DimensionMismatch, match="different spaces"):
        amplitude_table(sc.initial, finals)
