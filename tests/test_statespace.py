import numpy as np
import pytest

from _invariants import kets_close
from qpaths import (DiagonalObservable, DimensionMismatch, KetState,
                    StateSpace, ZeroStateError, decompose, expectation,
                    fourier_basis)
from qpaths.statespace import overlapping_pairs, unit_scaled


def test_space_basics():
    space = StateSpace(("a", "b", "c"))
    assert space.dimension == 3
    assert space.index("b") == 1
    assert space.labels[2] == "c"
    with pytest.raises(KeyError):
        space.index("missing")


def test_space_rejects_bad_labels():
    with pytest.raises(ValueError):
        StateSpace(())
    with pytest.raises(ValueError):
        StateSpace(("x", "x"))


def test_basis_state():
    space = StateSpace(("a", "b"))
    ket = space.basis_state("b")
    assert ket.amplitudes[space.index("b")] == 1.0
    assert ket.amplitudes[space.index("a")] == 0.0
    assert kets_close(space.basis_state(0), space.basis_state("a"))


def test_ket_normalizes_on_construction():
    space = StateSpace(("a", "b"))
    ket = KetState(space, [3.0, 4.0])
    assert unit_scaled(ket.amplitudes)[1] == pytest.approx(1.0, abs=1e-15)
    assert ket.amplitudes[0] == pytest.approx(0.6)


def test_ket_unnormalized_construction():
    space = StateSpace(("a", "b"))
    ket = KetState(space, [3.0, 4.0], normalize=False)
    assert unit_scaled(ket.amplitudes)[1] == 5.0
    assert unit_scaled(KetState(space, ket.amplitudes).amplitudes)[1] == pytest.approx(1.0, abs=1e-15)


def test_ket_exact_unit_input_is_untouched():
    space = StateSpace(("a", "b", "c", "d"))
    ket = KetState(space, [0.5, 0.5, 0.5, 0.5])
    assert ket.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.5]


@pytest.mark.filterwarnings("error")
def test_ket_norm_without_overflow_or_underflow():
    space = StateSpace.of_dimension(2)
    assert kets_close(KetState(space, [1e200, -3e200]), KetState(space, [1.0, -3.0]))
    big = KetState(space, [3e200, 4e200], normalize=False)
    assert unit_scaled(big.amplitudes)[1] == pytest.approx(5e200)
    # entries in range, norm past the largest float
    assert kets_close(KetState(space, [1.5e308, 1.5e308]), KetState(space, [1.0, 1.0]))
    assert unit_scaled(np.array([3.0, 4.0j]))[1] == 5.0
    # squares of these subnormal entries underflow to zero
    tiny = KetState(space, [3e-320, 4e-320], normalize=False)
    assert unit_scaled(tiny.amplitudes)[1] == pytest.approx(5e-320, rel=1e-3)


def test_ket_rejects_zero_and_mismatch():
    space = StateSpace(("a", "b"))
    with pytest.raises(ZeroStateError):
        KetState(space, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        KetState(space, [1.0, 0.0, 0.0])


def test_ket_is_immutable():
    space = StateSpace(("a", "b"))
    ket = KetState(space, [1.0, 0.0])
    with pytest.raises(ValueError):
        ket.amplitudes[0] = 2.0


def test_inner_conjugates_first_argument():
    # <bra|ket> is the total amplitude of the transition ket -> bra
    space = StateSpace(("a", "b"))
    bra = KetState(space, [1j, 0.0], normalize=False)
    ket = KetState(space, [1.0, 0.0], normalize=False)
    assert decompose(ket, bra).total_amplitude == -1j
    assert decompose(bra, ket).total_amplitude == 1j


def test_overlapping_pairs_match_pairwise_inner_products():
    space = StateSpace.of_dimension(3)
    rng = np.random.default_rng(7)
    states = [space.basis_state(0), KetState(space, [1, 1, 0]), space.basis_state(2),
              KetState(space, [0, 5e-10, 1], normalize=False),
              KetState(space, rng.normal(size=3) + 1j * rng.normal(size=3))]
    expected = [(a, b, abs(np.vdot(states[a].amplitudes, states[b].amplitudes)))
                for a in range(len(states)) for b in range(a + 1, len(states))
                if abs(np.vdot(states[a].amplitudes, states[b].amplitudes)) > 1e-9]
    got = overlapping_pairs(states)
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
    assert (1, 3) not in [(a, b) for a, b, _ in got]  # overlap 3.5e-10 is below 1e-9
    for (_, _, g), (_, _, e) in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-15)
    assert overlapping_pairs(fourier_basis(space)) == []
    assert overlapping_pairs([]) == []


def test_inner_requires_same_space():
    with pytest.raises(DimensionMismatch):
        decompose(StateSpace(("a",)).basis_state(0), StateSpace(("b",)).basis_state(0))


def test_observable_basics():
    space = StateSpace(("a", "b", "c"))
    obs = DiagonalObservable(space, [2.0, 0.0, 2.0])
    assert obs.classes.values.tolist() == [2.0, 0.0]
    # -0.0 and 0.0 are one eigenvalue, reported as 0.0, as in the path classes
    signed = DiagonalObservable(space, [-0.0, 0.0, 1.0]).classes.values
    assert signed.tolist() == [1.0, 0.0]
    assert not np.signbit(signed[1])
    assert obs.spread == 2.0
    assert not obs.is_projector
    assert DiagonalObservable(space, [1.0, 0.0, 1.0]).is_projector
    assert obs.eigenvalues[space.index("c")] == 2.0


def test_observable_algebra():
    space = StateSpace(("a", "b"))
    p = DiagonalObservable(space, [1.0, 0.0])
    q = DiagonalObservable(space, [0.0, 1.0])
    assert (p + q) == DiagonalObservable(space, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        p + DiagonalObservable(StateSpace(("x",)), [1.0])


def test_observable_rejects_nonfinite():
    space = StateSpace(("a", "b"))
    with pytest.raises(ValueError):
        DiagonalObservable(space, [1.0, np.inf])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("normalize", [True, False])
def test_ket_rejects_nonfinite(bad, normalize):
    space = StateSpace(("a", "b"))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        KetState(space, [bad, 1.0], normalize=normalize)


def test_expectation():
    space = StateSpace(("a", "b"))
    ket = KetState(space, [1.0, 1.0])
    obs = DiagonalObservable(space, [1.0, 3.0])
    assert expectation(ket, obs) == pytest.approx(2.0, abs=1e-15)


def test_fourier_basis_is_complete_and_orthonormal():
    space = StateSpace.of_dimension(5)
    family = fourier_basis(space)
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in family] for a in family])
    assert np.allclose(gram, np.eye(5), atol=1e-14)
    for member in family:
        assert np.all(np.abs(member.amplitudes) > 0.1)
