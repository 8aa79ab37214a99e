import math

import numpy as np
import pytest

from _invariants import basis_ket, fourier_family, kets_close
from qpaths import (DiagonalObservable, DimensionMismatch, KetState,
                    StateSpace, ZeroStateError, decompose, expectation)
from qpaths.statespace import _power_of_two_scaled, overlapping_pairs, unit_scaled


def test_space_basics():
    space = StateSpace(("a", "b", "c"))
    assert space.dimension == 3
    assert space.labels[2] == "c"


def test_space_rejects_bad_labels():
    with pytest.raises(ValueError):
        StateSpace(())
    with pytest.raises(ValueError):
        StateSpace(("x", "x"))


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


def test_stored_arrays_are_read_only_and_never_alias_the_input():
    space = StateSpace(("a", "b"))
    for given, build, read in (
            (np.array([0.6, 0.8j]), lambda v: KetState(space, v), "amplitudes"),
            (np.array([3.0, 4.0j]), lambda v: KetState(space, v), "amplitudes"),
            (np.array([3.0, 4.0j]), lambda v: KetState(space, v, normalize=False),
             "amplitudes"),
            (np.array([[1.0], [2.0]]), lambda v: DiagonalObservable(space, v), "eigenvalues")):
        stored = getattr(build(given), read)
        before = stored.copy()
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given)
        given[...] = 7.0
        assert np.array_equal(stored, before)


@pytest.mark.parametrize("values, floor", [
    (np.array([]), 0.0),
    (np.zeros(3), 0.0),
    (np.zeros(2, dtype=complex), 0.0),
    (np.array([1.0, np.inf]), 0.0),
    (np.array([np.nan, 2.0]), 0.5),
    (np.array([1 + 1j, complex(0.0, -np.inf)]), 0.0),
    (np.array([3.0]), np.inf),
], ids=["empty", "zeros", "complex-zeros", "inf", "nan", "complex-inf", "infinite-floor"])
def test_power_of_two_scaling_leaves_values_without_a_finite_scale(values, floor):
    scaled, e = _power_of_two_scaled(values, floor)
    assert scaled is values and e == 0


@pytest.mark.parametrize("values, floor", [
    (np.array([3.0, -0.75]), 0.0),
    (np.array([1e-310, -4e-320]), 0.0),
    (np.array([1.7e308, 1.0]), 0.0),
    (np.array([0.0, 1.0]), 0.0),
    (np.array([2.0 ** -30]), 2.0 ** -10),
    (np.zeros(4), 1e-300),
    (np.array([1e300 - 3e299j, 2e-5 + 6e299j]), 1.0),
    (np.array([5e-324 + 0j]), 0.0),
], ids=["real", "subnormal", "near-largest", "power-of-two", "floor-above-parts",
        "zeros-with-floor", "complex", "smallest-subnormal"])
def test_power_of_two_scaling_brings_the_largest_part_into_one_to_two_exactly(values, floor):
    scaled, e = _power_of_two_scaled(values, floor)
    assert scaled.dtype == values.dtype and scaled.shape == values.shape
    parts = scaled.view(float)
    # the larger of the floor and the largest real or imaginary part lands in [1, 2)
    assert 1.0 <= max(float(np.abs(parts).max()), math.ldexp(floor, -e)) < 2.0
    assert np.array_equal(np.ldexp(parts, e), values.view(float))


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
    states = [basis_ket(space, 0), KetState(space, [1, 1, 0]), basis_ket(space, 2),
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
    assert overlapping_pairs(fourier_family(space)) == []
    assert overlapping_pairs([]) == []


def test_inner_requires_same_space():
    with pytest.raises(DimensionMismatch):
        decompose(basis_ket(StateSpace(("a",)), 0), basis_ket(StateSpace(("b",)), 0))


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
    assert obs.eigenvalues[space.labels.index("c")] == 2.0


def test_observable_algebra():
    space = StateSpace(("a", "b"))
    p = DiagonalObservable(space, [1.0, 0.0])
    q = DiagonalObservable(space, [0.0, 1.0])
    assert (p + q) == DiagonalObservable(space, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        p + DiagonalObservable(StateSpace(("x",)), [1.0])


def test_observable_and_expectation_reject_another_dimension():
    space = StateSpace(("a", "b"))
    with pytest.raises(DimensionMismatch,
                       match="^observable has 3 eigenvalues, space has dimension 2$"):
        DiagonalObservable(space, [1.0, 0.0, 1.0])
    other = StateSpace(("a", "b", "c"))
    with pytest.raises(DimensionMismatch,
                       match="^state and observable live over different spaces$"):
        expectation(KetState(space, [1.0, 1.0]), DiagonalObservable(other, [1.0, 0.0, 1.0]))


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


def test_expectation_squares_moduli_by_the_class_probability_rule():
    # <i|F|i> takes |amp_n|^2 as np.hypot(re, im)^2, as every class probability does;
    # np.abs(amp_n)^2 differs from it in the last bit for about a third of the entries
    rng = np.random.default_rng(43)
    space = StateSpace.of_dimension(16)
    obs = DiagonalObservable(space, rng.normal(size=16))
    for scale in (None, 1e-160, 1e150):
        for _ in range(200):
            amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
            # a unit state, or one whose |amp|^2 are subnormal or near 1e300
            ket = (KetState(space, amplitudes) if scale is None
                   else KetState(space, scale * amplitudes, normalize=False))
            a = ket.amplitudes
            assert expectation(ket, obs) == float(
                np.sum(obs.eigenvalues * np.hypot(a.real, a.imag) ** 2))


def test_fourier_family_is_complete_and_orthonormal():
    space = StateSpace.of_dimension(5)
    family = fourier_family(space)
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in family] for a in family])
    assert np.allclose(gram, np.eye(5), atol=1e-14)
    for member in family:
        assert np.all(np.abs(member.amplitudes) > 0.1)
