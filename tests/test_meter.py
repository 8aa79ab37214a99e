import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _invariants import blocked_mean_reading, dense_mean_reading, dense_reading_amplitude
from qpaths import (DiagonalObservable, KetState, MeterModel,
                    MeterStatisticsUndefined, StateSpace, WeakValueUndefined,
                    build_network, conditional_reading_distribution, decompose,
                    fourier_basis, grid_mean_reading, hardy, mean_reading,
                    reading_amplitude, scaled_widths, three_box,
                    weak_limit_convergence, weak_value)
from qpaths.measurement import PathwayNetwork
from qpaths.meter import BLOCK_ROWS, WIDE_RANK
from qpaths.oracle import MEAN_READING_TOL, WIDTH_RATIOS


def hardy_case(obs_name="N(1-|1+)", final_name="f"):
    sc = hardy()
    return decompose(sc.initial, sc.final(final_name)), sc.observable(obs_name)


def test_pointer_state_is_unit_norm():
    meter = MeterModel(0.7)
    x = np.linspace(-12.0, 12.0, 20001)
    assert np.trapezoid(meter.pointer_amplitude(x) ** 2, x) == pytest.approx(1.0, abs=1e-12)


def test_meter_width_must_be_positive():
    with pytest.raises(ValueError):
        MeterModel(0.0)
    with pytest.raises(ValueError):
        MeterModel(-1.0)


def test_reading_amplitude_spot_value():
    dec, obs = hardy_case()
    psi0 = reading_amplitude(dec, obs, MeterModel(1.0), 0.0)
    assert psi0 == pytest.approx(-0.19283308919522263 + 0j, abs=1e-14)


def test_reading_amplitude_vectorizes():
    dec, obs = hardy_case()
    meter = MeterModel(1.0)
    xs = np.array([-1.0, 0.0, 2.5])
    batch = reading_amplitude(dec, obs, meter, xs)
    assert batch.shape == (3,)
    for k, x in enumerate(xs):
        assert batch[k] == reading_amplitude(dec, obs, meter, float(x))


def test_mean_reading_strong_limit_is_conditional_average():
    dec, obs = hardy_case()
    assert mean_reading(dec, obs, MeterModel(0.001)) == pytest.approx(0.2, abs=1e-6)


def test_mean_reading_frozen_values():
    # anchors computed once by direct numerical integration of the
    # pointer density, outside this package
    dec, obs = hardy_case()
    expected = {1.0: -0.5203995629895912, 10.0: -0.9925419524883535,
                100.0: -0.9999250042185065}
    for width, value in expected.items():
        assert mean_reading(dec, obs, MeterModel(width)) == pytest.approx(value, abs=1e-11)


def test_mean_reading_approaches_weak_value():
    dec, obs = hardy_case()
    target = weak_value(dec, obs).reported
    assert mean_reading(dec, obs, MeterModel(1e4)) == pytest.approx(target, abs=1e-7)


def test_mean_reading_undefined_when_post_selection_impossible():
    space = StateSpace(("a", "b"))
    dec = decompose(space.basis_state("a"), space.basis_state("b"))
    obs = DiagonalObservable(space, [1.0, 0.0])
    with pytest.raises(MeterStatisticsUndefined):
        mean_reading(dec, obs, MeterModel(1.0))


def test_mean_reading_defined_for_amplitudes_whose_squares_underflow():
    # one path of amplitude 2.5e-161: |A|^2 is a subnormal 6.4e-322
    space = StateSpace.of_dimension(3)
    dec = decompose(KetState(space, [0, 0, 1]), KetState(space, [0, 1, 2.52754399e-161]))
    assert mean_reading(dec, DiagonalObservable(space, [-1.0, -1.0, -1.0]),
                        MeterModel(1.0)) == -1.0
    # the grid oracle scales the path amplitudes, so its density does not underflow either
    assert grid_mean_reading(dec, DiagonalObservable(space, [-1.0, -1.0, -1.0]),
                             MeterModel(1.0)) == -1.0
    # <x> is invariant under scaling either state, down to the bottom of the float range
    rng = np.random.default_rng(5)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    obs = DiagonalObservable(space, [-1.0, 0.5, 2.0])
    meter = MeterModel(0.8)
    reference = mean_reading(decompose(KetState(space, u), KetState(space, v)), obs, meter)
    for scale in (1e-160, 1e-200, 1e150):
        dec = decompose(KetState(space, u, normalize=False),
                        KetState(space, scale * v, normalize=False))
        assert mean_reading(dec, obs, meter) == pytest.approx(reference, rel=1e-12)


def test_three_box_mean_reading_is_width_independent():
    sc = three_box(0.5)
    dec = decompose(sc.initial, sc.final("f"))
    for width in (0.01, 0.5, 3.0, 200.0):
        assert mean_reading(dec, sc.observable("P2"), MeterModel(width)) == \
            pytest.approx(1.0, abs=1e-12)


def test_weak_values_for_hardy_f():
    sc = hardy()
    dec = decompose(sc.initial, sc.final("f"))
    values = {name: weak_value(dec, sc.observable(name)).reported
              for name in ("N(1-|1+)", "N(1-|2+)", "N(2-|1+)", "N(2-|2+)")}
    assert values["N(1-|1+)"] == -1.0
    assert values["N(1-|2+)"] == 1.0
    assert values["N(2-|1+)"] == 1.0
    assert values["N(2-|2+)"] == 0.0


def test_weak_value_is_complex_in_general():
    space = StateSpace(("a", "b"))
    dec = decompose(KetState(space, [1.0, 1j]), KetState(space, [1.0, 1.0]))
    result = weak_value(dec, DiagonalObservable(space, [1.0, 0.0]))
    assert result.complex_value == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert result.reported == pytest.approx(0.5, abs=1e-12)


def test_weak_value_undefined_for_orthogonal_selection():
    space = StateSpace(("a", "b"))
    dec = decompose(space.basis_state("a"), space.basis_state("b"))
    with pytest.raises(WeakValueUndefined):
        weak_value(dec, DiagonalObservable(space, [1.0, 0.0]))


def test_weak_value_undefined_when_total_is_rounding_noise():
    # |<f|i>| is 1.6e-16 against sum |amp| = 1: below the n eps sum |amp|
    # rounding bound of the path sum, so its phase and size are noise
    space = StateSpace.of_dimension(3)
    dec = decompose(KetState(space, [1.0, 1.0, 1.0]), fourier_basis(space)[1])
    assert 0.0 < abs(dec.total_amplitude) < 1e-15
    with pytest.raises(WeakValueUndefined, match="amplitude is zero"):
        weak_value(dec, DiagonalObservable(space, [1.0, 0.0, 0.0]))


def test_weak_limit_errors_decrease():
    dec, obs = hardy_case()
    errors = weak_limit_convergence(dec, obs, scaled_widths(obs, (1.0, 10.0, 100.0)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_scaled_widths():
    sc = hardy()
    obs = sc.observable("N(1-|1+)")
    assert scaled_widths(obs, (1.0, 10.0)) == (1.0, 10.0)
    zero_spread = DiagonalObservable(sc.space, [1.0] * 5)
    with pytest.raises(ValueError):
        scaled_widths(zero_spread, (1.0,))


def test_strong_limit_matches_conditional_average_elsewhere():
    sc = hardy()
    dec = decompose(sc.initial, sc.final("j"))
    obs = sc.observable("N(1-)")
    dist = conditional_reading_distribution(build_network(sc.initial, sc.final("j"), obs))
    expected = sum(ev * p for ev, p in dist.items())
    assert mean_reading(dec, obs, MeterModel(0.01)) == pytest.approx(expected, abs=1e-3)


def test_class_kernel_allocates_no_path_by_path_array():
    # an n x n float array over paths alone would take 32 MB at n = 2048
    rng = np.random.default_rng(7)
    space = StateSpace.of_dimension(2048)
    dec = decompose(KetState(space, rng.normal(size=2048) + 1j * rng.normal(size=2048)),
                    KetState(space, rng.normal(size=2048) + 1j * rng.normal(size=2048)))
    obs = DiagonalObservable(space, rng.integers(0, 2, size=2048))
    meter = MeterModel(1.0)
    x = np.linspace(-8.0, 9.0, 512)
    tracemalloc.start()
    try:
        mean_reading(dec, obs, meter)
        reading_amplitude(dec, obs, meter, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# 600 classes span three kernel blocks, the last one partial
BLOCKED_N = 600


def random_transition(n, seed):
    rng = np.random.default_rng(seed)
    space = StateSpace.of_dimension(n)
    dec = decompose(KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n)),
                    KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n)))
    return space, dec, rng


def blocked_spectra():
    space, dec, rng = random_transition(BLOCKED_N, 11)
    distinct = rng.permutation(np.linspace(-1.0, 2.0, BLOCKED_N))
    few = rng.choice([-1.0, 0.0, 0.5, 2.0], size=BLOCKED_N)
    return dec, {"distinct": DiagonalObservable(space, distinct),
                 "few": DiagonalObservable(space, few)}


@pytest.mark.parametrize("spectrum", ["distinct", "few"])
def test_class_meter_matches_path_level_sums_across_blocks(spectrum):
    assert 2 * BLOCK_ROWS < BLOCKED_N < 3 * BLOCK_ROWS
    dec, observables = blocked_spectra()
    obs = observables[spectrum]
    evs, amps = obs.eigenvalues, dec.amplitudes
    scale = float(np.sum(np.abs(amps) ** 2))
    for width in scaled_widths(obs, (0.01, 1.0, 100.0)):
        numerator, denominator = dense_mean_reading(evs, amps, width)
        assert mean_reading(dec, obs, MeterModel(width)) == pytest.approx(
            numerator / denominator, abs=1e-12 * scale / abs(denominator))
        x = np.linspace(evs.min() - 3 * width, evs.max() + 3 * width, 9)
        np.testing.assert_allclose(
            reading_amplitude(dec, obs, MeterModel(width), x),
            dense_reading_amplitude(evs, amps, width, x), rtol=0.0,
            atol=1e-12 * (2 * np.pi * width ** 2) ** -0.25 * float(np.abs(amps).sum()))


def test_blocked_meter_limits_at_float_extremes():
    dec, observables = blocked_spectra()
    obs = observables["distinct"]
    amps = dec.amplitudes
    # every eigenvalue is its own class, so the path probabilities are the class ones
    probabilities = np.abs(amps) ** 2
    conditional = float(obs.eigenvalues @ probabilities / probabilities.sum())
    scale = float(probabilities.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strong = mean_reading(dec, obs, MeterModel(1e-320))
        weak = mean_reading(dec, obs, MeterModel(1e308))
    assert strong == pytest.approx(conditional, abs=1e-12)
    assert weak == pytest.approx(weak_value(dec, obs).reported,
                                 abs=1e-12 * scale / abs(dec.total_amplitude) ** 2)


def test_class_kernel_memory_is_linear_in_distinct_classes():
    # a k x k float array takes 32 MB at k = 2048, and an X x k one 8 MB at X = 512
    space, dec, rng = random_transition(2048, 7)
    obs = DiagonalObservable(space, rng.permutation(2048))
    meter = MeterModel(obs.spread)
    x = np.linspace(-8.0, 2056.0, 512)
    peaks = []
    for call in (lambda: mean_reading(dec, obs, meter),
                 lambda: reading_amplitude(dec, obs, meter, x)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16_000_000
    assert peaks[1] < 8_000_000


def test_class_kernel_memory_is_bounded_by_one_block_pair():
    # a BLOCK_ROWS x k float array takes 4 MB at k = 2048; a 256 x 256 one 0.5 MB
    space, dec, rng = random_transition(2048, 7)
    obs = DiagonalObservable(space, rng.permutation(2048))
    meter = MeterModel(obs.spread)
    tracemalloc.start()
    try:
        mean_reading(dec, obs, meter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("spectrum", ["distinct", "few"])
def test_blocked_mean_reading_matches_grid_oracle(spectrum):
    dec, observables = blocked_spectra()
    obs = observables[spectrum]
    for width in scaled_widths(obs, WIDTH_RATIOS):
        meter = MeterModel(width)
        assert mean_reading(dec, obs, meter) == pytest.approx(
            grid_mean_reading(dec, obs, meter), abs=MEAN_READING_TOL)


def mean_reading_peak(ratio):
    """tracemalloc peak of one mean reading over 2048 distinct classes, in bytes."""
    space, dec, rng = random_transition(2048, 7)
    obs = DiagonalObservable(space, rng.permutation(2048))
    meter = MeterModel(ratio * obs.spread)
    tracemalloc.start()
    try:
        mean_reading(dec, obs, meter)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_class_kernel_memory_is_bounded_by_one_block_pair_for_narrow_meters():
    # a narrow meter keeps the dense blocked kernel
    assert mean_reading_peak(0.1) < 2_000_000


def wide_spectrum(name, k, rng):
    if name == "permutation":
        return rng.permutation(k).astype(float)
    if name == "normal":
        return rng.normal(size=k)
    if name == "clustered":
        return np.concatenate((rng.normal(0.0, 1e-6, size=k // 2),
                               rng.normal(1.0, 1e-6, size=k - k // 2)))
    return 1e12 + rng.permutation(k)


@pytest.mark.parametrize("k", [257, 600, 2048])
@pytest.mark.parametrize("spectrum", ["permutation", "normal", "clustered", "offset"])
def test_wide_meter_matches_blocked_kernel(k, spectrum):
    space, dec, rng = random_transition(k, 13)
    obs = DiagonalObservable(space, wide_spectrum(spectrum, k, rng))
    assert obs.classes.values.size == k > BLOCK_ROWS
    class_amplitudes = PathwayNetwork.of(dec, obs).amplitudes
    # the across-blocks tolerance, for eigenvalues of size up to max |a| instead of 2
    scale = float(np.sum(np.abs(dec.amplitudes) ** 2) * np.abs(obs.eigenvalues).max())
    for width in scaled_widths(obs, (1.0, 1.5, 10.0, 100.0, 1e6)) + (1e308,):
        numerator, denominator = blocked_mean_reading(obs.classes.values, class_amplitudes,
                                                      width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reading = mean_reading(dec, obs, MeterModel(width))
        assert reading == pytest.approx(numerator / denominator,
                                        abs=1e-12 * scale / abs(denominator))


@pytest.mark.parametrize("k, ratio", [(BLOCK_ROWS, 100.0), (600, 0.99)])
def test_dense_kernel_kept_within_one_block_and_for_narrow_meters(k, ratio):
    # the dense kernel to the last bit, so outputs over these classes do not move
    space, dec, rng = random_transition(k, 17)
    obs = DiagonalObservable(space, rng.normal(size=k))
    width = ratio * obs.spread
    numerator, denominator = blocked_mean_reading(
        obs.classes.values, PathwayNetwork.of(dec, obs).amplitudes, width)
    assert mean_reading(dec, obs, MeterModel(width)) == numerator / denominator


@pytest.mark.parametrize("ratio", [1.0, 100.0])
def test_wide_meter_builds_no_kernel_block(ratio):
    # one BLOCK_ROWS x BLOCK_ROWS float block takes 0.5 MB
    assert mean_reading_peak(ratio) < BLOCK_ROWS * BLOCK_ROWS * 8


def test_wide_rank_is_smallest_meeting_the_tail_bound():
    # relative tail of exp(x) after p Taylor terms for |x| <= 1/16
    def tail(p):
        return (1.0 / 16.0) ** p / math.factorial(p) * math.exp(1.0 / 16.0)

    assert tail(WIDE_RANK) < 2.0 ** -60 <= tail(WIDE_RANK - 1)
