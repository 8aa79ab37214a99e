import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from _invariants import (banded_mean_reading, basis_ket, blocked_mean_reading,
                         blocked_reading_amplitude, dense_mean_reading,
                         dense_reading_amplitude, fourier_family)
from qpaths import (DiagonalObservable, KetState, MeterModel,
                    MeterStatisticsUndefined, StateSpace, WeakValueUndefined,
                    build_network, conditional_reading_distribution, decompose,
                    epsilon_grid, grid_mean_reading, hardy,
                    hardy_epsilon, mean_reading, reading_amplitude, scaled_widths,
                    three_box, weak_limit_convergence, weak_value)
from qpaths.measurement import PathwayNetwork
from qpaths.meter import (BAND_COLUMNS, BLOCK_ROWS, CUTOFF, MAX_RANK, ROW_BLOCK,
                          SCALE_WIDTHS, _band, _blocked_rows, _difference_factors,
                          taylor_rank)
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


def test_width_rule_reads_the_float_value():
    # an int past the float range is not a width, for the meter as for scaled_widths
    obs = DiagonalObservable(StateSpace.of_dimension(2), (1.0, 0.0))
    with pytest.raises(ValueError, match="positive finite"):
        MeterModel(10 ** 400)
    with pytest.raises(ValueError, match="outside the float range"):
        scaled_widths(obs, [10 ** 400])
    assert MeterModel(1).pointer_amplitude(0.0) == MeterModel(1.0).pointer_amplitude(0.0)
    assert scaled_widths(obs, [1]) == (1.0,)


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
    dec = decompose(basis_ket(space, "a"), basis_ket(space, "b"))
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


@pytest.mark.parametrize("obs_name, closed_form", [
    ("N(1-|1+)", lambda eps: -1.0 / eps),
    ("N(1+)", lambda eps: 1.0 - 1.0 / eps),
])
def test_hardy_epsilon_weak_values_keep_path_level_accuracy(obs_name, closed_form):
    # the ratio of path sums is good to about 2e-16 here; the class form
    # sum_a a A_a / sum_a A_a is equal in exact arithmetic, but its error
    # reaches 7.5e-11 relative at epsilon = 1e-6, where |<f|i>| is tiny
    for eps in epsilon_grid(1e-6, 1.0, 13):
        sc = hardy_epsilon(eps)
        dec = decompose(sc.initial, sc.final("f"))
        expected = closed_form(eps)
        got = weak_value(dec, sc.observable(obs_name)).reported
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), eps


def test_weak_value_is_complex_in_general():
    space = StateSpace(("a", "b"))
    dec = decompose(KetState(space, [1.0, 1j]), KetState(space, [1.0, 1.0]))
    result = weak_value(dec, DiagonalObservable(space, [1.0, 0.0]))
    assert result.complex_value == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert result.reported == pytest.approx(0.5, abs=1e-12)


def test_weak_value_undefined_for_orthogonal_selection():
    space = StateSpace(("a", "b"))
    dec = decompose(basis_ket(space, "a"), basis_ket(space, "b"))
    with pytest.raises(WeakValueUndefined):
        weak_value(dec, DiagonalObservable(space, [1.0, 0.0]))


def test_weak_value_undefined_when_total_is_rounding_noise():
    # |<f|i>| is 1.6e-16 against sum |amp| = 1: below the n eps sum |amp|
    # rounding bound of the path sum, so its phase and size are noise
    space = StateSpace.of_dimension(3)
    dec = decompose(KetState(space, [1.0, 1.0, 1.0]), fourier_family(space)[1])
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


@pytest.mark.parametrize("eigenvalues, ratio, message", [
    ((2.0, 2.0), 1.0, "observable has zero eigenvalue spread; meter widths have no scale"),
    ((1e308, -1e308), 1.0,
     "observable's eigenvalue spread exceeds the largest float; meter widths have no scale"),
    ((1e307, 0.0), 100.0,
     "width 100 times the eigenvalue spread 1e+307 is outside the float range"),
    ((1e-300, 0.0), 1e-300,
     "width 1e-300 times the eigenvalue spread 1e-300 is outside the float range"),
], ids=["zero-spread", "spread-overflows", "width-overflows", "width-underflows"])
def test_scaled_widths_returns_only_widths_in_the_float_range(eigenvalues, ratio, message):
    obs = DiagonalObservable(StateSpace.of_dimension(2), eigenvalues)
    with pytest.raises(ValueError) as err:
        scaled_widths(obs, (0.5, ratio))
    assert str(err.value) == message


def test_scaled_widths_round_each_width_once():
    obs = DiagonalObservable(StateSpace.of_dimension(3), (0.3, 0.0, -1.1))
    ratios = (1e-3, 1 / 3, 0.7, 100.0)
    assert scaled_widths(obs, ratios) == tuple(r * obs.spread for r in ratios)


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
    # three blocks of distinct values, and within one block a two-class projector and
    # 64 distinct values
    dec, observables = blocked_spectra()
    space, one_block_dec, rng = random_transition(64, 71)
    cases = [(dec, observables["distinct"]),
             (one_block_dec, DiagonalObservable(space, np.arange(64) % 2)),
             (one_block_dec, DiagonalObservable(space, rng.normal(size=64)))]
    for dec, obs in cases:
        probabilities = np.abs(PathwayNetwork.of(dec, obs).amplitudes) ** 2
        conditional = float(obs.classes.values @ probabilities / probabilities.sum())
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
    # 0.1 spreads takes the factored kernel (p = 43); 0.01 spreads keeps the dense
    # band, whose kernel blocks share one 0.5 MB buffer, where a BLOCK_ROWS x k
    # array would take 4 MB
    assert taylor_rank(1 / (16 * 0.1 ** 2)) == 43 and taylor_rank(1 / (16 * 0.01 ** 2)) > MAX_RANK
    assert mean_reading_peak(0.1) < 2_000_000
    assert mean_reading_peak(0.01) < 2_000_000


def wide_spectrum(name, k, rng):
    if name == "permutation":
        return rng.permutation(k).astype(float)
    if name == "normal":
        return rng.normal(size=k)
    if name == "clustered":
        return np.concatenate((rng.normal(0.0, 1e-6, size=k // 2),
                               rng.normal(1.0, 1e-6, size=k - k // 2)))
    return 1e12 + rng.permutation(k)


# narrow meters on either side of MAX_RANK, and wide ones
SWEEP_RATIOS = (0.01, 0.03, 0.1, 0.3, 0.99, 1.0, 1.5, 10.0, 100.0, 1e6)


@pytest.mark.parametrize("k", [257, 600, 2048])
@pytest.mark.parametrize("spectrum", ["permutation", "normal", "clustered", "offset"])
def test_wide_meter_matches_blocked_kernel(k, spectrum):
    space, dec, rng = random_transition(k, 13)
    obs = DiagonalObservable(space, wide_spectrum(spectrum, k, rng))
    assert obs.classes.values.size == k > BLOCK_ROWS
    class_amplitudes = PathwayNetwork.of(dec, obs).amplitudes
    # the across-blocks tolerance, for eigenvalues of size up to max |a| instead of 2
    scale = float(np.sum(np.abs(dec.amplitudes) ** 2) * np.abs(obs.eigenvalues).max())
    for width in scaled_widths(obs, SWEEP_RATIOS) + (1e308,):
        numerator, denominator = blocked_mean_reading(obs.classes.values, class_amplitudes,
                                                      width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reading = mean_reading(dec, obs, MeterModel(width))
        assert reading == pytest.approx(numerator / denominator,
                                        abs=1e-12 * scale / abs(denominator))


@pytest.mark.parametrize("k", [257, 600, 2048])
@pytest.mark.parametrize("spectrum", ["permutation", "normal", "clustered", "offset"])
def test_factored_pointer_sum_matches_dense_sum(k, spectrum):
    space, dec, rng = random_transition(k, 19)
    obs = DiagonalObservable(space, wide_spectrum(spectrum, k, rng))
    assert obs.classes.values.size == k > BLOCK_ROWS
    evs, amps = obs.eigenvalues, dec.amplitudes
    for width in scaled_widths(obs, SWEEP_RATIOS):
        # every shifted packet out to eight widths, as the benchmark's pointer grid
        x = np.linspace(evs.min() - 8 * width, evs.max() + 8 * width, 512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = reading_amplitude(dec, obs, MeterModel(width), x)
        np.testing.assert_allclose(
            psi, dense_reading_amplitude(evs, amps, width, x), rtol=0.0,
            atol=1e-12 * (2 * np.pi * width ** 2) ** -0.25 * float(np.abs(amps).sum()))


def test_factored_pointer_sum_reads_zero_only_past_the_cutoff():
    # targets out to 40 widths: past the cutoff every pointer term is below 2^-60
    space, dec, rng = random_transition(600, 23)
    obs = DiagonalObservable(space, rng.normal(size=600))
    width = obs.spread
    x = np.linspace(obs.eigenvalues.min() - 40 * width, obs.eigenvalues.max() + 40 * width,
                    801)
    psi = reading_amplitude(dec, obs, MeterModel(width), x)
    dense = dense_reading_amplitude(obs.eigenvalues, dec.amplitudes, width, x)
    peak = (2 * np.pi * width ** 2) ** -0.25 * float(np.abs(dec.amplitudes).sum())
    np.testing.assert_allclose(psi, dense, rtol=0.0, atol=1e-12 * peak)
    assert np.all(np.abs(dense[psi == 0]) <= 2.0 ** -60 * peak)
    assert 0 < np.count_nonzero(psi == 0) < x.size


@pytest.mark.parametrize("k, ratio", [(BLOCK_ROWS, 100.0), (600, 0.01), (2048, 0.01)])
def test_dense_kernel_kept_within_one_block_and_for_narrow_meters(k, ratio):
    # the dense kernel to the last bit: over one block all of K, past it the band's
    # windows in their order; at k = 2048 some window is cut into column chunks
    space, dec, rng = random_transition(k, 17)
    obs = DiagonalObservable(space, rng.normal(size=k))
    width = ratio * obs.spread
    reference = blocked_mean_reading if k <= BLOCK_ROWS else banded_mean_reading
    numerator, denominator = reference(
        obs.classes.values, PathwayNetwork.of(dec, obs).amplitudes, width)
    assert mean_reading(dec, obs, MeterModel(width)) == numerator / denominator
    if k == 2048:
        assert any(columns.start > block.start for block, columns in
                   _band(obs.classes.values, width))


# one block of classes, from a single one to a full block
ONE_BLOCK_SIZES = (1, 2, 8, 64, BLOCK_ROWS)
ONE_BLOCK_RATIOS = (1e-3, 0.01, 1.0, 100.0)


def one_block_widths(obs):
    """The four widths in spreads; one class has no spread, so the same numbers as widths."""
    return ONE_BLOCK_RATIOS if obs.spread == 0.0 else scaled_widths(obs, ONE_BLOCK_RATIOS)


@pytest.mark.parametrize("k", ONE_BLOCK_SIZES)
def test_one_block_mean_reading_is_the_blocked_kernel_bit_for_bit(k):
    for seed in (43, 47, 53):
        space, dec, rng = random_transition(k, seed)
        obs = DiagonalObservable(space, rng.normal(size=k))
        assert obs.classes.values.size == k <= BLOCK_ROWS
        amplitudes = PathwayNetwork.of(dec, obs).amplitudes
        for width in one_block_widths(obs):
            numerator, denominator = blocked_mean_reading(obs.classes.values, amplitudes,
                                                          width)
            assert mean_reading(dec, obs, MeterModel(width)) == numerator / denominator


@pytest.mark.parametrize("k", ONE_BLOCK_SIZES)
def test_one_block_reading_amplitude_is_the_blocked_sum_bit_for_bit(k):
    for seed in (59, 61, 67):
        space, dec, rng = random_transition(k, seed)
        obs = DiagonalObservable(space, rng.normal(size=k))
        values = obs.classes.values
        amplitudes = PathwayNetwork.of(dec, obs).amplitudes
        for width in one_block_widths(obs):
            meter = MeterModel(width)
            # every shifted packet out to eight widths, and one scalar position
            x = np.linspace(values[-1] - 8 * width, values[0] + 8 * width, 97)
            assert np.array_equal(reading_amplitude(dec, obs, meter, x),
                                  blocked_reading_amplitude(values, amplitudes, width, x))
            point = float(rng.choice(values)) + 0.5 * width
            assert reading_amplitude(dec, obs, meter, point) == complex(
                blocked_reading_amplitude(values, amplitudes, width, np.asarray(point)))


@pytest.mark.parametrize("ratio", [1.0, 100.0])
def test_wide_meter_builds_no_kernel_block(ratio):
    # one BLOCK_ROWS x BLOCK_ROWS float block takes 0.5 MB
    assert mean_reading_peak(ratio) < BLOCK_ROWS * BLOCK_ROWS * 8


@pytest.mark.parametrize("x", [0.0, 2.0 ** -20, 0.03, 1 / 16, 0.0625000001, 0.5, 1.0, 2.125,
                               6.25, 12.0, 12.75, 13.0, 625.0, 1e300])
def test_taylor_rank_is_smallest_meeting_the_tail_bound(x):
    # the dropped tail of the factored kernel after p terms, x^p/p!, taken at x >= 1/16
    bound = max(Fraction(x), Fraction(1, 16))

    def tail(p):
        return bound ** p / math.factorial(p)

    # MAX_RANK + 1 stands for every rank past MAX_RANK
    smallest = next((p for p in range(1, MAX_RANK + 1) if tail(p) < Fraction(1, 2 ** 60)),
                    MAX_RANK + 1)
    assert taylor_rank(x) == smallest


def test_every_wide_meter_keeps_ten_taylor_terms():
    # a meter at least as wide as the spectrum has x <= 1/16
    assert {taylor_rank(r * r / 16.0) for r in (1.0, 0.5, 1e-3, 1e-200, 0.0)} == {10}
    assert taylor_rank(1.0 / 16.0) == 10


def reach(width):
    """Distance past which every dense kernel entry exp(-((a - b)/w)^2/8) is below 2^-60."""
    return math.sqrt(8.0) * CUTOFF * width


@pytest.mark.parametrize("spectrum", ["permutation", "normal", "clustered", "offset"])
def test_entries_outside_the_band_are_below_the_cutoff(spectrum):
    rng = np.random.default_rng(29)
    values = np.sort(wide_spectrum(spectrum, 2048, rng))[::-1]
    short = 0
    for ratio in 10.0 ** rng.uniform(-4.0, -1.0, size=6):
        width = ratio * (values[0] - values[-1])
        # how often K_ab enters row a as _blocked_rows sums it: for a in the row block,
        # and again, transposed, for a in a column past the block
        uses = np.zeros((values.size, values.size), dtype=np.int8)
        for block, columns in _band(values, width):
            assert block.stop - block.start <= ROW_BLOCK
            assert 0 < columns.stop - columns.start <= BAND_COLUMNS
            uses[block, columns] += 1
            uses[max(columns.start, block.stop):columns.stop, block] += 1
            short += columns.stop < values.size
        assert uses.max() == 1
        outside = np.subtract.outer(values, values)[uses == 0]
        assert np.exp(-(outside / width) ** 2 / 8).max(initial=0.0) < 2.0 ** -60
    # some window stops short of the last class
    assert short > 0


def test_clusters_beyond_the_reach_keep_their_own_rows_bit_for_bit():
    # two block-aligned clusters 20 to 30 widths apart, just past the reach of about 18,
    # where the cross entries are below 2^-60 but not 0; the upper cluster's small class
    # sums would show them in their rows
    rng = np.random.default_rng(31)
    upper = np.sort(rng.uniform(20.0, 25.0, size=2 * BLOCK_ROWS))[::-1]
    lower = np.sort(rng.uniform(-5.0, 0.0, size=BLOCK_ROWS + 88))[::-1]
    values = np.concatenate((upper, lower))
    parts = rng.normal(size=(values.size, 2))
    parts[:upper.size] *= 1e-8
    width = 1.0
    assert upper[-1] - lower[0] > reach(width)
    rows = _blocked_rows(values, parts, width)
    assert np.array_equal(rows[:upper.size], _blocked_rows(upper, parts[:upper.size], width))
    assert np.array_equal(rows[upper.size:], _blocked_rows(lower, parts[upper.size:], width))


@pytest.mark.parametrize("spectrum", ["permutation", "normal"])
def test_narrow_mean_reading_matches_the_kernel_without_skips(spectrum):
    for k in (600, 2048):
        space, dec, rng = random_transition(k, 37)
        obs = DiagonalObservable(space, wide_spectrum(spectrum, k, rng))
        values = obs.classes.values
        width = 0.01 * obs.spread
        # the first row block's window stops short of the last class
        assert values[ROW_BLOCK - 1] - values[-1] > reach(width)
        amplitudes = PathwayNetwork.of(dec, obs).amplitudes
        numerator, denominator = blocked_mean_reading(values, amplitudes, width)
        expected = numerator / denominator
        # the module docstring's bound: W, and the numerator (its terms weighted by
        # |a| <= max |a|), within 6 k eps S^2, the 2^-60 S^2 outside the windows included
        bound = 6 * values.size * np.finfo(float).eps * float(np.abs(amplitudes).sum()) ** 2
        tolerance = bound * (float(np.abs(values).max()) + abs(expected)) / abs(denominator)
        assert abs(mean_reading(dec, obs, MeterModel(width)) - expected) <= tolerance


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_band_differences_are_np_subtract_outer_bit_for_bit(zero):
    # classes as the band meets them, one zero of either sign ((-0.0) - (+0.0) would read
    # +0.0, but the two zeros are one class): subnormals, pairs whose difference overflows
    # to +-inf, near-equal values and a large offset
    rng = np.random.default_rng(43)
    specials = [1.5e308, 1e308, 1.0, 1e-300, 2.5e-310, 5e-324, zero, -5e-324, -1e-310,
                -1e308, -1.5e308]
    near = 1.0 + np.arange(1, 300) * 2.0 ** -52
    values = np.concatenate((specials, near, 1e12 + rng.permutation(600)))
    values = values[np.argsort(-values, kind="stable")]
    left, right = _difference_factors(values)
    buffer = np.empty(BLOCK_ROWS * BLOCK_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in range(0, values.size, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            for first in range(0, values.size, BAND_COLUMNS):
                columns = slice(first, first + BAND_COLUMNS)
                rows, cols = values[block].size, values[columns].size
                buffer.fill(np.nan)
                differences = buffer[:rows * cols].reshape(rows, cols)
                with np.errstate(over="ignore"):
                    np.matmul(left[block], right[:, columns], out=differences)
                    expected = np.subtract.outer(values[block], values[columns])
                assert np.array_equal(differences.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("width", [1e-307, SCALE_WIDTHS[0], SCALE_WIDTHS[1], 2.0 ** 510, 1e303])
def test_band_at_and_past_the_scale_widths_matches_the_kernel_without_skips(width):
    # a spectrum of about 100 widths, so the dense band runs: at each end of the widths
    # whose exponent is (a - b)^2 (-1/(8 w^2)), just past the upper end, where (a - b)^2
    # overflows within the reach, and far past both ends, near 1e-305 and 1e305
    space, dec, rng = random_transition(600, 47)
    spectrum = rng.normal(size=600)
    obs = DiagonalObservable(space, spectrum * (100.0 * width / np.ptp(spectrum)))
    values = obs.classes.values
    assert taylor_rank((obs.spread / width) ** 2 / 16.0) > MAX_RANK
    assert values[ROW_BLOCK - 1] - values[-1] > reach(width)
    amplitudes = PathwayNetwork.of(dec, obs).amplitudes
    numerator, denominator = blocked_mean_reading(values, amplitudes, width)
    expected = numerator / denominator
    # the bound of test_narrow_mean_reading_matches_the_kernel_without_skips
    bound = 6 * values.size * np.finfo(float).eps * float(np.abs(amplitudes).sum()) ** 2
    tolerance = bound * (float(np.abs(values).max()) + abs(expected)) / abs(denominator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reading = mean_reading(dec, obs, MeterModel(width))
    assert abs(reading - expected) <= tolerance


def test_narrow_meter_over_the_whole_float_range_raises_no_warning():
    # the classes span 2e308, past the largest float
    space, dec, _ = random_transition(600, 41)
    steps = np.arange(300) * 1e300
    obs = DiagonalObservable(space, np.concatenate((1e308 - steps, steps - 1e308)))
    probabilities = np.abs(dec.amplitudes) ** 2
    conditional = float(obs.eigenvalues / 1e308 @ probabilities / probabilities.sum()) * 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reading = mean_reading(dec, obs, MeterModel(1.0))
    assert reading == pytest.approx(conditional, rel=1e-12)


@pytest.mark.parametrize("k", [2, 600])
def test_pointer_far_past_every_class_reads_zero_without_a_warning(k):
    # x - a passes the largest float at x = 1.5e308 for a = -1e308; k = 600 spans the
    # float range, so no factored kernel fits and the block loop runs
    space, dec, _ = random_transition(k, 37)
    steps = np.arange(k // 2) * 1e300
    obs = DiagonalObservable(space, np.concatenate((1e308 - steps, steps - 1e308)))
    assert obs.classes.values.size == k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1.5e308, 0.0):
            assert reading_amplitude(dec, obs, MeterModel(1.0), x) == 0.0
        assert np.array_equal(reading_amplitude(dec, obs, MeterModel(1.0), [1.5e308, 0.0]),
                              np.zeros(2))
