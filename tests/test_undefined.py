"""One rounding rule decides "undefined".

A transition's path sums carry the rounding bound
rho = PathDecomposition.rounding = n eps sum_n |amp(n)|.  The weak value
is undefined when |<f|i>| <= rho; the conditional distribution, the mean
reading and the grid oracle's mean are undefined when their weight is
within what rounding can make of an exact zero (see the meter module
docstring).  Being relative, the rule gives the same answer, and the
same bits, whatever the scale of either state.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths import (DiagonalObservable, KetState, MeterModel, MeterStatisticsUndefined,
                    PathwayNetwork, PostSelectionImpossible, StateSpace,
                    WeakValueUndefined, conditional_reading_distribution, decompose,
                    fourier_basis, mean_reading, three_box, weak_value)
from qpaths.cli import main
from qpaths.oracle import grid_mean_reading
from qpaths.statespace import unit_scaled

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpaths"


def scaled_three_box(scale):
    sc = three_box(0.5)
    final = KetState(sc.space, scale * sc.final("f").amplitudes, normalize=False)
    return decompose(sc.initial, final), sc.observable("P1")


@pytest.mark.parametrize("scale", [1e-155, 1e-200])
def test_scaled_final_keeps_every_statistic_defined(scale):
    reference_dec, obs = scaled_three_box(1.0)
    dec, _ = scaled_three_box(scale)
    meter = MeterModel(100 * obs.spread)
    assert weak_value(dec, obs).reported == -1.0
    assert mean_reading(dec, obs, meter) == pytest.approx(
        mean_reading(reference_dec, obs, meter), abs=1e-15)
    assert grid_mean_reading(dec, obs, meter) == pytest.approx(-0.99992500421840, abs=1e-13)
    dist = conditional_reading_distribution(PathwayNetwork.of(dec, obs))
    assert dist == pytest.approx({1.0: 0.2, 0.0: 0.8}, abs=1e-15)


def test_network_command_prints_the_conditional_of_a_tiny_final(capsys):
    # every joint probability squares to 0.0 here, but the class sums do not
    assert main(["network", "--scenario", "three-box", "--beta", "1e-200",
                 "--final", "f", "--obs", "P1", "--format", "csv"]) == 0
    rows = [line.split(",")[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["0.2", "0.8"]


@pytest.mark.parametrize("k", [1, 3])
def test_class_sums_of_rounding_noise_are_undefined_everywhere(k):
    # every class sum is zero in exact arithmetic; the computed ones are
    # rounding noise of the stored Fourier final, up to 4.8 eps of a class
    space = StateSpace.of_dimension(6)
    dec = decompose(KetState(space, np.ones(6)), fourier_basis(space)[k])
    obs = DiagonalObservable(space, [0, 1, 2, 0, 1, 2])
    assert np.abs(PathwayNetwork.of(dec, obs).amplitudes).max() > 0.0
    with pytest.raises(WeakValueUndefined):
        weak_value(dec, obs)
    with pytest.raises(PostSelectionImpossible):
        conditional_reading_distribution(PathwayNetwork.of(dec, obs))
    for ratio in (0.01, 1.0, 100.0):
        with pytest.raises(MeterStatisticsUndefined):
            mean_reading(dec, obs, MeterModel(ratio * obs.spread))
    with pytest.raises(MeterStatisticsUndefined):
        grid_mean_reading(dec, obs, MeterModel(obs.spread))


def test_near_orthogonal_mean_is_defined_until_the_kernel_rounds_to_one():
    # <f|i> = 0 exactly, so W = (2/9)(1 - K_10): 2.8e-6 at 100 spreads,
    # 2.8e-14 at 1e6, and rounding noise once K_10 = exp(-1/(8 w^2)) is 1.0
    space = StateSpace.of_dimension(3)
    dec = decompose(KetState(space, np.ones(3)), fourier_basis(space)[1])
    obs = DiagonalObservable(space, [1.0, 0.0, 0.0])
    for width in (1.0, 100.0):
        assert abs(mean_reading(dec, obs, MeterModel(width)) - 0.5) <= 1e-9
        assert abs(grid_mean_reading(dec, obs, MeterModel(width)) - 0.5) <= 1e-9
    assert abs(mean_reading(dec, obs, MeterModel(1e6)) - 0.5) <= 1e-2
    for width in (1e8, 1e10):
        with pytest.raises(MeterStatisticsUndefined):
            mean_reading(dec, obs, MeterModel(width))
    with pytest.raises(MeterStatisticsUndefined):
        grid_mean_reading(dec, obs, MeterModel(1e8))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (WeakValueUndefined, PostSelectionImpossible, MeterStatisticsUndefined) as exc:
        return type(exc)


# components at least 1e-3 from zero: scaled by 2**-500 their path amplitudes
# stay normal floats, where a power-of-two scale is exact
component = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1j, -1j, 0.5, 2.0, 1 + 1j]),
    st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3))


@st.composite
def scaled_transitions(draw):
    n = draw(st.integers(2, 5))
    space = StateSpace.of_dimension(n)
    states = []
    for _ in range(2):
        vec = draw(st.lists(component, min_size=n, max_size=n).filter(any))
        states.append(KetState(space, vec).amplitudes)
    evs = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5]), min_size=n, max_size=n))
    which = draw(st.integers(0, 1))
    k = draw(st.integers(-500, 500))
    return space, states, DiagonalObservable(space, evs), which, k


@given(scaled_transitions())
@settings(max_examples=60, deadline=None)
def test_scaling_either_state_by_a_power_of_two_changes_no_bit(case):
    space, states, obs, which, k = case
    plain = decompose(*(KetState(space, s, normalize=False) for s in states))
    states[which] = states[which] * 2.0 ** k
    scaled = decompose(*(KetState(space, s, normalize=False) for s in states))
    spread = obs.spread or 1.0
    assert _outcome(weak_value, plain, obs) == _outcome(weak_value, scaled, obs)
    assert (_outcome(conditional_reading_distribution, PathwayNetwork.of(plain, obs))
            == _outcome(conditional_reading_distribution, PathwayNetwork.of(scaled, obs)))
    for ratio in (0.01, 1.0, 100.0):
        meter = MeterModel(ratio * spread)
        assert (_outcome(mean_reading, plain, obs, meter)
                == _outcome(mean_reading, scaled, obs, meter))
    meter = MeterModel(spread)
    assert (_outcome(grid_mean_reading, plain, obs, meter)
            == _outcome(grid_mean_reading, scaled, obs, meter))


@pytest.mark.filterwarnings("error")
def test_tiny_states_are_states():
    space = StateSpace.of_dimension(2)
    direction = KetState(space, [1.0, 3.0])
    for scale in (1e-13, 1e-300, 5e-320 / 3):
        ket = KetState(space, [scale, 3 * scale])
        assert np.allclose(ket.amplitudes, direction.amplitudes, rtol=1e-3, atol=0.0)
    values = np.array([5e-320, 0.0], dtype=complex)
    assert unit_scaled(values)[0].tolist() == [1.0, 0.0]


def test_no_float_literal_hides_an_absolute_zero_test():
    # "zero" is decided relative to a rounding bound, never by a tiny constant
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    and 0.0 < abs(node.value) < 1e-100):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
