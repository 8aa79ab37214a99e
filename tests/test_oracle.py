import numpy as np
import pytest

from _invariants import class_values
from qpaths import (DiagonalObservable, KetState, MeterModel, StateSpace,
                    build_network, decompose, grid_mean_reading, hardy, mean_reading,
                    projective_joint, reading_amplitude, scaled_widths, three_box,
                    verification_checks)
from qpaths import meter
from qpaths.meter import BLOCK_ROWS


def test_projective_joint_matches_networks_everywhere():
    for sc in (hardy(), three_box(0.7)):
        for obs in sc.observables.values():
            for fin in sc.finals.values():
                net = build_network(sc.initial, fin, obs)
                reference = projective_joint(sc.initial, fin, obs)
                assert set(reference) == set(class_values(net))
                for ev, prob in reference.items():
                    assert net.probability_of(ev) == pytest.approx(prob, abs=1e-12)


def test_projective_joint_exact_hardy_values():
    sc = hardy()
    joint = projective_joint(sc.initial, sc.final("f"), sc.observable("N(1-|1+)"))
    assert joint == {1.0: 0.0625, 0.0: 0.25}


def test_grid_requires_enough_points():
    sc = hardy()
    dec = decompose(sc.initial, sc.final("f"))
    obs = sc.observable("N(1-|1+)")
    meter = MeterModel(2.0)
    with pytest.raises(ValueError):
        grid_mean_reading(dec, obs, meter, 128)
    assert grid_mean_reading(dec, obs, meter, 4096) == \
        pytest.approx(mean_reading(dec, obs, meter), abs=1e-6)


def test_grid_agrees_with_closed_form():
    sc = hardy()
    dec = decompose(sc.initial, sc.final("f"))
    obs = sc.observable("N(1-|1+)")
    for width in scaled_widths(obs, (0.01, 1.0, 100.0)):
        meter = MeterModel(width)
        assert grid_mean_reading(dec, obs, meter) == \
            pytest.approx(mean_reading(dec, obs, meter), abs=1e-6)


def test_verification_checks_all_pass():
    checks = verification_checks()
    assert len(checks) == 39
    for check in checks:
        assert check.passed, (check.name, check.deviation, check.tolerance)
    names = [c.name for c in checks]
    assert any(name.startswith("projective three-box") for name in names)
    assert any(name.startswith("mean-reading hardy-epsilon") for name in names)
    assert names[-1] == "grid-refinement hardy"


def test_verification_never_reaches_the_factored_kernel(monkeypatch):
    # the grid oracle checks the closed form with its own dense pointer sum
    def refuse(*args):
        raise AssertionError("factored kernel reached")

    monkeypatch.setattr(meter, "_taylor_factors", refuse)
    checks = verification_checks()
    assert checks and all(check.passed for check in checks)
    space = StateSpace.of_dimension(BLOCK_ROWS + 1)
    evs = np.arange(BLOCK_ROWS + 1.0)
    dec = decompose(KetState(space, np.ones(BLOCK_ROWS + 1)), KetState(space, evs + 1.0))
    with pytest.raises(AssertionError, match="factored kernel reached"):
        reading_amplitude(dec, DiagonalObservable(space, evs), MeterModel(evs[-1]), 0.0)
