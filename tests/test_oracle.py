import tracemalloc

import numpy as np
import pytest

from _invariants import class_values
from qpaths import (DiagonalObservable, KetState, MeterModel, StateSpace,
                    build_network, built_in_library, decompose, grid_mean_reading, hardy,
                    mean_reading, projective_joint, reading_amplitude, scaled_widths,
                    three_box, verification_checks)
from qpaths import meter, oracle
from qpaths.meter import BLOCK_ROWS
from qpaths.oracle import PROJECTIVE_TOL


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


def random_transition(n: int, seed: int) -> tuple[KetState, KetState]:
    rng = np.random.default_rng(seed)
    space = StateSpace.of_dimension(n)
    initial, final = (KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n))
                      for _ in range(2))
    return initial, final


@pytest.mark.parametrize("classes", [2, 2048], ids=["two-classes", "distinct"])
def test_projective_joint_matches_networks_at_large_dimension(classes):
    initial, final = random_transition(2048, classes)
    obs = DiagonalObservable(initial.space, np.arange(2048) % classes)
    net = build_network(initial, final, obs)
    reference = projective_joint(initial, final, obs)
    assert tuple(reference) == class_values(net)
    for ev, prob in reference.items():
        assert abs(net.probability_of(ev) - prob) <= PROJECTIVE_TOL


def test_projective_joint_builds_no_dimension_squared_array():
    # each projector is its eigenvalue's mask; an n x n projector matrix takes 32 MiB here
    initial, final = random_transition(2048, 0)
    obs = DiagonalObservable(initial.space, np.arange(2048) % 2)
    tracemalloc.start()
    try:
        projective_joint(initial, final, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_projective_checks_read_exactly_zero():
    # the mask route makes no BLAS call, so its bits do not depend on the kernel; on
    # the built-in transitions they are the networks' bits
    projective = [c for c in verification_checks() if c.name.startswith("projective ")]
    assert len(projective) == 19
    assert [c.deviation for c in projective] == [0.0] * 19


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


def test_verification_builds_one_network_per_checked_transition(monkeypatch):
    # the projective and mean-reading checks read one network; only the grid
    # refinement decomposes its transition itself
    calls = {"decompose": 0, "build_network": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(oracle, name, call)

    counted("decompose", decompose)
    counted("build_network", build_network)
    assert len(verification_checks()) == 39
    transitions = sum(len(sc.observables) * len(sc.finals) for sc in built_in_library())
    assert calls == {"decompose": 1, "build_network": transitions}


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
