"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints one ``criterion N: PASS`` line on success (visible with
``pytest -s``); under plain ``pytest -v`` the per-test PASSED/FAILED line
carries the same information.
"""

import random

import numpy as np
import pytest

from _invariants import (assert_all_invariants, class_values, emitted,
                         transition_probability)
from qpaths import (MeterModel, PostSelectionImpossible, ScenarioParseError,
                    amplitude_table, build_network, built_in, built_in_library,
                    conditional_reading_distribution, decompose,
                    grid_mean_reading, mean_reading, parse, product_rule_report,
                    projective_joint, scaled_widths, sum_rule_report,
                    validate, weak_value)
from qpaths.cli import amplitudes_table, main, network_table
from qpaths.measurement import certain_reading

HARDY = built_in("hardy")

# path amplitudes for each final state of the pair-interferometer
# scenario, in basis order (1-,1+  1-,2+  2-,1+  2-,2+  gamma)
AMPLITUDE_GRID = {
    "f": (0.25, -0.25, -0.25, 0.0, 0.0),
    "g": (0.25, -0.25, 0.25, 0.0, 0.0),
    "h": (0.25, 0.25, -0.25, 0.0, 0.0),
    "j": (0.25, 0.25, 0.25, 0.0, 0.0),
    "gamma": (0.0, 0.0, 0.0, 0.0, 0.5),
}


def test_criterion_01_amplitude_grid_exact():
    table = amplitude_table(HARDY.initial, HARDY.finals)
    for name, expected in AMPLITUDE_GRID.items():
        column = table[:, list(HARDY.finals).index(name)]
        for k, want in enumerate(expected):
            assert abs(column[k] - want) <= 1e-12, (name, k)
        total = sum(expected)
        assert abs(column.sum() - total) <= 1e-12
        assert abs(transition_probability(HARDY.initial, HARDY.final(name))
                   - abs(total) ** 2) <= 1e-12
    print("criterion 1: PASS — path-amplitude grid exact to 1e-12")


def test_criterion_02_class_probabilities_and_projective_oracle():
    expected = {
        "N(1-|1+)": {1.0: 1 / 16, 0.0: 1 / 4},
        "N(1-|2+)": {1.0: 1 / 16, 0.0: 0.0},
        "N(2-|1+)": {1.0: 1 / 16, 0.0: 0.0},
    }
    final = HARDY.final("f")
    for obs_name, classes in expected.items():
        obs = HARDY.observable(obs_name)
        net = build_network(HARDY.initial, final, obs)
        assert class_values(net) == (1.0, 0.0)
        for ev, want in classes.items():
            assert abs(net.probability_of(ev) - want) <= 1e-12, (obs_name, ev)
        oracle = projective_joint(HARDY.initial, final, obs)
        for ev, want in oracle.items():
            assert abs(net.probability_of(ev) - want) <= 1e-12, (obs_name, ev)
    print("criterion 2: PASS — reading probabilities {1/16, 1/4}, {1/16, 0}, "
          "{1/16, 0} exact to 1e-12 and matched by the projector oracle")


def test_criterion_03_sum_rule():
    report = sum_rule_report(HARDY.initial, HARDY.final("f"),
                             HARDY.observable("N(1-|1+)"),
                             HARDY.observable("N(1-|2+)"))
    assert report.joint_first == 0.0625
    assert report.joint_second == 0.0625
    assert report.joint_combined == 0.0
    assert report.holds_postselected is False
    assert report.all_outcomes_first == 0.25
    assert report.all_outcomes_second == 0.25
    assert report.all_outcomes_combined == 0.5
    assert report.holds_all_outcomes is True
    print("criterion 3: PASS — post-selected sum rule fails exactly "
          "(0 != 1/16 + 1/16); all-outcomes sum rule holds exactly "
          "(1/2 = 1/4 + 1/4)")


def test_criterion_04_product_rule():
    report = product_rule_report(HARDY.initial, HARDY.final("f"),
                                 HARDY.observable("N(2-)"),
                                 HARDY.observable("N(2+)"))
    assert report.certain_first == 1.0
    assert report.certain_second == 1.0
    assert report.certain_product == 0.0
    assert report.holds is False
    print("criterion 4: PASS — both factors certainly read 1, the product "
          "certainly reads 0")


def test_criterion_05_weak_values_and_epsilon_family():
    dec = decompose(HARDY.initial, HARDY.final("f"))
    for obs_name, want in (("N(1-|2+)", 1.0), ("N(2-|1+)", 1.0),
                           ("N(1-|1+)", -1.0)):
        got = weak_value(dec, HARDY.observable(obs_name)).reported
        assert abs(got - want) <= 1e-12, obs_name
    for eps in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        scenario = built_in("hardy-epsilon", epsilon=eps)
        dec = decompose(scenario.initial, scenario.final("f"))
        targets = {
            "N(1-|1+)": -1.0 / eps,
            "N(1-|2+)": 1.0 / eps,
            "N(2-|1+)": 1.0,
            "N(1+)": 1.0 - 1.0 / eps,
            "N(2-)": 1.0,
        }
        for obs_name, want in targets.items():
            got = weak_value(dec, scenario.observable(obs_name)).reported
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (eps, obs_name)
    print("criterion 5: PASS — weak occupations (1, 1) with the -1 anomaly; "
          "the five closed-form epsilon trends hold to 1e-9 relative for "
          "eps in {1e-6, 1e-3, 0.1, 0.5, 1}")


def test_criterion_06_weak_limit_of_inaccurate_meter():
    dec = decompose(HARDY.initial, HARDY.final("f"))
    obs = HARDY.observable("N(1-|1+)")
    widths = scaled_widths(obs, (1.0, 10.0, 100.0))
    errors = []
    for width in widths:
        meter = MeterModel(width)
        closed = mean_reading(dec, obs, meter)
        grid = grid_mean_reading(dec, obs, meter)
        assert abs(closed - grid) <= 1e-6, width
        errors.append(abs(closed - (-1.0)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3
    print("criterion 6: PASS — mean reading converges on the weak value -1 "
          "(monotone over widths 1, 10, 100 spreads; within 1e-3 at 100; "
          "grid integration agrees with the closed form to 1e-6)")


def test_criterion_07_strong_limit_matches_conditional_average():
    checked = 0
    for scenario in built_in_library():
        for final_name, final in scenario.finals.items():
            for obs_name, obs in scenario.observables.items():
                if obs.spread <= 0.0:
                    continue
                net = build_network(scenario.initial, final, obs)
                try:
                    conditional = conditional_reading_distribution(net)
                except PostSelectionImpossible:
                    continue
                target = sum(ev * p for ev, p in conditional.items())
                meter = MeterModel(0.01 * obs.spread)
                got = mean_reading(decompose(scenario.initial, final), obs, meter)
                assert abs(got - target) <= 1e-3, (scenario.name, final_name,
                                                   obs_name)
                checked += 1
    assert checked >= 48  # 3 + 5*8 + 5*8 scenario/final/observable triples
    print(f"criterion 7: PASS — accurate-meter mean matches the conditional "
          f"eigenvalue average to 1e-3 for all {checked} built-in "
          f"scenario/final/observable triples")


def test_criterion_08_three_box_family():
    for beta in (0.1, 0.5, 0.9):
        scenario = built_in("three-box", beta=beta)
        final = scenario.final("f")
        for box in ("P2", "P3"):
            net = build_network(scenario.initial, final, scenario.observable(box))
            assert certain_reading(net) == 1.0, (beta, box)
            assert abs(net.perturbed_probability - beta ** 2) <= 1e-12
        assert abs(transition_probability(scenario.initial, final)
                   - beta ** 2) <= 1e-12
        dec = decompose(scenario.initial, final)
        for box, want in (("P1", -1.0), ("P2", 1.0), ("P3", 1.0)):
            got = weak_value(dec, scenario.observable(box)).reported
            assert abs(got - want) <= 1e-12, (beta, box)
    print("criterion 8: PASS — for beta in {0.1, 0.5, 0.9}: boxes 2 and 3 "
          "each certainly occupied, disturbed and undisturbed transition "
          "probability both beta^2 to 1e-12, weak occupations (-1, 1, 1)")


def test_criterion_09_randomized_invariants():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        assert_all_invariants(rng)
    print("criterion 9: PASS — 1000 randomized scenarios (dimension <= 8) "
          "satisfy partition, completeness, linearity, identity, collapse, "
          "and scale-invariance checks at 1e-10")


def test_criterion_10_scenario_file_fidelity(tmp_path):
    from importlib import resources

    text = (resources.files("qpaths") / "data" / "hardy.scn").read_text()
    from_file = validate(parse(text))
    builtin = built_in("hardy")

    pairs = [(amplitudes_table(from_file), amplitudes_table(builtin))]
    for obs_name in ("N(1-|1+)", "N(1-|2+)", "N(2-|1+)"):
        pairs.append((network_table(from_file, "f", obs_name),
                      network_table(builtin, "f", obs_name)))
    for ours, theirs in pairs:
        assert ours.columns == theirs.columns
        assert ours.rows == theirs.rows
        assert emitted("csv", [ours]).encode() == emitted("csv", [theirs]).encode()

    bad = tmp_path / "bad.scn"
    bad.write_text("dimension = 2\nbasis = a b\nstate i = 1 zz\n")
    code = main(["run", str(bad)])
    assert code == 2
    with pytest.raises(ScenarioParseError) as info:
        parse(bad.read_text())
    assert info.value.line == 3 and info.value.column == 13

    rng = random.Random(20260816)
    alphabet = "abdegimnoqrsty(),=/#.+-01 \n\t"
    for _ in range(300):
        sample = "".join(rng.choice(alphabet)
                         for _ in range(rng.randrange(0, 200)))
        try:
            validate(parse(sample))
        except ScenarioParseError as err:
            assert err.line >= 1 and err.column >= 1
    print("criterion 10: PASS — shipped hardy.scn reproduces the amplitude "
          "grid and reading networks byte-identically; malformed input "
          "always yields positioned diagnostics")
