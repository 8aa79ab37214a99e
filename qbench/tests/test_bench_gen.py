import numpy as np

import gen


def test_scenario_files_repeat_for_a_seed():
    first = [s.text for s in gen.scenario_specs(11)]
    again = [s.text for s in gen.scenario_specs(11)]
    assert first == again
    assert first != [s.text for s in gen.scenario_specs(12)]


def test_meter_cases_repeat_for_a_seed():
    a = gen.meter_cases(3)
    b = gen.meter_cases(3)
    for x, y in zip(a, b):
        assert x.label == y.label
        for field in ("initial", "final", "eigenvalues"):
            assert np.array_equal(getattr(x, field), getattr(y, field))
    assert not np.array_equal(a[0].initial, gen.meter_cases(4)[0].initial)


def test_written_inputs_repeat_byte_for_byte(tmp_path):
    first = gen.write_inputs(5, str(tmp_path / "a"))
    second = gen.write_inputs(5, str(tmp_path / "b"))
    assert list(first) == list(second) == ["near-orthogonal"] + [
        s.name for s in gen.scenario_specs(5)]
    for name in first:
        with open(first[name], "rb") as fa, open(second[name], "rb") as fb:
            assert fa.read() == fb.read()


def test_builtin_commands_repeat_and_the_failing_input_ignores_the_seed():
    assert gen.builtin_commands(gen.builtin_params(2)) == gen.builtin_commands(
        gen.builtin_params(2))
    assert gen.near_orthogonal_spec().text == gen.near_orthogonal_spec().text


def test_random_cases_keep_a_modest_overlap():
    for case in gen.meter_cases(1):
        overlap = abs(np.vdot(case.final, case.initial))
        assert gen.MIN_OVERLAP - 1e-12 <= overlap <= gen.MAX_OVERLAP + 1e-12
    spec = gen.scenario_specs(1)[0]
    for final in spec.finals.values():
        assert abs(np.vdot(final, spec.initial)) >= 0.01


def test_spectra_have_the_promised_class_counts():
    expected = {"projector": lambda n: 2, "8-level": lambda n: 8,
                "permutation": lambda n: n, "normal": lambda n: n}
    for case in gen.meter_cases(1):
        kind = case.label.split()[1]
        assert np.unique(case.eigenvalues).size == expected[kind](case.dimension)
