import math
import operator
import string

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _invariants import (assert_all_invariants, dense_mean_reading,
                         dense_reading_amplitude, emitted, reference_json_emit,
                         reference_tokenize)
from qpaths import (DiagonalObservable, KetState, MeterModel, ScenarioDocument,
                    ScenarioParseError, StateSpace, decompose, expectation,
                    mean_reading, parse, reading_amplitude, serialize,
                    validate, weak_value)
from qpaths.cli import Table
from qpaths.scenario_io import (_REAL_RE, QUERY_KINDS, QueryDirective, _parse_real,
                                _tokenize)
from qpaths.statespace import unit_scaled

finite_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                    allow_infinity=False)


@st.composite
def spaces_with_vectors(draw, count=1, max_dim=8):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    space = StateSpace.of_dimension(n)
    vectors = []
    for _ in range(count):
        vec = draw(st.lists(finite_complex, min_size=n, max_size=n)
                   .filter(lambda v: 0.1 < float(np.linalg.norm(v)) < 1e6))
        vectors.append(np.array(vec))
    return space, vectors


@st.composite
def zero_one_diagonal(draw, space):
    bits = draw(st.lists(st.integers(0, 1), min_size=space.dimension,
                         max_size=space.dimension))
    return DiagonalObservable(space, [float(b) for b in bits])


@given(spaces_with_vectors())
@settings(max_examples=100)
def test_normalize_gives_unit_norm(case):
    space, (u,) = case
    ket = KetState(space, u)
    assert unit_scaled(ket.amplitudes)[1] == pytest.approx(1.0, abs=1e-12)


# norms on both sides of the rescaling threshold, and exact powers of two
declared_norms = (st.sampled_from([1.0, 1 + 1e-13, 1 - 1e-13, 1 + 1e-11, 1 - 1e-11])
                  | st.integers(-500, 500).map(lambda k: math.ldexp(1.0, k)))


@given(spaces_with_vectors(), declared_norms)
@settings(max_examples=200)
@example(case=(StateSpace.of_dimension(2), [np.array([1.0, 1.0])]), norm=1 + 1e-11)
def test_validate_notes_a_state_exactly_when_ket_state_changes_it(case, norm):
    space, (v,) = case
    vec = tuple(complex(z) for z in v / np.linalg.norm(v) * norm)
    doc = ScenarioDocument(None, space.dimension, space.labels, "i", vec, (("f", vec),), (),
                           (QueryDirective("probabilities", ()),))
    sc = validate(doc)
    ket = KetState(space, vec)
    changed = ket.amplitudes.tobytes() != np.array(vec, dtype=complex).tobytes()
    assert any(note.startswith("state 'i' renormalized") for note in sc.notes) == changed
    assert sc.initial.amplitudes.tobytes() == ket.amplitudes.tobytes()
    assert sc.final("f").amplitudes.tobytes() == ket.amplitudes.tobytes()


@given(spaces_with_vectors(count=2))
@settings(max_examples=150)
def test_decomposition_sums_to_inner_product(case):
    space, (u, v) = case
    initial = KetState(space, u, normalize=False)
    final = KetState(space, v, normalize=False)
    dec = decompose(initial, final)
    assert dec.total_amplitude == pytest.approx(np.vdot(final.amplitudes, initial.amplitudes),
                                                abs=1e-10)
    for k in range(space.dimension):
        expected = np.conjugate(final.amplitudes[k]) * initial.amplitudes[k]
        assert dec.amplitudes[k] == pytest.approx(expected, abs=1e-12)


@given(spaces_with_vectors(count=2), st.data())
@settings(max_examples=150)
def test_weak_value_linearity_and_identity(case, data):
    space, (u, v) = case
    initial = KetState(space, u)
    final = KetState(space, v)
    dec = decompose(initial, final)
    assume(abs(dec.total_amplitude) > 0.05)
    first = data.draw(zero_one_diagonal(space))
    second = data.draw(zero_one_diagonal(space))
    w_first = weak_value(dec, first).complex_value
    w_second = weak_value(dec, second).complex_value
    w_sum = weak_value(dec, first + second).complex_value
    assert w_sum == pytest.approx(w_first + w_second, abs=1e-10)
    identity = DiagonalObservable(space, np.ones(space.dimension))
    assert weak_value(dec, identity).complex_value == pytest.approx(1.0, abs=1e-10)


@given(spaces_with_vectors(count=2, max_dim=12), st.data(),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=200)
def test_class_meter_matches_path_level_sums(case, data, ratio):
    space, (u, v) = case
    evs = np.array(data.draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 2.0)),
                                      min_size=space.dimension,
                                      max_size=space.dimension)))
    obs = DiagonalObservable(space, evs)
    dec = decompose(KetState(space, u), KetState(space, v))
    amps = dec.amplitudes
    width = ratio * (obs.spread or 1.0)
    meter = MeterModel(width)

    numerator, denominator = dense_mean_reading(evs, amps, width)
    scale = float(np.sum(np.abs(amps) ** 2))
    if denominator > 1e-9 * scale:
        assert mean_reading(dec, obs, meter) == pytest.approx(
            numerator / denominator, abs=1e-12 * scale / abs(denominator))

    x = np.concatenate([evs, np.linspace(evs.min() - 3 * width, evs.max() + 3 * width, 7)])
    np.testing.assert_allclose(
        reading_amplitude(dec, obs, meter, x), dense_reading_amplitude(evs, amps, width, x),
        rtol=0.0,
        atol=1e-12 * (2 * np.pi * width ** 2) ** -0.25 * float(np.abs(amps).sum()))


@given(spaces_with_vectors(), st.data())
@settings(max_examples=100)
def test_expectation_stays_in_eigenvalue_range(case, data):
    space, (u,) = case
    ket = KetState(space, u)
    obs = data.draw(zero_one_diagonal(space))
    value = expectation(ket, obs)
    assert -1e-12 <= value <= 1.0 + 1e-12


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_parser_never_panics(text):
    try:
        parse(text)
    except ScenarioParseError:
        pass


# quotes, backslashes, control, non-ASCII, astral and surrogate characters
json_text = st.text(st.characters(blacklist_categories=())
                    | st.sampled_from('"\\\x00\x1f\x7f\u2028é'), max_size=12)
json_cells = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70), json_text,
    st.floats(), st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(complex, st.sampled_from([-0.0, float("nan"), float("-inf")]), st.floats()),
    st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.bool_, st.booleans()))


@st.composite
def json_tables(draw):
    # a few fixed names, so that a table repeats a column now and then
    columns = draw(st.lists(st.sampled_from(["path", "f", "re", "é"]) | json_text,
                            max_size=4))
    rows = draw(st.lists(st.tuples(*[json_cells] * len(columns)), max_size=4))
    return Table(title=draw(json_text), columns=tuple(columns), rows=tuple(rows))


@given(json_cells)
@settings(max_examples=500)
def test_json_cell_matches_json_dumps(cell):
    table = Table(title="t", columns=("c",), rows=((cell,),))
    assert emitted("json", [table]) == reference_json_emit([table])


@given(st.lists(json_tables(), max_size=4))
@settings(max_examples=300)
def test_json_tables_match_json_dumps(tables):
    assert emitted("json", tables) == reference_json_emit(tables)


def test_json_layout_edge_cases():
    empty = Table(title="empty", columns=("a", "b"), rows=())
    bare = Table(title="bare", columns=(), rows=((), ()))
    repeated = Table(title="repeated", columns=("x", "y", "x"), rows=((1, 2.5, 3j),))
    for tables in ([], [empty], [bare], [empty, bare, repeated]):
        assert emitted("json", tables) == reference_json_emit(tables)


# nested parentheses, comments, tabs and Unicode whitespace (no-break, em
# and ideographic spaces, the file and next-line separators)
line_text = st.lists(st.sampled_from(["(", ")", "((", "))", " ", "  ", "\t", "#", "a", "1",
                                      ", ", "1/sqrt(2)", "(a b)", "\u00a0", "\u2003",
                                      "\u3000", "\x1c", "\x85", "é"]),
                     max_size=16).map("".join)


@given(line_text | st.text(max_size=40))
@example("state f = (1/sqrt(2), 0.5) (0, 1/sqrt(2))")
@example("observable N((a b) c) = 1 # (")
@example("x(a(b) c")
@example(") ((a b) c) x")
@settings(max_examples=1000)
def test_tokenize_matches_character_walk(raw):
    assert _tokenize(raw) == reference_tokenize(raw)


@given(st.text(st.sampled_from("0123456789.eE+-"), max_size=8)
       | st.sampled_from(["inf", "-inf", "nan", "Infinity", "1_0", " 1", "1 ", "\u0661",
                          "1e999", "-1e999", "-0", "+.5", "5.", "1e+5"]))
@settings(max_examples=500)
def test_parse_real_accepts_exactly_the_grammar_decimals(token):
    if _REAL_RE.fullmatch(token) and np.isfinite(float(token)):
        value = _parse_real(token, 1, 1)
        assert value == float(token)
        assert np.signbit(value) == np.signbit(float(token))
    else:
        with pytest.raises(ScenarioParseError):
            _parse_real(token, 1, 1)


@st.composite
def unsigned_reals(draw):
    """(text, value): a decimal, a small-integer p/q or a small-integer p/sqrt(k)."""
    form = draw(st.sampled_from(["decimal", "rational", "surd"]))
    if form == "decimal":
        x = draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
        return repr(x), x
    p, q = draw(st.integers(0, 999)), draw(st.integers(1, 999))
    return (f"{p}/{q}", p / q) if form == "rational" else (f"{p}/sqrt({q})", p / math.sqrt(q))


signs = st.sampled_from([("", 1.0), ("+", 1.0), ("-", -1.0)])


@st.composite
def state_literals(draw):
    """(text, value) of a state value in one of the forms the README lists."""
    def real():
        (sign, factor), (text, value) = draw(signs), draw(unsigned_reals())
        return sign + text, factor * value

    form = draw(st.sampled_from(["a", "a+bi", "a-bi", "bi", "i", "(re, im)"]))
    if form == "a":
        text, value = real()
        return text, complex(value, 0.0)
    if form in ("a+bi", "a-bi"):
        (a, x), (b, y) = real(), draw(unsigned_reals() | st.just(("", 1.0)))
        sign = form[1]
        return f"{a}{sign}{b}i", complex(x, -y if sign == "-" else y)
    if form == "bi":
        text, value = real()
        return text + "i", complex(0.0, value)
    if form == "i":
        sign, factor = draw(signs)
        return sign + "i", complex(0.0, factor)
    (a, x), (b, y) = real(), real()
    return f"({a}, {b})", complex(x, y)


def bits(z: complex) -> tuple[float, ...]:
    return (z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


@given(state_literals())
@example(("-i", complex(0.0, -1.0)))  # a pure imaginary, so +0.0 real part
@example(("-0.0-0.0i", complex(-0.0, -0.0)))
@example(("-0/7+1/sqrt(2)i", complex(-0.0, 1 / math.sqrt(2))))
@settings(max_examples=500)
def test_every_state_literal_form_parses_to_its_exact_value(literal):
    text, expected = literal
    doc = parse(f"dimension = 1\nbasis = x\nstate i = {text}\nstate f = 1\n"
                "query probabilities\n")
    assert bits(doc.initial[0]) == bits(expected), text


# st.text over explicit alphabets: st.from_regex generated these names
# several times more slowly than parse reads them back
LETTERS = string.ascii_letters
name_token = st.builds(operator.add, st.sampled_from(LETTERS),
                       st.text(LETTERS + string.digits + "._-", max_size=7))
arg_value = st.text(LETTERS + string.digits + "._|+-", min_size=1, max_size=8)
query_key = st.text(string.ascii_lowercase, min_size=1, max_size=6)
document_real = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)
document_complex = st.builds(complex, document_real, document_real)


@st.composite
def documents(draw):
    dimension = draw(st.integers(min_value=1, max_value=5))
    labels = draw(st.lists(name_token, min_size=dimension, max_size=dimension,
                           unique=True))
    state_count = draw(st.integers(min_value=2, max_value=4))
    obs_count = draw(st.integers(min_value=0, max_value=2))
    item_names = draw(st.lists(name_token, min_size=state_count + obs_count,
                               max_size=state_count + obs_count, unique=True))
    vector = st.lists(document_complex, min_size=dimension, max_size=dimension)
    row = st.lists(document_real, min_size=dimension, max_size=dimension)
    states = [(name, tuple(draw(vector))) for name in item_names[:state_count]]
    observables = [(name, tuple(draw(row))) for name in item_names[state_count:]]
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(QUERY_KINDS))
        keys = draw(st.lists(query_key, min_size=0, max_size=3, unique=True))
        arguments = tuple((key, draw(arg_value)) for key in keys)
        queries.append(QueryDirective(kind, arguments))
    return ScenarioDocument(
        name=draw(st.none() | name_token.filter(
            lambda s: s not in ("three-box", "hardy", "hardy-epsilon"))),
        dimension=dimension,
        basis_names=tuple(labels),
        initial_name=states[0][0],
        initial=states[0][1],
        finals=tuple(states[1:]),
        observables=tuple(observables),
        queries=tuple(queries),
    )


@given(documents())
@settings(max_examples=200)
def test_serialize_parse_round_trip(doc):
    assert parse(serialize(doc)) == doc


def test_randomized_scenario_invariants_smoke():
    rng = np.random.default_rng(4821)
    for _ in range(50):
        assert_all_invariants(rng)
