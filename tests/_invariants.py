"""Randomized-scenario invariant checks and the references (path-level meter sums,
the blocked and banded class kernels and the blocked pointer sum, the json.dumps
emitter, the character-loop tokenizer) shared by the suites."""

from __future__ import annotations

import io
import json
import math
from itertools import combinations_with_replacement

import numpy as np

from qpaths import (DiagonalObservable, KetState, StateSpace, build_network,
                    conditional_reading_distribution, decompose, expectation,
                    weak_value)
from qpaths.cli import _real_text, emit
from qpaths.meter import BAND_COLUMNS, BLOCK_ROWS, ROW_BLOCK, SCALE_WIDTHS

TOL = 1e-10

# random transitions with a tiny total amplitude make weak values
# ill-conditioned in floating point without being wrong; the suite
# conditions on a modest overlap so roundoff stays far below TOL
MIN_OVERLAP = 0.05


def dense_mean_reading(evs, amps, width):
    """Path-level reference: (numerator, denominator) of <x> over n x n path pairs."""
    cross = np.real(np.outer(amps, np.conjugate(amps)))
    diff = evs[:, None] - evs[None, :]
    weighted = cross * np.exp(-diff ** 2 / (8.0 * width ** 2))
    centers = 0.5 * (evs[:, None] + evs[None, :])
    return float((centers * weighted).sum()), float(weighted.sum())


def blocked_mean_reading(values, class_amplitudes, width):
    """Class-level reference: (numerator, denominator) of <x> from the dense overlap
    kernel over every pair of class blocks, those past the kernel's reach that
    meter.mean_reading leaves out included; over one block, its kernel."""
    parts = np.stack((class_amplitudes.real, class_amplitudes.imag), axis=1)
    rows = np.zeros(values.size)
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, values.size, BLOCK_ROWS)]
    for block, other in combinations_with_replacement(blocks, 2):
        with np.errstate(over="ignore"):
            kernel = np.subtract.outer(values[block], values[other])
            kernel /= width
            np.square(kernel, out=kernel)
        kernel *= -1.0 / 8.0
        np.exp(kernel, out=kernel)
        rows[block] += ((kernel @ parts[other]) * parts[block]).sum(axis=1)
        if other != block:
            rows[other] += ((kernel.T @ parts[block]) * parts[other]).sum(axis=1)
    return float(values @ rows), float(rows.sum())


def banded_mean_reading(values, class_amplitudes, width):
    """Class-level reference: (numerator, denominator) of <x> from the dense overlap
    kernel over the band meter.mean_reading builds for narrow meters past one block,
    summed in its order: each block of ROW_BLOCK rows against the columns from its first
    class to the last within w sqrt(480 ln 2) of its smallest eigenvalue (past that
    distance every entry is below 2^-60), BAND_COLUMNS columns at a time, and each entry
    again for the row of its column when that column lies past the block.  The exponent is
    (a - b)^2 (-1/(8 w^2)) for widths in SCALE_WIDTHS, else ((a - b)/w)^2 (-1/8)."""
    parts = np.stack((class_amplitudes.real, class_amplitudes.imag), axis=1)
    rows = np.zeros(values.size)
    reach = width * math.sqrt(480.0 * math.log(2.0))
    for start in range(0, values.size, ROW_BLOCK):
        end = min(start + ROW_BLOCK, values.size)
        # eigenvalues descend; those below the block's smallest less the reach are last
        beyond = np.searchsorted(np.sort(values), float(values[end - 1]) - reach)
        for first in range(start, values.size - beyond, BAND_COLUMNS):
            last = min(first + BAND_COLUMNS, values.size - beyond)
            with np.errstate(over="ignore"):
                kernel = np.subtract.outer(values[start:end], values[first:last])
                if SCALE_WIDTHS[0] <= width <= SCALE_WIDTHS[1]:
                    np.square(kernel, out=kernel)
                    kernel *= -1.0 / 8.0 / (width * width)
                else:
                    kernel /= width
                    np.square(kernel, out=kernel)
                    kernel *= -1.0 / 8.0
            np.exp(kernel, out=kernel)
            rows[start:end] += ((kernel @ parts[first:last]) * parts[start:end]).sum(axis=1)
            past = max(first, end)
            if past < last:
                rows[past:last] += ((kernel[:, past - first:].T @ parts[start:end])
                                    * parts[past:last]).sum(axis=1)
    return float(values @ rows), float(rows.sum())


def blocked_reading_amplitude(values, class_amplitudes, width, x):
    """Class-level reference: sum_a G(x - a) A_a at every point of x, summed one block
    of classes at a time into a zeroed array, with G computed in the same steps as
    MeterModel.pointer_amplitude.  meter.reading_amplitude sums the same blocks from
    the first block's product wherever the factored kernel does not run, so the two
    agree to the bit but for the sign of a zero."""
    parts = np.stack((class_amplitudes.real, class_amplitudes.imag), axis=1)
    sums = np.zeros(x.shape + (2,))
    for start in range(0, values.size, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        with np.errstate(over="ignore"):
            pointer = (x[..., np.newaxis] - values[block]) / width
            np.square(pointer, out=pointer)
        pointer *= -0.25
        np.exp(pointer, out=pointer)
        pointer *= (2.0 * np.pi) ** -0.25 * width ** -0.5
        sums += pointer @ parts[block]
    return sums.view(complex)[..., 0]


def dense_reading_amplitude(evs, amps, width, x):
    """Path-level reference: sum_n G(x - F(n)) amp(n) at every point of x."""
    pointer = (2 * np.pi * width ** 2) ** -0.25 * np.exp(
        -(x[:, None] - evs[None, :]) ** 2 / (4 * width ** 2))
    return pointer @ amps


def scaled(state: KetState, factor: complex) -> KetState:
    """The state times a constant, left unnormalized."""
    return KetState(state.space, state.amplitudes * factor, normalize=False)


def basis_ket(space: StateSpace, which: int | str) -> KetState:
    """Unit ket along one basis direction, given by index or label; entries exact."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[which if isinstance(which, int) else space.labels.index(which)] = 1.0
    return KetState(space, amps, normalize=False)


def fourier_family(space: StateSpace) -> tuple[KetState, ...]:
    """Discrete-Fourier vectors z_k[n] = exp(-2 pi i k n/N)/sqrt(N): a complete
    orthonormal family of finals with no zero component, so every path
    contributes to every member."""
    n = space.dimension
    grid = np.arange(n)
    return tuple(KetState(space, np.exp(-2j * np.pi * k * grid / n) / np.sqrt(n),
                          normalize=False)
                 for k in range(n))


def class_values(network) -> tuple[float, ...]:
    """The eigenvalues of a pathway network's classes, in class order."""
    return tuple(c.eigenvalue for c in network.classes)


def kets_close(a: KetState, b: KetState) -> bool:
    """Same space, amplitudes equal to within 1e-12 each."""
    return a.space == b.space and np.allclose(a.amplitudes, b.amplitudes, atol=1e-12, rtol=0.0)


def transition_probability(initial: KetState, final: KetState) -> float:
    """|<final|initial>|^2 through the coherent path sum."""
    return abs(decompose(initial, final).total_amplitude) ** 2


def random_case(rng: np.random.Generator, max_dim: int = 8):
    """One random scenario: space, initial, final, two 0/1 diagonals."""
    n = int(rng.integers(2, max_dim + 1))
    space = StateSpace.of_dimension(n)

    def rand_state() -> KetState:
        return KetState(space, rng.normal(size=n) + 1j * rng.normal(size=n))

    initial = rand_state()
    final = rand_state()
    for _ in range(200):
        if abs(np.vdot(final.amplitudes, initial.amplitudes)) >= MIN_OVERLAP:
            break
        final = rand_state()
    first = DiagonalObservable(space, rng.integers(0, 2, size=n).astype(float))
    second = DiagonalObservable(space, rng.integers(0, 2, size=n).astype(float))
    return space, initial, final, first, second


def random_unitary_basis(space: StateSpace, rng: np.random.Generator):
    raw = rng.normal(size=(space.dimension,) * 2) + 1j * rng.normal(size=(space.dimension,) * 2)
    q, _ = np.linalg.qr(raw)
    return tuple(KetState(space, q[:, k]) for k in range(space.dimension))


def assert_partition(space, initial, final, observable) -> None:
    """Classes partition the paths; eigenvalues are distinct and descending."""
    net = build_network(initial, final, observable)
    members = sorted(m for c in net.classes for m in c.members)
    assert members == list(range(space.dimension))
    evs = [c.eigenvalue for c in net.classes]
    assert len(set(evs)) == len(evs)
    assert evs == sorted(evs, reverse=True)
    dec = decompose(initial, final)
    for c in net.classes:
        assert abs(c.amplitude - dec.amplitudes[list(c.members)].sum()) <= TOL


def assert_complete_family_identity(space, initial, observable, rng) -> None:
    """Reading-1 probability summed over any complete final family = <i|F|i>."""
    direct = expectation(initial, observable)
    standard = tuple(basis_ket(space, k) for k in range(space.dimension))
    for family in (standard, fourier_family(space), random_unitary_basis(space, rng)):
        total = 0.0
        for fin in family:
            total += build_network(initial, fin, observable).probability_of(1.0)
        assert abs(total - direct) <= TOL


def assert_weak_value_rules(space, initial, final, first, second, rng) -> None:
    """Linearity, identity, single-path collapse, and scale invariance."""
    dec = decompose(initial, final)
    w_first = weak_value(dec, first).complex_value
    w_second = weak_value(dec, second).complex_value
    w_sum = weak_value(dec, first + second).complex_value
    assert abs(w_sum - (w_first + w_second)) <= TOL

    identity = DiagonalObservable(space, np.ones(space.dimension))
    assert abs(weak_value(dec, identity).complex_value - 1.0) <= TOL

    # single contributing path: post-select on the basis state where the
    # initial amplitude is largest, so the one amplitude cannot be tiny
    k = int(np.argmax(np.abs(initial.amplitudes)))
    collapsed = decompose(initial, basis_ket(space, k))
    assert abs(weak_value(collapsed, first).complex_value
               - first.eigenvalues[k]) <= TOL

    def random_factor() -> complex:
        while True:
            c = complex(rng.normal(), rng.normal())
            if abs(c) >= 0.1:
                return c

    rescaled = decompose(scaled(initial, random_factor()),
                         scaled(final, random_factor()))
    w_scaled = weak_value(rescaled, first).complex_value
    assert abs(w_scaled - w_first) <= TOL * max(1.0, abs(w_first))

    base = conditional_reading_distribution(build_network(initial, final, first))
    moved = conditional_reading_distribution(
        build_network(scaled(initial, random_factor()),
                      scaled(final, random_factor()), first))
    assert set(base) == set(moved)
    for ev, p in base.items():
        assert abs(moved[ev] - p) <= TOL


def assert_all_invariants(rng: np.random.Generator) -> None:
    space, initial, final, first, second = random_case(rng)
    assert_partition(space, initial, final, first)
    assert_complete_family_identity(space, initial, first, rng)
    assert_weak_value_rules(space, initial, final, first, second, rng)


def _reference_json_cell(cell):
    if cell is None or isinstance(cell, (bool, int, str)):
        return cell
    if isinstance(cell, complex):
        return {"re": float(_real_text(cell.real)), "im": float(_real_text(cell.imag))}
    if isinstance(cell, float):
        return float(_real_text(cell))
    return str(cell)


def emitted(fmt: str, tables) -> str:
    """The text emit(fmt, tables, out) writes to out."""
    out = io.StringIO()
    emit(fmt, tables, out)
    return out.getvalue()


def reference_json_emit(tables) -> str:
    """emit("json", tables) as json.dumps writes it: the byte-layout reference."""
    payload = [{"title": t.title,
                "columns": list(t.columns),
                "rows": [{c: _reference_json_cell(v) for c, v in zip(t.columns, row)}
                         for row in t.rows]}
               for t in tables]
    return json.dumps(payload, indent=2) + "\n"


def reference_tokenize(raw: str) -> list[tuple[str, int]]:
    """Scenario-line tokens by a character walk that counts parenthesis depth."""
    cut = raw.find("#")
    text = raw if cut < 0 else raw[:cut]
    tokens: list[tuple[str, int]] = []
    k, n = 0, len(text)
    while k < n:
        if text[k].isspace():
            k += 1
            continue
        start = k
        depth = 0
        while k < n and (depth > 0 or not text[k].isspace()):
            if text[k] == "(":
                depth += 1
            elif text[k] == ")" and depth > 0:
                depth -= 1
            k += 1
        tokens.append((text[start:k], start + 1))
    return tokens
