"""Seeded inputs for the qpaths benchmark.

Every input is a pure function of (workload, seed): the same seed gives
the same vectors, spectra, scenario files and command lines.  The
program under test sees only what is generated here.

Rebuild the inputs of the cli workload from its seed with

    python3 qbench/gen.py --seed 7 --out /some/dir

which writes its .scn files (the same write_inputs the benchmark runs
them from) and prints its built-in command lines; each runs in the
json, table and csv formats.  The meter workload's cases are in-memory
arrays: meter_cases(seed) rebuilds them.
"""

from __future__ import annotations

import argparse
import os
import shlex
from dataclasses import dataclass, field

import numpy as np

# random transitions keep a modest overlap |<f|i>| so that weak values
# and mean readings stay well conditioned; tests/_invariants.py uses 0.05
MIN_OVERLAP = 0.1
MAX_OVERLAP = 0.5

METER_DIMS = (64, 512, 1024, 1536, 2048)
METER_RATIOS = (0.01, 0.1, 1.0, 10.0, 100.0)
POINTER_GRID = 512

SCENARIO_DIMS = (64, 256, 512)
SCENARIO_FINALS = 40
SCENARIO_PAIRS_PER_OBS = 3
FORMATS = ("json", "table", "csv")


def rng_for(stream: str, seed: int) -> np.random.Generator:
    """One generator per (input stream, seed), independent across streams."""
    tag = int.from_bytes(stream.encode(), "little") % (2 ** 32)
    return np.random.default_rng([int(seed), tag])


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def overlapping_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit (initial, final) with |<f|i>| drawn uniformly in [MIN_OVERLAP, MAX_OVERLAP]."""
    initial = random_unit(rng, n)
    rest = random_unit(rng, n)
    rest = rest - np.vdot(initial, rest) * initial
    rest /= np.linalg.norm(rest)
    r = rng.uniform(MIN_OVERLAP, MAX_OVERLAP)
    c = r * np.exp(2j * np.pi * rng.uniform())
    final = np.conj(c) * initial + np.sqrt(1.0 - r * r) * rest
    return initial, final / np.linalg.norm(final)


def projector(rng: np.random.Generator, n: int) -> np.ndarray:
    evs = rng.integers(0, 2, size=n).astype(float)
    evs[:2] = (0.0, 1.0)  # both readings present, so the spread is 1
    return rng.permutation(evs)


def levels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Spectrum with exactly k distinct integer levels 0..k-1."""
    evs = rng.integers(0, k, size=n).astype(float)
    evs[:k] = np.arange(k)
    return rng.permutation(evs)


def distinct(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    """n distinct eigenvalues: a permutation of 0..n-1, or distinct normal reals."""
    if kind == 0:
        return rng.permutation(n).astype(float)
    while True:
        evs = rng.normal(size=n)
        if np.unique(evs).size == n:
            return evs


# ---------------------------------------------------------------- meter cases

@dataclass(frozen=True, eq=False)
class MeterCase:
    """One (i, f, F) library case; ratios are meter widths in spreads."""

    label: str
    initial: np.ndarray
    final: np.ndarray
    eigenvalues: np.ndarray
    ratios: tuple[float, ...] = METER_RATIOS

    @property
    def dimension(self) -> int:
        return self.initial.size


METER_SPECTRA = ("projector", "8-level", "permutation", "normal")


def meter_cases(seed: int) -> list[MeterCase]:
    """Four cases per dimension: a projector and an 8-level spectrum (few
    classes), then a permutation of 0..n-1 and n distinct normal reals (k = n)."""
    rng = rng_for("meter", seed)
    cases = []
    for n in METER_DIMS:
        for name in METER_SPECTRA:
            initial, final = overlapping_pair(rng, n)
            evs = (projector(rng, n) if name == "projector" else
                   levels(rng, n, 8) if name == "8-level" else
                   distinct(rng, n, 0 if name == "permutation" else 1))
            cases.append(MeterCase(f"n={n} {name}", initial, final, evs))
    return cases


def pointer_grid(eigenvalues: np.ndarray, width: float) -> np.ndarray:
    """Pointer positions covering every shifted packet out to eight widths."""
    return np.linspace(eigenvalues.min() - 8.0 * width, eigenvalues.max() + 8.0 * width,
                       POINTER_GRID)


# ------------------------------------------------------------ scenario files

@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A generated scenario: the vectors behind a .scn file and its queries.

    queries holds (kind, ((key, value), ...)) in file order; the program
    prints one table per query, in the same order.
    """

    name: str
    labels: tuple[str, ...]
    initial: np.ndarray
    finals: dict[str, np.ndarray]
    observables: dict[str, np.ndarray]
    queries: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    text: str = field(repr=False, default="")


def _real(x: float) -> str:
    return repr(float(x))


def _pair(z: complex) -> str:
    return f"({float(z.real)!r}, {float(z.imag)!r})"


def scenario_text(spec: ScenarioSpec, initial_text: str | None = None) -> str:
    out = [f"name = {spec.name}",
           f"dimension = {len(spec.labels)}",
           "basis = " + " ".join(spec.labels)]
    out.append("state i = " + (initial_text or " ".join(_pair(z) for z in spec.initial)))
    for name, vec in spec.finals.items():
        out.append(f"state {name} = " + " ".join(_pair(z) for z in vec))
    for name, evs in spec.observables.items():
        out.append(f"observable {name} = " + " ".join(_real(x) for x in evs))
    for kind, args in spec.queries:
        out.append(" ".join([f"query {kind}"] + [f"{k}={v}" for k, v in args]))
    return "\n".join(out) + "\n"


def ratio_list(rng: np.random.Generator, count: int) -> str:
    """Sorted log-uniform width ratios in [0.01, 100], endpoints included."""
    inner = np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=count - 2))
    return ",".join(["0.01"] + [f"{r:.6g}" for r in inner] + ["100"])


def scenario_spec(rng: np.random.Generator, n: int) -> ScenarioSpec:
    """n paths, SCENARIO_FINALS orthonormal finals, 16 observables, every query kind."""
    labels = tuple(f"b{k}" for k in range(n))
    raw = rng.normal(size=(n, SCENARIO_FINALS)) + 1j * rng.normal(size=(n, SCENARIO_FINALS))
    basis, _ = np.linalg.qr(raw)
    finals = {f"f{j:02d}": basis[:, j].copy() for j in range(SCENARIO_FINALS)}
    # the initial state overlaps every final by a modest amount
    coeffs = rng.uniform(0.5, 1.0, SCENARIO_FINALS) * np.exp(
        2j * np.pi * rng.uniform(size=SCENARIO_FINALS))
    rest = random_unit(rng, n)
    rest -= basis @ (basis.conj().T @ rest)
    initial = basis @ coeffs + 0.5 * rest / np.linalg.norm(rest)
    initial /= np.linalg.norm(initial)

    support = rng.permutation(n)
    first = np.zeros(n)
    second = np.zeros(n)
    first[support[: n // 3]] = 1.0
    second[support[n // 3: 2 * n // 3]] = 1.0
    observables = {"PA": first, "PB": second}
    for k in range(6):
        observables[f"P{k}"] = projector(rng, n)
    for k in (3, 4, 6, 8):
        observables[f"S{k}"] = levels(rng, n, k)
    for k in range(4):
        observables[f"D{k}"] = distinct(rng, n, k % 2)

    names = list(finals)
    queries: list = [("amplitudes", ()), ("probabilities", ())]
    for kind in ("network", "weak"):
        for obs in observables:
            for _ in range(SCENARIO_PAIRS_PER_OBS):
                fin = names[int(rng.integers(len(names)))]
                queries.append((kind, (("final", fin), ("obs", obs))))
    obs_names = list(observables)
    for _ in range(8):
        queries.append(("mean-reading", (
            ("final", names[int(rng.integers(len(names)))]),
            ("obs", obs_names[int(rng.integers(len(obs_names)))]),
            ("width", f"{10.0 ** rng.uniform(-2.0, 2.0):.6g}"))))
    for _ in range(4):
        queries.append(("scan", (
            ("final", names[int(rng.integers(len(names)))]),
            ("obs", obs_names[int(rng.integers(len(obs_names)))]),
            ("widths", ratio_list(rng, 5)))))
    for _ in range(2):
        queries.append(("sum-rule", (
            ("final", names[int(rng.integers(len(names)))]),
            ("obs", "PA"), ("obs2", "PB"))))
    projectors = [o for o in obs_names if o.startswith("P")]
    for _ in range(2):
        a, b = rng.choice(len(projectors), size=2, replace=False)
        queries.append(("product-rule", (
            ("final", names[int(rng.integers(len(names)))]),
            ("obs", projectors[a]), ("obs2", projectors[b]))))
    spec = ScenarioSpec(f"generated-n{n}", labels, initial, finals, observables,
                        tuple(queries))
    object.__setattr__(spec, "text", scenario_text(spec))
    return spec


def scenario_specs(seed: int) -> list[ScenarioSpec]:
    rng = rng_for("scenario", seed)
    return [scenario_spec(rng, n) for n in SCENARIO_DIMS]


def near_orthogonal_spec() -> ScenarioSpec:
    """i = (1,1,1)/sqrt(3) against the k=1 Fourier final: <f|i> is zero in exact
    arithmetic and about 1e-16 in floating point, so the weak value is undefined.

    It does not depend on the seed.
    """
    n = 3
    final = np.exp(-2j * np.pi * np.arange(n) / n) / np.sqrt(n)
    spec = ScenarioSpec("near-orthogonal", ("n0", "n1", "n2"),
                        np.full(n, 1.0 / np.sqrt(n), dtype=complex), {"f": final},
                        {"P0": np.array([1.0, 0.0, 0.0])},
                        (("weak", (("final", "f"), ("obs", "P0"))),))
    object.__setattr__(spec, "text", scenario_text(
        spec, initial_text="1/sqrt(3) 1/sqrt(3) 1/sqrt(3)"))
    return spec


# -------------------------------------------------------------- cli commands

@dataclass(frozen=True)
class BuiltinParams:
    beta: float
    epsilon: float
    sweep_obs: str
    sweep_ratios: str


SCAN_FROM, SCAN_TO, SCAN_STEPS = "1e-6", "1", 13
HARDY_OBSERVABLES = ("N(1-|1+)", "N(1-|2+)", "N(2-|1+)", "N(2-|2+)",
                     "N(1-)", "N(2-)", "N(1+)", "N(2+)")


def builtin_params(seed: int) -> BuiltinParams:
    rng = rng_for("builtin", seed)
    beta = float(f"{rng.uniform(0.05, 1.0):.6g}")
    epsilon = float(f"{10.0 ** rng.uniform(-3.0, 0.0):.6g}")
    sweep_obs = HARDY_OBSERVABLES[int(rng.integers(len(HARDY_OBSERVABLES)))]
    return BuiltinParams(beta, epsilon, sweep_obs, ratio_list(rng, 5))


def builtin_commands(p: BuiltinParams) -> list[list[str]]:
    """Built-in-scenario command lines, without --format."""
    beta = ["--scenario", "three-box", "--beta", repr(p.beta), "--final", "f"]
    eps = ["--scenario", "hardy-epsilon", "--epsilon", repr(p.epsilon), "--final", "f"]
    hardy = ["--scenario", "hardy", "--final", "f"]
    scan = ["--from", SCAN_FROM, "--to", SCAN_TO, "--steps", str(SCAN_STEPS)]
    return [
        ["table1"],
        ["table2"],
        ["network", *beta, "--obs", "P2"],
        ["network", *beta, "--obs", "P3"],
        ["weak", *beta, "--obs", "P1"],
        ["network", *hardy, "--obs", "N(1-|1+)"],
        ["weak", *hardy, "--obs", "N(1-|1+)"],
        ["weak", *hardy, "--obs", "N(2-)"],
        ["weak", *hardy, "--obs", "N(2+)"],
        ["network", *eps, "--obs", "N(1+)"],
        ["weak", *eps, "--obs", "N(1-|1+)"],
        ["scan-epsilon", "--obs", "N(1-|1+)", *scan],
        ["scan-epsilon", "--obs", "N(1+)", *scan],
        ["sweep-width", *hardy, "--obs", p.sweep_obs, "--widths", p.sweep_ratios],
        ["run", os.path.join("src", "qpaths", "data", "hardy.scn")],
        ["verify"],
    ]


# ------------------------------------------------------------------- writing

def write_inputs(seed: int, out: str) -> dict[str, str]:
    """Write the .scn files of the cli workload to out: the near-orthogonal
    file and the generated scenarios.  Returns {scenario name: path}."""
    os.makedirs(out, exist_ok=True)
    written = {}
    for spec in [near_orthogonal_spec(), *scenario_specs(seed)]:
        path = os.path.join(out, f"{spec.name}.scn")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.text)
        written[spec.name] = path
    return written


WORKLOADS = ("cli", "meter")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    for path in write_inputs(args.seed, args.out).values():
        print(path)
    for argv in builtin_commands(builtin_params(args.seed)):
        print("python -m qpaths " + shlex.join(argv))


if __name__ == "__main__":
    main()
