"""Independent checks of the program's outputs.

Every expected value here is recomputed with numpy from the generated
vectors, never from the program's own objects and never from a stored
copy of earlier output:

* path amplitudes are conj(f) * i;
* pathway classes come from np.unique / np.bincount on the spectrum;
* mean readings use the class-sum closed form of the Gaussian overlap
  kernel and, for small spaces, trapezoid integration of the pointer
  density built from the classes;
* weak values are sum F amp / sum amp;
* all-outcomes values are sum F |i|^2.

Tolerances scale with the amplification sum|amp| / |sum amp| of the
transition (its square for mean readings), so a well-conditioned case
is held to a tight bound and an ill-conditioned one is not failed for
honest rounding.  A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EPS = float(np.finfo(float).eps)
# every number the command line prints carries 12 significant digits
PRINT_RTOL = 1e-11
CERTAINTY_TOL = 1e-10
TRAPEZOID_MAX_DIM = 64
TRAPEZOID_POINTS = 2 ** 14
TRAPEZOID_TOL = 1e-7
BLOCK = 256


class CheckError(AssertionError):
    """An output disagreed with its independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(actual, expected, tol: float, what: str) -> None:
    """|actual - expected| <= tol + PRINT_RTOL |expected|, elementwise."""
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    require(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    bound = tol + PRINT_RTOL * np.abs(e)
    bad = ~(np.abs(a - e) <= bound)
    if bad.any():
        k = int(np.flatnonzero(bad.reshape(-1))[0])
        raise CheckError(f"{what}: {a.reshape(-1)[k]!r} != {e.reshape(-1)[k]!r} "
                         f"(tolerance {bound.reshape(-1)[k]:.3g})")


# ------------------------------------------------------------- reference math

def amplitudes(initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    return np.conj(final) * initial


def amplification(amps: np.ndarray) -> float:
    """sum |amp| / |sum amp|; infinite for an exactly orthogonal pair."""
    total = abs(complex(amps.sum()))
    return math.inf if total == 0.0 else float(np.abs(amps).sum() / total)


def classes(evs: np.ndarray, amps: np.ndarray):
    """(values, class amplitudes, inverse) with values largest first."""
    values, inverse = np.unique(evs, return_inverse=True)
    k = values.size
    amp = (np.bincount(inverse, amps.real, k)
           + 1j * np.bincount(inverse, amps.imag, k))
    return values[::-1], amp[::-1], (k - 1) - inverse


def weak(evs: np.ndarray, amps: np.ndarray) -> complex:
    return complex(np.sum(evs * amps) / np.sum(amps))


def all_outcomes(evs: np.ndarray, initial: np.ndarray) -> float:
    return float(np.sum(evs * np.abs(initial) ** 2))


def mean_reading(values: np.ndarray, amp: np.ndarray, width: float) -> tuple[float, float]:
    """(mean, denominator) from the classes.

    <x> = sum_ab (a+b)/2 Re(A_a conj A_b) K_ab / sum_ab Re(A_a conj A_b) K_ab
    with K_ab = exp(-(a-b)^2 / (8 w^2)); rows are taken in blocks so the
    k x k kernel never sits in memory whole.
    """
    num = den = 0.0
    for lo in range(0, values.size, BLOCK):
        va = values[lo:lo + BLOCK, None]
        kern = np.exp(-(va - values[None, :]) ** 2 / (8.0 * width * width))
        cross = np.real(amp[lo:lo + BLOCK, None] * np.conj(amp[None, :])) * kern
        num += float((0.5 * (va + values[None, :]) * cross).sum())
        den += float(cross.sum())
    return num / den, den


def pointer(x, width: float):
    return (2.0 * np.pi * width * width) ** -0.25 * np.exp(-np.asarray(x) ** 2
                                                           / (4.0 * width * width))


def reading_amplitude(values: np.ndarray, amp: np.ndarray, width: float,
                      x: np.ndarray) -> np.ndarray:
    """Psi(x) = sum_a G(x - a) A_a over the classes."""
    out = np.zeros(x.shape, dtype=complex)
    for lo in range(0, values.size, BLOCK):
        out += pointer(x[:, None] - values[None, lo:lo + BLOCK], width) @ amp[lo:lo + BLOCK]
    return out


def trapezoid_mean(values: np.ndarray, amp: np.ndarray, width: float) -> float:
    """Mean reading by trapezoid integration of |Psi|^2 out to eight widths."""
    x = np.linspace(values.min() - 8.0 * width, values.max() + 8.0 * width,
                    TRAPEZOID_POINTS)
    density = np.abs(reading_amplitude(values, amp, width, x)) ** 2
    dx = np.diff(x)
    integrate = lambda y: float(np.sum(0.5 * (y[1:] + y[:-1]) * dx))
    return integrate(x * density) / integrate(density)


def mean_tolerance(n: int, amps: np.ndarray, den: float, evs: np.ndarray) -> float:
    """Rounding bound for a dense n x n kernel sum over these paths."""
    scale = max(1.0, float(np.abs(evs).max()))
    return 64.0 * EPS * math.log2(n + 1) * scale * float(np.abs(amps).sum()) ** 2 / abs(den)


def weak_tolerance(n: int, amps: np.ndarray, evs: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(evs).max()))
    return 64.0 * EPS * math.log2(n + 1) * scale * amplification(amps)


def sum_tolerance(n: int, amps: np.ndarray) -> float:
    return 64.0 * EPS * math.log2(n + 1) * max(float(np.abs(amps).sum()), 1.0)


def conditional_tolerance(n: int, amps: np.ndarray, amp: np.ndarray) -> float:
    """Bound for |A_a|^2 / sum_b |A_b|^2 when each class sum carries sum_tolerance."""
    probs = np.abs(amp) ** 2
    return 4.0 * sum_tolerance(n, amps) * float(np.abs(amp).sum() + 1.0) / float(probs.sum())


# ------------------------------------------------------ meter (library) cases

def check_meter_case(case, out: dict) -> None:
    """Check the results of one in-process meter case (see run.MeterOp.outputs)."""
    n = case.dimension
    evs = case.eigenvalues
    amps = amplitudes(case.initial, case.final)
    what = case.label
    close(out["amplitudes"], amps, 4.0 * EPS * np.abs(amps), f"{what} amplitudes")
    values, amp, inverse = classes(evs, amps)

    expected_weak = weak(evs, amps)
    close(out["weak"], expected_weak, weak_tolerance(n, amps, evs), f"{what} weak value")

    spread = float(evs.max() - evs.min())
    for ratio, mean, error in zip(case.ratios, out["means"], out["errors"]):
        width = ratio * spread
        expected, den = mean_reading(values, amp, width)
        tol = mean_tolerance(n, amps, den, evs)
        close(mean, expected, tol, f"{what} mean reading at {ratio} spreads")
        close(error, abs(expected - expected_weak.real), tol + weak_tolerance(n, amps, evs),
              f"{what} weak-limit error at {ratio} spreads")
        if n <= TRAPEZOID_MAX_DIM:
            close(mean, trapezoid_mean(values, amp, width),
                  TRAPEZOID_TOL * max(1.0, spread), f"{what} trapezoid mean at {ratio}")

    x = out["grid"]
    psi = reading_amplitude(values, amp, spread, x)
    close(out["psi"], psi, 16.0 * EPS * math.log2(n + 1) * float(np.abs(amps).sum())
          * float(pointer(0.0, spread)), f"{what} reading amplitude")

    check_classes(out["classes"], values, amp, inverse, n, amps, what)
    probs = np.abs(amp) ** 2
    dist = out["distribution"]
    require(list(dist) == [float(v) for v in values], f"{what} distribution keys")
    close(list(dist.values()), probs / probs.sum(), conditional_tolerance(n, amps, amp),
          f"{what} conditional distribution")


def check_classes(got, values, amp, inverse, n, amps, what: str) -> None:
    """got: list of (eigenvalue, members, amplitude) in program order."""
    require(len(got) == values.size, f"{what}: {len(got)} classes, expected {values.size}")
    sizes = [len(m) for _, m, _ in got]
    members = np.fromiter((k for _, m, _ in got for k in m), dtype=int, count=sum(sizes))
    require(members.size == n and np.array_equal(np.sort(members), np.arange(n)),
            f"{what}: classes do not partition the paths")
    require(np.array_equal(np.array([float(ev) for ev, _, _ in got]), values),
            f"{what}: class eigenvalues differ from the spectrum's distinct values")
    require(np.array_equal(inverse[members], np.repeat(np.arange(len(got)), sizes)),
            f"{what}: a class holds paths of another eigenvalue")
    close([a for _, _, a in got], amp, sum_tolerance(n, amps), f"{what} class amplitudes")


# --------------------------------------------------------------- CLI parsing

def csv_tables(text: str) -> list[tuple[str | None, list[str], list[list[str]]]]:
    """(title or None, columns, rows) per table; titles only with several tables."""
    out = []
    blocks = text.split("\n\n") if text.startswith("# ") else [text]
    for block in blocks:
        lines = block.strip("\n").split("\n")
        title = None
        if lines[0].startswith("# "):
            title, lines = lines[0][2:], lines[1:]
        grid = list(csv.reader(lines))
        out.append((title, grid[0], grid[1:]))
    return out


def text_tables(text: str) -> list[tuple[str, list[str], list[list[str]]]]:
    """Aligned tables: title, header, dash rule, rows; cut at the rule's columns."""
    out = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        title, header, rule, body = lines[0], lines[1], lines[2], lines[3:]
        starts = [k for k, ch in enumerate(rule) if ch == "-" and (k == 0 or rule[k - 1] == " ")]
        bounds = list(zip(starts, starts[1:] + [None]))
        cut = lambda line: [line[a:b].strip() for a, b in bounds]
        out.append((title, cut(header), [cut(line) for line in body]))
    return out


def cell_value(text: str):
    """A printed cell as a value comparable to its JSON form."""
    if text == "undefined":
        return None
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("(") and text.endswith(")") and ", " in text:
        re_, im = text[1:-1].split(", ")
        try:
            return {"re": float(re_), "im": float(im)}
        except ValueError:
            return text
    try:
        return float(text)
    except ValueError:
        return text


def same_cells(reference: list[dict], tables, what: str) -> None:
    """The table or csv run printed exactly the numbers of the json run."""
    require(len(tables) == len(reference), f"{what}: {len(tables)} tables, json has "
            f"{len(reference)}")
    for ref, (title, columns, rows) in zip(reference, tables):
        require(title is None or title == ref["title"], f"{what}: title {title!r}")
        require(columns == ref["columns"], f"{what}: columns {columns}")
        require(len(rows) == len(ref["rows"]), f"{what}: row count in {ref['title']}")
        for row, jrow in zip(rows, ref["rows"]):
            for col, cell in zip(columns, row):
                want = jrow[col]
                got = cell_value(cell)
                if isinstance(want, (int, float)) and not isinstance(want, bool):
                    ok = isinstance(got, float) and got == float(want)
                else:
                    ok = got == want
                require(ok, f"{what}: {ref['title']} column {col}: {cell!r} != json {want!r}")


def as_complex(cell) -> complex:
    return complex(cell["re"], cell["im"])


# ------------------------------------------------------- scenario-file tables

class Reference:
    """A scenario's vectors as numpy arrays: the independent side of every check."""

    def __init__(self, labels, initial, finals, observables):
        self.labels = tuple(labels)
        self.index = {label: k for k, label in enumerate(self.labels)}
        self.initial = np.asarray(initial, dtype=complex)
        self.finals = {k: np.asarray(v, dtype=complex) for k, v in finals.items()}
        self.observables = {k: np.asarray(v, dtype=float) for k, v in observables.items()}

    @property
    def n(self) -> int:
        return len(self.labels)

    def amps(self, final: str) -> np.ndarray:
        return amplitudes(self.initial, self.finals[final])


def check_query(ref: Reference, kind: str, args: dict, table: dict) -> None:
    what = table["title"]
    rows = table["rows"]
    n = ref.n
    if kind == "amplitudes":
        names = list(ref.finals)
        require(table["columns"] == ["path", *names], f"{what}: columns")
        require([r["path"] for r in rows] == list(ref.labels), f"{what}: path labels")
        got = np.array([[as_complex(r[f]) for f in names] for r in rows])
        want = np.column_stack([ref.amps(f) for f in names])
        close(got, want, 4.0 * EPS * np.abs(want), what)
        return
    if kind == "probabilities":
        require([r["final"] for r in rows] == list(ref.finals), f"{what}: finals")
        for r in rows:
            amps = ref.amps(r["final"])
            total = complex(amps.sum())
            tol = sum_tolerance(n, amps)
            close(as_complex(r["amplitude"]), total, tol, f"{what} {r['final']} amplitude")
            close(r["probability"], abs(total) ** 2, 2.0 * tol * (abs(total) + tol),
                  f"{what} {r['final']} probability")
        return
    final, obs = args.get("final"), args.get("obs")
    amps = ref.amps(final)
    evs = ref.observables[obs]
    if kind == "network":
        values, amp, inverse = classes(evs, amps)
        got = []
        for r in rows:
            members = [ref.index[p] for p in r["paths"].split(" + ")]
            require(r["multiplicity"] == len(members), f"{what}: multiplicity")
            got.append((r["eigenvalue"], members, as_complex(r["amplitude"])))
        # printed eigenvalues carry 12 digits: compare them by tolerance
        close([g[0] for g in got], values, 0.0, f"{what} eigenvalues")
        check_classes([(values[c], m, a) for c, (_, m, a) in enumerate(got)],
                      values, amp, inverse, n, amps, what)
        probs = np.abs(amp) ** 2
        tol = sum_tolerance(n, amps)
        close([r["probability"] for r in rows], probs, 2.0 * tol * (np.abs(amp) + tol),
              f"{what} probabilities")
        total = probs.sum()
        cond = [r["conditional"] for r in rows]
        if total == 0.0:
            require(all(c is None for c in cond), f"{what}: conditional should be undefined")
        else:
            close(cond, probs / total, conditional_tolerance(n, amps, amp), f"{what} conditional")
        return
    if kind == "weak":
        expected = weak(evs, amps)
        tol = weak_tolerance(n, amps, evs)
        close(as_complex(rows[0]["complex_value"]), expected, tol, what)
        close(rows[0]["reported"], expected.real, tol, f"{what} reported")
        return
    if kind in ("mean-reading", "scan"):
        ratios = ([float(args["width"])] if kind == "mean-reading"
                  else [float(p) for p in args["widths"].split(",") if p])
        require(len(rows) == len(ratios), f"{what}: one row per width")
        check_mean_rows(ref, final, obs, ratios, rows, what)
        return
    if kind == "sum-rule":
        first, second = evs, ref.observables[args["obs2"]]
        joint = [reading_one(f, amps) for f in (first, second, first + second)]
        outcomes = [all_outcomes(f, ref.initial) for f in (first, second, first + second)]
        tol = 4.0 * sum_tolerance(n, amps) * (1.0 + np.abs(amps).sum())
        for row, vals in zip(rows, (joint, outcomes)):
            close([row[c] for c in table["columns"][1:4]], vals, tol, f"{what} {row['setting']}")
            gap = abs(vals[2] - (vals[0] + vals[1]))
            if abs(gap - CERTAINTY_TOL) > 10.0 * tol + 1e-12:
                require(row["holds"] == (gap <= CERTAINTY_TOL), f"{what} {row['setting']} holds")
        return
    if kind == "product-rule":
        second = ref.observables[args["obs2"]]
        certain = [certain_reading(f, amps) for f in (evs, second, evs * second)]
        row = rows[0]
        got = [row[c] for c in table["columns"][:3]]
        require(got == certain, f"{what}: certain readings {got} != {certain}")
        a, b, p = certain
        holds = True if a is None or b is None else (p is not None and abs(p - a * b) <= 1e-10)
        require(row["holds"] == holds, f"{what}: holds")
        return
    raise CheckError(f"no check for query kind {kind!r}")


def reading_one(evs: np.ndarray, amps: np.ndarray) -> float:
    values, amp, _ = classes(evs, amps)
    return float(abs(amp[values == 1.0].sum()) ** 2) if np.any(values == 1.0) else 0.0


def certain_reading(evs: np.ndarray, amps: np.ndarray) -> float | None:
    """The reading with conditional probability 1, if one clears the certainty bar
    by a margin; a borderline case would not make a fair check and is refused."""
    values, amp, _ = classes(evs, amps)
    probs = np.abs(amp) ** 2
    cond = probs / probs.sum()
    hit = cond >= 1.0 - CERTAINTY_TOL
    near = np.abs(cond - (1.0 - CERTAINTY_TOL)) < 1e-12
    require(not near.any(), "generated case sits on the certainty threshold")
    return float(values[hit][0]) if hit.any() else None


def check_mean_rows(ref: Reference, final: str, obs: str, ratios, rows, what: str) -> None:
    amps = ref.amps(final)
    evs = ref.observables[obs]
    values, amp, _ = classes(evs, amps)
    spread = float(evs.max() - evs.min())
    target = weak(evs, amps).real
    for ratio, row in zip(ratios, rows):
        width = ratio * spread
        close(row["width_ratio"], ratio, 0.0, f"{what} ratio")
        close(row["width"], width, 4.0 * EPS * width, f"{what} width")
        mean, den = mean_reading(values, amp, width)
        tol = mean_tolerance(ref.n, amps, den, evs)
        close(row["mean_reading"], mean, tol, f"{what} mean at {ratio}")
        if ref.n <= TRAPEZOID_MAX_DIM:
            close(row["mean_reading"], trapezoid_mean(values, amp, width),
                  TRAPEZOID_TOL * max(1.0, spread), f"{what} trapezoid mean at {ratio}")
        if "weak_value_error" in row:
            close(row["weak_value_error"], abs(mean - target),
                  tol + weak_tolerance(ref.n, amps, evs), f"{what} error at {ratio}")


# ---------------------------------------------------- built-in scenario facts

_H = 0.5
HARDY_LABELS = ("1-,1+", "1-,2+", "2-,1+", "2-,2+", "gamma")
HARDY_INITIAL = (_H, _H, _H, 0.0, _H)
HARDY_FINALS = {
    "f": (_H, -_H, -_H, _H, 0.0),
    "g": (_H, -_H, _H, -_H, 0.0),
    "h": (_H, _H, -_H, -_H, 0.0),
    "j": (_H, _H, _H, _H, 0.0),
    "gamma": (0.0, 0.0, 0.0, 0.0, 1.0),
}
HARDY_OBSERVABLES = {
    "N(1-|1+)": (1, 0, 0, 0, 0), "N(1-|2+)": (0, 1, 0, 0, 0),
    "N(2-|1+)": (0, 0, 1, 0, 0), "N(2-|2+)": (0, 0, 0, 1, 0),
    "N(1-)": (1, 1, 0, 0, 0), "N(2-)": (0, 0, 1, 1, 0),
    "N(1+)": (1, 0, 1, 0, 0), "N(2+)": (0, 1, 0, 1, 0),
}
# weak values of the hardy scenario for final f, in closed form
HARDY_WEAK = {"N(1-|1+)": -1.0, "N(2-)": 1.0, "N(2+)": 1.0}


def hardy(epsilon: float | None = None) -> Reference:
    finals = dict(HARDY_FINALS)
    if epsilon is not None:
        f = np.array([1.0, -1.0, -epsilon, epsilon, 0.0])
        finals["f"] = f / np.linalg.norm(f)
    return Reference(HARDY_LABELS, HARDY_INITIAL, finals, HARDY_OBSERVABLES)


def three_box(beta: float) -> Reference:
    """Path amplitudes (beta, -beta, -beta): i = (1,-1,-1)/sqrt 3, f scaled to match."""
    initial = np.array([1.0, -1.0, -1.0]) / math.sqrt(3.0)
    final = np.full(3, beta / initial[0])
    return Reference(("box1", "box2", "box3"), initial, {"f": final},
                     {"P1": (1, 0, 0), "P2": (0, 1, 0), "P3": (0, 0, 1)})


def scn_queries(text: str):
    """(kind, {key: value}) for every query line of a scenario file."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if line and line[0] == "query":
            out.append((line[1], dict(tok.split("=", 1) for tok in line[2:])))
    return out


def option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_builtin(argv: list[str], tables: list[dict], hardy_scn: str = "") -> None:
    """Check the json output of one built-in command line (without --format)."""
    command = argv[0]
    if command == "table1":
        check_query(hardy(), "amplitudes", {}, tables[0])
    elif command == "table2":
        check_table2(tables[0])
    elif command in ("network", "weak"):
        scenario = option(argv, "--scenario")
        ref = {"three-box": lambda: three_box(float(option(argv, "--beta", "0.5"))),
               "hardy": hardy,
               "hardy-epsilon": lambda: hardy(float(option(argv, "--epsilon", "0.5")))}[scenario]()
        args = {"final": option(argv, "--final"), "obs": option(argv, "--obs")}
        check_query(ref, command, args, tables[0])
        check_closed_forms(scenario, argv, args["obs"], tables[0])
    elif command == "scan-epsilon":
        check_scan_epsilon(argv, tables[0])
    elif command == "sweep-width":
        ratios = [float(p) for p in option(argv, "--widths").split(",") if p]
        check_mean_rows(hardy(), option(argv, "--final"), option(argv, "--obs"), ratios,
                        tables[0]["rows"], tables[0]["title"])
    elif command == "run":
        queries = scn_queries(hardy_scn)
        require(len(tables) == len(queries), "run: one table per query")
        for (kind, args), table in zip(queries, tables):
            check_query(hardy(), kind, args, table)
    elif command == "verify":
        rows = tables[0]["rows"]
        require(len(rows) > 0, "verify printed no checks")
        for r in rows:
            require(r["status"] == "pass" and r["max_deviation"] <= r["tolerance"],
                    f"verify: {r['check']} {r['status']}")
    else:
        raise CheckError(f"no check for command {command!r}")


def check_closed_forms(scenario: str, argv: list[str], obs: str, table: dict) -> None:
    row = table["rows"]
    if scenario == "three-box" and argv[0] == "weak":
        close(row[0]["reported"], -1.0, 1e-12, "three-box box-1 weak value")
    if scenario == "three-box" and argv[0] == "network":
        # checking box 2 or box 3 finds the particle there with certainty
        one = [r for r in row if r["eigenvalue"] == 1.0]
        require(len(one) == 1, "three-box network has no reading 1")
        close(one[0]["conditional"], 1.0, 1e-12, f"three-box {obs} certainty")
    if scenario == "hardy" and argv[0] == "weak":
        close(row[0]["reported"], HARDY_WEAK[obs], 1e-12, f"hardy weak {obs}")
    if scenario == "hardy-epsilon" and argv[0] == "weak":
        eps = float(option(argv, "--epsilon"))
        close(row[0]["reported"], -1.0 / eps, 1e-12 / eps, f"hardy-epsilon weak {obs}")


def check_table2(table: dict) -> None:
    ref = hardy()
    pairs = [(o, f) for o in ref.observables for f in ref.finals]
    require([(r["observable"], r["final"]) for r in table["rows"]] == pairs,
            "table2: observable x final rows")
    for r in table["rows"]:
        amps = ref.amps(r["final"])
        values, amp, _ = classes(ref.observables[r["observable"]], amps)
        probs = np.abs(amp) ** 2
        printed = [tuple(float(x) for x in item.split(":")) for item in r["classes"].split()]
        close([p[0] for p in printed], values, 0.0, f"table2 {r['observable']} classes")
        close([p[1] for p in printed], probs, 1e-15, f"table2 {r['observable']} classes")
        close(r["probability"], probs.sum(), 1e-15, f"table2 {r['observable']} probability")


SCAN_CLOSED_FORMS = {"N(1-|1+)": lambda e: -1.0 / e, "N(1+)": lambda e: 1.0 - 1.0 / e}


def check_scan_epsilon(argv: list[str], table: dict) -> None:
    obs = option(argv, "--obs")
    start, stop = float(option(argv, "--from")), float(option(argv, "--to"))
    eps = np.geomspace(start, stop, int(option(argv, "--steps")))
    rows = table["rows"]
    close([r["epsilon"] for r in rows], eps, 0.0, "scan-epsilon grid")
    for e, r in zip(eps, rows):
        ref = hardy(float(e))
        amps = ref.amps("f")
        evs = ref.observables[obs]
        expected = weak(evs, amps)
        tol = weak_tolerance(ref.n, amps, evs)
        close(as_complex(r["complex_value"]), expected, tol, f"scan-epsilon {obs} at {e:g}")
        close(r["reported"], SCAN_CLOSED_FORMS[obs](float(e)), tol,
              f"scan-epsilon {obs} closed form at {e:g}")
