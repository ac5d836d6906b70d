"""The benchmark's workloads: the CLI cases of each one and the check of every answer.

A workload is an ordered list of cases.  Each case is one call of the real
entry point, ``askzeta.cli.main(argv)``.  Every case must exit with status 0,
and a case may also carry a check of the answer in its JSON report.  Building
the list (``build``) is the benchmark's set-up: it builds the catalog modules
and algebras the cases name, computes the expected answers, and draws the
seeded random modules; ``write_inputs`` then writes those to files.

Only ``ask-deep`` draws from the seed.  The other three workloads are fixed
catalog cases, so their spread from seed to seed is the machine's noise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from askzeta import (
    MatrixModule,
    catalog_algebra,
    catalog_keys,
    catalog_module,
    closed_form,
    expand,
    transpose_module,
)
from askzeta.cli import module_to_json

# check(report, reports of this pass by case name) -> error message or None
Check = Callable[[dict, dict], Optional[str]]


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    check: Optional[Check] = None
    # (path, text) of each file the case reads; written by ``write_inputs``
    # after set-up is timed, because disk writes made set-up time erratic
    inputs: tuple[tuple[Path, str], ...] = ()


# ask-deep draws one random module for each shape (d, e, rank) with d, e <= 3
# and rank <= 4, at a prime that cycles through RANDOM_PRIMES, and runs it to
# the deepest level at which the largest of its three views (coefficients,
# rows, columns) stays within RANDOM_POINTS points.  Shapes, primes and levels
# do not depend on the seed, so the seed changes the modules but hardly the
# amount of work; the fixed so(3) case carries most of the pass.
RANDOM_SHAPES = tuple(
    (d, e, rank)
    for d in (1, 2, 3)
    for e in (1, 2, 3)
    for rank in (1, 2, 3, 4)
    if rank <= d * e
)
RANDOM_PRIMES = (2, 3, 5)
RANDOM_POINTS = 2 * 10**4


def _coefficients(report: dict) -> dict[int, list[Fraction]]:
    return {
        res["p"]: [Fraction(int(c["num"]), int(c["den"])) for c in res["coefficients"]]
        for res in report["results"]
    }


def _series(key: str, primes, n_max: int) -> dict[int, list[Fraction]]:
    formula = closed_form(key).formula
    return {p: list(expand(formula, p, n_max + 1).coeffs) for p in primes}


def _ask_matches_closed_form(key: str, p: int, n_max: int) -> Check:
    want = _series(key, (p,), n_max)

    def check(report, reports):
        if _coefficients(report) != want:
            return f"coefficients of {key} differ from its closed form"
        return None

    return check


def _transpose_identity(of: str, p: int, d: int, e: int) -> Check:
    """ask(M, p^n) = p^(n(d-e)) * ask(M^T, p^n); this case computes M^T."""
    scale = Fraction(p) ** (d - e)

    def check(report, reports):
        base = reports.get(of)
        if base is None:
            return f"no report of {of} to compare with"
        a, b = _coefficients(base)[p], _coefficients(report)[p]
        if len(a) != len(b) or any(x != scale**n * y for n, (x, y) in enumerate(zip(a, b))):
            return f"transpose identity fails between {of} and its transpose"
        return None

    return check


def _orbits_match_closed_form(key: str, p: int, n_max: int) -> Check:
    want = [int(c) for c in _series(key, (p,), n_max)[p]]

    def check(report, reports):
        if report["results"][0]["orbits"] != want:
            return f"orbit counts differ from {key}"
        return None

    return check


def _ask(key: str, p: int, n_max: int, *extra: str) -> Case:
    catalog_module(key)
    return Case(
        f"ask {key} p={p}",
        ("ask", "--catalog", key, "--p", str(p), "--n-max", str(n_max), *extra),
        _ask_matches_closed_form(key, p, n_max),
    )


def _verify(key: str, p: int, n_max: int) -> Case:
    catalog_module(key)
    return Case(
        f"verify {key} p={p}",
        ("verify", "--catalog", key, "--p", str(p), "--n-max", str(n_max)),
    )


def _ask_wild(seed: int, workdir: Path) -> list[Case]:
    return [
        _ask("L_{5,6}", 11, 1),
        _ask("L_{5,6}", 3, 2),
        _verify("ex_non_lie", 3, 2),
        _verify("ex_unbounded", 5, 2),
        _verify("ex_elliptic", 5, 3),
    ]


def _random_module(rng: random.Random, d: int, e: int, rank: int) -> MatrixModule:
    while True:
        basis = [
            [[rng.randint(-3, 3) for _ in range(e)] for _ in range(d)]
            for _ in range(rank)
        ]
        m = MatrixModule(d, e, basis)
        if m.dim == rank:
            return m


def _deepest_level(p: int, size: int) -> int:
    n = 1
    while p ** (size * (n + 1)) <= RANDOM_POINTS:
        n += 1
    return n


def _ask_deep(seed: int, workdir: Path) -> list[Case]:
    cases = [
        _ask("so(3)", 3, 5, "--method", "both"),
        _ask("diag(3)", 3, 4, "--method", "both"),
    ]
    rng = random.Random(seed)
    for i, (d, e, rank) in enumerate(RANDOM_SHAPES):
        m = _random_module(rng, d, e, rank)
        p = RANDOM_PRIMES[i % len(RANDOM_PRIMES)]
        n_max = _deepest_level(p, max(rank, d, e))
        name = f"random{i:02d}"
        for label, mod, check in (
            (name, m, None),
            (f"{name}^T", transpose_module(m), _transpose_identity(name, p, m.d, m.e)),
        ):
            path = workdir / f"{label}.module.json"
            argv = ("ask", "--module", str(path), "--p", str(p), "--n-max", str(n_max),
                    "--method", "both")
            cases.append(Case(label, argv, check, ((path, json.dumps(module_to_json(mod))),)))
    return cases


def _groups(seed: int, workdir: Path) -> list[Case]:
    catalog_algebra("L_{3,2}")
    return [
        Case("cc L_{3,2}", ("cc", "--algebra", "L_{3,2}", "--p", "5", "--n-max", "2")),
        Case("oc L_{3,2}", ("oc", "--algebra", "L_{3,2}", "--p", "5,7", "--n-max", "2")),
        Case("oc gl(2)", ("oc", "--gl", "2", "--p", "3", "--n-max", "2"),
             _orbits_match_closed_form("oc:gl(2)", 3, 2)),
    ]


def _catalog_export(count: int) -> Check:
    def check(report, reports):
        got = len(report["results"])
        return None if got == count else f"catalog lists {got} entries, expected {count}"

    return check


def _catalog(seed: int, workdir: Path) -> list[Case]:
    keys = catalog_keys()
    entries = [closed_form(k) for k in keys]
    ask_entries = [e for e in entries if e.kind == "ask"]
    modules = {e.key: catalog_module(e.module_key) for e in ask_entries}
    cases = [_verify(e.key, 3, 1) for e in ask_entries]
    cases.append(_verify("sl(3)", 5, 1))
    cases += [
        Case(f"structure {k}", ("structure", "--catalog", k)) for k in modules
    ]
    cases += [
        Case(f"feqn {e.key}", ("feqn", "--form", str(e.formula), "--d", str(modules[e.key].d)))
        for e in ask_entries
        if e.formula is not None
    ]
    cases.append(Case("catalog", ("catalog",), _catalog_export(len(keys))))
    return cases


_BUILDERS = {
    "ask-wild": _ask_wild,
    "ask-deep": _ask_deep,
    "groups": _groups,
    "catalog": _catalog,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases, in the order one pass runs them."""
    return _BUILDERS[workload](seed, workdir)


def write_inputs(cases: list[Case]) -> None:
    for case in cases:
        for path, text in case.inputs:
            path.write_text(text, encoding="utf-8")
