"""Command-line front end with JSON input/output.

Exit codes: 0 success, 1 verification mismatch (a finding), 2 input or schema
error, 3 budget exceeded, 4 internal consistency failure (always a bug).
Reports are deterministic: keys sorted, rationals serialized as decimal
strings in lowest terms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction

from .catalog import adjoint_sizes, catalog_module, catalog_row
from .closed_forms import (
    catalog_keys,
    closed_form,
    brenti_identity_check,
    brenti_polynomial,
    elliptic_point_count,
    ex_elliptic_formula,
)
from .engine import DEFAULT_BUDGET, _run_partials, ask_series, check_budget
from .errors import (
    MAX_REPORT_BITS,
    AskZetaError,
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    check_power,
)
from .grouporbits import (
    GroupGenSet,
    NilpotentAlgebra,
    _traces_vanish,
    cc_coefficients_direct,
    cc_via_ask,
    exp_group,
    gl_generators,
    oc_coefficients,
    oc_via_ask,
)
from .intmat import IntMatrix
from .module import VIEWS, MatrixModule
from .primes import is_prime
from .ratfun import expand, functional_equation_check, parse_rational
from .structural import structure_report

SCHEMA = "askzeta/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _ReportTooLarge(BudgetExceededError):
    """A report integer with more bits than MAX_REPORT_BITS."""

    def __str__(self):
        return (
            f"a report value of {self.needed} bits exceeds the {self.budget}-bit"
            " limit (about 4,300 decimal digits)"
        )


def _fits(value: int) -> int:
    """`value`, unless a report cannot print it (more than MAX_REPORT_BITS)."""
    if value.bit_length() > MAX_REPORT_BITS:
        raise _ReportTooLarge(value.bit_length(), MAX_REPORT_BITS)
    return value


def _rat(value) -> dict:
    f = Fraction(value)
    return {"num": str(_fits(f.numerator)), "den": str(_fits(f.denominator))}


def _primes(text: str) -> list[int]:
    """The --p type: a non-empty comma-separated list of primes."""
    try:
        primes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from None
    if not primes:
        raise argparse.ArgumentTypeError(f"no prime in {text!r}")
    for p in primes:
        if not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not prime")
    return primes


def _at_least(low: int):
    """The type of an integer option with a lower bound: --n-max, --order,
    feqn's --d and brenti's --n take integers >= 0, --jobs, --budget and
    --gl integers >= 1."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputError(f"{path} nests too deeply to decode") from None


def _int_matrix(value, what: str) -> IntMatrix:
    """A JSON list of lists of integers (bools and floats do not count)."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in value
    ):
        raise InputError(f"{what} must be a list of lists of integers")
    return IntMatrix(value)


def _int_matrices(data: dict, key: str) -> list[IntMatrix]:
    value = data[key]
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a list of integer matrices")
    return [_int_matrix(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _document(data, kind: str, *keys: str) -> list:
    """The values at `keys` of a `kind` document (module, algebra or group):
    a JSON object of the package schema whose keys are sizes (integers) but
    the last, a list of integer matrices."""
    if not isinstance(data, dict):
        raise InputError(f"{kind} document must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise InputError(f'missing or unsupported "schema" (expected "{SCHEMA}")')
    for key in keys:
        if key not in data:
            raise InputError(f"{kind} document lacks {key!r}")
    *sizes, matrices = keys
    for key in sizes:
        if type(data[key]) is not int:
            raise InputError(f"{key} must be an integer")
    return [*(data[key] for key in sizes), _int_matrices(data, matrices)]


def module_from_json(data) -> MatrixModule:
    d, e, basis = _document(data, "module", "d", "e", "basis")
    return MatrixModule(d, e, basis, str(data.get("label", "")))


def module_to_json(m: MatrixModule) -> dict:
    return {
        "schema": SCHEMA,
        "d": m.d,
        "e": m.e,
        "basis": [[list(row) for row in b.entries] for b in m.basis],
        "label": m.label,
    }


def _report(handler, args) -> int:
    """Every subcommand's one report step: handler(args) gives the report's
    fields and the exit code; the report, stamped with the schema and the
    command, is written in the chosen format."""
    fields, code = handler(args)
    report = {"schema": SCHEMA, "command": args.command, "results": [], **fields}
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _to_csv(report)
    else:
        text = _to_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _to_csv(report: dict) -> str:
    """The coefficient or orbit streams of ask, cc and oc, one row per level."""
    lines = ["p,n,num,den"]
    for res in report["results"]:
        p = res["p"]
        if "coefficients" in res:
            for n, c in enumerate(res["coefficients"]):
                lines.append(f"{p},{n},{c['num']},{c['den']}")
        elif "orbits" in res:
            for n, c in enumerate(res["orbits"]):
                lines.append(f"{p},{n},{c},1")
    return "\n".join(lines) + "\n"


def _to_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in sorted(report.items()):
        if key in ("command", "results"):
            continue
        lines.append(f"{key}: {value}")
    for res in report["results"]:
        lines.append(json.dumps(res, sort_keys=True))
    return "\n".join(lines) + "\n"


def _get_module(args, method=None) -> MatrixModule:
    """The module of --catalog or --module.  A catalog key's sizes meet the budget
    of `method` at each listed prime, in order, before it is built; the build
    is level-1 work, so the check reads level 1 even at --n-max 0."""
    if args.catalog:
        if method is not None:
            _, d, e, generators = catalog_row(args.catalog)
            sizes = (len(generators), d, e)
            for p in args.p:
                check_budget(sizes, p, max(args.n_max, 1), method, args.budget)
        return catalog_module(args.catalog)
    if args.module:
        return module_from_json(_read_json(args.module))
    raise InputError("provide --catalog KEY or --module FILE")


def _series_task(payload):
    m, p, n_max, method, budget, jobs = payload
    return p, ask_series(m, p, n_max, method, budget, jobs)


def _run_series(m, primes, n_max, method, budget, jobs):
    """Workers go to the per-prime tasks, or into the single enumeration when
    only one prime is requested; either way the results are exact and
    schedule-independent."""
    if len(primes) == 1:
        return [_series_task((m, primes[0], n_max, method, budget, jobs))]
    tasks = [(m, p, n_max, method, budget, 1) for p in primes]
    return _run_partials(_series_task, tasks, jobs)


def cmd_ask(args) -> tuple[dict, int]:
    m = _get_module(args, args.method)
    results = _run_series(m, args.p, args.n_max, args.method, args.budget, args.jobs)
    report = {
        "input": args.catalog or args.module,
        "method": args.method,
        "n_max": args.n_max,
        "seed": args.seed,
        "results": [
            {"p": p, "coefficients": [_rat(c) for c in coeffs]}
            for p, coeffs in results
        ],
    }
    return report, EXIT_OK


def _verify_formula(args):
    """--formula, else the catalog entry's; None for ex_elliptic, whose formula
    depends on the prime."""
    if args.formula:
        return parse_rational(args.formula)
    if not args.catalog:
        raise InputError("verify needs --catalog KEY or --module FILE --formula EXPR")
    entry = closed_form(args.catalog)
    if entry.formula is not None or entry.key == "ex_elliptic":
        return entry.formula
    raise InputError(f"catalog entry {args.catalog!r} stores no fixed formula")


def cmd_verify(args) -> tuple[dict, int]:
    formula = _verify_formula(args)
    # auto's unreduced points are the fewest of any view, so where both
    # routes fit the budget auto does too: the build needs auto to fit
    m = _get_module(args, "auto")

    # cross-check the routes when both enumerations fit the budget;
    # otherwise the affordable view alone carries the comparison
    def method(sizes, p):
        try:
            check_budget(sizes, p, max(args.n_max, 1), "both", args.budget)
        except BudgetExceededError:
            return "auto"
        return "both"

    results = []
    first_mismatch = None
    for p in args.p:
        w = formula
        if w is None:  # elliptic entry: formula depends on a curve point count
            w = ex_elliptic_formula(elliptic_point_count(p))
        expected = expand(w, p, args.n_max + 1).coeffs
        got = ask_series(m, p, args.n_max, method(m.sizes, p), args.budget)
        per_n = []
        for n in range(args.n_max + 1):
            ok = expected[n] == got[n]
            per_n.append(
                {
                    "n": n,
                    "status": "match" if ok else "mismatch",
                    "expected": _rat(expected[n]),
                    "computed": _rat(got[n]),
                }
            )
            if not ok and first_mismatch is None:
                first_mismatch = {"p": p, "n": n}
        results.append({"p": p, "per_n": per_n})
    report = {
        "input": args.catalog or args.module,
        "n_max": args.n_max,
        "seed": args.seed,
        "status": "match" if first_mismatch is None else "mismatch",
        "first_mismatch": first_mismatch,
        "results": results,
    }
    return report, EXIT_OK if first_mismatch is None else EXIT_MISMATCH


def cmd_structure(args) -> tuple[dict, int]:
    m = _get_module(args)
    rep = structure_report(m, seed=args.seed)

    def cert_json(cert):
        out = {"status": cert.status}
        if cert.witness is not None:
            out["witness"] = list(cert.witness)
            out["witness_rank"] = cert.witness_rank
        if cert.excluded_primes:
            out["excluded_primes"] = list(cert.excluded_primes)
        if cert.reason:
            out["reason"] = cert.reason
        if cert.combinations:
            out["certified_degrees"] = sorted({i for (_, i) in cert.combinations})
        return out

    report = {
        "input": args.catalog or args.module,
        "seed": args.seed,
        "grk": rep.grk,
        "gor": rep.gor,
        "o_maximal": cert_json(rep.o_maximal),
        "k_minimal": cert_json(rep.k_minimal),
        "constant_rank": rep.k_minimal.status,
        "constant_orbit_dim": rep.o_maximal.status,
        "template_key": rep.template_key,
        "template": str(rep.template) if rep.template is not None else None,
    }
    return report, EXIT_OK


def _get_algebra(args, exponential: bool) -> NilpotentAlgebra:
    """The algebra of --algebra KEY or --module FILE, its module built once.

    With `exponential`, a prime below the bound p >= d of the exponential is
    refused before the adjoint module and the product spans are built
    (seconds for n(12)), and so before any route runs.  A nonzero trace is
    left to the build, which refuses a non-nilpotent algebra first.
    """
    if args.algebra:
        m = catalog_module(args.algebra)
    elif args.module:
        data = _read_json(args.module)
        m = module_from_json(data)
        if not data.get("lie"):
            raise InputError('algebra documents must set "lie": true')
    else:
        raise InputError("provide --algebra KEY or --module FILE")
    if exponential and _traces_vanish(m.basis) and min(args.p) < m.d:
        raise InputError(f"need p >= {m.d} for the exponential")
    return NilpotentAlgebra(m)


def _bridge(via_route, alg, p, args, direct) -> tuple[dict, bool]:
    """One prime's kernel-average count, violated hypotheses caught as notes,
    beside `direct()` (skipped if None): (direct counts or None, entry fields).
    Returns the entry, and whether the counts differ with no note (a bug)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        via = via_route(alg, p, args.n_max, args.budget)
    notes = [str(w.message) for w in caught]
    counts, entry = direct() if direct else (None, {})
    entry.update(p=p, coefficients=[_rat(c) for c in via], warnings=notes)
    if counts is None or [Fraction(v) for v in counts] == via:
        return entry, False
    if notes:
        entry["status"] = "hypotheses violated; counts differ"
    return entry, not notes


def cmd_cc(args) -> tuple[dict, int]:
    if args.algebra:
        # before the algebra and its adjoint are built; building is level-1
        # work, so level 1 is read even at n_max 0
        sizes = adjoint_sizes(args.algebra)
        for p in args.p:
            check_budget(sizes, p, max(args.n_max, 1), "auto", args.budget)
    alg = _get_algebra(args, not args.skip_direct)
    results = []
    internal_problem = False
    first_mismatch = None
    for p in args.p:

        def direct():
            try:
                counts = cc_coefficients_direct(alg, p, args.n_max, args.budget)
            except BudgetExceededError as exc:
                return None, {"direct": None, "direct_skipped": str(exc)}
            return counts, {"direct": counts}

        entry, bad = _bridge(cc_via_ask, alg, p, args, None if args.skip_direct else direct)
        internal_problem |= bad
        if args.algebra:
            try:
                table = closed_form(f"cc:{args.algebra}").formula
                entry["table"] = [_rat(c) for c in expand(table, p, args.n_max + 1).coeffs]
                for n, (a, b) in enumerate(zip(entry["table"], entry["coefficients"])):
                    if a != b and first_mismatch is None:
                        first_mismatch = {"p": p, "n": n}
            except InputError:
                pass
        results.append(entry)
    report = {
        "input": args.algebra or args.module,
        "n_max": args.n_max,
        "seed": args.seed,
        "first_mismatch": first_mismatch,
        "results": results,
    }
    if internal_problem:
        return report, EXIT_INTERNAL
    return report, EXIT_OK if first_mismatch is None else EXIT_MISMATCH


def _oc_budget(d: int, args) -> None:
    """The point count p^(d * max(n_max, 1)) of every prime against the budget.

    The count rises with n, so the deepest level decides; building the
    generators is level-1 work, so level 1 is read even at n_max 0.
    """
    for p in args.p:
        check_power(p, d * max(args.n_max, 1), args.budget)


def _group_source(args):
    """The source's group at a prime, and its algebra (None if not exp).  Its
    size meets the budget once, before any build; a catalog algebra's is read
    off its row before the algebra and its adjoint module are built, and
    checked against the bound of the exponential (_get_algebra)."""
    if args.gl is not None:
        _oc_budget(args.gl, args)
        return (lambda p: gl_generators(args.gl, p, max(args.n_max, 1))), None
    if args.neg1:
        group = GroupGenSet(1, (IntMatrix([[-1]]),), "neg1")
    elif args.swap:
        group = GroupGenSet(2, (IntMatrix([[0, 1], [1, 0]]),), "swap")
    elif args.group:
        data = _read_json(args.group)
        d, gens = _document(data, "group", "d", "generators")
        group = GroupGenSet(d, tuple(gens), str(data.get("label", "")))
    elif args.algebra:
        _oc_budget(catalog_row(args.algebra)[1], args)
        alg = _get_algebra(args, True)
        return (lambda p: exp_group(alg, p, args.n_max)), alg
    else:
        raise InputError("provide a group source (--group/--gl/--neg1/--swap/--algebra)")
    _oc_budget(group.d, args)
    return (lambda p: group), None


def cmd_oc(args) -> tuple[dict, int]:
    group_at, alg = _group_source(args)
    results = []
    internal_problem = False
    for p in args.p:
        def orbits():
            group = group_at(p)
            counts = oc_coefficients(group, p, args.n_max, args.budget)
            return counts, {"orbits": counts} if alg else {"orbits": counts, "label": group.label}

        if alg is None:
            results.append({"p": p, **orbits()[1]})
            continue
        entry, bad = _bridge(oc_via_ask, alg, p, args, orbits)
        internal_problem |= bad
        results.append(entry)
    report = {"n_max": args.n_max, "seed": args.seed, "results": results}
    return report, EXIT_INTERNAL if internal_problem else EXIT_OK


def cmd_feqn(args) -> tuple[dict, int]:
    w = parse_rational(args.form)
    for poly in (w.num, w.den):
        for c in poly.terms.values():
            _fits(c)
    holds = functional_equation_check(w, args.d)
    report = {"form": str(w), "d": args.d, "holds": holds}
    return report, EXIT_OK if holds else EXIT_MISMATCH


def cmd_catalog(args) -> tuple[dict, int]:
    keys = [args.key] if args.key else catalog_keys()
    entries = []
    for key in keys:
        e = closed_form(key)
        entries.append(
            {
                "key": e.key,
                "kind": e.kind,
                "formula": str(e.formula) if e.formula is not None else None,
                "module": e.module_key,
                "validity": e.validity,
                "tested_at": list(e.tested_at),
                "notes": e.notes,
            }
        )
    return {"results": entries}, EXIT_OK


def cmd_brenti(args) -> tuple[dict, int]:
    poly = brenti_polynomial(args.n)
    report = {
        "n": args.n,
        "polynomial": {f"{i},{j}": c for (i, j), c in sorted(poly.items())},
    }
    if not args.order:
        return report, EXIT_OK
    holds = brenti_identity_check(args.n, args.order)
    report.update(identity_order=args.order, identity_holds=holds)
    return report, EXIT_OK if holds else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse fills a
    fresh namespace, so a later call sees none of an earlier one's values."""
    parser = argparse.ArgumentParser(
        prog="askzeta",
        description="Exact kernel-average zeta coefficients over Z/p^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler, counts=True, csv=False):
        """The options every subcommand shares, and its report step; csv is
        offered to the coefficient and orbit streams only."""
        if counts:
            sp.add_argument("--n-max", type=_at_least(0), default=2)
            sp.add_argument("--p", type=_primes, default="3")
            sp.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", type=str, default=None)
        formats = ("json", "csv", "text") if csv else ("json", "text")
        sp.add_argument("--format", choices=formats, default="json")
        sp.set_defaults(func=functools.partial(_report, handler))

    sp = sub.add_parser("ask", help="coefficient stream of a module")
    sp.add_argument("--catalog", type=str)
    sp.add_argument("--module", type=str)
    sp.add_argument("--method", choices=("auto", "both", *VIEWS), default="auto")
    sp.add_argument("--jobs", type=_at_least(1), default=1)
    common(sp, cmd_ask, csv=True)

    sp = sub.add_parser("verify", help="check coefficients against a closed form")
    sp.add_argument("--catalog", type=str)
    sp.add_argument("--module", type=str)
    sp.add_argument("--formula", type=str)
    common(sp, cmd_verify)

    sp = sub.add_parser("structure", help="structural certificates and template")
    sp.add_argument("--catalog", type=str)
    sp.add_argument("--module", type=str)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, cmd_structure, counts=False)

    sp = sub.add_parser("cc", help="conjugacy class counts of a unipotent group")
    sp.add_argument("--algebra", type=str)
    sp.add_argument("--module", type=str)
    sp.add_argument("--skip-direct", action="store_true")
    common(sp, cmd_cc, csv=True)

    sp = sub.add_parser("oc", help="orbit counts of a linear group")
    sp.add_argument("--group", type=str)
    sp.add_argument("--algebra", type=str)
    sp.add_argument("--gl", type=_at_least(1))
    sp.add_argument("--neg1", action="store_true")
    sp.add_argument("--swap", action="store_true")
    common(sp, cmd_oc, csv=True)

    sp = sub.add_parser("feqn", help="functional equation check for a formula")
    sp.add_argument("--form", type=str, required=True)
    sp.add_argument("--d", type=_at_least(0), required=True)
    common(sp, cmd_feqn, counts=False)

    sp = sub.add_parser("catalog", help="export the closed-form catalog")
    sp.add_argument("--key", type=str)
    common(sp, cmd_catalog, counts=False)

    sp = sub.add_parser("brenti", help="signed-permutation polynomial and identity")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--order", type=_at_least(0), default=0)
    common(sp, cmd_brenti, counts=False)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: a usage error (2), or 0 after --help
        return exc.code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AskZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
