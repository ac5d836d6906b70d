"""CLI behavior: schemas, determinism, exit codes, formats."""

import argparse
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from askzeta.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    build_parser,
    main,
    module_from_json,
    module_to_json,
)
from askzeta import (
    BudgetExceededError,
    InternalConsistencyError,
    ask_series,
    catalog,
    catalog_algebra,
    catalog_keys,
    catalog_module,
    cli,
    closed_form,
    engine,
    expand,
    grouporbits,
    parse_rational,
)
from askzeta.catalog import _FAMILIES, adjoint_sizes, catalog_row
from askzeta.errors import check_power
from conftest import algebra_keys


@pytest.fixture
def builds(monkeypatch):
    """Labels of the catalog modules built while the test runs."""
    built = []
    real = catalog.MatrixModule

    def spy(d, e, basis, label=""):
        built.append(label)
        return real(d, e, basis, label)

    monkeypatch.setattr(catalog, "MatrixModule", spy)
    return built


@pytest.fixture
def module_file(tmp_path):
    doc = {
        "schema": "askzeta/1",
        "d": 2,
        "e": 2,
        "basis": [[[0, 1], [0, 0]]],
        "label": "upper",
    }
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSchema:
    def test_roundtrip(self):
        m = catalog_module("band(2)")
        doc = module_to_json(m)
        again = module_from_json(doc)
        assert again == m
        assert module_to_json(again) == doc

    def test_missing_schema_rejected(self):
        with pytest.raises(Exception):
            module_from_json({"d": 1, "e": 1, "basis": [[[1]]]})

    def test_file_input(self, module_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["ask", "--module", module_file, "--p", "3", "--n-max", "1",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["results"][0]["coefficients"][1] == {"num": "5", "den": "1"}


MODULE_DOC = {"schema": "askzeta/1", "d": 1, "e": 1, "basis": [[[1]]]}
GROUP_DOC = {"schema": "askzeta/1", "d": 2, "generators": [[[1, 1], [0, 1]]]}


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "change",
        [
            {"basis": [[["x"]]]},
            {"basis": 5},
            {"basis": [[[1.5]]]},
            {"basis": [[[True]]]},
            {"basis": [[1]]},
            {"basis": [[[1, 2], [3]]]},
            {"d": "1"},
            {"e": True},
        ],
    )
    def test_module_document(self, tmp_path, capsys, change):
        path = tmp_path / "module.json"
        path.write_text(json.dumps({**MODULE_DOC, **change}))
        assert main(["ask", "--module", str(path), "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [[1, 2], "text", {**MODULE_DOC, "lie": True, "basis": {}}])
    def test_algebra_document(self, tmp_path, capsys, document):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(document))
        assert main(["cc", "--module", str(path), "--p", "5", "--n-max", "1"]) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"generators": [[[1, "a"], [0, 1]]]},
            {"generators": 5},
            {"generators": [[[1.0, 0], [0, 1]]]},
            {"d": "2"},
            {"d": -1, "generators": []},
        ],
    )
    def test_group_document(self, tmp_path, capsys, change):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**GROUP_DOC, **change}))
        assert main(["oc", "--group", str(path), "--p", "5", "--n-max", "1"]) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ask", "--module", "FILE", "--p", "3"],
            ["cc", "--module", "FILE", "--p", "5"],
            ["oc", "--group", "FILE", "--p", "5"],
        ],
    )
    def test_deeply_nested_document(self, tmp_path, capsys, argv):
        # json.load descends once per array: 100,000 nested arrays raised
        # RecursionError, a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert main([*argv, "--n-max", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {path} nests too deeply to decode\n"

    def test_well_formed_group_document(self, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(GROUP_DOC))
        assert main(["oc", "--group", str(path), "--p", "5", "--n-max", "1"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ask", "--catalog", "so(3)"],
            ["verify", "--catalog", "n(3)"],
            ["structure", "--catalog", "diag(2)"],
            ["cc", "--algebra", "L_{3,2}"],
            ["oc", "--gl", "2"],
            ["feqn", "--form", "1/(1-T)", "--d", "1"],
            ["catalog"],
            ["brenti", "--n", "2"],
        ],
    )
    def test_negative_level(self, capsys, argv):
        assert main([*argv, "--n-max", "-1"]) == EXIT_INPUT
        assert "--n-max" in capsys.readouterr().err


class TestDeclaredOptions:
    """Every option a subcommand declares is read by its handler."""

    GROUP = {"schema": "askzeta/1", "d": 1, "generators": [[[-1]]], "label": "signs"}
    ALGEBRA = {"schema": "askzeta/1", "d": 2, "e": 2, "basis": [[[0, 1], [0, 0]]],
               "lie": True}

    def _argvs(self, tmp_path, module_file):
        group, algebra = tmp_path / "group.json", tmp_path / "algebra.json"
        group.write_text(json.dumps(self.GROUP))
        algebra.write_text(json.dumps(self.ALGEBRA))
        return [
            ["ask", "--catalog", "n(2)"],
            ["ask", "--module", module_file],
            ["verify", "--catalog", "n(2)", "--n-max", "1"],
            ["verify", "--module", module_file, "--formula", "1/(1 - T)", "--n-max", "1"],
            ["structure", "--catalog", "n(2)"],
            ["structure", "--module", module_file],
            ["cc", "--algebra", "n(2)", "--n-max", "1"],
            ["cc", "--module", str(algebra), "--n-max", "1"],
            ["oc", "--gl", "1", "--n-max", "1"],
            ["oc", "--neg1", "--n-max", "1"],
            ["oc", "--swap", "--n-max", "1"],
            ["oc", "--group", str(group), "--n-max", "1"],
            ["oc", "--algebra", "n(2)", "--n-max", "1"],
            ["feqn", "--form", "1/(1-T)", "--d", "1"],
            ["catalog", "--key", "n(2)"],
            ["brenti", "--n", "2", "--order", "2"],
        ]

    def test_every_declared_option_is_read(self, tmp_path, module_file, capsys):
        class Recording:
            def __init__(self, args):
                object.__setattr__(self, "_args", args)
                object.__setattr__(self, "read", set())

            def __getattr__(self, name):
                self.read.add(name)
                return getattr(self._args, name)

        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        read = {name: set() for name in sub.choices}
        for argv in self._argvs(tmp_path, module_file):
            args = Recording(parser.parse_args(argv))
            args.func(args)
            read[argv[0]] |= args.read
        capsys.readouterr()
        unread = sorted(
            f"{name} {action.option_strings[0]}"
            for name, sp in sub.choices.items()
            for action in sp._actions
            if action.option_strings and action.dest != "help" and action.dest not in read[name]
        )
        assert unread == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--catalog", "n(2)", "--jobs", "2"],
            ["structure", "--catalog", "n(2)", "--budget", "5"],
            ["feqn", "--form", "1/(1-T)", "--d", "1", "--seed", "3"],
            ["catalog", "--jobs", "9"],
            ["brenti", "--n", "2", "--n-max", "7"],
        ],
    )
    def test_an_option_no_handler_reads_is_a_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(
                ["ask", "--catalog", "so(3)", "--p", "3,5", "--n-max", "2",
                 "--output", str(target)]
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_flag_matches_serial(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["ask", "--catalog", "n(3)", "--p", "3,5", "--n-max", "2",
              "--output", str(a), "--jobs", "1"])
        main(["ask", "--catalog", "n(3)", "--p", "3,5", "--n-max", "2",
              "--output", str(b), "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_verify_match(self, capsys):
        assert main(["verify", "--catalog", "n(3)", "--p", "3,5", "--n-max", "2"]) == EXIT_OK
        capsys.readouterr()

    def test_verify_corrupted_formula_is_a_finding(self, module_file, capsys):
        # a wrong closed form must exit 1 (mismatch), never 4 (internal)
        code = main(
            ["verify", "--module", module_file, "--formula", "1/(1 - q*T)",
             "--p", "3", "--n-max", "2"]
        )
        assert code == EXIT_MISMATCH
        report = json.loads(capsys.readouterr().out)
        assert report["first_mismatch"] == {"p": 3, "n": 1}

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": 1}))
        assert main(["ask", "--module", str(bad), "--p", "3"]) == EXIT_INPUT
        capsys.readouterr()

    def test_unknown_catalog_key(self, capsys):
        assert main(["ask", "--catalog", "bogus(9)", "--p", "3"]) == EXIT_INPUT
        capsys.readouterr()

    def test_budget_exit(self, capsys):
        code = main(["ask", "--catalog", "mat(3,3)", "--p", "5", "--n-max", "3",
                     "--budget", "100"])
        assert code == EXIT_BUDGET
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, view, level",
        [
            # auto runs the orbit view of mat(3,3): 5^3 points at n = 1
            (["--catalog", "mat(3,3)", "--p", "5", "--n-max", "3"], "orbit", 1),
            # both: the average view of mat(2,2) trips first, 3^8 points at n = 2
            (["--catalog", "mat(2,2)", "--p", "3", "--n-max", "3", "--method", "both"],
             "average", 2),
            (["--catalog", "so(3)", "--p", "3", "--n-max", "3", "--method", "orbit"],
             "orbit", 2),
        ],
    )
    def test_budget_names_view_and_level(self, capsys, argv, view, level):
        assert main(["ask", *argv, "--budget", "100"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:")
        assert f"in the {view} view at level n = {level}" in err

    @pytest.mark.parametrize("argv", [
        ["ask", "--catalog", "mat(100,100)"],
        ["ask", "--catalog", "sym(80)"],
        ["ask", "--catalog", "band(300)"],
        ["verify", "--catalog", "sym(80)"],
    ])
    def test_budget_fires_before_the_build(self, capsys, builds, argv):
        assert main([*argv, "--p", "3", "--n-max", "1"]) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert builds == []

    @pytest.mark.parametrize("argv", [
        ["ask", "--catalog", "mat(100,100)"],
        ["ask", "--catalog", "sym(40)"],
        ["verify", "--catalog", "sym(80)"],
    ])
    def test_budget_fires_before_the_build_at_level_zero(self, capsys, builds, argv):
        # building the module is level-1 work, so --n-max 0 checks level 1
        start = time.perf_counter()
        assert main([*argv, "--p", "3", "--n-max", "0"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
        assert "at level n = 1" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize("command", ["ask", "verify"])
    def test_level_zero_within_the_budget_builds(self, capsys, builds, command):
        assert main([command, "--catalog", "mat(2,2)", "--p", "3", "--n-max", "0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        if command == "ask":
            assert report["results"][0]["coefficients"] == [{"num": "1", "den": "1"}]
        else:
            assert report["status"] == "match"
        assert builds == ["mat(2,2)"]

    @pytest.mark.parametrize("command", [["ask"], ["verify", "--formula", "1/(1-T)"]])
    def test_budget_before_the_build_is_the_engine_budget(
        self, capsys, builds, tmp_path, command
    ):
        # p = 3 fits and p = 5 does not: the check before the build runs the
        # primes in order, as the engine does after building the module file
        path = tmp_path / "sym3.json"
        path.write_text(json.dumps(module_to_json(catalog_module("sym(3)"))))
        builds.clear()
        argv = [*command, "--p", "3,5", "--n-max", "1", "--budget", "100"]
        assert main([*argv, "--catalog", "sym(3)"]) == EXIT_BUDGET
        assert builds == []
        before = capsys.readouterr().err
        assert main([*argv, "--module", str(path)]) == EXIT_BUDGET
        assert capsys.readouterr().err == before
        assert "125 points" in before and "orbit view at level n = 1" in before

    def test_verify_reads_the_formula_before_the_budget(self, capsys, builds):
        argv = ["--catalog", "sym(30)", "--formula", "(", "--p", "3", "--n-max", "1"]
        assert main(["verify", *argv]) == EXIT_INPUT
        assert builds == []

    def test_verify_budget_falls_back_to_auto(self, capsys, builds):
        # both needs 3^4 points for the average view of mat(2,2); auto needs 3^2,
        # and --n-max 0 reads level 1 as well
        for n_max in ("1", "0"):
            builds.clear()
            argv = ["--catalog", "mat(2,2)", "--p", "3", "--n-max", n_max, "--budget", "50"]
            assert main(["verify", *argv]) == EXIT_OK
            assert builds == ["mat(2,2)"]

    def test_nested_power_is_an_input_error(self, capsys):
        start = time.perf_counter()
        assert main(["feqn", "--form", "((1+q+T)^40)^40", "--d", "1"]) == EXIT_INPUT
        assert time.perf_counter() - start < 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [250, 5000])
    def test_deeply_nested_formula_is_an_input_error(self, capsys, depth):
        # the parser descends a few frames per parenthesis: 250 pairs raised
        # RecursionError, a traceback and exit 1
        form = "(" * depth + "1/(1-T)" + ")" * depth
        assert main(["feqn", "--form", form, "--d", "0"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: parentheses nested {depth + 1} deep are too deep to parse\n"

    def test_nested_formula_within_the_limit(self, capsys):
        form = "(" * 100 + "1/(1-T)" + ")" * 100
        assert main(["feqn", "--form", form, "--d", "0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "command": "feqn",
            "d": 0,
            "form": "1/(1 - T)",
            "holds": True,
            "results": [],
            "schema": "askzeta/1",
        }

    @pytest.mark.parametrize(
        "form",
        [
            "(1+q+T)^60*(1+q+T)^60*(1+q+T)^60*(1+q+T)^60",
            "(1+q+T)^60/(1+q+T)^-60/(1+q+T)^-60",
            "1/(1+q+T)^60+1/(1+q+T)^60+1/(1+q+T)^60",
        ],
    )
    def test_product_of_powers_is_an_input_error(self, capsys, form):
        # each power passes the bounds; the product, quotient or sum would not
        start = time.perf_counter()
        assert main(["feqn", "--form", form, "--d", "1"]) == EXIT_INPUT
        assert time.perf_counter() - start < 2
        assert "input error:" in capsys.readouterr().err

    def test_feqn_codes(self, capsys):
        assert main(["feqn", "--form", "(1-q^-2*T)/((1-T)*(1-T))", "--d", "2"]) == EXIT_OK
        assert main(["feqn", "--form", "1/(1-T)", "--d", "1"]) == EXIT_MISMATCH
        capsys.readouterr()

    @pytest.mark.parametrize(
        "formula",
        ["1/0", "(q-q)^-1", "0^-1", "q^99999999", "q^-99999999", "q^(1001)", "9" * 5000],
    )
    def test_bad_formula_is_an_input_error(self, module_file, capsys, formula):
        assert main(["feqn", "--form", formula, "--d", "1"]) == EXIT_INPUT
        assert main(
            ["verify", "--module", module_file, "--formula", formula, "--p", "3"]
        ) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

    def test_report_value_too_long_to_print(self, tmp_path, capsys):
        # ask = 3^10000 at n = 1 has 4,772 digits; stripping the kernel with
        # an identity block beside the generators took about 30 s here
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**MODULE_DOC, "d": 10000, "basis": []}))
        start = time.perf_counter()
        assert main(["ask", "--module", str(path), "--p", "3", "--n-max", "1"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "15850 bits" in err

    @pytest.mark.parametrize("key, d", [("zero(3000,1)", 3000), ("zero(1,3000)", 1)])
    def test_zero_modules_strip_at_the_cost_of_their_generators(self, key, d, capsys):
        # auto strips every view; with an identity block beside the
        # generators the strip of the 3000-point view took 2 s and 200 MB
        import tracemalloc

        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(["ask", "--catalog", key, "--p", "3", "--n-max", "1"]) == EXIT_OK
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1
        assert peak < 10 * 2**20
        # every kernel is all of (Z/3)^d
        coefficients = json.loads(capsys.readouterr().out)["results"][0]["coefficients"]
        assert coefficients[1] == {"num": str(3**d), "den": "1"}

    def test_exponential_prime_checked_before_the_algebra_is_built(self, capsys):
        # building n(12) (its adjoint module and product spans) takes seconds
        start = time.perf_counter()
        assert main(["oc", "--algebra", "n(12)", "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "input error: need p >= 12 for the exponential\n"

    def test_cc_checks_the_exponential_prime_before_either_route(self, capsys, monkeypatch):
        # the direct route needs p >= 4 for n(4); neither route may start
        def unreachable(*args):
            raise AssertionError("the kernel-average route ran")

        monkeypatch.setattr(cli, "cc_via_ask", unreachable)
        assert main(["cc", "--algebra", "n(4)", "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: need p >= 4 for the exponential\n"
        monkeypatch.undo()
        # without the direct route the run goes on, and warns
        argv = ["cc", "--algebra", "n(4)", "--p", "3", "--n-max", "1", "--skip-direct"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"][0]["warnings"]

    @pytest.mark.parametrize(
        "argv, bits",
        [
            (["ask", "--catalog", "zero(10000,1)", "--method", "orbit"], 15850),
            (["oc", "--gl", "100000"], 158497),
        ],
    )
    def test_budget_count_too_long_to_print(self, capsys, argv, bits):
        # 3^10000 and 3^100000 points: the message gives the count's bit length
        assert main([*argv, "--p", "3", "--n-max", "1"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:")
        assert f"enumeration of a {bits}-bit number of points" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["ask", "--catalog", "zero(100000000,1)", "--method", "orbit", "--p", "3", "--n-max", "1"],
             "3^100000000"),
            (["oc", "--gl", "100000000", "--p", "3", "--n-max", "1"], "3^100000000"),
            (["oc", "--swap", "--p", "3", "--n-max", "100000000"], "3^200000000"),
            (["brenti", "--n", "100000000"], "2^100000000*100000000!"),
            (["brenti", "--n", "1000000"], "2^1000000*1000000!"),
        ],
    )
    def test_budget_count_too_large_to_build(self, capsys, argv, named):
        # the exponent decides, and a count of more than 2^20 bits is named
        # in the unit that the budget counts
        t0 = time.monotonic()
        assert main(argv) == EXIT_BUDGET
        assert time.monotonic() - t0 < 2
        unit = "signed permutations" if argv[0] == "brenti" else "points"
        assert f"enumeration of {named} {unit} exceeds budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [0, 1, 2, 8, 9, 26, 27, 28, 3**20, 3**20 - 1, 2**40])
    def test_exponent_decides_at_the_budget(self, budget):
        for p in (2, 3, 5):
            for e in range(45):
                if p**e <= budget:
                    check_power(p, e, budget)
                    continue
                with pytest.raises(BudgetExceededError) as info:
                    check_power(p, e, budget, view="orbit", level=2)
                assert (info.value.needed, info.value.view, info.value.level) == (p**e, "orbit", 2)

    def test_budget_error_keeps_the_exact_count(self):
        exc = BudgetExceededError(3**10000, 1)
        assert exc.needed == 3**10000
        assert "a 15850-bit number of points" in str(exc)
        assert "of 243 points" in str(BudgetExceededError(3**5, 1))

    def test_feqn_form_too_long_to_print(self, capsys):
        # (10^1000)^5 parses to one coefficient of 16,610 bits
        assert main(["feqn", "--form", "(10^1000)^5", "--d", "1"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "16610 bits" in err

    def test_structure_of_a_hard_composite_is_over_budget(self, tmp_path, capsys):
        # 1000000007 * 1000000009: no factor below the trial-division limit
        path = tmp_path / "composite.json"
        doc = {**MODULE_DOC, "basis": [[[1000000016000000063]]]}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["structure", "--module", str(path)]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded:")

    def test_structure_bounds_the_symbolic_rank(self, capsys):
        # the average views of so(7) and so(9) are rank-deficient, so their
        # generic rank comes from the symbolic elimination: so(7)'s takes
        # about 10^5 term operations, and so(9)'s ran for minutes uncapped
        start = time.perf_counter()
        assert main(["structure", "--catalog", "so(9)"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: a symbolic rank of ")
        assert err.endswith(" term operations exceeds budget 1000000\n")
        assert main(["structure", "--catalog", "so(7)"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["grk"] == 6

    @pytest.mark.parametrize("key", ["so(3)", "so (3)", " so( 3 ) "])
    def test_catalog_key_whitespace(self, capsys, key):
        assert main(["ask", "--catalog", key, "--p", "3", "--n-max", "1"]) == EXIT_OK
        assert main(["verify", "--catalog", key, "--p", "3", "--n-max", "1"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["n(-3)", "zero(2,-1)", "sp(-2)", "mat(-1,2)", "tr(-2)"])
    def test_negative_family_parameter(self, capsys, key):
        # catalog export and the module builders check family keys the same way
        assert main(["catalog", "--key", key]) == EXIT_INPUT
        assert main(["ask", "--catalog", key, "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert "negative parameter" in capsys.readouterr().err

    def test_export_and_module_reject_the_same_family_keys(self, capsys):
        # one parameter check serves both commands, at every small parameter
        differ = []
        for head, (_, arity, *_) in _FAMILIES.items():
            for params in itertools.product(range(4), repeat=arity):
                key = f"{head}({','.join(map(str, params))})"
                exported = main(["catalog", "--key", key])
                built = main(["ask", "--catalog", key, "--n-max", "0"])
                if (exported == EXIT_INPUT) != (built == EXIT_INPUT):
                    differ.append(key)
        capsys.readouterr()
        assert differ == []

    @pytest.mark.parametrize("key, reason", [
        ("sp(0)", "positive even"), ("sp(3)", "positive even"), ("band(0)", ">= 1"),
    ])
    def test_family_condition(self, capsys, key, reason):
        assert main(["catalog", "--key", key]) == EXIT_INPUT
        assert reason in capsys.readouterr().err
        assert main(["ask", "--catalog", key, "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["oc:gl(0)", "oc:gl(-1)", "oc:gl(x)", "oc:gl()", "oc:gl(2,3)", "oc:neg1(2)"]
    )
    def test_oc_key_parameters(self, capsys, key):
        # the oc:gl row takes one size >= 1, as `oc --gl` does
        assert main(["catalog", "--key", key]) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["oc:gl(1)", "oc:gl(2)", "oc: gl( 3 ) "])
    def test_oc_gl_keys_export(self, capsys, key):
        assert main(["catalog", "--key", key]) == EXIT_OK
        entry = json.loads(capsys.readouterr().out)["results"][0]
        assert entry["formula"] == str(parse_rational("1/(1 - T)^2"))

    def test_every_catalog_key_exports(self, capsys):
        for key in catalog_keys():
            assert main(["catalog", "--key", key]) == EXIT_OK, key
            assert json.loads(capsys.readouterr().out)["results"][0]["key"] == key

    def test_bad_prime_list(self, capsys):
        assert main(["ask", "--catalog", "n(2)", "--p", "3;5"]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("primes", ["4", "1", "0", "-3", ","])
    @pytest.mark.parametrize(
        "argv",
        [
            ["ask", "--catalog", "so(3)"],
            ["verify", "--catalog", "so(3)"],
            ["cc", "--algebra", "L_{3,2}", "--skip-direct"],
            ["oc", "--gl", "2"],
        ],
    )
    def test_p_must_list_primes(self, capsys, argv, primes):
        # Z/p^n is a quotient of a discrete valuation ring only for a prime p
        assert main([*argv, "--p", primes, "--n-max", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --p:" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_is_a_positive_integer(self, capsys, jobs):
        assert main(["ask", "--catalog", "mat(2,2)", "--jobs", jobs]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --jobs:" in captured.err

    @pytest.mark.parametrize("command", ["ask", "verify", "cc", "oc"])
    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_budget_is_a_positive_integer(self, capsys, command, budget):
        source = ["--algebra", "n(2)"] if command in ("cc", "oc") else ["--catalog", "mat(1,1)"]
        argv = [command, *source, "--p", "3", "--n-max", "0", "--budget", budget]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget:" in captured.err

    def test_jobs_start_at_most_one_process_per_cpu(self, capsys, monkeypatch):
        # one payload per prime asks for one process each; a serial stand-in
        # for the pool records how many processes each pool would start
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, payloads):
                return [worker(payload) for payload in payloads]

        monkeypatch.setattr("multiprocessing.Pool", SerialPool)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        argv = ["ask", "--catalog", "mat(1,1)", "--p", "2,3,5,7,11", "--n-max", "1"]
        assert main([*argv, "--jobs", "5"]) == EXIT_OK
        assert started == [2]
        assert main([*argv, "--jobs", "1"]) == EXIT_OK
        assert started == [2]
        capsys.readouterr()

    def test_one_process_reads_no_cpu_count(self, capsys, monkeypatch):
        # the CPU count matters only where more than one process could start
        def no_cpu_count():
            raise AssertionError("os.cpu_count called")

        monkeypatch.setattr("os.cpu_count", no_cpu_count)
        assert engine._run_partials(abs, [-1, -2, -3], 1) == [1, 2, 3]
        assert engine._run_partials(abs, [-1], 4) == [1]
        argv = ["ask", "--catalog", "so(3)", "--p", "3,5", "--n-max", "2", "--jobs", "1"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()

    def test_views_that_disagree_exit_4(self, capsys, monkeypatch):
        # the average and orbit routes must agree at every level
        real = engine._view_series

        def skewed(m, p, top, view, jobs):
            levels = real(m, p, top, view, jobs)
            return levels if view == "orbit" else levels[:-1] + [levels[-1] + 1]

        monkeypatch.setattr(engine, "_view_series", skewed)
        with pytest.raises(InternalConsistencyError, match=r"\(p, n\) = \(3, 2\)"):
            ask_series(catalog_module("so(3)"), 3, 2, "both")
        argv = ["ask", "--catalog", "so(3)", "--p", "3", "--n-max", "2", "--method", "both"]
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(p, n) = (3, 2)" in captured.err
        assert main([*argv[:-2], "--method", "orbit"]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv, direct",
        [
            (["cc", "--algebra", "L_{3,2}"], "cc_coefficients_direct"),
            (["oc", "--algebra", "L_{3,2}"], "oc_coefficients"),
        ],
    )
    def test_direct_count_off_by_one_exits_4(self, capsys, monkeypatch, argv, direct):
        # the kernel-average and direct counts differ with no violated
        # hypothesis to explain it: a bug, not a finding
        real = getattr(cli, direct)
        monkeypatch.setattr(cli, direct, lambda *args: [c + 1 for c in real(*args)])
        argv = [*argv, "--p", "5", "--n-max", "1"]
        assert main(argv) == EXIT_INTERNAL
        assert json.loads(capsys.readouterr().out)["results"][0]["warnings"] == []
        monkeypatch.setattr(cli, direct, real)
        assert main(argv) == EXIT_OK
        capsys.readouterr()

    def test_brenti_order_is_a_level(self, capsys):
        assert main(["brenti", "--n", "3", "--order", "-5"]) == EXIT_INPUT
        assert "argument --order:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-1", "two"])
    def test_brenti_size_is_checked_by_the_parser(self, capsys, n):
        assert main(["brenti", "--n", n]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n:" in captured.err

    def test_feqn_dimension_is_checked_by_the_parser(self, capsys):
        # a malformed dimension is a usage error, not a failed equation
        assert main(["feqn", "--form", "1/(1-T)", "--d", "-3"]) == EXIT_INPUT
        assert "argument --d:" in capsys.readouterr().err
        assert main(["feqn", "--form", "1/(1-T)", "--d", "0"]) == EXIT_OK
        capsys.readouterr()

    def test_brenti_order_is_bounded(self, capsys):
        start = time.perf_counter()
        assert main(["brenti", "--n", "1", "--order", "100000000"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert main(["brenti", "--n", "6", "--order", "1000"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["identity_holds"] is True

    def test_brenti_at_the_largest_n(self, capsys):
        # 2^8 * 8! signed permutations, counted by insertion, not one by one
        start = time.perf_counter()
        assert main(["brenti", "--n", "8"]) == EXIT_OK
        assert time.perf_counter() - start < 2
        counts = json.loads(capsys.readouterr().out)["polynomial"].values()
        assert sum(counts) == 2**8 * math.factorial(8)


ONE_PER_COMMAND = [
    ["ask", "--catalog", "n(2)", "--n-max", "1"],
    ["verify", "--catalog", "n(2)", "--n-max", "1"],
    ["structure", "--catalog", "n(2)"],
    ["cc", "--algebra", "n(2)", "--n-max", "1"],
    ["oc", "--swap", "--n-max", "1"],
    ["feqn", "--form", "1/(1-T)", "--d", "1"],
    ["catalog", "--key", "n(2)"],
    ["brenti", "--n", "2"],
]


class TestReportStep:
    """One step stamps and writes every subcommand's report."""

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_schema_and_command(self, capsys, argv):
        assert main(argv) in (EXIT_OK, EXIT_MISMATCH)
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "askzeta/1"
        assert report["command"] == argv[0]
        assert isinstance(report["results"], list)
        assert main([*argv, "--format", "text"]) in (EXIT_OK, EXIT_MISMATCH)
        assert capsys.readouterr().out.startswith(f"command: {argv[0]}\n")

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_csv_only_for_streams(self, capsys, argv):
        code = main([*argv, "--format", "csv"])
        captured = capsys.readouterr()
        if argv[0] in ("ask", "cc", "oc"):
            assert code == EXIT_OK
            assert captured.out.splitlines()[1:] != []
        else:
            assert code == EXIT_INPUT
            assert captured.out == ""
            assert "argument --format: invalid choice: 'csv'" in captured.err


class TestColdStart:
    def test_cli_imports_no_dataclasses(self):
        # each command is one process: dataclasses and the inspect, ast and
        # dis it loads were half the cost of importing askzeta.cli
        src = Path(cli.__file__).parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import askzeta.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestCommands:
    def test_deep_ask(self, tmp_path):
        # 1,200 levels of diag(2) at p = 2: the walk keeps an explicit stack
        out = tmp_path / "deep.json"
        start = time.perf_counter()
        argv = ["ask", "--catalog", "diag(2)", "--p", "2", "--n-max", "1200",
                "--budget", str(10**800), "--output", str(out)]
        assert main(argv) == EXIT_OK
        assert time.perf_counter() - start < 10
        got = json.loads(out.read_text())["results"][0]["coefficients"]
        want = expand(closed_form("diag(2)").formula, 2, 1201).coeffs
        assert got == [{"num": str(c.numerator), "den": str(c.denominator)} for c in want]

    def test_every_view_is_a_method(self, capsys):
        # auto runs the transpose view of mat(2,1); naming it gives the same report
        reports = {}
        for method in ("auto", "transpose", "orbit", "average", "both"):
            argv = ["ask", "--catalog", "mat(2,1)", "--p", "3", "--n-max", "2"]
            assert main([*argv, "--method", method]) == EXIT_OK
            reports[method] = json.loads(capsys.readouterr().out)["results"]
        assert all(results == reports["auto"] for results in reports.values())
        assert reports["auto"][0]["coefficients"][1] == {"num": "11", "den": "3"}

    def test_structure(self, capsys):
        assert main(["structure", "--catalog", "band(2)"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["k_minimal"]["status"] == "certified"
        assert report["template_key"] == "constant_rank(3,2,2)"

    def test_cc_table_check(self, capsys):
        code = main(["cc", "--algebra", "L_{3,2}", "--p", "5", "--n-max", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        res = report["results"][0]
        assert res["coefficients"][1] == {"num": "29", "den": "1"}
        assert res["direct"] == [1, 29]
        assert res["table"][1] == {"num": "29", "den": "1"}

    def test_cc_skip_direct(self, capsys):
        code = main(["cc", "--algebra", "L_{5,4}", "--p", "5", "--n-max", "1",
                     "--skip-direct"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert "direct" not in report["results"][0]

    def test_cc_from_algebra_file(self, tmp_path, capsys):
        doc = {
            "schema": "askzeta/1",
            "d": 3,
            "e": 3,
            "basis": [
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            ],
            "label": "heis",
            "lie": True,
        }
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code = main(["cc", "--module", str(path), "--p", "5", "--n-max", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["direct"] == [1, 29]

    def test_cc_algebra_file_requires_lie_flag(self, module_file, capsys):
        assert main(["cc", "--module", module_file, "--p", "5"]) == EXIT_INPUT
        capsys.readouterr()

    def test_cc_hypothesis_violation_is_reported_not_fatal(self, tmp_path, capsys):
        doc = {
            "schema": "askzeta/1",
            "d": 2,
            "e": 2,
            "basis": [[[0, 5], [0, 0]]],
            "label": "non-isolated",
            "lie": True,
        }
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code = main(["cc", "--module", str(path), "--p", "5", "--n-max", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        res = report["results"][0]
        assert res["warnings"]
        assert res["status"] == "hypotheses violated; counts differ"
        assert res["direct"] == [1, 1]
        assert res["coefficients"][1] == {"num": "5", "den": "1"}

    def test_oc_helpers(self, capsys):
        assert main(["oc", "--gl", "2", "--p", "3", "--n-max", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 2, 3]
        assert main(["oc", "--swap", "--p", "3", "--n-max", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 6, 45]

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_oc_gl_below_one_is_an_input_error(self, capsys, size):
        assert main(["oc", "--gl", size, "--p", "3"]) == EXIT_INPUT
        assert "argument --gl:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, spied",
        [
            # GL(30) has 3 generators of 900 entries; 3^30 points
            (["--gl", "30", "--p", "3", "--n-max", "1"], "gl_generators"),
            # the direct count needs 7^12 points, the kernel average 7^10
            (["--algebra", "L_{5,9}", "--p", "7", "--n-max", "2", "--budget", "1000000000"],
             "oc_via_ask"),
            # the generators are built at level 1 even for --n-max 0
            (["--gl", "50", "--p", "3", "--n-max", "0"], "gl_generators"),
            # 11^8 points; building the algebra and its adjoint took 6 s
            (["--algebra", "n(8)", "--p", "11", "--n-max", "1"], "catalog_module"),
            # every prime is checked before the one build
            (["--algebra", "n(8)", "--p", "3,11", "--n-max", "1"], "catalog_module"),
        ],
    )
    def test_oc_budget_comes_before_any_work(self, capsys, monkeypatch, source, spied):
        calls = []
        monkeypatch.setattr(cli, spied, lambda *args: calls.append(args))
        start = time.perf_counter()
        assert main(["oc", *source]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert calls == []

    def test_cc_budget_comes_before_any_work(self, capsys, monkeypatch):
        # 11^27 points in the adjoint's average view; building n(8) and its
        # adjoint took 0.48 s before the check
        calls = []
        monkeypatch.setattr(cli, "catalog_module", lambda *args: calls.append(args))
        start = time.perf_counter()
        assert main(["cc", "--algebra", "n(8)", "--p", "11", "--n-max", "1"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert calls == []

    @pytest.mark.parametrize("command", ["cc", "oc"])
    def test_a_catalog_algebra_is_built_once(self, capsys, monkeypatch, command):
        # cc built the module once for the p >= d check and once more for
        # the algebra
        calls = []
        build = catalog_module

        def spy(key):
            calls.append(key)
            return build(key)

        monkeypatch.setattr(cli, "catalog_module", spy)
        monkeypatch.setattr(grouporbits, "catalog_module", spy)
        assert main([command, "--algebra", "L_{3,2}", "--p", "5", "--n-max", "1"]) == EXIT_OK
        assert calls == ["L_{3,2}"]
        capsys.readouterr()

    @pytest.mark.parametrize("key", [*algebra_keys(), "n(3)", "n(4)", "n(6)"])
    def test_cc_budget_reads_the_built_sizes(self, key):
        # the sizes the check reads off the row are those of the algebra and
        # adjoint that cc builds, so it refuses nothing their walk admits
        alg = catalog_algebra(key)
        assert len(catalog_row(key)[3]) == alg.dim
        assert adjoint_sizes(key) == alg.ad.sizes

    def test_cc_budget_reads_the_adjoints_rank(self, capsys):
        # L_{3,2} has a one-dimensional centre, so its adjoint module has rank
        # 2: 3^4 points at level 2 are within the budget, where its dimension
        # 3 would give 3^6; the direct count's group of order 3^6 is skipped
        argv = ["cc", "--algebra", "L_{3,2}", "--p", "3", "--n-max", "2", "--budget", "81"]
        assert main(argv) == EXIT_OK
        assert "direct_skipped" in json.loads(capsys.readouterr().out)["results"][0]
        assert main([*argv[:-1], "80"]) == EXIT_BUDGET
        capsys.readouterr()

    def test_oc_level_zero_within_the_budget(self, capsys):
        assert main(["oc", "--gl", "2", "--p", "3", "--n-max", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"][0]["orbits"] == [1]

    def test_oc_algebra_bridge(self, capsys):
        assert main(["oc", "--algebra", "n(2)", "--p", "3", "--n-max", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 5, 21]

    def test_oc_algebra_reach(self, capsys):
        # 7^9 points within the default budget: the exponential group is
        # counted over its 7^6 rows, and the command compares the counts
        # with the kernel averages itself
        start = time.perf_counter()
        assert main(["oc", "--algebra", "L_{3,2}", "--p", "7", "--n-max", "3"]) == EXIT_OK
        assert time.perf_counter() - start < 10
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 19, 253, 2863]

    def test_cc_algebra_reach(self, capsys):
        # a group of 7^9 elements within the default budget: the closure
        # stores its 7^6 rows over the corner subgroup Z/7^3, and the direct
        # count matches the kernel averages and the stored table
        start = time.perf_counter()
        assert main(["cc", "--algebra", "L_{3,2}", "--p", "7", "--n-max", "3"]) == EXIT_OK
        assert time.perf_counter() - start < 10
        entry = json.loads(capsys.readouterr().out)["results"][0]
        assert entry["direct"] == [1, 55, 2737, 134407]
        for counts in (entry["coefficients"], entry["table"]):
            assert counts == [{"num": str(c), "den": "1"} for c in entry["direct"]]

    def test_cc_module_conjugate_reach(self, tmp_path, capsys):
        # a non-triangular conjugate of L_{4,3}: its group is built on the
        # flag basis and closed over corner rows, like the catalog algebra's
        from askzeta import IntMatrix

        ref = catalog_module("L_{4,3}")
        d = ref.d
        # P is lower unitriangular with every entry 1; P^-1 is 1 - subdiagonal
        lower = IntMatrix([[int(j <= i) for j in range(d)] for i in range(d)])
        inverse = IntMatrix([[(i == j) - (j == i - 1) for j in range(d)] for i in range(d)])
        basis = [[list(row) for row in (lower @ b @ inverse).entries] for b in ref.basis]
        assert any(row[0] for b in basis for row in b[1:])
        doc = {"schema": "askzeta/1", "d": d, "e": d, "basis": basis,
               "label": "conjugate", "lie": True}
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["cc", "--module", str(path), "--p", "5", "--n-max", "2"]) == EXIT_OK
        assert time.perf_counter() - start < 2
        entry = json.loads(capsys.readouterr().out)["results"][0]
        assert main(["cc", "--algebra", "L_{4,3}", "--p", "5", "--n-max", "2"]) == EXIT_OK
        want = json.loads(capsys.readouterr().out)["results"][0]
        assert entry["direct"] == want["direct"] == [1, 49, 1825]
        assert entry["coefficients"] == want["coefficients"]

    @pytest.mark.parametrize(
        "source",
        [["--algebra", "L_{3,2}"], ["--gl", "2"], ["--swap"], ["--neg1"]],
    )
    def test_oc_checks_each_prime_once(self, capsys, monkeypatch, source):
        calls = []

        def spy(*args):
            calls.append(args)
            return check_power(*args)

        monkeypatch.setattr(cli, "check_power", spy)
        assert main(["oc", *source, "--p", "5,7", "--n-max", "1"]) == EXIT_OK
        capsys.readouterr()
        assert [p for p, *_ in calls] == [5, 7]

    def test_group_file(self, tmp_path, capsys):
        doc = {
            "schema": "askzeta/1",
            "d": 1,
            "generators": [[[-1]]],
            "label": "signs",
        }
        path = tmp_path / "group.json"
        path.write_text(json.dumps(doc))
        assert main(["oc", "--group", str(path), "--p", "5", "--n-max", "1"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 3]

    def test_catalog_export_reparses(self, capsys):
        assert main(["catalog"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) > 50
        for entry in report["results"]:
            if entry["formula"] is not None:
                w = parse_rational(entry["formula"])
                assert str(w) == entry["formula"]

    def test_brenti(self, capsys):
        assert main(["brenti", "--n", "2", "--order", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["identity_holds"] is True
        assert report["polynomial"]["0,0"] == 1

    def test_csv_format(self, capsys):
        assert main(["ask", "--catalog", "mat(1,1)", "--p", "3", "--n-max", "2",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,n,num,den"
        assert lines[2] == "3,1,5,3"

    def test_text_format(self, capsys):
        assert main(["structure", "--catalog", "diag(2)", "--format", "text"]) == EXIT_OK
        assert "command: structure" in capsys.readouterr().out

    def test_verify_elliptic_entry(self, capsys):
        code = main(["verify", "--catalog", "ex_elliptic", "--p", "5,7", "--n-max", "1"])
        assert code == EXIT_OK
        capsys.readouterr()

    def test_verify_large_dimension_degrades_to_one_engine(self, capsys):
        # the coefficient space of sp(4) is far beyond any budget; verify
        # must still succeed through the affordable enumeration
        code = main(["verify", "--catalog", "sp(4)", "--p", "3", "--n-max", "2"])
        assert code == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["so(6)", "sym(5)"])
    def test_verify_definition_route_within_seconds(self, capsys, key):
        # both views fit the budget, so verify compares the average view over
        # 3^15 coefficient tuples with the orbit formula; each distinct
        # sub-family of a pivot's family is counted once at level 1, where
        # this took about 6 and 10 s when every copy was counted
        start = time.perf_counter()
        code = main(["verify", "--catalog", key, "--p", "3", "--n-max", "1"])
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "match"
