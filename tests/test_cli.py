"""CLI behavior: schemas, determinism, exit codes, formats."""

import argparse
import itertools
import json
import time

import pytest

from askzeta.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    build_parser,
    main,
    module_from_json,
    module_to_json,
)
from askzeta import catalog_keys, catalog_module, closed_form, expand, parse_rational
from askzeta.catalog import _FAMILIES


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
        ],
    )
    def test_group_document(self, tmp_path, capsys, change):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**GROUP_DOC, **change}))
        assert main(["oc", "--group", str(path), "--p", "5", "--n-max", "1"]) == EXIT_INPUT
        assert "input error:" in capsys.readouterr().err

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

    def test_nested_power_is_an_input_error(self, capsys):
        start = time.perf_counter()
        assert main(["feqn", "--form", "((1+q+T)^40)^40", "--d", "1"]) == EXIT_INPUT
        assert time.perf_counter() - start < 2
        assert "input error:" in capsys.readouterr().err

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
        # ask = 3^10000 at n = 1 has 4,772 digits
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**MODULE_DOC, "d": 10000, "basis": []}))
        assert main(["ask", "--module", str(path), "--p", "3", "--n-max", "1"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "15850 bits" in err

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

    def test_brenti_order_is_a_level(self, capsys):
        assert main(["brenti", "--n", "3", "--order", "-5"]) == EXIT_INPUT
        assert "argument --order:" in capsys.readouterr().err

    def test_brenti_order_is_bounded(self, capsys):
        start = time.perf_counter()
        assert main(["brenti", "--n", "1", "--order", "100000000"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert main(["brenti", "--n", "6", "--order", "1000"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["identity_holds"] is True


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
        assert "--gl must be >= 1" in capsys.readouterr().err

    def test_oc_algebra_bridge(self, capsys):
        assert main(["oc", "--algebra", "n(2)", "--p", "3", "--n-max", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["orbits"] == [1, 5, 21]

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
