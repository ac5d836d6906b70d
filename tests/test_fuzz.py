"""CLI fuzz tests: malformed documents and formulas exit 2, and quickly.

Every drawn input is malformed by construction, so the expected exit code does
not depend on the code under test.  The hypothesis profile in conftest.py
makes the draws the same on every run.
"""

import json
import time

import pytest
from hypothesis import given, strategies as st

from askzeta.cli import EXIT_INPUT, main

CASE_SECONDS = 2.0

MODULE_DOC = {"schema": "askzeta/1", "d": 2, "e": 2, "basis": [[[0, 1], [0, 0]]]}
GROUP_DOC = {"schema": "askzeta/1", "d": 2, "generators": [[[1, 1], [0, 1]]]}

# JSON values that are not integers (bool counts as not an integer)
non_int = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
non_object = st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3))
small_matrix = st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3)


def _not_2x2(matrix) -> bool:
    return not (len(matrix) == 2 and all(len(row) == 2 for row in matrix))


@st.composite
def _corrupted(draw, doc: dict, matrices: str):
    """`doc` with one field broken: missing, wrong type, wrong size or a bad entry."""
    doc = json.loads(json.dumps(doc))
    how = draw(st.sampled_from(["drop", "schema", "dim", "entry", "shape"]))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "schema":
        doc["schema"] = draw(st.one_of(non_int, st.text(max_size=9)).filter(lambda v: v != "askzeta/1"))
    elif how == "dim":
        key = draw(st.sampled_from([k for k in ("d", "e") if k in doc]))
        doc[key] = draw(st.one_of(non_int, st.integers(-5, 5).filter(lambda v: v != 2)))
    elif how == "entry":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        doc[matrices][0][i][j] = draw(non_int.filter(lambda v: not isinstance(v, list)))
    else:
        doc[matrices][0] = draw(small_matrix.filter(_not_2x2))
    return json.dumps(doc)


def _broken_text(doc: dict):
    """A document that is not an object, or a proper prefix of one (not JSON)."""
    text = json.dumps(doc)
    return st.one_of(
        non_object.map(json.dumps),
        st.integers(0, len(text) - 1).map(lambda k: text[:k]),
    )


def _exits_2(workdir, text: str, argv: list[str]) -> None:
    """main(argv), with FILE holding `text`, exits 2 within CASE_SECONDS."""
    path = workdir / "input.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code = main([str(path) if a == "FILE" else a for a in argv])
    elapsed = time.perf_counter() - start
    assert code == EXIT_INPUT, text
    assert elapsed < CASE_SECONDS, (text, elapsed)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.one_of(_corrupted(MODULE_DOC, "basis"), _broken_text(MODULE_DOC)))
def test_malformed_module_document(workdir, capsys, text):
    _exits_2(workdir, text, ["ask", "--module", "FILE", "--p", "3", "--n-max", "2"])
    capsys.readouterr()


@given(
    st.one_of(
        _corrupted({**MODULE_DOC, "lie": True}, "basis"),
        _broken_text({**MODULE_DOC, "lie": True}),
        # a well-formed module that does not claim to be a Lie algebra
        st.sampled_from([False, None, 0, "", [], {}]).map(
            lambda v: json.dumps({**MODULE_DOC, "lie": v})
        ),
        st.just(json.dumps(MODULE_DOC)),
    )
)
def test_malformed_algebra_document(workdir, capsys, text):
    _exits_2(workdir, text, ["cc", "--module", "FILE", "--p", "5", "--n-max", "1"])
    capsys.readouterr()


@given(st.one_of(_corrupted(GROUP_DOC, "generators"), _broken_text(GROUP_DOC)))
def test_malformed_group_document(workdir, capsys, text):
    _exits_2(workdir, text, ["oc", "--group", "FILE", "--p", "5", "--n-max", "1"])
    capsys.readouterr()


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


# well-formed expressions; each suffix below leaves them malformed
expressions = st.recursive(
    st.one_of(st.integers(0, 9).map(str), st.sampled_from(["q", "T"])), _combine, max_leaves=8
)
broken_suffixes = st.sampled_from(
    [")", "^", "+", "*(", "^q", "^1.5", " x", "/0", "/(q-q)", "^99999", "^-1001", "**2", "^^2"]
)


@given(
    st.one_of(
        st.tuples(expressions, broken_suffixes).map("".join),
        # nested powers whose degree passes every bound on the exponent alone
        st.tuples(st.integers(33, 200), st.integers(33, 200)).map(
            lambda ab: f"((1+q+T)^{ab[0]})^{ab[1]}"
        ),
    )
)
def test_malformed_formula(capsys, formula):
    start = time.perf_counter()
    code = main(["feqn", "--form", formula, "--d", "1"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_INPUT, formula
    assert elapsed < CASE_SECONDS, (formula, elapsed)
    capsys.readouterr()
