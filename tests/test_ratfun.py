"""Rational function layer: parsing, expansion, functional equation."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from askzeta import (
    InputError,
    NotExpandableError,
    SeriesQ,
    expand,
    functional_equation_check,
    parse_rational,
)
from askzeta.closed_forms import _ASK_FIXED, _CC, _OC
from askzeta.poly import Poly
from askzeta.ratfun import QTRational, _poly_pow
from conftest import hadamard, reference_parse


def series_from(q_value, values) -> SeriesQ:
    return SeriesQ(Fraction(q_value), tuple(Fraction(v) for v in values))


class TestParser:
    def test_roundtrip_examples(self):
        for text in (
            "(1 - q^-2*T)/((1 - T)*(1 - T))",
            "1/(1 - q*T)",
            "(1 - T)^2/(1 - q*T)^3",
            "q^-1",
            "-3*T + q",
            "(2 - q*T - T)/(2*(1 - q*T)*(1 - T))",
        ):
            w = parse_rational(text)
            assert parse_rational(str(w)) == w
            # printing is idempotent
            assert str(parse_rational(str(w))) == str(w)

    def test_exponent_forms(self):
        assert parse_rational("q^(-2)") == parse_rational("q^-2")
        assert parse_rational("T^+2") == parse_rational("T^2")

    def test_unary_minus(self):
        assert parse_rational("-q") == parse_rational("0 - q")
        assert parse_rational("--q") == parse_rational("q")

    def test_errors(self):
        for bad in ("", "q +", "(1", "1/) ", "x", "q^", "1//2"):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_division_by_zero(self):
        with pytest.raises((ZeroDivisionError, InputError)):
            parse_rational("1/(T - T)")


class TestQTRational:
    def test_cross_multiplied_equality(self):
        a = parse_rational("(1 - T)/(1 - q*T)")
        b = parse_rational("(1 - T)*(1 + T)/((1 - q*T)*(1 + T))")
        assert a == b

    def test_negative_power(self):
        w = parse_rational("(1 - q*T)")
        assert w**-2 == parse_rational("1/(1 - q*T)^2")

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("q^2*T/(q*T - q^3*T^2)", "q/(1 - q^2*T)"),  # monomial cancellation
            ("(2 - 4*T)/(6 - 6*q*T)", "(1 - 2*T)/(3 - 3*q*T)"),  # integer content
            ("(1 + T)/(T - 1)", "(-1 - T)/(1 - T)"),  # negative lowest term
            ("(1 - q^-2*T)/(1 - T)^2", "(q^2 - T)/(q^2 - 2*q^2*T + q^2*T^2)"),
            ("T/q - q^-1*T", "0"),
        ],
    )
    def test_printed_form(self, text, printed):
        assert str(parse_rational(text)) == printed

    def test_normalization_sign(self):
        w = parse_rational("(T - 1)/(q*T - 1)")
        assert w == parse_rational("(1 - T)/(1 - q*T)")
        # denominator constant term normalized positive
        assert str(w).endswith("(1 - q*T)")


class TestExpand:
    def test_full_matrix_shape(self):
        w = parse_rational("(1 - q^-2*T)/((1 - T)*(1 - T))")
        s = expand(w, 3, 2)
        assert list(s.coeffs) == [1, Fraction(17, 9)]

    def test_geometric(self):
        assert list(expand(parse_rational("1/(1 - q*T)"), 3, 3).coeffs) == [1, 3, 9]

    def test_heisenberg_counts(self):
        w = parse_rational("(1 - T)/((1 - q^2*T)*(1 - q*T))")
        assert list(expand(w, 3, 3).coeffs) == [1, 11, 105]

    def test_not_expandable(self):
        with pytest.raises(NotExpandableError):
            expand(parse_rational("1/T"), 3, 2)

    def test_denominator_vanishes_at_q(self):
        w = parse_rational("1/(q - 3)")
        with pytest.raises(InputError):
            expand(w, 3, 2)

    def test_exact_rational_q(self):
        w = parse_rational("1/(1 - q*T)")
        s = expand(w, Fraction(3, 2), 3)
        assert list(s.coeffs) == [1, Fraction(3, 2), Fraction(9, 4)]


class TestHadamard:
    def test_identity(self):
        ones = expand(parse_rational("1/(1 - T)"), 3, 6)
        s = expand(parse_rational("(1 - T)/(1 - q*T)^2"), 3, 6)
        assert hadamard(s, ones).coeffs == s.coeffs

    def test_square_of_geometric(self):
        ones = expand(parse_rational("1/(1 - T)"), 3, 6)
        assert hadamard(ones, ones).coeffs == ones.coeffs

    def test_mismatch_errors(self):
        a = expand(parse_rational("1/(1 - T)"), 3, 4)
        b = expand(parse_rational("1/(1 - T)"), 5, 4)
        with pytest.raises(InputError):
            hadamard(a, b)
        c = expand(parse_rational("1/(1 - T)"), 3, 5)
        with pytest.raises(InputError):
            hadamard(a, c)

    def test_associative_commutative(self, rng):
        q = 3
        xs = series_from(q, [rng.randint(-9, 9) for _ in range(6)])
        ys = series_from(q, [rng.randint(-9, 9) for _ in range(6)])
        zs = series_from(q, [rng.randint(-9, 9) for _ in range(6)])
        assert hadamard(xs, ys).coeffs == hadamard(ys, xs).coeffs
        assert (
            hadamard(hadamard(xs, ys), zs).coeffs
            == hadamard(xs, hadamard(ys, zs)).coeffs
        )


class TestFunctionalEquation:
    def test_full_matrix(self):
        w = parse_rational("(1 - q^-2*T)/((1 - T)*(1 - T))")
        assert functional_equation_check(w, 2)
        assert not functional_equation_check(w, 1)

    def test_strictly_upper(self):
        w = parse_rational("(1 - T)^2/(1 - q*T)^3")
        assert functional_equation_check(w, 3)

    def test_negative_control(self):
        assert not functional_equation_check(parse_rational("1/(1 - T)"), 1)


# -- the parser against its oracle -----------------------------------------

README_FORMULAS = (
    "(1 - T)/(1 - q*T)^2",
    "(1 - q^-2*T)/((1 - T)*(1 - q*T))",
    "1/0",
    "(q-q)^-1",
    "0^-1",
    "((1+q+T)^40)^40",
    "(1+q+T)^60*(1+q+T)^60",
)

ERROR_CASES = (
    "", "q +", "(1", "1/) ", "x", "q^", "1//2",
    "1/(T - T)", "0^-1", "q^1001", "((1+q+T)^40)^40", "(1+q+T)^60*(1+q+T)^60",
)


def _outcome(parse, text):
    """What a parse gives: the normal form and its printing, or the error."""
    try:
        w = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return w.num.terms, w.den.terms, w.boxes, str(w)


def _random_formula(rng, depth=0):
    """A formula of the grammar with unary signs, zero, white space,
    parenthesised and negative exponents and division."""
    pick = rng.random()
    if depth > 3 or pick < 0.3:
        atom = rng.choice(["q", "T", "0", "1", str(rng.randint(2, 12))])
    elif pick < 0.55:
        op = rng.choice(["+", "-", "*", "/", " + ", " - ", "*", " / "])
        atom = f"{_random_formula(rng, depth + 1)}{op}{_random_formula(rng, depth + 1)}"
        atom = f"({atom})"
    elif pick < 0.7:
        atom = f"({_random_formula(rng, depth + 1)})"
    else:
        base = _random_formula(rng, depth + 1)
        k = rng.choice([0, 1, 2, 3, 4, 700, 1001])
        sign = rng.choice(["", "", "+", "-", "-", "--", " - "])
        exp = rng.choice(["{}", "({})", "( {} )"]).format(f"{sign}{k}")
        atom = f"{base}^{exp}"
    return rng.choice(["", "", "-", "+", "--", " -"]) + atom


def _corrupt(rng, text):
    """`text` with one character deleted, doubled or replaced."""
    if not text:
        return "("
    i = rng.randrange(len(text))
    how = rng.randrange(3)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + text[i] + text[i:]
    return text[:i] + rng.choice("()^*/+-qT0 x9²") + text[i + 1:]


class TestParserAgainstReference:
    """`parse_rational` gives the oracle's normal form, boxes and printing,
    or raises its error with its message."""

    def test_stored_formulas(self):
        texts = [row[0] for row in _ASK_FIXED.values() if row[0] is not None]
        texts += [row[0] for row in _CC.values()] + [row[0] for row in _OC.values()]
        assert len(texts) == 39
        for text in texts:
            assert _outcome(parse_rational, text) == _outcome(reference_parse, text), text

    def test_readme_formulas(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for text in README_FORMULAS:
            assert f"`{text}`" in readme or f'"{text}"' in readme, text
            assert _outcome(parse_rational, text) == _outcome(reference_parse, text), text

    @pytest.mark.parametrize("text", ERROR_CASES)
    def test_errors(self, text):
        got = _outcome(parse_rational, text)
        assert got[0] is InputError
        assert got == _outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text",
        ["1²", "12²3", "q^²", "q^ 1²", "٣*q", "q^٢", "1 2", "q\x1c+　T", "1/0^2", "1/(0)^ 1",
         "(1/0)", "q^(-0)", "0^0", "q^(2", "q^(-)", "T^--3", "-(q^-1 - 1/q)", "9" * 5000,
         # sums whose running hull of boxes is too large while the exact box is not
         "q^1000 - q^1000 + T^1000", "q^1000 + 1 - q^1000 + T^1000", "q^1000 + 1 - 1 + T^5",
         "q^1000 + T^1000", "1 + q + 1/q + T - q^2*T"],
    )
    def test_edge_cases(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse, text)

    def test_random_formulas(self):
        rng = random.Random(20261019)
        for _ in range(400):
            text = _random_formula(rng)
            assert _outcome(parse_rational, text) == _outcome(reference_parse, text), text
            broken = _corrupt(rng, text)
            assert _outcome(parse_rational, broken) == _outcome(reference_parse, broken), broken


class TestParserWork:
    def test_ex_non_lie_builds_one_rational(self, monkeypatch):
        calls = []
        init = QTRational.__init__

        def counting(self, num, den):
            calls.append(1)
            init(self, num, den)

        monkeypatch.setattr(QTRational, "__init__", counting)
        w = parse_rational(_ASK_FIXED["ex_non_lie"][0])
        assert len(calls) == 1
        assert len(w.num.terms) == 135

    def test_a_monomial_power_multiplies_nothing(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert str(parse_rational("q^36")) == "q^36"
        assert calls == []

    @pytest.mark.parametrize("text", ["1 - q^3*T^2", "2 + q + q^2", "1 + q + T", "1 - q*T + 3*T^2*q^-1"])
    def test_power_is_repeated_product(self, text):
        p = parse_rational(text).num
        out = Poly.const(2, 1)
        for k in range(8):
            assert _poly_pow(p, k) == out
            out = out * p
