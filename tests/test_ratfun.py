"""Rational function layer: parsing, expansion, functional equation."""

from fractions import Fraction

import pytest

from askzeta import (
    InputError,
    NotExpandableError,
    SeriesQ,
    expand,
    functional_equation_check,
    parse_rational,
)
from conftest import hadamard


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

