"""Rational function layer: parsing, expansion, fitting, functional equation."""

import math
from fractions import Fraction

import pytest

from askzeta import (
    InputError,
    NotExpandableError,
    SeriesQ,
    expand,
    fit_pade,
    fit_rational,
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


class TestFitting:
    def test_roundtrip(self):
        s = expand(parse_rational("(1 - T)/(1 - 3*T)^2"), 3, 9)
        fit = fit_rational(s, [(1, 1), (1, 1)])
        assert fit is not None
        assert fit.num_coeffs[:2] == (1, -1)
        assert fit.expand(9).coeffs == s.coeffs

    def test_recovers_upper_triangular_form(self):
        from askzeta import ask_series, catalog_module, closed_form

        # low coefficients from the engine, the tail from the stored form
        engine = ask_series(catalog_module("n(3)"), 3, 2).coefficients()
        full = expand(closed_form("n(3)").formula, 3, 7)
        assert list(full.coeffs[:3]) == engine
        fit = fit_rational(full, [(1, 1)] * 3, num_degree=2)
        assert fit is not None
        # numerator (1 - T)^2 at any q
        assert fit.num_coeffs == (1, -2, 1)

    def test_rejects_exponential(self):
        s = series_from(3, [Fraction(1, math.factorial(k)) for k in range(10)])
        assert fit_rational(s, [(1, 1), (1, 1)]) is None

    def test_insufficient_order(self):
        s = series_from(3, [1, 1, 1])
        with pytest.raises(InputError):
            fit_rational(s, [(1, 1), (1, 1)])

    def test_denominator_must_start_at_t0(self):
        # a hypothesis whose denominator vanishes at T = 0, or has negative
        # powers of T, defines no power series to compare with
        for q, factors in ((3, [(0, 0), (0, 1)]), (1, [(1, 0)]), (3, [(0, -1)])):
            with pytest.raises(InputError):
                fit_rational(series_from(q, [1] * 8), factors)

    def test_wrong_hypothesis_rejected(self):
        s = expand(parse_rational("1/((1 - q*T)*(1 - q^2*T))"), 3, 10)
        assert fit_rational(s, [(1, 1)], num_degree=1) is None

    def test_pade_fallback(self):
        s = expand(parse_rational("(1 - T)/(1 - 3*T)^2"), 3, 9)
        result = fit_pade(s, 1, 2)
        assert result is not None
        num, den = result
        assert num == (1, -1)
        assert den == (1, -6, 9)

    def test_pade_rejects_non_rational(self):
        s = series_from(3, [Fraction(1, math.factorial(k)) for k in range(10)])
        assert fit_pade(s, 2, 2) is None

    def test_expand_fit_roundtrip_on_catalog(self):
        # every factored catalog form is recovered from its own expansion
        from askzeta import catalog_keys, closed_form

        for key in catalog_keys():
            entry = closed_form(key)
            w = entry.formula
            if w is None or w.factors is None:
                continue
            num_deg = max(te for _, te in w.num.terms) if w.num.terms else 0
            order = max(8, num_deg + 4)
            for q in (2, 3, 5, 7):
                s = expand(w, q, order)
                fit = fit_rational(s, w.factors, w.qpow, num_degree=num_deg)
                assert fit is not None, (key, q)
                assert fit.expand(order).coeffs == s.coeffs, (key, q)
