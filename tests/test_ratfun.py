"""Rational function layer: parsing, expansion, functional equation."""

import json
import random
import time
import tracemalloc
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
from askzeta.cli import EXIT_MISMATCH, main
from askzeta.closed_forms import _ASK_FIXED, _CC, _OC
from askzeta.poly import Poly
from askzeta import ratfun
from askzeta.ratfun import QTRational, _poly_pow, _products_equal
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


def _fraction_series(w, q, order):
    """The first `order` coefficients of w at the given q, from Fraction
    powers of q and one long division; None when the denominator's
    constant term vanishes there."""
    q = Fraction(q)

    def at_q(p):
        out = {}
        for (qe, te), c in p.terms.items():
            out[te] = out.get(te, 0) + c * q**qe
        return out

    num, den = at_q(w.num), at_q(w.den)
    if not den.get(0):
        return None
    coeffs = []
    for k in range(order):
        acc = num.get(k, 0) - sum(den.get(j, 0) * coeffs[k - j] for j in range(1, k + 1))
        coeffs.append(Fraction(acc) / den[0])
    return coeffs


class TestExpandOnIntegers:
    """`expand` sums integers per power of T; a Fraction evaluation of the
    same formula is its oracle."""

    @pytest.mark.parametrize("q", [3, 2, -2, Fraction(3, 2), Fraction(-3, 2), Fraction(2, 9)])
    def test_against_fraction_evaluation(self, rng, q):
        for _ in range(25):
            num = Poly(2, {(rng.randint(-6, 6), rng.randint(0, 4)): rng.randint(-9, 9) for _ in range(5)})
            den = Poly(2, {(rng.randint(-6, 6), rng.randint(1, 4)): rng.randint(-9, 9) for _ in range(3)})
            den = den + Poly(2, {(rng.randint(-6, 6), 0): rng.choice([-2, -1, 1, 5])})
            w = QTRational(num, den)
            want = _fraction_series(w, q, 6)
            if want is not None:
                assert list(expand(w, q, 6).coeffs) == want, (w, q)

    def test_negative_powers_of_q(self):
        w = parse_rational("(q^-3 - 2*q^2*T)/(1 - q^-1*T)")
        for q in (3, Fraction(3, 2), Fraction(-2, 5)):
            assert list(expand(w, q, 5).coeffs) == _fraction_series(w, q, 5)
        assert list(expand(w, 2, 3).coeffs) == [Fraction(1, 8), Fraction(-127, 16), Fraction(-127, 32)]


def _random_poly(rng, terms, span, bits):
    """A Poly of at most `terms` terms, exponents in [-span, span] and
    coefficients of up to `bits` bits, of both signs."""
    return Poly(2, {
        (rng.randint(-span, span), rng.randint(-span, span)):
            rng.choice([-1, 1]) * (rng.getrandbits(bits) | 1)
        for _ in range(terms)
    })


class TestPackedProducts:
    """`_products_equal` against `Poly.__mul__`, on the route its cost rule
    takes and with packing forced."""

    # (coefficient bits, most terms, largest |exponent|, draws): small, past
    # 2^64 and near the report limit of 2^14284
    SIZES = ((3, 6, 4, 150), (70, 6, 4, 100), (14284, 3, 2, 12))

    @pytest.fixture(params=["rule", "packed"])
    def route(self, request, monkeypatch):
        if request.param == "packed":
            monkeypatch.setattr(ratfun, "_packing_pays", lambda *args: True)
        return request.param

    def test_random_pairs(self, rng, route):
        for bits, terms, span, draws in self.SIZES:
            for _ in range(draws):
                f, g, h, other = (
                    _random_poly(rng, rng.randint(1, terms), rng.randint(0, span), bits)
                    for _ in range(4)
                )
                # (f*g)*h == f*(g*h), and not once a coefficient of f moves
                a, b, c, d = f * g, h, f, g * h
                assert _products_equal(a, b, c, d)
                e = rng.choice(list(c.terms))
                moved = c + Poly(2, {e: rng.choice([-1, 1]) << rng.randrange(bits)})
                assert _products_equal(a, b, moved, d) == (a * b == moved * d)
                assert _products_equal(f, g, h, other) == (f * g == h * other)

    def test_zero_operands(self, rng, route):
        zero = Poly(2)
        f = _random_poly(rng, 4, 3, 20)
        assert _products_equal(zero, f, f, zero)
        assert _products_equal(f, zero, zero, zero)
        assert not _products_equal(zero, f, f, f)
        assert not _products_equal(f, f, f, zero)

    def test_unequal_and_equal_boxes(self, route):
        one = Poly.const(2, 1)
        a = parse_rational("1 + q*T").num
        b = parse_rational("q - T").num
        assert not _products_equal(a, b, a, one)  # boxes differ
        assert not _products_equal(a, b, a * b + Poly(2, {(3, 3): 1}), one)
        assert _products_equal(a, b, a * b, one)

    def test_one_slot_apart(self, rng, route):
        """c*1 differs from a*b in one slot inside the box."""
        one = Poly.const(2, 1)
        for bits, terms, span, _ in self.SIZES:
            a, b = (_random_poly(rng, terms, span, bits) for _ in range(2))
            ab = a * b
            q_lo, q_hi = min(e[0] for e in ab.terms), max(e[0] for e in ab.terms)
            t_lo, t_hi = min(e[1] for e in ab.terms), max(e[1] for e in ab.terms)
            for _ in range(20):
                e = (rng.randint(q_lo, q_hi), rng.randint(t_lo, t_hi))
                c = ab + Poly(2, {e: rng.choice([-1, 1])})
                assert _products_equal(a, b, c, one) == (c == ab), (a, b, e)

    @pytest.mark.parametrize("k", [*range(40), 7139, 7140])
    def test_coefficients_at_the_slot_bound(self, route, k):
        """a = M + M*T squared has 2*M^2, the bound of a slot, at T.  With
        M = 2^k and a slot one bit narrower, M^2 - 2*M^2*T + (M^2 + 1)*T^2
        would pack to the same integer; the widths cross byte boundaries,
        the last two near the report limit."""
        one = Poly.const(2, 1)
        m = 1 << k
        a = Poly(2, {(0, 0): m, (0, 1): m})
        square = Poly(2, {(0, 0): m * m, (0, 1): 2 * m * m, (0, 2): m * m})
        carried = Poly(2, {(0, 0): m * m, (0, 1): -2 * m * m, (0, 2): m * m + 1})
        assert _products_equal(a, a, square, one)
        assert not _products_equal(a, a, carried, one)
        assert not _products_equal(a, -a, square, one)

    def test_sparse_products_are_not_packed(self):
        """(N*q^1000 + N*T^3)*(1 + q^3*T^1000) has 4 pairs of terms in a box
        of 10^6 slots: it stays a Poly product, in a few kilobytes."""
        n = 10**20 + 7
        a = Poly(2, {(1000, 0): n, (0, 3): n})
        b = Poly(2, {(0, 0): 1, (3, 1000): 1})
        w = parse_rational(f"({n}*q^1000 + {n}*T^3)/(q^500*T^-498 + q^503*T^502)")
        tracemalloc.start()
        try:
            assert _products_equal(a, b, a, b)
            assert not _products_equal(a, b, b, b)
            # both sides of the functional equation have the box of 10^6 slots
            assert not functional_equation_check(w, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_feqn_of_a_large_sparse_form(self, capsys):
        n = "7" * 4290
        start = time.perf_counter()
        form = f"({n}*q^1000 + {n}*T^3)/(1 + q^3*T^1000)"
        assert main(["feqn", "--form", form, "--d", "2"]) == EXIT_MISMATCH
        assert time.perf_counter() - start < 1
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is False and report["d"] == 2


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
    parenthesised and negative exponents, division, and unparenthesised
    chains such as c*q^a*T^b."""
    pick = rng.random()
    if depth > 3 or pick < 0.3:
        atom = rng.choice(["q", "T", "0", "1", str(rng.randint(2, 12))])
    elif pick < 0.45:
        factors = rng.choices(["0", str(rng.randint(1, 12)), "q", "T"], k=rng.randint(2, 4))
        powers = ["", "", f"^{rng.randint(0, 3)}", f"^{rng.randint(0, 1001)}"]
        atom = "*".join(
            rng.choice(["", "", "-", "--"]) + f + (rng.choice(powers) if f in ("q", "T") else "")
            for f in factors
        )
    elif pick < 0.6:
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
         "q^1000 + T^1000", "1 + q + 1/q + T - q^2*T",
         # where a monomial meets zero, a parenthesised factor or exponent, or a second `^`
         "0*q^-1", "0^-1*q", "q*(T)^2*3", "T^2^3", "3*q^(2)*T^0"],
    )
    def test_edge_cases(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("-2^2*q", "-4*q"),  # the sign applies after the power
            ("0^0*T", "T"),
            ("q^1000*q^1000", "q^2000"),
            ("q^007", "q^7"),
            ("4" * 4000 + "*q*T", "4" * 4000 + "*q*T"),
            ("2*q^-1", "2/(q)"),
            ("q^(2)*T", "q^2*T"),
            ("3*q^2*(1 - T)*T - -2*T*q", "2*q*T + 3*q^2*T - 3*q^2*T^2"),
            ("(2*q)^2*T", "4*q^2*T"),
            ("q^2/T^3*q", "q^3/(T^3)"),
            ("-q*-T^2", "q*T^2"),
            ("2^-1*q", "q/(2)"),
        ],
    )
    def test_monomial_terms(self, text, printed):
        """Terms that stay monomials, also through a parenthesised exponent
        or factor, and terms that leave them at a `/`, a negative exponent
        or a factor that is a sum."""
        assert _outcome(parse_rational, text) == _outcome(reference_parse, text)
        assert str(parse_rational(text)) == printed

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

    def test_ex_non_lie_multiplies_no_monomials(self, monkeypatch):
        """Its numerator's 135 monomial terms are dict entries: no Poly
        product, where one per `*` gave 244.  The denominator's nine
        parenthesised factors take eight products and its square one, and
        the functional equation is decided on packed integers."""
        text = _ASK_FIXED["ex_non_lie"][0]
        numerator = text[text.index("(") : text.index(")/(") + 1]
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append((len(self.terms), len(other.terms)))
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert len(parse_rational(numerator).num.terms) == 135
        assert calls == []
        w = parse_rational(text)
        assert len(calls) == 9 and all(max(pair) > 1 for pair in calls)
        del calls[:]
        assert [d for d in range(12) if functional_equation_check(w, d)] == [6]
        assert calls == []
        monkeypatch.setattr(Poly, "__mul__", mul)
        assert w == reference_parse(text)

    def test_a_monomial_power_multiplies_nothing(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert str(parse_rational("q^36")) == "q^36"
        assert calls == []

    def test_parenthesised_exponents_stay_monomials(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert str(parse_rational("3*q^(2)*T^(1)*T")) == "3*q^2*T^2"
        assert calls == []

    @pytest.mark.parametrize("text", ["1 - q^3*T^2", "2 + q + q^2", "1 + q + T", "1 - q*T + 3*T^2*q^-1"])
    def test_power_is_repeated_product(self, text):
        p = parse_rational(text).num
        out = Poly.const(2, 1)
        for k in range(8):
            assert _poly_pow(p, k) == out
            out = out * p
