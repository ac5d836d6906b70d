"""Exact rational functions in (q, T) and truncated series at a fixed q.

QTRational stores numerator and denominator as `poly.Poly` in the two
variables (q, T), with negative exponents allowed.  Equality is decided by
cross multiplication, so no multivariate gcd is ever needed; normalization
cancels common monomial factors and integer content and fixes the
denominator sign.

The text grammar (round-trip stable) is:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+')* atom ('^' exponent)?
    atom   := INTEGER | 'q' | 'T' | '(' expr ')'

with integer exponents, possibly negative, optionally parenthesized, of
absolute value at most MAX_EXPONENT (the stored formulas need at most 36).
Division by zero, a negative power of zero, an exponent out of range, an
integer literal too long to convert and a power, product, quotient or sum
whose numerator or denominator would exceed the size bounds (degree span
MAX_EXPONENT in q and in T, MAX_POWER_TERMS monomials) are input errors; the
bounds are checked before anything is multiplied.

The parser splits the text into tokens in one pass (one regex `findall`
for ASCII text) and reads each factor once.  Its values climb one ladder:
an integer, q or T is a monomial (c, a, b), and signs, powers `^k` with
k >= 0 and products keep a monomial a monomial; a sum of two terms or a
product with any other polynomial makes a `Poly` (a sum is one dict of
terms, a monomial term one entry); only a `/`, a negative exponent or the
end of the parse makes a QTRational, so a formula that is one polynomial
over another normalises once.

The exact tests work on integers.  A cross-multiplied equality a*b == c*d
(QTRational equality and the functional equation) packs each polynomial
into one integer, a slot per exponent pair of the product's box, wide
enough for the bound min(terms)*max|a|*max|b| on a product's coefficients
and a sign (Kronecker substitution), and compares two integer products;
unequal boxes are unequal at once.  Where the integer products would cost
more than the Poly products (a sparse product in a large box, or large
coefficients) the Poly products are kept, which also bounds the packed
integers' memory.  `expand` at q = n/m sums integers c*n^(a-lo)*m^(hi-a)
per power of T and makes one Fraction each.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .errors import InputError, NotExpandableError
from .poly import Poly

# Largest |k| accepted in `x^k` by the text grammar.
MAX_EXPONENT = 1000
# A parsed numerator or denominator may have degree spans of at most
# MAX_EXPONENT in q and in T, and at most MAX_POWER_TERMS monomials in the
# box those spans allow; _check_box checks both before multiplying.
MAX_POWER_TERMS = 4096


def _box(p: Poly):
    """(min, max) exponent of q, then of T: (q_lo, q_hi, t_lo, t_hi); None
    for zero."""
    if not p.terms:
        return None
    qs, ts = zip(*p.terms)
    return min(qs), max(qs), min(ts), max(ts)


def _box_mul(a, b):
    """The exponent box of a product of polynomials with boxes a and b."""
    if a is None or b is None:
        return None
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]


def _box_scale(box, k: int):
    """The exponent box of the k-th power of a polynomial with box `box`."""
    return box and (k * box[0], k * box[1], k * box[2], k * box[3])


def _hull(boxes):
    """The smallest box that holds every box of `boxes`; None if none is."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    q_lo, q_hi, t_lo, t_hi = zip(*boxes)
    return min(q_lo), max(q_hi), min(t_lo), max(t_hi)


def _check_box(box) -> None:
    """Refuse, before it is built, a numerator or denominator whose exponents
    lie in `box` when the box spans more than MAX_EXPONENT in q or in T or
    holds more than MAX_POWER_TERMS monomials; None is the box of zero."""
    if box is None:
        return
    dq, dt = box[1] - box[0], box[3] - box[2]
    if max(dq, dt) > MAX_EXPONENT or (dq + 1) * (dt + 1) > MAX_POWER_TERMS:
        raise InputError(
            f"result of degree {dq} in q and {dt} in T is too large (at most"
            f" {MAX_EXPONENT} in each, {MAX_POWER_TERMS} monomials)"
        )


# Packing pays where its integer products cost less than the Poly products.
# CPython multiplies integers of n digits (30 bits each) by Karatsuba in
# about n^_KARATSUBA digit steps, and a Poly product spends about
# _PAIR_STEPS such steps on each pair of terms besides the product of their
# coefficients (both measured with CPython 3.11).  So a sparse product in a
# large box, or one with large coefficients, stays a Poly product, which
# also bounds the packed integers' memory: (q^1000 + T^3)*(1 + q^3*T^1000),
# 4 pairs in a box of 10^6 slots, would pack into megabytes per byte of slot.
_KARATSUBA = 1.585
_PAIR_STEPS = 150


def _packing_pays(slots: int, width: int, pairs: int) -> bool:
    """Whether a product of `slots` slots of `width` bytes, from `pairs`
    pairs of operand terms, is cheaper packed than as Poly products."""
    digits = 8 * width / 30
    return (slots * digits) ** _KARATSUBA <= pairs * (_PAIR_STEPS + digits**_KARATSUBA)


def _slot_bytes(*pairs) -> int:
    """Bytes per slot that hold every coefficient of each product a*b of
    `pairs`, with a sign bit: the coefficient at a slot sums at most
    min(terms of a, terms of b) products of one coefficient of each."""
    bound = max(
        min(len(a.terms), len(b.terms))
        * max(map(abs, a.terms.values()))
        * max(map(abs, b.terms.values()))
        for a, b in pairs
    )
    return (bound.bit_length() + 8) // 8


def _pack(p: Poly, box, tspan: int, width: int) -> int:
    """p as one integer (Kronecker substitution): the coefficient of q^a T^b
    in slot (a - box[0])*tspan + b - box[2], `width` bytes each, the lowest
    slot lowest.  With tspan at least the T span of a product, the slots of
    a product are the sums of its operands' slots, so the integer product of
    packed operands is the packed product while its coefficients fit."""
    q0, t0 = box[0], box[2]
    size = ((box[1] - q0) * tspan + box[3] - t0 + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for (qe, te), c in p.terms.items():
        at = ((qe - q0) * tspan + te - t0) * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _products_equal(a: Poly, b: Poly, c: Poly, d: Poly) -> bool:
    """Whether a*b == c*d, without expanding either product where it is
    dense.

    The exponent box of a product of nonzero polynomials is the sum of its
    operands' boxes (the product of their extreme parts is not zero), so
    unequal boxes give unequal products at once.  Otherwise all four are
    packed in one layout, with slots wide enough for every coefficient of
    both products, and the two integer products are compared: a coefficient
    vector whose entries lie strictly between -2^(w-1) and 2^(w-1) is the
    one set of digits base 2^w of its integer."""
    zero_ab, zero_cd = a.is_zero() or b.is_zero(), c.is_zero() or d.is_zero()
    if zero_ab or zero_cd:
        return zero_ab == zero_cd
    boxes = [_box(p) for p in (a, b, c, d)]
    box = _box_mul(boxes[0], boxes[1])
    if box != _box_mul(boxes[2], boxes[3]):
        return False
    tspan = box[3] - box[2] + 1
    width = _slot_bytes((a, b), (c, d))
    pairs = len(a.terms) * len(b.terms) + len(c.terms) * len(d.terms)
    if not _packing_pays((box[1] - box[0] + 1) * tspan, width, pairs):
        return a * b == c * d
    ia, ib, ic, id_ = (_pack(p, bx, tspan, width) for p, bx in zip((a, b, c, d), boxes))
    return ia * ib == ic * id_


def _format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (qe, te) in sorted(p.terms, key=lambda e: (e[1], e[0])):
        c = p.terms[(qe, te)]
        mono = []
        if qe:
            mono.append("q" if qe == 1 else f"q^{qe}")
        if te:
            mono.append("T" if te == 1 else f"T^{te}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(abs(c))] + mono)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _factor_product(factors) -> Poly:
    """prod (1 - q^a T^b) for (a, b) in factors."""
    out = Poly.const(2, 1)
    for a, b in factors:
        out = out * (Poly.const(2, 1) - Poly(2, {(a, b): 1}))
    return out


class QTRational:
    """Quotient of two polynomials in (q, T), normalized but not reduced.

    Equality compares cross products, which is a complete test without any
    polynomial gcd; stored catalog formulas are already in lowest terms.
    """

    __slots__ = ("num", "den", "boxes")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise InputError("zero denominator")
        if num.is_zero():
            self.num = Poly(2)
            self.den = Poly.const(2, 1)
            self.boxes = (None, (0, 0, 0, 0))
            return
        # cancel the common monomial factor q^a T^b
        nb, db = _box(num), _box(den)
        cq, ct = min(nb[0], db[0]), min(nb[2], db[2])
        if cq or ct:
            num, den = (
                Poly(2, {(qe - cq, te - ct): c for (qe, te), c in p.terms.items()})
                for p in (num, den)
            )
            nb, db = (_box_mul(b, (-cq, -cq, -ct, -ct)) for b in (nb, db))
        # exponent boxes of num and den, which the size checks read
        self.boxes = (nb, db)
        # integer content common to both
        g = gcd(*num.terms.values(), *den.terms.values())
        if g > 1:
            num, den = (
                Poly(2, {e: c // g for e, c in p.terms.items()}) for p in (num, den)
            )
        # sign: lowest (T, q) term of the denominator positive
        key = min(den.terms, key=lambda e: (e[1], e[0]))
        if den.terms[key] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: int) -> "QTRational":
        return cls(Poly.const(2, c), Poly.const(2, 1))

    @classmethod
    def from_factors(cls, numerator: Poly, factors) -> "QTRational":
        """numerator / prod (1 - q^a T^b) for (a, b) in factors."""
        return cls(numerator, _factor_product(factors))

    def __eq__(self, other):
        if not isinstance(other, QTRational):
            return NotImplemented
        return _products_equal(self.num, other.den, other.num, self.den)

    def __add__(self, other: "QTRational") -> "QTRational":
        return QTRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "QTRational":
        return QTRational(-self.num, self.den)

    def __sub__(self, other: "QTRational") -> "QTRational":
        return QTRational(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "QTRational") -> "QTRational":
        return QTRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "QTRational") -> "QTRational":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return QTRational(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "QTRational":
        if k < 0:
            return QTRational.const(1) / self**(-k)
        for box in self.boxes:
            _check_box(_box_scale(box, k))
        # n^k / d^k is normal when n / d is: the lowest monomials multiply,
        # the contents stay coprime (Gauss) and the lowest (T, q) term of d^k
        # stays positive
        return QTRational(_poly_pow(self.num, k), _poly_pow(self.den, k))

    def __repr__(self):
        return f"QTRational({self})"

    def __str__(self):
        num_s = _format_poly(self.num)
        if self.den == Poly.const(2, 1):
            return num_s
        den_s = _format_poly(self.den)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        return f"{num_s}/({den_s})"


# -- parser ---------------------------------------------------------------

# A token, after optional white space, is a run of decimal digits or one
# other character.
_TOKEN = re.compile(r"\s*(\d+|\S)")
_SIGNS = ("+", "-")
_PRODUCTS = ("*", "/")


def _spans(text: str) -> list[tuple[int, int]]:
    """(start, end) of each token of `text`, where an integer literal is a
    run of the characters str.isdigit takes (besides decimal digits, such as
    superscripts), then the empty span at the end of the text."""
    spans = []
    for m in _TOKEN.finditer(text):
        start, end = m.span(1)
        joined = spans and spans[-1][1] == start and text[start - 1].isdigit()
        if joined and text[start].isdigit():
            spans[-1] = (spans[-1][0], end)
        else:
            spans.append((start, end))
    spans.append((len(text), len(text)))
    return spans


def _tokens(text: str) -> list[str]:
    """The tokens of `text`, then an empty one: in ASCII text, where every
    digit is a decimal digit, the regex's own matches."""
    if text.isascii():
        return _TOKEN.findall(text) + [""]
    return [text[start:end] for start, end in _spans(text)]


def _poly_pow(p: Poly, k: int) -> Poly:
    """p^k for k >= 0, with no normalising in between: a monomial's power
    is one entry, any other power k - 1 products with p."""
    if k == 0:
        return Poly.const(2, 1)
    if len(p.terms) <= 1:
        return Poly(2, {(k * qe, k * te): c**k for (qe, te), c in p.terms.items()})
    out = p
    for _ in range(k - 1):
        out = out * p
    return out


def _is_zero(v) -> bool:
    if type(v) is tuple:
        return not v[0]
    return (v if isinstance(v, Poly) else v.num).is_zero()


def _poly(v) -> Poly:
    """A Poly, or a monomial (c, a, b) as the Poly c*q^a*T^b."""
    return Poly(2, {v[1:]: v[0]}) if type(v) is tuple else v


def _rational(v) -> QTRational:
    if isinstance(v, QTRational):
        return v
    return QTRational(_poly(v), Poly.const(2, 1))


class _Parser:
    """Recursive descent over the tokens of one text.

    A value climbs one ladder.  An integer, q or T is a monomial (c, a, b)
    for c*q^a*T^b, and so is a sign, a power `^k` with k >= 0 or a product
    of monomials: each is one step on three integers.  The first other
    polynomial, a sum of two terms or a product with one, makes it a
    `Poly`: a sum adds its terms into one dict, a monomial term as one
    entry, a product is one `Poly` product and a power one entry or k - 1
    products.  A `/`, a negative exponent or the end of the parse makes it
    a `QTRational`, and from there every operation normalises its result.
    Normalising a polynomial over the denominator 1 changes nothing, so the
    result is the one a `QTRational` per operation gives.  Every size check
    reads exponent boxes before anything is multiplied; a monomial's box is
    one point, which no check refuses.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokens(text)
        self.i = 0

    def error(self, msg, after=False):
        """Raise at the start of the next token, or with `after` at the end
        of the last one taken."""
        spans = _spans(self.text)
        pos = spans[self.i - 1][1] if after else spans[self.i][0]
        raise InputError(f"parse error at {pos} in {self.text!r}: {msg}")

    def take(self, ch):
        if self.toks[self.i] != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def parse(self) -> QTRational:
        v = self.expr()
        if self.toks[self.i]:
            self.error("trailing input")
        return _rational(v)

    def expr(self):
        """A sum; one term is returned as it is.

        While the terms are polynomials they go into one dict, and the size
        check reads a running hull of the terms' boxes, which holds the
        exact box of the sum so far; only where the hull fails is the exact
        box taken and checked.  The first QTRational, as the sum so far or
        as a term, makes the sum a QTRational."""
        v = self.term()
        terms = None
        while (op := self.toks[self.i]) in _SIGNS:
            self.i += 1
            rhs = self.term()
            # v is the sum so far, or its first term while `terms` holds it
            if isinstance(v, QTRational) or isinstance(rhs, QTRational):
                v = _apply(v if terms is None else Poly(2, terms), op, rhs)
                terms = None
                continue
            if terms is None:
                first = _poly(v)
                terms, hull = dict(first.terms), _box(first)
            if type(rhs) is tuple:
                c, qe, te = rhs
                box = (qe, qe, te, te) if c else None
                items = ((rhs[1:], c),)
            else:
                box = _box(rhs)
                items = rhs.terms.items()
            union = _hull([hull, box])
            try:
                _check_box(union)
            except InputError:
                union = _hull([_box(Poly(2, terms)), box])
                _check_box(union)
            hull = union
            sign = 1 if op == "+" else -1
            for e, c in items:
                terms[e] = terms.get(e, 0) + sign * c
        return v if terms is None else Poly(2, terms)

    def term(self):
        v = self.factor()
        while (op := self.toks[self.i]) in _PRODUCTS:
            self.i += 1
            rhs = self.factor(divisor=op == "/")
            if isinstance(v, QTRational) or isinstance(rhs, QTRational):
                v = _apply(v, op, rhs)
            elif op == "/":
                # the box of every polynomial passed its check when it was
                # built, so v / rhs needs none
                v = QTRational(_poly(v), _poly(rhs))
            elif type(v) is tuple and type(rhs) is tuple:
                v = v[0] * rhs[0], v[1] + rhs[1], v[2] + rhs[2]
            else:
                v, rhs = _poly(v), _poly(rhs)
                _check_box(_box_mul(_box(v), _box(rhs)))
                v = v * rhs
        return v

    def factor(self, divisor=False):
        sign = self.sign()
        v = self.atom()
        # an error after an exponent is placed at its end, else at the
        # next token
        power = self.toks[self.i] == "^"
        if power:
            self.i += 1
            k = self.exponent()
            if abs(k) > MAX_EXPONENT:
                self.error(f"exponent {k} outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]", True)
            if k < 0 and _is_zero(v):
                self.error("division by zero", True)
            v = _power(v, k)
        if divisor and _is_zero(v):
            self.error("division by zero", power)
        if sign == 1:
            return v
        return (-v[0], v[1], v[2]) if type(v) is tuple else -v

    def sign(self) -> int:
        """Read a run of unary signs: -1 if it has an odd number of `-`."""
        sign = 1
        while self.toks[self.i] in _SIGNS:
            if self.toks[self.i] == "-":
                sign = -sign
            self.i += 1
        return sign

    def exponent(self) -> int:
        if self.toks[self.i] == "(":
            self.i += 1
            k = self.signed_int()
            self.take(")")
            return k
        return self.signed_int()

    def signed_int(self) -> int:
        return self.sign() * self.integer()

    def integer(self) -> int:
        tok = self.toks[self.i]
        if not tok[:1].isdigit():
            self.error("expected integer")
        self.i += 1
        try:
            return int(tok)
        except ValueError:  # longer than the interpreter's int-string limit
            self.error(f"integer literal of {len(tok)} digits", True)

    def atom(self):
        tok = self.toks[self.i]
        if tok == "(":
            self.i += 1
            v = self.expr()
            self.take(")")
            return v
        if tok == "q":
            self.i += 1
            return 1, 1, 0
        if tok == "T":
            self.i += 1
            return 1, 0, 1
        if tok[:1].isdigit():
            return self.integer(), 0, 0
        self.error("expected atom")


def _power(v, k: int):
    """v^k after the size check: a monomial's power k >= 0 is a monomial,
    and a negative power of a polynomial is its first QTRational."""
    if isinstance(v, QTRational):
        return v**k
    if k < 0:
        return QTRational(Poly.const(2, 1), _poly(_power(v, -k)))
    if type(v) is tuple:
        c, qe, te = v
        return c**k, k * qe, k * te
    _check_box(_box_scale(_box(v), k))
    return _poly_pow(v, k)


def _apply(a, op: str, b) -> QTRational:
    """a op b as QTRationals, after checking the numerator and denominator it
    builds against the size bounds."""
    a, b = _rational(a), _rational(b)
    (an, ad), (bn, bd) = a.boxes, b.boxes
    if op in _PRODUCTS:
        if op == "/":
            bn, bd = bd, bn
        _check_box(_box_mul(an, bn))
        _check_box(_box_mul(ad, bd))
        return a * b if op == "*" else a / b
    # a sum or difference puts both cross products over a.den * b.den
    _check_box(_hull([_box_mul(an, bd), _box_mul(bn, ad)]))
    _check_box(_box_mul(ad, bd))
    return a + b if op == "+" else a - b


def parse_rational(text: str) -> QTRational:
    """Parse the single-line expression grammar into a QTRational.

    The parser descends a few frames per parenthesis, so a formula nested
    deeper than the interpreter's recursion limit allows is an input error.
    """
    try:
        return _Parser(text).parse()
    except RecursionError:
        depth = max(accumulate((ch == "(") - (ch == ")") for ch in text))
        raise InputError(f"parentheses nested {depth} deep are too deep to parse") from None


# -- series ---------------------------------------------------------------


class SeriesQ:
    """Truncated power series in T with exact rational coefficients, fixed q."""

    __slots__ = ("q_value", "coeffs")

    def __init__(self, q_value: Fraction, coeffs: tuple[Fraction, ...]):
        self.q_value = q_value
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs)


def expand(w: QTRational, q_value, order: int) -> SeriesQ:
    """First `order` Taylor coefficients of W at T = 0 for the given q."""
    qv = Fraction(q_value)
    if qv == 0:
        raise InputError("q must be nonzero")
    num = _t_coefficients(w.num, qv)
    den = _t_coefficients(w.den, qv)
    if not den:
        raise InputError("zero denominator after substitution")
    dmin = min(den)
    nmin = min(num) if num else dmin
    if nmin < dmin:
        raise NotExpandableError("pole at T = 0 after substituting q")
    # shift so the denominator starts at T^0 with an invertible constant term
    den = {te - dmin: v for te, v in den.items()}
    num = {te - dmin: v for te, v in num.items()}
    return SeriesQ(qv, _quotient_coeffs(num, den, order))


def _t_coefficients(p: Poly, q_value: Fraction) -> dict[int, Fraction]:
    """p at q = n/m, as {power of T: nonzero coefficient}.

    With lo and hi the least and greatest power of q in p, q^a is
    n^(a - lo)*m^(hi - a) times n^lo/m^hi, so each power of T sums
    integers and makes one Fraction."""
    if p.is_zero():
        return {}
    n, m = q_value.numerator, q_value.denominator
    lo, hi = _box(p)[:2]
    n_pow, m_pow = [1], [1]
    for _ in range(hi - lo):
        n_pow.append(n_pow[-1] * n)
        m_pow.append(m_pow[-1] * m)
    sums: dict[int, int] = {}
    for (qe, te), c in p.terms.items():
        sums[te] = sums.get(te, 0) + c * n_pow[qe - lo] * m_pow[hi - qe]
    # n^lo/m^hi as top/bottom, with no negative power
    top = n ** max(lo, 0) * m ** max(-hi, 0)
    bottom = n ** max(-lo, 0) * m ** max(hi, 0)
    return {te: Fraction(v * top, bottom) for te, v in sums.items() if v}


def _quotient_coeffs(num: dict, den: dict, order: int) -> tuple[Fraction, ...]:
    """First `order` coefficients of num/den, both {power of T: coefficient}.

    den[0] must be nonzero; each coefficient follows from the earlier ones.
    """
    d0 = den[0]
    coeffs = []
    for k in range(order):
        acc = num.get(k, Fraction(0))
        for j in range(1, k + 1):
            dj = den.get(j)
            if dj:
                acc -= dj * coeffs[k - j]
        coeffs.append(acc / d0)
    return tuple(coeffs)


def functional_equation_check(w: QTRational, d: int) -> bool:
    """Whether W(1/q, 1/T) = (-q^d T) * W(q, T) holds identically, that is
    num(1/q, 1/T) * den == (-q^d T * num) * den(1/q, 1/T), decided by
    _products_equal."""
    lhs_num, lhs_den = (
        Poly(2, {(-qe, -te): c for (qe, te), c in p.terms.items()})
        for p in (w.num, w.den)
    )
    rhs_num = Poly(2, {(qe + d, te + 1): -c for (qe, te), c in w.num.terms.items()})
    return _products_equal(lhs_num, w.den, rhs_num, lhs_den)

