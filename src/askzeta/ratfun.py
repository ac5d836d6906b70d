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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, NotExpandableError
from .poly import Poly

# Largest |k| accepted in `x^k` by the text grammar.
MAX_EXPONENT = 1000
# A parsed numerator or denominator may have degree spans of at most
# MAX_EXPONENT in q and in T, and at most MAX_POWER_TERMS monomials in the
# box those spans allow; _check_size checks both before multiplying.
MAX_POWER_TERMS = 4096


def _box(p: Poly):
    """(min, max) exponent of q, then of T: (q_lo, q_hi, t_lo, t_hi)."""
    qs, ts = zip(*p.terms)
    return min(qs), max(qs), min(ts), max(ts)


def _box_mul(a, b):
    """The exponent box of a product of polynomials with boxes a and b."""
    if a is None or b is None:
        return None
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]


def _check_size(boxes) -> None:
    """Refuse, before it is built, a numerator or denominator whose exponents
    lie in the union of `boxes` when that union spans more than MAX_EXPONENT
    in q or in T or holds more than MAX_POWER_TERMS monomials."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return
    q_lo, q_hi, t_lo, t_hi = zip(*boxes)
    dq, dt = max(q_hi) - min(q_lo), max(t_hi) - min(t_lo)
    if max(dq, dt) > MAX_EXPONENT or (dq + 1) * (dt + 1) > MAX_POWER_TERMS:
        raise InputError(
            f"result of degree {dq} in q and {dt} in T is too large (at most"
            f" {MAX_EXPONENT} in each, {MAX_POWER_TERMS} monomials)"
        )


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
        return self.num * other.den == other.num * self.den

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
            _check_size([box and tuple(k * x for x in box)])
        if k == 0:
            return QTRational.const(1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise InputError(f"parse error at {self.pos} in {self.text!r}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> QTRational:
        v = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return v

    def expr(self) -> QTRational:
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            _check_operation(v, op, rhs)
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> QTRational:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            if op == "/" and rhs.num.is_zero():
                self.error("division by zero")
            _check_operation(v, op, rhs)
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self) -> QTRational:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        v = self.atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.exponent()
            if abs(k) > MAX_EXPONENT:
                self.error(f"exponent {k} outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]")
            if k < 0 and v.num.is_zero():
                self.error("division by zero")
            v = v**k
        return v if sign == 1 else -v

    def exponent(self) -> int:
        if self.peek() == "(":
            self.take("(")
            k = self.signed_int()
            self.take(")")
            return k
        return self.signed_int()

    def signed_int(self) -> int:
        self.skip_ws()
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        return sign * self.digits()

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than the interpreter's int-string limit
            self.error(f"integer literal of {self.pos - start} digits")

    def atom(self) -> QTRational:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            v = self.expr()
            self.take(")")
            return v
        if ch == "q":
            self.pos += 1
            return QTRational(Poly(2, {(1, 0): 1}), Poly.const(2, 1))
        if ch == "T":
            self.pos += 1
            return QTRational(Poly(2, {(0, 1): 1}), Poly.const(2, 1))
        if ch.isdigit():
            return QTRational.const(self.digits())
        self.error("expected atom")


def _check_operation(a: QTRational, op: str, b: QTRational) -> None:
    """Check the numerator and denominator that `a op b` builds against the
    size bounds before any of their products is multiplied out."""
    (an, ad), (bn, bd) = a.boxes, b.boxes
    if op == "*":
        parts = ([_box_mul(an, bn)], [_box_mul(ad, bd)])
    elif op == "/":
        parts = ([_box_mul(an, bd)], [_box_mul(ad, bn)])
    else:  # a sum or difference puts both cross products over a.den * b.den
        parts = ([_box_mul(an, bd), _box_mul(bn, ad)], [_box_mul(ad, bd)])
    for boxes in parts:
        _check_size(boxes)


def parse_rational(text: str) -> QTRational:
    """Parse the single-line expression grammar into a QTRational."""
    return _Parser(text).parse()


# -- series ---------------------------------------------------------------


@dataclass(frozen=True)
class SeriesQ:
    """Truncated power series in T with exact rational coefficients, fixed q."""

    q_value: Fraction
    coeffs: tuple[Fraction, ...]

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


def _t_coefficients(p: Poly, q_value) -> dict[int, Fraction]:
    """p at the given q, as {power of T: nonzero coefficient}."""
    qv = Fraction(q_value)
    out: dict[int, Fraction] = {}
    for (qe, te), c in p.terms.items():
        out[te] = out.get(te, Fraction(0)) + c * qv**qe
    return {te: v for te, v in out.items() if v}


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
    """Whether W(1/q, 1/T) = (-q^d T) * W(q, T) holds identically."""
    lhs_num, lhs_den = (
        Poly(2, {(-qe, -te): c for (qe, te), c in p.terms.items()})
        for p in (w.num, w.den)
    )
    factor = Poly(2, {(d, 1): -1})
    return lhs_num * w.den == factor * w.num * lhs_den

