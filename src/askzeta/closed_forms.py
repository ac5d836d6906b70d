"""Catalog of closed-form zeta functions and the combinatorics behind them.

Keys:

  * ask-kind: "mat(d,e)", "gl(d)", "sl(d)", "so(d)", "sp(2m)", "sym(d)",
    "n(d)", "tr(d)", "diag(d)", "band(r)", "zero(d,e)", "ex_unbounded",
    "ex_non_lie", "L_{5,6}"; "ex_elliptic" has no fixed (q, T) formula (its
    T-coefficient involves a curve point count) and is handled by helpers.
  * cc-kind: "cc:<algebra>" for the nilpotent algebras of dimension <= 5
    (complete) and a sample in dimension 6.
  * oc-kind: "oc:gl(d)", "oc:neg1", "oc:swap".

Every key is a row of one table: a family head of `_FAMILY_FORMS`, whose
parameters `catalog._family` checks as it does for the module, a fixed key
of `_ASK_FIXED`, a cc name of `_CC` or an oc name of `_OC`.

Validity strings record the constraint on p under which the formula is
asserted; "tested_at" lists primes where this package verified it, which is
all the evidence recorded for entries whose validity threshold is unknown.
"""

from __future__ import annotations

from math import comb, factorial

from .catalog import _canonical_key, _family, _parse_key
from .errors import MAX_BUILT_BITS, BudgetExceededError, InputError
from .poly import Poly
from .ratfun import QTRational, _poly_pow, parse_rational


class CatalogEntry:
    __slots__ = ("key", "kind", "formula", "module_key", "validity", "tested_at", "notes")

    def __init__(
        self,
        key: str,
        kind: str,  # "ask" | "cc" | "oc"
        formula: QTRational | None,
        module_key: str | None,
        validity: str,
        tested_at: tuple[int, ...] = (),
        notes: str = "",
    ):
        self.key = key
        self.kind = kind
        self.formula = formula
        self.module_key = module_key
        self.validity = validity
        self.tested_at = tested_at
        self.notes = notes


def constant_rank_form(d: int, ell: int, r: int) -> QTRational:
    """(1 - q^(d-ell-r) T) / ((1 - q^(d-ell) T)(1 - q^(d-r) T))."""
    if ell < 0 or r < 0:
        raise InputError("dimensions must be >= 0")
    num = Poly(2, {(0, 0): 1, (d - ell - r, 1): -1})
    return QTRational.from_factors(num, [(d - ell, 1), (d - r, 1)])


def mat_form(d: int, e: int) -> QTRational:
    num = Poly(2, {(0, 0): 1, (-e, 1): -1})
    return QTRational.from_factors(num, [(0, 1), (d - e, 1)])


# -- signed permutation statistics ---------------------------------------


def brenti_polynomial(n: int) -> dict[tuple[int, int], int]:
    """Joint distribution over signed permutations of (negative entries, descents).

    Returns {(i, j): count} for the polynomial sum X^i Y^j; the descent count
    uses position 0 pinned to the value 0.  The count runs by insertion: a
    signed permutation of [k] is one of [k-1] with +k or -k put into one of
    its k slots.  +k keeps the descents in the j slots after a descent and at
    the end, and adds one in the other k-1-j; -k adds a negative entry, keeps
    the descents in the j slots after a descent and adds one in the other k-j.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n > 8:
        # 2^n * n! < (2n)^n, so the count is built only where that is small
        small = n * (2 * n).bit_length() <= MAX_BUILT_BITS
        needed = 2**n * factorial(n) if small else f"2^{n}*{n}!"
        raise BudgetExceededError(needed, 2**8 * factorial(8))
    out = {(0, 0): 1}
    for k in range(1, n + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in out.items():
            for key, ways in (
                ((i, j), j + 1),
                ((i, j + 1), k - 1 - j),
                ((i + 1, j), j),
                ((i + 1, j + 1), k - j),
            ):
                if ways:
                    nxt[key] = nxt.get(key, 0) + ways * c
        out = nxt
    return out


# The identity check compares orders of Y up to this bound: about 0.3 s at
# n = 6 on a 2-vCPU Xeon host.
BRENTI_MAX_ORDER = 1000


def brenti_identity_check(n: int, order: int) -> bool:
    """Verify sum_i (i(X+1)+1)^n Y^i = B_n(X,Y)/(1-Y)^(n+1) up to Y^order.

    The comparison is coefficientwise in Y with X kept symbolic.  An order
    above BRENTI_MAX_ORDER is refused before any work.
    """
    if n < 1 or n > 6:
        raise InputError("identity check supports 1 <= n <= 6")
    if order < 0:
        raise InputError(f"order must be >= 0, got {order}")
    if order > BRENTI_MAX_ORDER:
        advice = f"the identity is compared up to Y^{BRENTI_MAX_ORDER}"
        raise BudgetExceededError(order, BRENTI_MAX_ORDER, advice=advice)
    b = brenti_polynomial(n)
    for i in range(order):
        # (i(X+1)+1)^n = (iX + (i+1))^n expanded in X
        lhs = {k: comb(n, k) * i**k * (i + 1) ** (n - k) for k in range(n + 1)}
        lhs = {k: v for k, v in lhs.items() if v}
        rhs: dict[int, int] = {}
        for (a, j), c in b.items():
            if j <= i:
                rhs[a] = rhs.get(a, 0) + c * comb(n + i - j, n)
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False
    return True


def _brenti_numerator(d: int) -> Poly:
    """B_d(-1/q, T) as a polynomial in (q, T) with negative q exponents."""
    terms: dict[tuple[int, int], int] = {}
    for (i, j), c in brenti_polynomial(d).items():
        key = (-i, j)
        terms[key] = terms.get(key, 0) + c * (-1) ** i
    return Poly(2, terms)


def diag_form(d: int) -> QTRational:
    return QTRational.from_factors(_brenti_numerator(d), [(0, 1)] * (d + 1))


# -- elliptic example ------------------------------------------------------


def elliptic_point_count(q: int) -> int:
    """Number of projective points of Y^2 = X^3 - X over F_q (point at
    infinity included), by direct enumeration."""
    squares: dict[int, int] = {}
    for y in range(q):
        v = y * y % q
        squares[v] = squares.get(v, 0) + 1
    count = 1
    for x in range(q):
        count += squares.get((x**3 - x) % q, 0)
    return count


def ex_elliptic_formula(c: int) -> QTRational:
    """The ex_elliptic closed form once the projective curve count c = c(q)
    is known: (1 + (c q^-1 - 1 - 2c q^-2 + (c-1) q^-3) T + q^-3 T^2)/(1-T)^3.

    Calibrated against both enumeration engines at q in {5, 7, 11, 13, 17},
    levels n <= 2; the orbit walk matches it at q = 5 to n = 6, q = 7 to
    n = 4 and q = 11 to n = 3.
    """
    num = Poly(
        2,
        {
            (0, 0): 1,
            (0, 1): -1,
            (-1, 1): c,
            (-2, 1): -2 * c,
            (-3, 1): c - 1,
            (-3, 2): 1,
        }
    )
    return QTRational.from_factors(num, [(0, 1)] * 3)


# -- large stored formulas -------------------------------------------------

_EX_UNBOUNDED = (
    "(1 + 5*q^-1*T - 12*q^-2*T + 5*q^-3*T + q^-4*T^2)"
    "/((1 - q^-1*T)*(1 - T)^2)"
)

_L56_ASK = (
    "(q^8*T^7 - 3*q^8*T^6 + q^8*T^5 + q^7*T^6 + 2*q^7*T^5 - 2*q^6*T^5"
    " - 2*q^6*T^4 - q^5*T^5 + 6*q^5*T^4 - 3*q^4*T^4 - 3*q^4*T^3 + 6*q^3*T^3"
    " - q^3*T^2 - 2*q^2*T^3 - 2*q^2*T^2 + 2*q*T^2 + q*T + T^2 - 3*T + 1)"
    "/((1 - q^5*T^3)*(1 - q^4*T^2)*(1 - q^2*T)*(1 - q*T)^2)"
)

_EX_NON_LIE = (
    "-("
    "q^36*T^19 - 4*q^35*T^19 - q^34*T^20 + q^35*T^18 + 8*q^34*T^19"
    " - 2*q^34*T^18 - 2*q^33*T^19 - q^34*T^17"
    " - 6*q^33*T^18 - q^32*T^19 + 3*q^33*T^17 + 5*q^32*T^18 + 3*q^32*T^17"
    " + 6*q^31*T^18 - q^32*T^16 - 12*q^31*T^17"
    " - 2*q^30*T^18 - 9*q^30*T^17 - q^31*T^15 + 14*q^30*T^16 + 14*q^29*T^17"
    " + 4*q^30*T^15 + 5*q^29*T^16"
    " - 3*q^28*T^17 - 14*q^29*T^15 - 41*q^28*T^16 + q^29*T^14 + 12*q^28*T^15"
    " + 26*q^27*T^16 - 2*q^28*T^14"
    " + 46*q^27*T^15 - 4*q^26*T^16 - 7*q^27*T^14 - 73*q^26*T^15 + 2*q^27*T^13"
    " - 24*q^26*T^14 + 32*q^25*T^15"
    " - 2*q^26*T^13 + 103*q^25*T^14 - 3*q^24*T^15 + 6*q^25*T^13 - 98*q^24*T^14"
    " - q^25*T^12 - 89*q^24*T^13"
    " + 29*q^23*T^14 + 8*q^24*T^12 + 176*q^23*T^13 - 2*q^22*T^14 + 35*q^23*T^12"
    " - 115*q^22*T^13 + q^23*T^11"
    " - 178*q^22*T^12 + 25*q^21*T^13 - 15*q^22*T^11 + 223*q^21*T^12"
    " - 2*q^20*T^13 + 119*q^21*T^11"
    " - 100*q^20*T^12 + q^21*T^10 - 262*q^20*T^11 + 16*q^19*T^12 - 39*q^20*T^10"
    " + 214*q^19*T^11 - q^18*T^12"
    " + 176*q^19*T^10 - 61*q^18*T^11 + 3*q^19*T^9 - 280*q^18*T^10 + 3*q^17*T^11"
    " - 61*q^18*T^9 + 176*q^17*T^10"
    " - q^18*T^8 + 214*q^17*T^9 - 39*q^16*T^10 + 16*q^17*T^8 - 262*q^16*T^9"
    " + q^15*T^10 - 100*q^16*T^8"
    " + 119*q^15*T^9 - 2*q^16*T^7 + 223*q^15*T^8 - 15*q^14*T^9 + 25*q^15*T^7"
    " - 178*q^14*T^8 + q^13*T^9"
    " - 115*q^14*T^7 + 35*q^13*T^8 - 2*q^14*T^6 + 176*q^13*T^7 + 8*q^12*T^8"
    " + 29*q^13*T^6 - 89*q^12*T^7"
    " - q^11*T^8 - 98*q^12*T^6 + 6*q^11*T^7 - 3*q^12*T^5 + 103*q^11*T^6"
    " - 2*q^10*T^7 + 32*q^11*T^5 - 24*q^10*T^6"
    " + 2*q^9*T^7 - 73*q^10*T^5 - 7*q^9*T^6 - 4*q^10*T^4 + 46*q^9*T^5"
    " - 2*q^8*T^6 + 26*q^9*T^4 + 12*q^8*T^5 + q^7*T^6"
    " - 41*q^8*T^4 - 14*q^7*T^5 - 3*q^8*T^3 + 5*q^7*T^4 + 4*q^6*T^5"
    " + 14*q^7*T^3 + 14*q^6*T^4 - q^5*T^5"
    " - 9*q^6*T^3 - 2*q^6*T^2 - 12*q^5*T^3 - q^4*T^4 + 6*q^5*T^2 + 3*q^4*T^3"
    " + 5*q^4*T^2 + 3*q^3*T^3 - q^4*T"
    " - 6*q^3*T^2 - q^2*T^3 - 2*q^3*T - 2*q^2*T^2 + 8*q^2*T + q*T^2 - q^2"
    " - 4*q*T + T"
    ")/("
    "q^2*(1 - q^10*T^5)*(1 - q^8*T^4)*(1 - q^5*T^3)*(1 - q^4*T^2)^2"
    "*(1 - q^3*T^2)*(1 - q^2*T)*(1 - q*T)^2"
    ")"
)

_CC_TABLE = {
    "L_{1,1}": "1/(1 - q*T)",
    "L_{2,1}": "1/(1 - q^2*T)",
    "L_{3,1}": "1/(1 - q^3*T)",
    "L_{3,2}": "(1 - T)/((1 - q^2*T)*(1 - q*T))",
    "L_{4,1}": "1/(1 - q^4*T)",
    "L_{4,2}": "(1 - q*T)/((1 - q^3*T)*(1 - q^2*T))",
    "L_{4,3}": "(1 - T)/(1 - q^2*T)^2",
    "L_{5,1}": "1/(1 - q^5*T)",
    "L_{5,2}": "(1 - q^2*T)/((1 - q^4*T)*(1 - q^3*T))",
    "L_{5,3}": "(1 - q*T)/(1 - q^3*T)^2",
    "L_{5,4}": "(1 - T)/((1 - q^4*T)*(1 - q*T))",
    "L_{5,5}": (
        "(1 - T - q*T + q^2*T + q^2*T^2 - q^3*T^2 - q^4*T^2 + q^4*T^3)"
        "/((1 - q^5*T^2)*(1 - q^3*T)*(1 - q*T))"
    ),
    "L_{5,6}": (
        "(1 - 2*T + q*T^2 + q^2*T - 2*q^3*T^2 + q^3*T^3)"
        "/((1 - q^5*T^2)*(1 - q^2*T)*(1 - q*T))"
    ),
    "L_{5,7}": "(1 - T)/((1 - q^3*T)*(1 - q^2*T))",
    "L_{5,8}": "(1 - q*T)/(1 - q^3*T)^2",
    "L_{5,9}": "(1 - T)/((1 - q^3*T)*(1 - q^2*T))",
}

# dimension-6 entries whose structure constants depend on external lists;
# stored as formulas only, with no matrix model in this package
_CC_DIM6 = {
    name: text
    for names, text in (
        (("L_{6,10}", "L_{6,25}", "L_{6,26}"), "(1 - q*T)/((1 - q^4*T)*(1 - q^3*T))"),
        (("L_{6,11}", "L_{6,12}", "L_{6,20}"), (
            "(1 - 2*q*T + q^2*T + q^4*T^2 - 2*q^5*T^2 + q^6*T^3)"
            "/((1 - q^6*T^2)*(1 - q^3*T)^2)"
        )),
        (("L_{6,16}",), "(1 - q*T)*(1 - T)/((1 - q^2*T)^2*(1 - q^3*T))"),
        (("L_{6,17}",), (
            "(1 - T - q*T + q^2*T + q^3*T^2 - q^4*T^2 - q^5*T^2 + q^5*T^3)"
            "/((1 - q^6*T^2)*(1 - q^3*T)*(1 - q^2*T))"
        )),
        (("L_{6,18}",), "(1 - T)/((1 - q^2*T)*(1 - q^4*T))"),
        (("L_{6,19}(0)",), (
            "(1 + T - 3*q*T - q^2*T + q^3*T^2 + 3*q^4*T^2 - q^5*T^2 - q^5*T^3)"
            "/((1 - q^3*T)^3*(1 - q^2*T))"
        )),
        (("L_{6,19}(-1)", "L_{6,21}(0)"), "(1 - q*T)^2/((1 - q^3*T)^2*(1 - q^2*T))"),
        (("L_{6,21}(1)",), (
            "(1 - T - q*T + q^2*T + q^2*T^2 - q^3*T^2 - q^4*T^2 + q^4*T^3)"
            "/((1 - q^5*T^2)*(1 - q^3*T)*(1 - q^2*T))"
        )),
        (("L_{6,22}(0)",), (
            "(1 - q*T - q^2*T + q^3*T + q^4*T^2 - q^5*T^2 - q^6*T^2 + q^7*T^3)"
            "/((1 - q^7*T^2)*(1 - q^4*T)*(1 - q^2*T))"
        )),
        (("L_{6,23}", "L_{6,24}(0)"), (
            "(1 - 2*q*T + q^3*T + q^3*T^2 - 2*q^5*T^2 + q^6*T^3)"
            "/((1 - q^7*T^2)*(1 - q^3*T)*(1 - q^2*T))"
        )),
    )
    for name in names
}

_BIG_P = "p sufficiently large, threshold unknown"
_DOUBLED = f"p != 2 (doubled generators); {_BIG_P}"


# family head -> its closed form at the key's parameters; the parameters are
# checked by catalog._family before a row is read
_FAMILY_FORMS = {
    "mat": mat_form,
    "gl": lambda d: mat_form(d, d),
    "sl": lambda d: constant_rank_form(1, 0, 0) if d == 1 else mat_form(d, d),
    "so": lambda d: mat_form(d, d - 1),
    "sp": lambda size: mat_form(size, size),
    "sym": lambda d: mat_form(d, d),
    "n": lambda d: QTRational.from_factors(
        _poly_pow(Poly(2, {(0, 0): 1, (0, 1): -1}), d - 1), [(1, 1)] * d
    ),
    "tr": lambda d: QTRational.from_factors(
        _poly_pow(Poly(2, {(0, 0): 1, (-1, 1): -1}), d), [(0, 1)] * (d + 1)
    ),
    "diag": diag_form,
    "band": lambda r: constant_rank_form(2 * r - 1, r, r),
    "zero": lambda d, e: QTRational.from_factors(Poly.const(2, 1), [(d, 1)]),
}

# fixed ask key -> (formula text or None, validity, tested_at, notes)
_ASK_FIXED = {
    "ex_unbounded": (_EX_UNBOUNDED, _BIG_P, (5, 7), ""),
    "ex_non_lie": (_EX_NON_LIE, _DOUBLED, (3, 5, 7), ""),
    "ex_elliptic": (
        None,
        _BIG_P,
        (5, 7, 11),
        "T-coefficient needs the curve count c(q); see ex_elliptic_formula",
    ),
    "L_{5,6}": (_L56_ASK, _DOUBLED, (3, 5, 7), ""),
}

# algebra name -> (formula text, module key, validity, tested_at, notes)
_CC = {
    **{
        name: (
            text, name, _BIG_P if name == "L_{5,6}" else "p >= dim of the matrix model",
            (5, 7), "",
        )
        for name, text in _CC_TABLE.items()
    },
    # the strictly-upper-triangular algebra in size 4 appears in the
    # dimension-6 list as L_{6,19}(-1)
    "n(4)": (_CC_DIM6["L_{6,19}(-1)"], "n(4)", "p >= 4", (5, 7), ""),
    **{
        name: (text, None, _BIG_P, (), "no matrix model shipped; formula stored for reference")
        for name, text in _CC_DIM6.items()
    },
}

# oc head -> (formula text, validity, tested_at, number of parameters, each >= 1)
_OC = {
    "gl": ("1/(1 - T)^2", "all p", (3,), 1),
    "neg1": ("(2 - q*T - T)/(2*(1 - q*T)*(1 - T))", "p odd", (5, 7), 0),
    "swap": ("(2 - q^2*T - q*T)/(2*(1 - q^2*T)*(1 - q*T))", "all p", (3,), 0),
}


def closed_form(key: str) -> CatalogEntry:
    """Catalog entry for a key; unknown keys raise InputError."""
    key = key.strip()
    if key.startswith("cc:"):
        row = _CC.get(key[3:])
        if row is None:
            raise InputError(f"unknown cc catalog key {key!r}")
        text, module_key, validity, tested_at, notes = row
        return CatalogEntry(
            key, "cc", parse_rational(text), module_key, validity, tested_at, notes
        )
    if key.startswith("oc:"):
        head, params = _parse_key(key[3:])
        row = _OC.get(head)
        if row is None or len(params) != row[3] or any(v < 1 for v in params):
            raise InputError(f"unknown oc catalog key {key!r} (gl(d) takes one d >= 1)")
        text, validity, tested_at, _ = row
        return CatalogEntry(key, "oc", parse_rational(text), None, validity, tested_at)
    head, params = _parse_key(key)
    key = _canonical_key(head, params)
    if _family(head, params) is not None:
        return CatalogEntry(key, "ask", _FAMILY_FORMS[head](*params), key, "all p")
    row = _ASK_FIXED.get(key)
    if row is None:
        raise InputError(f"unknown catalog key {key!r}")
    text, validity, tested_at, notes = row
    formula = parse_rational(text) if text is not None else None
    return CatalogEntry(key, "ask", formula, key, validity, tested_at, notes)


def catalog_keys() -> list[str]:
    """Concrete catalog listing at small parameters, for export and sweeps."""
    keys = []
    keys += [f"mat({d},{e})" for d in (1, 2, 3) for e in (1, 2, 3)]
    keys += [f"gl({d})" for d in (1, 2, 3)]
    keys += [f"sl({d})" for d in (1, 2, 3)]
    keys += [f"so({d})" for d in (1, 2, 3, 4)]
    keys += ["sp(2)", "sp(4)"]
    keys += [f"sym({d})" for d in (1, 2, 3)]
    keys += [f"n({d})" for d in (2, 3, 4)]
    keys += [f"tr({d})" for d in (1, 2, 3, 4)]
    keys += [f"diag({d})" for d in (1, 2, 3, 4)]
    keys += [f"band({r})" for r in (1, 2, 3)]
    keys += ["zero(2,2)", "ex_unbounded", "ex_elliptic", "ex_non_lie", "L_{5,6}"]
    keys += [f"cc:{name}" for name in _CC]
    keys += ["oc:gl(2)", "oc:neg1", "oc:swap"]
    return keys
