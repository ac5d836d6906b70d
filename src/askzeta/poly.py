"""Sparse multivariate polynomials over Z and fraction-free elimination.

Small and deliberately plain: exponent tuples to integer coefficients.  This
is the package's one polynomial type.  It carries a view's linear forms only
for their symbolic rank, the fallback when no random point proves the rank
full (every other reader of a view takes its integer generators), and, with
negative exponents allowed, the numerators and denominators of the (q, T)
rational functions in `ratfun`.
"""

from __future__ import annotations

from math import inf
from operator import add

from .errors import BudgetExceededError, InputError, InternalConsistencyError

# the term operations symbolic_rank may spend: so(7)'s average view needs
# about 10^5, and so(9)'s would not finish in a minute
SYMBOLIC_RANK_WORK = 10**6


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: int(c)} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return Poly(self.nvars, t)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) - c
        return Poly(self.nvars, t)

    def __mul__(self, other: "Poly") -> "Poly":
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return Poly(self.nvars, t)

    def leading(self):
        """Leading (exponent, coefficient) in lex order."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises if the quotient is not polynomial."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.terms)
        out = {}
        de, dc = divisor.leading()
        while rem:
            re = max(rem)
            rc = rem[re]
            qe = tuple(a - b for a, b in zip(re, de))
            if any(v < 0 for v in qe) or rc % dc:
                raise InternalConsistencyError("inexact polynomial division")
            qc = rc // dc
            out[qe] = out.get(qe, 0) + qc
            for e2, c2 in divisor.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                v = rem.get(e, 0) - qc * c2
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        return Poly(self.nvars, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            c = self.terms[e]
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


def _bareiss(rows, work=inf):
    """Fraction-free (Bareiss) elimination of a Poly matrix, column by column.

    Yields (column, pivot, sign) for each pivot in turn, with the sign of the
    row permutation so far; the pivot is yielded before its column is
    cleared, so a caller that stops early saves the rest of the work.  The
    k-th pivot is the leading k x k minor of the row-permuted matrix on the
    pivot columns, and each division by the previous pivot is exact
    (Sylvester's identity).  So the number of pivots is the rank over
    Q(x_1, ..., x_m), and when the pivots of a square matrix fill its
    diagonal the last one, times the sign, is the determinant.

    Past `work` term operations (the term pairs of each product, and the
    dividend's times the divisor's terms of each exact division) it raises
    BudgetExceededError.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    prev = None
    sign = 1
    r = 0
    spent = 0
    for c in range(nc):
        if r == nr:
            return
        i0 = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if i0 is None:
            continue
        if i0 != r:
            a[r], a[i0] = a[i0], a[r]
            sign = -sign
        piv, row0 = a[r][c], a[r]
        yield c, piv, sign
        for i in range(r + 1, nr):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, nc):
                x = piv * ai[j] - f * row0[j]
                spent += len(piv.terms) * len(ai[j].terms) + len(f.terms) * len(row0[j].terms)
                if prev is not None:
                    spent += len(x.terms) * len(prev.terms)
                if spent > work:
                    raise BudgetExceededError(spent, work, "a symbolic rank of {} term operations")
                ai[j] = x if prev is None else x.exact_div(prev)
        prev = piv
        r += 1


def bareiss_det(rows) -> Poly:
    """Fraction-free determinant of a square matrix of Poly entries.

    The package itself takes its minors by Laplace expansion
    (`structural._all_minors`), but this stays next to `_bareiss` for two
    reasons: the benchmark's tracer looks it up by name, and the tests take
    it, one determinant per minor, as the oracle of those minors.
    """
    n = len(rows)
    if n == 0:
        raise InputError("empty determinant")
    for k, (c, piv, sign) in enumerate(_bareiss(rows)):
        if c != k:  # column k has no pivot: singular, stop eliminating
            break
        if k == n - 1:
            return piv if sign == 1 else -piv
    return Poly.const(rows[0][0].nvars, 0)


def symbolic_rank(rows) -> int:
    """Rank over Q(x_1, ..., x_m) by fraction-free elimination, within
    SYMBOLIC_RANK_WORK term operations."""
    return sum(1 for _ in _bareiss(rows, SYMBOLIC_RANK_WORK))

