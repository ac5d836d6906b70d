"""Exact arithmetic over Z/p^n: valuations, elementary divisors, size formulas.

A d x e integer matrix `a` of rational rank r has elementary divisor
valuations 0 <= lam_1 <= ... <= lam_r at the prime p (the Smith normal form
localized at p).  Over Z/p^n the induced map on row vectors x -> x*a has

    |kernel| = p^(sum_i min(lam_i, n) + (d - r) * n)
    |image|  = p^(sum_i (n - min(lam_i, n)))

Both formulas only involve the valuations below n, which is what the one
mod-p^cap reduction in this module, lambdas_mod, computes; the exact
valuations and ranks over F_p are that reduction at a larger cap or at cap 1.
The Smith form over Z (smith_diagonal) is kept for composite moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import InputError
from .intmat import IntMatrix
from .primes import is_prime


class _Infinity:
    """Valuation of zero: a distinguished value above every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("askzeta-infinite-valuation")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class RingSpec:
    """The quotient ring Z/p^n; n = 0 is the zero ring with one element."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"p = {self.p} is not prime")
        if self.n < 0:
            raise InputError(f"level n = {self.n} must be >= 0")

    @property
    def modulus(self) -> int:
        return self.p**self.n


def pval(x: int, p: int):
    """The exponent of the largest power of p dividing x; INFINITY for x = 0."""
    if x == 0:
        return INFINITY
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _val_below(x: int, p: int) -> int:
    """Valuation of a nonzero residue x; below cap when x lies in [1, p^cap)."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def lambdas_mod(entries, p: int, cap: int) -> list[int]:
    """Elementary divisor valuations below `cap`, computed mod p^cap.

    `entries` is any iterable of integer rows; rows may be exhausted lazily.
    Returns the sorted valuations lam_i < cap.  Divisors with valuation >= cap
    are indistinguishable from 0 mod p^cap and are not reported.  The
    reduction pivots on an entry of least valuation v and clears its column
    with row operations that scale rows by the p-unit u = pivot / p^v only,
    so the valuations of the elementary divisors are preserved.  Every entry
    of the remaining rows and columns is divisible by p^v, so once the
    column is clear, clearing the pivot's row as well would change the
    remaining block only by unit column scalings: the row and the column
    are dropped instead.
    """
    if cap <= 0:
        return []
    pm = p**cap
    a = [[v % pm for v in row] for row in entries]
    rows = list(range(len(a)))
    cols = list(range(len(a[0]) if a else 0))
    lams = []
    while rows and cols:
        best = None
        best_v = cap
        for i in rows:
            ai = a[i]
            for j in cols:
                x = ai[j]
                if x:
                    v = _val_below(x, p)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            break
        i0, j0 = best
        lams.append(best_v)
        pv = p**best_v
        u = a[i0][j0] // pv
        row0 = a[i0]
        for i in rows:
            if i == i0:
                continue
            e = a[i][j0]
            if e:
                f = e // pv
                ai = a[i]
                for j in cols:
                    ai[j] = (u * ai[j] - f * row0[j]) % pm
        rows.remove(i0)
        cols.remove(j0)
    lams.sort()
    return lams


def equivalence_type(a: IntMatrix, p: int) -> tuple[int, ...]:
    """Valuations (lam_1, ..., lam_r) of the elementary divisors of `a` at p.

    r is the rank of `a` over the rationals; the zero matrix gives ().
    Computed by lambdas_mod at the least cap with p^cap > B, where B is the
    product over the rows of max(1, sum_j |a_ij|).  This is exact: every
    r x r minor D is at most B in absolute value (each row contributes at
    most its absolute row sum), lam_1 + ... + lam_r is the least valuation
    of a nonzero r x r minor, and so each lam_i <= v_p(D) < cap.  Mod p^cap
    the divisors of valuation below cap are exactly lam_1, ..., lam_r.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    bound = 1
    for row in a.entries:
        bound *= max(1, sum(abs(v) for v in row))
    cap, pw = 1, p
    while pw <= bound:
        cap, pw = cap + 1, pw * p
    return tuple(lambdas_mod(a.entries, p, cap))


def equivalence_type_minors(a: IntMatrix, p: int) -> tuple[int, ...]:
    """Minor-based oracle for equivalence_type (exponential; testing only).

    lam_1 + ... + lam_i equals the minimal valuation over all i x i minors.
    """
    d, e = a.shape
    sums = [0]
    for i in range(1, min(d, e) + 1):
        best = None
        for rsel in combinations(range(d), i):
            for csel in combinations(range(e), i):
                m = _int_det([[a.entries[r][c] for c in csel] for r in rsel])
                if m:
                    v = pval(m, p)
                    if best is None or v < best:
                        best = v
        if best is None:
            break
        sums.append(best)
    return tuple(sums[i] - sums[i - 1] for i in range(1, len(sums)))


def _int_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a small square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def kernel_size_exp(a: IntMatrix, ring: RingSpec) -> int:
    """Exponent k with |Ker(a mod p^n on row vectors)| = p^k."""
    n = ring.n
    lams = lambdas_mod(a.entries, ring.p, n)
    return sum(lams) + (a.rows - len(lams)) * n


def kernel_size(a: IntMatrix, ring: RingSpec) -> int:
    """|Ker(a mod p^n : (Z/p^n)^d -> (Z/p^n)^e)| as an exact integer."""
    return ring.p ** kernel_size_exp(a, ring)


def image_size_exp(a: IntMatrix, ring: RingSpec) -> int:
    """Exponent k with |Image(a mod p^n)| = p^k: the span of the rows of a."""
    return span_size_exp(a.entries, ring)


def image_size(a: IntMatrix, ring: RingSpec) -> int:
    """|Image(a mod p^n)| as an exact integer."""
    return ring.p ** image_size_exp(a, ring)


def span_size_exp(rows, ring: RingSpec) -> int:
    """Exponent of the size of the row span of integer vectors in (Z/p^n)^e."""
    n = ring.n
    return sum(n - lam for lam in lambdas_mod(rows, ring.p, n))


def span_size(rows, ring: RingSpec) -> int:
    """Cardinality of the subgroup of (Z/p^n)^e generated by the given rows."""
    return ring.p ** span_size_exp(rows, ring)


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Positive diagonal entries (s_1 | s_2 | ...) of the Smith normal form over Z."""
    rows = [list(r) for r in a.entries]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    divs = []
    r0, c0 = 0, 0
    while r0 < nr and c0 < nc:
        # locate a nonzero entry of minimal absolute value
        best = None
        for i in range(r0, nr):
            for j in range(c0, nc):
                v = rows[i][j]
                if v and (best is None or abs(v) < abs(rows[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        rows[r0], rows[i0] = rows[i0], rows[r0]
        for i in range(nr):
            rows[i][c0], rows[i][j0] = rows[i][j0], rows[i][c0]
        piv = rows[r0][c0]
        dirty = False
        for i in range(r0 + 1, nr):
            q = rows[i][c0] // piv
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r0])]
            if rows[i][c0]:
                dirty = True
        for j in range(c0 + 1, nc):
            q = rows[r0][j] // piv
            if q:
                for i in range(nr):
                    rows[i][j] -= q * rows[i][c0]
            if rows[r0][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block for the divisibility chain
        offender = None
        for i in range(r0 + 1, nr):
            for j in range(c0 + 1, nc):
                if rows[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            rows[r0] = [x + y for x, y in zip(rows[r0], rows[offender])]
            continue
        divs.append(abs(piv))
        r0 += 1
        c0 += 1
    return tuple(divs)


def kernel_size_mod(a: IntMatrix, modulus: int) -> int:
    """|Ker(a mod N)| for an arbitrary modulus N >= 1, via the Smith form over Z."""
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if modulus == 1:
        return 1
    divs = smith_diagonal(a)
    size = modulus ** (a.rows - len(divs))
    for s in divs:
        size *= gcd(s, modulus)
    return size
