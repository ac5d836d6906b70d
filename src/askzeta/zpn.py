"""Exact arithmetic over Z/p^n: the ring, and elementary divisors at p and over Z.

A d x e integer matrix `a` of rational rank r has elementary divisor
valuations 0 <= lam_1 <= ... <= lam_r at the prime p (the Smith normal form
localized at p).  Over Z/p^n the row span of `a` has

    p^(sum_i (n - min(lam_i, n)))

elements.  This involves only the valuations below n, which is what the one
mod-p^cap reduction in this module, lambdas_mod, computes; at cap 1 it gives
the rank over F_p.  The Smith form over Z (smith_diagonal) gives the integer
elementary divisors of a module's lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .intmat import IntMatrix
from .primes import is_prime


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
