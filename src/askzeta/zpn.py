"""Exact arithmetic over Z/p^n: the ring, and elementary divisors at p.

A d x e integer matrix `a` of rational rank r has elementary divisor
valuations 0 <= lam_1 <= ... <= lam_r at the prime p (the Smith normal form
localized at p).  Over Z/p^n the row span of `a` has

    p^(sum_i (n - min(lam_i, n)))

elements.  This involves only the valuations below n, which is what the one
mod-p^cap reduction in this module, lambdas_mod, computes; at cap 1 it gives
the rank over F_p.  residual_pencil runs the same reduction mod p^(m+1) on
the pivots of valuation below m only, and carries its operations over to a
pencil of perturbations p^m sum_a t_a G_a, so the divisors of every matrix
of the pencil follow from one rank over F_p.
"""

from __future__ import annotations

from .errors import InputError
from .primes import is_prime


class RingSpec:
    """The quotient ring Z/p^n; n = 0 is the zero ring with one element."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if n < 0:
            raise InputError(f"level n = {n} must be >= 0")
        self.p = p
        self.n = n

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


def residual_pencil(rows, deltas, p: int, m: int):
    """The block of rows + p^m (sum_a t_a deltas[a]) mod p^(m+1) left by the
    pivots of `rows` of valuation below m, as R2 + sum_a t_a E_a mod p.

    `rows` is reduced mod p^(m+1) with the row operations of lambdas_mod,
    pivoting only on valuations v < m; what remains is p^m R2.  Every delta
    (an integer matrix of the shape of `rows`) takes the same row operations
    mod p, and also the column operations col_j -= (a_0j / p^v) u^-1 col_j0
    that clear the pivot row a_0 = p^v (u, ...) of `rows`.  On `rows` these
    change only the pivot row, which is dropped, so they are not carried out.

    Over any ball y + p^m t the pivots keep their valuations, since a pivot
    unit changes by a multiple of p^(m-v) only; eliminating them moves the
    rest of the block by p^m times the delta block after these row and column
    operations, plus cross terms O(p^(2m-v)) that vanish mod p^(m+1).  So the
    rows at y + p^m t have the divisors of `rows` below m and, in addition,
    m repeated rank_p(R2 + sum_a t_a E_a) times.  Returns R2 and the list of
    the E_a, each as rows mod p.
    """
    pm = p ** (m + 1)
    a = [[v % pm for v in row] for row in rows]
    ds = [[[v % p for v in row] for row in d] for d in deltas]
    live = list(range(len(a)))
    cols = list(range(len(a[0]) if a else 0))
    while live and cols:
        best = None
        best_v = m
        for i in live:
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
        pv = p**best_v
        row0 = a[i0]
        u = row0[j0] // pv
        live.remove(i0)
        cols.remove(j0)
        back = pow(u, -1, p)
        shear = [(j, c) for j in cols if (c := row0[j] // pv * back % p)]
        for i in live:
            ai = a[i]
            f = ai[j0] // pv
            if f:
                for j in cols:
                    ai[j] = (u * ai[j] - f * row0[j]) % pm
            for d in ds:
                di = d[i]
                if f:
                    d0 = d[i0]
                    di[j0] = (u * di[j0] - f * d0[j0]) % p
                    for j in cols:
                        di[j] = (u * di[j] - f * d0[j]) % p
                x = di[j0]
                if x:
                    for j, c in shear:
                        di[j] = (di[j] - c * x) % p
    # every entry left has valuation >= m
    r2 = [[a[i][j] // p**m for j in cols] for i in live]
    return r2, [[[d[i][j] for j in cols] for i in live] for d in ds]

