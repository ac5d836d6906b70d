"""Exact linear algebra helpers: rational elimination, Hermite form, inverses mod p^n."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def _reduce(a, ncols: int) -> list[int]:
    """Bring the Fraction rows `a` to reduced echelon form in place.

    Pivots are sought only in the first `ncols` columns, first column first
    and first row first; the pivot columns are returned, and the rows below
    the last pivot row are zero there.  A pivot row is zero before its pivot
    column, so the row operations touch only its nonzero entries from there.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r]
        support = [j for j in range(c, len(row)) if row[j]]
        inv = 1 / row[c]
        for j in support:
            row[j] *= inv
        for i, other in enumerate(a):
            f = other[c]
            if f and i != r:
                for j in support:
                    other[j] -= f * row[j]
        pivots.append(c)
        r += 1
    return pivots


def frac_rref(rows):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_columns); zero rows are dropped.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = _reduce(a, len(a[0]) if a else 0)
    return a[: len(pivots)], pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[0])


def frac_solve_multi(rows, targets):
    """Solutions of A x = t over Q for several right-hand sides, one elimination.

    `rows` are the rows of A.  Each entry of the result is one solution, with
    the free variables set to zero, or None when that t is inconsistent:
    pivots are sought only among the columns of A, so t is inconsistent
    exactly when it is nonzero in a row whose A-part was cleared.
    """
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0)
    aug = [
        [Fraction(v) if v else zero for v in row]
        + [Fraction(t[i]) if t[i] else zero for t in targets]
        for i, row in enumerate(rows)
    ]
    pivots = _reduce(aug, ncols)
    sols = []
    for col in range(ncols, ncols + len(targets)):
        if any(aug[i][col] for i in range(len(pivots), len(aug))):
            sols.append(None)
            continue
        sol = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            sol[c] = aug[i][col]
        sols.append(tuple(sol))
    return sols


def hermite_form(rows) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of the lattice generated by integer rows.

    Returns the canonical basis: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows dropped, so equal lattices give equal
    bases.  The lattice (not just the rational span) is preserved.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    basis = []
    for c in range(len(a[0]) if a else 0):
        # Euclid's algorithm across the rows nonzero at c; reducing by the
        # smallest entry keeps the multipliers, and so the entries, small
        live = [row for row in a if row[c]]
        a = [row for row in a if not row[c]]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[c]))
            piv, rest = live[0], []
            for row in live[1:]:
                q = row[c] // piv[c]
                row = [x - q * y for x, y in zip(row, piv)]
                if row[c]:
                    rest.append(row)
                elif any(row):
                    a.append(row)
            live = [piv] + rest
        if live:
            basis.append(live[0] if live[0][c] > 0 else [-v for v in live[0]])
    # reduce entries above each pivot, first pivot first: subtracting row k
    # changes only the columns after pivot k, which later pivots reduce
    for k, row_k in enumerate(basis):
        c = next(j for j, v in enumerate(row_k) if v)
        for i in range(k):
            q = basis[i][c] // row_k[c]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], row_k)]
    return [tuple(r) for r in basis]


def matrix_inverse_mod(entries, p: int, n: int):
    """Inverse of a square integer matrix mod p^n.

    The inverse over Q has denominators coprime to p exactly when the matrix
    is invertible mod p; each entry is then reduced mod p^n.
    """
    size = len(entries)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(entries)
    ]
    red, pivots = frac_rref(aug)
    if pivots[:size] != list(range(size)):
        raise InputError("matrix not invertible over Q")
    pn = p**n
    out = []
    for row in red:
        out_row = []
        for v in row[size:]:
            if v.denominator % p == 0:
                raise InputError("matrix not invertible mod p")
            out_row.append(v.numerator * pow(v.denominator, -1, pn) % pn)
        out.append(tuple(out_row))
    return out

