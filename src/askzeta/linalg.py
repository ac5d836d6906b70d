"""Exact linear algebra helpers: rational elimination, Hermite form, inverses mod p^n."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def _reduce(a, ncols: int) -> list[int]:
    """Bring the Fraction rows `a` to reduced echelon form in place.

    Pivots are sought only in the first `ncols` columns; the pivot columns
    are returned, and the rows below the last pivot row are zero there.
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
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
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
    aug = [
        [Fraction(v) for v in row] + [Fraction(t[i]) for t in targets]
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


def frac_solve(rows, rhs):
    """One exact solution of A x = b over Q, or None if inconsistent."""
    return frac_solve_multi(rows, [rhs])[0]


def hermite_form(rows) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of the lattice generated by integer rows.

    Returns a canonical basis: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows dropped.  The lattice (not just the
    rational span) is preserved.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return []
    ncols = len(a[0])
    basis = []
    r = 0
    for c in range(ncols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r + 1, len(a)) if a[i][c]]
            if a[r:] and a[r][c] == 0:
                if nz:
                    a[r], a[nz[0]] = a[nz[0]], a[r]
                    continue
                break
            if not nz:
                break
            for i in nz:
                x, y = a[r][c], a[i][c]
                if y % x == 0:
                    q = y // x
                    a[i] = [v - q * w for v, w in zip(a[i], a[r])]
                else:
                    g, s, t = _xgcd(x, y)
                    u, v = x // g, y // g
                    row_r = [s * w + t * z for w, z in zip(a[r], a[i])]
                    row_i = [-v * w + u * z for w, z in zip(a[r], a[i])]
                    a[r], a[i] = row_r, row_i
        if r < len(a) and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-v for v in a[r]]
            basis.append(r)
            r += 1
            if r == len(a):
                break
    rows_out = [a[i] for i in basis]
    # reduce entries above each pivot
    for k in range(len(rows_out) - 1, -1, -1):
        c = next(j for j, v in enumerate(rows_out[k]) if v)
        piv = rows_out[k][c]
        for i in range(k):
            q = rows_out[i][c] // piv
            if q:
                rows_out[i] = [x - q * y for x, y in zip(rows_out[i], rows_out[k])]
    return [tuple(r) for r in rows_out]


def _xgcd(a: int, b: int):
    """g, s, t with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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

