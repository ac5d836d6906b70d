"""Exact linear algebra helpers: fraction-free elimination over Q and the
Hermite form over Z."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _clear(row: dict, pivot_row: dict, c: int) -> None:
    """Make `row` zero at column c with the pivot row, then primitive, in place.

    row becomes (p/g) row - (f/g) pivot_row, where p and f are the two rows'
    entries at c and g = gcd(p, f), and is then divided by its content, so
    its entries stay as small as a multiple of its rational form allows.
    """
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in pivot_row.items():
        x = row.get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]
    _divide_content(row)


def _divide_content(row: dict) -> None:
    """Divide the integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _reduce(rows: list, ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination over Q of the sparse integer rows
    `rows` ({column: int}, zero entries absent), in place.

    Returns the pivot columns of the reduced echelon form, where pivots are
    sought only among the columns below `ncols`.  Afterwards rows[i], for
    i < len(pivots), is a primitive integer multiple of the i-th row of that
    form, so rows[i][c] / rows[i][pivots[i]] is its entry at c; the other
    rows have no entry below `ncols`.  Each row in turn is cleared at every
    pivot column it holds; if it keeps an entry below `ncols`, it is made
    primitive and its first such entry is a new pivot, which is cleared from
    the earlier pivot rows.  So a pivot row is zero at every other pivot
    column throughout, and the work follows the rows' nonzero entries.  The
    form is unique, so the order in which the rows come does not change the
    result.
    """
    pivot_rows = {}
    rest = []
    for row in rows:
        for c in [c for c in row if c in pivot_rows]:
            _clear(row, pivot_rows[c], c)
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            rest.append(row)
            continue
        _divide_content(row)
        for other in pivot_rows.values():
            if lead in other:
                _clear(other, row, lead)
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    rows[:] = [pivot_rows[c] for c in pivots] + rest
    return pivots


def sparse_row(values, offset: int = 0) -> dict:
    """{offset + j: v} for the nonzero entries v of `values`."""
    return {offset + j: v for j, v in enumerate(values) if v}


def frac_rank(rows) -> int:
    """Rank over Q of a matrix of integers."""
    width = len(rows[0]) if rows else 0
    return len(_reduce([sparse_row(row) for row in rows], width))


def frac_solve_multi(rows: list, ncols: int, ntargets: int):
    """Solutions of A x = t over Q for several right-hand sides, one elimination.

    `rows` are the sparse rows ({column: int}) of [A | t_0 ... t_(ntargets-1)]:
    A holds the columns below `ncols`, and t_j the column ncols + j.  They
    are reduced in place.  Each entry of the result is one solution, a tuple
    of Fractions with the free variables set to zero, or None when that t is
    inconsistent: pivots are sought only among the columns of A, so t is
    inconsistent exactly when it is nonzero in a row whose A-part was cleared.
    """
    pivots = _reduce(rows, ncols)
    rank = len(pivots)
    inconsistent = set().union(*rows[rank:])
    zero = Fraction(0)
    sols = []
    for col in range(ncols, ncols + ntargets):
        if col in inconsistent:
            sols.append(None)
            continue
        sol = [zero] * ncols
        for row, c in zip(rows, pivots):
            if col in row:
                sol[c] = Fraction(row[col], row[c])
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
