"""Shared brute-force oracles, fixtures and random generators for the test suite.

The oracles enumerate vectors, module elements, minors or group elements
directly and never touch the reduction code they are checking: neither
`zpn.lambdas_mod` nor the engine's walk.  The composite-modulus route
(`kernel_size_mod`, `ask_mod_composite`) reads the Smith form over Z,
`smith_diagonal`, which also checks `MatrixModule.index`, the product of
its divisors.  The one exception is `family_ranks`, the oracle of
the walk's family counter: it takes the rank of every point of a family
with `lambdas_mod`, which the brute-force oracles above check on its own.
`quadric_zeros`, the oracle of the counter's closed count for 2 x 2
families, evaluates a quadratic polynomial at every point.
`reference_parse`, the oracle of the formula parser, reads the grammar one
character at a time and builds a normalised QTRational at every operation.
`reference_minors`, the oracle of `structural._all_minors`, takes every
minor as its own fraction-free determinant (`poly.bareiss_det`), and
`reference_reduce`, the oracle of `linalg._reduce`, eliminates dense rows
of Fractions; `frac_rref` reads the reduced echelon form off it.
`evaluated_rows`, the oracle of `module.rows_at`, evaluates a matrix of
`Poly` entries term by term at an integer point, and `evaluated_rank`
takes the rank of that by `frac_rref`.

The fixtures build the modules and groups of the paper's identities (direct
sums, zero rows and columns, rescaling, the semidirect embedding) through
the public constructors.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import HealthCheck, settings

from askzeta import GroupGenSet, InputError, IntMatrix, MatrixModule, SeriesQ
from askzeta.catalog import _FIXED
from askzeta.poly import Poly, bareiss_det
from askzeta.primes import is_prime
from askzeta.ratfun import MAX_EXPONENT, MAX_POWER_TERMS, QTRational

# Property tests draw the same examples on every run, so the suite stays
# reproducible; examples are not stored between runs.
settings.register_profile(
    "askzeta",
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("askzeta")


def brute_kernel_size_mod(a: IntMatrix, modulus: int) -> int:
    """Count x in (Z/N)^d with x*a = 0 mod N by full enumeration."""
    d, e = a.shape
    count = 0
    for x in product(range(modulus), repeat=d):
        if all(
            sum(x[k] * a.entries[k][j] for k in range(d)) % modulus == 0
            for j in range(e)
        ):
            count += 1
    return count


def brute_kernel_size(a: IntMatrix, p: int, n: int) -> int:
    return brute_kernel_size_mod(a, p**n)


def brute_image_size(a: IntMatrix, p: int, n: int) -> int:
    m = p**n
    d, e = a.shape
    seen = set()
    for x in product(range(m), repeat=d):
        seen.add(
            tuple(sum(x[k] * a.entries[k][j] for k in range(d)) % m for j in range(e))
        )
    return len(seen)


def element_rows(mod: MatrixModule, coeffs) -> list[list[int]]:
    """The module element sum c_i b_i over its canonical basis, as integer rows."""
    a = [[0] * mod.e for _ in range(mod.d)]
    for c, b in zip(coeffs, mod.basis):
        for i, row in enumerate(b.entries):
            for j, v in enumerate(row):
                a[i][j] += c * v
    return a


def brute_ask(mod: MatrixModule, p: int, n: int) -> Fraction:
    """Average kernel size by enumerating coefficient tuples and vectors."""
    if n == 0:
        return Fraction(1)
    total = 0
    count = 0
    for coeffs in product(range(p**n), repeat=mod.dim):
        total += brute_kernel_size(IntMatrix(element_rows(mod, coeffs)), p, n)
        count += 1
    return Fraction(total, count)


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
    """|Ker(a mod N)| for any modulus N >= 1: each Smith divisor s of a
    contributes gcd(s, N), each missing one N."""
    divs = smith_diagonal(a)
    size = modulus ** (a.rows - len(divs))
    for s in divs:
        size *= gcd(s, modulus)
    return size


def ask_mod_composite(mod: MatrixModule, modulus: int) -> Fraction:
    """Average kernel size of M over Z/N for any modulus N >= 1, element by element."""
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    total = sum(
        kernel_size_mod(IntMatrix(element_rows(mod, c)), modulus)
        for c in product(range(modulus), repeat=mod.dim)
    )
    return Fraction(total, modulus**mod.dim)


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


def _valuation(x: int, p: int) -> int:
    """The exponent of p in a nonzero integer x."""
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def equivalence_type_minors(a: IntMatrix, p: int) -> tuple[int, ...]:
    """Elementary divisor valuations (lam_1, ..., lam_r) of a at p, from minors:
    lam_1 + ... + lam_i is the least valuation of a nonzero i x i minor."""
    d, e = a.shape
    sums = [0]
    for i in range(1, min(d, e) + 1):
        vals = [
            _valuation(m, p)
            for rsel in combinations(range(d), i)
            for csel in combinations(range(e), i)
            if (m := _int_det([[a.entries[r][c] for c in csel] for r in rsel]))
        ]
        if not vals:
            break
        sums.append(min(vals))
    return tuple(sums[i] - sums[i - 1] for i in range(1, len(sums)))


def rank_distribution(d: int, e: int, r: int, q: int) -> int:
    """Number of d x e matrices of rank r over the field with q elements."""
    if not 0 <= r <= min(d, e):
        raise InputError(f"rank {r} out of range for {d} x {e}")
    value = Fraction(1)
    for i in range(r):
        value *= Fraction((q**e - q**i) * (q ** (d - i) - 1), q ** (i + 1) - 1)
    assert value.denominator == 1
    return int(value)


def check_constant_rank_fq(mod: MatrixModule, q: int, budget: int = 10**7):
    """(True, rank) when every nonzero element of M mod q has one rank over
    F_q, else (False, None); the zero module gives (True, 0).  Enumerates the
    (q^dim - 1)/(q - 1) projective points; the rank over F_q is the number of
    unit elementary divisors, read off the minors."""
    if not is_prime(q):
        raise InputError(f"q = {q} is not prime")
    if q**mod.dim > budget:
        raise InputError(f"q^dim = {q ** mod.dim} exceeds budget {budget}")
    ranks = set()
    # projective representatives: first nonzero coordinate equal to 1
    for j in range(mod.dim):
        for tail in product(range(q), repeat=mod.dim - 1 - j):
            rows = element_rows(mod, (0,) * j + (1,) + tail)
            ranks.add(equivalence_type_minors(IntMatrix(rows), q).count(0))
            if len(ranks) > 1:
                return False, None
    return True, ranks.pop() if ranks else 0


def leibniz_det(rows, nvars: int) -> Poly:
    """Determinant of a square Poly matrix as the signed sum over permutations."""
    n = len(rows)
    total = Poly(nvars)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Poly.const(nvars, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def minor_rank(rows, nvars: int) -> int:
    """Largest k with a nonzero k x k minor (Leibniz determinants)."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if not leibniz_det(sub, nvars).is_zero():
                    return k
    return 0


def reference_minor_table(rows, size: int) -> dict:
    """Every nonzero size x size minor of a Poly matrix, keyed by (row set,
    column set) in the order of the row sets, then the column sets; one
    fraction-free determinant each."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    table = {}
    for rsel in combinations(range(nr), size):
        for csel in combinations(range(nc), size):
            det = bareiss_det([[rows[i][j] for j in csel] for i in rsel])
            if not det.is_zero():
                table[rsel, csel] = det
    return table


def normalized(poly: Poly) -> Poly:
    """A nonzero Poly divided by its content, its lex-leading coefficient
    made positive."""
    g = gcd(*poly.terms.values())
    if poly.terms[max(poly.terms)] < 0:
        g = -g
    return Poly(poly.nvars, {e: c // g for e, c in poly.terms.items()})


def reference_minors(rows, size: int) -> list[Poly]:
    """The nonzero size x size minors in table order, each kept only when no
    earlier one has the same normalized form."""
    seen, minors = set(), []
    for det in reference_minor_table(rows, size).values():
        normed = normalized(det)
        if normed not in seen:
            seen.add(normed)
            minors.append(det)
    return minors


def reference_reduce(a, ncols: int) -> list[int]:
    """Dense reduced echelon form of the Fraction rows `a` in place: pivots in
    the first `ncols` columns, first column first and first row first, each
    pivot row scaled and subtracted entry by entry over the whole row."""
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
    """Reduced row echelon form over Q by `reference_reduce`.

    Returns (rref_rows, pivot_columns), the rows as lists of Fractions; zero
    rows are dropped.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = reference_reduce(a, len(a[0]) if a else 0)
    return a[: len(pivots)], pivots


def evaluated_rows(rows, point) -> list[list[int]]:
    """Every Poly entry of `rows` evaluated at an integer point, term by term."""
    return [
        [sum(c * prod(x**k for x, k in zip(point, e)) for e, c in f.terms.items()) for f in row]
        for row in rows
    ]


def evaluated_rank(rows, point) -> int:
    """Rank over Q of the Poly matrix `rows` evaluated at `point`."""
    return len(frac_rref(evaluated_rows(rows, point))[1])


def brute_brenti(n: int) -> dict[tuple[int, int], int]:
    """(negative entries, descents) of every signed permutation of [n], with
    the value 0 pinned in front, counted by enumeration."""
    out: dict[tuple[int, int], int] = {}
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            sigma = (0,) + tuple(s * v for s, v in zip(signs, perm))
            key = (signs.count(-1), sum(a > b for a, b in zip(sigma, sigma[1:])))
            out[key] = out.get(key, 0) + 1
    return out


def random_poly(rng: random.Random, nvars: int, bound=4) -> Poly:
    """A Poly with up to three terms of degree <= 2 per variable; zero a quarter of the time."""
    if rng.random() < 0.25:
        return Poly(nvars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = rng.randint(-bound, bound)
    return Poly(nvars, terms)


def random_poly_matrix(rng: random.Random, nr: int, nc: int, nvars: int):
    return [[random_poly(rng, nvars) for _ in range(nc)] for _ in range(nr)]


def random_module(rng: random.Random, dmax=3, emax=3, lmax=4, bound=5) -> MatrixModule:
    d = rng.randint(1, dmax)
    e = rng.randint(1, emax)
    ell = rng.randint(1, lmax)
    basis = [
        [[rng.randint(-bound, bound) for _ in range(e)] for _ in range(d)]
        for _ in range(ell)
    ]
    return MatrixModule(d, e, basis)


def family_ranks(a0, dirs, p: int) -> dict[tuple[int, ...], int]:
    """Rank over F_p of a0 + sum_a t_a dirs[a] at every t in F_p^j, point by point."""
    from askzeta.zpn import lambdas_mod

    ranks = {}
    for t in product(range(p), repeat=len(dirs)):
        rows = [
            [x + sum(s * d[i][c] for s, d in zip(t, dirs)) for c, x in enumerate(row)]
            for i, row in enumerate(a0)
        ]
        ranks[t] = len(lambdas_mod(rows, p, 1))
    return ranks


def quadric_zeros(q, l, c, p: int) -> int:
    """Points t of F_p^j with sum_ab q[a][b] t_a t_b + sum_a l[a] t_a + c = 0 mod p,
    one by one."""
    j = len(l)
    return sum(
        1
        for t in product(range(p), repeat=j)
        if (sum(q[a][b] * t[a] * t[b] for a in range(j) for b in range(j))
            + sum(x * y for x, y in zip(l, t)) + c) % p == 0
    )


def random_family(rng: random.Random, p: int, jmax: int = 4):
    """A random affine family (a0, dirs) of matrices mod p, often with a zero
    row or column, a row or column no direction touches, and a repeated or a
    zero direction."""
    nr, nc, j = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, jmax)
    density = rng.choice((0.3, 0.6, 1.0))

    def matrix():
        return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]

    a0, dirs = matrix(), [matrix() for _ in range(j)]
    # a row, then a column, that no direction touches, and half the time a zero one
    if rng.random() < 0.5:
        i = rng.randrange(nr)
        for m in dirs if rng.random() < 0.5 else [a0, *dirs]:
            m[i] = [0] * nc
    if rng.random() < 0.5:
        c = rng.randrange(nc)
        for m in dirs if rng.random() < 0.5 else [a0, *dirs]:
            for row in m:
                row[c] = 0
    if dirs and rng.random() < 0.3:
        dirs[rng.randrange(len(dirs))] = [row[:] for row in rng.choice(dirs)]
    if dirs and rng.random() < 0.3:
        dirs[rng.randrange(len(dirs))] = [[0] * nc for _ in range(nr)]
    return a0, dirs


def random_int_matrix(rng: random.Random, d: int, e: int, bound=9) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(e)] for _ in range(d)])


def random_unimodular(rng: random.Random, size: int, steps: int = 12) -> IntMatrix:
    """Product of random elementary row operations; determinant +-1."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return IntMatrix(rows)


def random_nilpotent(rng: random.Random, d: int, bound=4) -> IntMatrix:
    """A conjugate u N u^-1 of a strictly upper triangular N, scaled integral."""
    n = [[rng.randint(-bound, bound) if j > i else 0 for j in range(d)] for i in range(d)]
    u = random_unimodular(rng, d)
    # integer inverse of a unimodular matrix via rational elimination
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(d)]
        for i, row in enumerate(u.entries)
    ]
    red, _ = frac_rref(aug)
    uinv = IntMatrix([[int(v) for v in row[d:]] for row in red])
    return u @ IntMatrix(n) @ uinv


def brute_orbit_count(gens, d: int, m: int) -> int:
    """Orbits of the group generated by `gens` on (Z/m)^d: union-find over the
    edges x -> x*g, each image a full 1 x d by d x d IntMatrix product."""
    points = list(product(range(m), repeat=d))
    parent = {x: x for x in points}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for x in points:
            y = (IntMatrix([list(x)]) @ g).mod(m).entries[0]
            parent[root(x)] = root(tuple(y))
    return sum(1 for x in points if parent[x] == x)


def brute_closure(gens, d: int, m: int, limit: int):
    """The group generated by `gens` mod m as IntMatrix elements, by dense
    products of row tuples; None once it has more than `limit` elements."""
    columns = [tuple(zip(*g.entries)) for g in gens]
    identity = tuple(tuple(int(i == j) % m for j in range(d)) for i in range(d))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for cols in columns:
                h = tuple(tuple(sum(map(mul, row, col)) % m for col in cols) for row in el)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        if len(group) > limit:
            return None
        frontier = nxt
    return {IntMatrix(el) for el in group}


def brute_class_count(group, m: int) -> int:
    """Conjugacy classes of a finite matrix group mod m, conjugating every
    element by every group element (inverses found as powers)."""
    identity = IntMatrix.identity(next(iter(group)).rows).mod(m)
    pairs = []
    for h in group:
        inv = identity
        while (inv @ h).mod(m) != identity:
            inv = (inv @ h).mod(m)
        pairs.append((inv, h))
    seen = set()
    classes = 0
    for z in group:
        if z not in seen:
            classes += 1
            seen.update((inv @ z @ h).mod(m) for inv, h in pairs)
    return classes


# -- fixtures for the paper's identities ------------------------------------


def direct_sum(m1: MatrixModule, m2: MatrixModule) -> MatrixModule:
    """Block-diagonal sum inside Mat_{(d1+d2) x (e1+e2)}."""
    e = m1.e + m2.e
    basis = [
        [list(r) + [0] * m2.e for r in b.entries] + [[0] * e for _ in range(m2.d)]
        for b in m1.basis
    ]
    basis += [
        [[0] * e for _ in range(m1.d)] + [[0] * m1.e + list(r) for r in b.entries]
        for b in m2.basis
    ]
    return MatrixModule(m1.d + m2.d, e, basis)


def add_zero_row(m: MatrixModule, position: int) -> MatrixModule:
    if not 0 <= position <= m.d:
        raise InputError(f"row position {position} out of range 0..{m.d}")
    basis = [list(b.entries) for b in m.basis]
    for rows in basis:
        rows.insert(position, [0] * m.e)
    return MatrixModule(m.d + 1, m.e, basis, m.label)


def add_zero_col(m: MatrixModule, position: int) -> MatrixModule:
    if not 0 <= position <= m.e:
        raise InputError(f"column position {position} out of range 0..{m.e}")
    basis = [[r[:position] + (0,) + r[position:] for r in b.entries] for b in m.basis]
    return MatrixModule(m.d, m.e + 1, basis, m.label)


def rescale(m: MatrixModule, scale_exp: int, p: int) -> MatrixModule:
    """The module times p^scale_exp (a strictly smaller lattice for scale_exp > 0)."""
    if scale_exp < 0:
        raise InputError("rescaling exponent must be >= 0")
    return MatrixModule(m.d, m.e, [p**scale_exp * b for b in m.basis], m.label)


def semidirect_embed(m: MatrixModule) -> GroupGenSet:
    """The block unipotent group [[1, b], [0, 1]] over the module's basis.

    Its orbit count on (Z/p^n)^(d+e) is p^(e*n) times ask(M, Z/p^n).
    """
    size = m.d + m.e
    gens = []
    for b in m.basis:
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
        for i, row in enumerate(b.entries):
            rows[i][m.d :] = row
        gens.append(IntMatrix(rows))
    return GroupGenSet(size, tuple(gens) or (IntMatrix.identity(size),))


def log_unipotent(u: IntMatrix, ring) -> IntMatrix:
    """log(u) mod p^n for u = 1 + N with N nilpotent and p >= d, the inverse
    of exp_nilpotent: the sum of (-1)^(i+1) N^i / i for i < d."""
    d, m = u.rows, ring.modulus
    nil = u - IntMatrix.identity(d)
    result = IntMatrix.zeros(d, d)
    term = IntMatrix.identity(d)
    for i in range(1, d):
        term = term @ nil
        result = result + (-1) ** (i + 1) * pow(i, -1, m) * term
    return result.mod(m)


# -- formula parser oracle ------------------------------------------------


def _reference_check_size(boxes) -> None:
    """The parse size bound on the union of exponent boxes (None is zero)."""
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


def _reference_box_mul(a, b):
    if a is None or b is None:
        return None
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]


def _reference_pow(v: QTRational, k: int) -> QTRational:
    """v^k as k - 1 normalising products, after the size check."""
    if k < 0:
        return QTRational.const(1) / _reference_pow(v, -k)
    for box in v.boxes:
        _reference_check_size([box and tuple(k * x for x in box)])
    if k == 0:
        return QTRational.const(1)
    out = v
    for _ in range(k - 1):
        out = out * v
    return out


class _ReferenceParser:
    """The formula grammar of `ratfun`, read one character at a time, with a
    normalised QTRational built at every operation."""

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
            self.check(v, op, rhs)
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
            self.check(v, op, rhs)
            v = v * rhs if op == "*" else v / rhs
        return v

    @staticmethod
    def check(a: QTRational, op: str, b: QTRational) -> None:
        (an, ad), (bn, bd) = a.boxes, b.boxes
        mul = _reference_box_mul
        if op == "*":
            parts = ([mul(an, bn)], [mul(ad, bd)])
        elif op == "/":
            parts = ([mul(an, bd)], [mul(ad, bn)])
        else:
            parts = ([mul(an, bd), mul(bn, ad)], [mul(ad, bd)])
        for boxes in parts:
            _reference_check_size(boxes)

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
            v = _reference_pow(v, k)
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
        except ValueError:
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


def reference_parse(text: str) -> QTRational:
    """Oracle for `ratfun.parse_rational`: the same grammar, positions,
    size checks and messages, evaluated one normalising QTRational
    operation at a time (a power as repeated products)."""
    return _ReferenceParser(text).parse()


# -- helpers shared by several test files ----------------------------------


def hadamard(a: SeriesQ, b: SeriesQ) -> SeriesQ:
    """Coefficientwise product of two series with matching q and order."""
    if a.q_value != b.q_value or a.order != b.order:
        raise InputError("Hadamard product needs equal q values and orders")
    return SeriesQ(a.q_value, tuple(x * y for x, y in zip(a.coeffs, b.coeffs)))


def algebra_keys() -> tuple[str, ...]:
    """The catalog's nilpotent Lie algebra models L_{d,i}, sorted."""
    return tuple(sorted(k for k in _FIXED if k.startswith("L_{")))


@pytest.fixture
def rng():
    return random.Random(20260810)
