"""Shared brute-force oracles and random generators for the test suite.

The oracles enumerate vector spaces directly and never touch the reduction
code they are checking.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, settings

from askzeta import IntMatrix, MatrixModule
from askzeta.poly import Poly

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


def brute_kernel_size(a: IntMatrix, p: int, n: int) -> int:
    """Count x in (Z/p^n)^d with x*a = 0 mod p^n by full enumeration."""
    m = p**n
    d, e = a.shape
    count = 0
    for x in product(range(m), repeat=d):
        if all(
            sum(x[k] * a.entries[k][j] for k in range(d)) % m == 0 for j in range(e)
        ):
            count += 1
    return count


def brute_image_size(a: IntMatrix, p: int, n: int) -> int:
    m = p**n
    d, e = a.shape
    seen = set()
    for x in product(range(m), repeat=d):
        seen.add(
            tuple(sum(x[k] * a.entries[k][j] for k in range(d)) % m for j in range(e))
        )
    return len(seen)


def brute_ask(mod: MatrixModule, p: int, n: int) -> Fraction:
    """Average kernel size by enumerating coefficient tuples and vectors."""
    if n == 0:
        return Fraction(1)
    m = p**n
    total = 0
    count = 0
    for coeffs in product(range(m), repeat=mod.dim):
        a = [[0] * mod.e for _ in range(mod.d)]
        for c, b in zip(coeffs, mod.basis):
            for i, row in enumerate(b.entries):
                for j, v in enumerate(row):
                    a[i][j] += c * v
        total += brute_kernel_size(IntMatrix(a), p, n)
        count += 1
    return Fraction(total, count)


def brute_kernel_size_mod(a: IntMatrix, modulus: int) -> int:
    d, e = a.shape
    count = 0
    for x in product(range(modulus), repeat=d):
        if all(
            sum(x[k] * a.entries[k][j] for k in range(d)) % modulus == 0
            for j in range(e)
        ):
            count += 1
    return count


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
    from askzeta.linalg import frac_rref

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
    products; None once it has more than `limit` elements."""
    identity = IntMatrix.identity(d).mod(m)
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                h = (el @ g).mod(m)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        if len(group) > limit:
            return None
        frontier = nxt
    return group


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


@pytest.fixture
def rng():
    return random.Random(20260810)
