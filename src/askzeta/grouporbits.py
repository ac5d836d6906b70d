"""Finite-level group computations: orbits on (Z/p^n)^d, conjugacy classes of
unipotent groups, and nilpotent exponentials.

A NilpotentAlgebra decides each property once: Lie closure in its adjoint
module, nilpotency (by Engel's theorem) in its class computation, which a
nonzero trace of a basis element or of a product of two rejects beforehand.

Conventions: groups act on row vectors from the right.  Orbit enumeration
applies generators only (no inverses): every generator acts with finite order
on a finite set, so forward closure already yields the group orbits.

A generator acts only through the coordinates it moves (_moved_columns, worked
out once per call; a generator that is the identity mod p^n drops out).  The
orbit BFS runs on the points' lexicographic indices: per level, a table of the
index of x*g for every x and every generator that moves a column, filled a row
of p^n points at a time.

A group mod p^n is closed once (group_closure).  The coordinates of flat
d x d matrices that no element moves are found from the generators alone and
not stored; an element is one integer, its varying coordinates as digits base
p^n, and each generator's y -> y*g an affine map on those digits.  The closure
numbers its elements in BFS order and keeps, per generator, the index of
y*g for every element y, and for each element the one it was reached from.
The conjugation's y -> g^-1*y*g is then two table lookups per element: no
matrix products after the closure.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, repeat
from math import factorial
from operator import add

from .catalog import catalog_module
from .engine import DEFAULT_BUDGET, ask_series
from .errors import BudgetExceededError, InputError
from .intmat import IntMatrix, from_flat
from .linalg import hermite_form, matrix_inverse_mod
from .module import MatrixModule, ad_representation
from .primes import is_prime, primitive_root
from .zpn import RingSpec, lambdas_mod


@dataclass(frozen=True)
class GroupGenSet:
    """Generators of a subgroup of GL_d(Z); must be invertible mod the primes
    they are used at."""

    d: int
    generators: tuple[IntMatrix, ...]
    label: str = ""

    def __post_init__(self):
        for g in self.generators:
            if g.shape != (self.d, self.d):
                raise InputError("generator shape mismatch")

    def check_invertible(self, p: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        for g in self.generators:
            if len(lambdas_mod(g.entries, p, 1)) != self.d:
                raise InputError(f"generator not invertible mod {p}")


class NilpotentAlgebra:
    """A module of nilpotent matrices closed under commutators.

    Construction checks the square shape, builds the adjoint module (which
    raises unless the lattice is closed under commutators with integer
    structure constants), and computes the associative nilpotency class: the
    smallest c such that all products of c+1 basis elements vanish.  By
    Engel's theorem a Lie algebra of d x d matrices consists of nilpotent
    matrices exactly when all products of d of its elements vanish, so the
    class computation, which gives up past d, is the one nilpotency test.
    Such an algebra is simultaneously strictly upper triangular, so before
    the class rounds a nonzero tr(b_i) or tr(b_i b_j) rejects it at once.
    """

    def __init__(self, module: MatrixModule):
        if module.d != module.e:
            raise InputError("nilpotent algebra needs square matrices")
        self.ad = ad_representation(module)  # raises unless Lie-closed over Z
        self.module = module
        if not _traces_vanish(module.basis):
            raise InputError(_NOT_NILPOTENT)
        self.nilpotency_class = self._nilpotency_class()

    @property
    def d(self) -> int:
        return self.module.d

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def label(self) -> str:
        return self.module.label

    def _nilpotency_class(self) -> int:
        span = list(self.module.basis)
        c = 0
        while span:
            c += 1
            nxt = []
            for b in self.module.basis:
                for s in span:
                    prod_mat = b @ s
                    if not prod_mat.is_zero():
                        nxt.append(prod_mat.flat())
            span = [from_flat(r, self.d, self.d) for r in hermite_form(nxt)]
            if c > self.d:
                raise InputError(_NOT_NILPOTENT)
        # after the loop, products of length c+1 vanish and length c did not
        return c

    def identity_hypothesis_warnings(self, p: int) -> list[str]:
        """Hypotheses for the orbit/conjugacy identities: p >= d and isolation."""
        out = []
        if p < self.d:
            out.append(f"p = {p} < matrix size {self.d}")
        if not self.module.is_isolated_at(p):
            out.append(f"lattice not isolated at p = {p}")
        return out

    def __repr__(self):
        return f"NilpotentAlgebra({self.label or self.module!r}, class {self.nilpotency_class})"


_NOT_NILPOTENT = "products do not terminate; not nilpotent"


def _traces_vanish(basis) -> bool:
    """Whether tr(b_i) and tr(b_i b_j) are 0 for all basis elements."""
    nonzero = [
        [(k, l, v) for k, row in enumerate(b.entries) for l, v in enumerate(row) if v]
        for b in basis
    ]
    if any(sum(v for k, l, v in entries if k == l) for entries in nonzero):
        return False
    return not any(
        sum(v * bj.entries[l][k] for k, l, v in entries)
        for i, entries in enumerate(nonzero)
        for bj in basis[i:]
    )


def catalog_algebra(key: str) -> NilpotentAlgebra:
    """Nilpotent algebra models by catalog key ("L_{3,2}", "n(4)", ...)."""
    return NilpotentAlgebra(catalog_module(key))


# -- exponential ------------------------------------------------------------


def exp_nilpotent(a: IntMatrix, ring: RingSpec) -> IntMatrix:
    """exp(a) mod p^n for a nilpotent integer matrix; needs p >= d so that the
    factorials 1/i! for i < d are units."""
    if a.rows != a.cols:
        raise InputError("exp of a non-square matrix")
    d = a.rows
    power = a.matpow(d)
    if ring.n:
        power = power.mod(ring.modulus)
    if not power.is_zero():
        raise InputError("matrix is not nilpotent")
    if ring.p < d:
        raise InputError(
            f"exp undefined: factorial denominators not invertible for p < {d}"
        )
    if ring.n == 0:
        return IntMatrix.zeros(d, d)
    m = ring.modulus
    result = IntMatrix.identity(d)
    term = IntMatrix.identity(d)
    for i in range(1, d):
        term = term @ a
        inv = pow(factorial(i), -1, m)
        result = result + inv * term
    return result.mod(m)


# -- orbit counting on (Z/p^n)^d --------------------------------------------


def _moved_columns(g, d: int, m: int):
    """The columns a flat d x d matrix moves mod m: (j, ((k, g_kj), ...)) for
    every j whose column is not e_j, with the nonzero g_kj reduced mod m.
    Empty for a matrix that is the identity mod m."""
    moved = []
    for j in range(d):
        col = tuple((k, g[k * d + j] % m) for k in range(d) if g[k * d + j] % m)
        if col != ((j, 1),):
            moved.append((j, col))
    return tuple(moved)


def _typecode(size: int) -> str:
    """The narrowest array typecode that holds every index below size."""
    return next(c for c in "BHIQ" if size <= 1 << 8 * array(c).itemsize)


def _index_table(g, d: int, p: int, n: int) -> array:
    """The lexicographic index of x*g for every x in (Z/p^n)^d, in
    lexicographic order of x.

    A row of the table is the m = p^n points that share x_0 .. x_(d-2).  Along
    a row, coordinate j of x*g is (c + t*a) mod m, where c comes from the
    shared coordinates, t = x_(d-1) and a = g_(d-1,j).  With a = P*u, P a
    power of p and u a unit mod Q = m/P, that is r + P*((s + t)*u mod Q) for
    r = c mod P and s = (c div P)/u mod Q, so the row's index is a constant
    plus, for each j with a != 0, the slice [s, s + m) of one list per column.
    """
    m = p**n
    last = d - 1
    constant, sliding = [], []
    for j in range(d):
        w = m ** (last - j)
        col = tuple((k, g[k * d + j] % m) for k in range(last) if g[k * d + j] % m)
        a = g[last * d + j] % m
        if not a:
            constant.append((w, col))
            continue
        P = 1
        while a % (P * p) == 0:
            P *= p
        Q, u = m // P, a // P
        steps = [w * P * (t * u % Q) for t in range(Q + m)]
        sliding.append((w, col, P, Q, pow(u, -1, Q), steps))
    table = array(_typecode(m**d))
    for x in product(range(m), repeat=last):
        base = 0
        for w, col in constant:
            base += w * (sum(x[k] * c for k, c in col) % m)
        slices = []
        for w, col, P, Q, u_inv, steps in sliding:
            high, r = divmod(sum(x[k] * c for k, c in col) % m, P)
            base += w * r
            s = high * u_inv % Q
            slices.append(steps[s : s + m])
        row = repeat(base, m)
        for sl in slices:
            row = map(add, row, sl)
        table.extend(row)
    return table


def orbit_count_vectors(gens_flat, d: int, p: int, n: int, budget: int) -> int:
    """Number of orbits of the generated group on (Z/p^n)^d by BFS.

    The BFS runs on lexicographic indices: one _index_table per generator
    that moves a column, and a mark byte per point.  That is size * (b * k + 1)
    bytes for size = p^(d*n) points, k such generators and b-byte table
    entries (b = 1, 2, 4 or 8: the fewest that hold every index).
    """
    if n == 0:
        return 1
    size = p ** (d * n)
    if size > budget:
        raise BudgetExceededError(size, budget)
    tables = [_index_table(g, d, p, n) for g in _acting(gens_flat, d, p**n)]
    return _orbit_count(tables, size)


def _orbit_count(tables, size: int) -> int:
    """Number of orbits on range(size) of the maps y -> table[y], one per
    table, by BFS with a mark byte per point."""
    marks = bytearray(size)
    orbits = 0
    start = marks.find(0)
    while start >= 0:
        orbits += 1
        marks[start] = 1
        stack = [start]
        while stack:
            y = stack.pop()
            for table in tables:
                z = table[y]
                if not marks[z]:
                    marks[z] = 1
                    stack.append(z)
        start = marks.find(0, start + 1)
    return orbits


def oc_coefficients(
    group: GroupGenSet, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Orbit counts of the group on (Z/p^n)^d for n = 0 .. n_max."""
    group.check_invertible(p)
    out = []
    for n in range(n_max + 1):
        m = p**n
        gens = [g.mod(m).flat() for g in group.generators] if n else []
        out.append(orbit_count_vectors(gens, group.d, p, n, budget))
    return out


# -- group closure and conjugacy classes ------------------------------------


def _sandwich_moves(a, b, d: int, m: int):
    """The coordinates y -> a*y*b moves on flat d x d matrices y, for flat
    d x d matrices a and b: _moved_columns of its d^2 x d^2 matrix, whose
    entry at ((k, l), (i, j)) is a_ik * b_lj."""
    r = range(d)
    matrix = [a[i * d + k] * b[l * d + j] for k in r for l in r for i in r for j in r]
    return _moved_columns(matrix, d * d, m)


def _varying_coordinates(identity, moves, m: int) -> tuple[int, ...]:
    """The coordinates of flat matrices that some element of the group moves.

    A coordinate is fixed (its identity value in every element) while every
    right action that rewrites it reads only fixed coordinates and gives back
    its identity value; the fixed set shrinks to that condition's largest
    solution, and the rest vary.
    """
    fixed = set(range(len(identity)))
    shrinking = True
    while shrinking:
        shrinking = False
        for moved in moves:
            for j, col in moved:
                if j in fixed and (
                    any(k not in fixed for k, _ in col)
                    or sum(identity[k] * c for k, c in col) % m != identity[j]
                ):
                    fixed.discard(j)
                    shrinking = True
    return tuple(j for j in range(len(identity)) if j not in fixed)


def _encode(flat, coords, m: int) -> int:
    """A group element's code: its varying coordinates as digits base m,
    the first coordinate lowest."""
    code = 0
    for j in reversed(coords):
        code = code * m + flat[j] % m
    return code


class GroupClosure:
    """The elements of a finite matrix group mod m, numbered in BFS order from
    the identity (index 0), as tables over the generators that act.

    `coords` lists the varying coordinates of a flat d x d element, `index`
    maps each element's code (_encode) to its index, `right[a][i]` is the
    index of element i times generator a, and element i > 0 is element
    `parent[i]` times generator `last[i]`.  A plain class: a dataclass would
    add about half a millisecond to importing the package.
    """

    __slots__ = ("coords", "index", "right", "parent", "last")

    def __init__(self, coords, index, right, parent, last):
        self.coords: tuple[int, ...] = coords
        self.index: dict[int, int] | None = index
        self.right: list[array] = right
        self.parent: array = parent
        self.last: array = last

    def __len__(self):
        return len(self.parent)


def _acting(gens_flat, d: int, m: int) -> list:
    """The generators that are not the identity mod m."""
    return [g for g in gens_flat if _moved_columns(g, d, m)]


def group_closure(gens_flat, d: int, m: int, budget: int) -> GroupClosure:
    """All elements of the subgroup generated by the given units mod m.

    Each generator's right action y -> y*g is an affine map on the varying
    coordinates; the BFS applies it to the digits of each element's code.
    """
    identity = tuple(int(i == j) for i in range(d) for j in range(d))
    gens = _acting(gens_flat, d, m)
    moves = [_sandwich_moves(identity, g, d, m) for g in gens]
    coords = _varying_coordinates(identity, moves, m)
    digit = {j: t for t, j in enumerate(coords)}
    weights = [m**t for t in range(len(coords))]
    # per generator: (weight, digit, constant, ((digit, factor), ...)) of
    # every varying coordinate it rewrites
    maps = [
        [
            (
                weights[digit[j]],
                digit[j],
                sum(identity[k] * c for k, c in col if k not in digit),
                tuple((digit[k], c) for k, c in col if k in digit),
            )
            for j, col in moved
            if j in digit
        ]
        for moved in moves
    ]
    code = _encode(identity, coords, m)
    codes = [code]
    index = {code: 0}
    typecode = _typecode(min(budget, 1 << 64))
    right = [array(typecode) for _ in gens]
    parent = array(typecode, [0])
    last = array(_typecode(max(len(gens), 1)), [0])
    steps = list(zip(maps, (r.append for r in right)))
    size = 1
    for i, code in enumerate(codes):
        x = [code // w % m for w in weights]
        for a, (affine, put) in enumerate(steps):
            image = code
            for w, t, v, col in affine:
                for k, c in col:
                    v += x[k] * c
                image += w * (v % m - x[t])
            j = index.setdefault(image, size)
            if j == size:
                size += 1
                if size > budget:
                    raise BudgetExceededError(size, budget, "group too large")
                codes.append(image)
                parent.append(i)
                last.append(a)
            put(j)
    return GroupClosure(coords, index, right, parent, last)


def _left_tables(closure: GroupClosure, gens_flat, d: int, p: int, n: int) -> list[array]:
    """left[a][i] = the index of g_a^-1 * y_i for each generator g_a that
    acts and each element y_i of the closure.

    The index of each g_a^-1 is looked up once; then the closure's element
    index is freed, and g_a^-1 * y_i = (g_a^-1 * y_parent(i)) * g_last(i)
    fills the tables in BFS order from lookups in `right`.
    """
    m = p**n
    starts = []
    for g in _acting(gens_flat, d, m):
        inv_rows = matrix_inverse_mod([g[i * d : (i + 1) * d] for i in range(d)], p, n)
        inverse = [v for row in inv_rows for v in row]
        starts.append(closure.index[_encode(inverse, closure.coords, m)])
    closure.index = None
    right, parent, last = closure.right, closure.parent, closure.last
    tables = []
    for start in starts:
        left = array(parent.typecode, [start])
        put = left.append
        for i, a in zip(islice(parent, 1, None), islice(last, 1, None)):
            put(right[a][left[i]])
        tables.append(left)
    return tables


def conjugacy_class_count(closure: GroupClosure, gens_flat, d: int, p: int, n: int) -> int:
    """Number of orbits of the conjugation action y -> g^-1 y g on the
    elements of `closure`, the group the generators generate.

    Reads g^-1 * y * g as right[a][left[a][i]] (_left_tables, which frees the
    closure's element index): no matrix products once the g^-1 are found.
    """
    tables = _left_tables(closure, gens_flat, d, p, n)
    for a, left in enumerate(tables):
        tables[a] = array(left.typecode, map(closure.right[a].__getitem__, left))
    return _orbit_count(tables, len(closure))


def exp_group(alg: NilpotentAlgebra, p: int, n: int) -> GroupGenSet:
    """exp of the basis mod p^n (mod p at n = 0).  Reduced mod p^m, these generate
    the exponential group at each level m <= n: 1/i! mod p^n is 1/i! mod p^m."""
    if p < alg.d:
        raise InputError(f"need p >= {alg.d} for the exponential")
    ring = RingSpec(p, max(n, 1))
    gens = tuple(exp_nilpotent(b, ring) for b in alg.module.basis)
    return GroupGenSet(alg.d, gens, f"exp({alg.label})")


def cc_coefficients_direct(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Conjugacy class counts of the level-n images of the exponential group.

    The group at level n is generated by exp of the basis mod p^n; its order
    p^(dim * n) must stay within the budget.
    """
    group = exp_group(alg, p, n_max)
    out = [1]
    for n in range(1, n_max + 1):
        expected = p ** (alg.dim * n)
        if expected > budget:
            raise BudgetExceededError(expected, budget)
        m = p**n
        gens = [g.mod(m).flat() for g in group.generators]
        closure = group_closure(gens, alg.d, m, budget)
        out.append(conjugacy_class_count(closure, gens, alg.d, p, n))
    return out


def _via_ask(
    alg: NilpotentAlgebra, m: MatrixModule, p: int, n_max: int, budget: int
) -> list[Fraction]:
    """ask_series of m, then a warning per violated identity hypothesis: the
    series checks p and n_max before the hypotheses divide by p."""
    coeffs = ask_series(m, p, n_max, budget=budget)
    for msg in alg.identity_hypothesis_warnings(p):
        warnings.warn(f"identity hypothesis violated: {msg}", stacklevel=3)
    return coeffs


def cc_via_ask(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[Fraction]:
    """Conjugacy class counts through the adjoint module's kernel averages."""
    return _via_ask(alg, alg.ad, p, n_max, budget)


def oc_via_ask(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[Fraction]:
    """Orbit counts of the exponential group through kernel averages of the
    algebra itself."""
    return _via_ask(alg, alg.module, p, n_max, budget)


def gl_generators(d: int, p: int, n: int) -> GroupGenSet:
    """Generators of GL_d(Z/p^n): elementary transvections plus diagonal units.

    For odd p one diagonal entry runs through a primitive root mod p^n; for
    p = 2 the diagonal units -1 and 5 are used instead.  This is a helper
    set; its correctness at n > 1 is something callers test, not assume.
    """
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j:
                rows = [[int(a == b) for b in range(d)] for a in range(d)]
                rows[i][j] = 1
                gens.append(IntMatrix(rows))
    units = [primitive_root(p, n)] if p != 2 else [-1, 5]
    for u in units:
        rows = [[int(a == b) for b in range(d)] for a in range(d)]
        rows[0][0] = u
        gens.append(IntMatrix(rows))
    return GroupGenSet(d, tuple(gens), f"GL({d})")
