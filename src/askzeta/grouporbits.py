"""Finite-level group computations: orbits on (Z/p^n)^d, conjugacy classes of
unipotent groups, and nilpotent exponentials.

A NilpotentAlgebra decides each property once: a nonzero trace of a basis
element or of a product of two rejects it as not nilpotent before anything
is built, then Lie closure in its adjoint module, then nilpotency (by Engel's
theorem) in its class computation.  The spans of products that the class
computation builds also give its flag basis: a unimodular U that makes every
U*b*U^-1 strictly upper triangular, so the exponential group is unitriangular
whatever basis the algebra came in.

Conventions: groups act on row vectors from the right.  Orbit enumeration
applies generators only (no inverses): every generator acts with finite order
on a finite set, so forward closure already yields the group orbits.

A generator acts only through the coordinates it moves (_moved_columns, worked
out once per call; a generator that is the identity mod p^n drops out).  When
every acting generator has last row e_(d-1), as the exponential of a strictly
upper triangular algebra does, it maps each row of p^n points (the points
that share x_0 .. x_(d-2)) onto a row by a translation of the last
coordinate.  The orbits are then counted over rows, by a walk on
(Z/p^n)^(d-1) that keeps each row's translation from a start row
(_coset_walk): the translations that cycles of rows bring back to their
start generate a subgroup of Z/p^n, and the orbits through a component of
rows are its cosets, gcd(p^n, those translations) of them.  A generator
whose top block is the identity only translates, and adds its translations
at each row to that gcd without a table.  Otherwise the orbit BFS runs on
the points' lexicographic indices: per level, a table of the index of x*g
for every x and every acting generator, filled a row of p^n points at a time.

A group mod p^n is closed once (group_closure).  When every acting
generator has first column e_0 and last row e_(d-1), as every exponential
group does on its flag basis, z_c = I + c*E_(0,d-1) is central and no entry
of y*g but the corner (0, d-1) reads the corner of y.  The group is then a
union of rows y*{z_c : c in C} over its corner subgroup C of Z/p^n, and the
closure stores one element per row, with, per generator, the translation of
the corner that y -> y*g adds on top of the rows' map.  Other groups take
the same loop with the corner modulus 1: rows of one element, translations
0.  A row is one integer, the coordinates of flat d x d matrices that some
element moves (found from the generators alone) as digits base p^n, and
each generator's y -> y*g an affine map on those digits.  The closure
numbers its rows in BFS order and keeps, per generator, the index and the
translation of y*g for every row y, and for each row the one it was reached
from; the integers and their index are dropped on return, and the budget
counts the rows.  Each g^-1 is the element that y -> y*g sends into the
identity's row, and the conjugation's y -> g^-1*y*g is two table lookups
per row, with the translations carried along: no matrix products and no
inverse after the closure.  Conjugation maps rows onto rows by translations
of C, and the orbits' walk counts the classes over rows, for every group.
"""

from __future__ import annotations

import warnings
from array import array
from fractions import Fraction
from itertools import islice, product, repeat
from math import factorial, gcd
from operator import add

from .catalog import catalog_module
from .engine import DEFAULT_BUDGET, ask_series
from .errors import BudgetExceededError, InputError, check_power
from .intmat import IntMatrix, from_flat
from .linalg import hermite_form
from .module import MatrixModule, ad_representation
from .primes import is_prime, primitive_root
from .zpn import RingSpec, lambdas_mod


class GroupGenSet:
    """Generators of a subgroup of GL_d(Z); must be invertible mod the primes
    they are used at."""

    __slots__ = ("d", "generators", "label")

    def __init__(self, d: int, generators: tuple[IntMatrix, ...], label: str = ""):
        if d < 0:
            raise InputError("dimensions must be >= 0")
        for g in generators:
            if g.shape != (d, d):
                raise InputError("generator shape mismatch")
        self.d = d
        self.generators = generators
        self.label = label

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
    Such an algebra is simultaneously strictly upper triangular, so a
    nonzero tr(b_i) or tr(b_i b_j) rejects it at once, before the adjoint
    module's solve: a module with a nonzero trace is refused as not
    nilpotent, whether or not it is Lie-closed.

    The class computation's spans give the flag basis (_flag_basis), a
    unimodular `flag` U and the strictly upper triangular `group_basis`
    U*b*U^-1, which only exp_group reads; `module` and `ad` stay as given.
    """

    def __init__(self, module: MatrixModule):
        if module.d != module.e:
            raise InputError("nilpotent algebra needs square matrices")
        if not _traces_vanish(module.basis):
            raise InputError(_NOT_NILPOTENT)
        self.ad = ad_representation(module)  # raises unless Lie-closed over Z
        self.module = module
        spans = self._product_spans()
        self.nilpotency_class = len(spans)
        self.flag, self.group_basis = _flag_basis(module.basis, spans, module.d)

    @property
    def d(self) -> int:
        return self.module.d

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def label(self) -> str:
        return self.module.label

    def _product_spans(self) -> list[list[IntMatrix]]:
        """Bases of the spans of products of length 1, 2, ..., c of basis
        elements, where products of length c+1 vanish: c is the class."""
        spans, span = [], list(self.module.basis)
        while span:
            spans.append(span)
            if len(spans) > self.d:
                raise InputError(_NOT_NILPOTENT)
            products = [(b @ s).flat() for b in self.module.basis for s in span]
            span = [from_flat(r, self.d, self.d) for r in hermite_form(products)]
        return spans

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


def _flag_basis(basis, spans, d: int) -> tuple[IntMatrix, tuple[IntMatrix, ...]]:
    """A unimodular U with U*b*U^-1 strictly upper triangular for every b in
    the basis, and those conjugates; U = I for a basis that already is.

    x times [S_c | ... | S_1 | I_d], whose row a holds row a of every element
    of the span of products of length c, ..., 1, is (x*S_c, ..., x*S_1, x).
    In its Hermite form the rows whose parts x*S_c .. x*S_k vanish come last
    and are a basis of K_k, the x killed by every product of length k; x*b
    lies in K_(k-1) for x in K_k, so each b sends a row into the span of
    later rows.  The I parts are the rows of U; U^-1 is the right half of
    the Hermite form of [U | I_d].
    """
    if all(not v for b in basis for i, row in enumerate(b.entries) for v in row[: i + 1]):
        return IntMatrix.identity(d), tuple(basis)
    eye = IntMatrix.identity(d).entries
    rows = [
        [*(v for span in reversed(spans) for s in span for v in s.entries[a]), *eye[a]]
        for a in range(d)
    ]
    flag = IntMatrix([row[-d:] for row in hermite_form(rows)])
    inverse = IntMatrix([r[d:] for r in hermite_form(list(map(add, flag.entries, eye)))])
    return flag, tuple(flag @ b @ inverse for b in basis)


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
    """Number of orbits of the generated group on (Z/p^n)^d.

    The budget counts the p^(d*n) points, before any table is built.  Only
    the generators that move a column act.  If each of them has last row
    e_(d-1), the orbits are counted over rows (_row_orbit_count).
    Otherwise the BFS runs on lexicographic indices: one _index_table per
    acting generator, and a mark byte per point.  That is size * (b * k + 1)
    bytes for size = p^(d*n) points, k acting generators and b-byte table
    entries (b = 1, 2, 4 or 8: the fewest that hold every index).
    """
    if n == 0:
        return 1
    check_power(p, d * n, budget)
    size = p ** (d * n)
    m = p**n
    acting = [g for g in gens_flat if _moved_columns(g, d, m)]
    last = (d - 1) * d
    if d and all(g[last + j] % m == (j == d - 1) for g in acting for j in range(d)):
        return _row_orbit_count(acting, d, p, n)
    return _orbit_count([_index_table(g, d, p, n) for g in acting], size)


def _row_orbit_count(gens_flat, d: int, p: int, n: int) -> int:
    """Number of orbits on (Z/p^n)^d of generators whose last row is e_(d-1).

    Write x = (x', t), with t the last coordinate, and m = p^n.  Such a g
    sends x to (x'*g', t + c_g(x')), where g' is its top-left block and
    c_g(x') = sum_(k<d-1) x_k g_(k,d-1) mod m: it maps the row of m points
    over x' onto the row over x'*g', translated by c_g(x').  The rows are
    the m^(d-1) points of (Z/p^n)^(d-1), a generator's edges are
    _index_table of g' with the translations c_g, and _coset_walk counts
    the orbits.  A g' that is the identity mod m gets no table: its edge at
    every row is a loop, whose holonomy is c_g there.
    """
    m = p**n
    e = d - 1
    typecode = _typecode(m)
    steps, loops = [], []
    for g in gens_flat:
        top = [g[i * d + j] for i in range(e) for j in range(e)]
        # c_g over the rows in lexicographic order, one coordinate at a time
        shifts = [0]
        for k in range(e):
            a = g[k * d + e] % m
            column = [t * a % m for t in range(m)]
            shifts = [(c + s) % m for c in shifts for s in column]
        shifts = array(typecode, shifts)
        if _moved_columns(top, e, m):
            steps.append((_index_table(top, e, p, n), shifts))
        else:
            loops.append(shifts)
    return _coset_walk(steps, loops, m**e, m)


def _coset_walk(steps, loops, rows: int, m: int) -> int:
    """Number of orbits on range(rows) x Z/m of maps that send each row onto a
    row by a translation: the sum over the components of rows of gcd(m,
    their holonomies).

    Each (table, shifts) in steps sends (r, t) to (table[r], t + shifts[r]),
    and each shifts in loops sends (r, t) to (r, t + shifts[r]).  A DFS over
    rows keeps an offset o_r per row, so that the tree path from the start
    row sends (start, s) to (r, s + o_r).  An edge r -> r' to a new row sets
    o_r' = o_r + shifts[r]; an edge to a seen row closes a cycle whose
    holonomy o_r + shifts[r] - o_r' translates the start row into itself.
    These holonomies generate the translations of the start row by the
    elements that fix it (the tree edges' are 0, and the edges leaving the
    component's rows span its cycles: each map permutes the rows, so a
    backward step is a forward walk round the map's cycle).  Every orbit
    that meets the component meets the start row, in a coset of that
    subgroup of Z/m, so the component holds gcd(m, holonomies) orbits.
    """
    marks = bytearray(rows)
    offsets = array(_typecode(m), [0]) * rows
    orbits = 0
    start = marks.find(0)
    while start >= 0:
        marks[start] = 1
        stack = [start]
        cosets = m
        while stack:
            r = stack.pop()
            o = offsets[r]
            for table, shifts in steps:
                s = table[r]
                if not marks[s]:
                    marks[s] = 1
                    offsets[s] = (o + shifts[r]) % m
                    stack.append(s)
                elif cosets > 1:
                    cosets = gcd(cosets, o + shifts[r] - offsets[s])
            if cosets > 1:
                for shifts in loops:
                    cosets = gcd(cosets, shifts[r])
        orbits += cosets
        start = marks.find(0, start + 1)
    return orbits


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


def _right_moves(g, d: int, m: int):
    """The coordinates y -> y*g moves on flat d x d matrices y, in the form of
    _moved_columns: coordinate (i, j) of y*g reads y_ik for each k with
    g_kj != 0 mod m, row by row.  Empty for a g that is the identity mod m."""
    columns = _moved_columns(g, d, m)
    return tuple(
        (i * d + j, tuple((i * d + k, c) for k, c in col))
        for i in range(d)
        for j, col in columns
    )


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


class GroupClosure:
    """The elements of a finite matrix group mod m, as rows over a central
    subgroup, numbered in BFS order from the identity (index 0), as tables
    over the generators that act.

    Row i stands for the elements y_i*u^c, c in Z/fibre, where y_i is its
    representative and u = I + (m/fibre)*E_(0,d-1) generates the group's
    central corner subgroup (fibre 1 when group_closure finds no corner:
    each row is then one element).  y_i*g_a = y_(right[a][i]) *
    u^(shift[a][i]), one shift table per right table (all 0 at fibre 1),
    and y_i = y_(parent[i]) * g_(last[i]) for i > 0.  The length is the
    group order, rows * fibre.
    """

    __slots__ = ("right", "shift", "parent", "last", "fibre")

    def __init__(self, right, shift, parent, last, fibre):
        self.right: list[array] = right
        self.shift: list[array] = shift
        self.parent: array = parent
        self.last: array = last
        self.fibre: int = fibre

    def __len__(self):
        return len(self.parent) * self.fibre


def _corner_modulus(gens_flat, d: int, m: int) -> int:
    """m if every generator has first column e_0 and last row e_(d-1) mod m
    and d > 1 (the frame), else 1: the modulus group_closure keeps the
    corner (0, d-1) in, outside the stored digits.  For such matrices z_c =
    I + c*E_(0,d-1) is central, since y*E_(0,d-1) = E_(0,d-1) = E_(0,d-1)*y,
    and no entry of y*g but the corner reads the corner of y, which y*g
    moves by sum_(k<d-1) y_0k g_(k,d-1).
    """
    e = d - 1
    if e > 0 and all(
        g[i * d] % m == (i == 0) and g[e * d + i] % m == (i == e)
        for g in gens_flat
        for i in range(d)
    ):
        return m
    return 1


def group_closure(gens_flat, d: int, m: int, budget: int) -> GroupClosure:
    """All elements of the subgroup generated by the given units mod m, as
    rows over the corner subgroup (GroupClosure).

    The corner is kept mod _corner_modulus, m on the frame and 1 off it: each
    row's representative y_i has the corner o_i of the element it was
    reached as, and an edge to a seen row j gives the shift (corner of
    y_i*g_a) - o_j.  On the frame the corner subgroup {c : z_c in the group}
    is gcd(m, shifts)*Z/m, stored as fibre = m/gcd(m, shifts) with the shifts
    divided by the gcd; off it every corner and shift is 0 and the fibre 1.
    Each generator's right action y -> y*g is an affine map on the other
    varying coordinates; the BFS applies it to the digits of each row's code,
    the first varying coordinate lowest.  The budget counts the rows.  The
    generators that are the identity mod m get no table.
    """
    identity = tuple(int(i == j) for i in range(d) for j in range(d))
    acting = [(g, moved) for g in gens_flat if (moved := _right_moves(g, d, m))]
    moves = [moved for _, moved in acting]
    corner = _corner_modulus([g for g, _ in acting], d, m)
    # on the frame the corner is held outside the digits
    coords = tuple(
        j for j in _varying_coordinates(identity, moves, m) if corner == 1 or j != d - 1
    )
    digit = {j: t for t, j in enumerate(coords)}
    weights = [m**t for t in range(len(coords))]

    def affine(col):
        """(constant, ((digit, factor), ...)) of sum(y_k * c for k, c in col);
        the corner's identity value is 0, so it drops out of the constant."""
        return (
            sum(identity[k] * c for k, c in col if k not in digit),
            tuple((digit[k], c) for k, c in col if k in digit),
        )

    # per generator: (weight, digit, constant, ((digit, factor), ...)) of
    # every varying coordinate it rewrites, and the corner's move
    maps = [
        (
            [(weights[digit[j]], digit[j], *affine(col)) for j, col in moved if j in digit],
            affine(dict(moved).get(d - 1, ())),
        )
        for moved in moves
    ]
    code = sum(w * identity[j] for w, j in zip(weights, coords))
    codes = [code]
    index = {code: 0}
    typecode = _typecode(min(budget, 1 << 64))
    right = [array(typecode) for _ in moves]
    shift = [array(_typecode(corner)) for _ in moves]
    parent = array(typecode, [0])
    last = array(_typecode(max(len(moves), 1)), [0])
    offsets = array(_typecode(corner), [0])
    steps = list(zip(maps, (r.append for r in right), (s.append for s in shift)))
    size = 1
    for i, code in enumerate(codes):
        x = [code // w % m for w in weights]
        o = offsets[i]
        for a, ((rewrites, (z, reads)), put, put_shift) in enumerate(steps):
            image = code
            for w, t, v, col in rewrites:
                for k, c in col:
                    v += x[k] * c
                image += w * (v % m - x[t])
            z += o
            for k, c in reads:
                z += x[k] * c
            j = index.setdefault(image, size)
            if j == size:
                size += 1
                if size > budget:
                    raise BudgetExceededError(size, budget, "a group closure of {} stored rows")
                codes.append(image)
                parent.append(i)
                last.append(a)
                offsets.append(z % corner)
                put_shift(0)
            else:
                put_shift((z - offsets[j]) % corner)
            put(j)
    step = gcd(corner, *set().union(*shift))
    if step > 1:
        shift = [array(table.typecode, [s // step for s in table]) for table in shift]
    return GroupClosure(right, shift, parent, last, corner // step)


def conjugacy_class_count(closure: GroupClosure) -> int:
    """Number of orbits of the conjugation action y -> g^-1 y g on the
    elements of `closure`.

    In the closure's terms, right[a] sends one row k, and no other, to the
    identity's: y_k*g_a = u^s for s = shift[a][k], so g_a^-1 = y_k*u^-s.
    From it g_a^-1 * y_i = y_(left[i]) * u^(turn[i]) fills in BFS order,
    as (g_a^-1 * y_parent(i)) * g_last(i), and g_a^-1 * y_i * g_a is row
    right[a][left[i]] translated by turn[i] + shift[a][left[i]].  u is
    central, so each conjugation maps rows onto rows by translations of
    Z/fibre, and _coset_walk counts the classes (at fibre 1, one per
    component of rows).
    """
    right, shift, parent, last = closure.right, closure.shift, closure.parent, closure.last
    fibre = closure.fibre
    steps = []
    for table, shifts in zip(right, shift):
        k = table.index(0)
        left = array(parent.typecode, [k])
        turn = array(shifts.typecode, [-shifts[k] % fibre])
        put, put_turn = left.append, turn.append
        for i, a in zip(islice(parent, 1, None), islice(last, 1, None)):
            j = left[i]
            put(right[a][j])
            put_turn((turn[i] + shift[a][j]) % fibre)
        turned = map(add, turn, map(shifts.__getitem__, left))
        steps.append((
            array(left.typecode, map(table.__getitem__, left)),
            array(turn.typecode, map(fibre.__rmod__, turned)),
        ))
        del left, turn, put, put_turn, turned
    return _coset_walk(steps, (), len(parent), fibre)


def exp_group(alg: NilpotentAlgebra, p: int, n: int) -> GroupGenSet:
    """exp of the group basis mod p^n (mod p at n = 0): of U*b*U^-1 for the
    algebra's flag U, which conjugates the group of exp(b) by a unimodular
    matrix and keeps its orbit and class counts.  Reduced mod p^m, these
    generate the exponential group at each level m <= n: 1/i! mod p^n is
    1/i! mod p^m."""
    if p < alg.d:
        raise InputError(f"need p >= {alg.d} for the exponential")
    ring = RingSpec(p, max(n, 1))
    gens = tuple(exp_nilpotent(b, ring) for b in alg.group_basis)
    return GroupGenSet(alg.d, gens, f"exp({alg.label})")


def cc_coefficients_direct(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Conjugacy class counts of the level-n images of the exponential group.

    The group at level n is generated by exp of the group basis mod p^n; its
    order p^(dim * n) must stay within the budget at every level, which is
    checked, level by level, before the generators are built.
    """
    for n in range(1, n_max + 1):
        check_power(p, alg.dim * n, budget)
    group = exp_group(alg, p, n_max)
    out = [1]
    for n in range(1, n_max + 1):
        m = p**n
        gens = [g.mod(m).flat() for g in group.generators]
        out.append(conjugacy_class_count(group_closure(gens, alg.d, m, budget)))
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
    """Generators of GL_d(Z/p^n): E_01(1), a cyclic permutation of
    determinant 1, and diagonal units.

    Conjugating E_01(1) by powers of the cycle gives every E_(i,i+1)(+-1),
    their commutators [E_ij(a), E_jk(b)] = E_ik(ab) every E_ij(a), and
    these generate SL_d of the local ring Z/p^n; the units supply the
    determinant.  For odd p one diagonal entry runs through a primitive
    root mod p^n; for p = 2 the diagonal units -1 and 5 are used instead.
    At d = 1 the units alone generate.
    """
    gens = []
    if d > 1:
        transvection = [[int(a == b) for b in range(d)] for a in range(d)]
        transvection[0][1] = 1
        # the cycle's sign is (-1)^(d-1): negating its last row at even d
        # makes its determinant 1
        cycle = [[int(b == (a + 1) % d) for b in range(d)] for a in range(d)]
        if d % 2 == 0:
            cycle[-1] = [-v for v in cycle[-1]]
        gens += [IntMatrix(transvection), IntMatrix(cycle)]
    units = [primitive_root(p, n)] if p != 2 else [-1, 5]
    for u in units:
        rows = [[int(a == b) for b in range(d)] for a in range(d)]
        rows[0][0] = u
        gens.append(IntMatrix(rows))
    return GroupGenSet(d, tuple(gens), f"GL({d})")
