"""Exact computation of average kernel sizes over Z/p^n by one orbit-sum kernel.

Every route is the sum, over the points x of (Z/p^n)^k, of 1/|span of the
generator rows at x|, taken over one view of the basis tensor B[i][r][c]
(basis element i, row r, column c) of M inside Mat_{d x e}.  A view is a
choice of the point, generator and column axes of B (module.VIEWS): the
module gives one k x w generator per index of the generator axis, and k is
the size of the point axis.  In every view ask(M, Z/p^n) is p^(n(d-k)) times
the sum.

  * orbit (row, basis, column): generator i is b_i and x runs over
    (Z/p^n)^d, so the span is x M and the sum is the orbit formula (k = d).
  * average (basis, row, column), the Knuth dual M°: generator r has row i
    equal to row r of b_i and the coefficient tuple c runs over (Z/p^n)^l,
    so the rows at c are those of A = sum c_i b_i.  Since |Ker A| = p^(dn) /
    |row span of A|, the defining average of |Ker A| over coefficient tuples
    is p^(n(d-l)) times the sum (k = l).  The coefficient-tuple map onto the
    module has equal-size fibers, so averaging over tuples is averaging over
    M.
  * transpose (column, basis, row): generator i is b_i^T and x runs over
    (Z/p^n)^e, so the sum is the orbit sum of M^T, and ask(M^T) =
    p^(n(e-d)) ask(M) (k = e).  Spans depend only on the lattice, so M's
    own basis serves.

The walk runs on the view's generators with their saturated common left
kernel removed (_strip_kernel): the rows at x + v are those at x whenever
v G = 0 for every generator G.  When these v form a saturated lattice of
rank z, a unimodular change of the point coordinates turns it into z
coordinates that contribute p^(nz), and the walk runs over the other k - z.
From here on k is that reduced size, and the scale is p^(n(d-k)).  The
average view's point axis indexes an independent basis, so its kernel
is zero and it is walked as it stands.

ask_series is the one entry: it runs one view by name, or "auto", the view
with the fewest points p^(kn) once each view's kernel is stripped (ties in
VIEWS order, orbit first), or "both", which compares the average and orbit
routes, i.e. the definition with the orbit formula.  One rule,
check_budget, bounds p^(kn) at every level of every view a call runs, from
the axis sizes (dim, d, e) alone: before any walk, or any catalog build.
The budget reads the unreduced k, for "auto" the fewest over the views, so
it is an upper bound on the points the walk covers.

Spans are invariant under multiplying the point by a unit, and a nonzero x
is p^w times a primitive vector y mod p^(n-w), whose unit class has
p^(n-w-1)(p-1) members.  So the sum at level n is

    1 + sum_{w < n} p^(n-w-1) (p-1) S(n-w),
    S(m) = sum over unit classes y mod p^m of p^-spanexp_m(y),

where p^spanexp_m(y) is the size of the span of the rows at y mod p^m.  A
unit class mod p^m has a representative with pivot coordinate 1 and the
coordinates before it divisible by p; its lifts mod p^(m+1) are the p^(k-1)
classes y + p^m t with t_pivot = 0.  These classes form a tree, and one
depth-first walk of it gives S(m) for every m <= n_max: each node adds
p^-spanexp_m to S(m).  The rows at the classes mod p with a given pivot are
the affine family M_pivot + sum_{a > pivot} t_a M_a over F_p (M_a moves the
rows by coordinate a), and a class has as many divisors 0 as its rank.  A
node (y, m) that the walk expands reduces its rows once, into its residual
pencil (zpn.residual_pencil): the s pivots of valuation below m are constant
on the ball y + p^m t, and mod p^(m+1) the block they leave is p^m (R2 +
sum_a t_a E_a), linear in t.  So each child has the node's s divisors and m
repeated rank_p(R2 + sum_a t_a E_a) times.

Both are affine families A0 + sum_a t_a E_a over F_p, and one counter
(_family) takes the rank distribution of a family without a rank per point.
A row or column that no E_a touches is constant, and a row operation with a
constant pivot row keeps every entry affine: the family loses that row and
a column, and gains one in rank, with no branching.  A coordinate that no
entry reads multiplies the count of every rank by p.  A family of one row or
one column has rank 1 except on the zero set of its entries, an affine
system whose z solutions follow from two ranks.  For odd p a 2 x 2 family
is counted without branching as well: its rank is at most 1 on the zeros
of its determinant, a quadric in t, and the zeros of a quadric over F_p
have a closed count.  Otherwise the counter branches on one coordinate,
toward making a row or column constant; where every row and column reads
every coordinate no branching can, and each point takes its own rank.  The
walk receives each rank's classes in bulk and gets back only the points it
goes below.  Branches often reach the same sub-family again, as a set of
matrices, and a rank distribution depends on that set alone.  So while
the walk has gone below none of a count's points, the count keeps each
distribution it takes, by the sub-family's affine space, and a sub-family
met again whose ranks have all been taken takes the kept counts, scaled
by its points per matrix of the space.  The walk goes below no point of a
family at level n_max, so every family of a level-1 walk counts each
distinct sub-family once.  The memo lives for one family's count.

The walk stops at a resolved node: one with r divisors below m, where r is
the generic rank of the rows (the rank over Q(X) of the view's matrix of
linear forms).  The rows at any lift of y agree with those at y mod p^m, and
the divisors below m are fixed by the matrix mod p^m; no lift has more than
r divisors, because every (r+1)-minor vanishes identically.  So every lift
to level m' > m has the same divisors, spanexp_m' = r m' - sum(lambda), and
the p^((k-1)(m'-m)) classes below the node add in closed form.  Below a
node one divisor short of r (s = r - 1) no child has a residual of rank
above 1, and the rank is 0 exactly on the solutions of the affine system
R2 + sum_a t_a E_a = 0 over F_p, so the counter takes the whole family as
one closed form: the other p^(k-1) - z children gain the divisor m and are
resolved, and only the z solutions, one particular solution plus the span
of a kernel basis, are visited.  MatrixModule.generic_rank gives r exactly
for every view; a visited node with more than r divisors is an internal
inconsistency.  A walk without r (level 1, where every node is a leaf)
resolves nothing: the nodes at depth m are then exactly the unit classes
mod p^m.  The counter takes at most one rank per class, and far fewer where
rows and columns read few coordinates (the average view of sl(3) at p = 5
counts its 97,656 classes from 9 ranks); each node the walk expands takes
one residual pencil besides.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul

from .errors import InputError, InternalConsistencyError, check_power
from .linalg import hermite_form
from .module import VIEWS, MatrixModule
from .zpn import RingSpec, lambdas_mod, residual_pencil

DEFAULT_BUDGET = 10**8


def _spread(t, unused, p, rank):
    """(t, rank) for every value of the coordinates in `unused`, lazily."""
    if not unused:
        return ((tuple(t), rank),)

    def points():
        for vals in product(range(p), repeat=len(unused)):
            for a, v in zip(unused, vals):
                t[a] = v
            yield tuple(t), rank

    return points()


def _eliminate(mat, i0, j0, row0, inv, p):
    """mat without row i0 and column j0, once the constant pivot row row0
    (with row0[j0] = 1/inv mod p) has cleared column j0."""
    out = []
    for i, row in enumerate(mat):
        if i != i0:
            f = row[j0] * inv % p
            if f:
                out.append([(x - f * y) % p for c, (x, y) in enumerate(zip(row, row0)) if c != j0])
            else:
                out.append(row[:j0] + row[j0 + 1 :])
    return out


def _affine_zeros(eqs, j, p):
    """Every v in F_p^j with c + sum_a l[a] v_a = 0 for each (c, l) in eqs, a
    consistent system mod p: one solution plus the span of a kernel basis."""
    rows = [[*l, c] for c, l in eqs]
    pivots = []
    for a in range(j):
        r = len(pivots)
        for i in range(r, len(rows)):
            if rows[i][a]:
                break
        else:
            continue
        inv = pow(rows[i][a], -1, p)
        rows[i], rows[r] = rows[r], [x * inv % p for x in rows[i]]
        for i, row in enumerate(rows):
            f = row[a]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[r])]
        pivots.append(a)
    free = [a for a in range(j) if a not in pivots]
    for vals in product(range(p), repeat=len(free)):
        v = [0] * j
        for a, x in zip(free, vals):
            v[a] = x
        for b, row in zip(pivots, rows):
            v[b] = -(row[j] + sum(row[a] * v[a] for a in free)) % p
        yield v


def _family(a0, dirs, p, take, short=False):
    """The points t of F_p^j by the rank of a0 + sum_a t_a dirs[a] over F_p.

    a0 and the j directions are matrices of one shape, reduced mod p.
    `take(rank, nodes)` receives the points of each rank in bulk and says
    whether the walk goes below them; its answer depends on the rank alone.
    The counter yields (t, rank) for exactly those points, each once.  With
    `short` every rank is at most 1.

    The branches of one count often reach the same affine sub-family: the
    same shape and the same set of matrices, from other values of other
    coordinates.  Its rank distribution, the number of matrices of each
    rank in that set, is a function of the set alone.  So while the count is
    quiet, the walk having gone below none of the points taken so far (as
    at level n_max, where it goes below none), each sub-family of two or
    more coordinates is counted once per key (_space) and its distribution
    kept (_Tally.memo).  A later one with that key whose ranks have all been
    taken, and so are not walked below, yields nothing and takes the kept
    counts, which is what counting it again would do.  Once the walk goes
    below a point, the rest of the count runs as without the memo.  The
    memo lives as long as this one count and holds one entry per distinct
    sub-family counted while quiet; besides, the count holds one family per
    branching on its stack.
    """
    dirs, t = list(enumerate(dirs)), [0] * len(dirs)
    if short:
        return _rank_one(a0, dirs, 0, (), t, p, take)
    return _classes(a0, dirs, 0, (), t, p, _Tally(take))


class _Tally:
    """The walk's `take` for one _family count, and that count's memo.

    `quiet` says that the walk has gone below none of the points taken so
    far, `taken` maps each rank taken so far to its points, and `memo` maps
    the _space key of each sub-family counted while quiet to its points per
    rank, per matrix of the space.
    """

    def __init__(self, take):
        self.take = take
        self.quiet = True
        self.taken = {}
        self.memo = {}

    def __call__(self, rank, nodes):
        self.taken[rank] = self.taken.get(rank, 0) + nodes
        if self.take(rank, nodes):
            self.quiet = False
            return True
        return False


def _space(a0, dirs, p):
    """(key, dim) of the affine space a0 + span of the directions over F_p.

    The key is the shape, the reduced echelon basis of the flattened
    directions and a0 reduced against it, so two families of one shape have
    one key exactly when they are the same set of matrices; dim is the
    number of basis vectors.
    """
    basis = {}  # pivot column -> row, reduced echelon
    for _, d in dirs:
        v = [x for row in d for x in row]
        for c, row in basis.items():
            if f := v[c]:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            v = [x * inv % p for x in v]
            for b, row in basis.items():
                if f := row[c]:
                    basis[b] = [(x - f * y) % p for x, y in zip(row, v)]
            basis[c] = v
    v = [x for row in a0 for x in row]
    for c, row in basis.items():
        if f := v[c]:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    rows = tuple(tuple(basis[c]) for c in sorted(basis))
    return (len(a0), len(a0[0]), rows, tuple(v)), len(rows)


def _memoised(counter, a0, dirs, base, unused, t, p, take, *rest):
    """counter(a0, dirs, base, unused, t, p, take, *rest), a sub-family of a
    _classes count, through the count's memo while the count is quiet.

    Each point of the space a0 + span(dirs) stands for p^(j - dim + |unused|)
    points of the count: the directions that depend on others, and the
    coordinates that no entry reads.  A space met before, whose ranks (plus
    base) have all been taken, takes its stored points per rank times that:
    the walk goes below none of them.  Otherwise it is counted, and the
    count's total per rank, divided once by that multiplicity, is stored
    (_kept).  A family of one coordinate is a line of p matrices, whose key
    would cost about as much as its count, so it is counted directly.
    """
    points = counter(a0, dirs, base, unused, t, p, take, *rest)
    if not take.quiet or len(dirs) < 2:
        return points
    key, dim = _space(a0, dirs, p)
    per = p ** (len(dirs) - dim + len(unused))
    entry = take.memo.get(key)
    if entry is None or any(base + r not in take.taken for r in entry):
        return _kept(points, take, key, base, per)
    for r, n in entry.items():
        take(base + r, n * per)
    return ()


def _kept(points, take, key, base, per):
    """The points of one sub-family's count; once it ends, its points per
    rank (less base), divided by the multiplicity per, go to take.memo."""
    before = dict(take.taken)
    yield from points
    take.memo[key] = {
        r - base: (n - before.get(r, 0)) // per
        for r, n in take.taken.items()
        if n != before.get(r, 0)
    }


def _touched(a0, dirs):
    """Bit a of rows[i] (of cols[c]) is set when direction a touches row i (column c)."""
    rows, cols = [0] * len(a0), [0] * len(a0[0]) if a0 else []
    for a, d in dirs:
        bit = 1 << a
        for i, row in enumerate(d):
            if any(row):
                rows[i] |= bit
        for c, col in enumerate(zip(*d)):
            if any(col):
                cols[c] |= bit
    return rows, cols


def _classes(a0, dirs, base, unused, t, p, take, masks=None):
    """_family of a0 + sum t_a d over the (a, d) in dirs, plus `base` ranks
    eliminated so far; no entry reads the coordinates in `unused`.  `masks`
    are _touched(a0, dirs) when the caller knows them.

    A row (or column) that no direction touches is constant: a row
    operation with a constant pivot row keeps every entry affine, so the
    family loses the row and a column at no branching (a column is pivoted
    as a row of the transpose).  One row or column left goes to _rank_one,
    and for odd p a 2 x 2 block to _two_by_two, which counts it from the
    zeros of its determinant.  That count diagonalises a quadratic form,
    which characteristic 2 does not allow, so at p = 2 a 2 x 2 block
    branches like any other.  Otherwise the counter branches on a
    coordinate of the row or column that the fewest coordinates touch; when
    every row and column reads every coordinate no branching can make one
    constant, and each point takes its own rank.  The branches and the two
    closed counts go through the count's memo (_memoised).
    """
    while True:
        rows, cols = masks or _touched(a0, dirs)
        masks = None
        read = 0
        for mask in rows:
            read |= mask
        if read.bit_count() < len(dirs):
            unused += tuple(a for a, _ in dirs if not read >> a & 1)
            dirs = [(a, d) for a, d in dirs if read >> a & 1]
        nodes = p ** len(unused)
        if not dirs:
            rank = base + len(lambdas_mod(a0, p, 1)) if any(map(any, a0)) else base
            if take(rank, nodes):
                yield from _spread(t, unused, p, rank)
            return
        if 0 not in rows:
            if 0 not in cols:
                break
            a0 = [list(col) for col in zip(*a0)]
            dirs = [(a, [list(col) for col in zip(*d)]) for a, d in dirs]
            rows, cols = cols, rows
        i0 = rows.index(0)
        row0 = a0[i0]
        # pivot on the column whose entries read the fewest coordinates
        j0 = min((c for c, x in enumerate(row0) if x), key=lambda c: cols[c].bit_count(), default=None)
        if j0 is None:
            a0 = a0[:i0] + a0[i0 + 1 :]
            dirs = [(a, d[:i0] + d[i0 + 1 :]) for a, d in dirs]
        else:
            inv = pow(row0[j0], -1, p)
            a0 = _eliminate(a0, i0, j0, row0, inv, p)
            dirs = [(a, _eliminate(d, i0, j0, row0, inv, p)) for a, d in dirs]
            base += 1
    if len(a0) == 1 or len(a0[0]) == 1:
        yield from _memoised(_rank_one, a0, dirs, base, unused, t, p, take)
        return
    if p > 2 and len(a0) == len(a0[0]) == 2:
        yield from _memoised(_two_by_two, a0, dirs, base, unused, t, p, take)
        return
    lines = rows + cols
    narrow = min(lines, key=int.bit_count)
    if narrow.bit_count() < len(dirs):
        a = max(
            (a for a, _ in dirs if narrow >> a & 1),
            key=lambda a: sum(mask >> a & 1 for mask in lines),
        )
        d = next(d for b, d in dirs if b == a)
        rest = [(b, e) for b, e in dirs if b != a]
        keep = ~(1 << a)
        masks = [m & keep for m in rows], [m & keep for m in cols]
        for v in range(p):
            t[a] = v
            at = [[(x + v * y) % p for x, y in zip(r, s)] for r, s in zip(a0, d)] if v else a0
            yield from _memoised(_classes, at, rest, base, unused, t, p, take, masks)
        return
    # every point on its own, the last coordinate innermost; each rank is
    # taken once when first seen and once more for the rest of its points
    seen = {}  # rank -> [points not yet taken, walk below?]
    for vals in product(range(p), repeat=len(dirs) - 1):
        cur = a0
        for v, (_, d) in zip(vals, dirs):
            if v:
                cur = [[x + v * y for x, y in zip(r, s)] for r, s in zip(cur, d)]
        for v in range(p):
            if v:
                cur = [[x + y for x, y in zip(r, s)] for r, s in zip(cur, dirs[-1][1])]
            rank = base + len(lambdas_mod(cur, p, 1))
            entry = seen.get(rank)
            if entry is None:
                seen[rank] = entry = [0, take(rank, nodes)]
            else:
                entry[0] += 1
            if entry[1]:
                for (a, _), x in zip(dirs, (*vals, v)):
                    t[a] = x
                yield from _spread(t, unused, p, rank)
    for rank, (more, _) in seen.items():
        if more:
            take(rank, more * nodes)


def _zeros(a0, dirs, p):
    """The affine system of a family's entries, as (constant, coefficients)
    for each entry that is not identically 0, and its number of solutions in
    F_p^j: from the rank of its coefficients and, unless that rank is the
    number of equations, the rank with the constants (0 when inconsistent)."""
    eqs = [
        (x, l)
        for i, row in enumerate(a0)
        for c, x in enumerate(row)
        if any(l := [d[i][c] for _, d in dirs]) or x
    ]
    j = len(dirs)
    system = [[l[a] for _, l in eqs] for a in range(j)]
    rank_e = len(lambdas_mod(system, p, 1)) if any(map(any, system)) else 0
    consistent = rank_e == len(eqs) or rank_e == len(
        lambdas_mod(system + [[x for x, _ in eqs]], p, 1)
    )
    return eqs, p ** (j - rank_e) if consistent else 0


def _rank_one(a0, dirs, base, unused, t, p, take):
    """_classes of a family of rank base + 1, or base on the zero set of its
    entries (_zeros)."""
    eqs, z = _zeros(a0, dirs, p)
    j = len(dirs)
    nodes = p ** len(unused)
    if z < p**j and take(base + 1, (p**j - z) * nodes):
        for vals in product(range(p), repeat=j):
            if not z or any((x + sum(map(mul, vals, l))) % p for x, l in eqs):
                for (a, _), v in zip(dirs, vals):
                    t[a] = v
                yield from _spread(t, unused, p, base + 1)
    if z and take(base, z * nodes):
        for vals in _affine_zeros(eqs, j, p):
            for (a, _), v in zip(dirs, vals):
                t[a] = v
            yield from _spread(t, unused, p, base)


def _legendre(x, p):
    """The quadratic character of x mod an odd prime p: 1, -1, or 0 at 0."""
    x %= p
    return 0 if not x else 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def _quadric_zeros(q, l, c, p):
    """Zeros in F_p^j, p odd, of f(t) = sum_ab q[a][b] t_a t_b + sum_a l[a] t_a + c.

    The symmetric matrix of the form is diagonalised by congruence: a
    nonzero diagonal entry completes a square, and where none is left a
    nonzero s[a][b] becomes one by t_b -> t_b + t_a.  Each step is an affine
    change of the coordinates, so f has as many zeros as d_1 u_1^2 + ... +
    d_r u_r^2 + sum_a l'_a t_a + c' over the other j - r coordinates.  A
    linear term there leaves p^(j-1) zeros; otherwise there are p^(j-r)
    times the solutions of sum_i d_i u_i^2 = b, b = -c'.  With D = d_1 ...
    d_r and eta the quadratic character, these number (Lidl and
    Niederreiter, Finite Fields, Thms 6.26 and 6.27)
        p^(r-1) + nu(b) p^(r/2-1) eta((-1)^(r/2) D)           for even r,
        p^(r-1) + p^((r-1)/2) eta((-1)^((r-1)/2) b D)        for odd r,
    where nu(0) = p - 1 and nu(b) = -1 otherwise.
    """
    j = len(l)
    half = (p + 1) // 2
    s = [[(x + y) * half % p for x, y in zip(row, col)] for row, col in zip(q, zip(*q))]
    l = [x % p for x in l]
    live = list(range(j))
    diag = []
    while True:
        i = next((a for a in live if s[a][a]), None)
        if i is None:
            pair = next(((a, b) for a in live for b in live if s[a][b]), None)
            if pair is None:
                break
            i, b = pair
            for row in s:
                row[i] = (row[i] + row[b]) % p
            s[i] = [(x + y) % p for x, y in zip(s[i], s[b])]
            l[i] = (l[i] + l[b]) % p
        d = s[i][i]
        inv = pow(d, -1, p)
        live.remove(i)
        for a in live:
            f = s[i][a] * inv
            s[a] = [(x - f * y) % p for x, y in zip(s[a], s[i])]
            l[a] = (l[a] - f * l[i]) % p
        c = (c - l[i] * l[i] * inv * half * half) % p
        diag.append(d)
    if any(l[a] for a in live):
        return p ** (j - 1)
    r, b = len(diag), -c % p
    if not r:
        return 0 if b else p**j
    sign_d = (-1) ** (r // 2) * prod(diag)
    if r % 2:
        n = p ** (r - 1) + p ** (r // 2) * _legendre(sign_d * b, p)
    else:
        n = p ** (r - 1) + (p - 1 if b == 0 else -1) * p ** (r // 2 - 1) * _legendre(sign_d, p)
    return p ** (j - r) * n


def _two_by_two(a0, dirs, base, unused, t, p, take):
    """_classes of a 2 x 2 family over F_p, p odd, by counting alone.

    Its rank is base on the zero set of its four entries (_zeros), at most
    base + 1 on the zeros of its determinant, a quadric in t
    (_quadric_zeros), and base + 2 elsewhere.  The points of rank base come
    from _affine_zeros, those of the other ranks the walk goes below from
    one scan of the determinants.
    """
    j = len(dirs)
    (a, b), (c, d) = a0
    ea, eb, ec, ed = ([m[i][k] for _, m in dirs] for i, k in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # det = (a + ea.t)(d + ed.t) - (b + eb.t)(c + ec.t)
    q = [[x * w - y * z for w, z in zip(ed, ec)] for x, y in zip(ea, eb)]
    lin = [a * w + d * x - b * z - c * y for x, y, z, w in zip(ea, eb, ec, ed)]
    eqs, zero = _zeros(a0, dirs, p)
    low = _quadric_zeros(q, lin, a * d - b * c, p)
    nodes = p ** len(unused)
    walk = {
        rank
        for rank, n in ((base, zero), (base + 1, low - zero), (base + 2, p**j - low))
        if n and take(rank, n * nodes)
    }
    if base in walk:
        for vals in _affine_zeros(eqs, j, p):
            for (i, _), v in zip(dirs, vals):
                t[i] = v
            yield from _spread(t, unused, p, base)
    if walk - {base}:
        lines = ((a, ea), (b, eb), (c, ec), (d, ed))
        for vals in product(range(p), repeat=j):
            entries = [e + sum(map(mul, vals, l)) for e, l in lines]
            w, x, y, z = entries
            if (w * z - x * y) % p:
                rank = base + 2
            elif any(e % p for e in entries):
                rank = base + 1
            else:
                continue
            if rank in walk:
                for (i, _), v in zip(dirs, vals):
                    t[i] = v
                yield from _spread(t, unused, p, rank)


def _walk_partial(payload):
    """Visited unit classes and resolved nodes under one pivot; pure, for any scheduler.

    Walks the tree of unit-class representatives whose first unit coordinate
    is `pivot`, depth first and lazily, down to level `top`.  The classes
    mod p are the family of rows at e_pivot + t, t over the coordinates
    after the pivot; a node (y, m) it expands reduces its rows once, into
    its residual pencil, and each child y + p^m t has the node's divisors
    and m repeated rank_p(R2 + sum_a t_a E_a) times.  Both are affine
    families over F_p, and one counter (_family) takes each family's
    classes by rank in bulk and hands back only the points the walk goes
    below.  A node with `rank` divisors below its level is resolved:
    _orbit_sums counts its descendants in closed form.  Below a node one
    divisor short of `rank` the residual has rank at most 1, so two ranks
    over F_p count its children.  `rank` None resolves nothing.
    """
    triples, p, top, pivot, k, e, rank = payload
    counts: dict[tuple[int, int], int] = {}  # (level, span exponent) -> classes
    resolved: dict[tuple[int, int], int] = {}  # (level, sum of divisors) -> nodes
    free = [a for a in range(k) if a != pivot]
    # moving y[a] by p^m moves row g of the rows by p^m times row a of generator g
    moves = [[[0] * e for _ in triples] for _ in range(k)]
    for g, trip in enumerate(triples):
        for a, j, v in trip:
            moves[a][g][j] = v % p
    deltas = [moves[a] for a in free]

    def rows_at(y):
        rows = []
        for trip in triples:
            row = [0] * e
            for a, j, v in trip:
                ya = y[a]
                if ya:
                    row[j] += ya * v
            rows.append(row)
        return rows

    def count(m, lams, nodes=1):
        """Count `nodes` classes at level m with divisors `lams`; walk below them?"""
        low = sum(lams)
        key = (m, m * len(lams) - low)
        counts[key] = counts.get(key, 0) + nodes
        if rank is not None and len(lams) >= rank:
            if len(lams) > rank:
                raise InternalConsistencyError(
                    f"{len(lams)} divisors below {m} exceed the generic rank {rank}"
                )
            resolved[(m, low)] = resolved.get((m, low), 0) + nodes
            return False
        return m < top

    def children(y, lams, m, a0, dirs, coords):
        """The classes y + p^m t, t over `coords`, whose rows add m repeated
        rank_p(a0 + sum_a t_a dirs[a]) times to the divisors `lams`."""

        def take(r, nodes):
            return count(m + 1, lams + [m] * r, nodes)

        short = m > 0 and rank is not None and rank - len(lams) == 1
        step = p**m
        for t, r in _family(a0, dirs, p, take, short):
            c = list(y)
            for a, s in zip(coords, t):
                c[a] += s * step
            yield tuple(c), lams + [m] * r, m + 1

    def expand(y, lams, m):
        r2, pencil = residual_pencil(rows_at(y), deltas, p, m)
        return children(y, lams, m, r2, pencil, free)

    # the unexpanded nodes at each depth m = 1, 2, ...: memory stays O(depth)
    root = (0,) * pivot + (1,) + (0,) * (k - 1 - pivot)
    stack = [children(root, [], 0, moves[pivot], moves[pivot + 1 :], range(pivot + 1, k))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        else:
            stack.append(expand(*node))
    return counts, resolved


def _run_partials(worker, payloads, jobs):
    """worker over payloads, in order; the package's one process pool, of at
    most one process per payload and per CPU."""
    processes = min(jobs, len(payloads), os.cpu_count() or 1)
    if processes > 1:
        from multiprocessing import Pool

        with Pool(processes=processes) as pool:
            return pool.map(worker, payloads)
    return [worker(pl) for pl in payloads]


def _orbit_sums(generators, k, e, p, top, rank, jobs=1, scale=0) -> list[Fraction]:
    """Sum over x in (Z/p^n)^k of 1/|span of the generator rows at x|, times
    p^(n*scale), n = 0..top.

    Each generator is a k x e matrix; its row at x is x times the matrix.
    The walk takes it as the nonzero triples (point axis, column, value).
    `rank` is the exact generic rank of the rows, or None.  Every term of
    level n is an integer over p^(n*(e + k)) (a span exponent is at most
    n*e, and a resolved node's term is below), so each level is summed as
    integers over that power and made one Fraction.
    """
    triples = tuple(
        tuple((a, j, v) for a, row in enumerate(g) for j, v in enumerate(row) if v)
        for g in generators
    )
    payloads = [(triples, p, top, pivot, k, e, rank) for pivot in range(k)] if top > 0 else []
    width = e + k
    sums = [0] * (top + 1)  # S(m) p^(m*width) over the visited unit classes mod p^m
    ball = [0] * (top + 1)  # sum of p^low over nodes resolved at m
    for counts, resolved in _run_partials(_walk_partial, payloads, jobs):
        for (m, exp), cnt in counts.items():
            sums[m] += cnt * p ** (m * width - exp)
        for (m, low), nodes in resolved.items():
            ball[m] += nodes * p**low
    # x = 0 spans nothing; x = p^w y has a unit class of p^(n-w-1)(p-1) members,
    # so level n is level n - 1 plus (p - 1) p^(n-1) S(n).  A node resolved at
    # m < n has p^((k-1)(n-m)) classes at level n, of span exponent r n - low,
    # which add p^(low - (k-1)m + (k-1-r)n) to S(n).  total is level n times
    # p^(n*width).
    out = [Fraction(1)]
    total = 1
    for n in range(1, top + 1):
        s = sums[n] + sum(
            b * p ** ((k - 1 - rank) * n + n * width - (k - 1) * m)
            for m, b in enumerate(ball[:n])
            if b
        )
        total = total * p**width + (p - 1) * p ** (n - 1) * s
        shift = n * (scale - width)
        out.append(Fraction(total * p**shift) if shift >= 0 else Fraction(total, p**-shift))
    return out


def _strip_kernel(generators, k: int, w: int) -> tuple[tuple, int]:
    """The k x w generators with their saturated common left kernel removed.

    Row a of S holds row a of every generator side by side, so v S = 0 exactly
    when v G = 0 for every generator G.  Some unimodular U gives U S = [H; 0],
    where H, the Hermite form of S, has k - z rows, and the last z rows of U
    are a basis of that kernel.  Under the bijection x = y U the rows at x
    are y U G, which never read the last z coordinates of y: the walk runs on
    the rows of H, the nonzero rows of U S, and each of the z coordinates
    adds a factor p^n.  Without a kernel the generators come back unchanged.
    """
    kept = hermite_form([[v for g in generators for v in g[a]] for a in range(k)])
    if len(kept) == k:
        return generators, k
    reduced = tuple(
        tuple(row[g * w : (g + 1) * w] for row in kept) for g in range(len(generators))
    )
    return reduced, len(kept)


def _walk_input(m: MatrixModule, view: str) -> tuple[str, tuple, int]:
    """(view, generators, k): the view's generators with their common kernel
    along the point axis stripped, and the reduced size k of that axis.

    "auto" strips every view once and takes the one with the fewest points
    left, ties in VIEWS order (orbit first).
    """
    stripped = []
    for name in VIEWS if view == "auto" else (view,):
        k, _, w = m.view_shape(name)
        generators = m.view_generators(name)
        if name != "average":  # its point axis indexes a basis: no kernel
            generators, k = _strip_kernel(generators, k, w)
        stripped.append((name, generators, k))
    return min(stripped, key=lambda s: s[2])


def _view_series(m: MatrixModule, p: int, top: int, view: str, jobs: int) -> list[Fraction]:
    """ask(M, Z/p^n) for n = 0..top through one view, or "auto", from one walk.

    The walk runs on the view's generators with their common kernel along the
    point axis stripped (_walk_input); a unimodular change of the point
    coordinates keeps the generic rank of the view.  The rank that resolves
    nodes is asked for only when the walk goes deeper than level 1, where
    every node is a leaf anyway.
    """
    view, generators, k = _walk_input(m, view)
    rank = m.generic_rank(view) if top > 1 else None
    return _orbit_sums(generators, k, m.view_shape(view)[2], p, top, rank, jobs, m.d - k)


def _method_views(sizes, method: str) -> tuple[str, ...]:
    if method == "both":
        return ("average", "orbit")
    if method == "auto":
        return (min(VIEWS, key=lambda view: sizes[VIEWS[view][0]]),)
    if method in VIEWS:
        return (method,)
    raise InputError(f"unknown method {method!r}")


def check_budget(sizes, p: int, top: int, method: str, budget: int) -> tuple[str, ...]:
    """The views `method` runs, once every level up to top of each is within
    the budget; sizes are (dim, d, e), so no module need exist yet.  For
    "auto" that is the view with the fewest unreduced points, which bound
    those of the view that auto runs after the strip."""
    views = _method_views(sizes, method)
    for n in range(1, top + 1):
        for view in views:
            check_power(p, sizes[VIEWS[view][0]] * n, budget, view=view, level=n)
    return views


def ask_series(
    m: MatrixModule,
    p: int,
    n_max: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[Fraction]:
    """Coefficients ask(M, Z/p^n) for n = 0 .. n_max; the engine's one entry.

    method is a view ("orbit", "average" or "transpose"); "auto" runs the
    view with the fewest points once its kernel is stripped, and "both"
    runs the average and orbit routes and insists on exact agreement.  A
    coefficient below 1, or two routes that disagree, raise
    InternalConsistencyError.  The point count p^(k*n) of every view run,
    for "auto" of the view with the fewest unreduced points, must stay
    within the budget at every level.
    `jobs` splits each walk by pivot across processes; the result does not
    depend on the split.
    """
    RingSpec(p, n_max)
    views = check_budget(m.sizes, p, n_max, method, budget)
    if method == "auto":
        views = (method,)
    found = [_view_series(m, p, n_max, view, jobs) for view in views]
    for n, value in enumerate(found[0]):
        if value != found[-1][n]:
            raise InternalConsistencyError(
                f"engines disagree at (p, n) = ({p}, {n}): {value} != {found[-1][n]}"
            )
        if value < 1:
            raise InternalConsistencyError(f"ask value {value} < 1 at (p, n) = ({p}, {n})")
    return found[0]


def ask_average(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Average size of the kernel of a random element of M over Z/p^n.

    The orbit sum of the Knuth dual, over p^(l*n) coefficient tuples.
    """
    return ask_series(m, ring.p, ring.n, "average", budget, jobs)[-1]


def ask_orbit(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Sum over x in (Z/p^n)^d of the reciprocal orbit size |x M|.

    Equals ask_average exactly, over p^(d*n) points.
    """
    return ask_series(m, ring.p, ring.n, "orbit", budget, jobs)[-1]
