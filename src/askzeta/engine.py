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

ask_series is the one entry: it runs one view by name, or "auto", the view
with the fewest points p^(kn), or "both", which compares the average and
orbit routes, i.e. the definition with the orbit formula.  The budget bounds
p^(kn) at every level of every view a call runs, and is checked once before
any walk starts.

Spans are invariant under multiplying the point by a unit, and a nonzero x
is p^w times a primitive vector y mod p^(n-w), whose unit class has
p^(n-w-1)(p-1) members.  So the sum at level n is

    1 + sum_{w < n} p^(n-w-1) (p-1) S(n-w),
    S(m) = sum over unit classes y mod p^m of p^-spanexp_m(y),

where p^spanexp_m(y) is the size of the span of the rows at y mod p^m.  A
unit class mod p^m has a representative with pivot coordinate 1 and the
coordinates before it divisible by p; its lifts mod p^(m+1) are the p^(k-1)
classes y + p^m t with t_pivot = 0.  These classes form a tree, and one
depth-first walk of it gives S(m) for every m <= n_max: each node runs
lambdas_mod on the rows at cap m and adds to S(m).

The walk stops at a resolved node: one with r divisors below m, where r is
the generic rank of the rows (the rank over Q(X) of the view's matrix of
linear forms).  The rows at any lift of y agree with those at y mod p^m, and
the divisors below m are fixed by the matrix mod p^m; no lift has more than
r divisors, because every (r+1)-minor vanishes identically.  So every lift
to level m' > m has the same divisors, spanexp_m' = r m' - sum(lambda), and
the p^((k-1)(m'-m)) classes below the node add in closed form.  The walk
trusts r only when the module computed it by exact symbolic elimination
(MatrixModule.generic_rank with `exact`); otherwise it walks every node,
which is still exact.  A node with more than r divisors is an internal
inconsistency.  Without resolution the nodes at depth m are exactly the unit
classes mod p^m, so the walk never reduces more matrices than enumerating
each level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import BudgetExceededError, InputError, InternalConsistencyError
from .intmat import IntMatrix
from .module import VIEWS, MatrixModule
from .zpn import RingSpec, kernel_size_mod, lambdas_mod

DEFAULT_BUDGET = 10**8


def _walk_partial(payload):
    """Visited unit classes and resolved nodes under one pivot; pure, for any scheduler.

    Walks the tree of unit-class representatives whose first unit coordinate
    is `pivot`, depth first and lazily, down to level `top`.  A node with
    `rank` divisors below its level is resolved: _orbit_sums counts its
    descendants in closed form.  `rank` None resolves nothing.
    """
    triples, p, top, pivot, k, e, rank = payload
    counts: dict[tuple[int, int], int] = {}  # (level, span exponent) -> classes
    resolved: dict[tuple[int, int], int] = {}  # (level, sum of divisors) -> nodes
    free = [a for a in range(k) if a != pivot]

    def children(y, m):
        child = list(y)
        for t in product(range(0, p ** (m + 1), p**m), repeat=k - 1):
            for a, s in zip(free, t):
                child[a] = y[a] + s
            yield tuple(child)

    # the unvisited siblings at each depth m = 1, 2, ...: memory stays O(depth)
    stack = [((0,) * pivot + (1,) + hi for hi in product(range(p), repeat=k - 1 - pivot))]
    while stack:
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            continue
        m = len(stack)
        rows = []
        for trip in triples:
            row = [0] * e
            for a, j, v in trip:
                ya = y[a]
                if ya:
                    row[j] += ya * v
            rows.append(row)
        lams = lambdas_mod(rows, p, m)
        low = sum(lams)
        key = (m, m * len(lams) - low)
        counts[key] = counts.get(key, 0) + 1
        if rank is not None and len(lams) >= rank:
            if len(lams) > rank:
                raise InternalConsistencyError(
                    f"{len(lams)} divisors below {m} exceed the generic rank {rank}"
                )
            resolved[(m, low)] = resolved.get((m, low), 0) + 1
        elif m < top:
            stack.append(children(y, m))
    return counts, resolved


def _run_partials(worker, payloads, jobs):
    """worker over payloads, in order; the package's one process pool."""
    if jobs > 1 and len(payloads) > 1:
        from multiprocessing import Pool

        with Pool(processes=min(jobs, len(payloads))) as pool:
            return pool.map(worker, payloads)
    return [worker(pl) for pl in payloads]


def _orbit_sums(generators, k, e, p, top, rank, jobs=1) -> list[Fraction]:
    """Sum over x in (Z/p^n)^k of 1/|span of the generator rows at x|, n = 0..top.

    Each generator is a k x e matrix; its row at x is x times the matrix.
    The walk takes it as the nonzero triples (point axis, column, value).
    `rank` is the exact generic rank of the rows, or None.
    """
    triples = tuple(
        tuple((a, j, v) for a, row in enumerate(g) for j, v in enumerate(row) if v)
        for g in generators
    )
    payloads = [(triples, p, top, pivot, k, e, rank) for pivot in range(k)] if top > 0 else []
    sums = [Fraction(0)] * (top + 1)  # S(m) over the visited unit classes mod p^m
    ball = [Fraction(0)] * (top + 1)  # sum of p^(low - (k-1)m) over nodes resolved at m
    for counts, resolved in _run_partials(_walk_partial, payloads, jobs):
        for (m, exp), cnt in counts.items():
            sums[m] += Fraction(cnt, p**exp)
        for (m, low), nodes in resolved.items():
            ball[m] += nodes * Fraction(p) ** (low - (k - 1) * m)
    # x = 0 spans nothing; x = p^w y has a unit class of p^(n-w-1)(p-1) members,
    # so level n is level n - 1 plus (p - 1) p^(n-1) S(n).  A node resolved at
    # m < n has p^((k-1)(n-m)) classes at level n, of span exponent r n - low
    out = [Fraction(1)]
    tail = Fraction(0)
    for n in range(1, top + 1):
        tail += ball[n - 1]
        s = sums[n] + (tail * Fraction(p) ** ((k - 1 - rank) * n) if tail else 0)
        out.append(out[-1] + (p - 1) * p ** (n - 1) * s)
    return out


def _check_budget(m: MatrixModule, p: int, top: int, views, budget: int) -> None:
    """Every level up to top of every view within the budget, before any walk."""
    for n in range(1, top + 1):
        for view in views:
            points = p ** (m.view_shape(view)[0] * n)
            if points > budget:
                raise BudgetExceededError(points, budget, view=view, level=n)


def _view_series(m: MatrixModule, p: int, top: int, view: str, jobs: int) -> list[Fraction]:
    """ask(M, Z/p^n) for n = 0..top through one view, from one walk.

    The generic rank that resolves nodes is asked for only when the walk goes
    deeper than level 1, where every node is a leaf anyway.
    """
    k, _, w = m.view_shape(view)
    rank = m.generic_rank(view, exact=True) if top > 1 else None
    sums = _orbit_sums(m.view_generators(view), k, w, p, top, rank, jobs)
    return [s * Fraction(p) ** (n * (m.d - k)) for n, s in enumerate(sums)]


def _method_views(m: MatrixModule, method: str) -> tuple[str, ...]:
    if method == "both":
        return ("average", "orbit")
    if method == "auto":
        return (min(VIEWS, key=lambda view: m.view_shape(view)[0]),)
    if method in VIEWS:
        return (method,)
    raise InputError(f"unknown method {method!r}")


def points_needed(m: MatrixModule, p: int, n: int, method: str) -> int:
    """Points the largest view that `method` runs enumerates at level n."""
    return max(p ** (m.view_shape(view)[0] * n) for view in _method_views(m, method))


@dataclass(frozen=True)
class AskValue:
    """One coefficient: the exact average kernel size at level n."""

    value: Fraction
    p: int
    n: int
    method: str

    def __post_init__(self):
        if self.value < 1:
            raise InternalConsistencyError(f"ask value {self.value} < 1")


@dataclass(frozen=True)
class CoeffSeq:
    """Coefficients for n = 0 .. n_max at a fixed prime."""

    p: int
    values: tuple[AskValue, ...]

    def coefficients(self) -> list[Fraction]:
        return [v.value for v in self.values]


def ask_series(
    m: MatrixModule,
    p: int,
    n_max: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> CoeffSeq:
    """Coefficients ask(M, Z/p^n) for n = 0 .. n_max; the engine's one entry.

    method is a view ("orbit", "average" or "transpose"); "auto" runs the
    view with the fewest points, and "both" runs the average and orbit
    routes and insists on exact agreement.  The point count p^(k*n) of every
    view run must stay within the budget at every level.  `jobs` splits each
    walk by pivot across processes; the result does not depend on the split.
    """
    RingSpec(p, n_max)
    views = _method_views(m, method)
    label = method if method == "both" else views[0]
    _check_budget(m, p, n_max, views, budget)
    found = [_view_series(m, p, n_max, view, jobs) for view in views]
    values = []
    for n in range(n_max + 1):
        value = found[0][n]
        if value != found[-1][n]:
            raise InternalConsistencyError(
                f"engines disagree at (p, n) = ({p}, {n}): {value} != {found[-1][n]}"
            )
        values.append(AskValue(value, p, n, label if n else "trivial"))
    return CoeffSeq(p, tuple(values))


def ask_average(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Average size of the kernel of a random element of M over Z/p^n.

    The orbit sum of the Knuth dual, over p^(l*n) coefficient tuples.
    """
    return ask_series(m, ring.p, ring.n, "average", budget, jobs).values[-1].value


def ask_orbit(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Sum over x in (Z/p^n)^d of the reciprocal orbit size |x M|.

    Equals ask_average exactly, over p^(d*n) points.
    """
    return ask_series(m, ring.p, ring.n, "orbit", budget, jobs).values[-1].value


def ask_mod_composite(
    m: MatrixModule, modulus: int, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Average kernel size of M over Z/N for an arbitrary modulus N >= 1."""
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if modulus == 1:
        return Fraction(1)
    points = modulus**m.dim
    if points > budget:
        raise BudgetExceededError(points, budget)
    total = 0
    for c in product(range(modulus), repeat=m.dim):
        total += kernel_size_mod(IntMatrix(m.element_rows(c)), modulus)
    return Fraction(total, points)


def rank_distribution(d: int, e: int, r: int, q: int) -> int:
    """Number of d x e matrices of rank r over the field with q elements."""
    if not 0 <= r <= min(d, e):
        raise InputError(f"rank {r} out of range for {d} x {e}")
    value = Fraction(1)
    for i in range(r):
        value *= Fraction((q**e - q**i) * (q ** (d - i) - 1), q ** (i + 1) - 1)
    if value.denominator != 1:
        raise InternalConsistencyError("rank count is not an integer")
    return int(value)
