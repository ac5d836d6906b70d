"""Exact computation of average kernel sizes over Z/p^n by one orbit-sum kernel.

Every route is the sum, over the points x of (Z/p^n)^k, of 1/|span of the
generator rows at x|, taken over one view of the basis tensor b_1, ..., b_l
of M inside Mat_{d x e}:

  * ask_orbit takes the rows of M: generator i is b_i and x runs over
    (Z/p^n)^d, so the span is x M and the sum is the orbit formula (k = d).
  * ask_average takes the Knuth dual M°: generator r has row i equal to row
    r of b_i and the coefficient tuple c runs over (Z/p^n)^l, so the rows at
    c are those of A = sum c_i b_i.  Since |Ker A| = p^(dn) / |row span of A|,
    the defining average of |Ker A| over coefficient tuples is p^(n(d-l))
    times the sum (k = l).  The coefficient-tuple map onto the module has
    equal-size fibers, so averaging over tuples is averaging over M.
  * the transpose view is p^(n(d-e)) * ask_orbit(M^T) (k = e).

ask_series "auto" takes the view with the fewest points p^(kn); "both"
compares the average and orbit routes, i.e. the definition with the orbit
formula.

Enumeration is compressed by scalar symmetry: spans are invariant under
multiplying the point by a unit, so each unit-scaling class is visited once
and weighted by its size.  Nonzero x decompose uniquely as p^w times a
primitive vector mod p^(n-w).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import BudgetExceededError, InputError, InternalConsistencyError
from .intmat import IntMatrix
from .module import MatrixModule, transpose_module
from .zpn import RingSpec, kernel_size_mod, lambdas_mod

DEFAULT_BUDGET = 10**8


def _unit_class_reps_at(p: int, m: int, k: int, j: int):
    """Representatives of primitive vectors in (Z/p^m)^k modulo units, pivot j.

    The first unit coordinate sits at position j and is scaled to 1;
    coordinates before it run over multiples of p, coordinates after it are
    free.  The pivot positions partition the representatives into disjoint
    blocks, which is also the work split used by parallel enumeration.
    """
    pm = p**m
    nonunits = range(0, pm, p)
    for lo in product(nonunits, repeat=j):
        for hi in product(range(pm), repeat=k - 1 - j):
            yield lo + (1,) + hi


def _orbit_partial(payload):
    """Span-size exponent counts over one representative block; pure, for any scheduler."""
    generators, p, n, w, pivot, k, e = payload
    cap = n - w
    counts: dict[int, int] = {}
    for x in _unit_class_reps_at(p, cap, k, pivot):
        rows = []
        for trip in generators:
            row = [0] * e
            for a, j, v in trip:
                xa = x[a]
                if xa:
                    row[j] += xa * v
            rows.append(row)
        lams = lambdas_mod(rows, p, cap)
        exp = sum(cap - lv for lv in lams)
        counts[exp] = counts.get(exp, 0) + 1
    return w, counts


def _run_partials(worker, payloads, jobs):
    """worker over payloads, in order; the package's one process pool."""
    if jobs > 1 and len(payloads) > 1:
        from multiprocessing import Pool

        with Pool(processes=min(jobs, len(payloads))) as pool:
            return pool.map(worker, payloads)
    return [worker(pl) for pl in payloads]


def _orbit_sum(generators, k, e, ring: RingSpec, budget, jobs, hint) -> Fraction:
    """Sum over x in (Z/p^n)^k of 1/|span of the generator rows at x|.

    Each generator is a k x e matrix; its row at x is x times the matrix.
    The enumeration takes it as the nonzero triples (point axis, column,
    value).  The point count p^(k*n) must stay within the budget.
    """
    p, n = ring.p, ring.n
    if n == 0:
        return Fraction(1)
    points = p ** (k * n)
    if points > budget:
        raise BudgetExceededError(points, budget, hint)
    triples = tuple(
        tuple((a, j, v) for a, row in enumerate(g) for j, v in enumerate(row) if v)
        for g in generators
    )
    payloads = [(triples, p, n, w, pivot, k, e) for w in range(n) for pivot in range(k)]
    total = Fraction(1)  # x = 0 spans nothing
    for w, counts in _run_partials(_orbit_partial, payloads, jobs):
        weight = p ** (n - w - 1) * (p - 1)
        for exp, cnt in counts.items():
            total += weight * Fraction(cnt, p**exp)
    return total


def ask_average(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Average size of the kernel of a random element of M over Z/p^n.

    Enumerates coefficient tuples, as the orbit sum of the Knuth dual; the
    point count p^(l*n) must stay within the budget.  `jobs` splits the
    representative blocks across processes; the result does not depend on
    the split.
    """
    dual = list(zip(*(b.entries for b in m.basis)))  # generator r: row r of each b_i
    total = _orbit_sum(dual, m.dim, m.e, ring, budget, jobs, "try the orbit method")
    return total * Fraction(ring.p) ** (ring.n * (m.d - m.dim))


def ask_orbit(
    m: MatrixModule, ring: RingSpec, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Fraction:
    """Sum over x in (Z/p^n)^d of the reciprocal orbit size |x M|.

    Equals ask_average exactly.  The point count p^(d*n) must stay within
    the budget.
    """
    rows = [b.entries for b in m.basis]
    return _orbit_sum(rows, m.d, m.e, ring, budget, jobs, "try the average method")


# views in the order "auto" breaks ties: orbit before average, as when l == d
_VIEWS = ("orbit", "average", "transpose")


def _view_dim(m: MatrixModule, view: str) -> int:
    """k of the view: the point space it enumerates at level n is (Z/p^n)^k."""
    return {"orbit": m.d, "average": m.dim, "transpose": m.e}[view]


def _method_views(m: MatrixModule, method: str) -> tuple[str, ...]:
    if method == "both":
        return ("average", "orbit")
    if method == "auto":
        return (min(_VIEWS, key=lambda view: _view_dim(m, view)),)
    if method in ("average", "orbit"):
        return (method,)
    raise InputError(f"unknown method {method!r}")


def points_needed(m: MatrixModule, p: int, n: int, method: str) -> int:
    """Points the largest view that `method` runs enumerates at level n."""
    return max(p ** (_view_dim(m, view) * n) for view in _method_views(m, method))


def ask_view(
    m: MatrixModule,
    ring: RingSpec,
    view: str,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Fraction:
    """ask(M, Z/p^n) through one view: "orbit", "average" or "transpose"."""
    if view == "orbit":
        return ask_orbit(m, ring, budget, jobs)
    if view == "average":
        return ask_average(m, ring, budget, jobs)
    scale = Fraction(ring.p) ** (ring.n * (m.d - m.e))
    return scale * ask_orbit(transpose_module(m), ring, budget, jobs)


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
    """Coefficients ask(M, Z/p^n) for n = 0 .. n_max.

    method "auto" runs the view with the fewest points; "both" runs the
    average and orbit routes and insists on exact agreement.
    """
    views = _method_views(m, method)
    label = method if method == "both" else views[0]
    values = []
    for n in range(n_max + 1):
        ring = RingSpec(p, n)
        if n == 0:
            values.append(AskValue(Fraction(1), p, 0, "trivial"))
            continue
        if method == "auto":
            points = points_needed(m, p, n, method)
            if points > budget:
                raise BudgetExceededError(points, budget)
        found = [ask_view(m, ring, view, budget, jobs) for view in views]
        if found[0] != found[-1]:
            raise InternalConsistencyError(
                f"engines disagree at (p, n) = ({p}, {n}): {found[0]} != {found[-1]}"
            )
        values.append(AskValue(found[0], p, n, label))
    return CoeffSeq(p, tuple(values))


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
