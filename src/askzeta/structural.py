"""Structural certificates: orbit-size maximality, kernel-size minimality,
constant rank, constant orbit dimension.

The sufficient criterion for the two extremal properties is graded: a module
is certified when, for each degree i up to the generic rank, every pure power
X_j^i lies in the Q-span of the i x i minors of the relevant linear-form
matrix.  Those minors are homogeneous of degree i, so membership in the ideal
they generate can be decided degree by degree with plain linear algebra; no
Groebner machinery is required.

Certificates are generic: they hold for all primes p except those dividing
the denominators of the certifying linear combinations (and, for kernel-size
minimality, primes at which the module is not isolated).  Refutations store a
concrete rational point where the rank degenerates, found by deterministic
candidates first and seeded random search after.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from operator import mul

from .errors import InternalConsistencyError
from .linalg import frac_solve_multi
from .module import MatrixModule
from .poly import evaluated_rank
from .primes import factorize
from .ratfun import QTRational
from .closed_forms import constant_rank_form, mat_form

DEFAULT_MINOR_BUDGET = 10**6
DEFAULT_WITNESS_TRIALS = 10**4


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sufficiency test: certified, refuted, or inconclusive.

    certified: `combinations` maps each target pure power to the coefficients
    of a linear combination of minors equal to it; `excluded_primes` lists
    primes where the certificate degenerates.  refuted: `witness` is a point
    with rank strictly below the generic one.  inconclusive: see `reason`.
    """

    status: str
    witness: tuple | None = None
    witness_rank: int | None = None
    excluded_primes: tuple[int, ...] = ()
    combinations: dict = field(default_factory=dict, compare=False)
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _pack(rows, k: int, top: int):
    """The Poly entries, in k variables, as dicts over packed exponents, and
    the base B = top + 1 of the packing.

    A monomial X^e of degree |e| packs to |e| B^k + sum_a e_a B^(k-1-a), the
    integer whose base-B digits are its degree and then its exponents.  A
    product of degree at most `top` has every digit below B, so no digit
    carries: the product of two monomials packs to the sum of their packed
    exponents, and among monomials of one degree the integers compare as
    the exponent tuples do in lex order.
    """
    base = top + 1
    weights = [base ** (k - 1 - a) for a in range(k)] + [base**k]
    packed = [
        [{sum(map(mul, (*e, sum(e)), weights)): c for e, c in f.terms.items()} for f in row]
        for row in rows
    ]
    return packed, base


def _add_product(terms: dict, entry: dict, form, scale: int) -> None:
    """Add scale * entry * form to terms, all over packed exponents."""
    for ea, ca in entry.items():
        ca *= scale
        for eb, cb in form:
            e = ea + eb
            terms[e] = terms.get(e, 0) + ca * cb


def _all_minors(rows, size, budget, below):
    """Deduplicated nonzero size x size minors of a packed matrix, and their table.

    `rows` hold the entries as dicts over packed exponents (`_pack`), and a
    minor is one such dict.  A table maps each row set to a dict from column
    sets to (scale, form), one for every nonzero minor, the minor being
    scale times its normalized form: content 1 and a positive coefficient
    at its largest packed exponent, as a frozenset of (exponent,
    coefficient) pairs.  Equal forms are one object, shared with the next
    degree.  `below` is the table of the (size - 1) x (size - 1) minors,
    {(): {(): (1, frozenset({(0, 1)}))}} for size 1.  Each minor is its
    Laplace expansion along its first row, sum_k (-1)^k a[r0][c_k] times
    the minor on the other rows and the columns other than c_k; a zero
    entry or a sub-minor missing from `below` adds nothing, so a minor that
    is zero by its support costs no product.  The minors kept are the first of each
    form, in the order of the row sets, then the column sets.  The two
    tables in memory hold at most one degree's count of minors each,
    C(rows, size) C(cols, size), which the budget bounds, and one form per
    distinct minor.  Returns (None, count, None) over budget.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    count = comb(nr, size) * comb(nc, size)
    if count > budget:
        return None, count, None
    # each column set with its expansion: (sign is odd, column, the others)
    expansions = [
        (csel, [(k & 1, c, csel[:k] + csel[k + 1 :]) for k, c in enumerate(csel)])
        for csel in combinations(range(nc), size)
    ]
    shared = {}
    minors = []
    table = {}
    for rsel in combinations(range(nr), size):
        r0, subs = rows[rsel[0]], below.get(rsel[1:])
        if subs is None:  # every minor on the other rows vanishes
            continue
        found = {}
        for csel, expansion in expansions:
            terms = {}
            for odd, c, others in expansion:
                if r0[c] and others in subs:
                    scale, form = subs[others]
                    _add_product(terms, r0[c], form, -scale if odd else scale)
            if not terms:  # zero by its support
                continue
            det = {e: v for e, v in terms.items() if v}
            if not det:  # the products cancelled
                continue
            g = gcd(*det.values())
            if det[max(det)] < 0:
                g = -g
            form = frozenset((e, v // g) for e, v in det.items())
            first = shared.setdefault(form, form)
            if first is form:
                minors.append(det)
            found[csel] = (g, first)
        if found:
            table[rsel] = found
    return minors, count, table


def _monomial_span_test(rows, generic_rank, nvars, budget):
    """Check X_j^i in span of the i x i minors for all i <= generic_rank.

    Returns (ok, combinations, excluded_primes) or (None, reason) when over
    budget.  Each degree's minors are expanded from the previous degree's
    table, which is dropped once the next one is built.  Every minor of a
    linear-form matrix must be homogeneous of its size; this is asserted
    per run.  The span is solved on sparse rows, one per monomial that a
    minor or a target holds: a monomial that none holds is a zero row.
    """
    combos = {}
    denominators = set()
    packed, base = _pack(rows, nvars, generic_rank)
    degree_one = base**nvars
    table = {(): {(): (1, frozenset({(0, 1)}))}}
    for i in range(1, generic_rank + 1):
        minors, count, table = _all_minors(packed, i, budget, table)
        if minors is None:
            return None, f"degree {i} needs {count} minors (budget {budget})"
        if not minors:
            # every minor vanished although i <= generic rank: no pure power
            # can be in the span
            return (False, (0, i)), None
        # a monomial of degree i packs into [low, high)
        low, high = i * degree_one, (i + 1) * degree_one
        for m in minors:
            if not all(low <= e < high for e in m):
                raise InternalConsistencyError(
                    "minor of a linear-form matrix is not homogeneous"
                )
        # columns are minors, then one per target X_j^i; rows are monomials
        span = {}
        for col, m in enumerate(minors):
            for e, c in m.items():
                span.setdefault(e, {})[col] = c
        ncols = len(minors)
        for j in range(nvars):
            span.setdefault(low + i * base ** (nvars - 1 - j), {})[ncols + j] = 1
        sols = frac_solve_multi(list(span.values()), ncols, nvars)
        for j, sol in enumerate(sols):
            if sol is None:
                return (False, (j, i)), None
            combos[(j, i)] = sol
            for c in sol:
                denominators.add(c.denominator)
    primes = set()
    for den in denominators:
        for p in factorize(den):
            primes.add(p)
    return (True, combos), tuple(sorted(primes))


def _search_degenerate_point(rows, nvars, generic_rank, trials, seed):
    """A rational point where the matrix rank drops below generic_rank, or None.

    Unit vectors and small patterned points are tried before random ones.
    """
    candidates = []
    for j in range(nvars):
        candidates.append(tuple(int(t == j) for t in range(nvars)))
    for j in range(nvars):
        candidates.append(tuple(int(t != j) for t in range(nvars)))
    rng = random.Random(seed)
    for t in range(trials):
        if t < len(candidates):
            point = candidates[t]
        else:
            bound = 2 + t // 100
            point = tuple(rng.randint(-bound, bound) for _ in range(nvars))
            if not any(point):
                continue
        r = evaluated_rank(rows, point)
        if r < generic_rank:
            return point, r
    return None, None


def _certify(m: MatrixModule, view: str, excluded_primes, trials: int, seed: int) -> Certificate:
    """The monomial test on the view's linear forms, then a witness search.

    `excluded_primes` are excluded from a certificate on top of the primes
    dividing the denominators of its combinations.
    """
    rows = m.linear_forms(view)
    rank = m.generic_rank(view)
    nvars = m.view_shape(view)[0]
    excluded = set(excluded_primes)
    if rank == 0:
        return Certificate("certified", excluded_primes=tuple(sorted(excluded)))
    result, extra = _monomial_span_test(rows, rank, nvars, DEFAULT_MINOR_BUDGET)
    if result is None:
        return Certificate("inconclusive", reason=extra)
    ok, payload = result
    if ok:
        excluded.update(extra)
        return Certificate(
            "certified", combinations=payload, excluded_primes=tuple(sorted(excluded))
        )
    witness, r = _search_degenerate_point(rows, nvars, rank, trials, seed)
    if witness is not None:
        return Certificate("refuted", witness=witness, witness_rank=r)
    j, i = payload
    return Certificate(
        "inconclusive",
        reason=f"X_{j + 1}^{i} not in the degree-{i} minor span; no witness found",
    )


def check_o_maximal(
    m: MatrixModule, trials: int = DEFAULT_WITNESS_TRIALS, seed: int = 0
) -> Certificate:
    """Certify or refute that orbit sizes are generically as large as possible.

    The test runs on the orbit view's linear forms.  Certification implies
    the coefficient stream of M equals that of the full matrix module
    mat(d, gor) for every prime outside `excluded_primes`.
    """
    return _certify(m, "orbit", (), trials, seed)


def check_k_minimal(
    m: MatrixModule, trials: int = DEFAULT_WITNESS_TRIALS, seed: int = 0
) -> Certificate:
    """Certify or refute that kernel sizes are generically as small as possible.

    Certification needs the monomial test on the average view's linear forms
    (the generic element) and isolation of the lattice; primes dividing its
    index are excluded rather than fatal.
    """
    return _certify(m, "average", factorize(m.index()), trials, seed)


@dataclass(frozen=True)
class StructureReport:
    grk: int
    gor: int
    o_maximal: Certificate
    k_minimal: Certificate
    template_key: str | None
    template: QTRational | None


def structure_report(
    m: MatrixModule, trials: int = DEFAULT_WITNESS_TRIALS, seed: int = 0
) -> StructureReport:
    """Run both certificates and name the closed-form template that applies.

    Orbit-maximality selects the full-matrix template mat(d, gor); kernel
    minimality selects the constant-rank template with (d, dim, grk).  If both
    certify, the two templates must agree as rational functions.
    """
    o_cert = check_o_maximal(m, trials, seed)
    k_cert = check_k_minimal(m, trials, seed)
    template_key = None
    template = None
    gor, grk = m.generic_rank("orbit"), m.generic_rank("average")
    if o_cert.certified:
        template_key = f"mat({m.d},{gor})"
        template = mat_form(m.d, gor)
    if k_cert.certified:
        k_template = constant_rank_form(m.d, m.dim, grk)
        if template is not None:
            if template != k_template:
                raise InternalConsistencyError(
                    "orbit-maximal and kernel-minimal templates disagree"
                )
        else:
            template_key = f"constant_rank({m.d},{m.dim},{grk})"
            template = k_template
    return StructureReport(
        grk=grk,
        gor=gor,
        o_maximal=o_cert,
        k_minimal=k_cert,
        template_key=template_key,
        template=template,
    )
