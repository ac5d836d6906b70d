"""MatrixModule construction, generic ranks, transforms, adjoint."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

import pytest

from askzeta import (
    BudgetExceededError,
    InputError,
    IntMatrix,
    MatrixModule,
    NonIntegralStructureConstantsError,
    NotLieAlgebraError,
    ad_representation,
    catalog_keys,
    catalog_module,
    closed_form,
    transpose_module,
)
from askzeta import module, poly
from askzeta.catalog import _FAMILIES, _FIXED, catalog_row
from askzeta.intmat import from_flat
from askzeta.linalg import _reduce, frac_rank, frac_solve_multi, sparse_row
from askzeta.module import VIEWS, rows_at
from askzeta.poly import Poly, bareiss_det, symbolic_rank
from conftest import (
    add_zero_col,
    add_zero_row,
    direct_sum,
    evaluated_rank,
    evaluated_rows,
    frac_rref,
    leibniz_det,
    minor_rank,
    random_module,
    random_poly,
    random_poly_matrix,
    random_unimodular,
    reference_reduce,
    rescale,
    smith_diagonal,
)


# every family at parameters where the largest-minor oracle stays quick
SMALL_FAMILY_KEYS = (
    [f"mat({d},{e})" for d in (1, 2, 3) for e in (1, 2, 3)]
    + [f"{head}({d})" for head in ("gl", "sl", "sym", "n", "tr", "diag") for d in (1, 2, 3, 4)]
    + [f"so({d})" for d in (1, 2, 3, 4, 5)]
    + ["sp(2)", "sp(4)", "band(1)", "band(2)", "band(3)", "zero(2,3)"]
)


class _Eliminated(Exception):
    """Raised in place of the symbolic elimination."""


def variable(i: int, nvars: int) -> Poly:
    """The polynomial X_i in nvars variables."""
    return Poly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})


class TestCanonicalBasis:
    def test_dependent_input_is_reduced(self):
        m = MatrixModule(1, 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
        assert m.dim == 2

    def test_equality_ignores_presentation(self):
        a = MatrixModule(1, 2, [[[1, 0]], [[0, 1]]])
        b = MatrixModule(1, 2, [[[1, 1]], [[0, 1]], [[1, 0]]])
        assert a == b

    def test_equal_lattices_give_equal_modules(self, rng):
        # the first row is reduced by both later pivot rows, the second pivot first
        a = MatrixModule(1, 3, [[[1, 3, 0]], [[0, 2, 1]], [[0, 0, 3]]])
        b = MatrixModule(1, 3, [[[1, 1, 2]], [[0, 2, 1]], [[0, 0, 3]]])
        assert a == b and hash(a) == hash(b)
        for _ in range(20):
            m = random_module(rng, lmax=5)
            if not m.basis:
                continue
            cols = list(zip(*(b.flat() for b in m.basis)))
            # a unimodular mix of the basis, plus one redundant combination
            rows = [
                [sum(map(mul, u, col)) for col in cols]
                for u in random_unimodular(rng, m.dim).entries
            ]
            rows.append([sum(col) for col in cols])
            other = MatrixModule(m.d, m.e, [from_flat(r, m.d, m.e) for r in rows])
            assert other == m and hash(other) == hash(m)

    def test_basis_entries_stay_small(self, rng):
        # an entry of the canonical basis is at most r times the largest r x r
        # minor of a lattice basis (Cramer, with pivot columns reduced), which
        # is at most that of any r independent generators: r N^r, with N the
        # largest generator norm (Hadamard)
        for _ in range(5):
            gens = [[[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)] for _ in range(12)]
            m = MatrixModule(3, 5, gens)
            r = m.dim
            norm_sq = max(sum(v * v for row in g for v in row) for g in gens)
            assert all(
                v * v <= r * r * norm_sq**r for b in m.basis for row in b.entries for v in row
            )

    def test_lattice_is_preserved(self):
        # a non-saturated lattice must not be rescaled by canonicalization
        m = MatrixModule(1, 1, [[[3]]])
        assert m.basis[0].entries == ((3,),)
        assert m.index() == 3

    def test_index_is_the_product_of_the_smith_divisors(self, rng):
        # the gcd of the maximal minors, read off the columns' Hermite form
        modules = [MatrixModule(2, 2, []), rescale(catalog_module("n(3)"), 1, 6)]
        modules += [random_module(rng, lmax=5) for _ in range(30)]
        for m in modules:
            divs = smith_diagonal(IntMatrix([b.flat() for b in m.basis]))
            assert m.index() == prod(divs), m.basis
            for p in (2, 3, 5):
                assert m.is_isolated_at(p) == all(s % p for s in divs)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            MatrixModule(2, 2, [[[1, 0]]])


class TestOrbitMatrix:
    def test_one_by_one(self):
        rows = catalog_module("mat(1,1)").linear_forms("orbit")
        assert rows == [[variable(0, 1)]]

    def test_n2(self):
        rows = catalog_module("n(2)").linear_forms("orbit")
        assert rows[0][0].is_zero()
        assert rows[0][1] == variable(0, 2)

    def test_so3_rows(self):
        rows = catalog_module("so(3)").linear_forms("orbit")
        x = [variable(i, 3) for i in range(3)]
        assert rows[0] == [-x[1], x[0], Poly.const(3, 0)]
        assert rows[1] == [-x[2], Poly.const(3, 0), x[0]]
        assert rows[2] == [Poly.const(3, 0), -x[2], x[1]]


class TestGenericRanks:
    def test_element_rank(self):
        assert catalog_module("mat(2,3)").generic_rank("average") == 2
        assert catalog_module("band(2)").generic_rank("average") == 2
        assert catalog_module("zero(2,2)").generic_rank("average") == 0

    def test_orbit_rank(self):
        assert catalog_module("mat(2,3)").generic_rank("orbit") == 3
        assert catalog_module("mat(3,2)").generic_rank("orbit") == 2
        for d in (2, 3, 4):
            assert catalog_module(f"n({d})").generic_rank("orbit") == d - 1
        assert catalog_module("so(3)").generic_rank("orbit") == 2
        assert catalog_module("sp(4)").generic_rank("orbit") == 4

    def test_bounds(self, rng):
        for _ in range(10):
            m = random_module(rng)
            assert m.generic_rank("orbit") <= m.e
            assert m.generic_rank("average") <= min(m.d, m.e)

    @pytest.mark.parametrize("key", SMALL_FAMILY_KEYS)
    def test_family_ranks_against_largest_minor(self, monkeypatch, key):
        # a view of full rank min(rows, columns) is proved at a point and never
        # eliminates; any other view (so(odd), n(d), zero) reaches the elimination
        def refuse(rows):
            raise _Eliminated

        m = catalog_module(key)
        for view in VIEWS:
            forms = m.linear_forms(view)
            want = minor_rank(forms, m.view_shape(view)[0])
            full = min(len(forms), len(forms[0])) if forms else 0
            with monkeypatch.context() as patch:
                patch.setattr(module, "symbolic_rank", refuse)
                fresh = catalog_module(key)
                if want == full:
                    assert fresh.generic_rank(view) == want, view
                else:
                    with pytest.raises(_Eliminated):
                        fresh.generic_rank(view)
            assert m.generic_rank(view) == want, view

    def test_full_rank_needs_no_elimination(self):
        # the elimination of sp(8)'s generic element, 8 x 8 in 36 variables,
        # did not finish in 40 s
        m = catalog_module("sp(8)")
        start = time.perf_counter()
        assert m.generic_rank("average") == 8
        assert time.perf_counter() - start < 1

    def test_a_rank_lost_mod_the_prime_falls_through_to_elimination(self, monkeypatch):
        # every coefficient a multiple of 2^61 - 1: each point's values are 0
        # mod the prime, so only the elimination gives the rank; the orbit
        # view's rows are q * [[X_0, X_1, 0], [0, X_2, X_0]]
        q = 2**61 - 1
        m = MatrixModule(
            3, 3, [[[q, 0, 0], [0, q, 0], [0, 0, 0]], [[0, 0, q], [0, 0, 0], [0, q, 0]]]
        )
        x = [Poly.const(3, q) * variable(a, 3) for a in range(3)]
        zero = Poly(3)
        rows = [[x[0], x[1], zero], [zero, x[2], x[0]]]
        calls = []

        def counted(forms):
            calls.append(forms)
            return symbolic_rank(forms)

        monkeypatch.setattr(module, "symbolic_rank", counted)
        assert m.generic_rank("orbit") == 2
        assert calls == [rows]

    @pytest.mark.parametrize("key, view", [("mat(1,600)", "orbit"), ("gl(4)", "average")])
    def test_a_full_rank_builds_no_poly(self, monkeypatch, key, view):
        # the random points read the generators; only the elimination needs
        # the linear forms
        def refuse(*args):
            raise _Eliminated

        monkeypatch.setattr(module, "Poly", refuse)
        m = catalog_module(key)
        assert m.generic_rank(view) == min(m.view_shape(view)[1:])
        with pytest.raises(_Eliminated):
            m.linear_forms(view)

    def test_randomized_matches_symbolic(self, rng):
        for _ in range(10):
            m = random_module(rng)
            rows = m.linear_forms("orbit")
            if not rows:
                continue
            exact = symbolic_rank(rows)
            best = 0
            for _ in range(50):
                point = [rng.randint(-(10**6), 10**6) for _ in range(m.d)]
                best = max(best, evaluated_rank(rows, point))
            assert best == exact

    def test_rows_at_evaluates_the_linear_forms(self, rng):
        for _ in range(40):
            m = random_module(rng)
            for view in VIEWS:
                k = m.view_shape(view)[0]
                columns = [tuple(zip(*gen)) for gen in m.view_generators(view)]
                forms = m.linear_forms(view)
                for _ in range(3):
                    point = [rng.randint(-50, 50) for _ in range(k)]
                    assert rows_at(columns, point) == evaluated_rows(forms, point), view


class TestViews:
    """A view is a choice of point, generator and column axes of B[i][r][c]."""

    def test_generators_slice_the_basis_tensor(self, rng):
        for _ in range(10):
            m = random_module(rng)
            ents = [b.entries for b in m.basis]
            assert m.view_generators("orbit") == tuple(ents)
            assert m.view_generators("average") == tuple(
                tuple(b[r] for b in ents) for r in range(m.d)
            )
            assert m.view_generators("transpose") == tuple(
                b.transpose().entries for b in m.basis
            )

    def test_generators_of_a_zero_module(self):
        # k rows of w zeros per generator; an empty axis slices nothing
        for d, e in ((0, 3), (3, 0), (2, 3)):
            z = MatrixModule(d, e, [])
            for view in VIEWS:
                k, count, w = z.view_shape(view)
                assert z.view_generators(view) == (((0,) * w,) * k,) * count, (d, e, view)

    def test_shapes(self):
        m = catalog_module("band(2)")  # dim 2 in Mat_{3 x 2}
        assert m.view_shape("orbit") == (3, 2, 2)
        assert m.view_shape("average") == (2, 3, 2)
        assert m.view_shape("transpose") == (2, 2, 3)
        # the zero module has no generators in two views, but points in all
        z = catalog_module("zero(2,3)")
        assert [z.view_shape(v)[0] for v in ("orbit", "average", "transpose")] == [2, 0, 3]
        assert z.view_generators("orbit") == ()
        with pytest.raises(InputError):
            m.view_shape("diagonal")

    def test_average_forms_are_the_generic_element(self, rng):
        for _ in range(10):
            m = random_module(rng)
            x = [variable(i, m.dim) for i in range(m.dim)]
            want = [[Poly(m.dim)] * m.e for _ in range(m.d)]
            for xi, b in zip(x, m.basis):
                want = [
                    [w + xi * Poly.const(m.dim, v) for w, v in zip(wrow, brow)]
                    for wrow, brow in zip(want, b.entries)
                ]
            assert m.linear_forms("average") == want

    def test_ranks_against_largest_minor(self, rng):
        for _ in range(12):
            m = random_module(rng)
            for view in ("orbit", "average", "transpose"):
                k = m.view_shape(view)[0]
                assert m.generic_rank(view) == minor_rank(m.linear_forms(view), k), view
            assert m.generic_rank("transpose") == transpose_module(m).generic_rank("orbit")


class TestPoly:
    def test_laurent_exponents(self):
        assert Poly(2, {(-1, 0): 1}) * Poly(2, {(1, 1): 1}) == Poly(2, {(0, 1): 1})

    def test_difference_is_sum_with_negation(self, rng):
        for _ in range(60):
            nvars = rng.randint(1, 3)
            a, b = random_poly(rng, nvars), random_poly(rng, nvars)
            assert a - b == a + (-b)


class TestFractionFree:
    """bareiss_det and symbolic_rank share one elimination; Leibniz checks both."""

    def _square(self, rng, kind):
        n, nvars = rng.randint(1, 4), rng.randint(1, 3)
        a = random_poly_matrix(rng, n, n, nvars)
        if kind == "singular" and n > 1:
            c = variable(0, nvars) + Poly.const(nvars, rng.randint(-2, 2))
            a[-1] = [c * x + y for x, y in zip(a[0], a[1])] if n > 2 else [c * x for x in a[0]]
        elif kind == "swap" and n > 1:
            a[0][0] = Poly(nvars)
            a[1][0] = variable(rng.randrange(nvars), nvars)
        elif kind == "zero column":
            for row in a:
                row[0] = Poly(nvars)
        return a, nvars

    @pytest.mark.parametrize("kind", ["random", "singular", "swap", "zero column"])
    def test_det_against_leibniz(self, rng, kind):
        for _ in range(40):
            a, nvars = self._square(rng, kind)
            det = bareiss_det(a)
            assert det == leibniz_det(a, nvars)
            if kind in ("singular", "zero column") and len(a) > 1:
                assert det.is_zero()

    def test_empty_determinant_rejected(self):
        with pytest.raises(InputError):
            bareiss_det([])

    def test_rank_against_largest_minor(self, rng):
        for _ in range(60):
            nr, nc, nvars = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3)
            a = random_poly_matrix(rng, nr, nc, nvars)
            if nr > 1 and rng.random() < 0.5:
                c = variable(rng.randrange(nvars), nvars)
                a[-1] = [c * x for x in a[0]]
            assert symbolic_rank(a) == minor_rank(a, nvars)

    def test_symbolic_rank_counts_its_work(self, rng, monkeypatch):
        # so(7)'s rank-deficient average view takes about 10^5 term
        # operations; the determinant, the tests' oracle, has no cap
        assert symbolic_rank(catalog_module("so(7)").linear_forms("average")) == 6
        a = random_poly_matrix(rng, 4, 4, 3)
        monkeypatch.setattr(poly, "SYMBOLIC_RANK_WORK", 10)
        with pytest.raises(BudgetExceededError, match="symbolic rank"):
            symbolic_rank(a)
        assert bareiss_det(a) == leibniz_det(a, 3)


def _sparse_system(rng):
    """Integer rows, two thirds of the entries zero and one column zero, and
    targets that A reaches (A x) or, at random, mostly does not."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.choice((-4, -3, 2, 3, 5)) if rng.random() < 0.35 else 0 for _ in range(nc)]
            for _ in range(nr)]
    dead = rng.randrange(nc)
    for row in rows:
        row[dead] = 0
    if nr > 2:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    x = [rng.randint(-3, 3) for _ in range(nc)]
    targets = [
        [sum(a * b for a, b in zip(row, x)) for row in rows],
        [rng.randint(-3, 3) for _ in range(nr)],
        [0] * nr,
    ]
    return rows, targets


def _rref_of(rows, pivots, width):
    """The reduced echelon rows that `_reduce`'s pivot rows are multiples of."""
    return [[Fraction(row.get(j, 0), row[c]) for j in range(width)] for row, c in zip(rows, pivots)]


def _primitive(values):
    """The integer row with content 1 and the sign of the first nonzero
    entry of `values` (Fractions), a positive multiple of it."""
    scale = lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = gcd(*ints)
    return [x // g for x in ints]


def _check_reduced(rows, width, want, want_pivots):
    """`_reduce` in place on sparse `rows` against the dense reference form:
    the same pivots and reduced rows, pivot rows that are their rows'
    primitive integer multiples, and nothing left in the other rows."""
    pivots = _reduce(rows, width)
    assert pivots == want_pivots
    got = _rref_of(rows, pivots, width)
    assert got == want
    for row, ref in zip(rows, got):
        dense = [row.get(j, 0) for j in range(width)]
        assert dense in (_primitive(ref), [-x for x in _primitive(ref)])
    assert rows[len(pivots):] == [{}] * (len(rows) - len(pivots))


class TestRationalElimination:
    """The fraction-free sparse elimination against a dense one over Fraction."""

    def test_rref_matches_dense_elimination(self):
        rng = random.Random("rref")
        for _ in range(200):
            rows, _ = _sparse_system(rng)
            # zero rows anywhere, and the rows in any order
            rows += [[0] * len(rows[0])] * rng.randint(0, 2)
            rng.shuffle(rows)
            want, want_pivots = frac_rref(rows)
            _check_reduced([sparse_row(row) for row in rows], len(rows[0]), want, want_pivots)

    def test_coefficient_growth(self):
        # dense rows with entries near 10^6: without dividing out each row's
        # content the pivot rows would not be primitive
        rng = random.Random("growth")
        for _ in range(20):
            nr, nc = rng.randint(2, 8), rng.randint(2, 9)
            rows = [[rng.randint(-(10**6), 10**6) for _ in range(nc)] for _ in range(nr)]
            if nr > 2:
                rows[-1] = [3 * x - 7 * y for x, y in zip(rows[0], rows[1])]
            want, want_pivots = frac_rref(rows)
            _check_reduced([sparse_row(row) for row in rows], nc, want, want_pivots)

    def test_rank(self):
        rng = random.Random("rank")
        assert frac_rank([]) == 0
        for _ in range(100):
            rows, _ = _sparse_system(rng)
            assert frac_rank(rows) == len(frac_rref(rows)[1])

    def test_solutions_match_dense_elimination(self):
        rng = random.Random("solve")
        outcomes = set()
        for _ in range(200):
            rows, targets = _sparse_system(rng)
            nc = len(rows[0])
            aug = [
                [Fraction(v) for v in row] + [Fraction(t[i]) for t in targets]
                for i, row in enumerate(rows)
            ]
            pivots = reference_reduce(aug, nc)
            want = []
            for col in range(nc, nc + len(targets)):
                if any(row[col] for row in aug[len(pivots):]):
                    want.append(None)
                    continue
                sol = [Fraction(0)] * nc
                for i, c in enumerate(pivots):
                    sol[c] = aug[i][col]
                want.append(tuple(sol))
            sparse = [
                sparse_row(row) | sparse_row([t[i] for t in targets], nc)
                for i, row in enumerate(rows)
            ]
            got = frac_solve_multi(sparse, nc, len(targets))
            assert got == want
            for sol, t in zip(got, targets):
                outcomes.add(sol is None)
                if sol is not None:
                    assert [sum(a * b for a, b in zip(row, sol)) for row in rows] == t
        # both consistent and inconsistent targets were drawn
        assert outcomes == {False, True}

    def test_a_target_in_a_row_that_a_holds_nowhere(self):
        # x_0 = 1 and 0 = t: the second row has no entry of A, and t is
        # consistent only where it is 0 there
        rows = [{0: 2, 1: 2, 3: 2}, {2: 1, 4: 5}]
        assert frac_solve_multi(rows, 1, 4) == [(Fraction(1),), None, (Fraction(1),), None]


class TestTransforms:
    def test_transpose(self):
        t = transpose_module(catalog_module("n(2)"))
        assert t.basis[0].entries == ((0, 0), (1, 0))

    def test_direct_sum(self):
        s = direct_sum(catalog_module("mat(1,1)"), catalog_module("mat(1,1)"))
        assert (s.d, s.e, s.dim) == (2, 2, 2)
        assert all(b.entries[0][1] == 0 and b.entries[1][0] == 0 for b in s.basis)

    def test_padding(self):
        m = catalog_module("band(2)")
        assert add_zero_row(m, 0).d == 4
        assert add_zero_col(m, 2).e == 3
        with pytest.raises(InputError):
            add_zero_row(m, 5)
        with pytest.raises(InputError):
            add_zero_col(m, -1)

    def test_padding_preserves_ranks(self):
        m = catalog_module("band(2)")
        padded = add_zero_col(add_zero_row(m, 1), 0)
        assert padded.generic_rank("average") == m.generic_rank("average")
        assert add_zero_row(m, 0).generic_rank("orbit") == m.generic_rank("orbit")

    def test_rescale(self):
        r = rescale(catalog_module("mat(1,1)"), 1, 3)
        assert r.basis[0].entries == ((3,),)
        with pytest.raises(InputError):
            rescale(catalog_module("mat(1,1)"), -1, 3)


class TestAdRepresentation:
    def test_abelian_is_zero(self):
        ad = ad_representation(catalog_module("diag(2)"))
        assert ad.dim == 0
        assert (ad.d, ad.e) == (2, 2)

    def test_heisenberg(self):
        ad = ad_representation(catalog_module("n(3)"))
        assert (ad.d, ad.e) == (3, 3)
        assert ad.dim == 2
        for b in ad.basis:
            assert b.matpow(3).is_zero()

    def test_not_closed(self):
        m = MatrixModule(2, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        with pytest.raises(NotLieAlgebraError):
            ad_representation(m)

    def test_one_elimination_solves_every_commutator(self, monkeypatch):
        calls = []

        def spy(rows, ncols, ntargets):
            calls.append(ntargets)
            return frac_solve_multi(rows, ncols, ntargets)

        monkeypatch.setattr(module, "frac_solve_multi", spy)
        ad = ad_representation(catalog_module("n(4)"))
        assert calls == [36]
        assert ad.dim == 5

    def test_non_integral_constants(self):
        # [e12, e23] = e13 = (1/2) * (2 e13): rational but not integral
        m = MatrixModule(
            3,
            3,
            [
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                [[0, 0, 2], [0, 0, 0], [0, 0, 0]],
            ],
        )
        with pytest.raises(NonIntegralStructureConstantsError):
            ad_representation(m)

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            ad_representation(catalog_module("band(2)"))


class TestCatalog:
    def test_so3(self):
        m = catalog_module("so", 3)
        assert m.dim == 3
        assert all(b.transpose() == -b for b in m.basis)

    def test_band2_shape(self):
        m = catalog_module("band", 2)
        assert (m.d, m.e, m.dim) == (3, 2, 2)

    def test_sp2_equals_sl2(self):
        assert catalog_module("sp(2)") == catalog_module("sl(2)")

    def test_so1_empty(self):
        assert catalog_module("so(1)").dim == 0

    def test_sp_odd_rejected(self):
        with pytest.raises(InputError):
            catalog_module("sp(3)")

    def test_unknown_name(self):
        with pytest.raises(InputError):
            catalog_module("nope(3)")

    def test_sizes(self):
        assert catalog_module("sl(3)").dim == 8
        assert catalog_module("sym(3)").dim == 6
        assert catalog_module("tr(3)").dim == 6
        assert catalog_module("sp(4)").dim == 10
        assert catalog_module("gl(4)").dim == 16

    def test_fractional_entries_cleared(self):
        # doubled generators keep every entry integral and the lattice isolated
        for key in ("L_{5,6}", "ex_non_lie"):
            m = catalog_module(key)
            assert all(isinstance(v, int) for b in m.basis for r in b.entries for v in r)
        assert catalog_module("L_{5,6}").is_isolated_at(5)

    def test_every_row_spans_as_many_dimensions_as_it_has_generators(self):
        # dim == len(generators) lets a budget read the sizes off the row: the
        # CLI's check before the build refuses exactly what ask_series would
        keys = list(_FIXED)
        for head, (_, arity, *_) in _FAMILIES.items():
            top = 5 if arity == 2 else 8
            keys += [
                f"{head}({','.join(map(str, params))})"
                for params in itertools.product(range(top + 1), repeat=arity)
            ]
        swept = []
        for key in keys:
            try:
                label, d, e, generators = catalog_row(key)
            except InputError:  # a parameter its family's condition refuses
                continue
            m = catalog_module(key)
            assert (m.label, m.d, m.e, m.dim) == (label, d, e, len(generators)), key
            swept.append(key)
        refused = ["band(0)", "sp(0)", "sp(1)", "sp(3)", "sp(5)", "sp(7)"]
        assert sorted(set(keys) - set(swept)) == refused

    @pytest.mark.parametrize(
        "key", [k for k in catalog_keys() if closed_form(k).kind == "ask"] + ["so( 3 )"]
    )
    def test_label_is_the_closed_form_key(self, key):
        assert catalog_module(key).label == closed_form(key).key

    def test_ex_non_lie_is_not_lie(self):
        with pytest.raises(NotLieAlgebraError):
            ad_representation(catalog_module("ex_non_lie"))
