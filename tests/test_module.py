"""MatrixModule construction, generic ranks, transforms, adjoint."""

import itertools
import time
from math import prod
from operator import mul

import pytest

from askzeta import (
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
from askzeta import module
from askzeta.catalog import _FAMILIES, _FIXED, catalog_row
from askzeta.intmat import from_flat
from askzeta.linalg import frac_solve_multi
from askzeta.module import VIEWS
from askzeta.poly import Poly, bareiss_det, evaluated_rank, symbolic_rank
from conftest import (
    add_zero_col,
    add_zero_row,
    direct_sum,
    leibniz_det,
    minor_rank,
    random_module,
    random_poly,
    random_poly_matrix,
    random_unimodular,
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
        # mod the prime, so only the elimination gives the rank
        q = 2**61 - 1
        x = [Poly.const(3, q) * variable(a, 3) for a in range(3)]
        zero = Poly(3)
        rows = [[x[0], x[1], zero], [zero, x[2], x[0]]]
        calls = []

        def counted(forms):
            calls.append(forms)
            return symbolic_rank(forms)

        monkeypatch.setattr(module, "symbolic_rank", counted)
        assert module._generic_rank_of(rows, 3) == 2
        assert calls == [rows]

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

        def spy(rows, targets):
            calls.append(len(targets))
            return frac_solve_multi(rows, targets)

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
