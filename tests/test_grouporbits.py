"""Exponentials, orbit counts, conjugacy classes, and the two bridges."""

import warnings
from fractions import Fraction
from math import prod

import pytest

from askzeta import (
    BudgetExceededError,
    GroupGenSet,
    InputError,
    IntMatrix,
    NilpotentAlgebra,
    RingSpec,
    ad_representation,
    ask_average,
    catalog_algebra,
    catalog_module,
    cc_coefficients_direct,
    cc_via_ask,
    closed_form,
    exp_group,
    exp_nilpotent,
    expand,
    gl_generators,
    oc_coefficients,
    oc_via_ask,
)
from askzeta import grouporbits
from conftest import algebra_keys, log_unipotent, rescale, semidirect_embed


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def identity_plus(d, i, j, value):
    """The d x d identity with `value` added at (i, j)."""
    m = [[int(r == c) for c in range(d)] for r in range(d)]
    m[i][j] += value
    return IntMatrix(m)


class TestExpLog:
    def test_single_unit(self):
        a = IntMatrix([[0, 1], [0, 0]])
        assert exp_nilpotent(a, RingSpec(3, 2)) == IntMatrix([[1, 1], [0, 1]])

    def test_shift_chain(self):
        a = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        e = exp_nilpotent(a, RingSpec(5, 1))
        # a^2/2 contributes the inverse of 2 mod 5 in the corner
        assert e.entries[0][2] == 3

    def test_log_identity(self):
        assert log_unipotent(IntMatrix.identity(3), RingSpec(5, 2)).is_zero()

    def test_requires_large_p(self):
        a = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(InputError):
            exp_nilpotent(a, RingSpec(2, 1))

    def test_requires_nilpotent(self):
        with pytest.raises(InputError):
            exp_nilpotent(IntMatrix.identity(2), RingSpec(5, 1))

    def test_mutual_inversion(self, rng):
        from conftest import random_nilpotent

        for _ in range(40):
            d = rng.randint(2, 5)
            p = rng.choice([5, 7])
            n = rng.randint(1, 3)
            ring = RingSpec(p, n)
            a = random_nilpotent(rng, d)
            am = a.mod(ring.modulus)
            assert log_unipotent(exp_nilpotent(a, ring), ring) == am
            u = (IntMatrix.identity(d) + a).mod(ring.modulus)
            assert exp_nilpotent(log_unipotent(u, ring), ring) == u


class TestOrbitCounts:
    def test_gl2(self):
        assert oc_coefficients(gl_generators(2, 3, 2), 3, 2) == [1, 2, 3]

    def test_gl2_char2(self):
        assert oc_coefficients(gl_generators(2, 2, 2), 2, 2) == [1, 2, 3]

    def test_gl_helper_orbit_prediction(self):
        # the helper generator sets are validated against the n+1 orbit
        # prediction, not assumed correct
        assert oc_coefficients(gl_generators(3, 3, 2), 3, 2) == [1, 2, 3]
        assert oc_coefficients(gl_generators(2, 5, 2), 5, 2) == [1, 2, 3]
        assert oc_coefficients(gl_generators(1, 7, 2), 7, 2) == [1, 2, 3]

    @pytest.mark.parametrize(
        "d, p, n",
        [(d, p, n) for d in (1, 2, 3) for p in (2, 3) for n in (1, 2) if (d, p, n) != (3, 3, 2)],
    )
    def test_gl_helper_generates_gl(self, d, p, n):
        # orbit counts cannot tell SL_d from GL_d, which already acts
        # transitively on primitive vectors; the group order can:
        # |GL_d(Z/p^n)| = p^((n-1) d^2) |GL_d(F_p)|
        from conftest import brute_closure

        m = p**n
        gens = [g.mod(m) for g in gl_generators(d, p, n).generators]
        assert len(gens) == (d > 1) * 2 + (p == 2) + 1
        order = p ** ((n - 1) * d * d) * prod(p**d - p**i for i in range(d))
        assert len(brute_closure(gens, d, m, limit=order)) == order

    def test_negation_group(self):
        g = GroupGenSet(1, (IntMatrix([[-1]]),))
        assert oc_coefficients(g, 5, 1) == [1, 3]
        assert oc_coefficients(g, 7, 1) == [1, 4]

    def test_swap_group(self):
        g = GroupGenSet(2, (IntMatrix([[0, 1], [1, 0]]),))
        # q^n (q^n + 1) / 2
        assert oc_coefficients(g, 3, 2) == [1, 6, 45]

    def test_presentation_independent(self):
        base = gl_generators(2, 3, 2)
        extra = base.generators + (base.generators[0] @ base.generators[1],)
        redundant = GroupGenSet(2, extra)
        assert oc_coefficients(base, 3, 2) == oc_coefficients(redundant, 3, 2)

    def test_generator_set_checks_its_shapes(self):
        with pytest.raises(InputError, match="dimensions"):
            GroupGenSet(-1, ())
        for bad in (IntMatrix.identity(3), IntMatrix([[1, 0]])):
            with pytest.raises(InputError, match="shape"):
                GroupGenSet(2, (IntMatrix.identity(2), bad))
        assert GroupGenSet(0, ()).label == ""

    def test_non_invertible_generator(self):
        g = GroupGenSet(2, (IntMatrix([[1, 0], [0, 3]]),))
        with pytest.raises(InputError):
            oc_coefficients(g, 3, 1)

    def test_budget_comes_before_any_table(self, monkeypatch):
        calls = []
        build = grouporbits._index_table

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(grouporbits, "_index_table", spy)
        gens = [g.flat() for g in exp_group(catalog_algebra("L_{3,2}"), 7, 2).generators]
        with pytest.raises(BudgetExceededError):
            grouporbits.orbit_count_vectors(gens, 3, 7, 2, 7**6 - 1)
        assert calls == []
        # the exponential group takes the row route: the spy sees one table,
        # on rows of dimension 2, for the one generator whose top block is
        # not the identity (exp E_01); exp E_12 and exp E_02 only translate
        assert grouporbits.orbit_count_vectors(gens, 3, 7, 1, 7**3) == 19
        assert [args[1] for args in calls] == [2]
        assert calls[0][0][:2] == [1, 1]
        # GL(2) takes the point route, with tables of dimension 2
        calls.clear()
        gens = [g.flat() for g in gl_generators(2, 7, 1).generators]
        with pytest.raises(BudgetExceededError):
            grouporbits.orbit_count_vectors(gens, 2, 7, 2, 7**4 - 1)
        assert calls == []
        assert grouporbits.orbit_count_vectors(gens, 2, 7, 1, 7**2) == 2
        assert [args[1] for args in calls] == [2, 2, 2]
        # a level too deep to build its point count is refused by its exponent
        with pytest.raises(BudgetExceededError) as err:
            grouporbits.orbit_count_vectors(gens, 2, 7, 10**8, 10**6)
        assert err.value.needed == "7^200000000"

    @pytest.mark.parametrize(
        "d, generators, orbits",
        [(0, [], [1, 1, 1]), (1, [[[1]]], [1, 3, 9]), (2, [[[1, 1], [0, 1]]], [1, 5, 21])],
    )
    def test_small_documents(self, tmp_path, capsys, d, generators, orbits):
        import json

        from askzeta.cli import EXIT_OK, main

        path = tmp_path / "group.json"
        path.write_text(json.dumps({"schema": "askzeta/1", "d": d, "generators": generators}))
        assert main(["oc", "--group", str(path), "--p", "3", "--n-max", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"][0]["orbits"] == orbits

    @pytest.mark.parametrize(
        "size, itemsize",
        [(2, 1), (2**8, 1), (2**8 + 1, 2), (2**16 + 1, 4), (2**32, 4), (2**32 + 1, 8),
         (10**15, 8)],
    )
    def test_table_entries_hold_every_index(self, size, itemsize):
        from array import array

        code = grouporbits._typecode(size)
        assert array(code).itemsize == itemsize
        array(code, [size - 1])  # the largest index fits: no OverflowError


class TestNilpotentAlgebra:
    def test_classes(self):
        assert catalog_algebra("L_{3,2}").nilpotency_class == 2
        assert catalog_algebra("L_{4,3}").nilpotency_class == 3
        assert catalog_algebra("L_{2,1}").nilpotency_class == 1

    def test_rejects_non_nilpotent(self):
        # Lie-closed, so only the nilpotency tests can refuse them
        for key in ("diag(2)", "gl(2)", "sl(2)", "so(3)", "tr(2)"):
            ad_representation(catalog_module(key))
            with pytest.raises(InputError):
                NilpotentAlgebra(catalog_module(key))

    @staticmethod
    def _class_rounds(monkeypatch):
        """Record each call of the class computation."""
        calls = []
        rounds = NilpotentAlgebra._product_spans

        def spy(self):
            calls.append(self.label)
            return rounds(self)

        monkeypatch.setattr(NilpotentAlgebra, "_product_spans", spy)
        return calls

    def test_a_nonzero_trace_rejects_before_the_class_rounds(self, monkeypatch):
        calls = self._class_rounds(monkeypatch)
        # sym(2) is not Lie-closed either: a nonzero trace refuses it first
        for key in ("gl(4)", "sl(3)", "so(4)", "sym(2)"):
            with pytest.raises(InputError, match=r"^products do not terminate; not nilpotent$"):
                NilpotentAlgebra(catalog_module(key))
        assert calls == []
        assert catalog_algebra("L_{5,6}").nilpotency_class == 4
        assert calls == ["L_{5,6}"]

    def test_traceless_non_nilpotent_reaches_the_class_rounds(self, monkeypatch):
        # the 3-cycle P spans a Lie algebra with tr(P) = tr(P^2) = 0, yet its
        # powers never vanish
        from askzeta import MatrixModule

        calls = self._class_rounds(monkeypatch)
        cycle = MatrixModule(3, 3, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]], "cycle")
        with pytest.raises(InputError, match=r"^products do not terminate; not nilpotent$"):
            NilpotentAlgebra(cycle)
        assert calls == ["cycle"]

    def test_a_nonzero_trace_rejects_before_the_adjoint_solve(self, monkeypatch, capsys):
        from askzeta.cli import EXIT_INPUT, main

        calls = []
        solve = grouporbits.ad_representation

        def spy(m):
            calls.append(m.label)
            return solve(m)

        monkeypatch.setattr(grouporbits, "ad_representation", spy)
        with pytest.raises(InputError, match=r"^products do not terminate; not nilpotent$"):
            NilpotentAlgebra(catalog_module("gl(8)"))
        assert main(["oc", "--algebra", "gl(8)", "--p", "3", "--n-max", "1"]) == EXIT_INPUT
        assert "not nilpotent" in capsys.readouterr().err
        assert calls == []
        assert catalog_algebra("L_{3,2}").dim == 3
        assert calls == ["L_{3,2}"]

    def test_rejects_non_lie(self):
        # ex_non_lie's traces vanish, so the adjoint solve refuses it
        from askzeta import NotLieAlgebraError

        with pytest.raises(NotLieAlgebraError):
            NilpotentAlgebra(catalog_module("ex_non_lie"))

    def test_hypothesis_warnings(self):
        alg = catalog_algebra("L_{5,9}")
        assert alg.identity_hypothesis_warnings(5)  # p < d = 6
        assert not alg.identity_hypothesis_warnings(7)

    def test_non_isolated_warning(self):
        m = rescale(catalog_module("n(2)"), 1, 3)
        alg = NilpotentAlgebra(m)
        assert alg.identity_hypothesis_warnings(3)
        assert not alg.identity_hypothesis_warnings(5)

    def test_non_triangular_nilpotent_accepted(self):
        # unimodular conjugates of the strictly-upper algebras: not
        # triangular, still nilpotent, since by Engel's theorem products of
        # d of their elements vanish
        from askzeta import MatrixModule

        for key in ("n(2)", "n(3)"):
            ref = catalog_algebra(key)
            d = ref.d
            # P is lower unitriangular with every entry 1; P^-1 is 1 - subdiagonal
            lower = IntMatrix([[int(j <= i) for j in range(d)] for i in range(d)])
            inverse = IntMatrix([[(i == j) - (j == i - 1) for j in range(d)] for i in range(d)])
            basis = [lower @ b @ inverse for b in ref.module.basis]
            conj = MatrixModule(d, d, basis, "conjugated")
            assert any(b.entries[d - 1][0] for b in conj.basis)
            alg = NilpotentAlgebra(conj)
            assert alg.nilpotency_class == ref.nilpotency_class == d - 1
            assert not alg.identity_hypothesis_warnings(3)
            # class counts and orbit counts agree with the conjugate model
            for p in (3, 5):
                assert cc_coefficients_direct(alg, p, 2) == cc_coefficients_direct(ref, p, 2)
                assert oc_coefficients(exp_group(alg, p, 2), p, 2) == oc_coefficients(
                    exp_group(ref, p, 2), p, 2
                )
                assert quiet(oc_via_ask, alg, p, 2) == quiet(oc_via_ask, ref, p, 2)

    def test_random_combinations_of_certified_algebra_are_nilpotent(self, rng):
        alg = catalog_algebra("L_{5,6}")
        for _ in range(100):
            coeffs = [rng.randint(-9, 9) for _ in range(alg.dim)]
            combo = None
            for c, b in zip(coeffs, alg.module.basis):
                term = c * b
                combo = term if combo is None else combo + term
            assert combo.matpow(alg.d).is_zero()

    def test_non_isolated_discrepancy_is_observable(self):
        # when the lattice is not isolated at p the two conjugacy counts may
        # differ; both are reported instead of raising
        alg = NilpotentAlgebra(rescale(catalog_module("n(2)"), 1, 5))
        assert alg.identity_hypothesis_warnings(5)
        via = quiet(cc_via_ask, alg, 5, 2)
        direct = cc_coefficients_direct(alg, 5, 2)
        assert via == [1, 5, 25]
        assert direct == [1, 1, 5]


class TestConjugacyClasses:
    def test_heisenberg_values(self):
        heis = catalog_algebra("L_{3,2}")
        assert cc_coefficients_direct(heis, 5, 1) == [1, 29]
        # p = d = 3 still admits the exponential; 105 classes mod 3^2
        assert cc_coefficients_direct(heis, 3, 2) == [1, 11, 105]

    def test_heisenberg_bridge(self):
        heis = catalog_algebra("L_{3,2}")
        assert quiet(cc_via_ask, heis, 5, 2) == [1, 29, 745]
        assert cc_coefficients_direct(heis, 5, 2) == [1, 29, 745]

    def test_l43_catalog_row(self):
        alg = catalog_algebra("L_{4,3}")
        assert quiet(cc_via_ask, alg, 5, 1)[1] == 2 * 25 - 1

    def test_zero_algebra_trivial_group(self):
        alg = NilpotentAlgebra(catalog_module("zero(2,2)"))
        assert cc_coefficients_direct(alg, 5, 2) == [1, 1, 1]

    def test_abelian_counts_group_order(self):
        alg = catalog_algebra("L_{2,1}")
        assert cc_coefficients_direct(alg, 5, 2) == [1, 25, 625]

    def test_closure_budget(self):
        """The closure stops at the first stored row past the budget: a row
        holds the group's corner subgroup, 25 elements of L_{3,2} mod 25,
        whose 625 rows fit a budget of 625 and whose 5^9 elements mod 125
        come in 15,625 rows."""
        alg = catalog_algebra("L_{3,2}")
        gens = [g.mod(25).flat() for g in exp_group(alg, 5, 2).generators]
        assert len(grouporbits.group_closure(gens, 3, 25, 625)) == 5**6
        with pytest.raises(BudgetExceededError) as err:
            grouporbits.group_closure(gens, 3, 25, 624)
        assert (err.value.needed, err.value.budget) == (625, 624)
        gens = [g.mod(125).flat() for g in exp_group(alg, 5, 3).generators]
        with pytest.raises(BudgetExceededError) as err:
            grouporbits.group_closure(gens, 3, 125, 1000)
        assert (err.value.needed, err.value.budget) == (1001, 1000)
        assert str(err.value) == "a group closure of 1001 stored rows exceeds budget 1000"

    def test_group_order_budget(self):
        """cc_coefficients_direct refuses the first level whose order p^(dim*n)
        passes the budget, before its closure."""
        alg = catalog_algebra("L_{3,2}")
        assert cc_coefficients_direct(alg, 5, 2, 5**6) == [1, 29, 745]
        with pytest.raises(BudgetExceededError) as err:
            cc_coefficients_direct(alg, 5, 2, 5**6 - 1)
        assert (err.value.needed, err.value.budget) == (5**6, 5**6 - 1)

    def test_budget_comes_before_the_generators(self):
        """Every level meets the budget before exp_group builds the generators
        mod p^n_max: a deep n_max refuses level 1 at once."""
        import time

        alg = catalog_algebra("L_{3,2}")
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            cc_coefficients_direct(alg, 5, 10**6, 100)
        assert time.perf_counter() - start < 0.1
        assert (err.value.needed, err.value.budget) == (125, 100)

    @pytest.mark.parametrize("key, varying", [("L_{3,2}", 3), ("n(4)", 6), ("L_{4,3}", 6)])
    def test_closure_stores_varying_coordinates(self, key, varying):
        """Coordinates that no element moves are not stored: an element is
        its varying coordinates, digits base m of one integer."""
        alg = catalog_algebra(key)
        gens = [g.mod(5).flat() for g in exp_group(alg, 5, 1).generators]
        identity = IntMatrix.identity(alg.d).flat()
        moves = [grouporbits._right_moves(g, alg.d, 5) for g in gens]
        assert len(grouporbits._varying_coordinates(identity, moves, 5)) == varying
        assert len(grouporbits.group_closure(gens, alg.d, 5, 10**6)) == 5**alg.dim

    def test_class_bfs_keeps_no_second_set(self):
        """The conjugation BFS consumes the closure: the peak of the whole
        count stays near the peak of the closure alone."""
        import tracemalloc

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # mod 125 the closure stores 15,625 rows, so the peaks are the
        # tables', not the interpreter's fixed overhead
        alg = catalog_algebra("L_{3,2}")
        gens = [g.mod(125).flat() for g in exp_group(alg, 5, 3).generators]
        closure_peak = peak(grouporbits.group_closure, gens, 3, 125, 10**6)
        count_peak = peak(cc_coefficients_direct, alg, 5, 3)
        assert count_peak <= 1.25 * closure_peak, (count_peak, closure_peak)

    @pytest.mark.parametrize("key", ["n(3)", "L_{3,2}", "L_{4,3}"])
    def test_non_triangular_groups_take_corner_rows(self, key):
        """A unimodular conjugate of a catalog algebra is not triangular, but
        its group is built on its flag basis: it takes rows over a nontrivial
        corner subgroup (fibre > 1), and its class counts are the brute-force
        ones."""
        from askzeta import MatrixModule
        from conftest import brute_class_count, brute_closure

        ref = catalog_algebra(key)
        d = ref.d
        # P is lower unitriangular with every entry 1; P^-1 is 1 - subdiagonal
        lower = IntMatrix([[int(j <= i) for j in range(d)] for i in range(d)])
        inverse = IntMatrix([[(i == j) - (j == i - 1) for j in range(d)] for i in range(d)])
        alg = NilpotentAlgebra(MatrixModule(d, d, [lower @ b @ inverse for b in ref.module.basis]))
        for p in (3, 5):
            if p < d:
                continue
            m = p
            gens = exp_group(alg, p, 1).generators
            flat = [g.mod(m).flat() for g in gens]
            closure = grouporbits.group_closure(flat, d, m, 10**4)
            assert closure.fibre > 1
            assert len(closure.shift) == len(closure.right)
            group = brute_closure([g.mod(m) for g in gens], d, m, limit=10**4)
            assert len(closure) == len(group)
            assert grouporbits.conjugacy_class_count(closure) == brute_class_count(group, m)


class TestFlagBasis:
    """Every algebra's group is built on a strictly upper triangular basis:
    its flag U, unimodular, makes U*b*U^-1 strictly upper triangular, and the
    conjugate group has the catalog algebra's counts."""

    @staticmethod
    def upper(basis) -> bool:
        return all(not v for b in basis for i, row in enumerate(b.entries) for v in row[: i + 1])

    @pytest.mark.parametrize("key", [*algebra_keys(), "n(3)", "n(4)", "zero(2,2)"])
    def test_catalog_bases_keep_the_identity(self, key):
        alg = catalog_algebra(key)
        assert alg.flag == IntMatrix.identity(alg.d)
        assert alg.group_basis == tuple(alg.module.basis)

    # the deepest level per prime: the direct counts of the conjugate and of
    # the catalog algebra each close at most 15,625 rows and take well under
    # a second (the flag basis of a conjugate of L_{4,2} can miss the corner
    # subgroup, and then its rows are elements)
    LEVELS = {
        "n(3)": {5: 2, 7: 2},
        "L_{3,2}": {5: 2, 7: 2},
        "L_{4,3}": {5: 2, 7: 1},
        "L_{4,2}": {5: 1, 7: 1},
        "L_{5,6}": {5: 1, 7: 1},
    }

    @pytest.mark.parametrize("key", sorted(LEVELS))
    def test_random_conjugates(self, key, rng):
        from askzeta import MatrixModule
        from conftest import (
            _int_det,
            brute_class_count,
            brute_closure,
            frac_rref,
            random_unimodular,
        )

        ref = catalog_algebra(key)
        d = ref.d
        u = random_unimodular(rng, d)
        eye = IntMatrix.identity(d).entries
        rref, _ = frac_rref([row + e for row, e in zip(u.entries, eye)])
        inverse = IntMatrix([[int(v) for v in row[d:]] for row in rref])
        assert u @ inverse == IntMatrix.identity(d)
        alg = NilpotentAlgebra(MatrixModule(d, d, [u @ b @ inverse for b in ref.module.basis]))
        assert not self.upper(alg.module.basis)
        assert abs(_int_det(alg.flag.entries)) == 1
        assert self.upper(alg.group_basis)
        for b, c in zip(alg.module.basis, alg.group_basis):
            assert alg.flag @ b == c @ alg.flag
        for p, top in self.LEVELS[key].items():
            direct = cc_coefficients_direct(alg, p, top)
            assert direct == cc_coefficients_direct(ref, p, top), (key, p)
            orbits = oc_coefficients(exp_group(alg, p, top), p, top)
            assert orbits == oc_coefficients(exp_group(ref, p, top), p, top), (key, p)
            # brute_class_count conjugates each class's first element by the
            # whole group: check the levels where that is at most 5 * 10^4
            for n in range(1, top + 1):
                if direct[n] * p ** (alg.dim * n) <= 5 * 10**4:
                    m = p**n
                    gens = [g.mod(m) for g in exp_group(alg, p, n).generators]
                    group = brute_closure(gens, d, m, limit=10**4)
                    assert direct[n] == brute_class_count(group, m), (key, p, n)


class TestOrbitBridge:
    def test_n2(self):
        alg = catalog_algebra("n(2)")
        direct = oc_coefficients(exp_group(alg, 3, 2), 3, 2)
        via = quiet(oc_via_ask, alg, 3, 2)
        assert direct == [1, 5, 21]
        assert [Fraction(v) for v in direct] == via

    def test_n3(self):
        alg = catalog_algebra("n(3)")
        direct = oc_coefficients(exp_group(alg, 5, 1), 5, 1)
        via = quiet(oc_via_ask, alg, 5, 1)
        assert direct == [1, 13]
        assert [Fraction(v) for v in direct] == via

    def test_heisenberg_p7(self):
        """The largest orbit BFS of the groups workload: 7^6 points."""
        alg = catalog_algebra("L_{3,2}")
        direct = oc_coefficients(exp_group(alg, 7, 2), 7, 2)
        assert direct == [1, 19, 253]
        assert [Fraction(v) for v in direct] == quiet(oc_via_ask, alg, 7, 2)

    def test_zero_algebra(self):
        alg = NilpotentAlgebra(catalog_module("zero(2,2)"))
        assert oc_coefficients(exp_group(alg, 3, 2), 3, 2) == [1, 9, 81]
        assert quiet(oc_via_ask, alg, 3, 2) == [1, 9, 81]


class TestExpGroup:
    """An algebra's exponential group is one generator set per prime."""

    @pytest.mark.parametrize("key", [*algebra_keys(), "n(3)", "n(4)"])
    def test_generators_reduce_to_every_level(self, key):
        alg = catalog_algebra(key)
        for p in (5, 7):
            if p < alg.d:
                with pytest.raises(InputError, match=f"need p >= {alg.d}"):
                    exp_group(alg, p, 1)
                continue
            for top in (1, 2, 3):
                group = exp_group(alg, p, top)
                assert len(group.generators) == alg.dim
                for n in range(top + 1):
                    for g, b in zip(group.generators, alg.module.basis):
                        assert g.mod(p**n) == exp_nilpotent(b, RingSpec(p, n)), (p, top, n)

    def test_level_zero(self):
        alg = catalog_algebra("L_{3,2}")
        assert oc_coefficients(exp_group(alg, 3, 0), 3, 0) == [1]
        assert cc_coefficients_direct(alg, 3, 0) == [1]

    def test_orbit_bridge_through_inverse_factorials(self):
        # exp of the first generator of L_{4,3} carries 1/2 and 1/6
        alg = catalog_algebra("L_{4,3}")
        direct = oc_coefficients(exp_group(alg, 5, 2), 5, 2)
        assert direct == [1, 33, 881]
        assert [Fraction(v) for v in direct] == quiet(oc_via_ask, alg, 5, 2)

    @pytest.mark.parametrize("key", [*algebra_keys(), "n(4)", "zero(2,2)"])
    def test_adjoint_module_is_kept(self, key):
        alg = catalog_algebra(key)
        assert alg.ad == ad_representation(alg.module)

    def test_cc_via_ask_builds_no_adjoint_module(self, monkeypatch):
        alg = catalog_algebra("L_{4,3}")
        calls = []

        def counting(m):
            calls.append(m)
            return ad_representation(m)

        monkeypatch.setattr(grouporbits, "ad_representation", counting)
        for p in (5, 7):
            assert quiet(cc_via_ask, alg, p, 1)[1] == 2 * p * p - 1
        assert calls == []

    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    @pytest.mark.parametrize("route", [cc_via_ask, oc_via_ask])
    def test_bridge_checks_the_ring_first(self, route, p):
        # the hypotheses divide by p, so the ring check must come before them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                route(catalog_algebra("L_{3,2}"), p, 1)


class TestSemidirect:
    def test_one_by_one(self):
        g = semidirect_embed(catalog_module("mat(1,1)"))
        assert oc_coefficients(g, 3, 1) == [1, 5]

    def test_orbit_identity(self, rng):
        from conftest import random_module

        for _ in range(5):
            m = random_module(rng, dmax=2, emax=2, lmax=2, bound=3)
            g = semidirect_embed(m)
            for p in (2, 3):
                counts = oc_coefficients(g, p, 1)
                expected = p**m.e * ask_average(m, RingSpec(p, 1))
                assert counts[1] == expected

    def test_elliptic_shift(self):
        # the block embedding rescales the argument by q^(cols)
        e_mod = catalog_module("ex_elliptic")
        g = semidirect_embed(e_mod)
        count = oc_coefficients(g, 5, 1)[1]
        assert count == 125 * ask_average(e_mod, RingSpec(5, 1))

    def test_zero_module(self):
        g = semidirect_embed(catalog_module("zero(1,2)"))
        assert oc_coefficients(g, 3, 1) == [1, 27]


class TestDimensionAtMostFiveCatalog:
    @pytest.mark.parametrize(
        "key",
        [
            "L_{1,1}", "L_{2,1}", "L_{3,1}", "L_{3,2}", "L_{4,1}", "L_{4,2}",
            "L_{4,3}", "L_{5,1}", "L_{5,3}", "L_{5,4}", "L_{5,5}", "L_{5,6}",
            "L_{5,7}", "L_{5,8}",
        ],
    )
    def test_bridge_small(self, key):
        alg = catalog_algebra(key)
        p = 5
        table = closed_form(f"cc:{key}").formula
        want = list(expand(table, p, 2).coeffs)
        assert quiet(cc_via_ask, alg, p, 1) == want
        assert cc_coefficients_direct(alg, p, 1) == want

    @pytest.mark.parametrize("key, p, n", [("L_{4,2}", 5, 2), ("L_{5,2}", 7, 1)])
    def test_heisenberg_centre_on_the_corner(self, key, p, n):
        # the n(3) block's centre is the corner unit E_(0,d-1), so the closure
        # stores rows over the corner subgroup Z/p^n, not every element
        alg = catalog_algebra(key)
        m = p**n
        flat = [g.mod(m).flat() for g in exp_group(alg, p, n).generators]
        closure = grouporbits.group_closure(flat, alg.d, m, 10**6)
        assert closure.fibre == m > 1
        assert len(closure) == p ** (alg.dim * n)
        table = closed_form(f"cc:{key}").formula
        assert cc_coefficients_direct(alg, p, n) == list(expand(table, p, n + 1).coeffs)

    @pytest.mark.parametrize("key", ["L_{5,2}", "L_{5,9}"])
    def test_bridge_dim6_models(self, key):
        alg = catalog_algebra(key)
        table = closed_form(f"cc:{key}").formula
        want = list(expand(table, 7, 2).coeffs)
        assert quiet(cc_via_ask, alg, 7, 1) == want
        assert cc_coefficients_direct(alg, 7, 1) == want

    def test_n4_against_dim6_entry(self):
        alg = catalog_algebra("n(4)")
        table = closed_form("cc:n(4)").formula
        want = list(expand(table, 5, 2).coeffs)
        assert quiet(cc_via_ask, alg, 5, 1) == want
        assert cc_coefficients_direct(alg, 5, 1) == want


class TestDenseOracles:
    """The moved-column actions of orbit_count_vectors, and the elements and
    index tables of group_closure, against dense IntMatrix products."""

    KINDS = ("dense", "identity", "diagonal", "transvection", "exp")

    @staticmethod
    def generator(rng, kind, d, p, n):
        from conftest import random_nilpotent, random_unimodular

        m = p**n
        if kind in ("dense", "diagonal"):
            i = rng.randrange(d)
            unit = rng.choice([u for u in range(2, m) if u % p] or [1])
            diag = identity_plus(d, i, i, unit - 1)
            # a unimodular factor moves every column in most draws
            return random_unimodular(rng, d) @ diag if kind == "dense" else diag
        if kind == "identity":
            # the identity, or a matrix congruent to it mod m
            i, j = rng.randrange(d), rng.randrange(d)
            return identity_plus(d, i, j, m * rng.randint(0, 2))
        if kind == "transvection":
            i, j = rng.sample(range(d), 2)
            return identity_plus(d, i, j, rng.randint(1, m - 1))
        return exp_nilpotent(random_nilpotent(rng, d), RingSpec(p, n))

    def draw(self, rng, d, p, n, seen):
        """1-3 generators of the kinds that exist at (d, p); records in `seen`
        the kinds drawn and whether one generator moved every column."""
        kinds = [
            k for k in self.KINDS
            if (k != "transvection" or d > 1) and (k != "exp" or p >= d)
        ]
        m = p**n
        gens = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(kinds)
            g = self.generator(rng, kind, d, p, n)
            seen.add(kind)
            if d > 1 and all(
                any((g.entries[k][j] - (k == j)) % m for k in range(d)) for j in range(d)
            ):
                seen.add("every column moved")
            gens.append(g)
        # production callers pass reduced generators; unreduced ones must act alike
        flat = [g.flat() if rng.random() < 0.5 else g.mod(m).flat() for g in gens]
        return gens, flat

    @staticmethod
    def row_routes(monkeypatch):
        """Record each call of the row route."""
        calls = []
        count = grouporbits._row_orbit_count

        def spy(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(grouporbits, "_row_orbit_count", spy)
        return calls

    def test_orbit_count(self, rng, monkeypatch):
        from askzeta.grouporbits import orbit_count_vectors
        from conftest import brute_orbit_count

        shapes = [
            (d, p, n) for d in (1, 2, 3) for p in (2, 3, 5) for n in (1, 2, 3)
            if p ** (d * n) <= 5 * 10**3
        ]
        seen = set()
        rows = self.row_routes(monkeypatch)
        routes = set()
        # on the point route, an index table slides coordinate j along a row
        # of points by the generator's last-row entry a_j: not at all
        # (a_j = 0), by a unit, or by a nonzero multiple of p; it sums the
        # slides of several columns
        last_rows = set()
        for _ in range(60):
            d, p, n = rng.choice(shapes)
            gens, flat = self.draw(rng, d, p, n, seen)
            want = brute_orbit_count(gens, d, p**n)
            before = len(rows)
            assert orbit_count_vectors(flat, d, p, n, 10**4) == want, (gens, p, n)
            if len(rows) > before:
                routes.add("rows")
                continue
            routes.add("points")
            for g in gens:
                if (g - IntMatrix.identity(d)).mod(p**n).is_zero():
                    continue  # no table
                last = [v % p**n for v in g.entries[-1]]
                last_rows.add("zero" if 0 in last else "no zero")
                if any(v and v % p == 0 for v in last):
                    last_rows.add("multiple of p")
                if sum(1 for v in last if v) > 1:
                    last_rows.add("several slides")
        assert seen == {*self.KINDS, "every column moved"}
        assert routes == {"rows", "points"}
        assert last_rows == {"zero", "no zero", "multiple of p", "several slides"}

    ROW_KINDS = ("exp", "top block", "last column", "identity")

    @staticmethod
    def row_generator(rng, kind, d, p, n):
        """A generator whose last row is e_(d-1) mod p^n.  `exp` is unitriangular;
        `top block` has a random invertible top-left block, `last column` the
        identity there, and both a random last column; `identity` is
        congruent to the identity."""
        from conftest import random_nilpotent, random_unimodular

        m = p**n
        if kind == "exp":
            upper = [[rng.randint(-4, 4) if j > i else 0 for j in range(d)] for i in range(d)]
            return exp_nilpotent(IntMatrix(upper), RingSpec(p, n))
        if kind == "identity" or d == 1:
            return identity_plus(d, rng.randrange(d), rng.randrange(d), m * rng.randint(0, 2))
        e = d - 1
        top = IntMatrix.identity(e)
        if kind == "top block":
            i = rng.randrange(e)
            unit = rng.choice([u for u in range(2, m) if u % p] or [1])
            top = random_unimodular(rng, e) @ identity_plus(e, i, i, unit - 1)
        # last-column entries: 0, a unit, or p^v times a unit for 0 < v < n
        column = [p ** rng.randint(0, n) * rng.choice([1, -1, p + 1]) for _ in range(e)]
        rows = [list(r) + [c] for r, c in zip(top.entries, column)]
        # a last row congruent to e_(d-1)
        rows.append([m * rng.randint(-1, 1) for _ in range(e)] + [1 + m * rng.randint(-1, 1)])
        return IntMatrix(rows)

    def test_row_route(self, rng, monkeypatch):
        """Groups whose acting generators have last row e_(d-1) are counted
        over rows, and agree with the brute-force count."""
        from askzeta.grouporbits import orbit_count_vectors
        from conftest import brute_orbit_count

        shapes = [
            (d, p, n) for d in (1, 2, 3, 4) for p in (2, 3, 5, 7) for n in (1, 2, 3)
            if p ** (d * n) <= 5 * 10**3
        ]
        rows = self.row_routes(monkeypatch)
        seen = set()
        for _ in range(80):
            d, p, n = rng.choice(shapes)
            m = p**n
            kinds = [k for k in self.ROW_KINDS if k != "exp" or p >= d]
            gens = []
            for _ in range(rng.randint(0, 3)):
                kind = rng.choice(kinds)
                gens.append(self.row_generator(rng, kind, d, p, n))
                seen.add(kind)
                column = [row[-1] % m for row in gens[-1].entries[:-1]]
                if any(v % p == 0 for v in column if v):
                    seen.add("multiple of p")
            if all((g - IntMatrix.identity(d)).mod(m).is_zero() for g in gens):
                seen.add("identity group")
            seen.add(f"d = {d}")
            flat = [g.flat() if rng.random() < 0.5 else g.mod(m).flat() for g in gens]
            before = len(rows)
            want = brute_orbit_count(gens, d, m)
            assert orbit_count_vectors(flat, d, p, n, 10**4) == want, (gens, p, n)
            assert len(rows) == before + 1
        assert seen == {*self.ROW_KINDS, "multiple of p", "identity group",
                        *(f"d = {d}" for d in (1, 2, 3, 4))}

    @staticmethod
    def acting(gens, d, m):
        """The generators that are not the identity mod m, in order."""
        one = IntMatrix.identity(d)
        return [g for g in gens if not (g - one).mod(m).is_zero()]

    def decode(self, closure, gens, d, m):
        """The closure's row representatives as IntMatrix, by index: the
        identity, then row i > 0 as row parent[i] times acting generator
        last[i], by dense products mod m."""
        acting = self.acting(gens, d, m)
        reps = [IntMatrix.identity(d).mod(m)]
        for i in range(1, len(closure.parent)):
            assert closure.parent[i] < i
            reps.append((reps[closure.parent[i]] @ acting[closure.last[i]]).mod(m))
        return reps

    @staticmethod
    def powers(closure, d, m):
        """u^c for c < fibre, u = I + (m/fibre)*E_(0,d-1): the closure's corner
        subgroup (the identity alone at fibre 1)."""
        u = identity_plus(d, 0, d - 1, m // closure.fibre).mod(m)
        out = [IntMatrix.identity(d).mod(m)]
        while len(out) < closure.fibre:
            out.append((out[-1] @ u).mod(m))
        return out

    def elements(self, closure, gens, d, m):
        """The representatives, and every element y_i * u^c row by row; the
        elements are checked to be distinct and as many as len(closure)."""
        reps = self.decode(closure, gens, d, m)
        powers = self.powers(closure, d, m)
        elements = [(y @ z).mod(m) for y in reps for z in powers]
        assert len(closure) == len(set(elements)) == len(elements)
        return reps, elements

    def groups(self, rng, count):
        """`count` random groups of at most 1000 elements of every kind, as
        (gens, flat, d, p, n, brute_closure)."""
        from conftest import brute_closure

        seen = set()
        out = []
        while len(out) < count:
            d, p, n = rng.choice([(1, 5, 2), (2, 2, 2), (2, 3, 1), (2, 5, 1), (3, 2, 1),
                                  (3, 3, 1), (3, 5, 1), (3, 3, 2)])
            drawn = set()
            gens, flat = self.draw(rng, d, p, n, drawn)
            group = brute_closure(gens, d, p**n, limit=1000)
            if group is not None:
                seen |= drawn
                out.append((gens, flat, d, p, n, group))
        assert seen == {*self.KINDS, "every column moved"}
        return out

    def test_closure_and_class_count(self, rng):
        from askzeta.grouporbits import conjugacy_class_count, group_closure
        from conftest import brute_class_count

        fibres = set()
        for gens, flat, d, p, n, group in self.groups(rng, 40):
            m = p**n
            closure = group_closure(flat, d, m, 10**4)
            _, elements = self.elements(closure, gens, d, m)
            assert set(elements) == group, (gens, p, n)
            want = brute_class_count(group, m)
            assert conjugacy_class_count(closure) == want, (gens, p, n)
            fibres.add(closure.fibre > 1)
        assert fibres == {True, False}

    def test_closure_tables(self, rng):
        """y_i = y_parent(i) * g_last(i) gives row representatives whose
        corner cosets y_i * u^c hold the group once each, y_i * g_a is
        y_right[a][i] * u^shift[a][i], and right[a] holds one 0, at the
        row of g_a^-1, each against dense products mod m over the
        generators that are not the identity mod m."""
        from askzeta.grouporbits import group_closure

        fibres = set()
        for gens, flat, d, p, n, group in self.groups(rng, 40):
            m = p**n
            acting = self.acting(gens, d, m)
            closure = group_closure(flat, d, m, 10**4)
            reps, elements = self.elements(closure, gens, d, m)
            assert set(elements) == group, (gens, p, n)
            powers = self.powers(closure, d, m)
            one = reps[0]
            # one shift table per acting generator at every fibre
            assert len(closure.right) == len(closure.shift) == len(acting)
            for g, right, shift in zip(acting, closure.right, closure.shift):
                assert len(right) == len(shift) == len(reps)
                assert all(0 <= s < closure.fibre for s in shift)
                for y, j, s in zip(reps, right, shift):
                    assert (y @ g).mod(m) == (reps[j] @ powers[s]).mod(m), gens
                inv = next(h for h in group if (g @ h).mod(m) == one)
                assert list(right).count(0) == 1, gens
                assert inv in {(reps[right.index(0)] @ z).mod(m) for z in powers}, gens
            fibres.add(closure.fibre > 1)
        assert fibres == {True, False}

    FRAME_KINDS = ("exp", "middle block", "identity", "dense")

    @staticmethod
    def frame_generator(rng, kind, d, p, n, scale):
        """A generator with first column e_0 and last row e_(d-1) mod p^n, but
        for `dense`.  `exp` is unitriangular; `middle block` has a random
        invertible block on rows and columns 1 .. d-2 and a random first row;
        `identity` is congruent to the identity.  The entries above the
        corner in the last column, which move the corner, are multiples of
        `scale`."""
        from conftest import random_unimodular

        m = p**n
        if kind == "dense":
            return random_unimodular(rng, d) @ identity_plus(d, 0, 0, p)
        if kind == "identity":
            return identity_plus(d, rng.randrange(d), rng.randrange(d), m * rng.randint(0, 2))
        e = d - 1
        if kind == "exp":
            upper = [[rng.randint(-4, 4) * (scale if j == e else 1) if j > i else 0
                      for j in range(d)] for i in range(d)]
            return exp_nilpotent(IntMatrix(upper), RingSpec(p, n))
        middle = IntMatrix.identity(d - 2)
        if d > 2:
            i = rng.randrange(d - 2)
            unit = rng.choice([u for u in range(2, m) if u % p] or [1])
            middle = random_unimodular(rng, d - 2) @ identity_plus(d - 2, i, i, unit - 1)
        rows = [[1] + [rng.randint(-9, 9) for _ in range(d - 2)] + [scale * rng.randint(-9, 9)]]
        for row in middle.entries:
            rows.append([m * rng.randint(-1, 1)] + list(row) + [scale * rng.randint(-9, 9)])
        rows.append([m * rng.randint(-1, 1) for _ in range(e)] + [1 + m * rng.randint(-1, 1)])
        return IntMatrix(rows)

    def test_corner_split(self, rng, monkeypatch):
        """Groups whose acting generators have first column e_0 and last row
        e_(d-1) are closed modulo their corner subgroup and counted over its
        rows; others take fibre 1.  Both agree with the brute-force closure
        and class count."""
        from askzeta.grouporbits import conjugacy_class_count, group_closure
        from conftest import brute_class_count, brute_closure

        routes = []
        modulus = grouporbits._corner_modulus

        def spy(*args):
            routes.append(modulus(*args))
            return routes[-1]

        monkeypatch.setattr(grouporbits, "_corner_modulus", spy)
        shapes = [(d, p, n) for d in (2, 3, 4) for p in (2, 3, 5, 7) for n in (1, 2, 3)
                  if p ** ((d - 1) * n) <= 100]
        seen = set()
        groups = 0
        while groups < 60:
            d, p, n = rng.choice(shapes)
            m = p**n
            kinds = [k for k in self.FRAME_KINDS if k != "exp" or p >= d]
            if rng.random() < 0.8:
                kinds.remove("dense")
            scale = p if rng.random() < 0.4 else 1
            drawn = [rng.choice(kinds) for _ in range(rng.randint(0, 3))]
            gens = [self.frame_generator(rng, k, d, p, n, scale) for k in drawn]
            group = brute_closure(gens, d, m, limit=300)
            if group is None:
                continue
            groups += 1
            acting = self.acting(gens, d, m)
            frame = all(
                g.entries[i][0] % m == (i == 0) and g.entries[-1][i] % m == (i == d - 1)
                for g in acting for i in range(d)
            )
            flat = [g.flat() if rng.random() < 0.5 else g.mod(m).flat() for g in gens]
            del routes[:]
            closure = group_closure(flat, d, m, 10**4)
            assert routes == [m if frame else 1]
            _, elements = self.elements(closure, gens, d, m)
            assert set(elements) == group, (gens, p, n)
            want = brute_class_count(group, m)
            assert conjugacy_class_count(closure) == want, (gens, p, n)
            seen.update(drawn)
            seen.add(f"d = {d}")
            seen.add(f"p = {p}")
            if not acting:
                seen.add("identity group")
            if not frame:
                seen.add("fibre 1 off the corner route")
            elif closure.fibre == m:
                seen.add("C = Z/m")
            elif closure.fibre > 1:
                seen.add("C a proper subgroup")
            elif acting:
                seen.add("C = 0 on the corner route")
        assert seen == {
            *self.FRAME_KINDS, *(f"d = {d}" for d in (2, 3, 4)),
            *(f"p = {p}" for p in (2, 3, 5, 7)), "identity group",
            "fibre 1 off the corner route", "C = Z/m", "C a proper subgroup",
            "C = 0 on the corner route",
        }, seen
