"""Exponentials, orbit counts, conjugacy classes, and the two bridges."""

import warnings
from fractions import Fraction

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
        # the spy sees the one table per generator an admitted size builds
        assert grouporbits.orbit_count_vectors(gens, 3, 7, 1, 7**3) == 19
        assert len(calls) == 3

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
        rounds = NilpotentAlgebra._nilpotency_class

        def spy(self):
            calls.append(self.label)
            return rounds(self)

        monkeypatch.setattr(NilpotentAlgebra, "_nilpotency_class", spy)
        return calls

    def test_a_nonzero_trace_rejects_before_the_class_rounds(self, monkeypatch):
        calls = self._class_rounds(monkeypatch)
        for key in ("gl(4)", "sl(3)", "so(4)"):
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

    def test_rejects_non_lie(self):
        from askzeta import NotLieAlgebraError

        for key in ("ex_non_lie", "sym(2)"):
            with pytest.raises(NotLieAlgebraError):
                NilpotentAlgebra(catalog_module(key))

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
        """The closure stops at the first element past the budget."""
        alg = catalog_algebra("L_{3,2}")
        gens = [g.mod(25).flat() for g in exp_group(alg, 5, 2).generators]
        with pytest.raises(BudgetExceededError) as err:
            grouporbits.group_closure(gens, 3, 25, 1000)
        assert (err.value.needed, err.value.budget) == (1001, 1000)
        assert err.value.advice == "group too large"

    @pytest.mark.parametrize("key, varying", [("L_{3,2}", 3), ("n(4)", 6), ("L_{4,3}", 6)])
    def test_closure_stores_varying_coordinates(self, key, varying):
        """Coordinates that no element moves are not stored: an element is
        its varying coordinates, digits base m of one integer."""
        alg = catalog_algebra(key)
        gens = [g.mod(5).flat() for g in exp_group(alg, 5, 1).generators]
        closure = grouporbits.group_closure(gens, alg.d, 5, 10**6)
        assert len(closure.coords) == varying
        assert len(closure) == 5**alg.dim

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

        alg = catalog_algebra("L_{3,2}")
        gens = [g.mod(25).flat() for g in exp_group(alg, 5, 2).generators]
        closure_peak = peak(grouporbits.group_closure, gens, 3, 25, 10**6)
        count_peak = peak(cc_coefficients_direct, alg, 5, 2)
        assert count_peak <= 1.25 * closure_peak, (count_peak, closure_peak)


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
    index tables of group_closure and conjugacy_class_count, against dense
    IntMatrix products."""

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

    def test_orbit_count(self, rng):
        from askzeta.grouporbits import orbit_count_vectors
        from conftest import brute_orbit_count

        shapes = [
            (d, p, n) for d in (1, 2, 3) for p in (2, 3, 5) for n in (1, 2, 3)
            if p ** (d * n) <= 5 * 10**3
        ]
        seen = set()
        # an index table slides coordinate j along a row of points by the
        # generator's last-row entry a_j: not at all (a_j = 0), by a unit, or
        # by a nonzero multiple of p; it sums the slides of several columns
        last_rows = set()
        for _ in range(60):
            d, p, n = rng.choice(shapes)
            gens, flat = self.draw(rng, d, p, n, seen)
            for g in gens:
                if (g - IntMatrix.identity(d)).mod(p**n).is_zero():
                    continue  # no table
                last = [v % p**n for v in g.entries[-1]]
                last_rows.add("zero" if 0 in last else "no zero")
                if any(v and v % p == 0 for v in last):
                    last_rows.add("multiple of p")
                if sum(1 for v in last if v) > 1:
                    last_rows.add("several slides")
            want = brute_orbit_count(gens, d, p**n)
            assert orbit_count_vectors(flat, d, p, n, 10**4) == want, (gens, p, n)
        assert seen == {*self.KINDS, "every column moved"}
        assert last_rows == {"zero", "no zero", "multiple of p", "several slides"}

    @staticmethod
    def decode(closure, d, m):
        """The closure's elements as IntMatrix, by index: each code in its
        element index read back as digits base m of the varying coordinates,
        the other coordinates those of the identity."""
        elements = [None] * len(closure.index)
        for code, i in closure.index.items():
            flat = list(IntMatrix.identity(d).mod(m).flat())
            for j in closure.coords:
                code, flat[j] = divmod(code, m)
            assert code == 0
            elements[i] = IntMatrix([flat[r * d : (r + 1) * d] for r in range(d)])
        return elements

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

        for gens, flat, d, p, n, group in self.groups(rng, 40):
            m = p**n
            closure = group_closure(flat, d, m, 10**4)
            elements = self.decode(closure, d, m)
            assert len(closure) == len(set(elements)) == len(elements)
            assert set(elements) == group, (gens, p, n)
            want = brute_class_count(group, m)
            assert conjugacy_class_count(closure, flat, d, p, n) == want, (gens, p, n)
            assert closure.index is None  # the count freed the element index

    def test_closure_tables(self, rng):
        """right[a][i] is the index of y_i * g_a, left[a][i] that of
        g_a^-1 * y_i, and y_i = y_parent(i) * g_last(i), each against dense
        products mod m over the generators that are not the identity mod m."""
        from askzeta.grouporbits import _left_tables, group_closure

        for gens, flat, d, p, n, group in self.groups(rng, 40):
            m = p**n
            one = IntMatrix.identity(d).mod(m)
            acting = [g for g in gens if not (g - one).mod(m).is_zero()]
            closure = group_closure(flat, d, m, 10**4)
            elements = self.decode(closure, d, m)
            assert set(elements) == group, (gens, p, n)
            at = {y: i for i, y in enumerate(elements)}
            assert elements[0] == one
            for i in range(1, len(elements)):
                g = acting[closure.last[i]]
                assert elements[i] == (elements[closure.parent[i]] @ g).mod(m), (gens, i)
            assert len(closure.right) == len(acting)
            for g, right in zip(acting, closure.right):
                assert list(right) == [at[(y @ g).mod(m)] for y in elements], gens
            left = _left_tables(closure, flat, d, p, n)
            assert closure.index is None
            assert len(left) == len(acting)
            for g, table in zip(acting, left):
                inv = next(h for h in group if (g @ h).mod(m) == one)
                assert list(table) == [at[(inv @ y).mod(m)] for y in elements], gens
