"""Exponentials, orbit counts, conjugacy classes, and the two bridges."""

import warnings
from fractions import Fraction

import pytest

from askzeta import (
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
    log_unipotent,
    oc_coefficients,
    oc_via_ask,
    semidirect_embed,
)
from askzeta import grouporbits
from askzeta.catalog import algebra_keys


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


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


class TestNilpotentAlgebra:
    def test_classes(self):
        assert catalog_algebra("L_{3,2}").nilpotency_class == 2
        assert catalog_algebra("L_{4,3}").nilpotency_class == 3
        assert catalog_algebra("L_{2,1}").nilpotency_class == 1

    def test_rejects_non_nilpotent(self):
        with pytest.raises(InputError):
            NilpotentAlgebra(catalog_module("diag(2)"))

    def test_rejects_non_lie(self):
        from askzeta import NotLieAlgebraError

        with pytest.raises(NotLieAlgebraError):
            NilpotentAlgebra(catalog_module("ex_non_lie"))

    def test_hypothesis_warnings(self):
        alg = catalog_algebra("L_{5,9}")
        assert alg.identity_hypothesis_warnings(5)  # p < d = 6
        assert not alg.identity_hypothesis_warnings(7)

    def test_non_isolated_warning(self):
        from askzeta import rescale

        m = rescale(catalog_module("n(2)"), 1, 3)
        alg = NilpotentAlgebra(m)
        assert alg.identity_hypothesis_warnings(3)
        assert not alg.identity_hypothesis_warnings(5)

    def test_non_triangular_nilpotent_accepted(self):
        # a unimodular conjugate of the strictly-upper algebra: not
        # triangular, still certified nilpotent by the characteristic
        # polynomial of the generic combination
        from askzeta import MatrixModule

        conj = MatrixModule(2, 2, [[[-1, 1], [-1, 1]]], "conjugated")
        alg = NilpotentAlgebra(conj)
        assert alg.nilpotency_class == 1
        assert not alg.identity_hypothesis_warnings(3)
        # class counts and orbit counts agree with the conjugate model
        ref = catalog_algebra("n(2)")
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
        from askzeta import rescale

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
    """The moved-column actions of orbit_count_vectors, group_closure and
    conjugacy_class_count against dense IntMatrix products."""

    KINDS = ("dense", "identity", "diagonal", "transvection", "exp")

    @staticmethod
    def generator(rng, kind, d, p, n):
        from conftest import random_nilpotent, random_unimodular

        m = p**n
        if kind in ("dense", "diagonal"):
            i = rng.randrange(d)
            unit = rng.choice([u for u in range(2, m) if u % p] or [1])
            diag = IntMatrix.identity(d) + IntMatrix.unit(d, d, i, i, unit - 1)
            # a unimodular factor moves every column in most draws
            return random_unimodular(rng, d) @ diag if kind == "dense" else diag
        if kind == "identity":
            # the identity, or a matrix congruent to it mod m
            i, j = rng.randrange(d), rng.randrange(d)
            return IntMatrix.identity(d) + IntMatrix.unit(d, d, i, j, m * rng.randint(0, 2))
        if kind == "transvection":
            i, j = rng.sample(range(d), 2)
            return IntMatrix.identity(d) + IntMatrix.unit(d, d, i, j, rng.randint(1, m - 1))
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
        for _ in range(60):
            d, p, n = rng.choice(shapes)
            gens, flat = self.draw(rng, d, p, n, seen)
            want = brute_orbit_count(gens, d, p**n)
            assert orbit_count_vectors(flat, d, p, n, 10**4) == want, (gens, p, n)
        assert seen == {*self.KINDS, "every column moved"}

    def test_closure_and_class_count(self, rng):
        from askzeta.grouporbits import conjugacy_class_count, group_closure
        from conftest import brute_class_count, brute_closure

        checked = 0
        seen = set()
        while checked < 40:
            d, p, n = rng.choice([(1, 5, 2), (2, 2, 2), (2, 3, 1), (2, 5, 1), (3, 2, 1),
                                  (3, 3, 1), (3, 5, 1), (3, 3, 2)])
            drawn = set()
            gens, flat = self.draw(rng, d, p, n, drawn)
            m = p**n
            group = brute_closure(gens, d, m, limit=1000)
            if group is None:
                continue
            checked += 1
            seen |= drawn
            elements = group_closure(flat, d, m, 10**4)
            assert elements == {g.flat() for g in group}, (gens, p, n)
            want = brute_class_count(group, m)
            assert conjugacy_class_count(elements, flat, d, p, n) == want, (gens, p, n)
        assert seen == {*self.KINDS, "every column moved"}
