"""The two kernel-average engines and the auxiliary counting operations."""

import random
from fractions import Fraction

import pytest

from askzeta import (
    BudgetExceededError,
    InputError,
    IntMatrix,
    InternalConsistencyError,
    MatrixModule,
    RingSpec,
    ask_average,
    ask_mod_composite,
    ask_orbit,
    ask_series,
    catalog_module,
    closed_form,
    expand,
    rank_distribution,
)
from askzeta.engine import AskValue, ask_view
from conftest import brute_ask, brute_image_size, random_module


class TestAskAverage:
    def test_full_matrix(self):
        assert ask_average(catalog_module("mat(2,2)"), RingSpec(3, 1)) == Fraction(17, 9)

    def test_level_two(self):
        assert ask_average(catalog_module("mat(1,1)"), RingSpec(3, 2)) == Fraction(7, 3)

    def test_zero_module(self):
        assert ask_average(catalog_module("zero(2,2)"), RingSpec(5, 1)) == 25

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            ask_average(catalog_module("mat(2,2)"), RingSpec(3, 2), budget=100)


class TestAskOrbit:
    def test_full_matrix(self):
        assert ask_orbit(catalog_module("mat(2,2)"), RingSpec(3, 1)) == Fraction(17, 9)

    def test_so3(self):
        assert ask_orbit(catalog_module("so(3)"), RingSpec(5, 1)) == Fraction(149, 25)

    def test_strictly_upper_2(self):
        # kernels of 0, e12, 2e12 over (Z/3)^2 have sizes 9, 3, 3
        assert ask_orbit(catalog_module("n(2)"), RingSpec(3, 1)) == 5

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            ask_orbit(catalog_module("mat(2,2)"), RingSpec(5, 3), budget=100)


class TestEngineAgreement:
    def test_brute_force_oracle(self, rng):
        for _ in range(8):
            m = random_module(rng, dmax=2, emax=2, lmax=2, bound=3)
            assert ask_average(m, RingSpec(3, 0)) == ask_orbit(m, RingSpec(3, 0)) == 1
            for p in (2, 3):
                for n in (1, 2):
                    want = brute_ask(m, p, n)
                    ring = RingSpec(p, n)
                    assert ask_average(m, ring) == want
                    assert ask_orbit(m, ring) == want
                    assert ask_view(m, ring, "transpose") == want

    def test_randomized_agreement(self):
        rng = random.Random(12345)
        for _ in range(25):
            m = random_module(rng, dmax=3, emax=3, lmax=4, bound=5)
            for p in (2, 3):
                for n in (1, 2):
                    ring = RingSpec(p, n)
                    want = ask_orbit(m, ring)
                    assert ask_average(m, ring) == want
                    assert ask_view(m, ring, "transpose") == want


class TestAskSeries:
    def test_one_by_one(self):
        got = ask_series(catalog_module("mat(1,1)"), 3, 3, "both").coefficients()
        assert got == [1, Fraction(5, 3), Fraction(7, 3), 3]

    def test_n3_matches_closed_form(self):
        # (1-T)^2/(1-3T)^3 = 1 + 7T + 37T^2 + ...
        got = ask_series(catalog_module("n(3)"), 3, 2, "both").coefficients()
        assert got == [1, 7, 37]

    def test_order_zero(self):
        assert ask_series(catalog_module("sym(3)"), 7, 0).coefficients() == [1]

    def test_method_validation(self):
        with pytest.raises(InputError):
            ask_series(catalog_module("mat(1,1)"), 3, 1, "guess")

    @pytest.mark.parametrize("key", ["mat(2,1)", "mat(3,1)", "mat(3,2)"])
    def test_auto_takes_the_transpose_view(self, key):
        # e is strictly the smallest of d, e and dim on these modules
        m = catalog_module(key)
        for p in (2, 3):
            series = ask_series(m, p, 2)
            assert [v.method for v in series.values[1:]] == ["transpose", "transpose"]
            assert series.coefficients() == list(expand(closed_form(key).formula, p, 3).coeffs)

    def test_auto_respects_budget(self):
        with pytest.raises(BudgetExceededError):
            ask_series(catalog_module("mat(2,2)"), 5, 2, budget=10)

    def test_value_invariant(self):
        with pytest.raises(InternalConsistencyError):
            AskValue(Fraction(1, 2), 3, 1, "orbit")


class TestParallelPartition:
    def test_jobs_do_not_change_values(self, rng):
        for _ in range(4):
            m = random_module(rng, dmax=3, emax=3, lmax=3)
            ring = RingSpec(3, 2)
            assert ask_orbit(m, ring, jobs=3) == ask_orbit(m, ring)
            assert ask_average(m, ring, jobs=3) == ask_average(m, ring)
            assert ask_view(m, ring, "transpose", jobs=3) == ask_view(m, ring, "transpose")

    def test_series_with_jobs(self):
        m = catalog_module("so(3)")
        serial = ask_series(m, 5, 2).coefficients()
        parallel = ask_series(m, 5, 2, jobs=4).coefficients()
        assert serial == parallel


class TestDegenerateShapes:
    def test_empty_dimensions(self):
        wide = MatrixModule(0, 2, [])
        tall = MatrixModule(2, 0, [])
        for m in (wide, tall):
            assert ask_average(m, RingSpec(3, 2)) == ask_orbit(m, RingSpec(3, 2))
        # a single point is acted on trivially
        assert ask_orbit(wide, RingSpec(3, 2)) == 1
        # every vector maps to the single point of the target
        assert ask_orbit(tall, RingSpec(3, 2)) == 81


class TestModComposite:
    def test_examples(self):
        m = catalog_module("mat(1,1)")
        assert ask_mod_composite(m, 6) == Fraction(5, 2)
        assert ask_mod_composite(m, 2) == Fraction(3, 2)
        assert ask_mod_composite(m, 3) == Fraction(5, 3)
        assert ask_mod_composite(m, 1) == 1

    def test_prime_power_agrees_with_engines(self, rng):
        for _ in range(5):
            m = random_module(rng, dmax=2, emax=2, lmax=2)
            assert ask_mod_composite(m, 9) == ask_average(m, RingSpec(3, 2))

    def test_validation(self):
        with pytest.raises(InputError):
            ask_mod_composite(catalog_module("mat(1,1)"), 0)


class TestRankDistribution:
    def test_gl2_f3(self):
        assert rank_distribution(2, 2, 2, 3) == 48

    def test_rank_zero(self):
        assert rank_distribution(5, 7, 0, 4) == 1

    def test_partition(self):
        for d, e, q in [(2, 2, 3), (2, 3, 2), (3, 3, 2)]:
            assert sum(rank_distribution(d, e, r, q) for r in range(min(d, e) + 1)) == q ** (d * e)

    def test_range_check(self):
        with pytest.raises(InputError):
            rank_distribution(2, 2, 3, 3)

    def test_matches_brute_count(self):
        from itertools import product

        # rank over F_3 = log_3 |image mod 3|, counted by enumeration
        log3 = {3**r: r for r in range(3)}
        counts = {}
        for entries in product(range(3), repeat=4):
            a = IntMatrix([entries[:2], entries[2:]])
            r = log3[brute_image_size(a, 3, 1)]
            counts[r] = counts.get(r, 0) + 1
        for r in range(3):
            assert rank_distribution(2, 2, r, 3) == counts.get(r, 0)
