"""The two kernel-average engines and the auxiliary counting operations."""

import random
import time
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
    transpose_module,
)
from askzeta import engine, module
from askzeta.engine import AskValue
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
                    assert ask_series(m, p, n, "transpose").coefficients()[n] == want

    def test_randomized_agreement(self):
        rng = random.Random(12345)
        for _ in range(25):
            m = random_module(rng, dmax=3, emax=3, lmax=4, bound=5)
            for p in (2, 3):
                for n in (1, 2):
                    ring = RingSpec(p, n)
                    want = ask_orbit(m, ring)
                    assert ask_average(m, ring) == want
                    assert ask_series(m, p, n, "transpose").coefficients()[n] == want


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

    @pytest.mark.parametrize("p, n_max", [(4, 1), (1, 1), (0, 1), (-3, 1), (9, 0), (3, -1)])
    def test_ring_validation(self, p, n_max):
        # Z/p^n needs a prime p and a level n >= 0, whatever the view
        for method in ("auto", "both", "orbit", "average", "transpose"):
            with pytest.raises(InputError):
                ask_series(catalog_module("so(3)"), p, n_max, method)

    def test_transpose_view_is_the_scaled_orbit_sum_of_the_transpose(self, rng):
        # ask(M) = p^(n(d - e)) ask(M^T), and the transpose view runs M's own basis
        for _ in range(8):
            m = random_module(rng, dmax=3, emax=3, lmax=3, bound=5)
            t = transpose_module(m)
            for p in (2, 3):
                got = ask_series(m, p, 2, "transpose")
                assert [v.method for v in got.values[1:]] == ["transpose", "transpose"]
                for n, value in enumerate(got.coefficients()):
                    scale = Fraction(p) ** (n * (m.d - m.e))
                    assert value == scale * ask_orbit(t, RingSpec(p, n))

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


def _levels(m, p, top, view, jobs=1):
    """ask(M, Z/p^n) for n = 0..top from one walk of the view."""
    return engine._view_series(m, p, top, view, jobs)


def _closed_form(key, p, top):
    return list(expand(closed_form(key).formula, p, top + 1).coeffs)


class TestTreeWalk:
    """One walk gives every level; a resolved node counts its ball in closed form."""

    def test_random_modules_match_brute_force(self, rng):
        for _ in range(8):
            m = random_module(rng, dmax=2, emax=2, lmax=2, bound=3)
            # brute force enumerates (p^n)^(d + dim) pairs
            for p, top in ((2, 3), (3, 3 if m.d + m.dim <= 3 else 2)):
                want = [brute_ask(m, p, n) for n in range(top + 1)]
                for view in ("orbit", "average", "transpose"):
                    assert _levels(m, p, top, view) == want, (m, p, view)
                assert ask_series(m, p, top, "both").coefficients() == want

    @pytest.mark.parametrize(
        "key, view", [("diag(3)", "orbit"), ("n(3)", "orbit"), ("mat(2,2)", "average")]
    )
    def test_rank_drop_in_codimension_one(self, key, view):
        m = catalog_module(key)
        for p, top in ((2, 3), (3, 2)):
            assert _levels(m, p, top, view) == [brute_ask(m, p, n) for n in range(top + 1)]
        # brute force at p = 3, n = 3 would take 27^6 pairs: the closed form instead
        assert _levels(m, 3, 3, view) == _closed_form(key, 3, 3)

    def test_resolved_nodes_stop_the_walk(self, monkeypatch):
        # every orbit matrix of so(3) has rank 2 mod p at a primitive point, so
        # the walk never goes below the (p^3 - 1)/(p - 1) classes mod p
        reductions = []

        def counting(rows, p, cap):
            reductions.append(cap)
            return lambdas_mod(rows, p, cap)

        lambdas_mod = engine.lambdas_mod
        monkeypatch.setattr(engine, "lambdas_mod", counting)
        assert _levels(catalog_module("so(3)"), 3, 5, "orbit") == _closed_form("so(3)", 3, 5)
        assert reductions == [1] * 13

    def test_unresolved_walk_above_the_symbolic_cap(self, rng, monkeypatch):
        # 2 x 201 matrices: the dual has d*e = 402 > 400 symbolic entries, so
        # its generic rank is only randomized and no node may resolve
        d, e = 2, 201
        basis = [[[rng.randint(-2, 2) for _ in range(e)] for _ in range(d)] for _ in range(2)]
        m = MatrixModule(d, e, basis)
        assert m.d * m.e > module._SYMBOLIC_RANK_CAP
        assert m.generic_rank("average", exact=True) is None
        caps = []

        def counting(rows, p, cap):
            caps.append(cap)
            return lambdas_mod(rows, p, cap)

        lambdas_mod = engine.lambdas_mod
        monkeypatch.setattr(engine, "lambdas_mod", counting)
        p, top = 3, 3
        got = _levels(m, p, top, "average")
        # every unit class mod p^m is visited: (p + 1) p^(m-1) of them for k = 2
        assert [caps.count(c) for c in range(1, top + 1)] == [4, 12, 36]
        monkeypatch.setattr(engine, "lambdas_mod", lambdas_mod)
        assert got == _levels(m, p, top, "orbit")
        # with the exact rank the same sums come from fewer nodes
        dual = list(zip(*(b.entries for b in m.basis)))
        rank = m.generic_rank("average")
        sums = engine._orbit_sums(dual, m.dim, m.e, p, top, rank)
        assert [s * Fraction(p) ** (n * (m.d - m.dim)) for n, s in enumerate(sums)] == got

    def test_transpose_view_is_the_orbit_view_of_the_transpose(self, rng, monkeypatch):
        # the same spans from m's basis transposed and from M^T's own basis
        calls = []

        def counting(rows, p, cap):
            calls.append(cap)
            return lambdas_mod(rows, p, cap)

        lambdas_mod = engine.lambdas_mod
        monkeypatch.setattr(engine, "lambdas_mod", counting)
        mods = [random_module(rng) for _ in range(6)] + [catalog_module("band(2)")]
        for m in mods:
            t = transpose_module(m)
            for p, top in ((2, 3), (3, 2)):
                calls.clear()
                got = _levels(m, p, top, "transpose")
                nodes = len(calls)
                calls.clear()
                want = _levels(t, p, top, "orbit")
                assert len(calls) == nodes
                shift = [Fraction(p) ** (n * (m.d - m.e)) for n in range(top + 1)]
                assert got == [w * s for w, s in zip(want, shift)]

    def test_every_view_takes_its_points_from_the_shape(self):
        # zero(2,3) has no generators in the orbit and transpose views, yet
        # their points are 2- and 3-dimensional
        m = catalog_module("zero(2,3)")
        for view in ("orbit", "average", "transpose"):
            assert _levels(m, 3, 2, view) == [1, 9, 81]

    def test_understated_rank_is_inconsistent(self):
        m = catalog_module("so(3)")
        rows = [b.entries for b in m.basis]
        assert m.generic_rank("orbit") == 2
        with pytest.raises(InternalConsistencyError):
            engine._orbit_sums(rows, m.d, m.e, 3, 2, 1)

    def test_jobs_do_not_change_the_walk(self, rng):
        for _ in range(3):
            m = random_module(rng, dmax=3, emax=3, lmax=3)
            for view in ("orbit", "average", "transpose"):
                assert _levels(m, 3, 3, view, jobs=3) == _levels(m, 3, 3, view)
        m = catalog_module("diag(3)")
        assert _levels(m, 3, 3, "orbit", jobs=3) == _levels(m, 3, 3, "orbit")

    @pytest.mark.parametrize("key, p", [("so(3)", 5), ("so(3)", 7), ("diag(3)", 5)])
    def test_deeper_levels_match_closed_forms(self, key, p):
        # so(3) at p = 7, n = 3 enumerated 7^9 points per view before the walk
        got = ask_series(catalog_module(key), p, 3, "both").coefficients()
        assert got == _closed_form(key, p, 3)

    def test_deep_walk_is_iterative_and_linear_in_depth(self):
        # diag(2) at p = 2 leaves a few nodes unresolved per level; the walk
        # once recursed per level and re-expanded every resolved ball into
        # every deeper level
        start = time.perf_counter()
        got = ask_series(catalog_module("diag(2)"), 2, 1200, budget=10**1000).coefficients()
        assert time.perf_counter() - start < 10
        assert got == _closed_form("diag(2)", 2, 1200)

    def test_kernel_budget_names_view_and_level(self):
        with pytest.raises(BudgetExceededError) as info:
            ask_orbit(catalog_module("so(3)"), RingSpec(3, 3), budget=1000)
        assert (info.value.view, info.value.level, info.value.needed) == ("orbit", 3, 3**9)
        assert "in the orbit view at level n = 3" in str(info.value)


class TestParallelPartition:
    def test_jobs_do_not_change_values(self, rng):
        for _ in range(4):
            m = random_module(rng, dmax=3, emax=3, lmax=3)
            ring = RingSpec(3, 2)
            assert ask_orbit(m, ring, jobs=3) == ask_orbit(m, ring)
            assert ask_average(m, ring, jobs=3) == ask_average(m, ring)
            transpose = ask_series(m, 3, 2, "transpose", jobs=3).coefficients()
            assert transpose == ask_series(m, 3, 2, "transpose").coefficients()

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
