"""The two kernel-average engines and the auxiliary counting operations."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from askzeta import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    InputError,
    IntMatrix,
    InternalConsistencyError,
    MatrixModule,
    RingSpec,
    ask_average,
    ask_orbit,
    ask_series,
    catalog_keys,
    catalog_module,
    closed_form,
    elliptic_point_count,
    ex_elliptic_formula,
    expand,
    transpose_module,
)
from askzeta import engine
from askzeta.zpn import lambdas_mod as zpn_lambdas_mod
from conftest import (
    add_zero_col,
    add_zero_row,
    ask_mod_composite,
    brute_ask,
    brute_image_size,
    family_ranks,
    quadric_zeros,
    random_family,
    random_module,
    random_unimodular,
    rank_distribution,
)


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
                    assert ask_series(m, p, n, "transpose")[n] == want

    def test_randomized_agreement(self):
        rng = random.Random(12345)
        for _ in range(25):
            m = random_module(rng, dmax=3, emax=3, lmax=4, bound=5)
            for p in (2, 3):
                for n in (1, 2):
                    ring = RingSpec(p, n)
                    want = ask_orbit(m, ring)
                    assert ask_average(m, ring) == want
                    assert ask_series(m, p, n, "transpose")[n] == want


class TestAskSeries:
    def test_one_by_one(self):
        got = ask_series(catalog_module("mat(1,1)"), 3, 3, "both")
        assert got == [1, Fraction(5, 3), Fraction(7, 3), 3]

    def test_n3_matches_closed_form(self):
        # (1-T)^2/(1-3T)^3 = 1 + 7T + 37T^2 + ...
        got = ask_series(catalog_module("n(3)"), 3, 2, "both")
        assert got == [1, 7, 37]

    def test_order_zero(self):
        assert ask_series(catalog_module("sym(3)"), 7, 0) == [1]

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
                for n, value in enumerate(got):
                    scale = Fraction(p) ** (n * (m.d - m.e))
                    assert value == scale * ask_orbit(t, RingSpec(p, n))

    @pytest.mark.parametrize("key", ["mat(2,1)", "mat(3,1)", "mat(3,2)"])
    def test_auto_takes_the_transpose_view(self, key):
        # e is strictly the smallest of d, e and dim on these modules
        m = catalog_module(key)
        for p in (2, 3):
            assert engine.check_budget(m.sizes, p, 2, "auto", DEFAULT_BUDGET) == ("transpose",)
            assert ask_series(m, p, 2) == list(expand(closed_form(key).formula, p, 3).coeffs)

    # the view auto runs on each catalog ask key, "orbit" unless listed: the
    # fewest points once each view's kernel is stripped, ties in VIEWS order
    AUTO_VIEWS = {
        "mat(2,1)": "transpose", "mat(3,1)": "transpose", "mat(3,2)": "transpose",
        "so(2)": "average", "band(2)": "average", "band(3)": "average",
    }
    # the keys whose view differs from the one with the fewest unreduced
    # points, which the budget reads before any module is built
    STRIPPED_CHOICE = {"sl(1)", "so(1)", "n(2)", "zero(2,2)", "ex_non_lie"}

    @staticmethod
    def record_views(monkeypatch):
        chosen = []
        walk_input = engine._walk_input

        def recorded(m, view):
            out = walk_input(m, view)
            chosen.append(out[0])
            return out

        monkeypatch.setattr(engine, "_walk_input", recorded)
        return chosen

    @pytest.mark.parametrize("p", [3, 5])
    def test_auto_takes_the_fewest_stripped_points(self, p, monkeypatch):
        chosen = self.record_views(monkeypatch)
        for key in catalog_keys():
            entry = closed_form(key)
            if entry.kind != "ask":
                continue
            m = catalog_module(entry.module_key)
            chosen.clear()
            ask_series(m, p, 1)
            assert chosen == [self.AUTO_VIEWS.get(key, "orbit")], key
            unreduced = engine.check_budget(m.sizes, p, 1, "auto", DEFAULT_BUDGET)
            assert (unreduced != tuple(chosen)) == (key in self.STRIPPED_CHOICE), key

    def test_auto_runs_ex_non_lie_in_the_orbit_view(self, monkeypatch):
        # unreduced, the average view has the fewest points (k = 5 against the
        # orbit view's 6); stripped, both have k = 5 and the tie goes to the
        # orbit view, whose walk here takes about a fifth of the average's time
        chosen = self.record_views(monkeypatch)
        got = ask_series(catalog_module("ex_non_lie"), 3, 3)
        assert chosen == ["orbit"]
        assert got == _closed_form("ex_non_lie", 3, 3)

    def test_auto_respects_budget(self):
        with pytest.raises(BudgetExceededError):
            ask_series(catalog_module("mat(2,2)"), 5, 2, budget=10)

    def test_value_invariant(self, monkeypatch):
        # ask >= 1 at every level: a view that reports less is a bug
        monkeypatch.setattr(
            engine, "_view_series", lambda m, p, top, view, jobs: [Fraction(1), Fraction(1, 2)]
        )
        with pytest.raises(InternalConsistencyError, match=r"\(p, n\) = \(3, 1\)"):
            ask_series(catalog_module("mat(1,1)"), 3, 1, "orbit")


def _levels(m, p, top, view, jobs=1):
    """ask(M, Z/p^n) for n = 0..top from one walk of the view."""
    return engine._view_series(m, p, top, view, jobs)


@pytest.fixture
def spy(monkeypatch):
    """The caps of the walk's lambdas_mod calls, and the (counts, resolved)
    that each _walk_partial returns."""
    caps, walks = [], []
    lambdas_mod, walk_partial = engine.lambdas_mod, engine._walk_partial

    def counting(rows, p, cap):
        caps.append(cap)
        return lambdas_mod(rows, p, cap)

    def walking(payload):
        walks.append(walk_partial(payload))
        return walks[-1]

    monkeypatch.setattr(engine, "lambdas_mod", counting)
    monkeypatch.setattr(engine, "_walk_partial", walking)
    return caps, walks


@pytest.fixture
def closed(monkeypatch):
    """The shape and the number of coordinates of each family that the
    counter counts in closed form (engine._closed), one entry per count."""
    calls = []
    count = engine._closed

    def counting(a0, dirs, *args):
        calls.append((len(a0), len(a0[0]) if a0 else 0, len(dirs)))
        return count(a0, dirs, *args)

    monkeypatch.setattr(engine, "_closed", counting)
    return calls


def _classes_per_level(walks, top):
    """Unit classes the walks counted at each level 1..top."""
    return [
        sum(n for counts, _ in walks for (level, _), n in counts.items() if level == m)
        for m in range(1, top + 1)
    ]


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
                assert ask_series(m, p, top, "both") == want

    @pytest.mark.parametrize(
        "key, view", [("diag(3)", "orbit"), ("n(3)", "orbit"), ("mat(2,2)", "average")]
    )
    def test_rank_drop_in_codimension_one(self, key, view):
        m = catalog_module(key)
        for p, top in ((2, 3), (3, 2)):
            assert _levels(m, p, top, view) == [brute_ask(m, p, n) for n in range(top + 1)]
        # brute force at p = 3, n = 3 would take 27^6 pairs: the closed form instead
        assert _levels(m, 3, 3, view) == _closed_form(key, 3, 3)

    def test_resolved_nodes_stop_the_walk(self, spy):
        # every orbit matrix of so(3) has rank 2 mod p at a primitive point, so
        # the walk never goes below the (p^3 - 1)/(p - 1) classes mod p; the
        # counter eliminates their constant rows and takes one rank for all
        caps, walks = spy
        assert _levels(catalog_module("so(3)"), 3, 5, "orbit") == _closed_form("so(3)", 3, 5)
        assert _classes_per_level(walks, 5) == [13, 0, 0, 0, 0]
        assert caps == [1]

    def test_unresolved_walk_visits_every_unit_class(self, rng, spy, monkeypatch):
        # without a rank no node resolves, as in a level-1 walk
        d, e = 2, 201
        basis = [[[rng.randint(-2, 2) for _ in range(e)] for _ in range(d)] for _ in range(2)]
        m = MatrixModule(d, e, basis)
        dual = list(zip(*(b.entries for b in m.basis)))
        caps, walks = spy
        p, top = 3, 3
        sums = engine._orbit_sums(dual, m.dim, m.e, p, top, None)
        got = [s * Fraction(p) ** (n * (m.d - m.dim)) for n, s in enumerate(sums)]
        # every unit class mod p^m is visited: (p + 1) p^(m-1) of them for k = 2;
        # the counter eliminates both rows on columns that the one free
        # coordinate does not touch, and takes one rank in all for the 52
        assert _classes_per_level(walks, top) == [4, 12, 36]
        assert caps == [1]
        # with the exact rank the same sums come from nodes resolved at level 1
        caps.clear()
        walks.clear()
        assert got == _levels(m, p, top, "average")
        assert _classes_per_level(walks, top) == [4, 0, 0]
        assert caps == [1]
        monkeypatch.setattr(engine, "lambdas_mod", zpn_lambdas_mod)
        assert got == _levels(m, p, top, "orbit")

    def test_every_view_resolves(self, spy):
        # gl(8)'s orbit forms have 512 entries; with only a sampled rank the
        # walk visited all 4,210,815 unit classes, here 255 resolve at level 1,
        # one rank per point until the family counter took them together
        caps, walks = spy
        assert _levels(catalog_module("gl(8)"), 2, 3, "orbit") == _closed_form("gl(8)", 2, 3)
        assert _classes_per_level(walks, 3) == [255, 0, 0]
        assert caps == [1]

    @pytest.mark.parametrize(
        "key, view, p, top, classes, counts",
        # reducing every child's own rows took 13,756 and 4,360 ranks, one
        # rank per child of the parent's pencil 1,336 and 360, and the family
        # counter 592 and 165 while it branched 2 x 2 blocks down to 1 x 1
        # leaves; at odd p a 2 x 2 block, like a family of one row or column,
        # is one closed count, which takes no rank: one echelon of its
        # entries' affine system and the zeros of its determinant
        [
            pytest.param("diag(3)", "orbit", 5, 4, [31, 375, 2175, 11175], 551, id="diag(3)-orbit-5-4"),
            pytest.param("mat(2,2)", "average", 3, 3, [40, 432, 3888], 162, id="mat(2,2)-average-3-3"),
        ],
    )
    def test_children_come_from_the_parents_pencil(self, spy, closed, key, view, p, top, classes, counts):
        # a node one divisor short of the generic rank counts its children from
        # the zero set of the residual's entries, and visits only those that
        # keep its divisors
        caps, walks = spy
        assert _levels(catalog_module(key), p, top, view) == _closed_form(key, p, top)
        assert _classes_per_level(walks, top) == classes
        assert len(closed) == counts
        assert caps == [1]

    def test_average_view_of_sl3_at_five(self, spy, closed):
        # verify's definition route over 5^8 coefficient tuples: 97,656 unit
        # classes, which took one rank each before the family counter and
        # 2,384 in all while it branched 2 x 2 blocks down to 1 x 1 leaves;
        # the zeros of a block's determinant count its points of rank <= 1
        # (43 ranks), and each distinct sub-family of a pivot's family is
        # counted once, since the walk goes below no point at level 1: seven
        # closed counts, which take no rank, and one rank
        caps, walks = spy
        got = ask_series(catalog_module("sl(3)"), 5, 1, "average")
        assert got == _closed_form("sl(3)", 5, 1)
        assert _classes_per_level(walks, 1) == [(5**8 - 1) // 4] == [97656]
        assert len(closed) == 7
        assert caps == [1]

    def test_transpose_view_is_the_orbit_view_of_the_transpose(self, rng, spy):
        # the same spans from m's basis transposed and from M^T's own basis, so
        # the walks count the same classes at every level and span exponent
        _, walks = spy

        def merged():
            out = {}
            for counts, resolved in walks:
                for key, n in counts.items():
                    out["counts", key] = out.get(("counts", key), 0) + n
                for key, n in resolved.items():
                    out["resolved", key] = out.get(("resolved", key), 0) + n
            walks.clear()
            return out

        mods = [random_module(rng) for _ in range(6)] + [catalog_module("band(2)")]
        for m in mods:
            t = transpose_module(m)
            for p, top in ((2, 3), (3, 2)):
                walks.clear()
                got = _levels(m, p, top, "transpose")
                nodes = merged()
                want = _levels(t, p, top, "orbit")
                assert merged() == nodes
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
        got = ask_series(catalog_module(key), p, 3, "both")
        assert got == _closed_form(key, p, 3)

    def test_deep_walk_is_iterative_and_linear_in_depth(self):
        # diag(2) at p = 2 leaves a few nodes unresolved per level; the walk
        # once recursed per level and re-expanded every resolved ball into
        # every deeper level
        start = time.perf_counter()
        got = ask_series(catalog_module("diag(2)"), 2, 1200, budget=10**1000)
        assert time.perf_counter() - start < 10
        assert got == _closed_form("diag(2)", 2, 1200)

    def test_kernel_budget_names_view_and_level(self):
        with pytest.raises(BudgetExceededError) as info:
            ask_orbit(catalog_module("so(3)"), RingSpec(3, 3), budget=1000)
        assert (info.value.view, info.value.level, info.value.needed) == ("orbit", 3, 3**9)
        assert "in the orbit view at level n = 3" in str(info.value)


def _check_family(a0, dirs, p, walk, short=False):
    """The counter's bulk counts and yielded points against one rank per point."""
    ranks = family_ranks(a0, dirs, p)
    taken = {}

    def take(rank, nodes):
        taken[rank] = taken.get(rank, 0) + nodes
        return rank in walk

    points = list(engine._family(a0, dirs, p, take, short))
    want = {}
    for rank in ranks.values():
        want[rank] = want.get(rank, 0) + 1
    assert taken == want, (a0, dirs, p)
    # the walk goes below exactly these points, each once
    assert sorted(points) == sorted((t, r) for t, r in ranks.items() if r in walk), (a0, dirs, p)


class TestFamilyCounter:
    """engine._family counts an affine family over F_p by rank, in bulk."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_families_match_the_per_point_ranks(self, p):
        rng = random.Random(1000 + p)
        for _ in range(80):
            a0, dirs = random_family(rng, p, jmax=4 if p < 5 else 3)
            walk = {r for r in range(5) if rng.random() < 0.5}
            _check_family(a0, dirs, p, walk)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_families_of_rank_at_most_one(self, p):
        # u(t) v^T with u affine in t: below a node one divisor short of the
        # generic rank every residual looks like this
        rng = random.Random(2000 + p)
        for _ in range(40):
            nr, nc, j = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
            v = [rng.randrange(p) for _ in range(nc)]
            us = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(nr)] for _ in range(j + 1)]
            a0, *dirs = [[[x * y % p for y in v] for x in u] for u in us]
            walk = {r for r in range(2) if rng.random() < 0.5}
            _check_family(a0, dirs, p, walk, short=True)
            _check_family(a0, dirs, p, walk)

    def test_shapes_that_take_no_rank(self, spy):
        # no direction, no entry, or coordinates that no entry reads
        caps, _ = spy
        for a0, dirs in (
            ([[0, 0]], []),
            ([], [[], []]),
            ([[1, 0], [0, 0]], [[[0, 0], [0, 0]]] * 2),
            ([[1, 2], [2, 4]], [[[0, 0], [0, 0]]]),
        ):
            _check_family(a0, dirs, 5, {0, 1, 2})
        # a family whose directions all vanish is its constant matrix at p^j
        # points: one rank for each of the two nonzero ones
        assert caps == [1, 1]

    def test_the_walk_yields_each_child_once(self, spy):
        # without a rank nothing resolves, so the walk yields every child of
        # every node once: (p^3 - 1)/(p - 1) p^(2(m-1)) unit classes at level m
        _, walks = spy
        m = catalog_module("so(3)")
        rows = [b.entries for b in m.basis]
        sums = engine._orbit_sums(rows, m.d, m.e, 3, 3, None)
        assert sums == _closed_form("so(3)", 3, 3)
        assert _classes_per_level(walks, 3) == [13, 13 * 9, 13 * 81]


def _memo_family(rng, p, jmax):
    """A random affine family of at most 4 x 4 matrices mod p in 1..jmax
    coordinates, sparse enough to branch, with directions that combine
    earlier ones, zero directions (coordinates no entry reads) and, half the
    time each, a zero row and a zero column."""
    nr, nc, j = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, jmax)
    density = rng.choice((0.3, 0.5, 0.8))

    def matrix():
        return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]

    a0, dirs = matrix(), []
    for _ in range(j):
        kind = rng.random()
        if dirs and kind < 0.3:
            coeffs = [rng.randrange(p) for _ in dirs]
            dirs.append(
                [[sum(c * d[i][k] for c, d in zip(coeffs, dirs)) % p for k in range(nc)] for i in range(nr)]
            )
        elif kind < 0.4:
            dirs.append([[0] * nc for _ in range(nr)])
        else:
            dirs.append(matrix())
    if rng.random() < 0.5:
        i = rng.randrange(nr)
        for m in (a0, *dirs):
            m[i] = [0] * nc
    if rng.random() < 0.5:
        k = rng.randrange(nc)
        for m in (a0, *dirs):
            for row in m:
                row[k] = 0
    return a0, dirs


class TestFamilyMemo:
    """Within one _family count, a sub-family that the walk goes below
    nowhere is counted once per affine space; later copies take its counts."""

    @staticmethod
    def points(a0, dirs, p):
        """The shape and the set of matrices a0 + sum_a t_a dirs[a] over F_p."""
        nr, nc = len(a0), len(a0[0])
        return nr, nc, frozenset(
            tuple(
                (a0[i][c] + sum(s * d[i][c] for s, d in zip(t, dirs))) % p
                for i in range(nr)
                for c in range(nc)
            )
            for t in product(range(p), repeat=len(dirs))
        )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_keys_name_the_set_of_matrices(self, p):
        # the same space from other directions and another base point gets the
        # same key; other spaces, and other shapes of the same entries, do not
        rng = random.Random(6000 + p)
        for _ in range(60):
            a0, dirs = _memo_family(rng, p, 3)
            # an invertible change of the directions, and a0 moved within the space
            lower = [[rng.randrange(p) if b < a else int(a == b) for b in range(len(dirs))] for a in range(len(dirs))]
            moved = [
                [[sum(c * d[i][k] for c, d in zip(row, dirs)) % p for k in range(len(a0[0]))] for i in range(len(a0))]
                for row in lower
            ]
            shift = [rng.randrange(p) for _ in dirs]
            b0 = [
                [(x + sum(s * d[i][k] for s, d in zip(shift, dirs))) % p for k, x in enumerate(row)]
                for i, row in enumerate(a0)
            ]
            key, dim = engine._space(a0, list(enumerate(dirs)), p)
            assert engine._space(b0, list(enumerate(moved[::-1])), p) == (key, dim)
            assert p**dim == len(self.points(a0, dirs, p)[2])
            c0, others = _memo_family(rng, p, 3)
            flat = [[x for row in m for x in row] for m in (a0, *dirs)]
            for b0, bdirs in ((c0, others), ([flat[0]], [[v] for v in flat[1:]])):
                same = self.points(a0, dirs, p) == self.points(b0, bdirs, p)
                assert (engine._space(b0, list(enumerate(bdirs)), p)[0] == key) == same

    @pytest.mark.parametrize("p, jmax", [(2, 6), (3, 6), (5, 5), (7, 4)])
    def test_random_families_match_the_per_point_ranks(self, p, jmax, spy):
        # with no rank walked below the memo serves every repeated sub-family;
        # with every rank walked below it serves none, and both match the ranks
        caps, _ = spy
        rng = random.Random(7000 + p)
        ranks = {"none": 0, "some": 0, "all": 0}
        for _ in range(30):
            a0, dirs = _memo_family(rng, p, jmax)
            for name, walk in (
                ("none", set()),
                ("some", {r for r in range(5) if rng.random() < 0.5}),
                ("all", set(range(5))),
            ):
                caps.clear()
                _check_family(a0, dirs, p, walk)
                ranks[name] += len(caps)
        # _check_family's own per-point ranks are zpn's, not the spy's
        assert ranks["none"] < ranks["all"], ranks

    def test_a_repeated_direction_is_one_space(self, closed):
        # t_0 and t_1 move a0 along the same matrix D, and row 0 reads only
        # them, so the counter branches on t_0: each branch a0 + v D + t_1 D +
        # t_2 E is the space a0 + span(D, E), counted once and then taken
        # from the memo; with every rank walked below, each branch is counted.
        # The work is the closed counts: a memo hit makes none, a miss three
        p = 3
        a0 = [[1, 0, 2], [0, 1, 1], [2, 2, 0]]
        d = [[1, 0, 0], [0, 1, 1], [1, 0, 1]]
        e = [[0, 0, 0], [1, 0, 1], [0, 1, 0]]

        def ranks(base, dirs, walk):
            closed.clear()
            _check_family(base, dirs, p, walk)
            return len(closed)

        walk_all = {0, 1, 2, 3}
        assert ranks(a0, [d, d, e], set()) == ranks(a0, [d, e], set())
        moved = [[[(x + v * y) % p for x, y in zip(r, s)] for r, s in zip(a0, d)] for v in range(p)]
        every = sum(ranks(b0, [d, e], walk_all) for b0 in moved)
        assert ranks(a0, [d, d, e], walk_all) == every > ranks(a0, [d, e], set())

    def test_a_space_met_again_at_a_higher_rank(self):
        # diag(t_0, t_1 + t_2) at p = 2 branches on t_0: at t_0 = 0 the family
        # is (t_1 + t_2) of rank base 0 + {0, 1}, at t_0 = 1 the same space
        # after one pivot, of rank base 1 + {0, 1}; the walk goes below rank
        # 2 alone, which the first copy never took, so the second must be
        # counted
        e00, e11 = [[1, 0], [0, 0]], [[0, 0], [0, 1]]
        for walk in (set(), {2}, {0, 2}):
            _check_family([[0, 0], [0, 0]], [e00, e11, e11], 2, walk)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_level_one_average_views_match_closed_forms(self, p):
        # verify's definition route at n = 1, where the memo serves every
        # family; at p = 2 three keys lie outside their formula's validity,
        # so the orbit view stands in for it there
        for key in catalog_keys():
            entry = closed_form(key)
            if entry.kind != "ask":
                continue
            m = catalog_module(entry.module_key)
            if p > 2 or entry.validity == "all p":
                formula = entry.formula or ex_elliptic_formula(elliptic_point_count(p))
                want = list(expand(formula, p, 2).coeffs)
            else:
                want = _levels(m, p, 1, "orbit")
            assert _levels(m, p, 1, "average") == want, (key, p)


def _random_vectors(rng, p, n, count):
    """Vectors mod p of length n, some repeated, some combinations of earlier
    ones and some zero."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if out and kind < 0.2:
            out.append(list(rng.choice(out)))
        elif len(out) > 1 and kind < 0.4:
            u, v = rng.sample(out, 2)
            a, b = rng.randrange(p), rng.randrange(p)
            out.append([(a * x + b * y) % p for x, y in zip(u, v)])
        elif kind < 0.5:
            out.append([0] * n)
        else:
            out.append([rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)])
    return out


class TestEchelon:
    """engine._echelon, the counter's one reduced echelon over F_p, and the
    zero sets that engine._affine_zeros reads off it."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_the_basis_depends_only_on_the_span(self, p):
        rng = random.Random(8000 + p)
        for _ in range(60):
            n = rng.randint(1, 5)
            vectors = _random_vectors(rng, p, n, rng.randint(0, 5))
            basis = engine._echelon(vectors, p)
            for c, row in basis.items():
                assert [row[b] for b in basis] == [int(b == c) for b in basis]
                assert not any(row[:c])
            span = {
                tuple(sum(s * v[i] for s, v in zip(coeffs, vectors)) % p for i in range(n))
                for coeffs in product(range(p), repeat=len(vectors))
            }
            assert p ** len(basis) == len(span)
            assert all(tuple(row) in span for row in basis.values())
            # another generating set of the span: permuted, rescaled by
            # units, with a combination of the others added
            units = [rng.randrange(1, p) for _ in vectors]
            other = [[x * u % p for x in v] for u, v in zip(units, vectors)]
            rng.shuffle(other)
            if other:
                coeffs = [rng.randrange(p) for _ in other]
                other.append([sum(s * v[i] for s, v in zip(coeffs, other)) % p for i in range(n)])
            assert engine._echelon(other, p) == basis, (vectors, other, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_affine_zeros_match_brute_force(self, p):
        # consistent systems, planted at a point, with duplicated, dependent
        # and all-zero equations
        rng = random.Random(9000 + p)
        for _ in range(60):
            j = rng.randint(0, 4)
            x = [rng.randrange(p) for _ in range(j)]
            eqs = [
                (-sum(a * b for a, b in zip(l, x)) % p, l)
                for l in _random_vectors(rng, p, j, rng.randint(0, 5))
            ]
            got = list(engine._affine_zeros(engine._echelon(([*l, c] for c, l in eqs), p), j, p))
            want = [
                list(v)
                for v in product(range(p), repeat=j)
                if all((c + sum(a * b for a, b in zip(l, v))) % p == 0 for c, l in eqs)
            ]
            assert sorted(got) == want, (eqs, j, p)


def _random_two_by_two(rng, p, jmax):
    """A 2 x 2 family whose directions touch every row and column, often
    sparse, with a repeated direction or a rank-one a0."""
    j = rng.randint(1, jmax)
    density = rng.choice((0.3, 0.6, 1.0))

    def matrix():
        return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(2)] for _ in range(2)]

    a0, dirs = matrix(), [matrix() for _ in range(j)]
    if rng.random() < 0.3:
        u, v = [rng.randrange(p) for _ in range(2)], [rng.randrange(p) for _ in range(2)]
        a0 = [[x * y % p for y in v] for x in u]
    if j > 1 and rng.random() < 0.3:
        dirs[-1] = [row[:] for row in dirs[0]]
    for i in range(2):
        # some direction touches row i and column i
        if not any(d[i][i] for d in dirs):
            dirs[0][i][i] = rng.randrange(1, p)
    return a0, dirs


class TestQuadricCount:
    """engine._quadric_zeros counts the zeros of a quadratic polynomial over F_p, p odd."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_random_quadrics_match_brute_force(self, p):
        rng = random.Random(3000 + p)
        # the oracle's 11^5 points per draw would take seconds: j <= 4 at p = 11
        jmax = 5 if p < 11 else 4
        for _ in range(40):
            j = rng.randint(0, jmax)
            density = rng.choice((0.2, 0.5, 1.0))
            q = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(j)] for _ in range(j)]
            l = [rng.randrange(p) if rng.random() < density else 0 for _ in range(j)]
            c = rng.randrange(p) if rng.random() < 0.7 else 0
            assert engine._quadric_zeros(q, l, c, p) == quadric_zeros(q, l, c, p), (q, l, c, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize(
        "q, l, c",
        [
            # Q = 0: a linear polynomial, or a constant
            ([[0, 0], [0, 0]], [0, 1], 2),
            ([[0, 0], [0, 0]], [0, 0], 0),
            ([[0, 0], [0, 0]], [0, 0], 1),
            # no diagonal entry: t_1 -> t_1 + t_0 makes one
            ([[0, 1], [0, 0]], [0, 0], 0),
            ([[0, 1], [0, 0]], [0, 0], 3),
            ([[0, 0, 1], [0, 0, 0], [0, 2, 0]], [1, 0, 0], 1),
            # a linear term only on the radical
            ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 1], 1),
            # c' = 0 and c' != 0 at even and at odd r
            ([[1, 0], [0, 1]], [0, 0], 0),
            ([[1, 0], [0, -1]], [0, 0], 0),
            ([[1, 0], [0, 1]], [0, 0], 1),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], 0),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], 2),
            ([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0, 0], 0),
            # completing the square leaves c' = 0
            ([[1, 0], [0, 0]], [2, 0], 1),
        ],
    )
    def test_degenerate_quadrics(self, p, q, l, c):
        assert engine._quadric_zeros(q, l, c, p) == quadric_zeros(q, l, c, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_two_by_two_families(self, p, closed):
        rng = random.Random(4000 + p)
        for _ in range(30):
            a0, dirs = _random_two_by_two(rng, p, 5)
            walk = {r for r in range(3) if rng.random() < 0.5}
            _check_family(a0, dirs, p, walk)
        # most draws reach the closed count as a 2 x 2 block, some with five
        # coordinates
        blocks = [j for rows, cols, j in closed if rows == cols == 2]
        assert len(blocks) >= 20 and 5 in blocks

    def test_a_two_by_two_family_at_two_branches(self, monkeypatch):
        # quadratic forms do not diagonalise in characteristic 2
        def unreachable(*args):
            raise AssertionError("a determinant counted at p = 2")

        monkeypatch.setattr(engine, "_quadric_zeros", unreachable)
        rng = random.Random(5002)
        for _ in range(20):
            a0, dirs = _random_two_by_two(rng, 2, 4)
            _check_family(a0, dirs, 2, {0, 1, 2})
        # a family of rank at most 1 goes to the closed count as it stands:
        # diag(t, 1 + t) has rank 1 at both points of F_2, where its
        # determinant t + t^2 vanishes identically
        diag = ([[0, 0], [0, 1]], [[[1, 0], [0, 1]]])
        taken = {}

        def take(rank, nodes):
            taken[rank] = taken.get(rank, 0) + nodes
            return False

        assert list(engine._family(*diag, 2, take, short=True)) == []
        assert taken == {1: 2}
        _check_family(*diag, 2, {0, 1, 2}, short=True)


def _planted(rng, side):
    """A random module with a kernel planted along the rows or the columns:
    zero rows then b_i -> P b_i, or zero columns then b_i -> b_i Q, for a
    random unimodular P or Q, so the kernel is not aligned with the axes."""
    m = random_module(rng, dmax=2, emax=2, lmax=2, bound=3)
    if side == "row":
        m = add_zero_row(m, rng.randint(0, m.d))
        change = random_unimodular(rng, m.d)
        return MatrixModule(m.d, m.e, [change @ b for b in m.basis])
    m = add_zero_col(m, rng.randint(0, m.e))
    change = random_unimodular(rng, m.e)
    return MatrixModule(m.d, m.e, [b @ change for b in m.basis])


class TestKernelStrip:
    """The walk drops the common kernel along the view's point axis."""

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_planted_kernels_match_brute_force(self, rng, side):
        for _ in range(6):
            m = _planted(rng, side)
            # brute force enumerates (p^n)^(d + dim) pairs
            for p, top in ((2, 2), (3, 2 if m.d + m.dim <= 4 else 1)):
                want = [brute_ask(m, p, n) for n in range(top + 1)]
                for view in ("orbit", "average", "transpose"):
                    assert ask_series(m, p, top, view) == want, (m, p, view)

    @pytest.mark.parametrize("side, view", [("row", "orbit"), ("column", "transpose")])
    def test_the_walk_runs_on_the_rank_of_the_stacked_generators(self, rng, side, view):
        from askzeta.linalg import frac_rank

        for _ in range(6):
            m = _planted(rng, side)
            k, _, w = m.view_shape(view)
            generators = m.view_generators(view)
            stacked = [[v for g in generators for v in g[a]] for a in range(k)]
            reduced, kept = engine._strip_kernel(generators, k, w)
            assert kept == frac_rank(stacked) < k
            assert [len(g) for g in reduced] == [kept] * len(generators)

    def test_kernel_free_generators_come_back_unchanged(self):
        m = catalog_module("so(3)")
        for view in ("orbit", "average", "transpose"):
            k, _, w = m.view_shape(view)
            generators = m.view_generators(view)
            assert engine._strip_kernel(generators, k, w) == (generators, k)

    def test_the_strip_runs_in_the_walk(self, spy):
        # L_{5,6} has a one-dimensional kernel along the rows, so the orbit
        # walk at n = 1 visits the (11^4 - 1)/10 unit classes of a 4-space,
        # not the (11^5 - 1)/10 = 16,105 of the unreduced one; it took one
        # rank per class before the family counter
        caps, walks = spy
        got = ask_series(catalog_module("L_{5,6}"), 11, 1, "orbit")
        assert got == _closed_form("L_{5,6}", 11, 1)
        assert _classes_per_level(walks, 1) == [(11**4 - 1) // 10] == [1464]
        assert caps == [1, 1]


class TestParallelPartition:
    def test_jobs_do_not_change_values(self, rng):
        for _ in range(4):
            m = random_module(rng, dmax=3, emax=3, lmax=3)
            ring = RingSpec(3, 2)
            assert ask_orbit(m, ring, jobs=3) == ask_orbit(m, ring)
            assert ask_average(m, ring, jobs=3) == ask_average(m, ring)
            transpose = ask_series(m, 3, 2, "transpose", jobs=3)
            assert transpose == ask_series(m, 3, 2, "transpose")

    def test_series_with_jobs(self):
        m = catalog_module("so(3)")
        serial = ask_series(m, 5, 2)
        parallel = ask_series(m, 5, 2, jobs=4)
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
