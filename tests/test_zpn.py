"""The ring Z/p^n, the mod-p^cap reduction lambdas_mod and what it gives
(elementary divisor valuations, kernel and image sizes), and the Smith form."""

from itertools import product

import pytest

from askzeta import InputError, IntMatrix, RingSpec
from askzeta.zpn import lambdas_mod, residual_pencil
from conftest import (
    brute_image_size,
    brute_kernel_size,
    brute_kernel_size_mod,
    equivalence_type_minors,
    kernel_size_mod,
    random_int_matrix,
    random_unimodular,
    smith_diagonal,
)


def equivalence_type(a: IntMatrix, p: int) -> tuple[int, ...]:
    """Valuations (lam_1, ..., lam_r) of the elementary divisors of `a` at p.

    r is the rank of `a` over the rationals; the zero matrix gives ().
    lambdas_mod at the least cap with p^cap > B, where B is the product over
    the rows of max(1, sum_j |a_ij|), is exact: every r x r minor D is at
    most B in absolute value, lam_1 + ... + lam_r is the least valuation of
    a nonzero r x r minor, and so each lam_i <= v_p(D) < cap.
    """
    bound = 1
    for row in a.entries:
        bound *= max(1, sum(abs(v) for v in row))
    cap, pw = 1, p
    while pw <= bound:
        cap, pw = cap + 1, pw * p
    return tuple(lambdas_mod(a.entries, p, cap))


def kernel_size(a: IntMatrix, ring: RingSpec) -> int:
    """|Ker(x -> x a)| on (Z/p^n)^d: p^(sum_i lam_i + (d - r) n) over lam_i < n."""
    lams = lambdas_mod(a.entries, ring.p, ring.n)
    return ring.p ** (sum(lams) + (a.rows - len(lams)) * ring.n)


def image_size(a: IntMatrix, ring: RingSpec) -> int:
    """|Row span of a in (Z/p^n)^e|: p^(sum_i (n - lam_i)) over lam_i < n."""
    return ring.p ** sum(ring.n - lam for lam in lambdas_mod(a.entries, ring.p, ring.n))


class TestRingSpec:
    def test_validation(self):
        RingSpec(2, 0)
        RingSpec(97, 3)
        with pytest.raises(InputError):
            RingSpec(6, 1)
        with pytest.raises(InputError):
            RingSpec(3, -1)

    def test_modulus(self):
        assert RingSpec(3, 0).modulus == 1
        assert RingSpec(5, 3).modulus == 125


class TestEquivalenceType:
    def test_examples(self):
        assert equivalence_type(IntMatrix([[3, 0], [0, 9]]), 3) == (1, 2)
        assert equivalence_type(IntMatrix([[1, 0], [0, 0]]), 5) == (0,)
        # 1x1 minors have valuation 1; det = -8 has valuation 3
        assert equivalence_type(IntMatrix([[2, 4], [6, 8]]), 2) == (1, 2)
        assert equivalence_type(IntMatrix.zeros(2, 3), 7) == ()

    def test_against_minor_oracle(self, rng):
        # large entries and high powers of p put lam_i near the row-sum bound
        # that fixes the reduction's cap; a 1x1 [p^k] sits exactly below it
        for _ in range(120):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            p = rng.choice([2, 3, 5, 7])
            a = random_int_matrix(rng, d, e, bound=rng.choice([12, 10**4, 27 * 10**9]))
            rows = [
                [v * p ** rng.choice([0, 0, rng.randint(1, 40)]) for v in row]
                for row in a.entries
            ]
            if d > 1 and rng.random() < 0.3:
                rows[-1] = [p ** rng.randint(0, 20) * v for v in rows[0]]
            a = IntMatrix(rows)
            assert equivalence_type(a, p) == equivalence_type_minors(a, p)
        for p, k in ((2, 60), (3, 35), (7, 1)):
            a = IntMatrix([[p**k]])
            assert equivalence_type(a, p) == equivalence_type_minors(a, p) == (k,)

    def test_every_cap_against_minor_oracle(self, rng):
        # lambdas_mod at cap c reports exactly the exact valuations below c
        for _ in range(150):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            p = rng.choice([2, 3, 5, 7])
            rows = [
                [rng.randint(-20, 20) * p ** rng.choice([0, 0, 1, 2, 3, 5])
                 for _ in range(e)]
                for _ in range(d)
            ]
            if d > 1 and rng.random() < 0.3:
                rows[-1] = [p ** rng.randint(0, 3) * v for v in rows[0]]
            exact = equivalence_type_minors(IntMatrix(rows), p)
            for cap in range(7):
                want = [v for v in exact if v < cap]
                assert lambdas_mod(rows, p, cap) == want, (rows, p, cap)

    def test_unimodular_invariance(self, rng):
        for _ in range(25):
            d = rng.randint(1, 3)
            e = rng.randint(1, 3)
            a = random_int_matrix(rng, d, e)
            p = rng.choice([2, 3, 5])
            u = random_unimodular(rng, d)
            v = random_unimodular(rng, e)
            assert equivalence_type(u @ a @ v, p) == equivalence_type(a, p)

    def test_coprime_scaling_invariance(self):
        a = IntMatrix([[6, 2], [0, 10]])
        assert equivalence_type(5 * a, 2) == equivalence_type(a, 2)

    def test_coprime_determinant_invariance(self, rng):
        # one-sided multiplication by det-coprime (not unimodular) factors
        for p, unit in ((3, 2), (5, 3), (7, 2)):
            for _ in range(10):
                d, e = rng.randint(1, 3), rng.randint(1, 3)
                a = random_int_matrix(rng, d, e)
                u = random_unimodular(rng, d)
                scale = IntMatrix(
                    [
                        [unit if i == j == 0 else int(i == j) for j in range(d)]
                        for i in range(d)
                    ]
                )
                assert equivalence_type(u @ scale @ a, p) == equivalence_type(a, p)


def _pencil_at(rows, deltas, t, scale):
    """rows + scale * sum_a t_a deltas[a]."""
    return [
        [v + scale * sum(c * g[i][j] for c, g in zip(t, deltas)) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]


class TestResidualPencil:
    def test_children_against_minor_oracle(self, rng):
        # the rows at R + p^m sum_a t_a G_a have the divisors of R below m and m
        # repeated rank_p(R2 + sum_a t_a E_a) times, for every t mod p
        for _ in range(120):
            d, e, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)
            p, m = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
            rows = [
                [rng.randint(-9, 9) * p ** rng.choice([0, 0, 1, 2, 3]) for _ in range(e)]
                for _ in range(d)
            ]
            if d > 1 and rng.random() < 0.3:
                rows[-1] = [p ** rng.randint(0, 2) * v for v in rows[0]]
            deltas = [
                [[rng.randint(-4, 4) for _ in range(e)] for _ in range(d)] for _ in range(k)
            ]
            r2, pencil = residual_pencil(rows, deltas, p, m)
            below = lambdas_mod(rows, p, m)
            assert len(pencil) == k
            assert len(r2) == d - len(below)
            for t in product(range(p), repeat=k):
                child = _pencil_at(rows, deltas, t, p**m)
                exact = [v for v in equivalence_type_minors(IntMatrix(child), p) if v <= m]
                rank = len(lambdas_mod(_pencil_at(r2, pencil, t, 1), p, 1))
                assert exact == below + [m] * rank, (rows, deltas, p, m, t)

    def test_the_pencil_is_the_reduction_stopped_at_m(self, rng):
        # one more level of lambdas_mod adds m once for each rank of R2 over F_p,
        # with or without deltas; shapes include no rows and no columns
        for _ in range(4000):
            d, e, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)
            p, m = rng.choice([2, 3, 5, 7]), rng.randint(0, 3)
            rows = [
                [rng.randint(-9, 9) * p ** rng.choice([0, 0, 1, 2, 3]) for _ in range(e)]
                for _ in range(d)
            ]
            if d > 1 and rng.random() < 0.3:
                rows[-1] = [p ** rng.randint(0, 2) * v for v in rows[0]]
            deltas = [
                [[rng.randint(-4, 4) for _ in range(e)] for _ in range(d)] for _ in range(k)
            ]
            r2, pencil = residual_pencil(rows, deltas, p, m)
            assert residual_pencil(rows, [], p, m) == (r2, [])
            assert all(len(g) == len(r2) for g in pencil)
            rank = len(lambdas_mod(r2, p, 1))
            expected = sorted(lambdas_mod(rows, p, m) + [m] * rank)
            assert lambdas_mod(rows, p, m + 1) == expected, (rows, p, m)

    def test_the_pivot_row_shears_the_deltas(self):
        # at p = 3, m = 1 the rows [[1, 2], [3t, 3]] have determinant 3 (1 - 2t):
        # clearing the pivot row moves t into the residual, 1 + t mod 3
        r2, pencil = residual_pencil([[1, 2], [0, 3]], [[[0, 0], [1, 0]]], 3, 1)
        assert (r2, pencil) == ([[1]], [[[1]]])


class TestSizes:
    def test_kernel_examples(self):
        assert kernel_size(IntMatrix.zeros(2, 2), RingSpec(3, 1)) == 9
        assert kernel_size(IntMatrix.identity(2), RingSpec(3, 3)) == 1
        diag39 = IntMatrix([[3, 0], [0, 9]])
        assert kernel_size(diag39, RingSpec(3, 2)) == 27
        assert brute_kernel_size(diag39, 3, 2) == 27

    def test_image_examples(self):
        assert image_size(IntMatrix.identity(2), RingSpec(3, 2)) == 81
        diag39 = IntMatrix([[3, 0], [0, 9]])
        assert image_size(diag39, RingSpec(3, 2)) == 3
        assert brute_image_size(diag39, 3, 2) == 3
        assert image_size(IntMatrix.zeros(3, 2), RingSpec(5, 4)) == 1

    def test_brute_force_grid(self, rng):
        for _ in range(30):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            a = random_int_matrix(rng, d, e)
            p = rng.choice([2, 3])
            n = rng.randint(0, 2)
            ring = RingSpec(p, n)
            assert kernel_size(a, ring) == brute_kernel_size(a, p, n)
            assert image_size(a, ring) == brute_image_size(a, p, n)

    def test_rank_nullity(self, rng):
        for _ in range(30):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            a = random_int_matrix(rng, d, e)
            p = rng.choice([2, 3, 5])
            n = rng.randint(0, 3)
            ring = RingSpec(p, n)
            assert kernel_size(a, ring) * image_size(a, ring) == p ** (d * n)

    def test_well_defined_mod_pn(self, rng):
        for _ in range(20):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            a = random_int_matrix(rng, d, e)
            b = random_int_matrix(rng, d, e)
            p = rng.choice([2, 3, 5])
            n = rng.randint(0, 2)
            ring = RingSpec(p, n)
            perturbed = a + (p**n) * b
            assert kernel_size(a, ring) == kernel_size(perturbed, ring)
            assert image_size(a, ring) == image_size(perturbed, ring)

    def test_level_zero(self):
        ring = RingSpec(3, 0)
        a = IntMatrix([[1, 2], [3, 4]])
        assert kernel_size(a, ring) == 1
        assert image_size(a, ring) == 1
        assert image_size(IntMatrix([(1, 2)]), ring) == 1


class TestSpanSize:
    def test_examples(self):
        assert image_size(IntMatrix([(1, 0)]), RingSpec(3, 2)) == 9
        assert image_size(IntMatrix([(3, 0), (0, 3)]), RingSpec(3, 2)) == 9
        assert image_size(IntMatrix([]), RingSpec(7, 5)) == 1

    def test_brute(self, rng):
        # direct enumeration of generated subgroups of (Z/p^n)^e
        for _ in range(15):
            e = rng.randint(1, 2)
            k = rng.randint(0, 3)
            rows = [
                tuple(rng.randint(-6, 6) for _ in range(e)) for _ in range(k)
            ]
            p, n = rng.choice([2, 3]), rng.randint(1, 2)
            m = p**n
            from itertools import product

            generated = set()
            for coeffs in product(range(m), repeat=k):
                generated.add(
                    tuple(
                        sum(c * row[j] for c, row in zip(coeffs, rows)) % m
                        for j in range(e)
                    )
                )
            assert image_size(IntMatrix(rows), RingSpec(p, n)) == len(generated)


class TestSmith:
    def test_diagonal_chain(self):
        a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        divs = smith_diagonal(a)
        assert all(divs[i] % divs[i - 1] == 0 for i in range(1, len(divs)))

    def test_kernel_mod_composite(self, rng):
        for _ in range(25):
            d, e = rng.randint(1, 2), rng.randint(1, 2)
            a = random_int_matrix(rng, d, e, bound=6)
            modulus = rng.randint(1, 12)
            assert kernel_size_mod(a, modulus) == brute_kernel_size_mod(a, modulus)

    def test_identity_cases(self):
        assert kernel_size_mod(IntMatrix([[1]]), 1) == 1
        assert kernel_size_mod(IntMatrix.zeros(2, 2), 6) == 36
