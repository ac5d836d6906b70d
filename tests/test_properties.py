"""Exact structural identities, runnable as one command:

    pytest tests/test_properties.py

Direct sums, transposes, zero rows, rescaling, coprime multiplicativity,
coefficient bounds, integrality for nilpotent algebras, and bulk
exponential/logarithm inversion.
"""

import random
import warnings
from fractions import Fraction

from askzeta import (
    IntMatrix,
    MatrixModule,
    RingSpec,
    ask_average,
    ask_orbit,
    ask_series,
    catalog_algebra,
    cc_via_ask,
    exp_nilpotent,
    oc_via_ask,
    transpose_module,
)
from askzeta.module import VIEWS
from conftest import (
    add_zero_col,
    add_zero_row,
    ask_mod_composite,
    direct_sum,
    log_unipotent,
    random_module,
    random_nilpotent,
    random_unimodular,
    rescale,
)


def _rng():
    return random.Random(987654321)


class TestDirectSum:
    def test_multiplicativity(self):
        rng = _rng()
        for _ in range(6):
            m1 = random_module(rng, dmax=2, emax=2, lmax=2, bound=4)
            m2 = random_module(rng, dmax=2, emax=2, lmax=2, bound=4)
            s = direct_sum(m1, m2)
            for p in (2, 3):
                for n in (1, 2):
                    ring = RingSpec(p, n)
                    assert ask_orbit(s, ring) == ask_average(m1, ring) * ask_average(
                        m2, ring
                    )


class TestTranspose:
    def test_shift_by_shape(self):
        rng = _rng()
        for _ in range(8):
            m = random_module(rng, dmax=3, emax=3, lmax=3, bound=4)
            t = transpose_module(m)
            for p in (2, 3):
                for n in (1, 2):
                    ring = RingSpec(p, n)
                    assert ask_average(t, ring) == ask_average(m, ring) * Fraction(
                        p ** (n * m.e), p ** (n * m.d)
                    )


class TestZeroRow:
    """z zero rows scale ask by p^(nz) and zero columns leave it unchanged, in
    every view; the orbit and transpose walks strip them before they start."""

    def test_row_padding_scales(self):
        rng = _rng()
        for _ in range(8):
            m = random_module(rng, dmax=2, emax=3, lmax=3, bound=4)
            z = rng.randint(1, 2)
            padded = m
            for _ in range(z):
                padded = add_zero_row(padded, rng.randint(0, padded.d))
            for p in (2, 3):
                want = ask_series(m, p, 2, "average")
                for view in VIEWS:
                    got = ask_series(padded, p, 2, view)
                    assert got == [p ** (n * z) * w for n, w in enumerate(want)], view

    def test_column_padding_changes_nothing(self):
        rng = _rng()
        for _ in range(8):
            m = random_module(rng, dmax=2, emax=3, lmax=3, bound=4)
            padded = m
            for _ in range(rng.randint(1, 2)):
                padded = add_zero_col(padded, rng.randint(0, padded.e))
            for p in (2, 3):
                want = ask_series(m, p, 2, "average")
                for view in VIEWS:
                    assert ask_series(padded, p, 2, view) == want, view


class TestRescaling:
    def test_shift_identity(self):
        rng = _rng()
        for _ in range(8):
            m = random_module(rng, dmax=2, emax=2, lmax=3, bound=4)
            for p in (2, 3, 5):
                for scale in (1, 2):
                    scaled = rescale(m, scale, p)
                    for n in range(scale, 4):
                        want = p ** (m.d * scale) * ask_average(m, RingSpec(p, n - scale))
                        assert ask_average(scaled, RingSpec(p, n)) == want

    def test_below_scale_everything_is_kernel(self):
        m = rescale(MatrixModule(2, 2, [[[1, 0], [0, 1]]]), 2, 3)
        assert ask_average(m, RingSpec(3, 1)) == 9
        assert ask_average(m, RingSpec(3, 2)) == 81


class TestCompositeMultiplicativity:
    def test_coprime_products(self):
        rng = _rng()
        pairs = [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (2, 7), (3, 8), (7, 8)]
        for _ in range(5):
            m = random_module(rng, dmax=2, emax=2, lmax=2, bound=3)
            for n1, n2 in pairs:
                lhs = ask_mod_composite(m, n1 * n2)
                rhs = ask_mod_composite(m, n1) * ask_mod_composite(m, n2)
                assert lhs == rhs, (n1, n2)


class TestCoefficientBounds:
    def test_upper_and_lower(self):
        rng = _rng()
        for _ in range(10):
            m = random_module(rng, dmax=3, emax=3, lmax=3, bound=4)
            gor = m.generic_rank("orbit")
            for p in (2, 3):
                for n in (1, 2):
                    value = ask_orbit(m, RingSpec(p, n))
                    assert value <= p ** (n * m.d)
                    assert value >= max(Fraction(p ** (n * (m.d - gor))), Fraction(1))


class TestConstantRankLevelOne:
    def test_closed_form_at_level_one(self):
        # over F_q a constant-rank module of rank r and dimension l gives
        # q^(d-l) + q^(d-r) - q^(d-l-r)
        from askzeta import catalog_module

        for r in (1, 2, 3):
            m = catalog_module(f"band({r})")
            d, ell = m.d, m.dim
            for q in (2, 3, 5):
                want = (
                    Fraction(q) ** (d - ell)
                    + Fraction(q) ** (d - r)
                    - Fraction(q) ** (d - ell - r)
                )
                assert ask_average(m, RingSpec(q, 1)) == want


class TestIntegrality:
    def test_nilpotent_algebra_streams_are_integers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for key, p in [
                ("L_{3,2}", 5),
                ("L_{4,3}", 5),
                ("L_{5,4}", 5),
                ("L_{5,8}", 7),
                ("n(4)", 5),
            ]:
                alg = catalog_algebra(key)
                for coeff in oc_via_ask(alg, p, 2):
                    assert coeff.denominator == 1, key
                for coeff in cc_via_ask(alg, p, 1):
                    assert coeff.denominator == 1, key


class TestWellDefinedness:
    def test_integer_lifts_do_not_matter(self):
        rng = _rng()
        for _ in range(6):
            m = random_module(rng, dmax=2, emax=2, lmax=2, bound=4)
            p = rng.choice([2, 3])
            n = rng.randint(1, 2)
            shifted = MatrixModule(
                m.d,
                m.e,
                [
                    b + (p**n) * IntMatrix(
                        [
                            [rng.randint(-3, 3) for _ in range(m.e)]
                            for _ in range(m.d)
                        ]
                    )
                    for b in m.basis
                ],
            )
            assert ask_average(m, RingSpec(p, n)) == ask_average(shifted, RingSpec(p, n))


class TestExpLogBulk:
    def test_mutual_inversion_grid(self):
        rng = _rng()
        pool = {d: [random_unimodular(rng, d) for _ in range(8)] for d in range(2, 6)}
        checked = 0
        for d in range(2, 6):
            for p in (5, 7):
                for n in (1, 2, 3):
                    ring = RingSpec(p, n)
                    for _ in range(42):
                        a = random_nilpotent(rng, d)
                        am = a.mod(ring.modulus)
                        assert log_unipotent(exp_nilpotent(a, ring), ring) == \
                            log_unipotent(exp_nilpotent(am, ring), ring)
                        assert log_unipotent(exp_nilpotent(a, ring), ring) == am
                        checked += 1
        assert checked == 4 * 2 * 3 * 42
