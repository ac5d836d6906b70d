"""The stored catalog: formulas vs engines, signed-permutation identities,
the curve example, and transcription safety."""

import math
from fractions import Fraction

import pytest

from askzeta import (
    BudgetExceededError,
    CatalogEntry,
    InputError,
    NilpotentAlgebra,
    RingSpec,
    ask_orbit,
    ask_series,
    brenti_identity_check,
    brenti_polynomial,
    catalog_keys,
    catalog_module,
    closed_form,
    constant_rank_form,
    elliptic_point_count,
    ex_elliptic_formula,
    expand,
    parse_rational,
)
from conftest import algebra_keys, brute_brenti, direct_sum, hadamard

# entries verified at reduced depth here because their point counts explode;
# the acceptance suite pushes them as far as the budget allows
_DEPTH_OVERRIDES = {"ex_non_lie": 1, "L_{5,6}": 1}


def _test_primes(entry):
    return (5, 7) if "sufficiently large" in entry.validity else (3, 5)


class TestMasterCatalog:
    def test_every_ask_entry_matches_both_engines(self):
        for key in catalog_keys():
            entry = closed_form(key)
            if entry.kind != "ask" or entry.formula is None:
                continue
            m = catalog_module(entry.module_key)
            n_max = _DEPTH_OVERRIDES.get(key, 2)
            for p in _test_primes(entry):
                # cross-check the engines wherever the coefficient space is
                # enumerable; otherwise the cheap engine alone carries the test
                method = "both" if p ** (m.dim * n_max) <= 10**7 else "auto"
                got = ask_series(m, p, n_max, method)
                want = list(expand(entry.formula, p, n_max + 1).coeffs)
                assert got == want, f"{key} at p={p}: {got} != {want}"

    def test_catalog_checksum_roundtrip(self):
        for key in catalog_keys():
            entry = closed_form(key)
            if entry.formula is None:
                continue
            text = str(entry.formula)
            reparsed = parse_rational(text)
            assert reparsed == entry.formula, key
            assert str(reparsed) == text, key

    def test_entry_defaults(self):
        for entry in (closed_form("mat(2,1)"), CatalogEntry("k", "ask", None, None, "all p")):
            assert entry.tested_at == () and entry.notes == ""

    def test_unknown_key(self):
        with pytest.raises(InputError):
            closed_form("mystery(3)")

    def test_every_family_has_a_formula(self):
        from askzeta.catalog import _FAMILIES
        from askzeta.closed_forms import _FAMILY_FORMS

        assert set(_FAMILY_FORMS) == set(_FAMILIES)

    def test_every_algebra_model_is_its_cc_module(self):
        for key in algebra_keys():
            alg = NilpotentAlgebra(catalog_module(key))
            assert alg.dim == int(key[3:-1].split(",")[0]), key
            assert closed_form(f"cc:{key}").module_key == key


class TestConjugacyEntries:
    def test_functional_equation_at_algebra_dimension(self):
        # class-counting streams are kernel-average streams of the adjoint
        # module, so the symmetry holds with d = algebra dimension; this
        # cross-checks every stored dimension-6 formula
        from askzeta import functional_equation_check

        for key in catalog_keys():
            entry = closed_form(key)
            if entry.kind != "cc":
                continue
            name = key[3:]
            dim = 6 if name == "n(4)" else int(name.split("{")[1].split(",")[0])
            assert functional_equation_check(entry.formula, dim), key

    def test_decomposable_rows_are_hadamard_shifts(self):
        # appending a one-dimensional central factor multiplies the n-th
        # class count by q^n
        for small, big in [("L_{3,2}", "L_{4,2}"), ("L_{4,3}", "L_{5,3}")]:
            for q in (3, 5):
                s = expand(closed_form(f"cc:{small}").formula, q, 5)
                b = expand(closed_form(f"cc:{big}").formula, q, 5)
                assert [c * q**n for n, c in enumerate(s.coeffs)] == list(b.coeffs)


class TestDirectSumHadamard:
    def test_diagonal_is_sum_of_lines(self):
        one = catalog_module("gl(1)")
        assert direct_sum(one, one) == catalog_module("diag(2)")

    def test_block_sum_series_is_hadamard(self):
        pairs = [("gl(1)", "n(2)"), ("so(3)", "gl(1)"), ("n(2)", "n(2)")]
        for ka, kb in pairs:
            a, b = catalog_module(ka), catalog_module(kb)
            s = direct_sum(a, b)
            for p in (2, 3):
                sa = ask_series(a, p, 2)
                sb = ask_series(b, p, 2)
                ss = ask_series(s, p, 2)
                assert ss == [x * y for x, y in zip(sa, sb)]


class TestSampledLargerPrime:
    def test_families_at_seven(self):
        for key in ("so(3)", "sym(2)", "sl(2)", "n(3)", "diag(2)", "band(2)"):
            m = catalog_module(key)
            w = closed_form(key).formula
            got = ask_series(m, 7, 1)
            assert got == list(expand(w, 7, 2).coeffs), key

    def test_level_three_evidence(self):
        # deeper coefficients for cheap entries, including the entry whose
        # denominator produces unbounded coefficient denominators
        cases = [("so(2)", 3), ("n(2)", 3), ("band(2)", 3), ("diag(2)", 3),
                 ("ex_unbounded", 5)]
        for key, p in cases:
            m = catalog_module(key)
            w = closed_form(key).formula
            got = ask_series(m, p, 3)
            assert got == list(expand(w, p, 4).coeffs), key


class TestBrenti:
    def test_b1(self):
        assert brenti_polynomial(1) == {(0, 0): 1, (1, 1): 1}

    def test_b2_specialization(self):
        # matches the explicit 2x2 diagonal numerator
        got = closed_form("diag(2)").formula
        ref = parse_rational("(1 + T - 4*q^-1*T + q^-2*T^2 + q^-2*T)/(1 - T)^3")
        assert got == ref

    def test_insertion_against_enumeration(self):
        for n in range(7):
            assert brenti_polynomial(n) == brute_brenti(n), n

    def test_total_count(self):
        for n in range(1, 6):
            assert sum(brenti_polynomial(n).values()) == 2**n * math.factorial(n)

    def test_budget_counts_signed_permutations(self):
        with pytest.raises(BudgetExceededError) as info:
            brenti_polynomial(9)
        assert info.value.needed == 2**9 * math.factorial(9)
        assert info.value.budget == 2**8 * math.factorial(8)
        assert info.value.needed > info.value.budget

    def test_identity(self):
        assert brenti_identity_check(1, 4)
        assert brenti_identity_check(3, 6)
        assert brenti_identity_check(4, 6)

    def test_identity_order_is_bounded(self):
        # refused before any work, as brenti_polynomial refuses n > 8
        import askzeta.closed_forms as cf

        cf_globals = cf.brenti_identity_check.__globals__
        original = cf_globals["brenti_polynomial"]
        cf_globals["brenti_polynomial"] = None
        try:
            with pytest.raises(BudgetExceededError) as info:
                cf.brenti_identity_check(1, 10**8)
            with pytest.raises(InputError):
                cf.brenti_identity_check(3, -5)
        finally:
            cf_globals["brenti_polynomial"] = original
        assert (info.value.needed, info.value.budget) == (10**8, cf.BRENTI_MAX_ORDER)
        assert brenti_identity_check(2, cf.BRENTI_MAX_ORDER)

    def test_identity_negative_control(self):
        import askzeta.closed_forms as cf

        original = cf.brenti_polynomial

        def perturbed(n):
            poly = dict(original(n))
            poly[(0, 0)] = poly.get((0, 0), 0) + 1
            return poly

        cf_globals = cf.brenti_identity_check.__globals__
        cf_globals["brenti_polynomial"] = perturbed
        try:
            assert not cf.brenti_identity_check(2, 4)
        finally:
            cf_globals["brenti_polynomial"] = original


class TestDiagonalHadamard:
    def test_hadamard_power_identity(self):
        for q in (3, 5):
            base = expand(closed_form("diag(1)").formula, q, 6)
            acc = base
            for d in (2, 3, 4):
                acc = hadamard(acc, base)
                direct = expand(closed_form(f"diag({d})").formula, q, 6)
                assert acc.coeffs == direct.coeffs


class TestConstantRankForm:
    def test_band_consistency(self):
        assert constant_rank_form(3, 2, 2) == closed_form("band(2)").formula

    def test_zero_rank_limit(self):
        assert constant_rank_form(2, 3, 0) == parse_rational("1/(1 - q^2*T)")

    def test_differs_from_full_matrix_template(self):
        # the template only applies to kernel-minimal modules
        assert constant_rank_form(2, 4, 2) != closed_form("mat(2,2)").formula

    def test_coincidence_for_row_modules(self):
        assert constant_rank_form(1, 2, 1) == closed_form("mat(1,2)").formula


class TestEllipticExample:
    def test_point_counts(self):
        assert elliptic_point_count(5) == 8
        assert elliptic_point_count(7) == 8
        # q = 3: affine solutions of y^2 = x^3 - x plus infinity
        count = sum(
            1 for x in range(3) for y in range(3) if (y * y - x**3 + x) % 3 == 0
        )
        assert elliptic_point_count(3) == count + 1

    def test_t_coefficient_matches_orbit_engine(self):
        m = catalog_module("ex_elliptic")
        for p in (5, 7):
            w = ex_elliptic_formula(elliptic_point_count(p))
            assert expand(w, p, 1).coeffs[0] == 1
            a1 = expand(w, p, 2).coeffs[1]
            assert ask_orbit(m, RingSpec(p, 1)) == a1


class TestDeepLevels:
    """Walks that the kernel strip and the residual pencil make cheap, against
    the stored forms."""

    @pytest.mark.parametrize(
        "key, p, n_max, budget",
        [
            ("L_{5,6}", 3, 3, 10**8),
            ("n(4)", 3, 4, 10**8),
            # 3^18 unreduced points: over the default budget, which reads them
            ("ex_non_lie", 3, 3, 10**9),
        ],
    )
    def test_orbit_view_matches_closed_form(self, key, p, n_max, budget):
        entry = closed_form(key)
        got = ask_series(catalog_module(key), p, n_max, "orbit", budget)
        assert got == list(expand(entry.formula, p, n_max + 1).coeffs)
        assert entry.validity == "all p" or p in entry.tested_at

    @pytest.mark.parametrize(
        "key, view, p, n_max, budget",
        [
            # 5^15 and 3^27 points: over the default budget, which reads them
            ("diag(3)", "orbit", 5, 5, 5**15),
            ("mat(2,2)", "average", 3, 4, 10**8),
            ("tr(3)", "orbit", 3, 9, 3**27),
        ],
    )
    def test_nodes_one_divisor_short_match_closed_form(self, key, view, p, n_max, budget):
        # the rank drops on a hypersurface, so most deep nodes are one divisor
        # short of the generic rank and count their children in closed form
        got = ask_series(catalog_module(key), p, n_max, view, budget)
        assert got == list(expand(closed_form(key).formula, p, n_max + 1).coeffs)

    @pytest.mark.parametrize("p, n_max", [(5, 6), (7, 4), (11, 3)])
    def test_elliptic_example_matches_its_curve_count(self, p, n_max):
        formula = ex_elliptic_formula(elliptic_point_count(p))
        m = catalog_module("ex_elliptic")
        got = ask_series(m, p, n_max, "orbit", p ** (3 * n_max))
        assert got == list(expand(formula, p, n_max + 1).coeffs)
        assert p in closed_form("ex_elliptic").tested_at


class TestNonLieExample:
    def test_displayed_t_coefficient(self):
        w = closed_form("ex_non_lie").formula
        for p in (5, 7):
            q = Fraction(p)
            expected = 2 * q**2 + 4 * q + 4 / q - 1 / q**2 - 8
            assert expand(w, p, 2).coeffs[1] == expected

    def test_matches_orbit_engine_level_one(self):
        m = catalog_module("ex_non_lie")
        w = closed_form("ex_non_lie").formula
        for p in (5, 7):
            assert ask_orbit(m, RingSpec(p, 1)) == expand(w, p, 2).coeffs[1]
