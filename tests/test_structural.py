"""Structural certificates and the template they select."""

import pytest

from askzeta import (
    BudgetExceededError,
    InputError,
    MatrixModule,
    ask_series,
    catalog_module,
    check_k_minimal,
    check_o_maximal,
    expand,
    structure_report,
)
from askzeta.poly import bareiss_det
from askzeta.primes import factorize
from conftest import add_zero_col, check_constant_rank_fq, rescale


class TestOrbitMaximal:
    @pytest.mark.parametrize(
        "key",
        ["so(3)", "so(4)", "sym(2)", "sym(3)", "sp(4)", "sl(3)", "gl(1)", "gl(2)", "gl(3)"],
    )
    def test_certified(self, key):
        cert = check_o_maximal(catalog_module(key))
        assert cert.certified
        assert cert.excluded_primes == ()

    @pytest.mark.parametrize("key", ["n(2)", "n(3)", "n(4)", "diag(2)", "diag(3)"])
    def test_refuted_with_witness(self, key):
        m = catalog_module(key)
        cert = check_o_maximal(m)
        assert cert.status == "refuted"
        assert cert.witness is not None
        assert cert.witness_rank < m.generic_rank("orbit")

    def test_zero_module_trivially_certified(self):
        assert check_o_maximal(catalog_module("zero(2,2)")).certified


class TestKernelMinimal:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_band_certified(self, r):
        cert = check_k_minimal(catalog_module(f"band({r})"))
        assert cert.certified
        assert cert.excluded_primes == ()

    def test_full_matrix_refuted(self):
        cert = check_k_minimal(catalog_module("mat(2,2)"))
        assert cert.status == "refuted"
        # a singular nonzero element witnesses non-constant rank
        assert cert.witness_rank < 2

    def test_padding_preserves_certificate(self):
        padded = add_zero_col(catalog_module("band(2)"), 2)
        cert = check_k_minimal(padded)
        assert cert.certified
        rep = structure_report(padded)
        assert rep.template == structure_report(catalog_module("band(2)")).template

    def test_non_isolated_lattice_excludes_primes(self):
        m = rescale(catalog_module("band(2)"), 1, 3)
        cert = check_k_minimal(m)
        assert cert.certified
        assert 3 in cert.excluded_primes

    def test_factors_beyond_trial_division(self):
        # 1000000007 has no factor below the trial-division limit: kept as a
        # prime cofactor, and so is its square, an exact power of a prime;
        # a product of two such primes is over budget
        assert factorize(3 * 1000000007) == [3, 1000000007]
        assert factorize(1000000007**2) == [1000000007]
        with pytest.raises(BudgetExceededError):
            factorize(1000000007 * 1000000009)

    def test_certificate_denominator_a_large_prime_square(self):
        # a certificate of band(2) scaled by 3 * 1000000007 has the
        # denominator 1000000007^2, which factorize once refused
        m = catalog_module("band(2)")
        cert = check_k_minimal(MatrixModule(m.d, m.e, [3 * 1000000007 * b for b in m.basis]))
        assert cert.certified
        assert 1000000007 in cert.excluded_primes


class TestConstantRankFq:
    def test_certified_modules_pass_at_small_fields(self):
        # a kernel-minimal certificate predicts constant rank over F_q away
        # from excluded primes; no exceptions arise for the band family
        for r in (1, 2, 3):
            m = catalog_module(f"band({r})")
            assert check_k_minimal(m).certified
            for q in (3, 5, 7):
                assert check_constant_rank_fq(m, q) == (True, r), (r, q)

    def test_full_matrix(self):
        flag, rank = check_constant_rank_fq(catalog_module("mat(2,2)"), 3)
        assert flag is False

    def test_zero_module(self):
        assert check_constant_rank_fq(catalog_module("zero(2,2)"), 3) == (True, 0)

    def test_budget(self):
        with pytest.raises(InputError):
            check_constant_rank_fq(catalog_module("gl(3)"), 5, budget=10)

    @pytest.mark.parametrize("q", [4, 6])
    def test_non_prime_field_rejected(self, q):
        from askzeta import MatrixModule

        for m in (MatrixModule(1, 1, [[[2]]]), catalog_module("diag(2)")):
            with pytest.raises(InputError):
                check_constant_rank_fq(m, q)


class TestInconclusive:
    # rank degenerates only on X1^2 + X2^2 = 0, which has no rational point;
    # the module is genuinely extremal at p = 3 mod 4 but not at p = 1 mod 4,
    # so neither certification nor refutation is possible over Q
    def _cm_module(self):
        from askzeta import MatrixModule

        return MatrixModule(2, 2, [[[1, 0], [0, 1]], [[0, -1], [1, 0]]])

    def test_no_certificate_no_witness(self):
        m = self._cm_module()
        cert = check_o_maximal(m, trials=400)
        assert cert.status == "inconclusive"
        assert "not in the degree-2 minor span" in cert.reason
        assert check_k_minimal(m, trials=400).status == "inconclusive"

    def test_prime_dependent_behavior(self):
        from fractions import Fraction

        from askzeta import RingSpec, ask_orbit

        m = self._cm_module()
        # p = 3: all nonzero orbits are full, the full-matrix value appears
        assert ask_orbit(m, RingSpec(3, 1)) == Fraction(17, 9)
        # p = 5: -1 is a square, eight points have small orbits
        assert ask_orbit(m, RingSpec(5, 1)) == Fraction(81, 25)
        assert check_constant_rank_fq(m, 3) == (True, 2)
        assert check_constant_rank_fq(m, 5)[0] is False


class TestMinorGrading:
    def test_minors_of_linear_forms_are_homogeneous(self):
        rows = catalog_module("sp(4)").linear_forms("orbit")
        from itertools import combinations

        for i in (1, 2, 3):
            for rsel in combinations(range(len(rows)), i):
                for csel in combinations(range(4), i):
                    det = bareiss_det(
                        [[rows[r][c] for c in csel] for r in rsel]
                    )
                    if not det.is_zero():
                        assert det.is_homogeneous(i)


class TestStructureReport:
    def test_templates(self):
        rep = structure_report(catalog_module("sp(4)"))
        assert rep.template_key == "mat(4,4)"
        rep = structure_report(catalog_module("band(2)"))
        assert rep.template_key == "constant_rank(3,2,2)"
        rep = structure_report(catalog_module("diag(2)"))
        assert rep.template_key is None

    def test_both_certified_consistent(self):
        rep = structure_report(catalog_module("mat(1,2)"))
        assert rep.o_maximal.certified and rep.k_minimal.certified
        assert rep.template is not None

    def test_certified_template_predicts_coefficients(self):
        # soundness: certificates imply the template reproduces the stream
        for key in ("so(3)", "sym(2)", "band(2)"):
            m = catalog_module(key)
            rep = structure_report(m)
            assert rep.template is not None
            for p in (3, 5):
                got = ask_series(m, p, 2)
                want = list(expand(rep.template, p, 3).coeffs)
                assert got == want, key

    def test_grading_fields(self):
        rep = structure_report(catalog_module("n(3)"))
        assert rep.gor == 2 and rep.grk == 2
        assert rep.o_maximal.status == "refuted"
