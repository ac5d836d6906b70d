"""Structural certificates and the template they select."""

import contextlib
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from askzeta import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    MatrixModule,
    ask_series,
    catalog_keys,
    catalog_module,
    check_k_minimal,
    check_o_maximal,
    closed_form,
    expand,
    structure_report,
)
from askzeta.cli import EXIT_OK, main
from askzeta.poly import Poly, bareiss_det
from askzeta.primes import factorize
from askzeta import structural
from askzeta.structural import DEFAULT_MINOR_BUDGET, _all_minors, _monomial_span_test, _pack
from conftest import (
    add_zero_col,
    check_constant_rank_fq,
    normalized,
    reference_minor_table,
    reference_minors,
    rescale,
)

DATA = Path(__file__).resolve().parent / "data"


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
        with pytest.raises(BudgetExceededError) as err:
            factorize(1000000007 * 1000000009)
        assert str(err.value) == (
            "factoring 1000000016000000063 by 1000000007 trial divisors exceeds budget 100000"
        )

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
                        assert all(sum(e) == i for e in det.terms)


def _unpacked(terms, nvars, base):
    """A packed minor or form, (exponent, coefficient) pairs, as a Poly: the
    base-B digits of each packed exponent, then its degree."""
    out = {}
    for e, c in terms:
        digits = []
        for _ in range(nvars):
            e, r = divmod(e, base)
            digits.append(r)
        assert e == sum(digits)
        out[tuple(reversed(digits))] = c
    return Poly(nvars, out)


def _forms(generators, nvars):
    """The linear forms sum_a X_a G_g[a][j] of generators, as Poly entries."""
    units = [tuple(int(t == a) for t in range(nvars)) for a in range(nvars)]
    return [
        [Poly(nvars, {units[a]: v for a, v in enumerate(col) if v}) for col in zip(*gen)]
        for gen in generators
    ]


def _columns(generators):
    return [tuple(zip(*gen)) for gen in generators]


def _minors_match_reference(generators, nvars, top):
    """_all_minors, fed its own tables, against one determinant per minor of
    the generators' linear forms."""
    rows = _forms(generators, nvars)
    packed, base = _pack(_columns(generators), nvars, top)
    table = {(): {(): (1, frozenset({(0, 1)}))}}
    for size in range(1, top + 1):
        minors, _, table = _all_minors(packed, size, DEFAULT_MINOR_BUDGET, table)
        got = [_unpacked(m.items(), nvars, base) for m in minors]
        assert got == reference_minors(rows, size), size
        forms = {
            (rsel, csel): (scale, _unpacked(form, nvars, base))
            for rsel, found in table.items()
            for csel, (scale, form) in found.items()
        }
        scaled = {
            key: Poly(nvars, {e: scale * v for e, v in form.terms.items()})
            for key, (scale, form) in forms.items()
        }
        assert scaled == reference_minor_table(rows, size), size
        assert all(form == normalized(form) for _, form in forms.values())


def _random_generators(rng, nr, nc, nvars):
    """nr generators of nvars x nc small entries, whose linear forms (one per
    column) are about a third of them zero."""
    columns = [
        [
            [0] * nvars if rng.random() < 0.35 else [rng.randint(-2, 2) for _ in range(nvars)]
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]
    return [[list(row) for row in zip(*cols)] for cols in columns]


class TestLaplaceMinors:
    """Each degree's minors by Laplace expansion over the previous degree's table."""

    @pytest.mark.parametrize(
        "key",
        sorted({closed_form(k).module_key for k in catalog_keys() if closed_form(k).kind == "ask"}),
    )
    def test_catalog_modules(self, key):
        m = catalog_module(key)
        for view in ("orbit", "average"):
            rank = m.generic_rank(view)
            if rank:
                _minors_match_reference(m.view_generators(view), m.view_shape(view)[0], rank)

    @pytest.mark.parametrize("kind", ["random", "zero row", "zero column", "repeated row"])
    def test_random_forms(self, kind):
        rng = random.Random(f"laplace {kind}")
        for _ in range(25):
            nr, nc, nvars = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
            gens = _random_generators(rng, nr, nc, nvars)
            if kind == "zero row":
                gens[rng.randrange(nr)] = [[0] * nc for _ in range(nvars)]
            elif kind == "zero column":
                j = rng.randrange(nc)
                for gen in gens:
                    for row in gen:
                        row[j] = 0
            elif kind == "repeated row" and nr > 1:
                # minors on both copies cancel to zero
                gens[-1] = gens[0]
            _minors_match_reference(gens, nvars, min(nr, nc))

    def test_one_row(self):
        rng = random.Random("laplace one row")
        for nc in range(1, 6):
            _minors_match_reference(_random_generators(rng, 1, nc, 2), 2, 1)

    def test_over_budget(self):
        # 4 rows and 2 columns: C(4, 2) C(2, 2) = 6 pairs of 2 x 2 minors
        rows = catalog_module("gl(2)").linear_forms("orbit")
        assert _all_minors(rows, 2, 5, {}) == (None, 6, None)


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

    def test_certificates_own_their_combinations(self):
        # a certificate built without combinations gets a dict of its own
        first = structural.Certificate("inconclusive")
        second = structural.Certificate("refuted")
        first.combinations[(1, 0)] = {}
        assert second.combinations == {}
        assert structural.Certificate("certified").combinations == {}

    def test_grading_fields(self):
        rep = structure_report(catalog_module("n(3)"))
        assert rep.gor == 2 and rep.grk == 2
        assert rep.o_maximal.status == "refuted"


class TestSpanSolve:
    """The sparse span solve against the minors it combines."""

    ASK_KEYS = sorted(k for k in catalog_keys() if closed_form(k).kind == "ask")

    @pytest.mark.parametrize("key", ASK_KEYS)
    def test_combinations_give_each_pure_power(self, key):
        # a certificate's coefficients, applied to the oracle's minors in the
        # same order, give X_j^i exactly
        m = catalog_module(closed_form(key).module_key)
        for view, cert in (("orbit", check_o_maximal(m)), ("average", check_k_minimal(m))):
            rows, nvars = m.linear_forms(view), m.view_shape(view)[0]
            for (j, i), coeffs in cert.combinations.items():
                minors = reference_minors(rows, i)
                assert len(coeffs) == len(minors), (key, view, i)
                total = {}
                for c, minor in zip(coeffs, minors):
                    for e, v in minor.terms.items():
                        total[e] = total.get(e, 0) + c * v
                power = tuple(i * (a == j) for a in range(nvars))
                assert {e: v for e, v in total.items() if v} == {power: 1}, (key, view, j, i)

    def test_a_power_that_no_minor_holds(self):
        # X_2 is in no minor of [[X_1, 0], [0, X_1]]: its target row holds
        # nothing but the target, and the solve must still see it
        gens = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
        result = _monomial_span_test(_columns(gens), 2, 2, DEFAULT_MINOR_BUDGET)
        assert result == ((False, (1, 1)), None)

    def test_a_minor_that_is_not_homogeneous(self, monkeypatch):
        # the generators give linear forms only, so the matrix [[X_1, 1]]
        # comes from a packing with a constant put in
        pack = structural._pack

        def with_a_constant(columns, k, top):
            packed, base = pack(columns, k, top)
            packed[0][1] = {0: 1}
            return packed, base

        monkeypatch.setattr(structural, "_pack", with_a_constant)
        columns = _columns([[[1, 0], [0, 0]]])
        with pytest.raises(InternalConsistencyError, match="not homogeneous"):
            _monomial_span_test(columns, 1, 2, DEFAULT_MINOR_BUDGET)

    @pytest.mark.parametrize("key", ASK_KEYS)
    def test_reports(self, key):
        # written by the dense elimination over Fraction
        want = json.loads((DATA / "structure_ask.json").read_text(encoding="utf-8"))[key]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["structure", "--catalog", key]) == EXIT_OK
        assert out.getvalue() == want

    def test_sym12_memory(self):
        # its degree-2 solve has 3,081 monomials and 2,211 minors: dense rows
        # took the peak RSS from 21 to 131 MB; sparse ones hold a few entries
        # per monomial
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["structure", "--catalog", "sym(12)"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPinnedStructure:
    """Work and reports of `structure` on keys that per-minor elimination made slow."""

    # of each total, the products of a linear form and a stored minor
    MINOR_PRODUCTS = {"gl(5)": 8_000, "so(6)": 20_857}

    @pytest.mark.parametrize(
        "key, products",
        # one fraction-free determinant per minor took 2,795,684 and
        # 1,441,148; the rest of each total are Poly products outside the
        # minors
        [("gl(5)", 8_002), ("so(6)", 21_239)],
    )
    def test_polynomial_products(self, key, products, monkeypatch):
        calls = []
        add, mul = structural._add_product, Poly.__mul__

        def counting_add(*args):
            calls.append("minor")
            return add(*args)

        def counting_mul(a, b):
            calls.append("poly")
            return mul(a, b)

        monkeypatch.setattr(structural, "_add_product", counting_add)
        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        structure_report(catalog_module(key))
        assert len(calls) == products
        assert calls.count("minor") == self.MINOR_PRODUCTS[key]

    @pytest.mark.parametrize("key", ["gl(5)", "so(6)", "sp(6)"])
    def test_reports(self, key, tmp_path):
        # written once by per-minor elimination, which took 8 to 38 s a key
        out = tmp_path / "report.json"
        assert main(["structure", "--catalog", key, "--output", str(out)]) == EXIT_OK
        name = key.replace("(", "").replace(")", "")
        assert out.read_bytes() == (DATA / f"structure_{name}.json").read_bytes()
