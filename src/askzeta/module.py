"""Modules of integer matrices: canonical bases, generic ranks, transforms."""

from __future__ import annotations

import random

from .errors import (
    InputError,
    InternalConsistencyError,
    NonIntegralStructureConstantsError,
    NotLieAlgebraError,
)
from .intmat import IntMatrix, from_flat
from .linalg import frac_solve, hermite_form
from .poly import Poly, evaluated_rank, symbolic_rank
from .zpn import smith_diagonal

# Above this many symbolic entries the ground-truth elimination is skipped
# and only randomized evaluation is used.
_SYMBOLIC_RANK_CAP = 400


class MatrixModule:
    """A submodule of Mat_{d x e}(Z) given by a spanning set of integer matrices.

    On construction the spanning set is replaced by the Hermite normal form
    basis of the lattice it generates inside Z^(d*e); this makes equality of
    modules decidable and fixes the rank `dim`.  The input matrices may be
    dependent.  Instances are immutable.
    """

    def __init__(self, d: int, e: int, basis, label: str = ""):
        if d < 0 or e < 0:
            raise InputError("dimensions must be >= 0")
        gens = []
        for b in basis:
            if not isinstance(b, IntMatrix):
                b = IntMatrix(b)
            if b.shape != (d, e):
                raise InputError(f"basis element of shape {b.shape}, expected {(d, e)}")
            gens.append(b)
        self.d = d
        self.e = e
        self.gens = tuple(gens)
        self.label = label
        rows = [b.flat() for b in gens if not b.is_zero()]
        self.basis = tuple(from_flat(r, d, e) for r in hermite_form(rows))
        self._cache = {}

    @property
    def dim(self) -> int:
        """Rank of the module over Q (= size of the canonical basis)."""
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixModule)
            and (self.d, self.e) == (other.d, other.e)
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.d, self.e, self.basis))

    def __repr__(self):
        name = self.label or f"{self.dim}-dim module"
        return f"MatrixModule({name} in Mat_{self.d}x{self.e})"

    def coefficient_matrix(self) -> IntMatrix:
        """Canonical basis flattened to a dim x (d*e) matrix."""
        return IntMatrix([b.flat() for b in self.basis])

    def elementary_divisors(self) -> tuple[int, ...]:
        """Integer elementary divisors of the coefficient matrix.

        All equal to 1 exactly when the lattice is a direct summand of
        Mat_{d x e}(Z) (an isolated, or saturated, submodule).
        """
        if not self.basis:
            return ()
        return smith_diagonal(self.coefficient_matrix())

    def is_isolated_at(self, p: int) -> bool:
        return all(s % p for s in self.elementary_divisors())

    # -- linear combinations -------------------------------------------

    def element_rows(self, coeffs) -> list[list[int]]:
        """Sum c_i * b_i over the canonical basis, as fresh mutable rows."""
        a = [[0] * self.e for _ in range(self.d)]
        for c, b in zip(coeffs, self.basis):
            if c:
                for i, row in enumerate(b.entries):
                    for j, v in enumerate(row):
                        if v:
                            a[i][j] += c * v
        return a

    def element_matrix(self):
        """Sum x_i * b_i over the canonical basis, as a d x e Poly matrix."""
        ell = self.dim
        rows = []
        for r in range(self.d):
            row = []
            for c in range(self.e):
                terms = {}
                for i, b in enumerate(self.basis):
                    v = b.entries[r][c]
                    if v:
                        exp = tuple(1 if k == i else 0 for k in range(ell))
                        terms[exp] = v
                row.append(Poly(ell, terms))
            rows.append(row)
        return rows

    def orbit_matrix(self):
        """The dim x e matrix of linear forms whose i-th row is X * b_i.

        The row span at an integer point x equals x * M.  Entries are
        homogeneous linear Poly values in X_1, ..., X_d.
        """
        d = self.d
        rows = []
        for b in self.basis:
            row = []
            for c in range(self.e):
                terms = {}
                for k in range(d):
                    v = b.entries[k][c]
                    if v:
                        exp = tuple(1 if t == k else 0 for t in range(d))
                        terms[exp] = v
                row.append(Poly(d, terms))
            rows.append(row)
        return rows

    def _generic_rank_of(self, rows, nvars: int, seed: int = 0) -> int:
        """Rank over the rational function field, computed two ways.

        Randomized evaluation can only underestimate the rank, so the exact
        fraction-free elimination is the authority whenever it is feasible;
        a disagreement in the other direction is a bug.
        """
        if not rows or not rows[0]:
            return 0
        rng = random.Random(seed)
        best = 0
        for _ in range(8):
            point = [rng.randint(-(10**6), 10**6) for _ in range(nvars)]
            best = max(best, evaluated_rank(rows, point))
        if len(rows) * len(rows[0]) <= _SYMBOLIC_RANK_CAP:
            exact = symbolic_rank(rows)
            if best > exact:
                raise InternalConsistencyError(
                    f"randomized rank {best} exceeds symbolic rank {exact}"
                )
            return exact
        # rely on evaluation: repeat until stable a few more times
        for _ in range(42):
            point = [rng.randint(-(10**6), 10**6) for _ in range(nvars)]
            best = max(best, evaluated_rank(rows, point))
        return best

    def generic_element_rank(self) -> int:
        """Maximal rank over Q attained on the module (rank of sum X_i b_i)."""
        if "grk" not in self._cache:
            self._cache["grk"] = self._generic_rank_of(self.element_matrix(), self.dim)
        return self._cache["grk"]

    def generic_orbit_rank(self) -> int:
        """Generic dimension of x * M, the rank of the orbit matrix over Q(X)."""
        if "gor" not in self._cache:
            self._cache["gor"] = self._generic_rank_of(self.orbit_matrix(), self.d)
        return self._cache["gor"]


# -- structural transforms ----------------------------------------------


def transpose_module(m: MatrixModule) -> MatrixModule:
    label = f"{m.label}^T" if m.label else ""
    return MatrixModule(m.e, m.d, [b.transpose() for b in m.basis], label)


def direct_sum(m1: MatrixModule, m2: MatrixModule) -> MatrixModule:
    """Block-diagonal sum inside Mat_{(d1+d2) x (e1+e2)}."""
    d, e = m1.d + m2.d, m1.e + m2.e
    basis = []
    for b in m1.basis:
        big = [[0] * e for _ in range(d)]
        for i in range(m1.d):
            for j in range(m1.e):
                big[i][j] = b.entries[i][j]
        basis.append(big)
    for b in m2.basis:
        big = [[0] * e for _ in range(d)]
        for i in range(m2.d):
            for j in range(m2.e):
                big[m1.d + i][m1.e + j] = b.entries[i][j]
        basis.append(big)
    label = f"{m1.label}(+){m2.label}" if m1.label and m2.label else ""
    return MatrixModule(d, e, basis, label)


def add_zero_row(m: MatrixModule, position: int) -> MatrixModule:
    if not 0 <= position <= m.d:
        raise InputError(f"row position {position} out of range 0..{m.d}")
    basis = []
    for b in m.basis:
        rows = [list(r) for r in b.entries]
        rows.insert(position, [0] * m.e)
        basis.append(rows)
    return MatrixModule(m.d + 1, m.e, basis, m.label)


def add_zero_col(m: MatrixModule, position: int) -> MatrixModule:
    if not 0 <= position <= m.e:
        raise InputError(f"column position {position} out of range 0..{m.e}")
    basis = []
    for b in m.basis:
        rows = []
        for r in b.entries:
            row = list(r)
            row.insert(position, 0)
            rows.append(row)
        basis.append(rows)
    return MatrixModule(m.d, m.e + 1, basis, m.label)


def rescale(m: MatrixModule, scale_exp: int, p: int) -> MatrixModule:
    """Multiply the module by p^scale_exp (a strictly smaller lattice for m > 0)."""
    if scale_exp < 0:
        raise InputError("rescaling exponent must be >= 0")
    f = p**scale_exp
    return MatrixModule(m.d, m.e, [f * b for b in m.basis], m.label)


# -- adjoint representation ----------------------------------------------


def ad_representation(m: MatrixModule) -> MatrixModule:
    """Module of the maps b -> [b, a] on m, in coordinates of its canonical basis.

    Requires d = e, closure of the lattice under commutators over Q, and
    integer structure constants; the matrix for basis element a_i has as its
    j-th row the coordinates of [b_j, a_i].
    """
    if m.d != m.e:
        raise InputError("adjoint representation needs square matrices")
    basis = m.basis
    ell = len(basis)
    flat_rows = [b.flat() for b in basis]
    # transpose once: solve against the basis for every commutator
    columns = list(zip(*flat_rows)) if flat_rows else []
    ad_mats = []
    for a in basis:
        rows = []
        for b in basis:
            target = b.commutator(a).flat()
            coords = frac_solve(columns, target)
            if coords is None:
                raise NotLieAlgebraError(
                    f"[{b!r}, {a!r}] is outside the rational span of the basis"
                )
            ints = []
            for c in coords:
                if c.denominator != 1:
                    raise NonIntegralStructureConstantsError(
                        f"structure constant {c} is not an integer"
                    )
                ints.append(int(c))
            rows.append(ints)
        ad_mats.append(rows)
    label = f"ad({m.label})" if m.label else "ad"
    return MatrixModule(ell, ell, ad_mats, label)

