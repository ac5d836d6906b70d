"""Modules of integer matrices: canonical bases and their index, views, generic
ranks, the transpose and the adjoint representation."""

from __future__ import annotations

import random
from math import prod

from .errors import (
    InputError,
    InternalConsistencyError,
    NonIntegralStructureConstantsError,
    NotLieAlgebraError,
)
from .intmat import IntMatrix, from_flat
from .linalg import frac_solve_multi, hermite_form, sparse_row
from .poly import Poly, symbolic_rank
from .zpn import lambdas_mod

# A view reads the basis tensor B[i][r][c] (axis 0: basis element i, 1: row
# r, 2: column c) as (point, generator, column) axes: its points x run over
# the point axis, and each index of the generator axis gives one matrix
# whose row at x has the column axis as its width.  The order is the one in
# which the engine's "auto" breaks ties.
VIEWS = {
    "orbit": (1, 0, 2),  # x in (Z/p^n)^d, rows x * b_i
    "average": (0, 1, 2),  # c in (Z/p^n)^l, rows of sum c_i b_i
    "transpose": (2, 0, 1),  # x in (Z/p^n)^e, rows x * b_i^T
}


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
        self.label = label
        rows = [b.flat() for b in gens if not b.is_zero()]
        self.basis = tuple(from_flat(r, d, e) for r in hermite_form(rows))
        self._forms = {}
        self._ranks = {}

    @property
    def dim(self) -> int:
        """Rank of the module over Q (= size of the canonical basis)."""
        return len(self.basis)

    @property
    def sizes(self) -> tuple[int, int, int]:
        """(dim, d, e): the lengths of the basis tensor's axes, as VIEWS numbers them."""
        return (self.dim, self.d, self.e)

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

    def index(self) -> int:
        """Product of the integer elementary divisors of the flattened basis.

        It is the gcd of the maximal minors of the dim x (d*e) matrix of
        flattened basis elements, so the index in Z^dim of the lattice its
        columns span: the product of the diagonal of their Hermite form.
        It is 1 exactly when the lattice is a direct summand of
        Mat_{d x e}(Z) (an isolated, or saturated, submodule).
        """
        columns = zip(*(b.flat() for b in self.basis))
        return prod(row[i] for i, row in enumerate(hermite_form(columns)))

    def is_isolated_at(self, p: int) -> bool:
        return self.index() % p != 0

    # -- views of the basis tensor ----------------------------------------

    def view_shape(self, view: str) -> tuple[int, int, int]:
        """Sizes (k, g, w) of the view's point, generator and column axes.

        Points of the view at level n run over (Z/p^n)^k.
        """
        if view not in VIEWS:
            raise InputError(f"unknown view {view!r}")
        return tuple(self.sizes[axis] for axis in VIEWS[view])

    def view_generators(self, view: str) -> tuple:
        """One k x w integer slice of the basis tensor per generator index.

        Slice g has entry (a, j) equal to B[i][r][c] with the view's point
        axis at a, its generator axis at g and its column axis at j.  Its
        row at an integer point x is x times the slice.
        """
        point, gen, col = VIEWS[view]
        k, count, w = self.view_shape(view)
        tensor = [b.entries for b in self.basis]
        at = [0, 0, 0]

        def entry(g, a, j):
            at[gen], at[point], at[col] = g, a, j
            return tensor[at[0]][at[1]][at[2]]

        return tuple(
            tuple(tuple(entry(g, a, j) for j in range(w)) for a in range(k))
            for g in range(count)
        )

    def linear_forms(self, view: str):
        """Linear forms in X_1..X_k, one row per generator G_g: sum_a X_a * G_g[a][j].

        The rows at an integer point x are this matrix at X = x.  The orbit
        view gives the rows X * b_i, the average view the generic element
        sum X_i b_i.  Built once per view and shared with every caller,
        who must not modify it.
        """
        if view not in self._forms:
            k, _, w = self.view_shape(view)
            units = [tuple(int(t == a) for t in range(k)) for a in range(k)]
            self._forms[view] = [
                [Poly(k, {units[a]: r[j] for a, r in enumerate(gen) if r[j]}) for j in range(w)]
                for gen in self.view_generators(view)
            ]
        return self._forms[view]

    def generic_rank(self, view: str) -> int:
        """Rank over Q(X) of the view's linear forms, cached per view.

        Specialising X never raises the rank, nor does reducing the values
        mod a prime, and no rank exceeds min(rows, columns): so a random
        point whose values have that rank mod the prime 2^61 - 1 proves it.
        Otherwise the fraction-free elimination decides, and a rank at a
        point above its answer is a bug.
        """
        if view not in self._ranks:
            k = self.view_shape(view)[0]
            self._ranks[view] = _generic_rank_of(self.linear_forms(view), k)
        return self._ranks[view]


# a rank mod this prime never exceeds the rank over Q
RANK_PRIME = 2**61 - 1


def _generic_rank_of(rows, nvars: int) -> int:
    """Rank over the rational function field, by evaluation mod a large prime
    and, when that falls short of full rank, elimination."""
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    rng = random.Random(0)
    best = 0
    for _ in range(8):
        point = [rng.randint(-(10**6), 10**6) for _ in range(nvars)]
        values = [[f.eval_int(point) for f in row] for row in rows]
        best = max(best, len(lambdas_mod(values, RANK_PRIME, 1)))
        if best == full:
            return full
    exact = symbolic_rank(rows)
    if best > exact:
        raise InternalConsistencyError(f"randomized rank {best} exceeds symbolic rank {exact}")
    return exact


# -- transpose -----------------------------------------------------------


def transpose_module(m: MatrixModule) -> MatrixModule:
    label = f"{m.label}^T" if m.label else ""
    return MatrixModule(m.e, m.d, [b.transpose() for b in m.basis], label)


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
    # one elimination against the basis solves every commutator [b_j, a_i]
    pairs = [(a, b) for a in basis for b in basis]
    columns = zip(*(b.flat() for b in basis))
    images = zip(*(b.commutator(a).flat() for a, b in pairs))
    rows = [sparse_row(col) | sparse_row(img, ell) for col, img in zip(columns, images)]
    sols = frac_solve_multi(rows, ell, len(pairs))
    for (a, b), coords in zip(pairs, sols):
        if coords is None:
            raise NotLieAlgebraError(
                f"[{b!r}, {a!r}] is outside the rational span of the basis"
            )
        for c in coords:
            if c.denominator != 1:
                raise NonIntegralStructureConstantsError(
                    f"structure constant {c} is not an integer"
                )
    ad_mats = [
        [[int(c) for c in coords] for coords in sols[i * ell : (i + 1) * ell]] for i in range(ell)
    ]
    label = f"ad({m.label})" if m.label else "ad"
    return MatrixModule(ell, ell, ad_mats, label)

