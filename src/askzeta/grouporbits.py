"""Finite-level group computations: orbits on (Z/p^n)^d, conjugacy classes of
unipotent groups, and nilpotent exponentials.

Conventions: groups act on row vectors from the right.  Group elements mod
p^n are stored as flat tuples of reduced entries, which makes closure and
orbit bookkeeping plain set operations.  Orbit enumeration applies generators
only (no inverses): every generator acts with finite order on a finite set,
so forward closure already yields the group orbits.

A generator acts only through the columns it moves: the j whose column is
not e_j, each kept as its nonzero entries (_moved_columns, worked out once per
call; a generator that is the identity mod p^n drops out).  x*g rewrites the
moved coordinates of x, el*g the moved columns of el, and g^-1*y the rows
where g^-1 differs from the identity.  exp(b) of a basis element moves only
the columns b reaches, and a transvection or a diagonal unit moves one
column, so an image costs a few products instead of a dense d x d product.
The orbit BFS carries each point's lexicographic index with it and shifts it
by the moved coordinates' change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .catalog import catalog_module
from .engine import DEFAULT_BUDGET, ask_series
from .errors import BudgetExceededError, InputError
from .intmat import IntMatrix, from_flat
from .linalg import hermite_form, matrix_inverse_mod
from .module import MatrixModule, ad_representation
from .poly import char_poly_is_pure_power
from .primes import is_prime, primitive_root
from .zpn import RingSpec, lambdas_mod


@dataclass(frozen=True)
class GroupGenSet:
    """Generators of a subgroup of GL_d(Z); must be invertible mod the primes
    they are used at."""

    d: int
    generators: tuple[IntMatrix, ...]
    label: str = ""

    def __post_init__(self):
        for g in self.generators:
            if g.shape != (self.d, self.d):
                raise InputError("generator shape mismatch")

    def check_invertible(self, p: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        for g in self.generators:
            if len(lambdas_mod(g.entries, p, 1)) != self.d:
                raise InputError(f"generator not invertible mod {p}")


class NilpotentAlgebra:
    """A module of nilpotent matrices closed under commutators.

    Construction verifies: square shape, every basis matrix nilpotent, the
    span generically nilpotent (characteristic polynomial of the generic
    combination is a pure power), commutator closure with integer structure
    constants, and computes the associative nilpotency class: the smallest c
    such that all products of c+1 basis elements vanish.
    """

    def __init__(self, module: MatrixModule):
        if module.d != module.e:
            raise InputError("nilpotent algebra needs square matrices")
        d = module.d
        for b in module.basis:
            if not b.matpow(d).is_zero():
                raise InputError("basis element is not nilpotent")
        if not char_poly_is_pure_power(module.linear_forms("average")):
            raise InputError("generic combination is not nilpotent")
        self.ad = ad_representation(module)  # raises unless Lie-closed over Z
        self.module = module
        self.nilpotency_class = self._nilpotency_class()

    @property
    def d(self) -> int:
        return self.module.d

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def label(self) -> str:
        return self.module.label

    def _nilpotency_class(self) -> int:
        span = list(self.module.basis)
        c = 0
        while span:
            c += 1
            nxt = []
            for b in self.module.basis:
                for s in span:
                    prod_mat = b @ s
                    if not prod_mat.is_zero():
                        nxt.append(prod_mat.flat())
            span = [from_flat(r, self.d, self.d) for r in hermite_form(nxt)]
            if c > self.d:
                raise InputError("products do not terminate; not nilpotent")
        # after the loop, products of length c+1 vanish and length c did not
        return c

    def identity_hypothesis_warnings(self, p: int) -> list[str]:
        """Hypotheses for the orbit/conjugacy identities: p >= d and isolation."""
        out = []
        if p < self.d:
            out.append(f"p = {p} < matrix size {self.d}")
        if not self.module.is_isolated_at(p):
            out.append(f"lattice not isolated at p = {p}")
        return out

    def __repr__(self):
        return f"NilpotentAlgebra({self.label or self.module!r}, class {self.nilpotency_class})"


def catalog_algebra(key: str) -> NilpotentAlgebra:
    """Nilpotent algebra models by catalog key ("L_{3,2}", "n(4)", ...)."""
    return NilpotentAlgebra(catalog_module(key))


# -- exponential and logarithm ---------------------------------------------


def exp_nilpotent(a: IntMatrix, ring: RingSpec) -> IntMatrix:
    """exp(a) mod p^n for a nilpotent integer matrix; needs p >= d so that the
    factorials 1/i! for i < d are units."""
    if a.rows != a.cols:
        raise InputError("exp of a non-square matrix")
    d = a.rows
    power = a.matpow(d)
    if ring.n:
        power = power.mod(ring.modulus)
    if not power.is_zero():
        raise InputError("matrix is not nilpotent")
    if ring.p < d:
        raise InputError(
            f"exp undefined: factorial denominators not invertible for p < {d}"
        )
    if ring.n == 0:
        return IntMatrix.zeros(0, 0) if d == 0 else IntMatrix.zeros(d, d)
    m = ring.modulus
    result = IntMatrix.identity(d)
    term = IntMatrix.identity(d)
    for i in range(1, d):
        term = term @ a
        inv = pow(factorial(i), -1, m)
        result = result + inv * term
    return result.mod(m)


def log_unipotent(u: IntMatrix, ring: RingSpec) -> IntMatrix:
    """log(u) mod p^n for u = 1 + nilpotent; inverse of exp_nilpotent."""
    if u.rows != u.cols:
        raise InputError("log of a non-square matrix")
    d = u.rows
    nil = u - IntMatrix.identity(d)
    if ring.n and not nil.matpow(d).mod(ring.modulus).is_zero():
        raise InputError("matrix is not unipotent")
    if ring.p < d:
        raise InputError(
            f"log undefined: integer denominators not invertible for p < {d}"
        )
    if ring.n == 0:
        return IntMatrix.zeros(d, d)
    m = ring.modulus
    result = IntMatrix.zeros(d, d)
    term = IntMatrix.identity(d)
    for i in range(1, d):
        term = term @ nil
        coeff = pow(i, -1, m)
        if i % 2 == 0:
            coeff = -coeff
        result = result + coeff * term
    return result.mod(m)


# -- orbit counting on (Z/p^n)^d --------------------------------------------


def _moved_columns(g, d: int, m: int):
    """The columns a flat d x d matrix moves mod m: (j, ((k, g_kj), ...)) for
    every j whose column is not e_j, with the nonzero g_kj reduced mod m.
    Empty for a matrix that is the identity mod m."""
    moved = []
    for j in range(d):
        col = tuple((k, g[k * d + j] % m) for k in range(d) if g[k * d + j] % m)
        if col != ((j, 1),):
            moved.append((j, col))
    return tuple(moved)


def orbit_count_vectors(gens_flat, d: int, p: int, n: int, budget: int) -> int:
    """Number of orbits of the generated group on (Z/p^n)^d by BFS."""
    if n == 0:
        return 1
    size = p ** (d * n)
    if size > budget:
        raise BudgetExceededError(size, budget)
    m = p**n
    seen = bytearray((size + 7) // 8)
    # lexicographic index of x = sum x_i m^(d-1-i); an image rewrites only
    # the coordinates its generator moves and shifts the index by their change
    weights = [m ** (d - 1 - i) for i in range(d)]
    actions = []
    for g in gens_flat:
        moved = _moved_columns(g, d, m)
        if moved:
            actions.append([(j, weights[j], col) for j, col in moved])
    orbits = 0
    idx = 0
    for x in product(range(m), repeat=d):
        if seen[idx >> 3] & (1 << (idx & 7)):
            idx += 1
            continue
        orbits += 1
        stack = [(x, idx)]
        seen[idx >> 3] |= 1 << (idx & 7)
        while stack:
            y, yi = stack.pop()
            for action in actions:
                z = list(y)
                zi = yi
                for j, w, col in action:
                    v = 0
                    for k, c in col:
                        v += y[k] * c
                    v %= m
                    zi += (v - y[j]) * w
                    z[j] = v
                if not seen[zi >> 3] & (1 << (zi & 7)):
                    seen[zi >> 3] |= 1 << (zi & 7)
                    stack.append((z, zi))
        idx += 1
    return orbits


def oc_coefficients(
    group: GroupGenSet, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Orbit counts of the group on (Z/p^n)^d for n = 0 .. n_max."""
    group.check_invertible(p)
    out = []
    for n in range(n_max + 1):
        m = p**n
        gens = [g.mod(m).flat() for g in group.generators] if n else []
        out.append(orbit_count_vectors(gens, group.d, p, n, budget))
    return out


# -- group closure and conjugacy classes ------------------------------------


def _act(el, moved, d: int, m: int, left: bool = False):
    """el * g for a flat d x d matrix el, rewriting only the columns g moves
    (`moved` from _moved_columns of g).  With left=True it is g^T * el:
    `moved` then lists the rows of g^T that differ from e_j, so only those
    rows of el change."""
    rs, cs = (1, d) if left else (d, 1)
    out = list(el)
    for j, col in moved:
        for r in range(0, d * rs, rs):
            v = 0
            for k, c in col:
                v += el[r + k * cs] * c
            out[r + j * cs] = v % m
    return tuple(out)


def group_closure(gens_flat, d: int, m: int, budget: int):
    """All elements of the subgroup generated by the given units mod m."""
    identity = tuple(
        1 if i == j else 0 for i in range(d) for j in range(d)
    )
    moves = [mv for mv in (_moved_columns(g, d, m) for g in gens_flat) if mv]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for moved in moves:
                prod_el = _act(el, moved, d, m)
                if prod_el not in seen:
                    seen.add(prod_el)
                    if len(seen) > budget:
                        raise BudgetExceededError(len(seen), budget, "group too large")
                    nxt.append(prod_el)
        frontier = nxt
    return seen


def conjugacy_class_count(elements, gens_flat, d: int, p: int, n: int) -> int:
    """Number of orbits of the conjugation action z -> g^-1 z g on `elements`."""
    m = p**n
    # g^-1 * y rewrites the rows of y where g^-1 differs from the identity:
    # the moved columns of (g^-1)^T, applied from the left
    actions = []
    for g in gens_flat:
        moved = _moved_columns(g, d, m)
        if moved:
            inv_rows = matrix_inverse_mod([g[i * d : (i + 1) * d] for i in range(d)], p, n)
            inv_t = tuple(inv_rows[i][j] for j in range(d) for i in range(d))
            actions.append((_moved_columns(inv_t, d, m), moved))
    visited = set()
    classes = 0
    for z in elements:
        if z in visited:
            continue
        classes += 1
        visited.add(z)
        stack = [z]
        while stack:
            y = stack.pop()
            for inv_moved, moved in actions:
                w = _act(_act(y, inv_moved, d, m, left=True), moved, d, m)
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
    return classes


def exp_group(alg: NilpotentAlgebra, p: int, n: int) -> GroupGenSet:
    """exp of the basis mod p^n (mod p at n = 0).  Reduced mod p^m, these generate
    the exponential group at each level m <= n: 1/i! mod p^n is 1/i! mod p^m."""
    if p < alg.d:
        raise InputError(f"need p >= {alg.d} for the exponential")
    ring = RingSpec(p, max(n, 1))
    gens = tuple(exp_nilpotent(b, ring) for b in alg.module.basis)
    return GroupGenSet(alg.d, gens, f"exp({alg.label})")


def cc_coefficients_direct(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Conjugacy class counts of the level-n images of the exponential group.

    The group at level n is generated by exp of the basis mod p^n; its order
    p^(dim * n) must stay within the budget.
    """
    group = exp_group(alg, p, n_max)
    out = [1]
    for n in range(1, n_max + 1):
        expected = p ** (alg.dim * n)
        if expected > budget:
            raise BudgetExceededError(expected, budget)
        m = p**n
        gens = [g.mod(m).flat() for g in group.generators]
        elements = group_closure(gens, alg.d, m, budget)
        out.append(conjugacy_class_count(elements, gens, alg.d, p, n))
    return out


def _via_ask(
    alg: NilpotentAlgebra, m: MatrixModule, p: int, n_max: int, budget: int
) -> list[Fraction]:
    """ask_series of m, then a warning per violated identity hypothesis: the
    series checks p and n_max before the hypotheses divide by p."""
    coeffs = ask_series(m, p, n_max, budget=budget).coefficients()
    for msg in alg.identity_hypothesis_warnings(p):
        warnings.warn(f"identity hypothesis violated: {msg}", stacklevel=3)
    return coeffs


def cc_via_ask(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[Fraction]:
    """Conjugacy class counts through the adjoint module's kernel averages."""
    return _via_ask(alg, alg.ad, p, n_max, budget)


def oc_via_ask(
    alg: NilpotentAlgebra, p: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> list[Fraction]:
    """Orbit counts of the exponential group through kernel averages of the
    algebra itself."""
    return _via_ask(alg, alg.module, p, n_max, budget)


def semidirect_embed(m: MatrixModule) -> GroupGenSet:
    """Block unipotent group [[1, b], [0, 1]] from the module's basis.

    Its orbit count on (Z/p^n)^(d+e) equals p^(e*n) times the average kernel
    size of the module at level n.
    """
    d, e = m.d, m.e
    size = d + e
    gens = []
    for b in m.basis:
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = 1
        for i in range(d):
            for j in range(e):
                rows[i][d + j] = b.entries[i][j]
        gens.append(IntMatrix(rows))
    if not gens:
        gens = [IntMatrix.identity(size)]
    label = f"{m.label}*" if m.label else "semidirect"
    return GroupGenSet(size, tuple(gens), label)


def gl_generators(d: int, p: int, n: int) -> GroupGenSet:
    """Generators of GL_d(Z/p^n): elementary transvections plus diagonal units.

    For odd p one diagonal entry runs through a primitive root mod p^n; for
    p = 2 the diagonal units -1 and 5 are used instead.  This is a helper
    set; its correctness at n > 1 is something callers test, not assume.
    """
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j:
                rows = [[int(a == b) for b in range(d)] for a in range(d)]
                rows[i][j] = 1
                gens.append(IntMatrix(rows))
    units = [primitive_root(p, n)] if p != 2 else [-1, 5]
    for u in units:
        rows = [[int(a == b) for b in range(d)] for a in range(d)]
        rows[0][0] = u
        gens.append(IntMatrix(rows))
    return GroupGenSet(d, tuple(gens), f"GL({d})")
