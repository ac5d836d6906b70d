"""The module catalog: every key is a row of generator entries.

Names accepted by `catalog_module` (either as "so(3)" or ("so", 3)):

    mat(d,e) gl(d) sl(d) so(d) sp(2m) sym(d) n(d) tr(d) diag(d) band(r)
    zero(d,e) ex_unbounded ex_elliptic ex_non_lie L_{d,i}

A fixed key is a row of `_FIXED`: the matrix size and the entries of each
generator, so a new algebra is one row.  A family key is a row of
`_FAMILIES`: a function giving the same (d, e, generators) from the
parameters, its arity and their condition.  `_family` is the one check of
family keys; `closed_forms` calls it too, so a key with no module has no
closed form.  `catalog_module` builds every key from its `catalog_row`, whose
sizes (len(generators), d, e) fix every view's point count before any
matrix exists; `adjoint_sizes` gives those of a Lie algebra's adjoint
module in the same way.

The L_{d,i} rows are the nilpotent Lie algebras of dimension <= 5 in
de Graaf's numbering, realized as explicit integer matrix algebras.  Two
rows (ex_non_lie and L_{5,6}) carry fractional coefficients in their usual
presentation; the generators in question are stored multiplied by 2, which
spans the same module over Z_p for every odd p.  Their validity records
exclude p = 2.
"""

from __future__ import annotations

from .errors import InputError
from .intmat import IntMatrix
from .module import RANK_PRIME, MatrixModule
from .zpn import lambdas_mod


def _sum_units(d, e, entries):
    m = [[0] * e for _ in range(d)]
    for i, j, *v in entries:
        m[i][j] += v[0] if v else 1
    return IntMatrix(m)


# -- fixed modules -----------------------------------------------------------
#
# key -> (d, e, generators): the module of d x e matrices spanned by one
# matrix per generator, each given as its entries (i, j[, v]) (v = 1 when
# omitted; entries at the same position add up).

_FIXED = {
    # [[a,b,a],[b,c,d],[a,d,c]]
    "ex_unbounded": (3, 3, [
        [(0, 0), (0, 2), (2, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 2)], [(1, 2), (2, 1)],
    ]),
    # [[z,x,y],[x,z,0],[y,0,x]]; its counting data involves the curve Y^2 = X^3 - X
    "ex_elliptic": (3, 3, [
        [(0, 1), (1, 0), (2, 2)], [(0, 2), (2, 0)], [(0, 0), (1, 1)],
    ]),
    # nilpotent 6x6 matrices spanning no Lie algebra; generators two and three
    # are stored doubled to clear halves, valid for p != 2
    "ex_non_lie": (6, 6, [
        [(0, 5), (1, 2), (2, 3), (3, 4)],
        [(0, 1, 2), (1, 3, 1), (4, 5, 2)],
        [(0, 2, -2), (1, 4, -1), (3, 5, 2)],
        [(2, 5)],
        [(1, 5)],
    ]),
    "L_{1,1}": (2, 2, [[(0, 1)]]),
    "L_{2,1}": (3, 3, [[(0, 1)], [(0, 2)]]),
    # abelian: matrix units e_{0,j} of one row, all products vanish
    "L_{3,1}": (4, 4, [[(0, 1)], [(0, 2)], [(0, 3)]]),
    "L_{3,2}": (3, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]),
    "L_{4,1}": (5, 5, [[(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)]]),
    # n(3) on coordinates 0, 1, 4 (+) L_{1,1} on 2, 3: the centre E_04 of
    # the Heisenberg block sits on the corner, so the group closes over it
    "L_{4,2}": (5, 5, [[(0, 1)], [(0, 4)], [(1, 4)], [(2, 3)]]),
    "L_{4,3}": (4, 4, [[(0, 1), (1, 2), (2, 3)], [(0, 1)], [(0, 2)], [(0, 3)]]),
    "L_{5,1}": (5, 5, [[(0, 2)], [(0, 3)], [(0, 4)], [(1, 2)], [(1, 3)]]),
    # n(3) on coordinates 0, 1, 5 (+) the span of e_{0,2}, e_{1,2} in Mat_3 on
    # 2, 3, 4, with the Heisenberg centre E_05 on the corner as in L_{4,2}
    "L_{5,2}": (6, 6, [[(0, 1)], [(0, 5)], [(1, 5)], [(2, 4)], [(3, 4)]]),
    "L_{5,3}": (5, 5, [[(0, 1), (1, 2), (2, 3)], [(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)]]),
    "L_{5,4}": (4, 4, [[(0, 1)], [(1, 3)], [(0, 2)], [(2, 3)], [(0, 3)]]),
    "L_{5,5}": (5, 5, [
        [(0, 1), (2, 4)], [(1, 2), (3, 4)], [(0, 2), (1, 4, -1)], [(0, 3)], [(0, 4)],
    ]),
    # generators two and three stored doubled to clear halves, valid for p != 2
    "L_{5,6}": (5, 5, [
        [(0, 1), (1, 2), (2, 3)], [(0, 2), (3, 4, 2)], [(0, 3, -1), (2, 4, 2)],
        [(1, 4)], [(0, 4)],
    ]),
    "L_{5,7}": (5, 5, [
        [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)],
    ]),
    "L_{5,8}": (4, 4, [[(0, 1)], [(1, 2)], [(1, 3)], [(0, 2)], [(0, 3)]]),
    "L_{5,9}": (6, 6, [
        [(0, 1), (2, 3), (3, 4)], [(0, 2), (3, 5)], [(0, 3, -1), (2, 5)], [(0, 4)], [(0, 5)],
    ]),
}


def _parse_key(name):
    name = name.strip()
    if name.endswith(")") and "(" in name and not name.startswith("L_{"):
        head, _, args = name.partition("(")
        args = args[:-1].strip()
        try:
            params = tuple(int(v) for v in args.split(",")) if args else ()
        except ValueError as exc:
            raise InputError(f"bad parameters in catalog key {name!r}") from exc
        return head.strip(), params
    return name, ()


def _units(d, e, keep=lambda i, j: True):
    """One generator per matrix unit e_{ij} of Mat_{d x e} with keep(i, j)."""
    return [[(i, j)] for i in range(d) for j in range(e) if keep(i, j)]


def _pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _sp(size):
    """The symplectic algebra in the 2m x 2m block form [[a, b], [c, -a^T]]."""
    m = size // 2
    return size, size, (
        [[(i, j), (m + j, m + i, -1)] for i in range(m) for j in range(m)]
        + [[(i, m + i)] for i in range(m)]
        + [[(m + i, i)] for i in range(m)]
        + [[(i, m + j), (j, m + i)] for i, j in _pairs(m)]
        + [[(m + i, j), (m + j, i)] for i, j in _pairs(m)]
    )


# head -> (rows, arity[, condition on the parameters beyond non-negative, the
# error message when it fails]); rows(*params) gives the key's (d, e,
# generators) in the entry format of _FIXED
_FAMILIES = {
    "mat": (lambda d, e: (d, e, _units(d, e)), 2),
    "gl": (lambda d: (d, d, _units(d, d)), 1),
    "sl": (lambda d: (d, d, _units(d, d, lambda i, j: i != j)
                      + [[(i, i), (i + 1, i + 1, -1)] for i in range(d - 1)]), 1),
    "so": (lambda d: (d, d, [[(i, j), (j, i, -1)] for i, j in _pairs(d)]), 1),
    "sp": (_sp, 1, lambda size: size > 0 and size % 2 == 0, "sp requires a positive even size"),
    "sym": (lambda d: (d, d, _units(d, d, lambda i, j: i == j)
                       + [[(i, j), (j, i)] for i, j in _pairs(d)]), 1),
    "n": (lambda d: (d, d, _units(d, d, lambda i, j: i < j)), 1),
    "tr": (lambda d: (d, d, _units(d, d, lambda i, j: i <= j)), 1),
    "diag": (lambda d: (d, d, _units(d, d, lambda i, j: i == j)), 1),
    # constant rank in Mat_{(2r-1) x r}: column j carries x_1..x_r shifted down by j
    "band": (lambda r: (2 * r - 1, r, [[(k + j, j) for j in range(r)] for k in range(r)]), 1,
             lambda r: r >= 1, "band parameter must be >= 1"),
    "zero": (lambda d, e: (d, e, []), 2),
}


def _canonical_key(head: str, params: tuple[int, ...]) -> str:
    """The key as the catalog writes it: "so(3)", "mat(2,3)", "L_{3,2}"."""
    return f"{head}({','.join(map(str, params))})" if params else head


def _family(name: str, params: tuple[int, ...]):
    """The rows of family `name` once its parameters are checked; None for a
    name that is not a family.  The one check of family keys, for the
    modules and the closed forms alike."""
    if name not in _FAMILIES:
        return None
    rows, arity, *condition = _FAMILIES[name]
    if len(params) != arity:
        raise InputError(f"{name} expects {arity} parameter(s), got {len(params)}")
    if any(v < 0 for v in params):
        raise InputError(f"negative parameter for {name}")
    if condition and not condition[0](*params):
        raise InputError(condition[1])
    return rows


def catalog_row(name: str, *params: int) -> tuple[str, int, int, list]:
    """(label, d, e, generators) of a key, each generator the list of its
    entries (i, j[, v]); no matrix is built."""
    if not params:
        name, params = _parse_key(name)
    label = _canonical_key(name, params)
    if name in _FIXED:
        if params:
            raise InputError(f"{name} takes no parameters")
        return (label, *_FIXED[name])
    rows = _family(name, params)
    if rows is None:
        raise InputError(f"unknown catalog name {name!r}")
    return (label, *rows(*params))


def catalog_module(name: str, *params: int) -> MatrixModule:
    """Build a named module, e.g. catalog_module("so", 3) or catalog_module("so(3)")."""
    label, d, e, generators = catalog_row(name, *params)
    return MatrixModule(d, e, [_sum_units(d, e, g) for g in generators], label)


def adjoint_sizes(name: str) -> tuple[int, int, int]:
    """The sizes (dim - z, dim, dim) of the adjoint module of a catalog Lie
    algebra L, z = dim Z(L), from its row alone.

    dim - z is the rank over Q of x -> ([x, g])_g over the generators g;
    it is taken here mod the prime RANK_PRIME, which can only lower it.  So
    a budget check on these sizes before the build refuses no run that the
    same check on the built adjoint admits.
    """
    generators = [[(i, j, v[0] if v else 1) for i, j, *v in g] for g in catalog_row(name)[3]]
    rows = []
    for a in generators:
        row = {}  # (generator b, row, column) -> entry of [a, b]
        for b, g in enumerate(generators):
            for i, j, v in a:
                for k, l, w in g:
                    if j == k:
                        row[b, i, l] = row.get((b, i, l), 0) + v * w
                    if l == i:
                        row[b, k, j] = row.get((b, k, j), 0) - v * w
        rows.append(row)
    cols = sorted({c for row in rows for c, v in row.items() if v})
    rank = len(lambdas_mod([[row.get(c, 0) for c in cols] for row in rows], RANK_PRIME, 1))
    return rank, len(generators), len(generators)
