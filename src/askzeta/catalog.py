"""The module catalog: every key is a row of data.

Names accepted by `catalog_module` (either as "so(3)" or ("so", 3)):

    mat(d,e) gl(d) sl(d) so(d) sp(2m) sym(d) n(d) tr(d) diag(d) band(r)
    zero(d,e) ex_unbounded ex_elliptic ex_non_lie L_{d,i}

A family key is a row of `_FAMILIES`: its builder, its arity and the
condition on its parameters.  `_family` is the one check of family keys;
`closed_forms` calls it too, so a key with no module has no closed form.
A fixed key is a row of `_FIXED`: the matrix size and the entries of each
generator, so a new algebra is one row.

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
from .module import MatrixModule


def _unit(d, e, i, j, v=1):
    return IntMatrix.unit(d, e, i, j, v)


def _sum_units(d, e, positions):
    m = [[0] * e for _ in range(d)]
    for entry in positions:
        i, j, *rest = entry
        m[i][j] += rest[0] if rest else 1
    return IntMatrix(m)


def mat_module(d: int, e: int) -> MatrixModule:
    basis = [_unit(d, e, i, j) for i in range(d) for j in range(e)]
    return MatrixModule(d, e, basis, f"mat({d},{e})")


def gl_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, j) for i in range(d) for j in range(d)]
    return MatrixModule(d, d, basis, f"gl({d})")


def sl_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, j) for i in range(d) for j in range(d) if i != j]
    basis += [
        _sum_units(d, d, [(i, i, 1), (i + 1, i + 1, -1)]) for i in range(d - 1)
    ]
    return MatrixModule(d, d, basis, f"sl({d})")


def so_module(d: int) -> MatrixModule:
    basis = [
        _sum_units(d, d, [(i, j, 1), (j, i, -1)])
        for i in range(d)
        for j in range(i + 1, d)
    ]
    return MatrixModule(d, d, basis, f"so({d})")


def sym_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, i) for i in range(d)]
    basis += [
        _sum_units(d, d, [(i, j, 1), (j, i, 1)])
        for i in range(d)
        for j in range(i + 1, d)
    ]
    return MatrixModule(d, d, basis, f"sym({d})")


def sp_module(size: int) -> MatrixModule:
    """Symplectic algebra in the 2m x 2m block form [[a, b], [c, -a^T]]."""
    m = size // 2
    basis = []
    for i in range(m):
        for j in range(m):
            basis.append(_sum_units(size, size, [(i, j, 1), (m + j, m + i, -1)]))
    for i in range(m):
        basis.append(_unit(size, size, i, m + i))
        basis.append(_unit(size, size, m + i, i))
    for i in range(m):
        for j in range(i + 1, m):
            basis.append(_sum_units(size, size, [(i, m + j, 1), (j, m + i, 1)]))
            basis.append(_sum_units(size, size, [(m + i, j, 1), (m + j, i, 1)]))
    return MatrixModule(size, size, basis, f"sp({size})")


def n_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, j) for i in range(d) for j in range(i + 1, d)]
    return MatrixModule(d, d, basis, f"n({d})")


def tr_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, j) for i in range(d) for j in range(i, d)]
    return MatrixModule(d, d, basis, f"tr({d})")


def diag_module(d: int) -> MatrixModule:
    basis = [_unit(d, d, i, i) for i in range(d)]
    return MatrixModule(d, d, basis, f"diag({d})")


def band_module(r: int) -> MatrixModule:
    """Constant-rank band module in Mat_{(2r-1) x r}: column j carries x_1..x_r
    shifted down by j."""
    d, e = 2 * r - 1, r
    basis = []
    for k in range(r):
        basis.append(_sum_units(d, e, [(k + j, j, 1) for j in range(r)]))
    return MatrixModule(d, e, basis, f"band({r})")


def zero_module(d: int, e: int) -> MatrixModule:
    return MatrixModule(d, e, [], f"zero({d},{e})")


# -- fixed modules -----------------------------------------------------------
#
# key -> (d, e, generators): the module of d x e matrices spanned by one
# matrix per generator, each given as its entries (i, j[, v]) (v = 1 when
# omitted; entries at the same position add up).  The L_{d,i} rows are the
# nilpotent Lie algebras of dimension d <= 5 in de Graaf's numbering.

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
    # n(3) (+) L_{1,1}
    "L_{4,2}": (5, 5, [[(0, 1)], [(0, 2)], [(1, 2)], [(3, 4)]]),
    "L_{4,3}": (4, 4, [[(0, 1), (1, 2), (2, 3)], [(0, 1)], [(0, 2)], [(0, 3)]]),
    "L_{5,1}": (5, 5, [[(0, 2)], [(0, 3)], [(0, 4)], [(1, 2)], [(1, 3)]]),
    # n(3) (+) the span of e_{0,2}, e_{1,2} in Mat_3
    "L_{5,2}": (6, 6, [[(0, 1)], [(0, 2)], [(1, 2)], [(3, 5)], [(4, 5)]]),
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


# head -> (builder, arity[, condition on the parameters beyond non-negative,
# the error message when it fails])
_FAMILIES = {
    "mat": (mat_module, 2),
    "gl": (gl_module, 1),
    "sl": (sl_module, 1),
    "so": (so_module, 1),
    "sp": (sp_module, 1, lambda size: size > 0 and size % 2 == 0,
           "sp requires a positive even size"),
    "sym": (sym_module, 1),
    "n": (n_module, 1),
    "tr": (tr_module, 1),
    "diag": (diag_module, 1),
    "band": (band_module, 1, lambda r: r >= 1, "band parameter must be >= 1"),
    "zero": (zero_module, 2),
}


def _family(name: str, params: tuple[int, ...]):
    """The builder of family `name` once its parameters are checked; None for
    a name that is not a family.  The one check of family keys, for the
    modules and the closed forms alike."""
    if name not in _FAMILIES:
        return None
    builder, arity, *condition = _FAMILIES[name]
    if len(params) != arity:
        raise InputError(f"{name} expects {arity} parameter(s), got {len(params)}")
    if any(v < 0 for v in params):
        raise InputError(f"negative parameter for {name}")
    if condition and not condition[0](*params):
        raise InputError(condition[1])
    return builder


def catalog_module(name: str, *params: int) -> MatrixModule:
    """Build a named module, e.g. catalog_module("so", 3) or catalog_module("so(3)")."""
    if not params:
        name, params = _parse_key(name)
    if name in _FIXED:
        if params:
            raise InputError(f"{name} takes no parameters")
        d, e, generators = _FIXED[name]
        return MatrixModule(d, e, [_sum_units(d, e, g) for g in generators], name)
    builder = _family(name, params)
    if builder is not None:
        return builder(*params)
    raise InputError(f"unknown catalog name {name!r}")
