"""Immutable integer matrices with arbitrary-precision entries."""

from __future__ import annotations

from .errors import InputError


class IntMatrix:
    """A rectangular matrix over Z, stored as a tuple of row tuples.

    Entries are Python ints, so no overflow is possible.  Instances are
    immutable and hashable; all arithmetic returns new matrices.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged matrix")
        self.entries = rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise InputError("shape mismatch in addition")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-v for v in row] for row in self.entries])

    def __rmul__(self, scalar: int) -> "IntMatrix":
        return IntMatrix([[scalar * v for v in row] for row in self.entries])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch in product")
        bt = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.entries
            ]
        )

    def matpow(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise InputError("power of a non-square matrix")
        result = IntMatrix.identity(self.rows)
        base = self
        while k > 0:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)) if self.entries else [])

    def commutator(self, other: "IntMatrix") -> "IntMatrix":
        """[self, other] = self*other - other*self."""
        return self @ other - other @ self

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix([[v % m for v in row] for row in self.entries])

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.entries for v in row)


def from_flat(flat, rows: int, cols: int) -> IntMatrix:
    return IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])
