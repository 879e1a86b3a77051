"""Dense exact linear algebra over GF(q).

Matrices are immutable: entries live in nested tuples of encoded field
elements.  Everything here is deliberately plain Python; the problem
sizes are small and exactness matters more than speed.

The public constructor is the trust boundary: ``MatrixGF(...)`` and
``MatrixGF.from_columns`` convert and check whatever they are given.
Rows that field arithmetic in this module makes from already checked
matrices (in ``rref``, ``row_space_basis``, ``kernel_basis`` and
``hstack``) skip those checks through the private ``MatrixGF._of``,
which nothing outside this module calls.
"""

from __future__ import annotations

from .field import Field


class MatrixGF:
    """A rows x cols matrix over a Field.

    ``cols`` must be passed explicitly when constructing a matrix with
    zero rows, since it cannot be inferred from the data.  The
    constructor converts every entry with ``int`` and rejects ragged
    rows, entries that ``int`` would change (``1.9``, ``Fraction(5, 2)``)
    and entries outside 0..q-1; ``_of`` builds a matrix from rows this
    module has already checked or computed, and checks nothing.
    """

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, data, ncols: int | None = None):
        given = tuple(map(tuple, data))
        rows = tuple(tuple(map(int, row)) for row in given)
        if rows != given:
            # a decimal string converts exactly or int() raises
            for row in given:
                for x in row:
                    if not isinstance(x, str) and int(x) != x:
                        raise ValueError(f"entry {x} is not an integer")
        if rows:
            ncols = len(rows[0])
            for row in rows:
                if len(row) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        q = field.q
        for row in rows:
            if row and (min(row) < 0 or max(row) >= q):
                bad = next(x for x in row if not 0 <= x < q)
                raise ValueError(f"entry {bad} out of range for GF({q})")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.data = rows

    @classmethod
    def _of(cls, field: Field, rows: tuple, ncols: int) -> "MatrixGF":
        """A matrix on trusted rows: a tuple of ncols-long tuples of field
        codes, made in this module from checked matrices."""
        M = cls.__new__(cls)
        M.field = field
        M.nrows = len(rows)
        M.ncols = ncols
        M.data = rows
        return M

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "MatrixGF":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, field: Field, columns, nrows: int | None = None) -> "MatrixGF":
        columns = list(map(tuple, columns))
        if not columns:
            if nrows is None:
                raise ValueError("nrows required for a matrix with no columns")
            return cls(field, [()] * nrows, 0)
        if len(set(map(len, columns))) > 1:
            raise ValueError("ragged columns")
        return cls(field, zip(*columns), len(columns))

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        if not self.data:
            return [()] * self.ncols
        return list(zip(*self.data))

    def hstack(self, other: "MatrixGF") -> "MatrixGF":
        if other.field != self.field or other.nrows != self.nrows:
            raise ValueError("shape or field mismatch")
        return MatrixGF._of(
            self.field,
            tuple(a + b for a, b in zip(self.data, other.data)),
            self.ncols + other.ncols,
        )

    def drop_column(self, j: int) -> "MatrixGF":
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        return MatrixGF(
            self.field,
            [row[:j] + row[j + 1 :] for row in self.data],
            self.ncols - 1,
        )

    def mul_vector(self, vec) -> tuple[int, ...]:
        f = self.field
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def scale(self, s: int) -> "MatrixGF":
        f = self.field
        return MatrixGF(
            self.field, [[f.mul(s, x) for x in row] for row in self.data], self.ncols
        )

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.data))

    def __repr__(self):
        return f"MatrixGF({self.field!r}, {self.nrows}x{self.ncols})"


def rref(M: MatrixGF) -> tuple[MatrixGF, int, list[int]]:
    """Reduced row echelon form: returns (R, rank, pivot_columns).

    Ties break toward the lowest row and column index, so the output is a
    canonical representative of the row space.
    """
    f = M.field
    rows = [list(r) for r in M.data]
    nrows, ncols = M.nrows, M.ncols
    pivots: list[int] = []
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        sel = None
        for i in range(pr, nrows):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = f.inv(rows[pr][col])
        if inv != 1:
            rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for i in range(nrows):
            if i != pr and rows[i][col] != 0:
                c = f.neg(rows[i][col])
                rows[i] = [f.add(x, f.mul(c, px)) for x, px in zip(rows[i], prow)]
        pivots.append(col)
        pr += 1
    return MatrixGF._of(f, tuple(map(tuple, rows)), ncols), pr, pivots


def rank(M: MatrixGF) -> int:
    return rref(M)[1]


def row_space_basis(M: MatrixGF) -> MatrixGF:
    """Canonical full-rank basis of the row space (rref minus zero rows)."""
    R, rk, _ = rref(M)
    return MatrixGF._of(M.field, R.data[:rk], M.ncols)


def kernel_basis(M: MatrixGF) -> MatrixGF:
    """Canonical basis of the right null space {v : M v = 0}, one row per
    free column of the rref, ordered by free column index."""
    R, _, pivots = rref(M)
    f = R.field
    pivot_set = set(pivots)
    free = [c for c in range(R.ncols) if c not in pivot_set]
    rows = []
    for fc in free:
        vec = [0] * R.ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            e = R.data[i][fc]
            if e:
                vec[pc] = f.neg(e)
        rows.append(vec)
    return MatrixGF._of(f, tuple(map(tuple, rows)), R.ncols)

