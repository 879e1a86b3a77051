"""Matrix layer: shape handling, row reduction, kernels."""

import random
from fractions import Fraction

import pytest

from crcodes.classify import enumerate_rho1
from crcodes.constructions import family_catalog
from crcodes.field import GF
from crcodes.matrix import MatrixGF, kernel_basis, rank, row_space_basis, rref
from crcodes.regularity import complete_regularity


def _random_matrix(rng, field, nrows, ncols):
    return MatrixGF(
        field,
        [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)],
        ncols,
    )


def test_construction_and_accessors():
    f = GF(3)
    m = MatrixGF(f, [[0, 1, 2], [2, 0, 1]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.data[1] == (2, 0, 1)
    assert m.column(2) == (2, 1)
    assert m.columns() == [(0, 2), (1, 0), (2, 1)]
    assert MatrixGF.from_columns(f, m.data).columns() == [(0, 1, 2), (2, 0, 1)]
    assert repr(m) == "MatrixGF(GF(3), 2x3)"
    with pytest.raises(ValueError, match="^ragged rows$"):
        MatrixGF(f, [[0, 1], [1]])
    with pytest.raises(ValueError, match=r"^entry 3 out of range for GF\(3\)$"):
        MatrixGF(f, [[0, 3]])


def test_constructor_checks_what_it_is_given():
    f = GF(3)
    with pytest.raises(ValueError, match="^ragged rows$"):
        MatrixGF(f, [[5], [1, 2]])
    # the first bad entry in row-major order is named
    with pytest.raises(ValueError, match=r"^entry 5 out of range for GF\(3\)$"):
        MatrixGF(f, [[0, 1], [5, 7]])
    with pytest.raises(ValueError, match=r"^entry 7 out of range for GF\(3\)$"):
        MatrixGF(f, [[0, 1], [2, 7]])
    with pytest.raises(ValueError, match=r"^entry -1 out of range for GF\(3\)$"):
        MatrixGF(f, [[0, 2], [-1, 1]])
    with pytest.raises(ValueError, match="^ncols required for a matrix with no rows$"):
        MatrixGF(f, [])
    with pytest.raises(ValueError):
        MatrixGF(f, [["x"]])
    m = MatrixGF(f, [[True, "2"], (0, 1)])
    assert m.data == ((1, 2), (0, 1))
    assert all(type(x) is int for row in m.data for x in row)
    # an entry that int() would change is refused, never truncated
    with pytest.raises(ValueError, match=r"^entry 1\.9 is not an integer$"):
        MatrixGF(GF(2), [[1.9, 0.2, True]])
    with pytest.raises(ValueError, match="^entry 5/2 is not an integer$"):
        MatrixGF(f, [["1", 2], [0, Fraction(5, 2)]])
    with pytest.raises(ValueError, match=r"^entry 2\.5 is not an integer$"):
        MatrixGF.from_columns(f, [(1, 2.5)])
    assert MatrixGF(f, [[2.0, Fraction(4, 2)]]).data == ((2, 2),)


def test_empty_shapes_transpose():
    f = GF(3)
    empty = MatrixGF(f, [], 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    assert empty.columns() == [(), (), ()]
    thin = MatrixGF.from_columns(f, [], 2)
    assert (thin.nrows, thin.ncols, thin.data) == (2, 0, ((), ()))
    assert thin.columns() == []
    flat = MatrixGF.from_columns(f, [(), ()])
    assert (flat.nrows, flat.ncols) == (0, 2)
    with pytest.raises(ValueError, match="^nrows required"):
        MatrixGF.from_columns(f, [])


def test_from_columns_rejects_ragged_columns():
    f = GF(3)
    for columns in ([(1, 0), (0, 1, 2)], [(1, 0, 2), (0, 1)]):
        with pytest.raises(ValueError, match="^ragged columns$"):
            MatrixGF.from_columns(f, columns)
    with pytest.raises(ValueError, match=r"^entry 3 out of range for GF\(3\)$"):
        MatrixGF.from_columns(f, [(1, 0), (3, 1)])


def test_trusted_matrices_pass_the_public_checks(monkeypatch):
    """Every matrix made through MatrixGF._of is one the public
    constructor accepts unchanged, and no result depends on which of
    the two built it."""

    def run():
        catalog = family_catalog(48)
        return repr(
            (
                [(d, c.H.data, c.G.data, complete_regularity(c)) for d, c in catalog],
                enumerate_rho1(3, 2, 5),
                enumerate_rho1(2, 2, 6),
                enumerate_rho1(2, 3, 6),
                enumerate_rho1(3, 3, 5),
            )
        )

    trusted = run()
    built = []

    def checked(cls, field, rows, ncols):
        M = MatrixGF(field, rows, ncols)
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert (M.data, M.ncols) == (rows, ncols)
        built.append(M)
        return M

    monkeypatch.setattr(MatrixGF, "_of", classmethod(checked))
    assert run() == trusted
    assert len(built) > 500


def test_stack_scale_drop():
    f = GF(4)
    a = MatrixGF(f, [[1, 2], [3, 0]])
    b = MatrixGF(f, [[2], [1]])
    assert a.hstack(b).ncols == 3
    assert a.drop_column(0).columns() == [(2, 0)]
    doubled = a.scale(2)
    assert doubled.data[0] == (f.mul(2, 1), f.mul(2, 2))
    with pytest.raises(ValueError):
        a.hstack(MatrixGF(f, [[1, 1]]))


def test_drop_column_checks_its_index():
    f = GF(3)
    a = MatrixGF(f, [[1, 2, 0], [0, 1, 2]])
    cols = a.columns()
    for j in range(a.ncols):
        dropped = a.drop_column(j)
        assert dropped.columns() == cols[:j] + cols[j + 1 :]
        assert (dropped.nrows, dropped.ncols) == (2, 2)
    for j in (-1, a.ncols, a.ncols + 2):
        with pytest.raises(IndexError):
            a.drop_column(j)


def test_column_checks_its_index():
    f = GF(3)
    a = MatrixGF(f, [[1, 2, 0], [0, 1, 2]])
    empty = MatrixGF(f, [], 3)
    assert [a.column(j) for j in range(a.ncols)] == a.columns()
    assert [empty.column(j) for j in range(empty.ncols)] == empty.columns()
    # a negative index would read from the right, and a matrix of no
    # rows has no entry to fail on
    for m, j in ((a, -1), (a, a.ncols), (empty, -1), (empty, 7)):
        with pytest.raises(IndexError):
            m.column(j)


def _product(a, b):
    """a times b, one mul_vector per column of b."""
    return MatrixGF.from_columns(
        a.field, [a.mul_vector(col) for col in b.columns()], a.nrows
    )


def test_matrix_multiplication():
    f = GF(5)
    a = MatrixGF(f, [[1, 2], [3, 4]])
    i = MatrixGF(f, [[1, 0], [0, 1]])
    assert _product(a, i) == a
    assert _product(i, a) == a
    assert a.mul_vector((1, 1)) == (3, 2)
    rng = random.Random(11)
    for _ in range(20):
        x = _random_matrix(rng, f, 2, 3)
        y = _random_matrix(rng, f, 3, 4)
        z = _random_matrix(rng, f, 4, 2)
        assert _product(_product(x, y), z) == _product(x, _product(y, z))


def test_rref_invariants():
    rng = random.Random(23)
    for q in (2, 3, 4, 9):
        f = GF(q)
        for _ in range(25):
            m = _random_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 6))
            r, rk, pivots = rref(m)
            assert rk == len(pivots)
            assert rank(m) == rk
            # pivot columns are standard basis vectors, in order
            for i, j in enumerate(pivots):
                col = r.column(j)
                assert col[i] == 1
                assert all(x == 0 for k, x in enumerate(col) if k != i)
            # reduction preserves the row space
            assert _row_space(f, m) == _row_space(f, r)


def _row_space(f, m):
    """Oracle: the literal set of all row-combinations, built from scratch."""
    from itertools import product

    vecs = set()
    rows = m.data
    for coeffs in product(range(f.q), repeat=len(rows)):
        acc = [0] * m.ncols
        for c, row in zip(coeffs, rows):
            if c:
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, row)]
        vecs.add(tuple(acc))
    return vecs


def test_row_space_basis_canonical():
    f = GF(2)
    a = MatrixGF(f, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    b = row_space_basis(a)
    assert b.nrows == 2
    assert _row_space(f, a) == _row_space(f, b)


def test_kernel_basis():
    rng = random.Random(37)
    for q in (2, 3, 4, 8):
        f = GF(q)
        for _ in range(20):
            m = _random_matrix(rng, f, rng.randrange(1, 4), rng.randrange(2, 7))
            k = kernel_basis(m)
            assert k.nrows == m.ncols - rank(m)
            if k.nrows:
                assert rank(k) == k.nrows
                for row in k.data:
                    assert all(x == 0 for x in m.mul_vector(row))


def test_matrix_equality_and_hash():
    f = GF(3)
    a = MatrixGF(f, [[1, 2]])
    assert a == MatrixGF(f, [[1, 2]])
    assert hash(a) == hash(MatrixGF(f, [[1, 2]]))
    assert a != MatrixGF(GF(5), [[1, 2]])
    assert MatrixGF.zeros(f, 2, 2) == MatrixGF(f, [[0, 0], [0, 0]])

