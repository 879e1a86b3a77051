"""Code objects, word enumeration, weight machinery, projective complements."""

import random
from collections import Counter
from itertools import product
from math import comb

import pytest

from crcodes import codes
from crcodes.budgets import Budgets, BudgetExceeded
from crcodes.classify import Rho1Form, TrivialCode, classify_rho1, enumerate_rho1
from crcodes.codes import (
    AlreadyFullPointSet,
    LinearCode,
    LowerBound,
    NonIntegerResult,
    NotProjective,
    canonical_column,
    complementary_parity_columns,
    external_distance,
    is_antipodal,
    is_equidistant,
    iter_projective,
    macwilliams_transform,
    min_distance,
    nonzero_weights,
    num_pg_points,
    pg_points,
    weight_distribution,
    weight_pair,
)
from crcodes.constructions import family_catalog, hamming_code, hamming_parity
from crcodes.field import GF
from crcodes.matrix import MatrixGF
from crcodes.regularity import complete_regularity


def _span_oracle(M):
    """All row combinations, computed the slow direct way."""
    f = M.field
    out = set()
    for coeffs in product(range(f.q), repeat=M.nrows):
        acc = [0] * M.ncols
        for c, row in zip(coeffs, M.data):
            if c:
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, row)]
        out.add(tuple(acc))
    return out


def _weights_oracle(code):
    counts = [0] * (code.n + 1)
    for word in _span_oracle(code.G):
        counts[sum(1 for x in word if x)] += 1
    return counts


def _random_code(rng, q, n, redundancy):
    f = GF(q)
    H = MatrixGF(
        f, [[rng.randrange(q) for _ in range(n)] for _ in range(redundancy)], n
    )
    return LinearCode.from_parity(H)


def test_canonical_column():
    f = GF(4)
    assert canonical_column(f, (0, 0)) == (0, 0)
    assert canonical_column(f, (0, 3)) == (0, 1)
    for col in product(range(4), repeat=3):
        canon = canonical_column(f, col)
        if any(col):
            first = next(x for x in canon if x)
            assert first == 1
            # canonical form is a scalar multiple of the original
            scalars = {
                s
                for s in range(1, 4)
                if all(f.mul(s, c) == o for c, o in zip(canon, col))
            }
            assert scalars


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (8, 2)])
def test_pg_points(q, m):
    f = GF(q)
    pts = pg_points(f, m)
    assert len(pts) == num_pg_points(q, m) == (q**m - 1) // (q - 1)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        assert canonical_column(f, pt) == pt
        assert any(pt)


def _assert_code_contract(code):
    """The LinearCode constructor trusts its arguments; check that G and
    H are complementary and orthogonal and that G alone rebuilds the
    same code."""
    assert code.G.ncols == code.H.ncols == code.n
    assert code.G.nrows == code.k
    assert code.k + code.redundancy == code.n
    assert all(not any(code.H.mul_vector(g)) for g in code.G.data)
    again = LinearCode.from_generator(code.G)
    assert again == code
    assert (again.H, again.G, hash(again)) == (code.H, code.G, hash(code))


def test_linear_code_dimensions_and_orthogonality():
    rng = random.Random(3)
    for q in (2, 3, 4, 9):
        f = GF(q)
        for _ in range(10):
            code = _random_code(rng, q, rng.randrange(3, 8), rng.randrange(1, 4))
            rows = [
                [rng.randrange(q) for _ in range(code.n)]
                for _ in range(rng.randrange(4))
            ]
            # dual swaps the two roles
            d = code.dual()
            assert d.k == code.redundancy
            assert d.dual() == code
            derived = [
                code,
                LinearCode.from_generator(MatrixGF(f, rows, code.n)),
                d,
                code.punctured(rng.randrange(code.n)),
                code.extended(),
            ]
            if q <= 3:
                derived.append(code.lifted(2))
            for c in derived:
                _assert_code_contract(c)
        m = 2 if q == 9 else 3
        pts = pg_points(f, m)
        projective = LinearCode.from_parity(MatrixGF.from_columns(f, pts[:-2], m))
        _assert_code_contract(projective.complementary())


def test_parity_side_never_builds_the_generator(monkeypatch):
    # H, its columns and k are all that the coset analysis and the
    # radius-1 census read, so none of them may build G
    real_kernel = codes.kernel_basis

    def refuse(M):
        raise AssertionError("the generator was built")

    monkeypatch.setattr(codes, "kernel_basis", refuse)
    code = LinearCode.from_parity(hamming_parity(2, 3))
    assert complete_regularity(code).is_completely_regular
    assert isinstance(classify_rho1(code), Rho1Form)
    assert len(enumerate_rho1(2, 2, 6).positives) == 4

    calls = []

    def counting(M):
        calls.append(M)
        return real_kernel(M)

    monkeypatch.setattr(codes, "kernel_basis", counting)
    G = code.G
    assert calls == [code.H]
    assert all(not any(code.H.mul_vector(g)) for g in G.data)
    assert code.G is G and len(calls) == 1


def test_from_parity_reduces_rank():
    f = GF(2)
    H = MatrixGF(f, [[1, 1, 0], [1, 1, 0]])
    code = LinearCode.from_parity(H)
    assert code.redundancy == 1
    assert code.k == 2


def test_is_nontrivial():
    # the classification refuses k = 1 and k = n - 1 and measures
    # k = 2 and k = n - 2
    f = GF(2)
    two_rows = MatrixGF(f, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]])
    for k, code in (
        (1, LinearCode.from_generator(MatrixGF(f, [[1] * 5]))),
        (4, LinearCode.from_parity(MatrixGF(f, [[1] * 5]))),
    ):
        with pytest.raises(TrivialCode, match=rf"^\[5,{k}\] is outside 2 <= k <= n-2$"):
            classify_rho1(code)
    for k, code in (
        (2, LinearCode.from_generator(two_rows)),
        (3, LinearCode.from_parity(two_rows)),
    ):
        assert code.k == k
        classify_rho1(code)


def test_punctured_and_extended_are_inverse_at_the_parity_coordinate():
    code = hamming_code(2, 3)
    ext = code.extended()
    assert (ext.n, ext.k) == (8, 4)
    # every extended word sums to zero
    f = code.field
    for word in _span_oracle(ext.G):
        acc = 0
        for x in word:
            acc = f.add(acc, x)
        assert acc == 0
    assert ext.punctured(ext.n - 1) == code
    with pytest.raises(ValueError):
        code.punctured(7)
    # the zero code stays the zero code on both sides
    for q in (2, 3, 4):
        f = GF(q)
        eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
        zero = LinearCode.from_parity(MatrixGF(f, eye4))
        assert zero.k == 0
        ext = zero.extended()
        eye5 = [[int(i == j) for j in range(5)] for i in range(5)]
        assert ext == LinearCode.from_parity(MatrixGF(f, eye5))
        assert ext.punctured(ext.n - 1) == zero


def _extended_by_generator(code):
    """The extension built from the generator: append to each row the
    negated sum of its entries, then reduce through the dual."""
    f = code.field
    rows = []
    for row in code.G.data:
        acc = 0
        for x in row:
            acc = f.add(acc, x)
        rows.append(list(row) + [f.neg(acc)])
    return LinearCode.from_generator(MatrixGF(f, rows, code.n + 1))


def test_extended_parity_check_matches_the_generator_route():
    cases = [hamming_code(2, m) for m in range(2, 9)]
    for q in (2, 3, 4):
        f = GF(q)
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        cases.append(LinearCode.from_parity(MatrixGF(f, eye)))
        cases.append(LinearCode.from_parity(MatrixGF(f, [], 4)))
    rng = random.Random(41)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = GF(q)
        for _ in range(6):
            m = rng.randrange(1, 4)
            cols = [
                tuple(rng.randrange(q) for _ in range(m))
                for _ in range(rng.randrange(2, 7))
            ]
            scalar = rng.randrange(1, q)
            cols += [(0,) * m, tuple(f.mul(scalar, x) for x in cols[0])]
            rng.shuffle(cols)
            cases.append(LinearCode.from_parity(MatrixGF.from_columns(f, cols)))
    for code in cases:
        ext = code.extended()
        assert (ext.n, ext.k) == (code.n + 1, code.k)
        assert ext.H == _extended_by_generator(code).H


def test_extended_needs_no_generator(monkeypatch):
    expected = [_extended_by_generator(hamming_code(2, m)) for m in (2, 3, 4)]

    def refuse(M):
        raise AssertionError("extended() built a generator")

    monkeypatch.setattr(codes, "kernel_basis", refuse)
    for m, want in zip((2, 3, 4), expected):
        assert hamming_code(2, m).extended() == want


def _ordered_span(M):
    """(top nonzero message digit, word) for every message, digit 0
    fastest, computed the slow direct way.  product runs its last digit
    fastest, so each digit tuple is reversed to put digit 0 fastest."""
    f = M.field
    out = []
    for digits in product(range(f.q), repeat=M.nrows):
        acc = [0] * M.ncols
        for a, row in zip(reversed(digits), M.data):
            acc = [f.add(x, f.mul(a, y)) for x, y in zip(acc, row)]
        out.append((next((a for a in digits if a), 0), tuple(acc)))
    return out


def _code_with_repeats(rng, q, n, redundancy):
    """A random code whose parity check has zero and repeated columns."""
    cols = [tuple(rng.randrange(q) for _ in range(redundancy))]
    while len(cols) < n:
        pick = rng.randrange(4)
        if pick == 0:
            cols.append((0,) * redundancy)
        elif pick == 1:
            cols.append(rng.choice(cols))
        else:
            cols.append(tuple(rng.randrange(q) for _ in range(redundancy)))
    rng.shuffle(cols)
    return LinearCode.from_parity(MatrixGF.from_columns(GF(q), cols, redundancy))


def test_iter_projective_matches_direct_span():
    rng = random.Random(17)
    fixed = [
        LinearCode.from_generator(
            MatrixGF(GF(q), [[rng.randrange(q) for _ in range(5)] for _ in range(2)], 5)
        )
        for q in (2, 3, 4, 5, 9)
    ]
    drawn = [
        _code_with_repeats(rng, q, rng.randrange(3, 7), rng.randrange(1, 4))
        for q in (2, 3, 4, 5, 7, 8, 9)
        for _ in range(6)
    ]
    drawn = [c for c in drawn if c.field.q ** max(c.k, c.redundancy) <= 729]
    branches = set()
    for code in fixed + drawn:
        f = code.field
        q = f.q
        for M in (code.G, code.H):
            ordered = _ordered_span(M)
            words = list(iter_projective(M))
            # the representatives are the words whose top nonzero digit
            # is 1, in the order of the walk over every message
            assert words == [w for top, w in ordered if top == 1]
            # each nonzero word is a nonzero multiple of exactly one
            multiples = Counter(
                tuple(f.mul(c, x) for x in w) for w in words for c in range(1, q)
            )
            assert set(multiples) == _span_oracle(M) - {(0,) * M.ncols}
            assert set(multiples.values()) <= {1}
            # Theorem 4.1 scales by the first full-weight word it meets
            first_full = next((w for w in words if all(w)), None)
            assert first_full == next((w for _, w in ordered if all(w)), None)
        assert weight_pair(code) == (_weights_oracle(code), _weights_oracle(code.dual()))
        branches.add(code.k <= code.redundancy)
    assert branches == {True, False}


def test_weight_pair_walks_the_code_on_a_tie(monkeypatch):
    # k = n - k: both sides have q^k words, and the code's own G is walked
    code = LinearCode.from_generator(MatrixGF(GF(3), [[1, 0, 1, 1], [0, 1, 2, 0]]))
    assert code.k == code.redundancy and code.G != code.H
    want = (weight_distribution(code), weight_distribution(code.dual()))
    walked = []
    real = codes._rowspace_weights

    def recorded(M, budget):
        walked.append(M)
        return real(M, budget)

    monkeypatch.setattr(codes, "_rowspace_weights", recorded)
    assert weight_pair(code) == want
    assert walked == [code.G]


def _projective_weights(M):
    """[A_0, ..., A_n] of the row space of M from iter_projective: q - 1
    words per class, and the zero word."""
    q, n = M.field.q, M.ncols
    counts = [1] + [0] * n
    for word in iter_projective(M):
        counts[n - word.count(0)] += q - 1
    return counts


def test_binary_weights_match_the_projective_walk():
    # a binary row space is walked as ints in Gray-code order, not by
    # iter_projective: both sides of every binary catalog-800 member with
    # at most 2^11 words, seeded random codes with zero and repeated
    # columns, and the whole space, whose parity check has no rows
    rng = random.Random(41)
    catalog = [code for _, code in family_catalog(800) if code.field.q == 2]
    drawn = [
        _code_with_repeats(rng, 2, rng.randrange(3, 15), rng.randrange(1, 10))
        for _ in range(24)
    ]
    whole = LinearCode.from_parity(MatrixGF(GF(2), [[0, 0, 0]], 3))
    sides = [M for code in catalog + drawn + [whole] for M in (code.G, code.H)]
    walked = [M for M in sides if M.nrows <= 11]
    for M in walked:
        assert codes._rowspace_weights(M, Budgets()) == _projective_weights(M)
    assert len(catalog) == 7 and len(walked) > 50
    assert {M.nrows for M in walked} >= {0, 1, 11}
    assert any(not any(col) for code in drawn for col in code.H.columns())


def test_weight_distribution_known_values():
    assert weight_distribution(hamming_code(2, 3)) == [1, 0, 0, 7, 7, 0, 0, 1]
    ext = hamming_code(2, 3).extended()
    assert weight_distribution(ext) == [1, 0, 0, 0, 14, 0, 0, 0, 1]


def test_weight_distribution_matches_oracle():
    rng = random.Random(29)
    for q in (2, 3, 4):
        for _ in range(8):
            code = _random_code(rng, q, rng.randrange(4, 7), rng.randrange(1, 4))
            assert weight_distribution(code) == _weights_oracle(code)


def test_weight_distribution_budget():
    code = hamming_code(2, 3)
    with pytest.raises(BudgetExceeded) as err:
        weight_distribution(code, Budgets(max_codewords=15))
    assert err.value.budget == "max_codewords"
    assert err.value.needed == 16


def _krawtchouk(q, n, j, i):
    """K_j(i) for GF(q)^n by its defining sum."""
    return sum(
        (-1) ** t * (q - 1) ** (j - t) * comb(i, t) * comb(n - i, j - t)
        for t in range(min(i, j) + 1)
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 49])
def test_krawtchouk_recurrence_against_the_sum(q):
    for n in range(16):
        for i in range(n + 1):
            for top in (0, n // 2, n):
                assert codes._krawtchouk_values(q, n, i, top) == [
                    _krawtchouk(q, n, j, i) for j in range(top + 1)
                ], (n, i, top)


def test_macwilliams_matches_dual_enumeration():
    rng = random.Random(41)
    for q in (2, 3, 4, 8):
        for _ in range(8):
            code = _random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4))
            direct = weight_distribution(code.dual())
            via_transform = macwilliams_transform(weight_distribution(code), q)
            assert via_transform == direct


def test_macwilliams_is_an_involution():
    code = hamming_code(3, 2)
    counts = weight_distribution(code)
    q = 3
    assert macwilliams_transform(macwilliams_transform(counts, q), q) == counts


def test_macwilliams_rejects_bad_counts():
    with pytest.raises(ValueError):
        macwilliams_transform([0, 4], 2)
    # not realizable as a binary linear code of length 3
    with pytest.raises(NonIntegerResult):
        macwilliams_transform([1, 2, 0, 0], 2)


def test_weight_predicates():
    simplex = hamming_code(2, 3).dual()
    assert is_equidistant(simplex)
    assert not is_equidistant(hamming_code(2, 3))
    rep = LinearCode.from_generator(MatrixGF(GF(3), [[1, 1, 1, 1]]))
    assert is_antipodal(rep)
    no_full_word = LinearCode.from_generator(MatrixGF(GF(3), [[1, 1, 0]]))
    assert not is_antipodal(no_full_word)
    assert nonzero_weights([1, 0, 3, 0, 3, 1]) == [2, 4, 5]


def test_external_distance():
    assert external_distance(hamming_code(2, 3)) == 1
    assert external_distance(hamming_code(2, 3).extended()) == 2


def test_min_distance_ladder():
    f = GF(2)
    zero_col = LinearCode.from_parity(MatrixGF(f, [[0, 1, 1], [0, 1, 0]]))
    assert min_distance(zero_col) == 1
    repeated = LinearCode.from_parity(MatrixGF(f, [[1, 1, 0], [0, 0, 1]]))
    assert min_distance(repeated) == 2
    assert min_distance(hamming_code(2, 3)) == 3
    assert min_distance(hamming_code(2, 3).extended()) == 4
    for d in (5, 6, 7):
        rep = LinearCode.from_generator(MatrixGF(f, [[1] * d]))
        assert min_distance(rep) == d


def test_min_distance_lower_bound_under_budget():
    rep = LinearCode.from_generator(MatrixGF(GF(2), [[1] * 6]))
    got = min_distance(rep, Budgets(max_codewords=1))
    assert isinstance(got, LowerBound)
    assert got == 6
    assert got.exact is False
    assert "LowerBound" in repr(got)


def test_min_distance_matches_enumeration():
    rng = random.Random(59)
    for q in (2, 3, 4):
        for _ in range(10):
            code = _random_code(rng, q, rng.randrange(4, 8), rng.randrange(1, 4))
            if code.k == 0:
                continue
            counts = _weights_oracle(code)
            nz = [w for w in range(1, code.n + 1) if counts[w]]
            if nz:
                assert min_distance(code) == nz[0]


def test_complementary_weight_identity():
    # a projective column set and its complement cover each hyperplane
    # complementarily, so the two weights of any x sum to q^(m-1); both
    # sides must be read off the stored (row-reduced) parity check, since
    # reduction moves the columns to a different frame
    rng = random.Random(67)
    for q, m in ((2, 3), (3, 2), (3, 3), (4, 2)):
        f = GF(q)
        pts = pg_points(f, m)
        while True:
            size = rng.randrange(m, len(pts) - 1)
            chosen = sorted(rng.sample(pts, size))
            code = LinearCode.from_parity(MatrixGF.from_columns(f, chosen, m))
            if code.redundancy == m:
                break
        comp = complementary_parity_columns(code)
        assert comp.ncols == len(pts) - size
        stored = code.H.columns()
        for x in product(range(q), repeat=m):
            if not any(x):
                continue
            w = sum(1 for c in stored if _dot(f, x, c))
            wbar = sum(1 for c in comp.columns() if _dot(f, x, c))
            assert w + wbar == q ** (m - 1)


def _dot(f, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc = f.add(acc, f.mul(a, b))
    return acc


def test_complementary_code_method():
    f = GF(2)
    pts = pg_points(f, 3)
    code = LinearCode.from_parity(MatrixGF.from_columns(f, pts[:4], 3))
    comp_cols = set(complementary_parity_columns(code).columns())
    used = {canonical_column(f, c) for c in code.H.columns()}
    assert len(comp_cols) == 3
    assert comp_cols.isdisjoint(used)
    assert comp_cols | used == set(pts)
    full = LinearCode.from_parity(hamming_parity(2, 3))
    with pytest.raises(AlreadyFullPointSet):
        full.complementary()
    with pytest.raises(NotProjective):
        LinearCode.from_parity(MatrixGF(f, [[0, 1], [0, 1]])).complementary()
    with pytest.raises(NotProjective):
        LinearCode.from_parity(MatrixGF(f, [[1, 1], [1, 1]])).complementary()


def test_complementary_reports_a_zero_column_first():
    # columns (1), (1), (0): a repeated pair before the zero column
    code = LinearCode.from_parity(MatrixGF(GF(2), [[1, 1, 0]]))
    with pytest.raises(NotProjective, match="^parity check has a zero column$"):
        code.complementary()
    assert min_distance(code) == 1


def test_lifted():
    base = hamming_code(2, 2)
    lifted = base.lifted(2)
    assert lifted.field.q == 4
    assert (lifted.n, lifted.k) == (3, 1)
    with pytest.raises(ValueError):
        base.lifted(1)


def test_equality_and_repr():
    a = hamming_code(2, 3)
    b = LinearCode.from_parity(hamming_parity(2, 3))
    assert a == b and hash(a) == hash(b)
    assert a != hamming_code(2, 2)
    assert "[7,4]" in repr(a)
