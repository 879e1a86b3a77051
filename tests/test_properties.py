"""Property tests: the MacWilliams involution on weight pairs, the
matrix text format round trip, and the field axioms."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crcodes.codes import LinearCode, macwilliams_transform, weight_pair  # noqa: E402
from crcodes.field import GF  # noqa: E402
from crcodes.matio import format_matrix, parse_matrix  # noqa: E402
from crcodes.matrix import MatrixGF  # noqa: E402

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)

# the same examples on every run, and no example database on disk
FIXED = settings(derandomize=True, database=None, deadline=None)


@st.composite
def matrices(draw, max_rows=4, max_cols=6, min_cols=1):
    q = draw(st.sampled_from(FIELD_ORDERS))
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    entry = st.integers(0, q - 1)
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return MatrixGF(GF(q), rows, ncols)


@settings(FIXED, max_examples=60)
@given(matrices(max_rows=3, max_cols=6))
def test_weight_pair_is_a_macwilliams_pair(H):
    code = LinearCode.from_parity(H)
    q = code.field.q
    counts, dual_counts = weight_pair(code)
    assert sum(counts) == q**code.k and sum(dual_counts) == q**code.redundancy
    assert macwilliams_transform(counts, q) == dual_counts
    assert macwilliams_transform(dual_counts, q) == counts
    assert weight_pair(code.dual()) == (dual_counts, counts)


comments = st.none() | st.text(
    st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n"), max_size=40
)


@settings(FIXED, max_examples=100)
@given(matrices(min_cols=0), comments)
def test_format_and_parse_are_inverse(M, comment):
    back = parse_matrix(format_matrix(M, comment))
    assert back == M
    assert back.field == M.field


PRIME_POWERS_TO_64 = (
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
    27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64,
)


@st.composite
def field_elements(draw):
    """A field GF(q), q <= 64, and three of its elements."""
    q = draw(st.sampled_from(PRIME_POWERS_TO_64))
    return GF(q), *(draw(st.integers(0, q - 1)) for _ in range(3))


@settings(FIXED, max_examples=300)
@given(field_elements(), st.integers(0, 130))
def test_field_axioms(elements, e):
    f, a, b, c = elements
    add, mul = f.add, f.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == mul(a, 1) == a
    assert add(a, f.neg(a)) == 0
    assert add(f.sub(a, b), b) == a
    if b:
        assert mul(f.inv(b), b) == 1
        assert mul(mul(a, f.inv(b)), b) == a
    power = 1
    for _ in range(e):
        power = mul(power, a)
    assert f._raw_pow(a, e) == power
    if a:
        assert mul(f._raw_pow(f.inv(a), e), power) == 1
