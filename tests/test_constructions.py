"""Constructors: parity-check builders, plane point sets, the catalog."""

import pytest

from crcodes.codes import (
    LinearCode,
    is_antipodal,
    min_distance,
    num_pg_points,
    pg_points,
)
from crcodes.constructions import (
    ArcPropertyFailed,
    ConstraintViolated,
    FamilyDescriptor,
    NotCharacteristicTwo,
    ParameterRange,
    ProjectivePointSet,
    ZeroScalar,
    antipodal_d1,
    antipodal_d1_pair,
    build_family,
    construction_I,
    construction_II,
    d1_antipodal_code,
    denniston_arc,
    difference_matrix,
    difference_matrix_code,
    extendable_hamming_code,
    external_lines,
    external_lines_code,
    family_catalog,
    hamming_code,
    hamming_parity,
    hyperoval,
    latin_square_code,
    point_set_code,
)
from crcodes.field import GF
from crcodes.matrix import MatrixGF
from crcodes.regularity import complete_regularity, covering_radius


def test_hamming_parity_is_the_lex_point_list():
    H = hamming_parity(3, 2)
    assert H.columns() == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert hamming_parity(2, 3).columns() == pg_points(GF(2), 3)
    with pytest.raises(ParameterRange):
        hamming_parity(2, 0)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_hamming_code_parameters(q, m):
    code = hamming_code(q, m)
    assert code.n == num_pg_points(q, m)
    assert code.redundancy == m
    assert min_distance(code) == 3
    assert covering_radius(code) == 1


def test_construction_I_appends_zero_columns():
    H = hamming_parity(2, 3)
    out = construction_I(H, 2)
    assert out.ncols == H.ncols + 2
    assert out.column(7) == (0, 0, 0) and out.column(8) == (0, 0, 0)
    code = LinearCode.from_parity(out)
    assert code.k == hamming_code(2, 3).k + 2
    assert min_distance(code) == 1
    with pytest.raises(ParameterRange):
        construction_I(H, 0)


def test_construction_II_concatenates_scaled_copies():
    f = GF(4)
    H = MatrixGF(f, [[1, 2], [0, 1]])
    out = construction_II(H, [1, 3])
    assert out.columns() == H.columns() + H.scale(3).columns()
    with pytest.raises(ZeroScalar):
        construction_II(H, [1, 0])
    with pytest.raises(ParameterRange):
        construction_II(H, [])


def test_difference_matrix_layout():
    assert difference_matrix(3, 1).data == ((0, 1, 2), (1, 1, 1))
    D2 = difference_matrix(3, 2)
    assert (D2.nrows, D2.ncols) == (3, 9)
    cols = D2.columns()
    assert all(col[-1] == 1 for col in cols)
    assert cols == sorted(cols)
    assert len(set(cols)) == 9
    with pytest.raises(ParameterRange):
        difference_matrix(3, 0)


def test_difference_matrix_code():
    code = difference_matrix_code(3, 1)
    rep = complete_regularity(code)
    assert rep.is_completely_regular
    assert str(rep.array) == "(6,2;1,6)"
    with pytest.raises(ParameterRange):
        difference_matrix_code(2, 1)


def test_latin_square_code():
    code = latin_square_code(5, 4)
    assert (code.n, code.k) == (4, 2)
    assert min_distance(code) == 3
    assert covering_radius(code) == 2
    # truncation of the m = 1 difference matrix
    full = difference_matrix(5, 1)
    assert code.H == LinearCode.from_parity(
        MatrixGF.from_columns(full.field, full.columns()[:4])
    ).H
    for q, n in ((2, 3), (5, 2), (4, 5)):
        with pytest.raises(ParameterRange):
            latin_square_code(q, n)


def test_antipodal_d1_constraints():
    code = antipodal_d1(4, 2, 3)
    assert (code.n, code.k) == (4, 2)
    assert min_distance(code) == 3
    assert is_antipodal(code.dual())
    # element order is immaterial
    assert antipodal_d1(4, 3, 2).n == 4
    with pytest.raises(ParameterRange):
        antipodal_d1(3, 1, 2)
    for bad in ((2, 2), (1, 3), (0, 2), (2, 9)):
        with pytest.raises(ConstraintViolated):
            antipodal_d1(4, *bad)
    # 2 + 3 + 1 is nonzero over GF(5)
    with pytest.raises(ConstraintViolated):
        antipodal_d1(5, 2, 3)


def test_antipodal_d1_pairs():
    assert antipodal_d1_pair(4) == (2, 3)
    assert antipodal_d1_pair(5) is None
    assert antipodal_d1_pair(7) == (2, 4)
    assert antipodal_d1_pair(8) == (2, 3)
    assert antipodal_d1_pair(9) == (3, 8)
    assert antipodal_d1_pair(11) == (2, 8)
    f = GF(9)
    assert f.add(f.add(3, 8), 1) == 0


def test_d1_antipodal_code_falls_back_when_no_pair_exists():
    with_pair = d1_antipodal_code(4)
    assert is_antipodal(with_pair.dual())
    fallback = d1_antipodal_code(5)
    assert fallback == latin_square_code(5, 4)


def test_point_set_validation():
    f = GF(2)
    with pytest.raises(ValueError):
        ProjectivePointSet(f, 2, ((1, 0),))
    with pytest.raises(ValueError):
        ProjectivePointSet(GF(3), 1, ((0, 2),))
    with pytest.raises(ValueError):
        ProjectivePointSet(f, 1, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        ProjectivePointSet(f, 1, ((1, 0), (0, 1))).line_profile()


def test_hyperoval():
    s = hyperoval(4)
    assert len(s) == 6
    assert s.line_profile() == {0: 6, 2: 15}
    assert len(hyperoval(8)) == 10
    for q in (2, 5, 9):
        with pytest.raises(NotCharacteristicTwo):
            hyperoval(q)


def test_denniston_arcs():
    # degree 2 gives hyperoval-sized arcs
    assert len(denniston_arc(8, 2)) == 10
    assert denniston_arc(8, 2).line_profile() == {0: 28, 2: 45}
    arc = denniston_arc(8, 4)
    assert len(arc) == 28
    assert set(arc.line_profile()) == {0, 4}
    assert len(denniston_arc(16, 2)) == 18
    for q, h in ((8, 3), (8, 8), (8, 1), (9, 2), (2, 2)):
        with pytest.raises(ParameterRange):
            denniston_arc(q, h)


def test_external_lines():
    s = hyperoval(4)
    ext = external_lines(s)
    # q(q-1)/2 external lines, none meeting the point set
    assert len(ext) == 6
    assert len(external_lines(hyperoval(8))) == 28
    code = external_lines_code(s)
    assert (code.n, code.k) == (6, 3)
    assert point_set_code(s).n == 6


def test_extendable_presentation_reaches_distance_4():
    code = extendable_hamming_code(4)
    assert (code.n, code.k) == (5, 3)
    assert min_distance(code) == 3
    assert min_distance(code.extended()) == 4
    # extension quality depends on column scaling: the lexicographic
    # canonical presentation of the same parameters stops at 3
    assert min_distance(hamming_code(4, 2).extended()) == 3
    assert min_distance(extendable_hamming_code(8).extended()) == 4
    with pytest.raises(NotCharacteristicTwo):
        extendable_hamming_code(3)


def test_build_family_descriptor_consistency():
    desc, code = build_family("ii", q=4)
    assert desc.slug == "ii-q4"
    assert desc.params_dict() == {"q": 4}
    assert (desc.n, desc.k) == (code.n, code.k)
    assert str(desc.array) == "(18,15;1,6)"
    desc, code = build_family("iii", q=3, m=2)
    assert (code.n, code.k) == (9, 6)
    assert str(desc.array) == "(18,8;1,18)"
    desc, code = build_family("i", m=2)
    assert (code.n, code.k) == (4, 1)


def test_build_family_rejects_bad_parameters():
    with pytest.raises(ParameterRange):
        build_family("i")
    with pytest.raises(ParameterRange):
        build_family("i", m=2, q=3)
    with pytest.raises(ParameterRange):
        build_family("nosuch", q=4)
    with pytest.raises(NotCharacteristicTwo):
        build_family("ii", q=3)


def test_family_catalog_census(catalog48):
    slugs = [desc.slug for desc, _ in catalog48]
    assert len(slugs) == len(set(slugs)) == 39
    assert slugs == [
        "i-m2", "i-m3", "i-m4",
        "ii-q4",
        "iii-q3-m1", "iii-q3-m2", "iii-q4-m1", "iii-q5-m1",
        "iv-q4-n3", "iv-q5-n3", "iv-q5-n4", "iv-q7-n3", "iv-q7-n4",
        "iv-q7-n5", "iv-q7-n6", "iv-q8-n3", "iv-q8-n4", "iv-q8-n5",
        "iv-q8-n6", "iv-q9-n3", "iv-q9-n4", "iv-q9-n5", "iv-q11-n3",
        "iv-q11-n4", "iv-q13-n3", "iv-q16-n3",
        "v-q4",
        "vi-q4-h2",
        "vii-q4-h2",
        "lifted-q2-r2", "lifted-q2-r3", "lifted-q2-r4", "lifted-q3-r2",
        "d1antipodal-q4", "d1antipodal-q5", "d1antipodal-q7",
        "d1antipodal-q8", "d1antipodal-q9", "d1antipodal-q11",
    ]
    for desc, code in catalog48:
        assert code.field.q * code.n <= 48
        assert (desc.n, desc.k) == (code.n, code.k)
    with pytest.raises(ParameterRange):
        family_catalog(3)


def test_family_catalog_grows_with_the_bound():
    small = family_catalog(8)
    assert [desc.slug for desc, _ in small] == ["i-m2"]


def test_arc_failure_is_an_assertion():
    assert issubclass(ArcPropertyFailed, AssertionError)
    assert not issubclass(ArcPropertyFailed, ValueError)
    assert isinstance(
        FamilyDescriptor("x", (), 1, 1, 1, 1, None), FamilyDescriptor
    )
