"""Constructors: parity-check builders, plane point sets, the catalog."""

from bisect import bisect_right

import pytest

from crcodes import constructions
from crcodes.codes import (
    LinearCode,
    is_antipodal,
    min_distance,
    nonzero_weights,
    num_pg_points,
    pg_points,
    weight_pair,
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


# (family, parameters, d): three columns on one line give d = 3, so the
# arc points have d = 3 from h = 3 on and the external lines from q/h = 3 on
ARC_DISTANCES = [
    ("v", {"q": 4}, 4),
    ("v", {"q": 8}, 3),
    ("v", {"q": 16}, 3),
    ("vi", {"q": 4, "h": 2}, 4),
    ("vi", {"q": 8, "h": 2}, 4),
    ("vi", {"q": 16, "h": 2}, 4),
    ("vi", {"q": 32, "h": 2}, 4),
    ("vi", {"q": 8, "h": 4}, 3),
    ("vi", {"q": 16, "h": 4}, 3),
    ("vi", {"q": 16, "h": 8}, 3),
    ("vii", {"q": 8, "h": 2}, 3),
    ("vii", {"q": 16, "h": 4}, 3),
    ("vii", {"q": 8, "h": 4}, 4),
    ("vii", {"q": 16, "h": 8}, 4),
    ("vii", {"q": 32, "h": 16}, 4),
]


def test_arc_families_expect_the_measured_minimum_distance():
    for family, params, d in ARC_DISTANCES:
        desc, code = build_family(family, **params)
        measured = min(nonzero_weights(weight_pair(code)[0]))
        assert desc.d == measured == d, desc.slug


def test_build_family_rejects_bad_parameters():
    with pytest.raises(ParameterRange):
        build_family("i")
    with pytest.raises(ParameterRange):
        build_family("i", m=2, q=3)
    with pytest.raises(ParameterRange):
        build_family("nosuch", q=4)
    with pytest.raises(NotCharacteristicTwo):
        build_family("ii", q=3)


@pytest.mark.parametrize(
    "family,params,error,message",
    [
        ("i", {"m": 1}, ParameterRange, "family i needs m >= 2"),
        ("lifted", {"q": 2, "r": 1}, ParameterRange, "lifted family needs r >= 2"),
        (
            "d1antipodal", {"q": 3}, ParameterRange,
            "the antipodal length-4 family needs q >= 4",
        ),
        # the builder refuses before the expected array would divide by 4
        ("v", {"q": 3}, NotCharacteristicTwo, "hyperovals need q = 2^r >= 4, got 3"),
    ],
)
def test_build_family_range_checks(family, params, error, message):
    with pytest.raises(error) as err:
        build_family(family, **params)
    assert type(err.value) is error
    assert str(err.value) == message


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


# Every member of family_catalog(200) in catalog order, and the sorted
# q*n of those members, so that the member count at bound B is the
# number of entries of CATALOG_200_QN that are at most B.
CATALOG_200 = (
    "i-m2 i-m3 i-m4 i-m5 i-m6 ii-q4 ii-q8 "
    "iii-q3-m1 iii-q3-m2 iii-q3-m3 iii-q4-m1 iii-q4-m2 iii-q5-m1 iii-q5-m2 "
    "iii-q7-m1 iii-q8-m1 iii-q9-m1 iii-q11-m1 iii-q13-m1 "
    "iv-q4-n3 iv-q5-n3 iv-q5-n4 iv-q7-n3 iv-q7-n4 iv-q7-n5 iv-q7-n6 "
    "iv-q8-n3 iv-q8-n4 iv-q8-n5 iv-q8-n6 iv-q8-n7 "
    "iv-q9-n3 iv-q9-n4 iv-q9-n5 iv-q9-n6 iv-q9-n7 iv-q9-n8 "
    "iv-q11-n3 iv-q11-n4 iv-q11-n5 iv-q11-n6 iv-q11-n7 iv-q11-n8 iv-q11-n9 "
    "iv-q11-n10 "
    "iv-q13-n3 iv-q13-n4 iv-q13-n5 iv-q13-n6 iv-q13-n7 iv-q13-n8 iv-q13-n9 "
    "iv-q13-n10 iv-q13-n11 iv-q13-n12 "
    "iv-q16-n3 iv-q16-n4 iv-q16-n5 iv-q16-n6 iv-q16-n7 iv-q16-n8 iv-q16-n9 "
    "iv-q16-n10 iv-q16-n11 iv-q16-n12 "
    "iv-q17-n3 iv-q17-n4 iv-q17-n5 iv-q17-n6 iv-q17-n7 iv-q17-n8 iv-q17-n9 "
    "iv-q17-n10 iv-q17-n11 "
    "iv-q19-n3 iv-q19-n4 iv-q19-n5 iv-q19-n6 iv-q19-n7 iv-q19-n8 iv-q19-n9 "
    "iv-q19-n10 "
    "iv-q23-n3 iv-q23-n4 iv-q23-n5 iv-q23-n6 iv-q23-n7 iv-q23-n8 "
    "iv-q25-n3 iv-q25-n4 iv-q25-n5 iv-q25-n6 iv-q25-n7 iv-q25-n8 "
    "iv-q27-n3 iv-q27-n4 iv-q27-n5 iv-q27-n6 iv-q27-n7 "
    "iv-q29-n3 iv-q29-n4 iv-q29-n5 iv-q29-n6 "
    "iv-q31-n3 iv-q31-n4 iv-q31-n5 iv-q31-n6 "
    "iv-q32-n3 iv-q32-n4 iv-q32-n5 iv-q32-n6 "
    "iv-q37-n3 iv-q37-n4 iv-q37-n5 iv-q41-n3 iv-q41-n4 iv-q43-n3 iv-q43-n4 "
    "iv-q47-n3 iv-q47-n4 iv-q49-n3 iv-q49-n4 iv-q53-n3 iv-q59-n3 iv-q61-n3 "
    "iv-q64-n3 "
    "v-q4 vi-q4-h2 vi-q8-h2 vii-q4-h2 vii-q8-h4 "
    "lifted-q2-r2 lifted-q2-r3 lifted-q2-r4 lifted-q2-r5 lifted-q2-r6 "
    "lifted-q3-r2 lifted-q3-r3 lifted-q4-r2 lifted-q5-r2 "
    "d1antipodal-q4 d1antipodal-q5 d1antipodal-q7 d1antipodal-q8 "
    "d1antipodal-q9 d1antipodal-q11 d1antipodal-q13 d1antipodal-q16 "
    "d1antipodal-q17 d1antipodal-q19 d1antipodal-q23 d1antipodal-q25 "
    "d1antipodal-q27 d1antipodal-q29 d1antipodal-q31 d1antipodal-q32 "
    "d1antipodal-q37 d1antipodal-q41 d1antipodal-q43 d1antipodal-q47 "
    "d1antipodal-q49"
).split()
CATALOG_200_QN = [
    8, 9, 12, 12, 15, 16, 16, 16, 20, 20, 21, 24, 24, 24, 24, 24, 24, 25,
    27, 27, 28, 28, 32, 32, 32, 33, 35, 36, 36, 36, 39, 40, 42, 44, 44, 45,
    48, 48, 48, 49, 51, 52, 52, 54, 55, 56, 57, 63, 64, 64, 64, 64, 64, 65,
    66, 68, 68, 69, 72, 75, 76, 76, 77, 78, 80, 80, 80, 80, 80, 81, 81, 81,
    85, 87, 88, 91, 92, 92, 93, 95, 96, 96, 96, 99, 100, 100, 102, 104, 108,
    108, 108, 110, 111, 112, 114, 115, 116, 116, 117, 119, 121, 123, 124,
    124, 125, 125, 128, 128, 128, 128, 129, 130, 133, 135, 136, 138, 141,
    143, 144, 145, 147, 148, 148, 150, 150, 152, 153, 155, 156, 159, 160,
    160, 161, 162, 164, 164, 169, 170, 171, 172, 172, 174, 175, 176, 177,
    183, 184, 185, 186, 187, 188, 188, 189, 190, 192, 192, 192, 192, 196,
    196, 200,
]


def test_family_catalog_members_up_to_bound_200(monkeypatch):
    catalog = family_catalog(200)
    assert [desc.slug for desc, _ in catalog] == CATALOG_200
    qn = {desc.slug: code.field.q * code.n for desc, code in catalog}
    assert sorted(qn.values()) == CATALOG_200_QN

    calls = []

    def record(family, **params):
        calls.append("-".join([family] + [f"{k}{v}" for k, v in params.items()]))

    monkeypatch.setattr(constructions, "build_family", record)
    for bound in range(4, 201):
        calls.clear()
        family_catalog(bound)
        assert len(calls) == bisect_right(CATALOG_200_QN, bound), bound
        assert calls == [slug for slug in CATALOG_200 if qn[slug] <= bound], bound


def test_arc_failure_is_an_assertion():
    assert issubclass(ArcPropertyFailed, AssertionError)
    assert not issubclass(ArcPropertyFailed, ValueError)
    assert isinstance(
        FamilyDescriptor("x", (), 1, 1, 1, 1, None), FamilyDescriptor
    )
