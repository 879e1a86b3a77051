"""Acceptance suite: one test per shipped criterion.

Run with  pytest -v tests/test_acceptance.py  to get a single pass/fail
line per criterion.  Every expected value below is frozen; time limits
use wall-clock monotonic time and bound the stated budgets.
"""

import random
import time
from collections import Counter

import pytest

from crcodes import (
    CodeAnalysis,
    LinearCode,
    beta_solve,
    build_family,
    classify_rho1,
    complementary_parity_columns,
    complete_regularity,
    complete_regularity_bruteforce,
    construction_I,
    construction_II,
    difference_matrix_code,
    enumerate_rho1,
    extendable_hamming_code,
    external_lines_code,
    hamming_code,
    hyperoval,
    iter_projective,
    latin_square_code,
    min_distance,
    nonzero_weights,
    point_set_code,
    rho1_intersection_array,
    verify_theorem41,
    weight_distribution,
)
from crcodes.matrix import MatrixGF


def _measured_array(code):
    rep = complete_regularity(code)
    assert rep.is_completely_regular, f"{code} is not completely regular"
    return str(rep.array)


def _timed_array(code, limit):
    t0 = time.monotonic()
    arr = _measured_array(code)
    assert time.monotonic() - t0 < limit
    return arr


def test_criterion_1_intersection_arrays(catalog48):
    by_slug = {d.slug: (d, c) for d, c in catalog48}

    # family (i): extended binary Hamming members
    for m, want in ((2, "(4,3;1,4)"), (3, "(8,7;1,8)"), (4, "(16,15;1,16)")):
        desc, code = by_slug[f"i-m{m}"]
        assert _timed_array(code, 1.0) == want == str(desc.array)

    # family (ii): hyperoval codes; the q=8 member has b0 = (q-1)n = 70
    desc, code = by_slug["ii-q4"]
    assert _timed_array(code, 5.0) == "(18,15;1,6)" == str(desc.array)
    desc8, code8 = build_family("ii", q=8)
    assert _timed_array(code8, 5.0) == "(70,63;1,10)" == str(desc8.array)

    # family (iii): difference-matrix codes
    for q, m, want in (
        (3, 1, "(6,2;1,6)"),
        (3, 2, "(18,8;1,18)"),
        (4, 1, "(12,3;1,12)"),
        (5, 1, "(20,4;1,20)"),
    ):
        desc, code = by_slug[f"iii-q{q}-m{m}"]
        assert _timed_array(code, 10.0) == want == str(desc.array)
        assert code == difference_matrix_code(q, m)

    # family (iv): truncated difference matrices, closed-form array
    for q, n in ((4, 3), (5, 4), (7, 3)):
        desc, code = by_slug[f"iv-q{q}-n{n}"]
        want = f"({(q - 1) * n},{(q - n + 1) * (n - 1)};1,{n * (n - 1)})"
        assert _measured_array(code) == want == str(desc.array)

    # families (v)-(vii) at q=8: redundancy 3, two array values that swap
    # between the h=2 and h=4 geometries
    big, small = "(196,135;1,84)", "(70,63;1,10)"
    q8_expect = {
        ("v", None): big,
        ("vi", 2): small,
        ("vi", 4): big,
        ("vii", 2): big,
        ("vii", 4): small,
    }
    for (fam, h), want in q8_expect.items():
        kwargs = {"q": 8} if h is None else {"q": 8, "h": h}
        desc, code = build_family(fam, **kwargs)
        assert code.redundancy == 3
        assert code.field.q ** code.redundancy == 512
        assert _timed_array(code, 10.0) == want == str(desc.array)
    # and at q=4 where the geometries exist
    for slug in ("v-q4", "vi-q4-h2", "vii-q4-h2"):
        desc, code = by_slug[slug]
        assert _measured_array(code) == str(desc.array)

    # four-column truncations of the rank-1 difference matrix
    for q in (4, 5, 7, 8):
        code = latin_square_code(q, 4)
        want = f"({4 * (q - 1)},{3 * (q - 3)};1,12)"
        assert _measured_array(code) == want
        if q in (4, 8):
            assert code == code.dual()
        else:
            assert code != code.dual()

    # lifted codes
    desc, code = by_slug["lifted-q2-r2"]
    assert _measured_array(code) == "(9,4;1,6)" == str(desc.array)
    desc, code = by_slug["lifted-q3-r2"]
    assert _measured_array(code) == "(32,18;1,12)" == str(desc.array)
    assert code == code.dual()


def test_criterion_2_exhaustive_radius1_census():
    t0 = time.monotonic()
    rep_a = enumerate_rho1(2, 2, 8)
    rep_b = enumerate_rho1(2, 3, 8)
    rep_c = enumerate_rho1(3, 2, 5)
    assert time.monotonic() - t0 < 600.0

    # enumerate_rho1 raises on any disagreement between the recognized
    # column form and measured regularity; reaching here means zero
    # exceptions.  Verify the census shape and the array formula on
    # every positive instance.
    assert len(rep_a.entries) == 365
    assert len(rep_b.entries) == 9788
    assert len(rep_c.entries) == 158
    assert sorted((e.form.ell, e.form.u) for e in rep_a.positives) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    assert sorted((e.form.ell, e.form.u) for e in rep_b.positives) == [
        (1, 0),
        (1, 1),
    ]
    assert sorted((e.form.ell, e.form.u) for e in rep_c.positives) == [
        (1, 0),
        (1, 1),
    ]
    for rep, q in ((rep_a, 2), (rep_b, 2), (rep_c, 3)):
        for e in rep.positives:
            assert e.array == rho1_intersection_array(q, e.form)


def test_criterion_3_radius2_normal_form(catalog48):
    rho2 = [(d, c) for d, c in catalog48 if d.rho == 2]
    assert len(rho2) == 39
    for desc, code in rho2:
        report = verify_theorem41(CodeAnalysis(code))
        assert report.all_flags, desc.slug
        # symbol frequency: every symbol of every nonzero residual word
        # occurs exactly n - dtilde times, dtilde the dual distance
        dual_w = weight_distribution(code.dual())
        dtilde = next(w for w in range(1, code.n + 1) if dual_w[w])
        # (a nonzero multiple only renames the nonzero symbols)
        for word in iter_projective(report.M):
            counts = set(Counter(word).values())
            assert counts == {code.n - dtilde}, desc.slug
        # corruption must flip at least one flag
        zeroed = [list(r) for r in code.H.data]
        for r in zeroed:
            r[0] = 0
        bad = LinearCode.from_parity(MatrixGF(code.field, zeroed, code.n))
        flipped = verify_theorem41(CodeAnalysis(bad))
        assert not flipped.all_flags, desc.slug


def _corpus(catalog48, censuses, bound=None):
    for rep in censuses:
        for e in rep.entries:
            if bound is None or rep.q**e.n <= bound:
                yield e.code(rep.q)
    for desc, code in catalog48:
        if bound is None or code.field.q**code.n <= bound:
            yield code


def test_criterion_4_bruteforce_oracle_agreement(
    catalog48, census_2_2_8, census_2_3_8, census_3_2_5
):
    censuses = (census_2_2_8, census_2_3_8, census_3_2_5)
    checked = 0
    for code in _corpus(catalog48, censuses, bound=2**16):
        slow = complete_regularity_bruteforce(CodeAnalysis(code))
        assert slow == complete_regularity(code)
        checked += 1
    assert checked > 10000


def test_criterion_5_uniform_packing_consistency(
    catalog48, census_2_2_8, census_2_3_8, census_3_2_5
):
    censuses = (census_2_2_8, census_2_3_8, census_3_2_5)
    codes = list(_corpus(catalog48, censuses))
    for fam, h in (("ii", None), ("v", None), ("vi", 2), ("vi", 4), ("vii", 2), ("vii", 4)):
        kwargs = {"q": 8} if h is None else {"q": 8, "h": h}
        codes.append(build_family(fam, **kwargs)[1])
    for code in codes:
        # one analysis per code: the table gives rho, the weight pair s
        # and both give beta
        analysis = CodeAnalysis(code)
        rho = analysis.report.rho
        s = len(nonzero_weights(analysis.weight_pair[1]))
        assert rho <= s
        beta = beta_solve(analysis)
        assert (rho == s) == (beta is not None)


def test_criterion_6_construction_transfer_laws(
    census_2_2_8, census_2_3_8, census_3_2_5
):
    censuses = (census_2_2_8, census_2_3_8, census_3_2_5)
    cr_bases, bad_bases = [], []
    for rep in censuses:
        cr_bases.extend((rep.q, e) for e in rep.positives)
        bad_bases.extend((rep.q, e) for e in rep.non_cr_witnesses)
    assert len(cr_bases) >= 10
    rng = random.Random(2024)

    # zero-column padding: a values shift by (q-1)u, b and c unchanged
    for q, e in (cr_bases * 2)[:12]:
        base, u = e.code(q), rng.randrange(1, 4)
        img = LinearCode.from_parity(construction_I(base.H, u))
        rb = complete_regularity(base)
        ri = complete_regularity(img)
        assert rb.is_completely_regular and ri.is_completely_regular
        assert rb.rho == ri.rho
        assert rb.array.b == ri.array.b and rb.array.c == ri.array.c
        assert all(
            x + (q - 1) * u == y for x, y in zip(rb.array.a, ri.array.a)
        )
    for q, e in rng.sample(bad_bases, 12):
        img = LinearCode.from_parity(construction_I(e.code(q).H, rng.randrange(1, 4)))
        assert not complete_regularity(img).is_completely_regular

    # scaled-copy concatenation preserves (CR and rho=1) both ways
    for q, e in (cr_bases * 2)[:12]:
        base, ell = e.code(q), rng.randrange(2, 4)
        scalars = [rng.randrange(1, q) for _ in range(ell)]
        img = LinearCode.from_parity(construction_II(base.H, scalars))
        ri = complete_regularity(img)
        assert ri.is_completely_regular and ri.rho == 1
        fb, fi = classify_rho1(base), classify_rho1(img)
        assert (fi.m, fi.ell, fi.u) == (fb.m, ell * fb.ell, ell * fb.u)
        assert ri.array == rho1_intersection_array(q, fi)
    for q, e in rng.sample(bad_bases, 12):
        scalars = [rng.randrange(1, q) for _ in range(rng.randrange(2, 4))]
        img = LinearCode.from_parity(construction_II(e.code(q).H, scalars))
        ri = complete_regularity(img)
        assert not (ri.is_completely_regular and ri.rho == 1)


def test_criterion_7_extension_distances():
    for m in (2, 3, 4):
        assert min_distance(hamming_code(2, m).extended()) == 4
    assert min_distance(extendable_hamming_code(4).extended()) == 4
    # quaternary check depends on the presentation: the lexicographic
    # parity matrix does not extend to distance 4
    assert min_distance(hamming_code(4, 2).extended()) == 3
    # ternary value is recorded, not imposed: observed 3, rechecked for
    # reproducibility, and kept inside the only two possible outcomes
    d3 = min_distance(hamming_code(3, 2).extended())
    assert d3 in (3, 4)
    assert d3 == 3
    assert min_distance(hamming_code(3, 2).extended()) == d3


def test_criterion_8_complementary_weight_relation():
    def check_pair(code, expect_total):
        comp_H = complementary_parity_columns(code)
        comp = LinearCode.from_parity(comp_H)
        # both walks visit the same messages, one per projective class,
        # and a nonzero multiple of a message keeps both weights
        pairs = zip(iter_projective(code.H), iter_projective(comp_H), strict=True)
        for x, xbar in pairs:
            w = sum(1 for v in x if v)
            wbar = sum(1 for v in xbar if v)
            assert w + wbar == expect_total
        return comp

    # hyperoval code and external-lines code at q=8: each satisfies the
    # relation against its complementary code, and both sides of those
    # complementary pairs have covering radius 2
    arc = hyperoval(8)
    oval_code = point_set_code(arc)
    assert (oval_code.n, oval_code.redundancy) == (10, 3)
    comp = check_pair(oval_code, 8**2)
    assert complete_regularity(oval_code).rho == 2
    assert complete_regularity(comp).rho == 2

    lines_code = external_lines_code(arc)
    assert (lines_code.n, lines_code.redundancy) == (28, 3)
    assert lines_code == build_family("v", q=8)[1]
    comp = check_pair(lines_code, 8**2)
    assert complete_regularity(lines_code).rho == 2
    assert complete_regularity(comp).rho == 2

    # difference-matrix code at (3,2): its complement is the ternary
    # Hamming code, which sits at covering radius 1, outside the scope
    # of the radius statement but inside the weight relation
    dm = difference_matrix_code(3, 2)
    assert (dm.n, dm.redundancy) == (9, 3)
    comp = check_pair(dm, 3**2)
    assert complete_regularity(dm).rho == 2
    assert complete_regularity(comp).rho == 1
    assert comp == hamming_code(3, 2)
