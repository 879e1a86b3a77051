"""Structure recognizers: column forms, the radius-2 normal form,
two-weight generator shape, exhaustive small-parameter confirmation."""

import hashlib
import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from crcodes import classify as classify_module
from crcodes import codes as codes_module
from crcodes import matrix as matrix_module
from crcodes import regularity as regularity_module
from crcodes.budgets import Budgets, BudgetExceeded
from crcodes.classify import (
    NotOfForm,
    NotTwoWeight,
    Rho1Form,
    TrivialCode,
    classify_rho1,
    enumerate_rho1,
    rho1_intersection_array,
    two_weight_structure,
    verify_theorem31,
    verify_theorem41,
)
from crcodes.codes import LinearCode, canonical_column, iter_projective, pg_points
from crcodes.constructions import (
    construction_I,
    construction_II,
    difference_matrix_code,
    external_lines_code,
    family_catalog,
    hamming_code,
    hamming_parity,
    hyperoval,
    latin_square_code,
)
from crcodes.field import GF
from crcodes.matrix import MatrixGF, rank, rref
from crcodes.regularity import CodeAnalysis, SyndromeTable, complete_regularity


def test_rho1_form_invariants():
    form = Rho1Form(m=2, ell=2, u=1)
    assert form.length(3) == 9
    for bad in ((0, 1, 0), (2, 0, 0), (2, 1, -1)):
        with pytest.raises(ValueError):
            Rho1Form(*bad)


def test_classify_rho1_on_hamming():
    assert classify_rho1(hamming_code(3, 2)) == Rho1Form(m=2, ell=1, u=0)
    assert classify_rho1(hamming_code(2, 3)) == Rho1Form(m=3, ell=1, u=0)


def test_classify_rho1_scaled_and_padded():
    H = construction_I(construction_II(hamming_parity(3, 2), [1, 2]), 2)
    got = classify_rho1(LinearCode.from_parity(H))
    assert got == Rho1Form(m=2, ell=2, u=2)


def test_classify_rho1_rejections():
    f = GF(2)
    # one projective point missing
    partial = MatrixGF(f, [[1, 0, 1, 1], [0, 1, 0, 1]])
    got = classify_rho1(LinearCode.from_parity(partial))
    assert isinstance(got, NotOfForm)
    assert got.reason
    missing = MatrixGF(GF(3), [[1, 0, 1, 1], [0, 1, 1, 1]])
    assert classify_rho1(LinearCode.from_parity(missing)) == NotOfForm(
        "columns cover 3 of the 4 projective points; first missing point (1, 2)"
    )
    # unequal multiplicities
    uneven = MatrixGF(f, [[1, 1, 0, 1, 1], [0, 0, 1, 1, 1]])
    assert isinstance(classify_rho1(LinearCode.from_parity(uneven)), NotOfForm)
    with pytest.raises(TrivialCode):
        classify_rho1(LinearCode.from_generator(MatrixGF(f, [[1, 1, 1]])))


def test_classify_rho1_is_presentation_invariant():
    # the answer may not depend on which parity check presents the code:
    # scale columns, shuffle them, and change the row basis
    rng = random.Random(7)
    base = construction_I(construction_II(hamming_parity(3, 2), [1, 2]), 1)
    f = base.field
    expect = Rho1Form(m=2, ell=2, u=1)
    for _ in range(20):
        cols = [list(c) for c in base.columns()]
        rng.shuffle(cols)
        scaled = []
        for col in cols:
            s = rng.randrange(1, f.q)
            scaled.append([f.mul(s, x) for x in col])
        M = MatrixGF.from_columns(f, scaled)
        T = _random_invertible(rng, f, M.nrows)
        TM = MatrixGF.from_columns(f, [T.mul_vector(c) for c in M.columns()])
        assert classify_rho1(LinearCode.from_parity(TM)) == expect


def _random_invertible(rng, f, size):
    while True:
        T = MatrixGF(
            f,
            [[rng.randrange(f.q) for _ in range(size)] for _ in range(size)],
            size,
        )
        if rank(T) == size:
            return T


def test_rho1_intersection_array_matches_measurement():
    for code in (hamming_code(3, 2), hamming_code(2, 3), hamming_code(4, 2)):
        form = classify_rho1(code)
        rep = complete_regularity(code)
        assert rep.array == rho1_intersection_array(code.field.q, form)


def test_verify_theorem31():
    assert verify_theorem31(hamming_code(3, 2))
    assert verify_theorem31(hamming_code(2, 3))
    padded = LinearCode.from_parity(construction_I(hamming_parity(3, 2), 2))
    assert verify_theorem31(padded)
    # not completely regular at radius 1, and not of the form either, so
    # the biconditional holds; the checker reports that coherently
    partial = LinearCode.from_parity(MatrixGF(GF(2), [[1, 0, 1, 1], [0, 1, 0, 1]]))
    assert verify_theorem31(partial)
    with pytest.raises(TrivialCode):
        verify_theorem31(LinearCode.from_generator(MatrixGF(GF(2), [[1, 1, 1]])))


def test_verify_theorem41_extended_hamming():
    rep = verify_theorem41(CodeAnalysis(hamming_code(2, 3).extended()))
    assert rep.dual_antipodal
    assert rep.column_scaling == (1,) * 8
    assert rep.M.nrows == 3
    assert rep.equidistant_ok
    assert rep.symbol_frequency_ok
    assert rep.punctured_rho1_form == Rho1Form(m=3, ell=1, u=0)
    assert rep.puncture_column == 0
    assert rep.all_flags


def test_verify_theorem41_difference_matrix():
    rep = verify_theorem41(CodeAnalysis(difference_matrix_code(3, 2)))
    assert rep.all_flags
    assert rep.column_scaling == (1,) * 9
    assert rep.punctured_rho1_form == Rho1Form(m=2, ell=2, u=0)
    assert rep.puncture_column == 0
    # the k = 1 member participates as well
    rep = verify_theorem41(CodeAnalysis(difference_matrix_code(3, 1)))
    assert rep.all_flags
    assert rep.punctured_rho1_form == Rho1Form(m=1, ell=2, u=0)


def test_verify_theorem41_flags_fall_on_corruption():
    ext = hamming_code(2, 3).extended()
    cols = [list(c) for c in ext.H.columns()]
    cols[0] = [0] * len(cols[0])
    broken = LinearCode.from_parity(MatrixGF.from_columns(ext.field, cols))
    rep = verify_theorem41(CodeAnalysis(broken))
    assert not rep.dual_antipodal
    assert not rep.all_flags


def test_verify_theorem41_walks_no_dual_word_without_a_full_weight_one(
    monkeypatch,
):
    # binary, so the only full-weight word is all-ones, which the
    # odd-weight generator row keeps out of the dual
    code = LinearCode.from_generator(
        MatrixGF(GF(2), [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    )
    dual_words = 0

    def counting(M):
        nonlocal dual_words
        for word in iter_projective(M):
            dual_words += M == code.H
            yield word

    monkeypatch.setattr(codes_module, "iter_projective", counting)
    monkeypatch.setattr(classify_module, "iter_projective", counting)
    rep = verify_theorem41(CodeAnalysis(code))
    assert not rep.dual_antipodal
    assert not rep.all_flags
    assert dual_words == 0


def test_verify_theorem41_walks_the_residual_generator_once(monkeypatch):
    walked = []

    def counting(M):
        walked.append(M)
        yield from iter_projective(M)

    monkeypatch.setattr(codes_module, "iter_projective", counting)
    monkeypatch.setattr(classify_module, "iter_projective", counting)
    rep = verify_theorem41(CodeAnalysis(difference_matrix_code(3, 2)))
    assert rep.all_flags
    assert sum(M == rep.M for M in walked) == 1


def test_verify_theorem41_trivial_inputs():
    f = GF(2)
    for rows in ([[1, 1, 1]], [[1, 0], [0, 1]]):
        code = LinearCode.from_parity(MatrixGF(f, rows))
        with pytest.raises(TrivialCode):
            verify_theorem41(CodeAnalysis(code))


def _antipodal_codes(q, trials, seed):
    """Seeded codes over GF(q) whose parity check has a row of nonzero
    entries, so that the dual is antipodal.  Below that row, every third
    code has the rows of a replicated simplex generator plus zero
    columns, so an equidistant residual; the others have random rows,
    half of them with a planted column repeated as a scalar multiple of
    another.  The columns are then scaled and permuted."""
    f = GF(q)
    rng = random.Random(seed + q)
    n_max = {2: 9, 3: 7, 4: 6, 5: 6, 7: 5, 8: 5, 9: 5}[q]
    for trial in range(trials):
        if trial % 3 == 0:
            m = rng.randrange(1, 3 if q > 3 else 4)
            cols = pg_points(f, m) * rng.randrange(1, 3)
            cols += [(0,) * m] * rng.randrange(2)
            n = len(cols)
            rows = [list(row) for row in zip(*cols)]
        else:
            n = rng.randrange(4, n_max + 1)
            rows = [
                [rng.randrange(q) for _ in range(n)]
                for _ in range(rng.randrange(1, n - 1))
            ]
            if trial % 3 == 2:
                j0, j1 = rng.sample(range(n), 2)
                beta = rng.randrange(1, q)
                for row in rows:
                    row[j0] = f.mul(beta, row[j1])
        rows.insert(0, [1] * n)
        scale = [rng.randrange(1, q) for _ in range(n)]
        perm = rng.sample(range(n), n)
        rows = [[f.mul(scale[j], row[j]) for j in perm] for row in rows]
        code = LinearCode.from_parity(MatrixGF(f, rows, n))
        if code.k >= 1 and code.redundancy >= 2:
            yield code


def test_bonisoli_puncture_at_column_0_exactly_when_equidistant():
    # By Bonisoli's theorem an equidistant code is a replicated simplex
    # code plus zero coordinates, so the residual M, whose column 0 the
    # split pins to zero, has the radius-1 column form without that
    # column exactly when it is equidistant: the puncture search stops
    # at column 0 on those, and only on those.  Corpus: the catalog-63
    # members and seeded antipodal codes over GF(2..9)
    kinds = Counter()
    codes = [code for _, code in family_catalog(63)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_antipodal_codes(q, 30, 4200))
    for code in codes:
        rep = verify_theorem41(CodeAnalysis(code))
        if rep.dual_antipodal:
            assert rep.equidistant_ok == (rep.puncture_column == 0), code.H
            later = rep.puncture_column is not None and rep.puncture_column > 0
            kinds[rep.equidistant_ok, later] += 1
    # equidistant; not, with a form at a later column; not, with none
    assert kinds[True, False] >= 48 + 50
    assert kinds[False, True] >= 20
    assert kinds[False, False] >= 90


def test_two_weight_structure_full_length():
    tw = two_weight_structure(external_lines_code(hyperoval(4)))
    assert (tw.w1, tw.w2) == (6, 4)
    assert tw.w1_is_length
    assert tw.equidistant_ok and tw.symbol_frequency_ok
    G = tw.generator
    assert G.data[0] == (1,) * 6
    assert all(row[-1] == 0 for row in G.data[1:])
    assert tw.M.ncols == 5
    # the normal form still generates the scaled code: the same nonzero
    # words up to a nonzero multiple, one class per projective word
    f = G.field
    scaled_classes = {
        canonical_column(f, [f.mul(tw.column_scaling[j], w[j]) for j in range(6)])
        for w in iter_projective(external_lines_code(hyperoval(4)).G)
    }
    classes = [canonical_column(f, w) for w in iter_projective(G)]
    assert len(classes) == len(scaled_classes) == (4**3 - 1) // 3
    assert set(classes) == scaled_classes


def test_two_weight_structure_latin_square():
    tw = two_weight_structure(latin_square_code(5, 4))
    assert (tw.w1, tw.w2) == (4, 3)
    assert tw.w1_is_length
    assert tw.equidistant_ok and tw.symbol_frequency_ok


def test_two_weight_structure_short_first_weight():
    G = MatrixGF(GF(2), [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]])
    tw = two_weight_structure(LinearCode.from_generator(G))
    assert (tw.w1, tw.w2) == (4, 3)
    assert not tw.w1_is_length
    assert tw.column_scaling is None
    assert tw.generator is None and tw.M is None
    assert not tw.equidistant_ok and not tw.symbol_frequency_ok


def test_two_weight_structure_rejects_other_weight_counts():
    with pytest.raises(NotTwoWeight):
        two_weight_structure(hamming_code(2, 3))
    simplex = hamming_code(2, 3).dual()
    with pytest.raises(NotTwoWeight):
        two_weight_structure(simplex)



def test_theorem52_on_the_dual_mirrors_theorem41(catalog48):
    # Theorem 5.2 read on the dual's generator, which is the code's parity
    # check, is the Theorem 4.1 split: both scale the same first
    # full-weight word to all-ones and reach the same verdicts
    rho2 = [(d, c) for d, c in catalog48 if d.rho == 2]
    assert len(rho2) == 39
    for desc, code in rho2:
        rep = verify_theorem41(CodeAnalysis(code))
        tw = two_weight_structure(code.dual())
        assert tw.w1_is_length == rep.dual_antipodal, desc.slug
        assert tw.column_scaling == rep.column_scaling, desc.slug
        assert tw.equidistant_ok and rep.equidistant_ok, desc.slug
        assert tw.symbol_frequency_ok and rep.symbol_frequency_ok, desc.slug


def test_enumerate_rho1_census(census_2_2_8):
    small = enumerate_rho1(2, 2, 6)
    assert len(small.entries) == 127
    assert len(small.non_cr_witnesses) == 102
    got = [(e.form.ell, e.form.u) for e in small.positives]
    assert got == [(1, 1), (1, 2), (1, 3), (2, 0)]
    for e in small.positives:
        assert e.rho == 1 and e.array is not None
        rebuilt = e.code(2)
        assert (rebuilt.n, rebuilt.k) == (e.n, e.k)
    # the longer run extends, never contradicts, the shorter one
    assert len(census_2_2_8.positives) == 8
    prefixes = [
        (e.form.m, e.form.ell, e.form.u) for e in census_2_2_8.positives
    ]
    assert set(got) <= {(ell, u) for _, ell, u in prefixes}


def _census_keys(f, m, n_max):
    """The supports of nonzero columns, at least m of them, that the
    census meets, and the point counts of the nonzero parity columns of
    its rank-m codes (their coset graphs without loops), from the codes."""
    zero = (0,) * m
    supports, keys = set(), set()
    for n in range(m + 2, n_max + 1):
        for multiset in combinations_with_replacement([zero] + pg_points(f, m), n):
            support = set(multiset) - {zero}
            if len(support) >= m:
                supports.add(frozenset(support))
            code = LinearCode.from_parity(MatrixGF.from_columns(f, multiset))
            if code.redundancy == m:
                _, groups = codes_module._column_points(f, code.H.columns())
                keys.add(frozenset(groups.items()))
    return supports, keys


def _recorded_builds(monkeypatch) -> list:
    """Every syndrome table whose build starts from now on, refused or
    not, through SyndromeTable's one constructor."""
    built = []
    original = regularity_module.SyndromeTable.__init__

    def recorded(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(regularity_module.SyndromeTable, "__init__", recorded)
    return built


def _step_multiset(step) -> Counter:
    """The steps {beta*h : beta != 0} of each nonzero parity column h, as
    a multiset over the columns; scaling h only reorders its steps."""
    return Counter(tuple(sorted(row)) for row in step if any(row))


def test_census_reduces_each_support_once_and_measures_each_loopless_key_once(
    monkeypatch,
):
    # one rref per set of distinct nonzero columns and one syndrome
    # table per set of points of a coset graph up to the loops that zero
    # columns add, whatever the points' multiplicities
    supports, keys = _census_keys(GF(2), 2, 6)
    point_sets = {frozenset(point for point, _ in key) for key in keys}
    assert (len(supports), len(keys), len(point_sets)) == (4, 35, 2)
    rref_calls = []
    original_rref = matrix_module.rref

    def counted_rref(M):
        rref_calls.append(M)
        return original_rref(M)

    monkeypatch.setattr(matrix_module, "rref", counted_rref)
    monkeypatch.setattr(classify_module, "rref", counted_rref)
    built = _recorded_builds(monkeypatch)
    enumerate_rho1(2, 2, 6)
    assert (len(rref_calls), len(built)) == (len(supports), len(point_sets))


@pytest.mark.parametrize("q, m, n_max, point_sets", [(2, 2, 6, 2), (3, 2, 4, 4)])
def test_census_builds_its_tables_through_the_constructor(
    q, m, n_max, point_sets, monkeypatch
):
    # one table per point set, each through SyndromeTable.__init__, the
    # constructor every table goes through, so a span around it counts
    # the census's tables too
    built = _recorded_builds(monkeypatch)
    enumerate_rho1(q, m, n_max)
    assert len(built) == point_sets


@pytest.mark.parametrize("q, m, n_max", [(2, 2, 6), (2, 3, 6), (3, 2, 4), (4, 2, 4)])
def test_census_codes_come_from_their_supports_rref(q, m, n_max, monkeypatch):
    # zero columns first and equal columns adjacent: the multiset's rref
    # is its nonzero support's rref with each column repeated
    f = GF(q)
    zero = (0,) * m
    first = {}  # loopless key -> the nonzero columns of its first code's H
    for n in range(m + 2, n_max + 1):
        for multiset in combinations_with_replacement([zero] + pg_points(f, m), n):
            u = multiset.count(zero)
            counts = Counter(multiset[u:])
            R, rk, _ = rref(MatrixGF.from_columns(f, multiset))
            S, rk_support, _ = rref(MatrixGF.from_columns(f, list(counts), m))
            repeated = [zero] * u + [
                col for col, k in zip(S.columns(), counts.values()) for _ in range(k)
            ]
            assert (rk, R.columns()) == (rk_support, repeated), multiset
            if rk < m:
                continue
            code = LinearCode.from_parity(MatrixGF.from_columns(f, multiset))
            _, groups = codes_module._column_points(f, code.H.columns())
            columns = [col for col in code.H.columns() if any(col)]
            first.setdefault(frozenset(groups.items()), columns)
    # each table, in order of first appearance, is built on the steps of
    # a reduced point set, each point's steps once
    point_sets = dict.fromkeys(frozenset(point for point, _ in key) for key in first)
    want = [
        _step_multiset(regularity_module._column_steps(f, points))
        for points in point_sets
    ]
    built = _recorded_builds(monkeypatch)
    scans = []
    original_scan = classify_module._scan_cosets

    def recorded_scan(q, n, leader_weight, profile):
        profiles = list(map(profile, range(len(leader_weight))))
        scans.append((n, bytes(leader_weight), profiles))
        return original_scan(q, n, leader_weight, profile)

    monkeypatch.setattr(classify_module, "_scan_cosets", recorded_scan)
    enumerate_rho1(q, m, n_max)
    assert all(any(row) for st in built for row in st.step)
    assert [_step_multiset(st.step) for st in built] == want
    # each key's recounted profiles, levels and rho are those of a table
    # on its first code's steps, each repeated by its multiplicity, with
    # every profile recounted from the table's leader weights
    assert len(scans) == len(first)
    for columns, scan in zip(first.values(), scans):
        steps = list(regularity_module._column_steps(f, columns))
        st = SyndromeTable(f, m, columns)
        recount = regularity_module._recount(st, [d for row in steps for d in row[1:]])
        profiles = list(map(recount, range(st.size)))
        assert scan == (len(columns), bytes(st.leader_weight), profiles), columns


@pytest.mark.parametrize("q, m, n_max", [(2, 2, 6), (3, 2, 4)])
def test_census_recounts_only_the_profiles_its_scans_read(q, m, n_max, monkeypatch):
    # a profile is recounted when the scan asks for it, so a scan that
    # stops early leaves the syndromes after it unrecounted
    recounted, asked, stopped = [], [], []
    original_recount = classify_module._recount
    original_scan = classify_module._scan_cosets

    def counted_recount(st, steps):
        profile = original_recount(st, steps)

        def counted(s):
            recounted.append(s)
            return profile(s)

        return counted

    def counted_scan(q, n, leader_weight, profile):
        read = []

        def asked_for(s):
            read.append(s)
            return profile(s)

        report = original_scan(q, n, leader_weight, asked_for)
        asked.extend(read)
        stopped.append(len(read) < len(leader_weight))
        return report

    monkeypatch.setattr(classify_module, "_recount", counted_recount)
    monkeypatch.setattr(classify_module, "_scan_cosets", counted_scan)
    enumerate_rho1(q, m, n_max)
    assert recounted == asked and any(stopped)


def test_census_reuse_matches_fresh_measurement(
    census_2_2_8, census_2_3_8, census_3_2_5, census_3_3_5
):
    # every entry, measured or reused, equals a fresh measurement of its
    # own code
    censuses = (
        census_2_2_8, census_2_3_8, census_3_2_5, census_3_3_5,
        enumerate_rho1(4, 2, 5), enumerate_rho1(5, 2, 4), enumerate_rho1(7, 2, 4),
        enumerate_rho1(8, 2, 4), enumerate_rho1(9, 2, 4),
    )
    for census in censuses:
        for e in census.entries:
            code = e.code(census.q)
            rep = complete_regularity(code)
            got = (e.rho, e.is_completely_regular, e.array, e.form, e.k)
            assert got == (
                rep.rho, rep.is_completely_regular, rep.array,
                classify_rho1(code), code.k,
            ), e.columns
    # one set of distinct columns, two multiplicities, two coset graphs
    f = GF(2)
    p1, p2, p3 = pg_points(f, 2)
    by_columns = {e.columns: e for e in enumerate_rho1(2, 2, 6).entries}
    even = by_columns[(p1, p1, p2, p2, p3, p3)]
    skewed = by_columns[(p1, p1, p1, p1, p2, p3)]
    keys = [
        codes_module._column_points(f, e.code(2).H.columns())
        for e in (even, skewed)
    ]
    assert keys[0] != keys[1]
    assert even.is_completely_regular and str(even.array) == "(6;2)"
    assert not skewed.is_completely_regular and skewed.array is None


# (entries, positives, sha256 of repr(enumerate_rho1(q, m, n_max))),
# recorded at commit ef51256, where the census built and measured the
# first code of each key; the three at n_max = 4 and q = 7, 8, 9, the
# first to measure codes there, at commit 81bef73, where it built one
# table per key
CENSUS_DIGESTS = {
    (2, 2, 8): (365, 8, "8f93a4ff8dd47133711a0238479e3145eb834bae81e4906446e83aae74c4d1f0"),
    (2, 3, 8): (9788, 2, "ef827cb3bb570fd6c05dc1d4089fe422bfba3de2647136b5b9285c2cc0300736"),
    (3, 2, 5): (158, 2, "b9356caefbd0483f40ef77a3fd3773c27c835d80f098ba38fb4a4be7f64a3766"),
    (4, 2, 5): (331, 1, "6106e2102f9bb2883fb552f1d26ccc8ba7fba302f9c677ae0ef2988ee3fef11c"),
    (5, 2, 4): (185, 0, "5b901d93630964c75f6d18241901fd97a830b24ab584845f1d13263bdffaed02"),
    (7, 2, 3): (0, 0, "2d5afa52ad115fa269f43949806efd5f05f9e43667ab8d1299cc4c13aa055c1f"),
    (8, 2, 3): (0, 0, "d379cc59af895d48edbf42d67e7bc9cbde8b9f0fac77ab9b4a5ecb0bb1df5138"),
    (9, 2, 3): (0, 0, "da2767499933faffb537b53106584faea2287f2e67aa8c43521deff81cac8c0a"),
    (3, 3, 5): (7137, 0, "aaf5479bdf4511fe861c9b9ca3821958bdd05502ba41400c16fec872831fb72b"),
    (7, 2, 4): (462, 0, "9e8024677fac879ae592fe21293f144ec969dfee732fdfa416975c615bda9704"),
    (8, 2, 4): (678, 0, "17aaf77f46b35fb114f96b29ffab75dfff0db9ac0547973ada795f5b7e5f07de"),
    (9, 2, 4): (960, 0, "be73d4452dc594b621fdbcde4966563d79259fd99dfae298df16861155005c25"),
}


@pytest.mark.parametrize("triple", CENSUS_DIGESTS, ids="{0[0]}-{0[1]}-{0[2]}".format)
def test_census_output_is_byte_identical_to_its_record(triple, request):
    try:  # the conftest census, where there is one
        census = request.getfixturevalue("census_{}_{}_{}".format(*triple))
    except pytest.FixtureLookupError:
        census = enumerate_rho1(*triple)
    entries, positives, digest = CENSUS_DIGESTS[triple]
    assert (len(census.entries), len(census.positives)) == (entries, positives)
    assert hashlib.sha256(repr(census).encode()).hexdigest() == digest


def test_census_of_rank_one_refuses_its_first_code():
    # at m = 1 every code has k = n - 1 > n - 2, and the first one the
    # census measures is [3,2]
    with pytest.raises(TrivialCode, match=r"^\[3,2\] is outside 2 <= k <= n-2$"):
        enumerate_rho1(2, 1, 5)


def _rank_rule(field, columns):
    """The column form with m taken as the rank of the distinct
    canonical columns: the Rho1Form, or None for not of the form."""
    u, groups = codes_module._column_points(field, columns)
    if not groups:
        return None
    m = rank(MatrixGF.from_columns(field, sorted(groups)))
    if any(point not in groups for point in pg_points(field, m)):
        return None
    mults = set(groups.values())
    return Rho1Form(m, mults.pop(), u) if len(mults) == 1 else None


def _full_rank_map(rng, f, rows, cols):
    while True:
        A = MatrixGF(
            f, [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(A) == cols:
            return A


def test_column_form_from_column_length_matches_rank_rule():
    rng = random.Random(4101)
    seen = Counter()
    for q in (2, 3, 4, 5):
        f = GF(q)
        for _ in range(120):
            kind = rng.choice(("random", "full", "deficient"))
            length = rng.randint(2 if kind == "deficient" else 1, 3)
            if kind == "random":
                cols = [
                    tuple(rng.randrange(q) for _ in range(length))
                    for _ in range(rng.randint(1, 8))
                ]
            else:
                # an injective map carries PG(r-1, q) onto the points of
                # a rank-r subspace; r < length makes the set deficient
                r = length if kind == "full" else rng.randint(1, length - 1)
                A = _full_rank_map(rng, f, length, r)
                cols = [
                    tuple(f.mul(rng.randrange(1, q), x) for x in A.mul_vector(p))
                    for p in pg_points(f, r)
                    for _ in range(rng.randint(1, 2) if rng.random() < 0.2 else 1)
                ] * rng.randint(1, 2)
                if rng.random() < 0.25:
                    cols.pop(rng.randrange(len(cols)))
                cols += [(0,) * length] * rng.randint(0, 2)
                rng.shuffle(cols)
            want = _rank_rule(f, cols)
            got = classify_module._columns_rho1_form(f, cols)
            if want is None:
                assert isinstance(got, NotOfForm), (q, cols)
            else:
                assert got == want, (q, cols)
            seen[kind, want is not None] += 1
    assert seen["deficient", True] == 0 and seen["deficient", False] >= 50
    assert seen["full", True] >= 50 and seen["full", False] >= 10
    assert seen["random", True] >= 10 and seen["random", False] >= 50
    zeros = classify_module._columns_rho1_form(GF(3), [(0, 0)] * 3)
    assert zeros == NotOfForm("no nonzero columns")


def test_enumerate_rho1_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_rho1(2, 2, 8, Budgets(max_vectors=100))


def test_enumerate_rho1_syndrome_budget_refuses_the_first_code(monkeypatch):
    built = _recorded_builds(monkeypatch)
    with pytest.raises(BudgetExceeded) as refused:
        enumerate_rho1(2, 2, 6, Budgets(max_syndromes=3))
    assert refused.value.budget == "max_syndromes" and len(built) == 1
    # max_vectors refuses before any table is built
    with pytest.raises(BudgetExceeded) as refused:
        enumerate_rho1(2, 2, 6, Budgets(max_vectors=100))
    assert refused.value.budget == "max_vectors" and len(built) == 1
