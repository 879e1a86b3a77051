"""Coset geometry: syndrome BFS, regularity decisions, packing coefficients."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

import crcodes
from crcodes import regularity
from crcodes.budgets import Budgets, BudgetExceeded
from crcodes.cli import analysis_report, main
from crcodes.codes import (
    LinearCode,
    _krawtchouk_values,
    external_distance,
    nonzero_weights,
    odometer,
    pg_points,
    weight_distribution,
)
from crcodes.classify import two_weight_structure, verify_theorem41
from crcodes.constructions import family_catalog, hamming_code
from crcodes.field import GF, _add_digitwise, _base_digits, _from_base
from crcodes.matio import write_matrix
from crcodes.matrix import MatrixGF
from crcodes.regularity import (
    CodeAnalysis,
    IntersectionArray,
    RegularityReport,
    SyndromeTable,
    beta_solve,
    complete_regularity,
    complete_regularity_bruteforce,
    covering_radius,
)

NON_CR_PROBE = MatrixGF(GF(2), [[1, 0, 1, 1], [0, 1, 0, 1]])


def _random_code(rng, q, n, redundancy):
    f = GF(q)
    while True:
        H = MatrixGF(
            f, [[rng.randrange(q) for _ in range(n)] for _ in range(redundancy)], n
        )
        code = LinearCode.from_parity(H)
        if 1 <= code.k < code.n:
            return code


def _weight(vec):
    return sum(1 for x in vec if x)


def _coset_leaders(code):
    """A minimum-weight vector per syndrome, by scanning every ambient
    vector."""
    q = code.field.q
    best = {}
    for vec in product(range(q), repeat=code.n):
        s = _from_base(code.H.mul_vector(vec), q)
        if s not in best or _weight(vec) < _weight(best[s]):
            best[s] = vec
    return best


def _leader_weight_oracle(code):
    """Minimum weight per syndrome by scanning every ambient vector."""
    return {s: _weight(vec) for s, vec in _coset_leaders(code).items()}


def test_encode_decode_round_trip():
    for q in (2, 3, 4, 9):
        for vec in product(range(q), repeat=3):
            e = _from_base(vec, q)
            assert _base_digits(e, q, 3) == vec
    # coordinate 0 is the least significant digit
    assert _from_base((1, 0, 0), 3) == 1
    assert _from_base((0, 0, 1), 3) == 9


@pytest.mark.parametrize("q,n,r", [(2, 5, 3), (3, 4, 2), (4, 4, 2)])
def test_syndrome_table_against_vector_scan(q, n, r):
    rng = random.Random(q * 100 + n)
    code = _random_code(rng, q, n, r)
    st = CodeAnalysis(code).table
    oracle = _leader_weight_oracle(code)
    assert st.size == q**code.redundancy
    for s in range(st.size):
        assert st.leader_weight[s] == oracle[s]
    assert st.rho == max(oracle.values())
    # steps really are the syndromes of beta * e_j
    f = code.field
    for j in range(code.n):
        for beta in range(1, q):
            col = [f.mul(beta, x) for x in code.H.column(j)]
            assert st.step[j][beta] == _from_base(col, q)


def _profile_oracle(code):
    """Level and (c, b) profile of every syndrome: the weight of its coset
    leader v, and how many of the n(q-1) vectors v + beta*e_j lie one
    level down and one level up, each syndrome computed by H.mul_vector."""
    f = code.field
    q, n = f.q, code.n
    leaders = _coset_leaders(code)
    level = {s: _weight(vec) for s, vec in leaders.items()}
    profile = {}
    for s, vec in leaders.items():
        c = b = 0
        for j in range(n):
            for beta in range(1, q):
                nb = list(vec)
                nb[j] = f.add(nb[j], beta)
                lv = level[_from_base(code.H.mul_vector(nb), q)]
                c += lv == level[s] - 1
                b += lv == level[s] + 1
        profile[s] = (c, b)
    return level, profile


def _report_oracle(code, level, profile):
    """The report the definition gives: not completely regular when a
    level holds two different profiles, or else the array read off each
    level's profile."""
    q, n = code.field.q, code.n
    rho = max(level.values())
    first = {}
    for s in sorted(level):
        first.setdefault(level[s], s)
    if any(profile[s] != profile[first[level[s]]] for s in level):
        return RegularityReport(False, rho, None)
    b = [profile[first[l]][1] for l in range(rho)]
    c = [profile[first[l]][0] for l in range(1, rho + 1)]
    return RegularityReport(True, rho, IntersectionArray.from_levels(q, n, b, c))


def _oracle_codes(q, trials=8, seed=1000):
    """`trials` seeded random codes over GF(q), every other one with a
    zero column and a column repeated as a scalar multiple of another,
    plus two completely regular codes with such columns: all points of
    PG(m-1, q) with a zero column, and all of them twice."""
    f = GF(q)
    rng = random.Random(seed + q)
    n_max = {2: 8, 3: 6, 4: 5, 5: 4, 7: 4, 8: 4, 9: 4}[q]
    for trial in range(trials):
        n = rng.randrange(3, n_max + 1)
        rows = [
            [rng.randrange(q) for _ in range(n)]
            for _ in range(rng.randrange(1, n))
        ]
        if trial % 2:
            j0, j1, j2 = rng.sample(range(n), 3)
            beta = rng.randrange(1, q)
            for row in rows:
                row[j0] = 0
                row[j2] = f.mul(beta, row[j1])
        yield LinearCode.from_parity(MatrixGF(f, rows, n))
    m = 2 if q < 4 else 1
    cols = pg_points(f, m)
    yield LinearCode.from_parity(MatrixGF.from_columns(f, cols + [(0,) * m]))
    yield LinearCode.from_parity(MatrixGF.from_columns(f, cols + cols))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_profiles_against_coset_leader_oracle(q):
    kinds = set()
    for code in _oracle_codes(q):
        level, profile = _profile_oracle(code)
        st = CodeAnalysis(code).table
        assert st.size == len(level)
        for s in range(st.size):
            assert st.leader_weight[s] == level[s]
        recounted = _recounted(st)
        assert recounted == [profile[s] for s in range(st.size)]
        expected = _report_oracle(code, level, profile)
        assert complete_regularity(code) == expected
        scanned = regularity._scan_cosets(
            code.field.q, code.n, st.leader_weight, recounted.__getitem__
        )
        assert scanned == expected
        assert complete_regularity_bruteforce(CodeAnalysis(code)) == expected
        kinds.add(expected.is_completely_regular)
    assert kinds == {True, False}


def _recounted(st):
    """Every syndrome's (c, b) profile, recounted from the table's
    leader weights one syndrome at a time."""
    profile = regularity._recount(st, [d for row in st.step for d in row[1:]])
    return [profile(s) for s in range(st.size)]


def _plain_bfs(st):
    """(leader_weight, [(c, b)] per syndrome) by a plain BFS one syndrome
    at a time, adding each step digitwise, with the profiles counted from
    its own leader weights."""
    p = st.field.p
    steps = [d for row in st.step for d in row[1:]]
    neighbors = [
        [s ^ d if p == 2 else _add_digitwise(s, d, p) for d in steps]
        for s in range(st.size)
    ]
    lw = bytearray(st.size)
    seen = bytearray(st.size)
    seen[0] = 1
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for t in neighbors[s]:
                if not seen[t]:
                    seen[t] = 1
                    lw[t] = lw[s] + 1
                    nxt.append(t)
        frontier = nxt
    profiles = []
    for s in range(st.size):
        c = sum(lw[t] == lw[s] - 1 for t in neighbors[s])
        b = sum(lw[t] == lw[s] + 1 for t in neighbors[s])
        profiles.append((c, b))
    return lw, profiles


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("chunk_bits", [1 << 16, 8])
def test_word_bfs_matches_syndrome_bfs_on_random_codes(q, chunk_bits, monkeypatch):
    # eight-bit chunks put most digits of a syndrome above the chunk, so
    # steps move whole chunks as well as bits inside them; the reference
    # is a plain BFS one syndrome at a time, and the vector-scan oracle
    monkeypatch.setattr(regularity, "_CHUNK_BITS", chunk_bits)
    sizes = []
    for code in _oracle_codes(q):
        st = CodeAnalysis(code).table
        lw, profiles = _plain_bfs(st)
        assert lw == st.leader_weight
        scanned = regularity._scan_cosets(
            code.field.q, code.n, lw, profiles.__getitem__
        )
        assert complete_regularity(code) == scanned
        level, profile = _profile_oracle(code)
        assert st.size == len(level)
        assert list(st.leader_weight) == [level[s] for s in range(st.size)]
        assert profiles == [profile[s] for s in range(st.size)]
        sizes.append(st.size)
    assert max(sizes) > 8


def test_word_bfs_matches_syndrome_bfs_on_the_catalog():
    # every member is completely regular with its family's array, which
    # fixes each level's size: k_i = k_{i-1} b_{i-1} / c_i; the members
    # and duals of at most 2^8 syndromes, every family among them, also
    # match a plain BFS syndrome by syndrome, and their reports match
    # the scan of its profiles
    checked = plain = 0
    for desc, code in family_catalog(200):
        analysis = CodeAnalysis(code)
        st = analysis.table
        assert analysis.report == (True, desc.rho, desc.array), desc.slug
        sizes = [1]
        for b, c in zip(desc.array.b, desc.array.c):
            sizes.append(sizes[-1] * b // c)
        levels = Counter(st.leader_weight)
        assert [levels[i] for i in range(st.rho + 1)] == sizes, desc.slug
        for side in (code, code.dual()):
            if side.field.q**side.redundancy <= 1 << 8:
                side_analysis = CodeAnalysis(side)
                lw, profiles = _plain_bfs(side_analysis.table)
                assert lw == side_analysis.table.leader_weight, desc.slug
                expected = regularity._scan_cosets(
                    side.field.q, side.n, lw, profiles.__getitem__
                )
                assert side_analysis.report == expected, desc.slug
                plain += 1
        checked += 1
    assert checked == 161 and plain == 80 + 55


def _with_zero_columns(code, u):
    """The code with u zero columns appended to its parity check."""
    rows = [row + (0,) * u for row in code.H.data]
    return LinearCode.from_parity(MatrixGF(code.field, rows, code.n + u))


# the smallest m with q^m >= 2^10
LARGE_M = {2: 10, 3: 7, 4: 5, 5: 5, 7: 4, 8: 4, 9: 4}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_zero_columns_add_only_loops(q):
    # a zero column adds only loops to the coset graph: the leader
    # weights, rho and the top level stay, and each a_i grows by q - 1
    # per zero column
    rng = random.Random(1100 + q)
    m = LARGE_M[q]
    small = list(_oracle_codes(q))
    large = [_random_code(rng, q, m + 3, m)]
    if q < 5:
        large.append(hamming_code(q, m))
    if q == 2:
        large.append(LinearCode.from_generator(MatrixGF(GF(2), [[1] * 11])))
    assert max(q**c.redundancy for c in small) < 1 << 10
    assert min(q**c.redundancy for c in large) >= 1 << 10
    shifted = 0
    for code in small + large:
        u = rng.randint(1, 3)
        looped = _with_zero_columns(code, u)
        tables = [CodeAnalysis(c).table for c in (code, looped)]
        plain, padded = (
            (bytes(st.leader_weight), st.rho, st.top_level_size)
            for st in tables
        )
        assert padded == plain
        rep, rep_u = complete_regularity(code), complete_regularity(looped)
        assert rep_u == rep._replace(array=rep_u.array)
        if not rep.is_completely_regular:
            slow, slow_u = (
                complete_regularity_bruteforce(CodeAnalysis(c)) for c in (code, looped)
            )
            assert (slow, slow_u) == (rep, rep_u)
        if rep.array is not None:
            assert (rep_u.array.b, rep_u.array.c) == (rep.array.b, rep.array.c)
            assert rep_u.array.a == tuple(a + (q - 1) * u for a in rep.array.a)
            shifted += 1
    assert shifted >= 4


def _table(code):
    analysis = CodeAnalysis(code)
    st = analysis.table
    return st.leader_weight, st.rho, analysis.report


def test_word_bfs_on_one_syndrome():
    # the whole space as a code: m = 0 and a table of size 1
    code = LinearCode.from_parity(MatrixGF(GF(3), [[0, 0, 0]], 3))
    assert code.redundancy == 0
    arr = IntersectionArray.from_levels(3, 3, (), ())
    assert _table(code) == (bytearray([0]), 0, (True, 0, arr))


def test_steps_that_do_not_span_are_refused_on_each_path():
    # the constructor takes any columns, so the syndrome graph can be
    # disconnected: one binary step in GF(2)^2, steps in the hyperplane
    # x_6 = 0 of GF(3)^7, and no step at all in GF(2)^1, one syndrome short
    in_hyperplane = [tuple(int(i == j) for i in range(7)) for j in range(6)]
    cases = [
        (GF(2), 2, [(1, 0)]),
        (GF(3), 7, in_hyperplane),
        (GF(2), 1, [(0,)]),
    ]
    for f, m, columns in cases:
        with pytest.raises(RuntimeError, match="^syndrome graph is not connected$"):
            SyndromeTable(f, m, columns)


def test_four_byte_counts_on_each_path():
    # the all-ones row of length 256 over GF(257): n(q-1) = 2^16 steps
    # all lead from 0 into level 1, so b_0 = 65536 needs a 17th bit plane
    code = LinearCode.from_parity(MatrixGF(GF(257), [[1] * 256], 256))
    arr = IntersectionArray.from_levels(257, 256, (65536,), (256,))
    table = _table(code)
    assert table == (bytearray([0] + [1] * 256), 1, (True, 1, arr))


def test_word_bfs_across_chunks(monkeypatch):
    # a random binary [20,3] code has 2^17 syndromes: two chunks of 2^16,
    # against one chunk of 2^17
    rng = random.Random(17)
    code = _random_code(rng, 2, 20, 17)
    assert code.redundancy == 17
    two_chunks = _table(code)
    monkeypatch.setattr(regularity, "_CHUNK_BITS", 1 << 17)
    assert _table(code) == two_chunks
    assert two_chunks[1] >= 3


def test_default_analyze_recounts_no_profile(tmp_path, capsys, monkeypatch):
    # no report recounts a profile, whether the code is completely
    # regular or not, inside Delsarte's bound or outside it: only the
    # brute force and the census do
    def refused(*args):
        raise AssertionError("a profile was recounted")

    monkeypatch.setattr(regularity, "_recount", refused)
    monkeypatch.setattr(regularity, "_scan_cosets", refused)
    assert CodeAnalysis(hamming_code(3, 3)).report.is_completely_regular
    outside = CodeAnalysis(LinearCode.from_parity(OUTSIDE_DELSARTE))
    assert outside.report.is_completely_regular and "table" in vars(outside)
    code = _random_code(random.Random(37), 3, 10, 7)
    analysis = CodeAnalysis(code)
    assert analysis.table.size == 3**7
    assert not analysis.report.is_completely_regular
    # analyze --json on the same code; its output is pinned
    path = tmp_path / "r37.txt"
    write_matrix(code.H, path)
    assert main(["analyze", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["is_completely_regular"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c0caf9c9927a76b29439e7896674a6ccaa2ff25ea799b1d31b57c9405c47a7b9"
    )


@pytest.mark.parametrize(
    "q,rows,cr",
    [
        (2, [[1, 0, 1, 1], [0, 1, 0, 1]], False),
        (2, [[1, 0, 1, 0, 1, 0, 1],
             [0, 1, 1, 0, 0, 1, 1],
             [0, 0, 0, 1, 1, 1, 1]], True),
        (9, [[1, 0, 0, 1], [0, 1, 1, 3]], False),
        (9, [[1, 1, 0], [0, 1, 1]], True),
    ],
)
def test_bruteforce_counts_each_syndrome_once_from_leader_weights(
    q, rows, cr, monkeypatch
):
    code = LinearCode.from_parity(MatrixGF(GF(q), rows, len(rows[0])))
    n, m = code.n, code.redundancy
    expected = complete_regularity_bruteforce(CodeAnalysis(code))
    assert expected.is_completely_regular == cr
    analysis = CodeAnalysis(code)
    st = analysis.table
    # the dual weights are not an input of the brute force: a weight
    # pair that puts every nonzero dual word at weight n is planted
    wrong = [1] + [0] * (n - 1) + [q**m - 1]
    analysis.weight_pair = (wrong, wrong)

    recounted = []
    recount = regularity._recount

    def counting_recount(st, steps):
        profile = recount(st, steps)

        def counted(s):
            recounted.append(s)
            return profile(s)

        return counted

    monkeypatch.setattr(regularity, "_recount", counting_recount)
    assert complete_regularity_bruteforce(analysis) == expected
    # each syndrome at most once, in increasing order: every one on a
    # completely regular code, and on one that is not, a strict prefix
    # that ends where a level first shows a second profile
    if cr:
        assert recounted == list(range(st.size))
    else:
        assert recounted == list(range(len(recounted)))
        assert len(recounted) < st.size
    # the verdict recounts nothing, whether the code is completely
    # regular or not
    recounted.clear()
    assert complete_regularity(code) == expected
    assert recounted == []


def test_catalog_intersection_arrays_against_coset_graphs(catalog48):
    """The coset graph of a projective code with d >= 3 is distance
    regular, with the code's intersection array (Brouwer, Cohen and
    Neumaier, Distance-Regular Graphs, 11.1).  Its edges s -- s + beta*h_j
    come from H.mul_vector, not from the syndrome table."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for desc, code in catalog48:
        f = code.field
        q, m = f.q, code.redundancy
        if q**m > 4096:
            continue
        steps = set()
        for j in range(code.n):
            for beta in range(1, q):
                unit = [0] * code.n
                unit[j] = beta
                steps.add(code.H.mul_vector(unit))
        graph = nx.Graph()
        for s in range(q**m):
            vec = _base_digits(s, q, m)
            graph.add_edges_from(
                (s, _from_base(tuple(map(f.add, vec, step)), q)) for step in steps
            )
        arr = complete_regularity(code).array
        assert nx.intersection_array(graph) == (list(arr.b), list(arr.c)), desc.slug
        checked += 1
    assert checked >= 30


# A seeded random binary [28,10] code (2^18 syndromes), drawn as the
# benchmark draws its random analyze code, then decided in a process of
# its own, which reads its peak RSS when done and then checks the
# report by the brute force on the same table.
_MEMORY_CHILD = """
import json, random, resource
from crcodes import (
    GF, Budgets, CodeAnalysis, LinearCode, MatrixGF,
    complete_regularity_bruteforce, rank,
)

rng = random.Random(0)
n, k = 28, 10
while True:
    rows = [
        [(bits >> j) & 1 for j in range(n)]
        for bits in (rng.getrandbits(n) for _ in range(n - k))
    ]
    H = MatrixGF(GF(2), rows, n)
    if rank(H) == n - k:
        break
code = LinearCode.from_parity(H)
analysis = CodeAnalysis(code, Budgets(max_vectors=2**18 * 28))
rep = analysis.report
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
slow = complete_regularity_bruteforce(analysis)
assert slow == rep
print(json.dumps([rep.is_completely_regular, rep.rho, rep.array, peak_kb]))
"""


def test_syndrome_table_memory_at_2_18_syndromes():
    # The child reads its own peak: getrusage(RUSAGE_CHILDREN) here would
    # give the largest of every child this test process has waited for.
    package_root = str(Path(crcodes.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited])),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cr, rho, array, peak_kb = json.loads(proc.stdout)
    assert (cr, rho, array) == (False, 8, None)
    # ru_maxrss is in KiB on Linux (bytes on macOS)
    peak_mb = peak_kb / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb < 100


def test_syndrome_table_build_peaks_near_two_bytes_per_syndrome():
    # a table of 2^20 syndromes, sixteen chunks: while the BFS runs it
    # holds three level sets and the leader weights bit-sliced, and
    # these planes are unpacked, one chunk at a time, into the one byte
    # per syndrome it keeps; no profile count is held (with the (c, b)
    # counts bit-sliced too the peak was 2.7 bytes per syndrome)
    code = _random_code(random.Random(20), 2, 30, 20)
    assert code.redundancy == 20
    tracemalloc.start()
    try:
        st = CodeAnalysis(code).table
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st.size == 1 << 20
    assert retained <= st.size + (1 << 15)
    assert peak <= st.size * 9 // 4


def test_covering_radius_known_codes():
    assert covering_radius(hamming_code(2, 3)) == 1
    assert covering_radius(hamming_code(3, 2)) == 1
    assert covering_radius(hamming_code(2, 3).extended()) == 2
    for n, expect in ((4, 2), (5, 2), (6, 3)):
        rep = LinearCode.from_generator(MatrixGF(GF(2), [[1] * n]))
        assert covering_radius(rep) == expect


def test_syndrome_budget(monkeypatch):
    # refused before any step row is encoded: over GF(2^14) the rows
    # alone take n(q-1) encodings
    encoded = []
    monkeypatch.setattr(regularity, "_from_base", lambda *args: encoded.append(args))
    with pytest.raises(BudgetExceeded) as err:
        CodeAnalysis(hamming_code(2, 3), Budgets(max_syndromes=7)).table
    assert err.value.budget == "max_syndromes" and encoded == []


def test_complete_regularity_hamming():
    rep = complete_regularity(hamming_code(2, 3))
    assert rep.is_completely_regular
    assert rep.rho == 1
    assert str(rep.array) == "(7;1)"
    assert rep.array.a == (0, 6)


def test_complete_regularity_extended_hamming():
    rep = complete_regularity(hamming_code(2, 3).extended())
    assert rep.is_completely_regular
    assert str(rep.array) == "(8,7;1,8)"
    assert rep.array.a == (0, 0, 0)


def test_complete_regularity_ternary_hamming():
    rep = complete_regularity(hamming_code(3, 2))
    assert rep.is_completely_regular
    assert str(rep.array) == "(8;1)"
    assert rep.array.a == (0, 7)


def test_a_reader_given_an_analysis_checks_only_its_budget():
    # a reader checks every limit against the budget of the analysis it
    # is given, and keeps what it computes in that analysis: the brute
    # force the table, beta_solve the weight pair and the report, and
    # Theorem 4.1, with no full-weight dual word here, the weight pair
    code = hamming_code(2, 4)
    with pytest.raises(BudgetExceeded) as err:
        complete_regularity_bruteforce(CodeAnalysis(code, Budgets(max_vectors=1)))
    assert err.value.budget == "max_vectors"
    for reader, facts in (
        (complete_regularity_bruteforce, {"table"}),
        (beta_solve, {"weight_pair", "report"}),
        (verify_theorem41, {"weight_pair"}),
    ):
        analysis = CodeAnalysis(code)
        reader(analysis)
        assert set(vars(analysis)) == {"code", "budget", *facts}, reader.__name__


def test_an_analysis_gives_its_codes_field_and_length():
    # perfbench/tracer.py counts the brute force's vectors from the field
    # and the length of the argument it is given
    code = hamming_code(3, 2)
    analysis = CodeAnalysis(code)
    assert (analysis.field, analysis.n) == (code.field, code.n)


def test_scan_stops_at_the_first_syndrome_off_its_levels_profile():
    # syndromes in increasing order, each profile asked for once: level 2
    # shows a second profile at syndrome 4, before level 1 does at 5, so
    # the scan asks for 0..4 only; rho is the largest level all the same
    leader_weight = bytearray([0, 1, 2, 1, 2, 1, 3])
    profiles = [(0, 3), (1, 2), (2, 1), (1, 2), (1, 1), (2, 1), (3, 0)]
    asked = []

    def profile(s):
        asked.append(s)
        return profiles[s]

    scan = regularity._scan_cosets(2, 3, leader_weight, profile)
    assert (scan, asked) == ((False, 3, None), [0, 1, 2, 3, 4])
    # with one profile per level, every one is asked for and gives the array
    profiles[4], profiles[5] = (2, 1), (1, 2)
    asked.clear()
    scan = regularity._scan_cosets(2, 3, leader_weight, profile)
    array = IntersectionArray.from_levels(2, 3, (3, 2, 1), (1, 2, 3))
    assert (scan, asked) == ((True, 3, array), list(range(7)))


def test_spectral_array_known_codes():
    # (s, k_s, b, c) from the dual weights alone: the simplex code
    # [7,3] (every nonzero word of weight 4) for the Hamming code, and
    # the first-order Reed-Muller code for the extended one
    assert regularity.spectral_array(2, 7, 3, [1, 0, 0, 0, 7, 0, 0, 0]) == (
        1, 7, (7,), (1,)
    )
    rm = [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert regularity.spectral_array(2, 8, 4, rm) == (2, 7, (8, 7), (1, 8))
    # m = 0: one syndrome, one eigenvalue, an empty array
    assert regularity.spectral_array(3, 3, 0, [1, 0, 0, 0]) == (0, 1, (), ())
    # the ternary [4,2] Hamming code is self-dual up to weights: 8 words
    # of weight 3, and the array (8;1) at k_1 = 8
    s, k_s, b, c = regularity.spectral_array(3, 4, 2, [1, 0, 0, 8, 0])
    assert (s, k_s, b, c) == (1, 8, (8,), (1,))
    assert all(type(x) is int for x in (k_s, *b, *c))
    # the binary [4,2] code of H rows 1011, 0101 is not completely
    # regular: its dual has the weights 2, 3, 3, and k_2, b_1 and c_1
    # are not integers
    assert regularity.spectral_array(2, 4, 2, [1, 0, 1, 2, 0]) == (
        2, None, (4, None), (None, 4)
    )


def _stieltjes_oracle(q, n, m, dual_weights):
    """(s, k_s, b, c) by the Stieltjes recurrence itself, in Fractions:
    the monic r_i at the eigenvalues n(q-1) - q*w, weighted by B_w / q^m,
    lambda_i = r_i(theta_0) / <r_i, r_i>, k_s = lambda_s r_s(theta_0),
    b_i = lambda_{i+1} beta_{i+1} / lambda_i, c_{i+1} = lambda_i / lambda_{i+1},
    each number an int, or None where it is not an integer."""
    points = [
        (n * (q - 1) - q * w, Fraction(count, q**m))
        for w, count in enumerate(dual_weights)
        if count
    ]
    s = len(points) - 1
    prev, r = [Fraction(0)] * (s + 1), [Fraction(1)] * (s + 1)
    norms, betas = [], [Fraction(0)]
    lam = []
    for i in range(s + 1):
        norm = sum(mu * v * v for (_, mu), v in zip(points, r))
        if i:
            betas.append(norm / norms[-1])
        norms.append(norm)
        lam.append(r[0] / norm)
        alpha = sum(th * mu * v * v for (th, mu), v in zip(points, r)) / norm
        r, prev = [
            (th - alpha) * v - betas[i] * u for (th, _), v, u in zip(points, r, prev)
        ], r
    k_s = lam[s] * lam[s] * norms[s]
    b = tuple(lam[i + 1] * betas[i + 1] / lam[i] for i in range(s))
    c = tuple(lam[i] / lam[i + 1] for i in range(s))

    def integral(x):
        return x.numerator if x.denominator == 1 else None

    return s, integral(k_s), tuple(map(integral, b)), tuple(map(integral, c))


def test_spectral_array_on_the_catalog(catalog48):
    # every member is completely regular: s = rho, its top level holds
    # k_s syndromes, and the recurrence gives its family's array; on the
    # members, their duals and the oracle codes the fraction-free
    # recurrence equals the recurrence in Fractions
    for desc, code in catalog48:
        analysis = CodeAnalysis(code)
        st = analysis.table
        s, k_s, b, c = regularity.spectral_array(
            code.field.q, code.n, code.redundancy, analysis.weight_pair[1]
        )
        assert (s, k_s) == (st.rho, st.top_level_size), desc.slug
        assert (b, c) == (desc.array.b, desc.array.c), desc.slug
    codes = [c for _, code in catalog48 for c in (code, code.dual())]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_oracle_codes(q))
    largest = non_integral = 0
    for code in codes:
        args = (code.field.q, code.n, code.redundancy, CodeAnalysis(code).weight_pair[1])
        spectral = regularity.spectral_array(*args)
        assert spectral == _stieltjes_oracle(*args)
        largest = max(largest, spectral[0])
        non_integral += None in (spectral[1], *spectral[2], *spectral[3])
    assert largest >= 6 and non_integral


# completely regular with d = 1 < 2s - 1 = 3: a zero column, and the
# columns (0, 2) and (1, 2) of GF(3)^2
OUTSIDE_DELSARTE = MatrixGF(GF(3), [[0, 0, 1], [0, 2, 2]])


def test_spectral_verdict_guards(monkeypatch):
    # a non-integral number under a completely regular verdict is an
    # error, never truncated or reported: on the Hamming code, which
    # Delsarte's bound decides, and on a code that needs its table (a
    # wrong top-level count is caught by analyze --brute-force, in
    # test_cli)
    inside = hamming_code(2, 3)
    outside = LinearCode.from_parity(OUTSIDE_DELSARTE)
    real = regularity.spectral_array

    def non_integral_b(*args):
        s, k_s, b, c = real(*args)
        return s, k_s, (None,) + b[1:], c

    monkeypatch.setattr(regularity, "spectral_array", non_integral_b)
    for code in (inside, outside):
        analysis = CodeAnalysis(code)
        with pytest.raises(RuntimeError, match="^non-integral intersection numbers"):
            analysis.report
        assert ("table" in vars(analysis)) == (code is outside)


def test_non_cr_witness():
    # level 1 holds the profiles (2, 0) and (1, 0), so both reports
    # give the verdict False at rho = 1 and no array
    code = LinearCode.from_parity(NON_CR_PROBE)
    level, profile = _profile_oracle(code)
    assert {profile[s] for s in level if level[s] == 1} == {(2, 0), (1, 0)}
    rep = complete_regularity_bruteforce(CodeAnalysis(code))
    assert rep == complete_regularity(code) == (False, 1, None)


def test_fast_and_bruteforce_reports_agree():
    rng = random.Random(83)
    for _ in range(30):
        q = rng.choice((2, 3, 4))
        code = _random_code(rng, q, rng.randrange(3, 7), rng.randrange(1, 4))
        slow = complete_regularity_bruteforce(CodeAnalysis(code))
        assert slow == complete_regularity(code)


def test_bruteforce_report_on_the_catalog(catalog48):
    # the verdict, rho and the array on every member and its dual, past
    # criterion 4's q^n <= 2^16 as well: the brute force
    # recounts q^m profiles of n(q-1) neighbours each, the count its
    # budget caps
    kinds = Counter()
    for desc, code in catalog48:
        for side in (code, code.dual()):
            q = side.field.q
            budget = Budgets(max_vectors=q**side.redundancy * side.n * (q - 1))
            analysis = CodeAnalysis(side, budget)
            slow = complete_regularity_bruteforce(analysis)
            assert slow == analysis.report, desc.slug
            kinds[slow.is_completely_regular] += 1
    assert kinds == {True: 70, False: 8}


def test_delsarte_bound_on_the_catalog():
    # every catalog-400 member has d >= 2s - 1, so its report is read off
    # the dual weights with no table built, and its table agrees: rho = s
    # and the top level holds k_s syndromes.  Where recounting every
    # profile is small (q^m * n(q-1) <= 2^17 neighbours: 163 members,
    # against 20 s for all 315) the table route's report, _scan_cosets
    # over _recount, equals it too
    members = recounted = 0
    for desc, code in family_catalog(400):
        analysis = CodeAnalysis(code)
        counts, dual_counts = analysis.weight_pair
        q, n = code.field.q, code.n
        s, k_s, _, _ = regularity.spectral_array(q, n, code.redundancy, dual_counts)
        assert nonzero_weights(counts)[0] >= 2 * s - 1, desc.slug
        report = analysis.report
        assert "table" not in vars(analysis), desc.slug
        st = analysis.table
        assert (st.rho, st.top_level_size) == (s, k_s), desc.slug
        members += 1
        if st.size * n * (q - 1) <= 1 << 17:
            profile = regularity._recount(st, [d for row in st.step for d in row[1:]])
            scanned = regularity._scan_cosets(q, n, st.leader_weight, profile)
            assert scanned == report, desc.slug
            recounted += 1
    assert (members, recounted) == (315, 163)


def test_bruteforce_against_both_verdict_branches():
    # the brute force agrees with complete_regularity, which builds a
    # table exactly for the codes outside Delsarte's bound d >= 2s - 1.
    # Every code inside it is completely regular; outside it are
    # completely regular codes and codes that are not, some of these at
    # d = 2s - 2, where a bound loosened by one would call them regular
    kinds = Counter()
    f = GF(3)
    codes = [
        LinearCode.from_parity(MatrixGF(f, [[1, 0], [0, 1]], 2)),  # k = 0
        LinearCode.from_parity(MatrixGF(f, [[0, 0, 0]], 3)),  # m = 0
    ]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_oracle_codes(q, 60, 2900))
    for code in codes:
        analysis = CodeAnalysis(code)
        report = analysis.report
        counts, dual_counts = analysis.weight_pair
        weights = nonzero_weights(counts)
        s = len(nonzero_weights(dual_counts))
        inside = not weights or weights[0] >= 2 * s - 1
        assert ("table" in vars(analysis)) != inside
        slow = complete_regularity_bruteforce(CodeAnalysis(code))
        assert slow == report
        kind = "inside" if inside else "outside"
        if not report.is_completely_regular:
            kind += ", not CR" + (" at d = 2s - 2" if weights[0] == 2 * s - 2 else "")
        kinds[kind] += 1
    assert kinds == {
        "inside": 265,
        "outside": 12,
        "outside, not CR": 142,
        "outside, not CR at d = 2s - 2": 17,
    }


def _planted(q, trials, seed):
    """_oracle_codes(q, trials, seed), each followed by the code whose
    parity check gains a random row of nonzero entries: a full-weight
    dual word."""
    f = GF(q)
    rng = random.Random(seed + q)
    for code in _oracle_codes(q, trials, seed):
        yield code
        rows = [list(row) for row in code.H.data]
        rows.append([rng.randrange(1, q) for _ in range(code.n)])
        yield LinearCode.from_parity(MatrixGF(f, rows, code.n))


def test_theorems_41_and_52_against_the_weights():
    # Both theorems have a weight form, checked here on the weight pair
    # with no walk of the test's own.  After scaling, a dual that holds a
    # full-weight word is W + <1>, and v + c*1 has weight n minus the
    # number of coordinates where v is -c.  So the dual's nonzero weights
    # are {w, n} for one w < n exactly when every nonzero word of W has
    # weight w and each symbol occurring in it occurs n - w times:
    # Theorem 4.1's equidistance and symbol-frequency flags.  Theorem
    # 5.2's hypothesis, two weights w2 < w1 = n, is that case, so both
    # of two_weight_structure's flags hold.  Corpus: the catalog-400
    # members, the catalog-200 duals whose own dual has at most 2^12
    # words, and seeded codes over GF(2..9), half of them with a planted
    # full-weight dual word.
    codes = [code for _, code in family_catalog(400)]
    codes += [
        code.dual() for _, code in family_catalog(200)
        if code.field.q**code.k <= 1 << 12
    ]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_planted(q, 20, 4100))
    kinds = Counter()
    for code in codes:
        analysis = CodeAnalysis(code)
        counts, dual_counts = analysis.weight_pair
        n = code.n
        dual_weights = nonzero_weights(dual_counts)
        if code.k >= 1 and code.redundancy >= 2:
            rep = verify_theorem41(analysis)
            assert rep.dual_antipodal == bool(dual_counts[n])
            if rep.dual_antipodal:
                flags = rep.equidistant_ok and rep.symbol_frequency_ok
                assert flags == (len(dual_weights) == 2)
                kinds["4.1", flags] += 1
        for side, side_counts in (("code", counts), ("dual", dual_counts)):
            weights = nonzero_weights(side_counts)
            if len(weights) == 2 and weights[1] == n:
                tw = two_weight_structure(code if side == "code" else code.dual())
                assert tw.w1_is_length
                assert tw.equidistant_ok and tw.symbol_frequency_ok
                kinds["5.2", side] += 1
    assert kinds == {
        ("4.1", True): 409,
        ("4.1", False): 112,
        ("5.2", "code"): 195,
        ("5.2", "dual"): 419,
    }


def coset_weight_counts(
    code: LinearCode, budget: Budgets = Budgets()
) -> list[list[int]]:
    """counts[s][w] = number of ambient vectors of weight w with syndrome
    s, accumulated in one pass over all q^n vectors.  Row s is also the
    distance distribution of any vector in coset s to the code.  This is
    the reference oracle for coset_low_weight_counts, which reaches the
    rows' low-weight columns by enumerating supports instead."""
    q, n = code.field.q, code.n
    total = q**n
    budget.require("max_vectors", total)
    st = CodeAnalysis(code, budget).table
    f = st.field
    # the walk turns coordinate j from a into (a + 1) % q by adding the
    # syndrome of (a + 1 - a)*e_j; its weight rises as the digit leaves 0
    # and falls as it wraps
    deltas = [f.sub((a + 1) % q, a) for a in range(q)]
    syndrome_steps = [[row[d] for d in deltas] for row in st.step]
    weight_steps = [[1] + [0] * (q - 2) + [-1]] * n
    counts = [[0] * (n + 1) for _ in range(st.size)]
    syndromes = odometer(0, syndrome_steps, lambda s, d: _add_digitwise(s, d, f.p))
    for s, w in zip(syndromes, odometer(0, weight_steps, int.__add__)):
        counts[s][w] += 1
    return counts


def coset_low_weight_counts(
    code: LinearCode, wmax: int, budget: Budgets = Budgets()
) -> list[list[int]]:
    """counts[s][w] for w <= wmax only, by enumerating supports instead
    of the whole space; touches sum_{w<=wmax} C(n,w)(q-1)^w vectors.
    With wmax = rho its distinct rows are the system that beta_solve
    solves from the dual weights instead: one equation
    sum_k beta_k * alpha_k(v) = 1 per kind of coset."""
    q, n = code.field.q, code.n
    total = sum(comb(n, w) * (q - 1) ** w for w in range(wmax + 1))
    budget.require("max_vectors", total)
    st = CodeAnalysis(code, budget).table
    p, step = st.field.p, st.step
    counts = [[0] * (wmax + 1) for _ in range(st.size)]
    counts[0][0] = 1
    for w in range(1, wmax + 1):
        for support in combinations(range(n), w):
            for values in product(range(1, q), repeat=w):
                s = 0
                for j, beta in zip(support, values):
                    s = _add_digitwise(s, step[j][beta], p)
                counts[s][w] += 1
    return counts


def test_coset_weight_counts_shape_and_marginals():
    rng = random.Random(43)
    for code in (
        hamming_code(2, 3), _random_code(rng, 4, 5, 2), _random_code(rng, 9, 4, 2)
    ):
        q, n = code.field.q, code.n
        counts = coset_weight_counts(code)
        assert counts[0] == weight_distribution(code)
        for w in range(n + 1):
            assert sum(row[w] for row in counts) == comb(n, w) * (q - 1) ** w
        leader_weight = CodeAnalysis(code).table.leader_weight
        for s, row in enumerate(counts):
            assert sum(row) == q ** code.k
            # the first nonzero distance is the leader weight
            first = next(w for w in range(n + 1) if row[w])
            assert first == leader_weight[s]
        oracle = [[0] * (n + 1) for _ in range(q**code.redundancy)]
        for vec in product(range(q), repeat=n):
            oracle[_from_base(code.H.mul_vector(vec), q)][_weight(vec)] += 1
        assert counts == oracle


def test_low_weight_counts_truncate_the_full_pass():
    rng = random.Random(97)
    for _ in range(10):
        q = rng.choice((2, 3))
        code = _random_code(rng, q, rng.randrange(3, 6), rng.randrange(1, 3))
        full = coset_weight_counts(code)
        wmax = covering_radius(code)
        low = coset_low_weight_counts(code, wmax)
        assert low == [row[: wmax + 1] for row in full]


def test_coset_count_budgets():
    code = hamming_code(2, 3)
    with pytest.raises(BudgetExceeded):
        coset_weight_counts(code, Budgets(max_vectors=127))
    with pytest.raises(BudgetExceeded):
        coset_low_weight_counts(code, 1, Budgets(max_vectors=7))


def test_bruteforce_budget():
    # 2^3 syndromes of the [7,4] Hamming code, 7 neighbours each
    code = hamming_code(2, 3)
    with pytest.raises(BudgetExceeded) as err:
        complete_regularity_bruteforce(CodeAnalysis(code, Budgets(max_vectors=55)))
    assert (err.value.budget, err.value.needed, err.value.limit) == (
        "max_vectors", 56, 55,
    )
    assert complete_regularity_bruteforce(
        CodeAnalysis(code, Budgets(max_vectors=56))
    ).rho == 1


def test_beta_solve_known_values():
    assert beta_solve(CodeAnalysis(hamming_code(2, 3))) == [1, 1]
    assert beta_solve(CodeAnalysis(hamming_code(2, 3).extended())) == [
        Fraction(1),
        Fraction(1),
        Fraction(1, 4),
    ]


def test_beta_solve_budget():
    # the dual weights come from the smaller side, 3^2 words of the
    # ternary [4,2] Hamming code; no ambient vector is walked
    code = hamming_code(3, 2)
    with pytest.raises(BudgetExceeded) as err:
        beta_solve(CodeAnalysis(code, Budgets(max_codewords=8)))
    assert (err.value.budget, err.value.needed, err.value.limit) == (
        "max_codewords", 9, 8,
    )
    assert beta_solve(
        CodeAnalysis(code, Budgets(max_codewords=9, max_vectors=0))
    ) == [1, 1]


def test_beta_solve_unsolvable_when_radius_below_external_distance():
    code = LinearCode.from_parity(MatrixGF(GF(2), [[1, 1, 0, 1], [0, 0, 0, 1]]))
    assert covering_radius(code) == 2
    assert external_distance(code) == 3
    assert beta_solve(CodeAnalysis(code)) is None
    report = analysis_report(code, with_beta=True)
    assert (report["uniformly_packed"], report["beta"]) == (False, None)


def _solve_fractions(rows, rhs):
    """A solution x of rows . x = rhs by Gauss-Jordan elimination on
    Fractions, free unknowns at 0; None when the system is inconsistent."""
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(len(rows[0])):
        top = len(pivots)
        sel = next((i for i in range(top, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[top], aug[sel] = aug[sel], aug[top]
        pivot = aug[top][col]
        aug[top] = [a / pivot for a in aug[top]]
        for i, row in enumerate(aug):
            if i != top and row[col]:
                aug[i] = [a - row[col] * b for a, b in zip(row, aug[top])]
        pivots.append(col)
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * len(rows[0])
    for row, col in zip(aug, pivots):
        x[col] = row[-1]
    return x


def test_solve_fractions():
    assert _solve_fractions([[2]], [3]) == [Fraction(3, 2)]
    assert _solve_fractions([[1, 1], [1, 1]], [1, 2]) is None
    assert _solve_fractions([[1, 1]], [2]) == [2, 0]
    assert _solve_fractions([[0, 2], [1, 1], [1, 3]], [2, 3, 5]) == [2, 1]


def _beta_oracle(code, rho):
    """The packing coefficients from their definition: one equation
    sum_k beta_k * alpha_k(v) = 1 per distinct row of the low-weight
    coset counts, up to distance rho."""
    rows = sorted({tuple(row) for row in coset_low_weight_counts(code, rho)})
    return _solve_fractions(rows, [1] * len(rows))


def test_packing_predicate_matches_beta_solvability(catalog48):
    # the dual-weight solve against the coset-count system, on the
    # catalog members and their duals, seeded random codes with zero and
    # repeated columns, and the codes with k = 0 and with m = 0
    codes = [c for _, code in catalog48 for c in (code, code.dual())]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_oracle_codes(q))
    f = GF(3)
    codes.append(LinearCode.from_parity(MatrixGF(f, [[1, 0], [0, 1]], 2)))
    codes.append(LinearCode.from_parity(MatrixGF(f, [[0, 0, 0]], 3)))
    assert [(c.k, c.redundancy) for c in codes[-2:]] == [(0, 2), (3, 0)]
    solvable = 0
    for code in codes:
        analysis = CodeAnalysis(code)
        rho = analysis.table.rho
        s = len(nonzero_weights(analysis.weight_pair[1]))
        assert rho <= s
        beta = beta_solve(analysis)
        assert beta == _beta_oracle(code, rho)
        assert (beta is None) == (rho != s)
        solvable += beta is not None
    assert (len(codes), solvable) == (150, 128)


def test_beta_solve_solves_the_krawtchouk_equations():
    # past the coset-count range: on every catalog-200 member and its
    # dual (n up to 127) and on seeded random codes, beta is None
    # exactly when rho < s, and otherwise solves sum_k beta_k K_k(0) =
    # q^m and sum_k beta_k K_k(w) = 0 at each nonzero dual weight w.
    # Where rho needs a table of more than 2^12 syndromes (up to 2^120
    # on the duals), beta is taken at rho = s, where the equations must
    # hold whatever the code's rho
    codes = [c for _, code in family_catalog(200) for c in (code, code.dual())]
    for q in (2, 3, 4, 5, 7, 8, 9):
        codes.extend(_oracle_codes(q, 60, 2900))
    kinds = Counter()
    for code in codes:
        q, n, m = code.field.q, code.n, code.redundancy
        analysis = CodeAnalysis(code, Budgets(max_syndromes=1 << 12))
        dual_weights = nonzero_weights(analysis.weight_pair[1])
        s = len(dual_weights)
        try:
            rho = analysis.report.rho
            kind = "rho = s" if rho == s else "rho < s"
        except BudgetExceeded:
            rho, kind = s, "taken at rho = s"
            analysis = SimpleNamespace(
                code=code,
                weight_pair=analysis.weight_pair,
                report=SimpleNamespace(rho=s),
            )
        beta = beta_solve(analysis)
        kinds[kind] += 1
        if rho < s:
            assert beta is None
            continue
        assert len(beta) == s + 1
        for w, target in zip((0, *dual_weights), [q**m] + [0] * s):
            values = _krawtchouk_values(q, n, w, s)
            assert sum(b * v for b, v in zip(beta, values)) == target
    assert kinds == {"rho = s": 543, "rho < s": 145, "taken at rho = s": 68}


def test_intersection_array_validation():
    arr = IntersectionArray.from_levels(2, 8, (8, 7), (1, 8))
    assert arr.rho == 2
    assert str(arr) == "(8,7;1,8)"
    with pytest.raises(ValueError):
        IntersectionArray.from_levels(2, 8, (8,), (1, 8))
    with pytest.raises(ValueError):
        IntersectionArray.from_levels(2, 8, (0,), (1,))
    with pytest.raises(ValueError):
        IntersectionArray.from_levels(2, 3, (9,), (1,))
