"""Recognizers for the structure theorems: the parity-column form that
characterizes covering-radius-1 complete regularity, the normal form
for covering-radius-2 codes with antipodal duals, the two-weight
generator structure, and an exhaustive small-parameter enumerator that
confirms the radius-1 characterization empirically.

"Up to equivalence" is operationalized as column-multiset
canonicalization plus explicit monomial normalization, never a generic
code-equivalence search: the recognized forms are all visible in the
multiset of parity columns after scaling.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .codes import (
    LinearCode,
    _column_points,
    canonical_column,
    iter_pg_points,
    iter_projective,
    nonzero_weights,
    num_pg_points,
    pg_points,
    weight_distribution,
)
from .field import GF
from .matrix import MatrixGF, row_space_basis, rref
from .regularity import (
    CodeAnalysis,
    IntersectionArray,
    RegularityReport,
    SyndromeTable,
    _analysis_of,
    _column_steps,
    _recount,
    _scan_cosets,
)


class TrivialCode(ValueError):
    """Raised for codes outside 2 <= k <= n-2, where the classification
    theorems make no statement."""


class NoZeroColumnReachable(RuntimeError):
    """Every structural flag holds but no puncture coordinate yields a
    residual of the recognized radius-1 form; reported instead of being
    treated as a failed verification."""


class NotTwoWeight(ValueError):
    pass


class _Rho1Fields(NamedTuple):
    m: int
    ell: int
    u: int


class Rho1Form(_Rho1Fields):
    """Parity columns are ell copies of every projective point of
    PG(m-1,q) plus u zero columns, so n = ell*(q^m-1)/(q-1) + u."""

    __slots__ = ()

    def __new__(cls, m: int, ell: int, u: int):
        form = super().__new__(cls, m, ell, u)
        if m < 1 or ell < 1 or u < 0:
            raise ValueError(f"inconsistent form {form}")
        return form

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    def length(self, q: int) -> int:
        return self.ell * num_pg_points(q, self.m) + self.u


class NotOfForm(NamedTuple):
    reason: str


def _columns_rho1_form(field, columns) -> Rho1Form | NotOfForm:
    """Recognize the repeated-full-point-set-plus-zeros column multiset;
    works on any full-row-rank parity matrix since invertible row maps
    permute projective points and preserve zero columns.

    m is the column length, which is the rank of a full-row-rank parity
    matrix, so no row reduction is needed.  Columns of lower rank (the
    Theorem 4.1 puncture loop can pass them) lie in a proper subspace,
    miss a point of PG(m-1, q) and give NotOfForm, as a rank-based m
    would too.  A missing point is reported before any multiplicity is
    read, so that NotOfForm depends only on the set of points."""
    u, groups = _column_points(field, columns)
    if not groups:
        return NotOfForm("no nonzero columns")
    m = len(next(iter(groups)))
    # Every group is a point of PG(m-1, q), so covering every point
    # means equality.
    for point in iter_pg_points(field, m):
        if point not in groups:
            return NotOfForm(
                f"columns cover {len(groups)} of the "
                f"{num_pg_points(field.q, m)} projective "
                f"points; first missing point {point}"
            )
    mults = sorted(set(groups.values()))
    if len(mults) != 1:
        return NotOfForm(f"point multiplicities are not constant: {mults}")
    return Rho1Form(m, mults[0], u)


def _require_nontrivial(n: int, k: int) -> None:
    if not 2 <= k <= n - 2:
        raise TrivialCode(f"[{n},{k}] is outside 2 <= k <= n-2")


def classify_rho1(code: LinearCode) -> Rho1Form | NotOfForm:
    """Decide whether some parity check of the code consists of a full
    projective point set repeated ell times plus u zero columns."""
    _require_nontrivial(code.n, code.k)
    return _columns_rho1_form(code.field, code.H.columns())


def rho1_intersection_array(q: int, form: Rho1Form) -> IntersectionArray:
    """The predicted radius-1 array: b0 = (q-1)*ell*n_m, c1 = ell; the
    derived a-values are then a0 = (q-1)u and a1 = (ell*n_m+u)(q-1)-ell."""
    n_m = num_pg_points(q, form.m)
    return IntersectionArray.from_levels(
        q, form.length(q), ((q - 1) * form.ell * n_m,), (form.ell,)
    )


def _rho1_disagreement(q: int, form, rep: RegularityReport) -> str | None:
    """How the recognized column form and the measured regularity
    disagree, or None: the form must be recognized exactly when the code
    is completely regular with covering radius 1, and then the measured
    array must be the predicted one."""
    recognized = isinstance(form, Rho1Form)
    if recognized != (rep.is_completely_regular and rep.rho == 1):
        return "column form and measured regularity disagree"
    if recognized and rep.array != rho1_intersection_array(q, form):
        return f"array {rep.array} differs from prediction"
    return None


def verify_theorem31(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    form: Rho1Form | NotOfForm | None = None,
) -> bool:
    """Check the radius-1 characterization on one code: the column form
    is recognized iff the code is completely regular with covering
    radius 1; on positives the measured array must equal the predicted
    one, and at radius 1 the form must also coincide with the dual being
    equidistant.  `form` is the code's classify_rho1 result, computed
    here when not given.  One CodeAnalysis gives the report and the dual
    weights."""
    if form is None:
        form = classify_rho1(code)
    analysis = CodeAnalysis(code, budget)
    rep = analysis.report
    if _rho1_disagreement(code.field.q, form, rep) is not None:
        return False
    return rep.rho != 1 or isinstance(form, Rho1Form) == (
        len(nonzero_weights(analysis.weight_pair[1])) == 1
    )


class Rho2Report(NamedTuple):
    """Outcome of the radius-2 normal-form verification.

    When all flags hold (dual_antipodal, equidistant_ok,
    symbol_frequency_ok, and a punctured form was found) the code is
    completely regular with covering radius 2.
    """

    dual_antipodal: bool
    column_scaling: tuple[int, ...] | None
    M: MatrixGF | None
    equidistant_ok: bool
    symbol_frequency_ok: bool
    punctured_rho1_form: Rho1Form | None
    puncture_column: int | None

    @property
    def all_flags(self) -> bool:
        return (
            self.dual_antipodal
            and self.equidistant_ok
            and self.symbol_frequency_ok
            and self.punctured_rho1_form is not None
        )


def _pinned(f, rows, pin: int) -> list[list[int]]:
    """Subtract from each row its own entry at column `pin`, which makes
    that column zero and moves each row by a multiple of all-ones."""
    return [[f.sub(x, row[pin]) for x in row] for row in rows]


def _antipodal_split(A: MatrixGF, pin: int):
    """The step Theorems 4.1 and 5.2 share, on a matrix A whose row space
    holds a full-weight word.  Scale the columns so that the first one
    becomes all-ones, pin column `pin` to zero and row-reduce: W is a
    basis of the scaled row space modulo all-ones, one row shorter than
    A.  Any such complement gives the same verdicts, since adding a
    constant to a word only translates its symbols, and scaling it only
    renames them, so W's projective classes give the weights of its
    nonzero words and the set of counts of each nonzero symbol in them.

    Returns (scaling, W, weights, counts)."""
    f, n = A.field, A.ncols
    full = next(word for word in iter_projective(A) if all(word))
    scaling = tuple(f.inv(x) for x in full)
    scaled = [[f.mul(scaling[j], row[j]) for j in range(n)] for row in A.data]
    W = row_space_basis(MatrixGF(f, _pinned(f, scaled, pin), n))
    if W.nrows != A.nrows - 1 or any(row[pin] for row in W.data):
        raise AssertionError("all-one row was not in the scaled row space")
    weights = set()
    counts = set()
    for word in iter_projective(W):
        symbols = Counter(word)
        weights.add(n - symbols.pop(0, 0))
        counts.update(symbols.values())
    return scaling, W, weights, counts


def verify_theorem41(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> Rho2Report:
    """Run the radius-2 normal-form checks.

    (1) find the first full-weight dual codeword in odometer order,
    walking the dual's projective classes only when its weights show one, (2)
    scale columns so all-ones lies in the dual, (3) split off the
    residual generator M, (4) check that M generates an equidistant code
    in which every symbol occurring in a nonzero codeword occurs exactly
    n - dtilde times, (5) search all n coordinates for a puncture whose
    residual has the radius-1 column form, and (6) cross-check the flags
    against the measured coset regularity whenever the covering radius
    is 2 and the dual is antipodal, which is the regime the equivalence
    speaks about.  The weight pair and the regularity report come from
    `analysis`, or from a fresh CodeAnalysis when none is given.

    Accepts k = 1 (redundancy >= 2 is all the normal form needs); the
    catalog's radius-2 list contains such members.
    """
    if code.k < 1 or code.redundancy < 2:
        raise TrivialCode(
            f"[{code.n},{code.k}] needs k >= 1 and redundancy >= 2"
        )
    f = code.field
    q, n = f.q, code.n
    analysis = _analysis_of(code, budget, analysis)

    dual_size = q**code.redundancy
    # Walk the dual only for a full-weight word that the weight pair
    # shows.  When neither side is within budget there is no weight
    # pair, and the budget error names the dual walk.
    if (
        min(q**code.k, dual_size) <= budget.max_codewords
        and not analysis.weight_pair[1][n]
    ):
        return Rho2Report(False, None, None, False, False, None, None)
    budget.require("max_codewords", dual_size)

    scaling, M, weights, counts = _antipodal_split(code.H, 0)
    dtilde = min(weights)
    equidistant_ok = len(weights) == 1
    symbol_frequency_ok = equidistant_ok and counts == {n - dtilde}

    form = None
    pcol = None
    for j in range(n):
        translated = _pinned(f, M.data, j)
        cols = [col for jj, col in enumerate(zip(*translated)) if jj != j]
        res = _columns_rho1_form(f, cols)
        if isinstance(res, Rho1Form):
            form = res
            pcol = j
            break

    report = Rho2Report(
        True, scaling, M, equidistant_ok, symbol_frequency_ok, form, pcol
    )
    _crosscheck_rho2(report, analysis)
    return report


def _crosscheck_rho2(report: Rho2Report, analysis: CodeAnalysis):
    code, rep = analysis.code, analysis.report
    if rep.rho != 2:
        return
    if rep.is_completely_regular == report.all_flags:
        return
    if (
        rep.is_completely_regular
        and report.equidistant_ok
        and report.symbol_frequency_ok
        and report.punctured_rho1_form is None
    ):
        raise NoZeroColumnReachable(
            f"[{code.n},{code.k}] is completely regular but no puncture "
            "coordinate produced the radius-1 column form"
        )
    raise AssertionError(
        f"[{code.n},{code.k}]: structural flags {report.all_flags} disagree "
        f"with measured regularity {rep.is_completely_regular} at radius 2"
    )


class TwoWeightStructure(NamedTuple):
    """Generator normal form for a two-weight code whose larger weight
    equals the length: an all-one row on top and below it rows ending in
    zero whose truncations generate an equidistant code in which every
    occurring nonzero symbol occurs exactly n - d times."""

    w1: int
    w2: int
    w1_is_length: bool
    column_scaling: tuple[int, ...] | None
    generator: MatrixGF | None
    M: MatrixGF | None
    equidistant_ok: bool
    symbol_frequency_ok: bool


def two_weight_structure(
    code: LinearCode, budget: Budgets = DEFAULT_BUDGETS
) -> TwoWeightStructure:
    """Theorem 5.2: the generator normal form of a two-weight code whose
    larger weight w1 is the length.  This is the Theorem 4.1 split read
    on the code's generator, which is its dual's parity check: scale the
    columns so a full-weight codeword becomes all-ones, then split off
    rows W that end in zero.  The generator is all-ones on top of W, and
    M is W without its last column; the flags check that M generates an
    equidistant code of weight w2 in which every nonzero symbol of a
    nonzero word occurs n - w2 times.  When w1 < n the form does not
    apply and only the weights are reported."""
    wts = nonzero_weights(weight_distribution(code, budget))
    if len(wts) != 2:
        raise NotTwoWeight(f"nonzero weights are {wts}, need exactly two")
    w2, w1 = wts
    f = code.field
    n = code.n
    if w1 != n:
        return TwoWeightStructure(w1, w2, False, None, None, None, False, False)

    scaling, W, weights, counts = _antipodal_split(code.G, n - 1)
    generator = MatrixGF(f, [[1] * n] + [list(row) for row in W.data], n)
    M = MatrixGF(f, [row[: n - 1] for row in W.data], n - 1)
    return TwoWeightStructure(
        w1, w2, True, scaling, generator, M, weights == {w2}, counts == {n - w2}
    )


# -- exhaustive confirmation at small parameters ---------------------------


class CorpusEntry(NamedTuple):
    columns: tuple[tuple[int, ...], ...]
    n: int
    k: int
    rho: int
    is_completely_regular: bool
    form: Rho1Form | NotOfForm
    array: IntersectionArray | None

    def code(self, q: int) -> LinearCode:
        f = GF(q)
        return LinearCode.from_parity(MatrixGF.from_columns(f, self.columns))


class CorpusReport(NamedTuple):
    q: int
    m: int
    n_max: int
    entries: tuple[CorpusEntry, ...]

    @property
    def positives(self) -> tuple[CorpusEntry, ...]:
        return tuple(
            e for e in self.entries if e.rho == 1 and e.is_completely_regular
        )

    @property
    def non_cr_witnesses(self) -> tuple[CorpusEntry, ...]:
        return tuple(e for e in self.entries if not e.is_completely_regular)


def _with_zero_columns(q: int, n: int, u: int, rep, form):
    """The report and column form of a length-n code with u zero columns
    whose nonzero columns are those of the code measured as (rep, form).
    Zero columns add only loops to the coset graph, so they change the
    a_i of the array, through n, and the u of a Rho1Form, and no more."""
    array = rep.array
    if array is not None:
        array = IntersectionArray.from_levels(q, n, array.b, array.c)
    if isinstance(form, Rho1Form):
        form = Rho1Form(form.m, form.ell, u)
    return RegularityReport(rep.is_completely_regular, rep.rho, array), form


def enumerate_rho1(
    q: int, m: int, n_max: int, budget: Budgets = DEFAULT_BUDGETS
) -> CorpusReport:
    """Iterate every parity-column multiset of rank m (columns drawn
    from the projective points of PG(m-1,q) plus the zero column, total
    count up to n_max, nontrivial lengths only) and confirm on each that
    the recognized column form coincides with measured complete
    regularity at covering radius 1.  A single disagreement is fatal.

    Each fact is computed once.  A multiset is u zero columns, which
    come first, then its nonzero part, in which equal columns are
    adjacent.  Row reduction makes neither a zero column nor a repeated
    one a pivot, so the multiset's reduced parity check is u zero
    columns followed by the reduced columns of its nonzero support, each
    repeated by its multiplicity.  Each nonzero support of rank m is
    row-reduced once, into a map from each of its points to the point of
    its reduced column.  A code's key is the multiset of points of its
    nonzero reduced columns, held as the sorted tuple of their indices
    in pg_points, each repeated by its multiplicity, read through its
    support's map and interned; the rank-m parts of each length are
    listed once, each with its key.  The key fixes the coset graph
    Cay(GF(q)^m, {beta*h_j}) up to loops, as a column h and its point P
    give the same steps {beta*h} = {beta*P}.  So each key is measured
    from its points, and no code is built.  The graph's distances depend
    only on its set of steps, so one syndrome table is built per set of
    points, each point's steps taken once, and only its leader weights
    are read.  A key's (c, b) profiles are recounted from those leader
    weights by _recount, under the key's steps, each point's repeated by
    its multiplicity, as the brute-force check recounts a code's.  A
    key's column form is read from its points.  Deriving the rest from
    u is exact: a zero column gives the step beta*0 = 0, which adds
    only loops, so the levels, b_i, c_i and rho do not depend on u,
    and each a_i = (q-1)n - b_i - c_i grows by (q-1)u.  The column form
    counts zeros apart from points, so u changes a Rho1Form's u and no
    NotOfForm reason.  Each (key, u) takes its array at its own length
    and its Rho1Form with its own u, and is checked against the column
    form on its first multiset.
    """
    f = GF(q)
    points = pg_points(f, m)
    total = sum(comb(len(points) + n, n) for n in range(m + 2, n_max + 1))
    budget.require("max_vectors", total)

    # images[support]: for each nonzero support of rank m, each of its
    # point indices -> the point index of that column in its one rref
    index = {point: i for i, point in enumerate(points)}
    images = {}
    for size in range(m, min(len(points), n_max) + 1):
        for support in combinations(range(len(points)), size):
            R, rk, _ = rref(MatrixGF.from_columns(f, [points[i] for i in support]))
            if rk == m:
                reduced = [index[canonical_column(f, c)] for c in R.columns()]
                images[frozenset(support)] = dict(zip(support, reduced))
    # parts[L]: the columns and the interned key of each nonzero part of
    # length L and rank m, in combinations_with_replacement order
    interned = {}
    parts = [([], []) for _ in range(n_max + 1)]
    for length, (walked, keys) in enumerate(parts):
        indices = combinations_with_replacement(range(len(points)), length)
        walk = combinations_with_replacement(points, length)
        for columns, part in zip(walk, indices):
            image = images.get(frozenset(part))
            if image is not None:
                key = tuple(sorted(map(image.__getitem__, part)))
                walked.append(columns)
                keys.append(interned.setdefault(key, key))

    rows = list(_column_steps(f, points))
    tables = {}  # point set -> (its syndrome table, its points' column form)

    def measure(key, n: int):
        # the report and column form of the key's coset graph without
        # loops, first met at length n
        point_set = frozenset(key)
        if point_set not in tables:
            table = SyndromeTable.from_steps(f, m, [rows[i] for i in point_set], budget)
            form = _columns_rho1_form(f, [points[i] for i in point_set])
            tables[point_set] = table, form
        # k = n - m, so at m < 2 the first key refuses
        _require_nontrivial(n, n - m)
        table, form = tables[point_set]
        # a missing point holds for every key on the point set; only a
        # cover is checked again, for its multiplicities
        if isinstance(form, Rho1Form):
            form = _columns_rho1_form(f, [points[i] for i in key])
        profile = _recount(table, [d for i in key for d in rows[i][1:]])
        return _scan_cosets(q, len(key), table.leader_weight, profile), form

    def entries():
        # yielded into the report's tuple, so no list of them is held too;
        # tuple.__new__ skips the NamedTuple's Python __new__
        new = tuple.__new__
        measured = {}  # key -> measure(key, n)
        for n in range(m + 2, n_max + 1):
            # combinations_with_replacement order: more zero columns first
            for u in range(n, -1, -1):
                # a key's length is n - u, so (key, u) recurs only here
                derived = {}  # key -> (rho, is_completely_regular, form, array)
                zeros = ((0,) * m,) * u
                for part, key in zip(*parts[n - u]):
                    fields = derived.get(key)
                    if fields is None:
                        if key not in measured:
                            measured[key] = measure(key, n)
                        rep, form = _with_zero_columns(q, n, u, *measured[key])
                        reason = _rho1_disagreement(q, form, rep)
                        if reason is not None:
                            raise AssertionError(f"{reason} on {zeros + part}")
                        fields = derived[key] = (
                            rep.rho, rep.is_completely_regular, form, rep.array
                        )
                    yield new(CorpusEntry, (zeros + part, n, n - m, *fields))

    return CorpusReport(q, m, n_max, tuple(entries()))
